//! Exact percentiles over stored samples.
//!
//! The paper's headline jitter metric is the 99.9th-percentile queueing
//! delay of a flow over a ten-minute run — a deep-tail quantile, so the
//! table-generating experiments store every end-to-end delay sample and
//! compute it exactly.  [`NanoSamples`] stores a flow's delays as the
//! integer nanoseconds the simulator measures them in; [`SampleSet`] stores
//! any `f64` samples, and is the oracle the integer store is tested
//! against.
//!
//! # What a sample costs
//!
//! A store keeps its samples in record order, packed 128 to a
//! block, each block coded against its own frame of reference: its least
//! sample as an eight-byte base, one byte giving the bit length `w` of its
//! greatest less its least, then every sample less the base in `w` bits,
//! least significant bit first — `16·w` bytes, `9 + 16·w` in all.  A block
//! is as wide as its own spread: a run of equal delays packs at width 0
//! (nine bytes for 128 samples; a TCP flow's acknowledgements all wait
//! 0 ns), and a sample of 2³² ns or more widens only the block it lands
//! in.  The newest samples, fewer than a block, stay raw in a tail, eight
//! bytes each, and the 128th packs them.  [`NanoSamples::stored_bytes`]
//! counts the packed bytes and the tail; over seed 7's 600-second runs it
//! reads 2.80 B a sample on the Table-3 chain (3.12 for its 22 declared
//! flows, 1.87 for its four TCP flows) and 3.12 on Table 1's WFQ link,
//! against four for the `Vec<u32>` this replaced.  A churn admission
//! rarely fills a block: its few samples stay raw, at eight bytes each.
//! A sample becomes seconds only when it is read, as `ns as f64 / 1e9` —
//! the expression of `SimTime::as_secs_f64`, so a reader sees the floats
//! a store of `as_secs_f64` values would have held.
//!
//! The packed buffer grows by one rule.  Below 4 KiB its capacity is a
//! power of two from 256 bytes (so a freed buffer fits the next store's).
//! When it fills 4 KiB it moves once into a fresh block of 128 KiB, and
//! doubles from there.  128 KiB is glibc's default `M_MMAP_THRESHOLD`:
//! `malloc` maps a block that large instead of carving it from the heap,
//! so its pages are faulted in only as samples reach them, and glibc's
//! `realloc` grows it with `mremap`, which copies nothing and leaves no old
//! block behind.  Plain doubling instead leaves each long-lived flow's
//! 8–64 KiB buffers in the heap as free chunks the next store rarely fits
//! in: 34–43 KB of resident memory per flow, about a tenth of the Table-3
//! chain's peak.  The move waits for 4 KiB so that a short flow — a
//! signalled admission delivers far fewer packets — keeps its small heap
//! buffer instead of mapping (and later unmapping) 128 KiB of its own.  A
//! moved buffer never moves again, not even when a sort packs it anew:
//! that would free a mapped block, and glibc raises its threshold past
//! every mapped block a process frees.
//!
//! The rule leans on glibc.  Another allocator, or a glibc whose dynamic
//! mapping threshold has risen above 128 KiB (it rises to the size of each
//! mapped block the process frees, up to 32 MiB), serves the 128 KiB block
//! from the heap like any other: every statistic stays the same and the
//! move still skips the 8–64 KiB stages, but later doublings copy and may
//! leave their old blocks behind, as plain doubling does.
//!
//! # What a report costs
//!
//! A scenario report decodes each stored sample twice and sorts it once.
//! [`NanoSamples::fold_then_sort`] is the one pass in stored order: it
//! loads each block's words onto the stack, hands every sample to a
//! Welford fold (sum, spread) and to a sort buffer of `u32` that the
//! caller keeps for all its stores, sorts that and packs it back — sorted
//! samples pack tighter, 1.75 B a sample on the Table-3 chain.  A store
//! that never filled a block (most churn admissions) sorts its tail in
//! place.  [`merge_runs`] then takes a class's mean and quantiles from a
//! tournament (loser-tree) merge over the per-flow sorted runs, comparing
//! the integers themselves, so the union of a class's samples is never
//! copied or re-sorted; each run is read through a cursor that decodes a
//! sample one pop before it is needed, off the tree's compare chain.
//! Dividing by 10⁹ is monotone, so an integer-sorted run reads as exactly
//! the float sequence a float sort of the converted samples gives.  The
//! class spread rides in the same loop: its Welford fold reads the runs
//! front to back beside the merge, so the fold's divide chain runs under
//! the tree's compare chain instead of as a pass of its own.

use std::hint::select_unpredictable;

use crate::StreamingStats;

/// A stored delay in seconds: `SimTime::as_secs_f64`'s expression.
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The key of an exhausted run in [`merge_runs`]'s tree: no sample sorts
/// above it.  A sample of `u64::MAX` ns ties it, which cannot show: once
/// the smaller samples are popped, every remaining pop reads `u64::MAX`,
/// whichever run it comes from, and the merge pops exactly as many samples
/// as the runs hold.
const EXHAUSTED: u64 = u64::MAX;

/// Samples a packed block holds.
const BLOCK: usize = 128;

/// The bytes of a block before its offsets: the base, eight little-endian
/// bytes, then the width, one.
const HEADER: usize = 9;

/// The least capacity a buffer of packed blocks takes.  Capacities are
/// powers of two, so a freed buffer fits the next one of its size.
const FIRST_BYTES: usize = 256;

/// A full buffer that would pass this many bytes, and holds less than
/// [`MAPPED_BYTES`], moves into a block of `MAPPED_BYTES` (module docs).
const MOVE_AT_BYTES: usize = 4 << 10;

/// The block a buffer moves to: glibc's default `M_MMAP_THRESHOLD`, so
/// `malloc` maps it and `realloc` grows it in place.
const MAPPED_BYTES: usize = 128 << 10;

/// What [`NanoSamples::sort`] decodes into: `u32` while every sample
/// fits, `u64` once one does not.
trait Sample: Copy + Ord + Into<u64> {
    /// `ns`, which the caller has checked fits.
    fn from_ns(ns: u64) -> Self;
}

impl Sample for u32 {
    fn from_ns(ns: u64) -> u32 {
        // The caller checked that the store's largest sample fits.
        ns as u32
    }
}

impl Sample for u64 {
    fn from_ns(ns: u64) -> u64 {
        ns
    }
}

/// Make room for `more` bytes at the end of `packed`: a buffer that would
/// pass [`MOVE_AT_BYTES`] and has not moved yet moves into a fresh block of
/// [`MAPPED_BYTES`], once; any other grows to the next power of two, at
/// least [`FIRST_BYTES`], which `realloc` serves.
fn reserve(packed: &mut Vec<u8>, more: usize) {
    if more > packed.capacity().saturating_sub(packed.len()) {
        grow(packed, more);
    }
}

#[cold]
fn grow(packed: &mut Vec<u8>, more: usize) {
    let needed = packed.len().saturating_add(more);
    if moves(packed.capacity(), needed) {
        #[cfg(test)]
        tests::MOVED.set(tests::MOVED.get().saturating_add(1));
        let mut moved = Vec::with_capacity(MAPPED_BYTES);
        moved.extend_from_slice(packed);
        *packed = moved;
    } else {
        let capacity = needed.next_power_of_two().max(FIRST_BYTES);
        packed.reserve_exact(capacity.saturating_sub(packed.len()));
    }
}

/// Whether a buffer of `capacity` bytes that must hold `needed` moves into
/// its mapped block: only one that has not yet reached [`MAPPED_BYTES`]
/// (moving a mapped buffer again would free a mapped block, and glibc
/// raises its mapping threshold past every block it frees).
fn moves(capacity: usize, needed: usize) -> bool {
    needed > MOVE_AT_BYTES && capacity < MAPPED_BYTES
}

/// The span of no samples: [`span`]'s start.
const EMPTY_SPAN: (u64, u64) = (u64::MAX, 0);

/// The least and the greatest of `block`.
fn span<T: Sample>(block: &[T]) -> (u64, u64) {
    block.iter().fold(EMPTY_SPAN, |(lo, hi), &ns| {
        let ns = ns.into();
        (lo.min(ns), hi.max(ns))
    })
}

/// Append `block`, [`BLOCK`] samples from `min` to `max`, to `packed` as
/// one frame-of-reference block: `min`, the bit length `w` of
/// `max − min`, and each sample less `min` in `w` bits, least significant
/// first — `16·w` bytes.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "min ≤ max, and w ≤ 64, so a block is at most 1 033 bytes"
)]
fn pack<T: Sample>(packed: &mut Vec<u8>, block: &[T], (min, max): (u64, u64)) {
    debug_assert_eq!(block.len(), BLOCK);
    debug_assert_eq!(span(block), (min, max));
    let width = u64::BITS - (max - min).leading_zeros();
    let mut words = [0u64; BLOCK];
    match width {
        0 => {}
        1..=8 => stream::<T, 8>(&mut words, block, min, width),
        9..=16 => stream::<T, 4>(&mut words, block, min, width),
        17..=32 => stream::<T, 2>(&mut words, block, min, width),
        _ => stream::<T, 1>(&mut words, block, min, width),
    }
    let words = &words[..BLOCK / 64 * width as usize];
    let start = packed.len();
    let end = start + HEADER + size_of_val(words);
    reserve(packed, end - start);
    packed.extend_from_slice(&min.to_le_bytes());
    packed.push(width as u8);
    packed.resize(end, 0);
    for (bytes, word) in packed[start + HEADER..].chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

/// Stream the offsets of `block` from `min`, `width` bits each, into
/// `words`, `G` offsets (as many as fit a word) joined into one value a
/// step: the same bits as one offset a step, in a `G`th of the steps.
/// Each value streams into `word`, which is stored at every step (the
/// same word again until it fills); a full word starts the next one with
/// what spilled past its end.  No branch: a block of any width packs at
/// the same pace.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "min ≤ every sample and G·w ≤ 64, so each group fits a word; \
              `filled` stays below 64 and `at` below BLOCK"
)]
fn stream<T: Sample, const G: usize>(words: &mut [u64; BLOCK], block: &[T], min: u64, width: u32) {
    let step = G as u32 * width;
    let (mut word, mut filled, mut at) = (0u64, 0, 0);
    for group in block.as_chunks::<G>().0 {
        let mut value = 0;
        for (j, &ns) in group.iter().enumerate() {
            value |= (ns.into() - min) << (j as u32 * width);
        }
        // The value shifted into place, and what spills past the word.
        let shifted = u128::from(value) << (filled % u64::BITS);
        word |= shifted as u64;
        words[at % BLOCK] = word;
        let full = filled + step >= u64::BITS;
        word = select_unpredictable(full, (shifted >> 64) as u64, word);
        at += usize::from(full);
        filled = (filled + step) % u64::BITS;
    }
}

/// The block at the front of `packed`: its least sample, its width, its
/// packed offsets, and the bytes after it.
fn split_block(packed: &[u8]) -> (u64, u32, &[u8], &[u8]) {
    let (base, rest) = packed.split_first_chunk().expect("a block has a base");
    let (&width, rest) = rest.split_first().expect("a block has a width");
    let (offsets, rest) = rest.split_at(BLOCK / 8 * usize::from(width));
    (u64::from_le_bytes(*base), u32::from(width), offsets, rest)
}

/// The packed offsets of a block as little-endian words.
fn words(offsets: &[u8]) -> impl Iterator<Item = u64> + '_ {
    offsets
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("eight bytes")))
}

/// The low `width` bits.
fn mask(width: u32) -> u64 {
    u64::MAX
        .checked_shr(u64::BITS.saturating_sub(width))
        .unwrap_or(0)
}

/// Sample `i` of a block of `width` whose offsets are the words `word(0)`,
/// `word(1)`, … (and a zero word after them): its offset, `width` bits
/// from bit `i·width` on, added to `base`.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "i < BLOCK and w ≤ 64, so the bit index is below 8 192; 63 − \
              shift cannot wrap; base + offset is a sample that was packed"
)]
fn sample(word: impl Fn(usize) -> u64, (base, width, mask): (u64, u32, u64), i: usize) -> u64 {
    let bit = i * width as usize;
    // The word is below BLOCK already; saying so lets an array of BLOCK + 1
    // words drop the bounds checks of the word and the one after it.
    let (at, shift) = ((bit / 64) % BLOCK, bit % 64);
    // The next word's share: nothing when `shift` is 0.
    let spill = word(at + 1) << 1 << (63 - shift);
    base + ((word(at) >> shift | spill) & mask)
}

/// A packed block with its offsets loaded into words, on the stack.
struct Block {
    /// The base, width and mask [`sample`] reads it with.
    frame: (u64, u32, u64),
    /// The offsets, and a zero word after them.
    words: [u64; BLOCK + 1],
}

impl Block {
    /// The block at the front of `packed`, and the bytes after it.
    fn load(packed: &[u8]) -> (Block, &[u8]) {
        let (base, width, offsets, rest) = split_block(packed);
        let mut words = [0; BLOCK + 1];
        for (word, offset) in words.iter_mut().zip(self::words(offsets)) {
            *word = offset;
        }
        let frame = (base, width, mask(width));
        (Block { frame, words }, rest)
    }

    /// Sample `i`.
    fn get(&self, i: usize) -> u64 {
        sample(|at| self.words[at], self.frame, i)
    }
}

/// Where the `q`-quantile of ascending samples ranked `0..=last` sits: the
/// ranks of the two order statistics it interpolates between and the
/// weight of the upper one.
fn quantile_span(q: f64, last: usize) -> (usize, usize, f64) {
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// Linear interpolation between the two order statistics a
/// [`quantile_span`] names, `at(rank)` being the sample of that rank.
fn interpolate((lo, hi, frac): (usize, usize, f64), at: impl Fn(usize) -> f64) -> f64 {
    if lo == hi {
        at(lo)
    } else {
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// The `q`-quantile in seconds of `n` ascending samples whose
/// [`order_statistics`](NanoSamples::order_statistics) are `(lo_ns, hi_ns)`:
/// [`NanoSamples::quantile`]'s interpolation, for a reader that kept only
/// those two samples and the count.  `q = 1` reads the last rank alone, so
/// `(max, max)` gives [`NanoSamples::max`].  0.0 for `n = 0`, as
/// `quantile` answers for an empty store.
pub fn quantile_between(q: f64, n: usize, (lo_ns, hi_ns): (u64, u64)) -> f64 {
    n.checked_sub(1).map_or(0.0, |last| {
        let span = quantile_span(q, last);
        interpolate(span, |rank| {
            secs(if rank == span.0 { lo_ns } else { hi_ns })
        })
    })
}

/// A bag of stored samples with exact order statistics.
#[derive(Debug, Clone)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl Default for SampleSet {
    fn default() -> Self {
        SampleSet::new()
    }
}

impl SampleSet {
    /// Create an empty sample set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add one sample.
    ///
    /// NaN samples are rejected at the door: a NaN carries no ordering
    /// information, so admitting one would poison every order statistic
    /// (and used to panic inside the sort).  Rejected samples do not count
    /// towards [`len`](SampleSet::len); callers that care can compare
    /// `len()` before and after.  Infinities are ordered values and are
    /// kept.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0.0 if empty: the samples summed in stored
    /// order from `+0.0`, the same fold [`StreamingStats::sum`] keeps, so
    /// this and [`mean_and_std_dev`](SampleSet::mean_and_std_dev) agree to
    /// the bit.
    ///
    /// [`StreamingStats::sum`]: crate::StreamingStats::sum
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().fold(0.0, |sum, x| sum + x) / self.samples.len() as f64
        }
    }

    /// Largest sample under [`f64::total_cmp`]'s order (so `+0.0` beats
    /// `-0.0`), or 0.0 if empty.  O(1) once the set is sorted.
    pub fn max(&self) -> f64 {
        let max = if self.sorted {
            self.samples.last().copied()
        } else {
            self.samples.iter().copied().max_by(f64::total_cmp)
        };
        max.unwrap_or(0.0)
    }

    /// Sort the stored samples in place, ascending in
    /// [`f64::total_cmp`]'s order (`record` rejects NaN, so that is the
    /// numeric order plus `-0.0 < +0.0`).
    pub fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
    /// statistics; 0.0 if the set is empty.  Sorts the set in place.
    ///
    /// `quantile(0.999)` is the "99.9 %ile" column of the paper's tables.
    pub fn quantile(&mut self, q: f64) -> f64 {
        let Some(last) = self.samples.len().checked_sub(1) else {
            return 0.0;
        };
        self.sort();
        interpolate(quantile_span(q, last), |rank| self.samples[rank])
    }

    /// Convenience: the 99.9th percentile.
    pub fn p999(&mut self) -> f64 {
        self.quantile(0.999)
    }

    /// Mean and sample (`n − 1`) standard deviation — the "jitter"
    /// statistic of the scenario reports — from one pass in stored order
    /// through a [`StreamingStats`](crate::StreamingStats): the mean is its
    /// running sum over the count (the same bits as
    /// [`mean`](SampleSet::mean)), the deviation its Welford spread (one
    /// shared variance implementation, numerically stable for long runs of
    /// near-identical delays).  `(0.0, 0.0)` if empty, and a deviation of
    /// 0.0 for fewer than two samples.
    pub fn mean_and_std_dev(&self) -> (f64, f64) {
        mean_and_std_dev(self.samples.iter().copied())
    }

    /// The deviation half of [`mean_and_std_dev`](SampleSet::mean_and_std_dev).
    pub fn sample_std_dev(&self) -> f64 {
        self.mean_and_std_dev().1
    }

    /// Fraction of samples strictly greater than `threshold` — the
    /// post-facto loss rate of a play-back application whose play-back point
    /// is set at `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let above = self.samples.iter().filter(|&&x| x > threshold).count();
        above as f64 / self.samples.len() as f64
    }

    /// Borrow the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// One pass of a [`StreamingStats`] over `samples`: their sum over the
/// count and their Welford spread, `(0.0, 0.0)` for none.
fn mean_and_std_dev(samples: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut acc = StreamingStats::new();
    for x in samples {
        acc.record(x);
    }
    mean_and_std_dev_of(&acc)
}

/// The sum over the count and the Welford spread of `acc`, `(0.0, 0.0)`
/// for no samples.
fn mean_and_std_dev_of(acc: &StreamingStats) -> (f64, f64) {
    (acc.sum() / acc.count().max(1) as f64, acc.sample_std_dev())
}

/// One flow's delay samples in integer nanoseconds, reported in seconds.
///
/// Packed in record order in blocks of 128 samples, each as wide as its
/// own spread needs, the newest samples raw in a short tail (see the
/// module docs).  The statistics are bit for bit those of a [`SampleSet`]
/// fed each sample's `ns as f64 / 1e9` in the same order.
#[derive(Debug, Clone)]
pub struct NanoSamples {
    /// Every full block of [`BLOCK`] samples, in stored order, packed.
    packed: Vec<u8>,
    /// How many blocks `packed` holds.
    blocks: usize,
    /// The samples after the last block, fewer than [`BLOCK`], raw.
    tail: Vec<u64>,
    /// The least and the greatest sample of the tail, kept as it fills
    /// (a pass over the full tail would branch on every new extreme).
    tail_span: (u64, u64),
    /// The largest sample, 0 if none.
    max: u64,
    sorted: bool,
}

impl Default for NanoSamples {
    fn default() -> Self {
        NanoSamples::new()
    }
}

impl NanoSamples {
    /// Create an empty store.
    pub fn new() -> Self {
        NanoSamples {
            packed: Vec::new(),
            blocks: 0,
            tail: Vec::new(),
            tail_span: EMPTY_SPAN,
            max: 0,
            sorted: true,
        }
    }

    /// Add one sample of `ns` nanoseconds.  Every 128th sample packs
    /// the tail into a block, and a full buffer grows by the rule of the
    /// module docs.
    pub fn record(&mut self, ns: u64) {
        self.max = self.max.max(ns);
        let (lo, hi) = self.tail_span;
        self.tail_span = (lo.min(ns), hi.max(ns));
        self.tail.push(ns);
        if self.tail.len() == BLOCK {
            self.pack_tail();
        }
        self.sorted = false;
    }

    /// Pack the full tail into a block.
    #[inline(never)]
    fn pack_tail(&mut self) {
        pack(&mut self.packed, &self.tail, self.tail_span);
        self.tail.clear();
        self.tail_span = EMPTY_SPAN;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "each block holds BLOCK samples in memory, so the count fits"
        )]
        {
            self.blocks += 1;
        }
    }

    /// Number of samples.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the samples are in memory, so their count fits a usize"
    )]
    pub fn len(&self) -> usize {
        self.blocks * BLOCK + self.tail.len()
    }

    /// `true` if no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes the samples take: the packed blocks and eight for each
    /// sample of the tail.  Deterministic, unlike the capacity around it.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "both terms are sizes of buffers in memory"
    )]
    pub fn stored_bytes(&self) -> usize {
        self.packed.len() + size_of_val(self.tail.as_slice())
    }

    /// `true` while the stored samples are known to be ascending: nothing
    /// recorded yet, or nothing recorded since the last
    /// [`sort`](NanoSamples::sort).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Sort the stored samples, ascending.
    pub fn sort(&mut self) {
        if !self.sorted {
            self.fold_then_sort(&mut StreamingStats::new(), &mut Vec::new());
        }
    }

    /// Record every sample into `fold`, in seconds and in stored order,
    /// then [`sort`](NanoSamples::sort) the store: one decoding pass for
    /// both.  A store that never filled a block sorts its tail in place;
    /// any other decodes into `scratch`, sorts that and packs it again
    /// (a store holding a sample of 2³² ns or more uses a buffer of its
    /// own), so a caller sorting many stores hands each the same buffer.
    pub fn fold_then_sort(&mut self, fold: &mut StreamingStats, scratch: &mut Vec<u32>) {
        // The fold travels by value, so that it stays in registers.
        let mut acc = fold.clone();
        if self.sorted {
            self.for_each(|ns| acc.record(secs(ns)));
        } else if self.blocks == 0 {
            self.tail.iter().for_each(|&ns| acc.record(secs(ns)));
            self.tail.sort_unstable();
        } else if u32::try_from(self.max).is_ok() {
            acc = self.repack_sorted(scratch, acc);
        } else {
            acc = self.repack_sorted(&mut Vec::<u64>::new(), acc);
        }
        *fold = acc;
        self.sorted = true;
    }

    /// [`mean_and_std_dev`](NanoSamples::mean_and_std_dev), then
    /// [`sort`](NanoSamples::sort): [`fold_then_sort`]'s one decoding pass
    /// for both.
    ///
    /// [`fold_then_sort`]: NanoSamples::fold_then_sort
    pub fn mean_and_std_dev_then_sort(&mut self, scratch: &mut Vec<u32>) -> (f64, f64) {
        let mut acc = StreamingStats::new();
        self.fold_then_sort(&mut acc, scratch);
        mean_and_std_dev_of(&acc)
    }

    /// Decode every sample into `scratch` (recording each into `fold`,
    /// which is returned), sort it and pack it back, the last
    /// `len % BLOCK` samples as the tail.
    fn repack_sorted<T: Sample>(
        &mut self,
        scratch: &mut Vec<T>,
        mut fold: StreamingStats,
    ) -> StreamingStats {
        scratch.clear();
        scratch.reserve(self.len());
        // A block's samples fill `scratch` through `extend`, which knows
        // their count: no capacity check a sample.
        let mut record = |ns| {
            fold.record(secs(ns));
            T::from_ns(ns)
        };
        self.for_each_block(|block| scratch.extend((0..BLOCK).map(|i| record(block.get(i)))));
        scratch.extend(self.tail.iter().map(|&ns| record(ns)));
        scratch.sort_unstable();
        self.packed.clear();
        self.blocks = 0;
        self.tail.clear();
        let mut blocks = scratch.chunks_exact(BLOCK);
        for block in &mut blocks {
            let (first, last) = (block[0].into(), block[BLOCK - 1].into());
            pack(&mut self.packed, block, (first, last));
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "no more blocks than the store held before"
            )]
            {
                self.blocks += 1;
            }
        }
        self.tail
            .extend(blocks.remainder().iter().map(|&ns| ns.into()));
        self.tail_span = span(&self.tail);
        fold
    }

    /// Hand `each` every packed block, in stored order, loaded onto the
    /// stack.
    fn for_each_block(&self, mut each: impl FnMut(&Block)) {
        let mut packed = self.packed.as_slice();
        while !packed.is_empty() {
            let (block, rest) = Block::load(packed);
            each(&block);
            packed = rest;
        }
    }

    /// Hand `each` every sample, in stored order.
    fn for_each(&self, mut each: impl FnMut(u64)) {
        self.for_each_block(|block| (0..BLOCK).for_each(|i| each(block.get(i))));
        self.tail.iter().for_each(|&ns| each(ns));
    }

    /// The samples in nanoseconds, in stored order (ascending once
    /// sorted).
    pub fn nanos(&self) -> impl Iterator<Item = u64> + '_ {
        Cursor::new(self)
    }

    /// The samples in seconds, in stored order (ascending once sorted).
    pub fn secs(&self) -> impl Iterator<Item = f64> + '_ {
        Cursor::new(self).map(secs)
    }

    /// Mean and sample (`n − 1`) standard deviation in seconds, from one
    /// pass in stored order: [`SampleSet::mean_and_std_dev`]'s fold.
    pub fn mean_and_std_dev(&self) -> (f64, f64) {
        let mut acc = StreamingStats::new();
        self.for_each(|ns| acc.record(secs(ns)));
        mean_and_std_dev_of(&acc)
    }

    /// The `q`-quantile in seconds, interpolated as
    /// [`SampleSet::quantile`] does; 0.0 if empty.  Sorts the store.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.sort();
        match self.order_statistics(q) {
            Some(pair) => quantile_between(q, self.len(), pair),
            None => 0.0,
        }
    }

    /// The two samples, in nanoseconds and ascending, that the
    /// `q`-quantile interpolates between (the same one twice when it sits
    /// on a rank); `None` if empty.  [`quantile_between`] of them is
    /// [`quantile`](NanoSamples::quantile).
    ///
    /// # Panics
    ///
    /// If a sample was recorded since the last [`sort`](NanoSamples::sort).
    pub fn order_statistics(&self, q: f64) -> Option<(u64, u64)> {
        assert!(self.sorted, "order statistics of an unsorted store");
        let (lo, hi, _) = quantile_span(q, self.len().checked_sub(1)?);
        Some((self.at(lo), self.at(hi)))
    }

    /// The sample at `rank` in stored order: in the tail, or found by a
    /// walk over the headers of the blocks before its own and decoded
    /// alone.
    fn at(&self, rank: usize) -> u64 {
        let block = rank / BLOCK;
        if block < self.blocks {
            self.packed_at(block, rank % BLOCK)
        } else {
            self.tail[rank % BLOCK]
        }
    }

    /// Sample `i` of packed block `block`.
    #[inline(never)]
    fn packed_at(&self, block: usize, i: usize) -> u64 {
        let packed = (0..block).fold(self.packed.as_slice(), |rest, _| split_block(rest).3);
        let (base, width, offsets, _) = split_block(packed);
        let word = |at: usize| words(offsets).nth(at).unwrap_or(0);
        sample(word, (base, width, mask(width)), i)
    }

    /// Largest sample in seconds, or 0.0 if empty.
    pub fn max(&self) -> f64 {
        secs(self.max)
    }
}

/// A store's samples in stored order, each decoded one call before it is
/// returned, so that a reader waiting on it (a merge's compare chain)
/// finds it ready.
#[derive(Debug, Default)]
struct Cursor<'a> {
    /// The base, width and mask of the block being read.
    frame: (u64, u32, u64),
    /// Its offsets and a zero word — or, once the blocks are read, the
    /// tail itself: a block of width 64 on base 0.
    words: Vec<u64>,
    /// The samples in `words`, and how many are decoded.
    len: usize,
    decoded: usize,
    /// What the next call returns.
    ahead: Option<u64>,
    /// The blocks not yet loaded.
    packed: &'a [u8],
    /// The tail, until it is loaded.
    tail: Option<&'a [u64]>,
}

impl<'a> Cursor<'a> {
    fn new(store: &'a NanoSamples) -> Self {
        let mut cursor = Cursor {
            packed: &store.packed,
            tail: Some(&store.tail),
            ..Cursor::default()
        };
        cursor.ahead = cursor.decode();
        cursor
    }

    /// The first sample not yet decoded, if any.
    fn decode(&mut self) -> Option<u64> {
        if self.decoded == self.len && !self.load() {
            return None;
        }
        let ns = sample(|at| self.words[at], self.frame, self.decoded);
        #[expect(clippy::arithmetic_side_effects, reason = "decoded < len")]
        {
            self.decoded += 1;
        }
        Some(ns)
    }

    /// Load the next block, or else the tail; `false` once nothing is
    /// left.
    #[inline(never)]
    fn load(&mut self) -> bool {
        self.words.clear();
        let (frame, len) = if self.packed.is_empty() {
            match self.tail.take() {
                Some(tail) if !tail.is_empty() => {
                    self.words.extend_from_slice(tail);
                    ((0, u64::BITS, u64::MAX), tail.len())
                }
                _ => return false,
            }
        } else {
            let (base, width, offsets, rest) = split_block(self.packed);
            self.words.extend(words(offsets));
            self.packed = rest;
            ((base, width, mask(width)), BLOCK)
        };
        // The zero word after the offsets; a block of width 0 has no
        // offsets, and its sample 0 reads words 0 and 1.
        self.words
            .resize(self.words.len().max(1).saturating_add(1), 0);
        (self.frame, self.len, self.decoded) = (frame, len, 0);
        true
    }
}

impl Iterator for Cursor<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let ns = self.ahead?;
        self.ahead = self.decode();
        Some(ns)
    }
}

/// The mean and the `quantiles` of the union of `runs`, each run sorted,
/// from one tournament merge that never materialises the union — and, in
/// the same loop, every sample of `runs[spread_from..]` recorded into
/// `spread` in seconds, run after run, each run front to back.
///
/// Returns `(mean, values)` in seconds, `values[i]` being the
/// `quantiles[i]`-quantile: bit for bit what recording every run's seconds
/// into one [`SampleSet`], sorting it and asking it for its mean and those
/// quantiles gives.  The mean is the sum in ascending order over the count
/// (samples that tie are equal integers, so the tie-break between runs
/// cannot show), and the quantiles interpolate the same ranks.  An empty
/// union reports 0.0 throughout.  `spread` ends bit for bit as if the
/// caller had recorded `runs[spread_from..]` into it itself, so a caller
/// that fed it the runs before `spread_from` in another order keeps one
/// running fold.
///
/// # Panics
///
/// If `spread_from > runs.len()`.
pub fn merge_runs(
    runs: &[&NanoSamples],
    quantiles: &[f64],
    spread_from: usize,
    spread: &mut StreamingStats,
) -> (f64, Vec<f64>) {
    let spread_runs = &runs[spread_from..];
    let n: usize = runs.iter().map(|run| run.len()).sum();
    let Some(last) = n.checked_sub(1) else {
        return (0.0, vec![0.0; quantiles.len()]);
    };
    let spans: Vec<_> = quantiles.iter().map(|&q| quantile_span(q, last)).collect();
    // The ranks some quantile reads, ascending, and the samples found there
    // (filled in place: a `push` in the loop would spill its floats).
    let mut wanted: Vec<usize> = spans.iter().flat_map(|&(lo, hi, _)| [lo, hi]).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let mut found = vec![0.0; wanted.len()];
    let mut filled = 0;
    let mut next_wanted = wanted.first().copied().unwrap_or(usize::MAX);

    // The tournament: leaf `k + r` is run `r`'s least unread sample, node
    // `p`'s children are `2p` and `2p + 1`, and every node `1 ≤ p < k`
    // holds the loser of the match played there as `(key, run)`.  The
    // winner of the whole tree is kept aside in `(key, run)`.  Empty runs
    // pad `k` to a power of two, so every replay climbs the same number of
    // levels and the loop's exit is predicted (leaves at two depths made
    // it mispredict, ~10 % of the merge with ten runs).
    let k = runs.len().next_power_of_two();
    let mut unread: Vec<Cursor> = runs.iter().map(|run| Cursor::new(run)).collect();
    unread.resize_with(k, Cursor::default);
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`unread` holds k runs of several bytes each, so 2k fits a usize"
    )]
    let mut winners = vec![(EXHAUSTED, 0); 2 * k];
    for (r, run) in unread.iter_mut().enumerate() {
        #[expect(clippy::arithmetic_side_effects, reason = "r < k, so k + r < 2k")]
        let leaf = k + r;
        winners[leaf] = (run.next().unwrap_or(EXHAUSTED), r);
    }
    let mut losers = vec![(EXHAUSTED, 0); k];
    for p in (1..k).rev() {
        #[expect(clippy::arithmetic_side_effects, reason = "p < k, so 2p + 1 < 2k")]
        let (a, b) = (winners[2 * p], winners[2 * p + 1]);
        (winners[p], losers[p]) = if b.0 < a.0 { (b, a) } else { (a, b) };
    }
    let (mut key, mut run) = winners[1];
    let mut sum = 0.0;
    // The spread's runs front to back, one sample beside each pop (a local
    // copy of the fold stays in registers).
    let mut acc = spread.clone();
    let mut spread_samples = spread_runs.iter().flat_map(|run| Cursor::new(run));
    for rank in 0..n {
        let x = secs(key);
        sum += x;
        if rank == next_wanted {
            found[filled] = x;
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "one step per wanted rank, so at most `wanted.len()`"
            )]
            {
                filled += 1;
            }
            next_wanted = wanted.get(filled).copied().unwrap_or(usize::MAX);
        }
        if let Some(y) = spread_samples.next() {
            acc.record(secs(y));
        }
        // The winner's run offers its next sample and replays the matches
        // on its leaf's path; the lesser side goes on up, without a branch.
        key = unread[run].next().unwrap_or(EXHAUSTED);
        #[expect(clippy::arithmetic_side_effects, reason = "run < k, so k + run < 2k")]
        let mut node = (k + run) / 2;
        while node > 0 {
            let held = losers[node];
            let held_wins = held.0 < key;
            losers[node] = select_unpredictable(held_wins, (key, run), held);
            (key, run) = select_unpredictable(held_wins, held, (key, run));
            node /= 2;
        }
    }
    *spread = acc;
    let at = |rank: usize| found[wanted.partition_point(|&w| w < rank)];
    let values = spans.iter().map(|&span| interpolate(span, at)).collect();
    (sum / n as f64, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// How many buffers of this thread moved into a mapped block.
        pub(super) static MOVED: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn empty_set_is_zero() {
        let mut s = SampleSet::new();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn exact_quantiles_of_known_data() {
        let mut s = SampleSet::new();
        for i in 0..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.len(), 101);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.quantile(0.25) - 25.0).abs() < 1e-9);
        assert!((s.p999() - 99.9).abs() < 1e-9);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates() {
        let mut s = SampleSet::new();
        s.record(10.0);
        s.record(20.0);
        assert!((s.quantile(0.5) - 15.0).abs() < 1e-9);
        assert!((s.quantile(0.75) - 17.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_quantile() {
        let mut s = SampleSet::new();
        s.record(42.0);
        assert_eq!(s.quantile(0.1), 42.0);
        assert_eq!(s.quantile(0.999), 42.0);
    }

    #[test]
    fn sample_std_dev_degenerate_cases_are_zero() {
        // n = 0 and n = 1 are pinned to 0.0 — never NaN from a 0/0 divisor.
        let mut s = SampleSet::new();
        assert_eq!(s.mean_and_std_dev(), (0.0, 0.0));
        s.record(42.0);
        assert_eq!(s.mean_and_std_dev(), (42.0, 0.0));
        // n = 2: matches the textbook two-pass value exactly enough.
        s.record(44.0);
        assert!((s.sample_std_dev() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn sample_std_dev_matches_two_pass_variance() {
        let mut s = SampleSet::new();
        let xs: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 10.0)
            .collect();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let two_pass = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (xs.len() - 1) as f64)
            .sqrt();
        assert!((s.sample_std_dev() - two_pass).abs() < 1e-9);
        // The same pass's mean is `mean()`'s running sum, not Welford's
        // running mean: equal bits, not merely close.
        assert_eq!(s.mean_and_std_dev().0.to_bits(), s.mean().to_bits());
    }

    #[test]
    fn fraction_above_counts_strictly_greater() {
        let mut s = SampleSet::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.fraction_above(2.0), 0.5);
        assert_eq!(s.fraction_above(0.0), 1.0);
        assert_eq!(s.fraction_above(4.0), 0.0);
    }

    #[test]
    fn record_after_quantile_keeps_correctness() {
        let mut s = SampleSet::new();
        for x in [5.0, 1.0, 3.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.5), 3.0);
        s.record(10.0);
        s.record(0.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 10.0);
    }

    #[test]
    fn nan_samples_are_rejected_not_panicked() {
        let mut s = SampleSet::new();
        s.record(2.0);
        s.record(f64::NAN);
        s.record(1.0);
        // The NaN never entered: two samples, sane order statistics.
        assert_eq!(s.len(), 2);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 2.0);
        assert!((s.mean() - 1.5).abs() < 1e-12);
        // Infinities are ordered values and stay.
        s.record(f64::INFINITY);
        assert_eq!(s.len(), 3);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn max_is_the_true_maximum_and_zero_only_when_empty() {
        // Used to be clamped at 0.0 from below: `{-3, -1}` reported 0.0.
        let mut s = SampleSet::new();
        assert_eq!(s.max(), 0.0);
        s.record(-3.0);
        s.record(-1.0);
        s.record(-2.0);
        assert_eq!(s.max(), -1.0, "unsorted");
        s.sort();
        assert_eq!(s.max(), -1.0, "sorted");
        // The total order breaks the one tie floats have.
        let mut zeros = SampleSet::new();
        zeros.record(0.0);
        zeros.record(-0.0);
        assert_eq!(zeros.max().to_bits(), 0.0f64.to_bits());
        zeros.sort();
        assert_eq!(zeros.max().to_bits(), 0.0f64.to_bits());
    }

    /// One of every kind of float `record` keeps, in ascending total order.
    const LADDER: [f64; 11] = [
        f64::NEG_INFINITY,
        -1e300,
        -1.5,
        -5e-324,
        -0.0,
        0.0,
        5e-324,
        2.2250738585072014e-308,
        1.5,
        1e300,
        f64::INFINITY,
    ];

    #[test]
    fn sort_is_the_total_cmp_sort_bit_for_bit() {
        // Every ladder rung three times over, dealt out of order.
        let dealt: Vec<f64> = (0..33).map(|i| LADDER[(i * 7) % LADDER.len()]).collect();
        let mut expected = dealt.clone();
        expected.sort_by(f64::total_cmp);
        let mut s = SampleSet::new();
        for &x in &dealt {
            s.record(x);
        }
        s.sort();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s.samples()), bits(&expected));
        assert_eq!(s.quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(s.quantile(1.0), f64::INFINITY);
    }

    /// Delays at every edge, ascending: zero, one second, the narrow
    /// store's largest and the first that widens it, 2⁵³ (where `as f64`
    /// starts rounding) and the largest a `SimTime` holds.
    const NS_LADDER: [u64; 9] = [
        0,
        1,
        999_999_999,
        1_000_000_000,
        (1 << 32) - 1,
        1 << 32,
        1 << 53,
        (1 << 53) + 1,
        u64::MAX,
    ];

    /// A store of `ns`, recorded in that order.
    fn store(ns: &[u64]) -> NanoSamples {
        let mut s = NanoSamples::new();
        for &x in ns {
            s.record(x);
        }
        s
    }

    /// The oracle of a store: the same samples as seconds in a `SampleSet`.
    fn oracle(ns: &[u64]) -> SampleSet {
        let mut s = SampleSet::new();
        for &x in ns {
            s.record(x as f64 / 1e9);
        }
        s
    }

    /// The quantiles [`assert_store_is_the_oracle`] compares: the four a
    /// class reports, and both ends.
    pub(super) const QS: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.0, 1.0];

    /// A store reports what its `SampleSet` oracle reports, to the bit,
    /// and holds its samples in record order until sorted.
    pub(super) fn assert_store_is_the_oracle(ns: &[u64]) {
        assert_is_the_oracle(store(ns), ns);
    }

    /// `s`, whose samples stand in the order of `ns`, reports what the
    /// `SampleSet` oracle of `ns` reports, to the bit.
    fn assert_is_the_oracle(mut s: NanoSamples, ns: &[u64]) {
        let mut o = oracle(ns);
        assert_eq!(s.len(), ns.len());
        assert_eq!(s.nanos().collect::<Vec<_>>(), ns);
        assert_eq!(s.max().to_bits(), o.max().to_bits(), "unsorted max, {ns:?}");
        assert_eq!(s.mean_and_std_dev(), o.mean_and_std_dev(), "{ns:?}");
        // Mean and jitter from the pass that sorts, then the quantiles and
        // the maximum.
        let (mean, jitter) = o.mean_and_std_dev();
        let expected = [mean, jitter].into_iter().chain(QS.map(|q| o.quantile(q)));
        let expected: Vec<u64> = expected.chain([o.max()]).map(f64::to_bits).collect();
        let (mean, jitter) = s.mean_and_std_dev_then_sort(&mut Vec::new());
        let stats = [mean, jitter].into_iter().chain(QS.map(|q| s.quantile(q)));
        let stats: Vec<u64> = stats.chain([s.max()]).map(f64::to_bits).collect();
        assert_eq!(stats, expected, "{ns:?}");
        assert!(s.is_sorted());
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        assert_eq!(s.nanos().collect::<Vec<_>>(), sorted);
        // A sorted store folds in its sorted order, and stays sorted.
        let (mut acc, mut fold) = (StreamingStats::new(), StreamingStats::new());
        s.fold_then_sort(&mut acc, &mut Vec::new());
        sorted.iter().for_each(|&x| fold.record(secs(x)));
        assert_eq!(format!("{acc:?}"), format!("{fold:?}"));
        // The two samples a quantile reads are enough to read it again,
        // and the maximum twice reads as the maximum.
        for q in QS {
            let pair = s.order_statistics(q);
            let again = pair.map_or(0.0, |pair| quantile_between(q, ns.len(), pair));
            assert_eq!(again.to_bits(), o.quantile(q).to_bits(), "q = {q}, {ns:?}");
        }
        if let Some(&max) = sorted.last() {
            let again = quantile_between(1.0, ns.len(), (max, max));
            assert_eq!(again.to_bits(), s.max().to_bits(), "{ns:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn order_statistics_of_an_unsorted_store_panic() {
        let mut s = store(&[3, 1, 2]);
        assert_eq!(s.quantile(0.5), secs(2));
        assert_eq!(s.order_statistics(0.5), Some((2, 2)));
        s.record(0);
        s.order_statistics(0.5);
    }

    #[test]
    fn nano_store_widens_once_and_keeps_every_sample() {
        let mut s = NanoSamples::new();
        assert!(s.is_empty() && s.is_sorted());
        assert_eq!((s.quantile(0.5), s.max()), (0.0, 0.0));
        assert_eq!(s.mean_and_std_dev(), (0.0, 0.0));
        assert_eq!(s.stored_bytes(), 0);
        // A sample of 2³² ns or more widens only the block it lands in:
        // blocks of width 9, the middle one's sample 60 at 2³² ns.
        let narrow = |i: usize| 1_000 + (i % BLOCK) as u64 * 3;
        let wide_at = BLOCK + 60;
        let ns: Vec<u64> = (0..3 * BLOCK + 5)
            .map(|i| if i == wide_at { 1 << 32 } else { narrow(i) })
            .collect();
        let s = store(&ns);
        assert_eq!(widths(&s), [9, 32, 9]);
        assert_eq!(s.stored_bytes(), 3 * HEADER + 16 * (9 + 32 + 9) + 5 * 8);
        assert_store_is_the_oracle(&ns);
        // One arriving in the tail stays raw there, and widens the block
        // the tail becomes.
        let mut ns: Vec<u64> = (0..2 * BLOCK + 3).map(narrow).collect();
        ns.extend([1 << 32, 9]);
        let mut s = store(&ns);
        assert_eq!(widths(&s), [9, 9]);
        assert_eq!(s.tail, ns[2 * BLOCK..]);
        assert_store_is_the_oracle(&ns);
        while s.len() < 3 * BLOCK {
            s.record(1_000);
        }
        assert_eq!(widths(&s), [9, 9, 32]);
        // Every ladder rung, one at a time, alone, dealt out of order and
        // with the wide ones partway through.
        for &x in &NS_LADDER {
            assert_store_is_the_oracle(&[x]);
        }
        let dealt: Vec<u64> = (0..400)
            .map(|i| NS_LADDER[(i * 4) % NS_LADDER.len()])
            .collect();
        assert_store_is_the_oracle(&dealt);
        assert_store_is_the_oracle(&[5, 2, (1 << 32) - 1, 1 << 32, 4, 0]);
    }

    /// The width of each packed block of `s`, in stored order.
    fn widths(s: &NanoSamples) -> Vec<u32> {
        let mut packed = s.packed.as_slice();
        let mut widths = Vec::new();
        while !packed.is_empty() {
            let (_, width, _, rest) = split_block(packed);
            widths.push(width);
            packed = rest;
        }
        assert_eq!(widths.len(), s.blocks);
        widths
    }

    #[test]
    fn a_block_is_as_wide_as_its_spread() {
        // Each block alternates its two ends: all equal, 0 and 1, then the
        // widest spreads below and at 2³² ns, and 0 beside `u64::MAX`.
        for (lo, hi, width) in [
            (5, 5, 0),
            (0, 1, 1),
            (0, u64::from(u32::MAX), 32),
            (0, 1 << 32, 33),
            (7, 7 + (1 << 40), 41),
            (0, u64::MAX, 64),
        ] {
            let ns: Vec<u64> = (0..BLOCK + 3)
                .map(|i| if i % 3 == 1 { hi } else { lo })
                .collect();
            let s = store(&ns);
            assert_eq!(widths(&s), [width], "{lo}..={hi}");
            assert_eq!(s.stored_bytes(), HEADER + 16 * width as usize + 3 * 8);
            assert_store_is_the_oracle(&ns);
        }
    }

    #[test]
    fn stores_on_either_side_of_a_block_edge_are_the_oracle() {
        // A tail's worth is BLOCK − 1 samples: the BLOCK-th packs them.
        let stream = |n: usize| -> Vec<u64> {
            (0..n as u64)
                .map(|i| (i * 7_919) % 1_000_003 * 1_000 + i % 3)
                .collect()
        };
        for n in [
            0,
            1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            2 * BLOCK - 1,
            2 * BLOCK,
            2 * BLOCK + 1,
        ] {
            let ns = stream(n);
            let s = store(&ns);
            assert_eq!((s.blocks, s.tail.len()), (n / BLOCK, n % BLOCK), "{n}");
            assert_store_is_the_oracle(&ns);
        }
    }

    #[test]
    fn records_after_a_sort_and_clones_are_the_oracle() {
        let ns: Vec<u64> = (0..3 * BLOCK as u64 + 40)
            .map(|i| (i * 104_729) % 99_991)
            .collect();
        let mut s = store(&ns[..300]);
        let copy = s.clone();
        assert_is_the_oracle(copy, &ns[..300]);
        s.sort();
        let mut stored = ns[..300].to_vec();
        stored.sort_unstable();
        // Sorted data packs tighter than record order.
        assert!(s.stored_bytes() < store(&ns[..300]).stored_bytes());
        for &x in &ns[300..] {
            s.record(x);
        }
        stored.extend_from_slice(&ns[300..]);
        assert!(!s.is_sorted());
        assert_is_the_oracle(s.clone(), &stored);
        assert_is_the_oracle(s, &stored);
    }

    #[test]
    fn order_statistics_read_every_rank_of_a_three_block_store() {
        let ns: Vec<u64> = (0..3 * BLOCK as u64 + 17)
            .map(|i| {
                if i == 200 {
                    1 << 40
                } else {
                    (i * 7_919) % 4_099
                }
            })
            .collect();
        let mut s = store(&ns);
        for (rank, &x) in ns.iter().enumerate() {
            assert_eq!(s.at(rank), x, "stored rank {rank}");
        }
        s.sort();
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        let last = ns.len() - 1;
        for (rank, &x) in sorted.iter().enumerate() {
            assert_eq!(s.at(rank), x, "sorted rank {rank}");
            let q = rank as f64 / last as f64;
            let (lo, hi, _) = quantile_span(q, last);
            assert_eq!(
                s.order_statistics(q),
                Some((sorted[lo], sorted[hi])),
                "q = {q}"
            );
        }
    }

    #[test]
    fn a_store_moves_once_into_its_mapped_block_when_it_fills_four_kib() {
        // Blocks of width 9 take 153 bytes: the buffer doubles from 256
        // bytes while it stays within 4 KiB, moves into 128 KiB at the
        // block that would take it past, and doubles from there by
        // `realloc` — never moving again, not even when a sort packs it
        // anew.
        MOVED.set(0);
        let ns: Vec<u64> = (0..2_000 * BLOCK as u64)
            .map(|i| 1_000 + i % 128 * 3)
            .collect();
        let mut s = NanoSamples::new();
        let mut capacities = vec![0];
        for (i, &x) in ns.iter().enumerate() {
            s.record(x);
            if capacities.last() != Some(&s.packed.capacity()) {
                capacities.push(s.packed.capacity());
                if s.packed.capacity() == MAPPED_BYTES {
                    assert_eq!(s.packed.len(), 27 * 153, "moved after {} samples", i + 1);
                }
            }
        }
        assert_eq!(
            capacities,
            [0, 256, 512, 1_024, 2_048, 4_096, 131_072, 262_144, 524_288]
        );
        assert_eq!(MOVED.get(), 1);
        assert_eq!(s.nanos().collect::<Vec<_>>(), ns);
        s.sort();
        assert_eq!(s.packed.capacity(), 524_288);
        assert_eq!(MOVED.get(), 1);
        // A store within 4 KiB never moves.
        MOVED.set(0);
        let mut s = store(&ns[..26 * BLOCK]);
        s.sort();
        assert_eq!((s.packed.capacity(), MOVED.get()), (4_096, 0));
        // The rule itself: only a buffer short of its mapped block moves.
        assert!(moves(4_096, 4_097) && moves(MAPPED_BYTES - 1, MAPPED_BYTES + 1));
        assert!(!moves(MAPPED_BYTES, MAPPED_BYTES + 1) && !moves(1 << 30, 1 << 31));
        assert!(!moves(2_048, 4_096));
    }

    #[test]
    fn quantile_between_of_no_samples_is_zero() {
        // `NanoSamples::quantile`'s answer for an empty store; it used to
        // underflow computing the last rank.
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(quantile_between(q, 0, (0, 0)), 0.0);
            assert_eq!(quantile_between(q, 0, (7, u64::MAX)), 0.0);
        }
    }

    /// What the merge replaces: pool every run's seconds into one set, sort
    /// it, and ask that for the quantiles and the mean.
    fn pooled(runs: &[&[u64]], quantiles: &[f64]) -> (f64, Vec<f64>) {
        let mut pool = oracle(&runs.concat());
        pool.sort();
        let values = quantiles.iter().map(|&q| pool.quantile(q)).collect();
        (pool.mean(), values)
    }

    /// Each run as a sorted store.
    fn sorted_stores(runs: &[&[u64]]) -> Vec<NanoSamples> {
        runs.iter()
            .map(|run| {
                let mut s = store(run);
                s.sort();
                s
            })
            .collect()
    }

    /// The merge against the pool, at every split of the runs between a
    /// caller's own spread pass and the merge's: the mean and quantiles are
    /// the pool's to the bit, and the spread is a plain fold over
    /// `runs[spread_from..]` to the bit (compared through `{:?}`, which
    /// prints the count and every float field's round-trip digits).  The
    /// runs are given ascending; each one that holds a sample of 2³² ns or
    /// more is a wide store, the others narrow.
    pub(super) fn assert_merge_is_the_pool(runs: &[&[u64]], quantiles: &[f64]) {
        let bits = |(mean, values): (f64, Vec<f64>)| {
            (
                mean.to_bits(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        let expected = bits(pooled(runs, quantiles));
        let stores = sorted_stores(runs);
        let stores: Vec<&NanoSamples> = stores.iter().collect();
        for spread_from in 0..=runs.len() {
            let mut spread = StreamingStats::new();
            let merged = merge_runs(&stores, quantiles, spread_from, &mut spread);
            assert_eq!(bits(merged), expected, "{runs:?} at {quantiles:?}");
            let mut fold = StreamingStats::new();
            for &x in runs[spread_from..].iter().copied().flatten() {
                fold.record(x as f64 / 1e9);
            }
            assert_eq!(
                format!("{spread:?}"),
                format!("{fold:?}"),
                "{runs:?} spread from run {spread_from}"
            );
        }
    }

    /// The merge with no spread to fold.
    fn merged(runs: &[&[u64]], quantiles: &[f64]) -> (f64, Vec<f64>) {
        let stores = sorted_stores(runs);
        let stores: Vec<&NanoSamples> = stores.iter().collect();
        merge_runs(&stores, quantiles, runs.len(), &mut StreamingStats::new())
    }

    /// `s` seconds in nanoseconds.
    const S: u64 = 1_000_000_000;

    #[test]
    fn merge_of_one_run_is_that_run() {
        let qs = [0.0, 0.25, 0.5, 0.999, 1.0];
        assert_merge_is_the_pool(&[&[100, 200, 200, 700, 1900]], &qs);
        let (mean, values) = merged(&[&[S, 2 * S, 3 * S]], &[0.5, 0.75]);
        assert_eq!((mean, values), (2.0, vec![2.0, 2.5]));
    }

    #[test]
    fn merge_skips_empty_runs_and_reads_every_last_element() {
        let qs = [0.5, 0.9, 0.99, 0.999, 1.0];
        let (a, b, c) = ([1, 4, 9, 9], [4, 4, 25 * S, 25 * S], [3]);
        assert_merge_is_the_pool(&[&a, &[], &b, &[], &c], &qs);
        // The union's maximum is the last element of the middle run, then
        // of the first: a merge that drops a run's tail loses it.
        assert_merge_is_the_pool(&[&b, &a], &[1.0]);
        assert_merge_is_the_pool(&[&a, &b], &[1.0]);
        assert_eq!(merged(&[&a, &b], &[1.0]).1, [25.0]);
    }

    #[test]
    fn merge_of_nothing_is_zero() {
        for runs in [&[][..], &[&[][..], &[][..]][..]] {
            assert_eq!(merged(runs, &[0.5, 1.0]), (0.0, vec![0.0, 0.0]));
            assert_eq!(merged(runs, &[]), (0.0, vec![]));
            assert_merge_is_the_pool(runs, &[0.5]);
        }
    }

    #[test]
    fn merge_of_a_single_sample_reports_it_at_every_quantile() {
        let runs: [&[u64]; 3] = [&[], &[42_000_000], &[]];
        assert_merge_is_the_pool(&runs, &[0.0, 0.1, 0.999, 1.0, f64::NAN]);
        assert_eq!(merged(&runs, &[0.3]), (0.042, vec![0.042]));
    }

    #[test]
    fn merge_serves_a_rank_to_every_quantile_that_reads_it() {
        // Five samples: 0.5 and 0.75 both read rank 2 or 3, 0.5 is asked
        // for twice, and the selection is out of order and out of range.
        let (a, b) = ([S, 3 * S, 5 * S], [2 * S, 4 * S]);
        let qs = [0.75, 0.5, 1.0, 0.5, 0.0, 0.625, -1.0, 7.0];
        assert_merge_is_the_pool(&[&a, &b], &qs);
        assert_eq!(
            merged(&[&a, &b], &qs).1,
            [4.0, 3.0, 5.0, 3.0, 1.0, 3.5, 1.0, 5.0]
        );
    }

    #[test]
    fn merge_sums_in_ascending_order_across_widths_and_extremes() {
        // Narrow and wide runs side by side, both holding zeros; a
        // `u64::MAX` sample ties the exhausted-run key, alone and in
        // several runs at once.
        let a = [0, 0, 1_000_000, 10 * S, (1 << 32) - 1];
        let b = [0, 100_000_000, 100_000_000, 1 << 32, 1 << 53];
        assert_merge_is_the_pool(&[&a, &b], &[0.0, 0.5, 0.9, 1.0]);
        assert_merge_is_the_pool(&[&[u64::MAX], &[u64::MAX]], &[0.5, 1.0]);
        let c = [3, u64::MAX];
        assert_merge_is_the_pool(&[&c, &a, &[], &c], &[0.0, 0.5, 0.9, 1.0]);
        assert_eq!(merged(&[&c, &a], &[1.0]).1, [u64::MAX as f64 / 1e9]);
        // Every run count from 1 to 40 — most of them padded, the largest
        // to a six-level tree — with empty and one-sample runs among them
        // and every ladder rung shared between runs.
        let dealt: Vec<Vec<u64>> = (0..40)
            .map(|r| {
                let mut run: Vec<u64> = (0..r % 5)
                    .map(|i| NS_LADDER[(3 * r + 7 * i) % NS_LADDER.len()])
                    .collect();
                run.sort_unstable();
                run
            })
            .collect();
        for k in 1..=dealt.len() {
            let runs: Vec<&[u64]> = dealt[..k].iter().map(Vec::as_slice).collect();
            assert_merge_is_the_pool(&runs, &[0.0, 0.3, 0.5, 0.999, 1.0]);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A delay drawn by [`delay`]: a grid code, a raw draw and how many
    /// more times it repeats (mostly none).
    fn delays(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u32, u64, u16)>> {
        proptest::collection::vec((0u32..120, any::<u64>(), any::<u16>()), len)
    }

    /// Mostly a coarse grid (so samples tie), with the width edges and the
    /// extremes common and an unconstrained value now and then.
    fn delay(g: u32, raw: u64) -> u64 {
        match g {
            0..=99 => u64::from(g % 40) * 700_000,
            100..=103 => [0, (1 << 32) - 1, 1 << 32, u64::MAX][g as usize - 100],
            _ => raw,
        }
    }

    /// The drawn delays in order, one in eight repeated into a run of up
    /// to 400 equal samples — runs that cover whole blocks (width 0) and
    /// runs that straddle block edges.
    fn stream(draws: Vec<(u32, u64, u16)>) -> Vec<u64> {
        draws
            .into_iter()
            .flat_map(|(g, raw, repeat)| {
                let times = if repeat % 8 == 0 {
                    1 + usize::from(repeat >> 3) % 400
                } else {
                    1
                };
                std::iter::repeat_n(delay(g, raw), times)
            })
            .collect()
    }

    proptest! {
        /// Quantiles are monotone in q and bounded by the sample extremes.
        #[test]
        fn quantiles_monotone(xs in proptest::collection::vec(0.0f64..1e6, 1..300)) {
            let mut s = SampleSet::new();
            for &x in &xs { s.record(x); }
            let q25 = s.quantile(0.25);
            let q50 = s.quantile(0.50);
            let q99 = s.quantile(0.99);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(q25 <= q50 + 1e-9);
            prop_assert!(q50 <= q99 + 1e-9);
            prop_assert!(q25 >= min - 1e-9);
            prop_assert!(q99 <= max + 1e-9);
        }

        /// An integer store reports what a `SampleSet` of the same samples
        /// in seconds reports, to the bit: mean and jitter in record order,
        /// quantiles and maximum — for streams that stay below 2³² ns,
        /// that start above, and that cross partway through (a narrow
        /// prefix, then a wide sample, then anything, with runs of equal
        /// samples).  Streams span up to a few dozen blocks, past the
        /// 4 KiB that move a buffer into its mapped block, and the merge of
        /// the sorted stream with a sorted prefix of it is the pool of the
        /// two.
        #[test]
        fn nano_store_matches_the_sample_set(
            prefix in proptest::collection::vec(0u64..1 << 32, 0..1_400),
            widen in (0u8..3, (1u64 << 32)..u64::MAX),
            rest in delays(0..700),
        ) {
            let widen = (widen.0 > 0).then_some(widen.1);
            let stream: Vec<u64> = prefix.into_iter().chain(widen).chain(stream(rest)).collect();
            super::tests::assert_store_is_the_oracle(&stream);
            let mut whole = stream.clone();
            whole.sort_unstable();
            let mut head = stream[..stream.len() / 2].to_vec();
            head.sort_unstable();
            super::tests::assert_merge_is_the_pool(&[&whole, &head], &super::tests::QS);
        }

        /// Merging sorted runs gives the pooled set's mean and quantiles to
        /// the bit and folds every run suffix's spread to the bit, ties and
        /// all, over trees of 1 to 40 runs where empty and one-sample runs
        /// are common, runs of several blocks are not rare, narrow and wide
        /// runs mix, and `u64::MAX` samples tie the exhausted-run key —
        /// whatever the quantile selection.
        #[test]
        fn merge_matches_the_pooled_set(
            runs in proptest::collection::vec(delays(0..12), 1..41),
            qs in proptest::collection::vec(-0.1f64..1.1, 0..6),
        ) {
            let runs: Vec<Vec<u64>> = runs
                .into_iter()
                .map(|run| {
                    let mut run = stream(run);
                    run.sort_unstable();
                    run
                })
                .collect();
            let runs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
            super::tests::assert_merge_is_the_pool(&runs, &qs);
        }
    }
}
