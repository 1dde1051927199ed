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
//! A store keeps its samples packed 128 to a block.  A block in record
//! order is coded against its own frame of reference: its least sample as
//! an eight-byte base, one byte giving the bit length `w` of its greatest
//! less its least, then every sample less the base in `w` bits, least
//! significant bit first — `16·w` bytes, `9 + 16·w` in all.  A block is as
//! wide as its own spread: a run of equal delays packs at width 0 (nine
//! bytes for 128 samples; a TCP flow's acknowledgements all wait 0 ns), and
//! a sample of 2³² ns or more widens only the block it lands in.  The
//! newest samples, fewer than a block, stay raw in a tail, eight bytes
//! each, and the 128th packs them.
//!
//! Record order is the costly part: a queue's delays wander over most of
//! their range within 128 packets.  A store marked order-free
//! ([`NanoSamples::set_order_free`]; the scenario facade marks the flows
//! its report reads) gives that order up.  Each time its record-order
//! blocks reach 4 096 samples it decodes them into the caller's sort
//! buffer, sorts them and packs them back in their place as one sealed
//! run; one byte offset separates the sealed runs from the record-order
//! blocks after them.  A sealed block is gap-coded: its
//! first sample is the base, and its offsets are the gaps from each sample
//! to the one before (0 for the first), as wide as the widest gap; the top
//! bit of its width byte marks the first block of a run.  Mean
//! and jitter need no order: every store folds each sample into them as
//! it arrives.
//!
//! [`NanoSamples::stored_bytes`] counts the packed bytes and the tail.
//! Over seed 7's 600-second runs it reads 1.61 B a sample on Table 1's WFQ
//! link (its ten flows sealed; 3.12 in record order) and 1.88 on the
//! Table-3 chain: 1.89 for its 22 sealed flows (3.12 in record order),
//! 1.87 for its four TCP flows, which keep it.  The `Vec<u32>` this
//! replaced took four.  A churn admission keeps record order, and rarely
//! fills a block: its few samples stay raw, at eight bytes each.  A sample
//! becomes seconds only when it is read, as `ns as f64 / 1e9` — the
//! expression of `SimTime::as_secs_f64`, so a reader sees the floats a
//! store of `as_secs_f64` values would have held.
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
//! moved buffer never moves again, not even when a seal packs it anew in
//! place: that would free a mapped block, and glibc raises its threshold
//! past every mapped block a process frees.
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
//! A flow's mean and jitter are the store's own fold, so a report reads
//! them without decoding a sample, and every report of a flow reads the
//! same bits.  For its order statistics a report first seals the store
//! ([`NanoSamples::seal`]): the record-order blocks, if any, are sealed in
//! place into runs of at most 4 096 samples, one run at a time through the
//! caller's sort buffer, the last run together with the tail, whose
//! greatest samples then stay raw as a sorted tail that continues that run.
//! That is the only write a report makes, and a store sealed since its
//! last sample is not touched again: a declared flow's store holds at most
//! one short run and its tail to seal, an order-kept store (a TCP
//! connection's) seals whole at its first report.  The sort buffer never
//! holds more than one run and a tail; nothing is decoded into a buffer as
//! long as the flow, and nothing is packed twice.
//!
//! A sealed store is then read where it lies, through a tournament
//! (loser-tree) merge over its runs and its sorted tail.  Samples recorded
//! after a report follow the merge in record order, until the next report
//! seals them: so a store reads ascending up to its last report, then as
//! recorded since, the order the class jitter folds it in.  Each run is
//! read through a cursor that decodes its gap-coded blocks straight from
//! the packed bytes, one sample ahead of the tree, so the decode stays off
//! the tree's compare chain; a match compares a sample and its run packed into one integer
//! (`u64` while every sample fits 32 bits).  [`merge_runs`] takes a class's
//! mean and quantiles from one merge over every run of the class — ten
//! flows of 50 000 samples are 130 runs — and folds the class spread in the
//! same loop from each store's own merge, one sample beside each pop, so
//! the fold's divide chain runs under the trees' compare chains instead of
//! as a pass of its own; each store's own merge also notes the two samples
//! its percentile reads, so a report needs no pass of its own for them.
//! Dividing by 10⁹ is monotone, so an integer-sorted run reads as exactly
//! the float sequence a float sort of the converted samples gives.

use std::hint::select_unpredictable;

use crate::StreamingStats;

/// A stored delay in seconds: `SimTime::as_secs_f64`'s expression.
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Samples a packed block holds.
const BLOCK: usize = 128;

/// Samples a sealed run holds at most.
const RUN: usize = 4_096;

/// The bytes of a block before its offsets: the base, eight little-endian
/// bytes, then the width, one.
const HEADER: usize = 9;

/// The bit of a width byte that marks the first block of a sealed run.
const RUN_START: u8 = 0x80;

/// The least capacity a buffer of packed blocks takes.  Capacities are
/// powers of two, so a freed buffer fits the next one of its size.
const FIRST_BYTES: usize = 256;

/// A full buffer that would pass this many bytes, and holds less than
/// [`MAPPED_BYTES`], moves into a block of `MAPPED_BYTES` (module docs).
const MOVE_AT_BYTES: usize = 4 << 10;

/// The block a buffer moves to: glibc's default `M_MMAP_THRESHOLD`, so
/// `malloc` maps it and `realloc` grows it in place.
const MAPPED_BYTES: usize = 128 << 10;

/// What a store sorts through: `u32` while every sample fits, `u64` once
/// one does not.
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

/// The span of no samples: a tail's span before its first sample.
const EMPTY_SPAN: (u64, u64) = (u64::MAX, 0);

/// The bit length of `max − min`: the width of a block of that spread.
#[expect(clippy::arithmetic_side_effects, reason = "min ≤ max")]
fn width_of((min, max): (u64, u64)) -> u32 {
    u64::BITS - (max - min).leading_zeros()
}

/// The bytes a block of `width` takes: its header and `16·width` bytes of
/// offsets.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "width ≤ 64, so a block is at most 1 033 bytes"
)]
fn block_bytes(width: u32) -> usize {
    HEADER + BLOCK / 8 * width as usize
}

/// The gaps of `block`, [`BLOCK`] ascending samples: each sample less the
/// one before, 0 for the first.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "the block ascends, so no gap is negative"
)]
fn gaps<T: Sample>(block: &[T]) -> [u64; BLOCK] {
    debug_assert!(block.len() == BLOCK && block.is_sorted());
    let mut gaps = [0u64; BLOCK];
    for (gap, pair) in gaps[1..].iter_mut().zip(block.windows(2)) {
        *gap = pair[1].into() - pair[0].into();
    }
    gaps
}

/// The width `block`, [`BLOCK`] ascending samples, packs at gap-coded:
/// that of its widest gap.
fn gap_width<T: Sample>(block: &[T]) -> u32 {
    width_of((0, gaps(block).into_iter().max().unwrap_or(0)))
}

/// Write one block into `out`, exactly [`block_bytes`]`(width)` long:
/// `base`, the width byte (`width`, with `flag` set in its top bit on a
/// run's first block), and each of the [`BLOCK`] `values`, which run from
/// `min` up within `width` bits, less `min`, least significant bit first.
/// A record-order block is headed by its least sample and its values are
/// its samples; a gap-coded one is headed by its first sample and its
/// values are its [`gaps`], from 0.
fn encode<T: Sample>(out: &mut [u8], base: u64, values: &[T], min: u64, width: u32, flag: u8) {
    debug_assert_eq!(values.len(), BLOCK);
    debug_assert_eq!(out.len(), block_bytes(width));
    let mut words = [0u64; BLOCK];
    match width {
        0 => {}
        1..=8 => stream::<T, 8>(&mut words, values, min, width),
        9..=16 => stream::<T, 4>(&mut words, values, min, width),
        17..=32 => stream::<T, 2>(&mut words, values, min, width),
        _ => stream::<T, 1>(&mut words, values, min, width),
    }
    let (header, offsets) = out.split_at_mut(HEADER);
    header[..HEADER - 1].copy_from_slice(&base.to_le_bytes());
    header[HEADER - 1] = width as u8 | flag;
    for (bytes, word) in offsets.chunks_exact_mut(8).zip(words) {
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
        // The value shifted into place, and what spilled past the word.
        let shifted = u128::from(value) << (filled % u64::BITS);
        word |= shifted as u64;
        words[at % BLOCK] = word;
        let full = filled + step >= u64::BITS;
        word = select_unpredictable(full, (shifted >> 64) as u64, word);
        at += usize::from(full);
        filled = (filled + step) % u64::BITS;
    }
}

/// A packed block's header, read: its base, whether it starts a sealed
/// run, and its offsets.
#[derive(Debug, Clone, Copy)]
struct Header<'a> {
    base: u64,
    starts_run: bool,
    offsets: Offsets<'a>,
}

/// A packed block's offsets, read in place: little-endian words of
/// `width` bits an offset, least significant first.
#[derive(Debug, Clone, Copy)]
struct Offsets<'a> {
    /// The words, two at least: a block of width 0 reads [`ZERO_WORDS`].
    words: &'a [[u8; 8]],
    width: u32,
    /// The low `width` bits.
    mask: u64,
}

/// The offsets of a block of width 0.
static ZERO_WORDS: [[u8; 8]; 2] = [[0; 8]; 2];

impl Default for Offsets<'_> {
    fn default() -> Self {
        Offsets {
            words: &ZERO_WORDS,
            width: 0,
            mask: 0,
        }
    }
}

impl Offsets<'_> {
    /// Offset `i`: `width` bits from bit `i·width` on.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "i < BLOCK and w ≤ 64, so the bit index is below 8 192; 63 − \
                  shift cannot wrap; a block of width w ≥ 1 has 2w words"
    )]
    fn get(&self, i: usize) -> u64 {
        let bit = i * self.width as usize;
        let (at, shift) = (bit / 64, bit % 64);
        let word = |at: usize| u64::from_le_bytes(self.words[at]);
        // The next word's share: nothing when `shift` is 0.  Past the last
        // word it is read only for bits above the width, which the mask
        // drops, so the last word stands in for it.
        let spill = word((at + 1).min(self.words.len() - 1)) << 1 << (63 - shift);
        (word(at) >> shift | spill) & self.mask
    }

    /// Every offset, in order: the words loaded onto the stack once, and
    /// each offset read as [`get`](Offsets::get) reads it, without a
    /// bounds check (the word index is taken modulo [`BLOCK`], which it
    /// never reaches, and a zero word follows the last).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "i < BLOCK and w ≤ 64, so the bit index is below 8 192; 63 − \
                  shift cannot wrap"
    )]
    fn all(&self) -> [u64; BLOCK] {
        let mut words = [0u64; BLOCK + 1];
        for (word, bytes) in words.iter_mut().zip(self.words) {
            *word = u64::from_le_bytes(*bytes);
        }
        std::array::from_fn(|i| {
            let bit = i * self.width as usize;
            let (at, shift) = ((bit / 64) % BLOCK, bit % 64);
            (words[at] >> shift | words[at + 1] << 1 << (63 - shift)) & self.mask
        })
    }
}

/// The block at the front of `packed`: its header and the bytes after it.
fn split_block(packed: &[u8]) -> (Header<'_>, &[u8]) {
    let (base, rest) = packed.split_first_chunk().expect("a block has a base");
    let (&byte, rest) = rest.split_first().expect("a block has a width");
    let width = u32::from(byte & !RUN_START);
    let (offsets, rest) = rest.split_at(block_bytes(width).saturating_sub(HEADER));
    let words = offsets.as_chunks().0;
    let offsets = Offsets {
        words: if words.is_empty() { &ZERO_WORDS } else { words },
        width,
        mask: u64::MAX
            .checked_shr(u64::BITS.saturating_sub(width))
            .unwrap_or(0),
    };
    let header = Header {
        base: u64::from_le_bytes(*base),
        starts_run: byte & RUN_START != 0,
        offsets,
    };
    (header, rest)
}

/// The last sample of the gap-coded block at the front of `packed`: its
/// base plus every gap.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "each partial sum is a sample that was packed"
)]
fn last_gapped(packed: &[u8]) -> u64 {
    let (header, _) = split_block(packed);
    header.base + header.offsets.all().iter().sum::<u64>()
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
/// Packed in blocks of 128 samples, each as wide as its own spread needs,
/// the newest samples raw in a short tail; an order-free store seals its
/// record-order blocks into sorted runs as they fill, and a report seals
/// what is left (see the module docs).  The statistics are bit for bit
/// those of a [`SampleSet`] fed each sample's `ns as f64 / 1e9` in record
/// order.
#[derive(Debug, Clone)]
pub struct NanoSamples {
    /// The sealed runs, gap-coded, then the record-order blocks, every
    /// block [`BLOCK`] samples.
    packed: Vec<u8>,
    /// The bytes of `packed` the sealed runs take.
    sealed: usize,
    /// How many blocks `packed` holds, and how many of them are sealed.
    blocks: usize,
    sealed_blocks: usize,
    /// How many were sealed at the last [`seal`](NanoSamples::seal): an
    /// order-free store that has sealed more since holds no order it can
    /// read back.
    settled_blocks: usize,
    /// How many samples after the sealed runs the last seal left sorted
    /// (its tail then; the first block after the runs once 128 samples
    /// have arrived since).
    head: usize,
    /// The samples after the last block, fewer than [`BLOCK`], raw.
    tail: Vec<u64>,
    /// The least and the greatest sample of the tail, kept as it fills
    /// (a pass over the full tail would branch on every new extreme).
    tail_span: (u64, u64),
    /// The largest sample, 0 if none.
    max: u64,
    /// Every sample in seconds, in record order.
    fold: StreamingStats,
    /// Whether nothing was recorded since the last [`seal`](NanoSamples::seal):
    /// every block sealed and the tail sorted.
    whole: bool,
    /// Whether the store may give up record order.
    order_free: bool,
}

impl Default for NanoSamples {
    fn default() -> Self {
        NanoSamples::new()
    }
}

impl NanoSamples {
    /// Create an empty store, which keeps record order.
    pub fn new() -> Self {
        NanoSamples {
            packed: Vec::new(),
            sealed: 0,
            blocks: 0,
            sealed_blocks: 0,
            settled_blocks: 0,
            head: 0,
            tail: Vec::new(),
            tail_span: EMPTY_SPAN,
            max: 0,
            fold: StreamingStats::new(),
            whole: true,
            order_free: false,
        }
    }

    /// Let the store give up record order (`true`), or keep it.  From then
    /// on an order-free store seals its record-order blocks into sorted
    /// runs of 4 096 samples at each block that finds them holding 4 096
    /// samples or more (so a store marked late seals at its next block);
    /// what was sealed stays sealed.  Mean and jitter keep record order
    /// either way, but [`nanos`](NanoSamples::nanos) no longer does.
    pub fn set_order_free(&mut self, free: bool) {
        self.order_free = free;
    }

    /// Add one sample of `ns` nanoseconds and fold its seconds into the
    /// mean and the jitter.  Every 128th sample packs the tail into a
    /// block, and a full buffer grows by the rule of the module docs; the
    /// block that brings an order-free store's record-order blocks to
    /// 4 096 samples seals them, sorting them through `scratch` (as
    /// [`seal`](NanoSamples::seal) does).
    pub fn record(&mut self, ns: u64, scratch: &mut Vec<u32>) {
        self.fold.record(secs(ns));
        self.max = self.max.max(ns);
        let (lo, hi) = self.tail_span;
        self.tail_span = (lo.min(ns), hi.max(ns));
        self.tail.push(ns);
        if self.tail.len() == BLOCK {
            self.pack_tail(scratch);
        }
        self.whole = false;
    }

    /// Pack the full tail into a block, and seal an order-free store's
    /// record-order blocks once they hold [`RUN`] samples.
    #[inline(never)]
    fn pack_tail(&mut self, scratch: &mut Vec<u32>) {
        let (min, width) = (self.tail_span.0, width_of(self.tail_span));
        let start = self.packed.len();
        reserve(&mut self.packed, block_bytes(width));
        self.packed
            .resize(start.saturating_add(block_bytes(width)), 0);
        encode(&mut self.packed[start..], min, &self.tail, min, width, 0);
        self.tail.clear();
        self.tail_span = EMPTY_SPAN;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "each block holds BLOCK samples in memory, so the count fits; \
                      no more blocks are sealed than stored"
        )]
        let run_full = {
            self.blocks += 1;
            self.blocks - self.sealed_blocks >= RUN / BLOCK
        };
        if self.order_free && run_full {
            self.seal_blocks(scratch, false);
        }
    }

    /// Seal every record-order block into runs — and with `tail`, the
    /// tail too — through `scratch` while every sample fits a `u32`, else
    /// through a buffer of the store's own.
    fn seal_blocks(&mut self, scratch: &mut Vec<u32>, tail: bool) {
        if self.narrow() {
            self.seal_runs(scratch, tail);
        } else {
            self.seal_runs(&mut Vec::<u64>::new(), tail);
        }
    }

    /// Decode the record-order blocks a run at a time, at most [`RUN`]
    /// samples, into `scratch`, sort them and pack them back gap-coded
    /// where they lay.  A run that packs wider than the blocks it was read
    /// from first moves the blocks not yet read out of its way.  With
    /// `with_tail` the last run takes the tail along: its greatest samples,
    /// fewer than a block, stay raw as the tail, which then continues the
    /// run; a store without record-order blocks sorts its tail alone.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`write` ≤ `read` ≤ the buffer's length, and `count` ≤ the \
                  blocks not yet sealed"
    )]
    fn seal_runs<T: Sample>(&mut self, scratch: &mut Vec<T>, with_tail: bool) {
        let (mut write, mut read) = (self.sealed, self.sealed);
        while self.sealed_blocks < self.blocks {
            let count = (self.blocks - self.sealed_blocks).min(RUN / BLOCK);
            let last = with_tail && self.sealed_blocks + count == self.blocks;
            scratch.clear();
            for _ in 0..count {
                let (header, rest) = split_block(&self.packed[read..]);
                let samples = header.offsets.all().map(|offset| header.base + offset);
                scratch.extend(samples.map(T::from_ns));
                read = self.packed.len() - rest.len();
            }
            if last {
                scratch.extend(self.tail.drain(..).map(T::from_ns));
            }
            scratch.sort_unstable();
            let (run, rest) = scratch.split_at(count * BLOCK);
            if last {
                self.tail.extend(rest.iter().map(|&ns| ns.into()));
                self.tail_span = match (self.tail.first(), self.tail.last()) {
                    (Some(&lo), Some(&hi)) => (lo, hi),
                    _ => EMPTY_SPAN,
                };
            }
            let run = run.chunks_exact(BLOCK);
            let mut widths = [0; RUN / BLOCK];
            for (width, block) in widths.iter_mut().zip(run.clone()) {
                *width = gap_width(block);
            }
            let bytes: usize = widths.iter().map(|&width| block_bytes(width)).sum();
            let bytes = bytes - (RUN / BLOCK - count) * HEADER;
            if write + bytes > read {
                let more = write + bytes - read;
                reserve(&mut self.packed, more);
                self.packed.splice(read..read, std::iter::repeat_n(0, more));
                read += more;
            }
            for (i, (block, &width)) in run.zip(&widths).enumerate() {
                let end = write + block_bytes(width);
                let flag = if i == 0 { RUN_START } else { 0 };
                let out = &mut self.packed[write..end];
                encode(out, block[0].into(), &gaps(block), 0, width, flag);
                write = end;
            }
            self.sealed_blocks += count;
        }
        self.packed.truncate(write);
        self.sealed = write;
        if with_tail {
            self.tail.sort_unstable();
        }
        self.head = if with_tail { self.tail.len() } else { 0 };
    }

    /// Seal the store for a report: its record-order blocks into runs of at
    /// most 4 096 samples, one run at a time through `scratch` (a store
    /// holding a sample of 2³² ns or more uses a buffer of its own), the
    /// last run with the tail, whose greatest samples stay raw as the sorted
    /// tail — so that a caller sealing many stores hands each the same
    /// buffer, which never holds more than one run and a tail.  A store
    /// that recorded nothing since its last seal is left as it is.
    pub fn seal(&mut self, scratch: &mut Vec<u32>) {
        if !self.whole {
            self.seal_blocks(scratch, true);
            self.whole = true;
            self.settled_blocks = self.sealed_blocks;
        }
    }

    /// `true` while nothing was recorded since the last
    /// [`seal`](NanoSamples::seal) (or at all): the store is read where it
    /// lies, through a merge of its sealed runs and its tail.
    pub fn is_sealed(&self) -> bool {
        self.whole
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

    /// What a report reads the samples from: a cursor over each sealed run
    /// and one over the samples the last seal left sorted after them, whose
    /// merge is ascending; and a cursor over the samples recorded since, in
    /// record order (empty once the store is sealed).  A sealed store's
    /// tail is read after its last run when it continues it (a report
    /// sealed them together).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`at` walks the sealed bytes, and `rest` is their suffix"
    )]
    fn runs(&self) -> (Vec<Cursor<'_>>, Cursor<'_>) {
        let (sealed, recorded) = self.packed.split_at(self.sealed);
        let mut cursors = Vec::new();
        let (mut start, mut at, mut last_block) = (0, 0, 0);
        while at < sealed.len() {
            let (header, rest) = split_block(&sealed[at..]);
            if header.starts_run && at > start {
                cursors.push(Cursor::start(&sealed[start..at], &[], &[]));
                start = at;
            }
            last_block = at;
            at = sealed.len() - rest.len();
        }
        if at > start {
            let tail = self.tail.as_slice();
            let continues = self.whole
                && tail
                    .first()
                    .is_none_or(|&first| first >= last_gapped(&sealed[last_block..]));
            let with = if continues { tail } else { &[] };
            cursors.push(Cursor::start(&sealed[start..], &[], with));
            if continues {
                return (cursors, Cursor::default());
            }
        }
        let mut rest = Cursor::start(&[], recorded, &self.tail);
        if self.head > 0 {
            cursors.push(rest.split_off(self.head));
        }
        (cursors, rest)
    }

    /// A sealed store's samples ascending: a merge of its runs, through
    /// keys of `K`.
    fn ascending<K: Key>(&self) -> Merge<'_, K> {
        debug_assert!(self.whole, "only a sealed store reads ascending");
        Merge::new(self.runs().0)
    }

    /// The samples in the order a report reads them: ascending up to the
    /// last seal, then those recorded since in record order.
    fn as_read<K: Key>(&self) -> std::iter::Chain<Merge<'_, K>, Cursor<'_>> {
        let (runs, rest) = self.runs();
        Merge::new(runs).chain(rest)
    }

    /// Whether every sample fits 32 bits: the store sorts through the
    /// caller's `u32` buffer, and merges through `u64` keys.
    fn narrow(&self) -> bool {
        u32::try_from(self.max).is_ok()
    }

    /// The samples in nanoseconds: in record order until the store's first
    /// [`seal`](NanoSamples::seal) (a report's), then ascending, then the
    /// samples recorded since the seal, in record order.
    ///
    /// An order-free store that has sealed a run since its last seal (one
    /// not yet reported, most often) holds neither order, and a debug build
    /// panics here rather than read it.
    pub fn nanos(&self) -> impl Iterator<Item = u64> + '_ {
        debug_assert!(
            self.sealed_blocks == self.settled_blocks,
            "an order-free store's samples read back out of record order"
        );
        self.as_read::<u128>()
    }

    /// The samples in seconds, in [`nanos`](NanoSamples::nanos)' order.
    pub fn secs(&self) -> impl Iterator<Item = f64> + '_ {
        self.nanos().map(secs)
    }

    /// Record every sample into `fold`, in seconds, in the order a class
    /// pass reads the store, [`nanos`](NanoSamples::nanos)': ascending when
    /// it is sealed, in record order when it never was.  A sealed store
    /// also returns the two samples its `q`-quantile interpolates between,
    /// noted as they pass (`None` when empty, and from an unsealed store).
    pub fn fold_as_read(&self, fold: &mut StreamingStats, q: f64) -> Option<(u64, u64)> {
        // The fold travels by value, so that it stays in registers.
        let mut acc = fold.clone();
        let mut pair = None;
        if self.whole && self.narrow() {
            Ranked::<u64>::new(self, q, &mut pair).for_each(|ns| acc.record(secs(ns)));
        } else if self.whole {
            Ranked::<u128>::new(self, q, &mut pair).for_each(|ns| acc.record(secs(ns)));
        } else {
            // Only a later report merges here (a first one finds no run),
            // so the key width does not weigh on the benchmark's reports.
            self.as_read::<u128>().for_each(|ns| acc.record(secs(ns)));
        }
        *fold = acc;
        pair
    }

    /// Mean and sample (`n − 1`) standard deviation in seconds, in record
    /// order whatever the stored order: [`SampleSet::mean_and_std_dev`]'s
    /// fold, kept as the samples arrive.
    pub fn mean_and_std_dev(&self) -> (f64, f64) {
        mean_and_std_dev_of(&self.fold)
    }

    /// The `q`-quantile in seconds, interpolated as
    /// [`SampleSet::quantile`] does; 0.0 if empty.  Seals the store.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.seal(&mut Vec::new());
        match self.order_statistics(q) {
            Some(pair) => quantile_between(q, self.len(), pair),
            None => 0.0,
        }
    }

    /// The two samples, in nanoseconds and ascending, that the
    /// `q`-quantile interpolates between (the same one twice when it sits
    /// on a rank); `None` if empty.  [`quantile_between`] of them is
    /// [`quantile`](NanoSamples::quantile).  The last rank is the maximum
    /// the store keeps, a store of fewer than 128 samples is its sorted
    /// tail, and any other rank is read by a merge of the runs that stops
    /// there.
    ///
    /// # Panics
    ///
    /// If a sample was recorded since the last [`seal`](NanoSamples::seal).
    pub fn order_statistics(&self, q: f64) -> Option<(u64, u64)> {
        assert!(self.whole, "order statistics of an unsealed store");
        let last = self.len().checked_sub(1)?;
        let (lo, hi, _) = quantile_span(q, last);
        if lo == last {
            return Some((self.max, self.max));
        }
        if self.blocks == 0 {
            // A store that never filled a block is its sorted tail (a churn
            // admission's, mostly): no merge to build.
            return Some((self.tail[lo], self.tail[hi]));
        }
        let mut pair = None;
        if self.narrow() {
            Ranked::<u64>::new(self, q, &mut pair)
                .take(hi.saturating_add(1))
                .count();
        } else {
            Ranked::<u128>::new(self, q, &mut pair)
                .take(hi.saturating_add(1))
                .count();
        }
        pair
    }

    /// Largest sample in seconds, or 0.0 if empty.
    pub fn max(&self) -> f64 {
        secs(self.max)
    }
}

/// Samples in stored order, each decoded one call before it is returned,
/// so that a reader waiting on it (a merge's compare chain) finds it
/// ready.  A packed block is decoded straight from its bytes, a sample at
/// a time.
#[derive(Debug, Default, Clone)]
struct Cursor<'a> {
    /// The packed block being read: its offsets, and what the next offset
    /// adds to — the block's base in record order, the sample before in a
    /// gap-coded block.
    offsets: Offsets<'a>,
    base: u64,
    gapped: bool,
    /// The tail's samples instead, once it is being read.
    raw: &'a [u64],
    /// The next sample of the block, and how many it holds.
    at: usize,
    len: usize,
    /// What the next call returns.
    ahead: Option<u64>,
    /// The gap-coded blocks not yet loaded, then the record-order ones,
    /// then the tail.
    gapped_rest: &'a [u8],
    packed_rest: &'a [u8],
    tail: &'a [u64],
}

impl<'a> Cursor<'a> {
    /// The samples of `gapped` blocks, then of `packed` ones, then `tail`.
    fn start(gapped: &'a [u8], packed: &'a [u8], tail: &'a [u64]) -> Self {
        let mut cursor = Cursor {
            gapped_rest: gapped,
            packed_rest: packed,
            tail,
            ..Cursor::default()
        };
        cursor.ahead = cursor.decode();
        cursor
    }

    /// A cursor over the first `n` samples of a cursor just started, which
    /// lie in its first block (or its tail), and this one moved past them.
    fn split_off(&mut self, n: usize) -> Cursor<'a> {
        debug_assert!(self.at == 1 && n <= self.len);
        let head = Cursor {
            len: n,
            gapped_rest: &[],
            packed_rest: &[],
            tail: &[],
            ..self.clone()
        };
        self.by_ref().take(n).for_each(drop);
        head
    }

    /// The first sample not yet decoded, if any.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "at < len; base + offset is a sample that was packed"
    )]
    fn decode(&mut self) -> Option<u64> {
        if self.at == self.len && !self.load() {
            return None;
        }
        let ns = if self.raw.is_empty() {
            let ns = self.base + self.offsets.get(self.at);
            self.base = select_unpredictable(self.gapped, ns, self.base);
            ns
        } else {
            self.raw[self.at]
        };
        self.at += 1;
        Some(ns)
    }

    /// Load the next block, or else the tail; `false` once nothing is
    /// left.
    #[inline(never)]
    fn load(&mut self) -> bool {
        let gapped = !self.gapped_rest.is_empty();
        let blocks = if gapped {
            &mut self.gapped_rest
        } else {
            &mut self.packed_rest
        };
        if blocks.is_empty() {
            if self.tail.is_empty() {
                return false;
            }
            self.raw = std::mem::take(&mut self.tail);
            (self.at, self.len) = (0, self.raw.len());
            return true;
        }
        let (header, rest) = split_block(blocks);
        *blocks = rest;
        (self.offsets, self.base, self.gapped) = (header.offsets, header.base, gapped);
        (self.at, self.len) = (0, BLOCK);
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

/// A sample and its run, packed into one integer that orders as the pair
/// does, so that a match in a [`Merge`]'s tree is one compare and a move
/// one register: `u64` while every sample fits 32 bits, `u128` otherwise.
/// (`u128` keys for every store took `link-wfq`'s report from 13.4 to
/// 47.9 ms, `tools/phases.sh` medians on a 2-vCPU VM.)
trait Key: Copy + Ord + std::fmt::Debug {
    /// The key of an exhausted run: above every sample's, whatever its
    /// run, so a merge ends when its winner is this one.
    const EXHAUSTED: Self;

    /// `ns` of run `run`.
    fn new(ns: u64, run: usize) -> Self;

    /// The sample.
    fn ns(self) -> u64;

    /// The run.
    fn run(self) -> usize;
}

impl Key for u64 {
    const EXHAUSTED: u64 = u64::MAX;

    fn new(ns: u64, run: usize) -> u64 {
        // The caller checked that every sample fits 32 bits, and fewer than
        // 2³² − 1 runs fit in memory.
        debug_assert!(ns <= u64::from(u32::MAX) && run < u32::MAX as usize);
        ns << 32 | run as u64
    }

    fn ns(self) -> u64 {
        self >> 32
    }

    fn run(self) -> usize {
        self as u32 as usize
    }
}

impl Key for u128 {
    const EXHAUSTED: u128 = u128::MAX;

    fn new(ns: u64, run: usize) -> u128 {
        u128::from(ns) << 64 | run as u128
    }

    fn ns(self) -> u64 {
        (self >> 64) as u64
    }

    fn run(self) -> usize {
        self as u64 as usize
    }
}

/// The samples of ascending runs, least first: a tournament (loser-tree)
/// merge that compares the packed [`Key`]s.  Samples that tie pop in run
/// order; they are equal integers, so the order cannot show.
#[derive(Debug)]
struct Merge<'a, K> {
    /// The `k` runs: leaf `k + r` of the tree is run `r`'s least unread
    /// sample, and node `p`'s children are `2p` and `2p + 1`.  Empty runs
    /// pad `k` to a power of two, so every leaf sits at one depth and a
    /// replay's loop exit never mispredicts.
    runs: Vec<Cursor<'a>>,
    /// Node `p` (`1 ≤ p < k`) holds the loser of the match played there.
    losers: Vec<K>,
    /// The winner of the whole tree: the next sample and its run.
    winner: K,
}

impl<'a, K: Key> Merge<'a, K> {
    /// A merge of `runs`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`runs` holds k cursors in memory, so 2k fits a usize; r, p < k"
    )]
    fn new(mut runs: Vec<Cursor<'a>>) -> Self {
        let k = runs.len().next_power_of_two();
        runs.resize_with(k, Cursor::default);
        let mut winners = vec![K::EXHAUSTED; 2 * k];
        for (r, run) in runs.iter_mut().enumerate() {
            winners[k + r] = run.next().map_or(K::EXHAUSTED, |ns| K::new(ns, r));
        }
        let mut losers = vec![K::EXHAUSTED; k];
        for p in (1..k).rev() {
            let (a, b) = (winners[2 * p], winners[2 * p + 1]);
            (winners[p], losers[p]) = (a.min(b), a.max(b));
        }
        Merge {
            runs,
            losers,
            winner: winners[1],
        }
    }
}

impl<K: Key> Iterator for Merge<'_, K> {
    type Item = u64;

    #[inline]
    #[expect(clippy::arithmetic_side_effects, reason = "run < k, so k + run < 2k")]
    fn next(&mut self) -> Option<u64> {
        let popped = self.winner;
        if popped == K::EXHAUSTED {
            return None;
        }
        // The winner's run offers its next sample and replays the matches
        // on its leaf's path; the lesser side goes on up, without a branch.
        let run = popped.run();
        let mut key = self.runs[run]
            .next()
            .map_or(K::EXHAUSTED, |ns| K::new(ns, run));
        let mut node = (self.runs.len() + run) / 2;
        while node > 0 {
            let held = self.losers[node];
            let held_wins = held < key;
            self.losers[node] = select_unpredictable(held_wins, key, held);
            key = select_unpredictable(held_wins, held, key);
            node /= 2;
        }
        self.winner = key;
        Some(popped.ns())
    }
}

/// A sealed store's samples ascending, noting in `pair` the two its
/// `q`-quantile interpolates between as they pass.
struct Ranked<'a, 'p, K> {
    samples: Merge<'a, K>,
    /// The rank of the next sample, and the two ranks the quantile reads.
    rank: usize,
    ranks: (usize, usize),
    /// The sample at the lower rank, once passed.
    lo: u64,
    pair: &'p mut Option<(u64, u64)>,
}

impl<'a, 'p, K: Key> Ranked<'a, 'p, K> {
    fn new(store: &'a NanoSamples, q: f64, pair: &'p mut Option<(u64, u64)>) -> Self {
        let ranks = store.len().checked_sub(1).map_or((0, 0), |last| {
            let (lo, hi, _) = quantile_span(q, last);
            (lo, hi)
        });
        Ranked {
            samples: store.ascending(),
            rank: 0,
            ranks,
            lo: 0,
            pair,
        }
    }
}

impl<K: Key> Iterator for Ranked<'_, '_, K> {
    type Item = u64;

    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "one step a sample, so below n"
    )]
    fn next(&mut self) -> Option<u64> {
        let ns = self.samples.next()?;
        if self.rank == self.ranks.0 {
            self.lo = ns;
        }
        if self.rank == self.ranks.1 {
            *self.pair = Some((self.lo, ns));
        }
        self.rank += 1;
        Some(ns)
    }
}

/// The mean and the `quantiles` of the union of `stores`, every store
/// sealed, from one tournament merge over all their runs that never
/// materialises the union — and, in the same loop, every sample of
/// `stores[spread_from..]` recorded into `spread` in seconds, store after
/// store, each ascending ([`NanoSamples::fold_as_read`]'s order), with
/// `pairs[i]` set to the two samples the `each`-quantile of `stores[i]`
/// interpolates between ([`NanoSamples::order_statistics`]) as they pass.
///
/// Returns `(mean, values)` in seconds, `values[i]` being the
/// `quantiles[i]`-quantile: bit for bit what recording every store's
/// seconds into one [`SampleSet`], sorting it and asking it for its mean
/// and those quantiles gives.  The mean is the sum in ascending order over
/// the count (samples that tie are equal integers, so the tie-break between
/// runs cannot show), and the quantiles interpolate the same ranks.  An
/// empty union reports 0.0 throughout.  `spread` ends bit for bit as if the
/// caller had folded `stores[spread_from..]` into it itself with
/// [`NanoSamples::fold_as_read`], so a caller that folded the stores before
/// `spread_from` in their own order keeps one running fold.
///
/// # Panics
///
/// If a store is not sealed, if `spread_from > stores.len()`, or if
/// `pairs` is not as long as `stores`.
pub fn merge_runs(
    stores: &[&NanoSamples],
    quantiles: &[f64],
    spread_from: usize,
    spread: &mut StreamingStats,
    each: f64,
    pairs: &mut [Option<(u64, u64)>],
) -> (f64, Vec<f64>) {
    assert!(stores.iter().all(|store| store.whole), "unsealed store");
    assert_eq!(pairs.len(), stores.len(), "one pair for each store");
    if stores.iter().all(|store| store.narrow()) {
        class_pass::<u64>(stores, quantiles, spread_from, spread, each, pairs)
    } else {
        class_pass::<u128>(stores, quantiles, spread_from, spread, each, pairs)
    }
}

/// [`merge_runs`] through keys of `K`.
fn class_pass<K: Key>(
    stores: &[&NanoSamples],
    quantiles: &[f64],
    spread_from: usize,
    spread: &mut StreamingStats,
    each: f64,
    pairs: &mut [Option<(u64, u64)>],
) -> (f64, Vec<f64>) {
    let spread_stores = stores[spread_from..].iter().zip(&mut pairs[spread_from..]);
    let n: usize = stores.iter().map(|store| store.len()).sum();
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
    let mut sum = 0.0;
    // The spread's stores one after another, one sample beside each pop (a
    // local copy of the fold stays in registers).
    let mut acc = spread.clone();
    let mut spread_samples =
        spread_stores.flat_map(|(store, pair)| Ranked::<K>::new(store, each, pair));
    let runs = stores.iter().flat_map(|store| store.runs().0).collect();
    for (rank, key) in Merge::<K>::new(runs).enumerate() {
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

    /// A store of `ns`, recorded in that order, order-free or not.
    fn store_of(ns: &[u64], free: bool) -> NanoSamples {
        let mut s = NanoSamples::new();
        s.set_order_free(free);
        let mut scratch = Vec::new();
        for &x in ns {
            s.record(x, &mut scratch);
        }
        s
    }

    /// An order-kept store of `ns`, recorded in that order.
    fn store(ns: &[u64]) -> NanoSamples {
        store_of(ns, false)
    }

    /// Where an order-free store that recorded `ns` and was never sorted
    /// holds them: each whole [`RUN`] ascending, the rest in record order.
    fn sealed_order(ns: &[u64]) -> Vec<u64> {
        let mut order = ns.to_vec();
        let sealed = ns.len() / RUN * RUN;
        order[..sealed]
            .chunks_mut(RUN)
            .for_each(<[u64]>::sort_unstable);
        order
    }

    /// Where a store holding `stored`, its first `sealed_blocks` blocks
    /// sealed, holds them once [`NanoSamples::seal`] ran: each [`RUN`] of
    /// the blocks after those ascending, the last run shorter and sorted
    /// together with the tail.
    fn seal_order(stored: &[u64], sealed_blocks: usize) -> Vec<u64> {
        let mut order = stored.to_vec();
        let rest = &mut order[sealed_blocks * BLOCK..];
        let blocks = rest.len() / BLOCK * BLOCK;
        let last = blocks.saturating_sub(1) / RUN * RUN;
        rest[..last]
            .chunks_mut(RUN)
            .for_each(<[u64]>::sort_unstable);
        rest[last..].sort_unstable();
        order
    }

    /// A store's samples in the order it holds them.
    fn stored_order(s: &NanoSamples) -> Vec<u64> {
        let (gapped, packed) = s.packed.split_at(s.sealed);
        Cursor::start(gapped, packed, &s.tail).collect()
    }

    /// The order a report reads a store holding `stored` in: its sealed
    /// runs and the samples the last seal left sorted after them
    /// ascending, then the rest as stored.
    fn read_order(s: &NanoSamples, stored: &[u64]) -> Vec<u64> {
        let mut order = stored.to_vec();
        order[..s.sealed_blocks * BLOCK + s.head].sort_unstable();
        order
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
    /// order-kept or order-free, and holds its samples in record order
    /// (order-kept) or in sealed runs (order-free) until sorted.
    pub(super) fn assert_store_is_the_oracle(ns: &[u64]) {
        assert_is_the_oracle(store(ns), ns, ns);
        assert_is_the_oracle(store_of(ns, true), &sealed_order(ns), ns);
    }

    /// `s`, which recorded `recorded` and holds them in the order
    /// `stored`, reports what the `SampleSet` oracle of `recorded`
    /// reports, to the bit.
    fn assert_is_the_oracle(mut s: NanoSamples, stored: &[u64], recorded: &[u64]) {
        let n = recorded.len();
        let mut o = oracle(recorded);
        assert_eq!(s.len(), n);
        assert_eq!(stored_order(&s), stored, "{n} samples");
        assert_eq!(s.max().to_bits(), o.max().to_bits(), "unsealed max, {n}");
        let (mean, jitter) = o.mean_and_std_dev();
        assert_eq!(s.mean_and_std_dev(), (mean, jitter), "{n} samples");
        // An unsealed store folds as a report reads it, and reads back so
        // unless it sealed a run since its last seal.
        let read = read_order(&s, stored);
        if s.sealed_blocks == s.settled_blocks {
            assert_eq!(s.nanos().collect::<Vec<_>>(), read, "{n} samples");
        }
        let (mut acc, mut fold) = (StreamingStats::new(), StreamingStats::new());
        let pair = s.fold_as_read(&mut acc, 0.999);
        read.iter().for_each(|&x| fold.record(secs(x)));
        assert_eq!(format!("{acc:?}"), format!("{fold:?}"), "{n} samples");
        assert!(pair.is_none() || n == 0);
        // Mean and jitter in record order after the seal, then the
        // quantiles and the maximum.
        let expected = [mean, jitter].into_iter().chain(QS.map(|q| o.quantile(q)));
        let expected: Vec<u64> = expected.chain([o.max()]).map(f64::to_bits).collect();
        let sealed_blocks = s.sealed_blocks;
        let mut scratch = Vec::new();
        s.seal(&mut scratch);
        assert!(s.is_sealed() && scratch.len() < RUN + BLOCK, "{n} samples");
        assert_eq!(stored_order(&s), seal_order(stored, sealed_blocks));
        let (mean, jitter) = s.mean_and_std_dev();
        let stats = [mean, jitter].into_iter().chain(QS.map(|q| s.quantile(q)));
        let stats: Vec<u64> = stats.chain([s.max()]).map(f64::to_bits).collect();
        assert_eq!(stats, expected, "{n} samples");
        let mut sorted = recorded.to_vec();
        sorted.sort_unstable();
        assert_eq!(s.nanos().collect::<Vec<_>>(), sorted);
        assert_eq!(s.ascending::<u128>().collect::<Vec<_>>(), sorted);
        if s.narrow() {
            assert_eq!(s.ascending::<u64>().collect::<Vec<_>>(), sorted);
        }
        // A sealed store folds ascending, noting the quantile's two samples
        // on the way, and a second seal leaves it as it is.
        let copy = s.clone();
        s.seal(&mut Vec::new());
        assert_eq!((&s.packed, &s.tail), (&copy.packed, &copy.tail));
        let (mut acc, mut fold) = (StreamingStats::new(), StreamingStats::new());
        let pair = s.fold_as_read(&mut acc, 0.999);
        sorted.iter().for_each(|&x| fold.record(secs(x)));
        assert_eq!(format!("{acc:?}"), format!("{fold:?}"));
        assert_eq!(pair, s.order_statistics(0.999));
        // The two samples a quantile reads are enough to read it again,
        // and the maximum twice reads as the maximum.
        for q in QS {
            let pair = s.order_statistics(q);
            let again = pair.map_or(0.0, |pair| quantile_between(q, n, pair));
            assert_eq!(again.to_bits(), o.quantile(q).to_bits(), "q = {q}, {n}");
        }
        if let Some(&max) = sorted.last() {
            let again = quantile_between(1.0, n, (max, max));
            assert_eq!(again.to_bits(), s.max().to_bits(), "{n} samples");
        }
    }

    #[test]
    #[should_panic(expected = "unsealed")]
    fn order_statistics_of_an_unsorted_store_panic() {
        let mut s = store(&[3, 1, 2]);
        assert_eq!(s.quantile(0.5), secs(2));
        assert_eq!(s.order_statistics(0.5), Some((2, 2)));
        s.record(0, &mut Vec::new());
        s.order_statistics(0.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of record order")]
    fn a_sealed_store_refuses_to_read_back_unsorted() {
        let ns: Vec<u64> = (0..RUN as u64).rev().collect();
        store_of(&ns, true).nanos().count();
    }

    #[test]
    fn a_reported_store_reads_back_ascending_then_as_recorded() {
        let grid = |i: usize| (i * 7_919 % 613) as u64 * 1_000;
        // An order-free store of one run, and order-kept stores whose seal
        // leaves several runs and a tail that is not the greatest of them,
        // recorded into after the seal: less than a block (the sorted
        // samples still in the tail), and more (packed into a block).
        for (n, free) in [(RUN, true), (2 * RUN + 300, false), (3 * RUN + 5, false)] {
            let ns: Vec<u64> = (0..n).map(grid).collect();
            let mut s = store_of(&ns, free);
            s.seal(&mut Vec::new());
            let mut sorted = ns.clone();
            sorted.sort_unstable();
            assert!(s.nanos().eq(sorted.iter().copied()), "{n}");
            let mut scratch = Vec::new();
            let mut read = sorted;
            for (i, x) in (0..2 * BLOCK).map(|i| grid(i * 31 + 5)).enumerate() {
                s.record(x, &mut scratch);
                read.push(x);
                if [0, BLOCK / 2, 2 * BLOCK - 1].contains(&i) {
                    assert_eq!(s.nanos().collect::<Vec<_>>(), read, "{n}, {i}");
                    let (mut acc, mut fold) = (StreamingStats::new(), StreamingStats::new());
                    assert_eq!(s.fold_as_read(&mut acc, 0.999), None);
                    read.iter().for_each(|&x| fold.record(secs(x)));
                    assert_eq!(format!("{acc:?}"), format!("{fold:?}"), "{n}, {i}");
                }
            }
        }
    }

    #[test]
    fn nano_store_widens_once_and_keeps_every_sample() {
        let mut s = NanoSamples::new();
        assert!(s.is_empty() && s.is_sealed());
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
            s.record(1_000, &mut Vec::new());
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
            let (header, rest) = split_block(packed);
            widths.push(header.offsets.width);
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
        assert_is_the_oracle(copy, &ns[..300], &ns[..300]);
        s.seal(&mut Vec::new());
        let mut stored = seal_order(&ns[..300], 0);
        // Sorted data packs tighter than record order.
        assert!(s.stored_bytes() < store(&ns[..300]).stored_bytes());
        let mut scratch = Vec::new();
        for &x in &ns[300..] {
            s.record(x, &mut scratch);
        }
        stored.extend_from_slice(&ns[300..]);
        assert!(!s.is_sealed());
        // The samples stand sealed, then as recorded; mean and jitter stay
        // in record order.
        assert_is_the_oracle(s.clone(), &stored, &ns);
        assert_is_the_oracle(s, &stored, &ns);
    }

    #[test]
    fn order_free_stores_across_seal_boundaries_are_the_oracle() {
        // Delays on a coarse grid, so that samples tie.
        let grid = |i: usize| (i * 7_919 % 613) as u64 * 1_000;
        for n in [RUN - 1, RUN, RUN + 1, 2 * RUN, 3 * RUN + 127] {
            let ns: Vec<u64> = (0..n).map(grid).collect();
            let s = store_of(&ns, true);
            assert_eq!(s.sealed_blocks, n / RUN * (RUN / BLOCK), "{n}");
            assert_eq!(store(&ns).sealed_blocks, 0, "{n}");
            assert_store_is_the_oracle(&ns);
        }
        // Equal samples seal into blocks of width 0, nine bytes each.
        let same = vec![5_000; 2 * RUN + 3];
        let s = store_of(&same, true);
        assert!(widths(&s).iter().all(|&w| w == 0));
        assert_eq!(s.stored_bytes(), 2 * RUN / BLOCK * HEADER + 3 * 8);
        assert_store_is_the_oracle(&same);
        // Samples of 2³² ns or more in a sealed run and in the record-order
        // blocks after it (then every seal sorts through a `u64` buffer),
        // and one in the blocks after two narrow seals.
        let mut wide: Vec<u64> = (0..3 * RUN + 127).map(grid).collect();
        wide[100] = 1 << 32;
        wide[RUN + 7] = u64::MAX;
        wide[3 * RUN + 50] = (1 << 40) + 3;
        assert_store_is_the_oracle(&wide);
        let mut late: Vec<u64> = (0..2 * RUN + 300).map(grid).collect();
        late[2 * RUN + 200] = 1 << 33;
        assert_store_is_the_oracle(&late);
        // A report, then more records: the runs it found and the one it
        // sealed, then new runs sealed from its sorted tail and the samples
        // after it.
        for ns in [&wide, &late] {
            let (head, rest) = ns.split_at(RUN + 500);
            let mut s = store_of(head, true);
            s.seal(&mut Vec::new());
            let mut scratch = Vec::new();
            for &x in rest {
                s.record(x, &mut scratch);
            }
            let mut stored = seal_order(&sealed_order(head), RUN / BLOCK);
            let staged: Vec<u64> = stored.split_off(head.len() / BLOCK * BLOCK);
            stored.extend(sealed_order(&[staged.as_slice(), rest].concat()));
            assert_is_the_oracle(s, &stored, ns);
        }
        // A store marked order-free late seals at its next block, however
        // many record-order blocks it holds by then, in runs of RUN.
        let ns: Vec<u64> = (0..41 * BLOCK + 5).map(grid).collect();
        let mut s = store(&ns[..40 * BLOCK]);
        s.set_order_free(true);
        let mut scratch = Vec::new();
        for &x in &ns[40 * BLOCK..] {
            s.record(x, &mut scratch);
        }
        assert_eq!((s.sealed_blocks, scratch.len()), (41, 9 * BLOCK));
        let mut stored = ns.clone();
        stored[..RUN].sort_unstable();
        stored[RUN..41 * BLOCK].sort_unstable();
        assert_is_the_oracle(s, &stored, &ns);
        // A sorted order-free store is one run to a class merge.
        let mut sorted_wide = wide.clone();
        sorted_wide.sort_unstable();
        let mut sorted_late = late.clone();
        sorted_late.sort_unstable();
        assert_merge_is_the_pool(&[&sorted_wide, &same, &sorted_late], &QS);
    }

    #[test]
    fn a_run_that_packs_wider_than_its_blocks_moves_the_rest_aside() {
        // One block spread thinly over 2²⁷ ns, then 31 of equal samples,
        // each just above one of the first block's: nine bytes each in
        // record order, but once sorted nearly every block holds a gap of
        // 2²⁰ ns.  Ten more blocks and a tail follow, so the first run's
        // seal must move them before it packs.
        let step = 1u64 << 20;
        let mut ns: Vec<u64> = (0..BLOCK as u64).map(|k| k * step).collect();
        for k in 0..31 {
            ns.extend(std::iter::repeat_n(k * step + 1, BLOCK));
        }
        ns.extend((0..10 * BLOCK as u64 + 77).map(|i| (i * 7_919) % 613 * 1_000));
        let mut s = store(&ns);
        let before = s.stored_bytes();
        assert_store_is_the_oracle(&ns);
        s.seal(&mut Vec::new());
        assert!(s.stored_bytes() > before, "{} {before}", s.stored_bytes());
        assert_eq!(stored_order(&s), seal_order(&ns, 0));
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
        assert!(s.nanos().eq(ns.iter().copied()));
        s.seal(&mut Vec::new());
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        let last = ns.len() - 1;
        for rank in 0..=last {
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
        // `realloc` — never moving again, not even when a seal packs it
        // anew.
        MOVED.set(0);
        let ns: Vec<u64> = (0..2_000 * BLOCK as u64)
            .map(|i| 1_000 + i % 128 * 3)
            .collect();
        let mut s = NanoSamples::new();
        let mut capacities = vec![0];
        let mut scratch = Vec::new();
        for (i, &x) in ns.iter().enumerate() {
            s.record(x, &mut scratch);
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
        s.seal(&mut Vec::new());
        assert_eq!(s.packed.capacity(), 524_288);
        assert_eq!(MOVED.get(), 1);
        // A store within 4 KiB never moves.
        MOVED.set(0);
        let mut s = store(&ns[..26 * BLOCK]);
        s.seal(&mut Vec::new());
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

    /// Each run as a sealed store.
    fn sorted_stores(runs: &[&[u64]], free: bool) -> Vec<NanoSamples> {
        runs.iter()
            .map(|run| {
                let mut s = store_of(run, free);
                s.seal(&mut Vec::new());
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
        for free in [false, true] {
            let stores = sorted_stores(runs, free);
            let stores: Vec<&NanoSamples> = stores.iter().collect();
            assert_merge_of_stores_is_the_pool(runs, &stores, quantiles, &expected);
        }
    }

    /// [`assert_merge_is_the_pool`] for one set of sorted `stores` of
    /// `runs`, `expected` being the pool's mean and quantiles as bits.
    fn assert_merge_of_stores_is_the_pool(
        runs: &[&[u64]],
        stores: &[&NanoSamples],
        quantiles: &[f64],
        expected: &(u64, Vec<u64>),
    ) {
        let bits = |(mean, values): (f64, Vec<f64>)| {
            (
                mean.to_bits(),
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        for spread_from in 0..=runs.len() {
            let mut spread = StreamingStats::new();
            let mut pairs = vec![None; runs.len()];
            let merged = merge_runs(
                stores,
                quantiles,
                spread_from,
                &mut spread,
                0.999,
                &mut pairs,
            );
            assert_eq!(&bits(merged), expected, "{runs:?} at {quantiles:?}");
            let read: Vec<_> = stores.iter().map(|s| s.order_statistics(0.999)).collect();
            assert_eq!(pairs[..spread_from], vec![None; spread_from]);
            assert_eq!(pairs[spread_from..], read[spread_from..], "{runs:?}");
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
        let stores = sorted_stores(runs, false);
        let stores: Vec<&NanoSamples> = stores.iter().collect();
        let mut pairs = vec![None; runs.len()];
        let spread = &mut StreamingStats::new();
        merge_runs(&stores, quantiles, runs.len(), spread, 0.999, &mut pairs)
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
