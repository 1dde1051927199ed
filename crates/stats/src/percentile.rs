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
//! Four bytes while every delay of the flow is below 2³² ns (4.29 s): the
//! store is a `Vec<u32>`, and widens once, to a `Vec<u64>`, when the flow
//! records a delay at or above that.  A sample becomes seconds only when it
//! is read, as `ns as f64 / 1e9` — the expression of
//! `SimTime::as_secs_f64`, so a reader sees the floats a store of
//! `as_secs_f64` values would have held.
//!
//! A store grows by one rule at either width.  Below 4 KiB it doubles, as
//! `Vec::push` grows it.  When it fills 4 KiB (1 024 narrow or 512 wide
//! samples) it moves once into a fresh block of 128 KiB, and doubles from
//! there.  128 KiB is glibc's default `M_MMAP_THRESHOLD`: `malloc` maps a
//! block that large instead of carving it from the heap, so its pages are
//! faulted in only as samples reach them, and glibc's `realloc` grows it
//! with `mremap`, which copies nothing and leaves no old block behind.
//! Plain doubling instead leaves each long-lived flow's 8–64 KiB buffers in
//! the heap as free chunks the next store rarely fits in: 34–43 KB of
//! resident memory per flow, about a tenth of the Table-3 chain's peak.
//! The move waits for 4 KiB so that a short flow — a signalled admission
//! delivers far fewer than 1 024 packets — keeps its small heap buffer
//! instead of mapping (and later unmapping) 128 KiB of its own.
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
//! A scenario report reads each stored sample twice and sorts it once.
//! [`NanoSamples::mean_and_std_dev`] is the one pass in stored order (sum,
//! Welford spread); [`NanoSamples::sort`] then sorts the integers in place;
//! and [`merge_runs`] takes a class's mean and quantiles from a tournament
//! (loser-tree) merge over the per-flow sorted runs, comparing the integers
//! themselves, so the union of a class's samples is never copied or
//! re-sorted.  Dividing by 10⁹ is monotone, so an integer-sorted run reads
//! as exactly the float sequence a float sort of the converted samples
//! gives.  The class spread rides in the same loop: its Welford fold reads
//! the runs front to back beside the merge, so the fold's divide chain runs
//! under the tree's compare chain instead of as a pass of its own.

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

/// A full store of at least this many bytes, and less than
/// [`MAPPED_BYTES`], moves into a block of `MAPPED_BYTES` (module docs).
const MOVE_AT_BYTES: usize = 4 << 10;

/// The block a store moves to: glibc's default `M_MMAP_THRESHOLD`, so
/// `malloc` maps it and `realloc` grows it in place.
const MAPPED_BYTES: usize = 128 << 10;

/// Make room for one more sample in a full store: one of
/// [`MOVE_AT_BYTES`] up to [`MAPPED_BYTES`] moves into a fresh block of
/// `MAPPED_BYTES`; any other is left for `Vec::push` to double.
#[cold]
fn make_room<T: Copy>(samples: &mut Vec<T>) {
    if (MOVE_AT_BYTES..MAPPED_BYTES).contains(&size_of_val(samples.as_slice())) {
        let mut moved = Vec::with_capacity(const { MAPPED_BYTES / size_of::<T>() });
        moved.extend_from_slice(samples);
        *samples = moved;
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
    (acc.sum() / acc.count().max(1) as f64, acc.sample_std_dev())
}

/// One flow's delay samples in integer nanoseconds, reported in seconds.
///
/// Four bytes a sample while every sample is below 2³² ns, eight after the
/// first one at or above it (see the module docs).  The statistics are bit
/// for bit those of a [`SampleSet`] fed each sample's `ns as f64 / 1e9` in
/// the same order.
#[derive(Debug, Clone)]
pub struct NanoSamples {
    store: Store,
    sorted: bool,
}

/// The samples of a [`NanoSamples`], at the narrowest width that holds
/// them all.
#[derive(Debug, Clone)]
enum Store {
    /// Every sample below 2³² ns.
    Narrow(Vec<u32>),
    /// Some sample at or above 2³² ns.
    Wide(Vec<u64>),
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
            store: Store::Narrow(Vec::new()),
            sorted: true,
        }
    }

    /// Add one sample of `ns` nanoseconds.  The first sample of 2³² ns or
    /// more copies the store to eight-byte samples, once.  A full store
    /// grows by the rule of the module docs.
    pub fn record(&mut self, ns: u64) {
        match &mut self.store {
            Store::Narrow(narrow) => match u32::try_from(ns) {
                Ok(ns) => {
                    if narrow.len() == narrow.capacity() {
                        make_room(narrow);
                    }
                    narrow.push(ns);
                }
                Err(_) => {
                    // A copy of just the samples: full, so it grows by the
                    // same rule.
                    let mut wide: Vec<u64> = narrow.iter().map(|&x| u64::from(x)).collect();
                    make_room(&mut wide);
                    wide.push(ns);
                    self.store = Store::Wide(wide);
                }
            },
            Store::Wide(wide) => {
                if wide.len() == wide.capacity() {
                    make_room(wide);
                }
                wide.push(ns);
            }
        }
        self.sorted = false;
    }

    /// The samples as a run, in stored order.
    fn run(&self) -> Run<'_> {
        match &self.store {
            Store::Narrow(narrow) => Run::Narrow(narrow),
            Store::Wide(wide) => Run::Wide(wide),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.run().len()
    }

    /// `true` if no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` while the stored samples are known to be ascending: nothing
    /// recorded yet, or nothing recorded since the last
    /// [`sort`](NanoSamples::sort).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Sort the stored samples in place, ascending.
    pub fn sort(&mut self) {
        if !self.sorted {
            match &mut self.store {
                Store::Narrow(narrow) => narrow.sort_unstable(),
                Store::Wide(wide) => wide.sort_unstable(),
            }
            self.sorted = true;
        }
    }

    /// The samples in nanoseconds, in stored order (ascending once
    /// sorted).
    pub fn nanos(&self) -> impl Iterator<Item = u64> + '_ {
        self.run()
    }

    /// The samples in seconds, in stored order (ascending once sorted).
    pub fn secs(&self) -> impl Iterator<Item = f64> + '_ {
        self.run().map(secs)
    }

    /// Mean and sample (`n − 1`) standard deviation in seconds, from one
    /// pass in stored order: [`SampleSet::mean_and_std_dev`]'s fold.
    pub fn mean_and_std_dev(&self) -> (f64, f64) {
        mean_and_std_dev(self.secs())
    }

    /// The `q`-quantile in seconds, interpolated as
    /// [`SampleSet::quantile`] does; 0.0 if empty.  Sorts the store in
    /// place.
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
        let run = self.run();
        let (lo, hi, _) = quantile_span(q, run.len().checked_sub(1)?);
        Some((run.at(lo), run.at(hi)))
    }

    /// Largest sample in seconds, or 0.0 if empty.  O(1) once sorted.
    pub fn max(&self) -> f64 {
        let run = self.run();
        let max = if self.sorted {
            run.len().checked_sub(1).map(|last| run.at(last))
        } else {
            run.max()
        };
        max.map_or(0.0, secs)
    }
}

/// The unread part of a [`NanoSamples`]' store: an iterator of its
/// samples widened to `u64`.
#[derive(Debug, Clone, Copy)]
enum Run<'a> {
    Narrow(&'a [u32]),
    Wide(&'a [u64]),
}

impl Run<'_> {
    /// The sample at `rank`.
    fn at(self, rank: usize) -> u64 {
        match self {
            Run::Narrow(narrow) => u64::from(narrow[rank]),
            Run::Wide(wide) => wide[rank],
        }
    }
}

impl Iterator for Run<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match self {
            Run::Narrow(narrow) => {
                let (&x, rest) = narrow.split_first()?;
                *narrow = rest;
                Some(u64::from(x))
            }
            Run::Wide(wide) => {
                let (&x, rest) = wide.split_first()?;
                *wide = rest;
                Some(x)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match self {
            Run::Narrow(narrow) => narrow.len(),
            Run::Wide(wide) => wide.len(),
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Run<'_> {}

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
    let mut unread: Vec<Run> = runs.iter().map(|run| run.run()).collect();
    unread.resize(k, Run::Narrow(&[]));
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
    let mut spread_samples = spread_runs.iter().flat_map(|run| run.run());
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
        let mut s = store(ns);
        let mut o = oracle(ns);
        assert_eq!(s.len(), ns.len());
        assert_eq!(s.nanos().collect::<Vec<_>>(), ns);
        assert_eq!(s.max().to_bits(), o.max().to_bits(), "unsorted max, {ns:?}");
        // Mean and jitter from the stored-order pass, then (sorting) the
        // quantiles and the maximum.
        let (mean, jitter) = o.mean_and_std_dev();
        let expected = [mean, jitter].into_iter().chain(QS.map(|q| o.quantile(q)));
        let expected: Vec<u64> = expected.chain([o.max()]).map(f64::to_bits).collect();
        let (mean, jitter) = s.mean_and_std_dev();
        let stats = [mean, jitter].into_iter().chain(QS.map(|q| s.quantile(q)));
        let stats: Vec<u64> = stats.chain([s.max()]).map(f64::to_bits).collect();
        assert_eq!(stats, expected, "{ns:?}");
        assert!(s.is_sorted());
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        assert_eq!(s.nanos().collect::<Vec<_>>(), sorted);
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
        s.record(7);
        s.record(u64::from(u32::MAX));
        assert!(matches!(s.store, Store::Narrow(_)));
        s.record(1 << 32);
        s.record(3);
        assert!(matches!(s.store, Store::Wide(_)));
        assert_eq!(
            s.nanos().collect::<Vec<_>>(),
            [7, u64::from(u32::MAX), 1 << 32, 3]
        );
        assert_eq!(s.max(), 4.294967296);
        assert_eq!(s.quantile(0.0), 3e-9);
        // Every ladder rung, one at a time, alone, dealt out of order and
        // with the widening one partway through.
        for &x in &NS_LADDER {
            assert_store_is_the_oracle(&[x]);
        }
        let dealt: Vec<u64> = (0..27)
            .map(|i| NS_LADDER[(i * 4) % NS_LADDER.len()])
            .collect();
        assert_store_is_the_oracle(&dealt);
        assert_store_is_the_oracle(&[5, 2, (1 << 32) - 1, 1 << 32, 4, 0]);
    }

    /// The capacity of a store's vector, at whichever width.
    fn capacity(s: &NanoSamples) -> usize {
        match &s.store {
            Store::Narrow(narrow) => narrow.capacity(),
            Store::Wide(wide) => wide.capacity(),
        }
    }

    #[test]
    fn a_store_moves_once_into_its_mapped_block_when_it_fills_four_kib() {
        // Below 4 KiB a store doubles as a `Vec` does; the 1 025th narrow
        // sample moves it into 128 KiB, and it doubles from there.
        let ns: Vec<u64> = (0..70_000).map(|i| (i * 7_919) % 1_000_003).collect();
        let mut s = NanoSamples::new();
        for (i, &x) in ns.iter().enumerate() {
            s.record(x);
            let expected = match i + 1 {
                n @ ..=1_024 => n.next_power_of_two().max(4),
                n => n.next_power_of_two().max(32_768),
            };
            assert_eq!(capacity(&s), expected, "after {} samples", i + 1);
        }
        assert!(matches!(s.store, Store::Narrow(_)));
        assert_eq!(s.nanos().collect::<Vec<_>>(), ns);
        // A moved store that widens keeps its samples in record order and
        // takes the wide store's 128 KiB block, 16 384 samples.
        let mut s = store(&ns[..1_025]);
        s.record(1 << 32);
        s.record(9);
        assert!(matches!(s.store, Store::Wide(_)));
        assert_eq!(capacity(&s), 16_384);
        let widened: Vec<u64> = ns[..1_025].iter().copied().chain([1 << 32, 9]).collect();
        assert_eq!(s.nanos().collect::<Vec<_>>(), widened);
        // A wide store moves when it fills 4 KiB, at its 513th sample.
        let mut s = store(&[1 << 32]);
        for i in 1..512 {
            s.record(i);
        }
        assert_eq!(capacity(&s), 512);
        s.record(512);
        assert_eq!(capacity(&s), 16_384);
        assert_eq!(
            s.nanos().skip(1).collect::<Vec<_>>(),
            (1..=512).collect::<Vec<_>>()
        );
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

    /// A delay drawn by [`delay`]: a grid code and a raw draw.
    fn delays(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u32, u64)>> {
        proptest::collection::vec((0u32..120, any::<u64>()), len)
    }

    /// Mostly a coarse grid (so samples tie), with the width edges and the
    /// extremes common and an unconstrained value now and then.
    fn delay((g, raw): (u32, u64)) -> u64 {
        match g {
            0..=99 => u64::from(g % 40) * 700_000,
            100..=103 => [0, (1 << 32) - 1, 1 << 32, u64::MAX][g as usize - 100],
            _ => raw,
        }
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
        /// quantiles and maximum — for streams that stay narrow, that start
        /// wide, and that widen partway through (a narrow prefix, then a
        /// wide sample, then anything).  Streams run past the 1 024
        /// samples that move a narrow store (and the 512 that move a wide
        /// one), and the merge of the sorted stream with a sorted prefix
        /// of it is the pool of the two, across the move too.
        #[test]
        fn nano_store_matches_the_sample_set(
            prefix in proptest::collection::vec(0u64..1 << 32, 0..1_400),
            widen in (0u8..3, (1u64 << 32)..u64::MAX),
            rest in delays(0..700),
        ) {
            let widen = (widen.0 > 0).then_some(widen.1);
            let rest = rest.into_iter().map(delay);
            let stream: Vec<u64> = prefix.into_iter().chain(widen).chain(rest).collect();
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
        /// are common, narrow and wide runs mix, and `u64::MAX` samples tie
        /// the exhausted-run key — whatever the quantile selection.
        #[test]
        fn merge_matches_the_pooled_set(
            runs in proptest::collection::vec(delays(0..12), 1..41),
            qs in proptest::collection::vec(-0.1f64..1.1, 0..6),
        ) {
            let runs: Vec<Vec<u64>> = runs
                .into_iter()
                .map(|run| {
                    let mut run: Vec<u64> = run.into_iter().map(delay).collect();
                    run.sort_unstable();
                    run
                })
                .collect();
            let runs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
            super::tests::assert_merge_is_the_pool(&runs, &qs);
        }
    }
}
