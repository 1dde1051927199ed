//! Parallel scenario sweeps: parameterize one scenario over axes, fan the
//! points across a thread pool, get deterministic axis-tagged reports back.
//!
//! Every result in CSZ'92 is a *sweep* — the same topology re-run across
//! loads, mixes and disciplines.  This module gives that shape a first-class
//! API:
//!
//! * [`ScenarioSet`] — a set of scenario points built from named axes.
//!   [`ScenarioSet::over`] opens the first axis and
//!   [`by`](ScenarioSet::by) cartesian-extends it with a second (the new
//!   axis becomes the inner loop).  Point parameters are plain tuples, so
//!   the run closure destructures them without any stringly-typed
//!   lookups; each point also carries `(axis name, value label)` tags for
//!   reports.
//! * [`SweepRunner`] — runs every point through a caller-supplied closure,
//!   either serially ([`SweepRunner::serial`]) or fanned across `N`
//!   OS threads ([`SweepRunner::parallel`];
//!   `std::thread::scope`, no pool retained between runs).  Each point
//!   builds and runs its own self-contained [`Sim`](crate::Sim) inside its
//!   worker thread.
//! * [`SweepReport`] — one point's result, tagged with the point's index
//!   and axis labels, serializable to JSON through the one writer in
//!   [`wire`].
//! * [`dist::DistRunner`] — the process-level flavor: fan the same points
//!   across supervised **worker subprocesses** speaking the line-framed
//!   JSON protocol of [`wire`], byte-identical to the in-thread runners.
//!   [`worker::serve_worker`] is the loop each experiment bin runs under
//!   `--sweep-worker` ([`net::serve_listener`] under `--serve ADDR`), and
//!   [`testing::FaultPlan`] injects worker faults for the supervision
//!   tests.
//!
//! # Streaming and fault isolation
//!
//! [`SweepRunner::run`] emits every point's report to a [`SweepObserver`]
//! the moment the point completes (completion order, from whichever
//! worker thread finished it) while still returning the full `Vec` in
//! point order.  Observers are ordinary `Sync` values — the stderr
//! [`ProgressObserver`], [`NullObserver`] to stream nowhere, or any
//! closure (one that sends each report into an `mpsc` channel turns the
//! stream into a receiver).
//!
//! Every point runs under [`std::panic::catch_unwind`], so one exploding
//! scenario no longer takes the whole sweep down: the point's slot carries
//! a structured [`SweepError`] (index, axis tags, panic payload) and every
//! sibling point still runs to completion.  [`SweepReport::expect_ok`]
//! unwraps one checked report, panicking with the failing point's tags.
//!
//! # Determinism
//!
//! Results come back **indexed by point order**, not completion order: the
//! runner writes each result into the slot of the point that produced it
//! and joins every worker before returning.  Since a scenario point is a
//! pure function of its parameters and seeds (each `Sim` owns its
//! `Network` + `Signaling` and a private RNG stream), a sweep produces
//! byte-identical [`SweepReport`]s whatever the thread count — and
//! whatever observer was streaming — pinned by `tests/tests/sweep.rs` and
//! the CI `sweep-smoke` job.
//!
//! ```
//! use ispn_scenario::{NullObserver, ScenarioSet, SweepRunner};
//!
//! let set = ScenarioSet::over("load", [0.5f64, 0.8])
//!     .by("flows", [5usize, 10]);
//! assert_eq!(set.len(), 4);
//! let reports = SweepRunner::parallel(2).run(&set, |&(load, flows)| {
//!     // build a ScenarioBuilder from (load, flows), run it, report…
//!     format!("{load}:{flows}")
//! }, &NullObserver);
//! assert_eq!(reports[3].result.as_deref(), Ok("0.8:10"));
//! assert_eq!(reports[3].tag("flows"), Some("10"));
//! ```

pub mod dist;
pub mod net;
pub mod testing;
pub mod wire;
pub mod worker;

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ispn_sim::SimTime;

use crate::discipline::DisciplineSpec;
use crate::report::{RunTelemetry, ScenarioReport};
use wire::ObjectWriter;

/// A value usable on a sweep axis: cloneable across threads and able to
/// label itself for axis tags.
pub trait AxisValue: Clone + Send + Sync {
    /// The tag label of this value (e.g. `0.8`, `WFQ`, `10`).
    fn axis_label(&self) -> String;
}

macro_rules! axis_value_display {
    ($($t:ty),*) => {$(
        impl AxisValue for $t {
            fn axis_label(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

axis_value_display!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl AxisValue for f64 {
    /// `{:?}` keeps a decimal point (`1.0`, not `1`), so float axes
    /// round-trip unambiguously.
    fn axis_label(&self) -> String {
        format!("{self:?}")
    }
}

impl AxisValue for &'static str {
    fn axis_label(&self) -> String {
        (*self).to_string()
    }
}

impl AxisValue for String {
    fn axis_label(&self) -> String {
        self.clone()
    }
}

impl AxisValue for DisciplineSpec {
    fn axis_label(&self) -> String {
        self.label().to_string()
    }
}

impl AxisValue for SimTime {
    fn axis_label(&self) -> String {
        format!("{}s", self.as_secs_f64())
    }
}

/// One scenario point: axis tags plus the typed parameters the run closure
/// receives.
#[derive(Debug, Clone)]
pub struct SweepPoint<P> {
    /// `(axis name, value label)` pairs in axis-declaration order.
    pub tags: Vec<(String, String)>,
    /// The point's parameters (a tuple, one element per axis).
    pub params: P,
}

/// A set of scenario points spanned by named axes.
#[derive(Debug, Clone)]
pub struct ScenarioSet<P> {
    points: Vec<SweepPoint<P>>,
}

impl ScenarioSet<()> {
    /// Open the first axis: one point per value.
    pub fn over<A: AxisValue>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = A>,
    ) -> ScenarioSet<(A,)> {
        let name = name.into();
        ScenarioSet {
            points: values
                .into_iter()
                .map(|v| SweepPoint {
                    tags: vec![(name.clone(), v.axis_label())],
                    params: (v,),
                })
                .collect(),
        }
    }
}

impl<A: Clone> ScenarioSet<(A,)> {
    /// Cartesian-extend with a second axis: every existing point is
    /// repeated once per value, with the new axis as the **inner** loop
    /// (the order a hand-written nested `for` produces).
    ///
    /// # Panics
    /// Panics if `values` is empty — a cartesian product with an empty axis
    /// would silently discard every existing point.
    pub fn by<B: AxisValue>(
        self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = B>,
    ) -> ScenarioSet<(A, B)> {
        let name = name.into();
        let values: Vec<B> = values.into_iter().collect();
        assert!(
            !values.is_empty(),
            "axis {name:?} has no values; a cartesian product with an empty \
             axis would drop every point"
        );
        let mut points = Vec::with_capacity(self.points.len() * values.len());
        for point in self.points {
            for v in &values {
                let mut tags = point.tags.clone();
                tags.push((name.clone(), v.axis_label()));
                points.push(SweepPoint {
                    tags,
                    params: (point.params.0.clone(), v.clone()),
                });
            }
        }
        ScenarioSet { points }
    }
}

impl<P> ScenarioSet<P> {
    /// The points, in sweep order.
    pub fn points(&self) -> &[SweepPoint<P>] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the set has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Structured record of a sweep point that panicked: which point it was
/// (index and axis tags) and what the panic said.  Produced by the
/// per-point [`catch_unwind`](std::panic::catch_unwind) wrapper, so a
/// poisoned point surfaces here instead of aborting its sibling points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// The failing point's position in sweep order.
    pub index: usize,
    /// The failing point's `(axis name, value label)` tags.
    pub tags: Vec<(String, String)>,
    /// The panic payload rendered as text (`&str` / `String` payloads pass
    /// through verbatim; anything else becomes a placeholder).
    pub payload: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "point {}", self.index)?;
        if !self.tags.is_empty() {
            let tags: Vec<String> = self
                .tags
                .iter()
                .map(|(name, label)| format!("{name}={label}"))
                .collect();
            write!(f, " ({})", tags.join(", "))?;
        }
        write!(f, " panicked: {}", self.payload)
    }
}

impl std::error::Error for SweepError {}

/// The outcome of one fault-isolated sweep point: the closure's result, or
/// the structured record of its panic.
pub type PointResult<R> = Result<R, SweepError>;

/// Render a caught panic payload as text.
pub(crate) fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One point's result, tagged with its index and axis labels.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<R> {
    /// The point's position in sweep order.
    pub index: usize,
    /// The point's `(axis name, value label)` tags.
    pub tags: Vec<(String, String)>,
    /// What the run closure returned for the point.
    pub result: R,
}

impl<R> SweepReport<R> {
    /// The label of one axis, if the point has it.
    pub fn tag(&self, axis: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, label)| label.as_str())
    }
}

impl<R> SweepReport<PointResult<R>> {
    /// Unwrap a checked report into its bare result.
    ///
    /// # Panics
    /// Panics with the failing point's tags and panic payload if the point
    /// errored.
    pub fn expect_ok(self) -> SweepReport<R> {
        match self.result {
            Ok(result) => SweepReport {
                index: self.index,
                tags: self.tags,
                result,
            },
            Err(e) => panic!("sweep {e}"),
        }
    }
}

/// Serialize a whole sweep of scenario reports as one JSON array — the
/// byte-identity surface the serial-vs-parallel acceptance check diffs.
/// Each point is `index`, `axes`, then one keyed body: `"report"` for a
/// result, `"error"` for a panic.
pub fn sweep_to_json(reports: &[SweepReport<PointResult<ScenarioReport>>]) -> String {
    wire::encoded(|out| {
        wire::write_seq(reports, out, |point, out| {
            let mut object = ObjectWriter::new(out);
            object
                .member("index", &point.index)
                .member("axes", &point.tags);
            match &point.result {
                Ok(report) => object.member("report", report),
                Err(e) => object.member("error", &e.payload),
            };
            object.end();
        })
    })
}

/// Number of panicked points in a checked sweep — the exit-status check
/// for command-line drivers: a bin that rendered a partially failed sweep
/// should still exit nonzero so CI and scripts see the failure.
pub fn failed_points<R>(reports: &[SweepReport<PointResult<R>>]) -> usize {
    reports.iter().filter(|r| r.result.is_err()).count()
}

/// Out-of-band per-point run stats: wall-clock data measured around one
/// point's execution, streamed to the observer **separately** from the
/// point's result so it can never leak into the byte-identity surface.
/// For a distributed sweep the wall time is the one the *worker process*
/// measured around the point's closure (shipped in a telemetry wire
/// frame); in-process runners measure around the same closure directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointTelemetry {
    /// The point's position in sweep order.
    pub index: usize,
    /// Wall-clock seconds spent running the point's closure.
    pub wall_s: f64,
    /// Parent-measured round-trip seconds for the point in a
    /// *distributed* sweep: from dispatching the point's request to
    /// receiving its final frame.  `rtt_s − wall_s` is the wire and
    /// supervision overhead of the point.  `None` for in-process runners,
    /// where there is no wire to measure.
    pub rtt_s: Option<f64>,
}

/// Receives each point's report the moment the point completes.
///
/// Implementations must be `Sync`: a parallel runner calls
/// [`point_completed`](SweepObserver::point_completed) from whichever
/// worker thread finished the point, so calls arrive in **completion
/// order** and may be concurrent.  The runner still returns the full
/// result `Vec` in point order afterwards, byte-identical to an unobserved
/// run.  Any `Fn(&SweepReport<PointResult<R>>) + Sync` closure is an
/// observer.
pub trait SweepObserver<R>: Sync {
    /// Called once, before any point runs, with the number of points.
    fn sweep_started(&self, _total: usize) {}

    /// Called with a point's out-of-band run stats, just before that
    /// point's [`point_completed`](SweepObserver::point_completed) (same
    /// thread, same ordering caveats).  Default: ignore — telemetry is
    /// opt-in for observers exactly as it is for reports.  A distributed
    /// runner whose worker died mid-point may complete a point without
    /// ever delivering its telemetry.
    fn point_telemetry(&self, _telemetry: &PointTelemetry) {}

    /// Called as each point completes (completion order; possibly from a
    /// worker thread).  Panicked points arrive as `Err` — streaming
    /// consumers see the failure as soon as it happens, not after the
    /// sweep returns.
    fn point_completed(&self, report: &SweepReport<PointResult<R>>);
}

impl<R, F> SweepObserver<R> for F
where
    F: Fn(&SweepReport<PointResult<R>>) + Sync,
{
    fn point_completed(&self, report: &SweepReport<PointResult<R>>) {
        self(report)
    }
}

/// The do-nothing observer: pass it to a runner's `run` to stream nowhere.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl<R> SweepObserver<R> for NullObserver {
    fn point_completed(&self, _report: &SweepReport<PointResult<R>>) {}
}

/// A progress observer for command-line sweeps: one stderr line per
/// completed point (`[done/total] axis=value … done (r.r pts/s, ETA Ns)`,
/// or the panic payload for a failed point).  This is what the experiment
/// bins wire up under `--stream`; stdout stays untouched, so the final
/// rendered report is byte-identical to an unobserved run.  The pace and ETA are
/// wall-clock measured *outside* the sim — they exist only on stderr and
/// never influence any result.
#[derive(Debug, Default)]
pub struct ProgressObserver {
    done: AtomicUsize,
    total: AtomicUsize,
    /// When the current sweep started (reset by `sweep_started`), for the
    /// pts/sec + ETA suffix.
    started: Mutex<Option<std::time::Instant>>,
}

impl ProgressObserver {
    /// A fresh progress observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completions counted so far.  Every point is counted **exactly
    /// once**, whether it ran in-thread or in a worker process and whether
    /// it succeeded or was poisoned — a distributed runner reports each
    /// point's final outcome once, even when a worker death forced its
    /// siblings onto other workers.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::SeqCst)
    }
}

impl ProgressObserver {
    /// The ` (r.r pts/s, ETA Ns)` suffix, empty until a measurable amount
    /// of wall time has passed.
    fn pace_suffix(&self, done: usize, total: usize) -> String {
        let elapsed = self
            .started
            .lock()
            .expect("progress clock poisoned")
            .map(|t0| t0.elapsed().as_secs_f64());
        match elapsed {
            Some(elapsed) if elapsed > 0.0 && done > 0 => {
                let rate = done as f64 / elapsed;
                let remaining = total.saturating_sub(done);
                format!(" ({rate:.1} pts/s, ETA {:.0}s)", remaining as f64 / rate)
            }
            _ => String::new(),
        }
    }
}

impl<R> SweepObserver<R> for ProgressObserver {
    fn sweep_started(&self, total: usize) {
        // Reset the completion count: an observer reused across runs used
        // to keep counting from the previous sweep's total, so `[done/total]`
        // overflowed and `completed()` double-counted.  The pace clock
        // restarts with it.
        self.done.store(0, Ordering::SeqCst);
        self.total.store(total, Ordering::SeqCst);
        #[expect(
            clippy::disallowed_methods,
            reason = "progress pacing (pts/s, ETA) on stderr only; stdout and report bytes \
                      never see this clock"
        )]
        let now = std::time::Instant::now();
        *self.started.lock().expect("progress clock poisoned") = Some(now);
    }

    fn point_completed(&self, report: &SweepReport<PointResult<R>>) {
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        let total = self.total.load(Ordering::SeqCst);
        let tags: Vec<String> = report
            .tags
            .iter()
            .map(|(name, label)| format!("{name}={label}"))
            .collect();
        let tags = tags.join(" ");
        let pace = self.pace_suffix(done, total);
        match &report.result {
            Ok(_) => eprintln!("[{done}/{total}] {tags} done{pace}"),
            Err(e) => eprintln!("[{done}/{total}] {tags} PANICKED: {}{pace}", e.payload),
        }
    }
}

/// Aggregate of a sweep's [`PointTelemetry`] stream: how many points
/// reported, total/mean wall time, the slowest point — and, for
/// distributed sweeps, the per-point round-trip overhead (time the parent
/// spent on the wire and in supervision beyond the worker's own wall
/// time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepTelemetry {
    points: usize,
    total_wall_s: f64,
    max_wall_s: f64,
    max_index: usize,
    rtt_points: usize,
    total_overhead_s: f64,
}

impl SweepTelemetry {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one point's stats in.
    pub fn record(&mut self, t: &PointTelemetry) {
        self.points += 1;
        self.total_wall_s += t.wall_s;
        if self.points == 1 || t.wall_s > self.max_wall_s {
            self.max_wall_s = t.wall_s;
            self.max_index = t.index;
        }
        if let Some(rtt_s) = t.rtt_s {
            self.rtt_points += 1;
            // Clamped at zero: the two clocks (worker wall vs parent
            // round-trip) are different instants on possibly different
            // machines, and a tiny negative "overhead" is clock noise,
            // not information.
            self.total_overhead_s += (rtt_s - t.wall_s).max(0.0);
        }
    }

    /// Number of points that reported telemetry.
    pub fn points(&self) -> usize {
        self.points
    }

    /// Mean per-point wall-clock seconds (0 before any point reported).
    pub fn mean_wall_s(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.total_wall_s / self.points as f64
        }
    }

    /// The slowest point's `(index, wall seconds)`, if any reported.
    pub fn slowest(&self) -> Option<(usize, f64)> {
        (self.points > 0).then_some((self.max_index, self.max_wall_s))
    }

    /// Total round-trip overhead seconds across the reporting points:
    /// `Σ max(0, rtt − wall)`, the time spent on the wire and in
    /// supervision rather than inside point closures.
    pub fn total_overhead_s(&self) -> f64 {
        self.total_overhead_s
    }

    /// Mean per-point round-trip overhead seconds (0 before any
    /// round-trip reported).
    pub fn mean_overhead_s(&self) -> f64 {
        if self.rtt_points == 0 {
            0.0
        } else {
            self.total_overhead_s / self.rtt_points as f64
        }
    }

    /// A one-paragraph human-readable summary.
    pub fn render(&self) -> String {
        match self.slowest() {
            None => "sweep telemetry: no points reported".to_string(),
            Some((index, max)) => {
                let overhead = if self.rtt_points > 0 {
                    format!(
                        ", {:.6}s mean round-trip overhead over {} points",
                        self.mean_overhead_s(),
                        self.rtt_points
                    )
                } else {
                    String::new()
                };
                format!(
                    "sweep telemetry: {} points, {:.3}s total point wall time \
                     ({:.3}s mean), slowest point {} at {:.3}s{overhead}",
                    self.points,
                    self.total_wall_s,
                    self.mean_wall_s(),
                    index,
                    max
                )
            }
        }
    }

    /// Serialize as one JSON object (the `--telemetry=FILE` payload),
    /// with a representative run's engine counters under a `"run"` key
    /// when the caller has them.
    pub fn to_json(&self, run: Option<&RunTelemetry>) -> String {
        wire::encoded(|out| {
            let mut object = ObjectWriter::new(out);
            object
                .member("points", &self.points)
                .member("total_wall_s", &self.total_wall_s)
                .member("mean_wall_s", &self.mean_wall_s())
                .member("max_wall_s", &self.max_wall_s)
                .member("max_index", &self.slowest().map(|(index, _)| index))
                .member("rtt_points", &self.rtt_points)
                .member("total_overhead_s", &self.total_overhead_s)
                .member("mean_overhead_s", &self.mean_overhead_s());
            if let Some(run) = run {
                object.member("run", run);
            }
            object.end();
        })
    }
}

/// An observer wrapper that aggregates the telemetry stream into a
/// [`SweepTelemetry`] while forwarding every callback to an inner
/// observer.  This is what the bins' `--telemetry` flag wires around their
/// usual observer: the inner one keeps rendering progress, the collector
/// accumulates the summary to print after the sweep.
pub struct TelemetryCollector<'a, R> {
    inner: &'a dyn SweepObserver<R>,
    aggregate: Mutex<SweepTelemetry>,
}

impl<'a, R> TelemetryCollector<'a, R> {
    /// Wrap `inner`, starting from an empty aggregate.
    pub fn new(inner: &'a dyn SweepObserver<R>) -> Self {
        TelemetryCollector {
            inner,
            aggregate: Mutex::new(SweepTelemetry::new()),
        }
    }

    /// The aggregate so far (a copy; the collector keeps accumulating).
    pub fn summary(&self) -> SweepTelemetry {
        *self.aggregate.lock().expect("telemetry aggregate poisoned")
    }
}

impl<R> std::fmt::Debug for TelemetryCollector<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryCollector")
            .field("aggregate", &self.summary())
            .finish_non_exhaustive()
    }
}

impl<R> SweepObserver<R> for TelemetryCollector<'_, R> {
    fn sweep_started(&self, total: usize) {
        // A collector reused across sweeps restarts its aggregate, like
        // ProgressObserver restarts its counters.
        *self.aggregate.lock().expect("telemetry aggregate poisoned") = SweepTelemetry::new();
        self.inner.sweep_started(total);
    }

    fn point_telemetry(&self, telemetry: &PointTelemetry) {
        self.aggregate
            .lock()
            .expect("telemetry aggregate poisoned")
            .record(telemetry);
        self.inner.point_telemetry(telemetry);
    }

    fn point_completed(&self, report: &SweepReport<PointResult<R>>) {
        self.inner.point_completed(report);
    }
}

/// Fans the points of a [`ScenarioSet`] across a thread pool.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// Run every point on the calling thread, in sweep order.
    pub fn serial() -> Self {
        SweepRunner { threads: 1 }
    }

    /// Fan points across `threads` OS threads (at least one).
    pub fn parallel(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every point of `set` through `run_point`, handing each
    /// completed point's report to `observer` **the moment it completes**
    /// (completion order, from the finishing worker thread), then return
    /// one checked [`SweepReport`] per point **in sweep order** —
    /// byte-identical to a serial or unobserved run.  `run_point` builds,
    /// runs and summarizes one self-contained scenario; it is called
    /// exactly once per point, and a panic inside it becomes that point's
    /// [`SweepError`] while every sibling point still runs.
    ///
    /// # Panics
    /// Never from `run_point`; a panic inside the observer itself still
    /// propagates.
    pub fn run<P, R, F, O>(
        &self,
        set: &ScenarioSet<P>,
        run_point: F,
        observer: &O,
    ) -> Vec<SweepReport<PointResult<R>>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
        O: SweepObserver<R> + ?Sized,
    {
        let n = set.points.len();
        observer.sweep_started(n);
        // One point, fault-isolated: a panic in `run_point` becomes the
        // point's `SweepError` instead of unwinding through the sweep.
        // The wall time rides back separately — out-of-band stats, never
        // part of the report.
        let run_one = |index: usize| -> (SweepReport<PointResult<R>>, PointTelemetry) {
            let point = &set.points[index];
            #[expect(
                clippy::disallowed_methods,
                reason = "per-point wall-time telemetry, carried out-of-band (PointTelemetry), \
                          never in the report"
            )]
            let started = std::time::Instant::now();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| run_point(&point.params)))
                .map_err(|payload| SweepError {
                    index,
                    tags: point.tags.clone(),
                    payload: panic_payload_text(payload.as_ref()),
                });
            let telemetry = PointTelemetry {
                index,
                wall_s: started.elapsed().as_secs_f64(),
                // No wire, no round-trip: the closure ran right here.
                rtt_s: None,
            };
            (
                SweepReport {
                    index,
                    tags: point.tags.clone(),
                    result,
                },
                telemetry,
            )
        };
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            for index in 0..n {
                let (report, telemetry) = run_one(index);
                observer.point_telemetry(&telemetry);
                observer.point_completed(&report);
                out.push(report);
            }
            return out;
        }
        // Work-stealing by atomic counter: each worker claims the next
        // unclaimed point and writes the report into that point's slot, so
        // completion order cannot leak into the output (only into the
        // observer, which is its contract).
        let slots: Vec<Mutex<Option<SweepReport<PointResult<R>>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (report, telemetry) = run_one(i);
                    observer.point_telemetry(&telemetry);
                    observer.point_completed(&report);
                    *slots[i].lock().expect("result slot poisoned") = Some(report);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every point produced a report (panics are caught per point)")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_axes_nest_like_for_loops() {
        let set = ScenarioSet::over("d", ["WFQ", "FIFO"]).by("load", [1usize, 2, 3]);
        assert_eq!(set.len(), 6);
        let got: Vec<(&str, usize)> = set
            .points()
            .iter()
            .map(|p| (p.params.0, p.params.1))
            .collect();
        assert_eq!(
            got,
            vec![
                ("WFQ", 1),
                ("WFQ", 2),
                ("WFQ", 3),
                ("FIFO", 1),
                ("FIFO", 2),
                ("FIFO", 3)
            ]
        );
        assert_eq!(
            set.points()[4].tags,
            vec![
                ("d".to_string(), "FIFO".to_string()),
                ("load".to_string(), "2".to_string())
            ]
        );
    }

    #[test]
    #[should_panic(expected = "has no values")]
    fn empty_cartesian_axis_panics() {
        let _ = ScenarioSet::over("load", [1usize]).by("d", Vec::<&'static str>::new());
    }

    #[test]
    fn single_point_sets_run_through_the_same_machinery() {
        let set = ScenarioSet::over("only", [7usize]);
        let out = SweepRunner::parallel(4).run(&set, |&(x,)| x * 6, &NullObserver);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].result, Ok(42));
        assert_eq!(out[0].tag("only"), Some("7"));
    }

    #[test]
    fn parallel_results_come_back_in_point_order() {
        let set = ScenarioSet::over("i", (0..64usize).collect::<Vec<_>>());
        // Skew the work so late points finish first under parallelism.
        let f = |&(i,): &(usize,)| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            i * i
        };
        let serial = SweepRunner::serial().run(&set, f, &NullObserver);
        let parallel = SweepRunner::parallel(8).run(&set, f, &NullObserver);
        assert_eq!(serial, parallel);
        for (i, r) in parallel.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.result, Ok(i * i));
            assert_eq!(r.tag("i"), Some(i.to_string().as_str()));
        }
    }

    #[test]
    fn sweep_json_tags_every_point_and_escapes_labels() {
        let set = ScenarioSet::over("d", ["evil\"quote"]);
        let out = SweepRunner::serial().run(&set, |_| empty_report(), &NullObserver);
        let json = sweep_to_json(&out);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(
            json.contains("\"axes\":[[\"d\",\"evil\\\"quote\"]]"),
            "{json}"
        );
        assert!(json.contains("\"index\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn runner_thread_counts() {
        assert_eq!(SweepRunner::serial().threads(), 1);
        assert_eq!(SweepRunner::parallel(0).threads(), 1);
        assert_eq!(SweepRunner::parallel(6).threads(), 6);
    }

    #[test]
    fn a_panicking_point_is_isolated_and_named() {
        let set = ScenarioSet::over("load", [1usize, 2, 3, 4]);
        let f = |&(load,): &(usize,)| {
            assert!(load != 3, "load 3 is poisoned");
            load * 10
        };
        for runner in [SweepRunner::serial(), SweepRunner::parallel(4)] {
            let reports = runner.run(&set, f, &NullObserver);
            assert_eq!(reports.len(), 4);
            assert_eq!(failed_points(&reports), 1);
            // Sibling points all completed…
            assert_eq!(reports[0].result, Ok(10));
            assert_eq!(reports[1].result, Ok(20));
            assert_eq!(reports[3].result, Ok(40));
            // …and the poisoned one names itself.
            let err = reports[2].result.as_ref().unwrap_err();
            assert_eq!(err.index, 2);
            assert_eq!(err.tags, vec![("load".to_string(), "3".to_string())]);
            assert!(err.payload.contains("load 3 is poisoned"), "{err}");
            assert!(err.to_string().contains("load=3"), "{err}");
        }
    }

    /// `expect_ok` unwraps a healthy point and names a poisoned one's
    /// tags when it panics.
    #[test]
    #[should_panic(expected = "load=3")]
    fn infallible_run_names_the_failing_point() {
        let set = ScenarioSet::over("load", [1usize, 3]);
        let reports = SweepRunner::serial().run(
            &set,
            |&(load,): &(usize,)| {
                assert!(load != 3, "boom");
                load
            },
            &NullObserver,
        );
        let mut reports = reports.into_iter();
        assert_eq!(reports.next().map(|r| r.expect_ok().result), Some(1));
        let _ = reports.next().map(SweepReport::expect_ok);
    }

    #[test]
    fn streaming_observes_every_point_and_returns_point_order() {
        let set = ScenarioSet::over("i", (0..32usize).collect::<Vec<_>>());
        let f = |&(i,): &(usize,)| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i + 100
        };
        let seen = Mutex::new(Vec::new());
        let observer = |report: &SweepReport<PointResult<usize>>| {
            seen.lock()
                .unwrap()
                .push((report.index, *report.result.as_ref().unwrap()));
        };
        let streamed = SweepRunner::parallel(8).run(&set, f, &observer);
        // Every point was emitted exactly once before the sweep returned…
        let mut seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 32);
        seen.sort();
        assert_eq!(seen, (0..32usize).map(|i| (i, i + 100)).collect::<Vec<_>>());
        // …and the returned reports are in point order, matching serial.
        let serial = SweepRunner::serial().run(&set, f, &NullObserver);
        assert_eq!(streamed, serial);
        for (i, r) in streamed.iter().enumerate() {
            assert_eq!(r.index, i);
        }
    }

    /// Streaming into a channel needs no dedicated observer type: a
    /// closure that sends each report is one.
    #[test]
    fn channel_observer_streams_completions() {
        let set = ScenarioSet::over("x", [1u64, 2, 3]);
        let (tx, rx) = std::sync::mpsc::channel();
        let observer = |report: &SweepReport<PointResult<u64>>| {
            let _ = tx.send(report.clone());
        };
        let reports = SweepRunner::parallel(2).run(&set, |&(x,)| x * x, &observer);
        drop(tx);
        let mut streamed: Vec<u64> = rx
            .into_iter()
            .map(|r| r.result.expect("no panics here"))
            .collect();
        streamed.sort();
        assert_eq!(streamed, vec![1, 4, 9]);
        assert_eq!(reports.len(), 3);
    }

    /// A report with no flows, links or classes.
    fn empty_report() -> ScenarioReport {
        ScenarioReport {
            horizon_s: 1.0,
            flows: Vec::new(),
            links: Vec::new(),
            classes: Vec::new(),
            disciplines: Vec::new(),
            signaling: Default::default(),
            telemetry: None,
        }
    }

    /// A healthy point serializes as `index`, `axes` and its `report`, the
    /// bytes an all-success sweep has always produced; a poisoned one
    /// carries its payload under `error` instead.
    #[test]
    fn checked_json_matches_unchecked_on_success_and_carries_errors() {
        let set = ScenarioSet::over("d", ["ok"]);
        let checked = SweepRunner::serial().run(&set, |_| empty_report(), &NullObserver);
        assert_eq!(
            sweep_to_json(&checked),
            "[{\"index\":0,\"axes\":[[\"d\",\"ok\"]],\"report\":{\"horizon_s\":1.0,\
             \"flows\":[],\"links\":[],\"classes\":[],\"disciplines\":[],\"signaling\":\
             {\"accepted\":0,\"rejected\":0,\"pending\":0,\"decisions\":[]}}}]"
        );

        // A panicked point serializes its payload under "error" (escaped).
        let poisoned: SweepReport<PointResult<ScenarioReport>> = SweepReport {
            index: 1,
            tags: vec![("d".to_string(), "bad".to_string())],
            result: Err(SweepError {
                index: 1,
                tags: vec![("d".to_string(), "bad".to_string())],
                payload: "evil \"quote\"".to_string(),
            }),
        };
        let json = sweep_to_json(&[poisoned]);
        assert!(json.contains("\"error\":\"evil \\\"quote\\\"\""), "{json}");
        assert!(!json.contains("\"report\""), "{json}");
    }

    #[test]
    fn progress_observer_resets_its_counter_per_sweep() {
        let observer = ProgressObserver::new();
        let small = ScenarioSet::over("i", [1usize, 2]);
        let big = ScenarioSet::over("i", (0..5usize).collect::<Vec<_>>());
        let _ = SweepRunner::serial().run(&big, |&(i,)| i, &observer);
        assert_eq!(observer.completed(), 5);
        // Reusing the observer must restart from zero, not keep counting.
        let _ = SweepRunner::serial().run(&small, |&(i,)| i, &observer);
        assert_eq!(observer.completed(), 2);
    }

    #[test]
    fn every_point_streams_telemetry_with_positive_wall_time() {
        let set = ScenarioSet::over("i", (0..8usize).collect::<Vec<_>>());
        let seen: Mutex<Vec<PointTelemetry>> = Mutex::new(Vec::new());
        struct Capture<'a>(&'a Mutex<Vec<PointTelemetry>>);
        impl<R> SweepObserver<R> for Capture<'_> {
            fn point_telemetry(&self, t: &PointTelemetry) {
                self.0.lock().unwrap().push(*t);
            }
            fn point_completed(&self, _report: &SweepReport<PointResult<R>>) {}
        }
        for runner in [SweepRunner::serial(), SweepRunner::parallel(4)] {
            seen.lock().unwrap().clear();
            let _ = runner.run(&set, |&(i,)| i, &Capture(&seen));
            let mut indices: Vec<usize> = seen.lock().unwrap().iter().map(|t| t.index).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..8).collect::<Vec<_>>());
            assert!(seen.lock().unwrap().iter().all(|t| t.wall_s >= 0.0));
        }
    }

    #[test]
    fn telemetry_collector_aggregates_and_resets_per_sweep() {
        let mut agg = SweepTelemetry::new();
        assert_eq!(agg.points(), 0);
        assert_eq!(agg.slowest(), None);
        agg.record(&PointTelemetry {
            index: 0,
            wall_s: 1.0,
            rtt_s: None,
        });
        agg.record(&PointTelemetry {
            index: 3,
            wall_s: 4.0,
            rtt_s: Some(4.5),
        });
        agg.record(&PointTelemetry {
            index: 5,
            wall_s: 1.0,
            // Parent clock behind the worker clock: clamps to zero
            // overhead instead of cancelling real overhead elsewhere.
            rtt_s: Some(0.9),
        });
        assert_eq!(agg.points(), 3);
        assert_eq!(agg.total_wall_s, 6.0);
        assert_eq!(agg.mean_wall_s(), 2.0);
        assert_eq!(agg.slowest(), Some((3, 4.0)));
        assert_eq!(agg.rtt_points, 2);
        assert_eq!(agg.total_overhead_s(), 0.5);
        assert_eq!(agg.mean_overhead_s(), 0.25);
        assert!(agg.render().contains("slowest point 3"));
        assert!(
            agg.render().contains("round-trip overhead over 2 points"),
            "{}",
            agg.render()
        );
        assert_eq!(
            agg.to_json(None),
            "{\"points\":3,\"total_wall_s\":6.0,\"mean_wall_s\":2.0,\
             \"max_wall_s\":4.0,\"max_index\":3,\"rtt_points\":2,\
             \"total_overhead_s\":0.5,\"mean_overhead_s\":0.25}"
        );

        // The collector wrapper accumulates the stream and forwards to the
        // inner observer; a new sweep restarts its aggregate.
        let set = ScenarioSet::over("i", [1usize, 2, 3]);
        let inner = ProgressObserver::new();
        let collector = TelemetryCollector::new(&inner);
        let _ = SweepRunner::parallel(2).run(&set, |&(i,)| i, &collector);
        assert_eq!(collector.summary().points(), 3);
        assert_eq!(inner.completed(), 3);
        let pair = ScenarioSet::over("i", [1usize, 2]);
        let _ = SweepRunner::serial().run(&pair, |&(i,)| i, &collector);
        assert_eq!(collector.summary().points(), 2);
    }

    #[test]
    fn empty_sweep_telemetry_serializes_null_slowest() {
        let agg = SweepTelemetry::new();
        assert!(agg.render().contains("no points reported"));
        assert_eq!(
            agg.to_json(None),
            "{\"points\":0,\"total_wall_s\":0.0,\"mean_wall_s\":0.0,\
             \"max_wall_s\":0.0,\"max_index\":null,\"rtt_points\":0,\
             \"total_overhead_s\":0.0,\"mean_overhead_s\":0.0}"
        );
    }

    #[test]
    fn non_string_panic_payloads_get_a_placeholder() {
        let set = ScenarioSet::over("i", [0usize]);
        let reports = SweepRunner::serial().run(
            &set,
            |_| {
                std::panic::panic_any(42usize);
                #[expect(
                    unreachable_code,
                    reason = "the closure must still name its return type for inference"
                )]
                ()
            },
            &NullObserver,
        );
        let err = reports[0].result.as_ref().unwrap_err();
        assert_eq!(err.payload, "non-string panic payload");
    }
}
