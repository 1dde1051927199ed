//! One descriptor, one driver: what a sweep-shaped experiment *is*, and the
//! only code that knows how to execute one.
//!
//! Every result in CSZ'92 is the same network re-run across disciplines,
//! path lengths or loads.  An [`Experiment`] states that shape once — the
//! axes ([`set`](Experiment::set)), one point
//! ([`point`](Experiment::point)) and the table
//! ([`render`](Experiment::render)) — and the driver below owns every way
//! of executing it: [`rows`] serially, [`run`] under any [`SweepExec`]
//! (threads, worker subprocesses, TCP hosts), [`serve`] as the worker side
//! of a distributed run, and [`cli::main`](crate::cli::main) as a whole
//! command line.  All of them are byte-identical in what they compute,
//! because all of them call the same `point`.
//!
//! Adding a study is one `impl` plus one
//! [`wire_record!`](ispn_scenario::wire_record) line — the row's field
//! list, which is its whole wire codec — and a three-line bin:
//! [`table1::Sweep`](crate::table1::Sweep) is the smallest implementation,
//! and `src/bin/table1.rs` — pick the configuration, build the struct, call
//! [`cli::main`](crate::cli::main) — is all a sweep bin's `main` holds.

use ispn_scenario::{
    NullObserver, PointResult, RunTelemetry, ScenarioSet, SweepExec, SweepObserver, SweepReport,
    SweepRunner, WireResult,
};

/// A sweep-shaped experiment: a configuration-holding value that can span
/// its axes, run one point, and render the finished sweep.
///
/// A distributed parent and its workers each build the same value from the
/// same command line, so [`set`](Experiment::set) and
/// [`point`](Experiment::point) must be pure functions of `self`.
pub trait Experiment: Sync {
    /// One point's parameters (a tuple, one element per axis).
    type Params: Sync;
    /// One point's result; it crosses process boundaries through its
    /// [`WireResult`] codec.
    type Row: WireResult + Send;

    /// The axes of the sweep, in the order the table prints them.
    fn set(&self) -> ScenarioSet<Self::Params>;

    /// Build, run and summarize one self-contained point.
    fn point(&self, params: &Self::Params) -> Self::Row;

    /// Render the finished sweep (panicked points print in place).
    fn render(&self, reports: &[SweepReport<PointResult<Self::Row>>]) -> String;

    /// Assert what must hold over a sweep in which every point succeeded
    /// and return the line that says so, printed after the table.
    fn check(&self, _rows: &[&Self::Row]) -> Option<String> {
        None
    }

    /// One representative run's engine counters and memory footprint, for
    /// experiments whose `--telemetry` summary reports them.
    fn footprint(&self) -> Option<RunTelemetry> {
        None
    }
}

/// Run the sweep on `exec`, streaming each completed point to `observer`;
/// the checked, axis-tagged reports come back in point order whatever the
/// execution level.
pub fn run<E: Experiment>(
    e: &E,
    exec: &SweepExec,
    observer: &dyn SweepObserver<E::Row>,
) -> Vec<SweepReport<PointResult<E::Row>>> {
    exec.run(&e.set(), |params| e.point(params), observer)
}

/// Run the sweep serially in this process and return the bare rows.
///
/// # Panics
/// Panics naming the failing point's tags if a point panicked.
pub fn rows<E: Experiment>(e: &E) -> Vec<E::Row> {
    run(
        e,
        &SweepExec::InProcess(SweepRunner::serial()),
        &NullObserver,
    )
    .into_iter()
    .map(|report| report.expect_ok().result)
    .collect()
}

/// Where [`serve`] takes point requests from.
#[derive(Debug, Clone, Copy)]
pub enum Serve<'a> {
    /// This process's stdin/stdout (`--sweep-worker`).
    Stdio,
    /// A TCP listener bound to the address (`--serve ADDR`).
    Listen(&'a str),
}

impl Serve<'_> {
    /// Serve the points of a bare set + point function over this
    /// transport (what [`serve`] does for an [`Experiment`]).
    pub fn serve_set<P: Sync, R: WireResult>(
        self,
        set: &ScenarioSet<P>,
        point: impl Fn(&P) -> R + Sync,
    ) -> std::io::Result<()> {
        match self {
            Serve::Stdio => ispn_scenario::serve_worker(set, point),
            Serve::Listen(addr) => ispn_scenario::serve_listener(addr, set, point),
        }
    }
}

/// Serve the sweep's points to a distributed parent: until stdin closes,
/// or over accepted connections until the process is killed.
pub fn serve<E: Experiment>(e: &E, transport: Serve<'_>) -> std::io::Result<()> {
    transport.serve_set(&e.set(), |params| e.point(params))
}
