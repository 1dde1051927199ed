//! Shared fixtures for the sweep test harnesses.
//!
//! A distributed sweep needs the parent and its workers to build the
//! **same** `ScenarioSet` from the same configuration.  In the integration
//! tests the worker is the `dist_worker` bin of this package (located via
//! `CARGO_BIN_EXE_dist_worker` at test compile time), and this module is
//! the single source of truth both sides share: each *suite* names one
//! sweep — the six experiment sweeps at short horizons, a generic
//! `ScenarioReport` sweep, and the instant `square` sweep the
//! fault-injection tests use (its points cost microseconds, so a test can
//! kill, wedge and garbage workers without waiting on simulations).
//!
//! [`assert_exec_matches_serial`] is the one byte-identity check every
//! execution level of every experiment goes through.

use ispn_experiments::{
    churn, hetmix, mesh, run, serve, table1, table2, table3, Experiment, PaperConfig, Serve,
};
use ispn_scenario::{
    DisciplineSpec, FlowDef, MeasurementPlan, PointResult, ScenarioBuilder, ScenarioReport,
    ScenarioSet, SourceSpec, SweepExec, SweepProgress, SweepReport, SweepRunner, WireResult,
};
use ispn_sim::SimTime;

/// A paper configuration shortened to `secs` simulated seconds.
pub fn short(secs: u64) -> PaperConfig {
    PaperConfig {
        duration: SimTime::from_secs(secs),
        ..PaperConfig::paper()
    }
}

/// The Table-1 suite.
pub fn table1() -> table1::Sweep {
    table1::Sweep { cfg: short(5) }
}

/// The Table-2 suite.
pub fn table2() -> table2::Sweep {
    table2::Sweep { cfg: short(5) }
}

/// The Table-3 seed-replication suite (two seeds).
pub fn table3() -> table3::Sweep {
    let cfg = short(5);
    let seeds = vec![cfg.seed, cfg.seed.wrapping_add(1)];
    table3::Sweep { cfg, seeds }
}

/// The heterogeneous-mix suite (4 disciplines × 1 level = 4 points).
pub fn hetmix() -> hetmix::Sweep {
    hetmix::Sweep {
        cfg: short(4),
        levels: vec![1],
    }
}

/// The mesh suite.
pub fn mesh() -> mesh::Sweep {
    mesh::Sweep {
        cfg: short(4),
        levels: vec![1, 2],
    }
}

/// The churn suite (long enough for accepts *and* rejects, so the
/// decision sequence is worth comparing).
pub fn churn() -> churn::Sweep {
    churn::Sweep {
        paper: PaperConfig {
            duration: SimTime::from_secs(20),
            ..PaperConfig::fast()
        },
        rates: vec![0.6, 1.2],
        holding: 15.0,
    }
}

/// The byte-identity contract of every execution level: `exec` must
/// reproduce the serial in-process sweep exactly — same point order, same
/// axis tags, the same wire encoding of every row, the same rendered
/// table.  Returns the `(serial, exec)` rows so callers can assert what the
/// sweep itself must show (distinct seeds differ, churn drains clean, …).
pub fn assert_exec_matches_serial<E: Experiment>(
    e: &E,
    exec: &SweepExec,
) -> (Vec<E::Row>, Vec<E::Row>) {
    let in_process = SweepExec::InProcess(SweepRunner::serial());
    let serial = run(e, &in_process, &SweepProgress::default());
    let other = run(e, exec, &SweepProgress::default());
    assert_eq!(serial.len(), other.len(), "same point count");
    for (s, o) in serial.iter().zip(&other) {
        assert_eq!(s.index, o.index, "point order must match");
        assert_eq!(s.tags, o.tags, "axis tags must match");
        let index = s.index;
        let s = s.result.as_ref().expect("serial point succeeded");
        let o = o.result.as_ref().expect("exec point succeeded");
        assert_eq!(
            s.to_wire_json(),
            o.to_wire_json(),
            "point {index} diverged from the serial run on {}",
            exec.description()
        );
    }
    assert_eq!(e.render(&serial), e.render(&other), "rendered tables match");
    let unwrap = |reports: Vec<SweepReport<PointResult<E::Row>>>| {
        reports.into_iter().map(|r| r.expect_ok().result).collect()
    };
    (unwrap(serial), unwrap(other))
}

/// [`assert_exec_matches_serial`] over the churn suite, plus the
/// experiment's own determinism surface: the accept/reject decision
/// sequence survives the execution level decision for decision, and every
/// run drains to zero residual reservations.
pub fn assert_churn_matches_serial(exec: &SweepExec) {
    let (serial, other) = assert_exec_matches_serial(&churn(), exec);
    for (s, o) in serial.iter().zip(&other) {
        assert_eq!(s.decisions, o.decisions);
        assert!(s.offered > 0, "a silent empty run would prove nothing");
        assert_eq!(s.residual_reserved_bps, 0.0);
        assert_eq!(o.residual_reserved_bps, 0.0);
    }
}

/// Points in the default `square` suite.
pub const SQUARE_POINTS: usize = 8;

/// The `square` sweep: `n` instant points tagged by index.
pub fn square_set(n: usize) -> ScenarioSet<(usize,)> {
    ScenarioSet::over("i", (0..n).collect::<Vec<_>>())
}

/// The `square` point closure.
pub fn square_point(&(i,): &(usize,)) -> u64 {
    (i * i) as u64
}

/// The generic `scenario` sweep: three load levels of a small two-switch
/// mix, reported as full `ScenarioReport`s (per-class distributions
/// included), so the whole report schema crosses the wire.
pub fn scenario_set() -> ScenarioSet<(usize,)> {
    ScenarioSet::over("level", vec![1usize, 2, 3])
}

/// The `scenario` point closure.
pub fn scenario_point(&(level,): &(usize,)) -> ScenarioReport {
    let mut builder = ScenarioBuilder::chain(2).discipline(DisciplineSpec::Wfq);
    for i in 0..level {
        builder = builder
            .flow(FlowDef::guaranteed(0, 1, 120_000.0).source(SourceSpec::cbr(85.0, 1000)))
            .flow(
                FlowDef::best_effort_realtime(0, 1)
                    .source(SourceSpec::onoff_paper(85.0, 40 + i as u64)),
            )
            .flow(FlowDef::datagram(0, 1).source(SourceSpec::poisson(85.0, 1000, 80 + i as u64)));
    }
    let mut sim = builder.build().expect("valid scenario suite point");
    sim.run_until(SimTime::from_secs(3));
    sim.report(&MeasurementPlan::default())
}

/// Serve one named suite over stdin/stdout or a TCP listener (the
/// `dist_worker` bin's whole job).  Parent tests must build their sweeps
/// from the **same** fixtures.
pub fn serve_suite(suite: &str, transport: Serve<'_>) -> std::io::Result<()> {
    match suite {
        "table1" => serve(&table1(), transport),
        "table2" => serve(&table2(), transport),
        "table3" => serve(&table3(), transport),
        "hetmix" => serve(&hetmix(), transport),
        "mesh" => serve(&mesh(), transport),
        "churn" => serve(&churn(), transport),
        "square" => transport.serve_set(&square_set(SQUARE_POINTS), square_point),
        // A deliberately mismatched sweep (5 points where the parent
        // expects 8) for the configuration-skew test.
        "square5" => transport.serve_set(&square_set(5), square_point),
        // A worker wedged before its hello, for the handshake-deadline
        // test: the parent must cut this slot loose on its own clock.
        "hang-hello" => loop {
            std::thread::sleep(std::time::Duration::from_millis(50));
        },
        "scenario" => transport.serve_set(&scenario_set(), scenario_point),
        other => panic!("unknown dist suite {other:?}"),
    }
}
