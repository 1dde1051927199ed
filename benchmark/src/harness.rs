//! The parent side: closed-loop, one rep at a time, every rep a fresh
//! process timed from spawn to exit and checked against its golden.
//!
//! [`Harness::end_to_end`] produces the end-to-end metrics with tracing
//! off; [`Harness::traced`] is the separate pass that produces the
//! per-layer metrics (a handful of untraced reps for the phase spans, then
//! one traced child for the layer ledger).  Neither mixes into the other.

use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use ispn_scenario::JsonValue;

use crate::clock::{now, secs_since};
use crate::digest::fnv1a64;
use crate::golden::Goldens;
use crate::layers::{Ledger, TraceRequest};
use crate::metrics::Values;
use crate::proc::{children_cpu_s, run_timed, Finished};
use crate::reference::EXPECTED_OUTPUT;
use crate::rep::RepStats;
use crate::stats::{iqr_rel, low_decile, median, median_ratio, quiet_quarter_mean, tail};
use crate::workloads::{RunSpec, Workload, GOLDEN_SEED};

/// Reps every timed loop makes at least, however short `--seconds` is.
pub const MIN_REPS: usize = 5;

/// Timeout of the first, calibrating invocation of a run; later ones get
/// ten times what that one took.
pub const FIRST_TIMEOUT: Duration = Duration::from_secs(120);

/// Attempted and failed operations of one pass, with what went wrong.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ops {
    /// Reps and checked set-up invocations made.
    pub attempted: u64,
    /// How many of them failed: non-zero exit, timeout, or any byte of
    /// difference from the expected output.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation; returns whether it passed.
    pub fn record(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.failures.push(why);
                false
            }
        }
    }
}

/// What one pass over one workload produced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// The operations behind the numbers.
    pub ops: Ops,
    /// Metric values by catalogue name.
    pub metrics: Values,
    /// Human-readable lines beyond the metrics (sample counts, tails, the
    /// ledger).
    pub notes: Vec<String>,
}

/// Where the harness finds its files and how long a simulation rep is.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The benchmark binary, re-invoked as `rep` for simulation reps.
    pub exe: PathBuf,
    /// The benchmark package directory (`Cargo.toml`, `golden/`).
    pub bench_dir: PathBuf,
    /// The goldens outputs are checked against.
    pub goldens: Goldens,
    /// Scratch and trace output directory.
    pub out_dir: PathBuf,
    /// Simulated seconds per simulation rep (600 outside the self-tests).
    pub horizon_s: u64,
}

/// The exit-status half of an operation's verdict.
pub fn exited_cleanly(what: &str, done: &Finished) -> Result<(), String> {
    if done.timed_out {
        Err(format!("{what}: killed after {:.1} s", done.wall_s))
    } else if !done.success {
        Err(format!("{what}: exited with a failure status"))
    } else {
        Ok(())
    }
}

/// The timeout for the reps after a calibrating invocation that took
/// `first_wall_s`: ten times that, but never under two seconds.
pub fn rep_timeout(first_wall_s: f64) -> Duration {
    Duration::from_secs_f64((10.0 * first_wall_s).max(2.0))
}

/// 10th percentile, median, sample count and tail of a timing, as a note
/// line.
pub fn timing_note(name: &str, samples: &[f64]) -> String {
    let (pct, at) = tail(samples);
    format!(
        "{name}: p10 {:.6} s, median {:.6} s, p{pct:.0} {at:.6} s over n={} \
         (IQR {:.2} % of median)",
        low_decile(samples),
        median(samples),
        samples.len(),
        100.0 * iqr_rel(samples),
    )
}

/// One finished simulation rep.
struct SimRep {
    done: Finished,
    stats: Option<RepStats>,
}

/// One sample per rep that passed.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    /// Wall time of the reference child run right before the rep.
    reference: Vec<f64>,
    /// `cutime + cstime` delta across the rep, seconds (10 ms grain).
    cpu: Vec<f64>,
    setup: Vec<f64>,
    rss: Vec<f64>,
    stats: Vec<RepStats>,
}

impl Harness {
    /// Path of a scratch or trace file.
    pub fn out_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }

    /// A file in the output directory for a child's stderr.
    pub fn stderr_file(&self, name: &str) -> io::Result<File> {
        std::fs::create_dir_all(&self.out_dir)?;
        File::create(self.out_path(name))
    }

    fn sim_rep(
        &self,
        workload: Workload,
        spec: RunSpec,
        trace: Option<&TraceRequest>,
        timeout: Duration,
    ) -> io::Result<SimRep> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("rep")
            .args(["--workload", workload.name()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--horizon-s", &spec.horizon_s.to_string()]);
        if let Some(req) = trace {
            cmd.arg("--trace-out")
                .arg(&req.out)
                .args(["--budget-s", &format!("{:?}", req.budget_s)])
                .args(["--untraced-run-s", &format!("{:?}", req.untraced_run_s)]);
        }
        cmd.stdin(Stdio::null())
            .stderr(self.stderr_file("rep-stderr.txt")?);
        let done = run_timed(&mut cmd, timeout)?;
        let stderr = std::fs::read_to_string(self.out_path("rep-stderr.txt"))?;
        Ok(SimRep {
            done,
            stats: RepStats::parse(&stderr),
        })
    }

    /// Run the frozen reference child (see [`crate::reference`]) as a
    /// checked operation; its wall time, if it passed.
    pub fn reference_rep(&self, timeout: Duration, ops: &mut Ops) -> io::Result<Option<f64>> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("reference")
            .stdin(Stdio::null())
            .stderr(Stdio::null());
        let done = run_timed(&mut cmd, timeout)?;
        let verdict = exited_cleanly("reference child", &done).and_then(|()| {
            if done.stdout == EXPECTED_OUTPUT.as_bytes() {
                Ok(())
            } else {
                Err("reference child: output differs from the pinned checksum".to_string())
            }
        });
        Ok(ops.record(verdict).then_some(done.wall_s))
    }

    /// One rep at the golden seed, under the generous first-invocation
    /// timeout.
    fn golden_rep(&self, workload: Workload) -> io::Result<SimRep> {
        let spec = RunSpec {
            seed: GOLDEN_SEED,
            horizon_s: self.horizon_s,
        };
        self.sim_rep(workload, spec, None, FIRST_TIMEOUT)
    }

    /// The set-up every pass over a simulation workload starts with: one
    /// golden-seed rep, checked byte for byte, and one reference child.
    /// They warm the page cache and calibrate the timeout of the
    /// invocations that follow (ten times the slower of the two), which
    /// this returns.
    fn sim_setup(&self, workload: Workload, ops: &mut Ops) -> io::Result<Duration> {
        let rep = self.golden_rep(workload)?;
        ops.record(
            exited_cleanly("golden-seed rep", &rep.done)
                .and_then(|()| self.goldens.check(workload.name(), &rep.done.stdout)),
        );
        let reference = self.reference_rep(FIRST_TIMEOUT, ops)?;
        Ok(rep_timeout(rep.done.wall_s.max(reference.unwrap_or(0.0))))
    }

    /// Closed loop of untraced reps for `seconds` (at least [`MIN_REPS`]).
    /// At the golden seed every rep is compared against the golden; at any
    /// other seed every rep of the loop must produce one identical digest.
    fn sim_loop(
        &self,
        workload: Workload,
        seed: u64,
        seconds: f64,
        timeout: Duration,
        ops: &mut Ops,
    ) -> io::Result<(Samples, Option<u64>)> {
        let spec = RunSpec {
            seed,
            horizon_s: self.horizon_s,
        };
        let mut samples = Samples::default();
        let mut digest = None;
        let mut reps = 0;
        let start = now();
        while reps < MIN_REPS || secs_since(start) < seconds {
            let reference = self.reference_rep(timeout, ops)?;
            let cpu_before = children_cpu_s()?;
            let rep = self.sim_rep(workload, spec, None, timeout)?;
            let cpu_s = children_cpu_s()? - cpu_before;
            reps += 1;
            let output = &rep.done.stdout;
            let verdict = exited_cleanly("rep", &rep.done).and_then(|()| {
                if seed == GOLDEN_SEED {
                    return self.goldens.check(workload.name(), output);
                }
                let expected = *digest.get_or_insert(fnv1a64(output));
                if fnv1a64(output) == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "rep {reps}: digest {:016x} differs from this run's first rep \
                         ({expected:016x})",
                        fnv1a64(output)
                    ))
                }
            });
            let verdict = verdict.and_then(|()| {
                rep.stats
                    .ok_or_else(|| format!("rep {reps}: no statistics line on stderr"))
            });
            match (verdict, reference) {
                // A rep whose reference child failed has no yardstick;
                // that failure is already counted.
                (Ok(_), None) => {
                    ops.record(Ok(()));
                }
                (Ok(stats), Some(reference)) => {
                    ops.record(Ok(()));
                    samples.wall.push(rep.done.wall_s);
                    samples.reference.push(reference);
                    samples.cpu.push(cpu_s);
                    samples.setup.push(
                        stats
                            .built_at
                            .saturating_sub(rep.done.spawned_at)
                            .as_secs_f64(),
                    );
                    samples.rss.push(stats.vm_hwm_bytes as f64);
                    samples.stats.push(stats);
                }
                (Err(why), _) => {
                    ops.record(Err(why));
                }
            }
        }
        Ok((samples, digest))
    }

    /// The end-to-end metrics of one workload, tracing off.
    pub fn end_to_end(&self, workload: Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
        if workload == Workload::SweepPipes {
            return crate::sweep::end_to_end(self, seconds);
        }
        let mut out = Outcome::default();
        let timeout = self.sim_setup(workload, &mut out.ops)?;
        let (samples, _) = self.sim_loop(workload, seed, seconds, timeout, &mut out.ops)?;
        let m = &mut out.metrics;
        m.insert("setup_s".into(), low_decile(&samples.setup));
        m.insert(
            "wall_vs_ref".into(),
            median_ratio(&samples.wall, &samples.reference),
        );
        m.insert("peak_rss_bytes".into(), median(&samples.rss));
        out.notes.push(timing_note("wall", &samples.wall));
        out.notes.push(timing_note("set-up", &samples.setup));
        out.notes
            .push(timing_note("reference child", &samples.reference));
        Ok(out)
    }

    /// Regenerate one workload's golden from the code as it stands.
    pub fn bless(&self, workload: Workload) -> io::Result<()> {
        if workload == Workload::SweepPipes {
            return crate::sweep::bless(self);
        }
        let rep = self.golden_rep(workload)?;
        exited_cleanly("golden-seed rep", &rep.done).map_err(io::Error::other)?;
        self.goldens.bless(workload.name(), &rep.done.stdout)?;
        Ok(())
    }

    /// The traced pass of one workload: the per-layer metrics.
    pub fn traced(&self, workload: Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
        if workload == Workload::SweepPipes {
            return crate::sweep::traced(self, seconds);
        }
        let started = now();
        let mut out = Outcome::default();
        let timeout = self.sim_setup(workload, &mut out.ops)?;

        // A third of the time on untraced reps: the phase spans, the
        // run's own noise figure, and the base of the trace overhead.
        let (samples, digest) =
            self.sim_loop(workload, seed, seconds / 3.0, timeout, &mut out.ops)?;
        let phase = |pick: fn(&RepStats) -> f64| {
            low_decile(&samples.stats.iter().map(pick).collect::<Vec<f64>>())
        };
        let run_s = phase(|s| s.run_s);
        let exit_s = low_decile(
            &(samples.stats.iter().zip(&samples.wall).zip(&samples.setup))
                .map(|((s, wall), setup)| wall - setup - s.run_s - s.report_s - s.json_s)
                .collect::<Vec<f64>>(),
        );
        let m = &mut out.metrics;
        m.insert("scenario.build_s".into(), phase(|s| s.build_s));
        m.insert("scenario.run_s".into(), run_s);
        m.insert("scenario.report_s".into(), phase(|s| s.report_s));
        m.insert("scenario.json_s".into(), phase(|s| s.json_s));
        m.insert("scenario.exit_s".into(), exit_s);
        m.insert("bench.reps".into(), samples.wall.len() as f64);
        m.insert("bench.wall_p10_s".into(), low_decile(&samples.wall));
        m.insert("bench.wall_median_s".into(), median(&samples.wall));
        m.insert("bench.ref_s".into(), median(&samples.reference));
        m.insert("bench.wall_iqr_rel".into(), iqr_rel(&samples.wall));
        m.insert("bench.wall_tail_s".into(), tail(&samples.wall).1);
        m.insert(
            "bench.cpu_s".into(),
            quiet_quarter_mean(&samples.wall, &samples.cpu),
        );
        let after_setup = low_decile(&samples.wall) - low_decile(&samples.setup);
        if after_setup > 0.0 {
            out.notes.push(format!(
                "phases: run + report + json cover {:.1} % of wall - set-up; \
                 exit teardown is the other {:.6} s",
                100.0 * (1.0 - exit_s / after_setup),
                exit_s
            ));
        }

        // The rest on the traced child: one recorded run, then the replay
        // loops.
        let recorded_s = 2.0 * median(&samples.wall);
        let req = TraceRequest {
            out: self.out_path(&format!("trace-{}.json", workload.name())),
            budget_s: (seconds - secs_since(started) - recorded_s).max(1.0),
            untraced_run_s: run_s,
        };
        let spec = RunSpec {
            seed,
            horizon_s: self.horizon_s,
        };
        let child_timeout = Duration::from_secs_f64(req.budget_s * 2.0) + FIRST_TIMEOUT;
        let traced = self.sim_rep(workload, spec, Some(&req), child_timeout)?;
        let verdict = exited_cleanly("traced rep", &traced.done).and_then(|()| {
            // The recorder must not change a byte of the report.
            match digest {
                None => self.goldens.check(workload.name(), &traced.done.stdout),
                Some(d) if d == fnv1a64(&traced.done.stdout) => Ok(()),
                Some(d) => Err(format!(
                    "traced rep: digest {:016x} differs from the untraced reps' ({d:016x})",
                    fnv1a64(&traced.done.stdout)
                )),
            }
        });
        if !out.ops.record(verdict) {
            return Ok(out);
        }
        let trace = std::fs::read_to_string(&req.out)?;
        let doc = JsonValue::parse(&trace).map_err(io::Error::other)?;
        if let Some(JsonValue::Object(members)) = doc.get("metrics") {
            for (name, value) in members {
                out.metrics
                    .insert(name.clone(), value.as_f64().map_err(io::Error::other)?);
            }
        }
        let traced_run_s = doc
            .field("traced_run_s")
            .and_then(JsonValue::as_f64)
            .map_err(io::Error::other)?;
        if run_s > 0.0 {
            out.metrics
                .insert("bench.trace_overhead".into(), traced_run_s / run_s);
        }
        if let Some(ledger) = doc.get("ledger").and_then(Ledger::from_json) {
            out.notes.push(format!(
                "ledger: count x ns/op against the untraced run phase \
                 (trace written to {})\n{}",
                req.out.display(),
                ledger.render().trim_end()
            ));
        }
        Ok(out)
    }
}
