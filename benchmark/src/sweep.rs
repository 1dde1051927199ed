//! The `sweep-pipes` workload: the `hetmix` experiment bin under
//! `ISPN_FAST=1`, driven only through its command line.
//!
//! One rep is `hetmix --workers 1` (see [`PIPES`] for why not the CI smoke
//! command's two), with stdout
//! checked against the golden table.  The bin defines its own eight
//! points, so the workload takes no seed.

use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use ispn_experiments::config::PaperConfig;
use ispn_scenario::{DisciplineSpec, JsonValue, WireResult, LISTENING_BANNER};
use ispn_sim::SimTime;

use crate::clock::{now, secs_since};
use crate::harness::{
    exited_cleanly, rep_timeout, timing_note, Harness, Ops, Outcome, FIRST_TIMEOUT, MIN_REPS,
};
use crate::json::{int, num, obj, text};
use crate::proc::{children_cpu_s, run_timed, vm_hwm_bytes, Finished};
use crate::stats::{iqr_rel, low_decile, median, median_ratio, quiet_quarter_mean, tail};
use crate::workloads::Workload;

const NAME: &str = "sweep-pipes";

/// The execution mode of a rep: one worker subprocess over pipes.  The CI
/// smoke command uses two, but the reference box cannot promise two vCPUs
/// at once: with two workers the sweep sits at 78 ms while they really run
/// in parallel and at 100–125 ms while they do not, for minutes at a time,
/// which no statistic steadies.  One worker exercises the same dispatch,
/// framing, JSON and worker start/stop, serially.
const PIPES: [&str; 2] = ["--workers", "1"];

/// Cold-worker start/stop samples behind `setup_s`: a few discarded ones
/// to warm up, then some before every batch of reps.
const COLD_DISCARDED: usize = 5;
const COLD_PER_BATCH: usize = 2;

/// Consecutive reps averaged into one `wall_s` sample.
const BATCH: usize = 8;

/// Listeners measured for `peak_rss_bytes`.
const RSS_LISTENERS: usize = 3;

/// Reps of each alternative execution mode in the traced pass.
const MODE_REPS: usize = 21;
/// Reps with `--telemetry=FILE` in the traced pass.
const TELEMETRY_REPS: usize = 5;

/// A `hetmix --serve` listener; killed and reaped on drop.
struct Listener {
    child: Child,
    /// Kept open so the listener never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Listener {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The built `hetmix` bin and the harness it runs under.
struct Hetmix<'a> {
    harness: &'a Harness,
    bin: PathBuf,
}

impl<'a> Hetmix<'a> {
    /// Build the `hetmix` bin of `ispn-experiments` (release profile, into
    /// the benchmark's own target directory) and locate it.
    fn build(harness: &'a Harness) -> io::Result<Self> {
        let manifest = harness.bench_dir.join("Cargo.toml");
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--quiet", "--manifest-path"])
            .arg(&manifest)
            .args(["-p", "ispn-experiments", "--bin", "hetmix"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other("cargo could not build the hetmix bin"));
        }
        // Cargo resolves a relative CARGO_TARGET_DIR against the directory
        // it was started in, which is this process's too.
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| harness.bench_dir.join("target"), PathBuf::from);
        let bin = target.join("release").join("hetmix");
        if !bin.is_file() {
            return Err(io::Error::other(format!(
                "hetmix was built but is not at {}",
                bin.display()
            )));
        }
        Ok(Hetmix { harness, bin })
    }

    fn command(&self, args: &[&str]) -> io::Result<Command> {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .env("ISPN_FAST", "1")
            .stdin(Stdio::null())
            .stderr(self.harness.stderr_file("hetmix-stderr.txt")?);
        Ok(cmd)
    }

    /// Run the sweep once in the given execution mode and judge its table.
    fn sweep(&self, args: &[&str], timeout: Duration, ops: &mut Ops) -> io::Result<Option<f64>> {
        let done = run_timed(&mut self.command(args)?, timeout)?;
        let what = format!("hetmix {}", args.join(" "));
        let verdict = exited_cleanly(&what, &done)
            .and_then(|()| self.harness.goldens.check(NAME, &done.stdout));
        Ok(ops.record(verdict).then_some(done.wall_s))
    }

    /// Start and stop one cold worker: spawn → hello → (stdin at end of
    /// file) → exit.
    fn cold_worker(&self, ops: &mut Ops) -> io::Result<Option<f64>> {
        let done: Finished = run_timed(&mut self.command(&["--sweep-worker"])?, FIRST_TIMEOUT)?;
        let verdict = exited_cleanly("cold worker", &done).and_then(|()| {
            if done.stdout.starts_with(b"{\"hello\":") {
                Ok(())
            } else {
                Err("cold worker: no hello frame on stdout".to_string())
            }
        });
        Ok(ops.record(verdict).then_some(done.wall_s))
    }

    fn listen(&self) -> io::Result<Listener> {
        let mut child = self
            .command(&["--serve", "127.0.0.1:0"])?
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner.trim_end().strip_prefix(LISTENING_BANNER);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Listener {
                addr: addr.to_string(),
                child,
                _stdout: stdout,
            }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                read?;
                Err(io::Error::other(format!(
                    "hetmix --serve printed {banner:?} instead of its listening banner"
                )))
            }
        }
    }

    /// One piped sweep and one reference child under the generous
    /// first-invocation timeout: they warm the page cache and calibrate
    /// the timeout of the invocations that follow, which this returns.
    fn calibrate(&self, ops: &mut Ops) -> io::Result<Duration> {
        let first = self.sweep(&PIPES, FIRST_TIMEOUT, ops)?;
        let reference = self.harness.reference_rep(FIRST_TIMEOUT, ops)?;
        Ok(rep_timeout(
            first.unwrap_or(0.0).max(reference.unwrap_or(0.0)),
        ))
    }

    /// Closed loop of piped reps for `seconds`, in batches of
    /// [`BATCH`] with [`COLD_PER_BATCH`] cold-worker samples before each
    /// (spread over the whole pass so a brief disturbance cannot sit on
    /// all of them).  A single rep is bimodal — it ends on one side or
    /// the other of the bin's 50 ms worker-shutdown poll, 100 ms or
    /// 122 ms, in shares that drift — so a statistic over single reps flips
    /// between the two modes.  Each batch whose reps all passed therefore
    /// yields two samples: its fastest rep (the lower mode, whatever the
    /// shares) and its mean (what a user waits on average).
    fn rep_loop(&self, seconds: f64, timeout: Duration, ops: &mut Ops) -> io::Result<Samples> {
        let mut samples = Samples::default();
        let mut batches = 0;
        let start = now();
        while batches < MIN_REPS || secs_since(start) < seconds {
            batches += 1;
            for _ in 0..COLD_PER_BATCH {
                samples.cold.extend(self.cold_worker(ops)?);
            }
            let reference = self.harness.reference_rep(timeout, ops)?;
            let cpu_before = children_cpu_s()?;
            let mut batch = Vec::with_capacity(BATCH);
            for _ in 0..BATCH {
                batch.extend(self.sweep(&PIPES, timeout, ops)?);
            }
            if let (true, Some(reference)) = (batch.len() == BATCH, reference) {
                samples.reference.push(reference);
                samples
                    .fastest
                    .push(batch.iter().copied().fold(f64::INFINITY, f64::min));
                samples.wall.push(batch.iter().sum::<f64>() / BATCH as f64);
                samples
                    .cpu
                    .push((children_cpu_s()? - cpu_before) / BATCH as f64);
            }
        }
        Ok(samples)
    }
}

/// What a rep loop measured: per batch, the fastest rep's wall time, mean
/// wall and CPU seconds per rep and the wall time of the reference child
/// run right before it; and the cold-worker start/stop times.
#[derive(Default)]
struct Samples {
    fastest: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    reference: Vec<f64>,
    cold: Vec<f64>,
}

/// The end-to-end metrics, tracing off.
pub fn end_to_end(harness: &Harness, seconds: f64) -> io::Result<Outcome> {
    let hetmix = Hetmix::build(harness)?;
    let mut out = Outcome::default();
    let ops = &mut out.ops;

    for _ in 0..COLD_DISCARDED {
        hetmix.cold_worker(ops)?;
    }

    // Peak RSS: a listener that served the whole sweep once over TCP
    // (the median of a few, since thread timing moves it by some pages).
    let mut rss = Vec::new();
    for _ in 0..RSS_LISTENERS {
        let listener = hetmix.listen()?;
        let host = format!("{}=1", listener.addr);
        hetmix.sweep(&["--hosts", &host], FIRST_TIMEOUT, ops)?;
        rss.push(vm_hwm_bytes(&listener.child.id().to_string())? as f64);
    }

    let timeout = hetmix.calibrate(ops)?;
    let Samples {
        fastest,
        wall,
        cold,
        reference,
        ..
    } = hetmix.rep_loop(seconds, timeout, ops)?;

    let m = &mut out.metrics;
    m.insert("setup_s".into(), low_decile(&cold));
    m.insert("wall_vs_ref".into(), median_ratio(&fastest, &reference));
    m.insert("peak_rss_bytes".into(), median(&rss));
    out.notes.push(timing_note("wall (fastest of 8)", &fastest));
    out.notes.push(timing_note("wall (mean of 8)", &wall));
    out.notes.push(timing_note("set-up", &cold));
    out.notes.push(timing_note("reference child", &reference));
    Ok(out)
}

/// Pin the current piped sweep's table as the golden.
pub fn bless(harness: &Harness) -> io::Result<()> {
    let hetmix = Hetmix::build(harness)?;
    let done = run_timed(&mut hetmix.command(&PIPES)?, FIRST_TIMEOUT)?;
    exited_cleanly("hetmix over pipes", &done).map_err(io::Error::other)?;
    harness.goldens.bless(NAME, &done.stdout)?;
    Ok(())
}

/// The traced pass: the sweep layer measured through the bin's own
/// telemetry and through its two other execution modes.
pub fn traced(harness: &Harness, seconds: f64) -> io::Result<Outcome> {
    let hetmix = Hetmix::build(harness)?;
    let mut out = Outcome::default();
    let ops = &mut out.ops;
    let started = now();
    let mut spans = Vec::new();
    let mut span = |name: &str, start: Duration| {
        spans.push(obj([
            ("name", text(name)),
            ("start_s", num(start.saturating_sub(started).as_secs_f64())),
            ("end_s", num(secs_since(started))),
        ]));
    };

    let timeout = hetmix.calibrate(ops)?;

    let at = now();
    let Samples {
        wall,
        cpu,
        reference,
        ..
    } = hetmix.rep_loop(seconds / 3.0, timeout, ops)?;
    span("pipes", at);

    // The bin's own per-point telemetry: wall time inside the workers and
    // the round-trip overhead around it.
    let at = now();
    let telemetry_path = harness.out_path("sweep-telemetry.json");
    let flag = format!("--telemetry={}", telemetry_path.display());
    let (mut points, mut point_wall, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TELEMETRY_REPS {
        if hetmix
            .sweep(&[PIPES[0], PIPES[1], &flag], timeout, ops)?
            .is_none()
        {
            continue;
        }
        let doc = std::fs::read_to_string(&telemetry_path)?;
        let doc = JsonValue::parse(doc.trim()).map_err(io::Error::other)?;
        let field = |key| doc.field(key).and_then(JsonValue::as_f64);
        points.push(field("points").map_err(io::Error::other)?);
        point_wall.push(field("mean_wall_s").map_err(io::Error::other)?);
        overhead.push(field("mean_overhead_s").map_err(io::Error::other)?);
    }
    span("pipes.telemetry", at);

    // The same sweep through the layer's two other transports.
    let at = now();
    let mut threads = Vec::new();
    for _ in 0..MODE_REPS {
        threads.extend(hetmix.sweep(&[], timeout, ops)?);
    }
    span("threads", at);

    let at = now();
    let mut tcp = Vec::new();
    {
        let (a, b) = (hetmix.listen()?, hetmix.listen()?);
        let hosts = format!("{}=1,{}=1", a.addr, b.addr);
        // One discarded sweep warms both listeners.
        hetmix.sweep(&["--hosts", &hosts], timeout, ops)?;
        for _ in 0..MODE_REPS {
            tcp.extend(hetmix.sweep(&["--hosts", &hosts], timeout, ops)?);
        }
    }
    span("tcp", at);

    // Wire decode cost on a frame the sweep really carries: one point's
    // result as the worker encodes it.
    let at = now();
    let cfg = PaperConfig {
        duration: SimTime::from_secs(20),
        ..PaperConfig::paper()
    };
    let frame = ispn_experiments::hetmix::run_point(&cfg, DisciplineSpec::Fifo, 1).to_wire_json();
    let parse_ns_per_byte = crate::layers::json_parse_ns_per_byte(&frame, 0.5);
    span("scenario.wire", at);

    let m = &mut out.metrics;
    m.insert("scenario.sweep.points".into(), median(&points));
    m.insert("scenario.sweep.point_wall_s".into(), median(&point_wall));
    m.insert(
        "scenario.sweep.overhead_s_per_point".into(),
        median(&overhead),
    );
    m.insert("scenario.sweep.threads_wall_s".into(), median(&threads));
    m.insert("scenario.sweep.tcp_wall_s".into(), median(&tcp));
    m.insert("scenario.wire.parse_ns_per_byte".into(), parse_ns_per_byte);
    m.insert("bench.reps".into(), (wall.len() * BATCH) as f64);
    m.insert("bench.wall_p10_s".into(), low_decile(&wall));
    m.insert("bench.wall_median_s".into(), median(&wall));
    m.insert("bench.ref_s".into(), median(&reference));
    m.insert("bench.wall_iqr_rel".into(), iqr_rel(&wall));
    m.insert("bench.wall_tail_s".into(), tail(&wall).1);
    m.insert("bench.cpu_s".into(), quiet_quarter_mean(&wall, &cpu));
    out.notes.push(timing_note("wall (pipes)", &wall));
    out.notes.push(timing_note("wall (threads)", &threads));
    out.notes.push(timing_note("wall (tcp)", &tcp));

    let doc = obj([
        ("workload", text(Workload::SweepPipes.name())),
        ("spans", JsonValue::Array(spans)),
        (
            "metrics",
            JsonValue::Object(
                out.metrics
                    .iter()
                    .map(|(name, value)| (name.clone(), num(*value)))
                    .collect(),
            ),
        ),
        ("operations", int(out.ops.attempted)),
    ]);
    crate::layers::write_trace(&harness.out_path(&format!("trace-{NAME}.json")), &doc)?;
    Ok(out)
}
