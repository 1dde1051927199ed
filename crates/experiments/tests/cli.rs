//! The sweep bins' command line, driven through the real binaries: what
//! `cli::main` promises about stdout, telemetry, worker mode and exit
//! codes must hold for every one of the six, each in its `ISPN_FAST=1`
//! configuration.  Between them their rows exercise every wire codec.

use std::process::{Command, Output, Stdio};

/// The six sweep bins.
const BINS: [&str; 6] = [
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_table2"),
    env!("CARGO_BIN_EXE_table3"),
    env!("CARGO_BIN_EXE_hetmix"),
    env!("CARGO_BIN_EXE_mesh"),
    env!("CARGO_BIN_EXE_churn"),
];

/// Run `bin` in its short configuration plus `flags`, stdin closed.
/// `--seeds 2` makes `table3` the seed sweep (one seed is a plain
/// in-process table that never reaches `cli::main`); the rest ignore it.
fn run(bin: &str, flags: &[&str]) -> Output {
    Command::new(bin)
        .args(["--seeds", "2"])
        .env("ISPN_FAST", "1")
        .args(flags)
        .stdin(Stdio::null())
        .output()
        .expect("spawn sweep bin")
}

/// The table a successful run prints.
fn table(bin: &str, flags: &[&str]) -> String {
    let out = run(bin, flags);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} {flags:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("tables are UTF-8")
}

#[test]
fn stdout_is_byte_identical_in_every_mode() {
    for bin in BINS {
        let batch = table(bin, &[]);
        assert!(batch.lines().count() > 3, "a table was printed: {batch:?}");
        assert_eq!(table(bin, &["--stream"]), batch, "--stream");
        assert_eq!(table(bin, &["--workers", "2"]), batch, "--workers 2");
    }
}

/// The point count a parent run announces on stderr before its sweep
/// (`running N sweep points on …`).
fn announced_points(stderr: &str) -> usize {
    stderr
        .lines()
        .find_map(|line| {
            let (n, _) = line
                .strip_prefix("running ")?
                .split_once(" sweep points on ")?;
            n.parse().ok()
        })
        .unwrap_or_else(|| panic!("no `running N sweep points` banner: {stderr}"))
}

/// The `k` and `N` of a `[k/N] tags done…` progress line, or `None` for a
/// line that is not one.
fn progress_line(line: &str) -> Option<(usize, usize)> {
    let (count, rest) = line.strip_prefix('[')?.split_once("] ")?;
    let (k, n) = count.split_once('/')?;
    assert!(rest.contains(" done"), "not a completion line: {line:?}");
    Some((k.parse().ok()?, n.parse().ok()?))
}

/// The side channels leave the table alone and count every point once:
/// with threads and with worker processes, `--stream` prints one
/// completion line per point, each count `k` once (completion order is
/// free), and the `--telemetry=FILE` summary counts every point — with a
/// measured round trip per point under worker processes and none under
/// threads.
#[test]
fn telemetry_file_leaves_stdout_alone_and_holds_the_summary() {
    for (i, bin) in BINS.into_iter().enumerate() {
        let batch = table(bin, &[]);
        for (mode, workers) in [("threads", &[][..]), ("workers", &["--workers", "2"][..])] {
            let file = std::env::temp_dir()
                .join(format!("ispn-cli-{}-{i}-{mode}.json", std::process::id()));
            let flag = format!("--telemetry={}", file.display());
            let out = run(bin, &[workers, &["--stream", &flag]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{bin} {mode} failed: {stderr}");
            assert_eq!(String::from_utf8_lossy(&out.stdout), batch, "{bin} {mode}");
            let n = announced_points(&stderr);
            let mut done: Vec<usize> = stderr
                .lines()
                .filter_map(progress_line)
                .map(|(k, total)| {
                    assert_eq!(total, n, "{bin} {mode}: {stderr}");
                    k
                })
                .collect();
            done.sort_unstable();
            assert_eq!(done, (1..=n).collect::<Vec<_>>(), "{bin} {mode}: {stderr}");
            let json = std::fs::read_to_string(&file).expect("telemetry file was written");
            let _ = std::fs::remove_file(&file);
            let rtt = if workers.is_empty() { 0 } else { n };
            assert!(
                json.contains(&format!("\"points\":{n},")),
                "{bin} {mode}: {json}"
            );
            assert!(
                json.contains(&format!("\"rtt_points\":{rtt},")),
                "{bin} {mode}: {json}"
            );
        }
    }
}

/// Table 1 and Table 3 append a representative run's footprint to the
/// `--telemetry=FILE` summary, as `churn` does: a `run` block whose delay
/// samples took bytes.
#[test]
fn table_bins_write_a_run_block_with_their_sample_bytes() {
    for bin in [env!("CARGO_BIN_EXE_table1"), env!("CARGO_BIN_EXE_table3")] {
        let file = std::env::temp_dir().join(format!("ispn-cli-run-{}.json", std::process::id()));
        let flag = format!("--telemetry={}", file.display());
        let out = run(bin, &[&flag]);
        assert!(
            out.status.success(),
            "{bin}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&file).expect("telemetry file was written");
        let _ = std::fs::remove_file(&file);
        let (_, run) = json.split_once("\"run\":{").expect("a run block");
        let bytes = run
            .split_once("\"delay_sample_bytes\":")
            .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse::<u64>().ok());
        assert!(bytes.is_some_and(|b| b > 0), "{bin}: {json}");
    }
}

#[test]
fn a_worker_with_no_requests_says_hello_and_exits_cleanly() {
    for bin in BINS {
        let out = run(bin, &["--sweep-worker"]);
        assert!(out.status.success(), "{:?}", out.status);
        let stdout = String::from_utf8(out.stdout).expect("frames are UTF-8");
        assert_eq!(stdout.lines().count(), 1, "exactly one frame: {stdout:?}");
        assert!(
            stdout.starts_with("{\"hello\":{\"protocol\":"),
            "{stdout:?}"
        );
    }
}

#[test]
fn conflicting_dispatch_flags_exit_2_without_a_table() {
    for bin in BINS {
        let out = run(bin, &["--workers", "2", "--hosts", "x:1"]);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty(), "no table on a usage error");
    }
}

/// A seed count too large to build is a usage error: `table3` used to
/// build the seed list before any check and die in the allocation
/// ("capacity overflow", exit 101, at this count).
#[test]
fn an_oversized_seed_count_exits_2_without_a_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_table3"))
        .args(["--seeds", &u64::MAX.to_string()])
        .env("ISPN_FAST", "1")
        .stdin(Stdio::null())
        .output()
        .expect("spawn table3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "no table on a usage error");
}
