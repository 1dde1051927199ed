//! Parent-side process control: run one command to completion as a timed
//! operation, and read CPU time and peak RSS from `/proc`.

use std::io::{self, Read};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

use crate::clock::now;

/// `/proc` reports process times in `USER_HZ` ticks, which the Linux ABI
/// fixes at 100 per second on every architecture.
const USER_HZ: f64 = 100.0;

/// How one command ended.
#[derive(Debug)]
pub struct Finished {
    /// Wall-clock reading taken just before the spawn.
    pub spawned_at: Duration,
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// Whether the process exited with status 0.
    pub success: bool,
    /// Whether the watchdog had to kill it.
    pub timed_out: bool,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
}

/// Spawn `cmd` with stdout captured, wait for it to exit, and time the
/// whole thing.  The caller decides where stdin and stderr go.
///
/// The calling thread blocks reading the child's stdout (end of file is
/// the exit notification: no polling, so nothing is added to the measured
/// wall time) while a watchdog thread sleeps until `timeout` and kills the
/// child if it is still running by then.
pub fn run_timed(cmd: &mut Command, timeout: Duration) -> io::Result<Finished> {
    cmd.stdout(Stdio::piped());
    let spawned_at = now();
    let mut child = cmd.spawn()?;
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let child = Mutex::new(child);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut stdout = Vec::new();
    let (read, status, end, timed_out) = std::thread::scope(|scope| {
        let child = &child;
        let watchdog = scope.spawn(move || {
            if done_rx.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout) {
                // The main thread only takes the lock after the pipe
                // closed, i.e. after the process is gone or killed.
                let _ = child.lock().expect("no thread panics holding it").kill();
                true
            } else {
                false
            }
        });
        let read = pipe.read_to_end(&mut stdout);
        let status = child.lock().expect("no thread panics holding it").wait();
        let end = now();
        let _ = done_tx.send(());
        let timed_out = watchdog.join().expect("the watchdog does not panic");
        (read, status, end, timed_out)
    });
    read?;
    Ok(Finished {
        spawned_at,
        wall_s: end.saturating_sub(spawned_at).as_secs_f64(),
        success: status?.success() && !timed_out,
        timed_out,
        stdout,
    })
}

/// User + system CPU seconds of every child this process has waited for,
/// and of their own waited-for descendants (`cutime + cstime` of
/// `/proc/self/stat`).
pub fn children_cpu_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may itself contain spaces and
    // parentheses; everything after its closing parenthesis is regular.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so cutime (16) and cstime (17) sit at
    // indices 13 and 14.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(13), tick(14)) {
        (Some(cutime), Some(cstime)) => Ok((cutime + cstime) / USER_HZ),
        _ => Err(io::Error::other("unexpected /proc/self/stat layout")),
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for the
/// caller), in bytes.
pub fn vm_hwm_bytes(pid: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_finished_command_reports_its_output_and_status() {
        let done = run_timed(
            Command::new("sh").args(["-c", "printf hello"]),
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(done.success && !done.timed_out);
        assert_eq!(done.stdout, b"hello");
        assert!(done.wall_s > 0.0);
        let failed = run_timed(
            Command::new("sh").args(["-c", "exit 3"]),
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(!failed.success && !failed.timed_out);
    }

    #[test]
    fn the_watchdog_kills_a_command_that_overruns() {
        let hung = run_timed(
            Command::new("sh").args(["-c", "exec sleep 60"]),
            Duration::from_millis(100),
        )
        .unwrap();
        assert!(hung.timed_out && !hung.success);
        assert!(hung.wall_s < 30.0);
    }

    #[test]
    fn proc_readers_parse_this_process() {
        assert!(children_cpu_s().unwrap() >= 0.0);
        assert!(vm_hwm_bytes("self").unwrap() > 0);
    }
}
