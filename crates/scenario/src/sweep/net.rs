//! `sweep::net` — multi-machine sweeps: the worker protocol over TCP.
//!
//! The line-framed JSON protocol of [`wire`](super::wire) was built
//! transport-agnostic; this module puts it on sockets.  Two pieces:
//!
//! * **Listener mode** ([`serve_listener`]): every experiment bin gains a
//!   `--serve ADDR` flag that binds a TCP listener and runs the same
//!   serve loop as `--sweep-worker` over each accepted connection — one
//!   session per connection, each starting with the hello handshake (and
//!   the same protocol/point-count skew refusal).  Sessions are served
//!   concurrently, so one listener process can back several supervisor
//!   slots.  On startup the listener prints a discovery banner
//!   ([`LISTENING_BANNER`] + the bound address) to stdout — binding port
//!   0 and reading the banner is how tests and scripts obtain the
//!   ephemeral port.
//! * **Client transport** ([`SocketTransport`], selected through
//!   [`DistRunner::over_hosts`](super::dist::DistRunner::over_hosts) with
//!   a [`HostSpec`] list): each supervisor slot connects to its host and
//!   drives the session through the
//!   [`WorkerTransport`](super::dist::WorkerTransport) seam.  Connection
//!   loss maps onto the existing supervision semantics — the in-flight
//!   point is poisoned and the slot *reconnects as its respawn*; a host
//!   that keeps refusing connections trips the same 3-strike fatal-slot
//!   rule as an unspawnable subprocess command.
//!
//! # Security
//!
//! The protocol is **unauthenticated and unencrypted**: anyone who can
//! reach the listener's port can submit point requests (and a malicious
//! "parent" controls which points run, though not what they compute —
//! the scenario set is the listener's own).  Bind listeners to loopback
//! or trusted-network interfaces only; for anything else, tunnel the
//! connection (e.g. ssh port forwarding).

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use super::dist::{recv_channel_line, spawn_line_reader, Await, WorkerTransport};
use super::wire::WireResult;
use super::worker::{self, SessionInfo};
use super::ScenarioSet;

/// The stdout prefix a [`serve_listener`] prints once its socket is
/// bound, followed by the actual local address.  Scripts and tests that
/// start listeners on port 0 parse this line to learn the ephemeral
/// port.
pub const LISTENING_BANNER: &str = "ispn sweep worker listening on ";

/// The most connections one [`HostSpec`] may ask for: one client address
/// cannot hold more than 65 535 to a single `host:port`, and every allowed
/// connection costs a supervisor slot before the point count is known.
const MAX_HOST_LIMIT: usize = 65_535;

/// One worker host a sweep may connect to: an address and how many
/// concurrent connections (= supervisor slots) it contributes.
///
/// The list syntax accepted by [`HostSpec::parse_list`] (and the bins'
/// `--hosts` flag) is comma-separated `host:port=limit` entries, the
/// `=limit` defaulting to 1: `"hostA:7600=4,hostB:7600=8"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    /// The listener's address, as given (`host:port`; resolved at connect
    /// time).
    pub addr: String,
    /// Maximum concurrent connections to open against this host (1 to
    /// 65 535).
    pub limit: usize,
}

impl HostSpec {
    /// A host contributing up to `limit` connections (clamped to
    /// 1 ..= 65 535).
    pub fn new(addr: impl Into<String>, limit: usize) -> Self {
        HostSpec {
            addr: addr.into(),
            limit: limit.clamp(1, MAX_HOST_LIMIT),
        }
    }

    /// Parse one `host:port[=limit]` entry.
    pub fn parse(spec: &str) -> Result<HostSpec, String> {
        let (addr, limit) = match spec.rsplit_once('=') {
            None => (spec, 1),
            Some((addr, limit)) => (
                addr,
                limit
                    .parse::<usize>()
                    .map_err(|e| format!("bad connection limit {limit:?} in {spec:?}: {e}"))?,
            ),
        };
        if !(1..=MAX_HOST_LIMIT).contains(&limit) {
            return Err(format!(
                "connection limit in {spec:?} must be 1 to {MAX_HOST_LIMIT}"
            ));
        }
        // A loose shape check only — names resolve at connect time.
        let (host, port) = addr
            .rsplit_once(':')
            .ok_or_else(|| format!("host entry {spec:?} is not host:port[=limit]"))?;
        if host.is_empty() || port.is_empty() {
            return Err(format!("host entry {spec:?} is not host:port[=limit]"));
        }
        Ok(HostSpec {
            addr: addr.to_string(),
            limit,
        })
    }

    /// Parse a comma-separated host list (the `--hosts` flag's value).
    pub fn parse_list(list: &str) -> Result<Vec<HostSpec>, String> {
        let hosts: Vec<HostSpec> = list
            .split(',')
            .filter(|entry| !entry.trim().is_empty())
            .map(|entry| HostSpec::parse(entry.trim()))
            .collect::<Result<_, _>>()?;
        if hosts.is_empty() {
            return Err("host list names no hosts".to_string());
        }
        Ok(hosts)
    }
}

/// Expand a host list into one connection address per supervisor slot,
/// round-robin across hosts (respecting each host's limit) so load
/// spreads evenly instead of saturating the first host before touching
/// the second.
pub fn slot_addrs(hosts: &[HostSpec]) -> Vec<String> {
    let mut out = Vec::new();
    let mut remaining: Vec<usize> = hosts.iter().map(|h| h.limit).collect();
    loop {
        let mut any = false;
        for (host, rem) in hosts.iter().zip(remaining.iter_mut()) {
            if *rem > 0 {
                *rem -= 1;
                out.push(host.addr.clone());
                any = true;
            }
        }
        if !any {
            return out;
        }
    }
}

/// The TCP flavor of [`WorkerTransport`]: a connected stream plus the
/// reader-thread channel over its receive half (so awaits can time out,
/// exactly like the subprocess transport).
pub(crate) struct SocketTransport {
    stream: TcpStream,
    lines: mpsc::Receiver<String>,
    peer: String,
}

impl SocketTransport {
    /// Connect to a listening worker, bounded by `timeout` (a dead host
    /// must cost one bounded connect, not an OS-default multi-minute
    /// stall).
    pub(crate) fn connect(addr: &str, timeout: Duration) -> Result<SocketTransport, String> {
        let resolved: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| format!("could not connect to worker host {addr}: {e}"))?
            .collect();
        let mut last_err = format!("could not connect to worker host {addr}: no addresses");
        for candidate in &resolved {
            match TcpStream::connect_timeout(candidate, timeout) {
                Ok(stream) => {
                    // Frames are small and latency-sensitive; never Nagle
                    // a point request.
                    let _ = stream.set_nodelay(true);
                    let reader = stream
                        .try_clone()
                        .map_err(|e| format!("could not clone stream to {addr}: {e}"))?;
                    return Ok(SocketTransport {
                        stream,
                        lines: spawn_line_reader(reader),
                        peer: addr.to_string(),
                    });
                }
                Err(e) => last_err = format!("could not connect to worker host {addr}: {e}"),
            }
        }
        Err(last_err)
    }
}

impl WorkerTransport for SocketTransport {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }

    fn recv_line(&mut self, deadline: Option<Duration>) -> Await {
        recv_channel_line(&self.lines, deadline)
    }

    fn terminate(&mut self) -> String {
        let _ = self.stream.shutdown(Shutdown::Both);
        format!("connection to {} dropped", self.peer)
    }

    fn finish(&mut self) -> String {
        format!("connection to {} closed by peer", self.peer)
    }

    fn shutdown(&mut self) {
        // Closing our send half makes the session's request reader see
        // EOF and end the session cleanly; the listener itself keeps
        // serving other parents.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Serve sweep points over TCP: bind `addr`, print the
/// [`LISTENING_BANNER`] discovery line, then accept connections forever,
/// running the same serve loop as
/// [`serve_worker`](super::worker::serve_worker) over each one (its own
/// hello handshake included).  Sessions run concurrently on scoped
/// threads; a session's I/O error is logged to stderr and ends only that
/// session.
///
/// This is what an experiment bin's `--serve ADDR` flag calls.  Bind to
/// `host:0` for an ephemeral port (the banner names the actual one).
/// The function only returns on bind failure — a listener serves until
/// killed.
pub fn serve_listener<P, R, F>(addr: &str, set: &ScenarioSet<P>, run_point: F) -> io::Result<()>
where
    P: Sync,
    R: WireResult,
    F: Fn(&P) -> R + Sync,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    // Stdout is not a report surface in listener mode, so the discovery
    // banner can own it (frames travel over the sockets).
    println!("{LISTENING_BANNER}{local}");
    io::stdout().flush()?;
    let me = worker::worker_id().unwrap_or(0);
    let sessions = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        loop {
            let (stream, peer) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) => {
                    eprintln!("sweep listener {local}: accept failed: {e}");
                    continue;
                }
            };
            // Sessions are numbered in accept order — the key FaultPlan's
            // hello faults select on.
            let session = sessions.fetch_add(1, Ordering::SeqCst);
            let run_point = &run_point;
            scope.spawn(move || {
                let _ = stream.set_nodelay(true);
                let reader = match stream.try_clone() {
                    Ok(reader) => reader,
                    Err(e) => {
                        eprintln!("sweep session {session} from {peer}: unusable stream: {e}");
                        return;
                    }
                };
                let info = SessionInfo {
                    worker: me,
                    session,
                };
                if let Err(e) =
                    worker::serve_connection(set, run_point, BufReader::new(reader), stream, info)
                {
                    eprintln!("sweep session {session} from {peer}: {e}");
                }
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_specs_parse_with_and_without_limits() {
        assert_eq!(
            HostSpec::parse("hostA:7600=4").unwrap(),
            HostSpec::new("hostA:7600", 4)
        );
        assert_eq!(
            HostSpec::parse("127.0.0.1:7600").unwrap(),
            HostSpec::new("127.0.0.1:7600", 1)
        );
        let list = HostSpec::parse_list("hostA:7600=2, hostB:7601=1").unwrap();
        assert_eq!(
            list,
            vec![
                HostSpec::new("hostA:7600", 2),
                HostSpec::new("hostB:7601", 1)
            ]
        );
    }

    #[test]
    fn bad_host_specs_are_rejected() {
        for bad in [
            "",
            "hostA",
            "hostA:7600=0",
            "hostA:7600=two",
            ":7600",
            "hostA:",
            "=4",
        ] {
            assert!(HostSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(HostSpec::parse_list("").is_err());
        assert!(HostSpec::parse_list(",,").is_err());
        assert!(HostSpec::parse_list("hostA:1=1,bogus").is_err());
    }

    #[test]
    fn slots_round_robin_across_hosts_up_to_their_limits() {
        let hosts = [
            HostSpec::new("a:1", 3),
            HostSpec::new("b:1", 1),
            HostSpec::new("c:1", 2),
        ];
        assert_eq!(
            slot_addrs(&hosts),
            vec!["a:1", "b:1", "c:1", "a:1", "c:1", "a:1"]
        );
        assert_eq!(slot_addrs(&[]), Vec::<String>::new());
    }

    #[test]
    fn new_clamps_zero_limits() {
        assert_eq!(HostSpec::new("a:1", 0).limit, 1);
    }

    #[test]
    fn a_limit_no_client_could_open_never_reaches_slot_expansion() {
        assert_eq!(HostSpec::new("a:1", usize::MAX).limit, MAX_HOST_LIMIT);
        assert_eq!(HostSpec::parse("h:7600=65535").unwrap().limit, 65_535);
        for spec in ["h:7600=65536", "h:7600=99999999999"] {
            let why = HostSpec::parse(spec).unwrap_err();
            assert!(why.contains("must be 1 to 65535"), "{why}");
            assert_eq!(HostSpec::parse_list(&format!("a:1=2,{spec}")), Err(why));
        }
    }
}
