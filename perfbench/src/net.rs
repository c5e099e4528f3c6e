//! The client side: daemon processes, one-shot HTTP exchanges over real
//! TCP, and the closed-loop load generator.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::util::us_since;

/// Connection and daemon worker threads: one per core of the 2-core
/// machine the benchmark was sized on.
pub const CONNECTIONS: usize = 2;
pub const DAEMON_THREADS: usize = 2;
/// Socket patience; a stalled exchange fails instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a child's peak resident set is read.
const RSS_POLL: Duration = Duration::from_millis(5);

/// How a child process ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// Peak resident set (`VmHWM`) in MiB.
    pub peak_rss_mb: f64,
}

/// A child's peak resident set, read from the `VmHWM` line of
/// `/proc/<pid>/status` every `RSS_POLL` while the child runs. `wait4`'s
/// `ru_maxrss` will not do: on Linux a child keeps the peak of the process
/// that spawned it across `exec`, so it would report this benchmark's own
/// memory whenever that is the larger.
pub struct PeakRss(JoinHandle<f64>);

impl PeakRss {
    pub fn watch(child: &Child) -> PeakRss {
        let path = format!("/proc/{}/status", child.id());
        PeakRss(std::thread::spawn(move || {
            // An exited child has no `VmHWM` line any more (or no file).
            let mut peak_kib = 0u64;
            while let Some(kib) = vm_hwm_kib(&path) {
                peak_kib = peak_kib.max(kib);
                std::thread::sleep(RSS_POLL);
            }
            peak_kib as f64 / 1024.0
        }))
    }
}

fn vm_hwm_kib(status_path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Waits for `child` to exit, then for `peak` to take its last reading.
pub fn reap(mut child: Child, peak: PeakRss) -> std::io::Result<Exit> {
    let status = child.wait()?;
    Ok(Exit {
        success: status.success(),
        peak_rss_mb: peak.0.join().unwrap_or(0.0),
    })
}

/// A running `repro corpus serve` daemon on a store directory.
pub struct Daemon {
    child: Option<(Child, PeakRss)>,
    stdout: Option<JoinHandle<String>>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on port 0 and returns once its startup line
    /// names the bound address, with the instant the spawn began.
    pub fn spawn(repro: &Path, store: &Path) -> Result<(Daemon, Instant), String> {
        let spawned = Instant::now();
        let mut child = Command::new(repro)
            .arg("corpus")
            .arg("serve")
            .arg(store)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--threads", &DAEMON_THREADS.to_string()])
            .args(["--merge-threads", &DAEMON_THREADS.to_string()])
            // Merges happen only when the client asks, so every run of a
            // workload performs the same merges.
            .args(["--merge-interval-ms", "3600000"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", repro.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = out.read_line(&mut line);
        let addr = line
            .split_once("at http://")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let peak = PeakRss::watch(&child);
        let mut daemon = Daemon {
            child: Some((child, peak)),
            stdout: None,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                daemon.stdout = Some(drain(out));
                Ok((daemon, spawned))
            }
            _ => Err(format!("daemon did not report its address: {line:?}")),
        }
    }

    /// `POST /shutdown`, then waits for the drain and the final merge.
    pub fn shutdown(mut self) -> Result<Exit, String> {
        let request = request_bytes("POST", "/shutdown", b"");
        let sent = exchange(self.addr, &request);
        let (child, peak) = self.child.take().expect("daemon not yet reaped");
        if let Err(e) = &sent {
            let _ = kill(child);
            return Err(format!("POST /shutdown failed: {e}"));
        }
        let exit = reap(child, peak).map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
        if !exit.success {
            return Err("daemon exited with a failure status".into());
        }
        Ok(exit)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some((child, _)) = self.child.take() {
            let _ = kill(child);
        }
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
    }
}

/// Kills and reaps a child.
fn kill(mut child: Child) -> std::io::Result<()> {
    child.kill()?;
    child.wait().map(drop)
}

/// Reads a child's remaining stdout so its final prints never block.
fn drain(mut out: BufReader<ChildStdout>) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = out.read_to_string(&mut rest);
        rest
    })
}

/// One HTTP/1.1 request with `Content-Length` framing.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A parsed response.
#[derive(Debug, Default)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Time `connect` took, µs.
    pub connect_us: f64,
}

/// Connects, sends `request`, and reads the response to EOF (the daemon
/// closes every connection after answering).
pub fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect_us = us_since(start);
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(request)?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response has no header terminator"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
        connect_us,
    })
}

/// What the load generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Knn,
    Radius,
    Ingest,
    Merge,
    Stats,
    Metrics,
}

/// One completed exchange.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Client-side latency from the start of `connect` to the last
    /// response byte, µs.
    pub us: f64,
    pub connect_us: f64,
    pub ok: bool,
}

/// A closed-loop phase's samples and wall time.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

impl LoopResult {
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind && s.ok)
            .map(|s| s.us)
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

/// Drives `CONNECTIONS` closed-loop clients: each sends operation `i`
/// (numbered across clients from a shared counter), waits for the reply,
/// checks it, and takes the next, until `duration` has passed or `limit`
/// operations were issued. `make(i)` builds the request outside the timed
/// interval; `check(i, kind, reply)` judges it afterwards.
pub fn closed_loop<M, C>(
    addr: SocketAddr,
    duration: Duration,
    limit: Option<usize>,
    make: M,
    check: C,
) -> LoopResult
where
    M: Fn(usize) -> (Kind, Vec<u8>) + Sync,
    C: Fn(usize, Kind, &Reply) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let all = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while start.elapsed() < duration {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if limit.is_some_and(|n| i >= n) {
                        break;
                    }
                    let (kind, request) = make(i);
                    let t = Instant::now();
                    let reply = exchange(addr, &request);
                    let us = us_since(t);
                    let (ok, connect_us) = match &reply {
                        Ok(r) => (check(i, kind, r), r.connect_us),
                        Err(_) => (false, 0.0),
                    };
                    mine.push(Sample {
                        kind,
                        us,
                        connect_us,
                        ok,
                    });
                }
                all.lock().expect("sample lock").extend(mine);
            });
        }
    });
    LoopResult {
        samples: all.into_inner().expect("sample lock"),
        wall_s: start.elapsed().as_secs_f64(),
    }
}
