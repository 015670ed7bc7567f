//! The untraced, end-to-end run: repeated server set-up, then a fixed
//! number of closed-loop requests in batches, with the reference kernel
//! interleaved between batches while nothing is in flight.

use std::io;
use std::path::Path;
use std::time::Instant;

use rtserver::json::Json;

use crate::client::{Conn, Server};
use crate::gen::{Inputs, Request};
use crate::kernel::{HostTicks, Normalizer};

/// Server starts per run; `setup_s` is the median over them.
pub const SETUPS: usize = 15;

/// Request ids of set-up traffic start here, clear of the timed ids.
const SETUP_ID_BASE: u64 = 1 << 40;

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The `metrics` payload.
    pub metrics: Json,
    /// The `metrics_prom` text.
    pub prom: String,
}

impl Snapshot {
    /// Takes a snapshot over `conn`.
    ///
    /// # Errors
    ///
    /// Fails on I/O or a malformed reply.
    pub fn take(conn: &mut Conn) -> io::Result<Snapshot> {
        let metrics = conn.query(r#"{"cmd":"metrics"}"#)?;
        let metrics =
            metrics.get("metrics").cloned().ok_or_else(|| io::Error::other("no metrics"))?;
        let prom = conn.query(r#"{"cmd":"metrics_prom"}"#)?;
        let prom = prom.get("output").and_then(Json::as_str).unwrap_or("").to_string();
        Ok(Snapshot { metrics, prom })
    }

    /// A numeric field by path, e.g. `["stages", "analyze", "hits"]`.
    pub fn num(&self, path: &[&str]) -> f64 {
        let mut node = &self.metrics;
        for key in path {
            match node.get(key) {
                Some(next) => node = next,
                None => return 0.0,
            }
        }
        match node {
            Json::Num(n) => *n,
            _ => 0.0,
        }
    }

    /// A Prometheus sample value by exact series name.
    pub fn prom(&self, series: &str) -> f64 {
        self.prom
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| l.strip_prefix(series).and_then(|v| v.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }

    /// Analysis pool size the server reports.
    pub fn pool_threads(&self) -> usize {
        self.num(&["analysis_pool", "threads"]).max(1.0) as usize
    }
}

/// A started server with its set-up cost.
pub struct Started {
    /// The daemon.
    pub server: Server,
    /// Ops-plane connection (snapshots, journal).
    pub ops: Conn,
    /// Spawn → first `ping` reply → warm-up done, seconds.
    pub raw_s: f64,
    /// Steal share over the same interval.
    pub steal: f64,
}

/// Spawns a server, waits for its first `ping`, and sends the
/// workload's set-up requests (warm-up or priming) on one connection.
///
/// # Errors
///
/// Fails on spawn, transport or a failed set-up reply.
pub fn start(trisc: &Path, setup: &[Request]) -> io::Result<Started> {
    let ticks = HostTicks::read()?;
    let started = Instant::now();
    let server = Server::spawn(trisc)?;
    let mut ops = server.connect()?;
    ops.call(r#"{"cmd":"ping"}"#)?;
    for (i, request) in setup.iter().enumerate() {
        let frames = ops.call(&request.line(SETUP_ID_BASE + i as u64))?;
        if frames.iter().any(|f| f.contains(r#""ok":false"#)) {
            return Err(io::Error::other(format!("set-up request {i} failed: {}", frames[0])));
        }
    }
    let raw_s = started.elapsed().as_secs_f64();
    Ok(Started { server, ops, raw_s, steal: ticks.steal_share(HostTicks::read()?) })
}

/// Set-up timings of one run.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Raw seconds per start.
    pub raw_s: Vec<f64>,
    /// Kernel sample taken just before each start.
    pub interval: Vec<usize>,
    /// Steal share over each start.
    pub steal: Vec<f64>,
}

impl SetupTimes {
    /// Normalised seconds per start.
    pub fn norm_s(&self, norm: &Normalizer) -> Vec<f64> {
        (0..self.raw_s.len())
            .map(|k| self.raw_s[k] * norm.wall_factor(self.interval[k], self.steal[k]))
            .collect()
    }
}

/// Starts the server [`SETUPS`] times (kernel before and after each
/// start), keeping the last one running for the timed phase.
///
/// # Errors
///
/// Propagates [`start`] failures.
pub fn start_repeated(
    trisc: &Path,
    setup: &[Request],
    norm: &mut Normalizer,
) -> io::Result<(Started, SetupTimes)> {
    let mut times = SetupTimes::default();
    loop {
        let interval = norm.sample();
        let started = start(trisc, setup)?;
        times.raw_s.push(started.raw_s);
        times.interval.push(interval);
        times.steal.push(started.steal);
        if times.raw_s.len() == SETUPS {
            return Ok((started, times));
        }
        started.server.shutdown()?;
    }
}

/// A request's reply frames, or its transport error.
pub type Reply = Result<Vec<String>, String>;

/// One timed request's outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Reply frames, or the transport error.
    pub reply: Reply,
    /// Send → final frame, raw milliseconds.
    pub raw_ms: f64,
    /// Kernel sample taken just before the request's batch.
    pub interval: usize,
    /// Steal share over the request's batch.
    pub steal: f64,
}

/// One batch of the timed phase.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Batch wall time, raw seconds.
    pub wall_s: f64,
    /// Server CPU over the batch, raw milliseconds.
    pub cpu_ms: f64,
    /// Kernel sample taken just before the batch.
    pub interval: usize,
    /// Steal share over the batch.
    pub steal: f64,
}

/// The timed phase's measurements.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Per request, in stream order.
    pub outcomes: Vec<Outcome>,
    /// Per batch, in order.
    pub batches: Vec<Batch>,
}

impl Timed {
    /// `(raw, normalised)` latencies in milliseconds, each sorted.
    pub fn latencies(&self, norm: &Normalizer) -> (Vec<f64>, Vec<f64>) {
        let mut raw: Vec<f64> = self.outcomes.iter().map(|o| o.raw_ms).collect();
        let mut scaled: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.raw_ms * norm.wall_factor(o.interval, o.steal))
            .collect();
        raw.sort_by(f64::total_cmp);
        scaled.sort_by(f64::total_cmp);
        (raw, scaled)
    }

    /// `(raw, normalised)` total timed wall, seconds (kernel gaps excluded).
    pub fn wall_s(&self, norm: &Normalizer) -> (f64, f64) {
        let raw = self.batches.iter().map(|b| b.wall_s).sum();
        (raw, self.batches.iter().map(|b| b.wall_s * norm.wall_factor(b.interval, b.steal)).sum())
    }

    /// `(raw, normalised)` server CPU over the timed batches, milliseconds.
    pub fn cpu_ms(&self, norm: &Normalizer) -> (f64, f64) {
        let raw = self.batches.iter().map(|b| b.cpu_ms).sum();
        (raw, self.batches.iter().map(|b| b.cpu_ms * norm.factor(b.interval)).sum())
    }
}

/// Runs `requests` closed-loop over `conns` (request `i` on connection
/// `i mod conns.len()`), `batch` requests at a time, sampling the kernel
/// before every batch and once after the last. Request `i` carries id
/// `i`.
///
/// # Errors
///
/// Fails only if the server's or the host's `/proc` counters become
/// unreadable;
/// transport failures are recorded per request.
pub fn run_timed(
    server: &Server,
    conns: &mut [Conn],
    requests: &[Request],
    batch: usize,
    norm: &mut Normalizer,
) -> io::Result<Timed> {
    let mut timed = Timed::default();
    for (b, chunk) in requests.chunks(batch).enumerate() {
        // Encode off the clock; frames of a batch are built just in time
        // so large streams never sit in memory at once.
        let first = b * batch;
        let lines: Vec<String> =
            chunk.iter().enumerate().map(|(k, r)| r.line((first + k) as u64)).collect();
        let interval = norm.sample();
        let ticks = HostTicks::read()?;
        let cpu0 = server.cpu_ms()?;
        let wall = Instant::now();
        let mut results: Vec<Option<(Reply, f64)>> = vec![None; chunk.len()];
        let nconn = conns.len();
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let lines = &lines;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for k in (c..lines.len()).step_by(nconn) {
                            let sent = Instant::now();
                            let reply = conn.call(&lines[k]).map_err(|e| e.to_string());
                            mine.push((k, reply, sent.elapsed().as_secs_f64() * 1e3));
                        }
                        mine
                    })
                })
                .collect();
            for handle in handles {
                for (k, reply, ms) in handle.join().expect("client connection thread panicked") {
                    results[k] = Some((reply, ms));
                }
            }
        });
        let wall_s = wall.elapsed().as_secs_f64();
        let cpu_ms = server.cpu_ms()? - cpu0;
        let steal = ticks.steal_share(HostTicks::read()?);
        timed.batches.push(Batch { wall_s, cpu_ms, interval, steal });
        for result in results {
            let (reply, raw_ms) = result.expect("every request of the batch ran");
            timed.outcomes.push(Outcome { reply, raw_ms, interval, steal });
        }
    }
    norm.sample();
    Ok(timed)
}

/// Everything one untraced run measured.
pub struct Measured {
    /// Set-up times.
    pub setup: SetupTimes,
    /// Timed-phase measurements.
    pub timed: Timed,
    /// Counters after set-up and after the timed phase.
    pub before: Snapshot,
    /// See `before`.
    pub after: Snapshot,
    /// Server `VmHWM` after the fixed work, MiB.
    pub peak_rss_mb: f64,
    /// The kernel samples.
    pub kernel: Normalizer,
}

/// The untraced run: [`SETUPS`] starts, phase snapshots, the timed
/// stream on `connections` connections, peak RSS, clean shutdown.
///
/// # Errors
///
/// Fails on set-up, snapshot or shutdown failures.
pub fn measure(
    trisc: &Path,
    inputs: &Inputs,
    connections: usize,
    batch: usize,
    kernel_width: usize,
) -> io::Result<Measured> {
    let mut norm = Normalizer::new(kernel_width);
    let (mut started, setup) = start_repeated(trisc, &inputs.setup, &mut norm)?;
    let before = Snapshot::take(&mut started.ops)?;
    let mut conns =
        (0..connections).map(|_| started.server.connect()).collect::<io::Result<Vec<_>>>()?;
    let timed = run_timed(&started.server, &mut conns, &inputs.timed, batch, &mut norm)?;
    let after = Snapshot::take(&mut started.ops)?;
    let peak_rss_mb = started.server.peak_rss_mb()?;
    drop(conns);
    drop(started.ops);
    started.server.shutdown()?;
    Ok(Measured { setup, timed, before, after, peak_rss_mb, kernel: norm })
}
