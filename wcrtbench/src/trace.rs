//! The traced run: per-layer metrics.
//!
//! 1. **Replay.** The workload's generated inputs are replayed in process
//!    on a one-thread rtpar pool (at more threads the layers' times are
//!    inclusive and summed across helpers). The replay parses each frame
//!    and runs [`check::compute`] — the reference path the reply check
//!    uses — under a recording tracer, which wraps each public call in a
//!    span. Probe calls after that path decompose the layers it hides:
//!    the ISS trace, the useful-block trace, WCET and packing of each
//!    freshly analysed program, uncached CRPD matrices, the WCRT fixpoint
//!    and the Eq. 7 explanation. Spans live in memory and are written out
//!    at the end.
//! 2. **Served pass.** The same requests go to a fresh `trisc serve` over
//!    one connection, so each reply pairs with its flight-journal record
//!    by order; `metrics` deltas give stage hit ratios and the pool
//!    gauges.
//!
//! Timings are normalised by the reference kernel and the steal share
//! exactly like the end-to-end run (one kernel thread for the replay, the
//! server's pool width for the served pass).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crpd::{
    analyze_all, explain_response_time, AnalyzedProgram, AnalyzedTask, CrpdApproach, CrpdCellCache,
    CrpdMatrix, UsefulTrace, WcrtParams,
};
use rtcache::PackedFootprint;
use rtcli::{CliError, SystemSpec};
use rtprogram::Program;
use rtserver::json::Json;
use rtserver::proto::Command;

use crate::check::{self, Failure, Store};
use crate::client::Conn;
use crate::gen::{Inputs, Workload};
use crate::kernel::{median, percentile, HostTicks, Normalizer};
use crate::served::{self, Reply, Snapshot};
use crate::{Metric, Report, Shape};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name (`<module>.<call>`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Replayed request index (`None` for set-up traffic).
    pub request: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct TraceState {
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: Option<usize>,
}

/// An in-memory span recorder with a parent stack (the replay runs on
/// one thread), or a no-op one ([`Tracer::off`]).
pub struct Tracer {
    origin: Instant,
    state: Option<Mutex<TraceState>>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), state: Some(Mutex::default()) }
    }

    /// A tracer that records nothing, for untimed in-process runs.
    pub fn off() -> Tracer {
        Tracer { origin: Instant::now(), state: None }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the current one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let Some(state) = &self.state else { return SpanGuard { tracer: self, index: None } };
        let start_ns = self.now_ns();
        let mut state = state.lock().expect("tracer lock");
        let index = state.spans.len();
        let parent = state.stack.last().copied();
        let request = state.request;
        state.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        state.stack.push(index);
        SpanGuard { tracer: self, index: Some(index) }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    fn set_request(&self, request: Option<usize>) {
        if let Some(state) = &self.state {
            state.lock().expect("tracer lock").request = request;
        }
    }

    fn into_spans(self) -> Vec<Span> {
        self.state.map(|s| s.into_inner().expect("tracer lock").spans).unwrap_or_default()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(state)) = (self.index, &self.tracer.state) else { return };
        let end = self.tracer.now_ns();
        if let Ok(mut state) = state.lock() {
            state.spans[index].end_ns = end;
            state.stack.pop();
        }
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children never overlap on the one replay thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.dur_ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Counts the replay accumulates over its timed requests.
#[derive(Debug, Default)]
struct Counts {
    instructions: u64,
    accesses: u64,
    footprint_lines: u64,
    skyline_kept: u64,
    skyline_candidates: u64,
    cells_computed: u64,
    wcrt_iterations: u64,
    front_size: u64,
}

fn wcrt_params(spec: &SystemSpec) -> WcrtParams {
    WcrtParams {
        miss_penalty: spec.cache.model().miss_penalty,
        ctx_switch: spec.ctx_switch,
        max_iterations: 10_000,
    }
}

/// Probe calls on the freshly analysed programs of a request: the ISS
/// trace, useful-block trace, WCET and union packing that `analyze`
/// runs internally, each timed on its own.
fn probe_programs(
    tracer: &Tracer,
    missed: &[(Arc<Program>, Arc<AnalyzedProgram>)],
    counts: &mut Counts,
) {
    for (program, analyzed) in missed {
        let geometry = analyzed.geometry();
        for variant in program.variants() {
            let Ok(trace) = tracer
                .time("rtprogram.iss_trace", || rtprogram::sim::trace_variant(program, variant))
            else {
                continue;
            };
            counts.instructions += trace.instructions;
            counts.accesses += trace.accesses.len() as u64;
            let useful =
                tracer.time("crpd.useful_trace", || UsefulTrace::from_trace(&trace, geometry));
            counts.skyline_kept += useful.skyline_kept().unwrap_or(0) as u64;
            counts.skyline_candidates += useful.skyline_candidates().unwrap_or(0) as u64;
        }
        let _ = tracer
            .time("rtwcet.wcet", || rtwcet::estimate_wcet(program, geometry, analyzed.model()));
        let _ = tracer.time("rtcache.pack", || PackedFootprint::from_ciip(analyzed.all_blocks()));
        counts.footprint_lines += analyzed.all_blocks().line_bound() as u64;
    }
}

/// Probe calls on a bound task set: uncached CRPD matrices (only for
/// requests that analysed something), the WCRT fixpoint and the Eq. 7
/// explanation of every task.
fn probe_tasks(
    tracer: &Tracer,
    tasks: &[AnalyzedTask],
    params: &WcrtParams,
    cells: &CrpdCellCache,
    cold: bool,
    counts: &mut Counts,
) {
    const MATRIX_SPANS: [&str; 4] =
        ["crpd.matrix_app1", "crpd.matrix_app2", "crpd.matrix_app3", "crpd.matrix_app4"];
    if cold {
        for (approach, name) in CrpdApproach::ALL.into_iter().zip(MATRIX_SPANS) {
            tracer.time(name, || CrpdMatrix::compute(approach, tasks));
        }
    }
    let matrix = CrpdMatrix::compute_with(CrpdApproach::Combined, tasks, cells);
    let results = tracer.time("crpd.wcrt_fixpoint", || analyze_all(tasks, &matrix, params));
    counts.wcrt_iterations += results.iter().map(|r| u64::from(r.iterations)).sum::<u64>();
    tracer.time("crpd.explain", || {
        for i in 0..tasks.len() {
            explain_response_time(tasks, &matrix, i, params);
        }
    });
}

/// Replays one request frame: the server's frame parse, then the
/// reference path, then the probes. Returns the reply frames the server
/// must send.
fn replay_one(
    tracer: &Tracer,
    store: &Store,
    line: &str,
    id: u64,
    counts: &mut Counts,
) -> Result<Vec<String>, CliError> {
    let _request = tracer.span("request");
    let request = tracer
        .time("rtserver.json_parse", || rtserver::proto::Request::parse(line))
        .map_err(|e| CliError::Spec(e.to_string()))?;
    let (payload, grid) = match &request.cmd {
        Command::Wcrt(payload) => (payload, None),
        Command::Explore { payload, grid } => (payload, Some(grid.as_str())),
        _ => return Err(CliError::Spec("the benchmark replays only wcrt and explore".into())),
    };
    let misses = store.cells.misses();
    let computed = check::compute(tracer, store, id, &payload.spec, &payload.sources, grid)?;
    counts.cells_computed += store.cells.misses() - misses;
    counts.front_size += computed.front_size;
    let _probe = tracer.span("probe");
    let missed = store.drain_missed();
    probe_programs(tracer, &missed, counts);
    // An explore reply binds no task set at the spec's own parameters;
    // bind one for the fixpoint and explanation probes.
    let tasks = if computed.tasks.is_empty() {
        let tasks = store.bind(tracer, &computed.spec, &computed.sources)?;
        store.drain_missed();
        tasks
    } else {
        computed.tasks
    };
    let cold = !missed.is_empty();
    probe_tasks(tracer, &tasks, &wcrt_params(&computed.spec), &store.cells, cold, counts);
    Ok(computed.frames)
}

/// Requests the traced run replays and serves: a prefix of the timed
/// stream (two full configuration cycles for cold_paper).
fn traced_requests(workload: Workload, shape: &Shape) -> usize {
    let wanted = match workload {
        Workload::ColdPaper => 2 * crate::gen::cold_config_count(),
        Workload::WarmEdit => 2000,
        Workload::ExploreSweep => 60,
    };
    wanted.min(shape.requests)
}

struct Replay {
    spans: Vec<Span>,
    expected: Vec<Result<Vec<String>, CliError>>,
    counts: Counts,
    kernel: Normalizer,
    /// Kernel sample before each replayed request's batch, and the steal
    /// share over the batch.
    interval: Vec<(usize, f64)>,
    wall_s: f64,
}

fn replay(inputs: &Inputs, n: usize, batch: usize) -> io::Result<Replay> {
    let tracer = Tracer::new();
    let store = Store::default();
    let mut counts = Counts::default();
    // Set-up traffic primes the store exactly as it primes the server.
    for (i, request) in inputs.setup.iter().enumerate() {
        replay_one(&tracer, &store, &request.line(i as u64), i as u64, &mut Counts::default())
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    let mut kernel = Normalizer::new(1);
    let mut expected = Vec::with_capacity(n);
    let mut interval = Vec::with_capacity(n);
    let mut wall_s = 0.0;
    for (b, chunk) in inputs.timed[..n].chunks(batch).enumerate() {
        let lines: Vec<String> =
            chunk.iter().enumerate().map(|(k, r)| r.line((b * batch + k) as u64)).collect();
        let before = kernel.sample();
        let ticks = HostTicks::read()?;
        let started = Instant::now();
        for (k, line) in lines.iter().enumerate() {
            let i = b * batch + k;
            tracer.set_request(Some(i));
            expected.push(replay_one(&tracer, &store, line, i as u64, &mut counts));
        }
        tracer.set_request(None);
        wall_s += started.elapsed().as_secs_f64();
        let steal = ticks.steal_share(HostTicks::read()?);
        interval.extend(std::iter::repeat_n((before, steal), lines.len()));
    }
    kernel.sample();
    Ok(Replay { spans: tracer.into_spans(), expected, counts, kernel, interval, wall_s })
}

/// A served request paired with its flight-journal record.
struct Paired {
    /// Client send → final frame, milliseconds.
    rtt_ms: f64,
    /// The journal's readiness-to-dispatch wait, microseconds.
    queue_us: f64,
    /// The journal's whole-request time, microseconds.
    total_us: f64,
    /// Kernel sample before the request's batch.
    interval: usize,
    /// Steal share over the request's batch.
    steal: f64,
}

/// The served pass's per-request and counter measurements.
struct ServedPass {
    replies: Vec<Reply>,
    timings: Vec<Paired>,
    reply_bytes: usize,
    before: Snapshot,
    after: Snapshot,
    kernel: Normalizer,
}

fn served_pass(inputs: &Inputs, n: usize, batch: usize, endpoint: &str) -> io::Result<ServedPass> {
    let trisc = crate::trisc_path().map_err(io::Error::other)?;
    let mut kernel = Normalizer::new(rtpar::default_threads());
    let mut started = served::start(&trisc, &inputs.setup)?;
    let before = Snapshot::take(&mut started.ops)?;
    let mut conn: Conn = started.server.connect()?;
    let mut replies = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    let mut reply_bytes = 0;
    for (b, chunk) in inputs.timed[..n].chunks(batch).enumerate() {
        let lines: Vec<String> =
            chunk.iter().enumerate().map(|(k, r)| r.line((b * batch + k) as u64)).collect();
        let interval = kernel.sample();
        let ticks = HostTicks::read()?;
        let mut rtts = Vec::with_capacity(lines.len());
        for line in &lines {
            let sent = Instant::now();
            let reply = conn.call(line).map_err(|e| e.to_string());
            rtts.push(sent.elapsed().as_secs_f64() * 1e3);
            if let Ok(frames) = &reply {
                reply_bytes += frames.iter().map(|f| f.len() + 1).sum::<usize>();
            }
            replies.push(reply);
        }
        let steal = ticks.steal_share(HostTicks::read()?);
        // This connection's requests ran one at a time, so the batch's
        // journal records are the newest `endpoint` records, in order.
        let journal =
            started.ops.query(&format!(r#"{{"cmd":"journal","n":{}}}"#, lines.len() + 8))?;
        let mut records: Vec<(f64, f64, f64)> = match journal.get("journal") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .filter(|r| r.get("endpoint").and_then(Json::as_str) == Some(endpoint))
                .map(|r| {
                    let num = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
                    (num("id"), num("queue_us"), num("total_us"))
                })
                .collect(),
            _ => Vec::new(),
        };
        records.sort_by(|a, b| a.0.total_cmp(&b.0));
        let records = &records[records.len().saturating_sub(lines.len())..];
        if records.len() != lines.len() {
            return Err(io::Error::other("flight journal lost records of the traced pass"));
        }
        for (rtt, (_, queue_us, total_us)) in rtts.into_iter().zip(records) {
            timings.push(Paired {
                rtt_ms: rtt,
                queue_us: *queue_us,
                total_us: *total_us,
                interval,
                steal,
            });
        }
    }
    kernel.sample();
    let after = Snapshot::take(&mut started.ops)?;
    drop(conn);
    drop(started.ops);
    started.server.shutdown()?;
    Ok(ServedPass { replies, timings, reply_bytes, before, after, kernel })
}

/// Every per-layer metric, in report order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("rtreact.transport_ms_p50", "ms"),
    ("rtreact.reply_bytes_per_req", "bytes"),
    ("rtserver.queue_wait_ms_p50", "ms"),
    ("rtserver.service_ms_p50", "ms"),
    ("rtserver.hit_ratio.assemble", "ratio"),
    ("rtserver.hit_ratio.analyze", "ratio"),
    ("rtserver.hit_ratio.crpd_cell", "ratio"),
    ("rtserver.single_flight_waits", "count"),
    ("rtserver.store_entries", "count"),
    ("rtserver.shed", "count"),
    ("rtserver.deadline_misses", "count"),
    ("rtserver.json_parse_us", "us"),
    ("rtserver.json_render_us", "us"),
    ("rtcli.spec_parse_us", "us"),
    ("rtcli.wcrt_render_us", "us"),
    ("rtprogram.assemble_us", "us"),
    ("rtprogram.iss_trace_ms", "ms"),
    ("rtprogram.instructions", "count"),
    ("rtprogram.accesses", "count"),
    ("rtwcet.wcet_ms", "ms"),
    ("rtcache.pack_us", "us"),
    ("rtcache.footprint_lines", "count"),
    ("crpd.analyze_ms", "ms"),
    ("crpd.useful_trace_ms", "ms"),
    ("crpd.skyline_kept", "count"),
    ("crpd.skyline_candidates", "count"),
    ("crpd.skyline_keep_ratio", "ratio"),
    ("crpd.matrix_app1_us", "us"),
    ("crpd.matrix_app2_us", "us"),
    ("crpd.matrix_app3_us", "us"),
    ("crpd.matrix_app4_us", "us"),
    ("crpd.cells_computed", "count"),
    ("crpd.bind_us", "us"),
    ("crpd.wcrt_fixpoint_us", "us"),
    ("crpd.wcrt_iterations", "count"),
    ("crpd.explain_us", "us"),
    ("rtexplore.plan_us", "us"),
    ("rtexplore.sweep_ms", "ms"),
    ("rtexplore.points", "count"),
    ("rtexplore.unique_analyses", "count"),
    ("rtexplore.front_size", "count"),
    ("rtpar.stolen_ratio", "ratio"),
    ("rtpar.batches", "count"),
    ("trace.coverage", "ratio"),
    ("trace.analysis_share", "ratio"),
    ("trace.spans", "count"),
];

/// Spans that only group their children; their self time is the part of
/// a request no layer call covers.
const GROUPING: [&str; 2] = ["request", "probe"];

/// The span behind each timed per-layer metric, with its unit scale
/// (nanoseconds per unit).
const SPAN_METRICS: [(&str, &str, f64); 19] = [
    ("rtserver.json_parse_us", "rtserver.json_parse", 1e3),
    ("rtserver.json_render_us", "rtserver.json_render", 1e3),
    ("rtcli.spec_parse_us", "rtcli.spec_parse", 1e3),
    ("rtcli.wcrt_render_us", "rtcli.wcrt_render", 1e3),
    ("rtprogram.assemble_us", "rtprogram.assemble", 1e3),
    ("rtprogram.iss_trace_ms", "rtprogram.iss_trace", 1e6),
    ("rtwcet.wcet_ms", "rtwcet.wcet", 1e6),
    ("rtcache.pack_us", "rtcache.pack", 1e3),
    ("crpd.analyze_ms", "crpd.analyze", 1e6),
    ("crpd.useful_trace_ms", "crpd.useful_trace", 1e6),
    ("crpd.matrix_app1_us", "crpd.matrix_app1", 1e3),
    ("crpd.matrix_app2_us", "crpd.matrix_app2", 1e3),
    ("crpd.matrix_app3_us", "crpd.matrix_app3", 1e3),
    ("crpd.matrix_app4_us", "crpd.matrix_app4", 1e3),
    ("crpd.bind_us", "crpd.bind", 1e3),
    ("crpd.wcrt_fixpoint_us", "crpd.wcrt_fixpoint", 1e3),
    ("crpd.explain_us", "crpd.explain", 1e3),
    ("rtexplore.plan_us", "rtexplore.plan", 1e3),
    ("rtexplore.sweep_ms", "rtexplore.sweep", 1e6),
];

/// The traced run of one workload.
///
/// # Errors
///
/// Fails on replay, server or output-file errors.
pub fn run_traced(
    workload: Workload,
    inputs: &Inputs,
    shape: &Shape,
    seed: u64,
    out: &Path,
) -> Result<Report, String> {
    let n = traced_requests(workload, shape);
    let pool = rtpar::Pool::new(1);
    let replay = pool.install(|| replay(inputs, n, shape.batch)).map_err(|e| e.to_string())?;
    let endpoint = if workload == Workload::ExploreSweep { "explore" } else { "wcrt" };
    let pass = served_pass(inputs, n, shape.batch, endpoint).map_err(|e| e.to_string())?;

    // Served replies against the replay's frames.
    let failures: Vec<Option<Failure>> = pass
        .replies
        .iter()
        .zip(&replay.expected)
        .map(|(reply, expected)| check::judge(reply, expected.as_ref().map(Vec::as_slice)))
        .collect();
    let failed = failures.iter().filter(|f| f.is_some()).count();

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    // Span metrics: mean per replayed request, normalised by the kernel
    // window around the request's batch.
    let timed: Vec<(usize, &Span)> =
        replay.spans.iter().enumerate().filter(|(_, s)| s.request.is_some()).collect();
    let factor = |s: &Span| {
        let (interval, steal) = replay.interval[s.request.expect("timed span")];
        replay.kernel.wall_factor(interval, steal)
    };
    let total = |name: &str| -> f64 {
        timed
            .iter()
            .filter(|(_, s)| s.name == name)
            .fold(0.0, |sum, (_, s)| sum + s.dur_ns() as f64 * factor(s))
    };
    for (metric, span, scale) in SPAN_METRICS {
        values.insert(metric, total(span) / scale / n as f64);
    }
    // Coverage: the share of the replayed requests' wall time that the
    // self time of named layer spans accounts for; what the grouping
    // spans (`request`, `probe`) hold outside their children is not
    // covered.
    let selfs = self_times(&replay.spans);
    let root_ns: f64 =
        timed.iter().filter(|(_, s)| s.parent.is_none()).map(|(_, s)| s.dur_ns() as f64).sum();
    let grouping_self: f64 = timed
        .iter()
        .filter(|(_, s)| GROUPING.contains(&s.name))
        .map(|(i, _)| selfs[*i] as f64)
        .sum();
    values.insert("trace.coverage", 1.0 - grouping_self / root_ns);
    let named_ns = |name: &str| {
        timed
            .iter()
            .filter(|(_, s)| s.name == name)
            .fold(0.0, |sum, (_, s)| sum + s.dur_ns() as f64)
    };
    let (probe_ns, analyze_ns) = (named_ns("probe"), named_ns("crpd.analyze"));
    values.insert("trace.analysis_share", analyze_ns / (root_ns - probe_ns));
    values.insert("trace.spans", timed.len() as f64);

    let c = &replay.counts;
    let per = |v: u64| v as f64 / n as f64;
    values.insert("rtprogram.instructions", per(c.instructions));
    values.insert("rtprogram.accesses", per(c.accesses));
    values.insert("rtcache.footprint_lines", per(c.footprint_lines));
    values.insert("crpd.skyline_kept", per(c.skyline_kept));
    values.insert("crpd.skyline_candidates", per(c.skyline_candidates));
    values.insert(
        "crpd.skyline_keep_ratio",
        if c.skyline_candidates == 0 {
            0.0
        } else {
            c.skyline_kept as f64 / c.skyline_candidates as f64
        },
    );
    values.insert("crpd.cells_computed", per(c.cells_computed));
    values.insert("crpd.wcrt_iterations", per(c.wcrt_iterations));
    values.insert("rtexplore.front_size", per(c.front_size));

    // Served-pass metrics.
    let k = &pass.kernel;
    let p50 = |f: &dyn Fn(&Paired) -> f64| {
        let mut v: Vec<f64> =
            pass.timings.iter().map(|t| f(t) * k.wall_factor(t.interval, t.steal)).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.5)
    };
    values.insert("rtreact.transport_ms_p50", p50(&|t| t.rtt_ms - t.total_us / 1e3));
    values.insert("rtserver.queue_wait_ms_p50", p50(&|t| t.queue_us / 1e3));
    values.insert("rtserver.service_ms_p50", p50(&|t| t.total_us / 1e3));
    values.insert("rtreact.reply_bytes_per_req", pass.reply_bytes as f64 / n as f64);
    let d = |path: &[&str]| pass.after.num(path) - pass.before.num(path);
    let hit_ratio = |stage: &str| {
        let hits = d(&["stages", stage, "hits"]);
        let lookups = hits + d(&["stages", stage, "misses"]);
        if lookups == 0.0 {
            0.0
        } else {
            hits / lookups
        }
    };
    for (metric, stage) in [
        ("rtserver.hit_ratio.assemble", "assemble"),
        ("rtserver.hit_ratio.analyze", "analyze"),
        ("rtserver.hit_ratio.crpd_cell", "crpd_cell"),
    ] {
        values.insert(metric, hit_ratio(stage));
    }
    let stages = ["assemble", "analyze", "crpd_cell"];
    values.insert(
        "rtserver.single_flight_waits",
        stages.iter().map(|s| d(&["stages", s, "single_flight_waits"])).sum(),
    );
    values.insert(
        "rtserver.store_entries",
        stages.iter().map(|s| pass.after.num(&["stages", s, "entries"])).sum(),
    );
    values.insert("rtserver.shed", d(&["admission", "shed_total"]));
    values.insert("rtserver.deadline_misses", d(&["endpoints", endpoint, "deadline_misses"]));
    let dp = |series: &str| pass.after.prom(series) - pass.before.prom(series);
    let stolen = dp("rtserver_analysis_pool_items_stolen_total");
    let inline = dp("rtserver_analysis_pool_items_inline_total");
    values.insert(
        "rtpar.stolen_ratio",
        if stolen + inline == 0.0 { 0.0 } else { stolen / (stolen + inline) },
    );
    values.insert("rtpar.batches", dp("rtserver_analysis_pool_batches_total") / n as f64);
    // The server's own figures: points its sweeps evaluated and programs
    // its store analysed (misses) over the pass.
    let points = d(&["explore", "points_total"]);
    let analyses = d(&["stages", "analyze", "misses"]);
    if points > 0.0 {
        values.insert("rtexplore.points", points / n as f64);
        values.insert("rtexplore.unique_analyses", analyses / n as f64);
    }

    // Each workload must exercise the layer it was built for.
    let mut notes = Vec::new();
    let intended = match workload {
        Workload::ColdPaper => values["rtserver.hit_ratio.analyze"] == 0.0,
        Workload::WarmEdit => {
            stages.iter().all(|s| values[format!("rtserver.hit_ratio.{s}").as_str()] == 1.0)
        }
        Workload::ExploreSweep => 0.0 < analyses && analyses < points,
    };
    if !intended {
        notes.push("the traced run did not exercise the workload's intended layer".to_string());
    }
    notes.push(format!(
        "traced {n} requests (replay on 1 thread: {:.3} s raw; served pass on 1 connection); \
         {failed} served replies differ from the replay; kernel medians {:.3} ms (replay) / {:.3} ms (served)",
        replay.wall_s,
        median(replay.kernel.samples()),
        median(pass.kernel.samples()),
    ));

    let dump = span_dump(workload, seed, n, &replay.spans, &selfs, &values);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("{}-seed{seed}.trace.json", workload.name()));
    std::fs::write(&path, dump).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("span dump written to {}", path.display()));

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, values.get(name).copied().unwrap_or(0.0), n))
        .collect();
    Ok(Report { correct: failed == 0 && intended, attempted: n, failed, metrics, notes })
}

fn span_dump(
    workload: Workload,
    seed: u64,
    n: usize,
    spans: &[Span],
    selfs: &[u64],
    values: &BTreeMap<&str, f64>,
) -> String {
    let rows = spans
        .iter()
        .zip(selfs)
        .map(|(s, &self_ns)| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("request", s.request.map_or(Json::Null, |r| Json::from(r as u64))),
                ("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64))),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("self_ns", Json::from(self_ns)),
            ])
        })
        .collect();
    let metrics = values.iter().map(|(k, v)| ((*k).to_string(), Json::Num(*v))).collect();
    Json::obj([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed)),
        ("requests", Json::from(n as u64)),
        ("metrics", Json::Obj(metrics)),
        ("spans", Json::Arr(rows)),
    ])
    .encode()
}
