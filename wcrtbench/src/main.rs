//! `wcrtbench`: the repository benchmark.
//!
//! ```text
//! wcrtbench --workload cold_paper|warm_edit|explore_sweep|all
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! `--trace 0` starts `trisc serve` (default flags), drives the workload's
//! seeded closed-loop stream over NDJSON, checks every reply off the
//! clock against the in-process path, and prints the end-to-end metrics.
//! `--trace 1` replays the same inputs in process with spans around each
//! layer's public calls, makes one served pass for the server-side
//! counters, writes the span dump under `--out`, and prints the per-layer
//! metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! Every timing is normalised by the reference kernel (see [`kernel`]);
//! raw values are printed beside the normalised ones.

mod check;
mod client;
mod gen;
mod kernel;
mod served;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use rtserver::json::Json;

use crate::check::Failure;
use crate::gen::{Inputs, Workload};
use crate::kernel::{percentile, relative_iqr, samples_beyond, K_NOMINAL_MS};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported (normalised, where a timing) value.
    pub value: f64,
    /// The raw value beside it, for timings.
    pub raw: Option<f64>,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name: name.to_string(), unit, value, raw: None, samples }
    }

    fn timing(name: &str, unit: &'static str, value: f64, raw: f64, samples: usize) -> Metric {
        Metric { name: name.to_string(), unit, value, raw: Some(raw), samples }
    }
}

/// A run's verdict and metrics.
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests failed (errors, refusals, transport, mismatches).
    pub failed: usize,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

/// Per-workload fixed shape: how many requests a run sends, in batches of
/// what size, over how many connections.
pub struct Shape {
    /// Timed requests.
    pub requests: usize,
    /// Requests between two kernel samples.
    pub batch: usize,
    /// Client connections.
    pub connections: usize,
}

/// The fixed shape of `workload` for a `seconds`-long run: request
/// counts are `seconds` times a nominal rate, rounded to whole batches
/// (and, for cold_paper, whole configuration cycles), so a run does a
/// fixed amount of work that lasts about `seconds` at nominal speed.
pub fn shape(workload: Workload, seconds: u64) -> Shape {
    let seconds = seconds.max(1) as usize;
    let round = |n: usize, unit: usize| n.div_ceil(unit).max(1) * unit;
    match workload {
        Workload::ColdPaper => Shape {
            requests: round(60 * seconds, gen::cold_config_count()),
            batch: 8,
            connections: 1,
        },
        Workload::WarmEdit => {
            let connections = rtpar::default_threads();
            Shape { requests: round(3900 * seconds, 500), batch: 500, connections }
        }
        Workload::ExploreSweep => {
            Shape { requests: round(60 * seconds, 6), batch: 6, connections: 1 }
        }
    }
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from(".bench_build/wcrtbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad value for {flag}: {value}"));
        match flag.as_str() {
            "--workload" if value == "all" => opts.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                opts.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?,
            "--trace" => opts.trace = number()? != 0,
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// The `trisc` binary built beside this one.
fn trisc_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trisc = exe.with_file_name("trisc");
    if trisc.is_file() {
        Ok(trisc)
    } else {
        Err(format!("no trisc binary beside {}", exe.display()))
    }
}

/// The untraced run of one workload: the end-to-end metrics.
fn run_untraced(workload: Workload, inputs: &Inputs, shape: &Shape) -> Result<Report, String> {
    let trisc = trisc_path()?;
    let width = rtpar::default_threads();
    let measured = served::measure(&trisc, inputs, shape.connections, shape.batch, width)
        .map_err(|e| e.to_string())?;
    let pool = measured.after.pool_threads();
    if pool != width {
        return Err(format!("server pool has {pool} threads, kernel ran on {width}"));
    }
    let timed = &measured.timed;
    let n = timed.outcomes.len();

    // Off the clock: every reply against the in-process path.
    let replies: Vec<_> = timed.outcomes.iter().map(|o| &o.reply).collect();
    let failures = check::check_all(workload == Workload::WarmEdit, &inputs.timed, &replies);
    let count = |kind: Failure| failures.iter().filter(|f| **f == Some(kind)).count();
    let failed = failures.iter().filter(|f| f.is_some()).count();

    let kernel = &measured.kernel;
    let (raw, norm) = timed.latencies(kernel);
    let (wall_raw, wall_norm) = timed.wall_s(kernel);
    let (cpu_raw, cpu_norm) = timed.cpu_ms(kernel);
    let setup_norm = measured.setup.norm_s(kernel);
    let completed = (n - failed) as f64;
    let setup_raw = kernel::median(&measured.setup.raw_s);
    let metrics = vec![
        Metric::timing("latency_p50_ms", "ms", percentile(&norm, 0.5), percentile(&raw, 0.5), n),
        Metric::timing("latency_p90_ms", "ms", percentile(&norm, 0.9), percentile(&raw, 0.9), n),
        Metric::timing("throughput_rps", "1/s", completed / wall_norm, completed / wall_raw, n),
        Metric::timing("server_cpu_ms_per_req", "ms", cpu_norm / n as f64, cpu_raw / n as f64, n),
        Metric::new("server_peak_rss_mb", "MiB", measured.peak_rss_mb, 1),
        Metric::timing("setup_s", "s", kernel::median(&setup_norm), setup_raw, served::SETUPS),
    ];
    let k = measured.kernel.samples();
    let d = |path: &[&str]| measured.after.num(path) - measured.before.num(path);
    let notes = vec![
        format!(
            "requests {n} on {} connection(s), batches of {}; p90 keeps {} samples beyond it",
            shape.connections,
            shape.batch,
            samples_beyond(n, 0.9)
        ),
        format!(
            "failed_ratio {} ({} errors, {} refused, {} transport, {} mismatches of {n})",
            failed as f64 / n as f64,
            count(Failure::Error),
            count(Failure::Refused),
            count(Failure::Transport),
            count(Failure::Mismatch),
        ),
        format!(
            "kernel: {} samples on {} threads, median {:.3} ms (K_nominal {K_NOMINAL_MS} ms), \
             IQR/median {:.4}, max/min {:.3}",
            k.len(),
            measured.kernel.width(),
            kernel::median(k),
            relative_iqr(k),
            k.iter().copied().fold(f64::MIN, f64::max) / k.iter().copied().fold(f64::MAX, f64::min),
        ),
        format!(
            "timed-phase stage deltas: assemble {}h/{}m, analyze {}h/{}m, crpd_cell {}h/{}m",
            d(&["stages", "assemble", "hits"]),
            d(&["stages", "assemble", "misses"]),
            d(&["stages", "analyze", "hits"]),
            d(&["stages", "analyze", "misses"]),
            d(&["stages", "crpd_cell", "hits"]),
            d(&["stages", "crpd_cell", "misses"]),
        ),
        format!(
            "steal share over the timed batches: mean {:.4}, max {:.4}",
            timed.batches.iter().map(|b| b.steal).sum::<f64>() / timed.batches.len() as f64,
            timed.batches.iter().map(|b| b.steal).fold(0.0, f64::max),
        ),
        format!("setup raw s {:?}, normalised s {:?}", measured.setup.raw_s, setup_norm),
    ];
    Ok(Report { correct: failed == 0, attempted: n, failed, metrics, notes })
}

fn print_report(workload: Workload, seed: u64, report: &Report) {
    println!("== {} (seed {seed})", workload.name());
    for m in &report.metrics {
        match m.raw {
            Some(raw) => println!(
                "  {:<28} {:>14.4} {:<6} raw {:>12.4}  n={}",
                m.name, m.value, m.unit, raw, m.samples
            ),
            None => println!("  {:<28} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.samples),
        }
    }
    for note in &report.notes {
        println!("  {note}");
    }
}

fn result_json(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::from(report.attempted as u64)),
        ("failed", Json::from(report.failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

fn run() -> Result<bool, String> {
    let opts = parse_options()?;
    let mut reports = Vec::new();
    for &workload in &opts.workloads {
        let shape = shape(workload, opts.seconds);
        let inputs = gen::generate(workload, opts.seed, shape.requests);
        let report = if opts.trace {
            trace::run_traced(workload, &inputs, &shape, opts.seed, &opts.out)?
        } else {
            run_untraced(workload, &inputs, &shape)?
        };
        print_report(workload, opts.seed, &report);
        reports.push(report);
    }
    let correct = reports.iter().all(|r| r.correct);
    if let [report] = reports.as_slice() {
        println!("{}", result_json(report));
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("wcrtbench: replies failed the check");
            ExitCode::from(1)
        }
        Err(error) => {
            eprintln!("wcrtbench: {error}");
            ExitCode::from(2)
        }
    }
}
