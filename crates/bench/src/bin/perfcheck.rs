//! The perf-regression observatory: canonical paper + synthetic
//! workloads through the full analysis pipeline, profiled by the
//! `rtflight` recorder, gated against a committed baseline.
//!
//! ```text
//! # Full profile (committed as BENCH_profile.json):
//! cargo run --release -p rtbench --bin perfcheck
//!
//! # CI smoke run: fewer reps, same gates:
//! cargo run --release -p rtbench --bin perfcheck -- --smoke
//! ```
//!
//! Each workload runs `reps` times inside a [`rtobs::flight`] frame, so
//! per-stage wall time comes from the exact same attribution machinery
//! the live server uses. The profile records, per workload:
//!
//! * request p50/p99 in µs — exact, over the sorted per-rep totals;
//! * histogram p50/p99 — the recorder's log₂-bucket readout, proving
//!   the ops-plane quantiles bound the exact ones;
//! * per-stage p50/p99 in ns for every pipeline stage that fired;
//! * recorder overhead — alternating flight-on/flight-off rounds,
//!   `max(0, median(on)/median(off) - 1)`.
//!
//! Gates run *after* the JSON is published (a failed run still leaves
//! its evidence): measured overhead must stay under `--max-overhead`
//! (default 5%), and each workload's request p50 must stay within
//! `--tolerance` (multiplicative, default 2.0) of the committed
//! baseline. A missing baseline warns and passes, so the first run
//! bootstraps itself.

use std::process::ExitCode;
use std::time::Instant;

use crpd::CrpdApproach;
use rtbench::{experiment1_spec, experiment2_spec, Experiment, REFERENCE_CMISS};
use rtcache::CacheGeometry;
use rtobs::flight::FlightRecorder;
use rtserver::json::Json;
use rtworkloads::synthetic::{system, SystemParams};

struct Options {
    smoke: bool,
    reps: Option<usize>,
    json_out: String,
    baseline: Option<String>,
    tolerance: f64,
    max_overhead: f64,
    threads: usize,
}

fn parse_options(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        reps: None,
        json_out: "BENCH_profile.json".to_string(),
        baseline: None,
        tolerance: 2.0,
        max_overhead: 0.05,
        threads: 8,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        let ratio = |name: &str, raw: String| {
            raw.parse::<f64>()
                .ok()
                .filter(|r| r.is_finite() && *r >= 0.0)
                .ok_or(format!("{name} must be a non-negative number, got `{raw}`"))
        };
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--reps" => {
                let n: usize = value("--reps")?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                opts.reps = Some(n);
            }
            "--json-out" => opts.json_out = value("--json-out")?,
            "--baseline" => opts.baseline = Some(value("--baseline")?),
            "--tolerance" => opts.tolerance = ratio("--tolerance", value("--tolerance")?)?.max(1.0),
            "--max-overhead" => {
                opts.max_overhead = ratio("--max-overhead", value("--max-overhead")?)?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?
                    .max(1)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Exact quantile over sorted samples: rank `ceil(q * n)` clamped to
/// `[1, n]` — the same convention as the recorder's histogram readout.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted f64 slice (lower-median for even lengths).
fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[(sorted.len() - 1) / 2]
}

/// Recorder overhead from alternating on/off wall-clock rounds:
/// `max(0, median(on)/median(off) - 1)`.
fn overhead_ratio(on_secs: &[f64], off_secs: &[f64]) -> f64 {
    let off = median(off_secs);
    if off <= 0.0 {
        return 0.0;
    }
    (median(on_secs) / off - 1.0).max(0.0)
}

/// One profiled workload: a name and a closure driving the pipeline.
struct Workload {
    name: &'static str,
    run: Box<dyn Fn()>,
}

fn workloads() -> Vec<Workload> {
    let geometry = CacheGeometry::new(64, 2, 16).expect("valid geometry");
    let exp1 = Experiment::build(&experiment1_spec(), geometry);
    let exp2 = Experiment::build(&experiment2_spec(), geometry);
    let programs = system(&SystemParams::default());
    vec![
        Workload {
            name: "exp1_wcrt",
            run: Box::new(move || {
                let results = exp1.wcrt(CrpdApproach::Combined, REFERENCE_CMISS);
                assert!(results.iter().all(|r| r.cycles > 0), "exp1 WCRTs are positive");
            }),
        },
        Workload {
            name: "exp2_wcrt",
            run: Box::new(move || {
                let results = exp2.wcrt(CrpdApproach::Combined, REFERENCE_CMISS);
                assert!(results.iter().all(|r| r.cycles > 0), "exp2 WCRTs are positive");
            }),
        },
        Workload {
            name: "synthetic_pipeline",
            run: Box::new(move || {
                use crpd::{AnalyzedTask, CrpdMatrix, TaskParams, WcrtParams};
                use rtwcet::TimingModel;
                let tasks: Vec<AnalyzedTask> = programs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        AnalyzedTask::analyze(
                            p,
                            TaskParams { period: 200_000 << i, priority: 2 + i as u32 },
                            geometry,
                            TimingModel::with_miss_penalty(REFERENCE_CMISS),
                        )
                        .expect("synthetic tasks analyze cleanly")
                    })
                    .collect();
                let matrix = CrpdMatrix::compute(CrpdApproach::Combined, &tasks);
                let params = WcrtParams {
                    miss_penalty: REFERENCE_CMISS,
                    ctx_switch: 120,
                    max_iterations: 10_000,
                };
                let results = crpd::analyze_all(&tasks, &matrix, &params);
                assert_eq!(results.len(), tasks.len());
            }),
        },
    ]
}

/// Profiles one workload: `reps` flight-framed runs for the latency and
/// stage profile, then `reps` alternating on/off rounds for overhead.
fn profile_workload(w: &Workload, recorder: &FlightRecorder, reps: usize) -> (Json, f64) {
    // Warmup outside any frame: first-touch allocation and code paging
    // belong to neither side of the overhead comparison.
    (w.run)();
    let mut totals_us: Vec<u64> = Vec::with_capacity(reps);
    let mut stage_samples: Vec<Vec<u64>> =
        vec![Vec::with_capacity(reps); rtobs::flight::STAGES.len()];
    for _ in 0..reps {
        let scope = recorder.begin(w.name, 0);
        (w.run)();
        let record = scope.finish(true);
        totals_us.push(record.total_us);
        for (samples, ns) in stage_samples.iter_mut().zip(record.stage_ns) {
            samples.push(ns);
        }
    }
    totals_us.sort_unstable();

    // Alternating on/off rounds decorrelate thermal / frequency drift.
    let mut on_secs = Vec::with_capacity(reps);
    let mut off_secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let scope = recorder.begin(w.name, 0);
        (w.run)();
        scope.finish(true);
        on_secs.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        (w.run)();
        off_secs.push(started.elapsed().as_secs_f64());
    }
    let overhead = overhead_ratio(&on_secs, &off_secs);

    let stages = Json::Obj(
        rtobs::flight::STAGES
            .iter()
            .zip(&mut stage_samples)
            .filter(|(_, samples)| samples.iter().any(|&ns| ns > 0))
            .map(|(stage, samples)| {
                samples.sort_unstable();
                let entry = Json::obj([
                    ("p50_ns", Json::from(percentile(samples, 0.50))),
                    ("p99_ns", Json::from(percentile(samples, 0.99))),
                ]);
                (stage.to_string(), entry)
            })
            .collect(),
    );
    let profile = Json::obj([
        (
            "request_us",
            Json::obj([
                ("p50", Json::from(percentile(&totals_us, 0.50))),
                ("p99", Json::from(percentile(&totals_us, 0.99))),
                ("max", Json::from(*totals_us.last().expect("reps >= 1"))),
            ]),
        ),
        ("stages_ns", stages),
        ("overhead", Json::Num(overhead)),
    ]);
    (profile, overhead)
}

/// The recorder's own histogram readout per endpoint, to cross-check
/// against the exact percentiles.
fn histogram_json(recorder: &FlightRecorder) -> Json {
    Json::Obj(
        recorder
            .endpoints()
            .into_iter()
            .map(|e| {
                let entry = Json::obj([
                    ("count", Json::from(e.hist.count)),
                    ("p50_us", Json::from(e.hist.quantile_upper_bound(0.50))),
                    ("p99_us", Json::from(e.hist.quantile_upper_bound(0.99))),
                ]);
                (e.endpoint.to_string(), entry)
            })
            .collect(),
    )
}

/// Compares a fresh profile against the committed baseline: each
/// workload's request p50 may grow by at most `tolerance`x. Workloads
/// present on only one side are reported but never fail the gate (the
/// set is allowed to evolve).
fn gate_against_baseline(new: &Json, baseline: &Json, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let (Some(Json::Obj(new_wl)), Some(Json::Obj(old_wl))) =
        (new.get("workloads"), baseline.get("workloads"))
    else {
        return vec!["baseline has no `workloads` object".to_string()];
    };
    for (name, fresh) in new_wl {
        let Some(old) = old_wl.get(name) else {
            println!("gate: workload `{name}` has no baseline entry (new workload, skipped)");
            continue;
        };
        let fresh_p50 = fresh.get("request_us").and_then(|r| r.get("p50")).and_then(Json::as_u64);
        let old_p50 = old.get("request_us").and_then(|r| r.get("p50")).and_then(Json::as_u64);
        let (Some(fresh_p50), Some(old_p50)) = (fresh_p50, old_p50) else {
            failures.push(format!("workload `{name}`: missing request_us.p50"));
            continue;
        };
        let limit = (old_p50 as f64 * tolerance).ceil() as u64;
        if fresh_p50 > limit.max(1) {
            failures.push(format!(
                "workload `{name}`: request p50 {fresh_p50}us > {limit}us \
                 (baseline {old_p50}us x tolerance {tolerance})"
            ));
        } else {
            println!(
                "gate: {name} request p50 {fresh_p50}us within {limit}us (baseline {old_p50}us)"
            );
        }
    }
    failures
}

fn run() -> Result<(), String> {
    let opts = parse_options(std::env::args().skip(1))?;
    let reps = opts.reps.unwrap_or(if opts.smoke { 3 } else { 15 });
    rtpar::configure_global(opts.threads);
    // Read the committed baseline BEFORE overwriting it: by default the
    // gate compares this run against the profile being replaced.
    let baseline_path = opts.baseline.clone().unwrap_or_else(|| opts.json_out.clone());
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .map(|text| Json::parse(text.trim_end()).map_err(|e| format!("{baseline_path}: {e}")))
        .transpose()?;

    let recorder = FlightRecorder::new(1024, None);
    let mut workload_profiles = std::collections::BTreeMap::new();
    let mut overheads = Vec::new();
    println!(
        "perfcheck: {} mode, {reps} reps/workload, {} threads",
        if opts.smoke { "smoke" } else { "full" },
        opts.threads
    );
    for w in workloads() {
        let started = Instant::now();
        let (profile, overhead) = profile_workload(&w, &recorder, reps);
        println!(
            "  {}: p50 {}us, recorder overhead {:.2}% ({:.1}s)",
            w.name,
            profile
                .get("request_us")
                .and_then(|r| r.get("p50"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            overhead * 100.0,
            started.elapsed().as_secs_f64()
        );
        overheads.push(overhead);
        workload_profiles.insert(w.name.to_string(), profile);
    }
    let overhead_median = median(&overheads);
    let overhead_max = overheads.iter().cloned().fold(0.0f64, f64::max);

    let report = Json::obj([
        ("schema", Json::from("perfcheck-v1")),
        ("mode", Json::from(if opts.smoke { "smoke" } else { "full" })),
        ("reps", Json::from(reps as u64)),
        ("threads", Json::from(opts.threads as u64)),
        ("workloads", Json::Obj(workload_profiles)),
        (
            "recorder_overhead",
            Json::obj([
                ("median", Json::Num(overhead_median)),
                ("max", Json::Num(overhead_max)),
                ("budget", Json::Num(opts.max_overhead)),
            ]),
        ),
        ("histograms_us", histogram_json(&recorder)),
    ]);
    std::fs::write(&opts.json_out, report.encode() + "\n")
        .map_err(|e| format!("{}: {e}", opts.json_out))?;
    println!("wrote {}", opts.json_out);

    // Gates run after publishing, so a failed run still leaves evidence.
    let mut failures = Vec::new();
    if overhead_median > opts.max_overhead {
        failures.push(format!(
            "recorder overhead {:.2}% exceeds budget {:.2}%",
            overhead_median * 100.0,
            opts.max_overhead * 100.0
        ));
    } else {
        println!(
            "gate: recorder overhead {:.2}% within {:.2}% budget",
            overhead_median * 100.0,
            opts.max_overhead * 100.0
        );
    }
    match &baseline {
        Some(baseline) => failures.extend(gate_against_baseline(&report, baseline, opts.tolerance)),
        None => println!("gate: no baseline at {baseline_path}; first run passes unconditionally"),
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfcheck: {message}");
            eprintln!(
                "usage: perfcheck [--smoke] [--reps N] [--json-out PATH] [--baseline PATH] \
                 [--tolerance R>=1] [--max-overhead R] [--threads N]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_histogram_rank_convention() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(percentile(&sorted, 0.50), 20);
        assert_eq!(percentile(&sorted, 0.99), 40);
        assert_eq!(percentile(&sorted, 0.0), 10, "q=0 clamps to the first sample");
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn overhead_clamps_at_zero_and_measures_slowdowns() {
        assert_eq!(overhead_ratio(&[1.0, 1.0], &[1.1, 1.1]), 0.0, "faster-with-recorder clamps");
        let measured = overhead_ratio(&[1.05, 1.04, 1.06], &[1.0, 1.0, 1.0]);
        assert!((measured - 0.05).abs() < 1e-9, "median-based ratio, got {measured}");
        assert_eq!(overhead_ratio(&[1.0], &[0.0]), 0.0, "degenerate off-time is not a division");
    }

    #[test]
    fn gate_flags_regressions_and_tolerates_growth_within_budget() {
        let fresh = Json::parse(
            r#"{"workloads":{"a":{"request_us":{"p50":190}},
                             "b":{"request_us":{"p50":500}},
                             "new":{"request_us":{"p50":1}}}}"#,
        )
        .unwrap();
        let baseline = Json::parse(
            r#"{"workloads":{"a":{"request_us":{"p50":100}},
                             "b":{"request_us":{"p50":100}}}}"#,
        )
        .unwrap();
        let failures = gate_against_baseline(&fresh, &baseline, 2.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("workload `b`"), "{failures:?}");
        assert!(failures[0].contains("500us"), "{failures:?}");
    }

    #[test]
    fn parse_options_covers_flags_and_rejects_nonsense() {
        let opts = parse_options(std::iter::empty()).unwrap();
        assert!(!opts.smoke);
        assert_eq!(opts.tolerance, 2.0);
        assert_eq!(opts.max_overhead, 0.05);
        let opts = parse_options(
            ["--smoke", "--reps", "7", "--tolerance", "1.5", "--max-overhead", "0.1"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert!(opts.smoke);
        assert_eq!(opts.reps, Some(7));
        assert_eq!(opts.tolerance, 1.5);
        assert_eq!(opts.max_overhead, 0.1);
        assert!(parse_options(["--reps", "0"].map(String::from).into_iter()).is_err());
        assert!(parse_options(["--tolerance", "soon"].map(String::from).into_iter()).is_err());
        assert!(parse_options(["--wat"].map(String::from).into_iter()).is_err());
    }

    /// The recorder's hot-path promise: a begin/finish cycle with no work
    /// inside costs well under the 5% budget of a 2 ms request. The
    /// cycles are timed directly, so scheduler noise around a sleeping
    /// workload cannot read as recorder overhead.
    #[test]
    fn recorder_frame_overhead_is_small_against_a_millisecond_workload() {
        const CYCLES: u32 = 2_000;
        let recorder = FlightRecorder::new(64, None);
        let started = Instant::now();
        for _ in 0..CYCLES {
            recorder.begin("bench", 0).finish(true);
        }
        let mean = started.elapsed().as_secs_f64() / f64::from(CYCLES);
        let overhead = mean / 0.002;
        assert!(overhead < 0.05, "begin/finish cost {overhead:.4} of a 2ms request");
    }
}
