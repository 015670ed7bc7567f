//! Built-in observability: the `metrics` JSON snapshot and the
//! `metrics_prom` Prometheus exposition.
//!
//! The flight recorder ([`FlightRecorder`]) is the server's one
//! per-request record: it owns each endpoint's request count, error
//! count and log₂ latency histogram ([`rtobs::flight::LogHistogram`]).
//! [`Metrics`] keeps only what never flies through a flight frame as
//! handled work — per-endpoint admission sheds and deadline misses — plus
//! the `explore` tallies, and [`Metrics::endpoint_rows`] merges the two
//! into the one per-endpoint table the `metrics`, `statusz` and
//! `metrics_prom` replies render.
//!
//! Latencies land in buckets `[2^i, 2^(i+1))` microseconds, so reported
//! percentiles are upper bounds with at most 2× resolution — plenty to
//! tell a 50 µs cache hit from a 50 ms cold analysis, at a fixed
//! footprint per endpoint and O(1) recording cost.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rtobs::flight::{FlightRecorder, HistSnapshot, LogHistogram};

use crate::json::Json;
use crate::store::ArtifactStore;

/// One endpoint's admission counters: the part of its row the flight
/// recorder never sees.
#[derive(Debug, Clone, Copy, Default)]
struct Admission {
    shed: u64,
    deadline_misses: u64,
}

/// One endpoint's row of the `metrics`, `statusz` and `metrics_prom`
/// tables: the flight recorder's histogram and error count, merged with
/// the admission counters [`Metrics`] owns.
#[derive(Debug)]
pub struct EndpointRow {
    /// Endpoint label.
    pub endpoint: &'static str,
    /// Handled requests that failed.
    pub errors: u64,
    /// Requests shed by admission control before any analysis ran (not
    /// in `hist` or `errors`: the server never handled them).
    pub shed: u64,
    /// Requests rejected because their queue wait exceeded the deadline
    /// (these *are* also handled errors, in `hist` and `errors`).
    pub deadline_misses: u64,
    /// Latency histogram of the handled requests; `hist.count` is the
    /// request count.
    pub hist: HistSnapshot,
}

/// Admission-control gauges owned by the server state, passed into
/// [`Metrics::snapshot`]/[`Metrics::prometheus`] so the registry stays a
/// pure recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionSnapshot {
    /// Analysis requests currently dispatched (admission-counted).
    pub inflight: u64,
    /// The `--max-inflight` cap.
    pub max_inflight: u64,
    /// Connections currently open on the reactor.
    pub open_connections: u64,
    /// Reactor event loops.
    pub event_threads: u64,
}

/// Server-wide counters the flight recorder does not keep. One instance
/// lives in the shared server state.
#[derive(Debug, Default)]
pub struct Metrics {
    admission: Mutex<BTreeMap<&'static str, Admission>>,
    /// Sweep points evaluated by `explore` requests, cumulative.
    explore_points: AtomicU64,
    /// Pareto-front size of the most recent completed `explore` sweep.
    explore_front_size: AtomicU64,
}

impl Metrics {
    /// Records one request for `endpoint` shed by admission control. Shed
    /// requests never ran, so they land only in the shed counter — not in
    /// the flight recorder's requests, errors or latency histogram.
    pub fn record_shed(&self, endpoint: &'static str) {
        self.admission.lock().expect("metrics lock").entry(endpoint).or_default().shed += 1;
    }

    /// Records one deadline miss for `endpoint` (the request was rejected
    /// after parse but before analysis; its flight frame still records it
    /// as a handled error).
    pub fn record_deadline_miss(&self, endpoint: &'static str) {
        let mut admission = self.admission.lock().expect("metrics lock");
        admission.entry(endpoint).or_default().deadline_misses += 1;
    }

    /// The per-endpoint table, endpoint-name order: every endpoint the
    /// flight recorder has seen, plus any that has only ever been shed
    /// (it never flew, but its sheds still belong on the books).
    pub fn endpoint_rows(&self, flight: &FlightRecorder) -> Vec<EndpointRow> {
        let mut rows: BTreeMap<&'static str, EndpointRow> = flight
            .endpoints()
            .into_iter()
            .map(|e| {
                let row = EndpointRow {
                    endpoint: e.endpoint,
                    errors: e.errors,
                    shed: 0,
                    deadline_misses: 0,
                    hist: e.hist,
                };
                (e.endpoint, row)
            })
            .collect();
        for (&endpoint, admission) in self.admission.lock().expect("metrics lock").iter() {
            let row = rows.entry(endpoint).or_insert_with(|| EndpointRow {
                endpoint,
                errors: 0,
                shed: 0,
                deadline_misses: 0,
                hist: LogHistogram::new().snapshot(),
            });
            row.shed = admission.shed;
            row.deadline_misses = admission.deadline_misses;
        }
        rows.into_values().collect()
    }

    /// Records one completed `explore` sweep: `points` accumulate, the
    /// front size tracks the latest sweep.
    pub fn record_explore(&self, points: u64, front_size: u64) {
        self.explore_points.fetch_add(points, Ordering::Relaxed);
        self.explore_front_size.store(front_size, Ordering::Relaxed);
    }

    /// Snapshots everything — uptime, the per-endpoint table `endpoints`
    /// (from [`Metrics::endpoint_rows`]) with latency percentiles, the
    /// artifact-cache counters, and the analysis-pool shape
    /// (`analysis_threads` total, of which `analysis_workers` are spawned
    /// background threads) — as the `metrics` response payload.
    pub fn snapshot(
        &self,
        endpoints: &[EndpointRow],
        flight: &FlightRecorder,
        store: &ArtifactStore,
        analysis_threads: usize,
        analysis_workers: usize,
        admission: &AdmissionSnapshot,
    ) -> Json {
        let per_endpoint = endpoints
            .iter()
            .map(|row| {
                let hist = &row.hist;
                let json = Json::obj([
                    ("requests", Json::from(hist.count)),
                    ("errors", Json::from(row.errors)),
                    ("shed", Json::from(row.shed)),
                    ("deadline_misses", Json::from(row.deadline_misses)),
                    ("count", Json::from(hist.count)),
                    ("sum_us", Json::from(hist.sum_us)),
                    ("max_us", Json::from(hist.max_us)),
                    ("p50_us", Json::from(hist.quantile_upper_bound(0.50))),
                    ("p95_us", Json::from(hist.quantile_upper_bound(0.95))),
                    ("p99_us", Json::from(hist.quantile_upper_bound(0.99))),
                ]);
                (row.endpoint.to_string(), json)
            })
            .collect();
        let stages = store
            .stage_stats()
            .into_iter()
            .map(|s| {
                let json = Json::obj([
                    ("hits", Json::from(s.hits)),
                    ("misses", Json::from(s.misses)),
                    ("entries", Json::from(s.entries)),
                    ("single_flight_waits", Json::from(s.single_flight_waits)),
                ]);
                (s.stage.to_string(), json)
            })
            .collect();
        Json::obj([
            ("uptime_secs", Json::from(flight.uptime_secs())),
            ("endpoints", Json::Obj(per_endpoint)),
            (
                // The `analyze` stage's counters, kept under the historic
                // name for dashboards that predate the staged store.
                "artifact_cache",
                Json::obj([
                    ("hits", Json::from(store.hits())),
                    ("misses", Json::from(store.misses())),
                    ("entries", Json::from(store.len() as u64)),
                ]),
            ),
            ("stages", Json::Obj(stages)),
            (
                "explore",
                Json::obj([
                    ("points_total", Json::from(self.explore_points.load(Ordering::Relaxed))),
                    ("front_size", Json::from(self.explore_front_size.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "analysis_pool",
                Json::obj([
                    ("threads", Json::from(analysis_threads as u64)),
                    ("background_workers", Json::from(analysis_workers as u64)),
                ]),
            ),
            (
                "admission",
                Json::obj([
                    ("inflight", Json::from(admission.inflight)),
                    ("max_inflight", Json::from(admission.max_inflight)),
                    ("shed_total", Json::from(shed_total(endpoints))),
                    ("open_connections", Json::from(admission.open_connections)),
                    ("event_threads", Json::from(admission.event_threads)),
                ]),
            ),
            ("peer", {
                let peer = store.cluster().map(|c| c.stats()).unwrap_or_default();
                Json::obj([
                    ("fetch_hits", Json::from(peer.hits)),
                    ("fetch_misses", Json::from(peer.misses)),
                    ("fetch_timeouts", Json::from(peer.timeouts)),
                    ("fallbacks", Json::from(peer.fallbacks())),
                    ("puts", Json::from(peer.puts)),
                    ("ring_owned_keys", Json::from(store.ring_owned_keys())),
                ])
            }),
        ])
    }

    /// Renders everything in the Prometheus text exposition format (the
    /// `metrics_prom` response payload): the same data as [`snapshot`]
    /// plus the analysis pool's activity gauges and the flight recorder's
    /// record counter, slow-capture counter and per-stage attributed wall
    /// time.
    ///
    /// The log₂ histograms translate directly: bucket `i` covers
    /// `[2^i, 2^(i+1))` µs, so its inclusive Prometheus bound is
    /// `le="2^(i+1)-1"` (latencies are integral µs), cumulative counts
    /// are monotone by construction, and `+Inf` equals `_count`.
    ///
    /// The output passes [`validate_prometheus`], which the tests pin.
    ///
    /// [`snapshot`]: Metrics::snapshot
    pub fn prometheus(
        &self,
        endpoints: &[EndpointRow],
        flight: &FlightRecorder,
        store: &ArtifactStore,
        pool: &rtpar::PoolStats,
        admission: &AdmissionSnapshot,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, value: &dyn std::fmt::Display| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "rtserver_uptime_seconds",
            "Seconds since the server started.",
            &flight.uptime_secs(),
        );
        gauge(
            "rtserver_artifact_cache_entries",
            "Memoized analysis artifacts currently cached.",
            &store.len(),
        );
        gauge(
            "rtserver_analysis_pool_threads",
            "Total analysis parallelism (background workers + caller).",
            &pool.threads,
        );
        gauge(
            "rtserver_analysis_pool_queue_depth",
            "Batch tokens waiting in the analysis pool queue.",
            &pool.queue_depth,
        );
        gauge(
            "rtserver_analysis_pool_worker_utilization",
            "Fraction of analysis work items stolen by background workers.",
            &format_args!("{:.6}", pool.worker_utilization()),
        );
        gauge(
            "rtserver_explore_front_size",
            "Pareto-front size of the most recent explore sweep.",
            &self.explore_front_size.load(Ordering::Relaxed),
        );
        gauge(
            "rtserver_inflight",
            "Analysis requests currently dispatched (admission-counted).",
            &admission.inflight,
        );
        gauge(
            "rtserver_max_inflight",
            "The --max-inflight admission cap.",
            &admission.max_inflight,
        );
        gauge(
            "rtserver_open_connections",
            "Connections currently open on the reactor.",
            &admission.open_connections,
        );
        gauge("rtserver_event_threads", "Reactor event loops.", &admission.event_threads);
        gauge(
            "rtserver_ring_owned_keys",
            "Resident analyze artifacts whose ring owner is this node.",
            &store.ring_owned_keys(),
        );
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter("rtserver_artifact_cache_hits_total", "Artifact cache hits.", store.hits());
        counter("rtserver_artifact_cache_misses_total", "Artifact cache misses.", store.misses());
        counter(
            "rtserver_analysis_pool_batches_total",
            "Fan-out batches executed by the analysis pool.",
            pool.batches,
        );
        counter(
            "rtserver_analysis_pool_items_inline_total",
            "Work items run inline by the submitting thread.",
            pool.items_inline,
        );
        counter(
            "rtserver_analysis_pool_items_stolen_total",
            "Work items stolen by background pool workers.",
            pool.items_stolen,
        );
        let (skyline_kept, skyline_pruned) = crpd::skyline_stats();
        counter(
            "rtserver_skyline_points_kept_total",
            "Pareto-maximal useful-footprint points kept by skyline pruning.",
            skyline_kept,
        );
        counter(
            "rtserver_skyline_points_pruned_total",
            "Dominated useful-footprint points discarded by skyline pruning.",
            skyline_pruned,
        );
        counter(
            "rtserver_explore_points_total",
            "Design-space sweep points evaluated by explore requests.",
            self.explore_points.load(Ordering::Relaxed),
        );
        counter(
            "rtserver_flight_records_total",
            "Flight records committed by the always-on recorder.",
            flight.records_total(),
        );
        counter(
            "rtserver_slow_requests_total",
            "Requests slower than --slow-ms captured into the black box.",
            flight.slow_total(),
        );
        let peer = store.cluster().map(|c| c.stats()).unwrap_or_default();
        counter(
            "rtserver_peer_fetch_hits_total",
            "Peer fetches answered with an artifact by the owning node.",
            peer.hits,
        );
        counter(
            "rtserver_peer_fetch_misses_total",
            "Peer fetches the owner answered without a usable artifact (local fallback ran).",
            peer.misses,
        );
        counter(
            "rtserver_peer_fetch_timeouts_total",
            "Peer fetches that timed out or found the owner unreachable (local fallback ran).",
            peer.timeouts,
        );
        let _ = writeln!(
            out,
            "# HELP rtserver_stage_request_nanoseconds_total Wall time attributed per pipeline stage across all requests."
        );
        let _ = writeln!(out, "# TYPE rtserver_stage_request_nanoseconds_total counter");
        for (stage, ns) in flight.stage_totals() {
            let _ = writeln!(
                out,
                "rtserver_stage_request_nanoseconds_total{{stage=\"{}\"}} {ns}",
                escape_label_value(stage)
            );
        }
        // Per-stage DAG counters, labelled by pipeline stage.
        let stages = store.stage_stats();
        for (name, help, value) in [
            (
                "rtserver_stage_cache_hits_total",
                "Pipeline-stage cache hits (artifact reused).",
                (|s: &crpd::StageStats| s.hits) as fn(&crpd::StageStats) -> u64,
            ),
            (
                "rtserver_stage_cache_misses_total",
                "Pipeline-stage cache misses (stage re-ran).",
                |s| s.misses,
            ),
            (
                "rtserver_stage_single_flight_waits_total",
                "Lookups that blocked on another worker's in-flight computation.",
                |s| s.single_flight_waits,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for s in &stages {
                let _ = writeln!(
                    out,
                    "{name}{{stage=\"{}\"}} {}",
                    escape_label_value(s.stage),
                    value(s)
                );
            }
        }
        let _ = writeln!(out, "# HELP rtserver_stage_cache_entries Artifacts held per stage.");
        let _ = writeln!(out, "# TYPE rtserver_stage_cache_entries gauge");
        for s in &stages {
            let _ = writeln!(
                out,
                "rtserver_stage_cache_entries{{stage=\"{}\"}} {}",
                escape_label_value(s.stage),
                s.entries
            );
        }
        for (name, help, value) in [
            (
                "rtserver_requests_total",
                "Handled requests per endpoint.",
                (|r: &EndpointRow| r.hist.count) as fn(&EndpointRow) -> u64,
            ),
            ("rtserver_request_errors_total", "Failed requests per endpoint.", |r| r.errors),
            ("rtserver_shed_total", "Requests shed by admission control per endpoint.", |r| r.shed),
            (
                "rtserver_deadline_misses_total",
                "Requests rejected past their queue-wait deadline per endpoint.",
                |r| r.deadline_misses,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for row in endpoints {
                let endpoint = escape_label_value(row.endpoint);
                let _ = writeln!(out, "{name}{{endpoint=\"{endpoint}\"}} {}", value(row));
            }
        }
        let hist = "rtserver_request_duration_microseconds";
        let _ = writeln!(out, "# HELP {hist} Request latency per endpoint, microseconds.");
        let _ = writeln!(out, "# TYPE {hist} histogram");
        for row in endpoints {
            let name = escape_label_value(row.endpoint);
            let mut cumulative = 0;
            for (i, count) in row.hist.buckets.iter().enumerate() {
                cumulative += count;
                let le = (1u64 << (i + 1)) - 1;
                let _ =
                    writeln!(out, "{hist}_bucket{{endpoint=\"{name}\",le=\"{le}\"}} {cumulative}");
            }
            let count = row.hist.count;
            let _ = writeln!(out, "{hist}_bucket{{endpoint=\"{name}\",le=\"+Inf\"}} {count}");
            let _ = writeln!(out, "{hist}_sum{{endpoint=\"{name}\"}} {}", row.hist.sum_us);
            let _ = writeln!(out, "{hist}_count{{endpoint=\"{name}\"}} {count}");
        }
        out
    }
}

/// Requests shed since startup: the sum of the per-endpoint counters.
pub fn shed_total(endpoints: &[EndpointRow]) -> u64 {
    endpoints.iter().map(|row| row.shed).sum()
}

/// Escapes a label value for the Prometheus text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Checks a Prometheus text exposition for the conformance points the
/// scrape parsers actually reject: the text must end with a newline,
/// every sample's family must carry `# HELP` and `# TYPE` lines *before*
/// its first sample, no family may be declared twice, `# TYPE` must name
/// a known type, label values must use valid escapes, and sample values
/// must parse as numbers.
///
/// Histogram families implicitly declare their `_bucket`/`_sum`/`_count`
/// series; summaries likewise.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut help: BTreeMap<&str, ()> = BTreeMap::new();
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if name.is_empty() {
                return Err(format!("HELP without a family name: `{line}`"));
            }
            if help.insert(name, ()).is_some() {
                return Err(format!("duplicate HELP for family `{name}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(format!("unknown TYPE `{kind}` for family `{name}`"));
            }
            if types.insert(name, kind).is_some() {
                return Err(format!("duplicate TYPE for family `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // Sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).ok_or_else(|| format!("malformed sample `{line}`"))?;
        let name = &line[..name_end];
        let family = types
            .contains_key(name)
            .then_some(name)
            .or_else(|| {
                ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    matches!(types.get(base), Some(&"histogram") | Some(&"summary")).then_some(base)
                })
            })
            .ok_or_else(|| format!("sample `{name}` has no preceding TYPE declaration"))?;
        if !help.contains_key(family) {
            return Err(format!("sample `{name}` has no preceding HELP declaration"));
        }
        let rest = &line[name_end..];
        let value_part = if let Some(labels_and_value) = rest.strip_prefix('{') {
            let close = scan_labels(labels_and_value)
                .map_err(|e| format!("bad labels in `{line}`: {e}"))?;
            labels_and_value[close..].trim_start_matches('}').trim_start()
        } else {
            rest.trim_start()
        };
        let value = value_part.split(' ').next().unwrap_or("");
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("non-numeric sample value `{value}` in `{line}`"));
        }
    }
    Ok(())
}

/// Scans a `name="value",...` label body, validating escapes; returns the
/// byte offset of the closing `}`.
fn scan_labels(body: &str) -> Result<usize, String> {
    let bytes = body.as_bytes();
    let mut i = 0;
    loop {
        if i >= bytes.len() {
            return Err("unterminated label set".into());
        }
        if bytes[i] == b'}' {
            return Ok(i);
        }
        // label name
        let eq = body[i..].find('=').ok_or("label without `=`")? + i;
        if body[i..eq].is_empty() {
            return Err("empty label name".into());
        }
        i = eq + 1;
        if bytes.get(i) != Some(&b'"') {
            return Err("label value must be double-quoted".into());
        }
        i += 1;
        loop {
            match bytes.get(i) {
                None => return Err("unterminated label value".into()),
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\') | Some(b'"') | Some(b'n') => i += 2,
                    _ => return Err("invalid escape in label value".into()),
                },
                Some(_) => i += 1,
            }
        }
        if bytes.get(i) == Some(&b',') {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row whose latencies are fed through the flight recorder's
    /// histogram, so tests can pin exact sums and bucket edges;
    /// `counters` is `[errors, shed, deadline_misses]`.
    fn row(endpoint: &'static str, latencies_us: &[u64], counters: [u64; 3]) -> EndpointRow {
        let hist = LogHistogram::new();
        for &us in latencies_us {
            hist.record(us);
        }
        let [errors, shed, deadline_misses] = counters;
        EndpointRow { endpoint, errors, shed, deadline_misses, hist: hist.snapshot() }
    }

    #[test]
    fn endpoint_rows_merge_flight_and_admission_counters() {
        let metrics = Metrics::default();
        let flight = FlightRecorder::new(8, None);
        flight.begin("ping", 0).finish(true);
        flight.begin("wcrt", 0).finish(false);
        metrics.record_shed("wcrt");
        metrics.record_shed("wcrt");
        metrics.record_shed("sim");
        metrics.record_deadline_miss("wcrt");
        let rows = metrics.endpoint_rows(&flight);
        let names: Vec<&str> = rows.iter().map(|r| r.endpoint).collect();
        assert_eq!(names, ["ping", "sim", "wcrt"], "a shed-only endpoint still gets a row");
        let counts: Vec<(u64, u64, u64, u64)> =
            rows.iter().map(|r| (r.hist.count, r.errors, r.shed, r.deadline_misses)).collect();
        assert_eq!(counts, [(1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 2, 1)]);
        assert_eq!(shed_total(&rows), 3);
    }

    #[test]
    fn snapshot_shape() {
        let metrics = Metrics::default();
        let store = ArtifactStore::default();
        let flight = FlightRecorder::new(8, None);
        let rows = [row("ping", &[2], [0, 0, 0]), row("wcrt", &[300, 700], [1, 2, 1])];
        let admission = AdmissionSnapshot {
            inflight: 1,
            max_inflight: 256,
            open_connections: 3,
            event_threads: 2,
        };
        let snap = metrics.snapshot(&rows, &flight, &store, 4, 3, &admission);
        let wcrt = snap.get("endpoints").unwrap().get("wcrt").unwrap();
        assert_eq!(wcrt.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(wcrt.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(wcrt.get("shed").unwrap().as_u64(), Some(2), "sheds are not requests");
        assert_eq!(wcrt.get("deadline_misses").unwrap().as_u64(), Some(1));
        assert_eq!(wcrt.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(wcrt.get("sum_us").unwrap().as_u64(), Some(1000));
        assert_eq!(wcrt.get("max_us").unwrap().as_u64(), Some(700));
        assert!(wcrt.get("p99_us").unwrap().as_u64().unwrap() >= 700);
        let cache = snap.get("artifact_cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(0));
        let stages = snap.get("stages").unwrap();
        for stage in ["assemble", "analyze", "crpd_cell"] {
            let s = stages.get(stage).unwrap_or_else(|| panic!("stage {stage} in metrics"));
            assert_eq!(s.get("hits").unwrap().as_u64(), Some(0));
            assert_eq!(s.get("misses").unwrap().as_u64(), Some(0));
            assert_eq!(s.get("entries").unwrap().as_u64(), Some(0));
            assert!(s.get("single_flight_waits").unwrap().as_u64().is_some());
        }
        assert!(snap.get("uptime_secs").unwrap().as_u64().is_some());
        let adm = snap.get("admission").unwrap();
        assert_eq!(adm.get("inflight").unwrap().as_u64(), Some(1));
        assert_eq!(adm.get("max_inflight").unwrap().as_u64(), Some(256));
        assert_eq!(adm.get("shed_total").unwrap().as_u64(), Some(2));
        assert_eq!(adm.get("open_connections").unwrap().as_u64(), Some(3));
        assert_eq!(adm.get("event_threads").unwrap().as_u64(), Some(2));
        let ping = snap.get("endpoints").unwrap().get("ping").unwrap();
        assert_eq!(ping.get("shed").unwrap().as_u64(), Some(0));
        assert_eq!(ping.get("deadline_misses").unwrap().as_u64(), Some(0));
        metrics.record_explore(64, 5);
        metrics.record_explore(36, 3);
        let snap = metrics.snapshot(&rows, &flight, &store, 4, 3, &admission);
        let explore = snap.get("explore").unwrap();
        assert_eq!(explore.get("points_total").unwrap().as_u64(), Some(100));
        assert_eq!(explore.get("front_size").unwrap().as_u64(), Some(3), "latest sweep wins");
        let pool = snap.get("analysis_pool").unwrap();
        assert_eq!(pool.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(pool.get("background_workers").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let metrics = Metrics::default();
        let store = ArtifactStore::default();
        let rows = [row("wcrt", &[300, 700], [1, 1, 1])];
        metrics.record_explore(200, 7);
        let pool = rtpar::Pool::new(1);
        pool.install(|| rtpar::par_map_range(4, |i| i));
        // A zero slow threshold captures the one request it records.
        let flight = FlightRecorder::new(8, Some(0));
        let scope = flight.begin("wcrt", 0);
        {
            let _span = rtobs::span("crpd");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        scope.finish(true);
        let admission = AdmissionSnapshot {
            inflight: 5,
            max_inflight: 64,
            open_connections: 9,
            event_threads: 2,
        };
        let text = metrics.prometheus(&rows, &flight, &store, &pool.stats(), &admission);

        // Every metric family carries HELP and TYPE lines.
        for family in [
            "rtserver_uptime_seconds",
            "rtserver_requests_total",
            "rtserver_request_errors_total",
            "rtserver_request_duration_microseconds",
            "rtserver_analysis_pool_queue_depth",
            "rtserver_analysis_pool_items_inline_total",
            "rtserver_analysis_pool_worker_utilization",
            "rtserver_stage_cache_hits_total",
            "rtserver_stage_cache_misses_total",
            "rtserver_stage_cache_entries",
            "rtserver_stage_single_flight_waits_total",
            "rtserver_skyline_points_kept_total",
            "rtserver_skyline_points_pruned_total",
            "rtserver_explore_points_total",
            "rtserver_explore_front_size",
            "rtserver_inflight",
            "rtserver_max_inflight",
            "rtserver_open_connections",
            "rtserver_event_threads",
            "rtserver_shed_total",
            "rtserver_deadline_misses_total",
            "rtserver_flight_records_total",
            "rtserver_slow_requests_total",
            "rtserver_peer_fetch_hits_total",
            "rtserver_peer_fetch_misses_total",
            "rtserver_peer_fetch_timeouts_total",
            "rtserver_ring_owned_keys",
            "rtserver_stage_request_nanoseconds_total",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "missing HELP for {family}");
            assert!(text.contains(&format!("# TYPE {family} ")), "missing TYPE for {family}");
        }
        assert!(text.contains("rtserver_requests_total{endpoint=\"wcrt\"} 2"), "{text}");
        assert!(text.contains("rtserver_request_errors_total{endpoint=\"wcrt\"} 1"), "{text}");
        assert!(text.contains("rtserver_explore_points_total 200"), "{text}");
        assert!(text.contains("rtserver_explore_front_size 7"), "{text}");
        assert!(text.contains("rtserver_analysis_pool_items_inline_total 4"), "{text}");
        for stage in ["assemble", "analyze", "crpd_cell"] {
            assert!(
                text.contains(&format!("rtserver_stage_cache_hits_total{{stage=\"{stage}\"}} 0")),
                "{text}"
            );
            assert!(
                text.contains(&format!("rtserver_stage_cache_entries{{stage=\"{stage}\"}} 0")),
                "{text}"
            );
        }

        // Histogram invariants: cumulative buckets are monotone, +Inf
        // equals _count, and _sum holds the exact total.
        let mut last = 0;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| {
            l.starts_with("rtserver_request_duration_microseconds_bucket{endpoint=\"wcrt\"")
        }) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "buckets must be cumulative: {line}");
            last = value;
            bucket_lines += 1;
        }
        assert_eq!(bucket_lines, rtobs::flight::HIST_BUCKETS + 1, "all buckets plus +Inf");
        assert!(
            text.contains(
                "rtserver_request_duration_microseconds_bucket{endpoint=\"wcrt\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains("rtserver_request_duration_microseconds_sum{endpoint=\"wcrt\"} 1000"),
            "{text}"
        );
        assert!(
            text.contains("rtserver_request_duration_microseconds_count{endpoint=\"wcrt\"} 2"),
            "{text}"
        );
        // 300 µs lands in bucket [256, 512) and 700 µs in [512, 1024),
        // so the le="511" bucket holds exactly one sample.
        assert!(
            text.contains(
                "rtserver_request_duration_microseconds_bucket{endpoint=\"wcrt\",le=\"511\"} 1"
            ),
            "{text}"
        );

        // Admission families carry live values.
        assert!(text.contains("rtserver_inflight 5"), "{text}");
        assert!(text.contains("rtserver_max_inflight 64"), "{text}");
        assert!(text.contains("rtserver_open_connections 9"), "{text}");
        assert!(text.contains("rtserver_event_threads 2"), "{text}");
        assert!(text.contains("rtserver_shed_total{endpoint=\"wcrt\"} 1"), "{text}");
        assert!(text.contains("rtserver_deadline_misses_total{endpoint=\"wcrt\"} 1"), "{text}");
        assert!(text.contains("rtserver_flight_records_total 1"), "{text}");
        assert!(text.contains("rtserver_slow_requests_total 1"), "{text}");
        // Peer families are always exposed; outside cluster mode the
        // counters sit at zero and the node owns its whole (empty) ring.
        assert!(text.contains("rtserver_peer_fetch_hits_total 0"), "{text}");
        assert!(text.contains("rtserver_peer_fetch_misses_total 0"), "{text}");
        assert!(text.contains("rtserver_peer_fetch_timeouts_total 0"), "{text}");
        assert!(text.contains("rtserver_ring_owned_keys 0"), "{text}");
        let crpd = text
            .lines()
            .find(|l| l.starts_with("rtserver_stage_request_nanoseconds_total{stage=\"crpd\"}"))
            .expect("crpd stage line");
        let ns: u64 = crpd.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(ns >= 1_000_000, "the 1 ms span must be attributed: {crpd}");

        // The full exposition passes the conformance validator.
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn escape_label_value_covers_the_three_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn validator_rejects_nonconformant_expositions() {
        // A minimal conformant exposition passes.
        let good = "# HELP m Things.\n# TYPE m counter\nm 1\n";
        validate_prometheus(good).unwrap();
        let good_hist = "# HELP h H.\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n";
        validate_prometheus(good_hist).unwrap();
        let good_labels = "# HELP m M.\n# TYPE m gauge\nm{a=\"x\\\\y\\\"z\\n\",b=\"w\"} 2.5\n";
        validate_prometheus(good_labels).unwrap();

        for (text, needle) in [
            ("", "empty"),
            ("# HELP m M.\n# TYPE m counter\nm 1", "end with a newline"),
            ("m 1\n", "no preceding TYPE"),
            ("# TYPE m counter\nm 1\n", "no preceding HELP"),
            ("# HELP m M.\n# TYPE m counter\n# HELP m M.\nm 1\n", "duplicate HELP"),
            ("# HELP m M.\n# TYPE m counter\n# TYPE m gauge\nm 1\n", "duplicate TYPE"),
            ("# HELP m M.\n# TYPE m frobnicator\nm 1\n", "unknown TYPE"),
            ("# HELP m M.\n# TYPE m counter\nm{a=\"x\\q\"} 1\n", "invalid escape"),
            ("# HELP m M.\n# TYPE m counter\nm{a=\"x} 1\n", "unterminated"),
            ("# HELP m M.\n# TYPE m counter\nm{a=x} 1\n", "double-quoted"),
            ("# HELP m M.\n# TYPE m counter\nm potato\n", "non-numeric"),
            // _bucket series require a histogram/summary TYPE.
            ("# HELP m M.\n# TYPE m counter\nm_bucket{le=\"1\"} 1\n", "no preceding TYPE"),
        ] {
            let err = validate_prometheus(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }
}
