//! The in-process reference path and the off-the-clock reply check.
//!
//! [`compute`] runs a request along the server's path in process —
//! spec parse, memoised assemble/analyze, bind, CRPD cells, the `rtcli`
//! WCRT report or the `rtexplore` sweep, reply render — and returns the
//! reply frames the server must send. Every served reply must equal
//! them byte for byte. The traced run calls the same function with a
//! recording [`Tracer`], so its spans time exactly this path; the check
//! calls it with [`Tracer::off`].

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crpd::{AnalyzedProgram, AnalyzedTask, CrpdCellCache, TaskParams};
use rtcache::CacheGeometry;
use rtcli::{CliError, SystemSpec};
use rtprogram::Program;
use rtserver::json::Json;
use rtwcet::TimingModel;

use crate::gen::{Kind, Request};
use crate::served::Reply;
use crate::trace::Tracer;

/// The `analyze` key: task name, source, geometry, model.
type AnalysisKey = (String, String, CacheGeometry, TimingModel);

/// Memo stores standing in for the server's `assemble`/`analyze` stages
/// and its shared CRPD cell cache, minus the cross-thread machinery.
#[derive(Default)]
pub struct Store {
    programs: Mutex<HashMap<(String, String), Arc<Program>>>,
    analyses: Mutex<HashMap<AnalysisKey, Arc<AnalyzedProgram>>>,
    /// The CRPD cell cache.
    pub cells: CrpdCellCache,
    /// Programs analysed (store misses) since the last drain.
    missed: Mutex<Vec<(Arc<Program>, Arc<AnalyzedProgram>)>>,
}

impl Store {
    fn analyzed(
        &self,
        tracer: &Tracer,
        name: &str,
        source: &str,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<Arc<AnalyzedProgram>, CliError> {
        let key = (name.to_string(), source.to_string(), geometry, model);
        if let Some(hit) = self.analyses.lock().expect("store lock").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let program_key = (key.0.clone(), key.1.clone());
        let cached = self.programs.lock().expect("store lock").get(&program_key).cloned();
        let program = match cached {
            Some(program) => program,
            None => {
                let program = tracer.time("rtprogram.assemble", || {
                    rtprogram::asm::assemble(name, source).map_err(|e| CliError::Asm(e.to_string()))
                })?;
                let program = Arc::new(program);
                self.programs.lock().expect("store lock").insert(program_key, Arc::clone(&program));
                program
            }
        };
        let analyzed = tracer.time("crpd.analyze", || {
            AnalyzedProgram::analyze(&program, geometry, model)
                .map_err(|e| CliError::Analysis(e.to_string()))
        })?;
        let analyzed = Arc::new(analyzed);
        self.analyses.lock().expect("store lock").insert(key, Arc::clone(&analyzed));
        self.missed.lock().expect("store lock").push((program, Arc::clone(&analyzed)));
        Ok(analyzed)
    }

    /// The programs analysed since the last drain.
    pub fn drain_missed(&self) -> Vec<(Arc<Program>, Arc<AnalyzedProgram>)> {
        std::mem::take(&mut *self.missed.lock().expect("store lock"))
    }

    /// Binds the spec's tasks, analysed at the spec's own L1 shape and
    /// timing model, to their periods and priorities.
    ///
    /// # Errors
    ///
    /// Propagates geometry, assembly and analysis errors.
    pub fn bind(
        &self,
        tracer: &Tracer,
        spec: &SystemSpec,
        sources: &[(String, String)],
    ) -> Result<Vec<AnalyzedTask>, CliError> {
        let geometry = spec.cache.geometry()?;
        let model = spec.cache.model();
        let programs = sources
            .iter()
            .map(|(name, source)| self.analyzed(tracer, name, source, geometry, model))
            .collect::<Result<Vec<_>, CliError>>()?;
        let params: Vec<TaskParams> = spec
            .tasks
            .iter()
            .map(|t| TaskParams { period: t.period, priority: t.priority })
            .collect();
        Ok(tracer.time("crpd.bind", || AnalyzedTask::bind_all(&programs, &params)))
    }
}

/// What the in-process path computed for one request.
pub struct Computed {
    /// The parsed spec.
    pub spec: SystemSpec,
    /// `(task name, source text)` per spec task, in spec order.
    pub sources: Vec<(String, String)>,
    /// The reply frames the server must send, in order.
    pub frames: Vec<String>,
    /// `wcrt`: the bound task set the report was computed on (empty for
    /// `explore`).
    pub tasks: Vec<AnalyzedTask>,
    /// `explore`: Pareto front size.
    pub front_size: u64,
}

/// Runs one request (`grid` set for `explore`) in process against
/// `store`, timing each layer's call under `tracer`.
///
/// # Errors
///
/// Propagates spec, grid, source, assembly and analysis errors.
pub fn compute(
    tracer: &Tracer,
    store: &Store,
    id: u64,
    spec_text: &str,
    sources: &BTreeMap<String, String>,
    grid: Option<&str>,
) -> Result<Computed, CliError> {
    let spec = tracer.time("rtcli.spec_parse", || SystemSpec::parse(spec_text, Path::new("")))?;
    let sources: Vec<(String, String)> = spec
        .tasks
        .iter()
        .map(|task| {
            let file = task.source.to_string_lossy();
            let source = sources
                .get(file.as_ref())
                .ok_or_else(|| CliError::Spec(format!("no inline source for `{}`", task.name)))?;
            Ok((task.name.clone(), source.clone()))
        })
        .collect::<Result<_, CliError>>()?;
    let Some(grid) = grid else {
        let tasks = store.bind(tracer, &spec, &sources)?;
        let output = tracer
            .time("rtcli.wcrt_render", || rtcli::cmd_wcrt_cached(&spec, &tasks, &store.cells))?;
        let frame =
            tracer.time("rtserver.json_render", || rtserver::proto::ok_response(Some(id), &output));
        return Ok(Computed { spec, sources, frames: vec![frame], tasks, front_size: 0 });
    };
    let plan = tracer.time("rtexplore.plan", || {
        rtexplore::Grid::parse(grid).and_then(|g| rtexplore::Plan::new(&spec, &g))
    })?;
    let provider = |task: usize, geometry, model| {
        let (name, source) = &sources[task];
        store.analyzed(tracer, name, source, geometry, model)
    };
    // The frames, built as the server builds them (`run_explore`).
    let mut frames = Vec::new();
    let outcome = tracer.time("rtexplore.sweep", || {
        rtexplore::run_sweep(&plan, &provider, &store.cells, |batch, front| {
            let _span = tracer.span("rtserver.json_render");
            let points = batch
                .iter()
                .map(|point| {
                    Json::obj([
                        ("index", Json::from(point.config.index as u64)),
                        ("schedulable", Json::Bool(point.schedulable)),
                        ("row", Json::from(rtexplore::render_point(point).as_str())),
                    ])
                })
                .collect();
            let frame = Json::obj([
                ("id", Json::from(id)),
                ("ok", Json::Bool(true)),
                ("event", Json::from("points")),
                ("points", Json::Arr(points)),
                ("front_size", Json::from(front.len() as u64)),
            ]);
            frames.push(frame.encode());
        })
    })?;
    let output = tracer.time("rtexplore.explain", || {
        rtexplore::explain_front(&plan, &provider, &store.cells, &outcome.front)
    })?;
    let done = tracer.time("rtserver.json_render", || {
        let front =
            outcome.front.members().iter().map(|m| Json::from(m.config.index as u64)).collect();
        Json::obj([
            ("id", Json::from(id)),
            ("ok", Json::Bool(true)),
            ("event", Json::from("done")),
            ("points_total", Json::from(outcome.points as u64)),
            ("front", Json::Arr(front)),
            ("front_size", Json::from(outcome.front.len() as u64)),
            ("output", Json::from(output.as_str())),
        ])
        .encode()
    });
    frames.push(done);
    Ok(Computed {
        spec,
        sources,
        frames,
        tasks: Vec::new(),
        front_size: outcome.front.len() as u64,
    })
}

/// Why a reply failed the check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// An `ok:false` reply without a typed admission code.
    Error,
    /// `overloaded` or `deadline_exceeded`.
    Refused,
    /// I/O failure, timeout or closed connection.
    Transport,
    /// A successful reply that differs from the in-process path.
    Mismatch,
}

/// Judges a reply against the frames the in-process path produced (or
/// its error); `None` = correct.
pub fn judge(reply: &Reply, expected: Result<&[String], &CliError>) -> Option<Failure> {
    let frames = match reply {
        Err(_) => return Some(Failure::Transport),
        Ok(frames) => frames,
    };
    let last = frames.last().map(String::as_str).unwrap_or("");
    if last.contains(r#""ok":false"#) {
        let refused = last.contains(r#""code":"overloaded""#)
            || last.contains(r#""code":"deadline_exceeded""#);
        return Some(if refused { Failure::Refused } else { Failure::Error });
    }
    (expected.ok() != Some(frames.as_slice())).then_some(Failure::Mismatch)
}

/// Checks every timed reply (request `i` carries id `i`) in parallel
/// over the rtpar pool; returns the failure of each request. With
/// `shared`, one store serves the whole stream, so warm_edit's re-sent
/// systems analyse once; otherwise every request gets a fresh store, so
/// cold streams never hold more than one request's analyses.
pub fn check_all(shared: bool, requests: &[Request], replies: &[&Reply]) -> Vec<Option<Failure>> {
    let store = Store::default();
    let off = Tracer::off();
    rtpar::par_map_range(requests.len(), |i| {
        let request = &requests[i];
        let fresh;
        let store = if shared {
            &store
        } else {
            fresh = Store::default();
            &fresh
        };
        let grid = match &request.kind {
            Kind::Wcrt => None,
            Kind::Explore(grid) => Some(grid.as_str()),
        };
        let computed = compute(&off, store, i as u64, &request.spec, &request.sources, grid);
        judge(replies[i], computed.as_ref().map(|c| c.frames.as_slice()))
    })
}
