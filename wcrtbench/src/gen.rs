//! Seeded request generators for the three workloads.
//!
//! The server only ever sees generated text: spec files, grid files and
//! assembly listings. Task programs come from `rtworkloads` and travel as
//! their canonical disassembly (a listing drops input variants, so every
//! task runs its default path).
//!
//! The generators are balanced so that the *multiset* of request costs is
//! the same for every seed: the seed picks orders, names, parameters and
//! edits, while the mix of program sets, geometries and task counts is
//! fixed by the request count. Medians and tail percentiles then compare
//! across seeds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use rtprogram::asm::disassemble;
use rtprogram::Program;
use rtserver::json::Json;
use rtworkloads::synthetic::{synthetic_task, SyntheticSpec};

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection; every request a fresh three-task paper system.
    ColdPaper,
    /// `nproc` connections; params-only edits of a few primed systems.
    WarmEdit,
    /// One connection; every request a design-space sweep over a fresh
    /// synthetic/kernel system.
    ExploreSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::ColdPaper, Workload::WarmEdit, Workload::ExploreSweep];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPaper => "cold_paper",
            Workload::WarmEdit => "warm_edit",
            Workload::ExploreSweep => "explore_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A splitmix64 stream: small, seedable and frozen, so request streams
/// never change under a dependency upgrade.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What the server is asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// `{"cmd":"wcrt"}`: one reply frame.
    Wcrt,
    /// `{"cmd":"explore"}` with this grid text: point frames, then `done`.
    Explore(String),
}

/// One generated request: a spec plus inline sources (task `FILE` field →
/// assembly text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The command.
    pub kind: Kind,
    /// System spec text.
    pub spec: String,
    /// Inline task sources.
    pub sources: BTreeMap<String, String>,
}

impl Request {
    /// The NDJSON frame carrying this request under `id` (no newline).
    pub fn line(&self, id: u64) -> String {
        let sources = Json::Obj(
            self.sources.iter().map(|(k, v)| (k.clone(), Json::from(v.as_str()))).collect(),
        );
        let mut doc = BTreeMap::new();
        doc.insert("id".to_string(), Json::from(id));
        doc.insert("spec".to_string(), Json::from(self.spec.as_str()));
        doc.insert("sources".to_string(), sources);
        match &self.kind {
            Kind::Wcrt => {
                doc.insert("cmd".to_string(), Json::from("wcrt"));
            }
            Kind::Explore(grid) => {
                doc.insert("cmd".to_string(), Json::from("explore"));
                doc.insert("grid".to_string(), Json::from(grid.as_str()));
            }
        }
        Json::Obj(doc).encode()
    }
}

/// A workload's generated inputs: untimed set-up requests (warm-up or
/// priming), then the timed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Sent once per server start, before timing.
    pub setup: Vec<Request>,
    /// The timed, closed-loop stream.
    pub timed: Vec<Request>,
}

/// The paper's six task programs `(label, listing)`, in Table I order.
pub fn paper_programs() -> &'static [(&'static str, String)] {
    static PROGRAMS: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let programs: [(&str, Program); 6] = [
            ("mr", rtworkloads::mobile_robot()),
            ("ed", rtworkloads::edge_detection()),
            ("ofdm", rtworkloads::ofdm_transmitter_with_points(16)),
            ("idct", rtworkloads::idct()),
            ("adpcmd", rtworkloads::adpcm_decoder()),
            ("adpcmc", rtworkloads::adpcm_encoder()),
        ];
        programs.into_iter().map(|(label, p)| (label, disassemble(&p))).collect()
    })
}

/// L1 shapes `(sets, ways, line bytes)` the paper workloads draw from.
pub const PAPER_GEOMETRIES: [(u32, u32, u32); 3] = [(64, 2, 16), (128, 4, 16), (256, 2, 32)];

/// Miss penalties of the paper's Tables III–VI sweep.
const CMISS: [u64; 4] = [10, 20, 30, 40];
/// Context-switch costs: a light kernel and the paper's measured 376.
const CCS: [u64; 2] = [50, 376];

/// cold_paper configurations: every 3-of-6 program subset × geometry.
fn cold_configs() -> Vec<([usize; 3], (u32, u32, u32))> {
    let mut out = Vec::new();
    for a in 0..6 {
        for b in a + 1..6 {
            for c in b + 1..6 {
                for g in PAPER_GEOMETRIES {
                    out.push(([a, b, c], g));
                }
            }
        }
    }
    out
}

/// Number of distinct cold_paper configurations; timed request counts are
/// multiples of it, so every configuration runs equally often.
pub fn cold_config_count() -> usize {
    cold_configs().len()
}

/// A paper-program system spec plus its sources. `names[k]` renames the
/// `k`th chosen program; `params[k]` is its `(period, priority)`.
fn paper_system(
    programs: &[usize],
    names: &[String],
    params: &[(u64, u32)],
    geometry: (u32, u32, u32),
    cmiss: u64,
    ccs: u64,
) -> Request {
    let (sets, ways, line) = geometry;
    let mut spec = format!("cache {sets} {ways} {line}\ncmiss {cmiss}\nccs {ccs}\n");
    let mut sources = BTreeMap::new();
    for ((&p, name), &(period, priority)) in programs.iter().zip(names).zip(params) {
        let _ = writeln!(spec, "task {name} {name}.s {period} {priority}");
        sources.insert(format!("{name}.s"), paper_programs()[p].1.clone());
    }
    Request { kind: Kind::Wcrt, spec, sources }
}

/// Seeded periods (cycles) and a priority permutation for `n` tasks.
fn seeded_params(rng: &mut Rng, n: usize, periods: &[u64]) -> Vec<(u64, u32)> {
    let mut priorities: Vec<u32> = (1..=n as u32).collect();
    rng.shuffle(&mut priorities);
    priorities.into_iter().map(|priority| (rng.pick(periods), priority)).collect()
}

const PAPER_PERIODS: [u64; 5] = [400_000, 800_000, 1_600_000, 3_200_000, 6_400_000];

/// cold_paper: `count` fresh three-task paper systems. Every request
/// renames its tasks (`{label}{salt}n{i}`), so no `assemble`, `analyze`
/// or `crpd_cell` key repeats within a run.
pub fn cold_paper(seed: u64, count: usize) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let salt = rng.next_u64() as u32;
    let make = |tag: &str, i: usize, config: ([usize; 3], (u32, u32, u32)), rng: &mut Rng| {
        let (programs, geometry) = config;
        let names: Vec<String> = programs
            .iter()
            .map(|&p| format!("{}{salt:08x}{tag}{i}", paper_programs()[p].0))
            .collect();
        let params = seeded_params(rng, 3, &PAPER_PERIODS);
        let (cmiss, ccs) = (rng.pick(&CMISS), rng.pick(&CCS));
        paper_system(&programs, &names, &params, geometry, cmiss, ccs)
    };
    // Warm-up requests use their own name tag, so they never pre-populate
    // a timed key, and fixed configurations and parameters, so set-up
    // costs the same for every seed (configurations spread over the
    // program subsets and L1 shapes).
    let configs = cold_configs();
    let mut fixed = Rng::new(0, 1);
    let setup = (0..SETUP_REQUESTS)
        .map(|i| make("w", i, configs[i * configs.len() / SETUP_REQUESTS + i], &mut fixed))
        .collect();
    let mut shuffled = configs;
    rng.shuffle(&mut shuffled);
    let timed = (0..count).map(|i| make("n", i, shuffled[i % shuffled.len()], &mut rng)).collect();
    Inputs { setup, timed }
}

/// Warm-up requests of cold_paper and explore_sweep.
const SETUP_REQUESTS: usize = 4;

/// The warm_edit systems' fixed program compositions (indices into
/// [`paper_programs`]): the paper's two experiments plus three mixes, so
/// each program appears in two or three systems.
pub const WARM_SYSTEMS: [[usize; 3]; 5] = [[0, 1, 2], [3, 4, 5], [0, 3, 5], [1, 4, 0], [2, 5, 4]];

/// A primed warm_edit system's fixed part: task names, L1 shape and miss
/// penalty.
type Primed = (Vec<String>, (u32, u32, u32), u64);

/// warm_edit: set-up primes [`WARM_SYSTEMS`] under seeded names, each
/// with a fixed L1 shape and miss penalty, so priming costs the same for
/// every seed; timed request `i` re-sends system `i mod 5` with seeded
/// periods, priorities and context-switch cost. Names, sources, geometry
/// and miss penalty never change, so every stage key hits.
pub fn warm_edit(seed: u64, count: usize) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let salt = rng.next_u64() as u32;
    let bases: Vec<Primed> = WARM_SYSTEMS
        .iter()
        .enumerate()
        .map(|(s, programs)| {
            let names = programs
                .iter()
                .map(|&p| format!("{}{salt:08x}s{s}", paper_programs()[p].0))
                .collect();
            (names, PAPER_GEOMETRIES[s % PAPER_GEOMETRIES.len()], CMISS[s % CMISS.len()])
        })
        .collect();
    let edit = |s: usize, params: &[(u64, u32)], ccs: u64| {
        let (names, geometry, cmiss) = &bases[s];
        paper_system(&WARM_SYSTEMS[s], names, params, *geometry, *cmiss, ccs)
    };
    // Priming sends each system with priorities 1,2,3 and then 3,2,1: the
    // two orders bound every ordered task pair, so every later priority
    // edit finds its CRPD cells cached.
    let setup = (0..WARM_SYSTEMS.len())
        .flat_map(|s| {
            let period = PAPER_PERIODS[s % PAPER_PERIODS.len()];
            [[1, 2, 3], [3, 2, 1]].map(|order| {
                let params: Vec<(u64, u32)> = order.iter().map(|&p| (period, p)).collect();
                edit(s, &params, CCS[0])
            })
        })
        .collect();
    let timed = (0..count)
        .map(|i| {
            let params = seeded_params(&mut rng, 3, &PAPER_PERIODS);
            let ccs = rng.pick(&CCS);
            edit(i % WARM_SYSTEMS.len(), &params, ccs)
        })
        .collect();
    Inputs { setup, timed }
}

/// The explore_sweep grid: 3 set counts × 2 way counts × 3 period scales ×
/// 3 priority rotations × 4 approaches.
pub const EXPLORE_GRID: &str = "sets 32 64 128\nways 1 2\nline 16\nperiod-scale 0.75 1 1.5\n\
                                priority-rot 0 1 2\napproach all\n";

/// Small synthetic and kernel task programs for explore systems; `slot`
/// staggers code and data bases in cache-index space.
fn explore_task(rng: &mut Rng, name: &str, slot: u64) -> String {
    let code = 0x0001_0000 + 0x0900 * slot;
    let data = 0x0010_0000 + 0x0A40 * slot;
    let program = match rng.below(4) {
        0 => rtworkloads::kernels::fir_filter(code, data, rng.pick(&[4, 6, 8]), rng.pick(&[8, 12])),
        1 => rtworkloads::kernels::crc32(code, data, rng.pick(&[16, 24, 32])),
        _ => {
            let mut spec = SyntheticSpec::new(name, code, data);
            spec.data_words = rng.pick(&[128, 192, 256]);
            spec.outer_iters = rng.pick(&[2, 3, 4]);
            spec.inner_iters = rng.pick(&[16, 24, 32]);
            spec.stride_words = rng.pick(&[1, 2]);
            spec.two_paths = false;
            spec.padding_instrs = rng.pick(&[8, 24, 48]);
            spec.seed = rng.next_u64();
            while spec.inner_iters as usize * spec.stride_words > spec.data_words {
                spec.inner_iters /= 2;
            }
            synthetic_task(&spec)
        }
    };
    disassemble(&program)
}

const EXPLORE_PERIODS: [u64; 4] = [40_000, 80_000, 160_000, 320_000];

/// explore_sweep: `count` sweeps, each over a fresh system of 5 tasks
/// (every fourth request: 4 tasks) against [`EXPLORE_GRID`]. Warm-up
/// sweeps draw their programs and parameters from a fixed stream, so
/// set-up costs the same for every seed; only their names are seeded.
pub fn explore_sweep(seed: u64, count: usize) -> Inputs {
    let mut rng = Rng::new(seed, 3);
    let salt = rng.next_u64() as u32;
    let make = |tag: &str, i: usize, rng: &mut Rng| {
        let n = if i % 4 == 3 { 4 } else { 5 };
        let mut spec =
            format!("cache 64 2 16\ncmiss {}\nccs {}\n", rng.pick(&CMISS), rng.pick(&CCS));
        let mut sources = BTreeMap::new();
        for (k, (period, priority)) in
            seeded_params(rng, n, &EXPLORE_PERIODS).into_iter().enumerate()
        {
            let name = format!("t{k}{salt:08x}{tag}{i}");
            let _ = writeln!(spec, "task {name} {name}.s {period} {priority}");
            sources.insert(format!("{name}.s"), explore_task(rng, &name, k as u64));
        }
        Request { kind: Kind::Explore(EXPLORE_GRID.to_string()), spec, sources }
    };
    let mut fixed = Rng::new(0, 3);
    let setup = (0..SETUP_REQUESTS).map(|i| make("w", i, &mut fixed)).collect();
    let timed = (0..count).map(|i| make("n", i, &mut rng)).collect();
    Inputs { setup, timed }
}

/// The inputs of `workload` for `seed` with `count` timed requests.
pub fn generate(workload: Workload, seed: u64, count: usize) -> Inputs {
    match workload {
        Workload::ColdPaper => cold_paper(seed, count),
        Workload::WarmEdit => warm_edit(seed, count),
        Workload::ExploreSweep => explore_sweep(seed, count),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::path::Path;

    use rtcli::SystemSpec;

    use super::*;

    /// Points per explore_sweep request: [`EXPLORE_GRID`]'s cross product.
    const EXPLORE_POINTS: usize = 3 * 2 * 3 * 3 * 4;

    /// The byte stream a run sends: set-up, then timed frames.
    fn stream(inputs: &Inputs) -> Vec<String> {
        inputs
            .setup
            .iter()
            .chain(&inputs.timed)
            .enumerate()
            .map(|(i, r)| r.line(i as u64))
            .collect()
    }

    /// `(task name, source text)` per spec `task` line, in spec order.
    fn tasks(request: &Request) -> Vec<(String, String)> {
        request
            .spec
            .lines()
            .filter_map(|line| match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["task", name, file, ..] => {
                    Some(((*name).to_string(), request.sources[*file].clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Every task's `analyze` key (`crpd::program_fingerprint`) and
    /// `assemble` key (`(name, source)`).
    fn stage_keys(request: &Request) -> Vec<(u128, (String, String))> {
        let spec = SystemSpec::parse(&request.spec, Path::new("")).expect("generated spec parses");
        let geometry = spec.cache.geometry().expect("generated geometry is valid");
        tasks(request)
            .into_iter()
            .map(|(name, source)| {
                let program = rtprogram::asm::assemble(&name, &source).expect("listing assembles");
                (crpd::program_fingerprint(&program, geometry, spec.cache.model()), (name, source))
            })
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_byte_stream_and_seeds_differ() {
        for workload in Workload::ALL {
            let a = stream(&generate(workload, 7, 24));
            assert_eq!(a, stream(&generate(workload, 7, 24)), "{}", workload.name());
            assert_ne!(a, stream(&generate(workload, 8, 24)), "{}", workload.name());
        }
    }

    #[test]
    fn cold_paper_never_repeats_an_assemble_or_analyze_key() {
        let inputs = cold_paper(3, 2 * cold_config_count());
        let keys: Vec<_> = inputs.setup.iter().chain(&inputs.timed).flat_map(stage_keys).collect();
        let fingerprints: HashSet<u128> = keys.iter().map(|k| k.0).collect();
        let sources: HashSet<&(String, String)> = keys.iter().map(|k| &k.1).collect();
        assert_eq!(fingerprints.len(), keys.len());
        assert_eq!(sources.len(), keys.len());
    }

    #[test]
    fn cold_paper_runs_every_configuration_equally_often() {
        let inputs = cold_paper(11, 2 * cold_config_count());
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for request in &inputs.timed {
            let mut labels: Vec<String> = tasks(request)
                .iter()
                .map(|(name, _)| name.chars().take_while(char::is_ascii_alphabetic).collect())
                .collect();
            labels.sort();
            let cache = request.spec.lines().next().expect("cache line").to_string();
            *seen.entry(format!("{cache} {}", labels.join(","))).or_default() += 1;
        }
        assert_eq!(seen.len(), cold_config_count());
        assert!(seen.values().all(|&n| n == 2), "{seen:?}");
    }

    /// A request with its task names blanked: what it costs to serve.
    fn unnamed(request: &Request) -> (String, Vec<String>) {
        let mut spec = request.spec.clone();
        let mut sources = Vec::new();
        for (name, source) in tasks(request) {
            spec = spec.replace(&name, "_");
            sources.push(source.replace(&name, "_"));
        }
        (spec, sources)
    }

    #[test]
    fn set_up_traffic_differs_across_seeds_only_in_names() {
        for workload in Workload::ALL {
            let (a, b) = (generate(workload, 7, 24).setup, generate(workload, 8, 24).setup);
            assert_ne!(a, b, "{}", workload.name());
            let unnamed = |r: &[Request]| r.iter().map(unnamed).collect::<Vec<_>>();
            assert_eq!(unnamed(&a), unnamed(&b), "{}", workload.name());
        }
    }

    #[test]
    fn warm_edit_times_exactly_the_primed_keys() {
        let inputs = warm_edit(5, 50);
        let primed: HashSet<_> = inputs.setup.iter().flat_map(stage_keys).collect();
        let timed: HashSet<_> = inputs.timed.iter().flat_map(stage_keys).collect();
        assert_eq!(primed, timed);
        assert_eq!(primed.len(), 3 * WARM_SYSTEMS.len());
    }

    #[test]
    fn explore_sweep_point_count_is_fixed() {
        for seed in 1..4 {
            for request in &explore_sweep(seed, 8).timed {
                let Kind::Explore(grid) = &request.kind else { panic!("explore request") };
                let spec = SystemSpec::parse(&request.spec, Path::new("")).expect("spec parses");
                let grid = rtexplore::Grid::parse(grid).expect("grid parses");
                let plan = rtexplore::Plan::new(&spec, &grid).expect("plan builds");
                assert_eq!(plan.len(), EXPLORE_POINTS);
            }
        }
    }
}
