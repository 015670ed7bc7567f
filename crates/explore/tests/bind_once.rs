//! A sweep binds each unique `(task, geometry, model)` artifact exactly
//! once. This test installs an `rtobs` session, whose recorder is
//! process-global, so it lives alone in its own test binary: no other
//! test's spans can land in its counts.

use std::path::Path;

use crpd::CrpdCellCache;
use rtcli::SystemSpec;
use rtexplore::{run_sweep, Grid, LocalStore, Plan};

const SPEC: &str = "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n";
const TASK_HI: &str = ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\n\
                       li r3, 4\nloop: ld r2, 0(r1)\naddi r1, r1, 4\naddi r3, r3, -1\n\
                       bne r3, r0, loop\n.bound loop, 4\nhalt\n";
const TASK_LO: &str = ".data 0x100400\nbuf: .word 7,8\n.text 0x2000\nstart: li r1, buf\n\
                       ld r2, 0(r1)\nld r4, 4(r1)\nadd r2, r2, r4\nhalt\n";

#[test]
fn artifacts_bind_once_per_unique_geometry_and_model() {
    // 2 geometries x 2 cmiss x 2 ccs x 2 pscale x 4 approaches = 64
    // points, but only 2x2 unique (geometry, model) keys per task:
    // the recorder must see exactly one analyze span per unique key
    // and a stage hit rate >= 0.9 across the sweep.
    let grid =
        Grid::parse("sets 32 64\ncmiss 20 40\nccs 50 150\nperiod-scale 0.5 1\napproach all\n")
            .unwrap();
    let spec = SystemSpec::parse(SPEC, Path::new("")).unwrap();
    let plan = Plan::new(&spec, &grid).unwrap();
    assert_eq!(plan.len(), 64);
    let store = LocalStore::new(vec![("hi".into(), TASK_HI.into()), ("lo".into(), TASK_LO.into())]);
    let cells = CrpdCellCache::default();
    let provider = |task: usize, geometry, model| store.analyzed_program(task, geometry, model);
    let session = rtobs::begin();
    run_sweep(&plan, &provider, &cells, |_, _| {}).unwrap();
    let stages = session.recorder().stage_durations();
    let counters = session.recorder().counters();
    drop(session);
    let span_count = |stage: &str| stages.get(stage).map(|(count, _)| *count).unwrap_or(0);
    assert_eq!(span_count("analyze"), 2 * 2 * 2, "one analyze per (task, geometry, model)");
    assert_eq!(span_count("assemble"), 2, "one assemble per task");
    assert_eq!(counters.explore.points, 64);
    let analyze = counters.stage_lookups.get("analyze").copied().unwrap_or_default();
    let rate = analyze.hits as f64 / (analyze.hits + analyze.misses) as f64;
    assert!(rate >= 0.9, "analyze stage hit rate {rate} below 0.9");
    // The store's own counters see only this sweep, whatever else runs.
    let [assemble, analyze] = store.stage_stats();
    assert_eq!(assemble.misses, 2, "one assemble per task");
    assert_eq!(analyze.misses, 2 * 2 * 2, "one analyze per (task, geometry, model)");
}
