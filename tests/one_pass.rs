//! One simulator pass per path: `AnalyzedProgram::analyze` runs each
//! feasible path once, classifying accesses as the simulator emits them,
//! and takes the WCET from that pass. These tests hold it to the
//! reference implementations — `UsefulTrace::from_trace` over a
//! materialized `trace_variant`, and `rtwcet::estimate_wcet` — and pin
//! the line bound the construction sweep records.

use proptest::prelude::*;

use preempt_wcrt::analysis::{AnalysisError, AnalyzedProgram, UsefulTrace};
use preempt_wcrt::cache::{CacheGeometry, Ciip, MemoryBlock, PackedFootprint};
use preempt_wcrt::program::sim::{trace_variant, AccessKind, MemoryAccess, Trace};
use preempt_wcrt::program::Program;
use preempt_wcrt::wcet::{estimate_wcet, TimingModel};
use preempt_wcrt::workloads::kernels;

/// The paper's L1, the benchmark's three L1 shapes and one geometry whose
/// way count does not pack into a byte (no skyline).
fn geometries() -> Vec<CacheGeometry> {
    let mut all = vec![CacheGeometry::paper_l1()];
    for (sets, ways, line) in [(64, 2, 16), (128, 4, 16), (256, 2, 32), (4, 300, 16)] {
        all.push(CacheGeometry::new(sets, ways, line).expect("valid geometry"));
    }
    all
}

/// Checks one program under every geometry: each fused path equals the
/// two-pass reference, and the derived WCET equals `estimate_wcet`.
fn assert_one_pass_matches_reference(program: &Program) {
    let model = TimingModel::default();
    for geometry in geometries() {
        let at = format!("{} under {geometry:?}", program.name());
        let analyzed = AnalyzedProgram::analyze(program, geometry, model).expect("analyzes");
        let reference = estimate_wcet(program, geometry, model).expect("estimates");
        assert_eq!(analyzed.wcet(), reference.cycles, "WCET of {at}");
        assert_eq!(analyzed.paths().len(), program.variants().len(), "{at}");
        let mut union = Ciip::empty(geometry);
        for (i, variant) in program.variants().iter().enumerate() {
            let trace = trace_variant(program, variant).expect("traces");
            let expected = UsefulTrace::from_trace(&trace, geometry);
            let run = UsefulTrace::simulate(program, variant, geometry).expect("simulates");
            assert_eq!(run.trace.accesses(), expected.accesses(), "{at}/{}", variant.name);
            assert_eq!(run.trace, expected, "{at}/{}", variant.name);
            assert_eq!(run.blocks, expected.all_blocks(), "{at}/{}", variant.name);
            assert_eq!(run.instructions, trace.instructions, "{at}/{}", variant.name);
            let timing = &reference.per_variant[i];
            assert_eq!(run.misses, timing.misses, "{at}/{}", variant.name);
            assert_eq!(model.cycles(run.instructions, run.misses), timing.cycles);
            let path = &analyzed.paths()[i];
            assert_eq!(path.trace, expected, "{at}/{}", variant.name);
            assert_eq!(path.blocks, run.blocks, "{at}/{}", variant.name);
            union = union.union(&path.blocks);
        }
        assert_eq!(analyzed.all_blocks(), &union, "{at}");
    }
}

#[test]
fn paper_programs_take_one_pass_per_path() {
    let mut programs = preempt_wcrt::workloads::experiment1();
    programs.extend(preempt_wcrt::workloads::experiment2());
    // The benchmark's unimodal OFDM frame.
    programs.push(preempt_wcrt::workloads::ofdm_transmitter_with_points(16));
    for program in &programs {
        assert_one_pass_matches_reference(program);
    }
}

#[test]
fn kernel_library_takes_one_pass_per_path() {
    for program in [
        kernels::fir_filter(0x0005_0000, 0x0030_0000, 8, 32),
        kernels::matrix_multiply(0x0005_4000, 0x0030_0000, 8),
        kernels::crc32(0x0005_8000, 0x0030_0000, 64),
        kernels::histogram(0x0005_c000, 0x0030_0000, 128, 16),
        kernels::insertion_sort(0x0006_0000, 0x0030_0000, 32),
    ] {
        assert_one_pass_matches_reference(&program);
    }
}

#[test]
fn corpus_tasks_take_one_pass_per_path() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "spec"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "tests/corpus must not be empty");
    for path in files {
        let spec = rtfuzz::FuzzSpec::parse(&std::fs::read_to_string(&path).expect("readable"))
            .expect("corpus spec parses");
        let built = rtfuzz::oracle::build(&spec).expect("corpus system builds");
        for (program, task) in built.programs.iter().zip(&built.analyzed) {
            // The spec's own geometry, plus the shared list.
            let reference = estimate_wcet(program, built.geometry, built.model).expect("estimates");
            assert_eq!(task.wcet(), reference.cycles, "{}: {}", path.display(), program.name());
            assert_one_pass_matches_reference(program);
        }
    }
}

/// A program whose load hits no data segment.
fn faulting_program() -> Program {
    preempt_wcrt::program::asm::assemble(
        "faulty",
        ".text 0x1000\nstart: li r1, 0x7000000\nld r2, 0(r1)\nhalt\n",
    )
    .expect("assembles")
}

#[test]
fn a_faulting_path_is_a_typed_exec_error_naming_the_task() {
    let error = AnalyzedProgram::analyze(
        &faulting_program(),
        CacheGeometry::new(64, 2, 16).expect("valid geometry"),
        TimingModel::default(),
    )
    .expect_err("the load faults");
    assert!(
        matches!(&error, AnalysisError::Exec { task, variant, .. }
            if task == "faulty" && variant == "default"),
        "{error:?}"
    );
    assert_eq!(
        error.to_string(),
        "simulating task `faulty`, variant `default`: \
         at pc 0x1004: access to unmapped data address 0x7000000"
    );
}

fn trace_of(blocks: &[u64], geometry: CacheGeometry) -> Trace {
    Trace {
        accesses: blocks
            .iter()
            .map(|b| MemoryAccess {
                pc: 0,
                addr: b << geometry.offset_bits(),
                kind: AccessKind::Load,
            })
            .collect(),
        instructions: blocks.len() as u64,
    }
}

fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    (0u32..=4, 1u32..=8).prop_map(|(set_log, ways)| {
        CacheGeometry::new(1 << set_log, ways, 16).expect("valid geometry")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dense construction sweep records the same Approach 3 line
    /// bound as a brute-force maximum over materialized useful sets, with
    /// or without a skyline, and the skyline search equals the exact
    /// Eq. 3 sweep for random preemptor footprints.
    #[test]
    fn dense_sweep_matches_brute_force(geom in arb_geometry(),
                                       blocks in prop::collection::vec(0u64..64, 0..200),
                                       mb in prop::collection::vec(0u64..64, 0..48)) {
        let wide = CacheGeometry::new(geom.sets(), 256 + geom.ways(), 16).expect("valid geometry");
        for geometry in [geom, wide] {
            let t = UsefulTrace::from_trace(&trace_of(&blocks, geometry), geometry);
            prop_assert_eq!(t.skyline_kept().is_some(), geometry.ways() <= 255);
            let brute = (0..t.len()).map(|pos| t.useful_at(pos).line_bound()).max().unwrap_or(0);
            prop_assert_eq!(t.max_line_bound().0, brute);
            prop_assert_eq!(t.useful_line_bound(), brute);
            let ciip = Ciip::from_blocks(geometry, mb.iter().map(|b| MemoryBlock::new(*b)));
            if let Some(packed) = PackedFootprint::from_ciip(&ciip) {
                prop_assert_eq!(t.max_packed_overlap(&packed), t.max_overlap_bound(&ciip).0);
            }
        }
    }
}
