use std::sync::Arc;

use crpd::{AnalyzedProgram, StageStats, StageStore};
use rtcache::CacheGeometry;
use rtcli::CliError;
use rtprogram::Program;
use rtwcet::TimingModel;

/// Memoizes each task's assembled [`Program`] and its
/// [`AnalyzedProgram`] per `(task, geometry, model)`, in the same
/// single-flight `assemble` / `analyze` stages the analysis server keeps.
pub struct LocalStore {
    /// `(name, source)` per task, in spec order.
    tasks: Vec<(String, String)>,
    assemble: StageStore<usize, Arc<Program>>,
    analyze: StageStore<(usize, CacheGeometry, TimingModel), Arc<AnalyzedProgram>>,
}

impl LocalStore {
    /// Creates a store over the sweep's tasks: `(name, assembly source)`
    /// in spec order.
    pub fn new(tasks: Vec<(String, String)>) -> Self {
        LocalStore {
            tasks,
            assemble: StageStore::new("assemble"),
            analyze: StageStore::new("analyze"),
        }
    }

    /// Number of tasks the store serves.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The analyzed artifact of `task` under `(geometry, model)`,
    /// computed on first request and served from the store afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Asm`] or [`CliError::Analysis`] when the
    /// underlying stage fails; failures are not cached.
    pub fn analyzed_program(
        &self,
        task: usize,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<Arc<AnalyzedProgram>, CliError> {
        self.analyze.get_or_compute((task, geometry, model), || {
            let program = self.assemble.get_or_compute(task, || {
                let (name, source) = &self.tasks[task];
                rtcli::assemble_named(name, source).map(Arc::new)
            })?;
            AnalyzedProgram::analyze(&program, geometry, model)
                .map(Arc::new)
                .map_err(|e| CliError::Analysis(e.to_string()))
        })
    }

    /// Counters of the `assemble` and `analyze` stages of this store.
    pub fn stage_stats(&self) -> [StageStats; 2] {
        [self.assemble.stats(), self.analyze.stats()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = ".data 0x100000\nbuf: .word 1,2\n.text 0x1000\n\
                       start: li r1, buf\nld r2, 0(r1)\nhalt\n";

    #[test]
    fn memoizes_per_task_geometry_and_model() {
        let store = LocalStore::new(vec![("a".into(), SRC.into())]);
        let g64 = CacheGeometry::new(64, 2, 16).unwrap();
        let g32 = CacheGeometry::new(32, 2, 16).unwrap();
        let m20 = TimingModel::with_miss_penalty(20);
        let m40 = TimingModel::with_miss_penalty(40);
        let first = store.analyzed_program(0, g64, m20).unwrap();
        let again = store.analyzed_program(0, g64, m20).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "repeat lookups share the artifact");
        let other_geom = store.analyzed_program(0, g32, m20).unwrap();
        assert!(!Arc::ptr_eq(&first, &other_geom), "geometry is part of the key");
        let other_model = store.analyzed_program(0, g64, m40).unwrap();
        assert!(!Arc::ptr_eq(&first, &other_model), "the model is part of the key");
        assert_ne!(first.fingerprint(), other_geom.fingerprint());
    }

    #[test]
    fn assembly_errors_surface_and_are_not_cached() {
        let store = LocalStore::new(vec![("bad".into(), "frobnicate r1\n".into())]);
        let g = CacheGeometry::new(64, 2, 16).unwrap();
        let err = store.analyzed_program(0, g, TimingModel::default()).unwrap_err();
        assert!(matches!(err, CliError::Asm(_)), "{err}");
        assert_eq!(err.to_string(), "assembly failed: bad: line 1: unknown mnemonic `frobnicate`");
        // Still fails (and still reports the assembler) on retry.
        assert!(store.analyzed_program(0, g, TimingModel::default()).is_err());
        let [assemble, analyze] = store.stage_stats();
        assert_eq!((assemble.misses, assemble.entries), (2, 0), "failures are not cached");
        assert_eq!((analyze.misses, analyze.entries), (2, 0));
    }
}
