//! The content-addressed artifact DAG behind the analysis server.
//!
//! The pipeline is staged — assemble → per-path trace/RMB-LMB → CIIP
//! footprints → WCET → pairwise CRPD bounds → WCRT recurrence — and each
//! stage's artifact is memoized under a key built from exactly what that
//! stage depends on:
//!
//! | stage       | artifact                    | key                               |
//! |-------------|-----------------------------|-----------------------------------|
//! | `assemble`  | [`Program`]                 | `hash128(name, source)`           |
//! | `analyze`   | [`AnalyzedProgram`]         | `(program_hash, geometry, model)` |
//! | `crpd_cell` | reload bound (lines)        | `(approach, prog_a, prog_b)`      |
//!
//! Scheduling parameters appear in **no** key: a period or priority edit
//! rebinds the cached [`AnalyzedProgram`] ([`crpd::AnalyzedTask::bind`],
//! O(1)) and re-runs only the WCRT fixpoint. A source edit re-keys all
//! three stages; a geometry/model edit re-keys `analyze` and (through the
//! artifact fingerprints) `crpd_cell` while reusing `assemble`.
//!
//! Every stage is a single-flight [`crpd::StageStore`]: concurrent
//! requests for one key run the stage once and share its [`Arc`].
//! Results are immutable once computed, so no invalidation is ever
//! needed: changed content simply hashes to a new key, and stale keys age
//! out only when the server restarts. Failed stages are not cached.

use std::sync::Arc;

use crpd::{AnalyzedProgram, AnalyzedTask, CrpdCellCache, StageStats, StageStore, TaskParams};
use rtcache::CacheGeometry;
use rtcli::CliError;
use rtprogram::Program;
use rtwcet::TimingModel;

/// 128-bit content hash of a task's name and assembly source — the
/// `assemble` stage key. Two independent FNV-1a streams over
/// length-prefixed fields (see [`crpd::content_hash128`]), so
/// `("ab", "c")` and `("a", "bc")` hash differently and collisions are
/// birthday-bound far beyond any realistic artifact population.
pub fn program_hash(name: &str, source: &str) -> u128 {
    crpd::content_hash128([name.as_bytes(), source.as_bytes()])
}

/// The `analyze` stage key: everything an [`AnalyzedProgram`] depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalysisKey {
    /// [`program_hash`] of the task name and source text.
    pub program_hash: u128,
    /// Cache geometry analyzed under.
    pub geometry: CacheGeometry,
    /// Timing model analyzed under.
    pub model: TimingModel,
}

/// Routing key for cluster sharding: a hash of everything in an
/// [`AnalysisKey`], fed to the consistent-hash ring. Derived with the
/// same length-prefixed 128-bit content hash as [`program_hash`], so
/// every node (whatever its thread count or start order) maps a key to
/// the same owner.
pub fn route_key(key: &AnalysisKey) -> u128 {
    crpd::content_hash128([
        key.program_hash.to_le_bytes().as_slice(),
        format!("{:?}", key.geometry).as_bytes(),
        format!("{:?}", key.model).as_bytes(),
    ])
}

/// Default bound on the cluster replica store (artifacts fetched from
/// peers); owned artifacts are never evicted.
pub const DEFAULT_REPLICA_CAPACITY: usize = 256;

/// The server's artifact DAG: per-stage single-flight stores plus the
/// shared CRPD pairwise-cell cache.
///
/// In cluster mode the `analyze` stage is sharded: each key has one
/// *owner* node (consistent hashing over [`route_key`]), and only the
/// owner caches it in `analyses`. Other nodes hold a fetched copy in
/// the bounded `replicas` store, which is why per-node peak memory
/// drops roughly `N`× while the cluster-wide recompute count matches a
/// single node's.
#[derive(Debug)]
pub struct ArtifactStore {
    programs: StageStore<u128, Arc<Program>>,
    analyses: StageStore<AnalysisKey, Arc<AnalyzedProgram>>,
    /// Bounded cache of artifacts owned by *other* nodes; unused (and
    /// empty) outside cluster mode.
    replicas: StageStore<AnalysisKey, Arc<AnalyzedProgram>>,
    cells: CrpdCellCache,
    cluster: Option<Arc<crate::cluster::Cluster>>,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore {
            programs: StageStore::new("assemble"),
            analyses: StageStore::new("analyze"),
            replicas: StageStore::with_capacity("peer_replica", DEFAULT_REPLICA_CAPACITY),
            cells: CrpdCellCache::default(),
            cluster: None,
        }
    }
}

impl ArtifactStore {
    /// Returns the task bound to `params` over the memoized
    /// [`AnalyzedProgram`] for `(name, source, geometry, model)`,
    /// assembling and analyzing only on first use.
    ///
    /// Params are bound *after* the cache: a request differing only in
    /// period/priority hits both the `assemble` and `analyze` stages and
    /// re-runs zero pipeline spans.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Asm`] or [`CliError::Analysis`] from the
    /// underlying pipeline; errors are never cached.
    pub fn analyzed(
        &self,
        name: &str,
        source: &str,
        params: TaskParams,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<AnalyzedTask, CliError> {
        Ok(AnalyzedTask::bind(self.analyzed_program(name, source, geometry, model)?, params))
    }

    /// The params-free half of [`analyzed`]: the memoized
    /// [`AnalyzedProgram`] for `(name, source, geometry, model)`. This is
    /// the provider surface `explore` sweeps bind against — every sweep
    /// point rebinds these shared artifacts with its own scheduling
    /// parameters, so the whole grid shares one `assemble`/`analyze` run
    /// per unique key.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Asm`] or [`CliError::Analysis`] from the
    /// underlying pipeline; errors are never cached.
    ///
    /// [`analyzed`]: ArtifactStore::analyzed
    pub fn analyzed_program(
        &self,
        name: &str,
        source: &str,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<Arc<AnalyzedProgram>, CliError> {
        let key = AnalysisKey { program_hash: program_hash(name, source), geometry, model };
        if let Some(cluster) = &self.cluster {
            if !cluster.owns(route_key(&key)) {
                return self.replicated_program(cluster, &key, name, source);
            }
        }
        self.analyzed_program_local(&key, name, source)
    }

    /// [`analyzed_program`] without cluster routing: always resolves
    /// `key` (whose `program_hash` is that of `name` and `source`)
    /// through the local `assemble`/`analyze` stores. This is what the
    /// `peer_get` handler calls — the owner must answer from its own
    /// stages, never forward the key onward.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Asm`] or [`CliError::Analysis`] from the
    /// underlying pipeline; errors are never cached.
    ///
    /// [`analyzed_program`]: ArtifactStore::analyzed_program
    pub fn analyzed_program_local(
        &self,
        key: &AnalysisKey,
        name: &str,
        source: &str,
    ) -> Result<Arc<AnalyzedProgram>, CliError> {
        let program = self.program(key, name, source)?;
        self.analyses.get_or_compute(*key, || {
            AnalyzedProgram::analyze(&program, key.geometry, key.model)
                .map(Arc::new)
                .map_err(|e| CliError::Analysis(e.to_string()))
        })
    }

    /// The memoized `assemble` stage for `key`'s program.
    fn program(
        &self,
        key: &AnalysisKey,
        name: &str,
        source: &str,
    ) -> Result<Arc<Program>, CliError> {
        self.programs
            .get_or_compute(key.program_hash, || rtcli::assemble_named(name, source).map(Arc::new))
    }

    /// The replica path for a key this node does not own: fetch from the
    /// owner (under the replica store's single-flight, so concurrent
    /// local requests share one fetch), falling back to a local compute
    /// on any peer failure. The fallback lands in `replicas` — not
    /// `analyses` — so the `analyze` miss counter keeps meaning "stages
    /// this node ran as owner-or-single-node", and is pushed back to the
    /// owner best-effort so the cluster converges.
    fn replicated_program(
        &self,
        cluster: &Arc<crate::cluster::Cluster>,
        key: &AnalysisKey,
        name: &str,
        source: &str,
    ) -> Result<Arc<AnalyzedProgram>, CliError> {
        self.replicas.get_or_compute(*key, || {
            let _span = rtobs::span_labeled("peer_fetch", || name.to_string());
            match cluster.fetch(key, name, source) {
                Ok(artifact) => Ok(Arc::new(artifact)),
                Err(error) => {
                    // Dead or unhelpful peer: compute here (latency, not
                    // correctness, is what the failure costs).
                    eprintln!("trisc cluster: peer fetch for `{name}` failed ({error}); computing locally");
                    let program = self.program(key, name, source)?;
                    let artifact =
                        AnalyzedProgram::analyze(&program, key.geometry, key.model)
                            .map_err(|e| CliError::Analysis(e.to_string()))?;
                    cluster.offer(key, &artifact);
                    Ok(Arc::new(artifact))
                }
            }
        })
    }

    /// A store that routes the `analyze` stage through `cluster`, with
    /// the peer-replica cache bounded to `replica_capacity` artifacts.
    pub fn with_cluster(cluster: Arc<crate::cluster::Cluster>, replica_capacity: usize) -> Self {
        ArtifactStore {
            replicas: StageStore::with_capacity("peer_replica", replica_capacity),
            cluster: Some(cluster),
            ..ArtifactStore::default()
        }
    }

    /// The cluster this store routes through, if any.
    pub fn cluster(&self) -> Option<&Arc<crate::cluster::Cluster>> {
        self.cluster.as_ref()
    }

    /// The bounded cache of artifacts owned by other nodes.
    pub fn replicas(&self) -> &StageStore<AnalysisKey, Arc<AnalyzedProgram>> {
        &self.replicas
    }

    /// Number of resident `analyze` artifacts whose [`route_key`] this
    /// node owns. Outside cluster mode a node is its own one-member ring,
    /// so this equals [`len`](ArtifactStore::len); in cluster mode
    /// fallback-computed keys live in `replicas`, so every `analyses`
    /// resident is owned unless the ring changed underneath us.
    pub fn ring_owned_keys(&self) -> u64 {
        match &self.cluster {
            None => self.analyses.len() as u64,
            Some(cluster) => {
                self.analyses.keys().iter().filter(|key| cluster.owns(route_key(key))).count()
                    as u64
            }
        }
    }

    /// The memoized `assemble` stage.
    pub fn programs(&self) -> &StageStore<u128, Arc<Program>> {
        &self.programs
    }

    /// The memoized `analyze` stage.
    pub fn analyses(&self) -> &StageStore<AnalysisKey, Arc<AnalyzedProgram>> {
        &self.analyses
    }

    /// The shared CRPD pairwise-cell cache (`crpd_cell` stage).
    pub fn cells(&self) -> &CrpdCellCache {
        &self.cells
    }

    /// `analyze`-stage hits — the store's headline counter (analysis
    /// dominates request latency, so this is what "artifact cache hit"
    /// has always meant in `metrics`).
    pub fn hits(&self) -> u64 {
        self.analyses.hits()
    }

    /// `analyze`-stage misses.
    pub fn misses(&self) -> u64 {
        self.analyses.misses()
    }

    /// Number of distinct analysis artifacts currently held.
    pub fn len(&self) -> usize {
        self.analyses.len()
    }

    /// `true` if no analysis artifact has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.analyses.is_empty()
    }

    /// Counters of every stage, in pipeline order.
    pub fn stage_stats(&self) -> [StageStats; 3] {
        [self.programs.stats(), self.analyses.stats(), self.cells.stats()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TASK: &str =
        "start: li r1, 5\nloop: addi r1, r1, -1\nbne r1, r0, loop\n.bound loop, 5\nhalt\n";

    fn params(priority: u32) -> TaskParams {
        TaskParams { period: 10_000, priority }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let store = ArtifactStore::default();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        let a = store.analyzed("t", TASK, params(1), g, m).unwrap();
        assert_eq!((store.hits(), store.misses(), store.len()), (0, 1, 1));
        let b = store.analyzed("t", TASK, params(1), g, m).unwrap();
        assert_eq!((store.hits(), store.misses(), store.len()), (1, 1, 1));
        assert!(Arc::ptr_eq(a.program(), b.program()), "hits must share the artifact, not copy it");
        assert_eq!((store.programs().hits(), store.programs().misses()), (1, 1));
    }

    #[test]
    fn params_only_changes_hit_every_stage() {
        let store = ArtifactStore::default();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        let a = store.analyzed("t", TASK, params(1), g, m).unwrap();
        // Different scheduling parameters: same program artifact, rebound.
        let b = store.analyzed("t", TASK, params(2), g, m).unwrap();
        assert_eq!((store.hits(), store.misses(), store.len()), (1, 1, 1));
        assert!(Arc::ptr_eq(a.program(), b.program()));
        assert_eq!(b.params(), &params(2));
    }

    #[test]
    fn content_and_model_changes_miss_the_right_stages() {
        let store = ArtifactStore::default();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        store.analyzed("t", TASK, params(1), g, m).unwrap();
        // Different source content under the same name: every stage misses.
        store.analyzed("t", "start: halt\n", params(1), g, m).unwrap();
        // Different geometry: assemble hits, analyze misses.
        store.analyzed("t", TASK, params(1), CacheGeometry::new(64, 2, 16).unwrap(), m).unwrap();
        // Different timing model: assemble hits, analyze misses.
        store.analyzed("t", TASK, params(1), g, TimingModel::with_miss_penalty(40)).unwrap();
        assert_eq!((store.misses(), store.len()), (4, 4));
        assert_eq!(store.hits(), 0);
        assert_eq!((store.programs().misses(), store.programs().len()), (2, 2));
        assert_eq!(store.programs().hits(), 2);
    }

    #[test]
    fn name_is_part_of_the_content() {
        // The task name appears in rendered reports, so artifacts under
        // different names must not alias even with identical source.
        assert_ne!(program_hash("a", "x"), program_hash("b", "x"));
        assert_ne!(program_hash("ab", "c"), program_hash("a", "bc"));
    }

    #[test]
    fn errors_are_not_cached() {
        let store = ArtifactStore::default();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        let err = store.analyzed("bad", "frobnicate r1\n", params(1), g, m).unwrap_err();
        assert!(matches!(err, CliError::Asm(_)));
        assert_eq!(err.to_string(), "assembly failed: bad: line 1: unknown mnemonic `frobnicate`");
        assert!(store.is_empty());
        assert!(store.programs().is_empty(), "a failed assemble must clear its slot");
        // The failed stage retries (and fails again) on the next request.
        store.analyzed("bad", "frobnicate r1\n", params(1), g, m).unwrap_err();
        assert_eq!(store.programs().misses(), 2);
    }
}
