//! The public batch-dynamic index (Algorithm 1 and its variants).
//!
//! [`BatchIndex`] separates the two roles a production index serves:
//!
//! * **Writer** — the index owns a mutable working snapshot (graph +
//!   labelling `Γ′`) that [`BatchIndex::apply_batch`] repairs in place,
//!   reading the immutable published generation `Γ` as the
//!   old-labelling oracle of Algorithm 1.
//! * **Readers** — [`BatchIndex::reader`] hands out cheap
//!   `Send + Sync` [`Reader`] handles that answer queries against the
//!   published generation without locks, even while a batch is being
//!   applied on another thread.
//!
//! After repair the working snapshot is published with a single atomic
//! swap and the previous generation's buffers are recycled (only the
//! affected entries are re-synced), so the steady-state cost per batch
//! is `O(affected + batch)`, not `O(|R|·|V|)`.
//!
//! The per-landmark search→repair loop itself lives in
//! [`crate::engine`], shared with the directed and weighted variants;
//! `threads > 1` in the config runs it with landmark-level parallelism
//! (BHLₚ, Section 6).

use crate::engine::{self, BfsKernel};
use crate::reader::{Reader, SharedReader, SnapshotQuery};
use crate::stats::UpdateStats;
use crate::workspace::UpdateWorkspace;
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::{Batch, CsrDelta, DynamicGraph, VertexRemap};
use batchhl_hcl::{
    build_labelling_parallel, LabelStore, Labelling, LandmarkSelection, QueryEngine, Versioned,
};
use std::sync::Arc;
use std::time::Instant;

pub use batchhl_graph::csr::CompactionPolicy;

/// Which published variant performs the update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// BHL: basic batch search (Algorithm 2) + batch repair.
    Bhl,
    /// BHL⁺: improved batch search (Algorithm 3) + batch repair.
    BhlPlus,
    /// BHLₛ: deletions and insertions processed as two sequential
    /// sub-batches (each with the basic search).
    BhlS,
    /// UHL: every update processed alone (single-update setting).
    Uhl,
    /// UHL⁺: single-update setting with the improved search.
    UhlPlus,
}

impl Algorithm {
    pub(crate) fn improved_search(self) -> bool {
        matches!(self, Algorithm::BhlPlus | Algorithm::UhlPlus)
    }

    /// Display name matching the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            Algorithm::Bhl => "BHL",
            Algorithm::BhlPlus => "BHL+",
            Algorithm::BhlS => "BHLs",
            Algorithm::Uhl => "UHL",
            Algorithm::UhlPlus => "UHL+",
        }
    }
}

/// Index configuration.
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// How to choose the landmark set (paper default: 20 top-degree).
    pub selection: LandmarkSelection,
    /// Update variant.
    pub algorithm: Algorithm,
    /// Worker threads for construction and updates. `> 1` turns BHL⁺
    /// into the paper's BHLₚ.
    pub threads: usize,
    /// When published CSR views compact their delta overlay — one
    /// policy shared by all index families (undirected, directed,
    /// weighted).
    pub compaction: CompactionPolicy,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            selection: LandmarkSelection::paper_default(),
            algorithm: Algorithm::BhlPlus,
            threads: 1,
            compaction: CompactionPolicy::default(),
        }
    }
}

impl IndexConfig {
    /// The paper's BHLₚ configuration.
    pub fn parallel(threads: usize) -> Self {
        IndexConfig {
            threads,
            ..Default::default()
        }
    }
}

/// One immutable generation of the undirected index: the graph, the
/// labelling that describes it, and the frozen CSR view of the graph
/// that queries and landmark searches traverse. Readers always see a
/// whole snapshot — never a labelling paired with a graph from a
/// different generation.
///
/// `graph` is the writer's mutation substrate (and the replay source
/// for buffer recycling); `view` is the publication format: a flat CSR
/// base shared across generations plus the delta overlay of the
/// batches since the last compaction (see [`batchhl_graph::csr`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSnapshot {
    pub graph: DynamicGraph,
    pub lab: Labelling,
    pub view: CsrDelta,
}

impl IndexSnapshot {
    fn new(graph: DynamicGraph, lab: Labelling) -> Self {
        let view = CsrDelta::from_adjacency(&graph);
        IndexSnapshot { graph, lab, view }
    }

    fn placeholder() -> Self {
        IndexSnapshot::new(
            DynamicGraph::new(0),
            Labelling::empty(0, Vec::new()).expect("empty labelling is valid"),
        )
    }
}

/// What one pass changed — enough to replay it onto a recycled buffer.
#[derive(Debug)]
struct PassLog {
    norm: Batch,
    /// Distinct endpoints of `norm` — the vertices the CSR overlay
    /// must re-freeze after replaying the batch.
    touched: Vec<Vertex>,
    affected: engine::AffectedLists,
}

/// Batch-dynamic distance index over an undirected graph.
///
/// Cloning copies the working snapshot into an independent index with
/// its own (single-generation) store; reader handles of the original
/// keep following the original.
pub struct BatchIndex {
    /// The writer's working snapshot: the current graph and `Γ′`.
    work: IndexSnapshot,
    /// Published generations; outside `apply_batch` the newest one has
    /// the same content as `work`.
    store: LabelStore<IndexSnapshot>,
    /// Retired-buffer recycling (see [`engine::Recycler`]).
    recycler: engine::Recycler<IndexSnapshot, PassLog>,
    /// Holds the CSR compaction policy too — it is re-applied to the
    /// view every pass, because publish/recycle swaps the working
    /// snapshot for a buffer that predates any setter call.
    config: IndexConfig,
    ws: UpdateWorkspace,
    engine: QueryEngine,
}

impl Clone for BatchIndex {
    fn clone(&self) -> Self {
        let n = self.work.graph.num_vertices();
        BatchIndex {
            work: self.work.clone(),
            store: LabelStore::new(self.work.clone()),
            recycler: engine::Recycler::new(),
            config: self.config.clone(),
            ws: UpdateWorkspace::new(n),
            engine: QueryEngine::new(n),
        }
    }
}

impl BatchIndex {
    /// Build the index: select landmarks, construct the minimal
    /// labelling (`O(|R|·(|V|+|E|))`). The graph is frozen into a CSR
    /// snapshot first, so every per-landmark construction BFS runs over
    /// flat arrays.
    pub fn build(graph: DynamicGraph, config: IndexConfig) -> Self {
        let landmarks = config.selection.select(&graph);
        let view = CsrDelta::from_adjacency(&graph);
        let lab = build_labelling_parallel(&view, landmarks, config.threads.max(1))
            .expect("selected landmarks are valid");
        Self::assemble_snapshot(IndexSnapshot { graph, lab, view }, config)
    }

    /// Build over a degree-descending relabeling of `graph`: vertices
    /// are renumbered so hubs get the smallest ids, packing the hottest
    /// neighbourhoods into the front of the CSR arrays. The returned
    /// [`VertexRemap`] translates between original and index ids
    /// (`remap.to_new` for query endpoints, `remap.map_batch` for
    /// updates).
    pub fn new_reordered(graph: DynamicGraph, config: IndexConfig) -> (Self, VertexRemap) {
        let remap = VertexRemap::degree_descending(&graph);
        let relabeled = graph.relabeled(&remap);
        (Self::build(relabeled, config), remap)
    }

    /// Convenience: build with the default configuration.
    pub fn with_defaults(graph: DynamicGraph) -> Self {
        Self::build(graph, IndexConfig::default())
    }

    /// Assemble from pre-validated parts (see `snapshot` module).
    pub(crate) fn assemble(graph: DynamicGraph, lab: Labelling, config: IndexConfig) -> Self {
        Self::assemble_snapshot(IndexSnapshot::new(graph, lab), config)
    }

    fn assemble_snapshot(work: IndexSnapshot, config: IndexConfig) -> Self {
        let n = work.graph.num_vertices();
        BatchIndex {
            store: LabelStore::new(work.clone()),
            work,
            recycler: engine::Recycler::new(),
            config,
            ws: UpdateWorkspace::new(n),
            engine: QueryEngine::new(n),
        }
    }

    /// Tune when the published CSR view compacts its delta overlay into
    /// a fresh base snapshot (see [`CompactionPolicy`]; normally set up
    /// front through [`IndexConfig::compaction`]).
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.config.compaction = policy;
        self.work.view.set_policy(policy);
    }

    pub fn graph(&self) -> &DynamicGraph {
        &self.work.graph
    }

    pub fn labelling(&self) -> &Labelling {
        &self.work.lab
    }

    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    pub fn num_vertices(&self) -> usize {
        self.work.graph.num_vertices()
    }

    /// The most recently published generation (what readers see).
    pub fn published(&self) -> Arc<Versioned<IndexSnapshot>> {
        self.store.snapshot()
    }

    /// The version number of the published generation. Bumps once per
    /// search→repair pass (so once per batch for BHL/BHL⁺, once per
    /// sub-batch for BHLₛ, once per update for UHL/UHL⁺).
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// A `Send + Sync` query handle over the published generations.
    ///
    /// Readers are independent of the index value: they can be moved to
    /// other threads and keep answering (against the freshest published
    /// generation) while [`BatchIndex::apply_batch`] runs.
    pub fn reader(&self) -> Reader {
        Reader::new(self.store.reader())
    }

    /// A `Send + Sync` query handle whose queries take `&self` (shared
    /// across serving threads without cloning): the handle re-pins the
    /// freshest generation internally. See [`SharedReader`].
    pub fn shared_reader(&self) -> SharedReader<IndexSnapshot> {
        SharedReader::new(self.store.clone())
    }

    /// Exact distance, `None` when disconnected (Section 4: labelling
    /// upper bound + bounded bidirectional BFS on `G[V\R]`, run over
    /// the CSR view). Answers against the *working* snapshot — the
    /// owner always sees its own latest batch.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`BatchIndex::query`], returning `INF` for disconnected or
    /// out-of-range pairs.
    pub fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist {
        self.work.snapshot_query_dist(&mut self.engine, s, t)
    }

    /// Batched pair queries: groups the pairs by source and reuses the
    /// per-source label plan across each group (see
    /// [`batchhl_hcl::SourcePlan`]). Order of results matches `pairs`.
    pub fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        crate::reader::query_many_on(&self.work, &mut self.engine, pairs)
    }

    /// One-source-to-many-targets distances (the batched fast path:
    /// one generation, one source plan, one sweep for large target
    /// sets). `None` marks disconnected or out-of-range endpoints.
    pub fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        self.work
            .snapshot_distances_from(&mut self.engine, s, targets)
            .into_iter()
            .map(|d| (d != INF).then_some(d))
            .collect()
    }

    /// The `k` vertices closest to `s` (excluding `s`), nondecreasing
    /// by distance.
    pub fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        self.work.snapshot_top_k(&mut self.engine, s, k)
    }

    /// Apply a batch of updates and repair the labelling (Algorithm 1,
    /// dispatched per the configured [`Algorithm`]).
    pub fn apply_batch(&mut self, batch: &Batch) -> UpdateStats {
        let start = Instant::now();
        let mut stats = match self.config.algorithm {
            Algorithm::Bhl | Algorithm::BhlPlus => {
                let norm = batch.normalize(&self.work.graph);
                self.run_pass(&norm)
            }
            Algorithm::BhlS => {
                let norm = batch.normalize(&self.work.graph);
                let (deletions, insertions) = norm.split();
                let mut s = self.run_pass(&deletions);
                s.absorb(self.run_pass(&insertions));
                s
            }
            Algorithm::Uhl | Algorithm::UhlPlus => {
                let mut s = UpdateStats::default();
                for &u in batch.updates() {
                    let single = Batch::from_updates(vec![u]).normalize(&self.work.graph);
                    s.absorb(self.run_pass(&single));
                }
                s
            }
        };
        stats.elapsed = start.elapsed();
        stats
    }

    /// Rebuild the labelling from scratch (used by tests and the
    /// construction benchmarks) and publish it as a new generation.
    pub fn rebuild(&mut self) {
        let landmarks = self.work.lab.landmarks().to_vec();
        self.work.lab =
            build_labelling_parallel(&self.work.view, landmarks, self.config.threads.max(1))
                .expect("existing landmarks are valid");
        self.store.publish(self.work.clone());
        // Retained retired buffers predate the rebuild; replaying pass
        // logs over them would skip the rebuild's changes.
        self.recycler.clear();
    }

    /// Reset the writer to the generation captured in `snap` and
    /// republish it, so readers re-pin content identical to `snap`
    /// under a fresh version number. Used by the facade to roll back a
    /// batch whose application failed mid-way: the working snapshot may
    /// be arbitrarily damaged (even mid-panic), but `snap` is immutable
    /// and shares its CSR base + label buffers behind `Arc`s, so the
    /// restore is a cheap clone. Workspaces are rebuilt from scratch —
    /// they may hold state from the aborted pass.
    pub(crate) fn restore_generation(&mut self, snap: &IndexSnapshot) {
        self.work = snap.clone();
        self.work.view.set_policy(self.config.compaction);
        self.store.publish(self.work.clone());
        self.recycler.clear();
        let n = self.work.graph.num_vertices();
        self.ws = UpdateWorkspace::new(n);
        self.engine = QueryEngine::new(n);
    }

    /// One search+repair pass over a normalized, conflict-free batch:
    /// mutate the working graph, repair `Γ′` against the published `Γ`,
    /// publish, and recycle the previous generation's buffers.
    fn run_pass(&mut self, norm: &Batch) -> UpdateStats {
        let mut stats = UpdateStats {
            passes: 1,
            ..Default::default()
        };
        if norm.is_empty() {
            return stats;
        }
        let old = self.store.snapshot();

        stats.applied = self.work.graph.apply_batch(norm);
        debug_assert_eq!(stats.applied, norm.len(), "normalized batches are valid");
        stats.insertions = norm.num_insertions();
        stats.deletions = norm.num_deletions();

        let n = self.work.graph.num_vertices();
        self.work.lab.ensure_vertices(n);
        self.ws.grow(n);

        // Freeze the batch's endpoints into the CSR view (and compact
        // when the overlay crossed its threshold): everything below —
        // landmark searches, repair relaxation, owner and reader
        // queries — traverses this view, never the Vec<Vec<_>> graph.
        let touched = norm.touched_vertices();
        self.work.view.set_policy(self.config.compaction);
        let graph = &self.work.graph;
        self.work
            .view
            .absorb(n, touched.iter().copied(), |v| graph.neighbors(v));

        let mut grown = None;
        let oracle = engine::oracle_for(&old.lab, n, &mut grown);

        let kernel = BfsKernel {
            improved: self.config.algorithm.improved_search(),
            directed: false,
        };
        let affected = engine::run_landmarks(
            &kernel,
            oracle,
            &self.work.view,
            norm.updates(),
            &mut self.work.lab,
            self.config.threads,
            &mut self.ws,
        );
        stats.affected_per_landmark = affected.iter().map(Vec::len).collect();
        stats.affected_total = stats.affected_per_landmark.iter().sum();

        // Publish Γ′ and rebuild the working buffer from a retired
        // generation: replay the logged batch(es) on its graph, re-
        // freeze the replayed endpoints into its CSR view, and copy
        // back only the entries the logged passes repaired.
        engine::publish_pass(
            &self.store,
            &mut self.recycler,
            &mut self.work,
            IndexSnapshot::placeholder(),
            old,
            PassLog {
                norm: norm.clone(),
                touched,
                affected,
            },
            |buf, fresh, log| {
                buf.graph.apply_batch(&log.norm);
                let graph = &buf.graph;
                buf.view
                    .absorb(graph.num_vertices(), log.touched.iter().copied(), |v| {
                        graph.neighbors(v)
                    });
                engine::sync_affected(&fresh.lab, &mut buf.lab, &log.affected);
            },
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_graph::generators::{barabasi_albert, erdos_renyi_gnm, path};
    use batchhl_hcl::oracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config(algorithm: Algorithm, k: usize) -> IndexConfig {
        IndexConfig {
            selection: LandmarkSelection::TopDegree(k),
            algorithm,
            threads: 1,
            ..IndexConfig::default()
        }
    }

    fn random_batch(g: &DynamicGraph, size: usize, rng: &mut StdRng) -> Batch {
        let n = g.num_vertices() as Vertex;
        let mut b = Batch::new();
        for _ in 0..size {
            let a = rng.gen_range(0..n);
            let c = rng.gen_range(0..n);
            if a == c {
                continue;
            }
            if g.has_edge(a, c) {
                b.delete(a, c);
            } else {
                b.insert(a, c);
            }
        }
        b
    }

    /// Core invariant: after any update sequence, the maintained
    /// labelling equals the from-scratch minimal labelling (unique!).
    fn assert_tracks_rebuild(algorithm: Algorithm, seed: u64) {
        let g0 = erdos_renyi_gnm(70, 150, seed);
        let mut index = BatchIndex::build(g0, config(algorithm, 5));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for round in 0..6 {
            let batch = random_batch(index.graph(), 12, &mut rng);
            index.apply_batch(&batch);
            oracle::check_minimal(index.graph(), index.labelling())
                .unwrap_or_else(|e| panic!("{algorithm:?} seed {seed} round {round}: {e}"));
            let published = index.published();
            assert_eq!(
                &published.lab,
                index.labelling(),
                "published generation out of sync after round {round}"
            );
            assert_eq!(&published.graph, index.graph());
        }
    }

    #[test]
    fn bhl_tracks_rebuild() {
        for seed in 0..6 {
            assert_tracks_rebuild(Algorithm::Bhl, seed);
        }
    }

    #[test]
    fn bhl_plus_tracks_rebuild() {
        for seed in 0..6 {
            assert_tracks_rebuild(Algorithm::BhlPlus, seed);
        }
    }

    #[test]
    fn bhl_s_tracks_rebuild() {
        for seed in 0..4 {
            assert_tracks_rebuild(Algorithm::BhlS, seed);
        }
    }

    #[test]
    fn uhl_variants_track_rebuild() {
        assert_tracks_rebuild(Algorithm::Uhl, 1);
        assert_tracks_rebuild(Algorithm::UhlPlus, 2);
    }

    #[test]
    fn queries_stay_exact_under_updates() {
        let g0 = barabasi_albert(120, 3, 3);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 6));
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4 {
            let batch = random_batch(index.graph(), 15, &mut rng);
            index.apply_batch(&batch);
            let truth = oracle::all_pairs_bfs(index.graph());
            for s in (0..120u32).step_by(5) {
                for t in (0..120u32).step_by(7) {
                    assert_eq!(
                        index.query_dist(s, t),
                        truth[s as usize][t as usize],
                        "query({s},{t})"
                    );
                }
            }
        }
    }

    #[test]
    fn all_variants_converge_to_same_labelling() {
        let g0 = erdos_renyi_gnm(80, 180, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let batch = random_batch(&g0, 25, &mut rng);
        let mut labellings = Vec::new();
        for alg in [
            Algorithm::Bhl,
            Algorithm::BhlPlus,
            Algorithm::BhlS,
            Algorithm::Uhl,
            Algorithm::UhlPlus,
        ] {
            let mut index = BatchIndex::build(g0.clone(), config(alg, 6));
            index.apply_batch(&batch);
            labellings.push((alg, index.work.lab));
        }
        for w in labellings.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{:?} and {:?} disagree", w[0].0, w[1].0);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g0 = barabasi_albert(150, 3, 8);
        let mut rng = StdRng::seed_from_u64(21);
        let batch = random_batch(&g0, 20, &mut rng);
        let mut seq = BatchIndex::build(g0.clone(), config(Algorithm::BhlPlus, 8));
        seq.apply_batch(&batch);
        for threads in [2, 3, 8] {
            let mut cfg = config(Algorithm::BhlPlus, 8);
            cfg.threads = threads;
            let mut par = BatchIndex::build(g0.clone(), cfg);
            let stats = par.apply_batch(&batch);
            assert_eq!(seq.work.lab, par.work.lab, "threads={threads}");
            assert_eq!(
                &par.published().lab,
                par.labelling(),
                "published sync, threads={threads}"
            );
            assert!(stats.affected_total > 0);
        }
    }

    #[test]
    fn affected_counts_bhl_plus_never_exceed_bhl() {
        let g0 = erdos_renyi_gnm(100, 220, 11);
        let mut rng = StdRng::seed_from_u64(13);
        let batch = random_batch(&g0, 18, &mut rng);
        let mut basic = BatchIndex::build(g0.clone(), config(Algorithm::Bhl, 6));
        let mut plus = BatchIndex::build(g0, config(Algorithm::BhlPlus, 6));
        let sb = basic.apply_batch(&batch);
        let sp = plus.apply_batch(&batch);
        assert!(
            sp.affected_total <= sb.affected_total,
            "BHL+ affected {} > BHL {}",
            sp.affected_total,
            sb.affected_total
        );
    }

    #[test]
    fn empty_and_invalid_batches_are_noops() {
        let g0 = path(10);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 2));
        let before = index.work.lab.clone();
        let stats = index.apply_batch(&Batch::new());
        assert_eq!(stats.applied, 0);
        let mut b = Batch::new();
        b.insert(0, 1); // already present
        b.delete(0, 5); // absent
        b.insert(3, 3); // self-loop
        let stats = index.apply_batch(&b);
        assert_eq!(stats.applied, 0);
        assert_eq!(index.work.lab, before);
    }

    #[test]
    fn batch_with_new_vertices_grows_index() {
        let g0 = path(5);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 2));
        let mut b = Batch::new();
        b.insert(4, 9); // vertex 9 does not exist yet
        index.apply_batch(&b);
        assert_eq!(index.num_vertices(), 10);
        assert_eq!(index.query(0, 9), Some(5));
        assert_eq!(index.query(0, 7), None, "7 is isolated");
        oracle::check_minimal(index.graph(), index.labelling()).unwrap();
        assert_eq!(index.published().lab, index.work.lab);
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let g0 = barabasi_albert(100, 2, 17);
        let mut index = BatchIndex::build(g0.clone(), config(Algorithm::BhlPlus, 4));
        let baseline = index.work.lab.clone();
        let mut ins = Batch::new();
        ins.insert(0, 50);
        ins.insert(13, 77);
        let del = ins.inverse();
        index.apply_batch(&ins);
        index.apply_batch(&del);
        assert_eq!(index.graph(), &g0);
        assert_eq!(
            index.work.lab, baseline,
            "labelling must round-trip (uniqueness)"
        );
    }

    #[test]
    fn rebuild_agrees_with_incremental() {
        let g0 = erdos_renyi_gnm(60, 140, 23);
        let mut index = BatchIndex::build(g0, config(Algorithm::Bhl, 5));
        let mut rng = StdRng::seed_from_u64(31);
        let batch = random_batch(index.graph(), 20, &mut rng);
        index.apply_batch(&batch);
        let incremental = index.work.lab.clone();
        index.rebuild();
        assert_eq!(index.work.lab, incremental);
    }

    #[test]
    fn versions_advance_per_pass() {
        let g0 = path(8);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 2));
        assert_eq!(index.version(), 0);
        let mut b = Batch::new();
        b.insert(0, 5);
        index.apply_batch(&b);
        assert_eq!(index.version(), 1);
        // UHL publishes one generation per update.
        let g1 = path(8);
        let mut single = BatchIndex::build(g1, config(Algorithm::Uhl, 2));
        let mut b = Batch::new();
        b.insert(0, 4);
        b.insert(1, 6);
        single.apply_batch(&b);
        assert_eq!(single.version(), 2);
    }

    #[test]
    fn reordered_index_answers_original_queries() {
        let g = barabasi_albert(120, 3, 9);
        let mut plain = BatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 6));
        let (mut reordered, remap) = BatchIndex::new_reordered(g, config(Algorithm::BhlPlus, 6));
        // The hub owns id 0 in the reordered index.
        assert_eq!(reordered.graph().vertices_by_degree()[0], 0);
        for s in (0..120u32).step_by(7) {
            for t in (0..120u32).step_by(5) {
                assert_eq!(
                    reordered.query_dist(remap.to_new(s), remap.to_new(t)),
                    plain.query_dist(s, t),
                    "query({s},{t})"
                );
            }
        }
        // Updates expressed in original ids flow through map_batch.
        let mut b = Batch::new();
        b.insert(3, 117);
        b.delete(0, 1);
        plain.apply_batch(&b);
        reordered.apply_batch(&remap.map_batch(&b));
        oracle::check_minimal(reordered.graph(), reordered.labelling()).unwrap();
        for s in (0..120u32).step_by(11) {
            for t in (0..120u32).step_by(3) {
                assert_eq!(
                    reordered.query_dist(remap.to_new(s), remap.to_new(t)),
                    plain.query_dist(s, t),
                    "post-batch query({s},{t})"
                );
            }
        }
    }

    /// Regression: `top_k_closest` used to cut the BFS sweep mid-level
    /// at the `k+1` cap, so among equal-distance vertices at the k-th
    /// boundary the answer depended on adjacency iteration order — the
    /// same query could differ before and after CSR compaction or
    /// `new_reordered` relabeling of an identical graph. The sweep now
    /// finishes the boundary level and ties break by vertex id.
    #[test]
    fn top_k_closest_is_stable_across_compaction_and_relabeling() {
        let g = barabasi_albert(90, 3, 13);
        let mut plain = BatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 5));
        let sources = [0u32, 5, 23, 60];

        // Distance ties at level boundaries are the whole point — make
        // sure the instance actually has them.
        let n = plain.num_vertices() as Vertex;
        let targets: Vec<Vertex> = (0..n).filter(|&t| t != 0).collect();
        let mut reach: Vec<Dist> = plain
            .distances_from(0, &targets)
            .into_iter()
            .flatten()
            .collect();
        reach.sort_unstable();
        assert!(
            reach.windows(2).any(|w| w[0] == w[1]),
            "instance has no distance ties; the test would be vacuous"
        );

        // Twin 1 — forced compaction. An eager policy folds the delta
        // overlay into a fresh CSR base on every pass; an insert batch
        // followed by its inverse round-trips the graph content while
        // rebuilding the adjacency arrays. Same id space, so answers
        // must be byte-identical at *every* k, tie-straddling or not.
        let mut compacted = BatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 5));
        compacted.set_compaction(CompactionPolicy::eager(0.0));
        // Round-trip with edges that are genuinely absent: inserting a
        // present edge is a no-op but its inverse would delete it.
        let mut ins = Batch::new();
        let mut picked = 0;
        'pick: for a in 0..n {
            for b in (a + 1)..n {
                if !g.has_edge(a, b) {
                    ins.insert(a, b);
                    picked += 1;
                    if picked == 2 {
                        break 'pick;
                    }
                }
            }
        }
        assert_eq!(picked, 2, "graph too dense to pick absent edges");
        let del = ins.inverse();
        compacted.apply_batch(&ins);
        compacted.apply_batch(&del);
        for s in sources {
            for k in [1usize, 3, 7, 12, 25, 89] {
                assert_eq!(
                    plain.top_k_closest(s, k),
                    compacted.top_k_closest(s, k),
                    "compaction twin diverged at s={s} k={k}"
                );
            }
        }

        // Twin 2 — degree-descending relabeling. Ids change, so the
        // (distance, id) tie-break legitimately ranks differently
        // *within* a level; at complete-level cuts the answer set is
        // id-invariant and must map back to exactly the same set.
        let (mut reordered, remap) = BatchIndex::new_reordered(g, config(Algorithm::BhlPlus, 5));
        for s in sources {
            let targets: Vec<Vertex> = (0..n).filter(|&t| t != s).collect();
            let mut reach: Vec<Dist> = plain
                .distances_from(s, &targets)
                .into_iter()
                .flatten()
                .collect();
            reach.sort_unstable();
            // Every k where the sorted distance profile steps to a new
            // level is a level-closed prefix.
            let boundaries: Vec<usize> = (1..reach.len())
                .filter(|&k| reach[k] != reach[k - 1])
                .chain([reach.len()])
                .collect();
            for k in boundaries {
                let expect = plain.top_k_closest(s, k);
                let mut got: Vec<(Vertex, Dist)> = reordered
                    .top_k_closest(remap.to_new(s), k)
                    .into_iter()
                    .map(|(v, d)| (remap.to_old(v), d))
                    .collect();
                got.sort_unstable_by_key(|&(v, d)| (d, v));
                assert_eq!(expect, got, "relabeled twin diverged at s={s} k={k}");
            }
        }
    }

    #[test]
    fn pinned_reader_forces_clone_fallback_without_corruption() {
        let g0 = erdos_renyi_gnm(60, 130, 41);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 4));
        let mut reader = index.reader();
        let mut rng = StdRng::seed_from_u64(43);
        // The reader never refreshes, pinning generation after
        // generation; the writer must stay correct through the clone
        // fallback path.
        let pinned = reader.pin();
        let frozen_truth = oracle::all_pairs_bfs(&pinned.graph);
        for round in 0..4 {
            let batch = random_batch(index.graph(), 10, &mut rng);
            index.apply_batch(&batch);
            oracle::check_minimal(index.graph(), index.labelling())
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        // The pinned generation still answers its own (stale) truth.
        for s in (0..60u32).step_by(11) {
            for t in (0..60u32).step_by(7) {
                assert_eq!(
                    reader.query_dist_pinned(s, t),
                    frozen_truth[s as usize][t as usize]
                );
            }
        }
    }
}
