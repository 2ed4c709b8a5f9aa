//! Directed BatchHL (Section 6).
//!
//! Directed graphs keep **two** labellings: a forward one on `G`
//! (entries `(r, d(r→v))`, highway `δ_Hf(r_i, r_j) = d(r_i→r_j)`) and a
//! backward one that is simply the forward structure of the *reversed*
//! graph (entries `(r, d(v→r))`). Both passes run through the unified
//! update engine ([`crate::engine`]) with the same BFS kernel the
//! undirected index uses — the backward pass just hands it the
//! generic `Reversed` adapter and arc-reversed updates:
//!
//! * the search anchors only arc *heads* (`directed = true`): an arc
//!   `a→b` can only carry `r`-paths through it in its own direction;
//! * repair reads bounds from in-neighbours and relaxes out-neighbours,
//!   which on the reversed view becomes the mirror image.
//!
//! A query `d(s, t)` combines `d(s→r_i)` (backward labels of `s`),
//! `δ_Hf(r_i, r_j)` and `d(r_j→t)` (forward labels of `t`) into the
//! upper bound of Eq. 3, then refines with a directed bounded
//! bidirectional BFS on `G[V \ R]` — the shared query path of
//! [`batchhl_hcl::QueryEngine`] with `(bwd, fwd)` as its source and
//! target views.
//!
//! Like the undirected index, the directed index publishes immutable
//! `(graph, forward, backward)` generations; [`DirectedBatchIndex::reader`]
//! hands out concurrent [`DirectedReader`] query handles.

use crate::engine::{self, BfsKernel};
use crate::reader::{DirectedReader, SharedReader, SnapshotQuery};
use crate::stats::UpdateStats;
use crate::workspace::UpdateWorkspace;
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::{Batch, CsrDiDelta, DynamicDiGraph, Reversed, Update};
use batchhl_hcl::{
    build_labelling_parallel, LabelError, LabelResidency, LabelStore, Labelling, QueryEngine,
    SourcePlan, Versioned,
};
use std::sync::Arc;
use std::time::Instant;

pub use crate::index::{Algorithm, CompactionPolicy, IndexConfig};

/// One immutable generation of the directed index. `graph` is the
/// writer's mutation substrate; `view` is the frozen two-direction CSR
/// (+ overlay) that queries and both update passes traverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectedSnapshot {
    pub graph: DynamicDiGraph,
    /// Forward labelling on `G` — answers `d(r → v)`.
    pub fwd: Labelling,
    /// Backward labelling (forward labelling of `Gᵀ`) — answers `d(v → r)`.
    pub bwd: Labelling,
    pub view: CsrDiDelta,
}

impl DirectedSnapshot {
    fn placeholder() -> Self {
        let lab = Labelling::empty(0, Vec::new()).expect("empty labelling is valid");
        let graph = DynamicDiGraph::new(0);
        DirectedSnapshot {
            view: CsrDiDelta::from_adjacency(&graph),
            graph,
            fwd: lab.clone(),
            bwd: lab,
        }
    }
}

/// What one pass changed in the graph — enough to replay it onto a
/// recycled buffer (labels are adopted from the fresh generation).
#[derive(Debug)]
struct PassLog {
    norm: Batch,
}

/// Batch-dynamic distance index over a directed graph.
pub struct DirectedBatchIndex {
    work: DirectedSnapshot,
    store: LabelStore<DirectedSnapshot>,
    recycler: engine::Recycler<DirectedSnapshot, PassLog>,
    config: IndexConfig,
    ws: UpdateWorkspace,
    engine: QueryEngine,
}

impl Clone for DirectedBatchIndex {
    fn clone(&self) -> Self {
        let n = self.work.graph.num_vertices();
        DirectedBatchIndex {
            work: self.work.clone(),
            store: LabelStore::new(self.work.clone()),
            recycler: engine::Recycler::new(),
            config: self.config.clone(),
            ws: UpdateWorkspace::new(n),
            engine: QueryEngine::new(n),
        }
    }
}

impl DirectedBatchIndex {
    pub fn build(graph: DynamicDiGraph, config: IndexConfig) -> Self {
        let landmarks = config.selection.select_directed(&graph);
        let threads = config.threads.max(1);
        // Both construction passes run over the frozen CSR snapshot.
        let view = CsrDiDelta::from_adjacency(&graph);
        let fwd = build_labelling_parallel(&view, landmarks.clone(), threads)
            .expect("selected landmarks are valid");
        let bwd = build_labelling_parallel(&Reversed(&view), landmarks, threads)
            .expect("selected landmarks are valid");
        let n = graph.num_vertices();
        let work = DirectedSnapshot {
            graph,
            fwd,
            bwd,
            view,
        };
        DirectedBatchIndex {
            store: LabelStore::new(work.clone()),
            work,
            recycler: engine::Recycler::new(),
            config,
            ws: UpdateWorkspace::new(n),
            engine: QueryEngine::new(n),
        }
    }

    pub fn with_defaults(graph: DynamicDiGraph) -> Self {
        Self::build(graph, IndexConfig::default())
    }

    /// Assemble an index from externally persisted parts (the directed
    /// load path of `crate::persist`): a graph plus previously
    /// constructed forward and backward labellings.
    ///
    /// Performs structural validation (dimensions, landmark agreement
    /// between the two directions, highway diagonals); it does *not*
    /// prove the labellings match the graph — pair with
    /// `oracle::check_minimal` when provenance is in doubt.
    pub fn from_parts(
        graph: DynamicDiGraph,
        fwd: Labelling,
        bwd: Labelling,
        config: IndexConfig,
    ) -> Result<Self, LabelError> {
        let n = graph.num_vertices();
        for lab in [&fwd, &bwd] {
            if lab.num_vertices() != n {
                return Err(LabelError::VertexCountMismatch {
                    labelling: lab.num_vertices(),
                    graph: n,
                });
            }
            for i in 0..lab.num_landmarks() {
                if lab.highway(i, i) != 0 {
                    return Err(LabelError::CorruptHighwayDiagonal { index: i });
                }
            }
        }
        if fwd.landmarks() != bwd.landmarks() {
            return Err(LabelError::ShapeMismatch {
                what: "backward landmark list",
                expected: fwd.num_landmarks(),
                found: bwd.num_landmarks(),
            });
        }
        let view = CsrDiDelta::from_adjacency(&graph);
        let mut work = DirectedSnapshot {
            graph,
            fwd,
            bwd,
            view,
        };
        work.fwd.seal();
        work.bwd.seal();
        Ok(DirectedBatchIndex {
            store: LabelStore::new(work.clone()),
            work,
            recycler: engine::Recycler::new(),
            config,
            ws: UpdateWorkspace::new(n),
            engine: QueryEngine::new(n),
        })
    }

    pub fn graph(&self) -> &DynamicDiGraph {
        &self.work.graph
    }

    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Resident label memory of the working buffer and every live
    /// generation (both directions), each shared page and mirror cell
    /// counted once.
    pub fn label_residency(&self) -> LabelResidency {
        let live = self.store.live_generations();
        let labs = [&self.work.fwd, &self.work.bwd]
            .into_iter()
            .chain(live.iter().flat_map(|g| [&g.fwd, &g.bwd]));
        LabelResidency::measure(labs)
    }

    pub fn forward_labelling(&self) -> &Labelling {
        &self.work.fwd
    }

    pub fn backward_labelling(&self) -> &Labelling {
        &self.work.bwd
    }

    pub fn num_vertices(&self) -> usize {
        self.work.graph.num_vertices()
    }

    /// Combined logical size of both labellings in bytes.
    pub fn size_bytes(&self) -> usize {
        self.work.fwd.size_bytes() + self.work.bwd.size_bytes()
    }

    /// The most recently published generation (what readers see).
    pub fn published(&self) -> Arc<Versioned<DirectedSnapshot>> {
        self.store.snapshot()
    }

    /// The version number of the published generation.
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// A `Send + Sync` query handle over the published generations.
    pub fn reader(&self) -> DirectedReader {
        DirectedReader::new(self.store.reader())
    }

    /// A `Send + Sync` query handle whose queries take `&self` (see
    /// [`SharedReader`]).
    pub fn shared_reader(&self) -> SharedReader<DirectedSnapshot> {
        SharedReader::new(self.store.clone())
    }

    /// Tune the CSR compaction policy of both direction overlays
    /// (normally set up front through [`IndexConfig::compaction`]).
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.config.compaction = policy;
        self.work.view.set_policy(policy);
    }

    /// Exact directed distance `d(s → t)`; `None` if unreachable.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`DirectedBatchIndex::query`] with `INF` for unreachable.
    pub fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist {
        self.work.snapshot_query_dist(&mut self.engine, s, t)
    }

    /// Eq. 3 for directed graphs: `min_{i,j} d(s→r_i) + δ_Hf(r_i, r_j)
    /// + d(r_j→t)` over the backward labels of `s` and forward labels
    /// of `t`.
    pub fn upper_bound(&self, s: Vertex, t: Vertex) -> Dist {
        SourcePlan::new(&self.work.bwd, &self.work.fwd, s).bound_to(&self.work.fwd, t)
    }

    /// Batched pair queries (order of results matches `pairs`); pairs
    /// sharing a source reuse one [`SourcePlan`] over `s`'s backward
    /// labels.
    pub fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        crate::reader::query_many_on(&self.work, &mut self.engine, pairs)
    }

    /// One-source-to-many-targets directed distances `d(s → t)`;
    /// `None` marks unreachable or out-of-range endpoints.
    pub fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        self.work
            .snapshot_distances_from(&mut self.engine, s, targets)
            .into_iter()
            .map(|d| (d != INF).then_some(d))
            .collect()
    }

    /// The `k` vertices closest to `s` by forward distance `d(s → v)`
    /// (excluding `s`), nondecreasing by distance.
    pub fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        self.work.snapshot_top_k(&mut self.engine, s, k)
    }

    /// Apply a batch of *directed* updates (Algorithm 1, run once per
    /// direction through the unified engine).
    pub fn apply_batch(&mut self, batch: &Batch) -> UpdateStats {
        let start = Instant::now();
        let norm = batch.normalize_directed(&self.work.graph);
        let mut stats = UpdateStats {
            passes: 1,
            ..Default::default()
        };
        if norm.is_empty() {
            stats.elapsed = start.elapsed();
            return stats;
        }
        let old = self.store.snapshot();

        stats.applied = self.work.graph.apply_batch(&norm);
        stats.insertions = norm.num_insertions();
        stats.deletions = norm.num_deletions();

        let n = self.work.graph.num_vertices();
        self.work.fwd.ensure_vertices(n);
        self.work.bwd.ensure_vertices(n);
        self.ws.grow(n);

        // Freeze the batch's arcs into the two-direction CSR view; the
        // forward and backward searches below traverse it. The policy is
        // re-applied every pass because publish/recycle may have swapped
        // in a buffer that predates a setter call.
        self.work.view.set_policy(self.config.compaction);
        let graph = &self.work.graph;
        self.work.view.absorb_arcs(graph, &arc_list(&norm));

        // Backward pass sees every arc reversed.
        let rev_updates: Vec<Update> = norm
            .updates()
            .iter()
            .map(|u| match *u {
                Update::Insert(a, b) => Update::Insert(b, a),
                Update::Delete(a, b) => Update::Delete(b, a),
            })
            .collect();

        let kernel = BfsKernel {
            improved: self.config.algorithm.improved_search(),
            directed: true,
        };
        let threads = self.config.threads;

        let mut grown_fwd = None;
        let oracle_fwd = engine::oracle_for(&old.fwd, n, &mut grown_fwd);
        let fwd_aff = engine::run_landmarks(
            &kernel,
            oracle_fwd,
            &self.work.view,
            norm.updates(),
            &mut self.work.fwd,
            threads,
            &mut self.ws,
        );
        let mut grown_bwd = None;
        let oracle_bwd = engine::oracle_for(&old.bwd, n, &mut grown_bwd);
        let bwd_aff = engine::run_landmarks(
            &kernel,
            oracle_bwd,
            &Reversed(&self.work.view),
            &rev_updates,
            &mut self.work.bwd,
            threads,
            &mut self.ws,
        );

        let r = self.work.fwd.num_landmarks();
        stats.affected_per_landmark = (0..r)
            .map(|i| fwd_aff[i].len() + bwd_aff[i].len())
            .collect();
        stats.affected_total = stats.affected_per_landmark.iter().sum();

        // Seal, publish, and recycle a retired generation's buffers.
        stats.record_seal(self.work.fwd.seal());
        stats.record_seal(self.work.bwd.seal());
        engine::publish_pass(
            &self.store,
            &mut self.recycler,
            &mut self.work,
            DirectedSnapshot::placeholder(),
            old,
            PassLog { norm },
            |buf, fresh, log| {
                buf.graph.apply_batch(&log.norm);
                let graph = &buf.graph;
                buf.view.absorb_arcs(graph, &arc_list(&log.norm));
                buf.fwd.clone_from(&fresh.fwd);
                buf.bwd.clone_from(&fresh.bwd);
            },
        );

        stats.elapsed = start.elapsed();
        stats
    }

    /// Rebuild both labellings from scratch and publish the result.
    pub fn rebuild(&mut self) {
        let landmarks = self.work.fwd.landmarks().to_vec();
        let threads = self.config.threads.max(1);
        self.work.fwd = build_labelling_parallel(&self.work.view, landmarks.clone(), threads)
            .expect("existing landmarks are valid");
        self.work.bwd = build_labelling_parallel(&Reversed(&self.work.view), landmarks, threads)
            .expect("existing landmarks are valid");
        self.store.publish(self.work.clone());
        // Retained retired buffers predate the rebuild.
        self.recycler.clear();
    }

    /// Roll the writer back to the generation captured in `snap` and
    /// republish it (see `BatchIndex::restore_generation`; same
    /// contract, directed snapshot).
    pub(crate) fn restore_generation(&mut self, snap: &DirectedSnapshot) {
        self.work = snap.clone();
        self.work.view.set_policy(self.config.compaction);
        self.store.publish(self.work.clone());
        self.recycler.clear();
        let n = self.work.graph.num_vertices();
        self.ws = UpdateWorkspace::new(n);
        self.engine = QueryEngine::new(n);
    }
}

/// The arcs of a normalized batch as `(tail, head)` pairs — what the
/// CSR view's absorption re-freezes.
fn arc_list(norm: &Batch) -> Vec<(Vertex, Vertex)> {
    norm.updates().iter().map(|u| u.endpoints()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_hcl::{oracle, LandmarkSelection};
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

    fn random_digraph(n: usize, m: usize, seed: u64) -> DynamicDiGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DynamicDiGraph::new(n);
        while g.num_edges() < m {
            let a = rng.gen_range(0..n as Vertex);
            let b = rng.gen_range(0..n as Vertex);
            if a != b {
                g.insert_edge(a, b);
            }
        }
        g
    }

    fn random_batch(g: &DynamicDiGraph, size: usize, rng: &mut StdRng) -> Batch {
        let n = g.num_vertices() as Vertex;
        let mut b = Batch::new();
        for _ in 0..size {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            if x == y {
                continue;
            }
            if g.has_edge(x, y) {
                b.delete(x, y);
            } else {
                b.insert(x, y);
            }
        }
        b
    }

    fn assert_both_minimal(index: &DirectedBatchIndex) {
        oracle::check_minimal(index.graph(), index.forward_labelling())
            .unwrap_or_else(|e| panic!("forward: {e}"));
        oracle::check_minimal(&Reversed(index.graph()), index.backward_labelling())
            .unwrap_or_else(|e| panic!("backward: {e}"));
    }

    #[test]
    fn construction_is_minimal_both_ways() {
        let g = random_digraph(60, 180, 3);
        let index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 5));
        assert_both_minimal(&index);
    }

    #[test]
    fn queries_match_bfs_exhaustively() {
        let g = random_digraph(50, 160, 7);
        let truth = oracle::all_pairs_bfs(&g);
        let mut index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 5));
        for s in 0..50u32 {
            for t in 0..50u32 {
                assert_eq!(
                    index.query_dist(s, t),
                    truth[s as usize][t as usize],
                    "query({s},{t})"
                );
            }
        }
    }

    #[test]
    fn updates_track_rebuild() {
        for (alg, seed) in [
            (Algorithm::Bhl, 1u64),
            (Algorithm::BhlPlus, 2),
            (Algorithm::BhlPlus, 3),
            (Algorithm::Bhl, 4),
        ] {
            let g = random_digraph(60, 170, seed);
            let mut index = DirectedBatchIndex::build(g, config(alg, 5));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00);
            for round in 0..4 {
                let batch = random_batch(index.graph(), 12, &mut rng);
                index.apply_batch(&batch);
                oracle::check_minimal(index.graph(), index.forward_labelling())
                    .unwrap_or_else(|e| panic!("{alg:?}/{seed} fwd round {round}: {e}"));
                oracle::check_minimal(&Reversed(index.graph()), index.backward_labelling())
                    .unwrap_or_else(|e| panic!("{alg:?}/{seed} bwd round {round}: {e}"));
                let published = index.published();
                assert_eq!(&published.fwd, index.forward_labelling());
                assert_eq!(&published.bwd, index.backward_labelling());
                assert_eq!(&published.graph, index.graph());
            }
        }
    }

    #[test]
    fn queries_stay_exact_under_updates() {
        let g = random_digraph(40, 120, 11);
        let mut index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 4));
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..4 {
            let batch = random_batch(index.graph(), 10, &mut rng);
            index.apply_batch(&batch);
            let truth = oracle::all_pairs_bfs(index.graph());
            for s in 0..40u32 {
                for t in 0..40u32 {
                    assert_eq!(index.query_dist(s, t), truth[s as usize][t as usize]);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = random_digraph(80, 240, 13);
        let mut rng = StdRng::seed_from_u64(77);
        let batch = random_batch(&g, 16, &mut rng);
        let mut seq = DirectedBatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 6));
        seq.apply_batch(&batch);
        let mut cfg = config(Algorithm::BhlPlus, 6);
        cfg.threads = 4;
        let mut par = DirectedBatchIndex::build(g, cfg);
        par.apply_batch(&batch);
        assert_eq!(seq.work.fwd, par.work.fwd);
        assert_eq!(seq.work.bwd, par.work.bwd);
    }

    #[test]
    fn one_way_reachability() {
        // 0→1→2, landmark picks highest total degree (vertex 1).
        let g = DynamicDiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 1));
        assert_eq!(index.query(0, 2), Some(2));
        assert_eq!(index.query(2, 0), None);
        // Add the return arc and re-check.
        let mut b = Batch::new();
        b.insert(2, 0);
        index.apply_batch(&b);
        assert_eq!(index.query(2, 0), Some(1));
        assert_both_minimal(&index);
    }

    #[test]
    fn directed_reader_follows_and_matches_owner() {
        let g = random_digraph(50, 150, 21);
        let mut index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 4));
        let mut reader = index.reader();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..3 {
            let batch = random_batch(index.graph(), 8, &mut rng);
            index.apply_batch(&batch);
            for s in (0..50u32).step_by(7) {
                for t in (0..50u32).step_by(9) {
                    assert_eq!(reader.query_dist(s, t), index.query_dist(s, t));
                }
            }
        }
        assert_eq!(reader.version(), index.version());
    }
}
