//! Speculative **what-if sessions**: answer distance queries under a
//! hypothetical edit batch without committing it.
//!
//! A session pins one published generation and builds two private
//! structures from it, touching neither the shared store nor the WAL:
//!
//! * a **CSR overlay** over the pinned snapshot's frozen base — the
//!   generation's view is cloned (the flat base arrays stay shared
//!   behind their `Arc`; only the small delta overlay is copied) and
//!   the hypothetical batch's endpoints are re-recorded into it, so
//!   the session traverses the hypothetical graph at published-view
//!   speed;
//! * a **scoped label patch** ([`LabelPatch`]) — the same search +
//!   repair kernels a committed batch runs
//!   (`engine::run_landmarks_speculative`) write into detached
//!   copies of the affected landmark rows instead of the labelling.
//!
//! Together they form a *hypothesis* ([`Hypothesis`],
//! [`DirectedHypothesis`], [`WeightedHypothesis`]): a read-only
//! generation that implements [`SnapshotQuery`] exactly like a
//! committed snapshot, with a [`PatchedLabels`] merge view ("patch row
//! if present, base row otherwise") in place of the labelling. Queries
//! therefore run the one Section 4 path of [`QueryEngine`], and
//! batched pairs go through the same source-grouped `query_many` as
//! readers. One generic [`Session`] pairs a hypothesis with its private
//! engine; [`WhatIf`], [`DirectedWhatIf`] and [`WeightedWhatIf`] name
//! the three families' sessions.
//!
//! Dropping the session drops the overlay and the patch — no
//! generation bump, no publication, no writer involvement — so any
//! number of concurrent hypotheticals (distinct failure scenarios,
//! capacity studies, rollout rehearsals) can share one published
//! snapshot, each on its own reader thread.
//!
//! Entry points: `GenReader::with_edits` / `SharedReader::with_edits`
//! (typed, per family) and the type-erased
//! [`crate::backend::BackendReader::what_if`].

use crate::backend::{unweighted_batch, BackendFamily, Edit, OracleError};
use crate::directed::DirectedSnapshot;
use crate::engine::{self, BfsKernel};
use crate::index::IndexSnapshot;
use crate::reader::{query_many_on, GenReader, SharedReader, SnapshotQuery};
use crate::weighted::{
    effect_endpoints, normalize_weighted, DijkstraKernel, Effect, WeightedSnapshot,
};
use batchhl_common::{Dist, FxHashMap, Vertex, INF};
use batchhl_graph::weighted::{BiDijkstra, Weight, WeightedUpdate};
use batchhl_graph::{
    AdjacencyView, Batch, CsrDelta, CsrDiDelta, Reversed, Update, WeightedCsrDelta,
};
use batchhl_hcl::{LabelPatch, PatchedLabels, QueryEngine, Versioned};
use std::sync::Arc;

/// The query surface of a what-if session, type-erased for the oracle
/// facade. Methods take `&mut self` — a session is a single-owner
/// scratch value (its search engine is private workspace), unlike the
/// `&self` readers it is built from.
pub trait WhatIfQuery: Send {
    /// The version of the pinned generation the hypothetical is built
    /// over. Never changes for the life of the session — what-if
    /// sessions cause no generation churn.
    fn version(&self) -> u64;

    /// Exact distance under the hypothetical; `None` when disconnected.
    fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`WhatIfQuery::query`], returning `INF` for disconnected.
    fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist;

    /// Batched pair queries under the hypothetical (order of results
    /// matches `pairs`).
    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>>;

    /// One-source-to-many-targets under the hypothetical; `None` marks
    /// disconnected or out-of-range endpoints.
    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>>;
}

/// How a snapshot family builds a hypothesis over one of its pinned
/// generations: the typed `with_edits` entry points and the hook
/// [`crate::backend::BackendReader`]'s blanket impl dispatches
/// through.
pub trait SnapshotWhatIf: SnapshotQuery + Sized {
    /// The family's typed edit batch.
    type Edits: ?Sized;

    /// The hypothetical generation the family's sessions query.
    type Hypothesis: SnapshotQuery + Send;

    /// Build the hypothesis of `edits` over the pinned generation.
    fn hypothesize(pinned: Arc<Versioned<Self>>, edits: &Self::Edits) -> Self::Hypothesis;

    /// A type-erased session over `edits` in the facade's [`Edit`]
    /// vocabulary.
    fn what_if_session(
        pinned: Arc<Versioned<Self>>,
        edits: &[Edit],
    ) -> Result<Box<dyn WhatIfQuery>, OracleError>;
}

/// A speculative session: a hypothesis plus the session's private
/// query engine. Every query is a call into the shared query path.
#[derive(Debug)]
pub struct Session<H: SnapshotQuery> {
    version: u64,
    hyp: H,
    engine: H::Engine,
}

/// A speculative session over an undirected generation.
pub type WhatIf = Session<Hypothesis>;

/// A speculative session over a directed generation.
pub type DirectedWhatIf = Session<DirectedHypothesis>;

/// A speculative session over a weighted generation.
pub type WeightedWhatIf = Session<WeightedHypothesis>;

impl<H: SnapshotQuery> Session<H> {
    fn over<S: SnapshotWhatIf<Hypothesis = H>>(
        pinned: Arc<Versioned<S>>,
        edits: &S::Edits,
    ) -> Self {
        Session {
            version: pinned.version(),
            hyp: S::hypothesize(pinned, edits),
            engine: H::Engine::default(),
        }
    }

    /// The version of the pinned generation the hypothetical sits on.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Exact distance under the hypothetical; `None` when disconnected.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`Session::query`], returning `INF` for disconnected or
    /// out-of-range pairs.
    pub fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist {
        self.hyp.snapshot_query_dist(&mut self.engine, s, t)
    }

    /// Batched pair queries, grouped by source like a reader's.
    pub fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        query_many_on(&self.hyp, &mut self.engine, pairs)
    }

    /// One-source-to-many-targets under the hypothetical; `None` marks
    /// disconnected or out-of-range endpoints.
    pub fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        self.hyp
            .snapshot_distances_from(&mut self.engine, s, targets)
            .into_iter()
            .map(|d| (d != INF).then_some(d))
            .collect()
    }
}

impl<H: SnapshotQuery + Send> WhatIfQuery for Session<H> {
    fn version(&self) -> u64 {
        Session::version(self)
    }

    fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist {
        Session::query_dist(self, s, t)
    }

    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        Session::query_many(self, pairs)
    }

    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        Session::distances_from(self, s, targets)
    }
}

impl WhatIf {
    /// Number of landmark rows the hypothetical batch touched.
    pub fn patched_rows(&self) -> usize {
        self.hyp.patch.num_rows()
    }
}

/// The post-batch vertex count: updates may name vertices past the
/// pinned view's range (hypothetical growth).
fn grown_n(endpoints: impl Iterator<Item = (Vertex, Vertex)>, base_n: usize) -> usize {
    endpoints
        .map(|(a, b)| a.max(b) as usize + 1)
        .max()
        .unwrap_or(0)
        .max(base_n)
}

/// Re-record the post-batch adjacency of every endpoint of `norm` into
/// the session's private undirected overlay. Normalization guarantees
/// inserted edges are absent and deleted edges present, so retain +
/// extend per endpoint reproduces the committed graph's adjacency.
fn apply_undirected_edits(view: &mut CsrDelta, norm: &Batch) {
    let mut add: FxHashMap<Vertex, Vec<Vertex>> = FxHashMap::default();
    let mut remove: FxHashMap<Vertex, Vec<Vertex>> = FxHashMap::default();
    for &u in norm.updates() {
        let (a, b) = u.endpoints();
        match u {
            Update::Insert(..) => {
                add.entry(a).or_default().push(b);
                add.entry(b).or_default().push(a);
            }
            Update::Delete(..) => {
                remove.entry(a).or_default().push(b);
                remove.entry(b).or_default().push(a);
            }
        }
    }
    for v in norm.touched_vertices() {
        let mut list: Vec<Vertex> = view.list(v).to_vec();
        if let Some(rm) = remove.get(&v) {
            list.retain(|x| !rm.contains(x));
        }
        if let Some(ad) = add.get(&v) {
            list.extend_from_slice(ad);
        }
        view.set_vertex(v, &list);
    }
}

/// The hypothetical generation of an undirected session.
#[derive(Debug)]
pub struct Hypothesis {
    pinned: Arc<Versioned<IndexSnapshot>>,
    view: CsrDelta,
    patch: LabelPatch,
}

impl SnapshotQuery for Hypothesis {
    type Engine = QueryEngine;

    fn snapshot_query_dist(&self, engine: &mut QueryEngine, s: Vertex, t: Vertex) -> Dist {
        let lab = PatchedLabels::new(&self.pinned.value().lab, &self.patch);
        engine.query_dist(&lab, &lab, &self.view, s, t)
    }

    fn snapshot_distances_from(
        &self,
        engine: &mut QueryEngine,
        s: Vertex,
        targets: &[Vertex],
    ) -> Vec<Dist> {
        let lab = PatchedLabels::new(&self.pinned.value().lab, &self.patch);
        engine.distances_from(&lab, &lab, &self.view, s, targets)
    }

    fn snapshot_top_k(&self, engine: &mut QueryEngine, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        engine.top_k_closest(&self.view, s, k)
    }
}

impl SnapshotWhatIf for IndexSnapshot {
    type Edits = Batch;
    type Hypothesis = Hypothesis;

    fn hypothesize(pinned: Arc<Versioned<Self>>, batch: &Batch) -> Hypothesis {
        let (view, patch) = {
            let snap = pinned.value();
            let norm = batch.normalize(&snap.graph);
            let mut view = snap.view.clone();
            if norm.is_empty() {
                let n = view.num_vertices();
                (view, LabelPatch::new(n))
            } else {
                let n = grown_n(
                    norm.updates().iter().map(|u| u.endpoints()),
                    view.num_vertices(),
                );
                view.ensure_vertices(n);
                apply_undirected_edits(&mut view, &norm);
                let mut grown = None;
                let old = engine::oracle_for(&snap.lab, n, &mut grown);
                let patch = engine::run_landmarks_speculative(
                    &BfsKernel {
                        improved: true,
                        directed: false,
                    },
                    old,
                    &view,
                    norm.updates(),
                );
                (view, patch)
            }
        };
        Hypothesis {
            pinned,
            view,
            patch,
        }
    }

    fn what_if_session(
        pinned: Arc<Versioned<Self>>,
        edits: &[Edit],
    ) -> Result<Box<dyn WhatIfQuery>, OracleError> {
        let batch = unweighted_batch(edits, BackendFamily::Undirected)?;
        Ok(Box::new(WhatIf::over(pinned, &batch)))
    }
}

/// Re-record post-batch out-/in-adjacency of the batch's tails and
/// heads into the session's private two-direction overlay.
fn apply_directed_edits(view: &mut CsrDiDelta, norm: &Batch) {
    let mut out_add: FxHashMap<Vertex, Vec<Vertex>> = FxHashMap::default();
    let mut out_rm: FxHashMap<Vertex, Vec<Vertex>> = FxHashMap::default();
    let mut in_add: FxHashMap<Vertex, Vec<Vertex>> = FxHashMap::default();
    let mut in_rm: FxHashMap<Vertex, Vec<Vertex>> = FxHashMap::default();
    for &u in norm.updates() {
        let (a, b) = u.endpoints();
        match u {
            Update::Insert(..) => {
                out_add.entry(a).or_default().push(b);
                in_add.entry(b).or_default().push(a);
            }
            Update::Delete(..) => {
                out_rm.entry(a).or_default().push(b);
                in_rm.entry(b).or_default().push(a);
            }
        }
    }
    let mut tails: Vec<Vertex> = out_add.keys().chain(out_rm.keys()).copied().collect();
    tails.sort_unstable();
    tails.dedup();
    for v in tails {
        let mut list: Vec<Vertex> = view.out_neighbors(v).to_vec();
        if let Some(rm) = out_rm.get(&v) {
            list.retain(|x| !rm.contains(x));
        }
        if let Some(ad) = out_add.get(&v) {
            list.extend_from_slice(ad);
        }
        view.set_vertex_out(v, &list);
    }
    let mut heads: Vec<Vertex> = in_add.keys().chain(in_rm.keys()).copied().collect();
    heads.sort_unstable();
    heads.dedup();
    for v in heads {
        let mut list: Vec<Vertex> = view.in_neighbors(v).to_vec();
        if let Some(rm) = in_rm.get(&v) {
            list.retain(|x| !rm.contains(x));
        }
        if let Some(ad) = in_add.get(&v) {
            list.extend_from_slice(ad);
        }
        view.set_vertex_in(v, &list);
    }
}

/// The hypothetical generation of a directed session: one patch per
/// labelling, mirroring the committed two-pass repair.
#[derive(Debug)]
pub struct DirectedHypothesis {
    pinned: Arc<Versioned<DirectedSnapshot>>,
    view: CsrDiDelta,
    fwd_patch: LabelPatch,
    bwd_patch: LabelPatch,
}

impl DirectedHypothesis {
    /// The `(backward, forward)` source and target views.
    fn labels(&self) -> (PatchedLabels<'_>, PatchedLabels<'_>) {
        let snap = self.pinned.value();
        (
            PatchedLabels::new(&snap.bwd, &self.bwd_patch),
            PatchedLabels::new(&snap.fwd, &self.fwd_patch),
        )
    }
}

impl SnapshotQuery for DirectedHypothesis {
    type Engine = QueryEngine;

    fn snapshot_query_dist(&self, engine: &mut QueryEngine, s: Vertex, t: Vertex) -> Dist {
        let (bwd, fwd) = self.labels();
        engine.query_dist(&bwd, &fwd, &self.view, s, t)
    }

    fn snapshot_distances_from(
        &self,
        engine: &mut QueryEngine,
        s: Vertex,
        targets: &[Vertex],
    ) -> Vec<Dist> {
        let (bwd, fwd) = self.labels();
        engine.distances_from(&bwd, &fwd, &self.view, s, targets)
    }

    fn snapshot_top_k(&self, engine: &mut QueryEngine, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        engine.top_k_closest(&self.view, s, k)
    }
}

impl SnapshotWhatIf for DirectedSnapshot {
    type Edits = Batch;
    type Hypothesis = DirectedHypothesis;

    fn hypothesize(pinned: Arc<Versioned<Self>>, batch: &Batch) -> DirectedHypothesis {
        let (view, fwd_patch, bwd_patch) = {
            let snap = pinned.value();
            let norm = batch.normalize_directed(&snap.graph);
            let mut view = snap.view.clone();
            if norm.is_empty() {
                let n = view.num_vertices();
                (view, LabelPatch::new(n), LabelPatch::new(n))
            } else {
                let n = grown_n(
                    norm.updates().iter().map(|u| u.endpoints()),
                    view.num_vertices(),
                );
                view.ensure_vertices(n);
                apply_directed_edits(&mut view, &norm);
                let kernel = BfsKernel {
                    improved: true,
                    directed: true,
                };
                let mut grown_fwd = None;
                let old_fwd = engine::oracle_for(&snap.fwd, n, &mut grown_fwd);
                let fwd_patch =
                    engine::run_landmarks_speculative(&kernel, old_fwd, &view, norm.updates());
                // Backward pass sees every arc reversed.
                let rev_updates: Vec<Update> = norm
                    .updates()
                    .iter()
                    .map(|u| match *u {
                        Update::Insert(a, b) => Update::Insert(b, a),
                        Update::Delete(a, b) => Update::Delete(b, a),
                    })
                    .collect();
                let mut grown_bwd = None;
                let old_bwd = engine::oracle_for(&snap.bwd, n, &mut grown_bwd);
                let bwd_patch = engine::run_landmarks_speculative(
                    &kernel,
                    old_bwd,
                    &Reversed(&view),
                    &rev_updates,
                );
                (view, fwd_patch, bwd_patch)
            }
        };
        DirectedHypothesis {
            pinned,
            view,
            fwd_patch,
            bwd_patch,
        }
    }

    fn what_if_session(
        pinned: Arc<Versioned<Self>>,
        edits: &[Edit],
    ) -> Result<Box<dyn WhatIfQuery>, OracleError> {
        let batch = unweighted_batch(edits, BackendFamily::Directed)?;
        Ok(Box::new(DirectedWhatIf::over(pinned, &batch)))
    }
}

/// Re-record the post-batch weighted adjacency of every effect
/// endpoint into the session's private weighted overlay.
fn apply_weighted_effects(view: &mut WeightedCsrDelta, effects: &[Effect]) {
    let mut changes: FxHashMap<Vertex, Vec<(Vertex, Option<Weight>)>> = FxHashMap::default();
    for e in effects {
        changes.entry(e.a).or_default().push((e.b, e.w_new));
        changes.entry(e.b).or_default().push((e.a, e.w_new));
    }
    for v in effect_endpoints(effects) {
        let mut list: Vec<(Vertex, Weight)> = view.list(v).to_vec();
        for &(other, w_new) in &changes[&v] {
            match w_new {
                None => list.retain(|&(x, _)| x != other),
                Some(w) => {
                    if let Some(slot) = list.iter_mut().find(|&&mut (x, _)| x == other) {
                        slot.1 = w;
                    } else {
                        list.push((other, w));
                    }
                }
            }
        }
        view.set_vertex(v, &list);
    }
}

/// The hypothetical generation of a weighted session.
#[derive(Debug)]
pub struct WeightedHypothesis {
    pinned: Arc<Versioned<WeightedSnapshot>>,
    view: WeightedCsrDelta,
    patch: LabelPatch,
}

impl SnapshotQuery for WeightedHypothesis {
    type Engine = QueryEngine<BiDijkstra>;

    fn snapshot_query_dist(&self, engine: &mut Self::Engine, s: Vertex, t: Vertex) -> Dist {
        let lab = PatchedLabels::new(&self.pinned.value().lab, &self.patch);
        engine.query_dist(&lab, &lab, &self.view, s, t)
    }

    fn snapshot_distances_from(
        &self,
        engine: &mut Self::Engine,
        s: Vertex,
        targets: &[Vertex],
    ) -> Vec<Dist> {
        let lab = PatchedLabels::new(&self.pinned.value().lab, &self.patch);
        engine.distances_from(&lab, &lab, &self.view, s, targets)
    }

    fn snapshot_top_k(
        &self,
        engine: &mut Self::Engine,
        s: Vertex,
        k: usize,
    ) -> Vec<(Vertex, Dist)> {
        engine.top_k_closest(&self.view, s, k)
    }
}

impl SnapshotWhatIf for WeightedSnapshot {
    type Edits = [WeightedUpdate];
    type Hypothesis = WeightedHypothesis;

    fn hypothesize(pinned: Arc<Versioned<Self>>, updates: &[WeightedUpdate]) -> WeightedHypothesis {
        let (view, patch) = {
            let snap = pinned.value();
            let effects = normalize_weighted(&snap.graph, updates);
            let mut view = snap.view.clone();
            if effects.is_empty() {
                let n = view.num_vertices();
                (view, LabelPatch::new(n))
            } else {
                let n = grown_n(effects.iter().map(|e| (e.a, e.b)), view.num_vertices());
                view.ensure_vertices(n);
                apply_weighted_effects(&mut view, &effects);
                let mut grown = None;
                let old = engine::oracle_for(&snap.lab, n, &mut grown);
                let patch =
                    engine::run_landmarks_speculative(&DijkstraKernel, old, &view, &effects);
                (view, patch)
            }
        };
        WeightedHypothesis {
            pinned,
            view,
            patch,
        }
    }

    fn what_if_session(
        pinned: Arc<Versioned<Self>>,
        edits: &[Edit],
    ) -> Result<Box<dyn WhatIfQuery>, OracleError> {
        let updates: Vec<WeightedUpdate> = edits
            .iter()
            .map(|&e| match e {
                Edit::Insert(a, b) => WeightedUpdate::Insert(a, b, 1),
                Edit::InsertWeighted(a, b, w) => WeightedUpdate::Insert(a, b, w),
                Edit::Remove(a, b) => WeightedUpdate::Delete(a, b),
                Edit::SetWeight(a, b, w) => WeightedUpdate::SetWeight(a, b, w),
            })
            .collect();
        Ok(Box::new(WeightedWhatIf::over(pinned, &updates)))
    }
}

impl<S: SnapshotWhatIf> GenReader<S> {
    /// A speculative session over the freshest published generation:
    /// answers queries as if `edits` had been committed, without
    /// touching the index (see [`crate::whatif`]).
    pub fn with_edits(&mut self, edits: &S::Edits) -> Session<S::Hypothesis> {
        Session::over(self.pin(), edits)
    }
}

impl<S: SnapshotWhatIf> SharedReader<S> {
    /// A speculative session over the freshest published generation
    /// (see [`crate::whatif`]).
    pub fn with_edits(&self, edits: &S::Edits) -> Session<S::Hypothesis> {
        Session::over(self.pin(), edits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed::DirectedBatchIndex;
    use crate::index::{BatchIndex, IndexConfig};
    use crate::weighted::WeightedBatchIndex;
    use batchhl_graph::generators::barabasi_albert;
    use batchhl_graph::weighted::WeightedGraph;
    use batchhl_graph::DynamicDiGraph;
    use batchhl_hcl::LandmarkSelection;

    fn config(k: usize) -> IndexConfig {
        IndexConfig {
            selection: LandmarkSelection::TopDegree(k),
            ..IndexConfig::default()
        }
    }

    /// The core invariant on every family: a session's answers equal a
    /// twin index that actually committed the batch, and the session
    /// leaves the published generation untouched.
    #[test]
    fn undirected_session_matches_committed_twin() {
        let g = barabasi_albert(70, 2, 9);
        let index = BatchIndex::build(g.clone(), config(4));
        let mut twin = BatchIndex::build(g, config(4));
        let mut batch = Batch::new();
        batch.delete(0, 1);
        batch.insert(5, 64);
        batch.insert(2, 71); // grows the graph
        twin.apply_batch(&batch);

        let mut reader = index.reader();
        let v0 = reader.version();
        let mut session = reader.with_edits(&batch);
        assert!(session.patched_rows() > 0);
        for s in (0..72u32).step_by(3) {
            for t in (0..72u32).step_by(5) {
                assert_eq!(session.query(s, t), twin.query(s, t), "({s},{t})");
            }
        }
        let targets: Vec<Vertex> = (0..72).collect();
        // Repeated targets cross the sweep threshold (the sweep branch).
        let many: Vec<Vertex> = (0..72).cycle().take(3 * 72).collect();
        assert!(many.len() >= batchhl_hcl::sweep_min_targets(72));
        for s in [0u32, 5, 64, 71] {
            assert_eq!(
                session.distances_from(s, &targets),
                twin.distances_from(s, &targets)
            );
            assert_eq!(
                session.distances_from(s, &many),
                twin.distances_from(s, &many)
            );
        }
        // The base reader is unaffected — same version, pre-batch answers.
        assert_eq!(reader.version(), v0);
        assert_eq!(reader.query(0, 1), Some(1), "base still has the edge");
        assert_eq!(session.version(), v0);
    }

    #[test]
    fn directed_session_matches_committed_twin() {
        let mut g = DynamicDiGraph::new(30);
        for i in 0..29u32 {
            g.insert_edge(i, i + 1);
            if i % 3 == 0 {
                g.insert_edge(i + 1, i);
            }
        }
        let cfg = crate::index::IndexConfig {
            selection: LandmarkSelection::TopDegree(3),
            ..Default::default()
        };
        let index = DirectedBatchIndex::build(g.clone(), cfg.clone());
        let mut twin = DirectedBatchIndex::build(g, cfg);
        let mut batch = Batch::new();
        batch.delete(3, 4);
        batch.insert(0, 20);
        twin.apply_batch(&batch);

        let shared = index.shared_reader();
        let mut session = shared.with_edits(&batch);
        for s in 0..30u32 {
            for t in (0..30u32).step_by(2) {
                assert_eq!(session.query(s, t), twin.query(s, t), "({s},{t})");
            }
        }
        assert_eq!(shared.version(), session.version());
        assert_eq!(shared.query(3, 4), Some(1), "base keeps the arc");
    }

    #[test]
    fn weighted_session_matches_committed_twin() {
        let mut g = WeightedGraph::new(20);
        for i in 0..19u32 {
            g.insert_edge(i, i + 1, (i % 4 + 1) as Weight);
        }
        g.insert_edge(0, 10, 3);
        let index = WeightedBatchIndex::build(g.clone(), 3);
        let mut twin = WeightedBatchIndex::build(g, 3);
        let updates = [
            WeightedUpdate::Delete(0, 10),
            WeightedUpdate::SetWeight(4, 5, 9),
            WeightedUpdate::Insert(2, 17, 2),
        ];
        twin.apply_batch(&updates);

        let mut reader = index.reader();
        let mut session = reader.with_edits(&updates);
        for s in 0..20u32 {
            for t in 0..20u32 {
                assert_eq!(session.query(s, t), twin.query(s, t), "({s},{t})");
            }
        }
        assert_eq!(reader.version(), session.version());
    }

    #[test]
    fn empty_and_no_op_batches_build_trivial_sessions() {
        let g = barabasi_albert(40, 2, 4);
        let index = BatchIndex::build(g, config(3));
        let mut reader = index.reader();
        let mut batch = Batch::new();
        batch.delete(0, 39); // almost surely absent → normalizes away
        batch.delete(0, 39);
        let mut session = reader.with_edits(&Batch::new());
        let mut session2 = reader.with_edits(&batch);
        for s in (0..40u32).step_by(7) {
            for t in 0..40u32 {
                let want = reader.query(s, t);
                assert_eq!(session.query(s, t), want);
                assert_eq!(session2.query(s, t), want);
            }
        }
    }

    #[test]
    fn concurrent_sessions_share_one_generation() {
        let g = barabasi_albert(60, 2, 7);
        let index = BatchIndex::build(g, config(4));
        let shared = index.shared_reader();
        std::thread::scope(|scope| {
            for k in 0..4u32 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut batch = Batch::new();
                    batch.delete(k, k + 1);
                    let mut session = shared.with_edits(&batch);
                    for t in 0..60u32 {
                        let _ = session.query(k, t);
                    }
                    assert_eq!(session.version(), shared.version());
                });
            }
        });
        assert_eq!(shared.version(), 0, "no generation churn");
    }
}
