//! Property-based checks of the copy-on-write label store across
//! generations, on every index family.
//!
//! Each case builds an index over a graph of about 2 000 vertices (a
//! few label pages and a few dozen mirror blocks per landmark row) and
//! commits a seeded sequence of random batches: mixed insertions and
//! deletions, some growing the vertex set past a page boundary, some
//! committed while readers pin enough generations to force the
//! recycler's clone fallback, and some rolled back through
//! `Backend::restore`. After every commit:
//!
//! 1. **The mirror is exact.** The published generation is sealed, and
//!    its mirror equals `PackedIndex::build` of its content.
//! 2. **Unchanged pages and blocks are shared.** A page or mirror block
//!    whose content the commit did not change is the previous
//!    generation's, by pointer (single-pass algorithms: exactly those;
//!    multi-pass ones may restore a value within one commit, so there
//!    only the counts are bounded). A single pass's `pages_copied` and
//!    `blocks_resealed` match what is not shared; a commit of several
//!    passes copies and seals at least that much.
//! 3. **Old generations stand.** A generation pinned before the commit
//!    answers exactly as it did, and those answers are BFS/Dijkstra
//!    truth on its own graph.

use batchhl::common::SplitMix64;
use batchhl::core::backend::Backend;
use batchhl::core::{
    Algorithm, BatchIndex, DirectedBatchIndex, DirectedSnapshot, IndexConfig, IndexSnapshot,
    SnapshotQuery, UpdateStats, WeightedBatchIndex, WeightedSnapshot,
};
use batchhl::graph::bfs::bfs_distances;
use batchhl::graph::generators::barabasi_albert;
use batchhl::graph::weighted::{dijkstra, WeightedGraph, WeightedUpdate};
use batchhl::graph::{Batch, DynamicDiGraph};
use batchhl::hcl::{Labelling, PackedIndex, Versioned};
use batchhl::{Dist, LandmarkSelection, Vertex};
use proptest::prelude::*;
use std::sync::Arc;

const LANDMARKS: usize = 6;
const STEPS: usize = 5;
const PAIRS: usize = 24;

/// What `drive` needs of one index family.
trait Family {
    type Snap: SnapshotQuery + 'static;
    fn published(&self) -> Arc<Versioned<Self::Snap>>;
    fn labellings(snap: &Self::Snap) -> Vec<&Labelling>;
    fn num_vertices(snap: &Self::Snap) -> usize;
    /// Exact distances from `s` on the snapshot's own graph.
    fn truth(snap: &Self::Snap, s: Vertex) -> Vec<Dist>;
    /// Commit a random batch of `size` edits, growing the vertex set
    /// by up to `grow` vertices.
    fn commit(&mut self, rng: &mut SplitMix64, size: usize, grow: usize) -> UpdateStats;
    fn backend(&mut self) -> &mut dyn Backend;
}

/// Random endpoint, sometimes past the current vertex range.
fn endpoint(rng: &mut SplitMix64, n: usize, grow: usize) -> Vertex {
    if grow > 0 && rng.below(4) == 0 {
        (n + rng.below(grow as u64) as usize) as Vertex
    } else {
        rng.below(n as u64) as Vertex
    }
}

impl Family for BatchIndex {
    type Snap = IndexSnapshot;
    fn published(&self) -> Arc<Versioned<IndexSnapshot>> {
        BatchIndex::published(self)
    }
    fn labellings(snap: &IndexSnapshot) -> Vec<&Labelling> {
        vec![&snap.lab]
    }
    fn num_vertices(snap: &IndexSnapshot) -> usize {
        snap.graph.num_vertices()
    }
    fn truth(snap: &IndexSnapshot, s: Vertex) -> Vec<Dist> {
        bfs_distances(&snap.graph, s)
    }
    fn commit(&mut self, rng: &mut SplitMix64, size: usize, grow: usize) -> UpdateStats {
        let n = self.num_vertices();
        let mut batch = Batch::new();
        for _ in 0..size {
            let (a, b) = (endpoint(rng, n, grow), endpoint(rng, n, grow));
            if a == b {
                continue;
            }
            if a.max(b) < n as Vertex && self.graph().has_edge(a, b) {
                batch.delete(a, b);
            } else {
                batch.insert(a, b);
            }
        }
        self.apply_batch(&batch)
    }
    fn backend(&mut self) -> &mut dyn Backend {
        self
    }
}

impl Family for DirectedBatchIndex {
    type Snap = DirectedSnapshot;
    fn published(&self) -> Arc<Versioned<DirectedSnapshot>> {
        DirectedBatchIndex::published(self)
    }
    fn labellings(snap: &DirectedSnapshot) -> Vec<&Labelling> {
        vec![&snap.fwd, &snap.bwd]
    }
    fn num_vertices(snap: &DirectedSnapshot) -> usize {
        snap.graph.num_vertices()
    }
    fn truth(snap: &DirectedSnapshot, s: Vertex) -> Vec<Dist> {
        bfs_distances(&snap.graph, s)
    }
    fn commit(&mut self, rng: &mut SplitMix64, size: usize, grow: usize) -> UpdateStats {
        let n = self.num_vertices();
        let mut batch = Batch::new();
        for _ in 0..size {
            let (a, b) = (endpoint(rng, n, grow), endpoint(rng, n, grow));
            if a == b {
                continue;
            }
            if a.max(b) < n as Vertex && self.graph().has_edge(a, b) {
                batch.delete(a, b);
            } else {
                batch.insert(a, b);
            }
        }
        self.apply_batch(&batch)
    }
    fn backend(&mut self) -> &mut dyn Backend {
        self
    }
}

impl Family for WeightedBatchIndex {
    type Snap = WeightedSnapshot;
    fn published(&self) -> Arc<Versioned<WeightedSnapshot>> {
        WeightedBatchIndex::published(self)
    }
    fn labellings(snap: &WeightedSnapshot) -> Vec<&Labelling> {
        vec![&snap.lab]
    }
    fn num_vertices(snap: &WeightedSnapshot) -> usize {
        snap.graph.num_vertices()
    }
    fn truth(snap: &WeightedSnapshot, s: Vertex) -> Vec<Dist> {
        dijkstra(&snap.graph, s)
    }
    fn commit(&mut self, rng: &mut SplitMix64, size: usize, grow: usize) -> UpdateStats {
        let n = self.graph().num_vertices();
        let mut updates = Vec::new();
        for _ in 0..size {
            let (a, b) = (endpoint(rng, n, grow), endpoint(rng, n, grow));
            if a == b {
                continue;
            }
            let w = 1 + rng.below(6) as u32;
            let present = a.max(b) < n as Vertex && self.graph().has_edge(a, b);
            updates.push(match (present, rng.below(2)) {
                (true, 0) => WeightedUpdate::Delete(a, b),
                (true, _) => WeightedUpdate::SetWeight(a, b, w),
                (false, _) => WeightedUpdate::Insert(a, b, w),
            });
        }
        self.apply_batch(&updates)
    }
    fn backend(&mut self) -> &mut dyn Backend {
        self
    }
}

/// Seeded query pairs inside `n`.
fn pairs(rng: &mut SplitMix64, n: usize) -> Vec<(Vertex, Vertex)> {
    (0..PAIRS)
        .map(|_| (rng.below(n as u64) as Vertex, rng.below(n as u64) as Vertex))
        .collect()
}

fn answers<S: SnapshotQuery>(snap: &S, pairs: &[(Vertex, Vertex)]) -> Vec<Dist> {
    let mut engine = S::Engine::default();
    pairs
        .iter()
        .map(|&(s, t)| snap.snapshot_query_dist(&mut engine, s, t))
        .collect()
}

fn assert_truth<F: Family>(snap: &F::Snap, pairs: &[(Vertex, Vertex)], got: &[Dist]) {
    for (&(s, t), &d) in pairs.iter().zip(got) {
        assert_eq!(d, F::truth(snap, s)[t as usize], "d({s}, {t})");
    }
}

/// Properties 1 and 2 for one commit from `prev` to `cur`.
fn check_sharing<F: Family>(prev: &F::Snap, cur: &F::Snap, stats: &UpdateStats, exact: bool) {
    let (mut unshared_pages, mut new_pages) = (0, 0);
    let (mut unshared_blocks, mut blocks) = (0, 0);
    for (p, c) in F::labellings(prev).into_iter().zip(F::labellings(cur)) {
        assert!(c.packed_is_sealed(), "published generations are sealed");
        assert_eq!(
            *c.packed(),
            PackedIndex::build(c),
            "mirror equals a fresh seal"
        );
        for i in 0..c.num_landmarks() {
            let (pp, cp) = (p.label_row(i).pages(), c.label_row(i).pages());
            for (old, new) in pp.iter().zip(cp) {
                let shared = Arc::ptr_eq(old, new);
                let unchanged = old == new;
                assert!(unchanged || !shared, "a changed page cannot be shared");
                if exact {
                    assert_eq!(shared, unchanged, "landmark {i}: unchanged page not shared");
                }
                unshared_pages += usize::from(!shared);
            }
            new_pages += cp.len() - pp.len();
        }
        let (pb, cb) = (p.packed().labels.blocks(), c.packed().labels.blocks());
        blocks += cb.len();
        for (b, cell) in cb.iter().enumerate() {
            let shared = pb.get(b).is_some_and(|old| old.ptr_eq(cell));
            if exact {
                assert_eq!(shared, pb.get(b) == Some(cell), "block {b}");
            }
            unshared_blocks += usize::from(!shared);
        }
    }
    // Every page or block that differs was copied or sealed by some
    // pass of the commit; a single pass copies and seals nothing else.
    assert!(unshared_pages <= stats.pages_copied, "{stats:?}");
    assert!(unshared_blocks <= stats.blocks_resealed, "{stats:?}");
    if exact {
        assert!(
            stats.pages_copied <= unshared_pages + new_pages,
            "{stats:?}"
        );
        assert_eq!(unshared_blocks, stats.blocks_resealed, "{stats:?}");
        assert!(stats.blocks_resealed <= blocks);
    }
}

/// Commit `STEPS` random batches and check every generation.
fn drive<F: Family>(index: &mut F, seed: u64, exact: bool) {
    let mut rng = SplitMix64::new(seed);
    // Generations pinned across commits: two at a time force the
    // recycler's clone fallback.
    let mut held: Vec<Arc<Versioned<F::Snap>>> = Vec::new();
    for step in 0..STEPS {
        let prev = index.published();
        let n = F::num_vertices(prev.value());
        let qs = pairs(&mut rng, n);
        let before = answers(prev.value(), &qs);
        assert_truth::<F>(prev.value(), &qs, &before);

        let grow = if rng.below(3) == 0 { 80 } else { 0 };
        let size = 1 + rng.below(24) as usize;
        let rollback = rng.below(5) == 0;
        let token = rollback.then(|| index.backend().rollback_token());
        let stats = index.commit(&mut rng, size, grow);
        let cur = index.published();
        if stats.passes > 0 && stats.applied > 0 {
            check_sharing::<F>(prev.value(), cur.value(), &stats, exact);
        }
        if let Some(token) = token {
            index.backend().restore(token).expect("same family");
            let restored = index.published();
            for (p, r) in F::labellings(prev.value())
                .into_iter()
                .zip(F::labellings(restored.value()))
            {
                assert_eq!(p, r, "rollback restores the content");
                for i in 0..p.num_landmarks() {
                    let (pp, rp) = (p.label_row(i).pages(), r.label_row(i).pages());
                    assert!(pp.iter().zip(rp).all(|(a, b)| Arc::ptr_eq(a, b)));
                }
            }
        }
        assert_eq!(
            answers(prev.value(), &qs),
            before,
            "step {step}: pinned answers moved"
        );
        if rng.below(2) == 0 {
            held.push(prev);
        }
        if held.len() > 2 {
            held.remove(0);
        }
    }
    let last = index.published();
    let qs = pairs(&mut rng, F::num_vertices(last.value()));
    assert_truth::<F>(last.value(), &qs, &answers(last.value(), &qs));
}

fn config(algorithm: Algorithm, threads: usize) -> IndexConfig {
    IndexConfig {
        selection: LandmarkSelection::TopDegree(LANDMARKS),
        algorithm,
        threads,
        ..IndexConfig::default()
    }
}

/// About 2 000 vertices, so rows span a page boundary after growth.
fn size(seed: u64) -> usize {
    2_000 + (seed % 40) as usize
}

const ALGORITHMS: [Algorithm; 3] = [Algorithm::BhlPlus, Algorithm::BhlS, Algorithm::Uhl];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    #[test]
    fn undirected_generations_share_unchanged_pages(
        seed in 0u64..1_000_000,
        algorithm in 0usize..3,
        parallel in prop::bool::ANY,
    ) {
        let algorithm = ALGORITHMS[algorithm];
        let threads = if parallel { 4 } else { 1 };
        let g = barabasi_albert(size(seed), 2, seed);
        let mut index = BatchIndex::build(g, config(algorithm, threads));
        drive(&mut index, seed, algorithm == Algorithm::BhlPlus);
    }

    #[test]
    fn directed_generations_share_unchanged_pages(
        seed in 0u64..1_000_000,
        algorithm in 0usize..2,
        parallel in prop::bool::ANY,
    ) {
        let algorithm = ALGORITHMS[algorithm];
        let threads = if parallel { 4 } else { 1 };
        let n = size(seed);
        let mut g = DynamicDiGraph::new(n);
        for (a, b) in barabasi_albert(n, 2, seed).edges() {
            g.insert_edge(a, b);
            if (a ^ b) % 3 != 0 {
                g.insert_edge(b, a);
            }
        }
        let mut index = DirectedBatchIndex::build(g, config(algorithm, threads));
        drive(&mut index, seed, algorithm == Algorithm::BhlPlus);
    }

    #[test]
    fn weighted_generations_share_unchanged_pages(
        seed in 0u64..1_000_000,
        parallel in prop::bool::ANY,
    ) {
        let n = size(seed);
        let mut g = WeightedGraph::new(n);
        for (a, b) in barabasi_albert(n, 2, seed).edges() {
            g.insert_edge(a, b, 1 + (a + 3 * b) % 5);
        }
        let threads = if parallel { 4 } else { 1 };
        let mut index = WeightedBatchIndex::build(g, LANDMARKS).with_threads(threads);
        drive(&mut index, seed, true);
    }
}
