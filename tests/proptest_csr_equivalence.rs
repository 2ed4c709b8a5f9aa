//! Property-based equivalence of the CSR snapshot + delta overlay
//! against the dynamic `Vec<Vec<_>>` adjacency, across generations.
//!
//! The CSR views are a pure re-layout: on every generation of a random
//! batch sequence, traversing the frozen base + overlay must yield
//! exactly the same adjacency, the same BFS/Dijkstra distances, and the
//! same query answers as the dynamic graph the writer mutates. The
//! compaction threshold is driven low so rebuild/clear cycles are
//! exercised, not just the overlay path.

use batchhl::core::index::{Algorithm, BatchIndex, CompactionPolicy, IndexConfig};
use batchhl::graph::bfs::bfs_distances;
use batchhl::graph::csr::{CsrDelta, CsrDiDelta, WeightedCsrDelta};
use batchhl::graph::weighted::{dijkstra, Weight, WeightedGraph};
use batchhl::graph::{Batch, DynamicDiGraph, DynamicGraph, Vertex};
use batchhl::hcl::{oracle, LandmarkSelection, QueryEngine};
use proptest::prelude::*;

const N: usize = 24;

fn edges_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..N as Vertex, 0..N as Vertex), 0..60)
}

fn updates_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..N as Vertex, 0..N as Vertex), 1..20)
}

/// Toggle-batch: flip the existence of every sampled pair.
fn toggle_batch(g: &DynamicGraph, pairs: &[(Vertex, Vertex)]) -> Batch {
    let mut b = Batch::new();
    for &(x, y) in pairs {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Undirected: adjacency and BFS distances agree on every
    // generation, through overlay growth and forced compactions.
    #[test]
    fn csr_overlay_matches_dynamic_bfs(
        edges in edges_strategy(),
        b1 in updates_strategy(),
        b2 in updates_strategy(),
        b3 in updates_strategy(),
    ) {
        let mut g = DynamicGraph::from_edges(N, &edges);
        let mut view = CsrDelta::from_adjacency(&g);
        view.set_compaction_policy(0.1, 0);
        for pairs in [b1, b2, b3] {
            let norm = toggle_batch(&g, &pairs).normalize(&g);
            g.apply_batch(&norm);
            view.absorb(g.num_vertices(), norm.touched_vertices(), |v| g.neighbors(v));
            for v in 0..g.num_vertices() as Vertex {
                prop_assert_eq!(view.list(v), g.neighbors(v), "adjacency of {}", v);
            }
            for s in 0..g.num_vertices() as Vertex {
                prop_assert_eq!(bfs_distances(&view, s), bfs_distances(&g, s), "bfs from {}", s);
            }
        }
    }

    // Directed: both traversal directions agree on every generation.
    #[test]
    fn directed_csr_overlay_matches_dynamic(
        arcs in prop::collection::vec((0..N as Vertex, 0..N as Vertex), 0..70),
        b1 in updates_strategy(),
        b2 in updates_strategy(),
    ) {
        let mut g = DynamicDiGraph::from_edges(N, &arcs);
        let mut view = CsrDiDelta::from_adjacency(&g);
        view.set_compaction_policy(0.1, 0);
        for pairs in [b1, b2] {
            let mut batch = Batch::new();
            for &(x, y) in &pairs {
                if x == y {
                    continue;
                }
                if g.has_edge(x, y) {
                    batch.delete(x, y);
                } else {
                    batch.insert(x, y);
                }
            }
            let norm = batch.normalize_directed(&g);
            g.apply_batch(&norm);
            let arcs: Vec<(Vertex, Vertex)> =
                norm.updates().iter().map(|u| u.endpoints()).collect();
            view.absorb_arcs(&g, &arcs);
            use batchhl::graph::AdjacencyView;
            for v in 0..g.num_vertices() as Vertex {
                prop_assert_eq!(view.out_neighbors(v), g.out_neighbors(v), "out {}", v);
                prop_assert_eq!(view.in_neighbors(v), g.in_neighbors(v), "in {}", v);
            }
            for s in 0..g.num_vertices() as Vertex {
                prop_assert_eq!(bfs_distances(&view, s), bfs_distances(&g, s), "bfs from {}", s);
            }
        }
    }

    // Weighted: Dijkstra distances agree on every generation of a
    // random weight-churn sequence.
    #[test]
    fn weighted_csr_overlay_matches_dijkstra(
        edges in prop::collection::vec((0..N as Vertex, 0..N as Vertex, 1..9u32), 0..50),
        churn in prop::collection::vec((0..N as Vertex, 0..N as Vertex, 1..9u32), 1..20),
    ) {
        let weighted: Vec<(Vertex, Vertex, Weight)> = edges
            .iter()
            .filter(|&&(a, b, _)| a != b)
            .map(|&(a, b, w)| (a, b, w))
            .collect();
        let mut g = WeightedGraph::from_edges(N, &weighted);
        let mut view = WeightedCsrDelta::from_weighted(&g);
        view.set_compaction_policy(0.1, 0);
        let mut touched = Vec::new();
        for &(a, b, w) in &churn {
            if a == b {
                continue;
            }
            // Cycle each sampled pair through insert → reweight → delete.
            if g.weight(a, b) == Some(w) {
                g.remove_edge(a, b);
            } else if g.has_edge(a, b) {
                g.set_weight(a, b, w);
            } else {
                g.insert_edge(a, b, w);
            }
            touched.clear();
            touched.extend([a, b]);
            view.absorb_from(&g, touched.iter().copied());
            for s in 0..g.num_vertices() as Vertex {
                prop_assert_eq!(dijkstra(&view, s), dijkstra(&g, s), "dijkstra from {}", s);
            }
        }
    }

    // End to end: a reader answering over published CSR generations
    // returns exactly what a query engine over the dynamic adjacency
    // (and BFS ground truth) returns, on every generation.
    #[test]
    fn reader_over_csr_matches_dynamic_queries(
        edges in edges_strategy(),
        b1 in updates_strategy(),
        b2 in updates_strategy(),
    ) {
        let g0 = DynamicGraph::from_edges(N, &edges);
        let mut index = BatchIndex::build(
            g0,
            IndexConfig {
                selection: LandmarkSelection::TopDegree(4),
                algorithm: Algorithm::BhlPlus,
                threads: 1,
                compaction: CompactionPolicy::eager(0.1),
            },
        );
        let mut reader = index.reader();
        let mut engine = QueryEngine::new(N);
        for pairs in [b1, b2] {
            let batch = toggle_batch(index.graph(), &pairs);
            index.apply_batch(&batch);
            prop_assert!(oracle::check_minimal(index.graph(), index.labelling()).is_ok());
            let published = index.published();
            for s in 0..N as Vertex {
                for t in 0..N as Vertex {
                    // Same labelling, dynamic adjacency traversal:
                    let dynamic = engine.query_dist(&published.lab, &published.lab, &published.graph, s, t);
                    prop_assert_eq!(reader.query_dist(s, t), dynamic, "query({}, {})", s, t);
                }
            }
        }
    }
}
