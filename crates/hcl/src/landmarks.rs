//! Landmark selection.
//!
//! The paper selects the highest-degree vertices (20 by default, "in the
//! same way as FulFD"); degree is the standard centrality proxy on
//! complex networks, where hubs cover a large fraction of shortest
//! paths. Random selection and explicit lists are provided for
//! experiments and tests.

use batchhl_common::SplitMix64;
use batchhl_graph::weighted::WeightedGraph;
use batchhl_graph::{DynamicDiGraph, DynamicGraph, Vertex};
use std::cmp::Reverse;

/// Strategy for choosing the landmark set `R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LandmarkSelection {
    /// The `k` highest-degree vertices (ties by vertex id) — the
    /// paper's choice.
    TopDegree(usize),
    /// `k` uniform random vertices (seeded).
    Random { count: usize, seed: u64 },
    /// An explicit landmark list.
    Explicit(Vec<Vertex>),
}

impl LandmarkSelection {
    /// Default configuration used throughout the paper's experiments.
    pub fn paper_default() -> Self {
        LandmarkSelection::TopDegree(20)
    }

    /// Materialize the landmark set for an undirected graph.
    pub fn select(&self, g: &DynamicGraph) -> Vec<Vertex> {
        self.materialize(g.num_vertices(), |v| g.degree(v))
    }

    /// Materialize the landmark set for a weighted graph (degree
    /// ignores weights — hub coverage is structural).
    pub fn select_weighted(&self, g: &WeightedGraph) -> Vec<Vertex> {
        self.materialize(g.num_vertices(), |v| g.degree(v))
    }

    /// Materialize the landmark set for a directed graph (total degree).
    pub fn select_directed(&self, g: &DynamicDiGraph) -> Vec<Vertex> {
        self.materialize(g.num_vertices(), |v| g.degree(v))
    }

    fn materialize(&self, n: usize, degree: impl Fn(Vertex) -> usize) -> Vec<Vertex> {
        match self {
            LandmarkSelection::TopDegree(k) => top_degree(n, *k, degree),
            LandmarkSelection::Random { count, seed } => {
                let mut rng = SplitMix64::new(*seed);
                let mut all: Vec<Vertex> = (0..n as Vertex).collect();
                rng.shuffle(&mut all);
                all.truncate((*count).min(n));
                all
            }
            LandmarkSelection::Explicit(list) => list.clone(),
        }
    }
}

/// The `k` highest-degree vertices of `0..n`, ties by vertex id — the
/// first `k` of `vertices_by_degree()` — without sorting all `n`: a
/// linear-time selection of the prefix, then a sort of the prefix alone.
fn top_degree(n: usize, k: usize, degree: impl Fn(Vertex) -> usize) -> Vec<Vertex> {
    let k = k.min(n);
    let key = |&v: &Vertex| (Reverse(degree(v)), v);
    let mut order: Vec<Vertex> = (0..n as Vertex).collect();
    if k < n {
        order.select_nth_unstable_by_key(k, key);
        order.truncate(k);
    }
    order.sort_unstable_by_key(key);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_graph::generators::{self, star};

    #[test]
    fn top_degree_picks_hub_first() {
        let g = star(10);
        let lms = LandmarkSelection::TopDegree(3).select(&g);
        assert_eq!(lms.len(), 3);
        assert_eq!(lms[0], 0, "star centre has max degree");
    }

    #[test]
    fn top_degree_caps_at_n() {
        let g = star(3);
        let lms = LandmarkSelection::TopDegree(10).select(&g);
        assert_eq!(lms.len(), 3);
    }

    #[test]
    fn random_is_seeded_and_distinct() {
        let g = star(50);
        let a = LandmarkSelection::Random { count: 10, seed: 3 }.select(&g);
        let b = LandmarkSelection::Random { count: 10, seed: 3 }.select(&g);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "landmarks must be distinct");
    }

    #[test]
    fn explicit_passthrough() {
        let g = star(5);
        let lms = LandmarkSelection::Explicit(vec![4, 2]).select(&g);
        assert_eq!(lms, vec![4, 2]);
    }

    #[test]
    fn top_degree_is_the_prefix_of_the_full_degree_order() {
        // Tie-heavy shapes: one hub and equal leaves, a grid's three
        // degree classes, a complete graph where every degree ties.
        let graphs = [
            generators::star(40),
            generators::grid(7, 6),
            generators::complete(12),
            generators::barabasi_albert(300, 2, 5),
        ];
        for g in &graphs {
            let n = g.num_vertices();
            let full = g.vertices_by_degree();
            for k in [0, 1, 20, n - 1, n, n + 3] {
                let got = LandmarkSelection::TopDegree(k).select(g);
                assert_eq!(got, full[..k.min(n)], "n={n} k={k}");
            }
        }
        let d = DynamicDiGraph::from_edges(6, &[(0, 1), (2, 1), (3, 4), (4, 5), (5, 3)]);
        let w = WeightedGraph::from_edges(5, &[(0, 1, 7), (1, 2, 1), (3, 4, 2)]);
        for k in [1, 3, 6] {
            let got = LandmarkSelection::TopDegree(k).select_directed(&d);
            assert_eq!(got, d.vertices_by_degree()[..k.min(6)]);
            let got = LandmarkSelection::TopDegree(k).select_weighted(&w);
            assert_eq!(got, w.vertices_by_degree()[..k.min(5)]);
        }
    }

    #[test]
    fn directed_uses_total_degree() {
        let g = DynamicDiGraph::from_edges(4, &[(0, 1), (2, 1), (3, 1)]);
        let lms = LandmarkSelection::TopDegree(1).select_directed(&g);
        assert_eq!(lms, vec![1]);
    }
}
