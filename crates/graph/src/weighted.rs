//! Weighted dynamic graphs and the Dijkstra toolkit (Section 6 of the
//! paper: "for weighted graphs, we can use pruned Dijkstra's algorithm
//! in place of pruned BFSs", with updates as weight increases/decreases
//! instead of deletions/insertions).
//!
//! Weights are positive integers (`1..`); zero weights would break the
//! monotone settle-order arguments that the batch machinery's proofs
//! rely on (distances live in `N⁺`, Definition 3.2).

use crate::bfs::BoundedSearch;
use crate::update::Update;
use batchhl_common::{Dist, Vertex, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Edge weight (positive).
pub type Weight = u32;

/// Uniform view over weighted adjacency, mirroring
/// [`crate::AdjacencyView`] for `(neighbour, weight)` lists: the
/// Dijkstra toolkit and the weighted update kernel are generic over
/// this trait, so they traverse either the dynamic writer graph or the
/// published CSR snapshot ([`crate::csr::WeightedCsrDelta`]). Always
/// borrowed slices — no allocation on the traversal path.
pub trait WeightedAdjacencyView {
    /// Number of vertices (`0..n` ids are valid).
    fn num_vertices(&self) -> usize;

    /// Sorted `(neighbour, weight)` slice of `v`.
    fn weighted_neighbors(&self, v: Vertex) -> &[(Vertex, Weight)];

    /// O(1) degree.
    #[inline]
    fn weighted_degree(&self, v: Vertex) -> usize {
        self.weighted_neighbors(v).len()
    }
}

impl WeightedAdjacencyView for WeightedGraph {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn weighted_neighbors(&self, v: Vertex) -> &[(Vertex, Weight)] {
        self.neighbors(v)
    }
}

/// An undirected simple graph with positive integer edge weights.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedGraph {
    /// Sorted `(neighbour, weight)` lists, mirrored on both endpoints.
    adj: Vec<Vec<(Vertex, Weight)>>,
    num_edges: usize,
}

impl WeightedGraph {
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Build from weighted edges, ignoring self-loops and duplicates.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex, Weight)]) -> Self {
        let mut g = WeightedGraph::new(n);
        for &(u, v, w) in edges {
            g.insert_edge(u, v, w);
        }
        g
    }

    /// Assemble from complete per-vertex `(neighbour, weight)` lists
    /// (each sorted by neighbour, mirrored with equal weights on both
    /// endpoints) — the load path of the binary CSR snapshot format in
    /// [`crate::io`]. Structural validation included.
    pub fn try_from_adjacency(adj: Vec<Vec<(Vertex, Weight)>>) -> Result<Self, String> {
        let half_edges: usize = adj.iter().map(Vec::len).sum();
        if !half_edges.is_multiple_of(2) {
            return Err("odd half-edge count: adjacency not mirrored".into());
        }
        let g = WeightedGraph {
            adj,
            num_edges: half_edges / 2,
        };
        g.validate()?;
        Ok(g)
    }

    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.adj.len() {
            self.adj.resize(n, Vec::new());
        }
    }

    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v as usize].len()
    }

    /// Sorted `(neighbour, weight)` slice.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[(Vertex, Weight)] {
        &self.adj[v as usize]
    }

    /// Current weight of edge `{u, v}`, if present.
    pub fn weight(&self, u: Vertex, v: Vertex) -> Option<Weight> {
        self.adj[u as usize]
            .binary_search_by_key(&v, |&(x, _)| x)
            .ok()
            .map(|i| self.adj[u as usize][i].1)
    }

    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.weight(u, v).is_some()
    }

    /// Insert edge `{u, v}` with weight `w ≥ 1`. Invalid (returns
    /// `false`) for self-loops and existing edges.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex, w: Weight) -> bool {
        assert!(w >= 1, "weights must be positive");
        if u == v {
            return false;
        }
        let max = u.max(v) as usize;
        assert!(max < self.adj.len(), "vertex {max} out of bounds");
        match self.adj[u as usize].binary_search_by_key(&v, |&(x, _)| x) {
            Ok(_) => false,
            Err(iu) => {
                let iv = self.adj[v as usize]
                    .binary_search_by_key(&u, |&(x, _)| x)
                    .unwrap_err();
                self.adj[u as usize].insert(iu, (v, w));
                self.adj[v as usize].insert(iv, (u, w));
                self.num_edges += 1;
                true
            }
        }
    }

    pub fn remove_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        match self.adj[u as usize].binary_search_by_key(&v, |&(x, _)| x) {
            Err(_) => false,
            Ok(iu) => {
                let iv = self.adj[v as usize]
                    .binary_search_by_key(&u, |&(x, _)| x)
                    .unwrap();
                self.adj[u as usize].remove(iu);
                self.adj[v as usize].remove(iv);
                self.num_edges -= 1;
                true
            }
        }
    }

    /// Change the weight of an existing edge; returns the old weight.
    pub fn set_weight(&mut self, u: Vertex, v: Vertex, w: Weight) -> Option<Weight> {
        assert!(w >= 1, "weights must be positive");
        let iu = self.adj[u as usize]
            .binary_search_by_key(&v, |&(x, _)| x)
            .ok()?;
        let iv = self.adj[v as usize]
            .binary_search_by_key(&u, |&(x, _)| x)
            .ok()?;
        let old = self.adj[u as usize][iu].1;
        self.adj[u as usize][iu].1 = w;
        self.adj[v as usize][iv].1 = w;
        Some(old)
    }

    /// All edges as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex, Weight)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as Vertex;
            nbrs.iter()
                .copied()
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    pub fn vertices_by_degree(&self) -> Vec<Vertex> {
        let mut order: Vec<Vertex> = (0..self.num_vertices() as Vertex).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v)), v));
        order
    }

    pub fn validate(&self) -> Result<(), String> {
        let mut half = 0usize;
        for (u, nbrs) in self.adj.iter().enumerate() {
            if !nbrs.windows(2).all(|p| p[0].0 < p[1].0) {
                return Err(format!("adjacency of {u} not sorted"));
            }
            for &(v, w) in nbrs {
                if w == 0 {
                    return Err(format!("zero weight on ({u},{v})"));
                }
                if v as usize == u {
                    return Err(format!("self-loop at {u}"));
                }
                match self.weight(v, u as Vertex) {
                    Some(wv) if wv == w => {}
                    _ => return Err(format!("edge ({u},{v}) not mirrored with weight {w}")),
                }
            }
            half += nbrs.len();
        }
        if half != 2 * self.num_edges {
            return Err("edge count mismatch".into());
        }
        Ok(())
    }
}

/// A weighted update: structural or a weight change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightedUpdate {
    /// Add edge `{a, b}` with a weight.
    Insert(Vertex, Vertex, Weight),
    /// Remove edge `{a, b}`.
    Delete(Vertex, Vertex),
    /// Set the weight of existing edge `{a, b}`.
    SetWeight(Vertex, Vertex, Weight),
}

impl WeightedUpdate {
    pub fn endpoints(self) -> (Vertex, Vertex) {
        match self {
            WeightedUpdate::Insert(a, b, _)
            | WeightedUpdate::Delete(a, b)
            | WeightedUpdate::SetWeight(a, b, _) => (a, b),
        }
    }

    /// Canonical endpoint order (`a ≤ b`).
    pub fn canonical(self) -> Self {
        let (a, b) = self.endpoints();
        if a <= b {
            return self;
        }
        match self {
            WeightedUpdate::Insert(_, _, w) => WeightedUpdate::Insert(b, a, w),
            WeightedUpdate::Delete(..) => WeightedUpdate::Delete(b, a),
            WeightedUpdate::SetWeight(_, _, w) => WeightedUpdate::SetWeight(b, a, w),
        }
    }

    /// View an unweighted update as a weighted one (unit weights).
    pub fn from_unweighted(u: Update) -> Self {
        match u {
            Update::Insert(a, b) => WeightedUpdate::Insert(a, b, 1),
            Update::Delete(a, b) => WeightedUpdate::Delete(a, b),
        }
    }
}

/// Dijkstra distances from `src` (binary heap; weights ≥ 1).
pub fn dijkstra<W: WeightedAdjacencyView>(g: &W, src: Vertex) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_vertices()];
    let mut heap: BinaryHeap<Reverse<(Dist, Vertex)>> = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(w, wt) in g.weighted_neighbors(v) {
            let nd = d.saturating_add(wt);
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    dist
}

impl<W: WeightedAdjacencyView> BoundedSearch<W> for BiDijkstra {
    fn num_vertices(g: &W) -> usize {
        g.num_vertices()
    }

    fn run<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &W,
        s: Vertex,
        t: Vertex,
        bound: Dist,
        allowed: F,
    ) -> Option<Dist> {
        BiDijkstra::run(self, g, s, t, bound, allowed)
    }

    fn sweep<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &W,
        s: Vertex,
        bound: Dist,
        cap: usize,
        allowed: F,
    ) {
        BiDijkstra::sweep(self, g, s, bound, cap, allowed)
    }

    fn swept(&self) -> &[Vertex] {
        BiDijkstra::swept(self)
    }

    fn sweep_dist(&self, v: Vertex) -> Dist {
        BiDijkstra::sweep_dist(self, v)
    }
}

/// Distance-bounded bidirectional Dijkstra on the subgraph of vertices
/// passing `allowed`, reporting `d(s,t)` only if `< bound`.
#[derive(Debug, Default)]
pub struct BiDijkstra {
    ds: Vec<Dist>,
    dt: Vec<Dist>,
    touched_s: Vec<Vertex>,
    touched_t: Vec<Vertex>,
    /// Settle order of the last [`BiDijkstra::sweep`].
    order: Vec<Vertex>,
}

impl BiDijkstra {
    pub fn new(n: usize) -> Self {
        BiDijkstra {
            ds: vec![INF; n],
            dt: vec![INF; n],
            ..Default::default()
        }
    }

    pub fn grow(&mut self, n: usize) {
        if n > self.ds.len() {
            self.ds.resize(n, INF);
            self.dt.resize(n, INF);
        }
    }

    pub fn run<W: WeightedAdjacencyView, F: Fn(Vertex) -> bool>(
        &mut self,
        g: &W,
        s: Vertex,
        t: Vertex,
        bound: Dist,
        allowed: F,
    ) -> Option<Dist> {
        if bound == 0 {
            return None;
        }
        if s == t {
            return Some(0);
        }
        self.reset();
        self.grow(g.num_vertices());
        let mut hs: BinaryHeap<Reverse<(Dist, Vertex)>> = BinaryHeap::new();
        let mut ht: BinaryHeap<Reverse<(Dist, Vertex)>> = BinaryHeap::new();
        self.ds[s as usize] = 0;
        self.dt[t as usize] = 0;
        self.touched_s.push(s);
        self.touched_t.push(t);
        hs.push(Reverse((0, s)));
        ht.push(Reverse((0, t)));
        let mut best = INF;
        // Alternate by smaller settled radius; stop when the radii sum
        // can no longer beat the incumbent.
        loop {
            let rs = hs.peek().map(|&Reverse((d, _))| d);
            let rt = ht.peek().map(|&Reverse((d, _))| d);
            let (expand_s, radius_sum) = match (rs, rt) {
                (None, None) => break,
                (Some(a), None) => (true, a),
                (None, Some(b)) => (false, b),
                (Some(a), Some(b)) => (a <= b, a.saturating_add(b)),
            };
            if radius_sum >= best || radius_sum >= bound {
                break;
            }
            let (heap, dist, other, touched) = if expand_s {
                (&mut hs, &mut self.ds, &self.dt, &mut self.touched_s)
            } else {
                (&mut ht, &mut self.dt, &self.ds, &mut self.touched_t)
            };
            if let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v as usize] {
                    continue;
                }
                if other[v as usize] != INF {
                    best = best.min(d.saturating_add(other[v as usize]));
                }
                for &(w, wt) in g.weighted_neighbors(v) {
                    if !allowed(w) {
                        continue;
                    }
                    let nd = d.saturating_add(wt);
                    if nd < dist[w as usize] {
                        if dist[w as usize] == INF {
                            touched.push(w);
                        }
                        dist[w as usize] = nd;
                        heap.push(Reverse((nd, w)));
                        if other[w as usize] != INF {
                            best = best.min(nd.saturating_add(other[w as usize]));
                        }
                    }
                }
            }
        }
        (best < bound).then_some(best)
    }

    /// One-sided bounded Dijkstra from `s` over the subgraph of
    /// vertices passing `allowed` — the weighted counterpart of
    /// [`crate::bfs::BiBfs::sweep`]. One sweep settles `d(s, v)` for
    /// every vertex within distance `bound` (or until `cap` vertices
    /// have settled), so a caller with many targets pays one traversal
    /// instead of one bidirectional search per target.
    ///
    /// Afterwards [`BiDijkstra::swept`] lists the settled vertices in
    /// nondecreasing-distance order (source first) and
    /// [`BiDijkstra::sweep_dist`] reads distances; a vertex that did not
    /// settle reads either `INF` or a tentative value strictly greater
    /// than the sweep's stopping radius, so `min(bound_v, sweep_dist(v))`
    /// is exact for any per-target bound `bound_v ≤ bound`.
    pub fn sweep<W, F>(&mut self, g: &W, s: Vertex, bound: Dist, cap: usize, allowed: F)
    where
        W: WeightedAdjacencyView,
        F: Fn(Vertex) -> bool,
    {
        debug_assert!(allowed(s), "sweep source must be allowed");
        self.reset();
        self.grow(g.num_vertices());
        self.order.clear();
        if cap == 0 {
            return;
        }
        let mut heap: BinaryHeap<Reverse<(Dist, Vertex)>> = BinaryHeap::new();
        self.ds[s as usize] = 0;
        self.touched_s.push(s);
        heap.push(Reverse((0, s)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > self.ds[v as usize] {
                continue; // stale heap entry
            }
            if d > bound {
                break;
            }
            self.order.push(v);
            if self.order.len() >= cap {
                break;
            }
            for &(w, wt) in g.weighted_neighbors(v) {
                if !allowed(w) {
                    continue;
                }
                let nd = d.saturating_add(wt);
                if nd < self.ds[w as usize] {
                    if self.ds[w as usize] == INF {
                        self.touched_s.push(w);
                    }
                    self.ds[w as usize] = nd;
                    heap.push(Reverse((nd, w)));
                }
            }
        }
    }

    /// The vertices settled by the last [`BiDijkstra::sweep`], in
    /// nondecreasing-distance order; the source comes first.
    #[inline]
    pub fn swept(&self) -> &[Vertex] {
        &self.order
    }

    /// Distance recorded by the last [`BiDijkstra::sweep`] (`INF` when
    /// the sweep never reached `v`; only values of settled vertices —
    /// those in [`BiDijkstra::swept`] — are final).
    #[inline]
    pub fn sweep_dist(&self, v: Vertex) -> Dist {
        self.ds[v as usize]
    }

    fn reset(&mut self) {
        for &v in &self.touched_s {
            self.ds[v as usize] = INF;
        }
        for &v in &self.touched_t {
            self.dt[v as usize] = INF;
        }
        self.touched_s.clear();
        self.touched_t.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wpath(ws: &[Weight]) -> WeightedGraph {
        let mut g = WeightedGraph::new(ws.len() + 1);
        for (i, &w) in ws.iter().enumerate() {
            g.insert_edge(i as Vertex, i as Vertex + 1, w);
        }
        g
    }

    #[test]
    fn insert_remove_set_weight() {
        let mut g = WeightedGraph::new(4);
        assert!(g.insert_edge(0, 1, 5));
        assert!(!g.insert_edge(1, 0, 3), "duplicate");
        assert_eq!(g.weight(0, 1), Some(5));
        assert_eq!(g.set_weight(1, 0, 2), Some(5));
        assert_eq!(g.weight(0, 1), Some(2));
        assert_eq!(g.set_weight(0, 3, 9), None, "absent edge");
        assert!(g.remove_edge(0, 1));
        assert!(!g.has_edge(0, 1));
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let mut g = WeightedGraph::new(2);
        g.insert_edge(0, 1, 0);
    }

    #[test]
    fn dijkstra_weighted_path() {
        let g = wpath(&[3, 1, 4, 1]);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0, 3, 4, 8, 9]);
    }

    #[test]
    fn dijkstra_prefers_light_detour() {
        // 0-1 weight 10, 0-2 w1, 2-1 w1: d(0,1)=2.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 10), (0, 2, 1), (2, 1, 1)]);
        assert_eq!(dijkstra(&g, 0)[1], 2);
    }

    #[test]
    fn bidijkstra_matches_dijkstra() {
        use batchhl_common::SplitMix64;
        let mut rng = SplitMix64::new(5);
        let mut g = WeightedGraph::new(40);
        while g.num_edges() < 90 {
            let a = rng.below(40) as Vertex;
            let b = rng.below(40) as Vertex;
            if a != b {
                g.insert_edge(a, b, 1 + rng.below(9) as Weight);
            }
        }
        let mut bi = BiDijkstra::new(40);
        for s in 0..40u32 {
            let truth = dijkstra(&g, s);
            for t in 0..40u32 {
                let got = bi.run(&g, s, t, INF, |_| true).unwrap_or(INF);
                assert_eq!(got, truth[t as usize], "({s},{t})");
            }
        }
    }

    #[test]
    fn bidijkstra_respects_bound_and_filter() {
        let g = wpath(&[2, 2, 2]);
        let mut bi = BiDijkstra::new(4);
        assert_eq!(bi.run(&g, 0, 3, INF, |_| true), Some(6));
        assert_eq!(bi.run(&g, 0, 3, 6, |_| true), None);
        assert_eq!(bi.run(&g, 0, 3, 7, |_| true), Some(6));
        assert_eq!(bi.run(&g, 0, 3, INF, |v| v != 1), None);
    }

    #[test]
    fn sweep_matches_dijkstra_and_settles_in_order() {
        use batchhl_common::SplitMix64;
        let mut rng = SplitMix64::new(9);
        let mut g = WeightedGraph::new(30);
        while g.num_edges() < 70 {
            let a = rng.below(30) as Vertex;
            let b = rng.below(30) as Vertex;
            if a != b {
                g.insert_edge(a, b, 1 + rng.below(7) as Weight);
            }
        }
        let mut bi = BiDijkstra::new(30);
        for s in (0..30u32).step_by(3) {
            let truth = dijkstra(&g, s);
            bi.sweep(&g, s, INF, usize::MAX, |_| true);
            for t in 0..30u32 {
                assert_eq!(bi.sweep_dist(t), truth[t as usize], "({s},{t})");
            }
            assert_eq!(bi.swept()[0], s);
            let dists: Vec<Dist> = bi.swept().iter().map(|&v| bi.sweep_dist(v)).collect();
            assert!(dists.windows(2).all(|w| w[0] <= w[1]), "settle order");
            // Interleaving with bidirectional runs must stay clean.
            assert_eq!(
                bi.run(&g, s, (s + 7) % 30, INF, |_| true).unwrap_or(INF),
                truth[((s + 7) % 30) as usize]
            );
        }
    }

    #[test]
    fn sweep_respects_bound_cap_and_filter() {
        let g = wpath(&[2, 2, 2, 2]);
        let mut bi = BiDijkstra::new(5);
        bi.sweep(&g, 0, 4, usize::MAX, |_| true);
        assert_eq!(bi.swept(), &[0, 1, 2], "vertices within distance 4");
        assert_eq!(bi.sweep_dist(2), 4);
        bi.sweep(&g, 0, INF, 2, |_| true);
        assert_eq!(bi.swept(), &[0, 1], "cap stops settling");
        bi.sweep(&g, 0, INF, usize::MAX, |v| v != 2);
        assert_eq!(bi.sweep_dist(1), 2);
        assert_eq!(bi.sweep_dist(3), INF, "filter blocks the path");
    }

    #[test]
    fn weighted_update_canonical() {
        assert_eq!(
            WeightedUpdate::Insert(5, 2, 7).canonical(),
            WeightedUpdate::Insert(2, 5, 7)
        );
        assert_eq!(
            WeightedUpdate::from_unweighted(Update::Delete(1, 2)),
            WeightedUpdate::Delete(1, 2)
        );
    }
}
