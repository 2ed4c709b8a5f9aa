//! BFS toolkit: one-shot distances, reusable workspaces and the
//! distance-bounded bidirectional search of Section 4.
//!
//! Every structure here is generic over [`AdjacencyView`] so the same
//! code serves undirected graphs, directed graphs and reversed views.
//! The workspaces keep their arrays alive between runs and reset them
//! sparsely (only touched entries), which matters when thousands of
//! queries run back-to-back.

use crate::AdjacencyView;
use batchhl_common::{dist_add1, Dist, Vertex, INF};
use std::collections::VecDeque;

/// One-shot BFS distances from `src` following out-edges.
///
/// Returns a dense `Vec` with `INF` for unreachable vertices.
pub fn bfs_distances<A: AdjacencyView>(g: &A, src: Vertex) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &w in g.out_neighbors(v) {
            if dist[w as usize] == INF {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// One-shot BFS distances *to* `dst` following in-edges (equals
/// [`bfs_distances`] on undirected graphs).
pub fn bfs_distances_rev<A: AdjacencyView>(g: &A, dst: Vertex) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[dst as usize] = 0;
    queue.push_back(dst);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &w in g.in_neighbors(v) {
            if dist[w as usize] == INF {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Reusable single-side BFS workspace with sparse reset.
#[derive(Debug, Default)]
pub struct BfsWorkspace {
    dist: Vec<Dist>,
    touched: Vec<Vertex>,
    queue: VecDeque<Vertex>,
}

impl BfsWorkspace {
    pub fn new(n: usize) -> Self {
        BfsWorkspace {
            dist: vec![INF; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    pub fn grow(&mut self, n: usize) {
        if n > self.dist.len() {
            self.dist.resize(n, INF);
        }
    }

    /// Distance recorded by the last run (`INF` if untouched).
    #[inline]
    pub fn dist(&self, v: Vertex) -> Dist {
        self.dist[v as usize]
    }

    /// Run a BFS from `src`, stopping early once `max_dist` is exceeded.
    /// Returns the touched vertices (in BFS order).
    pub fn run<A: AdjacencyView>(&mut self, g: &A, src: Vertex, max_dist: Dist) -> &[Vertex] {
        self.reset();
        self.grow(g.num_vertices());
        self.dist[src as usize] = 0;
        self.touched.push(src);
        self.queue.push_back(src);
        while let Some(v) = self.queue.pop_front() {
            let dv = self.dist[v as usize];
            if dv >= max_dist {
                break;
            }
            for &w in g.out_neighbors(v) {
                if self.dist[w as usize] == INF {
                    self.dist[w as usize] = dv + 1;
                    self.touched.push(w);
                    self.queue.push_back(w);
                }
            }
        }
        &self.touched
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INF;
        }
        self.touched.clear();
        self.queue.clear();
    }
}

/// A reusable distance-bounded search workspace over graphs of type
/// `G`: the refinement half of Section 4's query. [`BiBfs`] implements
/// it for unweighted views and [`crate::weighted::BiDijkstra`] for
/// weighted ones, so one query path (the point query, the one-to-many
/// sweep and top-k) serves every index family. Each method has the
/// contract of the [`BiBfs`] inherent method of the same name.
pub trait BoundedSearch<G> {
    /// Vertex count of `g` (`0..n` are valid ids).
    fn num_vertices(g: &G) -> usize;

    /// See [`BiBfs::run`].
    fn run<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &G,
        s: Vertex,
        t: Vertex,
        bound: Dist,
        allowed: F,
    ) -> Option<Dist>;

    /// See [`BiBfs::sweep`].
    fn sweep<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &G,
        s: Vertex,
        bound: Dist,
        cap: usize,
        allowed: F,
    );

    /// See [`BiBfs::swept`].
    fn swept(&self) -> &[Vertex];

    /// See [`BiBfs::sweep_dist`].
    fn sweep_dist(&self, v: Vertex) -> Dist;
}

impl<A: AdjacencyView> BoundedSearch<A> for BiBfs {
    fn num_vertices(g: &A) -> usize {
        g.num_vertices()
    }

    fn run<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &A,
        s: Vertex,
        t: Vertex,
        bound: Dist,
        allowed: F,
    ) -> Option<Dist> {
        BiBfs::run(self, g, s, t, bound, allowed)
    }

    fn sweep<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &A,
        s: Vertex,
        bound: Dist,
        cap: usize,
        allowed: F,
    ) {
        BiBfs::sweep(self, g, s, bound, cap, allowed)
    }

    fn swept(&self) -> &[Vertex] {
        BiBfs::swept(self)
    }

    fn sweep_dist(&self, v: Vertex) -> Dist {
        BiBfs::sweep_dist(self, v)
    }
}

/// Reusable distance-bounded bidirectional BFS (Section 4).
///
/// Computes `d(s, t)` restricted to vertices that pass a filter (the
/// query engine filters out landmarks to search `G[V \ R]`), but only if
/// that distance is strictly below `bound`; otherwise reports `None`.
/// The search expands the side with the smaller frontier volume (sum of
/// degrees), the optimization credited to BiBFS in the paper's baseline
/// list.
#[derive(Debug, Default)]
pub struct BiBfs {
    ds: Vec<Dist>,
    dt: Vec<Dist>,
    touched_s: Vec<Vertex>,
    touched_t: Vec<Vertex>,
    frontier_s: Vec<Vertex>,
    frontier_t: Vec<Vertex>,
    next: Vec<Vertex>,
}

impl BiBfs {
    pub fn new(n: usize) -> Self {
        BiBfs {
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

    /// Exact `d(s, t)` in the subgraph induced by vertices with
    /// `allowed(v)`, provided it is `< bound`; `None` otherwise.
    ///
    /// `s` and `t` must themselves be allowed. `bound = INF` turns this
    /// into an unbounded bidirectional search.
    pub fn run<A, F>(
        &mut self,
        g: &A,
        s: Vertex,
        t: Vertex,
        bound: Dist,
        allowed: F,
    ) -> Option<Dist>
    where
        A: AdjacencyView,
        F: Fn(Vertex) -> bool,
    {
        debug_assert!(allowed(s) && allowed(t), "endpoints must be allowed");
        if bound == 0 {
            return None;
        }
        if s == t {
            return Some(0);
        }
        self.reset();
        self.grow(g.num_vertices());
        self.ds[s as usize] = 0;
        self.dt[t as usize] = 0;
        self.touched_s.push(s);
        self.touched_t.push(t);
        self.frontier_s.push(s);
        self.frontier_t.push(t);
        let (mut ls, mut lt) = (0 as Dist, 0 as Dist);
        let mut best = INF;
        // Frontier volumes (sum of out/in degrees) are maintained
        // incrementally: each expansion accumulates the degrees of the
        // vertices it discovers, so choosing the cheaper side is O(1)
        // per level instead of a rescan of both frontiers. On CSR views
        // the degree reads are two offset loads.
        let mut vol_s = g.out_degree(s);
        let mut vol_t = g.in_degree(t);

        while !self.frontier_s.is_empty() && !self.frontier_t.is_empty() {
            // No undiscovered path can be shorter than ls + lt + 1.
            let horizon = dist_add1(ls.saturating_add(lt));
            if horizon >= best || horizon >= bound {
                break;
            }
            // Expand the cheaper side; `next` is the shared scratch
            // buffer for whichever direction runs, so switching sides
            // reuses the same allocation.
            if vol_s <= vol_t {
                ls += 1;
                self.next.clear();
                let mut vol = 0usize;
                for i in 0..self.frontier_s.len() {
                    let v = self.frontier_s[i];
                    for &w in g.out_neighbors(v) {
                        if !allowed(w) || self.ds[w as usize] != INF {
                            continue;
                        }
                        if self.dt[w as usize] != INF {
                            best = best.min(ls.saturating_add(self.dt[w as usize]));
                        }
                        self.ds[w as usize] = ls;
                        self.touched_s.push(w);
                        self.next.push(w);
                        vol += g.out_degree(w);
                    }
                }
                vol_s = vol;
                std::mem::swap(&mut self.frontier_s, &mut self.next);
            } else {
                lt += 1;
                self.next.clear();
                let mut vol = 0usize;
                for i in 0..self.frontier_t.len() {
                    let v = self.frontier_t[i];
                    for &w in g.in_neighbors(v) {
                        if !allowed(w) || self.dt[w as usize] != INF {
                            continue;
                        }
                        if self.ds[w as usize] != INF {
                            best = best.min(lt.saturating_add(self.ds[w as usize]));
                        }
                        self.dt[w as usize] = lt;
                        self.touched_t.push(w);
                        self.next.push(w);
                        vol += g.in_degree(w);
                    }
                }
                vol_t = vol;
                std::mem::swap(&mut self.frontier_t, &mut self.next);
            }
        }
        (best < bound).then_some(best)
    }

    /// One-sided bounded BFS from `s` over the subgraph of vertices
    /// passing `allowed`, reusing the source-side arrays of the
    /// bidirectional workspace (sparse reset, no allocation in steady
    /// state).
    ///
    /// The one-to-many counterpart of [`BiBfs::run`]: a single sweep
    /// discovers `d(s, v)` for *every* vertex within `bound` hops (or
    /// until at least `cap` vertices have been discovered), so a caller
    /// with many targets pays one traversal instead of one bidirectional
    /// search per target. Afterwards [`BiBfs::swept`] lists the
    /// discovered vertices in nondecreasing-distance order and
    /// [`BiBfs::sweep_dist`] reads their distances; undiscovered
    /// vertices read `INF`.
    ///
    /// The cap is checked at level boundaries only: the level in which
    /// it is crossed always completes, so the swept set is closed under
    /// distance — every vertex at distance ≤ the deepest swept level is
    /// present, never an adjacency-order-dependent subset of a level.
    /// (Top-k callers rely on this to break boundary ties
    /// deterministically rather than by iteration order.)
    ///
    /// `s` must itself be allowed. `bound = INF` sweeps the whole
    /// reachable component; `cap = usize::MAX` disables the count stop.
    pub fn sweep<A, F>(&mut self, g: &A, s: Vertex, bound: Dist, cap: usize, allowed: F)
    where
        A: AdjacencyView,
        F: Fn(Vertex) -> bool,
    {
        debug_assert!(allowed(s), "sweep source must be allowed");
        self.reset();
        self.grow(g.num_vertices());
        if cap == 0 {
            return;
        }
        self.ds[s as usize] = 0;
        self.touched_s.push(s);
        self.frontier_s.push(s);
        let mut level: Dist = 0;
        while !self.frontier_s.is_empty() && level < bound && self.touched_s.len() < cap {
            level += 1;
            self.next.clear();
            for i in 0..self.frontier_s.len() {
                let v = self.frontier_s[i];
                for &w in g.out_neighbors(v) {
                    if !allowed(w) || self.ds[w as usize] != INF {
                        continue;
                    }
                    self.ds[w as usize] = level;
                    self.touched_s.push(w);
                    self.next.push(w);
                }
            }
            std::mem::swap(&mut self.frontier_s, &mut self.next);
        }
        self.frontier_s.clear();
        self.next.clear();
    }

    /// The vertices discovered by the last [`BiBfs::sweep`], in
    /// nondecreasing-distance (BFS) order; the source comes first.
    #[inline]
    pub fn swept(&self) -> &[Vertex] {
        &self.touched_s
    }

    /// Distance recorded by the last [`BiBfs::sweep`] (`INF` when the
    /// sweep did not reach `v`).
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
        self.frontier_s.clear();
        self.frontier_t.clear();
        self.next.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DynamicDiGraph;
    use crate::graph::DynamicGraph;

    fn path(n: usize) -> DynamicGraph {
        let edges: Vec<(Vertex, Vertex)> = (0..n as Vertex - 1).map(|i| (i, i + 1)).collect();
        DynamicGraph::from_edges(n, &edges)
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, 2);
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_disconnected() {
        let g = DynamicGraph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, INF, INF]);
    }

    #[test]
    fn bfs_directed_vs_reverse() {
        let g = DynamicDiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 3), vec![INF, INF, INF, 0]);
        assert_eq!(bfs_distances_rev(&g, 3), vec![3, 2, 1, 0]);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = path(6);
        let mut ws = BfsWorkspace::new(6);
        ws.run(&g, 0, INF);
        assert_eq!(ws.dist(5), 5);
        ws.run(&g, 5, INF);
        assert_eq!(ws.dist(0), 5);
        assert_eq!(ws.dist(5), 0);
        // Bounded run leaves far vertices untouched.
        ws.run(&g, 0, 2);
        assert_eq!(ws.dist(2), 2);
        assert_eq!(ws.dist(4), INF);
    }

    #[test]
    fn bibfs_matches_bfs_exhaustively() {
        let g =
            DynamicGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6)]);
        let mut bi = BiBfs::new(8);
        for s in 0..8u32 {
            let d = bfs_distances(&g, s);
            for t in 0..8u32 {
                let got = bi.run(&g, s, t, INF, |_| true);
                let want = (d[t as usize] != INF).then_some(d[t as usize]);
                assert_eq!(got, want, "s={s} t={t}");
            }
        }
    }

    #[test]
    fn bibfs_respects_bound() {
        let g = path(10);
        let mut bi = BiBfs::new(10);
        assert_eq!(bi.run(&g, 0, 9, INF, |_| true), Some(9));
        assert_eq!(bi.run(&g, 0, 9, 9, |_| true), None);
        assert_eq!(bi.run(&g, 0, 9, 10, |_| true), Some(9));
        assert_eq!(bi.run(&g, 0, 0, 0, |_| true), None, "bound 0 finds nothing");
    }

    #[test]
    fn bibfs_respects_exclusions() {
        // 0-1-2 and 0-3-4-2: blocking 1 forces the long way.
        let g = DynamicGraph::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)]);
        let mut bi = BiBfs::new(5);
        assert_eq!(bi.run(&g, 0, 2, INF, |_| true), Some(2));
        assert_eq!(bi.run(&g, 0, 2, INF, |v| v != 1), Some(3));
        assert_eq!(bi.run(&g, 0, 2, INF, |v| v != 1 && v != 4), None);
    }

    #[test]
    fn sweep_matches_bfs_and_orders_by_distance() {
        let g =
            DynamicGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6)]);
        let mut bi = BiBfs::new(8);
        for s in 0..8u32 {
            let truth = bfs_distances(&g, s);
            bi.sweep(&g, s, INF, usize::MAX, |_| true);
            for t in 0..8u32 {
                assert_eq!(bi.sweep_dist(t), truth[t as usize], "s={s} t={t}");
            }
            assert_eq!(bi.swept()[0], s);
            let dists: Vec<Dist> = bi.swept().iter().map(|&v| bi.sweep_dist(v)).collect();
            assert!(dists.windows(2).all(|w| w[0] <= w[1]), "sweep order");
            // Interleave with a bidirectional run: state must stay clean.
            assert_eq!(
                bi.run(&g, s, (s + 1) % 8, INF, |_| true),
                (truth[((s + 1) % 8) as usize] != INF).then_some(truth[((s + 1) % 8) as usize])
            );
        }
    }

    #[test]
    fn sweep_respects_bound_cap_and_filter() {
        let g = path(10);
        let mut bi = BiBfs::new(10);
        bi.sweep(&g, 0, 3, usize::MAX, |_| true);
        assert_eq!(bi.sweep_dist(3), 3);
        assert_eq!(bi.sweep_dist(4), INF, "beyond the bound");
        bi.sweep(&g, 0, INF, 4, |_| true);
        assert_eq!(bi.swept(), &[0, 1, 2, 3], "cap stops discovery");
        bi.sweep(&g, 0, INF, usize::MAX, |v| v != 4);
        assert_eq!(bi.sweep_dist(3), 3);
        assert_eq!(bi.sweep_dist(5), INF, "filter blocks the path");
        bi.sweep(&g, 0, INF, 0, |_| true);
        assert!(bi.swept().is_empty());
    }

    #[test]
    fn sweep_cap_completes_the_final_level() {
        // Star: 1..=5 are all at distance 1 from 0. A cap of 3 must
        // still discover the whole level — never an
        // adjacency-order-dependent prefix of it.
        let g = DynamicGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mut bi = BiBfs::new(6);
        bi.sweep(&g, 0, INF, 3, |_| true);
        assert_eq!(bi.swept().len(), 6, "the capped level completes");
        for v in 1..6u32 {
            assert_eq!(bi.sweep_dist(v), 1);
        }
    }

    #[test]
    fn sweep_directed_follows_out_arcs() {
        let g = DynamicDiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut bi = BiBfs::new(4);
        bi.sweep(&g, 1, INF, usize::MAX, |_| true);
        assert_eq!(bi.sweep_dist(3), 2);
        assert_eq!(bi.sweep_dist(0), 3);
    }

    #[test]
    fn bibfs_directed() {
        let g = DynamicDiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut bi = BiBfs::new(4);
        assert_eq!(bi.run(&g, 0, 3, INF, |_| true), Some(3));
        assert_eq!(bi.run(&g, 3, 0, INF, |_| true), Some(1));
    }
}
