//! Labelling construction by one multi-source flagged BFS.
//!
//! For each landmark `r` and vertex `v` the minimal labelling needs the
//! pair `d^L_G(r, v) = (d_G(r, v), flag)`, where the flag records
//! whether some shortest `r`–`v` path passes through another landmark
//! (Definition 5.13). By Lemma 5.14 that pair determines the labelling
//! directly: `v` receives the label `(r, d)` iff `d` is finite and the
//! flag is clear; landmark–landmark distances go to the highway.
//!
//! Rather than one BFS per landmark, the landmarks are split into waves
//! of at most 64 and each wave runs one level-synchronous BFS
//! for all its landmarks at once (the MS-BFS of Then et al., "The More
//! the Merrier", VLDB 2014). Bit `j` of a per-vertex `u64` mask stands
//! for landmark `j` of the wave:
//!
//! * `seen[v]` — landmarks whose BFS has settled `v`,
//! * `flag[v]` — landmarks some shortest path from which to `v` passes
//!   through another landmark (so `v` gets no label from them),
//! * `visit[v]` — landmarks for which `v` is on the current frontier
//!   (level `d`),
//! * `next[w]`, `fnext[w]` — the level `d + 1` being built.
//!
//! Expanding frontier vertex `v` to neighbour `w` computes
//! `nb = visit[v] & !seen[w]`, then `next[w] |= nb` and
//! `fnext[w] |= flag[v] & nb`. Closing the level sets
//! `seen[w] |= next[w]` and `flag[w] |= fnext[w]` (plus `next[w]` when
//! `w` is itself a landmark), makes `next[w]` the new `visit[w]`, and
//! writes distance `d + 1` for every bit of `next[w]`: to the highway
//! if `w` is a landmark, otherwise to the label row when the bit's flag
//! is clear.
//!
//! Flags stay exact because `seen` only changes when a level closes:
//! every level-`d` parent of `w` still sees `w` unseen, so each ORs its
//! flag in. That is the rule a single-landmark flagged BFS applies to
//! same-level parents, so the labelling is identical to |R| separate
//! flagged BFSs. But a vertex is expanded once per *distinct* distance
//! to the wave's landmarks instead of once per landmark; for top-degree
//! hubs, which lie a hop or two apart, that is two or three expansions
//! instead of |R|. The paper's `O(|R| · (|V| + |E|))` bound still holds.
//!
//! `seen`, `visit`, `next` and `fnext` sit together in one 32-byte
//! block per vertex, so an edge touches one cache line; with `flag`
//! that is 40 B of scratch per vertex per wave in flight. `threads`
//! splits the landmarks into `max(threads, ⌈|R| / 64⌉)` contiguous waves
//! of near-equal size, run on up to `threads` scoped threads that each
//! own their waves' label and highway rows (no locks). Every `threads`
//! value yields the same labelling.

use crate::labelling::{LabelError, Labelling, RowPair};
use batchhl_common::{Dist, Vertex};
use batchhl_graph::AdjacencyView;

/// Most landmarks one wave covers: the bits of a `u64` mask.
const WAVE: usize = 64;

const NOT_LANDMARK: u16 = u16::MAX;

/// One wave: up to [`WAVE`] landmarks, their roots and their rows.
struct Wave<'a> {
    roots: &'a [Vertex],
    rows: Vec<RowPair<'a>>,
}

/// Split the landmarks into `max(threads, ⌈|R| / 64⌉)` contiguous waves
/// of near-equal size (never more waves than landmarks).
fn waves<'a>(lab: &'a mut Labelling, threads: usize) -> Vec<Wave<'a>> {
    let (rows, roots) = lab.rows_mut();
    let r = rows.len();
    let count = threads.max(r.div_ceil(WAVE)).min(r);
    let mut rows = rows.into_iter();
    let mut start = 0;
    (0..count)
        .map(|i| {
            let len = r / count + usize::from(i < r % count);
            let wave = Wave {
                roots: &roots[start..start + len],
                rows: rows.by_ref().take(len).collect(),
            };
            start += len;
            wave
        })
        .collect()
}

/// The masks of one vertex that an expansion into it reads and writes,
/// kept in one 32-byte block so each edge touches one cache line.
#[derive(Clone, Copy, Default)]
#[repr(C, align(32))]
struct Masks {
    seen: u64,
    visit: u64,
    next: u64,
    fnext: u64,
}

/// Per-vertex masks and frontier lists of the multi-source BFS, reused
/// across the waves one thread runs.
struct MultiBfs {
    masks: Vec<Masks>,
    flag: Vec<u64>,
    frontier: Vec<Vertex>,
    reached: Vec<Vertex>,
}

impl MultiBfs {
    fn new(n: usize) -> Self {
        MultiBfs {
            masks: vec![Masks::default(); n],
            flag: vec![0; n],
            frontier: Vec::new(),
            reached: Vec::new(),
        }
    }

    /// Run one wave's flagged BFS, writing its label and highway rows.
    /// The rows must come in as [`Labelling::empty`] leaves them.
    fn run<A: AdjacencyView>(&mut self, g: &A, lm_index: &[u16], wave: Wave<'_>) {
        let MultiBfs {
            masks,
            flag,
            frontier,
            reached,
        } = self;
        let Wave { roots, mut rows } = wave;
        debug_assert!(roots.len() <= WAVE);
        masks.fill(Masks::default());
        flag.fill(0);
        frontier.clear();
        for (j, &root) in roots.iter().enumerate() {
            let m = &mut masks[root as usize];
            m.seen = 1 << j;
            m.visit = 1 << j;
            frontier.push(root);
        }
        frontier.sort_unstable();

        let mut d: Dist = 0;
        while !frontier.is_empty() {
            for &v in frontier.iter() {
                let (visit, fv) = (masks[v as usize].visit, flag[v as usize]);
                for &w in g.out_neighbors(v) {
                    let m = &mut masks[w as usize];
                    let nb = visit & !m.seen;
                    if nb != 0 {
                        if m.next == 0 {
                            reached.push(w);
                        }
                        m.next |= nb;
                        m.fnext |= fv & nb;
                    }
                }
            }
            for &v in frontier.iter() {
                masks[v as usize].visit = 0;
            }
            d += 1;

            // Sorted, so the next expansion walks the CSR arrays and
            // the label rows front to back.
            reached.sort_unstable();
            for &w in reached.iter() {
                let wi = w as usize;
                let m = &mut masks[wi];
                let nb = std::mem::take(&mut m.next);
                let fw = std::mem::take(&mut m.fnext);
                m.seen |= nb;
                m.visit = nb;
                let lm = lm_index[wi];
                if lm != NOT_LANDMARK {
                    flag[wi] |= fw | nb;
                    for j in bits(nb) {
                        rows[j].1[lm as usize] = d;
                    }
                } else {
                    flag[wi] |= fw;
                    for j in bits(nb & !flag[wi]) {
                        rows[j].0[wi] = d;
                    }
                }
            }
            std::mem::swap(frontier, reached);
            reached.clear();
        }
    }
}

/// Indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

/// Build the minimal highway cover labelling for `g` over `landmarks`
/// on the calling thread.
///
/// Fails with [`LabelError`] when the landmark set is invalid (out of
/// range, duplicated, or too large).
pub fn build_labelling<A: AdjacencyView>(
    g: &A,
    landmarks: Vec<Vertex>,
) -> Result<Labelling, LabelError> {
    let n = g.num_vertices();
    let mut lab = Labelling::empty(n, landmarks)?;
    let lm_index = lm_index_copy(&lab);
    let mut bfs = MultiBfs::new(n);
    for wave in waves(&mut lab, 1) {
        bfs.run(g, &lm_index, wave);
    }
    Ok(lab)
}

/// Parallel construction: the landmarks are split into
/// `max(threads, ⌈|R| / 64⌉)` waves run on up to `threads` scoped
/// threads. The labelling equals [`build_labelling`]'s for every
/// `threads`.
///
/// Fails with [`LabelError`] when the landmark set is invalid.
pub fn build_labelling_parallel<A: AdjacencyView + Sync>(
    g: &A,
    landmarks: Vec<Vertex>,
    threads: usize,
) -> Result<Labelling, LabelError> {
    if threads <= 1 {
        return build_labelling(g, landmarks);
    }
    let n = g.num_vertices();
    let mut lab = Labelling::empty(n, landmarks)?;
    let lm_index = lm_index_copy(&lab);
    let mut waves = waves(&mut lab, threads);
    let per = waves.len().div_ceil(threads);
    std::thread::scope(|s| {
        while !waves.is_empty() {
            let mine: Vec<Wave<'_>> = waves.drain(..per.min(waves.len())).collect();
            let lm_index = &lm_index;
            s.spawn(move || {
                let mut bfs = MultiBfs::new(n);
                for wave in mine {
                    bfs.run(g, lm_index, wave);
                }
            });
        }
    });
    Ok(lab)
}

fn lm_index_copy(lab: &Labelling) -> Vec<u16> {
    let mut idx = vec![NOT_LANDMARK; lab.num_vertices()];
    for (i, &v) in lab.landmarks().iter().enumerate() {
        idx[v as usize] = i as u16;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::minimal_labelling_bruteforce;
    use crate::{LandmarkSelection, NO_LABEL};
    use batchhl_common::INF;
    use batchhl_graph::generators::{barabasi_albert, erdos_renyi_gnm, path, star};
    use batchhl_graph::{DynamicDiGraph, DynamicGraph, Reversed};
    use proptest::prelude::*;

    #[test]
    fn path_with_one_landmark() {
        let g = path(5);
        let lab = build_labelling(&g, vec![0]).unwrap();
        for v in 1..5u32 {
            assert_eq!(lab.label(0, v), v, "label of {v}");
        }
        assert_eq!(lab.label(0, 0), NO_LABEL, "no self label");
        assert_eq!(lab.size_entries(), 4);
    }

    #[test]
    fn path_with_middle_landmark_prunes() {
        // 0-1-2-3-4 with landmarks {0, 2}: vertices 3, 4 are covered via
        // landmark 2 on every shortest path from 0, so they carry no
        // 0-label; vertex 1 keeps labels to both.
        let g = path(5);
        let lab = build_labelling(&g, vec![0, 2]).unwrap();
        assert_eq!(lab.label(0, 1), 1);
        assert_eq!(lab.label(1, 1), 1);
        assert_eq!(lab.label(0, 3), NO_LABEL);
        assert_eq!(lab.label(0, 4), NO_LABEL);
        assert_eq!(lab.label(1, 3), 1);
        assert_eq!(lab.label(1, 4), 2);
        assert_eq!(lab.highway(0, 1), 2);
        assert_eq!(lab.highway(1, 0), 2);
    }

    #[test]
    fn equal_length_path_through_landmark_prunes_label() {
        // Diamond: 0-1-3, 0-2-3. Landmarks {0, 1}: vertex 3 has a
        // shortest path through landmark 1, so no 0-label even though
        // another shortest path (via 2) avoids landmarks.
        let g = DynamicGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let lab = build_labelling(&g, vec![0, 1]).unwrap();
        assert_eq!(lab.label(0, 3), NO_LABEL);
        assert_eq!(lab.label(1, 3), 1);
        assert_eq!(lab.label(0, 2), 1);
    }

    #[test]
    fn disconnected_vertices_get_no_labels() {
        let g = DynamicGraph::from_edges(4, &[(0, 1)]);
        let lab = build_labelling(&g, vec![0]).unwrap();
        assert_eq!(lab.label(0, 2), NO_LABEL);
        assert_eq!(lab.label(0, 3), NO_LABEL);
        assert_eq!(lab.landmark_to_vertex(0, 2), INF);
    }

    #[test]
    fn matches_bruteforce_oracle_on_classics() {
        for (g, k) in [
            (path(9), 3),
            (star(12), 2),
            (batchhl_graph::generators::cycle(10), 3),
            (batchhl_graph::generators::complete(6), 2),
            (batchhl_graph::generators::grid(4, 4), 4),
        ] {
            let lms = LandmarkSelection::TopDegree(k).select(&g);
            let built = build_labelling(&g, lms.clone()).unwrap();
            let want = minimal_labelling_bruteforce(&g, lms);
            assert_eq!(built, want);
        }
    }

    #[test]
    fn matches_bruteforce_oracle_on_random_graphs() {
        for seed in 0..8 {
            let g = erdos_renyi_gnm(60, 120, seed);
            let lms = LandmarkSelection::TopDegree(5).select(&g);
            let built = build_labelling(&g, lms.clone()).unwrap();
            let want = minimal_labelling_bruteforce(&g, lms);
            assert_eq!(built, want, "seed {seed}");
        }
    }

    #[test]
    fn matches_bruteforce_across_wave_boundaries() {
        // 63/64/65 and 130 landmarks straddle one, two and three waves;
        // random landmark sets mix hubs with leaves.
        let g = barabasi_albert(220, 2, 11);
        for k in [1, 63, 64, 65, 130] {
            for selection in [
                LandmarkSelection::TopDegree(k),
                LandmarkSelection::Random {
                    count: k,
                    seed: k as u64,
                },
            ] {
                let lms = selection.select(&g);
                let want = minimal_labelling_bruteforce(&g, lms.clone());
                assert_eq!(
                    build_labelling(&g, lms.clone()).unwrap(),
                    want,
                    "{selection:?}"
                );
                assert_eq!(
                    build_labelling_parallel(&g, lms, 2).unwrap(),
                    want,
                    "{selection:?}, threads=2"
                );
            }
        }
    }

    #[test]
    fn matches_bruteforce_on_disconnected_graph_with_adjacent_landmarks() {
        // Two components — a path 0..6 and a triangle 7-8-9 with a tail
        // 9-10 — plus the isolated vertex 11. Landmarks 2 and 3 are
        // adjacent, as are 7 and 8; landmark 11 reaches nothing.
        let g = DynamicGraph::from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (7, 8),
                (8, 9),
                (7, 9),
                (9, 10),
            ],
        );
        let lms = vec![2, 3, 7, 8, 11];
        let lab = build_labelling(&g, lms.clone()).unwrap();
        assert_eq!(lab, minimal_labelling_bruteforce(&g, lms));
        assert_eq!(lab.highway(0, 1), 1);
        assert_eq!(lab.highway(0, 2), INF);
        assert_eq!(lab.highway(4, 4), 0);
        assert_eq!(lab.label(0, 4), NO_LABEL, "2 reaches 4 only through 3");
        assert_eq!(lab.label(2, 10), 2);
        assert_eq!(lab.label(3, 10), 2);
    }

    #[test]
    fn landmark_on_every_shortest_path_prunes_like_bruteforce() {
        // The path_with_middle_landmark_prunes shape, long enough that
        // the pruned tail spans several levels, with both ends and the
        // middle as landmarks.
        let g = path(15);
        for lms in [vec![0, 7], vec![7, 0], vec![0, 7, 14], vec![14, 7, 0, 3]] {
            let lab = build_labelling(&g, lms.clone()).unwrap();
            assert_eq!(
                lab,
                minimal_labelling_bruteforce(&g, lms.clone()),
                "{lms:?}"
            );
        }
    }

    #[test]
    fn directed_build_matches_bruteforce_forward_and_reversed() {
        for seed in 0..4 {
            let base = erdos_renyi_gnm(80, 200, seed);
            // Orient every edge by a seeded coin, keeping some both ways.
            let mut arcs = Vec::new();
            for (i, (u, v)) in base.edges().enumerate() {
                match (i as u64 ^ seed) % 3 {
                    0 => arcs.push((u, v)),
                    1 => arcs.push((v, u)),
                    _ => arcs.extend([(u, v), (v, u)]),
                }
            }
            let g = DynamicDiGraph::from_edges(80, &arcs);
            for k in [3, 70] {
                let lms = LandmarkSelection::TopDegree(k).select_directed(&g);
                let fwd = build_labelling_parallel(&g, lms.clone(), 3).unwrap();
                assert_eq!(
                    fwd,
                    minimal_labelling_bruteforce(&g, lms.clone()),
                    "seed {seed} k {k}"
                );
                let bwd = build_labelling_parallel(&Reversed(&g), lms.clone(), 3).unwrap();
                let want = minimal_labelling_bruteforce(&Reversed(&g), lms);
                assert_eq!(bwd, want, "reversed, seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = barabasi_albert(400, 3, 7);
        for k in [8, 100] {
            let lms = LandmarkSelection::TopDegree(k).select(&g);
            let seq = build_labelling(&g, lms.clone()).unwrap();
            for threads in [1, 2, 3, 8] {
                let par = build_labelling_parallel(&g, lms.clone(), threads).unwrap();
                assert_eq!(seq, par, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn highway_is_symmetric_on_undirected() {
        let g = barabasi_albert(200, 3, 9);
        let lab = build_labelling(&g, LandmarkSelection::TopDegree(6).select(&g)).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(lab.highway(i, j), lab.highway(j, i));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_graphs_and_landmark_sets_match_bruteforce(
            n in 2..48usize,
            edges in prop::collection::vec((0..48u32, 0..48u32), 0..120),
            picks in prop::collection::vec(0..48u32, 1..20),
            threads in 1..4usize,
        ) {
            let edges: Vec<_> = edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .filter(|(u, v)| u != v)
                .collect();
            let g = DynamicGraph::from_edges(n, &edges);
            let mut lms = Vec::new();
            for v in picks.into_iter().map(|v| v % n as u32) {
                if !lms.contains(&v) {
                    lms.push(v);
                }
            }
            let want = minimal_labelling_bruteforce(&g, lms.clone());
            prop_assert_eq!(build_labelling_parallel(&g, lms, threads).unwrap(), want);
        }
    }
}
