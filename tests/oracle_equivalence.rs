//! Cross-backend equivalence suite for the `DistanceOracle` facade.
//!
//! The same shape of random batch stream is driven through all three
//! index families behind `Oracle::builder()`; after every committed
//! session the suite asserts that
//!
//! * `query_many` and `distances_from` (both the per-target path and
//!   the single-sweep path for large target sets) agree with per-pair
//!   `query`,
//! * every answer agrees with a from-scratch BFS/Dijkstra ground truth
//!   on a mirror graph and with an online BiBFS/BiDijkstra baseline,
//! * the `Send + Sync` reader handle serves the identical answers,
//! * disconnected pairs are `None` everywhere (the one documented
//!   unreachable-distance convention of the oracle API), and
//! * `top_k_closest` returns exactly the nearest vertices in
//!   nondecreasing-distance order.

use batchhl::graph::bfs::{bfs_distances, BiBfs};
use batchhl::graph::weighted::{dijkstra, BiDijkstra, Weight, WeightedGraph};
use batchhl::graph::{DynamicDiGraph, DynamicGraph, Vertex};
use batchhl::{Dist, DistanceOracle, LandmarkSelection, Oracle, OracleReader, INF};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const N: usize = 60;
/// Edits only touch vertices below this bound, so `CORE..N` stays
/// isolated forever — permanent disconnected-pair coverage.
const CORE: u32 = 54;
const ROUNDS: usize = 4;
const BATCH: usize = 14;

fn pair(rng: &mut StdRng) -> Option<(Vertex, Vertex)> {
    let a = rng.gen_range(0..CORE);
    let b = rng.gen_range(0..CORE);
    (a != b).then_some((a, b))
}

/// Shared assertion block: batched calls vs per-pair vs ground truth
/// vs the reader, plus top-k and the isolated component.
fn check_consistency(
    oracle: &mut DistanceOracle,
    reader: &OracleReader,
    truth: &dyn Fn(Vertex) -> Vec<Dist>,
    ctx: &str,
) {
    let sources: Vec<Vertex> = (0..N as Vertex).step_by(7).collect();
    // Every vertex, repeated until the fan-out crosses the adaptive
    // sweep threshold; the extra round covers the landmark and source
    // entries, which skip the search.
    let threshold = batchhl::hcl::sweep_min_targets(N);
    let rounds = threshold.div_ceil(N) + 1;
    let all: Vec<Vertex> = (0..N as Vertex).cycle().take(rounds * N).collect();
    let small: Vec<Vertex> = (0..N as Vertex).step_by(13).collect();
    assert!(small.len() < threshold && all.len() >= threshold);

    for &s in &sources {
        let dist = truth(s);
        let want: Vec<Option<Dist>> = dist.iter().map(|&d| (d != INF).then_some(d)).collect();
        let want_all: Vec<Option<Dist>> = all.iter().map(|&t| want[t as usize]).collect();
        for t in 0..N as Vertex {
            assert_eq!(
                oracle.query(s, t),
                want[t as usize],
                "{ctx}: query({s},{t})"
            );
        }
        // One-to-many: the sweep path (many targets) and the
        // per-target path (few targets) both match truth; the reader
        // matches the owner.
        assert_eq!(
            oracle.distances_from(s, &all),
            want_all,
            "{ctx}: fanout({s})"
        );
        let got_small = oracle.distances_from(s, &small);
        for (&t, &d) in small.iter().zip(&got_small) {
            assert_eq!(d, want[t as usize], "{ctx}: direct fanout({s},{t})");
        }
        assert_eq!(
            reader.distances_from(s, &all),
            want_all,
            "{ctx}: reader fanout({s})"
        );

        // Top-k: nondecreasing, truthful, and exactly the k nearest.
        let top = oracle.top_k_closest(s, 10);
        assert!(
            top.windows(2).all(|w| w[0].1 <= w[1].1),
            "{ctx}: top-k order from {s}"
        );
        let reachable = dist
            .iter()
            .enumerate()
            .filter(|&(v, &d)| d != INF && v != s as usize)
            .count();
        assert_eq!(top.len(), reachable.min(10), "{ctx}: top-k count from {s}");
        for &(v, d) in &top {
            assert_eq!(d, dist[v as usize], "{ctx}: top-k dist {s}->{v}");
        }
        if let Some(&(_, kth)) = top.last() {
            // No unlisted vertex may be strictly closer than the k-th.
            let closer = dist
                .iter()
                .enumerate()
                .filter(|&(v, &d)| v != s as usize && d < kth)
                .count();
            assert!(closer <= top.len(), "{ctx}: top-k completeness from {s}");
        }
    }

    // Batched pairs with repeated and singleton sources; results must
    // equal the per-pair answers, owner and reader alike.
    let mut pairs: Vec<(Vertex, Vertex)> = Vec::new();
    for &s in &sources {
        for t in (0..N as Vertex).step_by(5) {
            pairs.push((s, t));
        }
    }
    pairs.push((N as Vertex - 1, 0)); // singleton group, isolated source
    let got = oracle.query_many(&pairs);
    let reader_got = reader.query_many(&pairs);
    for (k, &(s, t)) in pairs.iter().enumerate() {
        let want = oracle.query(s, t);
        assert_eq!(got[k], want, "{ctx}: query_many[{k}] = ({s},{t})");
        assert_eq!(reader_got[k], want, "{ctx}: reader query_many ({s},{t})");
    }

    // The isolated tail: disconnected pairs are `None` on every path.
    for iso in CORE..N as Vertex {
        assert_eq!(oracle.query(0, iso), None, "{ctx}: query to isolated");
        assert_eq!(oracle.query(iso, 0), None, "{ctx}: query from isolated");
        assert_eq!(reader.query(0, iso), None, "{ctx}: reader to isolated");
    }
    assert_eq!(
        oracle.distances_from(CORE, &all)[0..4],
        vec![None; 4][..],
        "{ctx}: fanout from isolated source"
    );
}

#[test]
fn undirected_backend_matches_truth_and_baseline() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut mirror = DynamicGraph::new(N);
    while mirror.num_edges() < 110 {
        if let Some((a, b)) = pair(&mut rng) {
            mirror.insert_edge(a, b);
        }
    }
    let mut oracle = Oracle::builder()
        .landmarks(LandmarkSelection::TopDegree(5))
        .build(mirror.clone())
        .expect("undirected source");
    let reader = oracle.reader();
    let mut bibfs = BiBfs::new(N);

    for round in 0..ROUNDS {
        let mut seen = HashSet::new();
        let mut session = oracle.update();
        for _ in 0..BATCH {
            let Some((a, b)) = pair(&mut rng) else {
                continue;
            };
            if !seen.insert((a.min(b), a.max(b))) {
                continue;
            }
            if mirror.has_edge(a, b) {
                mirror.remove_edge(a, b);
                session = session.remove(a, b);
            } else {
                mirror.insert_edge(a, b);
                session = session.insert(a, b);
            }
        }
        session.commit().expect("structural edits");

        let ctx = format!("undirected round {round}");
        check_consistency(&mut oracle, &reader, &|s| bfs_distances(&mirror, s), &ctx);
        // Online BiBFS baseline on the mirror.
        for s in (0..N as Vertex).step_by(9) {
            for t in (0..N as Vertex).step_by(8) {
                assert_eq!(
                    oracle.query(s, t),
                    bibfs.run(&mirror, s, t, INF, |_| true),
                    "{ctx}: BiBFS baseline ({s},{t})"
                );
            }
        }
    }
}

#[test]
fn directed_backend_matches_truth_and_baseline() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut mirror = DynamicDiGraph::new(N);
    while mirror.num_edges() < 150 {
        if let Some((a, b)) = pair(&mut rng) {
            mirror.insert_edge(a, b);
        }
    }
    let mut oracle = Oracle::builder()
        .directed(true)
        .landmarks(LandmarkSelection::TopDegree(5))
        .build(mirror.clone())
        .expect("directed source");
    let reader = oracle.reader();
    let mut bibfs = BiBfs::new(N);

    for round in 0..ROUNDS {
        let mut seen = HashSet::new();
        let mut session = oracle.update();
        for _ in 0..BATCH {
            let Some((a, b)) = pair(&mut rng) else {
                continue;
            };
            if !seen.insert((a, b)) {
                continue;
            }
            if mirror.has_edge(a, b) {
                mirror.remove_edge(a, b);
                session = session.remove(a, b);
            } else {
                mirror.insert_edge(a, b);
                session = session.insert(a, b);
            }
        }
        session.commit().expect("structural edits");

        let ctx = format!("directed round {round}");
        check_consistency(&mut oracle, &reader, &|s| bfs_distances(&mirror, s), &ctx);
        for s in (0..N as Vertex).step_by(9) {
            for t in (0..N as Vertex).step_by(8) {
                assert_eq!(
                    oracle.query(s, t),
                    bibfs.run(&mirror, s, t, INF, |_| true),
                    "{ctx}: BiBFS baseline ({s},{t})"
                );
            }
        }
    }
}

#[test]
fn weighted_backend_matches_truth_and_baseline() {
    let mut rng = StdRng::seed_from_u64(37);
    let mut mirror = WeightedGraph::new(N);
    while mirror.num_edges() < 110 {
        if let Some((a, b)) = pair(&mut rng) {
            mirror.insert_edge(a, b, rng.gen_range(1..6));
        }
    }
    let mut oracle = Oracle::builder()
        .weighted(true)
        .landmarks(LandmarkSelection::TopDegree(5))
        .build(mirror.clone())
        .expect("weighted source");
    let reader = oracle.reader();
    let mut bidij = BiDijkstra::new(N);

    for round in 0..ROUNDS {
        let mut seen = HashSet::new();
        let mut session = oracle.update();
        for _ in 0..BATCH {
            let Some((a, b)) = pair(&mut rng) else {
                continue;
            };
            if !seen.insert((a.min(b), a.max(b))) {
                continue;
            }
            if mirror.has_edge(a, b) {
                if rng.gen_bool(0.5) {
                    mirror.remove_edge(a, b);
                    session = session.remove(a, b);
                } else {
                    let w: Weight = rng.gen_range(1..6);
                    mirror.set_weight(a, b, w);
                    session = session.set_weight(a, b, w);
                }
            } else {
                let w: Weight = rng.gen_range(1..6);
                mirror.insert_edge(a, b, w);
                session = session.insert_weighted(a, b, w);
            }
        }
        session.commit().expect("weighted edits");

        let ctx = format!("weighted round {round}");
        check_consistency(&mut oracle, &reader, &|s| dijkstra(&mirror, s), &ctx);
        // Online BiDijkstra baseline on the mirror.
        for s in (0..N as Vertex).step_by(9) {
            for t in (0..N as Vertex).step_by(8) {
                assert_eq!(
                    oracle.query(s, t),
                    bidij.run(&mirror, s, t, INF, |_| true),
                    "{ctx}: BiDijkstra baseline ({s},{t})"
                );
            }
        }
    }
}

/// All three backends behind the same entry point, same stream shape:
/// the acceptance-criteria smoke check (no direct index-type imports
/// anywhere in this file — everything goes through `Oracle::builder`).
#[test]
fn one_entry_point_serves_all_families() {
    let und = Oracle::new(DynamicGraph::from_edges(4, &[(0, 1), (1, 2)])).unwrap();
    let dir = Oracle::new(DynamicDiGraph::from_edges(4, &[(0, 1), (1, 2)])).unwrap();
    let wtd = Oracle::new(WeightedGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3)])).unwrap();
    for (mut o, d02) in [(und, 2), (dir, 2), (wtd, 5)] {
        assert_eq!(o.query(0, 2), Some(d02), "{}", o.family());
        assert_eq!(o.query(0, 3), None, "{}: disconnected pair", o.family());
        assert_eq!(
            o.query_many(&[(0, 2), (0, 3)]),
            vec![Some(d02), None],
            "{}",
            o.family()
        );
        assert_eq!(
            o.distances_from(0, &[2, 3]),
            vec![Some(d02), None],
            "{}",
            o.family()
        );
    }
}
