//! Out-of-range endpoints on every family and every query surface.
//!
//! A vertex id at or past the current vertex count names no vertex, so
//! any pair that contains one is disconnected: `INF` from the `_dist`
//! calls and `None` from the rest — never a panic, and never `0` for an
//! out-of-range `s == t`. The same rule holds for the owner (`&mut`),
//! the `GenReader` and `SharedReader` handles, what-if sessions (with
//! an empty and a non-empty patch) and the `DistanceOracle` /
//! `OracleReader` facade, on the undirected, directed and weighted
//! families alike.

use batchhl::core::{BatchIndex, DirectedBatchIndex, IndexConfig, WeightedBatchIndex};
use batchhl::graph::weighted::{WeightedGraph, WeightedUpdate};
use batchhl::graph::{Batch, DynamicDiGraph, DynamicGraph, Vertex};
use batchhl::{Edit, GraphSource, LandmarkSelection, Oracle, INF};

const N: usize = 6;
const OUT: Vertex = 100;
/// Out-of-range source, out-of-range target, and an out-of-range
/// `s == t`; vertex 2 is in range and not a landmark.
const PROBES: [(Vertex, Vertex); 3] = [(OUT, 2), (2, OUT), (OUT, OUT)];

/// Every pair-shaped call on `$q` answers the probes as disconnected.
/// `query_many` is called with a singleton group (the per-pair path)
/// and with a repeated source (the one-to-many path).
macro_rules! assert_out_of_range {
    ($ctx:expr, $q:expr) => {
        for (s, t) in PROBES {
            let ctx = format!("{} ({s},{t})", $ctx);
            assert_eq!($q.query(s, t), None, "{ctx}: query");
            assert_eq!($q.query_many(&[(s, t)]), vec![None], "{ctx}: query_many");
            assert_eq!(
                $q.query_many(&[(s, t), (s, OUT), (s, t)]),
                vec![None; 3],
                "{ctx}: grouped query_many"
            );
            assert_eq!($q.distances_from(s, &[t]), vec![None], "{ctx}: fan-out");
        }
    };
    ($ctx:expr, $q:expr, dist) => {
        assert_out_of_range!($ctx, $q);
        for (s, t) in PROBES {
            assert_eq!($q.query_dist(s, t), INF, "{} ({s},{t}): query_dist", $ctx);
        }
    };
}

fn config() -> IndexConfig {
    IndexConfig {
        selection: LandmarkSelection::TopDegree(1),
        ..IndexConfig::default()
    }
}

fn path_edges() -> Vec<(Vertex, Vertex)> {
    (0..N as Vertex - 1).map(|i| (i, i + 1)).collect()
}

fn weighted_path() -> WeightedGraph {
    let edges: Vec<_> = path_edges().into_iter().map(|(a, b)| (a, b, 2)).collect();
    WeightedGraph::from_edges(N, &edges)
}

/// The facade owner, its reader and a what-if session over the reader.
fn assert_facade(family: &str, source: impl Into<GraphSource>, edit: Edit) {
    let mut oracle = Oracle::builder()
        .top_degree_landmarks(1)
        .build(source)
        .expect("build oracle");
    assert_out_of_range!(format!("{family} oracle"), oracle);
    let reader = oracle.reader();
    assert_out_of_range!(format!("{family} oracle reader"), reader);
    for edits in [vec![], vec![edit]] {
        let mut session = reader.what_if(&edits).expect("what_if");
        assert_out_of_range!(format!("{family} oracle what-if {edits:?}"), session);
    }
}

#[test]
fn undirected_out_of_range_pairs_are_disconnected() {
    let mut index = BatchIndex::build(DynamicGraph::from_edges(N, &path_edges()), config());
    assert_out_of_range!("owner", index, dist);
    let mut reader = index.reader();
    assert_out_of_range!("reader", reader, dist);
    for (s, t) in PROBES {
        assert_eq!(reader.query_dist_pinned(s, t), INF, "pinned ({s},{t})");
    }
    let shared = index.shared_reader();
    assert_out_of_range!("shared reader", shared, dist);
    let mut grow = Batch::new();
    grow.insert(0, 5);
    for batch in [Batch::new(), grow] {
        let mut session = reader.with_edits(&batch);
        assert_out_of_range!("what-if", session, dist);
        let mut session = shared.with_edits(&batch);
        assert_out_of_range!("shared what-if", session, dist);
    }
    assert_facade(
        "undirected",
        DynamicGraph::from_edges(N, &path_edges()),
        Edit::Insert(0, 5),
    );
}

#[test]
fn directed_out_of_range_pairs_are_disconnected() {
    let graph = DynamicDiGraph::from_edges(N, &path_edges());
    let mut index = DirectedBatchIndex::build(graph.clone(), config());
    assert_out_of_range!("owner", index, dist);
    let mut reader = index.reader();
    assert_out_of_range!("reader", reader, dist);
    let shared = index.shared_reader();
    assert_out_of_range!("shared reader", shared, dist);
    let mut back = Batch::new();
    back.insert(5, 0);
    for batch in [Batch::new(), back] {
        let mut session = reader.with_edits(&batch);
        assert_out_of_range!("what-if", session, dist);
        let mut session = shared.with_edits(&batch);
        assert_out_of_range!("shared what-if", session, dist);
    }
    assert_facade("directed", graph, Edit::Insert(5, 0));
}

#[test]
fn weighted_out_of_range_pairs_are_disconnected() {
    let mut index = WeightedBatchIndex::build(weighted_path(), 1);
    assert_out_of_range!("owner", index, dist);
    let mut reader = index.reader();
    assert_out_of_range!("reader", reader, dist);
    let shared = index.shared_reader();
    assert_out_of_range!("shared reader", shared, dist);
    for updates in [vec![], vec![WeightedUpdate::SetWeight(1, 2, 7)]] {
        let mut session = reader.with_edits(&updates);
        assert_out_of_range!("what-if", session, dist);
        let mut session = shared.with_edits(&updates);
        assert_out_of_range!("shared what-if", session, dist);
    }
    assert_facade("weighted", weighted_path(), Edit::SetWeight(1, 2, 7));
}
