//! Seeded inputs. Everything a workload sends to the program is made
//! here, from the seed, before any timing starts.

use crate::util::Rng;
use batchhl::graph::generators::barabasi_albert;
use batchhl::graph::{Batch, DynamicGraph};
use batchhl::{Edit, Vertex};
use std::collections::HashSet;

/// Attachment count of the Barabási–Albert graphs (m ≈ 3n).
pub const BA_M: usize = 3;
/// Landmarks per index: the paper's default of 20 top-degree vertices.
pub const LANDMARKS: usize = 20;

const STREAM_GRAPH: u64 = 1;
const STREAM_PAIRS: u64 = 2;
const STREAM_BATCHES: u64 = 3;
const STREAM_ZIPF: u64 = 4;

pub fn graph(n: usize, seed: u64) -> DynamicGraph {
    barabasi_albert(n, BA_M, Rng::new(seed, STREAM_GRAPH).next_u64())
}

/// `count` uniform pairs of distinct vertices; `stream` separates the
/// pair lists of different load threads.
pub fn uniform_pairs(n: usize, count: usize, seed: u64, stream: u64) -> Vec<(Vertex, Vertex)> {
    let mut rng = Rng::new(seed, STREAM_PAIRS + 16 * stream);
    (0..count)
        .map(|_| loop {
            let s = rng.below(n as u64) as Vertex;
            let t = rng.below(n as u64) as Vertex;
            if s != t {
                break (s, t);
            }
        })
        .collect()
}

/// `count` fan-outs: a uniform source with `width` uniform targets.
pub fn fanouts(n: usize, count: usize, width: usize, seed: u64) -> Vec<(Vertex, Vec<Vertex>)> {
    let mut rng = Rng::new(seed, STREAM_PAIRS + 16 * 99);
    (0..count)
        .map(|_| {
            let s = rng.below(n as u64) as Vertex;
            let ts = (0..width).map(|_| rng.below(n as u64) as Vertex).collect();
            (s, ts)
        })
        .collect()
}

/// Pairs with Zipf(`alpha`)-skewed sources over a seeded ranking of the
/// vertices, and uniform targets: many pairs share a source, which is
/// what lets coalesced batches share source plans.
pub fn zipf_pairs(
    n: usize,
    count: usize,
    alpha: f64,
    seed: u64,
    stream: u64,
) -> Vec<(Vertex, Vertex)> {
    let mut rng = Rng::new(seed, STREAM_ZIPF);
    let mut rank: Vec<Vertex> = (0..n as Vertex).collect();
    for i in (1..n).rev() {
        rank.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 1..=n {
        acc += 1.0 / (r as f64).powf(alpha);
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed, STREAM_ZIPF + 16 * stream);
    (0..count)
        .map(|_| loop {
            let u = rng.unit() * acc;
            let s = rank[cdf.partition_point(|&c| c < u).min(n - 1)];
            let t = rng.below(n as u64) as Vertex;
            if s != t {
                break (s, t);
            }
        })
        .collect()
}

/// `count` fully dynamic batches of `size` edits, each valid against
/// the graph left by the ones before it (the paper's §7.1 setting):
/// half deletions of uniformly sampled existing edges, half insertions
/// of uniform non-adjacent pairs.
pub fn batches(g: &DynamicGraph, count: usize, size: usize, seed: u64) -> Vec<Vec<Edit>> {
    let mut rng = Rng::new(seed, STREAM_BATCHES);
    let mut sim = g.clone();
    let mut edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    let n = g.num_vertices() as u64;
    (0..count)
        .map(|_| {
            let mut batch = Vec::with_capacity(size);
            let mut touched = HashSet::new();
            for _ in 0..size / 2 {
                let (a, b) = edges.swap_remove(rng.below(edges.len() as u64) as usize);
                sim.remove_edge(a, b);
                touched.insert((a.min(b), a.max(b)));
                batch.push(Edit::Remove(a, b));
            }
            while batch.len() < size {
                let a = rng.below(n) as Vertex;
                let b = rng.below(n) as Vertex;
                if a == b || sim.has_edge(a, b) || !touched.insert((a.min(b), a.max(b))) {
                    continue;
                }
                sim.insert_edge(a, b);
                edges.push((a, b));
                batch.push(Edit::Insert(a, b));
            }
            batch
        })
        .collect()
}

/// The same edits as a graph-level [`Batch`].
pub fn to_batch(edits: &[Edit]) -> Batch {
    let mut b = Batch::new();
    for e in edits {
        match *e {
            Edit::Insert(x, y) => b.insert(x, y),
            Edit::Remove(x, y) => b.delete(x, y),
            other => unreachable!("generated batches hold no {other:?}"),
        }
    }
    b
}
