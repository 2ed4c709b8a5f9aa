//! The correctness gate: a seeded sample of answers, recomputed by
//! plain BFS on the graph each answer was given on.

use crate::inputs::to_batch;
use crate::util::Rng;
use batchhl::graph::bfs::bfs_distances;
use batchhl::graph::DynamicGraph;
use batchhl::{Dist, Edit, Vertex, INF};
use std::collections::BTreeMap;

const STREAM_SAMPLE: u64 = 7;

/// One answer to check: `d(s, t) == answer` on the base graph after the
/// first `gen` batches.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub gen: usize,
    pub s: Vertex,
    pub t: Vertex,
    pub answer: Option<Dist>,
}

/// Up to `k` entries of `pool`, chosen from the seed.
pub fn sample<T: Clone>(pool: &[T], k: usize, seed: u64, stream: u64) -> Vec<T> {
    let mut rng = Rng::new(seed, STREAM_SAMPLE + 16 * stream);
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = i + rng.below((idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx[..k].iter().map(|&i| pool[i].clone()).collect()
}

/// Number of `answers` that disagree with BFS truth. `batches[i]` is
/// the batch that turns generation `i` into generation `i + 1`.
pub fn mismatches(base: &DynamicGraph, batches: &[Vec<Edit>], answers: &[Answer]) -> usize {
    let mut by_gen: BTreeMap<usize, BTreeMap<Vertex, Vec<&Answer>>> = BTreeMap::new();
    for a in answers {
        by_gen
            .entry(a.gen)
            .or_default()
            .entry(a.s)
            .or_default()
            .push(a);
    }
    let mut g = base.clone();
    let mut applied = 0;
    let mut wrong = 0;
    for (gen, by_source) in by_gen {
        while applied < gen {
            g.apply_batch(&to_batch(&batches[applied]));
            applied += 1;
        }
        for (s, group) in by_source {
            let truth = bfs_distances(&g, s);
            for a in group {
                let want = truth.get(a.t as usize).copied().filter(|&d| d != INF);
                if a.answer != want {
                    eprintln!(
                        "mismatch: gen {gen} d({s}, {}) answered {:?}, BFS says {:?}",
                        a.t, a.answer, want
                    );
                    wrong += 1;
                }
            }
        }
    }
    wrong
}
