//! Deterministic sharing counts of one commit at n = 10⁵.
//!
//! A Barabási–Albert graph with 10⁵ vertices, 20 top-degree landmarks,
//! and one fully dynamic batch of 100 edits (50 deletions of existing
//! edges, 50 insertions). The commit must copy exactly one label page
//! per distinct `(landmark, page)` pair among the label entries the
//! batch changed, re-seal exactly the mirror blocks holding a changed
//! entry, and share every other page and block with the generation
//! before it. No timing is measured; CI runs this in release mode.

use batchhl::common::SplitMix64;
use batchhl::core::{Algorithm, BatchIndex, IndexConfig};
use batchhl::graph::generators::barabasi_albert;
use batchhl::graph::Batch;
use batchhl::hcl::labelling::PAGE_LEN;
use batchhl::hcl::packed::BLOCK_LEN;
use batchhl::{LandmarkSelection, Vertex};
use std::collections::BTreeSet;
use std::sync::Arc;

const N: usize = 100_000;
const LANDMARKS: usize = 20;
const EDITS: usize = 100;

#[test]
fn one_batch_copies_exactly_the_pages_it_changes() {
    let g = barabasi_albert(N, 3, 5);
    let mut rng = SplitMix64::new(9001);
    let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    let mut batch = Batch::new();
    for _ in 0..EDITS / 2 {
        let (a, b) = edges[rng.below(edges.len() as u64) as usize];
        batch.delete(a, b);
    }
    while batch.len() < EDITS {
        let (a, b) = (rng.below(N as u64) as Vertex, rng.below(N as u64) as Vertex);
        if a != b && !g.has_edge(a, b) {
            batch.insert(a, b);
        }
    }
    let config = IndexConfig {
        selection: LandmarkSelection::TopDegree(LANDMARKS),
        algorithm: Algorithm::BhlPlus,
        threads: 1,
        ..IndexConfig::default()
    };
    let mut index = BatchIndex::build(g, config);
    let before = index.published();
    let stats = index.apply_batch(&batch);
    let after = index.published();
    let (old, new) = (&before.lab, &after.lab);

    let mut pages = BTreeSet::new();
    let mut blocks = BTreeSet::new();
    for i in 0..LANDMARKS {
        for v in 0..N as Vertex {
            if old.label(i, v) != new.label(i, v) {
                pages.insert((i, v as usize / PAGE_LEN));
                blocks.insert(v as usize / BLOCK_LEN);
            }
        }
    }
    assert!(stats.affected_total > 0 && !pages.is_empty(), "{stats:?}");
    assert!(pages.len() <= stats.affected_total, "{stats:?}");
    assert_eq!(stats.pages_copied, pages.len(), "{stats:?}");
    assert_eq!(stats.blocks_resealed, blocks.len(), "{stats:?}");

    for i in 0..LANDMARKS {
        let (op, np) = (old.label_row(i).pages(), new.label_row(i).pages());
        for (p, (a, b)) in op.iter().zip(np).enumerate() {
            assert_eq!(
                Arc::ptr_eq(a, b),
                !pages.contains(&(i, p)),
                "page ({i}, {p})"
            );
        }
    }
    let (ob, nb) = (old.packed().labels.blocks(), new.packed().labels.blocks());
    for (b, (x, y)) in ob.iter().zip(nb).enumerate() {
        assert_eq!(x.ptr_eq(y), !blocks.contains(&b), "block {b}");
    }
    println!(
        "affected {} entries, changed {} pages of {}, re-sealed {} blocks of {}",
        stats.affected_total,
        stats.pages_copied,
        LANDMARKS * N.div_ceil(PAGE_LEN),
        stats.blocks_resealed,
        nb.len()
    );
}
