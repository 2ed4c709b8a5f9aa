//! Ablation: the epoch-stamped old-distance cache against recomputing
//! `d^L_G(r, v)` from the labelling on every lookup (the optimization
//! that lets Algorithm 4 drop the `l` factor — Section 5.4).

use batchhl_bench::bench_config;
use batchhl_bench::bench_support::{bench_graph, BENCH_LANDMARKS};
use batchhl_common::EpochCache;
use batchhl_core::workspace::dl_old;
use batchhl_hcl::{build_labelling, LabelView, LandmarkSelection};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let g = bench_graph();
    let lab =
        build_labelling(&g, LandmarkSelection::TopDegree(BENCH_LANDMARKS).select(&g)).unwrap();
    let n = g.num_vertices() as u32;
    // Access pattern shaped like repair: every vertex a handful of
    // times (once per incident edge).
    let accesses: Vec<u32> = (0..4 * n).map(|i| (i * 2654435761) % n).collect();
    let mut group = c.benchmark_group("ablation_dl_cache");
    group.bench_function("uncached_landmark_dist", |b| {
        b.iter(|| {
            for &v in &accesses {
                black_box(lab.landmark_dist(0, v));
            }
        })
    });
    group.bench_function("epoch_cached", |b| {
        let mut cache = EpochCache::new(n as usize);
        b.iter(|| {
            cache.clear();
            for &v in &accesses {
                black_box(dl_old(&lab, 0, v, &mut cache));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench_config!();
    targets = bench
}
criterion_main!(benches);
