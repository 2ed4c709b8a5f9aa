//! Mixed read/write throughput: queries/sec sustained by N reader
//! threads over `Reader` handles while the writer applies batches.
//!
//! This is the serving scenario the generation store exists for — the
//! paper's Table 3/4 benches measure update and query latency in
//! isolation; here they contend. Three series:
//!
//! * `read_only/N` — N reader threads, idle writer (baseline);
//! * `mixed/N` — N reader threads while the writer applies a batch and
//!   its inverse per round (the graph round-trips, so every iteration
//!   measures the same workload);
//! * `write_only` — the writer alone, for the update-cost baseline.
//!
//! The `csr_ablation` group isolates the representation change behind
//! those numbers: the same labelling and query pairs are answered over
//! the published CSR view and over the dynamic `Vec<Vec<_>>` adjacency,
//! and the two publication-path costs — freezing one batch into the
//! delta overlay vs compacting the whole graph into a fresh base CSR —
//! are measured rather than asserted.

use batchhl_bench::bench_config;
use batchhl_bench::bench_support::{bench_batch, bench_graph, bench_queries, BENCH_LANDMARKS};
use batchhl_core::index::{Algorithm, BatchIndex, IndexConfig};
use batchhl_graph::csr::CsrGraph;
use batchhl_hcl::{LandmarkSelection, QueryEngine};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const QUERIES_PER_THREAD: usize = 256;
const BATCH_SIZE: usize = 100;

fn build_index() -> BatchIndex {
    BatchIndex::build(
        bench_graph(),
        IndexConfig {
            selection: LandmarkSelection::TopDegree(BENCH_LANDMARKS),
            algorithm: Algorithm::BhlPlus,
            threads: 1,
            ..IndexConfig::default()
        },
    )
}

fn bench(c: &mut Criterion) {
    let mut index = build_index();
    let pairs = bench_queries(index.graph(), QUERIES_PER_THREAD);
    let batch = bench_batch(index.graph(), BATCH_SIZE);
    let inverse = batch.normalize(index.graph()).inverse();

    let mut group = c.benchmark_group("concurrent_throughput");

    for readers in [1, 2, 4] {
        group.throughput(Throughput::Elements((readers * pairs.len()) as u64));
        group.bench_with_input(
            BenchmarkId::new("read_only", readers),
            &readers,
            |b, &readers| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..readers {
                            let mut reader = index.reader();
                            let pairs = &pairs;
                            scope.spawn(move || {
                                for &(s, t) in pairs {
                                    black_box(reader.query_dist(s, t));
                                }
                            });
                        }
                    });
                });
            },
        );
    }

    for readers in [1, 2, 4] {
        group.throughput(Throughput::Elements((readers * pairs.len()) as u64));
        group.bench_with_input(
            BenchmarkId::new("mixed", readers),
            &readers,
            |b, &readers| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..readers {
                            let mut reader = index.reader();
                            let pairs = &pairs;
                            scope.spawn(move || {
                                for &(s, t) in pairs {
                                    black_box(reader.query_dist(s, t));
                                }
                            });
                        }
                        // Writer churns on the scope's main thread: one
                        // batch out, one batch back.
                        index.apply_batch(&batch);
                        index.apply_batch(&inverse);
                    });
                });
            },
        );
    }

    group.throughput(Throughput::Elements(2));
    group.bench_function("write_only", |b| {
        b.iter(|| {
            black_box(index.apply_batch(&batch));
            black_box(index.apply_batch(&inverse));
        });
    });

    group.finish();

    // CSR vs dynamic-adjacency ablation: identical labelling and query
    // pairs, only the traversal representation differs.
    let published = index.published();
    let n = published.graph.num_vertices();
    let mut group = c.benchmark_group("csr_ablation");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.bench_function("query_csr_view", |b| {
        let mut engine = QueryEngine::new(n);
        b.iter(|| {
            for &(s, t) in &pairs {
                black_box(engine.query_dist(&published.lab, &published.lab, &published.view, s, t));
            }
        });
    });
    group.bench_function("query_dynamic_adjacency", |b| {
        let mut engine = QueryEngine::new(n);
        b.iter(|| {
            for &(s, t) in &pairs {
                black_box(engine.query_dist(
                    &published.lab,
                    &published.lab,
                    &published.graph,
                    s,
                    t,
                ));
            }
        });
    });

    // Publication-path costs. `overlay_absorb` is what every batch
    // pays; `compact_full` is the amortized worst case the compaction
    // threshold schedules.
    let norm = batch.normalize(&published.graph);
    let touched = norm.touched_vertices();
    group.throughput(Throughput::Elements(1));
    group.bench_function("overlay_absorb", |b| {
        b.iter_batched_ref(
            || published.view.clone(),
            |view| {
                view.absorb(n, touched.iter().copied(), |v| published.graph.neighbors(v));
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("compact_full", |b| {
        b.iter(|| black_box(CsrGraph::from_adjacency(&published.graph)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench_config!();
    targets = bench
}
criterion_main!(benches);
