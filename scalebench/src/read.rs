//! `read_1m`: n = 10⁶, no commits. One thread issues closed-loop point
//! queries on uniform pairs; a second issues closed-loop fan-outs from a
//! uniform source to 64 uniform targets (the sweep path). The working
//! set (labels, CSR, dense rows) is far larger than cache, and the
//! commit, WAL, seal and server layers do no work.
//!
//! The read-path layer replays below are shared with `churn_1m`.

use crate::check::{self, Answer};
use crate::inputs::{self, LANDMARKS};
use crate::trace::{self, Layers, Tracer};
use crate::util::{median, ms, timed_setups, us};
use crate::{Cfg, Outcome};
use batchhl::core::{BatchIndex, IndexConfig, IndexSnapshot, SharedReader};
use batchhl::graph::bfs::BiBfs;
use batchhl::graph::DynamicGraph;
use batchhl::hcl::{sweep_min_targets, Labelling, SourcePlan};
use batchhl::{Algorithm, Dist, DistanceOracle, LandmarkSelection, Oracle, Vertex, INF};
use std::time::{Duration, Instant};

/// Targets per fan-out.
pub const FANOUT: usize = 64;
/// Answers of each kind checked against BFS.
const CHECK_POINT: usize = 24;
const CHECK_FANOUTS: usize = 6;
/// Point queries used to measure the tracing overhead.
const OVERHEAD_OPS: usize = 4_000;

fn config() -> IndexConfig {
    IndexConfig {
        selection: LandmarkSelection::TopDegree(LANDMARKS),
        algorithm: Algorithm::BhlPlus,
        threads: 1,
        ..IndexConfig::default()
    }
}

/// The oracle every end-to-end run builds.
pub fn oracle(g: DynamicGraph) -> DistanceOracle {
    Oracle::builder()
        .landmarks(LandmarkSelection::TopDegree(LANDMARKS))
        .algorithm(Algorithm::BhlPlus)
        .threads(1)
        .build(g)
        .expect("a generated graph always builds")
}

/// The same index, built below the facade for the traced replays.
pub fn index(g: DynamicGraph) -> BatchIndex {
    BatchIndex::build(g, config())
}

pub fn run(cfg: &Cfg) -> Outcome {
    let n = cfg.n();
    let g = inputs::graph(n, cfg.seed);
    let pairs = inputs::uniform_pairs(n, 1 << 18, cfg.seed, 0);
    let fans = inputs::fanouts(n, 1 << 12, FANOUT, cfg.seed);
    let mut out = Outcome {
        m: g.num_edges(),
        ..Outcome::default()
    };
    let (points, fanned) = if cfg.trace {
        traced(cfg, &g, &pairs, &fans, &mut out)
    } else {
        end_to_end(cfg, &g, &pairs, &fans, &mut out)
    };
    let mut sample = check::sample(&points, CHECK_POINT, cfg.seed, 0);
    for ds in check::sample(&fanned, CHECK_FANOUTS, cfg.seed, 1) {
        sample.extend(ds);
    }
    out.checked = sample.len();
    out.wrong = check::mismatches(&g, &[], &sample);
    out
}

type Answers = (Vec<Answer>, Vec<Vec<Answer>>);

fn fan_answers(s: Vertex, ts: &[Vertex], ds: &[Option<Dist>]) -> Vec<Answer> {
    ts.iter()
        .zip(ds)
        .map(|(&t, &answer)| Answer {
            gen: 0,
            s,
            t,
            answer,
        })
        .collect()
}

/// Thread 1: closed-loop point queries over `pairs` until `end`, each
/// answered by `query`. Returns `(seconds after start, µs)` per query
/// and the answers.
fn point_loop(
    pairs: &[(Vertex, Vertex)],
    start: Instant,
    end: Instant,
    mut query: impl FnMut(Vertex, Vertex) -> Option<Dist>,
) -> (Vec<(f64, f64)>, Vec<Answer>) {
    let mut lat = Vec::new();
    let mut points = Vec::new();
    for &(s, t) in pairs.iter().cycle() {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let answer = query(s, t);
        lat.push(((t0 - start).as_secs_f64(), us(t0.elapsed())));
        points.push(Answer {
            gen: 0,
            s,
            t,
            answer,
        });
    }
    (lat, points)
}

/// Thread 2: closed-loop fan-outs over `fans` until `end`, each answered
/// by `fan`. Returns the time of each in ms and the answers.
fn fanout_loop(
    fans: &[(Vertex, Vec<Vertex>)],
    end: Instant,
    mut fan: impl FnMut(Vertex, &[Vertex]) -> Vec<Option<Dist>>,
) -> (Vec<f64>, Vec<Vec<Answer>>) {
    let mut lat = Vec::new();
    let mut fanned = Vec::new();
    for (s, ts) in fans.iter().cycle() {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let ds = fan(*s, ts);
        lat.push(ms(t0.elapsed()));
        fanned.push(fan_answers(*s, ts, &ds));
    }
    (lat, fanned)
}

fn end_to_end(
    cfg: &Cfg,
    g: &DynamicGraph,
    pairs: &[(Vertex, Vertex)],
    fans: &[(Vertex, Vec<Vertex>)],
    out: &mut Outcome,
) -> Answers {
    let (oracle, setups) = timed_setups(|| {
        let g = g.clone();
        let start = Instant::now();
        let oracle = oracle(g);
        let (s, t) = pairs[pairs.len() - 1];
        std::hint::black_box(oracle.reader().query(s, t));
        (oracle, start.elapsed())
    });
    let reader = oracle.reader();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(cfg.seconds);
    let ((lat, points), (fan_lat, fanned)) = std::thread::scope(|sc| {
        let r1 = reader.clone();
        let t1 = sc.spawn(move || point_loop(pairs, start, end, |s, t| r1.query(s, t)));
        let r2 = reader.clone();
        let t2 = sc.spawn(move || fanout_loop(fans, end, |s, ts| r2.distances_from(s, ts)));
        (
            t1.join().expect("query thread"),
            t2.join().expect("fan-out thread"),
        )
    });
    let mut fan_lat = fan_lat;
    out.attempted = (lat.len() + fan_lat.len()) as u64;
    out.put_setup(&setups);
    out.put_rate(&lat, cfg.seconds);
    out.put_latency(&lat, cfg.seconds);
    out.put("fanout_p50_ms", median(&mut fan_lat), "ms", fan_lat.len());
    drop(oracle);
    (points, fanned)
}

/// Counts kept by the traced read path.
#[derive(Debug, Default)]
pub struct SearchCounts {
    pub searches: u64,
    pub improved: u64,
}

/// The first `packed()` on a generation seals its query mirror.
fn seal(tr: &mut Tracer, lab: &Labelling) {
    if !lab.packed_is_sealed() {
        let o = tr.begin("hcl.packed.seal");
        std::hint::black_box(lab.packed());
        tr.end(o);
    }
}

/// One point query, layer by layer, as `SharedReader::query` runs it:
/// pin, label bound (one source plan priced against `t`), bounded BiBFS
/// on the pinned view. Returns the
/// answer and the generation it was answered on.
pub fn traced_query(
    reader: &SharedReader<IndexSnapshot>,
    tr: &mut Tracer,
    bibfs: &mut BiBfs,
    counts: &mut SearchCounts,
    s: Vertex,
    t: Vertex,
) -> (Option<Dist>, u64) {
    let op = tr.begin_op("oracle.query");
    let o = tr.begin("core.reader.pin");
    let pinned = reader.pin();
    tr.end(o);
    let snap = pinned.value();
    let lab = &snap.lab;
    seal(tr, lab);
    let d = match (lab.landmark_index(s), lab.landmark_index(t)) {
        (Some(i), Some(j)) => lab.highway(i, j),
        (Some(i), None) => lab.landmark_to_vertex(i, t),
        (None, Some(j)) => lab.landmark_to_vertex(j, s),
        (None, None) => {
            // The served path prices the bound with the SIMD kernels
            // (`QueryEngine::pair_bound`, private); these public calls
            // run the same kernels.
            let o = tr.begin("hcl.labelling.bound");
            let bound = SourcePlan::new(lab, lab, s).bound_to(lab, t);
            tr.end(o);
            let o = tr.begin("graph.bfs.bibfs");
            let found = bibfs.run(&snap.view, s, t, bound, |v| !lab.is_landmark(v));
            tr.end(o);
            counts.searches += 1;
            counts.improved += u64::from(found.is_some());
            found.unwrap_or(bound)
        }
    };
    tr.end(op);
    ((d != INF).then_some(d), pinned.version())
}

/// One fan-out, layer by layer, as `SharedReader::distances_from` runs
/// it: pin, one source plan priced against every target, then a single
/// bounded sweep (or per-target searches when few targets need one).
fn traced_fanout(
    reader: &SharedReader<IndexSnapshot>,
    tr: &mut Tracer,
    bibfs: &mut BiBfs,
    s: Vertex,
    targets: &[Vertex],
) -> Vec<Option<Dist>> {
    let op = tr.begin_op("oracle.distances_from");
    let o = tr.begin("core.reader.pin");
    let pinned = reader.pin();
    tr.end(o);
    let snap = pinned.value();
    let lab = &snap.lab;
    seal(tr, lab);
    let mut out = vec![INF; targets.len()];
    if let Some(i) = lab.landmark_index(s) {
        for (slot, &t) in out.iter_mut().zip(targets) {
            *slot = lab.landmark_to_vertex(i, t);
        }
    } else {
        let o = tr.begin("hcl.query.plan");
        let plan = SourcePlan::new(lab, lab, s);
        let mut refine = Vec::new();
        for (k, &t) in targets.iter().enumerate() {
            if t == s {
                out[k] = 0;
            } else if let Some(j) = lab.landmark_index(t) {
                out[k] = lab.landmark_to_vertex(j, s);
            } else {
                out[k] = plan.bound_to(lab, t);
                refine.push(k);
            }
        }
        tr.end(o);
        let allowed = |v: Vertex| !lab.is_landmark(v);
        if refine.len() >= sweep_min_targets(snap.view.num_vertices()) {
            let horizon = refine.iter().map(|&k| out[k]).max().unwrap_or(0);
            let o = tr.begin("graph.bfs.sweep");
            bibfs.sweep(&snap.view, s, horizon, usize::MAX, allowed);
            tr.end(o);
            for &k in &refine {
                out[k] = out[k].min(bibfs.sweep_dist(targets[k]));
            }
        } else {
            for &k in &refine {
                let o = tr.begin("graph.bfs.bibfs");
                let found = bibfs.run(&snap.view, s, targets[k], out[k], allowed);
                tr.end(o);
                out[k] = found.unwrap_or(out[k]);
            }
        }
    }
    tr.end(op);
    out.into_iter().map(|d| (d != INF).then_some(d)).collect()
}

/// Tracing overhead in percent: each op runs once traced and once
/// untraced, in alternating order, and the medians of the two sets of
/// op times are compared.
pub fn overhead_pct(ops: usize, mut op: impl FnMut(&mut Tracer, usize)) -> f64 {
    let mut tr = Tracer::new(Instant::now(), 0);
    let (mut on, mut off) = (Vec::with_capacity(ops), Vec::with_capacity(ops));
    for i in 0..ops {
        for traced in [i % 2 == 0, i % 2 == 1] {
            tr.on = traced;
            let t0 = Instant::now();
            op(&mut tr, i);
            let d = us(t0.elapsed());
            if traced { &mut on } else { &mut off }.push(d);
        }
    }
    (median(&mut on) / median(&mut off).max(1e-9) - 1.0) * 100.0
}

/// Resident label bytes per label entry, across every distinct live
/// copy of the labelling (the writer's working buffer and the published
/// generation), dense rows plus the packed mirror where sealed.
fn bytes_per_entry(copies: &[&Labelling]) -> f64 {
    let bytes: usize = copies
        .iter()
        .map(|lab| {
            lab.dense_resident_bytes()
                + if lab.packed_is_sealed() {
                    lab.packed().labels.resident_bytes()
                } else {
                    0
                }
        })
        .sum();
    bytes as f64 / copies[0].size_entries().max(1) as f64
}

/// Layers read off the index at the end of a traced run: the published
/// view's overlay, the resident label bytes, and the tracing overhead of
/// point queries on `pairs`.
pub fn put_index_layers(out: &mut Outcome, idx: &BatchIndex, pairs: &[(Vertex, Vertex)]) {
    let reader = idx.shared_reader();
    let pinned = reader.pin();
    let published = pinned.value();
    let overlay = published.view.overlay_entries() as f64;
    out.put("graph.csr.overlay_entries", overlay, "count", 1);
    let bytes = bytes_per_entry(&[idx.labelling(), &published.lab]);
    out.put("hcl.bytes_per_entry", bytes, "B", 1);
    let mut bibfs = BiBfs::new(idx.num_vertices());
    let mut counts = SearchCounts::default();
    let pct = overhead_pct(OVERHEAD_OPS, |tr, i| {
        let (s, t) = pairs[i % pairs.len()];
        traced_query(&reader, tr, &mut bibfs, &mut counts, s, t);
    });
    out.put("trace.overhead_pct", pct, "%", OVERHEAD_OPS);
}

/// Report the read-path layers of `layers`.
pub fn put_read_layers(out: &mut Outcome, layers: &Layers, counts: &SearchCounts) {
    let mut put_med = |name: &'static str, span: &str, scale: f64, unit: &'static str| {
        let mut d = layers.durations(span);
        out.put(name, median(&mut d) * scale, unit, d.len());
    };
    put_med("graph.bfs.bibfs_us", "graph.bfs.bibfs", 1.0, "us");
    put_med("graph.bfs.sweep_ms", "graph.bfs.sweep", 1e-3, "ms");
    put_med("hcl.labelling.bound_us", "hcl.labelling.bound", 1.0, "us");
    put_med("hcl.query.plan_us", "hcl.query.plan", 1.0, "us");
    put_med("hcl.packed.seal_ms", "hcl.packed.seal", 1e-3, "ms");
    put_med("core.reader.pin_us", "core.reader.pin", 1.0, "us");
    put_med("trace.query_us", "oracle.query", 1.0, "us");
    put_med("fanout_p50_ms", "oracle.distances_from", 1e-3, "ms");
    out.put(
        "graph.bfs.improved_ratio",
        counts.improved as f64 / counts.searches.max(1) as f64,
        "ratio",
        counts.searches as usize,
    );
}

fn traced(
    cfg: &Cfg,
    g: &DynamicGraph,
    pairs: &[(Vertex, Vertex)],
    fans: &[(Vertex, Vec<Vertex>)],
    out: &mut Outcome,
) -> Answers {
    let idx = index(g.clone());
    let reader = idx.shared_reader();
    let n = g.num_vertices();
    // The first query seals the build's mirror: set-up, as end to end.
    let (s, t) = pairs[pairs.len() - 1];
    std::hint::black_box(reader.query(s, t));
    let origin = Instant::now();
    let end = origin + Duration::from_secs_f64(cfg.seconds);
    let ((spans1, counts, lat, points), (spans2, fanned)) = std::thread::scope(|sc| {
        let reader = &reader;
        let t1 = sc.spawn(move || {
            let mut tr = Tracer::new(origin, 1);
            let mut bibfs = BiBfs::new(n);
            let mut counts = SearchCounts::default();
            let (lat, points) = point_loop(pairs, origin, end, |s, t| {
                traced_query(reader, &mut tr, &mut bibfs, &mut counts, s, t).0
            });
            (tr.into_spans(), counts, lat, points)
        });
        let t2 = sc.spawn(move || {
            let mut tr = Tracer::new(origin, 2);
            let mut bibfs = BiBfs::new(n);
            let (_, fanned) = fanout_loop(fans, end, |s, ts| {
                traced_fanout(reader, &mut tr, &mut bibfs, s, ts)
            });
            (tr.into_spans(), fanned)
        });
        (
            t1.join().expect("query thread"),
            t2.join().expect("fan-out thread"),
        )
    });
    let spans = trace::merge(vec![spans1, spans2]);
    let layers = trace::finish(&cfg.spans, &spans, &mut out.notes);
    out.attempted = (points.len() + fanned.len()) as u64;
    out.put_rate(&lat, cfg.seconds);
    out.put_latency(&lat, cfg.seconds);
    put_read_layers(out, &layers, &counts);
    put_index_layers(out, &idx, pairs);
    (points, fanned)
}
