//! `churn_1m`: n = 10⁶ with durability (fsync on every commit,
//! checkpoint every 32 batches). A writer commits a 100-edit fully
//! dynamic batch every 500 ms, then opens a what-if session over the
//! next batch and runs 64 queries in it; a reader issues uniform point
//! queries on an open loop at 1000 q/s, timed from when each was due.
//! This is the whole commit path with reads beside it, and the reader
//! sees every per-generation stall.

use crate::check::{self, Answer};
use crate::inputs;
use crate::read::{self, SearchCounts};
use crate::trace::{self, Tracer};
use crate::util::{median, ms, quantile, sleep_until, timed_setups, us};
use crate::{Cfg, Outcome};
use batchhl::core::persist::write_checkpoint;
use batchhl::core::{BatchIndex, IndexSnapshot, SharedReader};
use batchhl::graph::bfs::BiBfs;
use batchhl::graph::Batch;
use batchhl::{
    validate_batch, BackendFamily, CheckpointMeta, Dist, DistanceOracle, DurabilityConfig, Edit,
    FsyncPolicy, OracleReader, Vertex, WalWriter,
};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const COMMIT_EVERY: Duration = Duration::from_millis(500);
const BATCH: usize = 100;
const READ_EVERY: Duration = Duration::from_millis(1);
const WHATIF_QUERIES: usize = 64;
const CHECK_READS: usize = 24;
const CHECK_WHATIF: usize = 8;

fn checkpoint_every(cfg: &Cfg) -> u64 {
    // Smoke runs are a few seconds long; checkpoint often enough that
    // they still cross the checkpoint path.
    if cfg.smoke {
        2
    } else {
        32
    }
}

/// A durability directory inside the checkout, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = PathBuf::from(format!(".scalebench/tmp/{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a durability directory");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Inputs of one run, all made from the seed.
struct Plan {
    commits: usize,
    batches: Vec<Vec<Edit>>,
    reads: Vec<(Vertex, Vertex)>,
    whatif: Vec<(Vertex, Vertex)>,
}

/// What the reader saw: per query, the generation version it started
/// on and when it completed.
struct ReaderLog {
    t0: Instant,
    /// `(due, latency from due)` per query, in seconds after `t0` and µs.
    lat: Vec<(f64, f64)>,
    late_us: Vec<f64>,
    seen: Vec<(u64, Instant)>,
    answers: Vec<Answer>,
}

impl ReaderLog {
    fn new(t0: Instant) -> Self {
        ReaderLog {
            t0,
            lat: Vec::new(),
            late_us: Vec::new(),
            seen: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// The reader's query rate, latency and lateness. The open loop
    /// offers a fixed rate; what it completes per second runs until its
    /// last answer, so a stall at the end lowers it.
    fn put_metrics(&self, out: &mut Outcome, seconds: f64) {
        let elapsed = self
            .seen
            .last()
            .map_or(seconds, |&(_, done)| (done - self.t0).as_secs_f64());
        let done = self.lat.len();
        out.put("query_qps", done as f64 / elapsed, "1/s", done);
        out.put_latency(&self.lat, seconds);
        let mut late = self.late_us.clone();
        out.put(
            "loadgen.late_p99_us",
            quantile(&mut late, 0.99),
            "us",
            late.len(),
        );
    }

    /// Record one query. It is checkable when no commit was in flight
    /// from before it started until after it finished (the writer's
    /// epoch is even and unchanged): it then ran on generation epoch/2.
    fn record(&mut self, due: Instant, started: Instant, e0: u64, e1: u64, v0: u64, a: Answer) {
        let done = Instant::now();
        self.lat
            .push(((due - self.t0).as_secs_f64(), us(done - due)));
        self.late_us.push(us(started - due));
        self.seen.push((v0, done));
        if e0 == e1 && e0.is_multiple_of(2) {
            self.answers.push(Answer {
                gen: (e0 / 2) as usize,
                ..a
            });
        }
    }
}

/// Per commit: when it was due and the version it published.
struct CommitLog {
    due: Instant,
    version: u64,
}

/// Milliseconds from each commit's due time until the reader first
/// completed a query that started on a generation including it.
fn visible_ms(commits: &[CommitLog], seen: &[(u64, Instant)]) -> Vec<f64> {
    commits
        .iter()
        .filter_map(|c| {
            let i = seen.partition_point(|&(v, _)| v < c.version);
            seen.get(i).map(|&(_, done)| ms(done - c.due))
        })
        .collect()
}

pub fn run(cfg: &Cfg) -> Outcome {
    let n = cfg.n();
    let g = inputs::graph(n, cfg.seed);
    let commits = ((cfg.seconds / COMMIT_EVERY.as_secs_f64()).floor() as usize).max(1);
    let plan = Plan {
        commits,
        batches: inputs::batches(&g, commits + 1, BATCH, cfg.seed),
        reads: inputs::uniform_pairs(n, 1 << 16, cfg.seed, 1),
        whatif: inputs::uniform_pairs(n, WHATIF_QUERIES * commits, cfg.seed, 2),
    };
    let mut out = Outcome {
        m: g.num_edges(),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "durability: fsync=EveryCommit checkpoint_every={} commit_every_ms={} batch={} read_rate=1000/s",
        checkpoint_every(cfg),
        COMMIT_EVERY.as_millis(),
        BATCH
    ));
    let (reads, whatifs) = if cfg.trace {
        traced(cfg, &g, &plan, &mut out)
    } else {
        end_to_end(cfg, &g, &plan, &mut out)
    };
    let mut sample = check::sample(&reads, CHECK_READS, cfg.seed, 0);
    sample.extend(check::sample(&whatifs, CHECK_WHATIF, cfg.seed, 1));
    out.checked = sample.len();
    out.wrong = check::mismatches(&g, &plan.batches, &sample);
    out
}

/// What the writer saw.
#[derive(Default)]
struct WriterLog {
    commits: Vec<CommitLog>,
    commit_ms: Vec<f64>,
    build_ms: Vec<f64>,
    query_us: Vec<f64>,
    answers: Vec<Answer>,
    attempted: u64,
    failed: u64,
}

impl WriterLog {
    fn put_commit_metrics(&mut self, out: &mut Outcome, seen: &[(u64, Instant)]) {
        let n = self.commit_ms.len();
        out.put("commit_p50_ms", median(&mut self.commit_ms), "ms", n);
        out.put("commit_p90_ms", quantile(&mut self.commit_ms, 0.9), "ms", n);
        let mut vis = visible_ms(&self.commits, seen);
        out.put("visible_p50_ms", median(&mut vis), "ms", vis.len());
        let b = self.build_ms.len();
        out.put("whatif_build_p50_ms", median(&mut self.build_ms), "ms", b);
        let q = self.query_us.len();
        out.put("whatif_query_p50_us", median(&mut self.query_us), "us", q);
    }
}

/// The writer's two steps: through the facade end to end, layer by
/// layer when traced. [`writer_loop`] schedules and times them.
trait Writer {
    /// Commit batch `k`; returns the version it published.
    fn commit(&mut self, k: usize) -> Result<u64, String>;
    /// Open a what-if session over batch `k + 1` and answer `pairs` in
    /// it. Returns the session's build time in ms, and each query's
    /// time in µs with its answer.
    fn what_if(&mut self, k: usize, pairs: &[(Vertex, Vertex)]) -> Result<WhatIfRun, String>;
}

type WhatIfRun = (f64, Vec<(f64, Option<Dist>)>);

/// Answer `pairs` with `query`, timing each call.
fn timed_queries(
    pairs: &[(Vertex, Vertex)],
    mut query: impl FnMut(Vertex, Vertex) -> Option<Dist>,
) -> Vec<(f64, Option<Dist>)> {
    pairs
        .iter()
        .map(|&(s, t)| {
            let q0 = Instant::now();
            let answer = query(s, t);
            (us(q0.elapsed()), answer)
        })
        .collect()
}

/// The writer's open loop: commit batch `k` when it is due, with the
/// epoch odd while it is in flight, then run its what-if session.
fn writer_loop(plan: &Plan, t0: Instant, epoch: &AtomicU64, w: &mut impl Writer) -> WriterLog {
    let mut log = WriterLog::default();
    for k in 0..plan.commits {
        let due = t0 + COMMIT_EVERY * k as u32;
        sleep_until(due);
        epoch.store(2 * k as u64 + 1, Ordering::SeqCst);
        let c0 = Instant::now();
        let result = w.commit(k);
        let took = c0.elapsed();
        epoch.store(2 * k as u64 + 2, Ordering::SeqCst);
        log.attempted += 1;
        log.commit_ms.push(ms(took));
        match result {
            Ok(version) => log.commits.push(CommitLog { due, version }),
            Err(e) => {
                eprintln!("commit {k} failed: {e}");
                log.failed += 1;
            }
        }
        let pairs = &plan.whatif[k * WHATIF_QUERIES..(k + 1) * WHATIF_QUERIES];
        log.attempted += 1 + pairs.len() as u64;
        match w.what_if(k, pairs) {
            Ok((build_ms, answered)) => {
                log.build_ms.push(build_ms);
                for (&(s, t), (q_us, answer)) in pairs.iter().zip(answered) {
                    log.query_us.push(q_us);
                    log.answers.push(Answer {
                        gen: k + 2,
                        s,
                        t,
                        answer,
                    });
                }
            }
            Err(e) => {
                eprintln!("what-if {k} failed: {e}");
                log.failed += 1;
            }
        }
    }
    log
}

/// The reader's open loop: one query due every [`READ_EVERY`] until
/// `end`, answered by `query`, which returns the answer and the version
/// of the generation it started on.
fn reader_loop(
    plan: &Plan,
    t0: Instant,
    end: Instant,
    epoch: &AtomicU64,
    mut query: impl FnMut(Vertex, Vertex) -> (Option<Dist>, u64),
) -> ReaderLog {
    let mut log = ReaderLog::new(t0);
    for (i, &(s, t)) in plan.reads.iter().cycle().enumerate() {
        let due = t0 + READ_EVERY * i as u32;
        if due >= end {
            break;
        }
        sleep_until(due);
        let started = Instant::now();
        let e0 = epoch.load(Ordering::SeqCst);
        let (answer, v0) = query(s, t);
        let e1 = epoch.load(Ordering::SeqCst);
        let a = Answer {
            gen: 0,
            s,
            t,
            answer,
        };
        log.record(due, started, e0, e1, v0, a);
    }
    log
}

/// The writer through the facade.
struct FacadeWriter<'a> {
    oracle: &'a mut DistanceOracle,
    reader: &'a OracleReader,
    batches: &'a [Vec<Edit>],
}

impl Writer for FacadeWriter<'_> {
    fn commit(&mut self, k: usize) -> Result<u64, String> {
        self.batches[k]
            .iter()
            .fold(self.oracle.update(), |u, &e| u.push(e))
            .commit()
            .map_err(|e| e.to_string())?;
        Ok(self.oracle.version())
    }

    fn what_if(&mut self, k: usize, pairs: &[(Vertex, Vertex)]) -> Result<WhatIfRun, String> {
        let b0 = Instant::now();
        let mut session = self
            .reader
            .what_if(&self.batches[k + 1])
            .map_err(|e| e.to_string())?;
        let build_ms = ms(b0.elapsed());
        Ok((build_ms, timed_queries(pairs, |s, t| session.query(s, t))))
    }
}

fn end_to_end(
    cfg: &Cfg,
    g: &batchhl::graph::DynamicGraph,
    plan: &Plan,
    out: &mut Outcome,
) -> (Vec<Answer>, Vec<Answer>) {
    let durability = DurabilityConfig {
        checkpoint_every: Some(checkpoint_every(cfg)),
        fsync: FsyncPolicy::EveryCommit,
    };
    let mut rep = 0;
    let ((mut oracle, _dir), setups) = timed_setups(|| {
        let g = g.clone();
        let dir = TempDir::new(&format!("churn-{rep}"));
        rep += 1;
        let start = Instant::now();
        let mut oracle = read::oracle(g);
        oracle
            .persist_to(&dir.0, durability)
            .expect("attach durability");
        let (s, t) = plan.reads[plan.reads.len() - 1];
        std::hint::black_box(oracle.reader().query(s, t));
        ((oracle, dir), start.elapsed())
    });
    let reader = oracle.reader();
    let epoch = AtomicU64::new(0);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(cfg.seconds);
    let (mut writer, log) = std::thread::scope(|sc| {
        let (epoch, reader) = (&epoch, &reader);
        let mut w = FacadeWriter {
            oracle: &mut oracle,
            reader,
            batches: &plan.batches,
        };
        let w = sc.spawn(move || writer_loop(plan, t0, epoch, &mut w));
        let r = sc.spawn(move || {
            reader_loop(plan, t0, end, epoch, |s, t| {
                let v0 = reader.version();
                (reader.query(s, t), v0)
            })
        });
        (w.join().expect("writer"), r.join().expect("reader"))
    });
    out.attempted = log.lat.len() as u64 + writer.attempted;
    out.failed = writer.failed;
    out.put_setup(&setups);
    log.put_metrics(out, cfg.seconds);
    writer.put_commit_metrics(out, &log.seen);
    (log.answers, writer.answers)
}

/// Write a checkpoint of `idx` the way the facade's `save` does (temp
/// file, sync, rename) and start a fresh log.
fn checkpoint(idx: &BatchIndex, dir: &Path, batch_seq: u64, wal: &mut WalWriter) {
    let tmp = dir.join("checkpoint.bhl2.tmp");
    let mut w = BufWriter::new(File::create(&tmp).expect("create checkpoint"));
    let meta = CheckpointMeta {
        batch_seq,
        version: idx.version(),
    };
    write_checkpoint(idx, meta, &mut w).expect("write checkpoint");
    let file = w.into_inner().expect("flush checkpoint");
    file.sync_all().expect("sync checkpoint");
    std::fs::rename(&tmp, dir.join("checkpoint.bhl2")).expect("install checkpoint");
    *wal = WalWriter::create(dir.join("batches.wal")).expect("rotate the log");
}

/// The writer layer by layer, in the order the facade's commit runs
/// them, with a span around each call.
struct TracedWriter<'a> {
    tr: Tracer,
    idx: &'a mut BatchIndex,
    wal: WalWriter,
    dir: &'a Path,
    cadence: usize,
    edits: &'a [Vec<Edit>],
    batches: &'a [Batch],
    reader: SharedReader<IndexSnapshot>,
    /// `UpdateStats::affected_total` per commit.
    affected: Vec<usize>,
}

impl Writer for TracedWriter<'_> {
    fn commit(&mut self, k: usize) -> Result<u64, String> {
        let tr = &mut self.tr;
        let edits = &self.edits[k];
        let op = tr.begin_op("oracle.commit");
        let o = tr.begin("core.admission.validate");
        validate_batch(BackendFamily::Undirected, self.idx.num_vertices(), edits)
            .map_err(|e| e.to_string())?;
        tr.end(o);
        let o = tr.begin("core.wal.append");
        self.wal
            .append_txn(k as u64, edits, None, false)
            .map_err(|e| e.to_string())?;
        tr.end(o);
        let o = tr.begin("core.wal.fsync");
        self.wal.sync().map_err(|e| e.to_string())?;
        tr.end(o);
        let o = tr.begin("core.index.apply");
        let stats = self.idx.apply_batch(&self.batches[k]);
        tr.end(o);
        if (k + 1).is_multiple_of(self.cadence) {
            let o = tr.begin("core.persist.checkpoint");
            checkpoint(self.idx, self.dir, k as u64 + 1, &mut self.wal);
            tr.end(o);
        }
        tr.end(op);
        self.affected.push(stats.affected_total);
        Ok(self.idx.version())
    }

    fn what_if(&mut self, k: usize, pairs: &[(Vertex, Vertex)]) -> Result<WhatIfRun, String> {
        let tr = &mut self.tr;
        let b0 = Instant::now();
        let o = tr.begin_op("core.whatif.build");
        let mut session = self.reader.with_edits(&self.batches[k + 1]);
        tr.end(o);
        let build_ms = ms(b0.elapsed());
        let answered = timed_queries(pairs, |s, t| {
            let o = tr.begin_op("core.whatif.query");
            let answer = session.query(s, t);
            tr.end(o);
            answer
        });
        Ok((build_ms, answered))
    }
}

fn traced(
    cfg: &Cfg,
    g: &batchhl::graph::DynamicGraph,
    plan: &Plan,
    out: &mut Outcome,
) -> (Vec<Answer>, Vec<Answer>) {
    let n = g.num_vertices();
    let batches: Vec<Batch> = plan.batches.iter().map(|b| inputs::to_batch(b)).collect();
    let dir = TempDir::new("churn-traced");
    let mut idx = read::index(g.clone());
    let mut wal = WalWriter::create(dir.0.join("batches.wal")).expect("create the log");
    let origin = Instant::now();
    // Attaching durability writes the first checkpoint. It is traced
    // too: a run shorter than the cadence crosses no other.
    let mut attach = Tracer::new(origin, 3);
    let o = attach.begin_op("core.persist.checkpoint");
    checkpoint(&idx, &dir.0, 0, &mut wal);
    attach.end(o);
    let reader = idx.shared_reader();
    let (s, t) = plan.reads[plan.reads.len() - 1];
    std::hint::black_box(reader.query(s, t));
    let epoch = AtomicU64::new(0);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(cfg.seconds);
    let mut w = TracedWriter {
        tr: Tracer::new(origin, 1),
        idx: &mut idx,
        wal,
        dir: &dir.0,
        cadence: checkpoint_every(cfg) as usize,
        edits: &plan.batches,
        batches: &batches,
        reader: reader.clone(),
        affected: Vec::new(),
    };
    let (mut writer, (rspans, counts, log)) = std::thread::scope(|sc| {
        let (epoch, w) = (&epoch, &mut w);
        let writer = sc.spawn(move || writer_loop(plan, t0, epoch, w));
        let reader = &reader;
        let r = sc.spawn(move || {
            let mut tr = Tracer::new(origin, 2);
            let mut bibfs = BiBfs::new(n);
            let mut counts = SearchCounts::default();
            let log = reader_loop(plan, t0, end, epoch, |s, t| {
                read::traced_query(reader, &mut tr, &mut bibfs, &mut counts, s, t)
            });
            (tr.into_spans(), counts, log)
        });
        (writer.join().expect("writer"), r.join().expect("reader"))
    });
    let TracedWriter { tr, affected, .. } = w;
    let spans = trace::merge(vec![attach.into_spans(), tr.into_spans(), rspans]);
    let layers = trace::finish(&cfg.spans, &spans, &mut out.notes);
    read::put_read_layers(out, &layers, &counts);
    let mut put_med = |name: &'static str, span: &str, scale: f64, unit: &'static str| {
        let mut d = layers.durations(span);
        out.put(name, median(&mut d) * scale, unit, d.len());
    };
    put_med(
        "core.admission.validate_us",
        "core.admission.validate",
        1.0,
        "us",
    );
    put_med("core.wal.append_us", "core.wal.append", 1.0, "us");
    put_med("core.wal.fsync_us", "core.wal.fsync", 1.0, "us");
    put_med(
        "core.persist.checkpoint_ms",
        "core.persist.checkpoint",
        1e-3,
        "ms",
    );
    writer.put_commit_metrics(out, &log.seen);
    let apply = layers.durations("core.index.apply");
    if let Some((&first, rest)) = apply.split_first() {
        out.put("core.index.first_apply_ms", first / 1e3, "ms", 1);
        let mut rest = rest.to_vec();
        out.put(
            "core.index.apply_ms",
            median(&mut rest) / 1e3,
            "ms",
            rest.len(),
        );
        let aff: usize = affected[1..].iter().sum();
        out.put(
            "core.index.apply_us_per_affected",
            rest.iter().sum::<f64>() / aff.max(1) as f64,
            "us",
            aff,
        );
    }
    out.put(
        "core.index.affected_per_commit",
        affected.iter().sum::<usize>() as f64 / affected.len().max(1) as f64,
        "count",
        affected.len(),
    );
    log.put_metrics(out, cfg.seconds);
    read::put_index_layers(out, &idx, &plan.reads);
    out.attempted = log.lat.len() as u64 + writer.attempted;
    out.failed = writer.failed;
    (log.answers, writer.answers)
}
