//! `serve_100k`: n = 10⁵ behind `Server::start` with the default
//! configuration (2 workers, coalescer on, no durability), driven by
//! two `Client` connections sending point queries with Zipf-skewed
//! sources and uniform targets; connection 1 also commits a 10-edit
//! batch every 200 ms. Phase A is an open loop at a fixed offered rate,
//! timed from when each query was due; phase B is a closed loop with a
//! fixed pipelining window and gives the throughput. The graph fits in
//! cache, so the protocol, coalescer, pool and sockets dominate.

use crate::check::{self, Answer};
use crate::inputs;
use crate::read::{self};
use crate::trace::{self, Tracer};
use crate::util::{mean, median, ms, quantile, sleep_until, timed_setups, us};
use crate::{Cfg, Outcome};
use batchhl::{Edit, OracleReader, Vertex};
use batchhl_server::protocol::{parse_request, resp_dist};
use batchhl_server::{Client, Server, ServerConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const COMMIT_EVERY: Duration = Duration::from_millis(200);
const COMMIT_SIZE: usize = 10;
/// Phase A's offered load over both connections, in queries per second.
const OFFERED_QPS: f64 = 4_000.0;
/// Phase B's requests in flight per connection.
const WINDOW: usize = 32;
const ZIPF_ALPHA: f64 = 1.0;
/// The p99 latency limit phase A is judged against.
const P99_LIMIT_US: f64 = 2_000.0;
const CHECK_ANSWERS: usize = 48;
/// Request lines replayed through the protocol layer in a traced run.
const REPLAY_LINES: usize = 4_096;

/// A started server with its two connections and a reader beside them.
struct Served {
    clients: Vec<Client>,
    server: Server,
    reader: OracleReader,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.clients.clear();
        self.server.shutdown();
    }
}

struct Pending {
    s: Vertex,
    t: Vertex,
    due: Instant,
    sent: Instant,
    epoch: u64,
}

/// One connection's load loop and what it measured.
struct Conn<'a> {
    client: &'a mut Client,
    pairs: &'a [(Vertex, Vertex)],
    next_pair: usize,
    /// Commits this connection sends (connection 1 only), due every
    /// [`COMMIT_EVERY`] from `t0`.
    commits: &'a [Vec<Edit>],
    next_commit: usize,
    t0: Instant,
    epoch: &'a AtomicU64,
    pending: HashMap<u64, Pending>,
    outstanding: usize,
    log: ConnLog,
}

#[derive(Default)]
struct ConnLog {
    /// Phase A: `(due, latency from due)` per answer, in seconds after
    /// the run started and µs; and how late each query was sent.
    due_lat: Vec<(f64, f64)>,
    late_us: Vec<f64>,
    /// Send-to-answer time of every query.
    rtt_us: Vec<f64>,
    /// Phase B: when each answer that beat the phase's end arrived.
    phase_b_done: Vec<f64>,
    commit_ms: Vec<f64>,
    answers: Vec<Answer>,
    attempted: u64,
    failed: u64,
}

impl Conn<'_> {
    fn commit_due(&self) -> Option<Instant> {
        (self.next_commit < self.commits.len())
            .then(|| self.t0 + COMMIT_EVERY * self.next_commit as u32)
    }

    fn send(&mut self, due: Instant, phase_a: bool) {
        let (s, t) = self.pairs[self.next_pair % self.pairs.len()];
        self.next_pair += 1;
        self.log.attempted += 1;
        let sent = Instant::now();
        let epoch = self.epoch.load(Ordering::SeqCst);
        match self.client.send_query(s, t) {
            Ok(id) => {
                self.pending.insert(
                    id,
                    Pending {
                        s,
                        t,
                        due,
                        sent,
                        epoch,
                    },
                );
                self.outstanding += 1;
                if phase_a {
                    self.log.late_us.push(us(sent - due));
                }
            }
            Err(e) => {
                eprintln!("send failed: {e}");
                self.log.failed += 1;
            }
        }
    }

    /// Receive one answer; true when it was a success.
    fn recv(&mut self, phase_a: bool) -> bool {
        self.outstanding -= 1;
        match self.client.recv_dist() {
            Ok((id, answer)) => {
                let now = Instant::now();
                let p = self.pending.remove(&id).expect("answers carry a sent id");
                self.log.rtt_us.push(us(now - p.sent));
                if phase_a {
                    let at = (p.due - self.t0).as_secs_f64();
                    self.log.due_lat.push((at, us(now - p.due)));
                }
                // Checkable when no commit was in flight between send and
                // receipt: it was then answered on generation epoch/2.
                if p.epoch.is_multiple_of(2) && self.epoch.load(Ordering::SeqCst) == p.epoch {
                    self.log.answers.push(Answer {
                        gen: (p.epoch / 2) as usize,
                        s: p.s,
                        t: p.t,
                        answer,
                    });
                }
                true
            }
            Err(e) => {
                eprintln!("query failed: {e}");
                self.log.failed += 1;
                false
            }
        }
    }

    /// Send the next commit if it is due, after draining the answers in
    /// flight (a commit call waits for its own reply). True if it did.
    fn maybe_commit(&mut self, phase_a: bool) -> bool {
        match self.commit_due() {
            Some(due) if Instant::now() >= due => {}
            _ => return false,
        }
        while self.outstanding > 0 {
            self.recv(phase_a);
        }
        let k = self.next_commit;
        self.next_commit += 1;
        self.log.attempted += 1;
        self.epoch.store(2 * k as u64 + 1, Ordering::SeqCst);
        let c0 = Instant::now();
        let result = self.client.commit_detailed(&self.commits[k]);
        self.log.commit_ms.push(ms(c0.elapsed()));
        self.epoch.store(2 * k as u64 + 2, Ordering::SeqCst);
        if let Err(e) = result {
            eprintln!("commit {k} failed: {e}");
            self.log.failed += 1;
        }
        true
    }

    /// Open loop at `rate` queries per second until `end`.
    fn phase_a(&mut self, rate: f64, end: Instant) {
        let start = Instant::now();
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut i = 0u32;
        loop {
            if self.maybe_commit(true) {
                continue;
            }
            let due = start + interval * i;
            if due < end && Instant::now() >= due {
                self.send(due, true);
                i += 1;
            } else if self.outstanding > 0 {
                self.recv(true);
            } else if due >= end {
                break;
            } else {
                sleep_until(self.commit_due().map_or(due, |c| c.min(due)));
            }
        }
    }

    /// Closed loop with [`WINDOW`] queries in flight until `end`.
    fn phase_b(&mut self, end: Instant) {
        loop {
            let now = Instant::now();
            if now < end {
                if self.maybe_commit(false) {
                    continue;
                }
                while self.outstanding < WINDOW {
                    self.send(Instant::now(), false);
                }
            } else if self.outstanding == 0 {
                break;
            }
            if self.recv(false) {
                let now = Instant::now();
                if now < end {
                    self.log.phase_b_done.push((now - self.t0).as_secs_f64());
                }
            }
        }
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let n = cfg.n();
    let g = inputs::graph(n, cfg.seed);
    let commits = ((cfg.seconds / COMMIT_EVERY.as_secs_f64()).floor() as usize).max(1);
    let batches = inputs::batches(&g, commits, COMMIT_SIZE, cfg.seed);
    let pairs = [
        inputs::zipf_pairs(n, 1 << 17, ZIPF_ALPHA, cfg.seed, 1),
        inputs::zipf_pairs(n, 1 << 17, ZIPF_ALPHA, cfg.seed, 2),
    ];
    let mut out = Outcome {
        m: g.num_edges(),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "server: ServerConfig::default() connections=2 phase_a_offered_qps={OFFERED_QPS} phase_b_window={WINDOW} \
         zipf_alpha={ZIPF_ALPHA} commit_every_ms={} commit_size={COMMIT_SIZE} p99_limit_us={P99_LIMIT_US}",
        COMMIT_EVERY.as_millis()
    ));
    let (mut served, setups) = timed_setups(|| {
        let g = g.clone();
        let start = Instant::now();
        let oracle = read::oracle(g);
        let reader = oracle.reader();
        let server = Server::start(oracle, ServerConfig::default()).expect("start the server");
        let mut clients: Vec<Client> = (0..2)
            .map(|_| Client::connect(server.addr()).expect("connect"))
            .collect();
        let (s, t) = pairs[0][pairs[0].len() - 1];
        std::hint::black_box(clients[0].query(s, t).expect("first query"));
        let took = start.elapsed();
        (
            Served {
                clients,
                server,
                reader,
            },
            took,
        )
    });
    let epoch = AtomicU64::new(0);
    let t0 = Instant::now();
    let a_end = t0 + Duration::from_secs_f64(cfg.seconds / 2.0);
    let b_end = t0 + Duration::from_secs_f64(cfg.seconds);
    let logs: Vec<ConnLog> = std::thread::scope(|sc| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(&pairs)
            .enumerate()
            .map(|(c, (client, pairs))| {
                let epoch = &epoch;
                let commits: &[Vec<Edit>] = if c == 0 { &batches } else { &[] };
                sc.spawn(move || {
                    let mut conn = Conn {
                        client,
                        pairs,
                        next_pair: 0,
                        commits,
                        next_commit: 0,
                        t0,
                        epoch,
                        pending: HashMap::new(),
                        outstanding: 0,
                        log: ConnLog::default(),
                    };
                    conn.phase_a(OFFERED_QPS / 2.0, a_end);
                    conn.phase_b(b_end);
                    conn.log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let cat = |f: fn(&ConnLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let (mut late, rtt, mut commit_ms) = (
        cat(|l| &l.late_us),
        cat(|l| &l.rtt_us),
        cat(|l| &l.commit_ms),
    );
    let due_lat: Vec<(f64, f64)> = logs
        .iter()
        .flat_map(|l| l.due_lat.iter().copied())
        .collect();
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum();
    let half = cfg.seconds / 2.0;
    let phase_b_done: Vec<(f64, f64)> = logs
        .iter()
        .flat_map(|l| l.phase_b_done.iter().map(|&at| (at - half, 0.0)))
        .collect();
    let over_limit = due_lat.iter().filter(|&&(_, l)| l > P99_LIMIT_US).count();
    out.notes.push(format!(
        "phase A: {} of {} answers over the {P99_LIMIT_US} us limit",
        over_limit,
        due_lat.len()
    ));
    if !cfg.trace {
        out.put_setup(&setups);
    }
    out.put_rate(&phase_b_done, half);
    out.put_latency(&due_lat, half);
    let c = commit_ms.len();
    out.put("commit_p50_ms", median(&mut commit_ms), "ms", c);
    out.put("commit_p90_ms", quantile(&mut commit_ms, 0.9), "ms", c);
    out.put(
        "loadgen.late_p99_us",
        quantile(&mut late, 0.99),
        "us",
        late.len(),
    );
    if cfg.trace {
        let m = served.server.metrics();
        let request_mean = m.request_latency.mean_us();
        out.put(
            "server.handlers.request_p50_us",
            m.request_latency.quantile_us(0.5) as f64,
            "us",
            m.request_latency.count() as usize,
        );
        out.put(
            "server.client.wire_us",
            mean(&rtt) - request_mean,
            "us",
            rtt.len(),
        );
        let batch_mean = m.coalesce_batch.mean_us();
        out.put(
            "server.coalescer.batch_mean",
            batch_mean,
            "count",
            m.coalesce_batch.count() as usize,
        );
        out.put("server.pool.sheds", m.sheds.get() as f64, "count", 1);
        out.put(
            "server.handlers.deadlines",
            m.deadlines.get() as f64,
            "count",
            1,
        );
        replay(cfg, &served.reader, &pairs[0], batch_mean, &mut out);
    }
    drop(served);
    let answers: Vec<Answer> = logs.into_iter().flat_map(|l| l.answers).collect();
    let sample = check::sample(&answers, CHECK_ANSWERS, cfg.seed, 0);
    out.checked = sample.len();
    out.wrong = check::mismatches(&g, &batches, &sample);
    out
}

/// The server's per-request path replayed layer by layer on the run's
/// own request lines, in batches of the run's mean coalesced size:
/// parse each line, answer the batch with one `query_many`, render each
/// answer.
fn replay(
    cfg: &Cfg,
    reader: &OracleReader,
    pairs: &[(Vertex, Vertex)],
    batch_mean: f64,
    out: &mut Outcome,
) {
    let lines: Vec<String> = pairs[..REPLAY_LINES]
        .iter()
        .enumerate()
        .map(|(id, &(s, t))| format!("{{\"id\":{id},\"op\":\"query\",\"s\":{s},\"t\":{t}}}"))
        .collect();
    let size = (batch_mean.round() as usize).max(1);
    let batches: Vec<&[String]> = lines.chunks(size).collect();
    let mut op = |tr: &mut Tracer, i: usize| {
        let batch = batches[i % batches.len()];
        let root = tr.begin_op("server.request_batch");
        let mut ids = Vec::with_capacity(batch.len());
        let mut qs = Vec::with_capacity(batch.len());
        for line in batch {
            let o = tr.begin("server.protocol.parse");
            let env = parse_request(line).expect("the replayed lines are well formed");
            tr.end(o);
            ids.push(env.id);
            match env.request {
                batchhl_server::Request::Query { s, t } => qs.push((s, t)),
                other => unreachable!("replayed lines are queries, not {other:?}"),
            }
        }
        let o = tr.begin("oracle.query_many");
        let ds = reader.query_many(&qs);
        tr.end(o);
        for (id, d) in ids.into_iter().zip(ds) {
            let o = tr.begin("server.protocol.render");
            std::hint::black_box(resp_dist(id, d));
            tr.end(o);
        }
        tr.end(root);
    };
    let mut tr = Tracer::new(Instant::now(), 1);
    for i in 0..batches.len() {
        op(&mut tr, i);
    }
    let spans = tr.into_spans();
    let layers = trace::finish(&cfg.spans, &spans, &mut out.notes);
    for (name, span) in [
        ("server.protocol.parse_us", "server.protocol.parse"),
        ("server.protocol.render_us", "server.protocol.render"),
        ("oracle.query_many_us", "oracle.query_many"),
    ] {
        let mut d = layers.durations(span);
        out.put(name, median(&mut d), "us", d.len());
    }
    let pct = read::overhead_pct(batches.len(), &mut op);
    out.put("trace.overhead_pct", pct, "%", batches.len());
}
