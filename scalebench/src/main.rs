//! BatchHL at n = 10⁵–10⁶, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path scalebench/Cargo.toml -- \
//!     --workload read_1m|churn_1m|serve_100k --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` drives the system through its public entry points (the
//! `batchhl` facade and `batchhl_server::{Server, Client}`) and reports
//! the end-to-end metrics. `--trace 1` replays the same seeded
//! operations through each layer's public functions, with a span around
//! every call, and reports the per-layer metrics. Every run checks a
//! seeded sample of its answers against BFS. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--smoke` shrinks the graphs for a quick test run.
//! WORKLOADS.md says why each workload exists and what each per-layer
//! metric should move.

mod check;
mod churn;
mod inputs;
mod read;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every `--trace 0` run. `setup_s` is
/// scaled to the reference machine's speed by a calibration pass timed
/// beside each set-up ([`util::Calibration`]). The query and commit
/// timings are in the report lines above the result and in
/// [`PER_LAYER`]: on the shared 2-core reference box their medians over
/// ten runs did not repeat within the largest bound (WORKLOADS.md).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every `--trace 1` run; a layer a
/// workload bypasses reads 0. The last block are end-to-end figures
/// demoted to diagnostics, measured on the traced calls.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.bfs.bibfs_us", "us"),
    ("graph.bfs.improved_ratio", "ratio"),
    ("graph.bfs.sweep_ms", "ms"),
    ("graph.csr.overlay_entries", "count"),
    ("hcl.labelling.bound_us", "us"),
    ("hcl.query.plan_us", "us"),
    ("hcl.packed.seal_ms", "ms"),
    ("hcl.bytes_per_entry", "B"),
    ("core.reader.pin_us", "us"),
    ("core.admission.validate_us", "us"),
    ("core.wal.append_us", "us"),
    ("core.wal.fsync_us", "us"),
    ("core.index.apply_ms", "ms"),
    ("core.index.first_apply_ms", "ms"),
    ("core.index.affected_per_commit", "count"),
    ("core.index.apply_us_per_affected", "us"),
    ("core.persist.checkpoint_ms", "ms"),
    ("oracle.query_many_us", "us"),
    ("server.protocol.parse_us", "us"),
    ("server.protocol.render_us", "us"),
    ("server.coalescer.batch_mean", "count"),
    ("server.handlers.request_p50_us", "us"),
    ("server.client.wire_us", "us"),
    ("server.pool.sheds", "count"),
    ("server.handlers.deadlines", "count"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.query_us", "us"),
    ("query_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("fanout_p50_ms", "ms"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("visible_p50_ms", "ms"),
    ("whatif_build_p50_ms", "ms"),
    ("whatif_query_p50_us", "us"),
    ("error_rate", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Read1m,
    Churn1m,
    Serve100k,
}

#[derive(Debug, Clone)]
pub struct Cfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

impl Cfg {
    /// Vertices of the workload's graph.
    pub fn n(&self) -> usize {
        match (self.workload, self.smoke) {
            (Workload::Serve100k, false) => 100_000,
            (_, false) => 1_000_000,
            (_, true) => 3_000,
        }
    }
}

/// One metric of a run, with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub m: usize,
    /// Operations attempted, and those that failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Answers checked against BFS, and how many disagreed.
    pub checked: usize,
    pub wrong: usize,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// `query_p50_us` and `query_p99_us` of `(time, latency in µs)`
    /// samples over `span` seconds, as medians over windows.
    pub fn put_latency(&mut self, lat: &[(f64, f64)], span: f64) {
        let p50 = util::windowed(lat, span, util::median);
        self.put("query_p50_us", p50, "us", lat.len());
        let p99 = util::windowed(lat, span, |w| util::quantile(w, 0.99));
        self.put("query_p99_us", p99, "us", lat.len());
    }

    /// `query_qps` of queries completed at the given times over `span`
    /// seconds, as the median over windows.
    pub fn put_rate(&mut self, done: &[(f64, f64)], span: f64) {
        let per_window = span / util::WINDOWS as f64;
        let qps = util::windowed(done, span, |w| w.len() as f64 / per_window);
        self.put("query_qps", qps, "1/s", done.len());
    }

    /// `setup_s`, and beside it in the report the set-up time as
    /// measured and the calibration pass.
    pub fn put_setup(&mut self, t: &util::SetupTimes) {
        self.put("setup_s", t.setup_s, "s", util::SETUP_REPS);
        self.put("setup_measured_s", t.raw_s, "s", util::SETUP_REPS);
        let passes = util::SETUP_REPS + 1;
        self.put("calibration_ms", t.calibration_s * 1e3, "ms", passes);
    }

    pub fn error_rate(&self) -> f64 {
        (self.failed + self.wrong as u64) as f64 / self.attempted.max(1) as f64
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: scalebench --workload read_1m|churn_1m|serve_100k --seed N --seconds S --trace 0|1 [--smoke] [--spans PATH]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Cfg> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--workload" => {
                workload = Some(match it.next()?.as_str() {
                    "read_1m" => Workload::Read1m,
                    "churn_1m" => Workload::Churn1m,
                    "serve_100k" => Workload::Serve100k,
                    _ => return None,
                })
            }
            "--seed" => seed = Some(it.next()?.parse().ok()?),
            "--seconds" => seconds = Some(it.next()?.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => trace = Some(it.next()?.parse::<u8>().ok().filter(|t| *t <= 1)? == 1),
            "--spans" => spans = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    let workload = workload?;
    Some(Cfg {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        smoke,
        // One file per workload, replaced by each traced run.
        spans: spans.unwrap_or_else(|| {
            PathBuf::from(format!(".scalebench/spans-{}.jsonl", name_of(workload)))
        }),
    })
}

fn name_of(w: Workload) -> &'static str {
    match w {
        Workload::Read1m => "read_1m",
        Workload::Churn1m => "churn_1m",
        Workload::Serve100k => "serve_100k",
    }
}

/// Render a metric value: finite, with every digit it was measured to.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let Some(cfg) = parse_args() else {
        return usage();
    };
    let mut out = match cfg.workload {
        Workload::Read1m => read::run(&cfg),
        Workload::Churn1m => churn::run(&cfg),
        Workload::Serve100k => serve::run(&cfg),
    };
    let error_rate = out.error_rate();
    out.put("error_rate", error_rate, "ratio", out.attempted as usize);
    if !cfg.trace {
        out.put("peak_rss_mb", util::peak_rss_mb(), "MB", 1);
    }

    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    println!(
        "# scalebench {} seed={} seconds={} trace={} smoke={}",
        name_of(cfg.workload),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke
    );
    println!(
        "# nproc={cores} kernel={} simd={} commit={}",
        util::kernel_release(),
        batchhl::hcl::active_kernel().name(),
        util::git_commit()
    );
    println!(
        "# graph=barabasi_albert(n={}, m_attach={}) m={} landmarks=top-degree |R|={} algorithm=BHL+ threads=1",
        cfg.n(),
        inputs::BA_M,
        out.m,
        inputs::LANDMARKS
    );
    if cfg.workload != Workload::Churn1m {
        println!("# durability: none (no WAL, no checkpoints)");
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!(
            "{:<34} {:>16} {:<6} (n={})",
            m.name,
            num(m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "# correctness: {} answers checked against BFS, {} wrong; {} of {} operations failed",
        out.checked, out.wrong, out.failed, out.attempted
    );

    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let fields: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .metrics
                .iter()
                .rev()
                .find(|m| m.name == name)
                .map_or_else(
                    || {
                        assert!(cfg.trace, "end-to-end metric {name} was not measured");
                        0.0
                    },
                    |m| m.value,
                );
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    let correct = out.wrong == 0 && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed + out.wrong as u64,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
