//! Smoke runs of every workload (tiny graphs, one second), end to end
//! and traced. Each run must check out correct and print every metric
//! BENCHMARK.json names, with its unit; in a traced run the layer self
//! times of every operation must add up to the operation's traced
//! total. Nothing here gates on a timing.

use batchhl_server::json::{parse, Json};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Allowed gap between an op's summed self times and its total.
const SELF_TIME_TOLERANCE: f64 = 0.01;

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    contract()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one smoke workload; returns the result line and the spans file.
fn run(workload: &str, trace: bool) -> (Json, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let spans = dir.join("spans.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_scalebench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(&spans)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (parse(last).expect("the result line is JSON"), spans)
}

fn check_result(result: &Json, list: &str) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("a value");
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
            let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        printed,
        declared(list),
        "metrics and units of the {list} list"
    );
}

/// An op's layer self times must sum to its root span. A span's self
/// time is its duration minus the union of its children's intervals
/// clipped to it, so a child that leaks out of its parent or overlaps a
/// sibling makes the sum exceed the root.
fn check_spans(path: &Path) {
    let text = std::fs::read_to_string(path).expect("spans were written");
    let spans: Vec<Json> = text.lines().map(|l| parse(l).expect("span line")).collect();
    assert!(!spans.is_empty(), "a traced run records spans");
    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_u64).expect("span field");
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &spans {
        if let Some(p) = s.get("parent").and_then(Json::as_u64) {
            assert_eq!(
                num(s, "op"),
                num(&spans[p as usize], "op"),
                "a child shares its op"
            );
            children
                .entry(p)
                .or_default()
                .push((num(s, "start_ns"), num(s, "end_ns")));
        }
    }
    let mut op_total: HashMap<u64, u64> = HashMap::new();
    let mut op_self: HashMap<u64, f64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let (start, end) = (num(s, "start_ns"), num(s, "end_ns"));
        let mut kids = children.get(&(i as u64)).cloned().unwrap_or_default();
        kids.sort_unstable();
        // Union of the children's intervals, clipped to [start, end].
        let (mut covered, mut reach) = (0, start);
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *op_self.entry(num(s, "op")).or_default() += (end - start - covered) as f64;
        if s.get("parent").and_then(Json::as_u64).is_none() {
            op_total.insert(num(s, "op"), end - start);
        }
    }
    for (op, total) in op_total {
        let gap = (op_self[&op] - total as f64).abs();
        assert!(
            gap <= SELF_TIME_TOLERANCE * total.max(1) as f64,
            "op {op}: self times sum to {} ns, op took {total} ns",
            op_self[&op]
        );
    }
}

fn smoke(workload: &str) {
    let (result, _) = run(workload, false);
    check_result(&result, "end_to_end");
    let (result, spans) = run(workload, true);
    check_result(&result, "per_layer");
    check_spans(&spans);
}

#[test]
fn read_1m_smoke() {
    smoke("read_1m");
}

#[test]
fn churn_1m_smoke() {
    smoke("churn_1m");
}

#[test]
fn serve_100k_smoke() {
    smoke("serve_100k");
}

#[test]
fn workloads_match_the_contract() {
    let names: Vec<String> = contract()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, ["read_1m", "churn_1m", "serve_100k"]);
}
