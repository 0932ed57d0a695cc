//! Smoke test of the benchmark itself: tiny sizes of all three workloads,
//! untraced and traced, finish in seconds and print exactly the metrics
//! `BENCHMARK.json` names, with their units; a deliberately corrupted
//! report drives `passed_share` below 1.
//!
//! Run with `cargo test --release --offline --manifest-path acbench/Cargo.toml`.

use std::process::Command;

use serde_json::Value;

const WORKLOADS: &[&str] = &["drivers", "tail", "rerun"];

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its parsed last line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_acbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: last line {last}: {e:?}"))
}

fn correct(result: &Value) -> Option<bool> {
    match result.get("correct") {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn assert_metrics(workload: &str, result: &Value, list: &str) {
    let printed = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let declared = declared(list);
    assert_eq!(printed.len(), declared.len(), "{workload}: {list} count");
    for (name, unit) in declared {
        let m = printed
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{workload}: value of {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_passes() {
    for w in WORKLOADS {
        let result = run(w, 0, &[]);
        assert_metrics(w, &result, "end_to_end");
        assert_eq!(correct(&result), Some(true), "{w}");
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{w}");
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) > 0);
        assert_eq!(metric(&result, "passed_share"), 1.0, "{w}");
        for name in ["setup_s", "procs_per_s", "cpu_s", "req_p50_ms", "maxrss_mb"] {
            assert!(metric(&result, name) > 0.0, "{w}: {name} is zero");
        }
    }
}

#[test]
fn every_workload_prints_the_per_layer_table() {
    for w in WORKLOADS {
        let result = run(w, 1, &[]);
        assert_metrics(w, &result, "per_layer");
        assert_eq!(correct(&result), Some(true), "{w}");
        let coverage = metric(&result, "trace.coverage_share");
        assert!(
            coverage > 0.5 && coverage <= 1.0,
            "{w}: coverage {coverage}"
        );
        assert!(
            metric(&result, "smt.queries") > 0.0,
            "{w}: no solver queries"
        );
    }
    // The store layer is exercised exactly where it is on.
    let rerun = run("rerun", 1, &[]);
    assert!(metric(&rerun, "store.hits") > 0.0);
    assert_eq!(
        metric(&rerun, "store.misses"),
        metric(&rerun, "core.fingerprint.calls") - metric(&rerun, "store.hits")
    );
    assert_eq!(metric(&run("drivers", 1, &[]), "store.hits"), 0.0);
}

#[test]
fn a_corrupted_report_fails_the_checks() {
    for w in WORKLOADS {
        let result = run(w, 0, &["--corrupt-report"]);
        assert!(
            metric(&result, "passed_share") < 1.0,
            "{w}: corruption not caught"
        );
        assert_eq!(correct(&result), Some(false), "{w}");
        assert!(result.get("failed").and_then(Value::as_u64).unwrap_or(0) >= 1);
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_acbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
