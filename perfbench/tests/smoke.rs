//! Smoke run of the benchmark at tiny sizes: every workload, untraced and
//! traced, must finish correct and print every declared metric.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::path::Path;
use std::process::Command;

use nexsort_server::json::{self, Value};

fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = json::parse(&text).expect("BENCHMARK.json parses");
    let list = bench.get(key).and_then(Value::as_arr).expect("metric list");
    list.iter().map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string()).collect()
}

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn smoke(workload: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace])
        .arg("--smoke")
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("result is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{stderr}");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{stderr}");
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let metrics = result.get("metrics").expect("metrics");
    for name in declared(if trace == "1" { "per_layer" } else { "end_to_end" }) {
        let v = metrics.get(&name).and_then(|m| m.get("value")).and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} missing or not finite");
    }
}

#[test]
fn cli_deep_smoke() {
    smoke("cli-deep", "0");
    smoke("cli-deep", "1");
}

#[test]
fn cli_flat_smoke() {
    smoke("cli-flat", "0");
    smoke("cli-flat", "1");
}

#[test]
fn daemon_inline_smoke() {
    smoke("daemon-inline", "0");
    smoke("daemon-inline", "1");
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root())
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
