//! Smoke test: every workload at `--quick` size (n = 2^10) for one second,
//! untraced and traced, checked against the metric names `BENCHMARK.json`
//! declares.

use std::process::Command;

use mtm_analysis::json::{self, Value};

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every entry of the list `key` in `BENCHMARK.json`.
fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
    let list = spec.get(key).and_then(Value::as_arr).expect(key);
    list.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

fn is_metric_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn run(workload: &str, trace: bool, trace_out: Option<&str>) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.args(["--workload", workload, "--seed", "1", "--seconds", "1", "--quick"]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        cmd.args(["--trace-out", path]);
    }
    let out = cmd.output().expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {}\n{stdout}", out.status);
    let last = stdout.lines().last().expect("some output");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

fn check(workload: &str) {
    let spec = spec();
    let trace_path = format!("{}/{workload}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace, trace.then_some(trace_path.as_str()));
        let keys: Vec<&str> =
            result.members().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{workload}");
        assert!(result.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
        let metrics = result.get("metrics").and_then(Value::members).expect("metrics object");
        let expected = declared(&spec, key);
        assert_eq!(metrics.len(), expected.len(), "{workload} {key}: {metrics:?}");
        for (name, unit) in &expected {
            assert!(is_metric_name(name), "bad metric name {name:?}");
            let m = metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            let m = m.unwrap_or_else(|| panic!("{workload}: {name} missing"));
            let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
        }
    }

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let spans: Vec<Value> =
        text.lines().map(|l| json::parse(l).expect("each trace line is JSON")).collect();
    let name = |s: &Value| s.get("name").and_then(Value::as_str).expect("span name").to_string();
    for layer in ["graph.", "core.", "engine."] {
        assert!(spans.iter().any(|s| name(s).starts_with(layer)), "{workload}: no {layer} span");
    }
    for (i, s) in spans.iter().enumerate() {
        let start = s.get("start_ns").and_then(Value::as_f64).expect("start_ns");
        assert!(s.get("end_ns").and_then(Value::as_f64).expect("end_ns") >= start);
        if let Some(p) = s.get("parent").and_then(Value::as_f64) {
            assert!((p as usize) < i, "{workload}: span {i} precedes its parent");
        }
    }
}

#[test]
fn elect_blind() {
    check("elect-blind-2e16");
}

#[test]
fn elect_bitconv() {
    check("elect-bitconv-2e13");
}

#[test]
fn serve_churn() {
    check("serve-churn-2e12");
}

#[test]
fn elect_event() {
    check("elect-event-2e13");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&[][..], &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
