//! `benchmark set --out PATH`
//!
//! Runs every workload of `BENCHMARK.json` once per seed in [`SEEDS`] with
//! tracing off, then once traced at the first seed, each for the spec's
//! `run_seconds` and each a child process of this executable started after
//! the previous one ended. The results file holds every run's result line
//! and outcome digest, a per-metric summary (median, quartiles, spread),
//! the traced run's per-layer metrics with the tracing overhead, and a host
//! block.

use std::ops::RangeInclusive;
use std::process::{Command, Stdio};

use mtm_analysis::json::{self, Value};

use crate::stats::{median, quartiles, spread, Better};

/// The benchmark's spec, at the repository root beside this package.
pub(crate) const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The seeds a set runs every workload at.
const SEEDS: RangeInclusive<u64> = 1..=10;

/// An end-to-end metric as `BENCHMARK.json` defines it.
pub(crate) struct MetricSpec {
    pub(crate) name: String,
    pub(crate) unit: String,
    pub(crate) better: Better,
    pub(crate) bound: f64,
}

/// The parts of `BENCHMARK.json` the set and compare commands use.
pub(crate) struct Spec {
    pub(crate) run_seconds: u64,
    pub(crate) workloads: Vec<String>,
    pub(crate) end_to_end: Vec<MetricSpec>,
}

pub(crate) fn load_spec(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |v: &Value, k: &str| -> Result<String, String> {
        v.get(k).and_then(Value::as_str).map(String::from).ok_or(format!("{path}: no {k:?}"))
    };
    let list = |k: &str| doc.get(k).and_then(Value::as_arr).ok_or(format!("{path}: no {k:?}"));
    let run_seconds = doc.get("run_seconds").and_then(Value::as_f64).ok_or("no run_seconds")?;
    let workloads =
        list("workloads")?.iter().map(|w| field(w, "name")).collect::<Result<_, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            let better = field(m, "better")?;
            Ok(MetricSpec {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: Better::parse(&better).ok_or(format!("{path}: better {better:?}"))?,
                bound: m.get("bound").and_then(Value::as_f64).ok_or(format!("{path}: bound"))?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec { run_seconds: run_seconds as u64, workloads, end_to_end })
}

pub(crate) fn main(args: &[String]) -> i32 {
    let out = match args {
        [flag, out] if flag == "--out" => out,
        _ => {
            eprintln!("usage: benchmark set --out PATH");
            return 2;
        }
    };
    match run(out) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// One child run's result object, with `seed` and `digest` added.
fn child(w: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("{w}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{w} seed {seed}: exited with {}\n{stdout}", out.status));
    }
    let last = stdout.lines().last().ok_or(format!("{w} seed {seed}: no output"))?;
    let mut result = json::parse(last).map_err(|e| format!("{w} seed {seed}: {e}"))?;
    let digest = stdout.lines().find_map(|l| l.strip_prefix("digest: ")).unwrap_or("none");
    result.set("seed", Value::Num(seed as f64));
    result.set("digest", Value::Str(digest.to_string()));
    Ok(result)
}

/// `metrics.<name>.value` of a result object.
pub(crate) fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Median, quartiles, range and spread of one metric over a set's runs.
pub(crate) fn summarize(values: &[f64]) -> Value {
    let num = |x: f64| Value::Num(x);
    let mut members = vec![("n".to_string(), num(values.len() as f64))];
    if !values.is_empty() {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        members.extend([
            ("median".to_string(), num(median(values))),
            ("min".to_string(), num(lo)),
            ("max".to_string(), num(hi)),
        ]);
    }
    if values.len() >= 2 {
        let [q1, _, q3] = quartiles(values);
        members.extend([
            ("q1".to_string(), num(q1)),
            ("q3".to_string(), num(q3)),
            ("spread".to_string(), num(spread(values))),
        ]);
    }
    Value::Obj(members)
}

fn run(out: &str) -> Result<(), String> {
    let spec = load_spec(SPEC)?;
    let seconds = spec.run_seconds;
    let mut workloads = Vec::new();
    for name in &spec.workloads {
        let mut runs = Vec::new();
        for seed in SEEDS {
            let r = child(name, seed, seconds, false)?;
            let show: Vec<String> = spec
                .end_to_end
                .iter()
                .map(|m| format!("{}={:.6}", m.name, metric(&r, &m.name).unwrap_or(f64::NAN)))
                .collect();
            println!("{name} seed {seed}: {}", show.join(" "));
            runs.push(r);
        }
        let traced = child(name, *SEEDS.start(), seconds, true)?;
        let mut summary = Vec::new();
        for m in &spec.end_to_end {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric(r, &m.name)).collect();
            let mut s = summarize(&values);
            s.set("unit", Value::Str(m.unit.clone()));
            summary.push((m.name.clone(), s));
        }
        let walls: Vec<f64> = runs.iter().filter_map(|r| metric(r, "wall_s")).collect();
        let overhead = match (metric(&traced, "trace.wall_s"), walls.is_empty()) {
            (Some(traced_wall), false) => Value::Num(traced_wall / median(&walls) - 1.0),
            _ => Value::Null,
        };
        if let Value::Num(x) = overhead {
            println!("{name}: trace_overhead {:+.2} %", 100.0 * x);
        }
        workloads.push(Value::Obj(vec![
            ("name".to_string(), Value::Str(name.clone())),
            ("runs".to_string(), Value::Arr(runs)),
            ("summary".to_string(), Value::Obj(summary)),
            ("traced".to_string(), traced),
            ("trace_overhead".to_string(), overhead),
        ]));
    }
    let doc = Value::Obj(vec![
        ("schema".to_string(), Value::Str("mtm-benchmark/set/v1".to_string())),
        ("host".to_string(), host()),
        ("seconds".to_string(), Value::Num(seconds as f64)),
        ("workloads".to_string(), Value::Arr(workloads)),
    ]);
    std::fs::write(out, doc.render()).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    crate::compare::print_summary(&doc, &spec);
    Ok(())
}

/// What the numbers depend on besides the code: cores, CPU and caches,
/// compiler, build profile, commit and engine semantics.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines().find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
    });
    let cache = |level: &str| -> Option<String> {
        (0..8).find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let is_level = read("level")?.trim() == level && read("type")?.trim() != "Instruction";
            is_level.then(|| read("size")).flatten().map(|s| s.trim().to_string())
        })
    };
    let tool = |prog: &str, args: &[&str]| -> Option<String> {
        let out = Command::new(prog).args(args).stderr(Stdio::null()).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let text = |v: Option<String>| Value::Str(v.unwrap_or_else(|| "unknown".to_string()));
    Value::Obj(vec![
        (
            "nproc".to_string(),
            Value::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        ("cpu".to_string(), text(cpu)),
        ("l2".to_string(), text(cache("2"))),
        ("l3".to_string(), text(cache("3"))),
        ("rustc".to_string(), text(tool("rustc", &["-V"]))),
        (
            "profile".to_string(),
            Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ),
        ("git".to_string(), text(tool("git", &["rev-parse", "HEAD"]))),
        (
            "engine_semantics".to_string(),
            Value::Str(mtm_engine::ENGINE_SEMANTICS_VERSION.to_string()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_spec_loads() {
        let spec = load_spec(SPEC).expect("BENCHMARK.json parses");
        let names: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names, "BENCHMARK.json lists the workloads in order");
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec.end_to_end.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
    }

    #[test]
    fn summary_carries_quartiles_and_spread() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.get("median").and_then(Value::as_f64), Some(2.5));
        assert_eq!(s.get("q1").and_then(Value::as_f64), Some(1.25));
        assert_eq!(s.get("spread").and_then(Value::as_f64), Some(1.0));
        assert!(summarize(&[5.0]).get("spread").is_none());
    }
}
