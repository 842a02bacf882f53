//! Engine throughput harness behind the `engine_throughput` binary.
//!
//! Measures steady-state `Engine::step` throughput (node-rounds/sec) per
//! topology × protocol workload and records the results as a labeled series
//! in `BENCH_engine.json` at the repo root. Engine construction (graph
//! clone, UID pool, protocol spawn) is excluded from the timed region — the
//! file tracks the round executor's hot path, which is what perf PRs
//! change. Labels let one file carry a trajectory: the convention is a
//! `before` and an `after` series per perf PR.

use mtm_core::{BitConvergence, BlindGossip, Ppush, TagConfig, UidPool};
use mtm_engine::protocol::Protocol;
use mtm_engine::{ActivationSchedule, Engine, ModelParams};
use mtm_experiments::perf::{RssSampler, Stopwatch};
use mtm_graph::dynamic::StaticTopology;
use mtm_graph::{gen, Graph};

use crate::json::{parse, Value};

/// Document format marker for `BENCH_engine.json`.
pub const SCHEMA: &str = "mtm-bench/engine-throughput/v1";

/// Bench names every series must contain (the quick set; full runs add
/// larger instances on top).
pub const EXPECTED_BENCHES: [&str; 6] = [
    "engine_rounds/blind_gossip/clique-256",
    "engine_rounds/blind_gossip/expander8-1024",
    "engine_rounds/blind_gossip/cycle-1024",
    "engine_rounds/blind_gossip/line-of-stars-16",
    "engine_rounds/ppush/expander8-1024",
    "engine_rounds/bit_convergence/expander8-1024",
];

/// One measured workload.
pub struct Entry {
    pub bench: String,
    pub nodes: usize,
    pub rounds: u64,
    pub reps: u32,
    /// Engine worker threads the workload ran with.
    pub threads: usize,
    /// Best (minimum) wall seconds for `rounds` rounds across reps.
    pub best_secs: f64,
    /// Peak RSS sampled while this workload ran (`VmRSS` max over the
    /// timed region, not the process-lifetime `VmHWM`).
    pub peak_rss_bytes: Option<u64>,
}

impl Entry {
    pub fn node_rounds_per_sec(&self) -> f64 {
        self.nodes as f64 * self.rounds as f64 / self.best_secs
    }

    pub fn ns_per_node_round(&self) -> f64 {
        self.best_secs * 1e9 / (self.nodes as f64 * self.rounds as f64)
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("bench".to_string(), Value::Str(self.bench.clone())),
            ("nodes".to_string(), Value::Num(self.nodes as f64)),
            ("rounds".to_string(), Value::Num(self.rounds as f64)),
            ("reps".to_string(), Value::Num(f64::from(self.reps))),
            ("threads".to_string(), Value::Num(self.threads as f64)),
            ("best_secs".to_string(), Value::Num(self.best_secs)),
            ("ns_per_node_round".to_string(), Value::Num(self.ns_per_node_round())),
            ("node_rounds_per_sec".to_string(), Value::Num(self.node_rounds_per_sec())),
            (
                "peak_rss_bytes".to_string(),
                self.peak_rss_bytes.map_or(Value::Null, |b| Value::Num(b as f64)),
            ),
        ])
    }
}

/// Time `run_rounds` on a freshly built engine, construction excluded from
/// the clock (the RSS sample covers everything — the engine's footprint is
/// what it is regardless of when it was built). Returns the best wall
/// seconds and the peak sampled RSS over the reps.
fn time_rounds<P: Protocol>(
    build: &dyn Fn() -> Engine<P, StaticTopology>,
    rounds: u64,
    reps: u32,
    threads: usize,
) -> (f64, Option<u64>) {
    let sampler = RssSampler::start(10);
    let best = best_after_warmup(reps, || {
        let mut engine = build();
        engine.set_threads(threads);
        let sw = Stopwatch::start();
        engine.run_rounds(rounds);
        let secs = sw.elapsed_secs();
        std::hint::black_box(engine.metrics().connections);
        secs
    });
    (best, sampler.stop().map(|r| r.peak))
}

/// Run `timed` once as an untimed warm-up, then `reps` times more, and
/// return the minimum of those `reps` results.
fn best_after_warmup(reps: u32, mut timed: impl FnMut() -> f64) -> f64 {
    assert!(reps >= 1, "need at least one timed rep after the warm-up");
    timed();
    (0..reps).map(|_| timed()).fold(f64::INFINITY, f64::min)
}

fn blind_gossip_entry(name: &str, graph: &Graph, rounds: u64, reps: u32, threads: usize) -> Entry {
    let n = graph.node_count();
    let uids = UidPool::random(n, 7);
    let (best, rss) = time_rounds(
        &|| {
            Engine::new(
                StaticTopology::new(graph.clone()),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(n),
                BlindGossip::spawn(&uids),
                3,
            )
        },
        rounds,
        reps,
        threads,
    );
    Entry {
        bench: format!("engine_rounds/blind_gossip/{name}"),
        nodes: n,
        rounds,
        reps,
        threads,
        best_secs: best,
        peak_rss_bytes: rss,
    }
}

fn ppush_entry(name: &str, graph: &Graph, rounds: u64, reps: u32, threads: usize) -> Entry {
    let n = graph.node_count();
    let (best, rss) = time_rounds(
        &|| {
            Engine::new(
                StaticTopology::new(graph.clone()),
                ModelParams::mobile(1),
                ActivationSchedule::synchronized(n),
                Ppush::spawn(n, 1),
                5,
            )
        },
        rounds,
        reps,
        threads,
    );
    Entry {
        bench: format!("engine_rounds/ppush/{name}"),
        nodes: n,
        rounds,
        reps,
        threads,
        best_secs: best,
        peak_rss_bytes: rss,
    }
}

fn bit_convergence_entry(
    name: &str,
    graph: &Graph,
    rounds: u64,
    reps: u32,
    threads: usize,
) -> Entry {
    let n = graph.node_count();
    let config = TagConfig::for_network(n, graph.max_degree());
    let uids = UidPool::random(n, 7);
    let (best, rss) = time_rounds(
        &|| {
            Engine::new(
                StaticTopology::new(graph.clone()),
                ModelParams::mobile(1),
                ActivationSchedule::synchronized(n),
                BitConvergence::spawn(&uids, config, 11),
                5,
            )
        },
        rounds,
        reps,
        threads,
    );
    Entry {
        bench: format!("engine_rounds/bit_convergence/{name}"),
        nodes: n,
        rounds,
        reps,
        threads,
        best_secs: best,
        peak_rss_bytes: rss,
    }
}

/// Run every workload at `threads` engine workers; `quick` trims
/// rounds/reps and skips the big instances (CI smoke mode).
pub fn run_workloads(quick: bool, threads: usize) -> Vec<Entry> {
    let (rounds, reps) = if quick { (50, 1) } else { (500, 4) };
    let mut entries = Vec::new();
    for (name, graph) in [
        ("clique-256", gen::clique(256)),
        ("expander8-1024", gen::random_regular(1024, 8, 1)),
        ("cycle-1024", gen::cycle(1024)),
        ("line-of-stars-16", gen::line_of_stars(16, 16)),
    ] {
        entries.push(blind_gossip_entry(name, &graph, rounds, reps, threads));
    }
    if !quick {
        let big = gen::random_regular(65536, 8, 1);
        entries.push(blind_gossip_entry("expander8-65536", &big, 100, 2, threads));
    }
    let expander = gen::random_regular(1024, 8, 2);
    entries.push(ppush_entry("expander8-1024", &expander, rounds, reps, threads));
    entries.push(bit_convergence_entry("expander8-1024", &expander, rounds, reps, threads));
    entries
}

/// Load `path` if it exists, else a fresh skeleton document.
pub fn load_or_new(path: &str) -> Result<Value, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
                return Err(format!("{path}: unexpected schema"));
            }
            Ok(doc)
        }
        Err(_) => Ok(Value::Obj(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("series".to_string(), Value::Obj(vec![])),
        ])),
    }
}

/// Install `entries` as series `label` in `doc` (replacing any prior run).
pub fn set_series(doc: &mut Value, label: &str, quick: bool, entries: &[Entry]) {
    let series = Value::Obj(vec![
        ("quick".to_string(), Value::Bool(quick)),
        ("entries".to_string(), Value::Arr(entries.iter().map(Entry::to_json).collect())),
    ]);
    doc.get_mut("series").expect("schema guarantees a series object").set(label, series);
}

/// Validate a document: schema marker, and every series in `require` (or
/// all present series when `require` is empty) contains each expected bench
/// with a positive throughput. Returns the list of series checked.
pub fn check(doc: &Value, require: &[String]) -> Result<Vec<String>, String> {
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err("schema marker missing or unexpected".to_string());
    }
    let series = doc.get("series").ok_or("no series object")?;
    let members = series.members().ok_or("series is not an object")?;
    let labels: Vec<String> = if require.is_empty() {
        members.iter().map(|(k, _)| k.clone()).collect()
    } else {
        require.to_vec()
    };
    if labels.is_empty() {
        return Err("no series present".to_string());
    }
    for label in &labels {
        let entries = series
            .get(label)
            .ok_or_else(|| format!("series '{label}' missing"))?
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("series '{label}' has no entries array"))?;
        for expected in EXPECTED_BENCHES {
            let entry = entries
                .iter()
                .find(|e| e.get("bench").and_then(Value::as_str) == Some(expected))
                .ok_or_else(|| format!("series '{label}' missing bench '{expected}'"))?;
            let rate = entry
                .get("node_rounds_per_sec")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("'{expected}' in '{label}' has no throughput"))?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(format!("'{expected}' in '{label}' has non-positive throughput"));
            }
        }
    }
    Ok(labels)
}

/// Speedup of `after` over `before` on one bench, if both series exist.
pub fn speedup(doc: &Value, bench: &str) -> Option<f64> {
    let rate = |label: &str| -> Option<f64> {
        doc.get("series")?
            .get(label)?
            .get("entries")?
            .as_arr()?
            .iter()
            .find(|e| e.get("bench").and_then(Value::as_str) == Some(bench))?
            .get("node_rounds_per_sec")?
            .as_f64()
    };
    Some(rate("after")? / rate("before")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_entries() -> Vec<Entry> {
        EXPECTED_BENCHES
            .iter()
            .map(|b| Entry {
                bench: b.to_string(),
                nodes: 100,
                rounds: 10,
                reps: 1,
                threads: 1,
                best_secs: 0.5,
                peak_rss_bytes: Some(1 << 20),
            })
            .collect()
    }

    #[test]
    fn series_roundtrip_and_check() {
        let mut doc = load_or_new("/nonexistent/BENCH_engine.json").expect("skeleton");
        set_series(&mut doc, "before", true, &fake_entries());
        set_series(&mut doc, "after", true, &fake_entries());
        let text = doc.render();
        let back = parse(&text).expect("roundtrip");
        let labels = check(&back, &[]).expect("valid doc");
        assert_eq!(labels, vec!["before".to_string(), "after".to_string()]);
        assert_eq!(speedup(&back, EXPECTED_BENCHES[1]), Some(1.0));
    }

    #[test]
    fn check_flags_missing_bench() {
        let mut doc = load_or_new("/nonexistent/x.json").expect("skeleton");
        let mut entries = fake_entries();
        entries.pop();
        set_series(&mut doc, "before", true, &entries);
        assert!(check(&doc, &[]).is_err());
        assert!(check(&doc, &["absent".to_string()]).is_err());
    }

    #[test]
    fn warm_up_is_excluded_from_the_best() {
        // The warm-up is the fastest sample, yet the best is the fastest
        // of the timed reps after it.
        let mut script = [0.5, 3.0, 2.0, 4.0].into_iter();
        let best = best_after_warmup(3, || script.next().expect("one sample per call"));
        assert_eq!(best, 2.0);
        assert_eq!(script.next(), None, "warm-up plus reps samples");
    }

    #[test]
    fn entry_rates() {
        let e = &fake_entries()[0];
        assert!((e.node_rounds_per_sec() - 2000.0).abs() < 1e-9);
        assert!((e.ns_per_node_round() - 500_000.0).abs() < 1e-6);
    }
}
