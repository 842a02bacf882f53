//! One benchmark run:
//! `benchmark --workload W --seed S --seconds T --trace 0|1 [--quick] [--trace-out PATH]`.
//!
//! A run is a closed loop of instances, each waiting for the previous one:
//! instance 0 uses seed `S` itself (so it is exactly the workload's `mtm`
//! command at that seed), instance `i > 0` the seed derived from `(S, i)`.
//! Instances start until `T` seconds have passed. Instance 0 is a warm-up:
//! it is checked like every other, but its timings are left out of the
//! medians whenever a later instance exists.
//!
//! A host speed probe runs after every instance, and every reported timing
//! is scaled to the reference host by the probes around its instance (see
//! [`crate::probe`]). Instance lines print the raw timings and the probe.
//!
//! Every metric is printed with its unit and sample count, and the last
//! line of standard output is the JSON result:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! with the end-to-end metrics for `--trace 0` and the per-layer metrics
//! for `--trace 1`.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mtm_graph::rng::derive_seed;

use crate::probe::{scale, Probe, Prober, REFERENCE};
use crate::stats::{median, tail, timed};
use crate::trace::{self_times, Tracer};
use crate::workload::{Instance, Workload, WORKLOADS};

/// Instances per run at most, whatever `--seconds` says.
const MAX_INSTANCES: u32 = 10_000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut quick, mut trace_out) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::find(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (expected one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                });
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--quick" => quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=3600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        quick,
        trace_out,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How the value was taken: statistic and sample count.
    how: String,
}

/// Median of `samples` as a metric, noting the count and range.
fn median_metric(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let how = format!("median of {}, min {lo:.6}, max {hi:.6}", samples.len());
    Metric { name, value: median(samples), unit, how }
}

pub(crate) fn main(args: &[String]) -> i32 {
    let a = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark --workload W --seed S --seconds T --trace 0|1 \
                 [--quick] [--trace-out PATH]"
            );
            return 2;
        }
    };
    match run(&a) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn instance_seed(seed: u64, i: u32) -> u64 {
    if i == 0 {
        seed
    } else {
        derive_seed(seed, u64::from(i))
    }
}

fn run(a: &Args) -> Result<(), String> {
    let w = a.workload;
    let n = w.n(a.quick);
    println!(
        "workload {} n={n} seed={} seconds={} trace={} quick={}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.quick
    );
    println!("equivalent: {}", w.command(n, a.seed));
    println!(
        "host: nproc={} profile={} engine_semantics={}",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        mtm_engine::ENGINE_SEMANTICS_VERSION
    );

    let mut t = Tracer::new(a.trace);
    let l = run_loop(&mut t, a.seed, a.seconds * 1_000_000_000, |i, seed, t| {
        let pinned = (i == 0 && a.seed == 1).then(|| w.pinned(a.quick));
        w.run(n, seed, pinned, t)
    })?;
    let metrics = report(w, a.seed, a.trace, &l, &mut t);
    if let Some(path) = &a.trace_out {
        std::fs::write(path, t.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        println!("trace: {} spans written to {path}", t.spans().len());
    }
    println!("{}", result_line(l.failed == 0, l.attempted, l.failed, &metrics)?);
    Ok(())
}

/// What the closed loop of instances left.
struct Loop {
    /// The instances that returned, in order; a panicked one is not here.
    instances: Vec<Instance>,
    attempted: u32,
    failed: u32,
    /// Process `VmHWM` right after instance 0, if it returned.
    peak_rss: Option<u64>,
    /// Host speed probes: `probes[i]` ran just after instance `i`.
    probes: Vec<Probe>,
}

impl Loop {
    /// `ns` measured during instance `i`, in reference-host seconds.
    /// Instance 0 ran before the first probe, so only the probe after it
    /// scales it.
    fn ref_secs(&self, i: u32, ns: u64) -> f64 {
        let i = i as usize;
        secs(ns) * scale(self.probes[i.saturating_sub(1)], self.probes[i])
    }
}

/// Run instances one after another through `one(i, seed, tracer)` until
/// `budget_ns` has passed, with a host speed probe after each. A panicking
/// instance counts as failed and ends the loop.
fn run_loop(
    t: &mut Tracer,
    seed: u64,
    budget_ns: u64,
    mut one: impl FnMut(u32, u64, &mut Tracer) -> Instance,
) -> Result<Loop, String> {
    let start = t.now_ns();
    let mut l =
        Loop { instances: Vec::new(), attempted: 0, failed: 0, peak_rss: None, probes: Vec::new() };
    let mut prober = None;
    for i in 0..MAX_INSTANCES {
        let seed = instance_seed(seed, i);
        t.begin_run(i);
        l.attempted += 1;
        let Ok(inst) = catch_unwind(AssertUnwindSafe(|| one(i, seed, &mut *t))) else {
            t.abandon();
            l.failed += 1;
            println!("instance {i} seed={seed}: FAILED (panicked)");
            break;
        };
        if i == 0 {
            // A fresh process's peak after one instance: what one `mtm`
            // run of the instance holds. Later instances reuse freed heap,
            // so the lifetime peak would depend on allocator history. The
            // prober's buffer comes after, so it is not counted.
            let rss = peak_rss_bytes().ok_or("VmHWM in /proc/self/status is unavailable")?;
            l.peak_rss = Some(rss);
        }
        let probe = prober.get_or_insert_with(Prober::new).probe(t);
        l.probes.push(probe);
        let o = &inst.outcome;
        let s = &o.service;
        if s.re_elections > 0 || s.stable_rounds > 0 {
            println!(
                "instance {i} service: re_elections={} leaderless={} dual_leader={} stable={} \
                 final_epoch={}",
                s.re_elections,
                s.leaderless_rounds,
                s.dual_leader_rounds,
                s.stable_rounds,
                o.final_epoch
            );
        }
        let verdict = match &inst.verdict {
            Ok(()) => "ok".to_string(),
            Err(e) => {
                l.failed += 1;
                format!("FAILED ({e})")
            }
        };
        println!(
            "instance {i} seed={seed}: rounds={} leader={:#x} proposals={} connections={} \
             inflight={} digest={:#018x} wall={:.4}s setup={:.4}s sim={:.4}s \
             probe={:.2}/{:.2}ms {verdict}",
            o.rounds,
            o.winner.unwrap_or(0),
            o.metrics.proposals,
            o.metrics.connections,
            o.inflight(),
            o.digest(),
            secs(t.total_ns(i, "run")),
            secs(t.total_ns(i, "setup")),
            secs(t.total_ns(i, "sim")),
            probe.spin_ns * 1e-6,
            probe.chase_ns * 1e-6,
        );
        l.instances.push(inst);
        if t.now_ns() - start >= budget_ns {
            break;
        }
    }
    if let Some(first) = l.instances.first() {
        println!("digest: {:#018x}", first.outcome.digest());
    }
    Ok(l)
}

/// Print the loop's metrics, the end-to-end ones or, traced, the per-layer
/// ones, and return them. Traced, the service workload also replays its
/// fault stack on its own, after the instances.
fn report(w: &Workload, seed: u64, trace: bool, l: &Loop, t: &mut Tracer) -> Vec<Metric> {
    let metrics = match (l.peak_rss, l.instances.first()) {
        (Some(rss), Some(first)) => {
            if trace {
                let rounds = (first.node_rounds / first.n as f64).ceil().max(1.0) as u64;
                // Its own run id keeps the replay out of the instances' spans.
                t.begin_run(l.attempted);
                if let Some(s) = w.replay_faults(first.n, seed, rounds, t) {
                    println!(
                        "fault stack replay: {rounds} rounds of graph_at, {:.3} us per round",
                        s * 1e6 / rounds as f64
                    );
                }
                per_layer(l, t)
            } else {
                end_to_end(l, t, rss)
            }
        }
        _ => Vec::new(),
    };
    if !l.probes.is_empty() {
        let spin: Vec<f64> = l.probes.iter().map(|p| p.spin_ns * 1e-6).collect();
        let chase: Vec<f64> = l.probes.iter().map(|p| p.chase_ns * 1e-6).collect();
        println!(
            "host speed probe: median {:.3}/{:.3} ms (spin/chase) of {}, reference \
             {:.3}/{:.3} ms; timings below are scaled to the reference",
            median(&spin),
            median(&chase),
            spin.len(),
            REFERENCE.spin_ns * 1e-6,
            REFERENCE.chase_ns * 1e-6
        );
    }
    for m in &metrics {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.how);
    }
    metrics
}

/// Timed instances' ids (instance 0 is the warm-up).
fn timed_ids(instances: &[Instance]) -> Vec<u32> {
    let ids: Vec<u32> = (0..instances.len()).map(|i| i as u32).collect();
    timed(&ids).to_vec()
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// `f` of every instance in `ids`.
fn over(ids: &[u32], f: impl Fn(u32) -> f64) -> Vec<f64> {
    ids.iter().map(|&i| f(i)).collect()
}

fn end_to_end(l: &Loop, t: &Tracer, peak_rss: u64) -> Vec<Metric> {
    let ids = timed_ids(&l.instances);
    let wall = over(&ids, |i| l.ref_secs(i, t.total_ns(i, "run")));
    let setup = over(&ids, |i| l.ref_secs(i, t.total_ns(i, "setup")));
    let rate =
        over(&ids, |i| l.instances[i as usize].node_rounds / l.ref_secs(i, t.total_ns(i, "sim")));
    vec![
        median_metric("wall_s", "s", &wall),
        median_metric("setup_s", "s", &setup),
        median_metric("node_rounds_per_s", "1/s", &rate),
        Metric {
            name: "peak_rss_mb",
            value: peak_rss as f64 / 1e6,
            unit: "MB",
            how: "process VmHWM after instance 0".to_string(),
        },
    ]
}

/// Names of the spans that advance the simulation, per backend.
const ADVANCE_SPANS: [&str; 3] = ["engine.step", "engine.service_chunk", "engine.event_window"];

fn per_layer(l: &Loop, t: &Tracer) -> Vec<Metric> {
    let ids = timed_ids(&l.instances);
    let ref_ms = |i: u32, ns: u64| l.ref_secs(i, ns) * 1e3;
    let ms = |name: &str| over(&ids, |i| ref_ms(i, t.total_ns(i, name)));

    let spans = t.spans();
    let selfs = self_times(spans);
    let advance: Vec<f64> = spans
        .iter()
        .filter(|s| ids.contains(&s.run) && ADVANCE_SPANS.contains(&s.name))
        .map(|s| ref_ms(s.run, s.duration_ns()))
        .collect();
    let accounted = over(&ids, |i| {
        let covered: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.run == i)
            .filter(|(s, _)| s.parent.is_some_and(|p| matches!(spans[p].name, "setup" | "sim")))
            .map(|(_, &st)| st)
            .sum();
        covered as f64 / t.total_ns(i, "run") as f64
    });
    print_shares(t, &ids, &selfs);

    let tl = tail(&advance);
    let tail_how = match tl.percentile {
        Some(p) => format!("p{p} of {} pooled advance spans, {} beyond", advance.len(), tl.beyond),
        None => format!("max of {} pooled advance spans (too few for a percentile)", advance.len()),
    };
    let inst = |i: u32| &l.instances[i as usize];
    vec![
        median_metric("graph.build_ms", "ms", &ms("graph.build")),
        median_metric("graph.connected_ms", "ms", &ms("graph.connected")),
        median_metric("core.spawn_ms", "ms", &ms("core.spawn")),
        median_metric("engine.new_ms", "ms", &ms("engine.new")),
        median_metric(
            "engine.advance_ns_per_node_round",
            "ns",
            &over(&ids, |i| {
                let sim = t.total_ns(i, "sim").saturating_sub(inst(i).check_ns);
                l.ref_secs(i, sim) * 1e9 / inst(i).node_rounds
            }),
        ),
        Metric {
            name: "engine.advance_ms.p50",
            value: median(&advance),
            unit: "ms",
            how: format!("median of {} pooled advance spans", advance.len()),
        },
        Metric { name: "engine.advance_ms.tail", value: tl.value, unit: "ms", how: tail_how },
        median_metric("engine.check_ms", "ms", &over(&ids, |i| ref_ms(i, inst(i).check_ns))),
        median_metric("trace.accounted_share", "ratio", &accounted),
        median_metric("trace.wall_s", "s", &over(&ids, |i| l.ref_secs(i, t.total_ns(i, "run")))),
    ]
}

/// Print each layer's self time, summed over the timed instances, as a
/// share of their traced wall time.
fn print_shares(t: &Tracer, ids: &[u32], selfs: &[u64]) {
    let mut names: Vec<&str> = Vec::new();
    let mut totals: Vec<u64> = Vec::new();
    for (s, &st) in t.spans().iter().zip(selfs) {
        if !ids.contains(&s.run) {
            continue;
        }
        match names.iter().position(|&n| n == s.name) {
            Some(k) => totals[k] += st,
            None => {
                names.push(s.name);
                totals.push(st);
            }
        }
    }
    let wall: u64 = ids.iter().map(|&i| t.total_ns(i, "run")).sum();
    for (name, total) in names.iter().zip(totals) {
        println!(
            "self {name:<22} {:>12.3} ms {:>6.2} %",
            total as f64 * 1e-6,
            100.0 * total as f64 / wall as f64
        );
    }
}

/// The result object, on one line.
fn result_line(
    correct: bool,
    attempted: u32,
    failed: u32,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    Ok(s)
}

/// Lifetime peak resident set of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_flags() {
        let a = parse(&args("--workload elect-event-2e13 --seed 7 --seconds 20 --trace 1"))
            .expect("valid flags");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("elect-event-2e13", 7, 20, true)
        );
        assert!(!a.quick && a.trace_out.is_none());
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload elect-event-2e13 --seed 1 --seconds 0 --trace 0",
            "--workload elect-event-2e13 --seed 1 --seconds 1 --trace 2",
            "--workload elect-event-2e13 --seconds 1 --trace 0",
            "--workload elect-event-2e13 --seed 1 --seconds 1 --trace 0 --bogus",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn instance_zero_runs_the_seed_itself() {
        assert_eq!(instance_seed(42, 0), 42);
        assert_ne!(instance_seed(42, 1), instance_seed(43, 1));
        assert_ne!(instance_seed(42, 1), instance_seed(42, 2));
    }

    #[test]
    fn a_panicking_traced_instance_counts_as_failed() {
        let w = Workload::find("serve-churn-2e12").expect("known workload");
        for panicking in [0, 1] {
            let mut t = Tracer::new(true);
            let l = run_loop(&mut t, 1, u64::MAX, |i, seed, t| {
                if i == panicking {
                    // Panic with spans open, as a failing engine call would.
                    t.open("run");
                    t.open("setup");
                    panic!("injected failure");
                }
                w.run(w.n(true), seed, None, t)
            })
            .expect("the loop survives the panic");
            let returned = panicking as usize;
            assert_eq!((l.attempted, l.failed, l.instances.len()), (panicking + 1, 1, returned));
            assert_eq!(l.probes.len(), returned, "one probe after each instance that returned");
            // The traced report, fault stack replay included, still runs.
            let metrics = report(w, 1, true, &l, &mut t);
            let line = result_line(l.failed == 0, l.attempted, l.failed, &metrics).expect("finite");
            let v = mtm_analysis::json::parse(&line).expect("valid JSON");
            assert_eq!(v.get("failed").and_then(|x| x.as_f64()), Some(1.0));
            assert_eq!(v.get("correct"), Some(&mtm_analysis::json::Value::Bool(false)));
            assert_eq!(t.spans().iter().any(|s| s.name == "graph.replay"), returned > 0);
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let m = [
            Metric { name: "wall_s", value: 1.25, unit: "s", how: String::new() },
            Metric { name: "peak_rss_mb", value: 3e-7, unit: "MB", how: String::new() },
        ];
        let line = result_line(true, 3, 0, &m).expect("finite metrics");
        assert!(!line.contains('\n'));
        let v = mtm_analysis::json::parse(&line).expect("valid JSON");
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).expect("wall_s present");
        assert_eq!(wall.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(3.0));
        let nan = [Metric { name: "x", value: f64::NAN, unit: "s", how: String::new() }];
        assert!(result_line(true, 1, 0, &nan).is_err());
    }
}
