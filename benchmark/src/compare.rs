//! `benchmark compare A.json B.json`
//!
//! For every workload and end-to-end metric, prints both sets' medians and
//! quartiles and whether B's median is worse than A's by more than the
//! metric's bound. Exits 1 when any pair is outside its bound, when a
//! set's spread (interquartile distance over median, `setup_s` exempt)
//! exceeds the bound, when a set's `fail_ratio` (failed over attempted
//! instances, traced run included) is not 0, or when the two sets' outcome
//! digests differ for a seed both ran or for the traced run.

use mtm_analysis::json::{self, Value};

use crate::set::{load_spec, metric, Spec, SPEC};
use crate::stats::{median, quartiles, spread};

pub(crate) fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare A.json B.json");
        return 2;
    };
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let docs = load(a).and_then(|a| Ok((a, load(b)?, load_spec(SPEC)?)));
    let (a, b, spec) = match docs {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let problems = compare(&a, &b, &spec);
    for p in &problems {
        println!("FAIL {p}");
    }
    if problems.is_empty() {
        println!("all workloads within bounds; digests identical");
        0
    } else {
        1
    }
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[])
}

fn name(w: &Value) -> &str {
    w.get("name").and_then(Value::as_str).unwrap_or("?")
}

fn runs(w: &Value) -> &[Value] {
    w.get("runs").and_then(Value::as_arr).unwrap_or(&[])
}

fn values(w: &Value, m: &str) -> Vec<f64> {
    runs(w).iter().filter_map(|r| metric(r, m)).collect()
}

/// Failed and attempted instances over a workload's runs and its traced
/// run. A run not marked correct counts at least one failure.
fn failures(w: &Value) -> (u64, u64) {
    let count = |r: &Value, k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    runs(w).iter().chain(w.get("traced")).fold((0, 0), |(failed, attempted), r| {
        let mut f = count(r, "failed");
        if r.get("correct") != Some(&Value::Bool(true)) {
            f = f.max(1);
        }
        (failed + f, attempted + count(r, "attempted"))
    })
}

/// `fail_ratio`: failed over attempted instances, 1 when none was attempted.
fn fail_ratio(w: &Value) -> f64 {
    match failures(w) {
        (_, 0) => 1.0,
        (failed, attempted) => failed as f64 / attempted as f64,
    }
}

fn quart(v: &[f64]) -> String {
    match v.len() {
        0 => "—".to_string(),
        1 => format!("{:.6}", v[0]),
        _ => {
            let [q1, q2, q3] = quartiles(v);
            format!("{q2:.6} [{q1:.6}, {q3:.6}]")
        }
    }
}

/// Print each workload's medians, quartiles and spread against the bounds.
pub(crate) fn print_summary(doc: &Value, spec: &Spec) {
    for w in workloads(doc) {
        for m in &spec.end_to_end {
            let v = values(w, &m.name);
            println!(
                "{:<24} {:<18} n={:<3} median [q1, q3] {} {}  spread {:.2} % (bound {:.0} %)",
                name(w),
                m.name,
                v.len(),
                quart(&v),
                m.unit,
                100.0 * spread(&v),
                100.0 * m.bound
            );
        }
        let (failed, attempted) = failures(w);
        println!(
            "{:<24} {:<18} {} ({failed} of {attempted} instances, bound 0)",
            name(w),
            "fail_ratio",
            fail_ratio(w)
        );
    }
}

/// Everything that makes B unacceptable against A; empty when B holds.
pub(crate) fn compare(a: &Value, b: &Value, spec: &Spec) -> Vec<String> {
    let mut problems = Vec::new();
    for wa in workloads(a) {
        let w = name(wa);
        let Some(wb) = workloads(b).iter().find(|x| name(x) == w) else {
            problems.push(format!("{w}: missing from B"));
            continue;
        };
        for (set, x) in [("A", wa), ("B", wb)] {
            let (failed, attempted) = failures(x);
            if fail_ratio(x) != 0.0 {
                problems.push(format!(
                    "{w}: {set}'s fail_ratio is {} ({failed} of {attempted} instances)",
                    fail_ratio(x)
                ));
            }
        }
        for m in &spec.end_to_end {
            let (va, vb) = (values(wa, &m.name), values(wb, &m.name));
            if va.is_empty() || vb.is_empty() {
                problems.push(format!("{w} {}: no values", m.name));
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = m.better.worsening(ma, mb);
            let ok = worse <= m.bound;
            println!(
                "{w:<24} {:<18} A {} B {} {}  change {:+.2} % (bound {:.0} %) {}",
                m.name,
                quart(&va),
                quart(&vb),
                m.unit,
                100.0 * (mb - ma) / ma.abs(),
                100.0 * m.bound,
                if ok { "ok" } else { "WORSE" }
            );
            if !ok {
                problems.push(format!(
                    "{w} {}: median {mb:.6} is {:.2} % worse than {ma:.6} (bound {:.0} %)",
                    m.name,
                    100.0 * worse,
                    100.0 * m.bound
                ));
            }
            // Set-up time is exempt from the spread rule; its drift is
            // still held to the bound above.
            if m.name != "setup_s" {
                for (set, v) in [("A", &va), ("B", &vb)] {
                    if spread(v) > m.bound {
                        problems.push(format!(
                            "{w} {}: {set}'s spread {:.2} % exceeds the bound {:.0} %",
                            m.name,
                            100.0 * spread(v),
                            100.0 * m.bound
                        ));
                    }
                }
            }
        }
        for ra in runs(wa) {
            let seed = ra.get("seed").and_then(Value::as_f64);
            let rb = runs(wb).iter().find(|r| r.get("seed").and_then(Value::as_f64) == seed);
            if let Some(rb) = rb {
                if ra.get("digest") != rb.get("digest") {
                    problems.push(format!("{w} seed {seed:?}: outcome digests differ"));
                }
            }
        }
        let traced_digest = |x: &Value| x.get("traced").and_then(|t| t.get("digest")).cloned();
        if traced_digest(wa) != traced_digest(wb) {
            problems.push(format!("{w}: traced outcome digests differ"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::MetricSpec;
    use crate::stats::Better;

    fn spec(bound: f64) -> Spec {
        Spec {
            run_seconds: 1,
            workloads: vec!["w".to_string()],
            end_to_end: vec![MetricSpec {
                name: "wall_s".to_string(),
                unit: "s".to_string(),
                better: Better::Lower,
                bound,
            }],
        }
    }

    /// A passing run of five instances.
    fn run(seed: u64, wall: f64, digest: &str) -> Value {
        let m = Value::Obj(vec![("value".to_string(), Value::Num(wall))]);
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(true)),
            ("attempted".to_string(), Value::Num(5.0)),
            ("failed".to_string(), Value::Num(0.0)),
            ("metrics".to_string(), Value::Obj(vec![("wall_s".to_string(), m)])),
            ("seed".to_string(), Value::Num(seed as f64)),
            ("digest".to_string(), Value::Str(digest.to_string())),
        ])
    }

    /// A one-workload set with one run per `(seed, wall_s, digest)`.
    fn set_of(runs: &[(u64, f64, &str)], traced: Value) -> Value {
        let runs = runs.iter().map(|&(seed, wall, digest)| run(seed, wall, digest)).collect();
        let w = Value::Obj(vec![
            ("name".to_string(), Value::Str("w".to_string())),
            ("runs".to_string(), Value::Arr(runs)),
            ("traced".to_string(), traced),
        ]);
        Value::Obj(vec![("workloads".to_string(), Value::Arr(vec![w]))])
    }

    /// [`set_of`] with a traced run that repeats the first run.
    fn doc(runs: &[(u64, f64, &str)]) -> Value {
        set_of(runs, run(runs[0].0, runs[0].1, runs[0].2))
    }

    #[test]
    fn any_failed_instance_fails_the_set() {
        let runs = [(1, 10.0, "x"), (2, 10.0, "y")];
        let a = doc(&runs);
        assert_eq!(failures(&workloads(&a)[0]), (0, 15));
        // One failed instance in the traced run is enough.
        let mut traced = run(1, 10.0, "x");
        traced.set("failed", Value::Num(1.0));
        let problems = compare(&a, &set_of(&runs, traced), &spec(0.1));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("fail_ratio"), "{problems:?}");
        // A run not marked correct counts as failed even with `failed` 0.
        let mut wrong = run(1, 10.0, "x");
        wrong.set("correct", Value::Bool(false));
        assert_eq!(fail_ratio(&workloads(&set_of(&runs, wrong))[0]), 1.0 / 15.0);
    }

    #[test]
    fn traced_digests_must_match() {
        let runs = [(1, 10.0, "x"), (2, 10.0, "y")];
        let problems = compare(&doc(&runs), &set_of(&runs, run(1, 10.0, "q")), &spec(0.1));
        assert_eq!(problems, vec!["w: traced outcome digests differ".to_string()]);
    }

    #[test]
    fn within_bound_passes_and_outside_fails() {
        let a = doc(&[(1, 10.0, "x"), (2, 10.1, "y"), (3, 9.9, "z")]);
        let b = doc(&[(1, 10.5, "x"), (2, 10.6, "y"), (3, 10.4, "z")]);
        assert!(compare(&a, &b, &spec(0.10)).is_empty());
        let problems = compare(&a, &b, &spec(0.04));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("worse"));
        // Faster is never a regression.
        assert!(compare(&b, &a, &spec(0.04)).is_empty());
    }

    #[test]
    fn digests_must_match_per_seed() {
        let a = doc(&[(1, 10.0, "x"), (2, 10.0, "y")]);
        let b = doc(&[(1, 10.0, "x"), (2, 10.0, "q")]);
        let problems = compare(&a, &b, &spec(0.1));
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("digests differ"));
    }

    #[test]
    fn noisy_sets_and_missing_workloads_fail() {
        let noisy = doc(&[(1, 5.0, "x"), (2, 10.0, "y"), (3, 15.0, "z"), (4, 20.0, "w")]);
        assert!(compare(&noisy, &noisy, &spec(0.1)).iter().any(|p| p.contains("spread")));
        let empty = Value::Obj(vec![("workloads".to_string(), Value::Arr(vec![]))]);
        assert_eq!(compare(&noisy, &empty, &spec(0.1)), vec!["w: missing from B".to_string()]);
    }
}
