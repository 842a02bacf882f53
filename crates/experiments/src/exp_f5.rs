//! **F5 — Theorem V.2**: fix a bipartite cut with bipartitions `L`
//! (informed) and `R` (uninformed), `|R| ≥ |L| = m`, containing a matching
//! of size `m`, and run PPUSH for `r ≤ log Δ` rounds. With constant
//! probability at least `m/f(r)` nodes of `R` learn the rumor, where
//! `f(r) = Δ^(1/r)·c·r·log n`.
//!
//! Workload: random `d`-regular bipartite graphs built as the union of `d`
//! random perfect matchings (`Δ = d`, matching of size `m` guaranteed by
//! construction). For each `r ∈ {1..log Δ}` we report the mean and the 10th
//! percentile of newly informed nodes across trials against the `m/f(r)`
//! target with `c = 1` — the reproduced shape: more stable rounds, more of
//! the matching realized, with the guarantee scaling as `1/f(r)`.

use mtm_analysis::stats::Summary;
use mtm_analysis::table::{fmt_f64, Table};
use mtm_core::{Rumor, Strategy};
use mtm_engine::runner::run_trials;
use mtm_engine::{ActivationSchedule, Engine, ModelParams};
use mtm_graph::rng::derive_seed;
use mtm_graph::static_graph::GraphBuilder;
use mtm_graph::{Graph, StaticTopology};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::harness::f_of_r;
use crate::opts::{ExpOpts, Scale};

/// Random `d`-regular bipartite graph on `L = 0..m`, `R = m..2m`: the union
/// of `d` perfect matchings, realized as `d` distinct cyclic shifts of two
/// independent random permutations — matching `j` connects `π(i)` to
/// `σ((i + c_j) mod m)`. Distinct shifts make the matchings edge-disjoint
/// by construction (no rejection), each is a perfect matching, and the two
/// outer permutations randomize which cyclic structure any node sees.
fn regular_bipartite(m: usize, d: usize, seed: u64) -> Graph {
    assert!(d >= 1 && d <= m);
    // per-trial stream from the harness-derived seed.
    #[allow(clippy::disallowed_methods)]
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut left_perm: Vec<u32> = (0..m as u32).collect();
    let mut right_perm: Vec<u32> = (0..m as u32).collect();
    left_perm.shuffle(&mut rng);
    right_perm.shuffle(&mut rng);
    let mut shifts: Vec<usize> = (0..m).collect();
    shifts.shuffle(&mut rng);
    shifts.truncate(d);
    let mut b = GraphBuilder::with_capacity(2 * m, m * d);
    for &c in &shifts {
        for i in 0..m {
            b.add_edge(left_perm[i], m as u32 + right_perm[(i + c) % m]);
        }
    }
    b.build()
}

/// One trial: newly informed nodes in `R` after `r` rounds of PPUSH.
fn ppush_trial(m: usize, d: usize, r: u64, seed: u64) -> u64 {
    let g = regular_bipartite(m, d, derive_seed(seed, 0));
    let n = g.node_count();
    let mut e = Engine::new(
        StaticTopology::new(g),
        ModelParams::mobile(1),
        ActivationSchedule::synchronized(n),
        Rumor::spawn(Strategy::Ppush, n, m), // nodes 0..m (all of L) start informed
        derive_seed(seed, 1),
    );
    e.run_rounds(r);
    (e.informed_count() - m) as u64
}

/// Run the experiment, returning the result table.
pub fn run(opts: &ExpOpts) -> Table {
    let (m, d, trials): (usize, usize, usize) = match opts.scale {
        Scale::Quick => (32, 8, opts.trials_or(10)),
        Scale::Full => (256, 16, opts.trials_or(50)),
    };
    let n = 2 * m;
    let log_delta = (d as f64).log2().ceil() as u64;
    let mut table = Table::new(vec![
        "m",
        "Δ",
        "r",
        "new informed (mean)",
        "p10",
        "m/f(r)",
        "mean/(m/f(r))",
        "guarantee met",
    ]);
    for r in 1..=log_delta {
        let results: Vec<u64> =
            run_trials(trials, opts.seed, opts.threads, move |_t, seed| ppush_trial(m, d, r, seed));
        let as_f: Vec<f64> = results.iter().map(|&x| x as f64).collect();
        let s = Summary::of(&as_f);
        let mut sorted = as_f.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("matching ratios are finite, never NaN"));
        let p10 = mtm_analysis::stats::percentile_sorted(&sorted, 0.10);
        let target = m as f64 / f_of_r(d, r, n);
        // "With constant probability at least m/f(r)": check the 10th
        // percentile clears the target.
        let met = p10 >= target;
        table.push_row(vec![
            m.to_string(),
            d.to_string(),
            r.to_string(),
            fmt_f64(s.mean),
            fmt_f64(p10),
            fmt_f64(target),
            fmt_f64(s.mean / target),
            if met { "yes".into() } else { "NO".to_string() },
        ]);
    }
    table
}

/// `(p10 informed, m/f(r) target)` per `r` (integration-test hook).
pub fn guarantee_margin(opts: &ExpOpts, m: usize, d: usize) -> Vec<(f64, f64)> {
    let trials = opts.trials_or(20);
    let n = 2 * m;
    let log_delta = (d as f64).log2().ceil() as u64;
    (1..=log_delta)
        .map(|r| {
            let results: Vec<u64> = run_trials(trials, opts.seed, opts.threads, move |_t, seed| {
                ppush_trial(m, d, r, seed)
            });
            let mut as_f: Vec<f64> = results.iter().map(|&x| x as f64).collect();
            as_f.sort_by(|a, b| a.partial_cmp(b).expect("matching ratios are finite, never NaN"));
            let p10 = mtm_analysis::stats::percentile_sorted(&as_f, 0.10);
            (p10, m as f64 / f_of_r(d, r, n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipartite_construction_is_regular_with_perfect_matching() {
        let g = regular_bipartite(16, 4, 3);
        assert_eq!(g.node_count(), 32);
        for u in 0..32u32 {
            assert_eq!(g.degree(u), 4, "node {u}");
        }
        // Perfect matching exists by construction; verify via Hopcroft-Karp.
        let in_s: Vec<bool> = (0..32).map(|u| u < 16).collect();
        assert_eq!(mtm_graph::matching::cut_matching(&g, &in_s), 16);
    }

    #[test]
    fn quick_run_meets_guarantee() {
        let mut opts = ExpOpts::quick();
        opts.trials = 10;
        let t = run(&opts);
        assert_eq!(t.len(), 3); // r ∈ {1, 2, 3} for Δ = 8
        for row in t.rows() {
            assert_eq!(row[7], "yes", "Theorem V.2 guarantee missed: {row:?}");
        }
    }
}
