//! **T3 — Theorem VII.2, polylog regime**: for `τ ≥ log Δ` and `α = O(1)`
//! (a reasonably stable, well-connected network) bit convergence stabilizes
//! in rounds polylogarithmic in `n`.
//!
//! Sweep: static (`τ = ∞`) cliques and random 8-regular expanders with `n`
//! doubling. The instrument is the log–log slope of rounds vs `n`: a
//! polynomial-time algorithm shows slope ≥ its exponent, a polylog one
//! shows slope → 0 as `n` grows (we accept < 0.5 as "polylog-like" and also
//! report the `log^k` exponent from the `ln y` vs `ln ln x` fit).

use mtm_analysis::fit::{log_log_fit, log_polylog_fit};
use mtm_analysis::table::{fmt_f64, Table};
use mtm_graph::GraphFamily;

use crate::harness::{bit_convergence_rounds, summarize, TopoSpec};
use crate::opts::{ExpOpts, Scale};

/// Run the experiment, returning the result table.
pub fn run(opts: &ExpOpts) -> Table {
    let (clique_sizes, expander_sizes, trials, max_rounds): (&[usize], &[usize], usize, u64) =
        match opts.scale {
            Scale::Quick => (&[16, 32], &[16, 32, 64], opts.trials_or(3), 10_000_000),
            Scale::Full => {
                (&[64, 128, 256], &[128, 256, 512, 1024, 2048], opts.trials_or(10), 100_000_000)
            }
        };
    let mut table = Table::new(vec!["topology", "n", "Δ", "trials", "mean", "median", "timeouts"]);
    for (family, sizes) in
        [(GraphFamily::Clique, clique_sizes), (GraphFamily::Expander8, expander_sizes)]
    {
        let mut points = Vec::new();
        for &n in sizes {
            let spec = TopoSpec::Static { family, n };
            let sample = spec.sample_graph(opts.seed);
            let results =
                bit_convergence_rounds(&spec, trials, opts.seed, opts.threads, max_rounds);
            let ts = summarize(&results);
            if let Some(s) = &ts.summary {
                points.push((sample.node_count() as f64, s.mean));
            }
            table.push_row(vec![
                family.name().to_string(),
                sample.node_count().to_string(),
                sample.max_degree().to_string(),
                trials.to_string(),
                ts.summary.as_ref().map_or("-".into(), |s| fmt_f64(s.mean)),
                ts.summary.as_ref().map_or("-".into(), |s| fmt_f64(s.median)),
                ts.timeouts.to_string(),
            ]);
        }
        if points.len() >= 2 {
            let ll = log_log_fit(&points);
            let poly = if points.iter().all(|p| p.0 > std::f64::consts::E) {
                format!("log-exp={}", fmt_f64(log_polylog_fit(&points).slope))
            } else {
                "-".into()
            };
            table.push_row(vec![
                format!("{} fit", family.name()),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("slope={}", fmt_f64(ll.slope)),
                poly,
                "expect slope≪1".into(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let mut opts = ExpOpts::quick();
        opts.trials = 2;
        let t = run(&opts);
        // 2 clique sizes + fit + 3 expander sizes + fit.
        assert_eq!(t.len(), 7);
    }
}
