//! **T6 — tag length ablation (§IX)**: the paper's concluding discussion
//! highlights the jumps `b = 0 → 1` (large speedup) and
//! `b = 1 → log log n + O(1)` (asynchronous activations at a polylog cost).
//!
//! Sweep: one topology family (line-of-stars, where the `b = 0` penalty is
//! maximal), all three leader election algorithms on identical static
//! topologies with synchronized starts — isolating the tag budget as the
//! only variable. Columns report mean stabilization rounds per algorithm
//! and the pairwise ratios.

use mtm_analysis::table::{fmt_f64, Table};

use crate::harness::{
    bit_convergence_rounds, blind_gossip_rounds, nonsync_rounds, summarize, SchedSpec, TopoSpec,
};
use crate::opts::{ExpOpts, Scale};

/// Run the experiment, returning the result table.
pub fn run(opts: &ExpOpts) -> Table {
    let (stars, trials, max_rounds): (&[usize], usize, u64) = match opts.scale {
        Scale::Quick => (&[3, 4], opts.trials_or(2), 50_000_000),
        Scale::Full => (&[4, 6, 8, 11], opts.trials_or(8), 500_000_000),
    };
    let mut table = Table::new(vec![
        "n",
        "Δ",
        "b=0 blind (mean)",
        "b=1 bitconv (mean)",
        "b=loglog nonsync (mean)",
        "blind/bitconv",
        "nonsync/bitconv",
        "blind timeouts",
        "bitconv timeouts",
        "nonsync timeouts",
    ]);
    for &s in stars {
        let n = s + s * s;
        let spec = TopoSpec::Static { family: mtm_graph::GraphFamily::LineOfStars, n };
        let g = mtm_graph::gen::line_of_stars(s, s);
        let blind =
            summarize(&blind_gossip_rounds(&spec, trials, opts.seed, opts.threads, max_rounds));
        let bc = summarize(&bit_convergence_rounds(
            &spec,
            trials,
            opts.seed ^ 1,
            opts.threads,
            max_rounds,
        ));
        let ns = summarize(&nonsync_rounds(
            &spec,
            SchedSpec::Synchronized,
            trials,
            opts.seed ^ 2,
            opts.threads,
            max_rounds,
        ));
        let cell = |x: &crate::harness::TrialSummary| {
            x.summary.as_ref().map_or("-".to_string(), |s| fmt_f64(s.mean))
        };
        let ratio = |a: &crate::harness::TrialSummary, b: &crate::harness::TrialSummary| match (
            &a.summary, &b.summary,
        ) {
            (Some(x), Some(y)) => fmt_f64(x.mean / y.mean),
            _ => "-".to_string(),
        };
        table.push_row(vec![
            g.node_count().to_string(),
            g.max_degree().to_string(),
            cell(&blind),
            cell(&bc),
            cell(&ns),
            ratio(&blind, &bc),
            ratio(&ns, &bc),
            blind.timeouts.to_string(),
            bc.timeouts.to_string(),
            ns.timeouts.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let mut opts = ExpOpts::quick();
        opts.trials = 1;
        let t = run(&opts);
        assert_eq!(t.len(), 2);
        assert_eq!(t.header().len(), 10);
        for row in t.rows() {
            assert_eq!(row[7..], ["0", "0", "0"], "no trial times out at quick scale: {row:?}");
        }
    }
}
