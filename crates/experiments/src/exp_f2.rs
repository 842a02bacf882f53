//! **F2 — Theorem VII.2, τ dependence**: bit convergence stabilizes in
//! `O((1/α)·Δ^(1/τ̂)·τ̂·log⁵n)` rounds; as `τ` grows from 1 to `log Δ` its
//! advantage over blind gossip grows from a factor of `Δ` to `Δ²`
//! (ignoring logs).
//!
//! Sweep: a fixed line-of-stars graph under the leaf-shuffle adversary at
//! `τ ∈ {1, 2, 4, …}` plus the static graph (`τ = ∞`). For each `τ` we run
//! both algorithms and report the speedup ratio; the claim reproduced is
//! that the ratio **grows monotonically in `τ`** (crossover structure), not
//! the absolute constants.

use mtm_analysis::table::{fmt_f64, Table};

use crate::harness::{
    bit_convergence_bound, bit_convergence_rounds, blind_gossip_rounds, summarize, TopoSpec,
};
use crate::opts::{ExpOpts, Scale};

/// Run the experiment, returning the result table.
pub fn run(opts: &ExpOpts) -> Table {
    // Spine s stars of s points each.
    let (s, taus, trials, max_rounds): (usize, &[Option<u64>], usize, u64) = match opts.scale {
        Scale::Quick => (4, &[Some(1), Some(2), None], opts.trials_or(3), 10_000_000),
        Scale::Full => {
            (12, &[Some(1), Some(2), Some(4), Some(8), None], opts.trials_or(10), 200_000_000)
        }
    };
    let g = mtm_graph::gen::line_of_stars(s, s);
    let n = g.node_count();
    let delta = g.max_degree();
    let alpha = mtm_graph::GraphFamily::LineOfStars
        .known_alpha(n)
        .expect("the line of stars has an analytic alpha at every size");

    let mut table = Table::new(vec![
        "τ",
        "n",
        "Δ",
        "blind(mean)",
        "bitconv(mean)",
        "speedup",
        "bc-bound",
        "bc-mean/bound",
    ]);
    for &tau in taus {
        let spec = match tau {
            Some(t) => TopoSpec::StarShuffle { spine: s, points: s, tau: t },
            None => TopoSpec::Static { family: mtm_graph::GraphFamily::LineOfStars, n },
        };
        let blind =
            summarize(&blind_gossip_rounds(&spec, trials, opts.seed, opts.threads, max_rounds));
        let bc = summarize(&bit_convergence_rounds(
            &spec,
            trials,
            opts.seed ^ 1,
            opts.threads,
            max_rounds,
        ));
        let bound = bit_convergence_bound(n, delta, alpha, tau);
        let (blind_mean, bc_mean, speedup, ratio) = match (&blind.summary, &bc.summary) {
            (Some(b), Some(c)) => (
                fmt_f64(b.mean),
                fmt_f64(c.mean),
                fmt_f64(b.mean / c.mean),
                fmt_f64(c.mean / bound),
            ),
            (b, c) => (
                b.as_ref().map_or("-".into(), |x| fmt_f64(x.mean)),
                c.as_ref().map_or("-".into(), |x| fmt_f64(x.mean)),
                "-".into(),
                "-".into(),
            ),
        };
        table.push_row(vec![
            tau.map_or("∞".into(), |t| t.to_string()),
            n.to_string(),
            delta.to_string(),
            blind_mean,
            bc_mean,
            speedup,
            fmt_f64(bound),
            ratio,
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
        opts.trials = 2;
        let t = run(&opts);
        assert_eq!(t.len(), 3); // τ ∈ {1, 2, ∞}
        assert_eq!(t.header()[5], "speedup");
    }
}
