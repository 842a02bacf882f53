//! **A3 — ablation: PUSH-PULL vs PUSH-only vs PULL-only** (`b = 0` rumor
//! spreading directions).
//!
//! Classical theory studies the two directions of PUSH-PULL separately;
//! in the mobile telephone model the single-accept constraint changes the
//! trade-offs (a popular node can absorb only one incoming proposal per
//! round, weakening PUSH toward hubs and PULL from hubs in different
//! ways). This ablation quantifies each direction's contribution on a
//! hub-free expander and the hub-heavy star.

use mtm_analysis::table::{fmt_f64, Table};
use mtm_core::{Rumor, Strategy};
use mtm_engine::runner::run_trials;
use mtm_engine::{ActivationSchedule, Engine, ModelParams};
use mtm_graph::rng::derive_seed;
use mtm_graph::{GraphFamily, StaticTopology};

use crate::harness::summarize;
use crate::opts::{ExpOpts, Scale};

fn run_strategy(
    family: GraphFamily,
    n: usize,
    strategy: Strategy,
    trials: usize,
    base_seed: u64,
    threads: usize,
    max_rounds: u64,
) -> Vec<Option<u64>> {
    run_trials(trials, base_seed, threads, move |_t, seed| {
        let g = family.build(n, derive_seed(seed, 0));
        let n_actual = g.node_count();
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(strategy.tag_bits()),
            ActivationSchedule::synchronized(n_actual),
            Rumor::spawn(strategy, n_actual, 1),
            derive_seed(seed, 11),
        );
        e.run_to_full_information(max_rounds).stabilized_round
    })
}

/// Run the experiment, returning the result table.
pub fn run(opts: &ExpOpts) -> Table {
    let (sizes, trials, max_rounds): (&[usize], usize, u64) = match opts.scale {
        Scale::Quick => (&[32], opts.trials_or(3), 5_000_000),
        Scale::Full => (&[128, 512], opts.trials_or(10), 100_000_000),
    };
    let mut table = Table::new(vec![
        "topology",
        "n",
        "push-pull (mean)",
        "push-only (mean)",
        "pull-only (mean)",
        "push/PP",
        "pull/PP",
    ]);
    for family in [GraphFamily::Expander8, GraphFamily::Star] {
        for &n in sizes {
            let run = |strategy, seed| {
                summarize(&run_strategy(
                    family,
                    n,
                    strategy,
                    trials,
                    seed,
                    opts.threads,
                    max_rounds,
                ))
            };
            let pp = run(Strategy::PushPull, opts.seed);
            let push = run(Strategy::PushOnly, opts.seed ^ 1);
            let pull = run(Strategy::PullOnly, opts.seed ^ 2);
            let cell = |x: &crate::harness::TrialSummary| {
                x.summary.as_ref().map_or("-".to_string(), |s| fmt_f64(s.mean))
            };
            let ratio = |a: &crate::harness::TrialSummary| match (&a.summary, &pp.summary) {
                (Some(x), Some(y)) => fmt_f64(x.mean / y.mean),
                _ => "-".to_string(),
            };
            table.push_row(vec![
                family.name().to_string(),
                n.to_string(),
                cell(&pp),
                cell(&push),
                cell(&pull),
                ratio(&push),
                ratio(&pull),
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
        assert_eq!(t.len(), 2);
        for row in t.rows() {
            assert_ne!(row[2], "-", "push-pull timed out on {}", row[0]);
        }
    }
}
