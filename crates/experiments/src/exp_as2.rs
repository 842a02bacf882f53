//! **AS2 — asynchronous PUSH-PULL: full-information time vs
//! latency-distribution spread** (the rumor-spreading side of AS1).
//!
//! Same harness as [`crate::exp_as1`], different workload: PUSH-PULL rumor
//! spreading (Theorem VI.5's protocol) runs under the event backend while
//! the lockstep engine provides the synchronized-round comparator on the
//! same graph with the same per-node randomness. The spread knob of
//! [`LatencyModel::multipeer`] again sweeps from an almost-synchronous
//! network to heavily drifted clocks.
//!
//! PUSH-PULL is the interesting stress case for asynchrony: its analysis
//! leans on *everyone* attempting a connection each round (informed nodes
//! push, uninformed pull), so drifted clocks could plausibly starve the
//! informed/uninformed frontier. The ratio column checks they do not: full
//! information lands within a constant factor of the lockstep bound at
//! every spread, matching the asynchronous-gossip follow-up's claim.

use mtm_analysis::table::{fmt_f64, Table};
use mtm_core::{Rumor, Strategy};
use mtm_engine::runner::run_trials;
use mtm_engine::{ActivationSchedule, Engine, EventEngine, LatencyModel, ModelParams};
use mtm_graph::dynamic::StaticTopology;
use mtm_graph::rng::derive_seed;
use mtm_graph::GraphFamily;

use crate::harness::summarize;
use crate::opts::{ExpOpts, Scale};

/// One event-backend trial: ticks until every node is informed.
fn event_trial(
    family: GraphFamily,
    n: usize,
    spread: u64,
    seed: u64,
    max_time: u64,
) -> Option<u64> {
    let g = family.build(n, derive_seed(seed, 0));
    let n_actual = g.node_count();
    let mut e = EventEngine::new(
        g,
        ModelParams::mobile(0),
        Rumor::spawn(Strategy::PushPull, n_actual, 1),
        derive_seed(seed, 11),
        LatencyModel::multipeer(spread),
    );
    e.run_to_full_information(max_time).completed_at
}

/// The lockstep comparator: same graph and trial seed, synchronized rounds.
fn lockstep_trial(family: GraphFamily, n: usize, seed: u64, max_rounds: u64) -> Option<u64> {
    let g = family.build(n, derive_seed(seed, 0));
    let n_actual = g.node_count();
    let mut e = Engine::new(
        StaticTopology::new(g),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n_actual),
        Rumor::spawn(Strategy::PushPull, n_actual, 1),
        derive_seed(seed, 11),
    );
    e.run_to_full_information(max_rounds).stabilized_round
}

/// Run the experiment, returning the result table.
pub fn run(opts: &ExpOpts) -> Table {
    let (ns, spreads, trials, max_time): (&[usize], &[u64], usize, u64) = match opts.scale {
        Scale::Quick => (&[32], &[0, 8], opts.trials_or(2), 5_000_000),
        Scale::Full => (&[64, 256], &[0, 4, 16, 64], opts.trials_or(8), 100_000_000),
    };
    let family = GraphFamily::Expander8;
    let mut table = Table::new(vec![
        "n",
        "spread",
        "trials",
        "mean ticks",
        "median",
        "lockstep rounds",
        "bound ticks",
        "ratio",
        "timeouts",
    ]);
    for &n in ns {
        let lockstep: Vec<Option<u64>> =
            run_trials(trials, opts.seed, opts.threads, move |_t, seed| {
                lockstep_trial(family, n, seed, max_time)
            });
        let lockstep_mean = summarize(&lockstep).summary.map(|s| s.mean);
        for &spread in spreads {
            let results: Vec<Option<u64>> =
                run_trials(trials, opts.seed, opts.threads, move |_t, seed| {
                    event_trial(family, n, spread, seed, max_time)
                });
            let ts = summarize(&results);
            let mean = ts.summary.as_ref().map(|s| s.mean);
            let bound =
                lockstep_mean.map(|m| m * LatencyModel::multipeer(spread).nominal_round_ticks());
            let ratio = match (mean, bound) {
                (Some(m), Some(b)) if b > 0.0 => fmt_f64(m / b),
                _ => "-".into(),
            };
            table.push_row(vec![
                n.to_string(),
                spread.to_string(),
                trials.to_string(),
                mean.map_or("-".into(), fmt_f64),
                ts.summary.as_ref().map_or("-".into(), |s| fmt_f64(s.median)),
                lockstep_mean.map_or("-".into(), fmt_f64),
                bound.map_or("-".into(), fmt_f64),
                ratio,
                ts.timeouts.to_string(),
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
        opts.trials = 1;
        let t = run(&opts);
        assert_eq!(t.len(), 2); // 1 size × 2 spreads
        for row in t.rows() {
            assert_eq!(row[8], "0", "no cell should time out at quick scale: {row:?}");
            assert_ne!(row[7], "-", "the bound ratio must be computable: {row:?}");
        }
    }
}
