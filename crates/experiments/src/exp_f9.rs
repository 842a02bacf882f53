//! **F9 — hundred-million-node scaling**: blind gossip (`b = 0`) and
//! synchronized bit convergence (`b = 1`) on random 8-regular expanders
//! with `n` swept five orders of magnitude past T1/T3 (up to
//! `n = 2^27 = 134,217,728` for blind gossip).
//!
//! The paper's asymptotic claims (Thm VI.1's `Δ²log²n`, Thm VII.2's polylog
//! regime) are only weakly constrained by `n ≤ 2048`; this sweep extends
//! the log–log slope evidence to national-population scales. Cells past the
//! direct-CSR threshold build their expanders with the cycle-union
//! generator and run single-trial with the engine's sharded executor at
//! `--threads` workers (below it, trials fan out and the engine stays
//! sequential — same results either way, the executor is deterministic).
//! Each row also records engineering telemetry: wall-clock seconds,
//! aggregate node-rounds/sec, and `peak_rss_mb`, the cell's memory growth:
//! the largest `VmRSS` sampled over the cell minus the `VmRSS` when the
//! cell started (not the process-lifetime `VmHWM`). Heap that an earlier
//! cell freed but the allocator kept resident is thus not charged to the
//! next cell; memory the cell reuses from that heap is not counted either,
//! so a cell after a larger one can read low. Round counts stay
//! deterministic in (seed, config); the telemetry columns are
//! machine-dependent by nature.

use mtm_analysis::fit::log_log_fit;
use mtm_analysis::table::{fmt_f64, Table};
use mtm_graph::family::DIRECT_CSR_THRESHOLD;
use mtm_graph::GraphFamily;

use crate::harness::{
    bit_convergence_rounds_threaded, blind_gossip_rounds_threaded, summarize, TopoSpec,
};
use crate::opts::{ExpOpts, Scale};
use crate::perf::{RssSampler, Stopwatch};

/// One algorithm's size sweep: `(size, default trials)` pairs.
struct Sweep {
    algorithm: &'static str,
    cells: &'static [(usize, usize)],
}

const FULL_SWEEPS: [Sweep; 2] = [
    Sweep {
        algorithm: "blind-gossip",
        cells: &[
            (4096, 3),
            (16384, 3),
            (65536, 2),
            (262144, 1),
            (1_048_576, 1),
            (4_194_304, 1),
            (16_777_216, 1),
            (134_217_728, 1),
        ],
    },
    Sweep {
        algorithm: "bit-convergence",
        cells: &[(4096, 3), (16384, 3), (65536, 2), (262144, 1)],
    },
];

const QUICK_SWEEPS: [Sweep; 2] = [
    Sweep { algorithm: "blind-gossip", cells: &[(256, 2), (1024, 2)] },
    Sweep { algorithm: "bit-convergence", cells: &[(256, 2)] },
];

/// Run the experiment, returning the result table.
pub fn run(opts: &ExpOpts) -> Table {
    let (sweeps, max_rounds): (&[Sweep], u64) = match opts.scale {
        Scale::Quick => (&QUICK_SWEEPS, 500_000),
        Scale::Full => (&FULL_SWEEPS, 1_000_000),
    };
    let mut table = Table::new(vec![
        "algorithm",
        "n",
        "Δ",
        "trials",
        "mean",
        "median",
        "timeouts",
        "wall_s",
        "Mnode-rounds/s",
        "peak_rss_mb",
    ]);
    for sweep in sweeps {
        let mut points = Vec::new();
        for &(n, default_trials) in sweep.cells {
            let trials = opts.trials_or(default_trials);
            let spec = TopoSpec::Static { family: GraphFamily::Expander8, n };
            // Past the direct-CSR threshold a second instance would not fit
            // in memory alongside the running one: route `--threads` into
            // the engine's sharded executor instead of trial fan-out, and
            // take the cell's shape from the family's construction (the
            // cycle-union builder yields exactly n nodes, all of degree 8)
            // rather than rebuilding a sample graph.
            let giant = n > DIRECT_CSR_THRESHOLD;
            let (trial_threads, engine_threads) =
                if giant { (1, opts.threads) } else { (opts.threads, 1) };
            let sampler = RssSampler::start(50);
            let sw = Stopwatch::start();
            let results = match sweep.algorithm {
                "blind-gossip" => blind_gossip_rounds_threaded(
                    &spec,
                    trials,
                    opts.seed,
                    trial_threads,
                    engine_threads,
                    max_rounds,
                ),
                _ => bit_convergence_rounds_threaded(
                    &spec,
                    trials,
                    opts.seed,
                    trial_threads,
                    engine_threads,
                    max_rounds,
                ),
            };
            let wall = sw.elapsed_secs();
            let cell_rss = sampler.stop();
            let (n_actual, max_degree) = if giant {
                (n, 8)
            } else {
                let sample = spec.sample_graph(opts.seed);
                (sample.node_count(), sample.max_degree())
            };
            // Executed rounds per trial = stabilization round (the engine
            // stops there) or the full budget on timeout.
            let executed: u64 = results.iter().map(|r| r.unwrap_or(max_rounds)).sum();
            let node_rounds = executed as f64 * n_actual as f64;
            let ts = summarize(&results);
            if let Some(s) = &ts.summary {
                points.push((n_actual as f64, s.mean));
            }
            table.push_row(vec![
                sweep.algorithm.to_string(),
                n_actual.to_string(),
                max_degree.to_string(),
                trials.to_string(),
                ts.summary.as_ref().map_or("-".into(), |s| fmt_f64(s.mean)),
                ts.summary.as_ref().map_or("-".into(), |s| fmt_f64(s.median)),
                ts.timeouts.to_string(),
                fmt_f64(wall),
                fmt_f64(node_rounds / wall / 1e6),
                cell_rss.map_or("-".into(), |r| fmt_f64(r.growth() as f64 / (1024.0 * 1024.0))),
            ]);
        }
        if points.len() >= 2 {
            let ll = log_log_fit(&points);
            table.push_row(vec![
                format!("{} fit", sweep.algorithm),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("slope={}", fmt_f64(ll.slope)),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
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
        opts.trials = 1;
        let t = run(&opts);
        // 2 blind-gossip cells + fit + 1 bit-convergence cell (no fit:
        // a single point has no slope).
        assert_eq!(t.len(), 4);
        assert_eq!(t.header().len(), 10);
    }

    #[test]
    fn full_sweeps_reach_2_to_the_27_nodes() {
        let max = FULL_SWEEPS
            .iter()
            .flat_map(|s| s.cells.iter())
            .map(|&(n, _)| n)
            .max()
            .expect("non-empty sweeps");
        assert_eq!(max, 134_217_728);
    }

    #[test]
    fn giant_cells_are_single_trial() {
        // Past the direct-CSR threshold the cell routes `--threads` into
        // the engine; trial fan-out would multiply peak memory.
        for sweep in &FULL_SWEEPS {
            for &(n, trials) in sweep.cells {
                if n > DIRECT_CSR_THRESHOLD {
                    assert_eq!(trials, 1, "giant cell n={n} must default to one trial");
                }
            }
        }
    }
}
