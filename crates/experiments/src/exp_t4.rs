//! **T4 — Theorem VIII.2**: the non-synchronized bit convergence algorithm
//! solves leader election within polylogarithmic factors of the
//! synchronized algorithm (`log³n` in the analysis), measured in rounds
//! *after the last activation*, at the cost of `b = log log n + O(1)` tag
//! bits.
//!
//! Sweep: random 8-regular expanders, three configurations per size —
//! synchronized bit convergence (the §VII baseline), non-synchronized with
//! synchronized starts (isolates the cost of random bit positions), and
//! non-synchronized with activations staggered over a window (the setting
//! the algorithm exists for). The reproduced claim: nonsync/sync slowdown
//! stays polylog-sized (we report it), and staggering does not break
//! convergence.

use mtm_analysis::table::{fmt_f64, Table};
use mtm_graph::GraphFamily;

use crate::harness::{bit_convergence_rounds, nonsync_rounds, summarize, SchedSpec, TopoSpec};
use crate::opts::{ExpOpts, Scale};

/// Run the experiment, returning the result table.
pub fn run(opts: &ExpOpts) -> Table {
    let (sizes, trials, max_rounds): (&[usize], usize, u64) = match opts.scale {
        Scale::Quick => (&[16, 32], opts.trials_or(2), 50_000_000),
        Scale::Full => (&[32, 64, 128], opts.trials_or(8), 500_000_000),
    };
    let mut table = Table::new(vec![
        "n",
        "Δ",
        "sync bc (mean)",
        "nonsync sync-start (mean)",
        "nonsync staggered (mean)",
        "slowdown",
        "log₂³n",
        "sync timeouts",
        "sync-start timeouts",
        "staggered timeouts",
    ]);
    for &n in sizes {
        let spec = TopoSpec::Static { family: GraphFamily::Expander8, n };
        let sample = spec.sample_graph(opts.seed);
        let n_actual = sample.node_count();
        let window = (4 * n_actual as u64).max(16);

        let sync =
            summarize(&bit_convergence_rounds(&spec, trials, opts.seed, opts.threads, max_rounds));
        let ns_sync = summarize(&nonsync_rounds(
            &spec,
            SchedSpec::Synchronized,
            trials,
            opts.seed ^ 1,
            opts.threads,
            max_rounds,
        ));
        let ns_stag = summarize(&nonsync_rounds(
            &spec,
            SchedSpec::Staggered { window },
            trials,
            opts.seed ^ 2,
            opts.threads,
            max_rounds,
        ));
        let log_n = (n_actual as f64).log2();
        let slowdown = match (&sync.summary, &ns_stag.summary) {
            (Some(s), Some(x)) => fmt_f64(x.mean / s.mean),
            _ => "-".into(),
        };
        table.push_row(vec![
            n_actual.to_string(),
            sample.max_degree().to_string(),
            sync.summary.as_ref().map_or("-".into(), |s| fmt_f64(s.mean)),
            ns_sync.summary.as_ref().map_or("-".into(), |s| fmt_f64(s.mean)),
            ns_stag.summary.as_ref().map_or("-".into(), |s| fmt_f64(s.mean)),
            slowdown,
            fmt_f64(log_n.powi(3)),
            sync.timeouts.to_string(),
            ns_sync.timeouts.to_string(),
            ns_stag.timeouts.to_string(),
        ]);
    }
    table
}

/// `(sync mean, nonsync-staggered mean)` for one size (integration-test
/// hook).
pub fn sync_vs_nonsync(opts: &ExpOpts, n: usize) -> (f64, f64) {
    let trials = opts.trials_or(3);
    let spec = TopoSpec::Static { family: GraphFamily::Expander8, n };
    let sync =
        summarize(&bit_convergence_rounds(&spec, trials, opts.seed, opts.threads, 500_000_000));
    let ns = summarize(&nonsync_rounds(
        &spec,
        SchedSpec::Staggered { window: 4 * n as u64 },
        trials,
        opts.seed ^ 2,
        opts.threads,
        500_000_000,
    ));
    (
        sync.summary.expect("sync must stabilize").mean,
        ns.summary.expect("nonsync must stabilize").mean,
    )
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
            assert_ne!(row[2], "-", "sync timed out: {row:?}");
            assert_ne!(row[4], "-", "staggered nonsync timed out: {row:?}");
            assert_eq!(row[7..], ["0", "0", "0"], "no trial times out at quick scale: {row:?}");
        }
    }
}
