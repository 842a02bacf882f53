//! Shared helpers for the benchmark targets.
//!
//! One benchmark per reproduced table/figure (see DESIGN.md §3) lives in
//! `benches/experiments.rs`; engine microbenchmarks live in
//! `benches/engine_micro.rs`. Benchmarks run every experiment at quick
//! scale with a single trial — they measure the *cost* of regenerating each
//! result; the full-scale numbers themselves are produced by the
//! `mtm-experiments` harness binaries.
//!
//! [`harness`] provides the timing loop: a small wall-clock harness with
//! named targets and an optional substring filter from the command line.

use mtm_experiments::ExpOpts;

pub mod harness;
pub use mtm_analysis::json;
pub mod throughput;

/// Quick-scale single-trial options used by every experiment benchmark.
pub fn bench_opts() -> ExpOpts {
    let mut opts = ExpOpts::quick();
    opts.trials = 1;
    opts.threads = 1; // measure single-threaded cost, not scheduler noise
    opts.seed = 0xBEBC;
    opts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_opts_are_quick_single_trial() {
        let o = bench_opts();
        assert_eq!(o.trials, 1);
        assert_eq!(o.threads, 1);
    }
}
