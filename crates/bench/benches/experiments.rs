//! One benchmark per reproduced table/figure.
//!
//! Each target regenerates its experiment at quick scale with one trial —
//! the same code path as the full-scale harness binary, parameterized down
//! so `cargo bench` finishes in minutes. Full-scale results for
//! EXPERIMENTS.md come from `cargo run --release -p mtm-experiments --bin
//! <id>_exp`. Timing uses the in-tree [`mtm_bench::harness`].

use mtm_bench::bench_opts;
use mtm_bench::harness::Bench;

macro_rules! experiment_bench {
    ($bench:expr, $opts:expr, $bench_name:literal, $module:ident) => {
        $bench.run($bench_name, || {
            let table = mtm_experiments::$module::run($opts);
            assert!(!table.is_empty());
            table
        });
    };
}

fn main() {
    let opts = bench_opts();
    let mut bench = Bench::from_args();
    experiment_bench!(bench, &opts, "bench_t1_blind_gossip", exp_t1);
    experiment_bench!(bench, &opts, "bench_f1_lower_bound", exp_f1);
    experiment_bench!(bench, &opts, "bench_t2_push_pull", exp_t2);
    experiment_bench!(bench, &opts, "bench_f2_tau_sweep", exp_f2);
    experiment_bench!(bench, &opts, "bench_t3_polylog", exp_t3);
    experiment_bench!(bench, &opts, "bench_f3_b0_vs_b1", exp_f3);
    experiment_bench!(bench, &opts, "bench_t4_nonsync", exp_t4);
    experiment_bench!(bench, &opts, "bench_f4_self_stab", exp_f4);
    experiment_bench!(bench, &opts, "bench_t5_matching_lemma", exp_t5);
    experiment_bench!(bench, &opts, "bench_f5_ppush_matching", exp_f5);
    experiment_bench!(bench, &opts, "bench_t6_tag_ablation", exp_t6);
    experiment_bench!(bench, &opts, "bench_f6_model_gap", exp_f6);
    experiment_bench!(bench, &opts, "bench_f7_trajectories", exp_f7);
    // Ablation benches (design choices called out in DESIGN.md §3).
    experiment_bench!(bench, &opts, "bench_a1_beta_ablation", exp_a1);
    experiment_bench!(bench, &opts, "bench_a2_group_len_ablation", exp_a2);
    experiment_bench!(bench, &opts, "bench_a3_push_pull_ablation", exp_a3);
    bench.finish();
}
