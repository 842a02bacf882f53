//! Statistical cross-validation: the claims experiments make about "A
//! reliably beats B" hold with proper significance tests, not just on
//! means of a few trials.

use mobile_telephone::analysis::compare::{bootstrap_mean_ci, mann_whitney_u};
use mobile_telephone::analysis::stats::Summary;
use mobile_telephone::prelude::*;

fn blind_gossip_sample(g: &Graph, trials: u64, base_seed: u64) -> Vec<f64> {
    (0..trials)
        .map(|t| {
            let n = g.node_count();
            let uids = UidPool::random(n, base_seed ^ t);
            let mut e = Engine::new(
                StaticTopology::new(g.clone()),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(n),
                BlindGossip::spawn(&uids),
                base_seed.wrapping_add(t * 7919),
            );
            e.run_to_stabilization(50_000_000).stabilized_round.expect("must stabilize") as f64
        })
        .collect()
}

fn rumor_sample(g: &Graph, strategy: Strategy, trials: u64, base_seed: u64) -> Vec<f64> {
    (0..trials)
        .map(|t| {
            let n = g.node_count();
            let seed = base_seed.wrapping_add(t * 104729);
            let mut e = Engine::new(
                StaticTopology::new(g.clone()),
                ModelParams::mobile(strategy.tag_bits()),
                ActivationSchedule::synchronized(n),
                Rumor::spawn(strategy, n, 1),
                seed,
            );
            e.run_to_full_information(50_000_000).stabilized_round.expect("must inform all") as f64
        })
        .collect()
}

#[test]
fn ppush_beats_push_pull_significantly_on_hub_graph() {
    let g = gen::line_of_stars(5, 10);
    let pp = rumor_sample(&g, Strategy::PushPull, 12, 1);
    let pr = rumor_sample(&g, Strategy::Ppush, 12, 2);
    let (_, p) = mann_whitney_u(&pp, &pr);
    let mean_pp = Summary::of(&pp).mean;
    let mean_pr = Summary::of(&pr).mean;
    assert!(mean_pr < mean_pp, "PPUSH mean {mean_pr} should beat PUSH-PULL {mean_pp}");
    assert!(p < 0.01, "difference should be significant: p = {p}");
}

#[test]
fn blind_gossip_clique_vs_line_of_stars_significant() {
    // Theorem VI.1's α and Δ dependence: the line of stars must be
    // significantly slower than a clique of comparable size.
    let clique = gen::clique(30);
    let stars = gen::line_of_stars(5, 5);
    let fast = blind_gossip_sample(&clique, 10, 3);
    let slow = blind_gossip_sample(&stars, 10, 4);
    let (_, p) = mann_whitney_u(&fast, &slow);
    assert!(Summary::of(&slow).mean > 2.0 * Summary::of(&fast).mean);
    assert!(p < 0.01, "p = {p}");
}

#[test]
fn bootstrap_ci_reproducible_and_tight_for_clique() {
    let g = gen::clique(24);
    let sample = blind_gossip_sample(&g, 20, 5);
    let ci1 = bootstrap_mean_ci(&sample, 300, 0.05, 9);
    let ci2 = bootstrap_mean_ci(&sample, 300, 0.05, 9);
    assert_eq!(ci1, ci2, "bootstrap must be deterministic");
    let mean = Summary::of(&sample).mean;
    assert!(ci1.0 <= mean && mean <= ci1.1);
    // Clique stabilization is tightly concentrated: CI within ±50% of mean.
    assert!(ci1.1 - ci1.0 < mean, "CI implausibly wide: {ci1:?} around {mean}");
}

#[test]
fn identical_configurations_are_statistically_indistinguishable() {
    // Two samples from the same configuration with different seeds should
    // NOT be significantly different (sanity check on the test itself).
    let g = gen::clique(20);
    let a = blind_gossip_sample(&g, 15, 100);
    let b = blind_gossip_sample(&g, 15, 200);
    let (_, p) = mann_whitney_u(&a, &b);
    assert!(p > 0.01, "same distribution flagged as different: p = {p}");
}
