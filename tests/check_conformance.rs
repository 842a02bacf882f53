//! Checker ↔ engine conformance: every state the model checker reaches
//! through a chain of restored engine rounds, one continuous engine run
//! reaches too, bit for bit.
//!
//! `mtm-check` computes each transition with the production engine, but
//! restored to the parent state at the parent's round offset modulo the
//! spec's period, with crashed nodes down from round 1. These tests sample
//! reachable states across random small topologies, specs, and adversary
//! powers (proposal loss, crashes), replay each state's minimal witness
//! schedule from round 0 through [`mtm_engine::Engine::step_scripted`],
//! with each crash window opening at its own round, and require identical
//! durable state words and network fingerprints. A protocol that keys on
//! more of the round counter than its period, or a crash observed before
//! its round, fails here before it can corrupt a certification run.

use mtm_check::{
    analyze, explore, BitConvergenceSpec, BlindGossipSpec, CheckConfig, CheckSpec,
    MaintainedGossipSpec, RumorSpec,
};
use mtm_core::TagConfig;
use mtm_graph::{gen, Graph};
use mtm_testkit::{run_cases, Rng, SmallRng};

fn arb_graph(rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(2..=5usize);
    match rng.gen_range(0..4u32) {
        0 => gen::clique(n),
        1 => gen::path(n),
        2 => gen::cycle(n.max(3)),
        _ => gen::star(n.max(2)),
    }
}

/// Replay every `stride`-th reachable state plus the deepest one.
fn assert_conformant<S: CheckSpec>(spec: &S, graph: &Graph, cfg: &CheckConfig, stride: usize) {
    let ex = explore(spec, graph, cfg);
    assert!(ex.state_count() > 0);
    let deepest =
        (0..ex.state_count() as u32).max_by_key(|&s| ex.depth_of(s)).expect("nonempty exploration");
    let sampled = (0..ex.state_count() as u32).step_by(stride.max(1)).chain([deepest]);
    for s in sampled {
        let outcome = mtm_check::replay_state(spec, graph, &ex, s).unwrap_or_else(|e| {
            panic!("{} on {:?}: {e}", spec.name(), graph);
        });
        assert_eq!(outcome.rounds, u64::from(ex.depth_of(s)), "schedule length mismatch");
    }
}

#[test]
fn blind_gossip_schedules_replay_exactly() {
    run_cases(0xC0F0_0001, 10, |_case, rng| {
        let g = arb_graph(rng);
        let uids: Vec<u64> = (0..g.node_count()).map(|_| rng.gen_range(1..100)).collect();
        let spec = BlindGossipSpec { uids };
        let cfg = CheckConfig { horizon: 6, max_states: 30_000, ..CheckConfig::default() };
        assert_conformant(&spec, &g, &cfg, 7);
    });
}

#[test]
fn push_pull_schedules_replay_exactly_with_loss() {
    run_cases(0xC0F0_0002, 10, |_case, rng| {
        let g = arb_graph(rng);
        let n = g.node_count();
        let spec = RumorSpec::push_pull(n, rng.gen_range(1..=n));
        let cfg =
            CheckConfig { horizon: 6, max_states: 30_000, loss: true, ..CheckConfig::default() };
        assert_conformant(&spec, &g, &cfg, 5);
    });
}

#[test]
fn bit_convergence_schedules_replay_exactly() {
    run_cases(0xC0F0_0003, 6, |_case, rng| {
        let g = arb_graph(rng);
        let n = g.node_count();
        let config = TagConfig::new(n.max(2), 3.0, 2);
        let max_tag = (1u64 << config.k) - 1;
        let spec = BitConvergenceSpec {
            uids: (1..=n as u64).collect(),
            tags: (0..n).map(|_| rng.gen_range(0..=max_tag)).collect(),
            config,
        };
        let cfg = CheckConfig { horizon: 5, max_states: 60_000, ..CheckConfig::default() };
        assert_conformant(&spec, &g, &cfg, 19);
    });
}

#[test]
fn schedules_with_crashes_replay_exactly() {
    // Crash choices are the subtlest part of the correspondence: the
    // explorer's transitions take a crashed node down from round 1, the
    // continuous replay only from the start of its crash round.
    run_cases(0xC0F0_0004, 8, |_case, rng| {
        let g = arb_graph(rng);
        let uids: Vec<u64> = (0..g.node_count()).map(|_| rng.gen_range(1..100)).collect();
        let spec = BlindGossipSpec { uids };
        let cfg = CheckConfig {
            horizon: 4,
            max_states: 40_000,
            max_crashes: 1,
            ..CheckConfig::default()
        };
        assert_conformant(&spec, &g, &cfg, 11);
    });
}

#[test]
fn maintained_gossip_replays_under_loss_and_crashes() {
    let g = gen::path(3);
    let spec = MaintainedGossipSpec { uids: vec![3, 1, 2], timeout: 3 };
    let cfg = CheckConfig { horizon: 4, max_states: 60_000, loss: true, max_crashes: 1 };
    assert_conformant(&spec, &g, &cfg, 23);
}

#[test]
fn analysis_agrees_with_engine_on_agreed_states() {
    // A state the checker marks "agreed" must be agreed in the engine's
    // replay of it too — the predicate is evaluated on identical words.
    run_cases(0xC0F0_0005, 6, |_case, rng| {
        let g = arb_graph(rng);
        let uids: Vec<u64> = (0..g.node_count()).map(|u| u as u64 + 1).collect();
        let spec = BlindGossipSpec { uids };
        let cfg = CheckConfig { horizon: 5, max_states: 30_000, ..CheckConfig::default() };
        let ex = explore(&spec, &g, &cfg);
        let an = analyze(&spec, &ex);
        if let Some(s) = an.first_agreed {
            let outcome = mtm_check::replay_state(&spec, &g, &ex, s).expect("agreed state replays");
            assert_eq!(outcome.words, mtm_check::explore::raw_words(ex.nodes_of(s)));
        }
        let _ = rng.gen_range(0..2u32); // consume entropy so cases differ
    });
}
