//! Cross-crate property tests: for arbitrary topologies, seeds, and
//! schedules, the system-level invariants of the leader election problem
//! hold.
//!
//! Cases are generated deterministically by `mtm-testkit` (the offline
//! replacement for proptest); each test reports the failing case seed on
//! panic.

use mobile_telephone::engine::Metrics;
use mobile_telephone::prelude::*;
use mtm_testkit::{run_cases, Rng, SmallRng};

const FAMILIES: &[GraphFamily] = &[
    GraphFamily::Clique,
    GraphFamily::Path,
    GraphFamily::Cycle,
    GraphFamily::Star,
    GraphFamily::LineOfStars,
    GraphFamily::Expander3,
    GraphFamily::BinaryTree,
];

fn arb_family(rng: &mut SmallRng) -> GraphFamily {
    FAMILIES[rng.gen_range(0..FAMILIES.len())]
}

/// Step `e` for `rounds` rounds and return its counters after each one.
fn metrics_per_round<P: Protocol, T: DynamicTopology>(
    e: &mut Engine<P, T>,
    rounds: u64,
) -> Vec<Metrics> {
    (0..rounds)
        .map(|_| {
            e.step();
            e.metrics()
        })
        .collect()
}

#[test]
fn blind_gossip_always_elects_min_uid() {
    run_cases(0xF701, 12, |_case, rng| {
        let family = arb_family(rng);
        let n = rng.gen_range(4..14usize);
        let seed = rng.gen::<u64>();
        let g = family.build(n, seed);
        let n_actual = g.node_count();
        let uids = UidPool::random(n_actual, seed ^ 1);
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n_actual),
            BlindGossip::spawn(&uids),
            seed ^ 2,
        );
        let out = e.run_to_stabilization(20_000_000);
        assert_eq!(out.winner, Some(uids.min_uid()));
    });
}

#[test]
fn leader_is_always_a_real_uid_at_every_round() {
    run_cases(0xF702, 12, |_case, rng| {
        let family = arb_family(rng);
        let seed = rng.gen::<u64>();
        let g = family.build(10, seed);
        let n = g.node_count();
        let uids = UidPool::random(n, seed ^ 3);
        let mut uid_set: Vec<u64> = uids.as_slice().to_vec();
        uid_set.sort_unstable();
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            BlindGossip::spawn(&uids),
            seed ^ 4,
        );
        for _ in 0..200 {
            e.step();
            for u in 0..n {
                let leader = e.node(u).leader();
                assert!(
                    uid_set.binary_search(&leader).is_ok(),
                    "node {u} points at a UID that does not exist: {leader:#x}"
                );
            }
        }
    });
}

#[test]
fn blind_gossip_leader_is_monotone_per_node() {
    run_cases(0xF703, 12, |_case, rng| {
        let seed = rng.gen::<u64>();
        let g = gen::random_regular(12, 3, seed % 1000);
        let uids = UidPool::random(12, seed ^ 5);
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(12),
            BlindGossip::spawn(&uids),
            seed ^ 6,
        );
        let mut last: Vec<u64> = (0..12).map(|u| e.node(u).leader()).collect();
        for _ in 0..300 {
            e.step();
            for (u, prev) in last.iter_mut().enumerate() {
                let now = e.node(u).leader();
                assert!(now <= *prev, "node {u} leader increased {prev} -> {now}");
                *prev = now;
            }
        }
    });
}

#[test]
fn bit_convergence_winner_is_min_pair() {
    run_cases(0xF704, 12, |_case, rng| {
        let family = arb_family(rng);
        let seed = rng.gen::<u64>();
        let g = family.build(12, seed);
        let n = g.node_count();
        let uids = UidPool::random(n, seed ^ 7);
        let config = TagConfig::for_network(n, g.max_degree());
        let nodes = BitConvergence::spawn(&uids, config, seed ^ 8);
        // The paper's analysis assumes all ID tags are unique (w.h.p. via
        // β·log N bits). At n = 12 with k ≈ 11 bits the birthday collision
        // probability is a few percent, and a collision on the *minimal*
        // tag deadlocks stabilization (see experiment A1) — so, like the
        // analysis, condition on uniqueness.
        let mut tags: Vec<u64> = nodes.iter().map(|p| p.active_pair().tag).collect();
        tags.sort_unstable();
        if tags.windows(2).any(|w| w[0] == w[1]) {
            return; // discard the case, as `prop_assume!` did
        }
        let expect = nodes.iter().map(|p| p.active_pair()).min().expect("n > 0").uid;
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            nodes,
            seed ^ 9,
        );
        let out = e.run_to_stabilization(20_000_000);
        assert_eq!(out.winner, Some(expect));
    });
}

#[test]
fn nonsync_converges_under_arbitrary_activation_schedules() {
    run_cases(0xF705, 12, |_case, rng| {
        let seed = rng.gen::<u64>();
        let window = rng.gen_range(1..120u64);
        let g = gen::random_regular(10, 3, seed % 999);
        let n = g.node_count();
        let uids = UidPool::random(n, seed ^ 10);
        let config = TagConfig::for_network(n, 3);
        let nodes = NonSyncBitConvergence::spawn(&uids, config, seed ^ 11);
        // Condition on unique ID tags, as the paper's analysis does: a
        // collision on the minimal tag deadlocks stabilization (nodes with
        // identical tags advertise identical bits and never connect — the
        // failure mode experiment A1 documents).
        let mut tags: Vec<u64> = nodes.iter().map(|p| p.best_pair().tag).collect();
        tags.sort_unstable();
        if tags.windows(2).any(|w| w[0] == w[1]) {
            return; // discard the case, as `prop_assume!` did
        }
        let expect = nodes.iter().map(|p| p.best_pair()).min().expect("n > 0").uid;
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(config.nonsync_tag_bits()),
            ActivationSchedule::staggered_uniform(n, window, seed ^ 12),
            nodes,
            seed ^ 13,
        );
        let out = e.run_to_stabilization(20_000_000);
        assert_eq!(out.winner, Some(expect));
    });
}

#[test]
fn engine_conservation_under_random_protocol_mix() {
    run_cases(0xF706, 12, |_case, rng| {
        // Proposals are partitioned into connections and rejections, and
        // per-round connections never exceed n/2, for arbitrary seeds.
        let seed = rng.gen::<u64>();
        let rounds = rng.gen_range(10..200u64);
        let g = gen::erdos_renyi_connected(14, 0.3, seed % 997);
        let n = g.node_count();
        let uids = UidPool::random(n, seed ^ 14);
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            BlindGossip::spawn(&uids),
            seed ^ 15,
        );
        for _ in 0..rounds {
            let before = e.metrics();
            e.step();
            let connections = e.metrics().connections - before.connections;
            assert!(connections as usize <= n / 2);
            assert!(e.metrics().proposals - before.proposals >= connections);
        }
        let m = e.metrics();
        assert_eq!(m.proposals, m.connections + m.rejected_proposals);
    });
}

#[test]
fn stabilized_means_unanimous_and_permanent() {
    run_cases(0xF707, 12, |_case, rng| {
        let seed = rng.gen::<u64>();
        let g = gen::line_of_stars(3, 2);
        let n = g.node_count();
        let uids = UidPool::random(n, seed ^ 16);
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            BlindGossip::spawn(&uids),
            seed ^ 17,
        );
        let out = e.run_to_stabilization(20_000_000);
        let winner = out.winner.expect("line-of-stars stabilizes within budget");
        for extra in 0..100 {
            e.step();
            assert_eq!(e.leaders_agree(), Some(winner), "diverged {extra} rounds later");
        }
    });
}

/// The executable form of DESIGN.md's substitution rule: a full protocol
/// execution — including the counters after every round — is a pure
/// function of `(seed, config)`, across graph families and across both
/// paper protocols.
#[test]
fn same_seed_runs_produce_identical_round_traces() {
    run_cases(0xF708, 10, |_case, rng| {
        let family = arb_family(rng);
        let n = rng.gen_range(4..12usize);
        let seed = rng.gen::<u64>();

        let run_blind = |seed: u64| {
            let g = family.build(n, seed);
            let nn = g.node_count();
            let uids = UidPool::random(nn, seed ^ 21);
            let mut e = Engine::new(
                StaticTopology::new(g),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(nn),
                BlindGossip::spawn(&uids),
                seed ^ 22,
            );
            metrics_per_round(&mut e, 200)
        };
        assert_eq!(run_blind(seed), run_blind(seed), "BlindGossip trace must be seed-pure");

        let run_bits = |seed: u64| {
            let g = family.build(n, seed);
            let nn = g.node_count();
            let uids = UidPool::random(nn, seed ^ 23);
            let config = TagConfig::for_network(nn, g.max_degree());
            let nodes = BitConvergence::spawn(&uids, config, seed ^ 24);
            let mut e = Engine::new(
                StaticTopology::new(g),
                ModelParams::mobile(1),
                ActivationSchedule::synchronized(nn),
                nodes,
                seed ^ 25,
            );
            metrics_per_round(&mut e, 200)
        };
        assert_eq!(run_bits(seed), run_bits(seed), "BitConvergence trace must be seed-pure");
    });
}

/// The engine's own determinism entry point agrees: replaying a fixed
/// `(seed, config)` through `mtm_engine::determinism_self_check` reports no
/// divergence for a real paper protocol.
#[test]
fn engine_determinism_self_check_entry_point() {
    run_cases(0xF709, 6, |_case, rng| {
        let family = arb_family(rng);
        let n = rng.gen_range(4..12usize);
        let seed = rng.gen::<u64>();
        let metrics = mobile_telephone::engine::determinism_self_check(
            || {
                let g = family.build(n, seed);
                let nn = g.node_count();
                let uids = UidPool::random(nn, seed ^ 31);
                Engine::new(
                    StaticTopology::new(g),
                    ModelParams::mobile(0),
                    ActivationSchedule::synchronized(nn),
                    BlindGossip::spawn(&uids),
                    seed ^ 32,
                )
            },
            120,
        )
        .expect("same (seed, config) must replay identically");
        assert_eq!(metrics.rounds, 120);
    });
}
