//! Cross-crate integration tests: every leader election algorithm elects
//! the correct winner on every topology family, and stabilization is
//! permanent (Section IV's definition demands the leader never change
//! again — we verify by running extra rounds past first agreement).

use mobile_telephone::prelude::*;

/// Families small instances of which are cheap enough for debug-mode CI.
const FAMILIES: [GraphFamily; 8] = [
    GraphFamily::Clique,
    GraphFamily::Path,
    GraphFamily::Cycle,
    GraphFamily::Star,
    GraphFamily::LineOfStars,
    GraphFamily::Expander3,
    GraphFamily::Hypercube,
    GraphFamily::BinaryTree,
];

const N: usize = 16;
const MAX_ROUNDS: u64 = 20_000_000;

#[test]
fn blind_gossip_elects_min_uid_everywhere() {
    for family in FAMILIES {
        let g = family.build(N, 5);
        let n = g.node_count();
        let uids = UidPool::random(n, 1);
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            BlindGossip::spawn(&uids),
            7,
        );
        let out = e.run_to_stabilization(MAX_ROUNDS);
        assert_eq!(out.winner, Some(uids.min_uid()), "{family}: wrong winner");
        // Permanence: agreement must survive further execution.
        e.run_rounds(500);
        assert_eq!(e.leaders_agree(), Some(uids.min_uid()), "{family}: leader changed");
    }
}

#[test]
fn bit_convergence_elects_min_pair_everywhere() {
    for family in FAMILIES {
        let g = family.build(N, 6);
        let n = g.node_count();
        let delta = g.max_degree();
        let uids = UidPool::random(n, 2);
        let config = TagConfig::for_network(n, delta);
        let nodes = BitConvergence::spawn(&uids, config, 3);
        let expect =
            nodes.iter().map(|p| p.active_pair()).min().expect("the network has nodes").uid;
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            nodes,
            8,
        );
        let out = e.run_to_stabilization(MAX_ROUNDS);
        assert_eq!(out.winner, Some(expect), "{family}: wrong winner");
        e.run_rounds(2 * config.phase_len() + 10);
        assert_eq!(e.leaders_agree(), Some(expect), "{family}: leader changed");
    }
}

#[test]
fn nonsync_elects_min_pair_with_staggered_starts() {
    for family in [GraphFamily::Clique, GraphFamily::Expander3, GraphFamily::Star] {
        let g = family.build(N, 7);
        let n = g.node_count();
        let delta = g.max_degree();
        let uids = UidPool::random(n, 3);
        let config = TagConfig::for_network(n, delta);
        let nodes = NonSyncBitConvergence::spawn(&uids, config, 4);
        let expect = nodes.iter().map(|p| p.best_pair()).min().expect("the network has nodes").uid;
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(config.nonsync_tag_bits()),
            ActivationSchedule::staggered_uniform(n, 60, 5),
            nodes,
            9,
        );
        let out = e.run_to_stabilization(MAX_ROUNDS);
        assert_eq!(out.winner, Some(expect), "{family}: wrong winner");
        assert!(
            out.rounds_after_activation.expect("the run stabilized")
                <= out.stabilized_round.expect("the run stabilized")
        );
        e.run_rounds(500);
        assert_eq!(e.leaders_agree(), Some(expect), "{family}: leader changed");
    }
}

#[test]
fn all_three_algorithms_work_under_maximum_churn() {
    // τ = 1 relabeling: the topology is scrambled every round.
    let base = gen::line_of_stars(3, 3);
    let n = base.node_count();
    let uids = UidPool::random(n, 11);

    let mut blind = Engine::new(
        RelabelingAdversary::new(base.clone(), 1, 21),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        BlindGossip::spawn(&uids),
        31,
    );
    assert_eq!(
        blind.run_to_stabilization(MAX_ROUNDS).winner,
        Some(uids.min_uid()),
        "blind gossip under churn"
    );

    let config = TagConfig::for_network(n, base.max_degree());
    let nodes = BitConvergence::spawn(&uids, config, 41);
    let expect = nodes.iter().map(|p| p.active_pair()).min().expect("the network has nodes").uid;
    let mut bc = Engine::new(
        RelabelingAdversary::new(base.clone(), 1, 22),
        ModelParams::mobile(1),
        ActivationSchedule::synchronized(n),
        nodes,
        32,
    );
    assert_eq!(bc.run_to_stabilization(MAX_ROUNDS).winner, Some(expect), "bitconv under churn");

    let nodes = NonSyncBitConvergence::spawn(&uids, config, 42);
    let expect = nodes.iter().map(|p| p.best_pair()).min().expect("the network has nodes").uid;
    let mut ns = Engine::new(
        RelabelingAdversary::new(base, 1, 23),
        ModelParams::mobile(config.nonsync_tag_bits()),
        ActivationSchedule::synchronized(n),
        nodes,
        33,
    );
    assert_eq!(ns.run_to_stabilization(MAX_ROUNDS).winner, Some(expect), "nonsync under churn");
}

#[test]
fn self_stabilization_after_component_join() {
    let left = gen::random_regular(10, 3, 1);
    let right = gen::random_regular(10, 3, 2);
    let join_round = 5_000;
    let topo = JoinSchedule::new(&left, &right, &[(0, 10)], join_round);
    let n = 20;
    let uids = UidPool::random(n, 12);
    let config = TagConfig::for_network(n, 4);
    let nodes = NonSyncBitConvergence::spawn(&uids, config, 13);
    let expect = nodes.iter().map(|p| p.best_pair()).min().expect("the network has nodes").uid;
    let mut e = Engine::new(
        topo,
        ModelParams::mobile(config.nonsync_tag_bits()),
        ActivationSchedule::synchronized(n),
        nodes,
        14,
    );
    // Pre-join: components converge to (generically different) leaders.
    e.run_rounds(join_round - 1);
    let l = e.node(0).leader();
    let r = e.node(10).leader();
    assert!(e.nodes()[..10].iter().all(|p| p.leader() == l), "left not converged");
    assert!(e.nodes()[10..].iter().all(|p| p.leader() == r), "right not converged");
    // Post-join: one leader, the global minimum pair.
    let out = e.run_to_stabilization(MAX_ROUNDS);
    assert_eq!(out.winner, Some(expect));
    assert!(out.stabilized_round.expect("the run stabilized") >= join_round);
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let g = GraphFamily::Expander3.build(16, 3);
        let n = g.node_count();
        let uids = UidPool::random(n, 4);
        let config = TagConfig::for_network(n, g.max_degree());
        let nodes = BitConvergence::spawn(&uids, config, 5);
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            nodes,
            6,
        );
        let out = e.run_to_stabilization(MAX_ROUNDS);
        (out.stabilized_round, out.winner, out.metrics)
    };
    assert_eq!(run(), run(), "identical seeds must give identical executions");
}

#[test]
fn waypoint_mobility_supports_leader_election() {
    let n = 30;
    let topo = WaypointMobility::new(n, 0.3, 0.03, 5, 17);
    let uids = UidPool::random(n, 18);
    let mut e = Engine::new(
        topo,
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        BlindGossip::spawn(&uids),
        19,
    );
    let out = e.run_to_stabilization(MAX_ROUNDS);
    assert_eq!(out.winner, Some(uids.min_uid()));
}
