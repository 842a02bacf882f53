//! Integration tests for model fidelity: the engine must enforce exactly
//! the mobile telephone model of Section III when driving real protocols.

use mobile_telephone::prelude::*;

#[test]
fn at_most_one_connection_per_node_per_round_mobile() {
    // n/2 is the hard cap on connections per round under single-accept.
    let g = gen::clique(12);
    let n = g.node_count();
    let uids = UidPool::random(n, 1);
    let mut e = Engine::new(
        StaticTopology::new(g),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        BlindGossip::spawn(&uids),
        2,
    );
    for round in 1..=200 {
        let before = e.metrics().connections;
        e.step();
        let connections = e.metrics().connections - before;
        assert!(
            connections as usize <= n / 2,
            "round {round}: {connections} connections on {n} nodes"
        );
    }
}

#[test]
fn classical_policy_can_exceed_mobile_cap() {
    // On a star, all leaves proposing to the hub connect simultaneously in
    // the classical model — impossible in the mobile model.
    let g = gen::star(32);
    let n = g.node_count();
    let run_max_conn = |params: ModelParams| {
        let mut e = Engine::new(
            StaticTopology::new(g.clone()),
            params,
            ActivationSchedule::synchronized(n),
            PushPull::spawn(n, 1),
            3,
        );
        let mut max_conn = 0;
        for _ in 0..60 {
            let before = e.metrics().connections;
            e.step();
            max_conn = max_conn.max(e.metrics().connections - before);
        }
        max_conn
    };
    let classical = run_max_conn(ModelParams::classical());
    let mobile = run_max_conn(ModelParams::mobile(0));
    assert!(mobile <= 1, "every star connection involves the hub: mobile max {mobile}");
    assert!(classical > 3, "classical hub should batch-accept: max {classical}");
}

#[test]
fn proposal_accounting_balances() {
    let g = gen::random_regular(24, 4, 5);
    let n = g.node_count();
    let uids = UidPool::random(n, 6);
    let mut e = Engine::new(
        StaticTopology::new(g),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        BlindGossip::spawn(&uids),
        7,
    );
    e.run_rounds(500);
    let m = e.metrics();
    assert_eq!(m.proposals, m.connections + m.rejected_proposals);
    assert!(m.proposals > 0);
    assert!(m.proposal_success_rate() > 0.0 && m.proposal_success_rate() <= 1.0);
}

#[test]
fn inactive_nodes_never_participate() {
    // Node 3 activates very late; until then its state must be untouched
    // and no one may connect to it.
    let g = gen::clique(4);
    let uids = UidPool::sequential(4);
    let sched = ActivationSchedule::explicit(vec![1, 1, 1, 1_000]);
    let mut e = Engine::new(
        StaticTopology::new(g),
        ModelParams::mobile(0),
        sched,
        BlindGossip::spawn(&uids),
        8,
    );
    e.run_rounds(999);
    assert_eq!(e.node(3).leader(), 3, "inactive node state changed");
    // The other three converged among themselves long ago.
    assert_eq!(e.node(0).leader(), 0);
    assert_eq!(e.node(1).leader(), 0);
    assert_eq!(e.node(2).leader(), 0);
    let out = e.run_to_stabilization(1_000_000);
    assert_eq!(out.winner, Some(0));
}

#[test]
fn tau_stability_is_respected_end_to_end() {
    // Drive an engine over a τ = 7 adversary and check (via the adversary
    // itself) that graphs only change on epoch boundaries.
    struct Probe {
        inner: RelabelingAdversary,
        last: Option<(u64, usize)>, // (round, edge-hash)
    }
    impl DynamicTopology for Probe {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn tau(&self) -> Option<u64> {
            self.inner.tau()
        }
        fn graph_at(&mut self, round: u64) -> &Graph {
            let g = self.inner.graph_at(round);
            let hash: usize = g.edges().map(|(u, v)| (u as usize) * 31 + v as usize).sum();
            if let Some((last_round, last_hash)) = self.last {
                if hash != last_hash {
                    // A change: the previous epoch must have lasted ≥ τ.
                    assert_eq!(
                        (round - 1) % 7,
                        0,
                        "topology changed at round {round}, not an epoch boundary (prev {last_round})"
                    );
                }
            }
            self.last = Some((round, hash));
            g
        }
    }
    let base = gen::cycle(16);
    let probe = Probe { inner: RelabelingAdversary::new(base, 7, 9), last: None };
    let uids = UidPool::random(16, 10);
    let mut e = Engine::new(
        probe,
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(16),
        BlindGossip::spawn(&uids),
        11,
    );
    e.run_rounds(100);
}

#[test]
fn payload_budget_is_modeled() {
    use mobile_telephone::engine::PayloadCost;
    // The bit-convergence payload is one UID + the k-bit tag.
    let pair = IdPair { tag: 0x3FF, uid: 42 };
    assert_eq!(pair.uid_count(), 1);
    assert!(pair.extra_bits() <= 256, "ID pair must fit the default payload budget");
}

#[test]
fn rumor_spreading_monotone_informed_count() {
    let g = gen::line_of_stars(4, 4);
    let n = g.node_count();
    let mut e = Engine::new(
        StaticTopology::new(g),
        ModelParams::mobile(1),
        ActivationSchedule::synchronized(n),
        Ppush::spawn(n, 1),
        12,
    );
    let mut last = e.informed_count();
    assert_eq!(last, 1);
    for _ in 0..2_000 {
        e.step();
        let now = e.informed_count();
        assert!(now >= last, "informed count decreased: {last} -> {now}");
        last = now;
        if now == n {
            break;
        }
    }
    assert_eq!(last, n, "rumor failed to spread in 2000 rounds");
}

#[test]
fn selection_permutation_equivalent_to_uniform_choice() {
    // §VI specifies acceptance via a random neighbor permutation; the
    // engine picks a uniform incoming index. Both must induce the uniform
    // distribution over proposers. On a star, all leaves propose to the
    // hub every round; count how often each leaf wins.
    use mobile_telephone::engine::protocol::PayloadCost;
    use rand::seq::SliceRandom;

    struct AlwaysProposeHub {
        is_hub: bool,
        accepted_from: Vec<u64>,
        uid: u64,
    }
    #[derive(Clone)]
    struct From(u64);
    impl PayloadCost for From {
        fn uid_count(&self) -> u32 {
            1
        }
        fn extra_bits(&self) -> u32 {
            0
        }
    }
    impl Protocol for AlwaysProposeHub {
        type Payload = From;
        fn advertise(&mut self, _l: u64, _r: &mut rand::rngs::SmallRng) -> Tag {
            Tag::EMPTY
        }
        fn act(
            &mut self,
            scan: &Scan<'_>,
            _r: &mut rand::rngs::SmallRng,
        ) -> mobile_telephone::engine::Action {
            if self.is_hub || scan.is_empty() {
                mobile_telephone::engine::Action::Listen
            } else {
                mobile_telephone::engine::Action::Propose(scan.neighbors[0])
            }
        }
        fn payload(&self) -> From {
            From(self.uid)
        }
        fn on_connect(&mut self, peer: &From, _r: &mut rand::rngs::SmallRng) {
            if self.is_hub {
                self.accepted_from.push(peer.0);
            }
        }
    }

    let n = 9; // hub + 8 leaves
    let rounds = 8_000u64;
    let nodes: Vec<AlwaysProposeHub> = (0..n)
        .map(|u| AlwaysProposeHub { is_hub: u == 0, accepted_from: Vec::new(), uid: u as u64 })
        .collect();
    let mut e = Engine::new(
        StaticTopology::new(gen::star(n)),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        nodes,
        77,
    );
    e.run_rounds(rounds);
    let mut uniform = vec![0u64; n];
    for &from in &e.node(0).accepted_from {
        uniform[from as usize] += 1;
    }

    // Definition VI.2's device, drawn here: the hub shuffles its neighbor
    // list and accepts the proposer ranked first. Every leaf proposes, so
    // that is the first leaf of the permutation.
    let mut rng = mobile_telephone::graph::rng::stream_rng(77, 0);
    let mut leaves: Vec<usize> = (1..n).collect();
    let mut permuted = vec![0u64; n];
    for _ in 0..rounds {
        leaves.shuffle(&mut rng);
        permuted[leaves[0]] += 1;
    }

    let expected = rounds as f64 / 8.0;
    for leaf in 1..n {
        for (name, counts) in [("uniform", &uniform), ("permutation", &permuted)] {
            let c = counts[leaf] as f64;
            assert!(
                (c - expected).abs() < expected * 0.15,
                "{name}: leaf {leaf} accepted {c} times, expected ≈{expected}"
            );
        }
    }
}
