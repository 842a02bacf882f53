//! Blind gossip leader election (§VI): `b = 0`, any `τ ≥ 1`.
//!
//! Every round each node flips a fair coin to send or receive. A sender
//! proposes to a uniformly random neighbor; a connected pair trades the
//! smallest UIDs each has seen, and both adopt the minimum as their
//! `leader`. Theorem VI.1: stabilizes in `O((1/α)·Δ²·log²n)` rounds with
//! high probability; the line-of-stars construction shows the strategy
//! needs `Ω(Δ²/√α)` rounds on some stable networks.
//!
//! The algorithm uses no tags, no round synchronization, and no knowledge
//! of `n`, `Δ`, `α` or `τ`, so its analysis carries over unchanged to the
//! asynchronous-activation setting (footnote 2 of the paper).

use mtm_engine::{ActRule, LeaderView, PayloadCost, Protocol, Tag};
use rand::rngs::SmallRng;

use crate::id::UidPool;

/// Smallest-UID payload: exactly one UID, no extra bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinUid(pub u64);

impl PayloadCost for MinUid {
    fn uid_count(&self) -> u32 {
        1
    }
    fn extra_bits(&self) -> u32 {
        0
    }
}

/// Per-node state of the blind gossip algorithm.
#[derive(Clone, Debug)]
pub struct BlindGossip {
    uid: u64,
    /// Smallest UID received so far (`Î_u(r)`), which is also `leader`.
    best: u64,
}

impl BlindGossip {
    /// A node with the given UID.
    pub fn new(uid: u64) -> BlindGossip {
        BlindGossip { uid, best: uid }
    }

    /// One node per UID in the pool (the standard trial setup).
    pub fn spawn(uids: &UidPool) -> Vec<BlindGossip> {
        uids.as_slice().iter().map(|&u| BlindGossip::new(u)).collect()
    }

    /// The smallest UID this node has seen.
    pub fn best(&self) -> u64 {
        self.best
    }
}

impl Protocol for BlindGossip {
    type Payload = MinUid;

    fn advertise(&mut self, _local_round: u64, _rng: &mut SmallRng) -> Tag {
        Tag::EMPTY
    }

    fn act_rule(&self) -> ActRule {
        // Fair coin: heads = send, tails = receive.
        ActRule::CoinFlip
    }

    fn payload(&self) -> MinUid {
        MinUid(self.best)
    }

    fn on_connect(&mut self, peer: &MinUid, _rng: &mut SmallRng) {
        self.best = self.best.min(peer.0);
    }

    fn state_words(&self, out: &mut Vec<u64>) {
        out.push(self.best);
    }
}

impl LeaderView for BlindGossip {
    fn leader(&self) -> u64 {
        self.best
    }
    fn uid(&self) -> u64 {
        self.uid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_engine::{ActivationSchedule, Engine, ModelParams};
    use mtm_graph::{gen, StaticTopology};

    fn run(g: mtm_graph::Graph, seed: u64, max_rounds: u64) -> mtm_engine::RunOutcome {
        let n = g.node_count();
        let uids = UidPool::random(n, seed ^ 0xFACE);
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            BlindGossip::spawn(&uids),
            seed,
        );
        let out = e.run_to_stabilization(max_rounds);
        if let Some(w) = out.winner {
            assert_eq!(w, uids.min_uid(), "winner must be the minimum UID");
        }
        out
    }

    #[test]
    fn elects_min_uid_on_clique() {
        let out = run(gen::clique(32), 1, 100_000);
        assert!(out.stabilized_round.is_some());
    }

    #[test]
    fn elects_min_uid_on_path() {
        let out = run(gen::path(16), 2, 1_000_000);
        assert!(out.stabilized_round.is_some());
    }

    #[test]
    fn elects_min_uid_on_line_of_stars() {
        let out = run(gen::line_of_stars(4, 4), 3, 1_000_000);
        assert!(out.stabilized_round.is_some());
    }

    #[test]
    fn best_is_monotone_nonincreasing() {
        let mut node = BlindGossip::new(50);
        let mut rng = mtm_graph::rng::stream_rng(0, 0);
        node.on_connect(&MinUid(60), &mut rng);
        assert_eq!(node.best(), 50, "larger UID must not displace best");
        node.on_connect(&MinUid(10), &mut rng);
        assert_eq!(node.best(), 10);
        node.on_connect(&MinUid(30), &mut rng);
        assert_eq!(node.best(), 10);
        assert_eq!(node.leader(), 10);
        assert_eq!(node.uid(), 50);
    }

    #[test]
    fn works_under_churn() {
        use mtm_graph::dynamic::RelabelingAdversary;
        let base = gen::line_of_stars(3, 3);
        let n = base.node_count();
        let uids = UidPool::random(n, 77);
        let mut e = Engine::new(
            RelabelingAdversary::new(base, 1, 5), // τ = 1: change every round
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            BlindGossip::spawn(&uids),
            6,
        );
        let out = e.run_to_stabilization(2_000_000);
        assert_eq!(out.winner, Some(uids.min_uid()));
    }

    #[test]
    fn two_nodes_stabilize_quickly() {
        let out = run(gen::clique(2), 9, 10_000);
        // Each round: P(connect) = 1/2 (one sends, other receives).
        assert!(out.stabilized_round.expect("blind gossip stabilizes on the clique") < 200);
    }
}
