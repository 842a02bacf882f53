//! Rumor-spreading ablations: PUSH-only and PULL-only baselines.
//!
//! The paper's strategies are symmetric (PUSH-PULL) or advertisement-driven
//! (PPUSH). Classical rumor-spreading theory also studies the two
//! directions separately; these baselines quantify how much each direction
//! contributes in the *mobile* telephone model, where the single-accept
//! constraint changes the classical trade-offs:
//!
//! * [`PushOnly`] (`b = 0`) — only informed nodes send proposals; a formed
//!   connection transfers the rumor proposer → receiver only.
//! * [`PullOnly`] (`b = 0`) — only uninformed nodes send proposals; a
//!   formed connection transfers receiver → proposer only.
//!
//! Both are strictly weaker than PUSH-PULL on general graphs and serve as
//! ablation arms in the rumor-spreading benchmarks.

use mtm_engine::{ActRule, Action, Protocol, RumorView, Scan, Tag};
use rand::rngs::SmallRng;

use crate::rumor::RumorBit;

/// PUSH-only: informed nodes propose to uniform neighbors; the rumor moves
/// only along proposer → receiver.
#[derive(Clone, Debug)]
pub struct PushOnly {
    informed: bool,
    /// Set when this node proposed this round: its outgoing payload carries
    /// the rumor, but an incoming payload is ignored (push direction only).
    absorbing: bool,
}

impl PushOnly {
    /// A node that starts informed or not.
    pub fn new(informed: bool) -> PushOnly {
        PushOnly { informed, absorbing: !informed }
    }

    /// `n` nodes, nodes `0..sources` informed.
    pub fn spawn(n: usize, sources: usize) -> Vec<PushOnly> {
        assert!(sources >= 1 && sources <= n);
        (0..n).map(|u| PushOnly::new(u < sources)).collect()
    }
}

impl Protocol for PushOnly {
    type Payload = RumorBit;

    fn advertise(&mut self, _local_round: u64, _rng: &mut SmallRng) -> Tag {
        Tag::EMPTY
    }

    fn act_rule(&self) -> ActRule {
        // Uninformed nodes only listen; informed nodes flip a coin (the
        // standard lazy variant keeps rounds comparable to PUSH-PULL).
        if self.informed {
            ActRule::CoinFlip
        } else {
            ActRule::Listen
        }
    }

    fn apply_action(&mut self, _scan: &Scan<'_>, _action: Action) {
        // Only a listener absorbs this round.
        self.absorbing = !self.informed;
    }

    fn payload(&self) -> RumorBit {
        RumorBit(self.informed)
    }

    fn on_connect(&mut self, peer: &RumorBit, _rng: &mut SmallRng) {
        // Receive the rumor only while listening (push direction).
        if self.absorbing {
            self.informed |= peer.0;
        }
    }

    fn state_words(&self, out: &mut Vec<u64>) {
        // `absorbing` is per-round scratch rewritten by every act.
        out.push(self.informed as u64);
    }
}

impl RumorView for PushOnly {
    fn informed(&self) -> bool {
        self.informed
    }
}

/// PULL-only: uninformed nodes propose to uniform neighbors; the rumor
/// moves only along receiver → proposer.
#[derive(Clone, Debug)]
pub struct PullOnly {
    informed: bool,
    /// Set when this node proposed this round (it is pulling): it absorbs
    /// the peer's payload. Listeners do not absorb.
    pulling: bool,
}

impl PullOnly {
    /// A node that starts informed or not.
    pub fn new(informed: bool) -> PullOnly {
        PullOnly { informed, pulling: false }
    }

    /// `n` nodes, nodes `0..sources` informed.
    pub fn spawn(n: usize, sources: usize) -> Vec<PullOnly> {
        assert!(sources >= 1 && sources <= n);
        (0..n).map(|u| PullOnly::new(u < sources)).collect()
    }
}

impl Protocol for PullOnly {
    type Payload = RumorBit;

    fn advertise(&mut self, _local_round: u64, _rng: &mut SmallRng) -> Tag {
        Tag::EMPTY
    }

    fn act_rule(&self) -> ActRule {
        if self.informed {
            ActRule::Listen
        } else {
            ActRule::CoinFlip
        }
    }

    fn apply_action(&mut self, _scan: &Scan<'_>, action: Action) {
        // Absorb only while pulling.
        self.pulling = matches!(action, Action::Propose(_));
    }

    fn payload(&self) -> RumorBit {
        RumorBit(self.informed)
    }

    fn on_connect(&mut self, peer: &RumorBit, _rng: &mut SmallRng) {
        if self.pulling {
            self.informed |= peer.0;
        }
    }

    fn state_words(&self, out: &mut Vec<u64>) {
        // `pulling` is per-round scratch rewritten by every act.
        out.push(self.informed as u64);
    }
}

impl RumorView for PullOnly {
    fn informed(&self) -> bool {
        self.informed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_engine::{ActivationSchedule, Engine, ModelParams};
    use mtm_graph::{gen, StaticTopology};

    fn run_push(g: mtm_graph::Graph, seed: u64, max: u64) -> Option<u64> {
        let n = g.node_count();
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            PushOnly::spawn(n, 1),
            seed,
        );
        e.run_to_full_information(max).stabilized_round
    }

    fn run_pull(g: mtm_graph::Graph, seed: u64, max: u64) -> Option<u64> {
        let n = g.node_count();
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            PullOnly::spawn(n, 1),
            seed,
        );
        e.run_to_full_information(max).stabilized_round
    }

    #[test]
    fn push_only_informs_clique() {
        assert!(run_push(gen::clique(24), 1, 200_000).is_some());
    }

    #[test]
    fn pull_only_informs_clique() {
        assert!(run_pull(gen::clique(24), 2, 200_000).is_some());
    }

    #[test]
    fn push_only_informs_path() {
        assert!(run_push(gen::path(12), 3, 2_000_000).is_some());
    }

    #[test]
    fn pull_only_informs_path() {
        assert!(run_pull(gen::path(12), 4, 2_000_000).is_some());
    }

    #[test]
    fn push_direction_is_one_way() {
        // An informed listener never "pulls": if an uninformed node
        // proposes to an informed PushOnly node, the proposer stays
        // uninformed... but uninformed PushOnly nodes never propose, so
        // check the absorbing flag directly instead.
        let mut rng = mtm_graph::rng::stream_rng(0, 0);
        let mut node = PushOnly::new(false);
        // While listening (absorbing), it learns:
        node.absorbing = true;
        node.on_connect(&RumorBit(true), &mut rng);
        assert!(node.informed());
        // A fresh uninformed node that somehow connected while proposing
        // would not learn:
        let mut node = PushOnly::new(false);
        node.absorbing = false;
        node.on_connect(&RumorBit(true), &mut rng);
        assert!(!node.informed());
    }

    #[test]
    fn pull_direction_is_one_way() {
        let mut rng = mtm_graph::rng::stream_rng(0, 1);
        // A listener (not pulling) does not learn:
        let mut node = PullOnly::new(false);
        node.pulling = false;
        node.on_connect(&RumorBit(true), &mut rng);
        assert!(!node.informed());
        // A puller learns:
        let mut node = PullOnly::new(false);
        node.pulling = true;
        node.on_connect(&RumorBit(true), &mut rng);
        assert!(node.informed());
    }

    #[test]
    fn push_pull_beats_push_only_on_star_pulls() {
        // On a star with the source at a leaf, PUSH alone must wait for the
        // source to push to the hub and the hub to push n-1 times; PULL
        // lets uninformed leaves fetch from the hub concurrently with the
        // hub's own pushes. PUSH-PULL ≤ PUSH-only in rounds (medians).
        use crate::rumor::PushPull;
        let g = gen::star(48);
        let n = g.node_count();
        let median = |f: &dyn Fn(u64) -> u64| {
            let mut xs: Vec<u64> = (0..5).map(f).collect();
            xs.sort_unstable();
            xs[2]
        };
        let push_only = median(&|s| {
            run_push(g.clone(), s, 10_000_000).expect("PUSH-only completes on this instance")
        });
        let push_pull = median(&|s| {
            let mut e = Engine::new(
                StaticTopology::new(g.clone()),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(n),
                PushPull::spawn(n, 1),
                s,
            );
            e.run_to_full_information(10_000_000)
                .stabilized_round
                .expect("PUSH-PULL completes on this instance")
        });
        assert!(
            push_pull <= push_only,
            "PUSH-PULL ({push_pull}) should not lose to PUSH-only ({push_only})"
        );
    }
}
