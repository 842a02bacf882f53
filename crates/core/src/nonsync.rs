//! Non-synchronized bit convergence leader election (§VIII):
//! `b = ⌈log k⌉ + 1 = log log n + O(1)`, asynchronous activations,
//! self-stabilizing.
//!
//! Nodes cannot rely on a global round counter, so group boundaries are
//! local (every `2·log Δ` *local* rounds). At each local group start a node
//! picks a tag-bit position `i ∈ [k]` uniformly at random; for the whole
//! group it advertises `(i, bit)` where `bit` is position `i` of its current
//! smallest ID tag. A node advertising `(i, 0)` proposes to a uniformly
//! random neighbor advertising `(i, 1)` — nodes interact only when they
//! happen to be working on the same bit position. Connected pairs trade
//! smallest ID pairs and adopt improvements **immediately** (no phase
//! staging — this is what makes the algorithm self-stabilizing: state is
//! just the smallest pair seen, so joining long-running components behaves
//! like a fresh execution).
//!
//! Theorem VIII.2: stabilizes in `O((1/α)·Δ^(1/τ̂)·τ̂·log⁸n)` rounds after
//! the last activation — a `log³n` factor slower than the synchronized
//! algorithm.

use mtm_engine::{ActRule, LeaderView, Protocol, Tag};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::TagConfig;
use crate::id::{IdPair, UidPool};

/// Per-node state of the non-synchronized bit convergence algorithm.
#[derive(Clone, Debug)]
pub struct NonSyncBitConvergence {
    uid: u64,
    config: TagConfig,
    /// Smallest ID pair seen so far (adopted immediately on receipt).
    best: IdPair,
    /// Bit position selected for the current local group.
    position: u32,
    /// Bit advertised this round (cached between `advertise` and `act`).
    current_bit: u32,
}

impl NonSyncBitConvergence {
    /// A node with the given UID and ID tag.
    pub fn new(uid: u64, tag: u64, config: TagConfig) -> NonSyncBitConvergence {
        assert!(config.k == 63 || tag < (1u64 << config.k), "tag wider than k bits");
        NonSyncBitConvergence {
            uid,
            config,
            best: IdPair { tag, uid },
            position: 0,
            current_bit: 0,
        }
    }

    /// One node per UID with independent uniform `k`-bit tags.
    pub fn spawn(uids: &UidPool, config: TagConfig, tag_seed: u64) -> Vec<NonSyncBitConvergence> {
        // spawn-time tag sampling from an explicit seed. mtm-lint: allow(smallrng-outside-engine)
        let mut rng = SmallRng::seed_from_u64(tag_seed);
        uids.as_slice()
            .iter()
            .map(|&uid| {
                let tag = if config.k == 63 {
                    rng.gen::<u64>() >> 1
                } else {
                    rng.gen_range(0..(1u64 << config.k))
                };
                NonSyncBitConvergence::new(uid, tag, config)
            })
            .collect()
    }

    /// The smallest pair this node currently holds.
    pub fn best_pair(&self) -> IdPair {
        self.best
    }

    /// Encode the `(position, bit)` advertisement.
    fn encode(position: u32, bit: u32) -> Tag {
        Tag((position << 1) | bit)
    }

    /// Decode a neighbor's advertisement into `(position, bit)`.
    pub fn decode(tag: Tag) -> (u32, u32) {
        (tag.0 >> 1, tag.0 & 1)
    }
}

impl Protocol for NonSyncBitConvergence {
    type Payload = IdPair;

    fn advertise(&mut self, local_round: u64, rng: &mut SmallRng) -> Tag {
        // The only draw: a fresh uniform bit position at each group start.
        let choice = if self.config.is_group_start(local_round) {
            rng.gen_range(0..self.config.k)
        } else {
            0
        };
        self.apply_choice(local_round, choice)
    }

    fn act_rule(&self) -> ActRule {
        if self.current_bit == 1 {
            ActRule::Listen
        } else {
            // Advertising (i, 0): propose to a uniformly random neighbor
            // advertising (i, 1).
            ActRule::PushTo(Self::encode(self.position, 1))
        }
    }

    fn payload(&self) -> IdPair {
        self.best
    }

    fn on_connect(&mut self, peer: &IdPair, _rng: &mut SmallRng) {
        // Immediate adoption (§VIII: "update their locally stored smallest
        // ID pair if the pair they received is smaller").
        self.best = self.best.min(*peer);
    }

    fn state_fingerprint(&self) -> Option<u64> {
        // Only `best` is durable. `position` is re-randomized at every
        // group start and `current_bit` follows it — both keep changing at
        // a fixed point and would mask a deadlock if digested.
        Some(mtm_engine::fingerprint::of_words(&[self.best.tag, self.best.uid]))
    }

    fn supports_check(&self) -> bool {
        true
    }

    fn enumerate_choices(&self, local_round: u64) -> Vec<u32> {
        // The only advertise-phase randomness in the workspace: a fresh
        // uniform bit position at every local group start. Mid-group the
        // position is pinned, so there is a single choice (its value is
        // ignored by `apply_choice`).
        if self.config.is_group_start(local_round) {
            (0..self.config.k).collect()
        } else {
            vec![0]
        }
    }

    fn apply_choice(&mut self, local_round: u64, choice: u32) -> Tag {
        if self.config.is_group_start(local_round) {
            debug_assert!(choice < self.config.k, "choice out of range");
            self.position = choice;
        }
        // The advertised bit reflects the *current* smallest pair, which
        // may have improved mid-group.
        self.current_bit = self.best.tag_bit(self.position, self.config.k);
        Self::encode(self.position, self.current_bit)
    }

    fn state_words(&self, out: &mut Vec<u64>) {
        // Unlike the fingerprint, the exact-state key must include
        // `position`: it is durable across the rounds of a group and
        // shapes which connections can form mid-group.
        out.extend_from_slice(&[self.best.tag, self.best.uid, self.position as u64]);
    }
}

impl LeaderView for NonSyncBitConvergence {
    fn leader(&self) -> u64 {
        self.best.uid
    }
    fn uid(&self) -> u64 {
        self.uid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_engine::{Action, ActivationSchedule, Engine, ModelParams, Scan};
    use mtm_graph::{gen, StaticTopology};

    fn run_with_schedule(
        g: mtm_graph::Graph,
        schedule: ActivationSchedule,
        seed: u64,
        max_rounds: u64,
    ) -> (mtm_engine::RunOutcome, u64) {
        let n = g.node_count();
        let config = TagConfig::for_network(n, g.max_degree());
        let uids = UidPool::random(n, seed ^ 0x1234);
        let nodes = NonSyncBitConvergence::spawn(&uids, config, seed ^ 0x5678);
        let expect = nodes.iter().map(|x| x.best).min().expect("test network has nodes").uid;
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(config.nonsync_tag_bits()),
            schedule,
            nodes,
            seed,
        );
        (e.run_to_stabilization(max_rounds), expect)
    }

    #[test]
    fn synchronized_starts_still_work() {
        let g = gen::clique(24);
        let n = g.node_count();
        let (out, expect) = run_with_schedule(g, ActivationSchedule::synchronized(n), 1, 2_000_000);
        assert_eq!(out.winner, Some(expect));
    }

    #[test]
    fn staggered_activations_converge() {
        let g = gen::random_regular(24, 4, 3);
        let n = g.node_count();
        let sched = ActivationSchedule::staggered_uniform(n, 200, 9);
        let (out, expect) = run_with_schedule(g, sched, 2, 2_000_000);
        assert_eq!(out.winner, Some(expect));
        assert!(out.rounds_after_activation.is_some());
    }

    #[test]
    fn two_wave_join_converges() {
        let g = gen::clique(16);
        let sched = ActivationSchedule::two_wave(16, 8, 500);
        let (out, expect) = run_with_schedule(g, sched, 3, 2_000_000);
        assert_eq!(out.winner, Some(expect));
        let r = out.stabilized_round.expect("a stabilized run records its round");
        assert!(r >= 500, "cannot stabilize before the last activation");
    }

    #[test]
    fn encode_decode_roundtrip() {
        for pos in 0..30 {
            for bit in 0..2 {
                let t = NonSyncBitConvergence::encode(pos, bit);
                assert_eq!(NonSyncBitConvergence::decode(t), (pos, bit));
            }
        }
    }

    #[test]
    fn tag_fits_announced_budget() {
        let config = TagConfig::for_network(1024, 32);
        let uids = UidPool::random(16, 1);
        let mut nodes = NonSyncBitConvergence::spawn(&uids, config, 2);
        let b = config.nonsync_tag_bits();
        let mut rng = mtm_graph::rng::stream_rng(0, 0);
        for node in &mut nodes {
            for r in 1..=2 * config.group_len {
                let t = node.advertise(r, &mut rng);
                assert!(t.fits(b), "tag {t:?} exceeds b = {b}");
            }
        }
    }

    #[test]
    fn position_constant_within_group() {
        let config = TagConfig { k: 16, group_len: 6 };
        let mut node = NonSyncBitConvergence::new(1, 0x1234 & 0xFFFF, config);
        let mut rng = mtm_graph::rng::stream_rng(0, 1);
        let mut positions = Vec::new();
        for r in 1..=18 {
            let t = node.advertise(r, &mut rng);
            positions.push(NonSyncBitConvergence::decode(t).0);
        }
        // Constant within each group of 6.
        for g in 0..3 {
            let window = &positions[g * 6..(g + 1) * 6];
            assert!(window.iter().all(|&p| p == window[0]), "group {g}: {window:?}");
        }
    }

    #[test]
    fn immediate_adoption() {
        let config = TagConfig { k: 4, group_len: 2 };
        let mut node = NonSyncBitConvergence::new(9, 0b1111, config);
        let mut rng = mtm_graph::rng::stream_rng(0, 2);
        node.on_connect(&IdPair { tag: 0b0001, uid: 2 }, &mut rng);
        assert_eq!(node.leader(), 2, "nonsync adopts immediately");
        node.on_connect(&IdPair { tag: 0b0011, uid: 1 }, &mut rng);
        assert_eq!(node.leader(), 2, "larger tag rejected even with smaller uid");
    }

    #[test]
    fn acts_only_on_matching_position() {
        let config = TagConfig { k: 8, group_len: 4 };
        // Tag 0: every bit is 0, so the node always proposes when possible.
        let mut node = NonSyncBitConvergence::new(1, 0, config);
        let mut rng = mtm_graph::rng::stream_rng(0, 3);
        let t = node.advertise(1, &mut rng);
        let (pos, bit) = NonSyncBitConvergence::decode(t);
        assert_eq!(bit, 0);
        // Neighbors: one advertising (pos, 1), one advertising (pos+1, 1).
        let other_pos = (pos + 1) % config.k;
        let neighbors = [10u32, 11];
        let tags =
            [NonSyncBitConvergence::encode(pos, 1), NonSyncBitConvergence::encode(other_pos, 1)];
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 1, local_round: 1 };
        for _ in 0..10 {
            assert_eq!(node.act(&scan, &mut rng), Action::Propose(10));
        }
    }
}
