//! Bit convergence leader election (§VII): `b = 1`, synchronized starts.
//!
//! Each node pairs its UID with a random `k = ⌈β·log₂ N⌉`-bit *ID tag* and
//! maintains the smallest ID pair it has encountered (ordered by tag, ties
//! on UID). Rounds are partitioned into groups of `2·log Δ`; `k` consecutive
//! groups form a phase, group `i` of a phase mapped to tag-bit position `i`
//! (most significant first).
//!
//! At the start of each phase a node adopts the smallest pair it has stored
//! and sets `leader` to that pair's UID. During group `i` the node runs
//! PPUSH keyed on bit `i` of its adopted tag: it advertises the bit; nodes
//! advertising `0` (holders of potentially smaller tags) propose to
//! uniformly random neighbors advertising `1`; connected pairs trade
//! smallest ID pairs, storing (not adopting) what they receive until the
//! next phase boundary.
//!
//! Theorem VII.2: stabilizes in `O((1/α)·Δ^(1/τ̂)·τ̂·log⁵n)` rounds where
//! `τ̂ = min{τ, log Δ}` — from a factor-`Δ` to a factor-`Δ²` improvement
//! over blind gossip as `τ` grows from 1 to `log Δ`.
//!
//! **Synchronization assumption**: all nodes activate in round 1 (global
//! and local round counters coincide). Use
//! [`crate::NonSyncBitConvergence`] when activations are staggered.

use mtm_engine::{ActRule, LeaderView, Protocol, Tag};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::TagConfig;
use crate::id::{IdPair, UidPool};

/// Per-node state of the synchronized bit convergence algorithm.
#[derive(Clone, Debug)]
pub struct BitConvergence {
    uid: u64,
    config: TagConfig,
    /// The pair adopted at the current phase boundary (`(Î_u, t̂_u)`).
    active: IdPair,
    /// Smallest pair encountered so far (staged for the next boundary).
    pending: IdPair,
    /// The `leader` variable (UID of `active`).
    leader: u64,
    /// Bit advertised this round (cached between `advertise` and `act`).
    current_bit: u32,
}

impl BitConvergence {
    /// A node with the given UID and ID tag (tag must fit `config.k` bits).
    pub fn new(uid: u64, tag: u64, config: TagConfig) -> BitConvergence {
        assert!(config.k == 63 || tag < (1u64 << config.k), "tag wider than k bits");
        let own = IdPair { tag, uid };
        BitConvergence { uid, config, active: own, pending: own, leader: uid, current_bit: 0 }
    }

    /// One node per UID, with independent uniform `k`-bit tags derived from
    /// `tag_seed`.
    pub fn spawn(uids: &UidPool, config: TagConfig, tag_seed: u64) -> Vec<BitConvergence> {
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
                BitConvergence::new(uid, tag, config)
            })
            .collect()
    }

    /// The currently adopted smallest ID pair.
    pub fn active_pair(&self) -> IdPair {
        self.active
    }

    /// The staged (pending) smallest ID pair.
    pub fn pending_pair(&self) -> IdPair {
        self.pending
    }
}

impl Protocol for BitConvergence {
    type Payload = IdPair;

    fn advertise(&mut self, local_round: u64, _rng: &mut SmallRng) -> Tag {
        // Synchronized starts: local_round == global round.
        let (phase_start, group) = self.config.locate(local_round);
        if phase_start {
            self.active = self.pending;
            self.leader = self.active.uid;
        }
        self.current_bit = self.active.tag_bit(group, self.config.k);
        Tag(self.current_bit)
    }

    fn act_rule(&self) -> ActRule {
        if self.current_bit == 1 {
            // Potentially larger tag: receive only this group.
            ActRule::Listen
        } else {
            // Bit 0: propose to a uniformly random neighbor advertising 1.
            ActRule::PushTo(Tag(1))
        }
    }

    fn payload(&self) -> IdPair {
        self.active
    }

    fn on_connect(&mut self, peer: &IdPair, _rng: &mut SmallRng) {
        // Store for the next phase boundary; do not adopt mid-phase (§VII:
        // "nodes only update their smallest ID pairs at the beginning of
        // each phase").
        self.pending = self.pending.min(*peer);
    }

    fn state_fingerprint(&self) -> Option<u64> {
        // Durable state only: active + pending pairs and the derived
        // leader. `current_bit` is per-round scratch recomputed from
        // `active` each advertise — at a fixed point it cycles through the
        // same sequence and must not register as progress.
        Some(mtm_engine::fingerprint::of_words(&[
            self.active.tag,
            self.active.uid,
            self.pending.tag,
            self.pending.uid,
            self.leader,
        ]))
    }

    fn supports_check(&self) -> bool {
        true
    }

    fn state_words(&self, out: &mut Vec<u64>) {
        // Same words as the fingerprint, unhashed: `current_bit` is scratch
        // recomputed from `active` by every advertise.
        out.extend_from_slice(&[
            self.active.tag,
            self.active.uid,
            self.pending.tag,
            self.pending.uid,
            self.leader,
        ]);
    }
}

impl LeaderView for BitConvergence {
    fn leader(&self) -> u64 {
        self.leader
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

    fn winner_pair(nodes: &[BitConvergence]) -> IdPair {
        nodes
            .iter()
            .map(|n| IdPair { tag: n.pending.tag, uid: n.pending.uid })
            .min()
            .expect("test network has nodes")
    }

    fn run(g: mtm_graph::Graph, seed: u64, max_rounds: u64) -> (mtm_engine::RunOutcome, IdPair) {
        let n = g.node_count();
        let config = TagConfig::for_network(n, g.max_degree());
        let uids = UidPool::random(n, seed ^ 0xBEEF);
        let nodes = BitConvergence::spawn(&uids, config, seed ^ 0xCAFE);
        let expect = nodes.iter().map(|x| x.active).min().expect("test network has nodes");
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            nodes,
            seed,
        );
        let out = e.run_to_stabilization(max_rounds);
        (out, expect)
    }

    #[test]
    fn elects_smallest_pair_on_clique() {
        let (out, expect) = run(gen::clique(32), 1, 1_000_000);
        assert_eq!(out.winner, Some(expect.uid));
    }

    #[test]
    fn elects_smallest_pair_on_line_of_stars() {
        let (out, expect) = run(gen::line_of_stars(4, 4), 2, 2_000_000);
        assert_eq!(out.winner, Some(expect.uid));
    }

    #[test]
    fn elects_smallest_pair_on_expander() {
        let (out, expect) = run(gen::random_regular(32, 4, 7), 3, 1_000_000);
        assert_eq!(out.winner, Some(expect.uid));
    }

    #[test]
    fn works_under_full_churn() {
        use mtm_graph::dynamic::RelabelingAdversary;
        let base = gen::line_of_stars(3, 3);
        let n = base.node_count();
        let config = TagConfig::for_network(n, base.max_degree());
        let uids = UidPool::random(n, 5);
        let nodes = BitConvergence::spawn(&uids, config, 6);
        let expect = nodes.iter().map(|x| x.active).min().expect("test network has nodes");
        let mut e = Engine::new(
            RelabelingAdversary::new(base, 1, 8),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            nodes,
            9,
        );
        let out = e.run_to_stabilization(5_000_000);
        assert_eq!(out.winner, Some(expect.uid));
    }

    #[test]
    fn mid_phase_adoption_deferred() {
        let config = TagConfig { k: 4, group_len: 2 };
        let mut node = BitConvergence::new(10, 0b1111, config);
        let mut rng = mtm_graph::rng::stream_rng(0, 0);
        // Round 1 (phase start): adopt own pair.
        let _ = node.advertise(1, &mut rng);
        assert_eq!(node.leader(), 10);
        // Receive a smaller pair mid-phase: leader unchanged until the
        // next phase boundary.
        node.on_connect(&IdPair { tag: 0b0001, uid: 3 }, &mut rng);
        let _ = node.advertise(2, &mut rng);
        assert_eq!(node.leader(), 10, "must not adopt mid-phase");
        assert_eq!(node.active_pair().uid, 10);
        assert_eq!(node.pending_pair().uid, 3);
        // Next phase boundary: phase_len = 8 → round 9.
        let _ = node.advertise(9, &mut rng);
        assert_eq!(node.leader(), 3);
        assert_eq!(node.active_pair().uid, 3);
    }

    #[test]
    fn advertised_bit_tracks_group_position() {
        let config = TagConfig { k: 4, group_len: 3 };
        let mut node = BitConvergence::new(1, 0b1010, config);
        let mut rng = mtm_graph::rng::stream_rng(0, 1);
        // Groups: rounds 1-3 → bit 0 (MSB = 1), 4-6 → bit 1 (0),
        // 7-9 → bit 2 (1), 10-12 → bit 3 (0).
        let expect = [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0];
        for (r, &want) in expect.iter().enumerate() {
            let t = node.advertise(r as u64 + 1, &mut rng);
            assert_eq!(t, Tag(want), "round {}", r + 1);
        }
    }

    #[test]
    fn one_bit_node_listens() {
        let config = TagConfig { k: 2, group_len: 2 };
        let mut node = BitConvergence::new(1, 0b10, config);
        let mut rng = mtm_graph::rng::stream_rng(0, 2);
        let _ = node.advertise(1, &mut rng); // group 0, bit 1
        let neighbors = [2u32];
        let tags = [Tag(0)];
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 1, local_round: 1 };
        assert_eq!(node.act(&scan, &mut rng), Action::Listen);
    }

    #[test]
    fn zero_bit_node_targets_one_advertisers() {
        let config = TagConfig { k: 2, group_len: 2 };
        let mut node = BitConvergence::new(1, 0b01, config);
        let mut rng = mtm_graph::rng::stream_rng(0, 3);
        let _ = node.advertise(1, &mut rng); // group 0, bit 0
        let neighbors = [5u32, 6, 7];
        let tags = [Tag(0), Tag(1), Tag(0)];
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 1, local_round: 1 };
        for _ in 0..10 {
            assert_eq!(node.act(&scan, &mut rng), Action::Propose(6));
        }
    }

    #[test]
    fn winner_is_min_pair_not_min_uid() {
        // Construct tags so the min-UID node has the largest tag: the
        // winner must be the min-(tag, uid) holder.
        let config = TagConfig { k: 8, group_len: 2 };
        let nodes = vec![
            BitConvergence::new(1, 0xFF, config), // smallest uid, biggest tag
            BitConvergence::new(2, 0x01, config), // winner
            BitConvergence::new(3, 0x80, config),
        ];
        let mut e = Engine::new(
            StaticTopology::new(gen::clique(3)),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(3),
            nodes,
            4,
        );
        let out = e.run_to_stabilization(100_000);
        assert_eq!(out.winner, Some(2));
        let _ = winner_pair(e.nodes());
    }

    #[test]
    #[should_panic(expected = "wider than k")]
    fn tag_width_checked() {
        let config = TagConfig { k: 4, group_len: 2 };
        BitConvergence::new(1, 0x10, config);
    }
}
