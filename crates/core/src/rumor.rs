//! Rumor spreading strategies (Section V).
//!
//! * [`PushPull`] — the classical strategy, `b = 0`: coin-flip send/receive,
//!   uniform neighbor choice, both directions trade the rumor. Run under the
//!   mobile policy it is the subject of Corollary VI.6
//!   (`O((1/α)·Δ²·log²n)`); run under the classical
//!   [`mtm_engine::ConnectionPolicy::AcceptAll`] policy it is the textbook
//!   baseline for the model-gap experiment.
//! * [`Ppush`] — *productive push*, `b = 1` (from \[1\], Theorem V.2):
//!   informed nodes advertise `0`, uninformed advertise `1`; an informed
//!   node proposes to a uniformly random neighbor advertising `1` (if any),
//!   an uninformed node listens. The bit makes every connection productive.

use mtm_engine::{ActRule, PayloadCost, Protocol, RumorView, Tag};
use rand::rngs::SmallRng;

/// One-bit payload: whether the sender knows the rumor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RumorBit(pub bool);

impl PayloadCost for RumorBit {
    fn uid_count(&self) -> u32 {
        0
    }
    fn extra_bits(&self) -> u32 {
        1
    }
}

/// Classical PUSH-PULL, `b = 0`.
#[derive(Clone, Debug)]
pub struct PushPull {
    informed: bool,
}

impl PushPull {
    /// A node that starts informed or not.
    pub fn new(informed: bool) -> PushPull {
        PushPull { informed }
    }

    /// `n` nodes with exactly `sources` informed (nodes `0..sources`).
    pub fn spawn(n: usize, sources: usize) -> Vec<PushPull> {
        assert!(sources >= 1 && sources <= n);
        (0..n).map(|u| PushPull::new(u < sources)).collect()
    }
}

impl Protocol for PushPull {
    type Payload = RumorBit;

    fn advertise(&mut self, _local_round: u64, _rng: &mut SmallRng) -> Tag {
        Tag::EMPTY
    }

    fn act_rule(&self) -> ActRule {
        ActRule::CoinFlip
    }

    fn payload(&self) -> RumorBit {
        RumorBit(self.informed)
    }

    fn on_connect(&mut self, peer: &RumorBit, _rng: &mut SmallRng) {
        self.informed |= peer.0;
    }

    fn state_words(&self, out: &mut Vec<u64>) {
        out.push(self.informed as u64);
    }
}

impl RumorView for PushPull {
    fn informed(&self) -> bool {
        self.informed
    }
}

/// Productive push (PPUSH), `b = 1`.
#[derive(Clone, Debug)]
pub struct Ppush {
    informed: bool,
}

impl Ppush {
    /// A node that starts informed or not.
    pub fn new(informed: bool) -> Ppush {
        Ppush { informed }
    }

    /// `n` nodes with exactly `sources` informed (nodes `0..sources`).
    pub fn spawn(n: usize, sources: usize) -> Vec<Ppush> {
        assert!(sources >= 1 && sources <= n);
        (0..n).map(|u| Ppush::new(u < sources)).collect()
    }

    /// PPUSH tag convention: informed → 0, uninformed → 1.
    fn my_tag(&self) -> Tag {
        if self.informed {
            Tag(0)
        } else {
            Tag(1)
        }
    }
}

impl Protocol for Ppush {
    type Payload = RumorBit;

    fn advertise(&mut self, _local_round: u64, _rng: &mut SmallRng) -> Tag {
        self.my_tag()
    }

    fn act_rule(&self) -> ActRule {
        if self.informed {
            // Propose to a uniformly random neighbor advertising 1.
            ActRule::PushTo(Tag(1))
        } else {
            // Advertising 1: receive only.
            ActRule::Listen
        }
    }

    fn payload(&self) -> RumorBit {
        RumorBit(self.informed)
    }

    fn on_connect(&mut self, peer: &RumorBit, _rng: &mut SmallRng) {
        self.informed |= peer.0;
    }

    fn state_words(&self, out: &mut Vec<u64>) {
        out.push(self.informed as u64);
    }
}

impl RumorView for Ppush {
    fn informed(&self) -> bool {
        self.informed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_engine::{Action, ActivationSchedule, Engine, ModelParams, Scan};
    use mtm_graph::{gen, StaticTopology};

    fn spread_push_pull(g: mtm_graph::Graph, seed: u64, max: u64) -> Option<u64> {
        let n = g.node_count();
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            PushPull::spawn(n, 1),
            seed,
        );
        e.run_to_full_information(max).stabilized_round
    }

    fn spread_ppush(g: mtm_graph::Graph, seed: u64, max: u64) -> Option<u64> {
        let n = g.node_count();
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            Ppush::spawn(n, 1),
            seed,
        );
        e.run_to_full_information(max).stabilized_round
    }

    #[test]
    fn push_pull_informs_clique() {
        assert!(spread_push_pull(gen::clique(64), 1, 100_000).is_some());
    }

    #[test]
    fn push_pull_informs_path() {
        assert!(spread_push_pull(gen::path(20), 2, 1_000_000).is_some());
    }

    #[test]
    fn ppush_informs_clique() {
        assert!(spread_ppush(gen::clique(64), 3, 100_000).is_some());
    }

    #[test]
    fn ppush_faster_than_push_pull_on_star_like_graph() {
        // On a line of stars the hub degree punishes blind proposals;
        // PPUSH focuses connections on uninformed nodes. Compare medians
        // over a few seeds.
        let rounds = |f: &dyn Fn(u64) -> Option<u64>| -> u64 {
            let mut xs: Vec<u64> = (0..5).map(|s| f(s).expect("must finish")).collect();
            xs.sort_unstable();
            xs[2]
        };
        let pp = rounds(&|s| spread_push_pull(gen::line_of_stars(4, 16), s, 5_000_000));
        let pr = rounds(&|s| spread_ppush(gen::line_of_stars(4, 16), s, 5_000_000));
        assert!(
            pr < pp,
            "PPUSH (median {pr}) should beat PUSH-PULL (median {pp}) on the line of stars"
        );
    }

    #[test]
    fn informed_flag_monotone() {
        let mut rng = mtm_graph::rng::stream_rng(0, 0);
        let mut n = PushPull::new(true);
        n.on_connect(&RumorBit(false), &mut rng);
        assert!(n.informed(), "rumor must never be forgotten");
        let mut m = Ppush::new(false);
        m.on_connect(&RumorBit(true), &mut rng);
        assert!(m.informed());
    }

    #[test]
    fn ppush_informed_with_no_uninformed_neighbors_listens() {
        let mut node = Ppush::new(true);
        let neighbors = [1u32, 2];
        let tags = [Tag(0), Tag(0)];
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 1, local_round: 1 };
        let mut rng = mtm_graph::rng::stream_rng(0, 1);
        assert_eq!(node.act(&scan, &mut rng), Action::Listen);
    }

    #[test]
    fn ppush_targets_only_uninformed() {
        let mut node = Ppush::new(true);
        let neighbors = [1u32, 2, 3];
        let tags = [Tag(0), Tag(1), Tag(0)];
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 1, local_round: 1 };
        let mut rng = mtm_graph::rng::stream_rng(0, 2);
        for _ in 0..20 {
            assert_eq!(node.act(&scan, &mut rng), Action::Propose(2));
        }
    }

    #[test]
    fn classical_push_pull_beats_mobile_on_star() {
        // The Daum et al. observation: with unbounded acceptance the star
        // hub informs everyone almost immediately; with single-accept the
        // hub is a bottleneck.
        let g = gen::star(128);
        let n = g.node_count();
        let run = |params, seed| {
            let mut e = Engine::new(
                StaticTopology::new(g.clone()),
                params,
                ActivationSchedule::synchronized(n),
                PushPull::spawn(n, 1),
                seed,
            );
            e.run_to_full_information(10_000_000)
                .stabilized_round
                .expect("PUSH-PULL informs the clique within the round budget")
        };
        let classical: u64 = (0..3).map(|s| run(ModelParams::classical(), s)).sum();
        let mobile: u64 = (0..3).map(|s| run(ModelParams::mobile(0), s)).sum();
        assert!(
            classical * 4 < mobile,
            "classical ({classical}) should be ≫ faster than mobile ({mobile}) on a star"
        );
    }
}
