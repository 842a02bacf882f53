//! Rumor spreading (Section V): one protocol, [`Rumor`], whose
//! [`Strategy`] decides which nodes propose.
//!
//! Every strategy holds one bit and trades it over every connection, so a
//! connection informs both ends if either end knows the rumor. The
//! strategies differ only in what a node advertises and its act rule:
//!
//! * [`Strategy::PushPull`] — the classical strategy, `b = 0`: coin-flip
//!   send/receive, uniform neighbor choice, both directions trade the
//!   rumor. Run under the mobile policy it is the subject of Corollary
//!   VI.6 (`O((1/α)·Δ²·log²n)`); run under the classical
//!   [`mtm_engine::ConnectionPolicy::AcceptAll`] policy it is the textbook
//!   baseline for the model-gap experiment.
//! * [`Strategy::Ppush`] — *productive push*, `b = 1` (from \[1\], Theorem
//!   V.2): informed nodes advertise `0`, uninformed advertise `1`; an
//!   informed node proposes to a uniformly random neighbor advertising `1`
//!   (if any), an uninformed node listens. The bit makes every connection
//!   productive.
//! * [`Strategy::PushOnly`] and [`Strategy::PullOnly`] — `b = 0` direction
//!   ablations (experiment A3): only informed, respectively uninformed,
//!   nodes flip the coin; the rest listen. Who proposes fixes the
//!   direction: a PUSH-only proposer is informed, so the rumor can only
//!   move to its receiver, and a PULL-only proposer is uninformed, so it
//!   can only move back to the proposer.

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

/// Which nodes propose, and what they advertise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Classical PUSH-PULL, `b = 0`: every node flips the coin.
    PushPull,
    /// Productive push, `b = 1`: informed nodes propose to uninformed ones.
    Ppush,
    /// `b = 0`: informed nodes flip the coin, uninformed nodes listen.
    PushOnly,
    /// `b = 0`: uninformed nodes flip the coin, informed nodes listen.
    PullOnly,
}

impl Strategy {
    /// Every strategy.
    pub const ALL: [Strategy; 4] =
        [Strategy::PushPull, Strategy::Ppush, Strategy::PushOnly, Strategy::PullOnly];

    /// The strategy's name on the command line and in checker reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::PushPull => "push-pull",
            Strategy::Ppush => "ppush",
            Strategy::PushOnly => "push-only",
            Strategy::PullOnly => "pull-only",
        }
    }

    /// The strategy called `name`, if any.
    pub fn parse(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Tag bits the strategy advertises: the model's `b`.
    pub fn tag_bits(self) -> u32 {
        u32::from(self == Strategy::Ppush)
    }
}

/// One rumor-spreading node.
#[derive(Clone, Debug)]
pub struct Rumor {
    strategy: Strategy,
    informed: bool,
}

impl Rumor {
    /// A node that starts informed or not.
    pub fn new(strategy: Strategy, informed: bool) -> Rumor {
        Rumor { strategy, informed }
    }

    /// `n` nodes with exactly `sources` informed (nodes `0..sources`).
    pub fn spawn(strategy: Strategy, n: usize, sources: usize) -> Vec<Rumor> {
        assert!(sources >= 1 && sources <= n);
        (0..n).map(|u| Rumor::new(strategy, u < sources)).collect()
    }
}

impl Protocol for Rumor {
    type Payload = RumorBit;

    fn advertise(&mut self, _local_round: u64, _rng: &mut SmallRng) -> Tag {
        match self.strategy {
            // PPUSH tag convention: informed → 0, uninformed → 1.
            Strategy::Ppush => Tag(u32::from(!self.informed)),
            _ => Tag::EMPTY,
        }
    }

    fn act_rule(&self) -> ActRule {
        match (self.strategy, self.informed) {
            (Strategy::PushPull, _) | (Strategy::PushOnly, true) | (Strategy::PullOnly, false) => {
                ActRule::CoinFlip
            }
            // A uniformly random neighbor advertising 1, else listen.
            (Strategy::Ppush, true) => ActRule::PushTo(Tag(1)),
            _ => ActRule::Listen,
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

impl RumorView for Rumor {
    fn informed(&self) -> bool {
        self.informed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_engine::{Action, ActivationSchedule, Engine, ModelParams, Scan};
    use mtm_graph::{gen, StaticTopology};

    fn spread(strategy: Strategy, g: mtm_graph::Graph, seed: u64, max: u64) -> Option<u64> {
        let n = g.node_count();
        let mut e = Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(strategy.tag_bits()),
            ActivationSchedule::synchronized(n),
            Rumor::spawn(strategy, n, 1),
            seed,
        );
        e.run_to_full_information(max).stabilized_round
    }

    #[test]
    fn act_rules_follow_the_strategy_table() {
        use ActRule::{CoinFlip, Listen, PushTo};
        let table = [
            (Strategy::PushPull, CoinFlip, CoinFlip),
            (Strategy::Ppush, PushTo(Tag(1)), Listen),
            (Strategy::PushOnly, CoinFlip, Listen),
            (Strategy::PullOnly, Listen, CoinFlip),
        ];
        for (strategy, informed, uninformed) in table {
            assert_eq!(Rumor::new(strategy, true).act_rule(), informed, "{strategy:?} informed");
            assert_eq!(
                Rumor::new(strategy, false).act_rule(),
                uninformed,
                "{strategy:?} uninformed"
            );
        }
    }

    #[test]
    fn strategy_names_parse_back() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert_eq!(Strategy::parse("classical"), None);
    }

    #[test]
    fn every_strategy_informs_clique_and_path() {
        for (i, s) in (0..).zip(Strategy::ALL) {
            assert!(spread(s, gen::clique(64), i, 100_000).is_some(), "{s:?} on a clique");
            assert!(spread(s, gen::path(20), i + 4, 1_000_000).is_some(), "{s:?} on a path");
        }
    }

    #[test]
    fn ppush_faster_than_push_pull_on_star_like_graph() {
        // On a line of stars the hub degree punishes blind proposals;
        // PPUSH focuses connections on uninformed nodes. Compare medians
        // over a few seeds.
        let rounds = |s: Strategy| -> u64 {
            let mut xs: Vec<u64> = (0..5)
                .map(|seed| {
                    spread(s, gen::line_of_stars(4, 16), seed, 5_000_000).expect("must finish")
                })
                .collect();
            xs.sort_unstable();
            xs[2]
        };
        let (pp, pr) = (rounds(Strategy::PushPull), rounds(Strategy::Ppush));
        assert!(
            pr < pp,
            "PPUSH (median {pr}) should beat PUSH-PULL (median {pp}) on the line of stars"
        );
    }

    #[test]
    fn informed_flag_monotone() {
        let mut rng = mtm_graph::rng::stream_rng(0, 0);
        let mut n = Rumor::new(Strategy::PushPull, true);
        n.on_connect(&RumorBit(false), &mut rng);
        assert!(n.informed(), "rumor must never be forgotten");
        let mut m = Rumor::new(Strategy::Ppush, false);
        m.on_connect(&RumorBit(true), &mut rng);
        assert!(m.informed());
    }

    #[test]
    fn ppush_informed_with_no_uninformed_neighbors_listens() {
        let mut node = Rumor::new(Strategy::Ppush, true);
        let neighbors = [1u32, 2];
        let tags = [Tag(0), Tag(0)];
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 1, local_round: 1 };
        let mut rng = mtm_graph::rng::stream_rng(0, 1);
        assert_eq!(node.act(&scan, &mut rng), Action::Listen);
    }

    #[test]
    fn ppush_targets_only_uninformed() {
        let mut node = Rumor::new(Strategy::Ppush, true);
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
                Rumor::spawn(Strategy::PushPull, n, 1),
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

    #[test]
    fn push_pull_beats_push_only_on_star_pulls() {
        // On a star with the source at a leaf, PUSH alone must wait for the
        // source to push to the hub and the hub to push n-1 times; PULL
        // lets uninformed leaves fetch from the hub concurrently with the
        // hub's own pushes. PUSH-PULL ≤ PUSH-only in rounds (medians).
        let median = |s: Strategy| {
            let mut xs: Vec<u64> = (0..5)
                .map(|seed| {
                    spread(s, gen::star(48), seed, 10_000_000)
                        .expect("the strategy completes on this instance")
                })
                .collect();
            xs.sort_unstable();
            xs[2]
        };
        let (push_only, push_pull) = (median(Strategy::PushOnly), median(Strategy::PushPull));
        assert!(
            push_pull <= push_only,
            "PUSH-PULL ({push_pull}) should not lose to PUSH-only ({push_only})"
        );
    }
}
