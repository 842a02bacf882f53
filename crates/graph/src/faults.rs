//! Deterministic fault injection for smartphone-style deployments.
//!
//! Real smartphone peer-to-peer networks (the deployments §IX of the paper
//! and the follow-up gossip papers target) lose devices to battery death,
//! app suspension, and users walking out of range. The wrappers here
//! inject those faults *underneath* any [`DynamicTopology`], so every
//! existing algorithm runs under faults unchanged:
//!
//! * [`FaultyTopology`] — seed-derived random faults: each node flips
//!   between up and down via a per-round Markov chain (crash with
//!   probability `crash`, recover with probability `recover`), and each
//!   surviving link is independently severed with probability `link_loss`
//!   that round. A down node keeps its protocol state but its radio is
//!   off: all incident edges vanish, so it neither appears in scans nor
//!   forms connections — exactly how the engine already treats isolated
//!   nodes, which is why no engine change is needed.
//! * [`ScheduledCrashes`] — explicit outage windows `(node, from, to)` for
//!   hand-computable tests and repeatable failure scenarios.
//!
//! Both are pure functions of `(seed, config, round)`: the crash chain for
//! round `r` draws from a stream derived from `(seed, r)`, never from
//! call-order-dependent state, so a run replays identically regardless of
//! how the surrounding code is scheduled.
//!
//! Message-level faults (dropping individual connection proposals) live in
//! the engine (`Engine::set_proposal_loss`), since proposals are not
//! visible at the topology layer.

use crate::dynamic::DynamicTopology;
use crate::rng::stream_rng;
use crate::static_graph::{from_edges, Graph, NodeId};
use rand::Rng;

/// Parameters for [`FaultyTopology`]'s random fault process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Per-round probability that an up node crashes.
    pub crash: f64,
    /// Per-round probability that a down node recovers. With both rates
    /// nonzero the long-run fraction of down nodes is
    /// `crash / (crash + recover)`.
    pub recover: f64,
    /// Per-round probability that each individual surviving link is down
    /// this round (interference / range flutter).
    pub link_loss: f64,
}

impl FaultConfig {
    /// No faults at all — [`FaultyTopology`] becomes a transparent
    /// pass-through.
    pub const NONE: FaultConfig = FaultConfig { crash: 0.0, recover: 0.0, link_loss: 0.0 };

    /// Crash/recover churn with perfect links.
    pub fn crashes(crash: f64, recover: f64) -> FaultConfig {
        FaultConfig { crash, recover, link_loss: 0.0 }
    }

    /// Link flutter only, with all nodes permanently up.
    pub fn link_loss(p: f64) -> FaultConfig {
        FaultConfig { crash: 0.0, recover: 0.0, link_loss: p }
    }

    /// True iff every fault probability is zero.
    pub fn is_none(&self) -> bool {
        self.crash == 0.0 && self.recover == 0.0 && self.link_loss == 0.0
    }

    fn validate(&self) {
        for (name, p) in
            [("crash", self.crash), ("recover", self.recover), ("link_loss", self.link_loss)]
        {
            assert!((0.0..=1.0).contains(&p), "{name} probability must be in [0, 1], got {p}");
        }
    }
}

/// Seed-derived random crash/recover and link-failure adversary over any
/// base topology. See the module docs for the fault model.
///
/// Note the faulted graph is usually *disconnected* — a crashed node is
/// isolated by construction — which deliberately steps outside the paper's
/// connectivity assumption; F8 measures how gracefully the algorithms
/// degrade anyway.
pub struct FaultyTopology<T> {
    base: T,
    cfg: FaultConfig,
    seed: u64,
    up: Vec<bool>,
    /// Crash chain advanced through the end of this round (0 = initial).
    chain_round: u64,
    /// Round the cached `current` graph was built for (0 = none yet).
    built_round: u64,
    current: Graph,
}

impl<T: DynamicTopology> FaultyTopology<T> {
    pub fn new(base: T, cfg: FaultConfig, seed: u64) -> Self {
        cfg.validate();
        let n = base.node_count();
        FaultyTopology {
            base,
            cfg,
            seed,
            up: vec![true; n],
            chain_round: 0,
            built_round: 0,
            current: from_edges(n, &[]),
        }
    }

    /// True iff node `u` is up as of the last round built.
    pub fn is_up(&self, u: NodeId) -> bool {
        self.up[u as usize]
    }

    /// Number of up nodes as of the last round built.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&b| b).count()
    }

    /// Advance the crash/recover Markov chain through `round`. One draw
    /// per node per round, from a stream derived from `(seed, round)` —
    /// the chain history is a pure function of the seed.
    fn advance_chain(&mut self, round: u64) {
        while self.chain_round < round {
            self.chain_round += 1;
            // Even streams drive the crash chain; odd streams (used in
            // `build`) drive link loss for the same round.
            let mut rng = stream_rng(self.seed, 2 * self.chain_round);
            for up in &mut self.up {
                let flip = if *up { self.cfg.crash } else { self.cfg.recover };
                if flip > 0.0 && rng.gen_bool(flip) {
                    *up = !*up;
                }
            }
        }
    }

    /// Build the effective graph for `round`: base edges minus edges with
    /// a down endpoint, minus this round's link-loss draws.
    fn build(&mut self, round: u64) {
        let base = self.base.graph_at(round);
        let p = self.cfg.link_loss;
        if p > 0.0 {
            // One link coin per base edge, drawn whatever the endpoints'
            // state, so the stream position depends only on the base edge
            // list, not on crash outcomes.
            let mut link_rng = stream_rng(self.seed, 2 * round + 1);
            base.retain_into(&self.up, || link_rng.gen_bool(p), &mut self.current);
        } else {
            base.retain_into(&self.up, || false, &mut self.current);
        }
        self.built_round = round;
    }
}

impl<T: DynamicTopology> DynamicTopology for FaultyTopology<T> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }
    fn tau(&self) -> Option<u64> {
        if self.cfg.is_none() {
            self.base.tau()
        } else {
            Some(1) // faults may rewire the effective graph every round
        }
    }
    fn graph_at(&mut self, round: u64) -> &Graph {
        assert!(round >= 1, "rounds are 1-based");
        if self.cfg.is_none() {
            return self.base.graph_at(round);
        }
        if round != self.built_round {
            self.advance_chain(round);
            self.build(round);
        }
        &self.current
    }
    fn may_change_at(&self, round: u64) -> bool {
        !self.cfg.is_none() || self.base.may_change_at(round)
    }
    fn is_node_up(&self, u: NodeId, round: u64) -> bool {
        if self.cfg.crash == 0.0 && self.cfg.recover == 0.0 {
            return self.base.is_node_up(u, round);
        }
        // The chain is advanced by `graph_at`; the trait contract requires
        // the caller to have built `round` first, so `up` is current.
        debug_assert!(
            self.chain_round >= round,
            "is_node_up({u}, {round}) before graph_at({round}) advanced the crash chain"
        );
        self.up[u as usize]
    }
}

/// Explicit outage schedule: node `u` is down (radio off, all incident
/// edges removed) during each round window `from ≤ round < to`.
pub struct ScheduledCrashes<T> {
    base: T,
    outages: Vec<(NodeId, u64, u64)>,
    /// Round `up` and `any_down` describe (0 = none yet).
    built_round: u64,
    /// `up[u]` iff no outage window covers `u` at `built_round`.
    up: Vec<bool>,
    /// True iff some node is down at `built_round`. Only then does
    /// `current` hold the filtered graph; otherwise the base passes through.
    any_down: bool,
    current: Graph,
}

impl<T: DynamicTopology> ScheduledCrashes<T> {
    /// `outages` entries are `(node, from_round, to_round)` half-open
    /// windows; overlapping windows for one node union together.
    pub fn new(base: T, outages: Vec<(NodeId, u64, u64)>) -> Self {
        let n = base.node_count();
        for &(u, from, to) in &outages {
            assert!((u as usize) < n, "outage for nonexistent node {u}");
            assert!(
                from >= 1 && from < to,
                "outage window [{from}, {to}) must be ≥ 1 and nonempty"
            );
        }
        ScheduledCrashes {
            base,
            outages,
            built_round: 0,
            up: vec![true; n],
            any_down: false,
            current: from_edges(n, &[]),
        }
    }

    /// True iff node `u` is scheduled down at `round`.
    pub fn is_down(&self, u: NodeId, round: u64) -> bool {
        self.outages.iter().any(|&(v, from, to)| v == u && (from..to).contains(&round))
    }
}

impl<T: DynamicTopology> DynamicTopology for ScheduledCrashes<T> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }
    fn tau(&self) -> Option<u64> {
        if self.outages.is_empty() {
            self.base.tau()
        } else {
            Some(1)
        }
    }
    fn graph_at(&mut self, round: u64) -> &Graph {
        assert!(round >= 1, "rounds are 1-based");
        if round != self.built_round {
            self.up.fill(true);
            self.any_down = false;
            for &(u, from, to) in &self.outages {
                if (from..to).contains(&round) {
                    self.up[u as usize] = false;
                    self.any_down = true;
                }
            }
            self.built_round = round;
        } else if self.any_down {
            return &self.current;
        }
        let base = self.base.graph_at(round);
        if !self.any_down {
            return base;
        }
        base.retain_into(&self.up, || false, &mut self.current);
        &self.current
    }
    fn may_change_at(&self, round: u64) -> bool {
        round <= 1
            || self.base.may_change_at(round)
            || self.outages.iter().any(|&(_, from, to)| round == from || round == to)
    }
    fn is_node_up(&self, u: NodeId, round: u64) -> bool {
        // The trait contract has `graph_at(round)` run first, so its mask
        // answers in O(1); any other round scans the outage list.
        let up =
            if round == self.built_round { self.up[u as usize] } else { !self.is_down(u, round) };
        up && self.base.is_node_up(u, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::StaticTopology;
    use crate::gen;

    fn faulty(cfg: FaultConfig, seed: u64) -> FaultyTopology<StaticTopology> {
        FaultyTopology::new(StaticTopology::new(gen::clique(12)), cfg, seed)
    }

    #[test]
    fn no_faults_is_transparent() {
        let base = gen::clique(8);
        let mut t = FaultyTopology::new(StaticTopology::new(base.clone()), FaultConfig::NONE, 7);
        assert_eq!(t.graph_at(1), &base);
        assert_eq!(t.graph_at(500), &base);
        assert_eq!(t.tau(), None);
        assert!(!t.may_change_at(2));
    }

    #[test]
    fn same_seed_same_fault_history() {
        let cfg = FaultConfig { crash: 0.1, recover: 0.2, link_loss: 0.15 };
        let mut a = faulty(cfg, 42);
        let mut b = faulty(cfg, 42);
        for round in 1..=50 {
            assert_eq!(a.graph_at(round), b.graph_at(round), "round {round} diverged");
        }
    }

    #[test]
    fn fault_history_is_call_pattern_independent() {
        // Querying every round vs. skipping ahead must land on the same
        // graph: the chain is keyed by round, not by call count.
        let cfg = FaultConfig::crashes(0.2, 0.3);
        let mut dense = faulty(cfg, 9);
        let mut sparse = faulty(cfg, 9);
        let mut at25 = from_edges(0, &[]);
        for round in 1..=25 {
            at25 = dense.graph_at(round).clone();
        }
        assert_eq!(sparse.graph_at(25), &at25);
    }

    #[test]
    fn repeated_query_is_stable() {
        let cfg = FaultConfig { crash: 0.3, recover: 0.3, link_loss: 0.3 };
        let mut t = faulty(cfg, 3);
        let g = t.graph_at(4).clone();
        assert_eq!(t.graph_at(4), &g);
    }

    #[test]
    fn crashed_nodes_are_isolated() {
        let cfg = FaultConfig::crashes(0.4, 0.1);
        let mut t = faulty(cfg, 11);
        for round in 1..=30 {
            let g = t.graph_at(round).clone();
            for u in 0..g.node_count() {
                if !t.is_up(u as NodeId) {
                    assert_eq!(
                        g.degree(u as NodeId),
                        0,
                        "down node {u} has edges in round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn crash_chain_reaches_steady_state_mix() {
        // With symmetric rates roughly half the nodes should be down
        // eventually; just require both populations nonempty at some point.
        let cfg = FaultConfig::crashes(0.3, 0.3);
        let mut t = faulty(cfg, 5);
        let mut saw_mixed = false;
        for round in 1..=60 {
            let _ = t.graph_at(round);
            let up = t.up_count();
            if up > 0 && up < 12 {
                saw_mixed = true;
            }
        }
        assert!(saw_mixed, "crash chain never produced a mixed up/down population");
    }

    #[test]
    fn link_loss_only_keeps_all_nodes_up() {
        let mut t = faulty(FaultConfig::link_loss(0.5), 8);
        let full_edges = gen::clique(12).edge_count();
        let mut total = 0usize;
        for round in 1..=40 {
            let g = t.graph_at(round);
            assert_eq!(g.node_count(), 12);
            total += g.edge_count();
        }
        assert_eq!(t.up_count(), 12);
        let mean = total as f64 / 40.0;
        assert!(
            mean > 0.3 * full_edges as f64 && mean < 0.7 * full_edges as f64,
            "p=0.5 link loss should keep ~half the edges, kept {mean:.1}/{full_edges}"
        );
    }

    #[test]
    fn faulty_topology_reports_change_every_round() {
        let t = faulty(FaultConfig::crashes(0.01, 0.1), 1);
        assert!(t.may_change_at(1) && t.may_change_at(2) && t.may_change_at(999));
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = faulty(FaultConfig::crashes(1.5, 0.1), 0);
    }

    #[test]
    fn scheduled_outage_removes_and_restores_edges() {
        let base = gen::star(5); // hub 0, leaves 1..4
        let mut t = ScheduledCrashes::new(StaticTopology::new(base.clone()), vec![(0, 3, 6)]);
        assert_eq!(t.graph_at(2), &base);
        for round in 3..6 {
            let g = t.graph_at(round);
            assert_eq!(g.edge_count(), 0, "hub down must isolate the star in round {round}");
        }
        assert_eq!(t.graph_at(6), &base);
        // Change rounds are exactly the window boundaries.
        assert!(t.may_change_at(3) && t.may_change_at(6));
        assert!(!t.may_change_at(4) && !t.may_change_at(5) && !t.may_change_at(7));
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn outage_for_missing_node_rejected() {
        let _ = ScheduledCrashes::new(StaticTopology::new(gen::clique(3)), vec![(9, 1, 2)]);
    }

    #[test]
    fn outage_window_is_half_open() {
        // `(node, from, to)` means down for `from ≤ round < to`: inclusive
        // at `from`, exclusive at `to`.
        let t = ScheduledCrashes::new(StaticTopology::new(gen::clique(4)), vec![(1, 5, 8)]);
        assert!(!t.is_down(1, 4), "round before the window must be up");
        assert!(t.is_down(1, 5), "window start is inclusive");
        assert!(t.is_down(1, 6) && t.is_down(1, 7), "interior rounds are down");
        assert!(!t.is_down(1, 8), "window end is exclusive");
        assert!(!t.is_down(1, 9));
        // Other nodes are untouched, including at the boundaries.
        assert!(!t.is_down(0, 5) && !t.is_down(2, 7));
    }

    #[test]
    fn overlapping_outages_union() {
        let t =
            ScheduledCrashes::new(StaticTopology::new(gen::clique(4)), vec![(2, 3, 6), (2, 5, 9)]);
        for round in 3..9 {
            assert!(t.is_down(2, round), "round {round} inside the union must be down");
        }
        assert!(!t.is_down(2, 2) && !t.is_down(2, 9));
    }

    #[test]
    fn is_node_up_matches_is_down_and_graph() {
        let base = gen::clique(5);
        let mut t = ScheduledCrashes::new(StaticTopology::new(base), vec![(0, 2, 4), (3, 3, 5)]);
        for u in 0..5u32 {
            assert_eq!(t.is_node_up(u, 3), !t.is_down(u, 3), "node {u} before any build");
        }
        for round in 1..=6 {
            let g = t.graph_at(round).clone();
            for u in 0..5u32 {
                assert_eq!(t.is_node_up(u, round), !t.is_down(u, round), "node {u} round {round}");
                if !t.is_node_up(u, round) {
                    assert_eq!(g.degree(u), 0, "down node {u} has edges in round {round}");
                }
                // Rounds other than the one just built fall back to the schedule.
                for other in (1..=7).filter(|&r| r != round) {
                    assert_eq!(
                        t.is_node_up(u, other),
                        !t.is_down(u, other),
                        "node {u} round {other} queried after building {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn crash_chain_deterministic_across_reseeded_clones() {
        // A fresh instance with the same (config, seed) replays the exact
        // crash→recover chain of an instance that has been running for a
        // while — and the chain history at every prefix matches, not just
        // the final graph.
        let cfg = FaultConfig::crashes(0.25, 0.15);
        let mut original = faulty(cfg, 1234);
        let mut up_history = Vec::new();
        for round in 1..=40 {
            let _ = original.graph_at(round);
            up_history.push((0..12).map(|u| original.is_up(u as NodeId)).collect::<Vec<bool>>());
        }
        let mut clone = faulty(cfg, 1234);
        for round in 1..=40 {
            let _ = clone.graph_at(round);
            let ups: Vec<bool> = (0..12).map(|u| clone.is_up(u as NodeId)).collect();
            assert_eq!(ups, up_history[(round - 1) as usize], "chain diverged at round {round}");
            for u in 0..12u32 {
                assert_eq!(clone.is_node_up(u, round), ups[u as usize]);
            }
        }
        // A different seed must (with overwhelming probability) produce a
        // different chain — the history is seed-derived, not constant.
        let mut other = faulty(cfg, 4321);
        let mut diverged = false;
        for round in 1..=40 {
            let _ = other.graph_at(round);
            let ups: Vec<bool> = (0..12).map(|u| other.is_up(u as NodeId)).collect();
            if ups != up_history[(round - 1) as usize] {
                diverged = true;
            }
        }
        assert!(diverged, "reseeding with a new seed never changed the chain");
    }
}
