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
//!   probability `crash`, recover with probability `recover`). A down node
//!   keeps its protocol state but its radio is off: all incident edges
//!   vanish, so it neither appears in scans nor forms connections — exactly
//!   how the engine already treats isolated nodes, which is why no engine
//!   change is needed.
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
use crate::static_graph::{from_edges, nid, Graph, NodeId};
use rand::distributions::{Bernoulli, Distribution};

/// Parameters for [`FaultyTopology`]'s random fault process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Per-round probability that an up node crashes.
    pub crash: f64,
    /// Per-round probability that a down node recovers. With both rates
    /// nonzero the long-run fraction of down nodes is
    /// `crash / (crash + recover)`.
    pub recover: f64,
}

impl FaultConfig {
    /// No faults at all — [`FaultyTopology`] becomes a transparent
    /// pass-through.
    pub const NONE: FaultConfig = FaultConfig { crash: 0.0, recover: 0.0 };

    /// Crash/recover churn.
    pub fn crashes(crash: f64, recover: f64) -> FaultConfig {
        FaultConfig { crash, recover }
    }

    /// True iff every fault probability is zero.
    pub fn is_none(&self) -> bool {
        self.crash == 0.0 && self.recover == 0.0
    }

    fn validate(&self) {
        for (name, p) in [("crash", self.crash), ("recover", self.recover)] {
            assert!((0.0..=1.0).contains(&p), "{name} probability must be in [0, 1], got {p}");
        }
    }
}

/// The coin for a fault rate: `None` at rate 0, which draws nothing.
fn coin(p: f64) -> Option<Bernoulli> {
    (p > 0.0).then(|| Bernoulli::new(p).expect("validated probability"))
}

/// True iff `base`'s graph at `round` is the one it returned at `built`
/// (0 = nothing built yet): no round in `built + 1..=round` may change it.
/// A gap longer than the node count counts as a change, since scanning it
/// would cost more than re-filtering.
fn base_held_still<T: DynamicTopology>(base: &T, built: u64, round: u64) -> bool {
    built != 0
        && built < round
        && round - built <= base.node_count() as u64
        && (built + 1..=round).all(|r| !base.may_change_at(r))
}

/// Seed-derived random crash/recover adversary over any base topology. See
/// the module docs for the fault model.
///
/// Note the faulted graph is usually *disconnected* — a crashed node is
/// isolated by construction — which deliberately steps outside the paper's
/// connectivity assumption; F8 measures how gracefully the algorithms
/// degrade anyway.
///
/// A round's graph is patched from the previous one around the nodes that
/// flipped (DESIGN.md, "Fault stack cost model").
pub struct FaultyTopology<T> {
    base: T,
    cfg: FaultConfig,
    seed: u64,
    /// Crash-chain coins, indexed by `!up`: `[crash, recover]`.
    flip: [Option<Bernoulli>; 2],
    up: Vec<bool>,
    /// Nodes the chain flipped since `current` was built, maybe repeated.
    flipped: Vec<NodeId>,
    /// Crash chain advanced through the end of this round (0 = initial).
    chain_round: u64,
    /// Round the cached `current` graph was built for (0 = none yet).
    built_round: u64,
    current: Graph,
    /// Second CSR buffer: a patch writes it, then swaps it with `current`.
    spare: Graph,
}

impl<T: DynamicTopology> FaultyTopology<T> {
    pub fn new(base: T, cfg: FaultConfig, seed: u64) -> Self {
        cfg.validate();
        let n = base.node_count();
        FaultyTopology {
            base,
            cfg,
            seed,
            flip: [coin(cfg.crash), coin(cfg.recover)],
            up: vec![true; n],
            flipped: Vec::new(),
            chain_round: 0,
            built_round: 0,
            current: from_edges(n, &[]),
            spare: from_edges(n, &[]),
        }
    }

    /// Advance the crash/recover Markov chain through `round`. One draw
    /// per node per round, from a stream derived from `(seed, round)` —
    /// the chain history is a pure function of the seed.
    fn advance_chain(&mut self, round: u64) {
        while self.chain_round < round {
            self.chain_round += 1;
            // Round r draws from stream 2r: renumbering the streams would
            // change every recorded churn run.
            let mut rng = stream_rng(self.seed, 2 * self.chain_round);
            for (u, up) in self.up.iter_mut().enumerate() {
                if let Some(coin) = &self.flip[usize::from(!*up)] {
                    if coin.sample(&mut rng) {
                        *up = !*up;
                        self.flipped.push(nid(u));
                    }
                }
            }
        }
    }

    /// Build the effective graph for `round`: base edges minus edges with
    /// a down endpoint.
    fn build(&mut self, round: u64) {
        let held_still = base_held_still(&self.base, self.built_round, round);
        let base = self.base.graph_at(round);
        if held_still {
            // Only rows at or next to a flipped node can differ.
            base.patch_into(&self.up, &self.flipped, &self.current, &mut self.spare);
            std::mem::swap(&mut self.current, &mut self.spare);
        } else {
            // First build, or the base may have changed: every row away
            // from a down node is the base's own.
            self.flipped.clear();
            self.flipped.extend((0..self.up.len()).filter(|&u| !self.up[u]).map(nid));
            base.patch_into(&self.up, &self.flipped, base, &mut self.current);
        }
        self.flipped.clear();
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
        if self.cfg.is_none() {
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
    /// Round `up` and `down` describe (0 = none yet).
    built_round: u64,
    /// `up[u]` iff no outage window covers `u` at `built_round`.
    up: Vec<bool>,
    /// The nodes of the windows covering `built_round`, in `outages`
    /// order. Only while it is nonempty does `current` hold the filtered
    /// graph; otherwise the base passes through.
    down: Vec<NodeId>,
    /// Scratch for the next round's `down`.
    next_down: Vec<NodeId>,
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
            down: Vec::new(),
            next_down: Vec::new(),
            current: from_edges(n, &[]),
        }
    }

    /// True iff node `u` is scheduled down at `round`.
    fn is_down(&self, u: NodeId, round: u64) -> bool {
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
        if round == self.built_round {
            return if self.down.is_empty() { self.base.graph_at(round) } else { &self.current };
        }
        let held_still = base_held_still(&self.base, self.built_round, round);
        self.next_down.clear();
        self.next_down.extend(
            self.outages.iter().filter(|&&(_, from, to)| (from..to).contains(&round)).map(|o| o.0),
        );
        let same_mask = self.next_down == self.down;
        if !same_mask {
            for &u in &self.down {
                self.up[u as usize] = true;
            }
            for &u in &self.next_down {
                self.up[u as usize] = false;
            }
            std::mem::swap(&mut self.down, &mut self.next_down);
        }
        self.built_round = round;
        let base = self.base.graph_at(round);
        if self.down.is_empty() {
            return base;
        }
        if !(same_mask && held_still) {
            base.patch_into(&self.up, &self.down, base, &mut self.current);
        }
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
        let cfg = FaultConfig::crashes(0.1, 0.2);
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
        let cfg = FaultConfig::crashes(0.3, 0.3);
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
            for u in 0..nid(g.node_count()) {
                if !t.is_node_up(u, round) {
                    assert_eq!(g.degree(u), 0, "down node {u} has edges in round {round}");
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
            let up = (0..12).filter(|&u| t.is_node_up(u, round)).count();
            if up > 0 && up < 12 {
                saw_mixed = true;
            }
        }
        assert!(saw_mixed, "crash chain never produced a mixed up/down population");
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
            up_history.push((0..12).map(|u| original.is_node_up(u, round)).collect::<Vec<bool>>());
        }
        let mut clone = faulty(cfg, 1234);
        for round in 1..=40 {
            let _ = clone.graph_at(round);
            let ups: Vec<bool> = (0..12).map(|u| clone.is_node_up(u, round)).collect();
            assert_eq!(ups, up_history[(round - 1) as usize], "chain diverged at round {round}");
        }
        // A different seed must (with overwhelming probability) produce a
        // different chain — the history is seed-derived, not constant.
        let mut other = faulty(cfg, 4321);
        let mut diverged = false;
        for round in 1..=40 {
            let _ = other.graph_at(round);
            let ups: Vec<bool> = (0..12).map(|u| other.is_node_up(u, round)).collect();
            if ups != up_history[(round - 1) as usize] {
                diverged = true;
            }
        }
        assert!(diverged, "reseeding with a new seed never changed the chain");
    }
}
