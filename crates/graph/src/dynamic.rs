//! Dynamic graphs with a stability factor `τ`.
//!
//! Section III of the paper: a dynamic graph is a sequence `G_1, G_2, …` over
//! a fixed node set, and for stability factor `τ` at least `τ` rounds must
//! pass between topology changes (`τ = 1` permits changes every round;
//! `τ = ∞` means the graph never changes). Algorithms receive no advance
//! knowledge of `τ`.
//!
//! Implementations here are *adversaries/environments* used by experiments:
//!
//! * [`StaticTopology`] — `τ = ∞`.
//! * [`RelabelingAdversary`] — every `τ` rounds applies a fresh uniformly
//!   random node permutation to a base graph. Preserves `Δ` and `α`
//!   *exactly* (the graph stays isomorphic) while scrambling who neighbors
//!   whom — the harshest structure-preserving adversary, used for `τ`
//!   sweeps.
//! * [`LineOfStarsShuffle`] — the §VI lower-bound graph with leaves
//!   re-dealt among spine stars at every change (isomorphic each time).
//! * [`WaypointMobility`] — smartphone-like proximity graphs: nodes move on
//!   the unit torus (random waypoint model) and connect within a radius;
//!   connectivity is patched by bridging nearest components (documented
//!   substitution: real deployments can disconnect, the model requires
//!   connectivity).
//! * [`JoinSchedule`] — two halves run disconnected until a join round, then
//!   bridge edges appear (self-stabilization experiment F4). Note the
//!   disconnected prefix intentionally violates the connectivity assumption;
//!   convergence is only claimed after the join.

use crate::nid;
use crate::static_graph::{Graph, GraphBuilder, NodeId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A sequence of topology graphs, queried once per round in order.
///
/// `graph_at(round)` may be called with any non-decreasing round sequence
/// starting at 1. Implementations must return graphs over a fixed node set
/// and may change the graph only at the rounds where
/// [`may_change_at`](DynamicTopology::may_change_at) answers true: a
/// τ-stable topology answers true at most once in any `τ` consecutive
/// rounds after round 1.
pub trait DynamicTopology {
    /// Number of nodes (constant across rounds).
    fn node_count(&self) -> usize;

    /// The topology for round `round` (1-based).
    fn graph_at(&mut self, round: u64) -> &Graph;

    /// True iff the graph at `round` may differ from the graph at
    /// `round - 1`. Round 1 (the initial graph) always counts as a change.
    /// A conservative `true` is always correct; a `false` is a promise.
    ///
    /// Consumed by the engine's stuck-run detector: a frozen protocol
    /// state only evidences a fixed point over rounds where the topology
    /// also held still. The fault wrappers read it to reuse last round's
    /// filtered graph.
    fn may_change_at(&self, round: u64) -> bool;

    /// True iff node `u` is up (radio on) at `round`. Plain topologies have
    /// no notion of node failure and report every node up; fault wrappers
    /// ([`crate::FaultyTopology`], [`crate::ScheduledCrashes`]) override.
    ///
    /// Consumed by the engine's service mode to distinguish a claimant that
    /// can actually serve from a crashed node that merely still believes it
    /// leads. Callers must have built the graph for `round` (via
    /// [`graph_at`](DynamicTopology::graph_at)) before asking, so stateful
    /// fault chains are already advanced through `round`.
    fn is_node_up(&self, _u: NodeId, _round: u64) -> bool {
        true
    }
}

/// `τ = ∞`: one fixed graph forever.
pub struct StaticTopology {
    graph: Graph,
}

impl StaticTopology {
    pub fn new(graph: Graph) -> Self {
        StaticTopology { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

impl DynamicTopology for StaticTopology {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }
    fn graph_at(&mut self, _round: u64) -> &Graph {
        &self.graph
    }
    fn may_change_at(&self, round: u64) -> bool {
        round <= 1
    }
}

/// Shared epoch logic: change the graph when `(round - 1) / τ` advances.
struct EpochClock {
    tau: u64,
    current_epoch: Option<u64>,
}

impl EpochClock {
    fn new(tau: u64) -> Self {
        assert!(tau >= 1, "τ must be ≥ 1");
        EpochClock { tau, current_epoch: None }
    }

    /// True iff `round` may start a new epoch: rounds `1, τ+1, 2τ+1, …`.
    fn may_change_at(&self, round: u64) -> bool {
        round <= 1 || (round - 1).is_multiple_of(self.tau)
    }

    /// Returns `Some(epoch)` when `round` enters a new epoch, else `None`.
    fn tick(&mut self, round: u64) -> Option<u64> {
        assert!(round >= 1, "rounds are 1-based");
        let epoch = (round - 1) / self.tau;
        if self.current_epoch != Some(epoch) {
            self.current_epoch = Some(epoch);
            Some(epoch)
        } else {
            None
        }
    }
}

/// Applies a fresh uniformly random node relabeling to `base` every `τ`
/// rounds. The round-`r` graph is always isomorphic to `base`, so `Δ` and
/// `α` are preserved exactly.
pub struct RelabelingAdversary {
    base: Graph,
    clock: EpochClock,
    seed: u64,
    current: Graph,
}

impl RelabelingAdversary {
    pub fn new(base: Graph, tau: u64, seed: u64) -> Self {
        let current = base.clone();
        RelabelingAdversary { base, clock: EpochClock::new(tau), seed, current }
    }

    fn relabel(&self, epoch: u64) -> Graph {
        let n = self.base.node_count();
        // per-epoch stream derived from the topology seed. mtm-lint: allow(smallrng-outside-engine)
        let mut rng = SmallRng::seed_from_u64(crate::rng::derive_seed(self.seed, epoch));
        let mut perm: Vec<NodeId> = (0..nid(n)).collect();
        perm.shuffle(&mut rng);
        let mut b = GraphBuilder::with_capacity(n, self.base.edge_count());
        for (u, v) in self.base.edges() {
            b.add_edge(perm[u as usize], perm[v as usize]);
        }
        b.build()
    }
}

impl DynamicTopology for RelabelingAdversary {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }
    fn graph_at(&mut self, round: u64) -> &Graph {
        if let Some(epoch) = self.clock.tick(round) {
            self.current = self.relabel(epoch);
        }
        &self.current
    }
    fn may_change_at(&self, round: u64) -> bool {
        self.clock.may_change_at(round)
    }
}

/// The §VI line-of-stars with its leaves re-dealt uniformly among spine
/// stars at every change (counts per star preserved, so the graph is always
/// isomorphic to the static construction).
pub struct LineOfStarsShuffle {
    spine: usize,
    points: usize,
    clock: EpochClock,
    seed: u64,
    current: Graph,
}

impl LineOfStarsShuffle {
    pub fn new(spine: usize, points: usize, tau: u64, seed: u64) -> Self {
        let current = crate::gen::line_of_stars(spine, points);
        LineOfStarsShuffle { spine, points, clock: EpochClock::new(tau), seed, current }
    }

    fn shuffled(&self, epoch: u64) -> Graph {
        let n = self.spine + self.spine * self.points;
        // per-epoch stream derived from the topology seed. mtm-lint: allow(smallrng-outside-engine)
        let mut rng = SmallRng::seed_from_u64(crate::rng::derive_seed(self.seed, epoch));
        let mut leaves: Vec<NodeId> = (nid(self.spine)..nid(n)).collect();
        leaves.shuffle(&mut rng);
        let mut b = GraphBuilder::with_capacity(n, n - 1);
        for i in 1..nid(self.spine) {
            b.add_edge(i - 1, i);
        }
        for (idx, &leaf) in leaves.iter().enumerate() {
            let star = nid(idx / self.points);
            b.add_edge(star, leaf);
        }
        b.build()
    }
}

impl DynamicTopology for LineOfStarsShuffle {
    fn node_count(&self) -> usize {
        self.spine + self.spine * self.points
    }
    fn graph_at(&mut self, round: u64) -> &Graph {
        if let Some(epoch) = self.clock.tick(round) {
            if epoch > 0 {
                self.current = self.shuffled(epoch);
            }
        }
        &self.current
    }
    fn may_change_at(&self, round: u64) -> bool {
        self.clock.may_change_at(round)
    }
}

/// Random-waypoint proximity mobility on the unit torus.
///
/// Each node has a position and a waypoint; every epoch (`τ` rounds) each
/// node moves `speed` toward its waypoint (re-sampling the waypoint on
/// arrival), and the topology becomes the radius-`radius` proximity graph.
/// Because the model requires connected topologies, components beyond the
/// first are patched by an edge between the geometrically closest pair
/// (documented substitution; the patch edges are a vanishing fraction at the
/// densities we simulate).
pub struct WaypointMobility {
    positions: Vec<(f64, f64)>,
    waypoints: Vec<(f64, f64)>,
    speed: f64,
    radius: f64,
    clock: EpochClock,
    rng: SmallRng,
    current: Graph,
}

impl WaypointMobility {
    pub fn new(n: usize, radius: f64, speed: f64, tau: u64, seed: u64) -> Self {
        assert!(n >= 1);
        // generator stream from an explicit seed parameter. mtm-lint: allow(smallrng-outside-engine)
        let mut rng = SmallRng::seed_from_u64(seed);
        let positions: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let waypoints: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let current = Self::proximity_graph(&positions, radius);
        WaypointMobility {
            positions,
            waypoints,
            speed,
            radius,
            clock: EpochClock::new(tau),
            rng,
            current,
        }
    }

    /// Torus distance between two points.
    fn torus_dist(a: (f64, f64), b: (f64, f64)) -> f64 {
        let dx = (a.0 - b.0).abs().min(1.0 - (a.0 - b.0).abs());
        let dy = (a.1 - b.1).abs().min(1.0 - (a.1 - b.1).abs());
        (dx * dx + dy * dy).sqrt()
    }

    fn proximity_graph(pos: &[(f64, f64)], radius: f64) -> Graph {
        let n = pos.len();
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if Self::torus_dist(pos[u], pos[v]) <= radius {
                    b.add_edge(nid(u), nid(v));
                }
            }
        }
        let g = b.build();
        if g.is_connected() || n <= 1 {
            return g;
        }
        // Patch: bridge each non-main component to the main one via the
        // closest node pair.
        let labels = g.components();
        let ncomp =
            *labels.iter().max().expect("n > 1 past the early return, so labels is nonempty")
                as usize
                + 1;
        let mut extra = Vec::new();
        for comp in 1..nid(ncomp) {
            let mut best: (f64, NodeId, NodeId) = (f64::INFINITY, 0, 0);
            for u in 0..n {
                if labels[u] != comp {
                    continue;
                }
                for v in 0..n {
                    if labels[v] != 0 {
                        continue;
                    }
                    let d = Self::torus_dist(pos[u], pos[v]);
                    if d < best.0 {
                        best = (d, nid(u), nid(v));
                    }
                }
            }
            extra.push((best.1, best.2));
        }
        g.with_edges(&extra)
    }

    fn step(&mut self) {
        for i in 0..self.positions.len() {
            let (px, py) = self.positions[i];
            let (wx, wy) = self.waypoints[i];
            let dx = wx - px;
            let dy = wy - py;
            let dist = (dx * dx + dy * dy).sqrt();
            if dist <= self.speed {
                self.positions[i] = (wx, wy);
                self.waypoints[i] = (self.rng.gen(), self.rng.gen());
            } else {
                self.positions[i] = (px + self.speed * dx / dist, py + self.speed * dy / dist);
            }
        }
    }
}

impl DynamicTopology for WaypointMobility {
    fn node_count(&self) -> usize {
        self.positions.len()
    }
    fn graph_at(&mut self, round: u64) -> &Graph {
        if let Some(epoch) = self.clock.tick(round) {
            if epoch > 0 {
                self.step();
                self.current = Self::proximity_graph(&self.positions, self.radius);
            }
        }
        &self.current
    }
    fn may_change_at(&self, round: u64) -> bool {
        self.clock.may_change_at(round)
    }
}

/// Two node sets run disconnected until `join_round`, after which `bridges`
/// connect them (self-stabilization experiment, §VIII).
pub struct JoinSchedule {
    before: Graph,
    after: Graph,
    join_round: u64,
}

impl JoinSchedule {
    /// `left` and `right` become one node set (`right` ids shifted by
    /// `left.node_count()`); `bridges` are edges in the combined id space.
    pub fn new(left: &Graph, right: &Graph, bridges: &[(NodeId, NodeId)], join_round: u64) -> Self {
        let before = left.disjoint_union(right);
        let after = before.with_edges(bridges);
        assert!(after.is_connected(), "bridge edges must connect the two components");
        JoinSchedule { before, after, join_round }
    }

    /// Round at which the bridge edges appear.
    pub fn join_round(&self) -> u64 {
        self.join_round
    }
}

impl DynamicTopology for JoinSchedule {
    fn node_count(&self) -> usize {
        self.before.node_count()
    }
    fn graph_at(&mut self, round: u64) -> &Graph {
        if round < self.join_round {
            &self.before
        } else {
            &self.after
        }
    }
    fn may_change_at(&self, round: u64) -> bool {
        round <= 1 || round == self.join_round
    }
}

/// Box a topology for dynamic dispatch in harness code.
pub type BoxedTopology = Box<dyn DynamicTopology + Send>;

impl<T: DynamicTopology + ?Sized> DynamicTopology for Box<T> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn graph_at(&mut self, round: u64) -> &Graph {
        (**self).graph_at(round)
    }
    fn may_change_at(&self, round: u64) -> bool {
        (**self).may_change_at(round)
    }
    fn is_node_up(&self, u: NodeId, round: u64) -> bool {
        (**self).is_node_up(u, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn static_topology_never_changes() {
        let mut t = StaticTopology::new(gen::clique(5));
        let g1 = t.graph_at(1).clone();
        let g2 = t.graph_at(100).clone();
        assert_eq!(g1, g2);
        assert!(!t.may_change_at(2) && !t.may_change_at(100));
    }

    #[test]
    fn epoch_clock_changes_every_tau() {
        let mut c = EpochClock::new(3);
        assert!(c.tick(1).is_some());
        assert!(c.tick(2).is_none());
        assert!(c.tick(3).is_none());
        assert!(c.tick(4).is_some());
        assert!(c.tick(5).is_none());
        assert!(c.tick(7).is_some());
    }

    #[test]
    fn relabeling_preserves_structure() {
        let base = gen::line_of_stars(4, 4);
        let deg_seq = base.degree_sequence();
        let mut adv = RelabelingAdversary::new(base, 2, 7);
        let mut distinct = std::collections::BTreeSet::new();
        for round in 1..=20 {
            let g = adv.graph_at(round).clone();
            assert_eq!(g.degree_sequence(), deg_seq, "round {round} not isomorphic");
            assert!(g.is_connected());
            distinct.insert(format!("{g:?}"));
        }
        assert!(distinct.len() > 1, "adversary never changed the graph");
    }

    #[test]
    fn relabeling_stable_within_epoch() {
        let base = gen::cycle(10);
        let mut adv = RelabelingAdversary::new(base, 5, 3);
        let g1 = adv.graph_at(1).clone();
        for r in 2..=5 {
            assert_eq!(&g1, adv.graph_at(r), "changed within τ window at round {r}");
        }
        let g2 = adv.graph_at(6).clone();
        // New epoch may (with overwhelming probability does) differ.
        let _ = g2;
    }

    #[test]
    fn leaf_shuffle_isomorphic_and_connected() {
        let mut adv = LineOfStarsShuffle::new(4, 4, 1, 11);
        let expect = gen::line_of_stars(4, 4).degree_sequence();
        for round in 1..=12 {
            let g = adv.graph_at(round);
            assert_eq!(g.degree_sequence(), expect, "round {round}");
            assert!(g.is_connected());
        }
    }

    #[test]
    fn waypoint_mobility_connected_every_round() {
        let mut m = WaypointMobility::new(30, 0.25, 0.05, 2, 17);
        for round in 1..=20 {
            let g = m.graph_at(round);
            assert!(g.is_connected(), "round {round} disconnected");
            assert_eq!(g.node_count(), 30);
        }
    }

    #[test]
    fn waypoint_positions_change() {
        let mut m = WaypointMobility::new(10, 0.5, 0.1, 1, 3);
        let p0 = m.positions.clone();
        let _ = m.graph_at(1);
        let _ = m.graph_at(2); // epoch 1 triggers a step
        assert_ne!(p0, m.positions);
    }

    #[test]
    fn join_schedule_switches_at_join_round() {
        let left = gen::clique(4);
        let right = gen::clique(4);
        let mut j = JoinSchedule::new(&left, &right, &[(0, 4)], 10);
        assert!(!j.graph_at(1).is_connected());
        assert!(!j.graph_at(9).is_connected());
        assert!(j.graph_at(10).is_connected());
        assert!(j.graph_at(50).is_connected());
    }

    #[test]
    #[should_panic(expected = "must connect")]
    fn join_schedule_rejects_nonbridging_edges() {
        let left = gen::clique(3);
        let right = gen::clique(3);
        let _ = JoinSchedule::new(&left, &right, &[(0, 1)], 5);
    }

    #[test]
    fn may_change_at_follows_epoch_grid() {
        let t = StaticTopology::new(gen::clique(4));
        assert!(t.may_change_at(1));
        assert!(!t.may_change_at(2) && !t.may_change_at(1000));
        let adv = RelabelingAdversary::new(gen::cycle(6), 3, 1);
        assert!(adv.may_change_at(1));
        assert!(!adv.may_change_at(2) && !adv.may_change_at(3));
        assert!(adv.may_change_at(4));
        assert!(adv.may_change_at(7));
    }

    #[test]
    fn join_schedule_changes_only_at_join_round() {
        let left = gen::clique(3);
        let right = gen::clique(3);
        let j = JoinSchedule::new(&left, &right, &[(0, 3)], 10);
        assert!(j.may_change_at(1));
        assert!(!j.may_change_at(9));
        assert!(j.may_change_at(10));
        assert!(!j.may_change_at(11));
    }

    #[test]
    fn torus_dist_wraps() {
        let d = WaypointMobility::torus_dist((0.05, 0.5), (0.95, 0.5));
        assert!((d - 0.1).abs() < 1e-12);
    }
}
