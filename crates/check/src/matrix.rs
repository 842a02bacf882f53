//! The n = 4 certification matrix: every protocol of interest against every
//! connected 4-node topology under the full scheduling adversary.
//!
//! For protocols whose canonical state space closes (blind gossip, PUSH-PULL,
//! bit convergence with fixed tags) the matrix certifies *agreement safety*
//! (no doomed state: agreement stays reachable under every schedule), *no
//! deadlock* (no absorbing non-agreed state), and a *liveness bound* (the
//! maximum number of rounds a cooperative scheduler needs from any reachable
//! state). Maintained gossip's epoch counters drift without bound, so its row
//! is a bounded-horizon certificate instead: the epoch-regression invariant
//! holds on every explored transition and agreement is reachable within the
//! horizon.

use mtm_core::TagConfig;
use mtm_graph::static_graph::from_edges;
use mtm_graph::{Graph, NodeId};

use crate::explore::{analyze, explore, Analysis, CheckConfig, Exploration};
use crate::replay::replay_state;
use crate::spec::{
    BitConvergenceSpec, BlindGossipSpec, CheckSpec, MaintainedGossipSpec, RumorSpec,
};

/// All 38 connected labeled 4-node graphs (the 2⁶ subsets of K₄'s edges,
/// filtered to connected ones), in deterministic order.
pub fn connected_graphs_4() -> Vec<Graph> {
    let pairs: [(NodeId, NodeId); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let mut graphs = Vec::new();
    for mask in 0u32..64 {
        let edges: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        let g = from_edges(4, &edges);
        if g.is_connected() {
            graphs.push(g);
        }
    }
    graphs
}

/// Aggregated certification result for one protocol over all 38 topologies.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// Number of topologies checked (always 38).
    pub graphs: usize,
    /// Topologies whose exploration closed (state space exhausted).
    pub closed: usize,
    /// Total distinct states across all topologies.
    pub total_states: usize,
    /// Largest single-topology state count.
    pub max_states: usize,
    /// Total transitions enumerated.
    pub transitions: u64,
    /// Doomed states found (agreement unreachable) — any nonzero is a
    /// safety violation.
    pub doomed: usize,
    /// Deadlock states found (absorbing, non-agreed).
    pub deadlocks: usize,
    /// Invariant violations found.
    pub violations: usize,
    /// Worst-case rounds-to-agreement over all reachable states and
    /// topologies (closed explorations only).
    pub max_agreement_distance: u64,
    /// Did every topology meet its certification criterion?
    pub certified: bool,
}

fn certify_graph<S: CheckSpec>(
    spec: &S,
    graph: &Graph,
    cfg: &CheckConfig,
    require_closed: bool,
    row: &mut MatrixRow,
) -> (Exploration<S::P>, Analysis) {
    let ex = explore(spec, graph, cfg);
    let an = analyze(spec, &ex);
    row.total_states += ex.state_count();
    row.max_states = row.max_states.max(ex.state_count());
    row.transitions += ex.transitions;
    row.violations += ex.violations.len();
    if ex.closed {
        row.closed += 1;
        row.doomed += an.doomed;
        row.deadlocks += an.deadlocks;
        row.max_agreement_distance =
            row.max_agreement_distance.max(an.max_agreement_distance.unwrap_or(0));
        if an.doomed > 0 || an.deadlocks > 0 || !ex.violations.is_empty() {
            row.certified = false;
        }
    } else {
        // Bounded-horizon certificate: invariants clean and agreement
        // reached somewhere within the horizon.
        if require_closed || !ex.violations.is_empty() || an.first_agreed.is_none() {
            row.certified = false;
        }
    }
    // Replay one representative schedule per topology as a continuous
    // engine run: the deepest state's shortest witness.
    if ex.state_count() > 1 {
        let target = u32::try_from(ex.state_count() - 1).expect("state index fits u32");
        if let Err(e) = replay_state(spec, graph, &ex, target) {
            row.certified = false;
            row.violations += 1;
            eprintln!("[{}] engine replay divergence: {e}", row.protocol);
        }
    }
    (ex, an)
}

fn empty_row(protocol: &'static str) -> MatrixRow {
    MatrixRow {
        protocol,
        graphs: 0,
        closed: 0,
        total_states: 0,
        max_states: 0,
        transitions: 0,
        doomed: 0,
        deadlocks: 0,
        violations: 0,
        max_agreement_distance: 0,
        certified: true,
    }
}

/// Run the full n = 4 certification matrix. Deterministic; used by the
/// `mtm check --certify` command (pinned in `crates/cli/tests/pins.txt`)
/// and experiment V1.
pub fn certification_matrix() -> Vec<MatrixRow> {
    let graphs = connected_graphs_4();
    let mut rows = Vec::new();

    // Blind gossip: fixed UIDs 1..4; state space is tiny and closes fast.
    {
        let spec = BlindGossipSpec { uids: vec![1, 2, 3, 4] };
        let cfg = CheckConfig { horizon: 32, ..CheckConfig::default() };
        let mut row = empty_row(spec.name());
        for g in &graphs {
            row.graphs += 1;
            certify_graph(&spec, g, &cfg, true, &mut row);
        }
        rows.push(row);
    }

    // Bit convergence: distinct tags 0..3 (k = 2, the honest-hash regime);
    // the β = 1 collision regime is exercised separately by the A1 witness.
    {
        let spec = BitConvergenceSpec {
            uids: vec![1, 2, 3, 4],
            tags: vec![0, 1, 2, 3],
            config: TagConfig { k: 2, group_len: 2 },
        };
        let cfg = CheckConfig { horizon: 64, ..CheckConfig::default() };
        let mut row = empty_row(spec.name());
        for g in &graphs {
            row.graphs += 1;
            certify_graph(&spec, g, &cfg, true, &mut row);
        }
        rows.push(row);
    }

    // PUSH-PULL: one source; informed sets grow monotonically, closes fast.
    {
        let spec = RumorSpec::push_pull(4, 1);
        let cfg = CheckConfig { horizon: 32, ..CheckConfig::default() };
        let mut row = empty_row(spec.name());
        for g in &graphs {
            row.graphs += 1;
            certify_graph(&spec, g, &cfg, true, &mut row);
        }
        rows.push(row);
    }

    // Maintained gossip: bounded-horizon certificate (see module docs).
    // Timeout 4 keeps evidence alive across the diameter-3 worst case; the
    // horizon is enough for a cooperative scheduler to reach agreement on
    // every connected 4-node graph.
    {
        let spec = MaintainedGossipSpec { uids: vec![1, 2, 3, 4], timeout: 4 };
        let cfg = CheckConfig { horizon: 5, max_states: 400_000, ..CheckConfig::default() };
        let mut row = empty_row(spec.name());
        for g in &graphs {
            row.graphs += 1;
            certify_graph(&spec, g, &cfg, false, &mut row);
        }
        rows.push(row);
    }

    rows
}

/// The A1 β = 1 instance: K₄ with a minimum-tag collision (two nodes share
/// tag 0 with different UIDs). Returns the graph and spec; running
/// [`explore`]/[`analyze`] on them re-derives the experiment-A1 deadlock
/// exhaustively.
pub fn a1_beta1_instance() -> (Graph, BitConvergenceSpec) {
    let graph = mtm_graph::gen::clique(4);
    // β = 1 at n = 4 gives k = ⌈log₂ 4⌉ = 2 tag bits; the adversarial hash
    // outcome is a collision on the *minimum* tag: UIDs 1 and 2 both hash to
    // tag 0. Their advertised bit is identical in every group, so PPUSH can
    // never connect them, and any carrier of (0, uid 1) is bit-identical to
    // the node holding (0, uid 2) as well.
    let config = TagConfig::new(4, 1.0, 3);
    let spec = BitConvergenceSpec { uids: vec![1, 2, 3, 4], tags: vec![0, 0, 1, 1], config };
    (graph, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{analyze, explore, CheckConfig};
    use crate::replay::replay_state;

    #[test]
    fn there_are_38_connected_labeled_4_node_graphs() {
        assert_eq!(connected_graphs_4().len(), 38);
        assert!(connected_graphs_4().iter().all(Graph::is_connected));
    }

    #[test]
    fn a1_beta1_deadlock_found_and_replayed() {
        let (graph, spec) = a1_beta1_instance();
        let ex = explore(&spec, &graph, &CheckConfig::default());
        assert!(ex.closed, "A1 instance state space must close");
        let an = analyze(&spec, &ex);
        // Agreement is unreachable from the very start: the two minimum-tag
        // holders are bit-identical forever.
        assert_eq!(an.agreed_count, 0);
        assert_eq!(an.first_doomed, Some(0));
        let s = an.first_deadlock.expect("absorbing two-leader state exists");
        let witness = ex.witness(s);
        assert_eq!(witness.len(), ex.depth_of(s) as usize, "witness is the shortest schedule");
        // Replay through the real engine lands on the same wedged state.
        let outcome = replay_state(&spec, &graph, &ex, s).expect("engine replay matches");
        assert_eq!(outcome.rounds, u64::from(ex.depth_of(s)));
        assert!(outcome.fingerprint.is_some());
    }

    #[test]
    fn bit_convergence_distinct_tags_certifies_on_k4() {
        let spec = BitConvergenceSpec {
            uids: vec![1, 2, 3, 4],
            tags: vec![0, 1, 2, 3],
            config: TagConfig { k: 2, group_len: 2 },
        };
        let g = mtm_graph::gen::clique(4);
        let ex = explore(&spec, &g, &CheckConfig::default());
        assert!(ex.closed);
        let an = analyze(&spec, &ex);
        assert_eq!(an.doomed, 0);
        assert_eq!(an.deadlocks, 0);
        assert!(ex.violations.is_empty());
    }

    #[test]
    fn exploration_is_deterministic() {
        let spec = BlindGossipSpec { uids: vec![1, 2, 3, 4] };
        let cfg = CheckConfig::default();
        for g in connected_graphs_4().iter().take(5) {
            let a = explore(&spec, g, &cfg);
            let b = explore(&spec, g, &cfg);
            assert_eq!(a.state_count(), b.state_count());
            assert_eq!(a.transitions, b.transitions);
            assert_eq!(a.succs, b.succs);
        }
    }
}
