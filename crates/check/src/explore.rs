//! Exhaustive explicit-state exploration of the protocol × topology product
//! automaton under a full adversary.
//!
//! Per round the adversary controls, and the explorer enumerates:
//!
//! 1. **Crashes** (behind [`CheckConfig::max_crashes`]): any subset of still-up
//!    nodes within the remaining crash budget goes down permanently (edges to
//!    a crashed node vanish; the node keeps running over an empty scan).
//! 2. **Advertise randomness**: every combination of
//!    [`Protocol::enumerate_choices`] across nodes (nontrivial only for the
//!    non-synchronized bit-position choice).
//! 3. **Actions**: every combination of [`Protocol::enumerate_actions`] —
//!    this resolves the protocols' propose/listen coins and uniform target
//!    choices adversarially.
//! 4. **Acceptance**: for every listener with incoming proposals, each choice
//!    of one proposal to accept — and, behind [`CheckConfig::loss`], the
//!    choice to accept none (adversarial proposal loss). Per-listener single
//!    acceptance makes every enumerated accept set a matching by
//!    construction, mirroring `SingleUniform` resolution.
//!
//! The explorer only enumerates choices. Each successor is one production
//! round: an [`Engine`] restored to the parent state ([`Engine::restore`]),
//! on a [`ScheduledCrashes`] topology with the crashed nodes down from round
//! 1, steps the resolved [`RoundScript`] ([`Engine::step_scripted`]). The
//! action enumeration reads its scans from the same topology. The engine's
//! audits thus run on every explored transition, and a breach panics.
//!
//! States are deduplicated on `(round offset mod period, canonicalized state
//! words, crash mask)`; the stored representative keeps the *raw* first
//! reached configuration plus a predecessor edge carrying the exact
//! [`RoundSchedule`], so any state's shortest schedule replays as one
//! continuous engine run via [`crate::replay`].

use std::collections::BTreeMap;

use mtm_engine::{Action, ActivationSchedule, Engine, Protocol, RoundScript, Scan, Tag};
use mtm_graph::faults::ScheduledCrashes;
use mtm_graph::{nid, DynamicTopology, Graph, NodeId, StaticTopology};

use crate::spec::CheckSpec;

/// Exploration bounds and adversary powers.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Maximum schedule depth (rounds) to explore.
    pub horizon: u64,
    /// Maximum number of distinct states to store. Exploration stops at the
    /// first new successor the cap would discard, so the cap also bounds the
    /// work. A run that never reaches it still enumerates every transition
    /// of every expanded state: `k^n` advertise choices per group start for
    /// the non-synchronized protocol.
    pub max_states: usize,
    /// Allow the adversary to drop any accepted proposal (a listener may
    /// accept none of its incoming proposals even when some arrived).
    pub loss: bool,
    /// Crash budget: the adversary may permanently crash up to this many
    /// nodes, at any round boundaries it likes.
    pub max_crashes: u32,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig { horizon: 64, max_states: 200_000, loss: false, max_crashes: 0 }
    }
}

/// One round of an adversary schedule: which nodes crash at the start of the
/// round, then the fully resolved round script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundSchedule {
    /// Nodes newly crashed at the start of this round.
    pub crashes: Vec<NodeId>,
    /// The resolved advertise/action/accept choices.
    pub script: RoundScript,
}

/// Why exploration stopped before closing the state space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Truncation {
    /// The round horizon was reached with frontier states left.
    Horizon,
    /// The state cap was hit: exploration stopped at the first successor
    /// it would discard, leaving the rest of the frontier unexpanded and
    /// the rest of that state's transitions (and their invariant checks)
    /// unenumerated.
    StateCap,
}

/// An invariant violation on one explored transition.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Index of the state the violating round started from.
    pub parent: u32,
    /// The violating round's schedule.
    pub schedule: RoundSchedule,
    /// Spec-provided description.
    pub message: String,
}

pub(crate) struct StateNode<P> {
    /// Raw (uncanonicalized) representative configuration.
    pub nodes: Vec<P>,
    /// Round offset modulo the spec period.
    pub offset: u64,
    /// Bitmask of crashed nodes.
    pub crashed: u64,
    /// BFS depth = number of rounds from the initial state.
    pub depth: u32,
    /// Predecessor edge: `(parent state, schedule of the connecting round)`.
    /// `None` only for the initial state.
    pub pred: Option<(u32, RoundSchedule)>,
}

/// The explored transition system.
pub struct Exploration<P> {
    pub(crate) states: Vec<StateNode<P>>,
    /// Each state's distinct successors, in first-reached order.
    pub(crate) succs: Vec<Vec<u32>>,
    /// True when the frontier emptied before both bounds: every reachable
    /// state (up to canonicalization) has been expanded, so reachability
    /// analyses over this graph are exhaustive.
    pub closed: bool,
    /// Why exploration truncated, if it did.
    pub truncation: Option<Truncation>,
    /// Total transitions enumerated (including duplicates).
    pub transitions: u64,
    /// Invariant violations found on explored transitions.
    pub violations: Vec<Violation>,
}

impl<P> Exploration<P> {
    /// Number of distinct stored states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Raw representative configuration of state `s`.
    pub fn nodes_of(&self, s: u32) -> &[P] {
        &self.states[s as usize].nodes
    }

    /// BFS depth (rounds from initial) of state `s`.
    pub fn depth_of(&self, s: u32) -> u32 {
        self.states[s as usize].depth
    }

    /// Shortest adversary schedule from the initial state to `s` (by BFS
    /// predecessor chain; length equals `depth_of(s)`).
    pub fn witness(&self, s: u32) -> Vec<RoundSchedule> {
        let mut out = Vec::new();
        let mut cur = s;
        while let Some((p, sched)) = &self.states[cur as usize].pred {
            out.push(sched.clone());
            cur = *p;
        }
        out.reverse();
        out
    }
}

/// Step the mixed-radix odometer `idx` (digit `i` runs below `sizes[i]`,
/// least significant first) to the next index vector. Returns `false`, with
/// `idx` back at all zeros, once every vector has been visited; starting
/// from all zeros the loop visits each exactly once. Every size must be at
/// least 1.
fn next_combo(idx: &mut [usize], sizes: &[usize]) -> bool {
    for (digit, &size) in idx.iter_mut().zip(sizes) {
        *digit += 1;
        if *digit < size {
            return true;
        }
        *digit = 0;
    }
    false
}

/// Write the dedup key of a configuration into `key`: the round offset, the
/// crash mask, then the canonicalized state words.
fn state_key<S: CheckSpec>(
    spec: &S,
    nodes: &[S::P],
    offset: u64,
    crashed: u64,
    key: &mut Vec<u64>,
) {
    key.clear();
    key.extend([offset, crashed]);
    for p in nodes {
        p.state_words(key);
    }
    spec.canonicalize(&mut key[2..]);
}

/// Raw (uncanonicalized) state words of a configuration — the quantity the
/// Engine replay must reproduce exactly.
pub fn raw_words<P: Protocol>(nodes: &[P]) -> Vec<u64> {
    let mut words = Vec::with_capacity(nodes.len() * 4);
    for p in nodes {
        p.state_words(&mut words);
    }
    words
}

/// The base graph with every node in `crashed` down from round 1 on: its
/// edges vanish and its scan is empty.
fn crash_topology(graph: &Graph, crashed: u64) -> ScheduledCrashes<StaticTopology> {
    let outages = (0..graph.node_count())
        .filter(|&u| crashed & (1u64 << u) != 0)
        .map(|u| (nid(u), 1, u64::MAX))
        .collect();
    ScheduledCrashes::new(StaticTopology::new(graph.clone()), outages)
}

/// Breadth-first exhaustive exploration of `spec` on `graph` under `cfg`.
///
/// Panics, as the engine does, on a transition that breaks the model
/// contract (e.g. a tag wider than `spec.params()` allows).
pub fn explore<S: CheckSpec>(spec: &S, graph: &Graph, cfg: &CheckConfig) -> Exploration<S::P> {
    let n = graph.node_count();
    assert!(n >= 1, "empty graph");
    assert!(n <= 6, "exhaustive exploration is limited to n <= 6 (got {n})");
    let period = spec.period().max(1);
    let init = spec.initial();
    assert_eq!(init.len(), n, "spec initial() size does not match graph");
    assert!(
        init.iter().all(Protocol::supports_check),
        "protocol does not implement the check interface"
    );

    let mut states: Vec<StateNode<S::P>> = Vec::new();
    let mut succs: Vec<Vec<u32>> = Vec::new();
    // `last_parent[t]` is the last state that listed `t` as a successor, so
    // a state expanded now lists each successor once, however many of its
    // transitions reach it.
    let mut last_parent: Vec<u32> = Vec::new();
    let mut index: BTreeMap<Vec<u64>, u32> = BTreeMap::new();
    let mut key: Vec<u64> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut transitions = 0u64;
    let mut truncation: Option<Truncation> = None;

    let mut engine = Engine::new(
        crash_topology(graph, 0),
        spec.params(),
        ActivationSchedule::synchronized(n),
        init.clone(),
        0,
    );
    let mut script = RoundScript { advertise: Vec::new(), actions: Vec::new(), accept: Vec::new() };
    // Per-round scratch, reused across transitions.
    let mut incoming: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let (mut accept_sizes, mut acc_idx) = (Vec::new(), Vec::new());

    state_key(spec, &init, 0, 0, &mut key);
    index.insert(key.clone(), 0);
    states.push(StateNode { nodes: init, offset: 0, crashed: 0, depth: 0, pred: None });
    succs.push(Vec::new());
    last_parent.push(u32::MAX);

    // `states` is appended in BFS order, so the vec doubles as the queue.
    let mut cursor = 0usize;
    'bfs: while cursor < states.len() {
        let sid = u32::try_from(cursor).expect("state index fits u32");
        cursor += 1;

        let parent = &states[sid as usize];
        if u64::from(parent.depth) >= cfg.horizon {
            truncation.get_or_insert(Truncation::Horizon);
            continue;
        }
        let p_nodes = parent.nodes.clone();
        let p_offset = parent.offset;
        let p_crashed = parent.crashed;
        let p_depth = parent.depth;
        // The restored engine runs round `p_offset + 1`: protocols key only
        // on the round modulo the period, so this stands for every round
        // congruent to it.
        let lr = p_offset + 1;

        // 1. Crash choices: every superset of the crashed set within the
        // remaining budget, in ascending mask order.
        let budget = cfg.max_crashes.saturating_sub(p_crashed.count_ones());
        let crash_choices = (0..1u64 << n)
            .filter(|&c| c & p_crashed == p_crashed && (c ^ p_crashed).count_ones() <= budget);
        for crashed in crash_choices {
            let new_crashes: Vec<NodeId> =
                (0..n).filter(|&u| (crashed ^ p_crashed) & (1u64 << u) != 0).map(nid).collect();
            *engine.topology_mut() = crash_topology(graph, crashed);

            // 2. Advertise choices.
            let choice_sets: Vec<Vec<u32>> =
                p_nodes.iter().map(|p| p.enumerate_choices(lr)).collect();
            let choice_sizes: Vec<usize> = choice_sets.iter().map(Vec::len).collect();
            let mut adv_idx = vec![0; n];
            loop {
                script.advertise.clear();
                script.advertise.extend(adv_idx.iter().zip(&choice_sets).map(|(&i, c)| c[i]));
                let mut adv_nodes = p_nodes.clone();
                let tags: Vec<Tag> = adv_nodes
                    .iter_mut()
                    .zip(&script.advertise)
                    .map(|(p, &c)| p.apply_choice(lr, c))
                    .collect();

                // 3. Action choices, over the scans the engine will build.
                let round_graph = engine.topology_mut().graph_at(lr);
                let action_sets: Vec<Vec<Action>> = adv_nodes
                    .iter()
                    .zip(round_graph.neighbor_rows_from(0))
                    .map(|(p, nbrs)| {
                        let scan_tags: Vec<Tag> = nbrs.iter().map(|&v| tags[v as usize]).collect();
                        p.enumerate_actions(&Scan {
                            neighbors: nbrs,
                            tags: &scan_tags,
                            round: lr,
                            local_round: lr,
                        })
                    })
                    .collect();
                let action_sizes: Vec<usize> = action_sets.iter().map(Vec::len).collect();
                let mut act_idx = vec![0; n];
                loop {
                    script.actions.clear();
                    script.actions.extend(act_idx.iter().zip(&action_sets).map(|(&i, a)| a[i]));

                    // 4. Acceptance choices: per listener with incoming
                    // proposals, one proposer (+ "accept none" under loss).
                    // A node with none has the single choice "none".
                    for list in &mut incoming {
                        list.clear();
                    }
                    for (u, &action) in script.actions.iter().enumerate() {
                        if let Action::Propose(v) = action {
                            if script.actions[v as usize] == Action::Listen {
                                incoming[v as usize].push(nid(u));
                            }
                        }
                    }
                    accept_sizes.clear();
                    accept_sizes
                        .extend(incoming.iter().map(|l| (l.len() + usize::from(cfg.loss)).max(1)));
                    acc_idx.clear();
                    acc_idx.resize(n, 0);
                    loop {
                        script.accept.clear();
                        for (v, (&i, list)) in acc_idx.iter().zip(&incoming).enumerate() {
                            if let Some(&u) = list.get(i) {
                                script.accept.push((u, nid(v)));
                            }
                        }

                        engine.restore(&p_nodes, p_offset);
                        engine.step_scripted(&script);
                        transitions += 1;
                        let next = engine.nodes();

                        let schedule = || RoundSchedule {
                            crashes: new_crashes.clone(),
                            script: script.clone(),
                        };
                        if let Err(message) = spec.invariant(&p_nodes, next) {
                            violations.push(Violation {
                                parent: sid,
                                schedule: schedule(),
                                message,
                            });
                        }

                        let offset2 = lr % period;
                        state_key(spec, next, offset2, crashed, &mut key);
                        let tid = if let Some(&t) = index.get(key.as_slice()) {
                            t
                        } else if states.len() >= cfg.max_states {
                            // Every later successor would be discarded too:
                            // the stored states are final.
                            truncation = Some(Truncation::StateCap);
                            break 'bfs;
                        } else {
                            let t = u32::try_from(states.len()).expect("state index fits u32");
                            index.insert(key.clone(), t);
                            states.push(StateNode {
                                nodes: next.to_vec(),
                                offset: offset2,
                                crashed,
                                depth: p_depth + 1,
                                pred: Some((sid, schedule())),
                            });
                            succs.push(Vec::new());
                            last_parent.push(u32::MAX);
                            t
                        };
                        if last_parent[tid as usize] != sid {
                            last_parent[tid as usize] = sid;
                            succs[sid as usize].push(tid);
                        }
                        if !next_combo(&mut acc_idx, &accept_sizes) {
                            break;
                        }
                    }
                    if !next_combo(&mut act_idx, &action_sizes) {
                        break;
                    }
                }
                if !next_combo(&mut adv_idx, &choice_sizes) {
                    break;
                }
            }
        }
    }

    Exploration { states, succs, closed: truncation.is_none(), truncation, transitions, violations }
}

/// Reachability/property analysis over an [`Exploration`].
#[derive(Debug, PartialEq, Eq)]
pub struct Analysis {
    /// Per-state: does the spec's agreement predicate hold?
    pub agreed: Vec<bool>,
    /// Number of agreed states.
    pub agreed_count: usize,
    /// Minimum-depth agreed state, if any was reached.
    pub first_agreed: Option<u32>,
    /// Per-state shortest distance (in rounds) to some agreed state;
    /// `u64::MAX` marks doomed states. Only computed on closed explorations.
    pub dist_to_agreement: Option<Vec<u64>>,
    /// Number of doomed states (agreement unreachable). Only meaningful on
    /// closed explorations; zero otherwise.
    pub doomed: usize,
    /// Minimum-depth doomed state.
    pub first_doomed: Option<u32>,
    /// Max over non-doomed states of the distance to agreement: the
    /// adversary can delay agreement at most this many rounds from anywhere
    /// (the liveness-within-bound certificate). Only on closed explorations.
    pub max_agreement_distance: Option<u64>,
    /// Per-state: absorbing fixed point (every infinite continuation keeps
    /// the raw node state words frozen). Only computed on closed
    /// explorations; empty otherwise.
    pub stuck: Vec<bool>,
    /// Minimum-depth *deadlock*: a stuck state that is not agreed — the
    /// network is wedged short of agreement and no schedule can ever change
    /// any node's state again.
    pub first_deadlock: Option<u32>,
    /// Number of deadlock states.
    pub deadlocks: usize,
}

/// Analyze agreement reachability, doom, and deadlocks.
///
/// Doom/deadlock/liveness-bound results require a closed exploration (the
/// successor relation must be complete to conclude anything about futures);
/// on truncated explorations only the `agreed` layer is populated.
pub fn analyze<S: CheckSpec>(spec: &S, ex: &Exploration<S::P>) -> Analysis {
    let m = ex.states.len();
    let mut agreed = vec![false; m];
    let mut agreed_count = 0usize;
    let mut first_agreed: Option<u32> = None;
    for (i, st) in ex.states.iter().enumerate() {
        if spec.agreed(&st.nodes, st.crashed) {
            agreed[i] = true;
            agreed_count += 1;
            if first_agreed.is_none() {
                // BFS order: the first hit has minimum depth.
                first_agreed = Some(u32::try_from(i).expect("state index fits u32"));
            }
        }
    }

    let mut analysis = Analysis {
        agreed,
        agreed_count,
        first_agreed,
        dist_to_agreement: None,
        doomed: 0,
        first_doomed: None,
        max_agreement_distance: None,
        stuck: Vec::new(),
        first_deadlock: None,
        deadlocks: 0,
    };
    if !ex.closed {
        return analysis;
    }

    // Reverse BFS from agreed states: dist[s] = shortest number of rounds
    // the *adversary cannot prevent being short of* — more precisely, the
    // shortest schedule suffix reaching agreement if the scheduler
    // cooperates. A state with no path to agreement is doomed: no schedule
    // whatsoever reaches agreement (possibility-liveness failure).
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); m];
    for (s, outs) in ex.succs.iter().enumerate() {
        for &t in outs {
            rev[t as usize].push(u32::try_from(s).expect("state index fits u32"));
        }
    }
    let mut dist = vec![u64::MAX; m];
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    for (i, &a) in analysis.agreed.iter().enumerate() {
        if a {
            dist[i] = 0;
            queue.push_back(u32::try_from(i).expect("state index fits u32"));
        }
    }
    while let Some(t) = queue.pop_front() {
        let d = dist[t as usize];
        for &s in &rev[t as usize] {
            if dist[s as usize] == u64::MAX {
                dist[s as usize] = d + 1;
                queue.push_back(s);
            }
        }
    }
    let mut doomed = 0usize;
    let mut first_doomed = None;
    let mut max_dist = 0u64;
    for (i, &d) in dist.iter().enumerate() {
        if d == u64::MAX {
            doomed += 1;
            if first_doomed.is_none() {
                first_doomed = Some(u32::try_from(i).expect("state index fits u32"));
            }
        } else {
            max_dist = max_dist.max(d);
        }
    }
    analysis.doomed = doomed;
    analysis.first_doomed = first_doomed;
    analysis.max_agreement_distance = Some(max_dist);
    analysis.dist_to_agreement = Some(dist);

    // Greatest fixpoint for "absorbing": start assuming every state is
    // frozen forever, then strike any state with a successor that changes
    // the raw words or that is itself not frozen. What survives is exactly
    // the set of states all of whose infinite continuations are stutters.
    let words: Vec<Vec<u64>> = ex.states.iter().map(|st| raw_words(&st.nodes)).collect();
    let mut stuck = vec![true; m];
    let mut changed = true;
    while changed {
        changed = false;
        for s in 0..m {
            if !stuck[s] {
                continue;
            }
            let frozen =
                ex.succs[s].iter().all(|&t| stuck[t as usize] && words[t as usize] == words[s]);
            if !frozen {
                stuck[s] = false;
                changed = true;
            }
        }
    }
    let mut deadlocks = 0usize;
    let mut first_deadlock = None;
    for (i, &st) in stuck.iter().enumerate() {
        if st && !analysis.agreed[i] {
            deadlocks += 1;
            if first_deadlock.is_none() {
                first_deadlock = Some(u32::try_from(i).expect("state index fits u32"));
            }
        }
    }
    analysis.stuck = stuck;
    analysis.deadlocks = deadlocks;
    analysis.first_deadlock = first_deadlock;
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        BitConvergenceSpec, BlindGossipSpec, MaintainedGossipSpec, NonSyncSpec, RumorSpec,
    };
    use mtm_core::{Ppush, TagConfig};
    use mtm_engine::{ModelParams, RumorView};
    use mtm_graph::gen;

    #[test]
    fn next_combo_enumerates_mixed_radix() {
        let sizes = [2, 3];
        let mut idx = [0; 2];
        let mut all = vec![idx];
        while next_combo(&mut idx, &sizes) {
            all.push(idx);
        }
        assert_eq!(all.len(), 6);
        assert_eq!(all[1], [1, 0]);
        assert_eq!(all[5], [1, 2]);
        assert_eq!(idx, [0, 0], "the odometer wraps back to zero");
        // No digits: the empty vector is the only combination.
        assert!(!next_combo(&mut [], &[]));
    }

    #[test]
    fn blind_gossip_path3_certifies() {
        let spec = BlindGossipSpec { uids: vec![1, 2, 3] };
        let ex = explore(&spec, &gen::path(3), &CheckConfig::default());
        assert!(ex.closed);
        let an = analyze(&spec, &ex);
        assert_eq!(an.doomed, 0, "agreement must stay reachable under every schedule");
        assert_eq!(an.deadlocks, 0);
        // Liveness bound on a path of 3: two trades suffice from anywhere.
        assert!(
            an.max_agreement_distance.expect("certified analysis records an agreement distance")
                <= 3
        );
    }

    #[test]
    fn crashing_the_cut_vertex_dooms_blind_gossip() {
        // On the path 0-1-2 the adversary can crash the middle node before
        // the endpoints have exchanged anything; the survivors are
        // partitioned holding different minima — a genuinely doomed state
        // the crash-free analysis cannot see.
        let spec = BlindGossipSpec { uids: vec![1, 2, 3] };
        let cfg = CheckConfig { max_crashes: 1, ..CheckConfig::default() };
        let ex = explore(&spec, &gen::path(3), &cfg);
        assert!(ex.closed);
        let an = analyze(&spec, &ex);
        assert!(an.doomed > 0, "partitioning crash must doom some states");
        // Without the crash budget the same instance is clean.
        let ex0 = explore(&spec, &gen::path(3), &CheckConfig::default());
        assert_eq!(analyze(&spec, &ex0).doomed, 0);
    }

    #[test]
    fn proposal_loss_does_not_break_push_pull_liveness() {
        let spec = RumorSpec::push_pull(3, 1);
        let cfg = CheckConfig { loss: true, ..CheckConfig::default() };
        let ex = explore(&spec, &gen::path(3), &cfg);
        assert!(ex.closed);
        let an = analyze(&spec, &ex);
        assert_eq!(an.doomed, 0);
        assert_eq!(an.deadlocks, 0);
    }

    /// Explore `spec` to a closed state space; check that no successor
    /// list repeats a state and that `analyze` gives the same result when
    /// every list is doubled and reversed, as lists that keep one entry
    /// per transition would be.
    fn distinct_successors<S: CheckSpec>(spec: &S, graph: &Graph, cfg: &CheckConfig) -> Analysis {
        let mut ex = explore(spec, graph, cfg);
        assert!(ex.closed);
        for list in &ex.succs {
            let mut sorted = list.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len(), "repeated successor in {list:?}");
        }
        let an = analyze(spec, &ex);
        for list in &mut ex.succs {
            let once = list.clone();
            list.extend_from_slice(&once);
            list.reverse();
        }
        assert_eq!(analyze(spec, &ex), an);
        an
    }

    #[test]
    fn successor_lists_are_distinct_and_analysis_ignores_repeats() {
        // The counts are the ones `mtm-check` printed for these instances
        // while successor lists still kept one entry per transition.
        let blind = BlindGossipSpec { uids: vec![1, 2, 3] };
        let cfg = CheckConfig { max_crashes: 1, ..CheckConfig::default() };
        let an = distinct_successors(&blind, &gen::path(3), &cfg);
        assert_eq!((an.agreed.len(), an.agreed_count), (20, 7));
        assert_eq!((an.doomed, an.deadlocks, an.max_agreement_distance), (4, 4, Some(1)));

        // A1's β = 1 instance: two leaders wedge short of agreement.
        let config = TagConfig::new(4, 1.0, 3);
        let a1 = BitConvergenceSpec { uids: vec![1, 2, 3, 4], tags: vec![0, 0, 1, 2], config };
        let an = distinct_successors(&a1, &gen::clique(4), &CheckConfig::default());
        assert_eq!((an.agreed.len(), an.agreed_count), (163, 0));
        assert_eq!((an.doomed, an.deadlocks), (163, 32));

        let push_pull = RumorSpec::push_pull(3, 1);
        let cfg = CheckConfig { loss: true, ..CheckConfig::default() };
        let an = distinct_successors(&push_pull, &gen::clique(3), &cfg);
        assert_eq!((an.doomed, an.deadlocks), (0, 0));
    }

    #[test]
    fn maintained_gossip_horizon_exploration_keeps_epoch_invariant() {
        let spec = MaintainedGossipSpec { uids: vec![1, 2, 3], timeout: 4 };
        let cfg = CheckConfig { horizon: 4, ..CheckConfig::default() };
        let ex = explore(&spec, &gen::path(3), &cfg);
        // Epoch drift keeps the space from closing; the run truncates at the
        // horizon with the invariant intact and agreement reached inside it.
        assert_eq!(ex.truncation, Some(Truncation::Horizon));
        assert!(ex.violations.is_empty());
        let an = analyze(&spec, &ex);
        assert!(an.first_agreed.is_some());
    }

    /// PPUSH declared with `b = 0`, although its uninformed nodes advertise
    /// tag 1.
    struct NarrowPpush;

    impl CheckSpec for NarrowPpush {
        type P = Ppush;

        fn name(&self) -> &'static str {
            "ppush-b0"
        }

        fn params(&self) -> ModelParams {
            ModelParams::mobile(0)
        }

        fn initial(&self) -> Vec<Ppush> {
            Ppush::spawn(3, 1)
        }

        fn agreed(&self, nodes: &[Ppush], _crashed: u64) -> bool {
            nodes.iter().all(RumorView::informed)
        }

        fn summarize(&self, _nodes: &[Ppush]) -> String {
            String::new()
        }
    }

    #[test]
    #[should_panic(expected = "exceeding b = 0 bits")]
    fn explored_transitions_run_the_engine_audits() {
        // The first transition advertises a 1-bit tag under b = 0: the
        // engine's tag audit must reject it.
        explore(&NarrowPpush, &gen::path(3), &CheckConfig::default());
    }

    #[test]
    fn state_cap_bounds_the_work() {
        // At the first group start every node picks one of 63 bit
        // positions: 63^4 advertise combinations, each reaching a new
        // state. The run stops at the first successor the cap discards.
        let mut config = TagConfig::new(4, 3.0, 3);
        config.k = 63;
        let spec = NonSyncSpec { uids: vec![1, 2, 3, 4], tags: vec![0, 0, 1, 2], config };
        let cfg = CheckConfig { max_states: 500, ..CheckConfig::default() };
        let ex = explore(&spec, &gen::clique(4), &cfg);
        assert_eq!(ex.truncation, Some(Truncation::StateCap));
        assert_eq!(ex.state_count(), 500);
        assert!(ex.transitions <= 1_000, "{} transitions under a 500-state cap", ex.transitions);
    }
}
