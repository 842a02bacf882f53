//! Per-protocol checking specifications.
//!
//! A [`CheckSpec`] tells the explorer everything protocol-specific it needs:
//! how to build the initial configuration, what the round period is (so
//! states reached at equivalent points of the protocol's round structure can
//! be merged), what "the network agrees" means, which per-transition
//! invariants must hold, and an optional canonicalization of the state words
//! (used to quotient out symmetries such as a uniform epoch shift).

use mtm_core::{
    BitConvergence, BlindGossip, MaintainedGossip, MaintenanceConfig, NonSyncBitConvergence, Ppush,
    PullOnly, PushOnly, PushPull, TagConfig,
};
use mtm_engine::{EpochView, LeaderView, ModelParams, Protocol, RumorView};

/// Iterate the indices of up (non-crashed) nodes under a crash bitmask.
pub fn up_nodes(n: usize, crashed: u64) -> impl Iterator<Item = usize> {
    (0..n).filter(move |&u| crashed & (1u64 << u) == 0)
}

/// Do all up nodes map to the same key under `f`? (Vacuously true if every
/// node crashed.)
fn agree_on<P, K: PartialEq>(nodes: &[P], crashed: u64, f: impl Fn(&P) -> K) -> bool {
    let mut it = up_nodes(nodes.len(), crashed).map(|u| f(&nodes[u]));
    match it.next() {
        None => true,
        Some(first) => it.all(|k| k == first),
    }
}

/// Everything the model checker needs to know about one protocol
/// configuration. The explorer itself is protocol-agnostic; it enumerates
/// choices through the [`Protocol`] check interface (`enumerate_choices` /
/// `apply_choice` / `enumerate_actions`), lets the engine run each round,
/// and consults the spec for the property layer.
pub trait CheckSpec {
    /// The protocol under check.
    type P: Protocol + Clone + std::fmt::Debug;

    /// Short protocol name for reports.
    fn name(&self) -> &'static str;

    /// Model parameters the engine runs every transition and replay under.
    fn params(&self) -> ModelParams;

    /// The initial configuration (one protocol instance per node).
    fn initial(&self) -> Vec<Self::P>;

    /// Period of the protocol's round structure: states are merged only when
    /// reached at the same round offset modulo this period. `1` for
    /// round-structure-free protocols; the phase length for synchronized
    /// bit convergence; the group length for the non-synchronized variant.
    fn period(&self) -> u64 {
        1
    }

    /// Optional canonicalization of the concatenated per-node state words
    /// used as the dedup key (the stored representative state stays raw so
    /// witness replay is exact). Default: identity.
    fn canonicalize(&self, _words: &mut [u64]) {}

    /// Does this configuration count as network agreement over up nodes?
    fn agreed(&self, nodes: &[Self::P], crashed: u64) -> bool;

    /// Per-transition safety invariant, checked on every explored edge
    /// (`prev` → `next` are raw pre-/post-round configurations).
    fn invariant(&self, _prev: &[Self::P], _next: &[Self::P]) -> Result<(), String> {
        Ok(())
    }

    /// One-line rendering of a configuration for reports.
    fn summarize(&self, nodes: &[Self::P]) -> String;
}

/// Blind gossip (§VI): agreement is every up node knowing the same minimum
/// UID.
pub struct BlindGossipSpec {
    /// Per-node UIDs.
    pub uids: Vec<u64>,
}

impl CheckSpec for BlindGossipSpec {
    type P = BlindGossip;

    fn name(&self) -> &'static str {
        "blind-gossip"
    }

    fn params(&self) -> ModelParams {
        ModelParams::mobile(0)
    }

    fn initial(&self) -> Vec<BlindGossip> {
        self.uids.iter().map(|&u| BlindGossip::new(u)).collect()
    }

    fn agreed(&self, nodes: &[BlindGossip], crashed: u64) -> bool {
        agree_on(nodes, crashed, LeaderView::leader)
    }

    fn summarize(&self, nodes: &[BlindGossip]) -> String {
        let best: Vec<u64> = nodes.iter().map(LeaderView::leader).collect();
        format!("best={best:?}")
    }
}

/// Bit convergence (§VII): agreement is every up node electing the same
/// leader UID. Rounds are merged modulo the phase length.
pub struct BitConvergenceSpec {
    /// Per-node UIDs.
    pub uids: Vec<u64>,
    /// Per-node `k`-bit ID tags (the adversary's choice of tag collisions is
    /// part of the checked instance).
    pub tags: Vec<u64>,
    /// Tag/group geometry shared by all nodes.
    pub config: TagConfig,
}

impl CheckSpec for BitConvergenceSpec {
    type P = BitConvergence;

    fn name(&self) -> &'static str {
        "bit-convergence"
    }

    fn params(&self) -> ModelParams {
        ModelParams::mobile(1)
    }

    fn initial(&self) -> Vec<BitConvergence> {
        self.uids
            .iter()
            .zip(&self.tags)
            .map(|(&uid, &tag)| BitConvergence::new(uid, tag, self.config))
            .collect()
    }

    fn period(&self) -> u64 {
        self.config.phase_len()
    }

    fn agreed(&self, nodes: &[BitConvergence], crashed: u64) -> bool {
        agree_on(nodes, crashed, LeaderView::leader)
    }

    fn summarize(&self, nodes: &[BitConvergence]) -> String {
        let leaders: Vec<u64> = nodes.iter().map(LeaderView::leader).collect();
        format!("leader={leaders:?}")
    }
}

/// Rumor spreading — PUSH-PULL, PPUSH and the PUSH-only / PULL-only
/// ablations: agreement is every up node informed.
pub struct RumorSpec<P> {
    name: &'static str,
    /// Tag bits the protocol advertises.
    b: u32,
    /// `spawn(n, sources)`: `n` nodes, nodes `0..sources` informed.
    spawn: fn(usize, usize) -> Vec<P>,
    n: usize,
    sources: usize,
}

impl RumorSpec<PushPull> {
    /// PUSH-PULL (`b = 0`).
    pub fn push_pull(n: usize, sources: usize) -> Self {
        RumorSpec { name: "push-pull", b: 0, spawn: PushPull::spawn, n, sources }
    }
}

impl RumorSpec<Ppush> {
    /// PPUSH (`b = 1`, advertisement-driven).
    pub fn ppush(n: usize, sources: usize) -> Self {
        RumorSpec { name: "ppush", b: 1, spawn: Ppush::spawn, n, sources }
    }
}

impl RumorSpec<PushOnly> {
    /// The PUSH-only ablation (`b = 0`).
    pub fn push_only(n: usize, sources: usize) -> Self {
        RumorSpec { name: "push-only", b: 0, spawn: PushOnly::spawn, n, sources }
    }
}

impl RumorSpec<PullOnly> {
    /// The PULL-only ablation (`b = 0`).
    pub fn pull_only(n: usize, sources: usize) -> Self {
        RumorSpec { name: "pull-only", b: 0, spawn: PullOnly::spawn, n, sources }
    }
}

impl<P: Protocol + RumorView + Clone + std::fmt::Debug> CheckSpec for RumorSpec<P> {
    type P = P;

    fn name(&self) -> &'static str {
        self.name
    }

    fn params(&self) -> ModelParams {
        ModelParams::mobile(self.b)
    }

    fn initial(&self) -> Vec<P> {
        (self.spawn)(self.n, self.sources)
    }

    fn agreed(&self, nodes: &[P], crashed: u64) -> bool {
        up_nodes(nodes.len(), crashed).all(|u| nodes[u].informed())
    }

    fn summarize(&self, nodes: &[P]) -> String {
        let informed: Vec<u8> = nodes.iter().map(|p| u8::from(p.informed())).collect();
        format!("informed={informed:?}")
    }
}

/// Maintained gossip (leader maintenance under churn, PR 6): agreement is
/// every up node in the same epoch backing the same candidate.
///
/// Epoch counters drift apart without bound under adversarial starvation, so
/// the raw state space does not close; the spec quotients a uniform epoch
/// shift out of the dedup key (the dynamics are shift-equivariant) and
/// additionally checks the per-transition *epoch regression* invariant: a
/// node's epoch never decreases across a round.
pub struct MaintainedGossipSpec {
    /// Per-node UIDs.
    pub uids: Vec<u64>,
    /// Failure-detection timeout (rounds of stale evidence before firing).
    pub timeout: u64,
}

impl CheckSpec for MaintainedGossipSpec {
    type P = MaintainedGossip;

    fn name(&self) -> &'static str {
        "maintained-gossip"
    }

    fn params(&self) -> ModelParams {
        ModelParams::mobile(0)
    }

    fn initial(&self) -> Vec<MaintainedGossip> {
        let cfg = MaintenanceConfig::new(self.timeout);
        self.uids.iter().map(|&u| MaintainedGossip::new(u, cfg)).collect()
    }

    fn canonicalize(&self, words: &mut [u64]) {
        // Words per node: [epoch, cand, age, grace]. Shift all epochs down by
        // the minimum so executions that differ only by a uniform epoch
        // offset merge.
        let min_epoch = words.chunks(4).map(|c| c[0]).min().unwrap_or(0);
        for chunk in words.chunks_mut(4) {
            chunk[0] -= min_epoch;
        }
    }

    fn agreed(&self, nodes: &[MaintainedGossip], crashed: u64) -> bool {
        agree_on(nodes, crashed, |p| (p.epoch(), p.leader()))
    }

    fn invariant(
        &self,
        prev: &[MaintainedGossip],
        next: &[MaintainedGossip],
    ) -> Result<(), String> {
        for (u, (p, q)) in prev.iter().zip(next).enumerate() {
            if q.epoch() < p.epoch() {
                return Err(format!(
                    "epoch regression at node {u}: {} -> {}",
                    p.epoch(),
                    q.epoch()
                ));
            }
        }
        Ok(())
    }

    fn summarize(&self, nodes: &[MaintainedGossip]) -> String {
        let view: Vec<(u64, u64)> = nodes.iter().map(|p| (p.epoch(), p.leader())).collect();
        format!("(epoch,cand)={view:?}")
    }
}

/// Non-synchronized bit convergence (§VIII): the only protocol with genuine
/// advertise-phase nondeterminism (the per-group random bit position), which
/// the checker enumerates as an adversary choice.
pub struct NonSyncSpec {
    /// Per-node UIDs.
    pub uids: Vec<u64>,
    /// Per-node `k`-bit ID tags.
    pub tags: Vec<u64>,
    /// Tag/group geometry shared by all nodes.
    pub config: TagConfig,
}

impl CheckSpec for NonSyncSpec {
    type P = NonSyncBitConvergence;

    fn name(&self) -> &'static str {
        "nonsync"
    }

    fn params(&self) -> ModelParams {
        ModelParams::mobile(self.config.nonsync_tag_bits())
    }

    fn initial(&self) -> Vec<NonSyncBitConvergence> {
        self.uids
            .iter()
            .zip(&self.tags)
            .map(|(&uid, &tag)| NonSyncBitConvergence::new(uid, tag, self.config))
            .collect()
    }

    fn period(&self) -> u64 {
        self.config.group_len
    }

    fn agreed(&self, nodes: &[NonSyncBitConvergence], crashed: u64) -> bool {
        agree_on(nodes, crashed, LeaderView::leader)
    }

    fn summarize(&self, nodes: &[NonSyncBitConvergence]) -> String {
        let leaders: Vec<u64> = nodes.iter().map(LeaderView::leader).collect();
        format!("leader={leaders:?}")
    }
}
