//! The lockstep round pipeline.
//!
//! [`Engine`] drives a vector of [`Protocol`] nodes through the mobile (or
//! classical) telephone model's round phases over a dynamic topology. Every
//! round — sequential, sharded or scripted — runs through one private
//! pipeline parameterized by two pieces of data:
//!
//! - the **shard plan**: `threads` contiguous node ranges, each phase one
//!   function over a shard (the `parallel` module). Sequential execution is
//!   simply the one-shard plan, run inline on the calling thread;
//! - the **choice source**: each node's own RNG stream
//!   ([`Engine::step`]) or a [`RoundScript`] ([`Engine::step_scripted`]).
//!
//! Each phase body (advertise, scan/act, accept, end-of-round) and each
//! piece of glue between phases (active-set precompute, proposal merge and
//! arena scatter, accepted merge and delivery, round close) exists once.
//! Trial-level fan-out lives one level up, in [`crate::runner`].
//!
//! # Hot-path design
//!
//! All per-round state lives in workhorse buffers reused across rounds —
//! steady-state execution performs no heap allocation. Node state is kept
//! struct-of-arrays, so phase loops stream linearly, and an array exists
//! only where a round reads it. Per node the engine holds:
//!
//! - the protocol state (16 bytes for blind gossip);
//! - its RNG stream: 32 bytes;
//! - its round slot: 4 bytes, a `u32` proposal target with two reserved
//!   values for "listen" and "asleep";
//! - the end of its inbox span: 4 bytes;
//! - its advertised tag: 4 bytes, only when `b > 0` (no scan reads a
//!   `b = 0` tag, though the audit still checks every one);
//! - an active flag: 1 byte, only while a non-synchronized schedule still
//!   has a sleeping node;
//! - its activation round: 8 bytes in the [`ActivationSchedule`], only for
//!   a non-synchronized schedule. Local rounds are read from the schedule:
//!   a synchronized node's local round is the engine round.
//!
//! Per-round buffers grow with the round's proposals: 8 bytes per proposal
//! in its shard's list and again in the merged pair list, 4 in the arena,
//! and 8 per connection. The topology's CSR (36 bytes per node at degree 8)
//! belongs to the caller. A synchronized blind-gossip election at
//! `n = 2^22` peaks at about 110 bytes per node in all, graph and UIDs
//! included (DESIGN.md §4, "Per-node memory"). Four further mechanisms
//! keep the per-node-round cost flat at large `n`:
//!
//! - **Active set**: while some node is still asleep, activation is
//!   checked once per node per round into a flag array, not per phase and
//!   per neighbor. Activation is monotone, so from the schedule's last
//!   activation round on the array is freed and no phase checks it; a
//!   synchronized schedule never builds it.
//! - **Zero-copy scan**: once all nodes are active, every neighbor is
//!   visible and the CSR neighbor slice is passed straight into
//!   [`Scan`](crate::protocol::Scan) instead of being filtered into a
//!   scratch buffer; tag gathering is skipped entirely when
//!   `tag_bits == 0`.
//! - **Proposal arena**: incoming proposals are laid out as CSR-style
//!   spans over one flat buffer, so proposal resolution is cache-linear
//!   with no per-receiver vectors.
//! - **Linear matching audit**: delivery checks that the accepted pairs
//!   form a matching by marking their endpoints in a one-bit-per-node set
//!   and clearing it on a second walk over the pairs: O(connections) per
//!   round, no sort.
//!
//! # The per-node RNG streams are part of the public contract
//!
//! An execution is a pure function of `(seed, config)`, and every recorded
//! `results/*.csv` depends on the *exact order and count* of RNG draws the
//! engine makes. The contract (engine semantics
//! [`ENGINE_SEMANTICS_VERSION`]) is:
//!
//! - node `u` draws only from its own stream (`stream_rng(seed, u)`, bound
//!   once by the stream helper both backends construct through), in phase
//!   order within each round — advertise, act, acceptance (receivers draw
//!   from their *own* streams), `on_connect`, `end_round`;
//! - loss coins are *counter-based*: proposal survival is the pure
//!   function `counter_coin(loss_seed, round, proposer) < loss_prob`,
//!   independent of draw order (the v1 semantics drew from one global
//!   sequential loss stream in proposer order);
//! - receivers resolve acceptance and take delivery in **ascending node
//!   id** order (v1 used first-proposal order). Per-node streams are
//!   unaffected by this ordering — it exists so per-shard results merge by
//!   concatenation.
//!
//! Because no draw depends on cross-node ordering, every shard plan replays
//! the same execution exactly. Any optimization must preserve the streams
//! bit-for-bit — see the trace-equivalence suite
//! (`tests/trace_equivalence.rs`), which pins the pipeline against a
//! straight-line reference implementation at several thread counts, and
//! [`crate::audit::determinism_self_check`].

use mtm_graph::{DynamicTopology, Graph, NodeId};
use rand::rngs::SmallRng;

use crate::activation::ActivationSchedule;
use crate::metrics::Metrics;
use crate::model::{ConnectionPolicy, ModelParams, Tag};
use crate::protocol::{Action, LeaderView, Protocol, RumorView};

#[path = "parallel.rs"]
mod parallel;
use parallel::{ShardPlan, ShardScratch};

/// Version tag for the engine's execution semantics — the part of the RNG
/// contract that recorded results depend on (see the module docs). Bumped
/// whenever a change alters any recorded table's bytes; `results/MANIFEST.json`
/// records the version each regeneration ran under, and `regen --check`
/// refuses to validate digests across a version mismatch.
///
/// - `v1`: global sequential loss stream, first-proposal receiver order.
/// - `v2`: counter-based loss coins keyed on `(loss_seed, round, proposer)`;
///   receivers resolve acceptance and take delivery in ascending node id.
///   Non-lossy per-node draws are unchanged from v1.
pub const ENGINE_SEMANTICS_VERSION: &str = "v2";

/// The node↔stream binding every backend constructs through: node `u`
/// draws only from `stream_rng(seed, u)`.
pub(crate) fn node_streams(seed: u64, n: usize) -> Vec<SmallRng> {
    (0..n as u64).map(|u| mtm_graph::rng::stream_rng(seed, u)).collect()
}

/// Per-node resolved action for the current round: the id a node proposes
/// to, or one of two reserved values no node id reaches ([`Engine::new`]
/// caps `n` at [`Slot::MAX_NODES`], so ids stop at `u32::MAX − 3`).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Slot(NodeId);

impl Slot {
    /// Asleep this round: every slot's initial value.
    const INACTIVE: Slot = Slot(u32::MAX);
    /// Listening this round.
    const LISTEN: Slot = Slot(u32::MAX - 1);
    /// The largest node count whose ids stay below both reserved values.
    const MAX_NODES: usize = u32::MAX as usize - 2;

    /// Proposing to `v`.
    #[inline]
    fn propose(v: NodeId) -> Slot {
        debug_assert!((v as usize) < Self::MAX_NODES, "node id {v} collides with a reserved slot");
        Slot(v)
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Slot::INACTIVE => f.write_str("Inactive"),
            Slot::LISTEN => f.write_str("Listen"),
            Slot(v) => write!(f, "Propose({v})"),
        }
    }
}

/// Where a round's choices come from.
#[derive(Clone, Copy)]
enum Choices<'a> {
    /// Every node draws from its own stream.
    Drawn,
    /// The script resolves every advertise, act and acceptance choice.
    Scripted(&'a RoundScript),
}

/// Which nodes run the current round, and at which local round.
#[derive(Clone, Copy)]
struct Awake<'a> {
    round: u64,
    schedule: &'a ActivationSchedule,
    /// This round's active set, or `None` once every node has activated.
    active: Option<&'a [bool]>,
}

impl Awake<'_> {
    /// True once every node has activated (activation is monotone).
    #[inline]
    fn all(&self) -> bool {
        self.active.is_none()
    }

    #[inline]
    fn is_active(&self, u: usize) -> bool {
        self.active.is_none_or(|active| active[u])
    }

    /// Node `u`'s local round, or `None` while it is still asleep.
    #[inline]
    fn local_round(&self, u: usize) -> Option<u64> {
        self.is_active(u).then(|| self.schedule.local_round(u, self.round))
    }
}

/// The read-only inputs every shard body of one round shares.
struct RoundCtx<'a> {
    round: u64,
    params: ModelParams,
    choices: Choices<'a>,
    graph: &'a Graph,
    awake: Awake<'a>,
    loss_prob: f64,
    loss_seed: u64,
    auditor: &'a crate::audit::Auditor,
}

/// The proposals that reached a listening receiver, as one CSR span per
/// receiver over a flat arena, plus each receiver's scripted pick.
#[derive(Default)]
struct Inbox {
    /// Surviving `(receiver, proposer)` pairs in ascending proposer order.
    pairs: Vec<(NodeId, NodeId)>,
    arena: Vec<NodeId>,
    /// One past the end of each receiver's span, once scattered; receiver
    /// `v`'s span starts where `v − 1`'s ends. While proposals are counted
    /// it holds each receiver's count instead.
    ends: Vec<u32>,
    /// The proposer each receiver accepts in a scripted round.
    picks: Vec<Option<NodeId>>,
}

impl Inbox {
    /// Merge the shards' proposals in shard order (= ascending proposer
    /// id, so each span stays proposer-sorted) and scatter those whose
    /// receiver listened into the arena. A proposal to a node that itself
    /// proposed is rejected.
    fn collect(&mut self, shards: &mut [ShardScratch], slots: &[Slot], metrics: &mut Metrics) {
        self.ends.clear();
        self.ends.resize(slots.len(), 0);
        for shard in shards.iter_mut() {
            // A proposal made at scan time either survived or was dropped.
            metrics.proposals += shard.proposed.len() as u64 + shard.dropped;
            shard.drain_counts(metrics);
            for &(u, v) in &shard.proposed {
                let vi = v as usize;
                if slots[vi] == Slot::LISTEN {
                    self.ends[vi] += 1;
                    self.pairs.push((v, u));
                } else {
                    metrics.rejected_proposals += 1;
                }
            }
            shard.proposed.clear();
        }
        // Every arena position below the pair count is overwritten by the
        // scatter, so the buffer only ever grows — no per-round zeroing.
        if self.arena.len() < self.pairs.len() {
            self.arena.resize(self.pairs.len(), 0);
        }
        // Dense prefix sum, one cache-linear pass: each count becomes the
        // start of its span, and the scatter advances it to the span's end.
        let mut cursor = 0u32;
        for end in &mut self.ends {
            let len = *end;
            *end = cursor;
            cursor += len;
        }
        for &(v, u) in &self.pairs {
            let c = self.ends[v as usize];
            self.arena[c as usize] = u;
            self.ends[v as usize] = c + 1;
        }
        self.pairs.clear();
    }

    /// The proposers that reached each receiver from `first` on, one span
    /// per receiver in id order.
    fn incoming_from(&self, first: usize) -> impl Iterator<Item = &[NodeId]> + '_ {
        let mut start = first.checked_sub(1).map_or(0, |v| self.ends[v] as usize);
        self.ends[first..].iter().map(move |&end| {
            let span = &self.arena[start..end as usize];
            start = end as usize;
            span
        })
    }

    /// Validate a script's matching against this round's slots and record
    /// each receiver's pick.
    fn pick(&mut self, accept: &[(NodeId, NodeId)], slots: &[Slot]) {
        let n = slots.len();
        self.picks.clear();
        self.picks.resize(n, None);
        for &(u, v) in accept {
            let (ui, vi) = (u as usize, v as usize);
            assert!(ui < n && vi < n, "accepted pair ({u}, {v}) out of range");
            assert_eq!(
                slots[ui],
                Slot::propose(v),
                "accepted pair ({u}, {v}) does not match a scripted proposal"
            );
            assert_eq!(slots[vi], Slot::LISTEN, "receiver {v} did not listen this round");
            assert!(self.picks[vi].is_none(), "receiver {v} accepts more than one proposal");
            self.picks[vi] = Some(u);
        }
    }
}

/// Outcome of a run-to-stabilization helper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// First round at the end of which the target predicate held (e.g. all
    /// nodes agree on a leader), if reached within the budget.
    pub stabilized_round: Option<u64>,
    /// Rounds after the last activation until stabilization, the §VIII
    /// metric — see [`rounds_after_activation`] for the exact definition.
    pub rounds_after_activation: Option<u64>,
    /// The agreed leader UID (leader election runs only).
    pub winner: Option<u64>,
    /// Why the run helper returned: stabilized, ran out of budget, or was
    /// cut short by the stuck-run detector.
    pub status: RunStatus,
    /// Aggregate counters for the whole execution.
    pub metrics: Metrics,
}

/// Why a run-to-* helper returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The target predicate held within the round budget.
    Stabilized,
    /// The round budget ran out with no evidence that further progress is
    /// impossible — the run may just be slow.
    TimedOut,
    /// The stuck-run detector fired: no node's progress words changed for
    /// a full window of rounds (see [`StuckReport`]). Requires
    /// [`Engine::enable_stuck_detection`].
    Stuck(StuckReport),
}

/// Evidence captured when the stuck-run detector fires.
///
/// The detector watches the network fingerprint — the fold of every node's
/// [`Protocol::progress_words`] digest — and fires after `window` consecutive
/// rounds without change, with the topology static over the window and all
/// activations complete. When `idle_connections == 0` no payload moved in
/// the window. That proves a fixed point only for a protocol that draws
/// nothing while no connection forms: its durable state changes only
/// through connections and its decisions depend only on that state, so the
/// round is reproduced verbatim forever. The A1 β=1 two-leader deadlock is
/// this shape — bit convergence's tag collision leaves no node a neighbor
/// to propose to. A coin-flip protocol (blind gossip, PUSH-PULL,
/// `MaintainedGossip`) can go several rounds without a connection by
/// chance, so for it a zero count shows only that no connection formed: a
/// partitioned or dead topology and a window too short to rule out chance
/// each produce it. With `idle_connections > 0` the verdict is heuristic —
/// connections formed but none carried news for a full window, which for
/// the paper's *monotone* protocols still means a fixed point whenever the
/// window exceeds the information diameter of the frozen state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StuckReport {
    /// Last round at the end of which the network fingerprint changed (or
    /// an activation / topology-change barrier reset the window); the state
    /// has been bit-identical since.
    pub fixed_since: u64,
    /// Round at which the detector fired (`fixed_since + window`).
    pub detected_round: u64,
    /// The configured window length W, in rounds.
    pub window: u64,
    /// Connections formed during the idle window. Zero means no payload was
    /// exchanged at all; the type's docs say when that proves a fixed point.
    pub idle_connections: u64,
}

/// The §VIII "rounds after activation" metric: the length of the inclusive
/// round window `[last_activation, stabilized_round]`. The activation round
/// itself is charged (stabilizing in the round the last node wakes scores
/// 1), and a run that was already stable before its last activation scores
/// 0 — the empty window.
pub fn rounds_after_activation(stabilized_round: u64, last_activation: u64) -> u64 {
    if stabilized_round < last_activation {
        0
    } else {
        stabilized_round - last_activation + 1
    }
}

/// One round of a fully scripted execution: the adversary's resolved
/// choices for every phase, as enumerated by the `mtm-check` model checker.
/// [`Engine::step_scripted`] runs it: the checker computes each explored
/// transition that way, and a witness schedule is a list of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundScript {
    /// Per-node advertise choice (an element of
    /// [`Protocol::enumerate_choices`] for that node and round).
    pub advertise: Vec<u32>,
    /// Per-node action (an element of [`Protocol::enumerate_actions`]).
    pub actions: Vec<Action>,
    /// Accepted connections as `(proposer, receiver)` pairs: a matching in
    /// which every proposer entry proposed to exactly that receiver this
    /// round and every receiver listened.
    pub accept: Vec<(NodeId, NodeId)>,
}

/// The freeze rule behind the stuck-run detector and the service loop's
/// wedge detector: it fires once the network fingerprint has held still for
/// `window` consecutive rounds, none of them a reset.
pub(crate) struct StuckDetector {
    window: u64,
    last_fp: Option<u64>,
    stable_rounds: u64,
    last_change_round: u64,
    connections_at_change: u64,
    report: Option<StuckReport>,
}

impl StuckDetector {
    /// A detector whose window opens at `round`, when `connections`
    /// connections had formed.
    pub(crate) fn new(window: u64, round: u64, connections: u64) -> Self {
        StuckDetector {
            window,
            last_fp: None,
            stable_rounds: 0,
            last_change_round: round,
            connections_at_change: connections,
            report: None,
        }
    }

    /// Feed the network fingerprint `fp` at the end of `round`, with
    /// `connections` formed so far. A changed fingerprint or a `reset`
    /// round (one that may legitimately unfreeze the state) restarts the
    /// window. Returns the report once the detector has fired, and the same
    /// report on every later call.
    pub(crate) fn observe(
        &mut self,
        round: u64,
        fp: u64,
        reset: bool,
        connections: u64,
    ) -> Option<StuckReport> {
        if self.report.is_some() {
            return self.report;
        }
        if reset || self.last_fp != Some(fp) {
            self.last_fp = Some(fp);
            self.stable_rounds = 0;
            self.last_change_round = round;
            self.connections_at_change = connections;
        } else {
            self.stable_rounds += 1;
            if self.stable_rounds >= self.window {
                self.report = Some(StuckReport {
                    fixed_since: self.last_change_round,
                    detected_round: round,
                    window: self.window,
                    idle_connections: connections - self.connections_at_change,
                });
            }
        }
        self.report
    }
}

/// The model executor. See the crate docs for the per-round phase order.
pub struct Engine<P: Protocol, T: DynamicTopology> {
    topology: T,
    params: ModelParams,
    schedule: ActivationSchedule,
    nodes: Vec<P>,
    rngs: Vec<SmallRng>,
    round: u64,
    metrics: Metrics,
    stuck: Option<StuckDetector>,
    loss_prob: f64,
    // Counter-coin key for proposal loss: survival of `(round, proposer)`
    // is `counter_coin(loss_seed, round, proposer) < loss_prob`, a pure
    // function with no sequential state (see the module docs).
    loss_seed: u64,
    // Worker count: the shard plan runs `threads` shards (1 = inline).
    threads: usize,
    // Workhorse buffers (reused every round).
    shards: Vec<ShardScratch>,
    // Advertised tags; empty when `b = 0`, where no scan reads a tag.
    tags: Vec<Tag>,
    slots: Vec<Slot>,
    // Per-round active set, held only while some node is still asleep:
    // once `all_active` latches true it is freed and never recomputed
    // (activation is monotone). A synchronized schedule never allocates it.
    active: Vec<bool>,
    all_active: bool,
    inbox: Inbox,
    // Scratch the stuck detector pushes each node's progress words into.
    fp_words: Vec<u64>,
    auditor: crate::audit::Auditor,
}

impl<P: Protocol, T: DynamicTopology> Engine<P, T> {
    /// Build an engine for `nodes` over `topology`.
    ///
    /// `seed` determines every random choice in the execution: node `u`
    /// gets RNG stream `u`, and the engine's own acceptance choices use the
    /// same per-node streams, so an execution is a pure function of its
    /// inputs.
    pub fn new(
        topology: T,
        params: ModelParams,
        schedule: ActivationSchedule,
        nodes: Vec<P>,
        seed: u64,
    ) -> Self {
        let n = topology.node_count();
        assert_eq!(nodes.len(), n, "one protocol instance per topology node");
        assert_eq!(schedule.len(), n, "activation schedule must cover all nodes");
        assert!(n <= Slot::MAX_NODES, "{n} nodes exceed the engine's {} node ids", Slot::MAX_NODES);
        Engine {
            topology,
            params,
            schedule,
            nodes,
            rngs: node_streams(seed, n),
            round: 0,
            metrics: Metrics::default(),
            stuck: None,
            loss_prob: 0.0,
            // Dedicated stream index far above the per-node range so
            // enabling proposal loss never perturbs node randomness.
            loss_seed: mtm_graph::rng::derive_seed(seed, u64::MAX),
            threads: 1,
            shards: Vec::new(),
            tags: if params.tag_bits > 0 { vec![Tag::EMPTY; n] } else { Vec::new() },
            slots: vec![Slot::INACTIVE; n],
            active: Vec::new(),
            all_active: false,
            inbox: Inbox::default(),
            fp_words: Vec::new(),
            auditor: crate::audit::Auditor::default(),
        }
    }

    /// Enable the stuck-run detector with a no-progress window of `window`
    /// rounds (≥ 1).
    ///
    /// After every round the engine digests all node states (see
    /// [`Protocol::progress_words`]); once the digest has stayed
    /// unchanged for `window` consecutive rounds — counted only while the
    /// topology holds still and all activations are complete — the run is
    /// declared stuck: `run_until` and the run-to-* helpers return early
    /// with [`RunStatus::Stuck`]. This turns the A1 β=1 permanent deadlock
    /// from a `max_rounds` timeout into an O(window) detection.
    ///
    /// Sizing `window`: it must exceed the longest *legitimate* gap between
    /// durable-state changes. For the phase-staged algorithms a small
    /// multiple of `phase_len` is safe; for coin-flip gossip use a
    /// generous constant (a frozen window there is probabilistic evidence
    /// unless [`StuckReport::idle_connections`] is 0).
    ///
    /// Panics if the protocol pushes no progress words.
    pub fn enable_stuck_detection(&mut self, window: u64) {
        assert!(window >= 1, "stuck-detection window must be ≥ 1");
        assert!(
            self.network_fingerprint().is_some() || self.nodes.is_empty(),
            "stuck detection requires the protocol to push progress words"
        );
        self.stuck = Some(StuckDetector::new(window, self.round, self.metrics.connections));
    }

    /// The stuck-run detector's verdict, if it has fired.
    pub fn stuck_report(&self) -> Option<StuckReport> {
        self.stuck.as_ref().and_then(|d| d.report)
    }

    /// Last round at the end of which the network fingerprint changed (or
    /// a barrier reset the detector). `None` unless detection is enabled.
    /// Useful for timeout diagnostics: "no progress since round r".
    pub fn last_progress_round(&self) -> Option<u64> {
        self.stuck.as_ref().map(|d| d.last_change_round)
    }

    /// Fold of every node's [`Protocol::progress_words`] digest in node
    /// order ([`crate::fingerprint::of_nodes`]), or `None` if the protocol
    /// pushes no progress words.
    pub fn network_fingerprint(&self) -> Option<u64> {
        crate::fingerprint::of_nodes(&self.nodes, &mut Vec::new())
    }

    /// Inject message loss: each proposal is independently dropped with
    /// probability `prob` before reaching its receiver (the proposer still
    /// forfeits its round — its radio was committed to sending). Dropped
    /// proposals count in [`Metrics::dropped_proposals`], never as
    /// rejections or connections. Loss coins are counter-based draws keyed
    /// on a dedicated seed (see [`mtm_graph::rng::counter_coin`]), so the
    /// run stays a pure function of `(seed, config)` and node randomness
    /// is untouched.
    pub fn set_proposal_loss(&mut self, prob: f64) {
        assert!((0.0..=1.0).contains(&prob), "loss probability must be in [0, 1], got {prob}");
        self.loss_prob = prob;
    }

    /// Set the worker count (`0` means "use
    /// [`std::thread::available_parallelism`]"). Every round runs on
    /// `min(threads, n)` contiguous shards; with one shard (the default)
    /// it runs inline on the calling thread. The pipeline is bit-for-bit
    /// deterministic: any thread count produces the identical execution —
    /// for every [`ConnectionPolicy`] and for [`Engine::step_scripted`]
    /// alike — so this is purely a throughput knob.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            threads
        };
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Aggregate execution counters.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Model parameters.
    pub fn params(&self) -> ModelParams {
        self.params
    }

    /// The activation schedule.
    pub fn schedule(&self) -> &ActivationSchedule {
        &self.schedule
    }

    /// Immutable view of the topology (e.g. to query
    /// [`DynamicTopology::is_node_up`] after a step).
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Mutable view of the topology, e.g. to install another fault
    /// schedule between rounds. Its node count must not change.
    pub fn topology_mut(&mut self) -> &mut T {
        &mut self.topology
    }

    /// Overwrite every node's state with `nodes` and set the round counter
    /// to `round`, so the next step runs round `round + 1` from that
    /// configuration. The active set and local rounds are recomputed from
    /// the schedule at that round. RNG streams, metrics and the stuck
    /// detector's window carry on. `mtm-check` restores each explored
    /// state before stepping one scripted transition out of it.
    pub fn restore(&mut self, nodes: &[P], round: u64)
    where
        P: Clone,
    {
        assert_eq!(nodes.len(), self.nodes.len(), "restore needs one state per node");
        self.nodes.clone_from_slice(nodes);
        self.round = round;
        self.all_active = false;
    }

    /// Immutable view of node `u`'s protocol state.
    pub fn node(&self, u: usize) -> &P {
        &self.nodes[u]
    }

    /// Immutable view of all protocol states.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// True iff node `u` has activated by the current round.
    pub fn is_active(&self, u: usize) -> bool {
        self.round >= 1 && self.schedule.is_active(u, self.round)
    }

    /// Rounds that passed the full conformance audit so far.
    pub fn rounds_audited(&self) -> u64 {
        self.auditor.rounds_audited()
    }

    /// Execute one full round (all five phases), every node drawing its
    /// choices from its own stream.
    pub fn step(&mut self) {
        self.run_round(Choices::Drawn);
    }

    /// Execute one round following `script` instead of drawing randomness,
    /// through the same pipeline, audits and delivery path as
    /// [`Engine::step`]. This is the scripted-adversary hook of `mtm-check`:
    /// every transition it explores is one call on an engine set to the
    /// parent state by [`Engine::restore`], and its witness schedules
    /// replay as a run of these calls from round 0.
    ///
    /// Requirements (asserted): the acceptance policy is
    /// [`ConnectionPolicy::SingleUniform`], every node is active this round
    /// (the checker explores synchronized executions only), the script's
    /// vectors cover all nodes, every scripted proposal targets a current
    /// neighbor, and `accept` is a matching of scripted proposals onto
    /// listening receivers. A listener that accepts nothing drops its
    /// proposals (the scripted adversary subsumes proposal loss; no loss
    /// coins are drawn). Scripted rounds draw nothing from the per-node
    /// RNG streams — checkable protocols keep `on_connect`/`end_round`
    /// RNG-free — so the streams stay aligned for any unscripted rounds
    /// around them.
    pub fn step_scripted(&mut self, script: &RoundScript) {
        let n = self.nodes.len();
        assert_eq!(script.advertise.len(), n, "script advertise choices must cover all nodes");
        assert_eq!(script.actions.len(), n, "script actions must cover all nodes");
        assert_eq!(
            self.params.policy,
            ConnectionPolicy::SingleUniform,
            "scripted rounds model the mobile model's matching-shaped acceptance"
        );
        self.run_round(Choices::Scripted(script));
    }

    /// The round pipeline: every phase runs over the shard plan, reading
    /// its choices from `choices`.
    fn run_round(&mut self, choices: Choices<'_>) {
        self.round += 1;
        let round = self.round;
        let topo_may_change = self.stuck.is_some() && self.topology.may_change_at(round);
        self.update_active_set(round);
        let scripted = matches!(choices, Choices::Scripted(_));
        if scripted {
            assert!(self.all_active, "scripted rounds require every node active in round {round}");
        }
        let n = self.nodes.len();
        let plan = ShardPlan::new(self.threads, n);
        if self.shards.len() < plan.shards {
            self.shards.resize_with(plan.shards, Default::default);
        }
        let c = plan.chunk;
        let graph = self.topology.graph_at(round);
        assert_eq!(graph.node_count(), n, "topology changed node count");
        let ctx = RoundCtx {
            round,
            params: self.params,
            choices,
            graph,
            awake: Awake {
                round,
                schedule: &self.schedule,
                active: (!self.all_active).then_some(&self.active[..]),
            },
            loss_prob: if scripted { 0.0 } else { self.loss_prob },
            loss_seed: self.loss_seed,
            auditor: &self.auditor,
        };

        // Phase 1: advertise. Tags land in disjoint chunks of the tag array;
        // with `b = 0` there is no array and every shard gets an empty one.
        let tag_chunks = self.tags.chunks_mut(c).chain(std::iter::repeat_with(Default::default));
        plan.run(
            self.nodes.chunks_mut(c).zip(self.rngs.chunks_mut(c)).zip(tag_chunks),
            |base, ((nodes, rngs), tags)| parallel::advertise(&ctx, base, nodes, rngs, tags),
        );

        // Phases 2-3: scan and act; proposals accumulate per shard.
        let tags = &self.tags;
        plan.run(
            self.slots
                .chunks_mut(c)
                .zip(self.nodes.chunks_mut(c))
                .zip(self.rngs.chunks_mut(c))
                .zip(self.shards.iter_mut()),
            |base, (((slots, nodes), rngs), scratch)| {
                parallel::scan_act(&ctx, tags, base, slots, nodes, rngs, scratch)
            },
        );

        // Glue: merge proposals into the arena; a scripted matching is
        // validated once, before acceptance reads it.
        self.inbox.collect(&mut self.shards, &self.slots, &mut self.metrics);
        if let Choices::Scripted(script) = choices {
            self.inbox.pick(&script.accept, &self.slots);
        }

        // Phase 4a: acceptance, sharded by receiver.
        let inbox = &self.inbox;
        plan.run(self.rngs.chunks_mut(c).zip(self.shards.iter_mut()), |base, (rngs, scratch)| {
            parallel::accept(&ctx, inbox, base, rngs, scratch)
        });

        // Phase 4b: payload exchanges on the calling thread.
        self.deliver(round);

        // Phase 5: end of round.
        let awake = Awake {
            round,
            schedule: &self.schedule,
            active: (!self.all_active).then_some(&self.active[..]),
        };
        plan.run(self.nodes.chunks_mut(c).zip(self.rngs.chunks_mut(c)), |base, (nodes, rngs)| {
            parallel::end_round(awake, base, nodes, rngs)
        });

        self.close_round(round, topo_may_change);
    }

    /// Active-set precompute: one schedule check per node per round while
    /// some node is still asleep. Activation is monotone, so from the
    /// schedule's last activation round on every node is awake forever:
    /// the set is freed and the steady state does no work here.
    fn update_active_set(&mut self, round: u64) {
        if self.all_active {
            return;
        }
        if round >= self.schedule.last_activation() {
            self.all_active = true;
            self.active = Vec::new();
            return;
        }
        self.active.resize(self.nodes.len(), false);
        for (u, active) in self.active.iter_mut().enumerate() {
            *active = self.schedule.is_active(u, round);
        }
    }

    /// Phase 4b: take the shards' accepted connections in shard order (=
    /// ascending receiver id, the canonical delivery order) and perform
    /// the payload exchanges on the calling thread — `on_connect` touches
    /// both endpoints, which may sit in different shards.
    fn deliver(&mut self, round: u64) {
        let mut shards = std::mem::take(&mut self.shards);
        for shard in &mut shards {
            shard.drain_counts(&mut self.metrics);
        }
        if self.params.policy == ConnectionPolicy::SingleUniform {
            // Section III: each node participates in at most one
            // connection per round — the accepted set is a matching.
            self.auditor.check_matching(round, shards.iter().flat_map(|s| &s.accepted));
        }
        for shard in &mut shards {
            for &(u, v) in &shard.accepted {
                self.connect(u as usize, v as usize);
            }
            shard.accepted.clear();
        }
        self.shards = shards;
    }

    /// Round close: counters, conservation audit, stuck detector.
    fn close_round(&mut self, round: u64, topo_may_change: bool) {
        self.metrics.rounds = round;
        // On running totals, checked every round from a zero start, this
        // is exactly the per-round law.
        self.auditor.check_conservation(round, &self.metrics, 0);
        if self.stuck.is_some() {
            self.update_stuck_detector(topo_may_change);
        }
    }

    /// Advance the stuck-run detector after a completed round: fold
    /// [`Engine::network_fingerprint`] through the reused scratch, so a
    /// detector round allocates nothing.
    fn update_stuck_detector(&mut self, topo_may_change: bool) {
        let fp = crate::fingerprint::of_nodes(&self.nodes, &mut self.fp_words)
            .expect("progress-word support is constant and was checked at enable time");
        // Frozen state is only evidence of a fixed point while the world
        // holds still: pending activations or a topology change window can
        // legitimately unfreeze it, so those rounds reset the count.
        let barrier = topo_may_change || self.round <= self.schedule.last_activation();
        let det = self.stuck.as_mut().expect("caller checked stuck.is_some()");
        det.observe(self.round, fp, barrier, self.metrics.connections);
    }

    /// Form a connection between proposer `u` and receiver `v`.
    fn connect(&mut self, u: usize, v: usize) {
        let pu = self.nodes[u].payload();
        let pv = self.nodes[v].payload();
        self.auditor.check_payload(self.round, u, &pu);
        self.auditor.check_payload(self.round, v, &pv);
        self.nodes[u].on_connect(&pv, &mut self.rngs[u]);
        self.nodes[v].on_connect(&pu, &mut self.rngs[v]);
        self.metrics.connections += 1;
    }

    /// Run `k` rounds unconditionally.
    pub fn run_rounds(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
    }

    /// Step until `pred(self)` holds, or `max_rounds` total rounds have
    /// executed. Returns the round at which the predicate first held.
    ///
    /// The predicate is evaluated *before* the first step: a network that
    /// already satisfies it (pre-converged imported state, n ≤ 1) reports
    /// the current round — possibly 0 — and executes no rounds. When stuck
    /// detection is enabled the loop also returns `None` as soon as the
    /// detector fires (see [`Engine::stuck_report`]), well before the
    /// budget runs out.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut pred: impl FnMut(&Self) -> bool,
    ) -> Option<u64> {
        if pred(self) {
            return Some(self.round);
        }
        while self.round < max_rounds {
            self.step();
            if pred(self) {
                return Some(self.round);
            }
            if self.stuck_report().is_some() {
                return None;
            }
        }
        None
    }

    /// Assemble a [`RunOutcome`] for a finished run-to-* helper call.
    fn outcome(&self, stabilized: Option<u64>, winner: Option<u64>) -> RunOutcome {
        let last_act = self.schedule.last_activation();
        let status = match (stabilized, self.stuck_report()) {
            (Some(_), _) => RunStatus::Stabilized,
            (None, Some(report)) => RunStatus::Stuck(report),
            (None, None) => RunStatus::TimedOut,
        };
        RunOutcome {
            stabilized_round: stabilized,
            rounds_after_activation: stabilized.map(|r| rounds_after_activation(r, last_act)),
            winner,
            status,
            metrics: self.metrics,
        }
    }
}

impl<P: Protocol + LeaderView, T: DynamicTopology> Engine<P, T> {
    /// True iff every node (active or not — inactive nodes hold their own
    /// UID, so agreement requires full activation) reports the same leader.
    pub fn leaders_agree(&self) -> Option<u64> {
        // An empty node set has no leader to agree on, not a vacuous
        // agreement — report disagreement rather than panicking.
        let first = self.nodes.first()?.leader();
        if self.nodes.iter().all(|p| p.leader() == first) {
            Some(first)
        } else {
            None
        }
    }

    /// Run until every node agrees on one leader (at most `max_rounds`).
    ///
    /// All three paper algorithms are *monotone* — a node's leader candidate
    /// only ever improves toward the eventual fixed point — so the first
    /// all-agree round equals the stabilization round of Section IV.
    /// (Integration tests re-verify the "never changes afterwards" property
    /// explicitly by running extra rounds.)
    pub fn run_to_stabilization(&mut self, max_rounds: u64) -> RunOutcome {
        let stabilized = self.run_until(max_rounds, |e| e.leaders_agree().is_some());
        let winner = stabilized.and_then(|_| self.leaders_agree());
        self.outcome(stabilized, winner)
    }
}

impl<P: Protocol + RumorView, T: DynamicTopology> Engine<P, T> {
    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.nodes.iter().filter(|p| p.informed()).count()
    }

    /// Run until every node knows the rumor (at most `max_rounds`).
    pub fn run_to_full_information(&mut self, max_rounds: u64) -> RunOutcome {
        let done = self.run_until(max_rounds, |e| e.informed_count() == e.node_count());
        self.outcome(done, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{PayloadCost, Scan};
    use mtm_graph::{gen, StaticTopology};
    use rand::Rng;

    /// Test protocol: blind-gossip-like min-UID spreader with tunable
    /// behaviour, used to exercise engine mechanics.
    struct MinSpread {
        uid: u64,
        best: u64,
        always_propose_first: bool,
    }

    #[derive(Clone)]
    struct U64Payload(u64);

    impl PayloadCost for U64Payload {
        fn uid_count(&self) -> u32 {
            1
        }
        fn extra_bits(&self) -> u32 {
            0
        }
    }

    impl Protocol for MinSpread {
        type Payload = U64Payload;
        fn advertise(&mut self, _local: u64, _rng: &mut SmallRng) -> Tag {
            Tag::EMPTY
        }
        fn act(&mut self, scan: &Scan<'_>, rng: &mut SmallRng) -> Action {
            if scan.is_empty() {
                return Action::Listen;
            }
            if self.always_propose_first {
                return Action::Propose(scan.neighbors[0]);
            }
            if rng.gen_bool(0.5) {
                let i = rng.gen_range(0..scan.len());
                Action::Propose(scan.neighbors[i])
            } else {
                Action::Listen
            }
        }
        fn payload(&self) -> U64Payload {
            U64Payload(self.best)
        }
        fn on_connect(&mut self, peer: &U64Payload, _rng: &mut SmallRng) {
            self.best = self.best.min(peer.0);
        }
        fn progress_words(&self, out: &mut Vec<u64>) {
            out.push(self.best);
        }
    }

    impl LeaderView for MinSpread {
        fn leader(&self) -> u64 {
            self.best
        }
        fn uid(&self) -> u64 {
            self.uid
        }
    }

    fn nodes(n: usize) -> Vec<MinSpread> {
        (0..n)
            .map(|u| MinSpread {
                uid: u as u64 + 100,
                best: u as u64 + 100,
                always_propose_first: false,
            })
            .collect()
    }

    fn engine_on(g: mtm_graph::Graph, n: usize, seed: u64) -> Engine<MinSpread, StaticTopology> {
        Engine::new(
            StaticTopology::new(g),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            nodes(n),
            seed,
        )
    }

    #[test]
    fn slot_ids_stay_clear_of_the_reserved_values() {
        let n = 10;
        let top = NodeId::try_from(Slot::MAX_NODES - 1).expect("the largest id fits NodeId");
        assert_eq!(top, u32::MAX - 3);
        for v in [0, n - 1, top] {
            let slot = Slot::propose(v);
            assert_eq!(slot, Slot(v));
            assert_ne!(slot, Slot::LISTEN);
            assert_ne!(slot, Slot::INACTIVE);
            assert_eq!(format!("{slot:?}"), format!("Propose({v})"));
        }
        assert_ne!(Slot::LISTEN, Slot::INACTIVE);
        for reserved in [Slot::LISTEN, Slot::INACTIVE] {
            assert!(reserved.0 as usize >= Slot::MAX_NODES, "{reserved:?} is a valid node id");
        }
        assert_eq!(format!("{:?} {:?}", Slot::LISTEN, Slot::INACTIVE), "Listen Inactive");
    }

    #[test]
    fn node_streams_bind_canonical_streams() {
        // Node u's stream must be exactly stream_rng(seed, u): draws from
        // the two must coincide.
        for (u, mut rng) in node_streams(42, 3).into_iter().enumerate() {
            let mut reference = mtm_graph::rng::stream_rng(42, u as u64);
            for _ in 0..8 {
                assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
            }
        }
    }

    /// One scripted round on `star(3)` (hub 0, leaves 1 and 2) at
    /// `threads` workers; returns the round's counters.
    fn scripted_star_round(
        threads: usize,
        actions: [Action; 3],
        accept: &[(NodeId, NodeId)],
    ) -> Metrics {
        let mut e = engine_on(gen::star(3), 3, 1);
        e.set_threads(threads);
        e.step_scripted(&RoundScript {
            advertise: vec![0; 3],
            actions: actions.to_vec(),
            accept: accept.to_vec(),
        });
        e.metrics()
    }

    #[test]
    fn scripted_round_accounting() {
        use Action::{Listen, Propose};
        let counts =
            |m: Metrics| (m.proposals, m.connections, m.rejected_proposals, m.dropped_proposals);
        for threads in [1, 2] {
            let run = |actions, accept: &[_]| counts(scripted_star_round(threads, actions, accept));
            // The hub accepts one of two leaf proposals; the other is rejected.
            assert_eq!(run([Listen, Propose(0), Propose(0)], &[(1, 0)]), (2, 1, 1, 0));
            // The hub listens but accepts nothing: the adversary drops both.
            assert_eq!(run([Listen, Propose(0), Propose(0)], &[]), (2, 0, 0, 2));
            // A proposal to a node that itself proposes is rejected.
            assert_eq!(run([Propose(1), Listen, Propose(0)], &[(0, 1)]), (2, 1, 1, 0));
        }
    }

    #[test]
    #[should_panic(expected = "does not match a scripted proposal")]
    fn scripted_accept_must_match_a_proposal() {
        use Action::{Listen, Propose};
        scripted_star_round(2, [Listen, Propose(0), Listen], &[(2, 0)]);
    }

    #[test]
    #[should_panic(expected = "accepts more than one proposal")]
    fn scripted_receiver_accepts_at_most_once() {
        use Action::{Listen, Propose};
        scripted_star_round(2, [Listen, Propose(0), Propose(0)], &[(1, 0), (2, 0)]);
    }

    #[test]
    fn restore_then_step_matches_the_continuous_run() {
        /// Min spreader that also records its last local round, so a stale
        /// local-round counter shows in its state.
        #[derive(Clone, Debug, PartialEq)]
        struct Stamped {
            best: u64,
            last_local: u64,
        }
        impl Protocol for Stamped {
            type Payload = U64Payload;
            fn advertise(&mut self, _local: u64, _rng: &mut SmallRng) -> Tag {
                Tag::EMPTY
            }
            fn payload(&self) -> U64Payload {
                U64Payload(self.best)
            }
            fn on_connect(&mut self, peer: &U64Payload, _rng: &mut SmallRng) {
                self.best = self.best.min(peer.0);
            }
            fn end_round(&mut self, local_round: u64, _rng: &mut SmallRng) {
                self.last_local = local_round;
            }
        }
        use Action::{Listen, Propose};
        // On the path 0-1-2-3 the minimum walks from node 0 to node 3.
        let scripts = [
            ([Propose(1), Listen, Listen, Propose(2)], vec![(0, 1), (3, 2)]),
            ([Listen, Propose(2), Listen, Listen], vec![(1, 2)]),
            ([Listen, Listen, Propose(3), Listen], vec![(2, 3)]),
        ]
        .map(|(actions, accept)| RoundScript {
            advertise: vec![0; 4],
            actions: actions.to_vec(),
            accept,
        });
        let engine = || {
            let nodes = (0..4).map(|u| Stamped { best: 100 + u, last_local: 0 }).collect();
            Engine::new(
                StaticTopology::new(gen::path(4)),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(4),
                nodes,
                1,
            )
        };
        let mut whole = engine();
        whole.step_scripted(&scripts[0]);
        let after_first = whole.nodes().to_vec();
        for script in &scripts[1..] {
            whole.step_scripted(script);
        }
        assert_eq!(whole.node(3).best, 100);

        // An engine that has run rounds of its own, restored to round 1.
        let mut resumed = engine();
        resumed.run_rounds(5);
        resumed.restore(&after_first, 1);
        for script in &scripts[1..] {
            resumed.step_scripted(script);
        }
        assert_eq!(resumed.round(), 3);
        assert_eq!(resumed.nodes(), whole.nodes());
    }

    #[test]
    fn min_spreads_on_clique() {
        let mut e = engine_on(gen::clique(16), 16, 1);
        let out = e.run_to_stabilization(10_000);
        assert_eq!(out.winner, Some(100));
        assert!(out.stabilized_round.is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = engine_on(gen::cycle(12), 12, 7);
        let mut b = engine_on(gen::cycle(12), 12, 7);
        let ra = a.run_to_stabilization(100_000);
        let rb = b.run_to_stabilization(100_000);
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut a = engine_on(gen::cycle(32), 32, 1);
        let mut b = engine_on(gen::cycle(32), 32, 2);
        let ra = a.run_to_stabilization(100_000);
        let rb = b.run_to_stabilization(100_000);
        assert_ne!(ra.stabilized_round, rb.stabilized_round);
    }

    #[test]
    fn at_most_one_connection_per_node_per_round() {
        // With AcceptAll this would double-count; under SingleUniform the
        // number of connections per round is at most n/2.
        let n = 10;
        let mut e = engine_on(gen::clique(n), n, 3);
        for round in 1..=50 {
            let before = e.metrics();
            e.step();
            let connections = e.metrics().connections - before.connections;
            assert!(connections as usize <= n / 2, "round {round}: {connections} connections");
            assert!(e.metrics().proposals - before.proposals >= connections);
        }
    }

    #[test]
    fn proposals_conserved() {
        let mut e = engine_on(gen::clique(9), 9, 5);
        e.run_rounds(100);
        let m = e.metrics();
        assert_eq!(m.proposals, m.connections + m.rejected_proposals);
    }

    #[test]
    fn star_all_propose_hub_accepts_one() {
        // Leaves always propose to their only neighbor (the hub); the hub
        // listens (no neighbors propose to leaves). Exactly one connection
        // forms per round.
        let n = 6;
        let mut leaf_nodes: Vec<MinSpread> = (0..n)
            .map(|u| MinSpread { uid: u as u64, best: u as u64, always_propose_first: u != 0 })
            .collect();
        leaf_nodes[0].always_propose_first = false;
        // Hub (node 0) with always_propose_first = false may still propose;
        // force listen by making it see an empty scan? Instead give hub a
        // deterministic listen via fresh type — simpler: run and check the
        // invariant that connections ≤ 1 for rounds where hub listened.
        let mut e = Engine::new(
            StaticTopology::new(gen::star(n)),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            leaf_nodes,
            11,
        );
        for _ in 0..30 {
            let before = e.metrics().connections;
            e.step();
            assert!(
                e.metrics().connections - before <= 1,
                "star can host at most 1 connection involving the hub"
            );
        }
    }

    #[test]
    fn inactive_nodes_invisible_and_idle() {
        let n = 4;
        let sched = ActivationSchedule::two_wave(n, 2, 50);
        let mut e = Engine::new(
            StaticTopology::new(gen::clique(n)),
            ModelParams::mobile(0),
            sched,
            nodes(n),
            2,
        );
        // Before round 50 nodes 2,3 never participate: best stays their own.
        e.run_rounds(49);
        assert_eq!(e.node(2).best, 102);
        assert_eq!(e.node(3).best, 103);
        // Nodes 0,1 have converged between themselves.
        assert_eq!(e.node(0).best, 100);
        assert_eq!(e.node(1).best, 100);
        let out = e.run_to_stabilization(10_000);
        assert_eq!(out.winner, Some(100));
        let r = out.stabilized_round.expect("a stabilized run records its round");
        assert!(r >= 50);
        assert_eq!(out.rounds_after_activation, Some(r - 50 + 1));
    }

    #[test]
    fn classical_policy_accepts_all() {
        let n = 8;
        // All leaves propose to hub each round; hub listens. Under
        // AcceptAll the hub learns the min of all leaves in one round.
        let mut protos: Vec<MinSpread> = (0..n)
            .map(|u| MinSpread { uid: u as u64, best: u as u64, always_propose_first: true })
            .collect();
        protos[0].always_propose_first = false; // hub: random behaviour
        let mut e = Engine::new(
            StaticTopology::new(gen::star(n)),
            ModelParams::classical(),
            ActivationSchedule::synchronized(n),
            protos,
            4,
        );
        // In some round the hub listened and connected to all 7 leaves.
        let mut max_conn = 0;
        for _ in 0..8 {
            let before = e.metrics().connections;
            e.step();
            max_conn = max_conn.max(e.metrics().connections - before);
        }
        assert!(
            max_conn >= (n - 1) as u64,
            "classical hub should accept all proposals, max was {max_conn}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeding b")]
    fn tag_budget_enforced() {
        struct BadTag;
        #[derive(Clone)]
        struct Nothing;
        impl PayloadCost for Nothing {
            fn uid_count(&self) -> u32 {
                0
            }
            fn extra_bits(&self) -> u32 {
                0
            }
        }
        impl Protocol for BadTag {
            type Payload = Nothing;
            fn advertise(&mut self, _l: u64, _r: &mut SmallRng) -> Tag {
                Tag(1) // needs b ≥ 1
            }
            fn act(&mut self, _s: &Scan<'_>, _r: &mut SmallRng) -> Action {
                Action::Listen
            }
            fn payload(&self) -> Nothing {
                Nothing
            }
            fn on_connect(&mut self, _p: &Nothing, _r: &mut SmallRng) {}
        }
        let mut e = Engine::new(
            StaticTopology::new(gen::clique(2)),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(2),
            vec![BadTag, BadTag],
            0,
        );
        e.step();
    }

    #[test]
    #[should_panic(expected = "payload exceeds model budget")]
    fn payload_budget_enforced() {
        /// Node whose payload claims more UIDs than the model allows — the
        /// first formed connection must trip the audit.
        struct FatPayload {
            propose: bool,
        }
        #[derive(Clone)]
        struct TooManyUids;
        impl PayloadCost for TooManyUids {
            fn uid_count(&self) -> u32 {
                99
            }
            fn extra_bits(&self) -> u32 {
                0
            }
        }
        impl Protocol for FatPayload {
            type Payload = TooManyUids;
            fn advertise(&mut self, _l: u64, _r: &mut SmallRng) -> Tag {
                Tag::EMPTY
            }
            fn act(&mut self, scan: &Scan<'_>, _r: &mut SmallRng) -> Action {
                match scan.neighbors.first() {
                    Some(&v) if self.propose => Action::Propose(v),
                    _ => Action::Listen,
                }
            }
            fn payload(&self) -> TooManyUids {
                TooManyUids
            }
            fn on_connect(&mut self, _p: &TooManyUids, _r: &mut SmallRng) {}
        }
        let mut e = Engine::new(
            StaticTopology::new(gen::star(3)),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(3),
            // Leaves propose to the listening hub: a connection forms in
            // round 1 and the over-budget payload crosses it.
            vec![
                FatPayload { propose: false },
                FatPayload { propose: true },
                FatPayload { propose: true },
            ],
            0,
        );
        e.run_rounds(1);
    }

    #[test]
    fn audit_counts_rounds() {
        let mut e = engine_on(gen::clique(6), 6, 8);
        e.run_rounds(25);
        assert_eq!(e.rounds_audited(), 25);
    }

    #[test]
    fn determinism_self_check_passes_for_fixed_seed() {
        let metrics =
            crate::audit::determinism_self_check(|| engine_on(gen::cycle(10), 10, 42), 150)
                .expect("same (seed, config) must replay identically");
        assert_eq!(metrics.rounds, 150);
        assert!(metrics.connections > 0);
    }

    #[test]
    fn determinism_self_check_flags_divergence() {
        // A builder that varies the seed across calls is exactly the bug
        // the self-check exists to catch.
        let mut seed = 0u64;
        let err = crate::audit::determinism_self_check(
            || {
                seed += 1;
                engine_on(gen::cycle(16), 16, seed)
            },
            100,
        )
        .expect_err("different seeds must diverge");
        assert!(err.contains("diverged"), "unhelpful divergence report: {err}");
    }

    #[test]
    fn run_until_respects_budget() {
        let mut e = engine_on(gen::path(64), 64, 9);
        // Far too few rounds to stabilize a 64-path.
        let out = e.run_to_stabilization(3);
        assert_eq!(out.stabilized_round, None);
        assert_eq!(out.winner, None);
        assert_eq!(out.status, RunStatus::TimedOut);
        assert_eq!(e.round(), 3);
    }

    /// All nodes share one `best` value: converged before the first round.
    fn converged_engine(n: usize, seed: u64) -> Engine<MinSpread, StaticTopology> {
        let nodes =
            (0..n).map(|_| MinSpread { uid: 7, best: 7, always_propose_first: false }).collect();
        Engine::new(
            StaticTopology::new(gen::clique(n)),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            nodes,
            seed,
        )
    }

    #[test]
    fn run_until_checks_predicate_before_first_step() {
        let mut e = converged_engine(4, 1);
        let out = e.run_to_stabilization(1_000);
        assert_eq!(out.stabilized_round, Some(0), "pre-converged network stabilizes at round 0");
        assert_eq!(out.status, RunStatus::Stabilized);
        assert_eq!(out.winner, Some(7));
        assert_eq!(e.round(), 0, "no round may execute for a pre-converged network");
    }

    #[test]
    fn leaders_agree_on_empty_node_set_is_none() {
        let mut e: Engine<MinSpread, StaticTopology> = Engine::new(
            StaticTopology::new(mtm_graph::static_graph::from_edges(0, &[])),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(0),
            Vec::new(),
            1,
        );
        assert_eq!(e.leaders_agree(), None);
        // And the run helpers survive stepping an empty network.
        let out = e.run_to_stabilization(5);
        assert_eq!(out.stabilized_round, None);
        assert_eq!(out.status, RunStatus::TimedOut);
    }

    #[test]
    fn rounds_after_activation_window_semantics() {
        // Inclusive window [last_activation, stabilized_round]: waking
        // round charged, pre-stabilized runs score the empty window.
        assert_eq!(rounds_after_activation(50, 50), 1);
        assert_eq!(rounds_after_activation(55, 50), 6);
        assert_eq!(rounds_after_activation(49, 50), 0);
        assert_eq!(rounds_after_activation(10, 1), 10);
    }

    #[test]
    fn rounds_after_activation_matches_hand_computed_schedule() {
        let sched = ActivationSchedule::explicit(vec![1, 20, 5]);
        let last = sched.last_activation();
        assert_eq!(last, 20);
        // Stabilizing in the round the last node wakes: window {20}, len 1.
        assert_eq!(rounds_after_activation(20, last), 1);
        // Rounds 20..=26 inclusive: 7 rounds.
        assert_eq!(rounds_after_activation(26, last), 7);
        // Converged before node 1 ever woke: nothing to charge.
        assert_eq!(rounds_after_activation(19, last), 0);
    }

    #[test]
    fn stuck_detector_fires_on_frozen_state() {
        let mut e = converged_engine(8, 3);
        e.enable_stuck_detection(10);
        // Predicate never holds, so only the detector can end this early.
        let out = e.run_until(100_000, |_| false);
        assert_eq!(out, None);
        let rep = e.stuck_report().expect("frozen network must be detected");
        assert_eq!(rep.window, 10);
        assert_eq!(rep.fixed_since, 1);
        assert_eq!(rep.detected_round, 11);
        assert_eq!(e.round(), 11, "detection must end the run in O(window) rounds");
    }

    #[test]
    fn stuck_detection_is_deterministic() {
        let run = || {
            let mut e = converged_engine(8, 3);
            e.enable_stuck_detection(10);
            e.run_until(100_000, |_| false);
            e.stuck_report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stuck_detector_stays_quiet_while_progressing() {
        let mut e = engine_on(gen::cycle(12), 12, 7);
        e.enable_stuck_detection(50_000);
        let out = e.run_to_stabilization(100_000);
        assert_eq!(out.status, RunStatus::Stabilized);
        assert_eq!(out.winner, Some(100));
    }

    #[test]
    fn topology_change_windows_reset_stuck_detector() {
        // Frozen protocol state, but the topology may change every 4
        // rounds: a 6-round still window never elapses, so the detector
        // must stay silent even though nothing is progressing.
        let n = 8;
        let nodes: Vec<MinSpread> =
            (0..n).map(|_| MinSpread { uid: 7, best: 7, always_propose_first: false }).collect();
        let mut e = Engine::new(
            mtm_graph::dynamic::RelabelingAdversary::new(gen::cycle(n), 4, 5),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            nodes,
            2,
        );
        e.enable_stuck_detection(6);
        e.run_until(200, |_| false);
        assert_eq!(e.stuck_report(), None);
        assert_eq!(e.round(), 200);
    }

    #[test]
    fn pending_activations_hold_stuck_detector_back() {
        // Wave 2 wakes at round 40; nodes 0,1 freeze long before that.
        // The detector may only start counting once everyone is awake.
        let n = 4;
        let mut e = Engine::new(
            StaticTopology::new(gen::clique(n)),
            ModelParams::mobile(0),
            ActivationSchedule::two_wave(n, 2, 40),
            nodes(n),
            2,
        );
        e.enable_stuck_detection(5);
        let out = e.run_to_stabilization(10_000);
        assert_eq!(out.status, RunStatus::Stabilized, "wave 2 must still get to join");
        assert_eq!(out.winner, Some(100));
        assert!(out.stabilized_round.expect("stabilized") >= 40);
    }

    #[test]
    fn proposal_loss_one_drops_everything() {
        let mut e = engine_on(gen::clique(8), 8, 3);
        e.set_proposal_loss(1.0);
        e.run_rounds(30);
        let m = e.metrics();
        assert!(m.proposals > 0);
        assert_eq!(m.dropped_proposals, m.proposals);
        assert_eq!(m.connections, 0);
        assert_eq!(m.rejected_proposals, 0);
    }

    #[test]
    fn proposal_loss_conserves_and_replays() {
        let build = || {
            let mut e = engine_on(gen::clique(10), 10, 7);
            e.set_proposal_loss(0.3);
            e
        };
        let mut e = build();
        e.run_rounds(200);
        let m = e.metrics();
        assert!(m.dropped_proposals > 0, "p=0.3 over 200 rounds must drop something");
        assert!(m.connections > 0, "p=0.3 must let most proposals through");
        assert_eq!(m.proposals, m.connections + m.rejected_proposals + m.dropped_proposals);
        let mut e2 = build();
        e2.run_rounds(200);
        assert_eq!(e2.metrics(), m, "lossy runs must replay identically for one seed");
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn proposal_loss_rejects_bad_probability() {
        engine_on(gen::clique(4), 4, 1).set_proposal_loss(1.5);
    }
}
