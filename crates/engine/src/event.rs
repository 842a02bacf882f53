//! The event-driven backend: a deterministic discrete-event simulation of
//! the mobile telephone model with **no global round clock**.
//!
//! The lockstep [`Engine`](crate::Engine) advances every node through the
//! same numbered round. Real smartphone meshes (Multipeer, Wi-Fi Direct)
//! do nothing of the sort: scans take device-dependent time, link latencies
//! vary per pair and per message, and each node runs its *own* round loop,
//! drifting freely against its neighbors. This backend models exactly
//! that, driving the same typed [`RoundExecuter`]s as the lockstep engine
//! (see [`crate::executor`]) through an event queue:
//!
//! * **RoundStart(u)** — `u` begins local round `r`: it advertises
//!   (executor draw) and posts the tag to the shared blackboard, then its
//!   scan completes after `scan` ticks.
//! * **Act(u)** — `u` scans the *current* tags of every neighbor that has
//!   started (a drifted neighbor may be mid-round — that is the point) and
//!   acts. A proposal travels as a message carrying the proposer's payload
//!   snapshot and arrives after a per-link latency; a listener opens a
//!   listen window of `listen` ticks.
//! * **Proposal(u → v)** — buffered if `v` is inside a listen window,
//!   otherwise rejected immediately (reject response after the return
//!   latency).
//! * **ListenEnd(v)** — `v` resolves its buffer: one proposal accepted
//!   uniformly (the [`RoundExecuter::accept_index`] draw from `v`'s own
//!   stream — the same rule as the lockstep backend), the rest rejected;
//!   responses carry `v`'s payload snapshot back to the accepted proposer.
//!   `v` ends its round and immediately starts the next.
//! * **Response(v → u)** — unblocks the proposer; an accepting response
//!   delivers `v`'s payload. `u` ends its round and starts the next.
//!
//! # Determinism contract
//!
//! An execution is a pure function of `(graph, protocols, seed, latency
//! model, loss)`:
//!
//! * **All latency draws are counter-based** (like the v2 loss coins): a
//!   duration is `min + ⌊coin · (spread+1)⌋` with
//!   `coin = counter_coin(stream_seed, key, counter)` — a pure function of
//!   its keys, independent of event-processing order. Scan and listen
//!   windows are keyed on `(node, local round)`; link latencies on
//!   `(sender, receiver)` and the sender's message counter; per-node start
//!   jitter on the node id. Stream seeds are derived from the trial seed
//!   far outside the per-node range, so node randomness is never perturbed.
//! * **Event order is total**: the queue pops by `(time, node id,
//!   scheduling sequence)` — ties at one instant resolve by node id, and
//!   a node's same-instant events by the (deterministic) order they were
//!   scheduled in.
//! * **Node randomness** flows only through each node's own
//!   [`RoundExecuter`] stream, exactly as in the lockstep backend; only
//!   the interleaving differs.
//!
//! Same seed ⇒ same event trace, byte for byte (pinned by tests here and
//! by `tests/event_backend.rs`).
//!
//! Proposal loss (`set_proposal_loss`) drops the proposal message itself;
//! the proposer is unblocked by a timeout scheduled at the instant the
//! reject would have arrived (one round trip), so loss never deadlocks the
//! run. Crash/churn fault layers are a lockstep-only feature for now — the
//! backend runs on a static [`Graph`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use mtm_graph::rng::{counter_coin, derive_seed};
use mtm_graph::{Graph, NodeId};

use crate::executor::{ExecutorSet, RoundExecuter};
use crate::metrics::Metrics;
use crate::model::{Acceptance, ConnectionPolicy, ModelParams, Tag};
use crate::protocol::{Action, LeaderView, PayloadCost, Protocol, RumorView, Scan};

/// Per-phase timing distributions, in integer ticks. Every duration is
/// drawn uniformly from `[min, min + spread]` via a counter-based coin —
/// `spread = 0` makes the phase deterministic while the composition stays
/// asynchronous (nodes still drift through accumulated round-trip
/// differences and start jitter).
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Minimum ticks for a scan (neighborhood discovery) to complete.
    pub scan_min: u64,
    /// Extra uniform spread on the scan time.
    pub scan_spread: u64,
    /// Minimum one-way link latency per message.
    pub link_min: u64,
    /// Extra uniform spread on each link latency.
    pub link_spread: u64,
    /// Minimum length of a listener's accept window.
    pub listen_min: u64,
    /// Extra uniform spread on the listen window.
    pub listen_spread: u64,
    /// Per-node start jitter: node `u` begins its first round at a uniform
    /// time in `[0, start_spread]`.
    pub start_spread: u64,
}

impl LatencyModel {
    /// A Multipeer-flavored model parameterized by one `spread` knob (the
    /// AS1/AS2 sweep axis): discovery is the slow phase, links are fast,
    /// and all spreads scale together. `spread = 0` gives fixed durations.
    pub fn multipeer(spread: u64) -> Self {
        LatencyModel {
            scan_min: 4,
            scan_spread: spread,
            link_min: 1,
            link_spread: spread / 2,
            listen_min: 6,
            listen_spread: spread,
            start_spread: 4 * spread,
        }
    }

    /// Nominal ticks of one listen-shaped round (scan + listen window at
    /// the distribution means) — the conversion factor between lockstep
    /// rounds and event time used by the AS experiments' bound column.
    pub fn nominal_round_ticks(&self) -> f64 {
        self.scan_min as f64
            + self.scan_spread as f64 / 2.0
            + self.listen_min as f64
            + self.listen_spread as f64 / 2.0
    }

    fn validate(&self) {
        assert!(
            self.scan_min >= 1 && self.link_min >= 1 && self.listen_min >= 1,
            "phase minimums must be ≥ 1 tick so local time always advances"
        );
    }
}

/// What happened at one event, for the recorded trace (see
/// [`EventEngine::enable_event_trace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A node began a local round (advertised).
    RoundStart,
    /// A node's scan completed and it acted.
    Act,
    /// A proposal message arrived at its receiver.
    Proposal,
    /// A listener's window closed and its buffer was resolved.
    ListenEnd,
    /// A response (accept/reject/timeout) arrived at a proposer.
    Response,
}

/// One entry of the recorded event trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulation time the event was processed at.
    pub time: u64,
    /// The node the event was processed *at*.
    pub node: NodeId,
    /// Event kind.
    pub kind: EventKind,
}

/// Outcome of an event-backend run helper.
#[derive(Clone, Copy, Debug)]
pub struct EventOutcome {
    /// Simulation time (ticks) at which the target predicate first held,
    /// if it did within the time budget.
    pub completed_at: Option<u64>,
    /// The agreed leader UID (election runs only).
    pub winner: Option<u64>,
    /// Aggregate counters. `rounds` holds the *maximum* local round any
    /// node reached — there is no global round number.
    pub metrics: Metrics,
    /// Mean local round across nodes when the run ended.
    pub mean_local_rounds: f64,
    /// Events processed.
    pub events: u64,
}

/// The payload-carrying message vocabulary of the backend.
enum Ev<PL> {
    RoundStart,
    Act,
    /// A proposal from `from`, carrying its payload snapshot.
    Proposal {
        from: NodeId,
        payload: PL,
    },
    ListenEnd,
    /// The response to this node's pending proposal: `Some(payload)` =
    /// accepted (the responder's payload snapshot), `None` = rejected or
    /// the loss timeout.
    Response {
        accepted: Option<PL>,
    },
}

impl<PL> Ev<PL> {
    fn kind(&self) -> EventKind {
        match self {
            Ev::RoundStart => EventKind::RoundStart,
            Ev::Act => EventKind::Act,
            Ev::Proposal { .. } => EventKind::Proposal,
            Ev::ListenEnd => EventKind::ListenEnd,
            Ev::Response { .. } => EventKind::Response,
        }
    }
}

/// Heap entry. Ordered by `(time, node, seq)` — `seq` is the global
/// scheduling counter, unique per event, so the order is total and
/// deterministic.
struct QueuedEvent<PL> {
    time: u64,
    node: NodeId,
    seq: u64,
    ev: Ev<PL>,
}

impl<PL> QueuedEvent<PL> {
    fn key(&self) -> (u64, NodeId, u64) {
        (self.time, self.node, self.seq)
    }
}

impl<PL> PartialEq for QueuedEvent<PL> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<PL> Eq for QueuedEvent<PL> {}
impl<PL> PartialOrd for QueuedEvent<PL> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<PL> Ord for QueuedEvent<PL> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other.key().cmp(&self.key())
    }
}

/// Where a node is inside its local round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Between RoundStart and Act (scan in flight).
    Scanning,
    /// Inside a listen window (buffering proposals).
    Listening,
    /// Proposal sent, waiting for the response.
    Waiting,
}

/// Uniform integer draw in `[min, min + spread]` from a counter-based coin
/// — a pure function of `(seed, a, b)`, independent of evaluation order.
#[inline]
fn draw(seed: u64, a: u64, b: u64, min: u64, spread: u64) -> u64 {
    min + (counter_coin(seed, a, b) * (spread + 1) as f64) as u64
}

/// Directed-link key for latency/loss coins.
#[inline]
fn link_key(from: NodeId, to: NodeId) -> u64 {
    ((from as u64) << 32) | to as u64
}

/// The discrete-event executor. See the module docs for the event
/// vocabulary and the determinism contract.
pub struct EventEngine<P: Protocol> {
    graph: Graph,
    params: ModelParams,
    latency: LatencyModel,
    execs: Vec<RoundExecuter<P>>,
    loss_prob: f64,
    // Dedicated counter-coin streams (derived far from the node range).
    start_seed: u64,
    scan_seed: u64,
    listen_seed: u64,
    link_seed: u64,
    loss_seed: u64,
    now: u64,
    seq: u64,
    heap: BinaryHeap<QueuedEvent<P::Payload>>,
    phase: Vec<Phase>,
    local_round: Vec<u64>,
    /// A node is visible to scans once it has advertised at least once.
    started: Vec<bool>,
    tags: Vec<Tag>,
    /// Listener buffers: proposals that arrived inside the open window.
    buffers: Vec<Vec<(NodeId, P::Payload)>>,
    /// Per-node outgoing message counter (link-coin counter).
    msg_seq: Vec<u64>,
    metrics: Metrics,
    events: u64,
    trace: Option<Vec<EventRecord>>,
    // Scan scratch, reused across events.
    vis: Vec<NodeId>,
    vis_tags: Vec<Tag>,
    #[cfg(feature = "audit")]
    auditor: crate::audit::Auditor,
}

impl<P: Protocol> EventEngine<P> {
    /// Build an event backend for `protocols` over the static `graph`.
    ///
    /// `seed` plays the same role as for the lockstep engine: node `u`
    /// executes on `stream_rng(seed, u)` (via [`ExecutorSet::spawn`]), and
    /// the latency/loss coin streams are derived from dedicated
    /// sub-streams. Only [`ConnectionPolicy::SingleUniform`] with
    /// [`Acceptance::UniformIndex`] is modeled — the mobile telephone
    /// model's acceptance rule.
    pub fn new(
        graph: Graph,
        params: ModelParams,
        protocols: Vec<P>,
        seed: u64,
        latency: LatencyModel,
    ) -> Self {
        latency.validate();
        assert_eq!(
            params.policy,
            ConnectionPolicy::SingleUniform,
            "the event backend models the mobile model's single-accept rule"
        );
        assert_eq!(
            params.acceptance,
            Acceptance::UniformIndex,
            "the event backend resolves acceptance by uniform index draw"
        );
        let n = graph.node_count();
        assert_eq!(protocols.len(), n, "one protocol instance per graph node");
        let set = ExecutorSet::spawn(protocols, seed);
        // One dedicated stream per coin family, derived far outside the
        // per-node stream range (the lockstep engine reserves u64::MAX for
        // its loss stream; this backend derives from u64::MAX - 1).
        let base = derive_seed(seed, u64::MAX - 1);
        let mut engine = EventEngine {
            graph,
            params,
            latency,
            execs: set.into_executors(),
            loss_prob: 0.0,
            start_seed: derive_seed(base, 0),
            scan_seed: derive_seed(base, 1),
            listen_seed: derive_seed(base, 2),
            link_seed: derive_seed(base, 3),
            loss_seed: derive_seed(base, 4),
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            phase: vec![Phase::Scanning; n],
            local_round: vec![0; n],
            started: vec![false; n],
            tags: vec![Tag::EMPTY; n],
            buffers: (0..n).map(|_| Vec::new()).collect(),
            msg_seq: vec![0; n],
            metrics: Metrics::default(),
            events: 0,
            trace: None,
            vis: Vec::new(),
            vis_tags: Vec::new(),
            #[cfg(feature = "audit")]
            auditor: crate::audit::Auditor::default(),
        };
        for u in 0..n {
            let jitter = draw(engine.start_seed, u as u64, 0, 0, engine.latency.start_spread);
            // node count fits a NodeId by graph construction. mtm-lint: allow(truncating-cast)
            engine.schedule(jitter, u as NodeId, Ev::RoundStart);
        }
        engine
    }

    /// Inject message loss: each proposal message is independently dropped
    /// with probability `prob` (counter-based coin on the directed link and
    /// the sender's message counter). The proposer is unblocked by a
    /// timeout at reject-round-trip time, so a lossy run cannot deadlock.
    pub fn set_proposal_loss(&mut self, prob: f64) {
        assert!((0.0..=1.0).contains(&prob), "loss probability must be in [0, 1], got {prob}");
        self.loss_prob = prob;
    }

    /// Record an [`EventRecord`] for every processed event.
    pub fn enable_event_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded trace (empty unless enabled).
    pub fn event_trace(&self) -> &[EventRecord] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Aggregate counters. `rounds` = the maximum local round reached.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Current simulation time (ticks).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.execs.len()
    }

    /// Immutable view of node `u`'s protocol state.
    pub fn node(&self, u: usize) -> &P {
        self.execs[u].protocol()
    }

    /// Iterate over all protocol states in node order.
    pub fn protocols(&self) -> impl Iterator<Item = &P> {
        self.execs.iter().map(RoundExecuter::protocol)
    }

    /// Mean local round across nodes.
    pub fn mean_local_rounds(&self) -> f64 {
        if self.local_round.is_empty() {
            return 0.0;
        }
        self.local_round.iter().sum::<u64>() as f64 / self.local_round.len() as f64
    }

    fn schedule(&mut self, time: u64, node: NodeId, ev: Ev<P::Payload>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueuedEvent { time, node, seq, ev });
    }

    #[inline]
    fn link_delay(&self, from: NodeId, to: NodeId, counter: u64) -> u64 {
        draw(
            self.link_seed,
            link_key(from, to),
            counter,
            self.latency.link_min,
            self.latency.link_spread,
        )
    }

    /// Next outgoing-message counter for `u` (keys the link/loss coins).
    #[inline]
    fn next_msg(&mut self, u: NodeId) -> u64 {
        let s = self.msg_seq[u as usize];
        self.msg_seq[u as usize] += 1;
        s
    }

    /// The payload-budget check the lockstep `Engine::connect` runs: an
    /// audit in every build profile under the `audit` feature, a debug
    /// assertion without it. `node` is the payload's owner.
    #[inline]
    fn check_payload_budget(&self, node: NodeId, pl: &P::Payload) {
        #[cfg(feature = "audit")]
        self.auditor.check_payload(
            self.local_round[node as usize],
            node as usize,
            pl.uid_count(),
            self.params.max_payload_uids,
            pl.extra_bits(),
            self.params.max_payload_bits,
        );
        #[cfg(not(feature = "audit"))]
        debug_assert!(
            pl.uid_count() <= self.params.max_payload_uids
                && pl.extra_bits() <= self.params.max_payload_bits,
            "node {node} payload exceeds model budget"
        );
    }

    /// Process one event; returns true iff a payload was delivered (the
    /// only occasions protocol state can change through messages).
    fn process(&mut self, node: NodeId, ev: Ev<P::Payload>) -> bool {
        let ui = node as usize;
        match ev {
            Ev::RoundStart => {
                self.local_round[ui] += 1;
                let lr = self.local_round[ui];
                self.metrics.rounds = self.metrics.rounds.max(lr);
                let tag = self.execs[ui].advertise(lr);
                assert!(
                    tag.fits(self.params.tag_bits),
                    "node {ui} advertised tag {tag:?} exceeding b = {} bits",
                    self.params.tag_bits
                );
                self.tags[ui] = tag;
                self.started[ui] = true;
                self.phase[ui] = Phase::Scanning;
                let d = draw(
                    self.scan_seed,
                    node as u64,
                    lr,
                    self.latency.scan_min,
                    self.latency.scan_spread,
                );
                self.schedule(self.now + d, node, Ev::Act);
                false
            }
            Ev::Act => {
                let lr = self.local_round[ui];
                // Scan the blackboard: every *started* neighbor is visible
                // with its current tag (neighbors mid-round show the tag of
                // the round they are in — clock drift made visible).
                self.vis.clear();
                self.vis_tags.clear();
                let tag_bits = self.params.tag_bits;
                for &v in self.graph.neighbors(node) {
                    if self.started[v as usize] {
                        self.vis.push(v);
                        if tag_bits > 0 {
                            self.vis_tags.push(self.tags[v as usize]);
                        }
                    }
                }
                let scan =
                    Scan { neighbors: &self.vis, tags: &self.vis_tags, round: lr, local_round: lr };
                match self.execs[ui].act(&scan) {
                    Action::Listen => {
                        self.phase[ui] = Phase::Listening;
                        self.buffers[ui].clear();
                        let d = draw(
                            self.listen_seed,
                            node as u64,
                            lr,
                            self.latency.listen_min,
                            self.latency.listen_spread,
                        );
                        self.schedule(self.now + d, node, Ev::ListenEnd);
                    }
                    Action::Propose(v) => {
                        assert!(
                            self.vis.binary_search(&v).is_ok(),
                            "node {ui} proposed to {v}, not a visible neighbor"
                        );
                        self.metrics.proposals += 1;
                        self.phase[ui] = Phase::Waiting;
                        let s = self.next_msg(node);
                        let d = self.link_delay(node, v, s);
                        if self.loss_prob > 0.0
                            && counter_coin(self.loss_seed, link_key(node, v), s) < self.loss_prob
                        {
                            // The message vanishes; unblock the proposer at
                            // the instant an immediate reject would have
                            // arrived (one full round trip).
                            self.metrics.dropped_proposals += 1;
                            let back = self.link_delay(v, node, s);
                            self.schedule(
                                self.now + d + back,
                                node,
                                Ev::Response { accepted: None },
                            );
                        } else {
                            let pl = self.execs[ui].payload();
                            self.check_payload_budget(node, &pl);
                            self.schedule(
                                self.now + d,
                                v,
                                Ev::Proposal { from: node, payload: pl },
                            );
                        }
                    }
                }
                false
            }
            Ev::Proposal { from, payload } => {
                if self.phase[ui] == Phase::Listening {
                    self.buffers[ui].push((from, payload));
                } else {
                    // Not inside a listen window: immediate reject.
                    self.metrics.rejected_proposals += 1;
                    let s = self.next_msg(node);
                    let d = self.link_delay(node, from, s);
                    self.schedule(self.now + d, from, Ev::Response { accepted: None });
                }
                false
            }
            Ev::ListenEnd => {
                let lr = self.local_round[ui];
                let mut delivered = false;
                let mut buf = std::mem::take(&mut self.buffers[ui]);
                if !buf.is_empty() {
                    let pick = self.execs[ui].accept_index(buf.len());
                    for (i, (from, pu)) in buf.drain(..).enumerate() {
                        let s = self.next_msg(node);
                        let d = self.link_delay(node, from, s);
                        if i == pick {
                            // Payload snapshots before delivery, exactly as
                            // the lockstep connect() orders them.
                            let pv = self.execs[ui].payload();
                            self.check_payload_budget(node, &pv);
                            self.check_payload_budget(from, &pu);
                            self.execs[ui].deliver(&pu);
                            self.metrics.connections += 1;
                            delivered = true;
                            self.schedule(self.now + d, from, Ev::Response { accepted: Some(pv) });
                        } else {
                            self.metrics.rejected_proposals += 1;
                            self.schedule(self.now + d, from, Ev::Response { accepted: None });
                        }
                    }
                }
                self.buffers[ui] = buf;
                // Leave the listening phase *now*: a proposal arriving at
                // this same tick (before the next Act) must be rejected,
                // not buffered into a window that no longer exists — a
                // buffered-then-cleared proposal would strand its proposer.
                self.phase[ui] = Phase::Scanning;
                self.execs[ui].end_round(lr);
                self.schedule(self.now, node, Ev::RoundStart);
                delivered
            }
            Ev::Response { accepted } => {
                debug_assert_eq!(self.phase[ui], Phase::Waiting, "unsolicited response at {ui}");
                let delivered = if let Some(pv) = accepted {
                    self.execs[ui].deliver(&pv);
                    true
                } else {
                    false
                };
                self.execs[ui].end_round(self.local_round[ui]);
                self.schedule(self.now, node, Ev::RoundStart);
                delivered
            }
        }
    }

    /// Drive events until `pred` holds or simulation time exceeds
    /// `max_time`. The predicate is evaluated before the first event and
    /// after every payload delivery (the only points protocol state can
    /// change). Returns the completion time.
    pub fn run_until(&mut self, max_time: u64, mut pred: impl FnMut(&Self) -> bool) -> Option<u64> {
        if pred(self) {
            return Some(self.now);
        }
        while let Some(qe) = self.heap.pop() {
            if qe.time > max_time {
                // Budget exhausted; the event is intentionally consumed —
                // run helpers are one-shot.
                return None;
            }
            debug_assert!(qe.time >= self.now, "event time went backwards");
            self.now = qe.time;
            self.events += 1;
            if let Some(trace) = &mut self.trace {
                trace.push(EventRecord { time: qe.time, node: qe.node, kind: qe.ev.kind() });
            }
            let delivered = self.process(qe.node, qe.ev);
            if delivered && pred(self) {
                return Some(self.now);
            }
        }
        None
    }

    fn outcome(&self, completed_at: Option<u64>, winner: Option<u64>) -> EventOutcome {
        EventOutcome {
            completed_at,
            winner,
            metrics: self.metrics,
            mean_local_rounds: self.mean_local_rounds(),
            events: self.events,
        }
    }
}

impl<P: Protocol + LeaderView> EventEngine<P> {
    /// True iff every node reports the same leader.
    pub fn leaders_agree(&self) -> Option<u64> {
        let first = self.execs.first()?.protocol().leader();
        if self.protocols().all(|p| p.leader() == first) {
            Some(first)
        } else {
            None
        }
    }

    /// Run until every node agrees on one leader (at most `max_time`
    /// ticks).
    pub fn run_to_stabilization(&mut self, max_time: u64) -> EventOutcome {
        let done = self.run_until(max_time, |e| e.leaders_agree().is_some());
        let winner = done.and_then(|_| self.leaders_agree());
        self.outcome(done, winner)
    }
}

impl<P: Protocol + RumorView> EventEngine<P> {
    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.protocols().filter(|p| p.informed()).count()
    }

    /// Run until every node knows the rumor (at most `max_time` ticks).
    pub fn run_to_full_information(&mut self, max_time: u64) -> EventOutcome {
        let done = self.run_until(max_time, |e| e.informed_count() == e.node_count());
        self.outcome(done, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_graph::gen;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Coin-flip min-UID spreader (blind-gossip-shaped), as in the engine
    /// unit tests.
    struct MinSpread {
        uid: u64,
        best: u64,
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
        fn advertise(&mut self, _lr: u64, _rng: &mut SmallRng) -> Tag {
            Tag::EMPTY
        }
        fn act(&mut self, scan: &Scan<'_>, rng: &mut SmallRng) -> Action {
            if scan.is_empty() || !rng.gen_bool(0.5) {
                return Action::Listen;
            }
            Action::Propose(scan.neighbors[rng.gen_range(0..scan.len())])
        }
        fn payload(&self) -> U64Payload {
            U64Payload(self.best)
        }
        fn on_connect(&mut self, peer: &U64Payload, _rng: &mut SmallRng) {
            self.best = self.best.min(peer.0);
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
        (0..n).map(|u| MinSpread { uid: u as u64 + 100, best: u as u64 + 100 }).collect()
    }

    fn engine_on(g: Graph, seed: u64, latency: LatencyModel) -> EventEngine<MinSpread> {
        let n = g.node_count();
        EventEngine::new(g, ModelParams::mobile(0), nodes(n), seed, latency)
    }

    #[test]
    #[should_panic(expected = "payload exceeds model budget")]
    fn payload_budget_enforced() {
        /// Node whose payload claims more UIDs than the model allows, as in
        /// the lockstep engine's twin test.
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
        // Leaves propose to the listening hub, so the over-budget payload
        // goes on the wire within the first local round.
        let protocols = vec![
            FatPayload { propose: false },
            FatPayload { propose: true },
            FatPayload { propose: true },
        ];
        let mut e = EventEngine::new(
            gen::star(3),
            ModelParams::mobile(0),
            protocols,
            0,
            LatencyModel::multipeer(0),
        );
        e.run_until(1_000, |_| false);
    }

    #[test]
    fn elects_min_uid_on_clique() {
        let mut e = engine_on(gen::clique(12), 1, LatencyModel::multipeer(8));
        let out = e.run_to_stabilization(1_000_000);
        assert_eq!(out.winner, Some(100));
        assert!(out.completed_at.is_some());
        assert!(out.metrics.connections >= 11, "needs at least n-1 payload exchanges");
    }

    #[test]
    fn same_seed_same_event_trace() {
        let mut a = engine_on(gen::cycle(10), 7, LatencyModel::multipeer(16));
        let mut b = engine_on(gen::cycle(10), 7, LatencyModel::multipeer(16));
        a.enable_event_trace();
        b.enable_event_trace();
        let ra = a.run_to_stabilization(2_000_000);
        let rb = b.run_to_stabilization(2_000_000);
        assert_eq!(ra.completed_at, rb.completed_at);
        assert_eq!(ra.metrics, rb.metrics);
        assert_eq!(a.event_trace(), b.event_trace());
        assert!(!a.event_trace().is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = engine_on(gen::cycle(16), 1, LatencyModel::multipeer(8));
        let mut b = engine_on(gen::cycle(16), 2, LatencyModel::multipeer(8));
        a.enable_event_trace();
        b.enable_event_trace();
        a.run_to_stabilization(2_000_000);
        b.run_to_stabilization(2_000_000);
        assert_ne!(a.event_trace(), b.event_trace());
    }

    #[test]
    fn zero_spread_is_deterministic_and_completes() {
        let mut e = engine_on(gen::clique(8), 3, LatencyModel::multipeer(0));
        let out = e.run_to_stabilization(1_000_000);
        assert_eq!(out.winner, Some(100));
    }

    #[test]
    fn proposal_loss_never_deadlocks() {
        // Loss reshuffles the whole timing schedule, so completion time is
        // not monotone in the loss rate on a small instance — the invariant
        // worth pinning is that drops happen and the run still completes.
        let mut lossy = engine_on(gen::clique(10), 5, LatencyModel::multipeer(4));
        lossy.set_proposal_loss(0.5);
        let out = lossy.run_to_stabilization(4_000_000);
        assert_eq!(out.winner, Some(100), "loss must not prevent completion");
        assert!(out.metrics.dropped_proposals > 0, "at half loss some proposals must drop");
    }

    #[test]
    fn single_node_completes_immediately() {
        let mut e = engine_on(gen::clique(1), 9, LatencyModel::multipeer(8));
        let out = e.run_to_stabilization(1_000);
        assert_eq!(out.completed_at, Some(0));
        assert_eq!(out.winner, Some(100));
    }

    #[test]
    fn time_budget_returns_none() {
        // A cycle of 64 cannot finish within 3 ticks.
        let mut e = engine_on(gen::cycle(64), 4, LatencyModel::multipeer(8));
        let out = e.run_to_stabilization(3);
        assert_eq!(out.completed_at, None);
    }
}
