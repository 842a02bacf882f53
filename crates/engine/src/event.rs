//! The event-driven backend: a deterministic discrete-event simulation of
//! the mobile telephone model with **no global round clock**.
//!
//! The lockstep [`Engine`](crate::Engine) advances every node through the
//! same numbered round. Real smartphone meshes (Multipeer, Wi-Fi Direct)
//! do nothing of the sort: scans take device-dependent time, link latencies
//! vary per pair and per message, and each node runs its *own* round loop,
//! drifting freely against its neighbors. This backend models exactly
//! that, driving the same [`Protocol`] hooks as the lockstep engine through
//! an event queue:
//!
//! * **RoundStart(u)** — `u` begins local round `r`: it advertises (a draw
//!   from `u`'s stream) and posts the tag to the shared blackboard, then
//!   its scan completes after `scan` ticks.
//! * **Act(u)** — `u` scans the *current* tags of every neighbor that has
//!   started (a drifted neighbor may be mid-round — that is the point) and
//!   acts. A proposal travels as a message carrying the proposer's payload
//!   snapshot and arrives after a per-link latency; a listener opens a
//!   listen window of `listen` ticks.
//! * **Proposal(u → v)** — buffered if `v` is inside a listen window,
//!   otherwise rejected immediately (reject response after the return
//!   latency).
//! * **ListenEnd(v)** — `v` resolves its buffer: one proposal accepted
//!   uniformly (the [`uniform_accept_index`] draw from `v`'s own stream —
//!   the same rule as the lockstep backend), the rest rejected;
//!   responses carry `v`'s payload snapshot back to the accepted proposer.
//!   `v` ends its round and immediately starts the next.
//! * **Response(v → u)** — unblocks the proposer; an accepting response
//!   delivers `v`'s payload. `u` ends its round and starts the next.
//!
//! # Determinism contract
//!
//! An execution is a pure function of `(graph, protocols, seed, latency
//! model)`:
//!
//! * **All latency draws are counter-based** (like the lockstep engine's
//!   loss coins): a duration is `min + ⌊coin · (spread+1)⌋` with
//!   `coin = counter_coin(stream_seed, key, counter)` — a pure function of
//!   its keys, independent of event-processing order. Scan and listen
//!   windows are keyed on `(node, local round)`; link latencies on
//!   `(sender, receiver)` and the sender's message counter; per-node start
//!   jitter on the node id. Stream seeds are derived from the trial seed
//!   far outside the per-node range, so node randomness is never perturbed.
//! * **Event order is total**: events are served by `(time, node id,
//!   scheduling order)` — ties at one instant resolve by the node the
//!   event runs at, and one node's same-instant events by the
//!   (deterministic) order they were scheduled in.
//! * **Node randomness** flows only through each node's own stream
//!   (`stream_rng(seed, u)`, bound by the same helper as the lockstep
//!   backend); only the interleaving differs.
//!
//! Same seed ⇒ same event trace, byte for byte (pinned by tests here and
//! by `tests/event_backend.rs`, whose trace hashes were recorded from
//! earlier queues: a binary heap, then a calendar with one ordered map).
//!
//! # The event queue
//!
//! Each node owns at most one queued event at any moment: its own next
//! phase (`RoundStart`, `Act`, `ListenEnd` or its `Response`), or its
//! proposal in flight. A proposal buffered at a listener owns none. Event
//! bodies therefore live in one slot per node, indexed by owner, and
//! scheduling into an occupied slot panics as an engine bug. A tick's
//! events form lists threaded through per-owner links, each appended in
//! scheduling order.
//!
//! The queue is a two-tier tick calendar. A tick fewer than 64 ticks
//! ahead of the current tick `now` keeps its list in a ring of 64
//! `(head, tail)` pairs, at index `tick % 64`. One `u64` marks the
//! occupied entries, so an append is O(1) and the next near tick is `now`
//! plus the trailing zeros of that word rotated right by `now % 64`. Only
//! a tick 64 or more ticks ahead keeps its list in an ordered map, at
//! O(log T) per append for T such ticks. `now` never decreases, so every
//! far append to a tick comes before every near append to it: the tick's
//! far list followed by its near list holds its events in scheduling
//! order.
//!
//! When a tick becomes current, its `(node, owner)` pairs are sorted
//! stably by node, which gives the `(node id, scheduling order)` tie-break
//! exactly. A tick of at least 128 events takes an LSD radix sort, one
//! byte of the node id per pass (⌈log₂ n / 8⌉ passes); a smaller one takes
//! a comparison sort, which is cheaper there. Every delay is at least one
//! tick, except the `RoundStart` a node queues right after its own
//! `ListenEnd` or `Response`; that one is served after the node's
//! remaining events at the tick and before any larger node's. Memory is
//! O(n + 64) whatever the latency spread: the map holds at most n lists,
//! the ring 64, and the two sort buffers at most n pairs each.
//! [`EventEngine::run_until`] stops before an event past its budget,
//! leaving it queued, so a later call resumes the same execution.
//!
//! Proposal loss and the crash/churn fault layers are lockstep-only
//! features — the backend runs on a static [`Graph`] and delivers every
//! message.
//!
//! The backend runs the lockstep conformance checks through the same
//! [`Auditor`](crate::audit::Auditor), in every build profile — tag width,
//! proposal visibility, payload budget — plus proposal conservation after
//! every `ListenEnd` and `Response`: with each proposer holding at most one
//! outstanding proposal, `proposals − connections − rejected − dropped`
//! stays within `[0, n]`. The one-connection rule is checked when a
//! response arrives: its node must be waiting on a proposal.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use mtm_graph::rng::{counter_coin, derive_seed};
use mtm_graph::{Graph, NodeId};
use rand::rngs::SmallRng;

use crate::metrics::Metrics;
use crate::model::{uniform_accept_index, ConnectionPolicy, ModelParams, Tag};
use crate::protocol::{Action, LeaderView, Protocol, RumorView, Scan};

/// Minimum ticks for a scan (neighborhood discovery) to complete.
const SCAN_MIN: u64 = 4;
/// Minimum one-way link latency per message.
const LINK_MIN: u64 = 1;
/// Minimum length of a listener's accept window.
const LISTEN_MIN: u64 = 6;

/// Per-phase timing distributions, in integer ticks. Every duration is
/// drawn uniformly from `[min, min + spread]` via a counter-based coin. The
/// minimums are fixed, at least one tick each so local time always
/// advances; every phase's spread derives from one `spread` knob (the
/// AS1/AS2 sweep axis). `spread = 0` makes each phase deterministic while
/// the composition stays asynchronous (nodes still drift through
/// accumulated round-trip differences).
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    spread: u64,
}

impl LatencyModel {
    /// A Multipeer-flavored model: discovery is the slow phase (scan
    /// `[4, 4 + spread]`), links are fast (`[1, 1 + spread / 2]`), a listen
    /// window lasts `[6, 6 + spread]`, and node `u` begins its first round
    /// at a uniform time in `[0, 4·spread]`. `spread = 0` gives fixed
    /// durations and no start jitter.
    pub fn multipeer(spread: u64) -> Self {
        assert!(spread.checked_mul(4).is_some(), "start spread 4 × spread overflows u64");
        LatencyModel { spread }
    }

    /// Nominal ticks of one listen-shaped round (scan + listen window at
    /// the distribution means) — the conversion factor between lockstep
    /// rounds and event time used by the AS experiments' bound column.
    pub fn nominal_round_ticks(&self) -> f64 {
        SCAN_MIN as f64 + self.spread as f64 / 2.0 + LISTEN_MIN as f64 + self.spread as f64 / 2.0
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
    /// accepted (the responder's payload snapshot), `None` = rejected.
    Response {
        accepted: Option<PL>,
    },
}

impl<PL> Ev<PL> {
    /// The node whose one pending event this is, for an event processed at
    /// `at`: a proposal in flight belongs to its sender, every other event
    /// to the node it runs at.
    fn owner(&self, at: NodeId) -> NodeId {
        match self {
            Ev::Proposal { from, .. } => *from,
            _ => at,
        }
    }

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

/// Sentinel for "no next event" in a tick's list.
const NIL: NodeId = NodeId::MAX;

/// The panic message for an event scheduled past `u64::MAX` ticks.
const TIME_OVERFLOW: &str = "event time overflows u64 ticks: latency durations too large";

/// Ticks in the near tier of the calendar: an event fewer than `NEAR`
/// ticks ahead of `now` goes in the ring, any other in the ordered map.
/// One `u64` holds the ring's occupancy.
const NEAR: usize = 64;

/// Ticks with at least this many events are ordered by radix sort, smaller
/// ones by a comparison sort. Each radix pass clears and sums 256
/// counters, so on a tick of a few events it costs several times a
/// comparison sort; from about 100 events on it costs less, with up to
/// three passes (n ≤ 2^24).
const RADIX_MIN: usize = 128;

/// The ring slot of tick `time`.
#[inline]
fn ring_index(time: u64) -> usize {
    (time % NEAR as u64) as usize
}

/// Sort `pairs` stably by their first element, a node id below
/// `256^passes`: one counting pass per byte, least significant first,
/// each from `pairs` into `spare` and back by a swap.
fn radix_sort(pairs: &mut Vec<(NodeId, NodeId)>, spare: &mut Vec<(NodeId, NodeId)>, passes: u32) {
    for pass in 0..passes {
        let digit = |&(at, _): &(NodeId, NodeId)| (at >> (8 * pass)) as usize & 0xff;
        let mut start = [0usize; 256];
        for pair in pairs.iter() {
            start[digit(pair)] += 1;
        }
        let mut sum = 0;
        for count in &mut start {
            (*count, sum) = (sum, sum + *count);
        }
        spare.clear();
        spare.resize(pairs.len(), (NIL, NIL));
        for pair in pairs.iter() {
            let d = digit(pair);
            spare[start[d]] = *pair;
            start[d] += 1;
        }
        std::mem::swap(pairs, spare);
    }
}

/// Where the event a node owns runs, and which event follows it in its
/// tick's list (see [`EventEngine`]'s `links`).
#[derive(Clone, Copy)]
struct Link {
    /// The node the event is processed at: a proposal's receiver, otherwise
    /// the owner itself.
    at: NodeId,
    /// The owner of the next event in the same tick's list, or [`NIL`].
    next: NodeId,
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

/// True iff `ok` holds for every node. The scan starts at `*holdout`, the
/// node that failed the previous call, and wraps; a failure leaves
/// `*holdout` at the failing node. A stopping check that keeps failing on
/// one node then costs O(1) instead of a rescan from node 0.
fn all_from<P>(holdout: &mut usize, nodes: &[P], ok: impl Fn(&P) -> bool) -> bool {
    let (before, from) = nodes.split_at(*holdout);
    match from.iter().chain(before).position(|p| !ok(p)) {
        Some(i) => {
            *holdout = (*holdout + i) % nodes.len();
            false
        }
        None => true,
    }
}

/// Directed-link key for latency coins.
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
    nodes: Vec<P>,
    rngs: Vec<SmallRng>,
    // Dedicated counter-coin streams (derived far from the node range).
    start_seed: u64,
    scan_seed: u64,
    listen_seed: u64,
    link_seed: u64,
    now: u64,
    /// Each node's one pending event, indexed by owner, or `None` while it
    /// owns none.
    pending: Vec<Option<Ev<P::Payload>>>,
    /// Each pending event's [`Link`], indexed by owner. Kept apart from the
    /// event bodies so that walking a tick's list reads 8 bytes per event.
    links: Vec<Link>,
    /// The near tier: at index `tick % NEAR`, the `(head, tail)` owners of
    /// the list of events appended to `tick` while it was fewer than
    /// `NEAR` ticks ahead, threaded through `links` in scheduling order.
    near: [(NodeId, NodeId); NEAR],
    /// Bit `i` is set iff `near[i]` holds a list.
    occupied: u64,
    /// The far tier: each tick's list of events appended while it was
    /// `NEAR` or more ticks ahead.
    far: BTreeMap<u64, (NodeId, NodeId)>,
    /// The current tick's events as `(at, owner)`, in serving order;
    /// `cursor` is the next one to serve.
    tick: Vec<(NodeId, NodeId)>,
    /// The radix sort's second buffer.
    spare: Vec<(NodeId, NodeId)>,
    cursor: usize,
    /// A `RoundStart` queued at the current tick by its node's `ListenEnd`
    /// or `Response`.
    same_tick: Option<NodeId>,
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
    auditor: crate::audit::Auditor,
}

impl<P: Protocol> EventEngine<P> {
    /// Build an event backend for `protocols` over the static `graph`.
    ///
    /// `seed` plays the same role as for the lockstep engine: node `u`
    /// executes on `stream_rng(seed, u)`, and the latency coin streams
    /// are derived from dedicated sub-streams. Only
    /// [`ConnectionPolicy::SingleUniform`] is modeled — the mobile telephone
    /// model's acceptance rule.
    pub fn new(
        graph: Graph,
        params: ModelParams,
        protocols: Vec<P>,
        seed: u64,
        latency: LatencyModel,
    ) -> Self {
        assert_eq!(
            params.policy,
            ConnectionPolicy::SingleUniform,
            "the event backend models the mobile model's single-accept rule"
        );
        let n = graph.node_count();
        assert_eq!(protocols.len(), n, "one protocol instance per graph node");
        // One dedicated stream per coin family, derived far outside the
        // per-node stream range (the lockstep engine reserves u64::MAX for
        // its loss stream; this backend derives from u64::MAX - 1).
        let base = derive_seed(seed, u64::MAX - 1);
        let mut engine = EventEngine {
            graph,
            params,
            latency,
            nodes: protocols,
            rngs: crate::engine::node_streams(seed, n),
            start_seed: derive_seed(base, 0),
            scan_seed: derive_seed(base, 1),
            listen_seed: derive_seed(base, 2),
            link_seed: derive_seed(base, 3),
            now: 0,
            pending: (0..n).map(|_| None).collect(),
            links: vec![Link { at: NIL, next: NIL }; n],
            near: [(NIL, NIL); NEAR],
            occupied: 0,
            far: BTreeMap::new(),
            tick: Vec::new(),
            spare: Vec::new(),
            cursor: 0,
            same_tick: None,
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
            auditor: crate::audit::Auditor::default(),
        };
        for u in 0..n {
            let jitter = draw(engine.start_seed, u as u64, 0, 0, 4 * engine.latency.spread);
            // node count fits a NodeId by graph construction. mtm-lint: allow(truncating-cast)
            engine.schedule(jitter, u as NodeId, Ev::RoundStart);
        }
        engine
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
        self.nodes.len()
    }

    /// Immutable view of node `u`'s protocol state.
    pub fn node(&self, u: usize) -> &P {
        &self.nodes[u]
    }

    /// Iterate over all protocol states in node order.
    pub fn protocols(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Mean local round across nodes.
    pub fn mean_local_rounds(&self) -> f64 {
        if self.local_round.is_empty() {
            return 0.0;
        }
        self.local_round.iter().sum::<u64>() as f64 / self.local_round.len() as f64
    }

    /// Store `ev`, processed at node `at`, as its owner's pending event and
    /// return the owner.
    fn occupy(&mut self, at: NodeId, ev: Ev<P::Payload>) -> NodeId {
        let owner = ev.owner(at);
        let pending = &mut self.pending[owner as usize];
        // A node owns at most one queued event: its next phase, or its
        // proposal in flight.
        assert!(pending.is_none(), "engine bug: node {owner} already has an event queued");
        *pending = Some(ev);
        self.links[owner as usize] = Link { at, next: NIL };
        owner
    }

    /// Queue `ev` at node `at`, `delay` ticks from now. Once the run has
    /// started, every delay is at least one tick (the phase minimums).
    fn schedule(&mut self, delay: u64, at: NodeId, ev: Ev<P::Payload>) {
        let time = self.now.checked_add(delay).expect(TIME_OVERFLOW);
        let owner = self.occupy(at, ev);
        let list = if delay < NEAR as u64 {
            let i = ring_index(time);
            if self.occupied & (1 << i) == 0 {
                self.occupied |= 1 << i;
                self.near[i] = (owner, owner);
                return;
            }
            &mut self.near[i]
        } else {
            match self.far.entry(time) {
                Entry::Vacant(list) => {
                    list.insert((owner, owner));
                    return;
                }
                Entry::Occupied(list) => list.into_mut(),
            }
        };
        // The tick's list is not empty: link its tail to `owner`.
        self.links[list.1 as usize].next = owner;
        list.1 = owner;
    }

    /// Queue `node`'s next `RoundStart` at the current tick, the one
    /// zero-delay event. In the `(time, node, scheduling order)` order it
    /// comes after `node`'s remaining events at this tick and before any
    /// larger node's, so [`Self::next_due`] serves it exactly there.
    fn start_next_round(&mut self, node: NodeId) {
        self.occupy(node, Ev::RoundStart);
        let earlier = self.same_tick.replace(node);
        assert!(
            earlier.is_none(),
            "engine bug: a same-tick round start was still pending when node {node} queued one"
        );
    }

    /// Make the earliest queued tick current if it lies at or before
    /// `max_time`, and return whether one did. Its events are its far list,
    /// then its near list, ordered by the node they run at, each node's
    /// events kept in the order they were listed.
    fn open_next(&mut self, max_time: u64) -> bool {
        let near = (self.occupied != 0).then(|| {
            // Bit `now % NEAR` becomes bit 0, so the first set bit is the
            // distance from `now` to the earliest near tick.
            let now_bit = u32::try_from(ring_index(self.now)).expect("a ring index is below 64");
            self.now + u64::from(self.occupied.rotate_right(now_bit).trailing_zeros())
        });
        let far = self.far.first_entry();
        let Some(time) = near.into_iter().chain(far.as_ref().map(|list| *list.key())).min() else {
            return false;
        };
        if time > max_time {
            return false;
        }
        let far_head = far.filter(|list| *list.key() == time).map(|list| list.remove().0);
        self.now = time;
        self.tick.clear();
        self.cursor = 0;
        if let Some(head) = far_head {
            self.gather(head);
        }
        // Every near list belongs to a tick in `[now, now + NEAR)` of the
        // old `now`, and none is earlier than `time`, so the one at
        // `time % NEAR`, if any, is `time`'s.
        let i = ring_index(time);
        if self.occupied & (1 << i) != 0 {
            self.occupied &= !(1 << i);
            self.gather(self.near[i].0);
        }
        if self.tick.len() < RADIX_MIN {
            self.tick.sort_by_key(|&(at, _)| at);
        } else {
            // ⌈log₂ n / 8⌉ byte passes order every node id up to n − 1.
            let passes = (usize::BITS - (self.nodes.len() - 1).leading_zeros()).div_ceil(8);
            radix_sort(&mut self.tick, &mut self.spare, passes);
        }
        true
    }

    /// Append the list starting at `head` to the current tick as
    /// `(at, owner)` pairs.
    fn gather(&mut self, head: NodeId) {
        let mut owner = head;
        while owner != NIL {
            let link = self.links[owner as usize];
            self.tick.push((link.at, owner));
            owner = link.next;
        }
    }

    /// The node the next event due at or before `max_time` runs at and its
    /// owner, or `None` when there is none; an event past `max_time` stays
    /// queued.
    ///
    /// Events are served by `(time, node, scheduling order)`. A tick's
    /// lists hold its events in scheduling order, so a stable sort by the
    /// node they run at gives that order. The only event scheduled during
    /// its own tick is a `RoundStart`, served from `same_tick` ahead of
    /// the first listed event at a larger node.
    fn next_due(&mut self, max_time: u64) -> Option<(NodeId, NodeId)> {
        if self.cursor == self.tick.len() && self.same_tick.is_none() {
            if !self.open_next(max_time) {
                return None;
            }
        } else if self.now > max_time {
            return None;
        }
        let listed = self.tick.get(self.cursor).copied();
        if let Some(node) = self.same_tick.filter(|&u| listed.is_none_or(|(at, _)| u < at)) {
            self.same_tick = None;
            return Some((node, node));
        }
        self.cursor += 1;
        listed
    }

    #[inline]
    fn link_delay(&self, from: NodeId, to: NodeId, counter: u64) -> u64 {
        draw(self.link_seed, link_key(from, to), counter, LINK_MIN, self.latency.spread / 2)
    }

    /// Next outgoing-message counter for `u` (keys the link coins).
    #[inline]
    fn next_msg(&mut self, u: NodeId) -> u64 {
        let s = self.msg_seq[u as usize];
        self.msg_seq[u as usize] += 1;
        s
    }

    /// The payload-budget audit the lockstep `Engine::connect` runs. `node`
    /// is the payload's owner.
    #[inline]
    fn check_payload_budget(&self, node: NodeId, pl: &P::Payload) {
        self.auditor.check_payload(self.local_round[node as usize], node as usize, pl);
    }

    /// The conservation audit after a proposal was resolved: at most one
    /// proposal per node can still be in flight.
    #[inline]
    fn check_conservation(&self) {
        self.auditor.check_conservation(
            self.metrics.rounds,
            &self.metrics,
            self.nodes.len() as u64,
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
                let tag = self.nodes[ui].advertise(lr, &mut self.rngs[ui]);
                let tag_bits = self.params.tag_bits;
                self.auditor.check_tag(lr, ui, tag, tag_bits);
                self.tags[ui] = tag;
                self.started[ui] = true;
                self.phase[ui] = Phase::Scanning;
                let d = draw(self.scan_seed, node as u64, lr, SCAN_MIN, self.latency.spread);
                self.schedule(d, node, Ev::Act);
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
                match self.nodes[ui].act(&scan, &mut self.rngs[ui]) {
                    Action::Listen => {
                        self.phase[ui] = Phase::Listening;
                        self.buffers[ui].clear();
                        let d = draw(
                            self.listen_seed,
                            node as u64,
                            lr,
                            LISTEN_MIN,
                            self.latency.spread,
                        );
                        self.schedule(d, node, Ev::ListenEnd);
                    }
                    Action::Propose(v) => {
                        self.auditor.check_proposal(lr, ui, v, &self.vis);
                        self.metrics.proposals += 1;
                        self.phase[ui] = Phase::Waiting;
                        let s = self.next_msg(node);
                        let d = self.link_delay(node, v, s);
                        let pl = self.nodes[ui].payload();
                        self.check_payload_budget(node, &pl);
                        self.schedule(d, v, Ev::Proposal { from: node, payload: pl });
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
                    self.schedule(d, from, Ev::Response { accepted: None });
                }
                false
            }
            Ev::ListenEnd => {
                let lr = self.local_round[ui];
                let mut delivered = false;
                let mut buf = std::mem::take(&mut self.buffers[ui]);
                if !buf.is_empty() {
                    let pick = uniform_accept_index(&mut self.rngs[ui], buf.len());
                    for (i, (from, pu)) in buf.drain(..).enumerate() {
                        let s = self.next_msg(node);
                        let d = self.link_delay(node, from, s);
                        if i == pick {
                            // Payload snapshots before delivery, exactly as
                            // the lockstep connect() orders them.
                            let pv = self.nodes[ui].payload();
                            self.check_payload_budget(node, &pv);
                            self.check_payload_budget(from, &pu);
                            self.nodes[ui].on_connect(&pu, &mut self.rngs[ui]);
                            self.metrics.connections += 1;
                            delivered = true;
                            self.schedule(d, from, Ev::Response { accepted: Some(pv) });
                        } else {
                            self.metrics.rejected_proposals += 1;
                            self.schedule(d, from, Ev::Response { accepted: None });
                        }
                    }
                }
                self.buffers[ui] = buf;
                // Leave the listening phase *now*: a proposal arriving at
                // this same tick (before the next Act) must be rejected,
                // not buffered into a window that no longer exists — a
                // buffered-then-cleared proposal would strand its proposer.
                self.phase[ui] = Phase::Scanning;
                self.nodes[ui].end_round(lr, &mut self.rngs[ui]);
                self.check_conservation();
                self.start_next_round(node);
                delivered
            }
            Ev::Response { accepted } => {
                let lr = self.local_round[ui];
                self.auditor.check_response(lr, ui, self.phase[ui] == Phase::Waiting);
                // Leave the waiting phase now, as ListenEnd leaves
                // Listening: a second response to the same proposal is
                // then caught even at the same tick.
                self.phase[ui] = Phase::Scanning;
                let delivered = if let Some(pv) = accepted {
                    self.nodes[ui].on_connect(&pv, &mut self.rngs[ui]);
                    true
                } else {
                    false
                };
                self.nodes[ui].end_round(lr, &mut self.rngs[ui]);
                self.check_conservation();
                self.start_next_round(node);
                delivered
            }
        }
    }

    /// Drive events until `pred` holds or the next event lies past
    /// `max_time`. The predicate is evaluated before the first event and
    /// after every payload delivery (the only points protocol state can
    /// change). Returns the completion time. Nothing past `max_time` is
    /// consumed, so a later call resumes exactly where this one stopped.
    pub fn run_until(&mut self, max_time: u64, mut pred: impl FnMut(&Self) -> bool) -> Option<u64> {
        if pred(self) {
            return Some(self.now);
        }
        while let Some((node, owner)) = self.next_due(max_time) {
            let ev = self.pending[owner as usize].take().expect("a listed owner holds its event");
            self.events += 1;
            if let Some(trace) = &mut self.trace {
                trace.push(EventRecord { time: self.now, node, kind: ev.kind() });
            }
            let delivered = self.process(node, ev);
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
        let first = self.nodes.first()?.leader();
        if self.protocols().all(|p| p.leader() == first) {
            Some(first)
        } else {
            None
        }
    }

    /// Run until every node agrees on one leader (at most `max_time`
    /// ticks).
    pub fn run_to_stabilization(&mut self, max_time: u64) -> EventOutcome {
        let mut holdout = 0;
        let done = self.run_until(max_time, |e| {
            e.nodes.first().is_some_and(|p0| {
                let first = p0.leader();
                all_from(&mut holdout, &e.nodes, |p| p.leader() == first)
            })
        });
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
        let mut holdout = 0;
        let done = self.run_until(max_time, |e| all_from(&mut holdout, &e.nodes, P::informed));
        self.outcome(done, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PayloadCost;
    use mtm_graph::gen;
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
    #[should_panic(expected = "exceeding b")]
    fn tag_budget_enforced() {
        /// Advertises a 1-bit tag under a b = 0 model, as in the lockstep
        /// engine's twin test.
        struct BadTag;
        impl Protocol for BadTag {
            type Payload = U64Payload;
            fn advertise(&mut self, _l: u64, _r: &mut SmallRng) -> Tag {
                Tag(1)
            }
            fn act(&mut self, _s: &Scan<'_>, _r: &mut SmallRng) -> Action {
                Action::Listen
            }
            fn payload(&self) -> U64Payload {
                U64Payload(0)
            }
            fn on_connect(&mut self, _p: &U64Payload, _r: &mut SmallRng) {}
        }
        let mut e = EventEngine::new(
            gen::clique(2),
            ModelParams::mobile(0),
            vec![BadTag, BadTag],
            0,
            LatencyModel::multipeer(0),
        );
        e.run_until(1_000, |_| false);
    }

    #[test]
    #[should_panic(expected = "node 0 received a response with no proposal outstanding")]
    fn second_response_to_one_proposal_caught() {
        let mut e = engine_on(gen::clique(2), 0, LatencyModel::multipeer(0));
        // Node 0 has one proposal outstanding, so it owns no queued event,
        // and its response arrives twice at the same tick.
        e.phase[0] = Phase::Waiting;
        e.pending[0] = None;
        e.process(0, Ev::Response { accepted: None });
        e.process(0, Ev::Response { accepted: None });
    }

    #[test]
    #[should_panic(expected = "node 0 already has an event queued")]
    fn second_pending_event_per_node_caught() {
        // Node 0 still holds its first RoundStart.
        let mut e = engine_on(gen::clique(2), 0, LatencyModel::multipeer(0));
        e.schedule(1, 0, Ev::Act);
    }

    #[test]
    #[should_panic(expected = "start spread 4 × spread overflows u64")]
    fn overflowing_multipeer_spread_rejected() {
        LatencyModel::multipeer(u64::MAX / 4 + 1);
    }

    #[test]
    #[should_panic(expected = "event time overflows u64 ticks")]
    fn event_time_overflow_caught() {
        // The largest spread `multipeer` accepts: every draw fits u64, but
        // start jitter averages about 2^63 ticks and each scan or listen
        // window about 2^61, so within a few rounds the next event would
        // fall past u64::MAX.
        let latency = LatencyModel::multipeer(u64::MAX / 4);
        engine_on(gen::clique(2), 0, latency).run_until(u64::MAX, |_| false);
    }

    /// Drives the queue directly and checks every pop against a binary
    /// heap on `(time, node, scheduling order)`: random owners, proposals
    /// crowding four receivers, delays of 1 to 200 ticks with some of 2^32
    /// or more, same-tick round starts and random time budgets. Dense
    /// stretches (delays of 1 to 3 ticks) fill ticks past `RADIX_MIN`;
    /// 70,000 nodes need three radix passes.
    #[test]
    fn queue_pops_in_time_node_scheduling_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for (n, pops, seed) in [(24, 20_000, 1), (1_000, 60_000, 2), (70_000, 60_000, 3)] {
            let mut e = engine_on(gen::cycle(n), seed, LatencyModel::multipeer(0));
            let mut rng = crate::engine::node_streams(seed, 1).remove(0);
            let ids = 0..NodeId::try_from(n).expect("test sizes fit a NodeId");
            // `(time, at, scheduling order, owner)`: every node's first
            // round start is due at tick 0.
            let mut reference: BinaryHeap<_> =
                ids.clone().map(|u| Reverse((0, u, u64::from(u), u))).collect();
            let mut seq = reference.len() as u64;
            let hot: Vec<NodeId> = (0..4).map(|_| rng.gen_range(ids.clone())).collect();
            let mut free = Vec::new();
            let (mut max_time, mut popped) = (0, 0);
            let (mut small_ticks, mut big_ticks, mut far_ticks) = (0, 0, 0);
            loop {
                if rng.gen_bool(0.02) && e.now > 0 {
                    assert_eq!(e.next_due(e.now - 1), None, "a budget behind now serves nothing");
                }
                // `next_due` opens a tick exactly when the current one is done.
                let opens = e.cursor == e.tick.len() && e.same_tick.is_none();
                let far_before = e.far.len();
                let Some((got_at, owner)) = e.next_due(max_time) else {
                    let Some(Reverse((time, ..))) = reference.peek() else { break };
                    assert!(*time > max_time, "tick {time} is due by {max_time}");
                    max_time = time - 1 + rng.gen_range(0..300);
                    continue;
                };
                if opens {
                    far_ticks += usize::from(e.far.len() < far_before);
                    if e.tick.len() < RADIX_MIN {
                        small_ticks += 1;
                    } else {
                        big_ticks += 1;
                    }
                }
                let Reverse((time, at, _, want)) =
                    reference.pop().expect("the queue served an event the reference lacks");
                assert_eq!((e.now, got_at, owner), (time, at, want), "n {n}, pop {popped}");
                e.pending[owner as usize] = None;
                free.push(owner);
                popped += 1;
                if popped > pops {
                    max_time = u64::MAX;
                    continue;
                }
                if at == owner && e.same_tick.is_none() && rng.gen_bool(0.2) {
                    free.pop();
                    e.start_next_round(owner);
                    reference.push(Reverse((e.now, owner, seq, owner)));
                    seq += 1;
                }
                let dense = popped / 10_000 % 2 == 0;
                // One or two new events per pop keep nearly every owner busy.
                for _ in 0..rng.gen_range(1..=2) {
                    if free.is_empty() {
                        break;
                    }
                    let owner = free.swap_remove(rng.gen_range(0..free.len()));
                    let delay = if dense {
                        rng.gen_range(1..=3)
                    } else if rng.gen_bool(0.002) {
                        (1 << 32) + rng.gen_range(0..1_000)
                    } else {
                        rng.gen_range(1..=200)
                    };
                    let (at, ev) = if rng.gen_bool(0.5) {
                        (owner, Ev::Act)
                    } else {
                        let to = if rng.gen_bool(0.5) {
                            hot[rng.gen_range(0..hot.len())]
                        } else {
                            rng.gen_range(ids.clone())
                        };
                        (to, Ev::Proposal { from: owner, payload: U64Payload(0) })
                    };
                    reference.push(Reverse((e.now + delay, at, seq, owner)));
                    seq += 1;
                    e.schedule(delay, at, ev);
                }
            }
            assert_eq!(free.len(), n, "every event was served once");
            assert!(
                small_ticks > 0 && far_ticks > 0,
                "n {n}: {small_ticks} small, {far_ticks} far"
            );
            assert!(n < RADIX_MIN || big_ticks > 0, "n {n}: no tick reached the radix sort");
        }
    }

    #[test]
    fn all_from_matches_a_full_scan() {
        let mut rng = crate::engine::node_streams(5, 1).remove(0);
        for _ in 0..500 {
            let n = rng.gen_range(1..12);
            let ok: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.8)).collect();
            let mut holdout = rng.gen_range(0..n);
            let all = all_from(&mut holdout, &ok, |&b| b);
            assert_eq!(all, ok.iter().all(|&b| b), "{ok:?}");
            assert!(all || !ok[holdout], "holdout {holdout} must fail in {ok:?}");
        }
    }

    #[test]
    fn run_until_resumes_where_it_stopped() {
        const HORIZON: u64 = 400;
        for spread in [0, 8] {
            let fresh = || {
                let mut e = engine_on(gen::clique(12), 6, LatencyModel::multipeer(spread));
                e.enable_event_trace();
                e
            };
            let mut whole = fresh();
            assert_eq!(whole.run_until(HORIZON, |_| false), None);
            let same = |e: &EventEngine<MinSpread>, how: &str| {
                assert_eq!(e.event_trace(), whole.event_trace(), "spread {spread}, {how}");
                assert_eq!(e.metrics(), whole.metrics(), "spread {spread}, {how}");
                assert_eq!(e.events_processed(), whole.events_processed());
            };
            // Cut by the time budget, then resumed.
            for cut in [0, 1, 37, 150] {
                let mut e = fresh();
                assert_eq!(e.run_until(cut, |_| false), None);
                assert!(e.now() <= cut);
                assert_eq!(e.run_until(HORIZON, |_| false), None);
                same(&e, &format!("cut at {cut}"));
            }
            // Stopped by the predicate, often in the middle of a tick with
            // a same-tick round start still queued, then resumed.
            let mut e = fresh();
            for k in 1..=6 {
                assert!(e.run_until(HORIZON, |e| e.metrics().connections >= k).is_some());
            }
            assert_eq!(e.run_until(HORIZON, |_| false), None);
            same(&e, "stopped by the predicate");
        }
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
