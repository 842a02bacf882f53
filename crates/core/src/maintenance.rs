//! Leadership maintenance: epoch-numbered terms, heartbeats, failure
//! detection, re-election — blind gossip promoted from a one-shot election
//! into a long-running service.
//!
//! The paper elects once and stops; a smartphone swarm needs the leader
//! *kept*. [`MaintainedGossip`] layers three mechanisms over the §VI blind
//! gossip skeleton (same `b = 0` advertising, same coin-flip send/receive,
//! same `O(1)`-UID payloads), following the shape of CloudP2P's modified
//! bully election (heartbeats + staleness detection + term bump):
//!
//! 1. **Epoch-numbered terms.** Every node carries `(epoch, cand, age)`:
//!    the leadership term it participates in, the smallest UID it has seen
//!    *within* that term (its leader candidate — `leader()` reports this),
//!    and the staleness of its freshest evidence that `cand` is alive. A
//!    higher epoch always supersedes a lower one; within an epoch the
//!    ordinary min-UID rule applies. Both rules are monotone, so the
//!    network converges inside every term it settles on.
//! 2. **Heartbeats.** A node whose `cand` is itself is a *claimant* and is
//!    its own liveness evidence: it pins `age = 0` every round. Everyone
//!    else's `age` grows by one per connected round, and every connection
//!    merges ages (`min`) for equal candidates — so `age` at a node is
//!    exactly the gossip delay of the freshest heartbeat that has reached
//!    it. No extra messages exist: heartbeats ride the same connections
//!    the election uses, inside the model's payload budget (1 UID + 128
//!    extra bits ≤ the 256-bit cap).
//! 3. **Failure detection and re-election.** When `age` reaches the
//!    configured `timeout`, the node declares its leader dead and starts
//!    term `epoch + 1` with itself as initial candidate. Concurrent
//!    detectors merge (same new epoch, min UID wins); a false positive
//!    (slow heartbeat, live leader) costs one extra term — the deposed
//!    leader simply joins the new epoch like everyone else.
//!
//! **Isolation disarms the detector but never falsifies the evidence.**
//! A node with no visible neighbors (crashed radio, or cut off by churn)
//! learns nothing from the network, so letting it call elections would
//! make every long crash manufacture a runaway epoch: a node down for
//! `10·timeout` rounds would return carrying `epoch + 10` and depose a
//! perfectly healthy leader (the classic bully/Raft rejoin disruption).
//! The protection is purely *local*: an isolated node may not fire its
//! detector, and after rejoining it holds fire for a grace period of one
//! full `timeout` of connected rounds — long enough for the network to
//! deliver fresh evidence if the leader is alive. Crucially, the *gossiped*
//! `age` keeps ticking through isolation (saturating at `timeout`): a
//! rejoiner advertises its evidence as exactly as stale as it is. An
//! earlier design instead reset `age` on rejoin, which poisoned the
//! network — the min-merge spread each rejoiner's fake-fresh heartbeat,
//! and under any background churn the global staleness clock never reached
//! the threshold, so a genuinely dead leader was never detected.
//!
//! **Choosing `timeout`.** The detector trades false-positive re-elections
//! against leaderless downtime: `timeout` must exceed the steady-state
//! heartbeat gossip delay to the farthest node (same order as the §VI
//! rumor spread time, `O((1/α)·Δ²·log²n)` worst case) or live leaders get
//! deposed in a churn loop, while every extra round of margin is an extra
//! round of undetected-death downtime after a real crash. Service-mode
//! wedge windows should exceed `timeout` — a frozen `(epoch, cand)` state
//! only proves a dead end once every pending detector would have fired.
//!
//! Everything is a pure function of `(seed, config)`: the only coin flips
//! are the engine-supplied per-node streams, in the same draw pattern as
//! [`BlindGossip`](crate::BlindGossip).

use mtm_engine::{ActRule, Action, EpochView, LeaderView, PayloadCost, Protocol, Scan, Tag};
use rand::rngs::SmallRng;

use crate::id::UidPool;

/// Tuning knobs for [`MaintainedGossip`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaintenanceConfig {
    /// Heartbeat-staleness threshold, in connected rounds: a node whose
    /// freshest evidence of its leader is `timeout` rounds old declares the
    /// leader dead and starts a new epoch.
    pub timeout: u64,
}

impl MaintenanceConfig {
    /// A detector with the given staleness threshold (≥ 2: a threshold of
    /// 1 would depose a leader on every single missed heartbeat).
    pub fn new(timeout: u64) -> MaintenanceConfig {
        assert!(timeout >= 2, "timeout must be ≥ 2 rounds, got {timeout}");
        MaintenanceConfig { timeout }
    }
}

/// Connection payload: the sender's full maintenance view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// Sender's leadership term.
    pub epoch: u64,
    /// Smallest UID the sender has seen within `epoch`.
    pub cand: u64,
    /// Staleness of the sender's freshest evidence that `cand` is alive.
    pub age: u64,
}

impl PayloadCost for Heartbeat {
    fn uid_count(&self) -> u32 {
        1 // cand
    }
    fn extra_bits(&self) -> u32 {
        128 // epoch + age
    }
}

/// Per-node state of the maintenance protocol. See the module docs.
#[derive(Clone, Debug)]
pub struct MaintainedGossip {
    uid: u64,
    epoch: u64,
    /// Smallest UID seen within `epoch`; invariant `cand ≤ uid` (a node
    /// entering any epoch competes with its own UID first).
    cand: u64,
    /// Rounds since the freshest heartbeat evidence for `cand`, ticking
    /// every round (isolated or not) and saturated at `timeout`. This is
    /// the gossiped value: it must stay honest or min-merging spreads
    /// fake-fresh evidence (see the module docs).
    age: u64,
    timeout: u64,
    /// Connected rounds the detector must still hold fire after isolation
    /// (rejoin grace); an isolated round re-arms it to `timeout`.
    grace: u64,
    /// Scratch: did this round's scan show any neighbor? (Set in `act`,
    /// consumed in `end_round`; not part of the durable state.)
    saw_neighbors: bool,
}

impl MaintainedGossip {
    /// A node with the given UID, starting in epoch 0 as its own candidate.
    pub fn new(uid: u64, cfg: MaintenanceConfig) -> MaintainedGossip {
        MaintainedGossip {
            uid,
            epoch: 0,
            cand: uid,
            age: 0,
            timeout: cfg.timeout,
            grace: 0,
            saw_neighbors: false,
        }
    }

    /// One node per UID in the pool (the standard trial setup).
    pub fn spawn(uids: &UidPool, cfg: MaintenanceConfig) -> Vec<MaintainedGossip> {
        uids.as_slice().iter().map(|&u| MaintainedGossip::new(u, cfg)).collect()
    }

    /// Staleness of this node's current leader evidence.
    pub fn age(&self) -> u64 {
        self.age
    }

    /// Merge a peer view into this node's state: higher epoch supersedes,
    /// min UID wins within an epoch, equal candidates keep the freshest
    /// evidence.
    fn merge(&mut self, peer: &Heartbeat) {
        if peer.epoch > self.epoch {
            self.epoch = peer.epoch;
            // Every node is implicitly a candidate in a term it has not
            // participated in yet, preserving min-UID semantics.
            if self.uid <= peer.cand {
                self.cand = self.uid;
                self.age = 0;
            } else {
                self.cand = peer.cand;
                self.age = peer.age;
            }
        } else if peer.epoch == self.epoch {
            match peer.cand.cmp(&self.cand) {
                std::cmp::Ordering::Less => {
                    self.cand = peer.cand;
                    self.age = peer.age;
                }
                std::cmp::Ordering::Equal => self.age = self.age.min(peer.age),
                std::cmp::Ordering::Greater => {}
            }
        }
    }
}

impl Protocol for MaintainedGossip {
    type Payload = Heartbeat;

    fn advertise(&mut self, _local_round: u64, _rng: &mut SmallRng) -> Tag {
        Tag::EMPTY
    }

    fn act_rule(&self) -> ActRule {
        // Blind-gossip skeleton: fair coin to send or receive.
        ActRule::CoinFlip
    }

    fn apply_action(&mut self, scan: &Scan<'_>, _action: Action) {
        // Latch visibility for `end_round`'s isolation gate.
        self.saw_neighbors = !scan.is_empty();
    }

    fn payload(&self) -> Heartbeat {
        Heartbeat { epoch: self.epoch, cand: self.cand, age: self.age }
    }

    fn on_connect(&mut self, peer: &Heartbeat, _rng: &mut SmallRng) {
        self.merge(peer);
    }

    fn end_round(&mut self, _local_round: u64, _rng: &mut SmallRng) {
        if self.cand == self.uid {
            // A claimant is its own liveness evidence — this is the
            // heartbeat generation step.
            self.age = 0;
            self.grace = 0;
            return;
        }
        // The gossiped evidence ages honestly whether or not we were
        // connected; only the *detector* is gated below.
        self.age = (self.age + 1).min(self.timeout);
        if !self.saw_neighbors {
            // Isolated: we cannot distinguish a dead leader from our own
            // dead radio, so re-arm the rejoin grace instead of firing.
            self.grace = self.timeout;
        } else if self.grace > 0 {
            // Rejoin grace: give the network a full timeout of connected
            // rounds to deliver fresh evidence before we may call an
            // election on evidence that aged while we were gone.
            self.grace -= 1;
        } else if self.age >= self.timeout {
            // Failure detected: start the next term with ourselves as the
            // initial candidate.
            self.epoch += 1;
            self.cand = self.uid;
            self.age = 0;
        }
    }

    /// Durable state only: `(epoch, cand)`. `age` is deliberately excluded
    /// — it ticks every connected round, so including it would make any
    /// network look permanently busy and blind both the engine's stuck
    /// detector and service-mode wedge diagnosis. The price is that a
    /// frozen fingerprint only proves a fixed point over windows longer
    /// than `timeout` (a pending detector is a ticking state change);
    /// wedge windows must be sized accordingly.
    fn state_fingerprint(&self) -> Option<u64> {
        Some(mtm_engine::fingerprint::of_words(&[self.epoch, self.cand]))
    }

    fn supports_check(&self) -> bool {
        true
    }

    fn state_words(&self, out: &mut Vec<u64>) {
        // The exact-state key needs the full detector state: `age` and
        // `grace` are durable counters (deliberately excluded from the
        // fingerprint) that determine when the detector may fire.
        // `saw_neighbors` is per-round scratch rewritten by every act.
        out.extend_from_slice(&[self.epoch, self.cand, self.age, self.grace]);
    }
}

impl LeaderView for MaintainedGossip {
    fn leader(&self) -> u64 {
        self.cand
    }
    fn uid(&self) -> u64 {
        self.uid
    }
}

impl EpochView for MaintainedGossip {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_engine::service::ServiceConfig;
    use mtm_engine::{ActivationSchedule, Engine, ModelParams};
    use mtm_graph::{gen, NodeId, ScheduledCrashes, StaticTopology};

    fn cfg(timeout: u64) -> MaintenanceConfig {
        MaintenanceConfig::new(timeout)
    }

    fn rng() -> SmallRng {
        mtm_graph::rng::stream_rng(0, 0)
    }

    /// Run `end_round` as a connected (non-isolated) round.
    fn tick_connected(node: &mut MaintainedGossip) {
        node.saw_neighbors = true;
        node.end_round(1, &mut rng());
    }

    #[test]
    fn higher_epoch_supersedes_lower() {
        let mut node = MaintainedGossip::new(5, cfg(10));
        node.merge(&Heartbeat { epoch: 3, cand: 40, age: 2 });
        // Epoch 3 is new to us and our UID beats the peer's candidate.
        assert_eq!((node.epoch, node.cand, node.age), (3, 5, 0));
        node.merge(&Heartbeat { epoch: 4, cand: 1, age: 7 });
        assert_eq!((node.epoch, node.cand, node.age), (4, 1, 7));
        // Stale epochs are ignored entirely.
        node.merge(&Heartbeat { epoch: 2, cand: 0, age: 0 });
        assert_eq!((node.epoch, node.cand, node.age), (4, 1, 7));
    }

    #[test]
    fn min_uid_wins_within_epoch_and_ages_merge() {
        let mut node = MaintainedGossip::new(50, cfg(10));
        node.merge(&Heartbeat { epoch: 0, cand: 10, age: 4 });
        assert_eq!((node.cand, node.age), (10, 4));
        // Same candidate, fresher evidence: keep the min age.
        node.merge(&Heartbeat { epoch: 0, cand: 10, age: 1 });
        assert_eq!((node.cand, node.age), (10, 1));
        // Same candidate, staler evidence: no regression.
        node.merge(&Heartbeat { epoch: 0, cand: 10, age: 9 });
        assert_eq!((node.cand, node.age), (10, 1));
        // Worse candidate: ignored.
        node.merge(&Heartbeat { epoch: 0, cand: 30, age: 0 });
        assert_eq!((node.cand, node.age), (10, 1));
    }

    #[test]
    fn staleness_timeout_starts_new_epoch() {
        let mut node = MaintainedGossip::new(7, cfg(3));
        node.merge(&Heartbeat { epoch: 0, cand: 1, age: 0 });
        tick_connected(&mut node); // age 1
        tick_connected(&mut node); // age 2
        assert_eq!((node.epoch, node.cand), (0, 1));
        tick_connected(&mut node); // age 3 = timeout → re-elect
        assert_eq!((node.epoch, node.cand, node.age), (1, 7, 0));
        assert_eq!(node.cand, node.uid);
    }

    #[test]
    fn claimant_age_pinned_to_zero() {
        let mut node = MaintainedGossip::new(1, cfg(3));
        for _ in 0..10 {
            tick_connected(&mut node);
        }
        assert_eq!((node.epoch, node.cand, node.age), (0, 1, 0));
    }

    #[test]
    fn isolation_never_fires_but_keeps_evidence_honest() {
        let mut node = MaintainedGossip::new(9, cfg(3));
        node.merge(&Heartbeat { epoch: 0, cand: 2, age: 0 });
        tick_connected(&mut node);
        assert_eq!(node.age, 1);
        // Radio off for far longer than the timeout: no epoch bump, but the
        // gossiped age keeps ticking (saturating at the timeout) — a
        // rejoiner must not advertise fake-fresh evidence.
        for _ in 0..20 {
            node.saw_neighbors = false;
            node.end_round(1, &mut rng());
        }
        assert_eq!((node.epoch, node.cand, node.age), (0, 2, 3));
        // Rejoin grace: one full timeout of connected rounds without fresh
        // evidence still does not fire...
        for _ in 0..3 {
            tick_connected(&mut node);
            assert_eq!((node.epoch, node.cand), (0, 2));
        }
        // ...but once the grace is spent, stale evidence means a genuinely
        // dead leader: the detector finally fires.
        tick_connected(&mut node);
        assert_eq!((node.epoch, node.cand, node.age), (1, 9, 0));
    }

    #[test]
    fn rejoin_with_fresh_evidence_keeps_the_leader() {
        let mut node = MaintainedGossip::new(9, cfg(3));
        node.merge(&Heartbeat { epoch: 0, cand: 2, age: 0 });
        for _ in 0..20 {
            node.saw_neighbors = false;
            node.end_round(1, &mut rng());
        }
        // Back online: the network delivers a fresh heartbeat during the
        // grace period, so no election is ever called.
        node.merge(&Heartbeat { epoch: 0, cand: 2, age: 1 });
        for _ in 0..10 {
            node.merge(&Heartbeat { epoch: 0, cand: 2, age: 1 });
            tick_connected(&mut node);
        }
        assert_eq!((node.epoch, node.cand), (0, 2));
    }

    #[test]
    fn rejoiner_gossips_stale_age_not_fresh() {
        // Regression for the evidence-poisoning bug: an earlier design
        // reset `age` on the first connected round after isolation, and the
        // min-merge spread that fake-fresh heartbeat network-wide — under
        // background churn a dead leader was never detected.
        let mut node = MaintainedGossip::new(9, cfg(8));
        node.merge(&Heartbeat { epoch: 0, cand: 2, age: 0 });
        for _ in 0..5 {
            node.saw_neighbors = false;
            node.end_round(1, &mut rng());
        }
        tick_connected(&mut node);
        let hb = node.payload();
        assert_eq!(hb.cand, 2);
        assert!(hb.age >= 6, "rejoiner must advertise honest staleness, got {}", hb.age);
    }

    #[test]
    fn payload_fits_mobile_budget() {
        let node = MaintainedGossip::new(3, cfg(8));
        let hb = node.payload();
        assert!(hb.uid_count() <= mtm_engine::model::MAX_PAYLOAD_UIDS);
        assert!(hb.extra_bits() <= mtm_engine::model::MAX_PAYLOAD_BITS);
    }

    #[test]
    fn fingerprint_covers_epoch_and_cand_but_not_age() {
        let mut a = MaintainedGossip::new(4, cfg(9));
        let mut b = MaintainedGossip::new(4, cfg(9));
        a.merge(&Heartbeat { epoch: 0, cand: 2, age: 1 });
        b.merge(&Heartbeat { epoch: 0, cand: 2, age: 7 });
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        b.merge(&Heartbeat { epoch: 1, cand: 2, age: 0 });
        assert_ne!(a.state_fingerprint(), b.state_fingerprint());
    }

    #[test]
    fn healthy_clique_elects_and_keeps_min_uid() {
        let uids = UidPool::random(16, 0xBEEF);
        let mut e = Engine::new(
            StaticTopology::new(gen::clique(16)),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(16),
            MaintainedGossip::spawn(&uids, cfg(64)),
            7,
        );
        let out = e.run_service(&ServiceConfig::rounds(600));
        assert_eq!(out.service.re_elections, 0, "healthy run must not churn terms");
        assert_eq!(out.service.leaderless_rounds, 0, "initial claimants cover round 1");
        assert_eq!(out.final_epoch, 0);
        assert_eq!(out.final_leader, Some(uids.min_uid()));
        assert_eq!(out.epochs.len(), 1);
        assert!(out.epochs[0].agreed_round.is_some());
    }

    #[test]
    fn leader_crash_triggers_re_election_of_next_uid() {
        let n = 16;
        let uids = UidPool::random(n, 0xD00D);
        let leader = uids.min_uid_node() as NodeId;
        // Second-smallest UID: the expected successor.
        let mut sorted: Vec<u64> = uids.as_slice().to_vec();
        sorted.sort_unstable();
        let successor = sorted[1];
        let topo = ScheduledCrashes::new(
            StaticTopology::new(gen::clique(n)),
            vec![(leader, 200, u64::MAX)],
        );
        let mut e = Engine::new(
            topo,
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            MaintainedGossip::spawn(&uids, cfg(64)),
            11,
        );
        let out = e.run_service(&ServiceConfig::rounds(1200));
        assert!(out.service.re_elections >= 1, "crash must be detected: {out:?}");
        assert!(out.final_epoch >= 1);
        assert_eq!(out.final_leader, Some(successor), "survivors must elect the next UID");
        assert!(
            out.service.leaderless_rounds >= 1,
            "detection latency must show up as leaderless downtime"
        );
        let last = out.epochs.last().expect("a service run records at least the initial epoch");
        assert_eq!(last.leader, Some(successor));
    }
}
