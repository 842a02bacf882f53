//! Service mode: continuous leadership maintenance under churn.
//!
//! The run-to-* helpers in [`crate::engine`] treat an execution as one
//! elect-once-and-stop trial. Real smartphone swarms need the opposite: a
//! leader is elected, *serves*, dies, and is replaced — repeatedly, for as
//! long as the app is open. [`Engine::run_service`] drives exactly that
//! multi-epoch loop for any protocol implementing [`LeaderView`] +
//! [`EpochView`] (e.g. `mtm_core`'s maintenance protocol), surveying the
//! network after every round and accounting three service-level quantities:
//!
//! * **leaderless downtime** — rounds with no up claimant (nobody serving);
//! * **dual-leader exposure** — rounds with ≥ 2 up claimants (split brain);
//! * **re-elections** — observed increases of the network's maximum epoch.
//!
//! A *claimant* is a node whose `leader` variable holds its own UID; the
//! survey only counts nodes that are activated and up (see
//! [`DynamicTopology::is_node_up`]), because a crashed ex-leader can
//! neither serve nor collide until it recovers.
//!
//! # Wedge diagnosis, not timeouts
//!
//! A service run has no stabilization predicate to time out on — healthy
//! steady state and a permanently split network both just keep executing
//! rounds. The loop therefore reuses the stuck-run fingerprint machinery:
//! if the network's durable state (the fold of every node's
//! [`progress_words`](crate::Protocol::progress_words) digest) freezes for
//! a full window of rounds *while the up participants disagree* and the
//! topology holds still, no future round can differ from the last one and
//! the run is diagnosed [`ServiceStatus::Wedged`] with the same
//! [`StuckReport`] evidence the single-shot path produces. Agreement
//! resets the window — a frozen fingerprint under full agreement is the
//! *goal* state, not a wedge.

use mtm_graph::{nid, DynamicTopology};

use crate::engine::{Engine, StuckDetector, StuckReport};
use crate::metrics::{Metrics, ServiceMetrics};
use crate::protocol::{EpochView, LeaderView, Protocol};

/// Parameters for one [`Engine::run_service`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Rounds to execute (on top of any rounds the engine already ran).
    pub horizon: u64,
    /// Wedge-detection window in rounds; `0` disables the detector. Size it
    /// like a stuck-detection window: longer than the longest legitimate
    /// gap between durable-state changes during a live re-election.
    pub wedge_window: u64,
}

impl ServiceConfig {
    /// Run `horizon` rounds with wedge detection off.
    pub fn rounds(horizon: u64) -> ServiceConfig {
        ServiceConfig { horizon, wedge_window: 0 }
    }

    /// Enable wedge diagnosis with the given window.
    pub fn with_wedge_window(mut self, window: u64) -> ServiceConfig {
        self.wedge_window = window;
        self
    }
}

/// Why [`Engine::run_service`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceStatus {
    /// The full horizon was executed. Service quality is in the metrics —
    /// a completed run may still have been leaderless for most of it.
    Completed,
    /// The wedge detector fired: durable state froze for a full window with
    /// the up participants in disagreement and the topology still. The run
    /// was cut short because no future round can differ.
    Wedged(StuckReport),
}

/// One observed leadership term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochRecord {
    /// The term number (the network-wide maximum epoch while this record
    /// was current).
    pub epoch: u64,
    /// Round at the end of which this epoch was first observed (0 for the
    /// initial epoch of a fresh engine).
    pub started_round: u64,
    /// First round at the end of which every up participant agreed on this
    /// epoch and one leader, if that happened before the term ended.
    pub agreed_round: Option<u64>,
    /// The agreed leader's UID, once `agreed_round` is set.
    pub leader: Option<u64>,
}

/// Everything [`Engine::run_service`] learned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// Why the loop returned.
    pub status: ServiceStatus,
    /// Rounds actually executed by this call (equals the horizon unless the
    /// wedge detector cut the run short).
    pub rounds: u64,
    /// The network-wide maximum epoch at the end of the run.
    pub final_epoch: u64,
    /// The agreed `(epoch, leader)` UID at the last executed round, if the
    /// up participants agreed.
    pub final_leader: Option<u64>,
    /// Safety/liveness counters (see [`ServiceMetrics`]).
    pub service: ServiceMetrics,
    /// Every leadership term observed, in order. The multi-epoch trace —
    /// deterministic for fixed `(seed, config)`.
    pub epochs: Vec<EpochRecord>,
    /// Engine-level counters for the whole execution so far.
    pub metrics: Metrics,
}

/// Per-round survey of the service state: who is up, who claims, whether
/// the up participants agree.
struct Survey {
    participants: u64,
    claimants: u64,
    max_epoch: u64,
    /// `Some((epoch, leader))` iff `participants ≥ 1` and all agree.
    agreement: Option<(u64, u64)>,
}

impl<P, T> Engine<P, T>
where
    P: Protocol + LeaderView + EpochView,
    T: DynamicTopology,
{
    /// Survey the current round's service state. Must run after `step()` so
    /// fault chains are advanced through the current round.
    fn survey(&self) -> Survey {
        let round = self.round();
        let mut participants = 0u64;
        let mut claimants = 0u64;
        let mut max_epoch = 0u64;
        let mut agreement: Option<(u64, u64)> = None;
        let mut agreed = true;
        for (u, node) in self.nodes().iter().enumerate() {
            if !self.is_active(u) || !self.topology().is_node_up(nid(u), round) {
                continue;
            }
            participants += 1;
            let view = (node.epoch(), node.leader());
            max_epoch = max_epoch.max(view.0);
            if node.leader() == node.uid() {
                claimants += 1;
            }
            match agreement {
                None => agreement = Some(view),
                Some(first) => agreed &= first == view,
            }
        }
        Survey { participants, claimants, max_epoch, agreement: agreement.filter(|_| agreed) }
    }

    /// Run the service loop for `cfg.horizon` rounds (or until wedged),
    /// accounting leaderless downtime, dual-leader exposure and
    /// re-elections. See the module docs for the exact definitions.
    ///
    /// The call composes: a second `run_service` continues from the current
    /// round with fresh counters, so a scenario can be phased (elect, then
    /// crash, then measure recovery) while remaining one deterministic
    /// execution.
    pub fn run_service(&mut self, cfg: &ServiceConfig) -> ServiceOutcome {
        let start_round = self.round();
        let end_round = start_round + cfg.horizon;
        let mut service = ServiceMetrics::default();
        let mut status = ServiceStatus::Completed;

        // Seed the epoch history from the pre-run state (epoch 0 for a
        // fresh engine, or wherever a previous phase left the network).
        let initial_epoch = self.nodes().iter().map(EpochView::epoch).max().unwrap_or(0);
        let mut epochs = vec![EpochRecord {
            epoch: initial_epoch,
            started_round: start_round,
            agreed_round: None,
            leader: None,
        }];

        let mut wedge = (cfg.wedge_window > 0)
            .then(|| StuckDetector::new(cfg.wedge_window, start_round, self.metrics().connections));
        let mut fp_words = Vec::new();

        let mut final_agreement: Option<(u64, u64)> = None;
        while self.round() < end_round {
            self.step();
            let round = self.round();
            let s = self.survey();

            if s.claimants == 0 {
                service.leaderless_rounds += 1;
            } else if s.claimants >= 2 {
                service.dual_leader_rounds += 1;
            }
            service.max_concurrent_claimants = service.max_concurrent_claimants.max(s.claimants);

            // Epoch bookkeeping: an increase of the network max epoch ends
            // the current term and starts a new one.
            let current = epochs.last_mut().expect("history starts non-empty");
            if s.max_epoch > current.epoch {
                service.re_elections += 1;
                epochs.push(EpochRecord {
                    epoch: s.max_epoch,
                    started_round: round,
                    agreed_round: None,
                    leader: None,
                });
            } else if let Some((epoch, leader)) = s.agreement {
                if epoch == current.epoch && current.agreed_round.is_none() {
                    current.agreed_round = Some(round);
                    current.leader = Some(leader);
                }
            }
            if s.agreement.is_some() && s.claimants == 1 {
                service.stable_rounds += 1;
            }
            final_agreement = s.agreement.filter(|_| s.participants > 0);

            // Wedge diagnosis (see module docs). Barriers match the stuck
            // detector: a frozen state only evidences a dead end while the
            // topology holds still and every node has activated. Agreement
            // resets the window too.
            if let Some(det) = &mut wedge {
                if let Some(fp) = crate::fingerprint::of_nodes(self.nodes(), &mut fp_words) {
                    let reset = self.topology().may_change_at(round)
                        || round <= self.schedule().last_activation()
                        || s.agreement.is_some();
                    if let Some(report) = det.observe(round, fp, reset, self.metrics().connections)
                    {
                        status = ServiceStatus::Wedged(report);
                        break;
                    }
                }
            }
        }

        ServiceOutcome {
            status,
            rounds: self.round() - start_round,
            final_epoch: epochs.last().map_or(initial_epoch, |e| e.epoch),
            final_leader: final_agreement.map(|(_, leader)| leader),
            service,
            epochs,
            metrics: self.metrics(),
        }
    }
}
