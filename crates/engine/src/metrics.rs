//! Execution counters for lockstep and service-mode runs.

/// Aggregate counters over an execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rounds executed.
    pub rounds: u64,
    /// Connection proposals sent.
    pub proposals: u64,
    /// Connections successfully formed (each counts one node pair).
    pub connections: u64,
    /// Proposals that were lost (sent to a node that itself proposed, or
    /// not selected by the receiver under the single-accept policy).
    pub rejected_proposals: u64,
    /// Proposals dropped by fault injection before reaching the receiver
    /// (see [`crate::Engine::set_proposal_loss`]). Conservation invariant:
    /// `proposals = connections + rejected_proposals + dropped_proposals`.
    pub dropped_proposals: u64,
}

impl Metrics {
    /// Fraction of proposals that resulted in a connection.
    pub fn proposal_success_rate(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            self.connections as f64 / self.proposals as f64
        }
    }
}

/// Safety/liveness counters for a service-mode run (continuous leadership
/// maintenance — see [`crate::service`]). All round counts are over the
/// rounds executed by the `run_service` call that produced them.
///
/// A node is a *claimant* in a round when its `leader` variable holds its
/// own UID; only claimants that are activated **and** up (radio on, per
/// [`DynamicTopology::is_node_up`](mtm_graph::DynamicTopology::is_node_up))
/// are counted — a crashed ex-leader that still believes it leads cannot
/// serve anyone, so it contributes to *exposure* only once it recovers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Rounds with zero up claimants: nobody was serving (the gap between
    /// a leader's death and the re-election that replaces it, plus any
    /// interval where every claimant was crashed).
    pub leaderless_rounds: u64,
    /// Rounds with ≥ 2 up claimants: the dual-leader exposure window in
    /// which split-brain writes would be possible.
    pub dual_leader_rounds: u64,
    /// Rounds in which every up participant agreed on one `(epoch, leader)`
    /// and exactly one up claimant existed — the service was healthy.
    pub stable_rounds: u64,
    /// Leadership terms started beyond the first: each observed increase of
    /// the network's maximum epoch counts one re-election (concurrent
    /// detections that merge into a single new epoch count once).
    pub re_elections: u64,
    /// Largest number of simultaneous up claimants ever observed.
    pub max_concurrent_claimants: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate_handles_zero() {
        let m = Metrics::default();
        assert_eq!(m.proposal_success_rate(), 0.0);
    }

    #[test]
    fn success_rate_ratio() {
        let m = Metrics {
            rounds: 1,
            proposals: 10,
            connections: 4,
            rejected_proposals: 5,
            dropped_proposals: 1,
        };
        assert!((m.proposal_success_rate() - 0.4).abs() < 1e-12);
    }
}
