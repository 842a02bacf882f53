//! Model-conformance audit.
//!
//! Every round the engine executes is checked against the mobile telephone
//! model's contract (Section III of the paper), in every build profile,
//! and any breach panics with a structured [`Violation`] carrying the
//! round and node where it happened:
//!
//! - every advertised [`Tag`] fits the model's `b` bits,
//! - every exchanged payload stays within the budget of
//!   [`MAX_PAYLOAD_UIDS`] UIDs plus [`MAX_PAYLOAD_BITS`] extra bits,
//! - a node only proposes to neighbors it actually saw in its scan,
//! - under [`ConnectionPolicy::SingleUniform`] the accepted proposals
//!   form a matching: no node participates in two connections per round
//!   (on the event backend: a response only reaches a node waiting on its
//!   one outstanding proposal),
//! - proposals are conserved: every proposal ends as a connection, a
//!   rejection or a drop (the lockstep engine checks this after every
//!   round, the event backend up to the proposals still in flight).
//!
//! The module also hosts [`determinism_self_check`], the executable form
//! of the repo's determinism contract: run the same `(seed, config)`
//! twice and demand identical [`Metrics`] after every round.
//!
//! [`ConnectionPolicy::SingleUniform`]: crate::model::ConnectionPolicy::SingleUniform
//! [`MAX_PAYLOAD_UIDS`]: crate::model::MAX_PAYLOAD_UIDS
//! [`MAX_PAYLOAD_BITS`]: crate::model::MAX_PAYLOAD_BITS

use std::fmt;

use mtm_graph::{DynamicTopology, NodeId};

use crate::engine::Engine;
use crate::metrics::Metrics;
use crate::model::{Tag, MAX_PAYLOAD_BITS, MAX_PAYLOAD_UIDS};
use crate::protocol::{PayloadCost, Protocol};

/// A breach of the mobile telephone model contract, with enough context
/// (round, node, offending values) to replay the failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A node advertised a tag wider than the model's `b` bits.
    TagBudget { round: u64, node: usize, tag: Tag, tag_bits: u32 },
    /// A payload exceeded the per-connection budget.
    PayloadBudget { round: u64, node: usize, uid_count: u32, extra_bits: u32 },
    /// A node proposed to a neighbor that was not in its scan result
    /// (inactive, or not adjacent this round).
    ProposalNotVisible { round: u64, node: usize, target: NodeId },
    /// Under the single-accept policy a node ended up in two accepted
    /// connections in one round — the accepted set must be a matching.
    NotAMatching { round: u64, node: NodeId },
    /// `proposals − connections − rejected − dropped` left the range
    /// `[0, in_flight_bound]`: a proposal was lost or counted twice.
    Conservation {
        round: u64,
        proposals: u64,
        connections: u64,
        rejected: u64,
        dropped: u64,
        in_flight_bound: u64,
    },
    /// An event-backend node received a proposal response while not
    /// waiting on a proposal of its own: it would be in two connections.
    UnsolicitedResponse { round: u64, node: usize },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            // Wording kept compatible with the engine's historical assert
            // (tests match on "exceeding b").
            Violation::TagBudget { round, node, tag, tag_bits } => write!(
                f,
                "round {round}: node {node} advertised tag {tag:?} exceeding b = {tag_bits} bits"
            ),
            Violation::PayloadBudget { round, node, uid_count, extra_bits } => write!(
                f,
                "round {round}: node {node} payload exceeds model budget: \
                 {uid_count} UIDs (max {MAX_PAYLOAD_UIDS}), \
                 {extra_bits} extra bits (max {MAX_PAYLOAD_BITS})"
            ),
            Violation::ProposalNotVisible { round, node, target } => {
                write!(f, "round {round}: node {node} proposed to {target}, not a visible neighbor")
            }
            Violation::NotAMatching { round, node } => write!(
                f,
                "round {round}: node {node} participates in two accepted connections \
                 (SingleUniform must form a matching)"
            ),
            Violation::Conservation {
                round,
                proposals,
                connections,
                rejected,
                dropped,
                in_flight_bound,
            } => write!(
                f,
                "round {round}: proposal conservation broken: {proposals} proposals vs \
                 {connections} connections + {rejected} rejected + {dropped} dropped \
                 (at most {in_flight_bound} may be in flight)"
            ),
            Violation::UnsolicitedResponse { round, node } => write!(
                f,
                "round {round}: node {node} received a response with no proposal outstanding \
                 (one connection per node)"
            ),
        }
    }
}

/// Per-round conformance checker, owned by each engine; all scratch space
/// is reused so steady-state auditing allocates nothing.
#[derive(Debug, Default)]
pub struct Auditor {
    /// The matching audit's mark set, one bit per node id seen so far: all
    /// clear between [`Auditor::check_matching`] calls.
    marks: Vec<u64>,
    rounds_audited: u64,
}

impl Auditor {
    /// Rounds fully audited so far.
    pub fn rounds_audited(&self) -> u64 {
        self.rounds_audited
    }

    /// Check an advertised tag against the model's `b` bits.
    #[inline]
    pub fn check_tag(&self, round: u64, node: usize, tag: Tag, tag_bits: u32) {
        if !tag.fits(tag_bits) {
            fail(Violation::TagBudget { round, node, tag, tag_bits });
        }
    }

    /// Check `node`'s payload against the per-connection budget.
    #[inline]
    pub fn check_payload(&self, round: u64, node: usize, payload: &impl PayloadCost) {
        let (uid_count, extra_bits) = (payload.uid_count(), payload.extra_bits());
        if uid_count > MAX_PAYLOAD_UIDS || extra_bits > MAX_PAYLOAD_BITS {
            fail(Violation::PayloadBudget { round, node, uid_count, extra_bits });
        }
    }

    /// Check that a proposal targets a node present in the proposer's scan.
    /// `visible` is the scan's (sorted) neighbor list.
    #[inline]
    pub fn check_proposal(&self, round: u64, node: usize, target: NodeId, visible: &[NodeId]) {
        if visible.binary_search(&target).is_err() {
            fail(Violation::ProposalNotVisible { round, node, target });
        }
    }

    /// Check proposal conservation on counters `m`: the proposals not yet
    /// resolved as a connection, rejection or drop must number between 0
    /// and `in_flight_bound` (0 where every round resolves all of them).
    #[inline]
    pub fn check_conservation(&self, round: u64, m: &Metrics, in_flight_bound: u64) {
        let resolved = m.connections + m.rejected_proposals + m.dropped_proposals;
        if m.proposals < resolved || m.proposals - resolved > in_flight_bound {
            fail(Violation::Conservation {
                round,
                proposals: m.proposals,
                connections: m.connections,
                rejected: m.rejected_proposals,
                dropped: m.dropped_proposals,
                in_flight_bound,
            });
        }
    }

    /// Check that a node receiving a proposal response was `awaiting` one:
    /// a node is in at most one connection at a time.
    #[inline]
    pub fn check_response(&self, round: u64, node: usize, awaiting: bool) {
        if !awaiting {
            fail(Violation::UnsolicitedResponse { round, node });
        }
    }

    /// Check that the accepted `(proposer, receiver)` pairs form a matching
    /// (each node in at most one accepted connection), then count the round
    /// as audited.
    ///
    /// One pass marks the proposer, then the receiver, of each pair in the
    /// mark set; a second pass over the same pairs clears them. O(pairs)
    /// time and one bit per node. On the first endpoint that is already
    /// marked it fails with [`Violation::NotAMatching`] naming that node:
    /// the first node, in pair order, that an earlier endpoint already
    /// used (for a self pair `(u, u)`, `u`).
    pub fn check_matching<'a, I>(&mut self, round: u64, accepted: I)
    where
        I: IntoIterator<Item = &'a (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        let pairs = accepted.into_iter();
        for &(u, v) in pairs.clone() {
            for node in [u, v] {
                let (word, bit) = mark_position(node);
                if word >= self.marks.len() {
                    self.marks.resize(word + 1, 0);
                }
                if self.marks[word] & bit != 0 {
                    // Leave the set clear for a caller that survives this.
                    self.marks.fill(0);
                    fail(Violation::NotAMatching { round, node });
                }
                self.marks[word] |= bit;
            }
        }
        for &(u, v) in pairs {
            for node in [u, v] {
                let (word, bit) = mark_position(node);
                self.marks[word] &= !bit;
            }
        }
        self.rounds_audited += 1;
    }
}

/// A node's word index and bit mask in the matching audit's mark set.
#[inline]
fn mark_position(node: NodeId) -> (usize, u64) {
    ((node >> 6) as usize, 1 << (node & 63))
}

fn fail(v: Violation) -> ! {
    panic!("model conformance violation: {v}")
}

/// Run the same construction twice for `rounds` rounds and demand that
/// both executions produce identical [`Metrics`] after every round and
/// (when the protocol supports fingerprinting) identical final network
/// state digests — the executable form of the determinism contract (an
/// execution is a pure function of `(seed, config)`).
///
/// Returns the (common) metrics on success, and a description of the
/// first divergence on failure. `build` must construct a fresh engine
/// from the same inputs on every call.
pub fn determinism_self_check<P, T, F>(mut build: F, rounds: u64) -> Result<Metrics, String>
where
    P: Protocol,
    T: DynamicTopology,
    F: FnMut() -> Engine<P, T>,
{
    let (mut a, mut b) = (build(), build());
    for round in 1..=rounds {
        a.step();
        b.step();
        let (m1, m2) = (a.metrics(), b.metrics());
        if m1 != m2 {
            return Err(format!("round {round} metrics diverged: {m1:?} vs {m2:?}"));
        }
    }
    let (f1, f2) = (a.network_fingerprint(), b.network_fingerprint());
    if f1 != f2 {
        return Err(format!("final network state fingerprints diverged: {f1:?} vs {f2:?}"));
    }
    Ok(a.metrics())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_within_budget_passes() {
        let a = Auditor::default();
        a.check_tag(1, 0, Tag(3), 2);
        a.check_tag(1, 0, Tag::EMPTY, 0);
    }

    #[test]
    #[should_panic(expected = "exceeding b")]
    fn oversized_tag_caught() {
        Auditor::default().check_tag(7, 3, Tag(4), 2);
    }

    /// A payload of `.0` UIDs and `.1` extra bits.
    struct Cost(u32, u32);

    impl PayloadCost for Cost {
        fn uid_count(&self) -> u32 {
            self.0
        }
        fn extra_bits(&self) -> u32 {
            self.1
        }
    }

    #[test]
    fn payload_within_budget_passes() {
        Auditor::default().check_payload(2, 5, &Cost(MAX_PAYLOAD_UIDS, MAX_PAYLOAD_BITS));
    }

    #[test]
    #[should_panic(expected = "node 5 payload exceeds model budget: 3 UIDs (max 2), \
                               0 extra bits (max 256)")]
    fn over_budget_payload_caught() {
        Auditor::default().check_payload(2, 5, &Cost(3, 0));
    }

    #[test]
    #[should_panic(expected = "payload exceeds model budget: 1 UIDs (max 2), \
                               300 extra bits (max 256)")]
    fn over_budget_extra_bits_caught() {
        Auditor::default().check_payload(2, 5, &Cost(1, 300));
    }

    #[test]
    #[should_panic(expected = "not a visible neighbor")]
    fn invisible_proposal_caught() {
        Auditor::default().check_proposal(4, 1, 9, &[2, 3, 5]);
    }

    #[test]
    fn matching_accepts_disjoint_pairs() {
        let mut a = Auditor::default();
        a.check_matching(1, &[(0, 1), (2, 3), (4, 5)]);
        a.check_matching(2, &[]);
        assert_eq!(a.rounds_audited(), 2);
    }

    #[test]
    #[should_panic(expected = "two accepted connections")]
    fn double_acceptance_caught() {
        Auditor::default().check_matching(3, &[(0, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "node 2 received a response with no proposal outstanding")]
    fn unsolicited_response_caught() {
        let a = Auditor::default();
        a.check_response(3, 2, true);
        a.check_response(3, 2, false);
    }

    fn counts(proposals: u64, connections: u64, rejected: u64, dropped: u64) -> Metrics {
        Metrics {
            rounds: 1,
            proposals,
            connections,
            rejected_proposals: rejected,
            dropped_proposals: dropped,
        }
    }

    #[test]
    fn balanced_proposals_pass() {
        let a = Auditor::default();
        a.check_conservation(1, &counts(10, 4, 5, 1), 0);
        a.check_conservation(1, &Metrics::default(), 0);
        // Up to the bound may still be in flight.
        a.check_conservation(1, &counts(10, 4, 3, 1), 2);
    }

    #[test]
    #[should_panic(expected = "proposal conservation broken")]
    fn lost_proposal_caught() {
        Auditor::default().check_conservation(5, &counts(10, 4, 4, 1), 0);
    }

    #[test]
    #[should_panic(expected = "proposal conservation broken")]
    fn double_counted_proposal_caught() {
        Auditor::default().check_conservation(5, &counts(10, 4, 6, 1), 3);
    }

    #[test]
    #[should_panic(expected = "at most 2 may be in flight")]
    fn in_flight_bound_enforced() {
        Auditor::default().check_conservation(5, &counts(10, 4, 2, 1), 2);
    }

    #[test]
    fn violation_display_carries_context() {
        let v = Violation::TagBudget { round: 12, node: 4, tag: Tag(8), tag_bits: 3 };
        let s = v.to_string();
        assert!(s.contains("round 12") && s.contains("node 4") && s.contains("b = 3"));
    }
}
