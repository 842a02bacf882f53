//! The [`Protocol`] trait: what a distributed algorithm looks like to the
//! round executor.
//!
//! One `Protocol` value is the local state of one node. The engine drives
//! all nodes through the per-round phases described in the crate docs; all
//! randomness flows through the per-node RNG the engine passes in, which
//! keeps trials deterministic and lets the analysis-style independence
//! arguments (every node flips its own coins) hold by construction.

use mtm_graph::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::model::Tag;

/// What a node sees after scanning in a round: its *active* neighbors and
/// their advertised tags, plus round counters.
pub struct Scan<'a> {
    /// Active neighbors in this round's topology, ascending id order.
    /// Inactive (not-yet-activated) nodes are invisible, matching §VIII's
    /// activation semantics.
    pub neighbors: &'a [NodeId],
    /// `tags[i]` is the tag advertised by `neighbors[i]` this round. Empty
    /// slice when the model has `b = 0`.
    pub tags: &'a [Tag],
    /// Global engine round, 1-based. Only protocols that assume
    /// synchronized starts may key behaviour on this.
    pub round: u64,
    /// Rounds since this node activated, 1-based: the only counter
    /// available to asynchronous-activation protocols (§VIII).
    pub local_round: u64,
}

impl<'a> Scan<'a> {
    /// Tag of the `i`-th visible neighbor ([`Tag::EMPTY`] when `b = 0`).
    #[inline]
    pub fn tag_of(&self, i: usize) -> Tag {
        if self.tags.is_empty() {
            Tag::EMPTY
        } else {
            self.tags[i]
        }
    }

    /// Number of visible neighbors.
    #[inline]
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True iff no neighbor is visible.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

/// A node's decision after scanning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send a connection proposal to this neighbor (must be visible in the
    /// scan). The node forfeits its ability to receive this round.
    Propose(NodeId),
    /// Receive: accept an incoming proposal per the model's policy.
    Listen,
}

/// How a node's act phase (phase 3) turns its scan into an [`Action`]. The
/// act phase's random draws are written only in [`ActRule::draw`], and the
/// model checker branches on [`ActRule::actions`] of the same rule, so a
/// drawn action is always an enumerated one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActRule {
    /// Listen, whatever the scan shows.
    Listen,
    /// Blind gossip's fair coin (§VI): heads proposes to a uniformly random
    /// visible neighbor, tails listens. A node that sees no neighbor
    /// listens.
    CoinFlip,
    /// Productive push (PPUSH, §V): propose to a uniformly random visible
    /// neighbor advertising this tag, or listen when none does.
    PushTo(Tag),
}

impl ActRule {
    /// This round's action, drawn from the node's stream. `CoinFlip` draws
    /// nothing on an empty scan, else one `gen_bool(0.5)` and, on heads, one
    /// `usize` `gen_range` over the scan. `PushTo` draws one `u32`
    /// `gen_range` over the eligible neighbors (in scan order) when there
    /// are any. `Listen` draws nothing.
    #[inline(always)]
    pub fn draw(self, scan: &Scan<'_>, rng: &mut SmallRng) -> Action {
        match self {
            ActRule::Listen => Action::Listen,
            ActRule::CoinFlip => {
                if scan.is_empty() || !rng.gen_bool(0.5) {
                    return Action::Listen;
                }
                Action::Propose(scan.neighbors[rng.gen_range(0..scan.len())])
            }
            ActRule::PushTo(tag) => {
                let eligible = count_advertising(scan, tag);
                if eligible == 0 {
                    return Action::Listen;
                }
                let pick = rng.gen_range(0..eligible);
                Action::Propose(scan.neighbors[nth_advertising(scan, tag, pick)])
            }
        }
    }

    /// Every action [`ActRule::draw`] can return on this scan, in the
    /// checker's branch order: `Listen` then every neighbor for `CoinFlip`;
    /// the eligible neighbors for `PushTo`, or only `Listen` when there are
    /// none; only `Listen` for `Listen`.
    pub fn actions(self, scan: &Scan<'_>) -> Vec<Action> {
        match self {
            ActRule::Listen => vec![Action::Listen],
            ActRule::CoinFlip => std::iter::once(Action::Listen)
                .chain(scan.neighbors.iter().map(|&v| Action::Propose(v)))
                .collect(),
            ActRule::PushTo(tag) => match count_advertising(scan, tag) {
                0 => vec![Action::Listen],
                eligible => (0..eligible)
                    .map(|pick| Action::Propose(scan.neighbors[nth_advertising(scan, tag, pick)]))
                    .collect(),
            },
        }
    }
}

/// How many visible neighbors advertise `tag`: one branch-free pass over
/// the tags. With `b = 0` (no tags) every neighbor advertises
/// [`Tag::EMPTY`] and none any other tag.
#[inline]
fn count_advertising(scan: &Scan<'_>, tag: Tag) -> u32 {
    let count = if scan.tags.is_empty() {
        if tag == Tag::EMPTY {
            scan.len()
        } else {
            0
        }
    } else {
        scan.tags.iter().map(|&t| usize::from(t == tag)).sum()
    };
    u32::try_from(count).expect("scan size fits u32")
}

/// Scan index of the `pick`-th (0-based) neighbor advertising `tag`, for
/// `pick` below [`count_advertising`]: one branch-free pass counting the
/// positions at which no more than `pick` eligible tags have been seen.
#[inline]
fn nth_advertising(scan: &Scan<'_>, tag: Tag, pick: u32) -> usize {
    if scan.tags.is_empty() {
        return pick as usize;
    }
    let (mut seen, mut index) = (0u32, 0usize);
    for &t in scan.tags {
        seen += u32::from(t == tag);
        index += usize::from(seen <= pick);
    }
    index
}

/// Budget accounting for connection payloads. The engine debug-asserts each
/// exchanged payload against [`crate::model::ModelParams`]'s budget,
/// enforcing the problem statement's "O(1) UIDs and O(polylog N) additional
/// bits per connection".
pub trait PayloadCost {
    /// Number of UIDs this payload carries.
    fn uid_count(&self) -> u32;
    /// Non-UID payload bits.
    fn extra_bits(&self) -> u32;
}

/// The local algorithm run by each node.
pub trait Protocol: Send {
    /// Data exchanged over one connection (both directions symmetrically).
    type Payload: Clone + PayloadCost;

    /// Phase 1: choose this round's advertising tag. Must fit the model's
    /// `b` bits (engine-enforced). `local_round` is 1-based.
    fn advertise(&mut self, local_round: u64, rng: &mut SmallRng) -> Tag;

    /// Phase 3's rule: how this node turns this round's scan into an
    /// action. Read after `advertise`, so it may depend on what the node
    /// advertised. Default: listen.
    fn act_rule(&self) -> ActRule {
        ActRule::Listen
    }

    /// Phase 3: act on the scan — propose to one visible neighbor or
    /// listen. Draws the action by [`Protocol::act_rule`], then records it
    /// with [`Protocol::apply_action`].
    ///
    /// It runs once per active node per round, so it and [`ActRule::draw`]
    /// are always inlined: a rule chosen at run time from all three
    /// variants (`Rumor`'s strategy) otherwise leaves both out of line, and
    /// the call costs `mtm spread push-pull star 2048` about a fifth of
    /// its time.
    #[inline(always)]
    fn act(&mut self, scan: &Scan<'_>, rng: &mut SmallRng) -> Action {
        let action = self.act_rule().draw(scan, rng);
        self.apply_action(scan, action);
        action
    }

    /// Phase 4a: produce the payload to send if a connection forms this
    /// round. Called at most once per round, before any `on_connect`.
    fn payload(&self) -> Self::Payload;

    /// Phase 4b: receive the peer's payload over an established connection.
    /// Under the classical policy a node may receive several of these in
    /// one round.
    fn on_connect(&mut self, peer: &Self::Payload, rng: &mut SmallRng);

    /// Phase 5: end-of-round bookkeeping (e.g. bit-convergence nodes adopt
    /// pending ID pairs at phase boundaries). Default: nothing.
    fn end_round(&mut self, _local_round: u64, _rng: &mut SmallRng) {}

    // ─── Model-checking interface (consumed by `mtm-check`) ──────────────
    //
    // The checker (crates/check) explores the protocol × topology product
    // automaton exhaustively: instead of letting `advertise`/`act` draw
    // from the per-node RNG, it enumerates every alternative the protocol
    // could randomize over and branches on each. The act phase keeps no
    // promise by hand: `act` and `enumerate_actions` both derive from
    // `act_rule`, and `act` runs `apply_action` after its draw, so a drawn
    // action is an enumerated one and replaying it reaches the same state.
    // A protocol opts in by pushing `state_words`; the promises it then
    // keeps by hand are listed there.

    /// Every alternative the advertise phase (phase 1) can randomize over
    /// this round. Most protocols advertise deterministically and return
    /// the single choice `[0]` (the default); `NonSyncBitConvergence`
    /// returns one entry per tag-bit position at local group starts.
    /// Protocols whose `advertise` draws randomness MUST override both
    /// this and [`Protocol::apply_choice`].
    fn enumerate_choices(&self, _local_round: u64) -> Vec<u32> {
        vec![0]
    }

    /// Deterministic advertise: apply `choice` (an element of
    /// [`Protocol::enumerate_choices`]) and return the advertised tag,
    /// performing exactly the state updates `advertise` would. The default
    /// forwards to `advertise` with a throwaway RNG and is only correct
    /// for protocols whose advertise phase draws no randomness.
    fn apply_choice(&mut self, local_round: u64, _choice: u32) -> Tag {
        let mut rng = SmallRng::seed_from_u64(0);
        self.advertise(local_round, &mut rng)
    }

    /// Every action the act phase (phase 3) can take on this scan:
    /// [`ActRule::actions`] of [`Protocol::act_rule`].
    fn enumerate_actions(&self, scan: &Scan<'_>) -> Vec<Action> {
        self.act_rule().actions(scan)
    }

    /// Record that this node takes `action` this round: the act phase's
    /// side effects, run by `act` after its draw and by the checker on an
    /// element of [`Protocol::enumerate_actions`]. Only `MaintainedGossip`
    /// has any: it latches whether it saw neighbors. Default: no side
    /// effects.
    fn apply_action(&mut self, _scan: &Scan<'_>, _action: Action) {}

    /// Push this node's *exact* durable state onto `out`, as words. The
    /// checker keys its visited-state set on these words, so they must
    /// determine all future behaviour together with the round counter
    /// modulo the protocol's period: include every durable counter (e.g.
    /// maintenance age/grace, the non-synchronized protocol's bit
    /// position) and exclude per-round scratch rewritten before use.
    ///
    /// Pushing words (always, or never) opts the protocol into the model
    /// checker, which relies on two promises kept by hand: `on_connect`
    /// and `end_round` read no RNG (the checker has no branch for their
    /// draws), and an `advertise` that draws also overrides
    /// `enumerate_choices` and `apply_choice`. Default: pushes nothing.
    fn state_words(&self, _out: &mut Vec<u64>) {}

    /// Push the words whose change counts as progress onto `out`: what the
    /// stuck-run and wedge detectors digest
    /// ([`crate::fingerprint::of_node`]). Default: every
    /// [`Protocol::state_words`] word. Override to leave out a durable word
    /// that keeps changing at a fixed point (e.g. the bit position a node
    /// advertises this group), which would make a deadlocked network look
    /// busy, or to support stuck detection outside the checker. Push words
    /// always or never. A protocol that pushes `state_words` must push
    /// progress words that its `state_words` fully determine: the checker's
    /// replay compares only state words.
    fn progress_words(&self, out: &mut Vec<u64>) {
        self.state_words(out);
    }
}

/// Read access to a leader-election protocol's current `leader` variable.
///
/// The leader election problem (Section IV): every node maintains `leader`
/// (initially its own UID); the system is *stabilized* once every node's
/// `leader` holds the same UID forever after.
pub trait LeaderView {
    /// The UID currently stored in this node's `leader` variable.
    fn leader(&self) -> u64;

    /// This node's own UID.
    fn uid(&self) -> u64;
}

/// Read access to an epoch-numbered leadership-maintenance protocol's term
/// counter (service mode — see [`crate::service`]).
///
/// Terms are totally ordered: state tagged with a higher epoch always
/// supersedes state from a lower epoch, and within one epoch the ordinary
/// min-UID election rule applies. A protocol starts every node in epoch 0
/// and bumps the epoch exactly when its failure detector declares the
/// current leader dead.
pub trait EpochView {
    /// The leadership term this node currently participates in.
    fn epoch(&self) -> u64;
}

/// Read access to a rumor-spreading protocol's informed flag.
pub trait RumorView {
    /// True iff this node knows the rumor.
    fn informed(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_tag_of_handles_b0() {
        let neighbors = [1u32, 2, 3];
        let scan = Scan { neighbors: &neighbors, tags: &[], round: 1, local_round: 1 };
        assert_eq!(scan.tag_of(0), Tag::EMPTY);
        assert_eq!(scan.tag_of(2), Tag::EMPTY);
        assert_eq!(scan.len(), 3);
        assert!(!scan.is_empty());
    }

    #[test]
    fn scan_tag_of_indexes_parallel_slice() {
        let neighbors = [5u32, 9];
        let tags = [Tag(1), Tag(0)];
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 3, local_round: 2 };
        assert_eq!(scan.tag_of(0), Tag(1));
        assert_eq!(scan.tag_of(1), Tag(0));
    }
}
