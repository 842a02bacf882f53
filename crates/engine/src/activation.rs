//! Activation schedules for the asynchronous-activation setting (§VIII).
//!
//! Each node has an activation round; before it, the node does not
//! advertise, does not appear in scans, cannot be proposed to, and executes
//! no protocol phases. Its local round counter starts at 1 on activation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// When each node activates (1-based engine rounds).
///
/// A synchronized schedule stores no per-node vector: every node activates
/// in round 1, so a node's local round is the engine round. Every schedule
/// keeps its last activation round, which the stuck detector and the
/// service loop read every round. Two schedules are equal iff they cover
/// the same nodes with the same activation rounds, whichever form stores
/// them.
#[derive(Clone, Debug)]
pub struct ActivationSchedule {
    n: usize,
    /// Per-node activation rounds; empty for [`ActivationSchedule::synchronized`].
    rounds: Vec<u64>,
    /// The largest activation round (1 when every node starts together).
    last: u64,
}

impl ActivationSchedule {
    /// All `n` nodes activate in round 1 (the synchronized-start setting of
    /// §VI and §VII).
    pub fn synchronized(n: usize) -> Self {
        ActivationSchedule { n, rounds: Vec::new(), last: 1 }
    }

    /// Explicit per-node activation rounds (all must be ≥ 1).
    pub fn explicit(rounds: Vec<u64>) -> Self {
        assert!(rounds.iter().all(|&r| r >= 1), "activation rounds are 1-based");
        assert!(!rounds.is_empty(), "empty schedule");
        Self::from_rounds(rounds)
    }

    /// Each node activates uniformly at random in `1..=window`, except node
    /// 0 which activates in round 1 (so the network is never empty).
    pub fn staggered_uniform(n: usize, window: u64, seed: u64) -> Self {
        assert!(window >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rounds: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=window)).collect();
        if let Some(first) = rounds.first_mut() {
            *first = 1;
        }
        Self::from_rounds(rounds)
    }

    /// Two waves: nodes `0..split` activate in round 1, the rest in round
    /// `second_wave`. Models late-joining groups (self-stabilization).
    pub fn two_wave(n: usize, split: usize, second_wave: u64) -> Self {
        assert!(split <= n && second_wave >= 1);
        let rounds = (0..n).map(|u| if u < split { 1 } else { second_wave }).collect();
        Self::from_rounds(rounds)
    }

    fn from_rounds(rounds: Vec<u64>) -> Self {
        let last = rounds.iter().copied().max().unwrap_or(1);
        ActivationSchedule { n: rounds.len(), rounds, last }
    }

    /// Number of nodes in the schedule.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the schedule covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Activation round of node `u`.
    #[inline]
    pub fn activation_round(&self, u: usize) -> u64 {
        assert!(u < self.n, "node {u} outside a schedule of {} nodes", self.n);
        self.rounds.get(u).copied().unwrap_or(1)
    }

    /// True iff node `u` is active in engine round `round`.
    #[inline]
    pub fn is_active(&self, u: usize, round: u64) -> bool {
        round >= self.activation_round(u)
    }

    /// Node `u`'s 1-based local round counter during engine round `round`
    /// (only valid when active).
    #[inline]
    pub fn local_round(&self, u: usize, round: u64) -> u64 {
        debug_assert!(self.is_active(u, round));
        if self.rounds.is_empty() {
            round
        } else {
            round - self.rounds[u] + 1
        }
    }

    /// The round by which every node has activated.
    #[inline]
    pub fn last_activation(&self) -> u64 {
        self.last
    }
}

impl PartialEq for ActivationSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && (0..self.n).all(|u| self.activation_round(u) == other.activation_round(u))
    }
}

impl Eq for ActivationSchedule {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronized_all_round_one() {
        let s = ActivationSchedule::synchronized(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.last_activation(), 1);
        for u in 0..4 {
            assert!(s.is_active(u, 1));
            assert_eq!(s.local_round(u, 5), 5);
        }
    }

    #[test]
    fn synchronized_equals_its_explicit_form() {
        let s = ActivationSchedule::synchronized(5);
        let e = ActivationSchedule::explicit(vec![1; 5]);
        assert_eq!(s, e);
        assert_eq!(e, s);
        for u in 0..5 {
            assert_eq!(s.activation_round(u), e.activation_round(u));
            for round in 1..4 {
                assert_eq!(s.is_active(u, round), e.is_active(u, round));
                assert_eq!(s.local_round(u, round), e.local_round(u, round));
            }
        }
        assert_ne!(s, ActivationSchedule::synchronized(4));
        assert_ne!(s, ActivationSchedule::explicit(vec![1, 1, 1, 1, 2]));
        assert_eq!(ActivationSchedule::two_wave(3, 3, 9), ActivationSchedule::synchronized(3));
        assert_eq!(ActivationSchedule::synchronized(0), ActivationSchedule::synchronized(0));
        assert!(ActivationSchedule::synchronized(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside a schedule")]
    fn synchronized_rejects_nodes_past_its_end() {
        ActivationSchedule::synchronized(3).activation_round(3);
    }

    #[test]
    fn staggered_within_window_and_node0_first() {
        let s = ActivationSchedule::staggered_uniform(50, 20, 7);
        assert_eq!(s.activation_round(0), 1);
        for u in 0..50 {
            let r = s.activation_round(u);
            assert!((1..=20).contains(&r));
        }
        assert!(s.last_activation() <= 20);
    }

    #[test]
    fn staggered_is_deterministic() {
        let a = ActivationSchedule::staggered_uniform(10, 5, 3);
        let b = ActivationSchedule::staggered_uniform(10, 5, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn two_wave_split() {
        let s = ActivationSchedule::two_wave(6, 2, 10);
        assert!(s.is_active(0, 1));
        assert!(s.is_active(1, 1));
        assert!(!s.is_active(2, 9));
        assert!(s.is_active(2, 10));
        assert_eq!(s.last_activation(), 10);
        assert_eq!(s.local_round(3, 12), 3);
    }

    #[test]
    fn local_round_counts_from_activation() {
        let s = ActivationSchedule::explicit(vec![1, 4]);
        assert_eq!(s.local_round(0, 4), 4);
        assert_eq!(s.local_round(1, 4), 1);
        assert_eq!(s.local_round(1, 6), 3);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn explicit_rejects_round_zero() {
        ActivationSchedule::explicit(vec![0, 1]);
    }
}
