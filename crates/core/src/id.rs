//! UIDs and ID pairs.
//!
//! The leader election problem (Section IV) gives every node a unique id
//! treated as an opaque comparable value. The bit-convergence algorithms
//! additionally pair each UID with a random *ID tag* of `k = ⌈β·log₂ N⌉`
//! bits (Section VII); pairs are ordered by tag first, breaking ties on the
//! UID, and the eventual leader is the node holding the globally smallest
//! pair.

use mtm_engine::PayloadCost;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A `(UID, ID tag)` pair, ordered by `(tag, uid)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdPair {
    /// The random `k`-bit ID tag (compared first).
    pub tag: u64,
    /// The node's UID (tie-breaker).
    pub uid: u64,
}

impl IdPair {
    /// Bit `i` of the tag, **most significant first** and 0-based: position
    /// 0 is the top bit of the `k`-bit tag. This matches the paper's
    /// convention `t[1] … t[k]` from most to least significant.
    #[inline]
    pub fn tag_bit(&self, i: u32, k: u32) -> u32 {
        debug_assert!(i < k);
        ((self.tag >> (k - 1 - i)) & 1) as u32
    }
}

impl PayloadCost for IdPair {
    fn uid_count(&self) -> u32 {
        1
    }
    fn extra_bits(&self) -> u32 {
        64 // the k-bit tag (k ≤ 63 enforced by TagConfig) — O(polylog N)
    }
}

/// Deterministic pool of distinct UIDs for a trial.
///
/// UIDs are random 64-bit values (shuffled, then deduplicated against each
/// other), so the minimum UID lands on a uniformly random node — no
/// accidental correlation between node index, topology position, and
/// leadership.
#[derive(Clone, Debug)]
pub struct UidPool {
    uids: Vec<u64>,
}

impl UidPool {
    /// `n` distinct random UIDs derived from `seed`: the first `n` distinct
    /// values of one `SmallRng` stream, in draw order.
    pub fn random(n: usize, seed: u64) -> UidPool {
        // spawn-time uid sampling from an explicit seed.
        #[allow(clippy::disallowed_methods)]
        let mut rng = SmallRng::seed_from_u64(seed);
        UidPool { uids: first_distinct(n, std::iter::repeat_with(move || rng.gen())) }
    }

    /// Sequential UIDs `0..n` (useful in tests where the winner must be a
    /// known node).
    pub fn sequential(n: usize) -> UidPool {
        UidPool { uids: (0..n as u64).collect() }
    }

    /// UID of node `u`.
    #[inline]
    pub fn uid(&self, u: usize) -> u64 {
        self.uids[u]
    }

    /// All UIDs in node order.
    pub fn as_slice(&self) -> &[u64] {
        &self.uids
    }

    /// The smallest UID in the pool (blind gossip's eventual winner).
    pub fn min_uid(&self) -> u64 {
        *self.uids.iter().min().expect("empty pool")
    }

    /// Node index holding the smallest UID.
    pub fn min_uid_node(&self) -> usize {
        self.uids.iter().enumerate().min_by_key(|(_, &u)| u).map(|(i, _)| i).expect("empty pool")
    }

    /// Number of UIDs.
    pub fn len(&self) -> usize {
        self.uids.len()
    }

    /// True iff the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.uids.is_empty()
    }
}

/// The first `n` distinct values of `draws`, in draw order.
///
/// Among `n` random 64-bit draws a repeat is rare (probability about
/// `n²/2^65`), so the first `n` draws are taken and checked on a sorted copy,
/// which holds 8 bytes per value only while the check runs. Only when a
/// repeat exists does the stream restart and de-duplicate through a set,
/// which yields the same values as that set loop would have on its own.
fn first_distinct(n: usize, draws: impl Iterator<Item = u64> + Clone) -> Vec<u64> {
    let first: Vec<u64> = draws.clone().take(n).collect();
    let mut sorted = first.clone();
    sorted.sort_unstable();
    if sorted.windows(2).all(|w| w[0] != w[1]) {
        return first;
    }
    let mut seen = std::collections::BTreeSet::new();
    draws.filter(|&u| seen.insert(u)).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set loop `UidPool::random` used before the sorted-copy check:
    /// the reference every path of [`first_distinct`] must reproduce.
    fn set_loop(n: usize, mut draws: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut set = std::collections::BTreeSet::new();
        let mut uids = Vec::with_capacity(n);
        while uids.len() < n {
            let u = draws.next().expect("the stream holds n distinct values");
            if set.insert(u) {
                uids.push(u);
            }
        }
        uids
    }

    /// Each stream is cut at every `n` up to 4, so both paths run: a repeat
    /// among the first `n` draws takes the fallback, one past them does not.
    #[test]
    fn first_distinct_falls_back_on_planted_duplicates() {
        let streams: [&[u64]; 5] = [
            &[5, 5, 3, 9, 1, 7],                 // adjacent repeat
            &[8, 2, 6, 4, 0, 8, 1, 3, 9],        // repeat far apart
            &[4, 1, 4, 7, 4, 2, 6, 5],           // one value drawn three times
            &[3, 3, 3, 3, 2, 1, 0],              // a run of repeats
            &[u64::MAX, 0, u64::MAX, 0, 11, 12], // extremes repeated
        ];
        for stream in streams {
            for n in 0..=4 {
                let draws = stream.iter().copied();
                let got = first_distinct(n, draws.clone());
                assert_eq!(got, set_loop(n, draws), "stream {stream:?}, n = {n}");
                let mut sorted = got.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), n, "stream {stream:?}, n = {n}: values repeat");
            }
        }
    }

    #[test]
    fn uid_pool_random_matches_the_set_loop() {
        for n in [0, 1, 2, 1000, 65536] {
            for seed in [0, 1, 7, 0x11D, u64::MAX] {
                // the reference draws UidPool::random's own stream.
                #[allow(clippy::disallowed_methods)]
                let mut rng = SmallRng::seed_from_u64(seed);
                let reference = set_loop(n, std::iter::repeat_with(move || rng.gen()));
                assert_eq!(
                    UidPool::random(n, seed).as_slice(),
                    reference,
                    "n = {n}, seed = {seed}"
                );
            }
        }
    }

    #[test]
    fn id_pair_orders_by_tag_then_uid() {
        let a = IdPair { tag: 1, uid: 99 };
        let b = IdPair { tag: 2, uid: 1 };
        let c = IdPair { tag: 1, uid: 100 };
        assert!(a < b, "smaller tag wins regardless of uid");
        assert!(a < c, "uid breaks tag ties");
        assert_eq!(a.min(b).min(c), a);
    }

    #[test]
    fn tag_bit_msb_first() {
        // k = 4, tag = 0b1010.
        let p = IdPair { tag: 0b1010, uid: 0 };
        assert_eq!(p.tag_bit(0, 4), 1);
        assert_eq!(p.tag_bit(1, 4), 0);
        assert_eq!(p.tag_bit(2, 4), 1);
        assert_eq!(p.tag_bit(3, 4), 0);
    }

    #[test]
    fn uid_pool_distinct_and_deterministic() {
        let a = UidPool::random(100, 5);
        let b = UidPool::random(100, 5);
        assert_eq!(a.as_slice(), b.as_slice());
        let mut sorted = a.as_slice().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn uid_pool_min_tracking() {
        let p = UidPool::sequential(10);
        assert_eq!(p.min_uid(), 0);
        assert_eq!(p.min_uid_node(), 0);
        let r = UidPool::random(50, 9);
        let node = r.min_uid_node();
        assert_eq!(r.uid(node), r.min_uid());
    }

    #[test]
    fn different_seeds_differ() {
        let a = UidPool::random(10, 1);
        let b = UidPool::random(10, 2);
        assert_ne!(a.as_slice(), b.as_slice());
    }
}
