//! Shared configuration for the bit-convergence algorithms.

/// Parameters every bit-convergence node needs: the tag width `k`, the
/// group length `2·⌈log₂ Δ⌉`, and derived quantities.
///
/// Per the problem statement (Section IV) nodes know a polynomial upper
/// bound `N` on the network size; per the algorithm (Section VII) they use
/// groups of `2·log Δ` rounds, so they are also given the maximum degree
/// `Δ` (the paper assumes `Δ` is known, taking it to be a power of two for
/// analysis convenience — we use `⌈log₂ Δ⌉`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagConfig {
    /// Number of bits in an ID tag: `k = ⌈β·log₂ N⌉`, clamped to `[1, 63]`.
    pub k: u32,
    /// Rounds per group: `2·⌈log₂ Δ⌉`, at least 2.
    pub group_len: u64,
}

impl TagConfig {
    /// Build from the network-size bound `N`, the tag-length multiplier
    /// `β ≥ 1`, and the maximum degree `Δ`.
    pub fn new(n_bound: usize, beta: f64, max_degree: usize) -> TagConfig {
        assert!(n_bound >= 2, "N must be ≥ 2");
        assert!(beta >= 1.0, "β must be ≥ 1 for w.h.p. tag uniqueness");
        // intended float->int conversion, clamped to [1, 63] right here.
        #[allow(clippy::cast_possible_truncation)]
        let k = ((beta * (n_bound as f64).log2()).ceil() as u32).clamp(1, 63);
        let log_delta = ceil_log2(max_degree.max(2));
        TagConfig { k, group_len: (2 * log_delta as u64).max(2) }
    }

    /// Default configuration for a concrete network: `N = n`, `β = 3`.
    pub fn for_network(n: usize, max_degree: usize) -> TagConfig {
        TagConfig::new(n, 3.0, max_degree)
    }

    /// Rounds per phase: `k` groups (synchronized algorithm, §VII).
    pub fn phase_len(&self) -> u64 {
        self.k as u64 * self.group_len
    }

    /// Group index (0-based bit position) within the phase for a 1-based
    /// round counter.
    pub fn group_of_round(&self, round: u64) -> u32 {
        debug_assert!(round >= 1);
        u32::try_from(((round - 1) % self.phase_len()) / self.group_len)
            .expect("group index fits u32")
    }

    /// True iff `round` (1-based) is the first round of a phase.
    pub fn is_phase_start(&self, round: u64) -> bool {
        (round - 1).is_multiple_of(self.phase_len())
    }

    /// `(is_phase_start(round), group_of_round(round))`, computed by
    /// multiplication: round `r` is in group `((r − 1) / group_len) mod k`
    /// and starts its phase iff `group_len` divides `r − 1` and that group
    /// is 0. Exact for `r − 1 < 2^32` and `k`, `group_len` in the
    /// reciprocal table, which covers every config [`TagConfig::new`]
    /// builds; anything else takes the two methods' divisions.
    #[inline]
    // g < 128 and group < k <= 127, both checked on entry.
    #[allow(clippy::cast_possible_truncation)]
    pub fn locate(&self, round: u64) -> (bool, u32) {
        debug_assert!(round >= 1);
        let r = round - 1;
        let (k, g) = (self.k as usize, self.group_len);
        if r >> 32 != 0 || !(1..128).contains(&k) || !(2..128).contains(&g) {
            return (self.is_phase_start(round), self.group_of_round(round));
        }
        let groups = fastdiv(r, RECIPROCALS[g as usize]);
        let group = fastmod(groups, RECIPROCALS[k], self.k.into());
        (r == groups * g && group == 0, group as u32)
    }

    /// True iff `round` (1-based) is the first round of a (local) group.
    pub fn is_group_start(&self, round: u64) -> bool {
        (round - 1).is_multiple_of(self.group_len)
    }

    /// Tag bits required by the non-synchronized algorithm:
    /// `⌈log₂ k⌉ + 1` (position + bit value), the paper's
    /// `b = log log n + O(1)`.
    pub fn nonsync_tag_bits(&self) -> u32 {
        ceil_log2(self.k.max(2) as usize) + 1
    }
}

/// `⌈2^64 / d⌉` for every divisor `d` in `2..128`, which covers `k ≤ 63`
/// and `group_len = 2·⌈log₂ Δ⌉ ≤ 126`. With it [`TagConfig::locate`]
/// divides and reduces 32-bit numbers by multiplication (Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation", 2019). Entry 1 is 0,
/// which makes [`fastmod`] by 1 return 0; entry 0 is unused.
const RECIPROCALS: [u64; 128] = {
    let mut table = [0; 128];
    let mut d = 2;
    while d < 128 {
        table[d] = u64::MAX / d as u64 + 1;
        d += 1;
    }
    table
};

/// `n / d` for `n, d < 2^32`, given `c = RECIPROCALS[d]`.
#[inline]
fn fastdiv(n: u64, c: u64) -> u64 {
    ((u128::from(c) * u128::from(n)) >> 64) as u64
}

/// `n mod d` for `n, d < 2^32`, given `c = RECIPROCALS[d]`.
#[inline]
fn fastmod(n: u64, c: u64, d: u64) -> u64 {
    ((u128::from(c.wrapping_mul(n)) * u128::from(d)) >> 64) as u64
}

/// `⌈log₂ x⌉` for `x ≥ 1`.
pub fn ceil_log2(x: usize) -> u32 {
    assert!(x >= 1);
    (usize::BITS - (x - 1).leading_zeros()).min(63)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn config_dimensions() {
        let c = TagConfig::new(256, 3.0, 16);
        assert_eq!(c.k, 24); // 3 · log2(256)
        assert_eq!(c.group_len, 8); // 2 · log2(16)
        assert_eq!(c.phase_len(), 192);
    }

    #[test]
    fn group_of_round_cycles() {
        let c = TagConfig { k: 3, group_len: 4 };
        assert_eq!(c.phase_len(), 12);
        assert_eq!(c.group_of_round(1), 0);
        assert_eq!(c.group_of_round(4), 0);
        assert_eq!(c.group_of_round(5), 1);
        assert_eq!(c.group_of_round(9), 2);
        assert_eq!(c.group_of_round(12), 2);
        assert_eq!(c.group_of_round(13), 0); // next phase
    }

    #[test]
    fn phase_and_group_starts() {
        let c = TagConfig { k: 2, group_len: 3 };
        assert!(c.is_phase_start(1));
        assert!(!c.is_phase_start(2));
        assert!(c.is_phase_start(7));
        assert!(c.is_group_start(1));
        assert!(c.is_group_start(4));
        assert!(!c.is_group_start(5));
    }

    #[test]
    fn k_clamped_to_63() {
        let c = TagConfig::new(usize::MAX / 2, 3.0, 4);
        assert_eq!(c.k, 63);
    }

    #[test]
    fn nonsync_tag_bits_is_loglog() {
        let c = TagConfig::new(1 << 20, 3.0, 64);
        assert_eq!(c.k, 60);
        assert_eq!(c.nonsync_tag_bits(), 7); // ⌈log2 60⌉ = 6, +1
    }

    #[test]
    fn small_degree_group_len_floor() {
        let c = TagConfig::new(16, 3.0, 2);
        assert_eq!(c.group_len, 2);
    }
}
