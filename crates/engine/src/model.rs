//! Model parameters: tag length `b` and connection policy, plus the payload
//! budget every model shares.

use rand::rngs::SmallRng;
use rand::Rng;

/// A `b`-bit advertising tag.
///
/// Tags are the only information a node broadcasts to its whole neighborhood
/// before connections form; the engine enforces that each advertised tag
/// fits in the model's `b` bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

impl Tag {
    /// The empty tag (the only legal tag when `b = 0`).
    pub const EMPTY: Tag = Tag(0);

    /// Number of bits needed to represent this tag value.
    #[inline]
    pub fn bits(self) -> u32 {
        32 - self.0.leading_zeros()
    }

    /// True iff the tag fits in `b` bits.
    #[inline]
    pub fn fits(self, b: u32) -> bool {
        self.bits() <= b
    }
}

/// How a listening node resolves incoming proposals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectionPolicy {
    /// Mobile telephone model: accept exactly one incoming proposal,
    /// chosen uniformly at random (Section III).
    SingleUniform,
    /// Classical telephone model: accept every incoming proposal. Used only
    /// as the baseline in the model-gap experiment (F6).
    AcceptAll,
}

/// The uniform acceptance draw shared by every backend: a listener with
/// `k ≥ 1` buffered proposals accepts index `gen_range(0..k)` from its own
/// stream — except that `k = 1` consumes **no** randomness (part of the
/// recorded RNG contract; both engines and the trace-equivalence reference
/// implement exactly this rule).
#[inline]
pub fn uniform_accept_index(rng: &mut SmallRng, k: usize) -> usize {
    debug_assert!(k >= 1, "acceptance draw over an empty proposal set");
    if k == 1 {
        0
    } else {
        rng.gen_range(0..k)
    }
}

/// Maximum number of UIDs a single connection may carry (the paper allows
/// O(1); our protocols need at most 2 — a UID and its ID tag travel
/// together as an ID pair).
pub const MAX_PAYLOAD_UIDS: u32 = 2;

/// Maximum extra (non-UID) bits per connection; the paper allows
/// `O(polylog N)`, and 256 is comfortably that.
pub const MAX_PAYLOAD_BITS: u32 = 256;

/// Static parameters of a model instance.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Tag length `b ≥ 0` in bits.
    pub tag_bits: u32,
    /// Proposal-acceptance policy.
    pub policy: ConnectionPolicy,
}

impl ModelParams {
    /// Mobile telephone model with tag length `b`.
    pub fn mobile(tag_bits: u32) -> Self {
        ModelParams { tag_bits, policy: ConnectionPolicy::SingleUniform }
    }

    /// Classical telephone model (`b = 0`, unbounded acceptance).
    pub fn classical() -> Self {
        ModelParams { tag_bits: 0, policy: ConnectionPolicy::AcceptAll }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_bits_counts_width() {
        assert_eq!(Tag(0).bits(), 0);
        assert_eq!(Tag(1).bits(), 1);
        assert_eq!(Tag(2).bits(), 2);
        assert_eq!(Tag(3).bits(), 2);
        assert_eq!(Tag(4).bits(), 3);
        assert_eq!(Tag(255).bits(), 8);
    }

    #[test]
    fn tag_fits_budget() {
        assert!(Tag(0).fits(0));
        assert!(!Tag(1).fits(0));
        assert!(Tag(1).fits(1));
        assert!(!Tag(2).fits(1));
        assert!(Tag(7).fits(3));
        assert!(!Tag(8).fits(3));
    }

    #[test]
    fn accept_index_draw_rule() {
        use rand::SeedableRng;
        // k = 1 consumes no randomness; k > 1 draws gen_range(0..k).
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = SmallRng::seed_from_u64(5);
        assert_eq!(uniform_accept_index(&mut a, 1), 0);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "k = 1 must not advance the stream");
        let mut c = SmallRng::seed_from_u64(9);
        let mut d = SmallRng::seed_from_u64(9);
        assert_eq!(uniform_accept_index(&mut c, 5), d.gen_range(0..5));
    }

    #[test]
    fn param_presets() {
        let m = ModelParams::mobile(1);
        assert_eq!(m.tag_bits, 1);
        assert_eq!(m.policy, ConnectionPolicy::SingleUniform);
        let c = ModelParams::classical();
        assert_eq!(c.tag_bits, 0);
        assert_eq!(c.policy, ConnectionPolicy::AcceptAll);
    }
}
