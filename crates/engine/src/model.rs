//! Model parameters: tag length `b`, payload budget, connection policy.

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

/// How the uniform acceptance choice is realized under
/// [`ConnectionPolicy::SingleUniform`]. Both are distributionally
/// identical; the permutation form exists because §VI's analysis phrases
/// acceptance that way ("u first generates a random permutation of its
/// neighbors… selects the proposal highest ranked"), and implementing it
/// lets tests verify the equivalence rather than assume it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acceptance {
    /// Pick a uniformly random index into the incoming-proposal list.
    UniformIndex,
    /// Shuffle the receiver's full neighbor list and accept the incoming
    /// proposal whose sender ranks first (Definition VI.2's device).
    SelectionPermutation,
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

/// Static parameters of a model instance.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Tag length `b ≥ 0` in bits.
    pub tag_bits: u32,
    /// Maximum number of UIDs a single connection may carry (the paper
    /// allows O(1); our protocols need at most 2 — a UID and its ID tag
    /// travel together as an ID pair).
    pub max_payload_uids: u32,
    /// Maximum extra (non-UID) bits per connection; the paper allows
    /// `O(polylog N)`.
    pub max_payload_bits: u32,
    /// Proposal-acceptance policy.
    pub policy: ConnectionPolicy,
    /// Realization of the uniform acceptance choice.
    pub acceptance: Acceptance,
}

impl ModelParams {
    /// Mobile telephone model with tag length `b` and the default payload
    /// budget (2 UIDs + 256 extra bits, comfortably `O(polylog N)`).
    pub fn mobile(tag_bits: u32) -> Self {
        ModelParams {
            tag_bits,
            max_payload_uids: 2,
            max_payload_bits: 256,
            policy: ConnectionPolicy::SingleUniform,
            acceptance: Acceptance::UniformIndex,
        }
    }

    /// Classical telephone model (`b = 0`, unbounded acceptance).
    pub fn classical() -> Self {
        ModelParams {
            tag_bits: 0,
            max_payload_uids: 2,
            max_payload_bits: 256,
            policy: ConnectionPolicy::AcceptAll,
            acceptance: Acceptance::UniformIndex,
        }
    }

    /// Mobile model using the §VI selection-permutation acceptance device.
    pub fn mobile_with_permutation(tag_bits: u32) -> Self {
        ModelParams { acceptance: Acceptance::SelectionPermutation, ..Self::mobile(tag_bits) }
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
