//! Order-sensitive 64-bit state digests.
//!
//! The stuck-run detector (see [`crate::Engine::enable_stuck_detection`])
//! needs a cheap, deterministic digest of the whole network's protocol
//! state each round. Protocols digest their own durable state with
//! [`of_words`]; [`of_nodes`] folds the per-node digests together in node
//! order. The construction is SplitMix64-based, so it is a pure function
//! of its inputs on every platform — no `Hasher` with process-random keys
//! is involved.
//!
//! This is a progress signal, not a cryptographic hash: collisions are
//! possible but irrelevant in practice (a collision can only delay
//! detection by making one changed round look unchanged, and the detector
//! demands a full window of consecutive unchanged rounds).

use mtm_graph::rng::splitmix64;

use crate::protocol::Protocol;

/// Initial accumulator for a digest chain.
pub const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fold one word into an accumulator. Order-sensitive: `mix(mix(s, a), b)`
/// and `mix(mix(s, b), a)` differ.
#[inline]
pub fn mix(acc: u64, word: u64) -> u64 {
    splitmix64(acc.rotate_left(23) ^ word)
}

/// Digest a slice of state words (convenience for protocol
/// implementations).
pub fn of_words(words: &[u64]) -> u64 {
    words.iter().fold(SEED, |acc, &w| mix(acc, w))
}

/// The network fingerprint: every node's [`Protocol::state_fingerprint`]
/// folded in node order, or `None` if the protocol does not support
/// fingerprinting. Equals [`of_words`] over the per-node digests.
pub fn of_nodes<P: Protocol>(nodes: &[P]) -> Option<u64> {
    nodes.iter().try_fold(SEED, |acc, node| Some(mix(acc, node.state_fingerprint()?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(of_words(&[1, 2, 3]), of_words(&[1, 2, 3]));
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(of_words(&[1, 2]), of_words(&[2, 1]));
    }

    #[test]
    fn word_sensitive() {
        assert_ne!(of_words(&[0]), of_words(&[1]));
        assert_ne!(of_words(&[]), of_words(&[0]));
    }
}
