//! Statistics, curve fitting and table rendering for experiments.
//!
//! * [`stats`] — sample summaries (mean/median/percentiles/CI).
//! * [`fit`] — least-squares fits in linear, log-log, and log-polylog
//!   space, the instruments for checking asymptotic *shapes*.
//! * [`compare`] — bootstrap confidence intervals and the Mann-Whitney U
//!   test for "A reliably beats B" claims.
//! * [`table`] — aligned-text and CSV table rendering.
//! * [`json`] — minimal JSON value, parser, and renderer (the offline
//!   build has no serde; shared by the bench harness and the results
//!   provenance manifest).

// An `as` that can truncate states its bound in an `#[allow]` (DESIGN.md §8.1).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod compare;
pub mod fit;
pub mod json;
pub mod stats;
pub mod table;

/// A small deterministic RNG for resampling utilities.
// bootstrap-resampling stream from an explicit seed.
#[allow(clippy::disallowed_methods)]
pub(crate) fn splitmix_rng(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}
