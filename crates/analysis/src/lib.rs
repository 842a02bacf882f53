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

pub mod compare;
pub mod fit;
pub mod json;
pub mod stats;
pub mod table;

/// A small deterministic RNG for resampling utilities.
pub(crate) fn splitmix_rng(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    // bootstrap-resampling stream from an explicit seed. mtm-lint: allow(smallrng-outside-engine)
    rand::rngs::SmallRng::seed_from_u64(seed)
}
