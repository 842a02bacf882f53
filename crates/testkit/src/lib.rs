//! Deterministic property-test harness.
//!
//! The offline build environment has no `proptest`, so the workspace's
//! property suites run on this small replacement: every test executes a
//! fixed number of *cases*, each driven by a [`SmallRng`] derived from
//! `(test-local seed, case index)`. Failures print the case index and seed
//! so a failing case can be replayed in isolation — and because the whole
//! harness is a pure function of its inputs, the same case fails (or
//! passes) on every machine and every run.
//!
//! There is deliberately no shrinking: cases are kept small by
//! construction instead (the generators below take explicit bounds).

pub use rand::rngs::SmallRng;
pub use rand::seq::SliceRandom;
pub use rand::{Rng, SeedableRng};

/// One step of SplitMix64 (duplicated from `mtm-graph::rng` to keep this
/// crate dependency-free below `rand`).
#[inline]
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `cases` independent deterministic cases of property `f`.
///
/// `f(case, rng)` receives the case index and a per-case RNG stream. A
/// panic inside `f` is annotated with the failing case index and per-case
/// seed, then propagated so the test still fails normally.
pub fn run_cases<F>(test_seed: u64, cases: u64, mut f: F)
where
    F: FnMut(u64, &mut SmallRng),
{
    for case in 0..cases {
        let case_seed = splitmix64(test_seed ^ splitmix64(case));
        // per-case stream from the deterministic case seed. mtm-lint: allow(smallrng-outside-engine)
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f(case, &mut rng);
        }));
        if let Err(payload) = outcome {
            eprintln!("property failed at case {case}/{cases} (case seed {case_seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A random `Vec<f64>` with uniform entries in `[lo, hi)` and a length
/// drawn from `len` (inclusive bounds).
pub fn vec_f64(rng: &mut SmallRng, len: (usize, usize), lo: f64, hi: f64) -> Vec<f64> {
    let n = rng.gen_range(len.0..=len.1);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A random ASCII-alphanumeric string with length in `[0, max_len]`.
pub fn ascii_string(rng: &mut SmallRng, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-";
    let n = rng.gen_range(0..=max_len);
    (0..n).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        run_cases(42, 10, |case, rng| a.push((case, rng.gen::<u64>())));
        run_cases(42, 10, |case, rng| b.push((case, rng.gen::<u64>())));
        assert_eq!(a, b);
    }

    #[test]
    fn case_streams_differ() {
        let mut draws = Vec::new();
        run_cases(7, 20, |_case, rng| draws.push(rng.gen::<u64>()));
        let mut uniq = draws.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), draws.len(), "case streams must be independent");
    }

    #[test]
    fn different_test_seeds_differ() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        run_cases(1, 5, |_c, rng| a.push(rng.gen::<u64>()));
        run_cases(2, 5, |_c, rng| b.push(rng.gen::<u64>()));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failures_propagate() {
        run_cases(3, 4, |case, _rng| {
            if case == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn generators_respect_bounds() {
        run_cases(9, 50, |_c, rng| {
            let v = vec_f64(rng, (1, 30), -5.0, 5.0);
            assert!((1..=30).contains(&v.len()));
            assert!(v.iter().all(|x| (-5.0..5.0).contains(x)));
            let s = ascii_string(rng, 12);
            assert!(s.len() <= 12);
        });
    }
}
