//! Property tests for the statistics and fitting utilities.
//!
//! Cases are generated deterministically by `mtm-testkit` (the offline
//! replacement for proptest).

use mtm_analysis::compare::{bootstrap_mean_ci, mann_whitney_u};
use mtm_analysis::fit::{linear_fit, log_log_fit};
use mtm_analysis::stats::{percentile_sorted, Summary};
use mtm_analysis::table::Table;
use mtm_testkit::{ascii_string, run_cases, vec_f64, Rng};

#[test]
fn summary_order_invariants() {
    run_cases(0xA701, 128, |_case, rng| {
        let samples = vec_f64(rng, (1, 100), -1e6, 1e6);
        let s = Summary::of(&samples);
        assert!(s.min <= s.median + 1e-9);
        assert!(s.median <= s.p90 + 1e-9);
        assert!(s.p90 <= s.max + 1e-9);
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert!(s.std_dev >= 0.0);
        assert_eq!(s.count, samples.len());
    });
}

#[test]
fn summary_invariant_under_permutation() {
    run_cases(0xA702, 128, |_case, rng| {
        let mut samples = vec_f64(rng, (2, 50), -1e3, 1e3);
        let a = Summary::of(&samples);
        samples.reverse();
        let b = Summary::of(&samples);
        assert!((a.mean - b.mean).abs() < 1e-9);
        assert_eq!(a.median, b.median);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    });
}

#[test]
fn summary_shift_equivariance() {
    run_cases(0xA703, 128, |_case, rng| {
        let samples = vec_f64(rng, (2, 40), -1e3, 1e3);
        let shift = rng.gen_range(-100.0..100.0f64);
        let a = Summary::of(&samples);
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        let b = Summary::of(&shifted);
        assert!((b.mean - a.mean - shift).abs() < 1e-6);
        assert!((b.std_dev - a.std_dev).abs() < 1e-6, "spread must be shift-invariant");
    });
}

#[test]
fn percentile_monotone_in_q() {
    run_cases(0xA704, 128, |_case, rng| {
        let mut sorted = vec_f64(rng, (1, 50), -1e3, 1e3);
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in generated samples"));
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let p = percentile_sorted(&sorted, i as f64 / 10.0);
            assert!(p >= last);
            last = p;
        }
    });
}

#[test]
fn linear_fit_recovers_exact_lines() {
    run_cases(0xA706, 128, |_case, rng| {
        let slope = rng.gen_range(-100.0..100.0f64);
        let intercept = rng.gen_range(-100.0..100.0f64);
        let mut xs: Vec<i32> =
            (0..rng.gen_range(2..30usize)).map(|_| rng.gen_range(-1000..1000)).collect();
        xs.sort_unstable();
        xs.dedup();
        if xs.len() < 2 {
            return;
        }
        let pts: Vec<(f64, f64)> =
            xs.into_iter().map(|x| (x as f64, slope * x as f64 + intercept)).collect();
        let f = linear_fit(&pts);
        assert!((f.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        assert!((f.intercept - intercept).abs() < 1e-4 * (1.0 + intercept.abs()));
        assert!(f.r_squared > 1.0 - 1e-9);
    });
}

#[test]
fn log_log_fit_recovers_power_laws() {
    run_cases(0xA707, 128, |_case, rng| {
        let exponent = rng.gen_range(-3.0..3.0f64);
        let scale = rng.gen_range(0.1..100.0f64);
        let pts: Vec<(f64, f64)> =
            (2..40).map(|i| (i as f64, scale * (i as f64).powf(exponent))).collect();
        let f = log_log_fit(&pts);
        assert!((f.slope - exponent).abs() < 1e-6);
    });
}

#[test]
fn bootstrap_ci_brackets_sample_mean() {
    run_cases(0xA709, 64, |_case, rng| {
        let samples = vec_f64(rng, (5, 60), -100.0, 100.0);
        let (lo, hi) = bootstrap_mean_ci(&samples, 200, 0.05, rng.gen());
        assert!(lo <= hi);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // The sample mean is the center of the bootstrap distribution and
        // must lie within (or extremely near) the 95% interval.
        let slack = (hi - lo).max(1e-9);
        assert!(mean >= lo - slack && mean <= hi + slack);
    });
}

#[test]
fn mann_whitney_p_in_range() {
    run_cases(0xA70A, 128, |_case, rng| {
        let a = vec_f64(rng, (2, 40), -100.0, 100.0);
        let b = vec_f64(rng, (2, 40), -100.0, 100.0);
        let (u, p) = mann_whitney_u(&a, &b);
        assert!(u >= 0.0);
        assert!((0.0..=1.0).contains(&p), "p = {p}");
        // Symmetry: swapping the samples gives the same two-sided p.
        let (_, p2) = mann_whitney_u(&b, &a);
        assert!((p - p2).abs() < 1e-9);
    });
}

#[test]
fn table_csv_has_consistent_columns() {
    run_cases(0xA70B, 128, |_case, rng| {
        let rows: Vec<(i64, String)> = (0..rng.gen_range(0..20usize))
            .map(|_| (rng.gen::<i64>(), ascii_string(rng, 12)))
            .collect();
        let mut t = Table::new(vec!["num", "text"]);
        for (n, s) in &rows {
            t.push_row(vec![n.to_string(), s.clone()]);
        }
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), rows.len() + 1);
        let rendered = t.render();
        assert_eq!(rendered.lines().count(), rows.len() + 2);
    });
}
