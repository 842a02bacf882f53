//! Distribution comparison utilities: bootstrap confidence intervals and a
//! Mann–Whitney U test. Used by experiments that claim one algorithm
//! *reliably* beats another (not just on the mean of a few trials).

/// Percentile bootstrap confidence interval for the mean: resample the
/// sample with replacement `resamples` times and take the (α/2, 1-α/2)
/// quantiles of the resampled means. Deterministic for a fixed seed.
pub fn bootstrap_mean_ci(samples: &[f64], resamples: usize, alpha: f64, seed: u64) -> (f64, f64) {
    assert!(!samples.is_empty());
    assert!(resamples >= 10);
    assert!(alpha > 0.0 && alpha < 1.0);
    use rand::Rng;
    let mut rng = crate::splitmix_rng(seed);
    let n = samples.len();
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let sum: f64 = (0..n).map(|_| samples[rng.gen_range(0..n)]).sum();
            sum / n as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    let lo_idx = ((alpha / 2.0) * resamples as f64) as usize;
    let hi_idx = (((1.0 - alpha / 2.0) * resamples as f64) as usize).min(resamples - 1);
    (means[lo_idx], means[hi_idx])
}

/// Two-sided Mann–Whitney U test (normal approximation with tie
/// correction): returns `(U, approximate p-value)` for the hypothesis that
/// `a` and `b` come from the same distribution. Suitable for the sample
/// sizes experiments use (≥ 8 per side recommended).
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert!(!a.is_empty() && !b.is_empty());
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;
    // Rank the pooled sample, averaging ranks for ties.
    let mut pooled: Vec<(f64, usize)> =
        a.iter().map(|&x| (x, 0usize)).chain(b.iter().map(|&x| (x, 1usize))).collect();
    pooled.sort_by(|x, y| x.0.total_cmp(&y.0));
    let total = pooled.len();
    let mut ranks = vec![0.0f64; total];
    let mut tie_term = 0.0f64;
    let mut i = 0;
    while i < total {
        let mut j = i;
        while j + 1 < total && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for slot in ranks.iter_mut().take(j + 1).skip(i) {
            *slot = avg_rank;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }
    let r1: f64 =
        pooled.iter().zip(&ranks).filter(|((_, side), _)| *side == 0).map(|(_, &r)| r).sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;
    let u = u1.min(n1 * n2 - u1);
    // Normal approximation with tie-corrected variance.
    let mean_u = n1 * n2 / 2.0;
    let n = n1 + n2;
    let var_u = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if var_u <= 0.0 {
        return (u, 1.0); // all values identical
    }
    let z = (u - mean_u + 0.5) / var_u.sqrt(); // continuity correction
    let p = 2.0 * normal_cdf(z);
    (u, p.min(1.0))
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max abs error ≈ 1.5e-7 — ample for significance screening).
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + erf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_ci_contains_mean_and_shrinks() {
        let tight: Vec<f64> = (0..200).map(|i| 10.0 + (i % 3) as f64).collect();
        let (lo, hi) = bootstrap_mean_ci(&tight, 500, 0.05, 1);
        let mean = tight.iter().sum::<f64>() / tight.len() as f64;
        assert!(lo <= mean && mean <= hi, "CI [{lo}, {hi}] misses mean {mean}");
        assert!(hi - lo < 0.5, "CI too wide for a tight sample: [{lo}, {hi}]");
    }

    #[test]
    fn bootstrap_deterministic() {
        let s = [1.0, 5.0, 9.0, 2.0, 8.0];
        assert_eq!(bootstrap_mean_ci(&s, 200, 0.1, 7), bootstrap_mean_ci(&s, 200, 0.1, 7));
    }

    #[test]
    fn mann_whitney_detects_shift() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| i as f64 + 50.0).collect();
        let (_, p) = mann_whitney_u(&a, &b);
        assert!(p < 0.001, "clear shift should be significant: p = {p}");
    }

    #[test]
    fn mann_whitney_accepts_same_distribution() {
        let a: Vec<f64> = (0..40).map(|i| (i % 10) as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| ((i + 3) % 10) as f64).collect();
        let (_, p) = mann_whitney_u(&a, &b);
        assert!(p > 0.2, "identical distributions should not be significant: p = {p}");
    }

    #[test]
    fn mann_whitney_all_ties() {
        let (_, p) = mann_whitney_u(&[3.0; 10], &[3.0; 10]);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(6.0) > 0.999);
    }
}
