//! Order statistics shared by the run, set and compare commands.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same values in Python.

/// The samples that count toward a timing: the first is a warm-up (cold
/// caches, first-touch page faults) and is dropped whenever another sample
/// exists.
pub(crate) fn timed<T>(samples: &[T]) -> &[T] {
    if samples.len() > 1 {
        &samples[1..]
    } else {
        samples
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count). Panics when empty.
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let k = v.len();
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
pub(crate) fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound is checked against. Zero for fewer than two values.
pub(crate) fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// A tail percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Tail {
    pub(crate) value: f64,
    /// 99, 90 or 75; `None` when no percentile has ten samples beyond it
    /// and `value` is the maximum instead.
    pub(crate) percentile: Option<u32>,
    /// Samples strictly beyond the reported rank.
    pub(crate) beyond: usize,
}

/// The highest of p99, p90 and p75 (nearest rank) that has at least ten
/// samples beyond it; the maximum when none has.
pub(crate) fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no values");
    let v = sorted(values);
    for p in [99u32, 90, 75] {
        let rank = (v.len() * p as usize).div_ceil(100).max(1);
        let beyond = v.len() - rank;
        if beyond >= 10 {
            return Tail { value: v[rank - 1], percentile: Some(p), beyond };
        }
    }
    Tail { value: v[v.len() - 1], percentile: None, beyond: 0 }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Better {
    Lower,
    Higher,
}

impl Better {
    pub(crate) fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `new` is than `base`, as a share of `base` (negative
    /// when it is better).
    pub(crate) fn worsening(self, base: f64, new: f64) -> f64 {
        let change = (new - base) / base.abs();
        match self {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_up_sample_is_discarded() {
        // A scripted timing sequence: the cold first sample is the fastest
        // here, so keeping it would hide the steady state.
        let secs = [0.5, 2.0, 2.2, 1.9];
        assert_eq!(timed(&secs), &[2.0, 2.2, 1.9]);
        assert_eq!(median(timed(&secs)), 2.0);
        assert_eq!(timed(&[3.0]), &[3.0], "a lone sample is all there is");
        assert!(timed::<f64>(&[]).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from Python 3.11 statistics.quantiles(v, n=4).
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[7.0, 1.0]), [-0.5, 4.0, 8.5]);
        let s = spread(&ten);
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Tail { value: 990.0, percentile: Some(99), beyond: 10 });
        // 999 samples: p99 has nine beyond, so p90 is the tail.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, Some(90));
        // 40 samples: only p75 qualifies.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Tail { value: 30.0, percentile: Some(75), beyond: 10 });
        // Too few for any percentile: report the maximum.
        assert_eq!(tail(&[2.0, 9.0, 4.0]), Tail { value: 9.0, percentile: None, beyond: 0 });
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("up"), None);
    }
}
