//! Summary statistics over trial samples.

/// Summary of a sample of trial measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (average of middle two for even counts).
    pub median: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count < 2 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median,
            p90: percentile_sorted(&sorted, 0.90),
            max: sorted[count - 1],
        }
    }

    /// Summarize integer samples (convenience for round counts).
    pub fn of_u64(samples: &[u64]) -> Summary {
        let as_f: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Summary::of(&as_f)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice, `q ∈ [0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_even_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_unsorted_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_empty_panics() {
        Summary::of(&[]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];
        assert_eq!(percentile_sorted(&sorted, 0.90), 90.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 50.0);
    }

    #[test]
    fn of_u64_converts() {
        let s = Summary::of_u64(&[2, 4, 6]);
        assert!((s.mean - 4.0).abs() < 1e-12);
    }
}
