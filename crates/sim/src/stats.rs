//! Streaming statistics for long simulation runs.
//!
//! Error series over 30 simulated minutes × many robots produce a lot of
//! samples; these accumulators compute exact running moments (Welford's
//! algorithm) in O(1) memory, so sweeps can aggregate without retaining
//! every sample. Quantiles over a run come from the telemetry histograms
//! ([`crate::telemetry::hist`]).

use serde::{Deserialize, Serialize};

/// Arithmetic mean of a slice (0 if empty).
///
/// This is the one shared definition of "mean of a batch" — the metrics
/// and report layers both call it, so a summary table can never disagree
/// with the series it was derived from. Summation is left-to-right, so
/// results are bit-identical to a hand-rolled `iter().sum() / len`.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sorts samples ascending for [`percentile_sorted`].
///
/// # Panics
///
/// Panics if any sample is NaN — a NaN would make the order (and every
/// later quantile) meaningless.
pub fn sort_finite(xs: &mut [f64]) {
    xs.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or_else(|| panic!("cannot order NaN samples"))
    });
}

/// The `p`-quantile of an ascending-sorted slice (`p` in `[0, 1]`,
/// nearest-rank with rounding: `p = 0` is the minimum, `p = 1` the
/// maximum, a single sample is every quantile).
///
/// # Panics
///
/// Panics if the slice is empty or `p` is outside `[0, 1]`.
pub fn percentile_sorted(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile p must be in [0,1]");
    assert!(!xs.is_empty(), "empty sample set has no quantiles");
    let idx = ((xs.len() - 1) as f64 * p).round() as usize;
    xs[idx]
}

/// Exact running mean/variance/min/max (Welford's online algorithm).
///
/// # Examples
///
/// ```
/// use cocoa_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite — a NaN would silently poison every
    /// later statistic.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "statistics require finite samples, got {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no samples were added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The running mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (denominator n; 0 if empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (denominator n−1; 0 if fewer than two samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_of_single_sample_is_itself() {
        assert_eq!(mean(&[3.25]), 3.25);
    }

    #[test]
    fn mean_matches_manual_sum() {
        let xs = [1.0, 2.0, 4.0];
        assert_eq!(mean(&xs), (1.0 + 2.0 + 4.0) / 3.0);
    }

    #[test]
    fn percentile_endpoints_and_single_sample() {
        let mut xs = vec![5.0, 1.0, 3.0];
        sort_finite(&mut xs);
        assert_eq!(xs, vec![1.0, 3.0, 5.0]);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 0.5), 3.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 5.0);
        let one = [42.0];
        assert_eq!(percentile_sorted(&one, 0.0), 42.0);
        assert_eq!(percentile_sorted(&one, 1.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn percentile_of_empty_panics() {
        percentile_sorted(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn percentile_rejects_out_of_range_p() {
        percentile_sorted(&[1.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn sort_finite_rejects_nan() {
        sort_finite(&mut [1.0, f64::NAN]);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.5, 2.5, 3.5, 10.0, -4.0, 0.0, 7.25];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -4.0);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_sample_panics() {
        RunningStats::new().push(f64::NAN);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37 - 5.0).collect();
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(a.len(), all.len());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(3.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
