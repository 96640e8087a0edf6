//! Order statistics for timings: nearest-rank percentiles for the
//! metrics a run reports, and the quartiles `compare` uses to judge a
//! set of runs.

/// How many samples must lie beyond a tail percentile before it is
/// reported; with fewer, one outlier decides its value.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` (0–100] among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100]: the smallest sample with at
/// least `p`% of the samples at or below it. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, p);
    (n - r >= MIN_BEYOND).then(|| sorted(samples)[r - 1])
}

/// Nearest-rank median. Always reported, whatever the sample count;
/// `None` only without samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    (n > 0).then(|| sorted(samples)[rank(n, 50.0) - 1])
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method),
/// so a spread computed here matches one computed from the same values
/// there. With a single value all three are that value.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        _ => {
            // Python clamps the index and then extrapolates with a
            // negative or oversized weight at the ends; so does this.
            let q = |i: i64| {
                let m = (n as i64 + 1) * i;
                let j = (m / 4).clamp(1, n as i64 - 1);
                let delta = (m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}
