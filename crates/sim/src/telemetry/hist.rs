//! Log-linear bucketed histograms for the telemetry bus.
//!
//! An HDR-style fixed bucket layout: every finite `f64` maps to one of
//! [`NUM_BUCKETS`] buckets — a dedicated zero bucket, plus sign-mirrored
//! log-linear buckets with [`SUBS`] linear sub-buckets per power of two
//! between `2^`[`MIN_EXP`] and `2^`([`MAX_EXP`]` + 1`). The bucket index is
//! computed directly from the IEEE-754 bit pattern (exponent + top mantissa
//! bits), so recording is exact integer arithmetic: no `log`, no rounding
//! mode, no libm — identical inputs always land in identical buckets on
//! every platform.
//!
//! Recording a sample is a bounds check and three adds; nothing allocates
//! after construction and nothing consults a clock or RNG, which is what
//! lets the bus guarantee a zero observer effect on simulation runs.
//!
//! Quantile extraction deliberately has no second percentile
//! implementation: buckets expand to their representative values and the
//! result is routed through [`crate::stats::sort_finite`] and
//! [`crate::stats::percentile_sorted`], so histogram quantiles agree with
//! every other quantile in the workspace up to bucket resolution (better
//! than 12.5 % by construction; `min`/`max` are tracked exactly).

use crate::snapshot::{Codec, SnapshotError};
use crate::stats::{percentile_sorted, sort_finite};

/// Number of linear sub-bucket bits per octave (2^3 = 8 sub-buckets, so
/// bucket width is at most 12.5 % of the value).
pub const SUB_BITS: u32 = 3;

/// Linear sub-buckets per power of two.
pub const SUBS: usize = 1 << SUB_BITS;

/// Smallest represented binary exponent: magnitudes below `2^MIN_EXP`
/// (≈ 9.5e-7) clamp into the first bucket of their sign.
pub const MIN_EXP: i32 = -20;

/// Largest represented binary exponent: magnitudes at or above
/// `2^(MAX_EXP + 1)` (≈ 1.1e12) clamp into the last bucket of their sign.
pub const MAX_EXP: i32 = 39;

/// Log-linear buckets per sign.
const SIGN_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize * SUBS;

/// Total buckets: one zero bucket plus mirrored positive and negative
/// ranges.
pub const NUM_BUCKETS: usize = 1 + 2 * SIGN_BUCKETS;

/// Exact `2^exp` as an `f64`, built from the bit pattern (no libm).
fn pow2(exp: i32) -> f64 {
    f64::from_bits(((exp + 1023) as u64) << 52)
}

/// The sign-local bucket of a strictly positive finite magnitude.
fn magnitude_bucket(x: f64) -> usize {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp > MAX_EXP {
        return SIGN_BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (exp - MIN_EXP) as usize * SUBS + sub
}

/// The global bucket index of a finite sample: `0` is the zero bucket,
/// `1..=SIGN_BUCKETS` the positive range, the rest the negative mirror.
pub fn bucket_index(x: f64) -> usize {
    debug_assert!(x.is_finite());
    if x == 0.0 {
        0
    } else if x > 0.0 {
        1 + magnitude_bucket(x)
    } else {
        1 + SIGN_BUCKETS + magnitude_bucket(-x)
    }
}

/// The numeric range `[lo, hi)` covered by a global bucket index (for the
/// zero bucket both bounds are `0`; negative buckets return negative
/// bounds with `lo < hi`).
///
/// # Panics
///
/// Panics if `idx >= NUM_BUCKETS`.
pub fn bucket_bounds(idx: usize) -> (f64, f64) {
    assert!(idx < NUM_BUCKETS, "bucket index {idx} out of range");
    if idx == 0 {
        return (0.0, 0.0);
    }
    let (neg, b) = if idx <= SIGN_BUCKETS {
        (false, idx - 1)
    } else {
        (true, idx - 1 - SIGN_BUCKETS)
    };
    let exp = MIN_EXP + (b / SUBS) as i32;
    let sub = (b % SUBS) as f64;
    let lo = pow2(exp) * (1.0 + sub / SUBS as f64);
    let hi = pow2(exp) * (1.0 + (sub + 1.0) / SUBS as f64);
    if neg {
        (-hi, -lo)
    } else {
        (lo, hi)
    }
}

/// The representative value a bucket expands to for quantile extraction:
/// the bucket edge nearest zero (exact for the zero bucket).
pub fn bucket_value(idx: usize) -> f64 {
    let (lo, hi) = bucket_bounds(idx);
    if lo >= 0.0 {
        lo
    } else {
        hi
    }
}

/// The upper inclusive boundary used for Prometheus `le` labels: samples
/// in the bucket are all `<=` this value.
pub fn bucket_le(idx: usize) -> f64 {
    // Positive buckets [lo, hi) clamp up to hi; negative buckets (lo, hi]
    // are bounded by hi directly. Either way hi is the inclusive ceiling.
    bucket_bounds(idx).1
}

/// A deterministic log-linear histogram with exact count/sum/min/max.
///
/// # Examples
///
/// ```
/// use cocoa_sim::telemetry::hist::Histogram;
///
/// let mut h = Histogram::new();
/// for x in [1.0, 2.0, 2.0, 40.0] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 40.0);
/// let p = h.percentiles(&[0.5]);
/// assert!((p[0] - 2.0).abs() / 2.0 < 0.125); // bucket resolution
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its fixed bucket array once).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample: a bucket increment plus exact running
    /// count/sum/min/max. No allocation, no clock, no RNG.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite — a non-finite sample would poison
    /// the sum and has no bucket.
    #[inline]
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "histogram samples must be finite, got {x}");
        self.counts[bucket_index(x)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples (left-to-right accumulation order).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact smallest sample (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest sample (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Non-empty buckets as `(global index, count)` pairs in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Merges another histogram (bucket layouts are global constants, so
    /// any two histograms merge).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Quantiles at bucket resolution, routed through the workspace's one
    /// quantile implementation ([`sort_finite`] + [`percentile_sorted`]):
    /// each bucket expands to its representative value repeated by count.
    /// `p = 0`/`p = 1` are patched with the exactly tracked min/max.
    ///
    /// Returns an empty vector when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if any `p` is outside `[0, 1]`.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        if self.count == 0 {
            return Vec::new();
        }
        let mut values = Vec::with_capacity(self.count as usize);
        for (idx, c) in self.nonzero_buckets() {
            let v = bucket_value(idx);
            values.extend(std::iter::repeat_n(v, c as usize));
        }
        sort_finite(&mut values);
        ps.iter()
            .map(|&p| {
                if p == 0.0 {
                    self.min
                } else if p == 1.0 {
                    self.max
                } else {
                    percentile_sorted(&values, p)
                }
            })
            .collect()
    }

    /// A compact snapshot for serialization and export.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.nonzero_buckets().map(|(i, c)| (i as u32, c)).collect(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// The snapshot layout: the count, sum, minimum and maximum, then each
    /// non-empty bucket as its index and count, the [`HistSnapshot`]
    /// shape. A bucket index out of range or a NaN aggregate is
    /// malformed.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let mut buckets = self.snapshot().buckets;
        let Histogram {
            counts,
            count,
            sum,
            min,
            max,
        } = self;
        c.u64(count)?;
        c.f64s([sum, min, max])?;
        c.vec(&mut buckets, |c, (index, n)| {
            c.u32(index)?;
            c.u64(n)
        })?;
        if let Some(&(index, _)) = buckets.iter().find(|(i, _)| *i as usize >= NUM_BUCKETS) {
            return Err(SnapshotError::malformed(format!(
                "histogram bucket index {index}"
            )));
        }
        if sum.is_nan() || min.is_nan() || max.is_nan() {
            return Err(SnapshotError::malformed("histogram NaN aggregate"));
        }
        counts.fill(0);
        for (index, n) in buckets {
            counts[index as usize] = n;
        }
        Ok(())
    }

    /// Rebuilds a histogram from a snapshot (inverse of
    /// [`Histogram::snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if a bucket index is out of range.
    pub fn from_snapshot(snap: &HistSnapshot) -> Self {
        let mut h = Histogram::new();
        for &(idx, c) in &snap.buckets {
            h.counts[idx as usize] = c;
        }
        h.count = snap.count;
        h.sum = snap.sum;
        h.min = snap.min;
        h.max = snap.max;
        h
    }
}

/// A sparse, serializable view of one histogram: only non-empty buckets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistSnapshot {
    /// `(global bucket index, count)` pairs, index-ascending.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples.
    pub count: u64,
    /// Exact sum.
    pub sum: f64,
    /// Exact minimum (+∞ if empty).
    pub min: f64,
    /// Exact maximum (−∞ if empty).
    pub max: f64,
}

impl HistSnapshot {
    /// Buckets as `(upper bound, count)` sorted ascending by bound — the
    /// order a Prometheus `le` series requires (negative buckets first,
    /// then zero, then positive).
    pub fn ascending(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = self
            .buckets
            .iter()
            .map(|&(i, c)| (bucket_le(i as usize), c))
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bounds are finite"));
        out
    }
}

/// Handle to one registered histogram (index into the registry, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) usize);

/// Named histograms with stable, sorted export order; mirrors
/// [`super::CounterRegistry`].
///
/// Each histogram is flagged *deterministic* or *wall-clock*: wall-clock
/// histograms (span durations, sweep wall time) are the only ones allowed
/// to hold non-reproducible data and are excluded from snapshots and
/// equivalence checks, exactly like span timers.
#[derive(Debug, Default)]
pub struct HistogramRegistry {
    names: Vec<&'static str>,
    hists: Vec<Histogram>,
    wall: Vec<bool>,
}

impl HistogramRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `name` (idempotent) and returns its handle. `wall` marks
    /// the histogram as wall-clock (non-deterministic); the flag of an
    /// already-registered name is left unchanged.
    pub fn register(&mut self, name: &'static str, wall: bool) -> HistId {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return HistId(i);
        }
        self.names.push(name);
        self.hists.push(Histogram::new());
        self.wall.push(wall);
        HistId(self.names.len() - 1)
    }

    /// Records a sample into a registered histogram.
    #[inline]
    pub fn record(&mut self, id: HistId, x: f64) {
        self.hists[id.0].record(x);
    }

    /// The histogram registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| &self.hists[i])
    }

    /// Whether `name` is registered as wall-clock.
    pub fn is_wall(&self, name: &str) -> Option<bool> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.wall[i])
    }

    /// Number of registered histograms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no histograms are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All histograms sorted by name: `(name, histogram, wall)`.
    pub fn sorted(&self) -> Vec<(&'static str, &Histogram, bool)> {
        let mut out: Vec<(&'static str, &Histogram, bool)> = (0..self.names.len())
            .map(|i| (self.names[i], &self.hists[i], self.wall[i]))
            .collect();
        out.sort_by_key(|(n, _, _)| *n);
        out
    }

    /// Deterministic histograms only, sorted by name — the checkpointable
    /// subset (wall-clock histograms restart at zero on resume, like span
    /// timers).
    pub fn deterministic_sorted(&self) -> Vec<(&'static str, &Histogram)> {
        self.sorted()
            .into_iter()
            .filter(|(_, _, wall)| !wall)
            .map(|(n, h, _)| (n, h))
            .collect()
    }

    /// The snapshot layout: each deterministic histogram as its name and
    /// state, sorted by name. The reader registers each name it decodes
    /// as deterministic if it is new; wall-clock histograms are not
    /// stored.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let HistogramRegistry { names, hists, wall } = self;
        let mut stored: Vec<&'static str> = (names.iter().zip(wall.iter()))
            .filter(|(_, &w)| !w)
            .map(|(&n, _)| n)
            .collect();
        stored.sort_unstable();
        c.vec(&mut stored, |c, name| {
            c.name(name)?;
            let i = names.iter().position(|n| n == name).unwrap_or_else(|| {
                names.push(*name);
                hists.push(Histogram::new());
                wall.push(false);
                names.len() - 1
            });
            hists[i].code(c)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_round_trips() {
        for &x in &[
            1e-6, 0.001, 0.25, 0.9, 1.0, 1.5, 7.0, 64.0, 1000.0, 9.9e11, 5e12,
        ] {
            for &v in &[x, -x] {
                let idx = bucket_index(v);
                let (lo, hi) = bucket_bounds(idx);
                // Clamped edges only contain, interior buckets bracket:
                // positive buckets are [lo, hi), negative ones (lo, hi].
                if (MIN_EXP..=MAX_EXP).contains(&(v.abs().log2().floor() as i32)) {
                    if v > 0.0 {
                        assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi}) (idx {idx})");
                    } else {
                        assert!(lo < v && v <= hi, "{v} not in ({lo}, {hi}] (idx {idx})");
                    }
                }
            }
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-0.0), 0);
        assert_eq!(bucket_bounds(0), (0.0, 0.0));
    }

    #[test]
    fn bucket_width_is_within_an_eighth() {
        for &x in &[0.01, 1.0, 3.7, 250.0, 1e6] {
            let (lo, hi) = bucket_bounds(bucket_index(x));
            assert!(
                (hi - lo) / lo <= 0.125 + 1e-12,
                "bucket [{lo},{hi}) too wide"
            );
        }
    }

    #[test]
    fn tiny_and_huge_magnitudes_clamp() {
        let tiny = bucket_index(1e-30);
        let huge = bucket_index(1e30);
        assert_eq!(tiny, 1); // first positive bucket
        assert_eq!(huge, SIGN_BUCKETS); // last positive bucket
        assert_eq!(bucket_index(-1e-30), 1 + SIGN_BUCKETS);
        assert_eq!(bucket_index(-1e30), 2 * SIGN_BUCKETS);
    }

    #[test]
    fn record_tracks_exact_extremes_and_sum() {
        let mut h = Histogram::new();
        for x in [3.0, -2.5, 0.0, 10.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10.5);
        assert_eq!(h.min(), -2.5);
        assert_eq!(h.max(), 10.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_is_rejected() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_is_rejected() {
        Histogram::new().record(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_infinity_is_rejected() {
        Histogram::new().record(f64::NEG_INFINITY);
    }

    #[test]
    fn empty_percentiles_are_empty() {
        assert!(Histogram::new().percentiles(&[0.5, 0.99]).is_empty());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(42.0);
        let ps = h.percentiles(&[0.0, 0.5, 0.9, 0.99, 1.0]);
        assert_eq!(ps[0], 42.0);
        assert_eq!(ps[4], 42.0);
        for &p in &ps[1..4] {
            assert!((p - 42.0).abs() / 42.0 <= 0.125, "p {p}");
        }
    }

    #[test]
    fn all_equal_samples_collapse() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(7.5);
        }
        let ps = h.percentiles(&[0.0, 0.5, 1.0]);
        assert_eq!(ps[0], 7.5);
        assert_eq!(ps[2], 7.5);
        assert!((ps[1] - 7.5).abs() / 7.5 <= 0.125);
    }

    #[test]
    fn percentiles_track_distribution_at_bucket_resolution() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        let ps = h.percentiles(&[0.5, 0.9, 0.99]);
        for (p, expect) in ps.iter().zip([500.0, 900.0, 990.0]) {
            assert!(
                (p - expect).abs() / expect <= 0.13,
                "quantile {p} vs {expect}"
            );
        }
    }

    #[test]
    fn negative_samples_order_correctly() {
        let mut h = Histogram::new();
        for x in [-90.0, -80.0, -70.0, -60.0] {
            h.record(x);
        }
        let ps = h.percentiles(&[0.0, 1.0]);
        assert_eq!(ps, vec![-90.0, -60.0]);
        // The ascending view runs most-negative to least-negative.
        let asc = h.snapshot().ascending();
        for w in asc.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let mut h = Histogram::new();
        for x in [0.0, 1.0, -3.5, 900.0, 900.0] {
            h.record(x);
        }
        let snap = h.snapshot();
        assert_eq!(Histogram::from_snapshot(&snap), h);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.77 - 30.0).collect();
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &x in &xs {
            all.record(x);
        }
        for &x in &xs[..71] {
            a.record(x);
        }
        for &x in &xs[71..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.snapshot().buckets, all.snapshot().buckets);
    }

    #[test]
    fn registry_sorts_and_flags() {
        let mut reg = HistogramRegistry::new();
        let w = reg.register("z.wall", true);
        let d = reg.register("a.det", false);
        reg.record(w, 1.0);
        reg.record(d, 2.0);
        assert_eq!(reg.register("a.det", true), d); // idempotent, flag kept
        assert!(!reg.is_wall("a.det").unwrap());
        assert!(reg.is_wall("z.wall").unwrap());
        let names: Vec<&str> = reg.sorted().iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, vec!["a.det", "z.wall"]);
        let det: Vec<&str> = reg.deterministic_sorted().iter().map(|(n, _)| *n).collect();
        assert_eq!(det, vec!["a.det"]);
    }
}
