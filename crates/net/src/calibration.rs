//! The offline calibration phase and the PDF Table.
//!
//! Before deployment, the paper runs a calibration campaign that maps every
//! RSSI value to a probability distribution function of distance — the
//! **PDF Table** stored at each node (Section 2.2). Their measurements
//! showed the PDFs are Gaussian for RSSI down to −80 dBm (distances up to
//! ~40 m) and visibly non-Gaussian beyond (Fig. 1).
//!
//! We reproduce the campaign against the synthetic [`RfChannel`]: sample
//! RSSI over a sweep of ground-truth distances, bucket the samples by
//! integer-dBm bin, and fit
//!
//! - a **Gaussian** distance PDF for bins at or above the channel's
//!   Gaussian floor, and
//! - an **empirical histogram** PDF for the noisy far-field bins,
//!
//! exactly mirroring the decision the authors made from their Fig. 1.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::channel::RfChannel;
use crate::rssi::{Dbm, RssiBin};

/// Parameters of the calibration campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Closest measured distance, metres.
    pub d_min: f64,
    /// Farthest measured distance, metres (clamped to the channel range
    /// when `None`).
    pub d_max: Option<f64>,
    /// Spacing between measurement distances, metres.
    pub step_m: f64,
    /// RSSI samples collected at each distance.
    pub samples_per_distance: usize,
    /// Bins with fewer samples than this are dropped as unreliable.
    pub min_samples_per_bin: usize,
    /// Histogram cell width for empirical (non-Gaussian) PDFs, metres.
    pub histogram_bin_m: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            d_min: 0.5,
            d_max: None,
            step_m: 0.5,
            samples_per_distance: 200,
            min_samples_per_bin: 40,
            histogram_bin_m: 2.0,
        }
    }
}

/// The distance PDF stored for one RSSI bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DistancePdf {
    /// A Gaussian fit — valid in the near field (paper Fig. 1(a)).
    Gaussian {
        /// Mean distance, metres.
        mean: f64,
        /// Standard deviation, metres.
        sigma: f64,
    },
    /// An empirical histogram — the far field where multipath breaks the
    /// Gaussian assumption (paper Fig. 1(b)).
    Empirical {
        /// Distance at the left edge of the first cell, metres.
        origin: f64,
        /// Cell width, metres.
        bin_width: f64,
        /// Normalized densities per cell (integrates to 1).
        densities: Vec<f64>,
        /// Sample mean, metres.
        mean: f64,
        /// Sample standard deviation, metres.
        sigma: f64,
    },
}

impl DistancePdf {
    /// Probability density at distance `d`.
    pub fn density(&self, d: f64) -> f64 {
        match self {
            DistancePdf::Gaussian { mean, sigma } => {
                let z = (d - mean) / sigma;
                (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
            }
            DistancePdf::Empirical {
                origin,
                bin_width,
                densities,
                ..
            } => {
                if d < *origin {
                    return 0.0;
                }
                let idx = ((d - origin) / bin_width) as usize;
                densities.get(idx).copied().unwrap_or(0.0)
            }
        }
    }

    /// Mean distance of the PDF, metres.
    pub fn mean(&self) -> f64 {
        match self {
            DistancePdf::Gaussian { mean, .. } => *mean,
            DistancePdf::Empirical { mean, .. } => *mean,
        }
    }

    /// Standard deviation of the PDF, metres.
    pub fn sigma(&self) -> f64 {
        match self {
            DistancePdf::Gaussian { sigma, .. } => *sigma,
            DistancePdf::Empirical { sigma, .. } => *sigma,
        }
    }

    /// Whether this bin kept the Gaussian form.
    pub fn is_gaussian(&self) -> bool {
        matches!(self, DistancePdf::Gaussian { .. })
    }

    /// A conservative upper bound on distances with non-negligible density
    /// (used to prune grid updates).
    pub fn support_max(&self) -> f64 {
        match self {
            DistancePdf::Gaussian { mean, sigma } => mean + 5.0 * sigma,
            DistancePdf::Empirical {
                origin,
                bin_width,
                densities,
                ..
            } => origin + bin_width * densities.len() as f64,
        }
    }
}

/// Widest bin-distance the lookup fallback will bridge, dB.
const MAX_FALLBACK_DB: i16 = 3;

/// Resolves an observed RSSI to the calibrated bin a lookup should use:
/// the exact bin when present, otherwise — within ±[`MAX_FALLBACK_DB`] —
/// the present bin whose centre is nearest the *continuous* RSSI value,
/// ties broken towards the stronger bin. [`RadialConstraintTable`] resolves
/// through its [`PdfTable`], so the two stay bit-for-bit consistent.
fn nearest_present_bin(rssi: Dbm, present: impl Fn(i16) -> bool) -> Option<i16> {
    let key = rssi.bin().0;
    if present(key) {
        return Some(key);
    }
    let mut best: Option<(f64, i16)> = None;
    for k in (key - MAX_FALLBACK_DB)..=(key + MAX_FALLBACK_DB) {
        if k == key || !present(k) {
            continue;
        }
        let dist = (f64::from(k) - rssi.value()).abs();
        let replace = best.is_none_or(|(bd, bk)| dist < bd || (dist == bd && k > bk));
        if replace {
            best = Some((dist, k));
        }
    }
    best.map(|(_, k)| k)
}

/// The PDF Table: integer-dBm RSSI bin → distance PDF.
///
/// Stored as a dense vector indexed by bin offset from the weakest
/// calibrated bin, so the hot-path [`lookup`](PdfTable::lookup) is an
/// index computation instead of a tree walk (calibrated tables span a
/// contiguous ~50 dB, so density is essentially free).
///
/// # Examples
///
/// ```
/// use cocoa_net::calibration::{calibrate, CalibrationConfig};
/// use cocoa_net::channel::RfChannel;
/// use cocoa_sim::rng::SeedSplitter;
///
/// let channel = RfChannel::default();
/// let mut rng = SeedSplitter::new(7).stream("calibration", 0);
/// let table = calibrate(&channel, &CalibrationConfig::default(), &mut rng);
/// // A strong beacon implies a short, tightly-bounded distance.
/// let rssi = channel.mean_rssi(10.0);
/// let pdf = table.lookup(rssi).expect("bin present");
/// assert!((pdf.mean() - 10.0).abs() < 3.0);
/// assert!(pdf.is_gaussian());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdfTable {
    /// Weakest calibrated bin; `slots[i]` holds bin `min_bin + i`.
    min_bin: i16,
    slots: Vec<Option<DistancePdf>>,
    /// Bins at/above this RSSI kept the Gaussian form (−80 dBm for the
    /// default channel, per the paper).
    gaussian_floor_dbm: f64,
}

impl PdfTable {
    /// Builds a table directly from per-bin PDFs (mainly for tests).
    pub fn from_entries(
        entries: impl IntoIterator<Item = (RssiBin, DistancePdf)>,
        gaussian_floor_dbm: f64,
    ) -> Self {
        let bins: BTreeMap<i16, DistancePdf> = entries.into_iter().map(|(b, p)| (b.0, p)).collect();
        Self::from_sorted(bins.into_iter().collect(), gaussian_floor_dbm)
    }

    /// Builds a table from per-bin PDFs in strictly increasing bin order.
    fn from_sorted(bins: Vec<(i16, DistancePdf)>, gaussian_floor_dbm: f64) -> Self {
        let (min_bin, max_bin) = match (bins.first(), bins.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => (lo, hi),
            _ => {
                return PdfTable {
                    min_bin: 0,
                    slots: Vec::new(),
                    gaussian_floor_dbm,
                }
            }
        };
        let mut slots = vec![None; bin_offset(max_bin, min_bin) as usize + 1];
        for (k, pdf) in bins {
            slots[bin_offset(k, min_bin) as usize] = Some(pdf);
        }
        PdfTable {
            min_bin,
            slots,
            gaussian_floor_dbm,
        }
    }

    /// The PDF stored for exactly `bin`, with no fallback.
    #[inline]
    pub fn get(&self, bin: RssiBin) -> Option<&DistancePdf> {
        let idx = usize::try_from(bin_offset(bin.0, self.min_bin)).ok()?;
        self.slots.get(idx)?.as_ref()
    }

    /// The calibrated bin an observed RSSI resolves to: the exact bin when
    /// calibrated, otherwise the nearest calibrated bin within ±3 dB of the
    /// continuous RSSI value (ties towards the stronger bin). Deterministic
    /// and symmetric — sparse bins happen at the extremes of the sweep.
    pub fn resolve(&self, rssi: Dbm) -> Option<RssiBin> {
        nearest_present_bin(rssi, |k| self.get(RssiBin(k)).is_some()).map(RssiBin)
    }

    /// Looks up the PDF for an observed RSSI, falling back to the nearest
    /// bin within ±3 dB (see [`resolve`](PdfTable::resolve)).
    pub fn lookup(&self, rssi: Dbm) -> Option<&DistancePdf> {
        self.resolve(rssi).and_then(|b| self.get(b))
    }

    /// Number of calibrated bins.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Iterates over `(bin, pdf)` in increasing RSSI order.
    pub fn entries(&self) -> impl Iterator<Item = (RssiBin, &DistancePdf)> {
        self.slots.iter().enumerate().filter_map(move |(i, s)| {
            let bin = (i32::from(self.min_bin) + i as i32) as i16;
            s.as_ref().map(|p| (RssiBin(bin), p))
        })
    }

    /// The RSSI below which bins are empirical rather than Gaussian.
    pub fn gaussian_floor(&self) -> Dbm {
        Dbm::new(self.gaussian_floor_dbm)
    }
}

/// Structure-of-arrays linear-interpolation table for the lane-packed f64
/// grid kernel, padded to a power-of-two length.
///
/// `val[k] = values[k]` and `del[k] = fl(values[k+1] − values[k])` — the
/// very difference the scalar interpolation evaluates inline — with
/// `del[last] = 0` as a branch-free clamp sentinel. Both arrays are padded
/// (with the last value / zero) to the next power of two: the kernels
/// index with `bits & (len − 1)`, which the optimizer can prove in-bounds
/// without per-lane checks, and the index itself never exceeds `last`
/// because the lattice coordinate is clamped in the float domain first.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTable {
    val: Vec<f64>,
    del: Vec<f64>,
    lastf: f64,
}

impl LaneTable {
    /// Builds the padded table from raw lattice samples (non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        let mut val = Vec::with_capacity(values.len().next_power_of_two());
        val.extend_from_slice(values);
        Self::from_samples(val)
    }

    /// [`LaneTable::from_values`] on samples already in a vector, padded in
    /// place (no reallocation when its capacity is the padded length).
    fn from_samples(mut val: Vec<f64>) -> Self {
        assert!(!val.is_empty(), "lane table needs at least one sample");
        let n = val.len();
        let pad = n.next_power_of_two();
        let mut del = Vec::with_capacity(pad);
        del.extend(val.windows(2).map(|w| w[1] - w[0]));
        del.resize(pad, 0.0);
        val.resize(pad, val[n - 1]);
        LaneTable {
            val,
            del,
            lastf: (n - 1) as f64,
        }
    }

    /// Adds `floor` to every sample (the padding included) and recomputes
    /// the differences from the new samples: the table
    /// [`LaneTable::from_values`] builds from the offset samples.
    fn offset(&mut self, floor: f64) {
        for v in &mut self.val {
            *v += floor;
        }
        let n = self.lastf as usize + 1;
        for (d, w) in self.del.iter_mut().zip(self.val[..n].windows(2)) {
            *d = w[1] - w[0];
        }
    }

    /// Sample values, padded with the final sample.
    #[inline]
    pub fn val(&self) -> &[f64] {
        &self.val
    }

    /// Forward differences, with a zero sentinel at the last real index
    /// and across the padding.
    #[inline]
    pub fn del(&self) -> &[f64] {
        &self.del
    }

    /// The last real sample index as a float — the clamp limit for the
    /// lattice coordinate.
    #[inline]
    pub fn lastf(&self) -> f64 {
        self.lastf
    }
}

/// A 1-D radial density profile: `f(d)` pre-sampled on a uniform distance
/// lattice, evaluated by linear interpolation.
///
/// This is the engine behind the Bayesian grid update:
/// a beacon constraint depends on the cell only through its distance to
/// the beacon, so the per-cell transcendental work (`exp`, histogram
/// indexing) collapses into one profile lookup. Distances beyond the last
/// sample clamp to the final value, so a profile built out to the area
/// diagonal with a floor baked in behaves like `pdf.density(d) + floor`
/// everywhere the grid can ask.
///
/// The samples are stored once, in the [`LaneTable`] the lane-packed
/// grid kernel reads: its `val` holds them, padded.
#[derive(Debug, Clone, PartialEq)]
pub struct RadialProfile {
    step: f64,
    inv_step: f64,
    /// Number of lattice points; the table pads past them.
    len: usize,
    /// `lane.val()[k]` = profile value at distance `k * step`.
    lane: LaneTable,
}

impl RadialProfile {
    /// Samples `f` at `0, step, 2·step, …` out to at least `max_d`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive/non-finite `step` or a negative `max_d`.
    pub fn from_fn(step: f64, max_d: f64, f: impl Fn(f64) -> f64) -> Self {
        assert!(
            step > 0.0 && step.is_finite(),
            "profile step must be positive"
        );
        assert!(
            max_d >= 0.0 && max_d.is_finite(),
            "profile extent must be non-negative"
        );
        let n = (max_d / step).ceil() as usize + 1;
        let mut values = Vec::with_capacity((n + 1).next_power_of_two());
        values.extend((0..=n).map(|k| f(k as f64 * step)));
        RadialProfile {
            step,
            inv_step: 1.0 / step,
            len: values.len(),
            lane: LaneTable::from_samples(values),
        }
    }

    /// The profile value at distance `d` (linear interpolation between
    /// lattice points; clamped to the end values outside `[0, max_distance]`).
    #[inline]
    pub fn density(&self, d: f64) -> f64 {
        if d <= 0.0 {
            return self.lane.val[0];
        }
        self.density_scaled(d * self.inv_step)
    }

    /// The profile value at the pre-scaled lattice coordinate `t = d / step`
    /// (i.e. `density(t * step)`, without re-dividing by the step).
    ///
    /// The grid update computes `t` for a whole row in a vectorizable
    /// pass (`t = ‖cell − center‖ · inv_step`) and then resolves densities
    /// through this entry point; for any `t ≥ 0` the result is identical to
    /// [`density`](Self::density) of the corresponding distance.
    #[inline]
    pub fn density_scaled(&self, t: f64) -> f64 {
        let values = &self.lane.val;
        let i = t as usize;
        if i + 1 >= self.len {
            return values[self.len - 1];
        }
        let a = values[i];
        a + (values[i + 1] - a) * (t - i as f64)
    }

    /// `1 / step` — the factor converting a distance to a lattice
    /// coordinate for [`density_scaled`](Self::density_scaled).
    #[inline]
    pub fn inv_step(&self) -> f64 {
        self.inv_step
    }

    /// Adds a constant floor to every sample (used to bake the Bayesian
    /// constraint floor into the cached profile).
    pub fn offset(mut self, floor: f64) -> Self {
        self.lane.offset(floor);
        self
    }

    /// The SoA interpolation table for the lane-packed f64 kernel.
    pub fn lane_table(&self) -> &LaneTable {
        &self.lane
    }

    /// Distance between lattice points, metres.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Distance of the last lattice point, metres.
    pub fn max_distance(&self) -> f64 {
        (self.len - 1) as f64 * self.step
    }

    /// Number of lattice points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the profile has no lattice points (never true: a profile
    /// holds at least one sample).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl DistancePdf {
    /// Pre-samples this PDF's density into a [`RadialProfile`] on a `step`
    /// lattice reaching at least `max_d`.
    pub fn radial_profile(&self, step: f64, max_d: f64) -> RadialProfile {
        RadialProfile::from_fn(step, max_d, |d| self.density(d))
    }
}

thread_local! {
    static PROFILE_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many radial profiles this thread's [`RadialConstraintTable`]s have
/// sampled. Tests read it to pin that a run builds only the profiles its
/// beacons resolve to.
#[doc(hidden)]
pub fn radial_profile_builds() -> u64 {
    PROFILE_BUILDS.with(Cell::get)
}

/// One floored [`RadialProfile`] per calibrated RSSI bin, sharing the
/// [`PdfTable`]'s dense layout and its exact lookup-fallback rule.
///
/// A bin's profile is sampled the first time a lookup resolves to it and
/// kept for the table's life, so a run builds only the bins its robots
/// hear, and a run that never looks one up (the gridless estimators)
/// builds none. Shared by reference across every robot of a run.
#[derive(Debug, Clone)]
pub struct RadialConstraintTable {
    table: PdfTable,
    step: f64,
    max_d: f64,
    floor: f64,
    /// `profiles[i]` serves `table.slots[i]`, built on first use.
    profiles: Vec<OnceLock<RadialProfile>>,
}

impl RadialConstraintTable {
    /// A table serving every bin of `table`, each sampled on a `step`
    /// lattice out to `max_d` (typically the deployment area's diagonal)
    /// with `floor` added to every sample. Samples nothing yet.
    pub fn new(table: &PdfTable, step: f64, max_d: f64, floor: f64) -> Self {
        RadialConstraintTable {
            table: table.clone(),
            step,
            max_d,
            floor,
            profiles: (0..table.slots.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The profile for exactly `bin`, with no fallback; sampled on the
    /// first call for a calibrated bin.
    #[inline]
    pub fn get(&self, bin: RssiBin) -> Option<&RadialProfile> {
        let pdf = self.table.get(bin)?;
        let cell = &self.profiles[bin_offset(bin.0, self.table.min_bin) as usize];
        Some(cell.get_or_init(|| {
            PROFILE_BUILDS.with(|n| n.set(n.get() + 1));
            pdf.radial_profile(self.step, self.max_d).offset(self.floor)
        }))
    }

    /// Looks up the profile for an observed RSSI with the same fallback
    /// rule as [`PdfTable::resolve`] — the two tables always agree on which
    /// bin serves a given RSSI.
    pub fn lookup(&self, rssi: Dbm) -> Option<&RadialProfile> {
        self.resolve(rssi).map(|(_, profile)| profile)
    }

    /// Like [`lookup`](Self::lookup), also naming the bin that serves
    /// `rssi`, so a caller can keep the bin and read its profile back with
    /// [`get`](Self::get) later.
    pub fn resolve(&self, rssi: Dbm) -> Option<(RssiBin, &RadialProfile)> {
        let bin = self.table.resolve(rssi)?;
        self.get(bin).map(|profile| (bin, profile))
    }

    /// Number of calibrated bins served.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no bin is served.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// How far `bin` lies above `min_bin`, without the `i16` overflow of a
/// plain subtraction across the whole dBm range.
fn bin_offset(bin: i16, min_bin: i16) -> i32 {
    i32::from(bin) - i32::from(min_bin)
}

/// Runs the calibration campaign against `channel`.
///
/// Sweeps ground-truth distances, samples the channel at each, buckets the
/// samples by integer-dBm RSSI and fits a distance PDF per bin.
///
/// # Panics
///
/// Panics if the configuration is degenerate (non-positive step, zero
/// samples, inverted range).
pub fn calibrate<R: Rng + ?Sized>(
    channel: &RfChannel,
    config: &CalibrationConfig,
    rng: &mut R,
) -> PdfTable {
    assert!(config.step_m > 0.0, "calibration step must be positive");
    assert!(
        config.samples_per_distance > 0,
        "need at least one sample per distance"
    );
    assert!(
        config.histogram_bin_m > 0.0,
        "histogram bin must be positive"
    );
    let d_max = config.d_max.unwrap_or_else(|| channel.max_range());
    assert!(
        config.d_min > 0.0 && config.d_min < d_max,
        "invalid calibration range"
    );

    // Collect (distance) samples per RSSI bin: `by_bin[i]` holds bin
    // `min_bin + i`. Samples below the receiver sensitivity are never
    // actually received, so no PDF is learned for them, and a detectable
    // sample never rounds below the sensitivity's own bin.
    let min_bin = Dbm::new(channel.params().sensitivity_dbm).bin().0;
    let mut by_bin: Vec<Vec<f64>> = Vec::new();
    let mut d = config.d_min;
    while d <= d_max {
        let law = channel.rssi_law(d);
        for _ in 0..config.samples_per_distance {
            let rssi = law.sample(rng);
            if channel.is_detectable(rssi) {
                let i = usize::try_from(bin_offset(rssi.bin().0, min_bin))
                    .expect("a detectable sample rounds to the sensitivity's bin or above");
                if i >= by_bin.len() {
                    by_bin.resize_with(i + 1, Vec::new);
                }
                by_bin[i].push(d);
            }
        }
        d += config.step_m;
    }

    let gaussian_floor = channel.gaussian_rssi_floor().value();
    let mut bins = Vec::new();
    for (i, samples) in by_bin.into_iter().enumerate() {
        if samples.len() < config.min_samples_per_bin {
            continue;
        }
        let bin = (i32::from(min_bin) + i as i32) as i16;
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        let sigma = var.sqrt().max(0.25);
        let pdf = if f64::from(bin) >= gaussian_floor {
            DistancePdf::Gaussian { mean, sigma }
        } else {
            // Histogram over the sample support.
            let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let width = config.histogram_bin_m;
            let cells = (((hi - lo) / width).ceil() as usize).max(1);
            let mut counts = vec![0usize; cells];
            for &s in &samples {
                let idx = (((s - lo) / width) as usize).min(cells - 1);
                counts[idx] += 1;
            }
            let densities: Vec<f64> = counts.iter().map(|&c| c as f64 / (n * width)).collect();
            DistancePdf::Empirical {
                origin: lo,
                bin_width: width,
                densities,
                mean,
                sigma,
            }
        };
        bins.push((bin, pdf));
    }
    PdfTable::from_sorted(bins, gaussian_floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_sim::rng::SeedSplitter;

    fn table() -> (RfChannel, PdfTable) {
        let ch = RfChannel::default();
        let mut rng = SeedSplitter::new(100).stream("calibration", 0);
        let t = calibrate(&ch, &CalibrationConfig::default(), &mut rng);
        (ch, t)
    }

    #[test]
    fn near_field_bins_are_gaussian_far_field_empirical() {
        let (ch, t) = table();
        let strong = t.lookup(ch.mean_rssi(10.0)).expect("strong bin");
        assert!(strong.is_gaussian(), "10 m bin should be Gaussian");
        let weak = t.lookup(ch.mean_rssi(80.0)).expect("weak bin");
        assert!(!weak.is_gaussian(), "80 m bin should be empirical");
    }

    #[test]
    fn pdf_means_track_true_distance() {
        let (ch, t) = table();
        for d in [5.0, 10.0, 20.0, 35.0] {
            let pdf = t.lookup(ch.mean_rssi(d)).expect("bin");
            assert!(
                (pdf.mean() - d).abs() < 0.35 * d + 2.0,
                "bin for {d} m has mean {}",
                pdf.mean()
            );
        }
    }

    #[test]
    fn sigma_grows_with_distance() {
        let (ch, t) = table();
        let near = t.lookup(ch.mean_rssi(5.0)).unwrap().sigma();
        let far = t.lookup(ch.mean_rssi(35.0)).unwrap().sigma();
        assert!(far > near, "near sigma {near}, far sigma {far}");
    }

    #[test]
    fn gaussian_density_integrates_to_one() {
        let pdf = DistancePdf::Gaussian {
            mean: 10.0,
            sigma: 2.0,
        };
        let mut integral = 0.0;
        let step = 0.01;
        let mut d = 0.0;
        while d < 30.0 {
            integral += pdf.density(d) * step;
            d += step;
        }
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn empirical_density_integrates_to_one() {
        let (ch, t) = table();
        let pdf = t.lookup(ch.mean_rssi(90.0)).expect("far bin");
        let mut integral = 0.0;
        let step = 0.05;
        let mut d = 0.0;
        while d < pdf.support_max() + 5.0 {
            integral += pdf.density(d) * step;
            d += step;
        }
        assert!((integral - 1.0).abs() < 2e-2, "integral {integral}");
    }

    #[test]
    fn lookup_falls_back_to_nearby_bin() {
        let t = PdfTable::from_entries(
            [(
                RssiBin(-50),
                DistancePdf::Gaussian {
                    mean: 5.0,
                    sigma: 1.0,
                },
            )],
            -80.0,
        );
        assert!(t.lookup(Dbm::new(-50.0)).is_some());
        assert!(t.lookup(Dbm::new(-52.4)).is_some(), "±3 dB fallback");
        assert!(t.lookup(Dbm::new(-60.0)).is_none(), "too far to fall back");
    }

    #[test]
    fn lookup_fallback_is_symmetric_and_nearest() {
        // Two calibrated bins straddling a gap: the fallback must pick the
        // bin nearest the *continuous* RSSI, not favour the weaker side.
        let t = PdfTable::from_entries(
            [
                (
                    RssiBin(-52),
                    DistancePdf::Gaussian {
                        mean: 9.0,
                        sigma: 1.0,
                    },
                ),
                (
                    RssiBin(-48),
                    DistancePdf::Gaussian {
                        mean: 5.0,
                        sigma: 1.0,
                    },
                ),
            ],
            -80.0,
        );
        // −49.6 is 1.6 dB from −48 and 2.4 dB from −52.
        assert_eq!(t.resolve(Dbm::new(-49.6)), Some(RssiBin(-48)));
        // The mirrored observation resolves to the mirrored bin.
        assert_eq!(t.resolve(Dbm::new(-50.4)), Some(RssiBin(-52)));
        // A dead-centre tie goes to the stronger bin, deterministically.
        assert_eq!(t.resolve(Dbm::new(-50.0)), Some(RssiBin(-48)));
    }

    #[test]
    fn get_is_exact_and_resolve_matches_lookup() {
        let (ch, t) = table();
        for tenth in -950..-400 {
            let rssi = Dbm::new(f64::from(tenth) / 10.0);
            let via_lookup = t.lookup(rssi).map(|p| p as *const _);
            let via_resolve = t
                .resolve(rssi)
                .and_then(|b| t.get(b))
                .map(|p| p as *const _);
            assert_eq!(via_lookup, via_resolve, "at {rssi:?}");
        }
        let _ = ch;
    }

    #[test]
    fn radial_profile_matches_pdf_on_lattice_and_interpolates() {
        let pdf = DistancePdf::Gaussian {
            mean: 10.0,
            sigma: 2.0,
        };
        let profile = pdf.radial_profile(0.05, 40.0);
        assert!(profile.max_distance() >= 40.0);
        for k in 0..profile.len() {
            let d = k as f64 * profile.step();
            // `d * (1/step)` does not round back to exactly `k`, so allow
            // the one-ulp interpolation residue.
            let err = (profile.density(d) - pdf.density(d)).abs();
            assert!(err < 1e-12, "lattice point {d}: err {err}");
        }
        // Off-lattice points are within the linear-interpolation error bound.
        let mut d = 0.012;
        while d < 40.0 {
            let err = (profile.density(d) - pdf.density(d)).abs();
            assert!(err < 1e-4, "interp error {err} at {d}");
            d += 0.0173;
        }
        // Beyond the lattice the profile clamps to the tail value.
        assert_eq!(
            profile.density(1e6),
            profile.density(profile.max_distance())
        );
    }

    #[test]
    fn radial_profile_offset_bakes_in_floor() {
        let pdf = DistancePdf::Gaussian {
            mean: 10.0,
            sigma: 2.0,
        };
        let raw = pdf.radial_profile(0.1, 30.0);
        let floored: Vec<f64> = raw.lane_table().val()[..raw.len()]
            .iter()
            .map(|v| v + 1e-6)
            .collect();
        let profile = raw.offset(1e-6);
        assert!((profile.density(10.0) - (pdf.density(10.0) + 1e-6)).abs() < 1e-15);
        assert!((profile.density(29.9) - (pdf.density(29.9) + 1e-6)).abs() < 1e-9);
        // Offsetting in place gives the table built from the offset samples.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let expected = LaneTable::from_values(&floored);
        let lane = profile.lane_table();
        assert_eq!(bits(lane.val()), bits(expected.val()));
        assert_eq!(bits(lane.del()), bits(expected.del()));
        assert_eq!(lane.lastf().to_bits(), expected.lastf().to_bits());
    }

    #[test]
    fn radial_table_agrees_with_pdf_table_resolution() {
        let (_, t) = table();
        let step = 0.01;
        let radial = RadialConstraintTable::new(&t, step, 300.0, 1e-6);
        assert_eq!(radial.len(), t.len());
        for tenth in -950..-400 {
            let rssi = Dbm::new(f64::from(tenth) / 10.0);
            match (t.resolve(rssi), radial.lookup(rssi)) {
                (Some(bin), Some(profile)) => {
                    // Probe on the sampling lattice so only the identity of
                    // the PDF (not interpolation error) is under test.
                    let pdf = t.get(bin).expect("resolved bin present");
                    let d = (pdf.mean() / step).round() * step;
                    let err = (profile.density(d) - (pdf.density(d) + 1e-6)).abs();
                    assert!(err < 1e-9, "profile diverges from pdf at {rssi:?}");
                }
                (None, None) => {}
                (a, b) => panic!("tables disagree at {rssi:?}: {a:?} vs {}", b.is_some()),
            }
        }
    }

    /// A table samples a bin's profile on the first lookup that resolves
    /// to it, to the bits the eager expression gives, and resolves every
    /// RSSI to the bin [`PdfTable::resolve`] picks.
    #[test]
    fn radial_profiles_are_built_on_first_lookup() {
        let (ch, t) = table();
        let (step, max_d, floor) = (0.05, 283.0, 1e-6);
        let radial = RadialConstraintTable::new(&t, step, max_d, floor);
        let built = |radial: &RadialConstraintTable| -> Vec<i16> {
            t.entries()
                .map(|(bin, _)| bin)
                .filter(|bin| {
                    radial.profiles[bin_offset(bin.0, t.min_bin) as usize]
                        .get()
                        .is_some()
                })
                .map(|bin| bin.0)
                .collect()
        };
        let builds = radial_profile_builds();
        assert!(built(&radial).is_empty(), "a fresh table builds nothing");

        let rssi = ch.mean_rssi(20.0);
        let bin = t.resolve(rssi).expect("a calibrated bin");
        radial.lookup(rssi).expect("a profile");
        radial.lookup(rssi).expect("a profile");
        assert_eq!(built(&radial), [bin.0], "one lookup builds its bin");
        assert_eq!(radial_profile_builds(), builds + 1, "and builds it once");

        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (bin, pdf) in t.entries() {
            let lazy = radial.get(bin).expect("calibrated").lane_table();
            let eager = pdf.radial_profile(step, max_d).offset(floor);
            let eager = eager.lane_table();
            assert_eq!(bits(lazy.val()), bits(eager.val()), "bin {bin:?}");
            assert_eq!(bits(lazy.del()), bits(eager.del()), "bin {bin:?}");
            assert_eq!(lazy.lastf().to_bits(), eager.lastf().to_bits());
        }
        assert_eq!(radial_profile_builds(), builds + t.len() as u64);

        for quarter in -400..=-80 {
            let rssi = Dbm::new(f64::from(quarter) / 4.0);
            let via_lookup = radial.lookup(rssi).map(|p| p as *const RadialProfile);
            let via_resolve = t
                .resolve(rssi)
                .and_then(|bin| radial.get(bin))
                .map(|p| p as *const RadialProfile);
            assert_eq!(via_lookup, via_resolve, "at {rssi:?}");
        }
    }

    #[test]
    fn support_max_bounds_density() {
        let (ch, t) = table();
        for (_, pdf) in t.entries() {
            let beyond = pdf.support_max() + 1.0;
            assert!(pdf.density(beyond) < 1e-4, "density beyond support");
        }
        let _ = ch;
    }

    #[test]
    fn deterministic_given_seed() {
        let ch = RfChannel::default();
        let cfg = CalibrationConfig {
            samples_per_distance: 50,
            ..Default::default()
        };
        let a = calibrate(&ch, &cfg, &mut SeedSplitter::new(5).stream("c", 0));
        let b = calibrate(&ch, &cfg, &mut SeedSplitter::new(5).stream("c", 0));
        assert_eq!(a, b);
    }

    #[test]
    fn table_covers_a_wide_rssi_span() {
        let (_, t) = table();
        assert!(t.len() > 30, "expected a rich table, got {} bins", t.len());
        let bins: Vec<i16> = t.entries().map(|(b, _)| b.0).collect();
        assert!(*bins.first().unwrap() < -85);
        assert!(*bins.last().unwrap() > -45);
    }
}
