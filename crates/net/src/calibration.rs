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

use cocoa_sim::dist::{Exponential, Normal};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::channel::{RfChannel, RssiLaw};
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
    /// (the range over which Fig. 1 plots a bin).
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

    /// A distance from which on `density(d) + floor == floor` bit for bit,
    /// derived from the parameters alone; NaN or infinite where they bound
    /// no flat tail, as for a sigma or width that is not positive or a NaN
    /// floor.
    fn reach(&self, floor: f64) -> f64 {
        match self {
            DistancePdf::Gaussian { mean, sigma } => {
                // `floor + x` rounds back to `floor` while `x` is under half
                // the gap above it. Solve for the density falling to a
                // sixteenth of that gap, which leaves a factor of 8 for the
                // rounding of `density`'s `exp` and division, and step one
                // metre further for the rounding of this `ln` and `sqrt`.
                let gap = floor.next_up() - floor;
                let peak = sigma * (2.0 * std::f64::consts::PI).sqrt();
                let z2 = -2.0 * (peak * gap / 16.0).ln();
                // Negative when even the peak density is under the target;
                // a NaN (a sigma that is not positive) must stay NaN.
                let z = if z2 < 0.0 { 0.0 } else { z2.sqrt() };
                mean + sigma * z + 1.0
            }
            // `density` is zero past the last cell; one more cell covers the
            // rounding of the cell index.
            DistancePdf::Empirical {
                origin,
                bin_width,
                densities,
                ..
            } if *bin_width > 0.0 => origin + bin_width * (densities.len() + 1) as f64,
            // A width that is not positive gives no bound: a negative one
            // reads the first cell at every distance past the origin.
            DistancePdf::Empirical { .. } => f64::INFINITY,
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
/// sample clamp to the final value, so a profile with a floor baked in,
/// sampled out to where `pdf.density(d) + floor` turns exactly flat (see
/// [`RadialConstraintTable`]), behaves like that sum everywhere the grid
/// can ask.
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
    /// [`density`](Self::density) of the corresponding distance. Every
    /// coordinate at or past the last lattice point, infinity included,
    /// returns the last sample.
    #[inline]
    pub fn density_scaled(&self, t: f64) -> f64 {
        let values = &self.lane.val;
        // Clamped in the float domain, as the lane kernels clamp: `t as
        // usize` saturates from 2⁶⁴ on, and `i + 1` would then overflow.
        let i = t.min(self.lane.lastf) as usize;
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
///
/// A profile stops at its bin's *reach*, where `pdf.density(d) + floor`
/// turns into the floor to the last bit (a Gaussian bin some ten sigmas
/// past its mean, an empirical one a cell past its histogram), or at the
/// table's extent if that comes first. Every sample the extent would add
/// past the reach is that floor, and a lookup past a profile's last
/// sample reads that sample, so both lookups return the same bits
/// wherever the grid asks.
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
    /// lattice with `floor` added to every sample, out to the bin's reach
    /// but no further than `max_d` (typically the deployment area's
    /// diagonal). Samples nothing yet.
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
            // A NaN reach bounds nothing: sample out to the extent.
            let reach = pdf.reach(self.floor);
            let extent = if reach < self.max_d {
                reach.max(0.0)
            } else {
                self.max_d
            };
            pdf.radial_profile(self.step, extent).offset(self.floor)
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
/// The table keeps only each sample's bin and whether it is detectable,
/// so most samples never need their exact value. Each distance's samples
/// are drawn in three passes: their uniforms, in the order
/// [`RssiLaw::sample`] draws them; every value at once from bounded
/// polynomials; and, for the few values too close to a bin edge or the
/// sensitivity for the polynomials' error to decide, the exact value
/// `RssiLaw::sample` returns. The table and the stream's end are those of
/// [`calibrate_reference`], bit for bit.
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
    let mut draws = Draws::default();
    campaign(channel, config, |law, tally| {
        draws.sample(law, config.samples_per_distance, rng, tally);
    })
}

/// The campaign of [`calibrate`] with every sample drawn by
/// [`RssiLaw::sample`], one at a time: the reference `calibrate` must
/// match bit for bit, kept for the equivalence tests and the speedup
/// benchmark; no run selects it.
#[doc(hidden)]
pub fn calibrate_reference<R: Rng + ?Sized>(
    channel: &RfChannel,
    config: &CalibrationConfig,
    rng: &mut R,
) -> PdfTable {
    campaign(channel, config, |law, tally| {
        for _ in 0..config.samples_per_distance {
            tally.add(law.sample(rng));
        }
    })
}

/// The campaign's sweep: `sample` draws each distance's samples into the
/// tally, which fits the table.
fn campaign(
    channel: &RfChannel,
    config: &CalibrationConfig,
    mut sample: impl FnMut(&RssiLaw, &mut Tally),
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
    let mut tally = Tally::new(channel);
    let mut d = config.d_min;
    while d <= d_max {
        sample(&channel.rssi_law(d), &mut tally);
        tally.end_distance(d);
        d += config.step_m;
    }
    tally.fit(config, channel.gaussian_rssi_floor().value())
}

/// The campaign's detectable samples, by RSSI bin from the sensitivity's
/// bin up (a detectable sample never rounds below it): for each bin, the
/// distances its samples were drawn at, in sweep order, with how many.
struct Tally<'c> {
    channel: &'c RfChannel,
    min_bin: i16,
    /// Samples per slot at the distance being drawn: slot 0 counts the
    /// undetectable ones, slot `i + 1` bin `min_bin + i`.
    here: Vec<usize>,
    /// `runs[i]` holds bin `min_bin + i`'s `(distance, samples)`.
    runs: Vec<Vec<(f64, usize)>>,
}

impl<'c> Tally<'c> {
    fn new(channel: &'c RfChannel) -> Self {
        Tally {
            channel,
            min_bin: Dbm::new(channel.params().sensitivity_dbm).bin().0,
            here: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Counts one sample drawn at the current distance. Samples below the
    /// receiver sensitivity are never actually received, so no PDF is
    /// learned for them.
    #[inline]
    fn add(&mut self, rssi: Dbm) {
        let slot = if self.channel.is_detectable(rssi) {
            let i = usize::try_from(bin_offset(rssi.bin().0, self.min_bin))
                .expect("a detectable sample rounds to the sensitivity's bin or above");
            i + 1
        } else {
            0
        };
        self.count(slot);
    }

    /// Counts one sample of the current distance in `slot`.
    #[inline]
    fn count(&mut self, slot: usize) {
        if slot >= self.here.len() {
            self.here.resize(slot + 1, 0);
        }
        self.here[slot] += 1;
    }

    /// Closes the current distance, `d`.
    fn end_distance(&mut self, d: f64) {
        let Some((undetectable, bins)) = self.here.split_first_mut() else {
            return;
        };
        *undetectable = 0;
        if self.runs.len() < bins.len() {
            self.runs.resize_with(bins.len(), Vec::new);
        }
        for (runs, here) in self.runs.iter_mut().zip(bins) {
            if *here > 0 {
                runs.push((d, *here));
                *here = 0;
            }
        }
    }

    /// Fits a distance PDF to every bin with enough samples: a Gaussian at
    /// or above `gaussian_floor`, a histogram below it.
    ///
    /// A bin's samples, in the order they were drawn, are its runs'
    /// distances each repeated its count, so every sum below makes the
    /// same additions in the same order as a fit over the samples one by
    /// one, and gets the same bits.
    fn fit(self, config: &CalibrationConfig, gaussian_floor: f64) -> PdfTable {
        let mut bins = Vec::new();
        for (i, runs) in self.runs.iter().enumerate() {
            let count: usize = runs.iter().map(|&(_, c)| c).sum();
            if count < config.min_samples_per_bin {
                continue;
            }
            let samples = || runs.iter().flat_map(|&(d, c)| std::iter::repeat_n(d, c));
            let bin = (i32::from(self.min_bin) + i as i32) as i16;
            let n = count as f64;
            let mean = samples().sum::<f64>() / n;
            let var = samples().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
            let sigma = var.sqrt().max(0.25);
            let pdf = if f64::from(bin) >= gaussian_floor {
                DistancePdf::Gaussian { mean, sigma }
            } else {
                // Histogram over the sample support.
                let lo = runs.iter().map(|&(d, _)| d).fold(f64::INFINITY, f64::min);
                let hi = runs
                    .iter()
                    .map(|&(d, _)| d)
                    .fold(f64::NEG_INFINITY, f64::max);
                let width = config.histogram_bin_m;
                let cells = (((hi - lo) / width).ceil() as usize).max(1);
                let mut counts = vec![0usize; cells];
                for &(s, c) in runs {
                    let idx = (((s - lo) / width) as usize).min(cells - 1);
                    counts[idx] += c;
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
}

thread_local! {
    static EXACT_DRAWS: Cell<u64> = const { Cell::new(0) };
}

/// How many samples this thread's [`calibrate`] campaigns have had to
/// compute exactly because the polynomials could not tell their bin or
/// detectability apart; the laws that take the per-draw path are not
/// counted. `perf` records the count for its seed.
#[doc(hidden)]
pub fn calibration_exact_draws() -> u64 {
    EXACT_DRAWS.with(Cell::get)
}

/// One distance's samples, structure of arrays: the uniforms each sample
/// drew and the tally slot the polynomials decide for it.
///
/// The polynomials' error bound, derived at [`ln_poly`] and [`cos_turn`]
/// and gathered in [`error_budget`], holds for every uniform a sample can
/// draw. A value farther than [`separation_margin`], at least 10³ budgets,
/// from every bin edge (x.5 dBm) and from the sensitivity lies on the
/// same side of each as the exact value, so it has the exact value's bin
/// and detectability; the rest are recomputed with [`Normal::transform`]
/// and [`Exponential::transform`], the formulas `RssiLaw::sample` applies.
#[derive(Debug, Default)]
struct Draws {
    /// Box–Muller's `u1`, in (0, 1].
    u1: Vec<f64>,
    /// Box–Muller's `u2`, in [0, 1).
    u2: Vec<f64>,
    /// The fade depth's uniform, in (0, 1], after heads; 0 after tails or
    /// before the onset, which draw none.
    fade: Vec<f64>,
    /// Each sample's [`Tally`] slot as the polynomials decide it, or −1
    /// where they cannot.
    slot: Vec<f64>,
}

impl Draws {
    /// Draws `n` samples of `law` into `tally`: the three passes, or one
    /// [`RssiLaw::sample`] per draw for a law the margin cannot separate.
    fn sample<R: Rng + ?Sized>(&mut self, law: &RssiLaw, n: usize, rng: &mut R, tally: &mut Tally) {
        let Some(margin) = separation_margin(law) else {
            for _ in 0..n {
                tally.add(law.sample(rng));
            }
            return;
        };
        self.draw(law, n, rng);
        self.classify(law, margin, tally);
        let mut exact = 0;
        for (i, &slot) in self.slot.iter().enumerate() {
            if slot < 0.0 {
                tally.add(Dbm::new(self.exact(law, i)));
                exact += 1;
            } else {
                tally.count(slot as usize);
            }
        }
        EXACT_DRAWS.with(|c| c.set(c.get() + exact));
    }

    /// The first pass: the uniforms of `n` samples, drawn in the order
    /// [`RssiLaw::sample`] draws them when the shadowing σ is positive —
    /// Box–Muller's two, then past the onset the fade coin and, on heads,
    /// the depth's.
    fn draw<R: Rng + ?Sized>(&mut self, law: &RssiLaw, n: usize, rng: &mut R) {
        for column in [&mut self.u1, &mut self.u2, &mut self.fade] {
            column.resize(n, 0.0);
        }
        let columns = self.u1.iter_mut().zip(&mut self.u2).zip(&mut self.fade);
        for ((u1, u2), fade) in columns {
            (*u1, *u2) = Normal::uniforms(rng);
            *fade = match law.fade {
                Some((prob, _)) if rng.gen_bool(prob) => Exponential::uniform(rng),
                _ => 0.0,
            };
        }
    }

    /// The second pass, in one branch-free loop the compiler vectorizes:
    /// each sample's [`polynomial_value`] and, unless it lies within
    /// `margin` of the sensitivity or a bin edge, its tally slot — 0 below
    /// the sensitivity, its bin's offset from the sensitivity's plus 1
    /// above. Away from an edge the nearest integer is the bin
    /// `Dbm::bin` rounds to, and the magnitudes [`separation_margin`]
    /// admits keep it an exact integer within `i16`.
    fn classify(&mut self, law: &RssiLaw, margin: f64, tally: &Tally) {
        let sensitivity = tally.channel.params().sensitivity_dbm;
        let below_first_bin = f64::from(tally.min_bin) - 1.0;
        self.slot.resize(self.u1.len(), 0.0);
        let draws = self.u1.iter().zip(&self.u2).zip(&self.fade);
        for (slot, ((&u1, &u2), &fade)) in self.slot.iter_mut().zip(draws) {
            let v = polynomial_value(law, u1, u2, fade);
            let nearest = (v + SHIFT) - SHIFT;
            let to_edge = 0.5 - (v - nearest).abs();
            let undecided = ((v - sensitivity).abs() <= margin) | (to_edge <= margin);
            *slot = if undecided {
                -1.0
            } else if v >= sensitivity {
                nearest - below_first_bin
            } else {
                0.0
            };
        }
    }

    /// The third pass, for one sample: the value `RssiLaw::sample`
    /// returned for the uniforms it drew.
    fn exact(&self, law: &RssiLaw, i: usize) -> f64 {
        let mut v = law.shadowing.transform(self.u1[i], self.u2[i]);
        if let Some((_, depth)) = law.fade.filter(|_| self.fade[i] > 0.0) {
            v -= depth.transform(self.fade[i]);
        }
        v
    }
}

/// One sample's value from the polynomials: `RssiLaw::sample`'s formula
/// with [`ln_poly`] and [`cos_turn`] in place of `ln` and `cos`, for the
/// uniforms [`Draws::draw`] stores (`fade` 0 for no fade).
#[inline(always)]
fn polynomial_value(law: &RssiLaw, u1: f64, u2: f64, fade: f64) -> f64 {
    let r = (-2.0 * ln_poly(u1)).sqrt();
    let shadowed = law.shadowing.mean() + law.shadowing.sigma() * r * cos_turn(u2);
    let depth = match law.fade {
        Some((_, depth)) if fade > 0.0 => -depth.mean() * ln_poly(fade),
        _ => 0.0,
    };
    shadowed - depth
}

/// `ln 2`, rounded.
const LN_2: f64 = std::f64::consts::LN_2;

/// The bits of √½, rounded; adding 2⁵² to them gives √2's.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;

/// The significand field of an `f64`.
const SIGNIFICAND: u64 = (1 << 52) - 1;

/// 1.5 · 2⁵², where the spacing of doubles is 1: `(x + SHIFT) - SHIFT`
/// rounds `|x| < 2⁵¹` to the nearest integer, and adding an integer
/// `|k| < 2⁵¹` to SHIFT's bits gives the double `SHIFT + k`.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `1 / (2n + 1)`, n = 0..=8: `atanh(s) = s · Σ s²ⁿ / (2n + 1)`.
const ATANH: [f64; 9] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
];

/// `(−1)ⁿ (π/2)²ⁿ / (2n)!`, n = 0..=7, rounded: `cos(πx/2)` in `x²`.
const COS: [f64; 8] = [
    1.0,
    -1.2337005501361697,
    0.25366950790104803,
    -0.02086348076335296,
    0.0009192602748394266,
    -2.5202042373060607e-05,
    4.710874778818172e-07,
    -6.386603083791852e-09,
];

/// `(−1)ⁿ (π/2)²ⁿ⁺¹ / (2n+1)!`, n = 0..=7, rounded: `sin(πx/2) / x` in
/// `x²`.
const SIN: [f64; 8] = [
    std::f64::consts::FRAC_PI_2,
    -0.6459640975062463,
    0.07969262624616705,
    -0.004681754135318688,
    0.00016044118478735983,
    -3.598843235212085e-06,
    5.692172921967927e-08,
    -6.688035109811468e-10,
];

/// `Σ coeffs[n] · xⁿ` by Horner's rule.
#[inline(always)]
fn horner<const N: usize>(x: f64, coeffs: &[f64; N]) -> f64 {
    coeffs[..N - 1]
        .iter()
        .rev()
        .fold(coeffs[N - 1], |acc, &c| acc * x + c)
}

/// `ln(u)` for `u` in [2⁻⁵³, 1], as `ln(u)·(1 + η)` with `|η| ≤ 2⁻⁴⁶`.
///
/// `u = 2ᵏ·m` with `m` in [√½, √2), split from the bits, so `f = m − 1`
/// is exact, and `ln(m) = 2·atanh(s)` with `s = f / (2 + f)`, `|s| ≤
/// 0.1716`. The series above stops after `s¹⁷`: the terms left out sum to
/// at most `s¹⁸ / (19·(1 − s²)) < 2⁻⁴⁹·⁹` of `atanh(s) / s`, and the
/// rounding of `2 + f`, the division and the 20 operations of the sum
/// add no more than 2⁻⁴⁸ relative, all its terms being positive. For
/// `k = 0` that is the error of `ln(u)` itself; otherwise `|ln(u)| ≥
/// (|k| − ½)·ln 2`, and the rounding of `ln 2`, of `k·ln 2` and of the
/// final sum, each at most 2⁻⁵³ of their size, keep `|η|` under 2⁻⁴⁷.
/// `ln(1)` is 0 exactly.
#[inline(always)]
fn ln_poly(u: f64) -> f64 {
    let ix = u.to_bits().wrapping_sub(SQRT_HALF_BITS);
    // k = ⌊log₂(u/√½)⌋ sits in the exponent field of `ix`.
    let k = f64::from_bits(SHIFT.to_bits().wrapping_add(((ix as i64) >> 52) as u64)) - SHIFT;
    let f = f64::from_bits((ix & SIGNIFICAND) + SQRT_HALF_BITS) - 1.0;
    let s = f / (2.0 + f);
    k * LN_2 + 2.0 * s * horner(s * s, &ATANH)
}

/// `cos(2πu)` for `u` in [0, 1), within 2⁻⁴⁶.
///
/// The argument folds exactly: `4u` and its nearest integer `q` are exact,
/// so is `x = 4u − q` with `|x| ≤ ½`, and `2πu = q·π/2 + πx/2`, an eighth
/// of a turn at most from a quarter-turn point. The Taylor series of
/// `cos(πx/2)` and `sin(πx/2)` above stop with the terms left out under
/// `(π/4)¹⁶ / 16! < 2⁻⁴⁹·⁸` and `(π/4)¹⁷ / 17!`, and the rounding of the
/// coefficients, of `x²` and of 16 Horner operations on sums of at most
/// `cosh(π/4)` adds no more than 2⁻⁴⁷.
#[inline(always)]
fn cos_turn(u: f64) -> f64 {
    let t = 4.0 * u;
    let q = (t + SHIFT) - SHIFT;
    let x = t - q;
    let x2 = x * x;
    let (cos, sin) = (horner(x2, &COS), x * horner(x2, &SIN));
    // cos(qπ/2 + φ) is cos φ, −sin φ, −cos φ, sin φ for q = 0, 1, 2, 3
    // (and q = 4 is q = 0).
    let v = if q == 1.0 || q == 3.0 { sin } else { cos };
    if q == 1.0 || q == 2.0 {
        -v
    } else {
        v
    }
}

/// `|mean| + 9σ + 37·(fade mean)` of `law`, dB: every uniform a sample
/// draws has `r = √(−2 ln u₁) ≤ 9` and `|ln u| ≤ 37`, so this bounds
/// each term of a sample's value.
fn magnitude(law: &RssiLaw) -> f64 {
    let fade_mean = law.fade.map_or(0.0, |(_, depth)| depth.mean());
    law.shadowing.mean().abs() + 9.0 * law.shadowing.sigma() + 37.0 * fade_mean
}

/// The most the polynomials' value of one sample of `law` can differ
/// from `RssiLaw::sample`'s, dB.
///
/// [`ln_poly`]'s relative 2⁻⁴⁶ moves `r` by at most 2⁻⁴⁷ of it (its square
/// root halves it) and the fade's `ln` by 37·2⁻⁴⁶, and [`cos_turn`]'s
/// 2⁻⁴⁶ moves `r·cos` by at most 9·2⁻⁴⁶. libm's `ln` and `cos`, and the
/// rounding of `2π·u₂`, err by under 2⁻⁵⁰ of the same sizes, and each
/// product and sum rounds by 2⁻⁵³ of its size. So the two values differ
/// by under 2⁻⁴³ of the law's [`magnitude`]. The budget takes 2⁻⁴⁰ of the
/// magnitude plus one: the 1 covers the edge test's own rounding when the
/// magnitudes are small.
fn error_budget(law: &RssiLaw) -> f64 {
    (1.0 + magnitude(law)) * 2f64.powi(-40)
}

/// The distance from a bin edge or the sensitivity beyond which the
/// polynomials' value decides a sample: 2¹⁰ error budgets. `None` sends
/// the law to the per-draw path: a shadowing σ of zero draws no uniforms
/// for the normal, and from a magnitude of 2¹⁴ dB on a value could round
/// past the bins an `i16` holds, where `Dbm::bin` saturates. Below that
/// the margin stays under 2⁻¹⁶ dB, and the edge test is exact.
fn separation_margin(law: &RssiLaw) -> Option<f64> {
    (law.shadowing.sigma() > 0.0 && magnitude(law) < 16384.0).then(|| 1024.0 * error_budget(law))
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

    /// Fails unless `built` is no longer than `full` and answers every
    /// lookup `full` answers with the same bits: the samples it stores,
    /// and at every lattice point of `full`, between lattice points and
    /// far past the end, both [`RadialProfile::density_scaled`] and the
    /// lane kernels' lookup (clamp to `lastf`, split, `val + del · frac`).
    fn assert_same_lookups(built: &RadialProfile, full: &RadialProfile, what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let n = built.len();
        assert!(
            n <= full.len(),
            "{what}: {n} samples against {}",
            full.len()
        );
        let (lane, full_lane) = (built.lane_table(), full.lane_table());
        assert_eq!(
            bits(&lane.val()[..n]),
            bits(&full_lane.val()[..n]),
            "{what}"
        );
        assert_eq!(
            bits(&lane.del()[..n]),
            bits(&full_lane.del()[..n]),
            "{what}"
        );
        let lane_lookup = |table: &LaneTable, t: f64| {
            let t = t.min(table.lastf());
            let tf = t.trunc();
            let j = tf as usize;
            table.val()[j] + table.del()[j] * (t - tf)
        };
        let lattice = (0..full.len()).map(|k| k as f64);
        for t in lattice.flat_map(|k| [k, k + 0.3, k + 0.5]).chain([1e6]) {
            assert_eq!(
                built.density_scaled(t).to_bits(),
                full.density_scaled(t).to_bits(),
                "{what}: at t = {t}"
            );
            assert_eq!(
                lane_lookup(lane, t).to_bits(),
                lane_lookup(full_lane, t).to_bits(),
                "{what}: lane lookup at t = {t}"
            );
        }
    }

    /// A table samples a bin's profile on the first lookup that resolves
    /// to it and resolves every RSSI to the bin [`PdfTable::resolve`]
    /// picks. A built profile stops where its floored density turns flat,
    /// and answers every lookup as the eager full-length profile does.
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

        let mut trimmed = 0;
        for (bin, pdf) in t.entries() {
            let lazy = radial.get(bin).expect("calibrated");
            let eager = pdf.radial_profile(step, max_d).offset(floor);
            assert_same_lookups(lazy, &eager, &format!("bin {bin:?}"));
            trimmed += usize::from(lazy.len() < eager.len());
        }
        assert_eq!(radial_profile_builds(), builds + t.len() as u64);
        assert!(
            trimmed > t.len() / 2,
            "{trimmed} of {} bins trimmed",
            t.len()
        );

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

    /// Only parameters that bound a flat tail trim a profile: a PDF with a
    /// non-positive width or sigma or a NaN mean, or a NaN or +∞ floor, is
    /// sampled out to the table's extent. Each profile whose samples are
    /// numbers answers every lookup as its full-length one.
    #[test]
    fn profiles_without_a_flat_tail_reach_the_extent() {
        let gaussian = |mean, sigma| DistancePdf::Gaussian { mean, sigma };
        let empirical = |origin, bin_width| DistancePdf::Empirical {
            origin,
            bin_width,
            densities: vec![0.25, 0.5],
            mean: 10.0,
            sigma: 1.0,
        };
        let (step, max_d) = (0.25, 60.0);
        let cases = [
            (gaussian(10.0, 2.0), 1e-6, false),
            (empirical(10.0, 2.0), 1e-6, false),
            (gaussian(10.0, 1e30), 1e-6, false),
            (gaussian(f64::NEG_INFINITY, 2.0), 1e-6, false),
            (gaussian(10.0, 2.0), f64::INFINITY, true),
            (gaussian(10.0, 2.0), f64::NAN, true),
            (gaussian(10.0, 0.0), 1e-6, true),
            (gaussian(10.0, -2.0), 1e-6, true),
            (gaussian(f64::NAN, 2.0), 1e-6, true),
            (empirical(10.0, -2.0), 1e-6, true),
            (empirical(10.0, -0.0), 1e-6, true),
            (empirical(10.0, f64::NAN), 1e-6, true),
        ];
        for (pdf, floor, reaches_extent) in cases {
            let radial = RadialConstraintTable::new(
                &PdfTable::from_entries([(RssiBin(-60), pdf.clone())], -80.0),
                step,
                max_d,
                floor,
            );
            let built = radial.get(RssiBin(-60)).expect("one bin");
            let full = pdf.radial_profile(step, max_d).offset(floor);
            assert_eq!(
                built.len() == full.len(),
                reaches_extent,
                "{pdf:?}, floor {floor}"
            );
            if floor.is_finite() && !full.lane_table().val().iter().any(|v| v.is_nan()) {
                assert_same_lookups(built, &full, &format!("{pdf:?}"));
            }
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

    /// The channels the campaign must reproduce the reference on: the
    /// paper's log-distance n = 3, n = 2.4, two-ray ground, a louder
    /// transmitter, wide shadowing with frequent deep fades, and no
    /// shadowing at all (a σ of zero, which takes the per-draw path).
    fn campaign_channels() -> [(&'static str, RfChannel); 6] {
        use crate::channel::{ChannelParams, PathLossModel};
        let with = |params: ChannelParams| RfChannel::new(params);
        let base = ChannelParams::default();
        [
            ("log-distance n = 3", RfChannel::default()),
            (
                "log-distance n = 2.4",
                with(ChannelParams {
                    path_loss: PathLossModel::LogDistance { exponent: 2.4 },
                    ..base
                }),
            ),
            (
                "two-ray ground",
                with(ChannelParams {
                    path_loss: PathLossModel::TwoRayGround {
                        antenna_height_m: 0.5,
                        wavelength_m: 0.125,
                    },
                    ..base
                }),
            ),
            (
                "louder",
                with(ChannelParams {
                    tx_power_dbm: 18.0,
                    ..base
                }),
            ),
            (
                "wide shadowing, deep fades",
                with(ChannelParams {
                    shadowing_sigma_db: 2.0,
                    shadowing_sigma_slope_db_per_m: 0.06,
                    multipath_fade_prob: 0.6,
                    multipath_fade_mean_db: 9.0,
                    ..base
                }),
            ),
            (
                "no shadowing",
                with(ChannelParams {
                    shadowing_sigma_db: 0.0,
                    shadowing_sigma_slope_db_per_m: 0.0,
                    ..base
                }),
            ),
        ]
    }

    /// The three-pass campaign gives the per-draw reference's table bit
    /// for bit (its `Debug` form prints every float in its shortest
    /// round-trip form) and leaves the stream where the reference does.
    #[test]
    fn campaign_matches_the_per_draw_reference() {
        let cfg = CalibrationConfig::default();
        let exact_before = calibration_exact_draws();
        for (name, channel) in campaign_channels() {
            for seed in 0..64 {
                let mut fast_rng = SeedSplitter::new(seed).stream("calibration", 0);
                let mut reference_rng = fast_rng.clone();
                let fast = calibrate(&channel, &cfg, &mut fast_rng);
                let reference = calibrate_reference(&channel, &cfg, &mut reference_rng);
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{reference:?}"),
                    "{name}, seed {seed}"
                );
                assert!(fast == reference, "{name}, seed {seed}");
                assert_eq!(fast_rng, reference_rng, "{name}, seed {seed}: stream");
            }
        }
        // A handful of the 33 million polynomial samples need their exact
        // value (15); a margin grown by orders of magnitude shows here.
        let exact = calibration_exact_draws() - exact_before;
        assert!(exact < 1000, "{exact} exact recomputations");
    }

    /// A law past the onset with the given fade probability.
    fn law(mean: f64, sigma: f64, fade: Option<(f64, f64)>) -> RssiLaw {
        RssiLaw {
            shadowing: Normal::new(mean, sigma),
            fade: fade.map(|(prob, depth)| (prob, Exponential::new(depth))),
        }
    }

    /// Recomputing a sample from the uniforms the first pass drew gives
    /// the value `RssiLaw::sample` returns, to the bit, and the first pass
    /// leaves the stream where as many `sample` calls do.
    #[test]
    fn a_recomputed_sample_is_the_exact_sample() {
        let laws = [
            law(-60.0, 1.5, None),
            law(-85.0, 2.5, Some((0.25, 4.0))),
            law(-85.0, 2.5, Some((1.0, 4.0))),
            law(-85.0, 2.5, Some((0.0, 4.0))),
        ];
        for (k, law) in laws.iter().enumerate() {
            let mut rng = SeedSplitter::new(9).stream("draws", k as u64);
            let mut per_draw = rng.clone();
            let mut draws = Draws::default();
            draws.draw(law, 500, &mut rng);
            for i in 0..500 {
                let exact = draws.exact(law, i);
                let sample = law.sample(&mut per_draw).value();
                assert_eq!(exact.to_bits(), sample.to_bits(), "law {k}, draw {i}");
            }
            assert_eq!(rng, per_draw, "law {k}: stream");
        }
    }

    /// A draw within the margin of a bin edge or of the sensitivity is
    /// recomputed, so it counts where `RssiLaw::sample`'s value falls, on
    /// either side, and the stream ends where the per-draw loop leaves it.
    /// The draw lies 10⁻⁹ dB from the edge: inside the margin, outside the
    /// error budget.
    #[test]
    fn a_draw_near_an_edge_is_recomputed() {
        let channel = RfChannel::default();
        let rng = SeedSplitter::new(3).stream("edge", 0);
        // The first draw's σ·r·cos θ, which a law adds to its mean.
        let centred = law(0.0, 2.0, None);
        let mut draws = Draws::default();
        draws.draw(&centred, 1, &mut rng.clone());
        let term = draws.exact(&centred, 0);
        for edge in [-60.5, channel.params().sensitivity_dbm] {
            let mut slots = Vec::new();
            for offset in [-1e-9, 1e-9] {
                let law = law(edge + offset - term, 2.0, None);
                let margin = separation_margin(&law).expect("a separable law");
                assert!(error_budget(&law) < 1e-9 && 1e-9 < margin);
                let (mut fast, mut per_draw) = (rng.clone(), rng.clone());
                let mut tally = Tally::new(&channel);
                let mut reference = Tally::new(&channel);
                let exact_before = calibration_exact_draws();
                Draws::default().sample(&law, 1, &mut fast, &mut tally);
                reference.add(law.sample(&mut per_draw));
                let at = format!("{edge} {offset:+e}");
                assert_eq!(calibration_exact_draws() - exact_before, 1, "{at}");
                assert_eq!(tally.here, reference.here, "{at}");
                assert_eq!(fast, per_draw, "{at}: stream");
                slots.push(reference.here);
            }
            assert_ne!(slots[0], slots[1], "the draws straddle {edge}");
        }
    }

    /// The uniforms Box–Muller's u1 and a fade depth's u can be, (0, 1]:
    /// any, any in a random binade down to 2⁻⁵³, or the ends.
    fn arb_open_closed() -> impl proptest::prelude::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            (0.0..1.0f64).prop_map(|g| 1.0 - g),
            (0.0..1.0f64, 0i32..53).prop_map(|(g, k)| (1.0 - g) * 2f64.powi(-k)),
            Just(2f64.powi(-53)),
            Just(1.0),
        ]
    }

    /// Box–Muller's u2, [0, 1): any, or a multiple of an eighth turn, or
    /// the last before 1.
    fn arb_closed_open() -> impl proptest::prelude::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            0.0..1.0f64,
            (0u8..8).prop_map(|e| f64::from(e) / 8.0),
            Just(1.0 - 2f64.powi(-53)),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Each polynomial stays inside its stated bound, and one sample's
        /// polynomial value inside the law's error budget of the exact
        /// one, for any uniforms a sample can draw.
        #[test]
        fn polynomials_stay_inside_the_error_budget(
            u1 in arb_open_closed(),
            u2 in arb_closed_open(),
            fade_u in arb_open_closed(),
            heads in proptest::prelude::any::<bool>(),
            mean in -130.0..30.0f64,
            sigma in 0.01..12.0f64,
            fade_mean in 0.5..30.0f64,
        ) {
            let ln = u1.ln();
            // libm's own error is under 2⁻⁵² of its result.
            proptest::prop_assert!(
                (ln_poly(u1) - ln).abs() <= (2f64.powi(-46) + 2f64.powi(-52)) * ln.abs(),
                "ln({u1}): {} vs {ln}", ln_poly(u1)
            );
            let cos = (2.0 * std::f64::consts::PI * u2).cos();
            proptest::prop_assert!(
                (cos_turn(u2) - cos).abs() <= 2f64.powi(-46) + 2f64.powi(-50),
                "cos(2π·{u2}): {} vs {cos}", cos_turn(u2)
            );
            let law = law(mean, sigma, Some((0.5, fade_mean)));
            let fade = if heads { fade_u } else { 0.0 };
            let draws = Draws {
                u1: vec![u1],
                u2: vec![u2],
                fade: vec![fade],
                slot: Vec::new(),
            };
            let value = polynomial_value(&law, u1, u2, fade);
            let exact = draws.exact(&law, 0);
            let budget = error_budget(&law);
            proptest::prop_assert!(
                (value - exact).abs() <= budget,
                "{value} vs {exact}, budget {budget}"
            );
        }
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
