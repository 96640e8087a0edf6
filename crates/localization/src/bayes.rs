//! The beacon-driven Bayesian localizer (paper Section 2.2).
//!
//! For every received beacon the robot looks the observed RSSI up in the
//! calibration table, turns the resulting distance PDF (pre-sampled as a
//! radial profile) into a positional constraint (Eq. 1), multiplies it
//! into its posterior and renormalizes (Eq. 2). Once at least **three** beacons have been
//! incorporated, the posterior mean (Eq. 3) is reported as the position
//! estimate.

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::{PdfTable, RadialConstraintTable};
use cocoa_net::geometry::Point;
use cocoa_net::rssi::Dbm;
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::grid::{BeaconField, ConstraintOutcome, GridConfig, PositionGrid};

/// The paper requires at least this many beacons before estimating.
pub const MIN_BEACONS_FOR_ESTIMATE: u32 = 3;

/// Density floor mixed into every constraint so that a single outlier
/// beacon cannot annihilate the true position's cell. Expressed relative
/// to a uniform density over a 200 m scale: small enough to not blur fixes,
/// large enough to keep the posterior proper.
///
/// Public so that precomputed radial constraint tables
/// ([`RadialConstraintTable`]) can bake the same floor into their cached
/// profiles.
pub const CONSTRAINT_FLOOR: f64 = 1e-6;

/// The per-run radial constraint table for `table`, sized to `grid`: one
/// floored [`RadialProfile`](cocoa_net::calibration::RadialProfile) per
/// calibrated RSSI bin, sampled at sub-cell resolution out to the area's
/// diagonal the first time a beacon resolves to the bin. Build it once
/// and share it by reference across every robot and transmit round.
pub fn radial_constraints_for_grid(table: &PdfTable, grid: &GridConfig) -> RadialConstraintTable {
    // Sub-cell sampling: fine enough for the clamped minimum sigma of the
    // calibration fits (0.25 m) and always at least 4 samples per cell.
    let step = (grid.resolution_m * 0.25).min(0.05);
    let diag = (grid.area.width().powi(2) + grid.area.height().powi(2)).sqrt();
    RadialConstraintTable::new(table, step, diag, CONSTRAINT_FLOOR)
}

/// What happened to one beacon observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservationResult {
    /// The constraint was multiplied into the posterior.
    Applied,
    /// The RSSI had no usable PDF-table bin (outside the calibrated range).
    NoPdf,
    /// The constraint was rejected as degenerate (kept old posterior).
    Rejected,
    /// The beacon failed the outlier gate: its claimed position is
    /// inconsistent with the RSSI-implied distance (a corrupted or lying
    /// beacon source) and was not applied.
    Outlier,
}

/// A Bayesian grid localizer fed by beacons.
///
/// # Examples
///
/// ```
/// use cocoa_localization::bayes::{radial_constraints_for_grid, BayesianLocalizer};
/// use cocoa_localization::grid::{BeaconField, GridConfig};
/// use cocoa_net::calibration::{calibrate, CalibrationConfig};
/// use cocoa_net::channel::RfChannel;
/// use cocoa_net::geometry::{Area, Point};
/// use cocoa_sim::rng::SeedSplitter;
///
/// let channel = RfChannel::default();
/// let mut rng = SeedSplitter::new(5).stream("cal", 0);
/// let table = calibrate(&channel, &CalibrationConfig::default(), &mut rng);
/// let grid = GridConfig::new(Area::square(200.0), 2.0);
/// let radial = radial_constraints_for_grid(&table, &grid);
///
/// let mut loc = BayesianLocalizer::new(grid);
/// let robot = Point::new(100.0, 100.0);
/// for beacon in [Point::new(90.0, 100.0), Point::new(110.0, 95.0), Point::new(100.0, 112.0)] {
///     let rssi = channel.sample_rssi(robot.distance_to(beacon), &mut rng);
///     loc.observe_beacon(&radial, &mut BeaconField::new(beacon), rssi);
/// }
/// let est = loc.estimate().expect("three beacons received");
/// assert!(est.distance_to(robot) < 15.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BayesianLocalizer {
    grid: PositionGrid,
    beacons_applied: u32,
    beacons_seen: u32,
    pub(crate) stats: GridStats,
}

/// Cumulative grid-kernel cost accounting, surfaced as `grid.*` telemetry
/// counters. Counts are per constraint application (not per window) and
/// survive window resets — they describe work done, not posterior state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GridStats {
    /// Radial constraints applied one at a time through the lane kernel.
    pub kernel_simd: u64,
    /// Cells whose constraint weight was evaluated.
    pub cells_touched: u64,
}

impl GridStats {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let GridStats {
            kernel_simd,
            cells_touched,
        } = self;
        c.u64s([kernel_simd, cells_touched])
    }

    /// Merges another accumulator into this one (used when aggregating
    /// per-robot stats into run-level counters).
    pub fn absorb(&mut self, other: &GridStats) {
        self.kernel_simd += other.kernel_simd;
        self.cells_touched += other.cells_touched;
    }
}

impl BayesianLocalizer {
    /// Creates a localizer with a uniform prior over the area that applies
    /// each beacon as it arrives.
    pub fn new(config: GridConfig) -> Self {
        BayesianLocalizer {
            grid: PositionGrid::new(config),
            beacons_applied: 0,
            beacons_seen: 0,
            stats: GridStats::default(),
        }
    }

    /// Cumulative kernel cost accounting.
    pub fn grid_stats(&self) -> &GridStats {
        &self.stats
    }

    /// Incorporates one beacon: the sender claims to be at the `beacon`
    /// field's center and was heard at `rssi`. The constraint comes from
    /// `radial`'s pre-sampled profile for the observed RSSI (same
    /// bin-fallback rule as [`PdfTable::lookup`]) and is applied through
    /// the lane kernels — no per-cell `exp`, no allocation. The field
    /// carries the frame's cell distances from one receiver to the next
    /// ([`PositionGrid::apply_radial_constraint`]).
    pub fn observe_beacon(
        &mut self,
        radial: &RadialConstraintTable,
        beacon: &mut BeaconField,
        rssi: Dbm,
    ) -> ObservationResult {
        self.beacons_seen += 1;
        let Some(profile) = radial.lookup(rssi) else {
            return ObservationResult::NoPdf;
        };
        self.stats.cells_touched += self.grid.num_cells() as u64;
        self.stats.kernel_simd += 1;
        match self.grid.apply_radial_constraint(beacon, profile) {
            ConstraintOutcome::Applied => {
                self.beacons_applied += 1;
                ObservationResult::Applied
            }
            ConstraintOutcome::Rejected => ObservationResult::Rejected,
        }
    }

    /// The position estimate: the posterior mean, available once at least
    /// [`MIN_BEACONS_FOR_ESTIMATE`] beacons were applied (paper Section 2.2).
    pub fn estimate(&self) -> Option<Point> {
        (self.beacons_applied >= MIN_BEACONS_FOR_ESTIMATE).then(|| self.grid.mean())
    }

    /// Beacons multiplied into the posterior since the last reset.
    pub fn beacons_applied(&self) -> u32 {
        self.beacons_applied
    }

    /// Beacons offered since the last reset (including unusable ones).
    pub fn beacons_seen(&self) -> u32 {
        self.beacons_seen
    }

    /// Posterior entropy, nats — what the entropy watchdog and the
    /// entropy histograms read.
    pub fn entropy(&self) -> f64 {
        self.grid.entropy()
    }

    /// The entropy of the uniform prior over this grid, nats — the ceiling
    /// the entropy watchdog measures against.
    pub fn max_entropy(&self) -> f64 {
        self.grid.max_entropy()
    }

    /// Resets to the uniform prior — the paper's robots "throw away their
    /// currently estimated positions" at each transmit period.
    pub fn reset(&mut self) {
        self.grid.reset_uniform();
        self.beacons_applied = 0;
        self.beacons_seen = 0;
    }

    /// Read-only access to the posterior grid.
    pub fn grid(&self) -> &PositionGrid {
        &self.grid
    }

    /// The snapshot layout: the posterior, the window's beacon counters,
    /// then the kernel accounting. Decode onto a localizer over the same
    /// grid (see [`PositionGrid::code`] on the cell count).
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let BayesianLocalizer {
            grid,
            beacons_applied,
            beacons_seen,
            stats,
        } = self;
        grid.code(c)?;
        c.u32(beacons_applied)?;
        c.u32(beacons_seen)?;
        stats.code(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_net::calibration::{calibrate, CalibrationConfig, DistancePdf, PdfTable};
    use cocoa_net::channel::RfChannel;
    use cocoa_net::geometry::Area;
    use cocoa_net::rssi::RssiBin;
    use cocoa_sim::rng::SeedSplitter;

    fn config() -> GridConfig {
        GridConfig::new(Area::square(200.0), 2.0)
    }

    fn setup() -> (RfChannel, RadialConstraintTable) {
        let ch = RfChannel::default();
        let mut rng = SeedSplitter::new(77).stream("cal", 0);
        let table = calibrate(&ch, &CalibrationConfig::default(), &mut rng);
        let radial = radial_constraints_for_grid(&table, &config());
        (ch, radial)
    }

    fn localizer() -> BayesianLocalizer {
        BayesianLocalizer::new(config())
    }

    #[test]
    fn no_estimate_before_three_beacons() {
        let (ch, radial) = setup();
        let mut rng = SeedSplitter::new(78).stream("t", 0);
        let mut loc = localizer();
        let robot = Point::new(100.0, 100.0);
        for (i, beacon) in [Point::new(95.0, 100.0), Point::new(100.0, 106.0)]
            .into_iter()
            .enumerate()
        {
            assert!(loc.estimate().is_none(), "no estimate after {i} beacons");
            let rssi = ch.sample_rssi(robot.distance_to(beacon), &mut rng);
            loc.observe_beacon(&radial, &mut BeaconField::new(beacon), rssi);
        }
        assert!(loc.estimate().is_none());
        let third = Point::new(104.0, 96.0);
        let rssi = ch.sample_rssi(robot.distance_to(third), &mut rng);
        loc.observe_beacon(&radial, &mut BeaconField::new(third), rssi);
        assert!(loc.estimate().is_some());
    }

    #[test]
    fn close_beacons_localize_well() {
        let (ch, radial) = setup();
        let robot = Point::new(120.0, 80.0);
        let beacons = [
            Point::new(110.0, 80.0),
            Point::new(126.0, 90.0),
            Point::new(120.0, 68.0),
            Point::new(132.0, 76.0),
        ];
        // Average accuracy across seeds to make the assertion robust.
        let mut errs = Vec::new();
        for seed in 0..10 {
            let mut rng = SeedSplitter::new(200 + seed).stream("t", 0);
            let mut loc = localizer();
            for b in beacons {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                loc.observe_beacon(&radial, &mut BeaconField::new(b), rssi);
            }
            errs.push(loc.estimate().unwrap().distance_to(robot));
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 8.0, "mean error {mean} m from nearby beacons");
    }

    #[test]
    fn far_beacons_localize_poorly() {
        let (ch, radial) = setup();
        let robot = Point::new(100.0, 100.0);
        let near_err = {
            let mut rng = SeedSplitter::new(300).stream("t", 0);
            let mut loc = localizer();
            for b in [
                Point::new(92.0, 100.0),
                Point::new(108.0, 104.0),
                Point::new(100.0, 90.0),
            ] {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                loc.observe_beacon(&radial, &mut BeaconField::new(b), rssi);
            }
            loc.estimate().unwrap().distance_to(robot)
        };
        let far_err = {
            let mut rng = SeedSplitter::new(300).stream("t", 1);
            let mut loc = localizer();
            // Beacons 90-120 m away: the "bad beacons" of Section 4.3.1.
            for b in [
                Point::new(10.0, 100.0),
                Point::new(195.0, 110.0),
                Point::new(100.0, 5.0),
            ] {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                loc.observe_beacon(&radial, &mut BeaconField::new(b), rssi);
            }
            loc.estimate()
                .map_or(f64::INFINITY, |e| e.distance_to(robot))
        };
        assert!(
            near_err < far_err,
            "near {near_err} m should beat far {far_err} m"
        );
    }

    #[test]
    fn unusable_rssi_reports_no_pdf() {
        let (_, radial) = setup();
        let mut loc = localizer();
        // Absurdly strong: no bin within fallback range.
        let r = loc.observe_beacon(
            &radial,
            &mut BeaconField::new(Point::new(1.0, 1.0)),
            Dbm::new(20.0),
        );
        assert_eq!(r, ObservationResult::NoPdf);
        assert_eq!(loc.beacons_applied(), 0);
        assert_eq!(loc.beacons_seen(), 1);
    }

    #[test]
    fn reset_requires_three_fresh_beacons() {
        let (ch, radial) = setup();
        let mut rng = SeedSplitter::new(400).stream("t", 0);
        let mut loc = localizer();
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(92.0, 100.0),
            Point::new(108.0, 104.0),
            Point::new(100.0, 90.0),
        ];
        for b in beacons {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            loc.observe_beacon(&radial, &mut BeaconField::new(b), rssi);
        }
        assert!(loc.estimate().is_some());
        loc.reset();
        assert!(loc.estimate().is_none());
        assert_eq!(loc.beacons_applied(), 0);
    }

    #[test]
    fn entropy_falls_with_information() {
        let (ch, radial) = setup();
        let mut rng = SeedSplitter::new(500).stream("t", 0);
        let mut loc = localizer();
        let initial = loc.entropy();
        let robot = Point::new(100.0, 100.0);
        let b = Point::new(95.0, 100.0);
        let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
        loc.observe_beacon(&radial, &mut BeaconField::new(b), rssi);
        assert!(loc.entropy() < initial);
    }

    #[test]
    fn outlier_beacon_does_not_annihilate_posterior() {
        // A synthetic table whose PDF puts essentially all mass at 5 m.
        let table = PdfTable::from_entries(
            [(
                RssiBin(-50),
                DistancePdf::Gaussian {
                    mean: 5.0,
                    sigma: 0.5,
                },
            )],
            -80.0,
        );
        let radial = radial_constraints_for_grid(&table, &config());
        let mut loc = localizer();
        // Two contradictory beacons claiming 5 m from opposite corners.
        let a = loc.observe_beacon(
            &radial,
            &mut BeaconField::new(Point::new(0.0, 0.0)),
            Dbm::new(-50.0),
        );
        let b = loc.observe_beacon(
            &radial,
            &mut BeaconField::new(Point::new(200.0, 200.0)),
            Dbm::new(-50.0),
        );
        assert_eq!(a, ObservationResult::Applied);
        // Thanks to the density floor the second is still applicable.
        assert_eq!(b, ObservationResult::Applied);
        assert!((loc.grid().total_mass() - 1.0).abs() < 1e-6);
    }
}
