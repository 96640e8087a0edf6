//! The pluggable per-window RF solver behind the windowed estimator.
//!
//! The paper notes (Section 5) that CoCoA "is not tied to a specific
//! localization technique. … Other approaches could be integrated in CoCoA
//! as well". This module is that extension point: the window *lifecycle*
//! (begin/observe/end, entropy watchdog, outlier gate, statistics) lives in
//! [`crate::estimator::WindowedRfEstimator`]; the per-window *solver* lives
//! behind [`RfBackend`] with three implementations:
//!
//! - [`BayesianLocalizer`] — the paper's grid inference (the default);
//! - [`Multilaterator`] — weighted least-squares multilateration;
//! - [`EkfBackend`] — the extended Kalman filter, predicting from odometry
//!   between windows and fusing gated range updates from beacon RSSI.
//!
//! The first two discard their state at every window start (the paper's
//! reset-style fusion); the EKF is the deliberate exception — it carries
//! its posterior across windows and only resets its per-window beacon
//! count, which is what makes it a genuinely different estimator rather
//! than a reskinned solver.

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::{PdfTable, RadialConstraintTable};
use cocoa_net::geometry::Point;
use cocoa_net::rssi::Dbm;
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::bayes::{BayesianLocalizer, GridStats, ObservationResult, MIN_BEACONS_FOR_ESTIMATE};
use crate::ekf::{EkfConfig, EkfLocalizer, EkfUpdate};
use crate::estimator::RfAlgorithm;
use crate::grid::{BeaconField, GridConfig};
use crate::multilateration::Multilaterator;

/// One per-window RF solver, as driven by the window lifecycle in
/// [`crate::estimator::WindowedRfEstimator`].
///
/// | Method | Bayes | Multilateration | EKF |
/// |---|---|---|---|
/// | `begin_window` | discard posterior | discard ranges | reset window count only |
/// | `observe_beacon` | grid constraint | collect range | gated IEKF range update |
/// | `estimate` | posterior mean (≥ 3 beacons) | WLS solution (≥ 3 ranges) | filter state (≥ 3 applied this window) |
/// | `end_window_confidence` | entropy vs maximum | none | none |
/// | `note_odometry` | — | — | covariance-growing predict |
pub trait RfBackend {
    /// Which algorithm this backend implements.
    fn algorithm(&self) -> RfAlgorithm;

    /// Called at every transmit-window start, before beacons arrive.
    fn begin_window(&mut self);

    /// Offers one received beacon, sent from the `beacon` field's center.
    /// The Bayesian backend applies `radial`'s pre-sampled constraint
    /// through the field (the zero-allocation lane kernels); the gridless
    /// backends read the PDF table and only the field's center, so the two
    /// tables must describe the same calibration.
    fn observe_beacon(
        &mut self,
        table: &PdfTable,
        radial: &RadialConstraintTable,
        beacon: &mut BeaconField,
        rssi: Dbm,
    ) -> ObservationResult;

    /// The solver's position estimate at window end, if this window
    /// gathered enough evidence for one.
    fn estimate(&self) -> Option<Point>;

    /// `(entropy, max_entropy)` of the window's posterior, for the entropy
    /// watchdog. `None` means the backend has no posterior to judge and the
    /// watchdog never fires.
    fn end_window_confidence(&self) -> Option<(f64, f64)> {
        None
    }

    /// Posterior entropy as a fraction of the uniform maximum, in `[0, 1]`;
    /// `None` for backends without a posterior.
    fn entropy_fraction(&self) -> Option<f64> {
        None
    }

    /// Reports the robot's current dead-reckoned position so backends that
    /// integrate odometry between windows (the EKF) can run their
    /// prediction step. A no-op for window-reset backends.
    fn note_odometry(&mut self, _position: Point) {}

    /// Tells the backend the odometry frame was just re-anchored to `fix`
    /// (CoCoA resets the dead-reckoning origin on every fresh fix), so the
    /// next [`RfBackend::note_odometry`] measures displacement from the new
    /// frame instead of seeing a spurious jump.
    fn reanchor_odometry(&mut self, _fix: Point) {}

    /// EKF-only lifetime counters `(updates_applied, updates_gated)`, for
    /// the `estimator.ekf.*` telemetry namespace.
    fn ekf_counters(&self) -> Option<(u64, u64)> {
        None
    }

    /// Kernel accounting (the `grid.*` telemetry counters).
    /// Zero for gridless backends.
    fn grid_stats(&self) -> GridStats {
        GridStats::default()
    }
}

impl RfBackend for BayesianLocalizer {
    fn algorithm(&self) -> RfAlgorithm {
        RfAlgorithm::Bayes
    }

    fn begin_window(&mut self) {
        self.reset();
    }

    fn observe_beacon(
        &mut self,
        _table: &PdfTable,
        radial: &RadialConstraintTable,
        beacon: &mut BeaconField,
        rssi: Dbm,
    ) -> ObservationResult {
        BayesianLocalizer::observe_beacon(self, radial, beacon, rssi)
    }

    fn estimate(&self) -> Option<Point> {
        BayesianLocalizer::estimate(self)
    }

    fn end_window_confidence(&self) -> Option<(f64, f64)> {
        Some((BayesianLocalizer::entropy(self), self.max_entropy()))
    }

    fn entropy_fraction(&self) -> Option<f64> {
        let max = self.max_entropy();
        if max > 0.0 {
            Some(BayesianLocalizer::entropy(self) / max)
        } else {
            Some(0.0)
        }
    }

    fn grid_stats(&self) -> GridStats {
        *BayesianLocalizer::grid_stats(self)
    }
}

impl RfBackend for Multilaterator {
    fn algorithm(&self) -> RfAlgorithm {
        RfAlgorithm::Multilateration
    }

    fn begin_window(&mut self) {
        self.reset();
    }

    fn observe_beacon(
        &mut self,
        table: &PdfTable,
        _radial: &RadialConstraintTable,
        beacon: &mut BeaconField,
        rssi: Dbm,
    ) -> ObservationResult {
        if Multilaterator::observe_beacon(self, table, beacon.center(), rssi) {
            ObservationResult::Applied
        } else {
            ObservationResult::NoPdf
        }
    }

    fn estimate(&self) -> Option<Point> {
        Multilaterator::estimate(self)
    }
}

/// The EKF solver adapted to the window lifecycle.
///
/// Wraps [`EkfLocalizer`] with the bookkeeping the windowed protocol needs:
/// a per-window applied-update count (a window yields a fix only when at
/// least [`MIN_BEACONS_FOR_ESTIMATE`] updates were fused, matching the
/// other backends' evidence bar) and the odometry anchor that turns the
/// robot's dead-reckoned positions into displacement inputs for the
/// filter's prediction step.
///
/// Unlike the reset-style backends the filter state *persists across
/// windows* — that continuity is the EKF's whole value proposition — and
/// its innovation gate maps to [`ObservationResult::Outlier`], so gated
/// beacons land in the same `beacons_rejected_outlier` statistic the shared
/// outlier gate feeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EkfBackend {
    pub(crate) ekf: EkfLocalizer,
    /// Dead-reckoned position at the last `note_odometry`, i.e. the origin
    /// the next displacement is measured from.
    last_odo: Option<Point>,
    /// Range updates applied in the open window.
    window_applied: u32,
}

impl EkfBackend {
    /// Creates an EKF backend over `grid`'s deployment area with the
    /// default filter tuning (the paper's arbitrary-deployment prior: area
    /// centre, large sigma).
    pub fn new(grid: GridConfig) -> Self {
        EkfBackend {
            ekf: EkfLocalizer::new(EkfConfig::default(), grid.area, None),
            last_odo: None,
            window_applied: 0,
        }
    }

    /// The wrapped filter.
    pub fn filter(&self) -> &EkfLocalizer {
        &self.ekf
    }

    /// The snapshot layout: the filter, the open window's applied
    /// updates, then the odometry anchor.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let EkfBackend {
            ekf,
            last_odo,
            window_applied,
        } = self;
        ekf.code(c)?;
        c.u32(window_applied)?;
        c.opt(last_odo, |c, p| p.code(c))
    }
}

impl RfBackend for EkfBackend {
    fn algorithm(&self) -> RfAlgorithm {
        RfAlgorithm::Ekf
    }

    fn begin_window(&mut self) {
        // The filter deliberately carries its state across windows; only
        // the per-window evidence count restarts.
        self.window_applied = 0;
    }

    fn observe_beacon(
        &mut self,
        table: &PdfTable,
        _radial: &RadialConstraintTable,
        beacon: &mut BeaconField,
        rssi: Dbm,
    ) -> ObservationResult {
        match self.ekf.update_from_beacon(table, beacon.center(), rssi) {
            EkfUpdate::Applied => {
                self.window_applied += 1;
                ObservationResult::Applied
            }
            EkfUpdate::Gated => ObservationResult::Outlier,
            EkfUpdate::NoPdf => ObservationResult::NoPdf,
        }
    }

    fn estimate(&self) -> Option<Point> {
        (self.window_applied >= MIN_BEACONS_FOR_ESTIMATE).then(|| self.ekf.estimate())
    }

    fn note_odometry(&mut self, position: Point) {
        if let Some(prev) = self.last_odo {
            self.ekf.predict(position - prev);
        }
        self.last_odo = Some(position);
    }

    fn reanchor_odometry(&mut self, fix: Point) {
        self.last_odo = Some(fix);
    }

    fn ekf_counters(&self) -> Option<(u64, u64)> {
        Some((self.ekf.updates_applied(), self.ekf.updates_gated()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bayes::radial_constraints_for_grid;
    use cocoa_net::calibration::{calibrate, CalibrationConfig};
    use cocoa_net::channel::RfChannel;
    use cocoa_net::geometry::{Area, Vec2};
    use cocoa_sim::rng::SeedSplitter;

    fn table() -> (RfChannel, PdfTable, RadialConstraintTable) {
        let ch = RfChannel::default();
        let mut rng = SeedSplitter::new(1).stream("cal", 0);
        let table = calibrate(&ch, &CalibrationConfig::default(), &mut rng);
        let radial =
            radial_constraints_for_grid(&table, &GridConfig::new(Area::square(200.0), 2.0));
        (ch, table, radial)
    }

    #[test]
    fn ekf_backend_persists_state_across_windows() {
        let (ch, table, radial) = table();
        let mut rng = SeedSplitter::new(4).stream("b", 0);
        let grid = GridConfig::new(Area::square(200.0), 2.0);
        let mut b = EkfBackend::new(grid);
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(92.0, 100.0),
            Point::new(108.0, 104.0),
            Point::new(100.0, 92.0),
        ];
        for _ in 0..3 {
            RfBackend::begin_window(&mut b);
            for p in beacons {
                let rssi = ch.sample_rssi(robot.distance_to(p), &mut rng);
                RfBackend::observe_beacon(&mut b, &table, &radial, &mut BeaconField::new(p), rssi);
            }
        }
        // Window resets did not throw the filter away: nine updates fused.
        assert_eq!(b.filter().updates_applied(), 9);
        let before = b.filter().estimate();
        RfBackend::begin_window(&mut b);
        assert_eq!(
            b.filter().estimate(),
            before,
            "window start must not move the filter state"
        );
        // But the fresh window has no evidence yet, so no fix.
        assert_eq!(RfBackend::estimate(&b), None);
    }

    #[test]
    fn ekf_backend_requires_three_applied_updates_per_window() {
        let (ch, table, radial) = table();
        let mut rng = SeedSplitter::new(5).stream("b", 0);
        let mut b = EkfBackend::new(GridConfig::new(Area::square(200.0), 2.0));
        let robot = Point::new(100.0, 100.0);
        RfBackend::begin_window(&mut b);
        for p in [Point::new(92.0, 100.0), Point::new(108.0, 104.0)] {
            let rssi = ch.sample_rssi(robot.distance_to(p), &mut rng);
            RfBackend::observe_beacon(&mut b, &table, &radial, &mut BeaconField::new(p), rssi);
        }
        assert_eq!(RfBackend::estimate(&b), None, "two beacons are not enough");
        let p = Point::new(100.0, 92.0);
        let rssi = ch.sample_rssi(robot.distance_to(p), &mut rng);
        RfBackend::observe_beacon(&mut b, &table, &radial, &mut BeaconField::new(p), rssi);
        assert!(RfBackend::estimate(&b).is_some());
    }

    #[test]
    fn ekf_backend_predicts_between_odometry_anchors() {
        let mut b = EkfBackend::new(GridConfig::new(Area::square(200.0), 2.0));
        // First anchor establishes the frame without predicting.
        b.note_odometry(Point::new(50.0, 50.0));
        let before = b.filter().estimate();
        let unc_before = b.filter().uncertainty();
        // Second anchor 10 m east: the filter moves with the displacement
        // and its uncertainty grows.
        b.note_odometry(Point::new(60.0, 50.0));
        let after = b.filter().estimate();
        assert!((after.x - (before.x + 10.0)).abs() < 1e-9);
        assert!(b.filter().uncertainty() > unc_before);
        // Re-anchoring swallows the frame jump: no displacement is seen.
        b.reanchor_odometry(Point::new(120.0, 120.0));
        let est = b.filter().estimate();
        b.note_odometry(Point::new(120.0, 120.0));
        assert_eq!(b.filter().estimate(), est);
    }

    #[test]
    fn ekf_gated_update_reports_outlier() {
        let (ch, table, radial) = table();
        let mut rng = SeedSplitter::new(6).stream("b", 0);
        let mut b = EkfBackend::new(GridConfig::new(Area::square(200.0), 2.0));
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(92.0, 100.0),
            Point::new(108.0, 104.0),
            Point::new(100.0, 92.0),
        ];
        RfBackend::begin_window(&mut b);
        for _ in 0..3 {
            for p in beacons {
                let rssi = ch.sample_rssi(robot.distance_to(p), &mut rng);
                RfBackend::observe_beacon(&mut b, &table, &radial, &mut BeaconField::new(p), rssi);
            }
        }
        // A beacon whose RSSI says "far away" while standing next to the
        // converged filter fails the innovation gate.
        let ghost = ch.mean_rssi(150.0);
        let r = RfBackend::observe_beacon(
            &mut b,
            &table,
            &radial,
            &mut BeaconField::new(Point::new(101.0, 100.0)),
            ghost,
        );
        assert_eq!(r, ObservationResult::Outlier);
        assert!(b.filter().updates_gated() >= 1);
    }

    #[test]
    fn backend_checkpoints_tag_their_algorithm() {
        let grid = GridConfig::new(Area::square(200.0), 4.0);
        let bayes = BayesianLocalizer::new(grid);
        let lat = Multilaterator::new(grid.area, Default::default());
        let mut ekf = EkfBackend::new(grid);
        ekf.note_odometry(Point::new(10.0, 10.0));
        ekf.ekf.predict(Vec2::new(1.0, 0.0));
        assert_eq!(RfBackend::algorithm(&bayes), RfAlgorithm::Bayes);
        assert_eq!(RfBackend::algorithm(&lat), RfAlgorithm::Multilateration);
        assert_eq!(RfBackend::algorithm(&ekf), RfAlgorithm::Ekf);
        // The EKF backend's layout decodes onto a fresh backend exactly.
        let bytes = cocoa_sim::snapshot::encode(|c| ekf.code(c));
        let mut restored = EkfBackend::new(grid);
        cocoa_sim::snapshot::decode(&bytes, "ekf", |c| restored.code(c)).expect("own bytes");
        assert_eq!(restored, ekf);
    }
}
