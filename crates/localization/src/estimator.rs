//! Window-oriented estimation logic and the three estimator modes the
//! paper evaluates (Section 4): odometry-only, RF-only, and CoCoA (RF +
//! odometry fusion).
//!
//! The CoCoA timeline drives the RF part in *windows*: at each transmit
//! period the robot discards its posterior, accumulates the window's
//! beacons, and — if at least three arrived — takes a fresh fix. What
//! happens *between* windows is what distinguishes the modes:
//!
//! - **RF-only** freezes the last fix until the next window;
//! - **CoCoA** dead-reckons from the last fix with odometry;
//! - **odometry-only** never uses the radio at all.
//!
//! The window *lifecycle* (this module) is separate from the per-window
//! *solver*, which lives behind the [`RfBackend`] trait in
//! [`crate::backend`]: Bayesian grid inference (the paper's algorithm),
//! weighted least-squares multilateration, and an extended Kalman filter
//! that carries state across windows.

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::{PdfTable, RadialConstraintTable};
use cocoa_net::geometry::Point;
use cocoa_net::rssi::Dbm;
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::backend::{EkfBackend, RfBackend};
use crate::bayes::{apply_admitted, Admission, BayesianLocalizer, GridStats, ObservationResult};
use crate::grid::{BeaconField, GridBatch, GridConfig, PositionGrid};
use crate::multilateration::{MultilaterationConfig, Multilaterator};

/// Which localization strategy a robot runs (paper Sections 4.1–4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EstimatorMode {
    /// Dead reckoning from a known initial position (Fig. 4).
    OdometryOnly,
    /// Bayesian RF fixes, frozen between windows (Fig. 6).
    RfOnly,
    /// CoCoA: RF fixes, odometry in between (Fig. 7 onwards).
    Cocoa,
}

impl std::fmt::Display for EstimatorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EstimatorMode::OdometryOnly => "odometry-only",
            EstimatorMode::RfOnly => "rf-only",
            EstimatorMode::Cocoa => "cocoa",
        };
        f.write_str(s)
    }
}

impl EstimatorMode {
    /// Every mode, in snapshot codec-tag order.
    pub const ALL: [EstimatorMode; 3] = [
        EstimatorMode::OdometryOnly,
        EstimatorMode::RfOnly,
        EstimatorMode::Cocoa,
    ];

    /// The short name used by CLI flags and serve specs (the `Display`
    /// form is the longer report label).
    pub fn as_str(self) -> &'static str {
        match self {
            EstimatorMode::OdometryOnly => "odometry",
            EstimatorMode::RfOnly => "rf-only",
            EstimatorMode::Cocoa => "cocoa",
        }
    }

    /// Parses a mode name (the inverse of [`EstimatorMode::as_str`]).
    pub fn parse(s: &str) -> Option<EstimatorMode> {
        Self::ALL.into_iter().find(|m| m.as_str() == s)
    }

    /// Whether this mode listens for beacons.
    pub fn uses_rf(&self) -> bool {
        !matches!(self, EstimatorMode::OdometryOnly)
    }

    /// Whether this mode integrates odometry between windows.
    pub fn uses_odometry_between_windows(&self) -> bool {
        matches!(self, EstimatorMode::OdometryOnly | EstimatorMode::Cocoa)
    }
}

/// Which per-window RF algorithm computes the fix. The paper implements
/// Bayesian inference and notes (Section 5) that CoCoA "is not tied to a
/// specific localization technique. … Other approaches could be integrated
/// in CoCoA as well" — the multilateration baseline and the EKF are exactly
/// that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RfAlgorithm {
    /// Bayesian grid inference (the paper's algorithm).
    #[default]
    Bayes,
    /// Weighted least-squares multilateration (the classic baseline).
    Multilateration,
    /// Extended Kalman filter: odometry prediction between windows, gated
    /// range updates from beacon RSSI (the Kalman-family alternative the
    /// paper's related work surveys).
    Ekf,
}

impl std::fmt::Display for RfAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl RfAlgorithm {
    /// Every selectable algorithm, in codec-tag order.
    pub const ALL: [RfAlgorithm; 3] = [
        RfAlgorithm::Bayes,
        RfAlgorithm::Multilateration,
        RfAlgorithm::Ekf,
    ];

    /// Stable lower-case name, used in CLI flags, specs and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RfAlgorithm::Bayes => "bayes",
            RfAlgorithm::Multilateration => "multilateration",
            RfAlgorithm::Ekf => "ekf",
        }
    }

    /// Parses an algorithm name (the inverse of [`RfAlgorithm::as_str`]).
    pub fn parse(s: &str) -> Option<RfAlgorithm> {
        Self::ALL.into_iter().find(|a| a.as_str() == s)
    }
}

/// The concrete solver behind the lifecycle. An enum (rather than a boxed
/// trait object) so the estimator keeps its `Clone`/`PartialEq`/serde
/// derives; every behavioural access goes through [`RfBackend`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Backend {
    Bayes(Box<BayesianLocalizer>),
    Lateration(Multilaterator),
    Ekf(EkfBackend),
}

impl Backend {
    fn as_dyn(&self) -> &dyn RfBackend {
        match self {
            Backend::Bayes(b) => &**b,
            Backend::Lateration(l) => l,
            Backend::Ekf(e) => e,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn RfBackend {
        match self {
            Backend::Bayes(b) => &mut **b,
            Backend::Lateration(l) => l,
            Backend::Ekf(e) => e,
        }
    }

    /// The solver's layout. No tag names the variant: the reader decodes
    /// onto the backend its scenario selects.
    fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        match self {
            Backend::Bayes(b) => b.code(c),
            Backend::Lateration(l) => l.code(c),
            Backend::Ekf(e) => e.code(c),
        }
    }
}

/// Statistics of a windowed estimator's life so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WindowStats {
    /// Transmit windows begun.
    pub windows: u32,
    /// Windows that produced a fresh fix (≥ 3 beacons applied).
    pub fixes: u32,
    /// Windows whose fix was vetoed by the entropy watchdog.
    pub flat_windows: u32,
    /// Beacons offered across all windows.
    pub beacons_seen: u64,
    /// Beacons actually applied to posteriors.
    pub beacons_applied: u64,
    /// Beacons refused by the outlier gate (the shared claimed-distance
    /// gate, plus the EKF backend's innovation gate).
    pub beacons_rejected_outlier: u64,
}

impl WindowStats {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let WindowStats {
            windows,
            fixes,
            flat_windows,
            beacons_seen,
            beacons_applied,
            beacons_rejected_outlier,
        } = self;
        c.u32(windows)?;
        c.u32(fixes)?;
        c.u32(flat_windows)?;
        c.u64s([beacons_seen, beacons_applied, beacons_rejected_outlier])
    }

    /// The statistics as `(short-name, value)` pairs, in the order the
    /// `estimator.<backend>.*` telemetry counters are exported.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("windows", u64::from(self.windows)),
            ("fixes", u64::from(self.fixes)),
            ("flat_windows", u64::from(self.flat_windows)),
            ("beacons_seen", self.beacons_seen),
            ("beacons_applied", self.beacons_applied),
            ("beacons_rejected_outlier", self.beacons_rejected_outlier),
        ]
    }

    /// Adds another estimator's lifetime statistics into this one (the
    /// team-wide aggregation the telemetry counters report).
    pub fn absorb(&mut self, other: &WindowStats) {
        self.windows += other.windows;
        self.fixes += other.fixes;
        self.flat_windows += other.flat_windows;
        self.beacons_seen += other.beacons_seen;
        self.beacons_applied += other.beacons_applied;
        self.beacons_rejected_outlier += other.beacons_rejected_outlier;
    }
}

/// How a transmit window ended, as judged by
/// [`WindowedRfEstimator::end_window_guarded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowOutcome {
    /// A fresh, trusted fix.
    Fix(Point),
    /// Enough beacons arrived, but the posterior stayed nearly uniform —
    /// the beacons were mutually contradictory (corruption, outliers) and
    /// the "fix" would be the area centre. The estimator keeps its previous
    /// fix and the caller should fall back to dead reckoning.
    FlatPosterior {
        /// Posterior entropy at window end, nats.
        entropy: f64,
        /// The watchdog threshold that was exceeded, nats.
        threshold: f64,
    },
    /// Fewer than the minimum beacons: no fix this window.
    NoFix,
}

/// The per-robot windowed RF estimator.
///
/// Drives an [`RfBackend`] through the CoCoA window lifecycle:
/// `begin_window → observe_beacon* → end_window`. Each observation is
/// bookkeeping ([`admit_beacon`](Self::admit_beacon)) and, for the
/// Bayesian backend, a grid update, which a caller may defer and run for
/// many beacons at once in a [`batch`](Self::batch) before the window
/// ends; [`observe_beacon`](Self::observe_beacon) runs both as a batch of
/// one. If a window yields fewer
/// than three beacons, the previous fix is retained ("if certain robots do
/// not receive any beacons, they continue with their old estimated
/// position", paper Section 2.3). The lifecycle policy — window state, the
/// shared outlier gate, the entropy watchdog, [`WindowStats`] — lives here;
/// what a window's beacons mean is the backend's business.
///
/// # Examples
///
/// ```
/// use cocoa_localization::bayes::radial_constraints_for_grid;
/// use cocoa_localization::estimator::WindowedRfEstimator;
/// use cocoa_localization::grid::{BeaconField, GridConfig};
/// use cocoa_net::calibration::{calibrate, CalibrationConfig};
/// use cocoa_net::channel::RfChannel;
/// use cocoa_net::geometry::{Area, Point};
/// use cocoa_sim::rng::SeedSplitter;
///
/// let channel = RfChannel::default();
/// let mut rng = SeedSplitter::new(2).stream("cal", 0);
/// let table = calibrate(&channel, &CalibrationConfig::default(), &mut rng);
/// let grid = GridConfig::new(Area::square(200.0), 2.0);
/// let radial = radial_constraints_for_grid(&table, &grid);
/// let mut est = WindowedRfEstimator::new(grid);
///
/// est.begin_window();
/// let robot = Point::new(50.0, 50.0);
/// for b in [Point::new(42.0, 50.0), Point::new(55.0, 58.0), Point::new(50.0, 40.0)] {
///     let rssi = channel.sample_rssi(robot.distance_to(b), &mut rng);
///     // No reference position yet, so the outlier gate is off.
///     est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
/// }
/// let fix = est.end_window().expect("enough beacons");
/// assert!(fix.distance_to(robot) < 15.0);
/// assert_eq!(est.last_fix(), Some(fix));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedRfEstimator {
    backend: Backend,
    last_fix: Option<Point>,
    in_window: bool,
    stats: WindowStats,
}

impl WindowedRfEstimator {
    /// Creates an estimator running the paper's Bayesian algorithm.
    pub fn new(grid: GridConfig) -> Self {
        Self::with_algorithm(grid, RfAlgorithm::Bayes)
    }

    /// Creates an estimator with an explicit per-window algorithm.
    pub fn with_algorithm(grid: GridConfig, algorithm: RfAlgorithm) -> Self {
        let backend = match algorithm {
            RfAlgorithm::Bayes => Backend::Bayes(Box::new(BayesianLocalizer::new(grid))),
            RfAlgorithm::Multilateration => Backend::Lateration(Multilaterator::new(
                grid.area,
                MultilaterationConfig::default(),
            )),
            RfAlgorithm::Ekf => Backend::Ekf(EkfBackend::new(grid)),
        };
        WindowedRfEstimator {
            backend,
            last_fix: None,
            in_window: false,
            stats: WindowStats::default(),
        }
    }

    /// The algorithm this estimator runs.
    pub fn algorithm(&self) -> RfAlgorithm {
        self.backend.as_dyn().algorithm()
    }

    /// Starts a transmit window: window-reset backends throw their
    /// posterior away (paper Section 2.3), the EKF keeps its filter state,
    /// and beacon accumulation begins.
    pub fn begin_window(&mut self) {
        self.backend.as_dyn_mut().begin_window();
        self.in_window = true;
        self.stats.windows += 1;
    }

    /// Whether a window is currently open.
    pub fn in_window(&self) -> bool {
        self.in_window
    }

    /// Reports the robot's current dead-reckoned position so backends that
    /// integrate odometry between windows (the EKF) can run their
    /// prediction step. Call once per wake, before
    /// [`begin_window`](Self::begin_window); window-reset backends ignore
    /// it.
    pub fn note_odometry(&mut self, position: Point) {
        self.backend.as_dyn_mut().note_odometry(position);
    }

    /// Tells the estimator the odometry frame was just re-anchored to
    /// `fix` (CoCoA resets the dead-reckoning origin on every fresh fix),
    /// so odometry-integrating backends don't see the frame jump as
    /// motion.
    pub fn reanchor_odometry(&mut self, fix: Point) {
        self.backend.as_dyn_mut().reanchor_odometry(fix);
    }

    /// Offers one received beacon, sent from the `beacon` field's center,
    /// to the open window: [`admit_beacon`](Self::admit_beacon), then, for
    /// an admitted Bayes beacon, its grid update as a batch of one. The
    /// field carries the frame's cell distances from one receiver to the
    /// next.
    pub fn observe_beacon(
        &mut self,
        table: &PdfTable,
        radial: &RadialConstraintTable,
        beacon: &mut BeaconField,
        rssi: Dbm,
        reference: Option<Point>,
        gate_m: f64,
    ) -> ObservationResult {
        let admission = self.admit_beacon(table, radial, beacon.center(), rssi, reference, gate_m);
        if let (Some(bin), Some(mut batch)) = (admission.constraint, self.batch()) {
            apply_admitted(&mut batch, radial, beacon, bin);
        }
        admission.result
    }

    /// The bookkeeping half of an observation: offers one received beacon,
    /// sent from `center`, to the open window, first screening it against
    /// the outlier gate.
    ///
    /// If `reference` is the robot's current position belief, the beacon's
    /// claimed position implies a distance to us; the observed RSSI implies
    /// another (the calibration PDF's mean). When the two disagree by more
    /// than `gate_m` metres the beacon is almost certainly corrupt or lying
    /// and is refused before any backend can be distorted by it. A `gate_m`
    /// of `0.0`, a missing reference, or an uncalibrated RSSI disables the
    /// check.
    ///
    /// Beacons arriving outside a window (e.g. stale deliveries right after
    /// the radio slept) are counted but ignored. The gridless backends
    /// fold the beacon in at once from `table`; the Bayesian backend
    /// resolves `rssi` in `radial` and counts the beacon applied, and the
    /// returned [`Admission::constraint`] names the profile a
    /// [`batch`](Self::batch) must multiply in around `center` before the
    /// window ends. The two tables must describe the same calibration.
    pub fn admit_beacon(
        &mut self,
        table: &PdfTable,
        radial: &RadialConstraintTable,
        center: Point,
        rssi: Dbm,
        reference: Option<Point>,
        gate_m: f64,
    ) -> Admission {
        self.stats.beacons_seen += 1;
        if gate_m > 0.0 {
            if let (Some(refp), Some(pdf)) = (reference, table.lookup(rssi)) {
                let claimed = refp.distance_to(center);
                if !claimed.is_finite() || (claimed - pdf.mean()).abs() > gate_m {
                    self.stats.beacons_rejected_outlier += 1;
                    return Admission::done(ObservationResult::Outlier);
                }
            }
        }
        if !self.in_window {
            return Admission::done(ObservationResult::Rejected);
        }
        let admission = self
            .backend
            .as_dyn_mut()
            .admit_beacon(table, radial, center, rssi);
        // Only the EKF backend returns `Outlier` (its innovation gate).
        match admission.result {
            ObservationResult::Applied => self.stats.beacons_applied += 1,
            ObservationResult::Outlier => self.stats.beacons_rejected_outlier += 1,
            ObservationResult::NoPdf | ObservationResult::Rejected => {}
        }
        admission
    }

    /// Opens a batch of grid updates on the Bayesian backend's posterior
    /// (see [`GridBatch`]); `None` for gridless backends.
    pub fn batch(&mut self) -> Option<GridBatch<'_>> {
        match &mut self.backend {
            Backend::Bayes(b) => Some(b.batch()),
            Backend::Lateration(_) | Backend::Ekf(_) => None,
        }
    }

    /// Closes the window. Returns the fresh fix if the window produced one
    /// (otherwise the previous fix remains in force and `None` is
    /// returned).
    pub fn end_window(&mut self) -> Option<Point> {
        match self.end_window_guarded(1.0) {
            WindowOutcome::Fix(fix) => Some(fix),
            WindowOutcome::FlatPosterior { .. } | WindowOutcome::NoFix => None,
        }
    }

    /// Closes the window with the entropy watchdog armed.
    ///
    /// A window that accumulated enough beacons normally yields a fix — but
    /// when the applied beacons were mutually contradictory (garbled
    /// coordinates, faulty sources) the posterior stays close to uniform
    /// and its mean is just the area centre. The watchdog vetoes such fixes:
    /// if the posterior entropy exceeds `watchdog_frac · max_entropy` the
    /// window reports [`WindowOutcome::FlatPosterior`], the previous fix is
    /// kept, and the caller degrades to dead reckoning.
    ///
    /// `watchdog_frac >= 1.0` disables the veto. Backends without a
    /// posterior ([`RfBackend::end_window_confidence`] returns `None`)
    /// never trip the watchdog.
    pub fn end_window_guarded(&mut self, watchdog_frac: f64) -> WindowOutcome {
        self.in_window = false;
        let Some(fix) = self.backend.as_dyn().estimate() else {
            return WindowOutcome::NoFix;
        };
        if watchdog_frac < 1.0 {
            if let Some((entropy, max_entropy)) = self.backend.as_dyn().end_window_confidence() {
                let threshold = watchdog_frac * max_entropy;
                if entropy > threshold {
                    self.stats.flat_windows += 1;
                    return WindowOutcome::FlatPosterior { entropy, threshold };
                }
            }
        }
        self.last_fix = Some(fix);
        self.stats.fixes += 1;
        WindowOutcome::Fix(fix)
    }

    /// The most recent fix, if any window ever produced one.
    pub fn last_fix(&self) -> Option<Point> {
        self.last_fix
    }

    /// Posterior entropy as a fraction of the uniform-grid maximum, in
    /// `[0, 1]` (1 = completely uninformative). `None` for backends without
    /// a posterior — telemetry timelines record it as null rather than a
    /// fake number.
    pub fn entropy_fraction(&self) -> Option<f64> {
        self.backend.as_dyn().entropy_fraction()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// EKF-only lifetime counters `(updates_applied, updates_gated)`;
    /// `None` for the other backends.
    pub fn ekf_counters(&self) -> Option<(u64, u64)> {
        self.backend.as_dyn().ekf_counters()
    }

    /// Kernel accounting of the Bayesian backend (the `grid.*` telemetry
    /// counters). Zero for gridless backends.
    pub fn grid_stats(&self) -> GridStats {
        self.backend.as_dyn().grid_stats()
    }

    /// The Bayesian backend's posterior; `None` for gridless backends.
    pub fn posterior(&self) -> Option<&PositionGrid> {
        match &self.backend {
            Backend::Bayes(b) => Some(b.grid()),
            Backend::Lateration(_) | Backend::Ekf(_) => None,
        }
    }

    /// The snapshot layout: the lifecycle state shared by every backend,
    /// then the solver's. Decode onto an estimator built with the same
    /// grid and algorithm ([`WindowedRfEstimator::with_algorithm`]); a
    /// Bayesian posterior keeps the cell count it was stored with (see
    /// [`PositionGrid::code`]).
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let WindowedRfEstimator {
            backend,
            last_fix,
            in_window,
            stats,
        } = self;
        c.opt(last_fix, |c, p| p.code(c))?;
        c.bool(in_window)?;
        stats.code(c)?;
        backend.code(c)
    }

    /// The estimator a reboot leaves behind over `grid`: a fresh posterior
    /// or filter, no ranges, no fix and no open window, but the same
    /// lifetime counters — [`WindowStats`], [`GridStats`] and the EKF's
    /// update counts — so the `estimator.<backend>.*` and `grid.*`
    /// telemetry keep the work done before the crash.
    pub fn reboot(&mut self, grid: GridConfig) {
        let mut fresh = Self::with_algorithm(grid, self.algorithm());
        fresh.stats = self.stats;
        match (&mut fresh.backend, &self.backend) {
            (Backend::Bayes(b), Backend::Bayes(old)) => b.stats = old.stats,
            (Backend::Ekf(e), Backend::Ekf(old)) => {
                e.ekf.updates_applied = old.ekf.updates_applied;
                e.ekf.updates_gated = old.ekf.updates_gated;
            }
            // Multilateration keeps no lifetime counters.
            _ => {}
        }
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_net::calibration::{calibrate, CalibrationConfig};
    use cocoa_net::channel::RfChannel;
    use cocoa_net::geometry::Area;
    use cocoa_sim::rng::SeedSplitter;

    fn grid() -> GridConfig {
        GridConfig::new(Area::square(200.0), 2.0)
    }

    fn setup() -> (
        RfChannel,
        PdfTable,
        RadialConstraintTable,
        WindowedRfEstimator,
    ) {
        let ch = RfChannel::default();
        let mut rng = SeedSplitter::new(1).stream("cal", 0);
        let table = calibrate(&ch, &CalibrationConfig::default(), &mut rng);
        let radial = crate::bayes::radial_constraints_for_grid(&table, &grid());
        (ch, table, radial, WindowedRfEstimator::new(grid()))
    }

    #[test]
    fn window_with_too_few_beacons_keeps_old_fix() {
        let (ch, table, radial, mut est) = setup();
        let mut rng = SeedSplitter::new(2).stream("t", 0);
        let robot = Point::new(100.0, 100.0);
        // First window: 3 beacons, get a fix.
        est.begin_window();
        for b in [
            Point::new(92.0, 100.0),
            Point::new(108.0, 104.0),
            Point::new(100.0, 92.0),
        ] {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
        }
        let fix1 = est.end_window().expect("fix");
        // Second window: only 1 beacon — no new fix, old one kept.
        est.begin_window();
        let rssi = ch.sample_rssi(10.0, &mut rng);
        est.observe_beacon(
            &table,
            &radial,
            &mut BeaconField::new(Point::new(90.0, 100.0)),
            rssi,
            None,
            0.0,
        );
        assert_eq!(est.end_window(), None);
        assert_eq!(est.last_fix(), Some(fix1));
        assert_eq!(est.stats().windows, 2);
        assert_eq!(est.stats().fixes, 1);
    }

    #[test]
    fn beacons_outside_window_are_ignored() {
        let (ch, table, radial, mut est) = setup();
        let mut rng = SeedSplitter::new(3).stream("t", 0);
        let rssi = ch.sample_rssi(10.0, &mut rng);
        let r = est.observe_beacon(
            &table,
            &radial,
            &mut BeaconField::new(Point::new(90.0, 100.0)),
            rssi,
            None,
            0.0,
        );
        assert_eq!(r, ObservationResult::Rejected);
        assert_eq!(est.stats().beacons_seen, 1);
        assert_eq!(est.stats().beacons_applied, 0);
        assert!(est.last_fix().is_none());
    }

    #[test]
    fn each_window_starts_fresh() {
        let (ch, table, radial, mut est) = setup();
        let mut rng = SeedSplitter::new(4).stream("t", 0);
        let robot = Point::new(60.0, 60.0);
        let beacons = [
            Point::new(52.0, 60.0),
            Point::new(68.0, 64.0),
            Point::new(60.0, 52.0),
        ];
        est.begin_window();
        for b in beacons {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
        }
        est.end_window().expect("fix 1");
        // Next window near a different location converges there, not to a
        // blend — proof the posterior was discarded.
        let robot2 = Point::new(150.0, 150.0);
        let beacons2 = [
            Point::new(142.0, 150.0),
            Point::new(158.0, 154.0),
            Point::new(150.0, 142.0),
        ];
        est.begin_window();
        for b in beacons2 {
            let rssi = ch.sample_rssi(robot2.distance_to(b), &mut rng);
            est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
        }
        let fix2 = est.end_window().expect("fix 2");
        assert!(fix2.distance_to(robot2) < 20.0, "fix2 {fix2}");
    }

    #[test]
    fn outlier_gate_refuses_inconsistent_beacons() {
        let (ch, table, radial, mut est) = setup();
        est.begin_window();
        let reference = Some(Point::new(100.0, 100.0));
        // The beacon claims to be 5 m away, but its RSSI says ~80 m: a
        // corrupted coordinate field.
        let lying_rssi = ch.mean_rssi(80.0);
        let r = est.observe_beacon(
            &table,
            &radial,
            &mut BeaconField::new(Point::new(105.0, 100.0)),
            lying_rssi,
            reference,
            40.0,
        );
        assert_eq!(r, ObservationResult::Outlier);
        assert_eq!(est.stats().beacons_rejected_outlier, 1);
        assert_eq!(est.stats().beacons_applied, 0);
        // A consistent beacon passes the gate.
        let honest_rssi = ch.mean_rssi(5.0);
        let r = est.observe_beacon(
            &table,
            &radial,
            &mut BeaconField::new(Point::new(105.0, 100.0)),
            honest_rssi,
            reference,
            40.0,
        );
        assert_eq!(r, ObservationResult::Applied);
        // Gate 0.0 disables the check entirely.
        let r = est.observe_beacon(
            &table,
            &radial,
            &mut BeaconField::new(Point::new(105.0, 100.0)),
            lying_rssi,
            reference,
            0.0,
        );
        assert_ne!(r, ObservationResult::Outlier);
    }

    #[test]
    fn shared_outlier_gate_screens_the_ekf_backend_too() {
        // Satellite of the backend refactor: the claimed-distance gate
        // must fire *before* the backend, so a lying beacon never reaches
        // the EKF's innovation machinery (whose own gate would otherwise
        // be the only line of defence, and which a vague filter leaves
        // wide open).
        let (ch, table, radial, _) = setup();
        let mut est = WindowedRfEstimator::with_algorithm(grid(), RfAlgorithm::Ekf);
        assert_eq!(est.algorithm(), RfAlgorithm::Ekf);
        est.begin_window();
        let reference = Some(Point::new(100.0, 100.0));
        let lying_rssi = ch.mean_rssi(80.0);
        let r = est.observe_beacon(
            &table,
            &radial,
            &mut BeaconField::new(Point::new(105.0, 100.0)),
            lying_rssi,
            reference,
            40.0,
        );
        assert_eq!(r, ObservationResult::Outlier);
        assert_eq!(est.stats().beacons_rejected_outlier, 1);
        // The filter saw nothing: neither an applied nor a gated update.
        assert_eq!(est.ekf_counters(), Some((0, 0)));
        // An honest beacon passes the gate and reaches the filter.
        let honest_rssi = ch.mean_rssi(5.0);
        let r = est.observe_beacon(
            &table,
            &radial,
            &mut BeaconField::new(Point::new(105.0, 100.0)),
            honest_rssi,
            reference,
            40.0,
        );
        assert_eq!(r, ObservationResult::Applied);
        assert_eq!(est.ekf_counters(), Some((1, 0)));
    }

    #[test]
    fn ekf_estimator_produces_fixes_and_carries_state() {
        let (ch, table, radial, _) = setup();
        let grid = grid();
        let mut est = WindowedRfEstimator::with_algorithm(grid, RfAlgorithm::Ekf);
        let mut rng = SeedSplitter::new(7).stream("t", 0);
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(92.0, 100.0),
            Point::new(108.0, 104.0),
            Point::new(100.0, 92.0),
            Point::new(110.0, 96.0),
        ];
        let mut fix = None;
        for _ in 0..4 {
            est.note_odometry(robot);
            est.begin_window();
            for b in beacons {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
            }
            fix = est.end_window().or(fix);
        }
        let fix = fix.expect("four windows of four beacons must fix");
        assert!(fix.distance_to(robot) < 25.0, "fix {fix}");
        assert!(est.stats().fixes >= 1);
        // The EKF has no posterior, so it reports no entropy fraction.
        assert_eq!(est.entropy_fraction(), None);
    }

    /// An estimator of `algorithm` after one window with a fix, with a
    /// second window left open.
    fn driven(algorithm: RfAlgorithm) -> WindowedRfEstimator {
        let (ch, table, radial, _) = setup();
        let mut rng = SeedSplitter::new(8).stream("t", 0);
        let robot = Point::new(80.0, 120.0);
        let mut est = WindowedRfEstimator::with_algorithm(grid(), algorithm);
        est.note_odometry(Point::new(79.0, 119.0));
        est.begin_window();
        for b in [
            Point::new(72.0, 120.0),
            Point::new(88.0, 124.0),
            Point::new(80.0, 112.0),
        ] {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
        }
        est.end_window();
        est.begin_window(); // leave a window open: in_window must survive
        est
    }

    fn encode(est: &mut WindowedRfEstimator) -> Vec<u8> {
        cocoa_sim::snapshot::encode(|c| est.code(c))
    }

    #[test]
    fn checkpoints_round_trip_for_every_algorithm() {
        for algorithm in RfAlgorithm::ALL {
            let mut est = driven(algorithm);
            let bytes = encode(&mut est);
            let mut restored = WindowedRfEstimator::with_algorithm(grid(), algorithm);
            cocoa_sim::snapshot::decode(&bytes, "estimator", |c| restored.code(c))
                .expect("own bytes decode");
            assert_eq!(restored.algorithm(), algorithm);
            assert_eq!(restored, est, "{algorithm}: restore must be exact");
            assert_eq!(encode(&mut restored), bytes, "{algorithm}: re-encode");
        }
    }

    /// A reboot keeps [`WindowStats`], [`GridStats`] and the EKF's update
    /// counters, and nothing else: its bytes are those of a fresh
    /// estimator that carries the same counters.
    fn reboot_keeps_only_the_lifetime_counters(algorithm: RfAlgorithm) {
        let mut est = driven(algorithm);
        let (stats, grid_stats, ekf) = (est.stats(), est.grid_stats(), est.ekf_counters());
        assert!(stats.windows == 2 && stats.beacons_applied > 0, "{stats:?}");
        est.reboot(grid());
        assert_eq!(est.stats(), stats);
        assert_eq!(est.grid_stats(), grid_stats);
        assert_eq!(est.ekf_counters(), ekf);
        let mut fresh = WindowedRfEstimator::with_algorithm(grid(), algorithm);
        fresh.stats = stats;
        match &mut fresh.backend {
            Backend::Bayes(b) => b.stats = grid_stats,
            Backend::Ekf(e) => {
                (e.ekf.updates_applied, e.ekf.updates_gated) = ekf.expect("an EKF");
            }
            Backend::Lateration(_) => {}
        }
        assert_eq!(encode(&mut est), encode(&mut fresh));
    }

    #[test]
    fn reboot_keeps_only_the_bayes_lifetime_counters() {
        reboot_keeps_only_the_lifetime_counters(RfAlgorithm::Bayes);
    }

    #[test]
    fn reboot_keeps_only_the_multilateration_lifetime_counters() {
        reboot_keeps_only_the_lifetime_counters(RfAlgorithm::Multilateration);
    }

    #[test]
    fn reboot_keeps_only_the_ekf_lifetime_counters() {
        reboot_keeps_only_the_lifetime_counters(RfAlgorithm::Ekf);
    }

    #[test]
    fn entropy_watchdog_vetoes_flat_posteriors() {
        let (ch, table, radial, mut est) = setup();
        let mut rng = SeedSplitter::new(9).stream("t", 0);
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(92.0, 100.0),
            Point::new(108.0, 104.0),
            Point::new(100.0, 92.0),
        ];
        est.begin_window();
        for b in beacons {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
        }
        // An absurdly strict watchdog treats even a good posterior as flat:
        // the fix is vetoed and the previous (absent) fix kept.
        match est.end_window_guarded(1e-6) {
            WindowOutcome::FlatPosterior { entropy, threshold } => {
                assert!(entropy > threshold);
            }
            other => panic!("expected flat-posterior veto, got {other:?}"),
        }
        assert_eq!(est.last_fix(), None);
        assert_eq!(est.stats().flat_windows, 1);
        assert_eq!(est.stats().fixes, 0);
        // The same beacons with the watchdog disabled produce a fix.
        est.begin_window();
        for b in beacons {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
        }
        assert!(matches!(est.end_window_guarded(1.0), WindowOutcome::Fix(_)));
        assert_eq!(est.stats().fixes, 1);
    }

    #[test]
    fn mode_properties() {
        assert!(!EstimatorMode::OdometryOnly.uses_rf());
        assert!(EstimatorMode::RfOnly.uses_rf());
        assert!(EstimatorMode::Cocoa.uses_rf());
        assert!(EstimatorMode::Cocoa.uses_odometry_between_windows());
        assert!(!EstimatorMode::RfOnly.uses_odometry_between_windows());
        assert_eq!(EstimatorMode::Cocoa.to_string(), "cocoa");
        assert_eq!(RfAlgorithm::Ekf.to_string(), "ekf");
    }
}
