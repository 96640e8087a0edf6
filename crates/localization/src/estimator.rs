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
//! [`WindowedRfEstimator`] owns the whole window: its lifecycle, the
//! outlier gate, the entropy watchdog, the three-beacon rule and the
//! per-window solver, one of Bayesian grid inference (the paper's
//! algorithm), weighted least-squares multilateration, and an extended
//! Kalman filter that carries state across windows.

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::{PdfTable, RadialConstraintTable};
use cocoa_net::geometry::Point;
use cocoa_net::rssi::{Dbm, RssiBin};
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::ekf::{EkfConfig, EkfLocalizer, EkfUpdate};
use crate::grid::{BeaconField, ConstraintOutcome, GridBatch, GridConfig, PositionGrid};
use crate::multilateration::{MultilaterationConfig, Multilaterator};

/// The paper requires at least this many beacons before estimating
/// (Section 2.2); a window whose solver took fewer yields no fix.
pub const MIN_BEACONS_FOR_ESTIMATE: u32 = 3;

/// What happened to one beacon observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservationResult {
    /// The beacon is part of the window's evidence: folded into the
    /// solver, or, for a Bayes beacon, admitted for the grid kernel to
    /// multiply in before the posterior is next read
    /// ([`Admission::constraint`]).
    Applied,
    /// The RSSI had no usable PDF-table bin (outside the calibrated range).
    NoPdf,
    /// The beacon arrived while no window was open and was ignored.
    Rejected,
    /// The beacon failed the outlier gate: its claimed position is
    /// inconsistent with the RSSI-implied distance (a corrupted or lying
    /// beacon source), or the EKF's innovation gate refused it.
    Outlier,
}

/// What the bookkeeping half of an observation decided on arrival.
///
/// An observation is bookkeeping — the outlier gate, the RSSI's bin
/// lookup (which samples the bin's profile on first use) and the counters
/// — and, for a Bayes beacon, a grid update. The bookkeeping's result is
/// final: the grid update of an admitted Bayes beacon multiplies a
/// floored profile into a valid posterior, which always applies
/// ([`GridBatch::apply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The observation's outcome.
    pub result: ObservationResult,
    /// For a Bayes beacon reported [`ObservationResult::Applied`]: the
    /// calibrated bin whose profile the grid update still has to multiply
    /// into the posterior, around the beacon's claimed position, before
    /// the posterior is next read or reset.
    pub constraint: Option<RssiBin>,
}

impl Admission {
    /// An outcome with no grid update left to run.
    pub fn done(result: ObservationResult) -> Self {
        Admission {
            result,
            constraint: None,
        }
    }
}

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

/// The per-window solver, one arm per [`RfAlgorithm`]. The window
/// lifecycle matches on it directly.
///
/// | | `begin_window` | a beacon | the fix |
/// |---|---|---|---|
/// | `Bayes` | uniform prior | a grid constraint, admitted | posterior mean |
/// | `Lateration` | no ranges | a range | WLS solution |
/// | `Ekf` | kept | a gated IEKF range update | filter state |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Solver {
    /// The paper's grid posterior, thrown away at every window start, or
    /// already at the window's close once its entropy is recorded.
    Bayes {
        grid: Box<PositionGrid>,
        /// The entropy, nats, of the posterior the last window closed
        /// with, recorded when the close found it already computed; the
        /// cells were then returned to the uniform prior. `None` while a
        /// window is open.
        closed_entropy: Option<f64>,
    },
    /// Weighted least squares over the window's ranges.
    Lateration(Multilaterator),
    /// A filter that carries its state across windows, predicting from
    /// odometry between them.
    Ekf {
        filter: EkfLocalizer,
        /// Dead-reckoned position at the last `note_odometry`, i.e. the
        /// origin the next displacement is measured from.
        last_odo: Option<Point>,
    },
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
    /// Beacons the solvers took: multiplied into a posterior, added to
    /// the ranges or fused into the filter.
    pub beacons_applied: u64,
    /// Beacons refused by the outlier gate (the shared claimed-distance
    /// gate, plus the EKF's innovation gate).
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
    /// team-wide aggregation the telemetry counters report). Like every
    /// bump of these lifetime counters, it wraps: a restored snapshot may
    /// carry any value.
    pub fn absorb(&mut self, other: &WindowStats) {
        self.windows = self.windows.wrapping_add(other.windows);
        self.fixes = self.fixes.wrapping_add(other.fixes);
        self.flat_windows = self.flat_windows.wrapping_add(other.flat_windows);
        self.beacons_seen = self.beacons_seen.wrapping_add(other.beacons_seen);
        self.beacons_applied = self.beacons_applied.wrapping_add(other.beacons_applied);
        self.beacons_rejected_outlier = self
            .beacons_rejected_outlier
            .wrapping_add(other.beacons_rejected_outlier);
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
/// Drives its solver through the CoCoA window lifecycle:
/// `begin_window → observe_beacon* → end_window`. Each observation is
/// bookkeeping ([`admit_beacon`](Self::admit_beacon)) and, for the
/// Bayesian solver, a grid update, which a caller may defer and run for
/// many beacons at once in a [`batch`](Self::batch) before the window
/// ends; [`observe_beacon`](Self::observe_beacon) runs both as a batch of
/// one. If a window applies fewer than [`MIN_BEACONS_FOR_ESTIMATE`]
/// beacons, the previous fix is retained ("if certain robots do not
/// receive any beacons, they continue with their old estimated position",
/// paper Section 2.3).
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
    solver: Solver,
    last_fix: Option<Point>,
    in_window: bool,
    /// Beacons the solver took in the open window, or in the last one
    /// once it has closed.
    window_applied: u32,
    stats: WindowStats,
}

impl WindowedRfEstimator {
    /// Creates an estimator running the paper's Bayesian algorithm.
    pub fn new(grid: GridConfig) -> Self {
        Self::with_algorithm(grid, RfAlgorithm::Bayes)
    }

    /// Creates an estimator with an explicit per-window algorithm. The
    /// EKF starts at the area's centre with the default tuning (the
    /// paper's arbitrary-deployment prior: a large sigma).
    pub fn with_algorithm(grid: GridConfig, algorithm: RfAlgorithm) -> Self {
        let solver = match algorithm {
            RfAlgorithm::Bayes => Solver::Bayes {
                grid: Box::new(PositionGrid::new(grid)),
                closed_entropy: None,
            },
            RfAlgorithm::Multilateration => Solver::Lateration(Multilaterator::new(
                grid.area,
                MultilaterationConfig::default(),
            )),
            RfAlgorithm::Ekf => Solver::Ekf {
                filter: EkfLocalizer::new(EkfConfig::default(), grid.area, None),
                last_odo: None,
            },
        };
        WindowedRfEstimator {
            solver,
            last_fix: None,
            in_window: false,
            window_applied: 0,
            stats: WindowStats::default(),
        }
    }

    /// The algorithm this estimator runs.
    pub fn algorithm(&self) -> RfAlgorithm {
        match self.solver {
            Solver::Bayes { .. } => RfAlgorithm::Bayes,
            Solver::Lateration(_) => RfAlgorithm::Multilateration,
            Solver::Ekf { .. } => RfAlgorithm::Ekf,
        }
    }

    /// Starts a transmit window: the Bayesian posterior returns to the
    /// uniform prior and multilateration drops its ranges (paper
    /// Section 2.3), the EKF keeps its filter state, and beacon
    /// accumulation begins.
    pub fn begin_window(&mut self) {
        match &mut self.solver {
            Solver::Bayes {
                grid,
                closed_entropy,
            } => {
                // A close that recorded the entropy has reset the cells.
                if closed_entropy.take().is_none() {
                    grid.reset_uniform();
                }
            }
            Solver::Lateration(l) => l.reset(),
            Solver::Ekf { .. } => {}
        }
        self.window_applied = 0;
        self.in_window = true;
        self.stats.windows = self.stats.windows.wrapping_add(1);
    }

    /// Whether a window is currently open.
    pub fn in_window(&self) -> bool {
        self.in_window
    }

    /// Reports the robot's current dead-reckoned position, from which the
    /// EKF predicts the displacement since the last report. Call once per
    /// wake, before [`begin_window`](Self::begin_window); the other
    /// solvers ignore it.
    pub fn note_odometry(&mut self, position: Point) {
        if let Solver::Ekf { filter, last_odo } = &mut self.solver {
            if let Some(prev) = *last_odo {
                filter.predict(position - prev);
            }
            *last_odo = Some(position);
        }
    }

    /// Tells the estimator the odometry frame was just re-anchored to
    /// `fix` (CoCoA resets the dead-reckoning origin on every fresh fix),
    /// so the EKF's next [`note_odometry`](Self::note_odometry) measures
    /// displacement from the new frame instead of seeing a jump.
    pub fn reanchor_odometry(&mut self, fix: Point) {
        if let Solver::Ekf { last_odo, .. } = &mut self.solver {
            *last_odo = Some(fix);
        }
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
            let profile = radial.get(bin).expect("an admitted bin is calibrated");
            let outcome = batch.apply(beacon, profile);
            debug_assert_eq!(
                outcome,
                ConstraintOutcome::Applied,
                "an admitted beacon was rejected"
            );
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
    /// and is refused before any solver can be distorted by it. A `gate_m`
    /// of `0.0`, a missing reference, or an uncalibrated RSSI disables the
    /// check.
    ///
    /// Beacons arriving outside a window (e.g. stale deliveries right after
    /// the radio slept) are counted but ignored. The gridless solvers
    /// fold the beacon in at once from `table`; the Bayesian solver
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
        use ObservationResult::{Applied, NoPdf, Outlier, Rejected};
        self.stats.beacons_seen = self.stats.beacons_seen.wrapping_add(1);
        if gate_m > 0.0 {
            if let (Some(refp), Some(pdf)) = (reference, table.lookup(rssi)) {
                let claimed = refp.distance_to(center);
                if !claimed.is_finite() || (claimed - pdf.mean()).abs() > gate_m {
                    self.stats.beacons_rejected_outlier =
                        self.stats.beacons_rejected_outlier.wrapping_add(1);
                    return Admission::done(Outlier);
                }
            }
        }
        if !self.in_window {
            return Admission::done(Rejected);
        }
        let admission = match &mut self.solver {
            Solver::Bayes { .. } => match radial.resolve(rssi) {
                Some((bin, _)) => Admission {
                    result: Applied,
                    constraint: Some(bin),
                },
                None => Admission::done(NoPdf),
            },
            Solver::Lateration(l) => Admission::done(if l.observe_beacon(table, center, rssi) {
                Applied
            } else {
                NoPdf
            }),
            Solver::Ekf { filter, .. } => {
                Admission::done(match filter.update_from_beacon(table, center, rssi) {
                    EkfUpdate::Applied => Applied,
                    EkfUpdate::Gated => Outlier,
                    EkfUpdate::NoPdf => NoPdf,
                })
            }
        };
        match admission.result {
            Applied => {
                self.window_applied = self.window_applied.wrapping_add(1);
                self.stats.beacons_applied = self.stats.beacons_applied.wrapping_add(1);
            }
            // Only the EKF's innovation gate refuses a beacon here.
            Outlier => {
                self.stats.beacons_rejected_outlier =
                    self.stats.beacons_rejected_outlier.wrapping_add(1);
            }
            NoPdf | Rejected => {}
        }
        admission
    }

    /// Opens a batch of grid updates on the Bayesian posterior (see
    /// [`GridBatch`]); `None` for the gridless solvers.
    pub fn batch(&mut self) -> Option<GridBatch<'_>> {
        match &mut self.solver {
            Solver::Bayes { grid, .. } => Some(grid.batch()),
            Solver::Lateration(_) | Solver::Ekf { .. } => None,
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
    /// A window that applied at least [`MIN_BEACONS_FOR_ESTIMATE`] beacons
    /// normally yields a fix — but when the applied beacons were mutually
    /// contradictory (garbled coordinates, faulty sources) the Bayesian
    /// posterior stays close to uniform and its mean is just the area
    /// centre. The watchdog vetoes such fixes: if the posterior entropy
    /// exceeds `watchdog_frac · max_entropy` the window reports
    /// [`WindowOutcome::FlatPosterior`], the previous fix is kept, and the
    /// caller degrades to dead reckoning.
    ///
    /// `watchdog_frac >= 1.0` disables the veto. The gridless solvers have
    /// no posterior to judge and never trip it.
    ///
    /// Once the fix is taken, a closed window is read only for its
    /// entropy (paper Sections 2.2–2.3). If that is already known — the
    /// watchdog has just computed it — the close records it
    /// ([`closed_entropy`](Self::closed_entropy)) and returns the cells
    /// to the uniform prior now rather than at the next window start.
    /// Closing a window that is not open yields [`WindowOutcome::NoFix`].
    pub fn end_window_guarded(&mut self, watchdog_frac: f64) -> WindowOutcome {
        if !std::mem::take(&mut self.in_window) {
            return WindowOutcome::NoFix;
        }
        let outcome = self.judge_window(watchdog_frac);
        if let Solver::Bayes {
            grid,
            closed_entropy,
        } = &mut self.solver
        {
            if let Some(entropy) = grid.known_entropy() {
                *closed_entropy = Some(entropy);
                grid.reset_uniform();
            }
        }
        outcome
    }

    /// The outcome of the window just closed, applied to the last fix and
    /// the statistics.
    fn judge_window(&mut self, watchdog_frac: f64) -> WindowOutcome {
        if self.window_applied < MIN_BEACONS_FOR_ESTIMATE {
            return WindowOutcome::NoFix;
        }
        let fix = match &self.solver {
            Solver::Bayes { grid, .. } => {
                if watchdog_frac < 1.0 {
                    let (entropy, threshold) = (grid.entropy(), watchdog_frac * grid.max_entropy());
                    if entropy > threshold {
                        self.stats.flat_windows = self.stats.flat_windows.wrapping_add(1);
                        return WindowOutcome::FlatPosterior { entropy, threshold };
                    }
                }
                grid.mean()
            }
            Solver::Lateration(l) => match l.estimate() {
                Some(fix) => fix,
                None => return WindowOutcome::NoFix,
            },
            Solver::Ekf { filter, .. } => filter.estimate(),
        };
        self.last_fix = Some(fix);
        self.stats.fixes = self.stats.fixes.wrapping_add(1);
        WindowOutcome::Fix(fix)
    }

    /// The most recent fix, if any window ever produced one.
    pub fn last_fix(&self) -> Option<Point> {
        self.last_fix
    }

    /// Posterior entropy as a fraction of the uniform-grid maximum, in
    /// `[0, 1]` (1 = completely uninformative). Between windows it is the
    /// closed window's: the recorded entropy if the close recorded one.
    /// `None` for the gridless solvers — telemetry timelines record it as
    /// null rather than a fake number.
    ///
    /// The entropy is a sum over every cell and can round past the
    /// maximum (a uniform 100 × 100 posterior would read
    /// 1 + 1.4 × 10⁻¹³), so the fraction is clamped into `[0, 1]`.
    pub fn entropy_fraction(&self) -> Option<f64> {
        let Solver::Bayes {
            grid,
            closed_entropy,
        } = &self.solver
        else {
            return None;
        };
        let max = grid.max_entropy();
        Some(if max > 0.0 {
            (closed_entropy.unwrap_or_else(|| grid.entropy()) / max).clamp(0.0, 1.0)
        } else {
            0.0
        })
    }

    /// The entropy, nats, of the posterior the last window closed with,
    /// if the close recorded it (see
    /// [`end_window_guarded`](Self::end_window_guarded)); the cells are
    /// then the uniform prior. `None` while a window is open, after a
    /// close that found the entropy unknown, and for the gridless solvers.
    pub fn closed_entropy(&self) -> Option<f64> {
        match self.solver {
            Solver::Bayes { closed_entropy, .. } => closed_entropy,
            Solver::Lateration(_) | Solver::Ekf { .. } => None,
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// The Bayesian posterior; `None` for the gridless solvers.
    pub fn posterior(&self) -> Option<&PositionGrid> {
        match &self.solver {
            Solver::Bayes { grid, .. } => Some(grid),
            Solver::Lateration(_) | Solver::Ekf { .. } => None,
        }
    }

    /// The Bayesian posterior while it holds evidence, which is when a
    /// snapshot stores its cells: from a window's first applied beacon to
    /// the next window start, or to the window's close if that recorded
    /// the entropy. Otherwise the cells are the uniform prior, and `None`.
    pub fn stored_posterior(&self) -> Option<&PositionGrid> {
        match &self.solver {
            Solver::Bayes {
                grid,
                closed_entropy,
            } if holds_evidence(self.window_applied, self.in_window, *closed_entropy) => Some(grid),
            Solver::Bayes { .. } | Solver::Lateration(_) | Solver::Ekf { .. } => None,
        }
    }

    /// The EKF; `None` for the other solvers.
    pub fn filter(&self) -> Option<&EkfLocalizer> {
        match &self.solver {
            Solver::Ekf { filter, .. } => Some(filter),
            Solver::Bayes { .. } | Solver::Lateration(_) => None,
        }
    }

    /// The snapshot layout: the lifecycle state shared by every solver,
    /// then the solver's own. No tag names the solver: decode onto an
    /// estimator built with the same grid and algorithm
    /// ([`WindowedRfEstimator::with_algorithm`]).
    ///
    /// The Bayesian solver stores the recorded entropy, then the cells
    /// only while they hold evidence
    /// ([`stored_posterior`](Self::stored_posterior)); cells that are not
    /// stored decode as the uniform prior the new estimator holds. Stored
    /// cells keep the count they were stored with (see
    /// [`PositionGrid::code`]).
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let WindowedRfEstimator {
            solver,
            last_fix,
            in_window,
            window_applied,
            stats,
        } = self;
        c.opt(last_fix, |c, p| p.code(c))?;
        c.bool(in_window)?;
        c.u32(window_applied)?;
        stats.code(c)?;
        match solver {
            Solver::Bayes {
                grid,
                closed_entropy,
            } => {
                c.opt(closed_entropy, Codec::f64)?;
                if holds_evidence(*window_applied, *in_window, *closed_entropy) {
                    grid.code(c)?;
                }
                Ok(())
            }
            Solver::Lateration(l) => l.code(c),
            Solver::Ekf { filter, last_odo } => {
                filter.code(c)?;
                c.opt(last_odo, |c, p| p.code(c))
            }
        }
    }

    /// The estimator a reboot leaves behind over `grid`: a fresh posterior
    /// or filter, no ranges, no fix and no open window, but the same
    /// lifetime counters — [`WindowStats`] and the EKF's gated updates —
    /// so the `estimator.<backend>.*` and `grid.*` telemetry keep the work
    /// done before the crash.
    pub fn reboot(&mut self, grid: GridConfig) {
        let gated = self.filter().map(EkfLocalizer::updates_gated);
        *self = WindowedRfEstimator {
            stats: self.stats,
            ..Self::with_algorithm(grid, self.algorithm())
        };
        if let (Solver::Ekf { filter, .. }, Some(gated)) = (&mut self.solver, gated) {
            filter.updates_gated = gated;
        }
    }
}

/// Whether the Bayesian cells hold evidence: a window has applied a
/// beacon, and its close has not recorded the entropy and reset them.
fn holds_evidence(window_applied: u32, in_window: bool, closed_entropy: Option<f64>) -> bool {
    window_applied > 0 && (in_window || closed_entropy.is_none())
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
        let gated = |est: &WindowedRfEstimator| est.filter().map(EkfLocalizer::updates_gated);
        assert_eq!((est.stats().beacons_applied, gated(&est)), (0, Some(0)));
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
        assert_eq!((est.stats().beacons_applied, gated(&est)), (1, Some(0)));
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

    /// Three beacons 8–9 m from (80, 120), heard there.
    fn offer_three_beacons(est: &mut WindowedRfEstimator, seed: u64) {
        let (ch, table, radial, _) = setup();
        let mut rng = SeedSplitter::new(seed).stream("t", 0);
        let robot = Point::new(80.0, 120.0);
        for b in [
            Point::new(72.0, 120.0),
            Point::new(88.0, 124.0),
            Point::new(80.0, 112.0),
        ] {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            est.observe_beacon(&table, &radial, &mut BeaconField::new(b), rssi, None, 0.0);
        }
    }

    /// An estimator of `algorithm` after one window with a fix, with a
    /// second window left open.
    fn driven(algorithm: RfAlgorithm) -> WindowedRfEstimator {
        let mut est = WindowedRfEstimator::with_algorithm(grid(), algorithm);
        est.note_odometry(Point::new(79.0, 119.0));
        est.begin_window();
        offer_three_beacons(&mut est, 8);
        est.end_window();
        est.begin_window(); // leave a window open: in_window must survive
        est
    }

    /// `driven(algorithm)` in each window state a snapshot can find it in:
    /// open before any beacon, open with beacons, closed with its entropy
    /// recorded (the watchdog computed it), and closed with it unknown.
    fn window_states(algorithm: RfAlgorithm) -> [(&'static str, WindowedRfEstimator); 4] {
        let open = driven(algorithm);
        let mut with_beacons = open.clone();
        offer_three_beacons(&mut with_beacons, 9);
        let mut recorded = with_beacons.clone();
        recorded.end_window_guarded(0.98);
        let mut unknown = with_beacons.clone();
        unknown.end_window();
        [
            ("open", open),
            ("open with beacons", with_beacons),
            ("closed, entropy recorded", recorded),
            ("closed, entropy unknown", unknown),
        ]
    }

    fn encode(est: &mut WindowedRfEstimator) -> Vec<u8> {
        cocoa_sim::snapshot::encode(|c| est.code(c))
    }

    #[test]
    fn checkpoints_round_trip_for_every_algorithm() {
        for algorithm in RfAlgorithm::ALL {
            for (state, mut est) in window_states(algorithm) {
                let recorded =
                    state == "closed, entropy recorded" && algorithm == RfAlgorithm::Bayes;
                assert_eq!(
                    est.closed_entropy().is_some(),
                    recorded,
                    "{algorithm}, {state}"
                );
                let bytes = encode(&mut est);
                let mut restored = WindowedRfEstimator::with_algorithm(grid(), algorithm);
                cocoa_sim::snapshot::decode(&bytes, "estimator", |c| restored.code(c))
                    .expect("own bytes decode");
                assert_eq!(restored.algorithm(), algorithm);
                assert_eq!(restored, est, "{algorithm}, {state}: restore must be exact");
                assert_eq!(
                    encode(&mut restored),
                    bytes,
                    "{algorithm}, {state}: re-encode"
                );
                assert_eq!(
                    restored.entropy_fraction().map(f64::to_bits),
                    est.entropy_fraction().map(f64::to_bits),
                    "{algorithm}, {state}"
                );
            }
        }
    }

    /// A Bayes snapshot stores cells only while they hold evidence: the 8
    /// bytes of the cell count and 8 per cell.
    #[test]
    fn only_a_posterior_holding_evidence_is_stored() {
        let posterior = 8 + 8 * grid().dims().0 * grid().dims().1;
        let [open, with_beacons, recorded, unknown] =
            window_states(RfAlgorithm::Bayes).map(|(_, mut est)| encode(&mut est).len());
        assert_eq!(with_beacons - open, posterior);
        assert_eq!(unknown, with_beacons);
        assert_eq!(recorded, open + 8, "the recorded entropy, not the cells");
    }

    /// A close whose watchdog computed the entropy records it and resets
    /// the cells with no further entropy pass; until the next window start
    /// the entropy fraction is the closed posterior's, bit for bit.
    #[test]
    fn a_close_that_knows_the_entropy_records_it_and_resets_the_cells() {
        let mut est = driven(RfAlgorithm::Bayes);
        offer_three_beacons(&mut est, 9);
        let grid_before = est.posterior().expect("a posterior").clone();
        let fraction = grid_before.entropy() / grid_before.max_entropy();
        let passes = crate::grid::entropy_passes();
        let outcome = est.end_window_guarded(0.98);
        assert!(matches!(outcome, WindowOutcome::Fix(_)), "{outcome:?}");
        assert_eq!(
            crate::grid::entropy_passes(),
            passes + 1,
            "the watchdog's pass"
        );
        assert_eq!(est.closed_entropy(), Some(grid_before.entropy()));
        assert_eq!(
            est.posterior(),
            Some(&PositionGrid::new(grid())),
            "reset to uniform"
        );
        assert_eq!(
            est.entropy_fraction().map(f64::to_bits),
            Some(fraction.to_bits())
        );
        assert_eq!(crate::grid::entropy_passes(), passes + 1);
        // Closing again changes nothing; the next window starts afresh.
        assert_eq!(est.end_window_guarded(0.98), WindowOutcome::NoFix);
        est.begin_window();
        assert_eq!(est.closed_entropy(), None);
        assert_eq!(est.entropy_fraction(), Some(1.0));
    }

    /// A fresh uniform posterior reads an entropy fraction of exactly 1,
    /// though its entropy, a sum over 10,000 cells, rounds above the
    /// maximum.
    #[test]
    fn a_uniform_posterior_reads_an_entropy_fraction_of_exactly_one() {
        let est = WindowedRfEstimator::new(grid());
        let posterior = est.posterior().expect("a posterior");
        assert_eq!(posterior.num_cells(), 100 * 100);
        assert!(posterior.entropy() > posterior.max_entropy());
        assert_eq!(est.entropy_fraction(), Some(1.0));
    }

    /// A close that does not know the entropy keeps the cells until the
    /// next window start, as the watchdog-disarmed default `end_window`.
    #[test]
    fn a_close_that_does_not_know_the_entropy_keeps_the_cells() {
        let mut est = driven(RfAlgorithm::Bayes);
        offer_three_beacons(&mut est, 9);
        let grid_before = est.posterior().expect("a posterior").clone();
        let passes = crate::grid::entropy_passes();
        assert!(est.end_window().is_some());
        assert_eq!(
            crate::grid::entropy_passes(),
            passes,
            "no pass at the close"
        );
        assert_eq!(est.closed_entropy(), None);
        assert_eq!(est.posterior(), Some(&grid_before));
        assert_eq!(est.stored_posterior(), Some(&grid_before));
        est.begin_window();
        assert_eq!(est.stored_posterior(), None);
    }

    /// Each estimator reports its algorithm, before any window and after a
    /// restore; an EKF that has only predicted from odometry decodes exactly.
    #[test]
    fn checkpoints_keep_their_algorithm_before_any_window() {
        for algorithm in RfAlgorithm::ALL {
            let fresh = WindowedRfEstimator::with_algorithm(grid(), algorithm);
            assert_eq!(fresh.algorithm(), algorithm);
            let mut est = fresh.clone();
            est.note_odometry(Point::new(10.0, 10.0));
            est.note_odometry(Point::new(11.0, 10.0));
            // Only the EKF keeps odometry (and predicts from it).
            assert_eq!(est == fresh, algorithm != RfAlgorithm::Ekf, "{algorithm}");
            let bytes = encode(&mut est);
            let mut restored = WindowedRfEstimator::with_algorithm(grid(), algorithm);
            cocoa_sim::snapshot::decode(&bytes, "estimator", |c| restored.code(c))
                .expect("own bytes decode");
            assert_eq!(restored.algorithm(), algorithm);
            assert_eq!(restored, est, "{algorithm}: restore must be exact");
        }
    }

    /// A reboot keeps [`WindowStats`] and the EKF's gated updates, and
    /// nothing else: its bytes are those of a fresh estimator that carries
    /// the same counters.
    fn reboot_keeps_only_the_lifetime_counters(algorithm: RfAlgorithm) {
        let mut est = driven(algorithm);
        let gated = |est: &WindowedRfEstimator| est.filter().map(EkfLocalizer::updates_gated);
        let (stats, ekf_gated) = (est.stats(), gated(&est));
        assert!(stats.windows == 2 && stats.beacons_applied > 0, "{stats:?}");
        est.reboot(grid());
        assert_eq!(est.stats(), stats);
        assert_eq!(gated(&est), ekf_gated);
        let mut fresh = WindowedRfEstimator::with_algorithm(grid(), algorithm);
        fresh.stats = stats;
        if let Solver::Ekf { filter, .. } = &mut fresh.solver {
            filter.updates_gated = ekf_gated.expect("an EKF");
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

    /// Beacons 8–9 m from (100, 100).
    const EKF_BEACONS: [Point; 3] = [
        Point::new(92.0, 100.0),
        Point::new(108.0, 104.0),
        Point::new(100.0, 92.0),
    ];

    /// An EKF estimator and a function offering it a beacon from each of
    /// `beacons`, heard by a robot at (100, 100), with the gate off.
    fn ekf_and_observer(
        seed: u64,
    ) -> (
        WindowedRfEstimator,
        impl FnMut(&mut WindowedRfEstimator, &[Point]) -> Vec<ObservationResult>,
    ) {
        let (ch, table, radial, _) = setup();
        let mut rng = SeedSplitter::new(seed).stream("b", 0);
        let robot = Point::new(100.0, 100.0);
        let observe = move |est: &mut WindowedRfEstimator, beacons: &[Point]| {
            beacons
                .iter()
                .map(|&p| {
                    let rssi = ch.sample_rssi(robot.distance_to(p), &mut rng);
                    est.observe_beacon(&table, &radial, &mut BeaconField::new(p), rssi, None, 0.0)
                })
                .collect()
        };
        let est = WindowedRfEstimator::with_algorithm(grid(), RfAlgorithm::Ekf);
        (est, observe)
    }

    #[test]
    fn ekf_persists_state_across_windows() {
        let (mut est, mut observe) = ekf_and_observer(4);
        let mut uncertainty = f64::INFINITY;
        for _ in 0..3 {
            est.begin_window();
            observe(&mut est, &EKF_BEACONS);
            assert!(est.end_window().is_some());
            // Window starts did not throw the filter away: each window's
            // updates tighten what the last ones left.
            let now = est.filter().expect("an EKF").uncertainty();
            assert!(now < uncertainty, "{now} after {uncertainty}");
            uncertainty = now;
        }
        assert_eq!(est.stats().beacons_applied, 9);
        let before = est.filter().expect("an EKF").estimate();
        est.begin_window();
        assert_eq!(
            est.filter().expect("an EKF").estimate(),
            before,
            "window start must not move the filter state"
        );
        // But the fresh window has no evidence yet, so no fix.
        assert_eq!(est.end_window(), None);
    }

    #[test]
    fn ekf_requires_three_applied_updates_per_window() {
        let (mut est, mut observe) = ekf_and_observer(5);
        // Two windows of two updates each: four applied, but never three
        // in one window.
        for _ in 0..2 {
            est.begin_window();
            let results = observe(&mut est, &EKF_BEACONS[..2]);
            assert!(results.iter().all(|r| *r == ObservationResult::Applied));
            assert_eq!(est.end_window(), None, "two beacons are not enough");
        }
        est.begin_window();
        observe(&mut est, &EKF_BEACONS);
        assert!(est.end_window().is_some());
        assert_eq!(est.stats().beacons_applied, 7);
    }

    #[test]
    fn ekf_predicts_between_odometry_anchors() {
        let mut est = WindowedRfEstimator::with_algorithm(grid(), RfAlgorithm::Ekf);
        let filter = |est: &WindowedRfEstimator| est.filter().expect("an EKF").clone();
        // The first anchor establishes the frame without predicting.
        est.note_odometry(Point::new(50.0, 50.0));
        let before = filter(&est);
        // A second anchor 10 m east: the filter moves with the
        // displacement and its uncertainty grows.
        est.note_odometry(Point::new(60.0, 50.0));
        let after = filter(&est);
        assert!((after.estimate().x - (before.estimate().x + 10.0)).abs() < 1e-9);
        assert!(after.uncertainty() > before.uncertainty());
        // Re-anchoring swallows the frame jump: no displacement is seen.
        est.reanchor_odometry(Point::new(120.0, 120.0));
        est.note_odometry(Point::new(120.0, 120.0));
        assert_eq!(filter(&est), after);
    }

    #[test]
    fn ekf_gated_update_reports_outlier() {
        let (mut est, mut observe) = ekf_and_observer(6);
        est.begin_window();
        for _ in 0..3 {
            observe(&mut est, &EKF_BEACONS);
        }
        // A beacon whose RSSI says "far away" while standing next to the
        // converged filter fails the innovation gate.
        let (ch, table, radial, _) = setup();
        let ghost = ch.mean_rssi(150.0);
        let rejected = est.stats().beacons_rejected_outlier;
        let r = est.observe_beacon(
            &table,
            &radial,
            &mut BeaconField::new(Point::new(101.0, 100.0)),
            ghost,
            None,
            0.0,
        );
        assert_eq!(r, ObservationResult::Outlier);
        assert_eq!(est.stats().beacons_rejected_outlier, rejected + 1);
        assert!(est.filter().expect("an EKF").updates_gated() >= 1);
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
