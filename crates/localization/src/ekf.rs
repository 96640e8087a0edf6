//! An EKF position tracker: the Kalman-family alternative to CoCoA's
//! reset-style fusion.
//!
//! The paper's related work (Section 5) surveys Kalman-filter approaches
//! to cooperative localization (Roumeliotis & Bekey's Collective
//! Localization, among others) and notes that CoCoA "is not tied to a
//! specific localization technique". This module provides that
//! alternative: a 2-state extended Kalman filter over the robot's
//! position, with
//!
//! - **prediction** from dead-reckoned odometry displacements (process
//!   noise grows with distance travelled, mirroring the odometry model's
//!   displacement and heading noise), and
//! - **updates** from beacon ranges (measurement model `h(x) = |x − a|`),
//!   with innovation gating to reject multipath outliers.
//!
//! Unlike the windowed Bayesian estimator it never throws information
//! away, so it shines when beacons trickle in continuously; the
//! `ekf_fusion` example compares the two styles head to head.

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::PdfTable;
use cocoa_net::geometry::{Area, Point, Vec2};
use cocoa_net::rssi::Dbm;
use cocoa_sim::snapshot::{Codec, SnapshotError};

/// EKF tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EkfConfig {
    /// 1-σ uncertainty of the initial position, metres. Large values
    /// encode "deployed anywhere" (the paper's arbitrary deployment).
    pub initial_sigma_m: f64,
    /// Along-track process noise per metre travelled, m/√m — from the
    /// odometry displacement error.
    pub process_noise_along_m: f64,
    /// Cross-track process noise per metre travelled, m/√m — from heading
    /// error (the dominant term).
    pub process_noise_cross_m: f64,
    /// Innovation gate, in standard deviations; range updates whose
    /// innovation exceeds this are rejected as outliers.
    pub gate_sigmas: f64,
    /// After this many *consecutive* gated updates the covariance is
    /// inflated (×10): persistent gating means the filter is confidently
    /// wrong — e.g. locked onto the mirror intersection of two range
    /// circles — and must re-open to evidence.
    pub gate_reset_after: u32,
}

impl Default for EkfConfig {
    fn default() -> Self {
        EkfConfig {
            initial_sigma_m: 100.0,
            process_noise_along_m: 0.1,
            process_noise_cross_m: 0.2,
            gate_sigmas: 3.0,
            gate_reset_after: 2,
        }
    }
}

/// What happened to one range update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EkfUpdate {
    /// The measurement was fused.
    Applied,
    /// The innovation failed the gate; the state is unchanged.
    Gated,
    /// The RSSI had no usable PDF-table entry.
    NoPdf,
}

/// A 2-state (x, y) extended Kalman filter over beacon ranges.
///
/// # Examples
///
/// ```
/// use cocoa_localization::ekf::{EkfConfig, EkfLocalizer};
/// use cocoa_net::geometry::{Area, Point};
///
/// // Initialize near a coarse first fix (range-only EKFs are local
/// // estimators; the Bayesian grid handles the cold start).
/// let config = EkfConfig { initial_sigma_m: 15.0, ..EkfConfig::default() };
/// let mut ekf = EkfLocalizer::new(config, Area::square(200.0), Some(Point::new(115.0, 85.0)));
/// let robot = Point::new(120.0, 80.0);
/// for _ in 0..2 {
///     for anchor in [Point::new(100.0, 80.0), Point::new(130.0, 95.0), Point::new(120.0, 60.0)] {
///         // Perfect ranges with 2 m claimed noise.
///         ekf.update_range(anchor, robot.distance_to(anchor), 2.0);
///     }
/// }
/// assert!(ekf.estimate().distance_to(robot) < 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EkfLocalizer {
    config: EkfConfig,
    area: Area,
    /// State: believed position.
    x: f64,
    y: f64,
    /// Covariance (symmetric 2×2).
    p11: f64,
    p12: f64,
    p22: f64,
    pub(crate) updates_gated: u64,
    consecutive_gated: u32,
}

impl EkfLocalizer {
    /// Creates a filter. With `initial = None` the state starts at the
    /// area centre with the configured large uncertainty.
    pub fn new(config: EkfConfig, area: Area, initial: Option<Point>) -> Self {
        let start = initial.unwrap_or_else(|| area.center());
        let var = config.initial_sigma_m * config.initial_sigma_m;
        EkfLocalizer {
            config,
            area,
            x: start.x,
            y: start.y,
            p11: var,
            p12: 0.0,
            p22: var,
            updates_gated: 0,
            consecutive_gated: 0,
        }
    }

    /// The current position estimate (clamped to the deployment area).
    pub fn estimate(&self) -> Point {
        self.area.clamp(Point::new(self.x, self.y))
    }

    /// The position covariance `P`, metres² (symmetric).
    pub fn covariance(&self) -> [[f64; 2]; 2] {
        [[self.p11, self.p12], [self.p12, self.p22]]
    }

    /// RMS position uncertainty, metres (`sqrt(trace(P)/2)`).
    pub fn uncertainty(&self) -> f64 {
        ((self.p11 + self.p22) / 2.0).sqrt()
    }

    /// Range updates rejected by the gate so far.
    pub fn updates_gated(&self) -> u64 {
        self.updates_gated
    }

    /// Prediction step: the odometer reports a displacement since the
    /// last call. The state moves by it; the covariance grows with the
    /// distance travelled, anisotropically (cross-track grows faster —
    /// heading error dominates odometry drift).
    pub fn predict(&mut self, displacement: Vec2) {
        self.x += displacement.x;
        self.y += displacement.y;
        let d = displacement.norm();
        if d <= 0.0 {
            return;
        }
        let along = self.config.process_noise_along_m.powi(2) * d;
        let cross = self.config.process_noise_cross_m.powi(2) * d;
        match displacement.normalized() {
            Some(u) => {
                // Q = along·uuᵀ + cross·vvᵀ with v ⟂ u.
                let (ux, uy) = (u.x, u.y);
                self.p11 += along * ux * ux + cross * uy * uy;
                self.p22 += along * uy * uy + cross * ux * ux;
                self.p12 += (along - cross) * ux * uy;
            }
            None => {
                self.p11 += along;
                self.p22 += along;
            }
        }
    }

    /// Fuses one range measurement `range` (with 1-σ noise `sigma`) to
    /// `anchor`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not strictly positive.
    pub fn update_range(&mut self, anchor: Point, range: f64, sigma: f64) -> EkfUpdate {
        assert!(sigma > 0.0, "range sigma must be positive");
        // Iterated EKF: with a vague prior, a single linearization of the
        // range model diverges; re-linearizing at the updated state (3
        // Gauss-Newton iterations) keeps the filter consistent.
        let (x0, y0) = (self.x, self.y);
        let (mut xi, mut yi) = (x0, y0);
        let mut linearization = None;
        for iteration in 0..3 {
            let dx = xi - anchor.x;
            let dy = yi - anchor.y;
            let predicted = (dx * dx + dy * dy).sqrt().max(1e-6);
            let hx = dx / predicted;
            let hy = dy / predicted;
            let phx = self.p11 * hx + self.p12 * hy;
            let phy = self.p12 * hx + self.p22 * hy;
            let s = hx * phx + hy * phy + sigma * sigma;
            // IEKF residual: z − h(x_i) − H_i (x0 − x_i).
            let residual = range - predicted - (hx * (x0 - xi) + hy * (y0 - yi));
            if iteration == 0 && residual * residual > self.config.gate_sigmas.powi(2) * s {
                self.updates_gated += 1;
                self.consecutive_gated += 1;
                if self.consecutive_gated >= self.config.gate_reset_after {
                    // Confidently wrong: inflate and re-open to evidence.
                    self.p11 *= 10.0;
                    self.p22 *= 10.0;
                    self.p12 *= 10.0;
                    self.consecutive_gated = 0;
                }
                return EkfUpdate::Gated;
            }
            let kx = phx / s;
            let ky = phy / s;
            xi = x0 + kx * residual;
            yi = y0 + ky * residual;
            linearization = Some((hx, hy, phx, phy, s));
        }
        let (_hx, _hy, phx, phy, s) = linearization.expect("three iterations ran");
        self.x = xi;
        self.y = yi;
        // Covariance update P ← (I − K H) P with the final linearization,
        // symmetrized.
        let kx = phx / s;
        let ky = phy / s;
        let p11 = self.p11 - kx * phx;
        let p12 = self.p12 - kx * phy;
        let p21 = self.p12 - ky * phx;
        let p22 = self.p22 - ky * phy;
        self.p11 = p11.max(1e-9);
        self.p22 = p22.max(1e-9);
        self.p12 = (p12 + p21) / 2.0;
        self.consecutive_gated = 0;
        EkfUpdate::Applied
    }

    /// Fuses one beacon through the calibration table (range = PDF mean,
    /// sigma = PDF sigma), like the other estimators do.
    ///
    /// This is the raw filter interface: it applies only the filter's own
    /// innovation gate. The *shared* beacon outlier gate (claimed distance
    /// vs RSSI-implied distance) is enforced one layer up, by
    /// [`crate::estimator::WindowedRfEstimator::observe_beacon`],
    /// which screens beacons before any backend — this one included — sees
    /// them.
    pub fn update_from_beacon(&mut self, table: &PdfTable, anchor: Point, rssi: Dbm) -> EkfUpdate {
        match table.lookup(rssi) {
            Some(pdf) => self.update_range(anchor, pdf.mean(), pdf.sigma().max(0.25)),
            None => EkfUpdate::NoPdf,
        }
    }

    /// The snapshot layout: position, covariance and gate counters,
    /// decoded onto a filter built with the same configuration and area.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let EkfLocalizer {
            x,
            y,
            p11,
            p12,
            p22,
            updates_gated,
            consecutive_gated,
            // Set by the reader's constructor.
            config: _,
            area: _,
        } = self;
        c.f64s([x, y, p11, p12, p22])?;
        c.u64(updates_gated)?;
        c.u32(consecutive_gated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ekf() -> EkfLocalizer {
        EkfLocalizer::new(EkfConfig::default(), Area::square(200.0), None)
    }

    #[test]
    fn converges_from_coarse_initialization() {
        // Range-only EKFs are local estimators: they refine a coarse
        // initial guess (e.g. CoCoA's first Bayesian fix) but cannot do
        // global localization from a uniform prior — which is exactly why
        // the paper chose Bayesian grid inference for the cold start.
        let mut f = EkfLocalizer::new(
            EkfConfig {
                initial_sigma_m: 15.0,
                ..EkfConfig::default()
            },
            Area::square(200.0),
            Some(Point::new(145.0, 47.0)), // ~9 m off, nearer the true
                                           // circle intersection than its mirror
        );
        let robot = Point::new(150.0, 40.0);
        let anchors = [
            Point::new(130.0, 40.0),
            Point::new(160.0, 55.0),
            Point::new(150.0, 20.0),
            Point::new(170.0, 35.0),
        ];
        let initial_unc = f.uncertainty();
        for _ in 0..3 {
            for &a in &anchors {
                f.update_range(a, robot.distance_to(a), 2.0);
            }
        }
        assert!(
            f.estimate().distance_to(robot) < 3.0,
            "est {}",
            f.estimate()
        );
        assert!(f.uncertainty() < initial_unc / 5.0);
    }

    #[test]
    fn global_localization_from_uniform_prior_is_unreliable() {
        // Documents the limitation above: from the area centre with a
        // ~100 m sigma, range updates may settle in the mirror
        // intersection of the range circles (a local minimum).
        let mut f = ekf();
        let robot = Point::new(150.0, 40.0);
        let anchors = [
            Point::new(130.0, 40.0),
            Point::new(160.0, 55.0),
            Point::new(150.0, 20.0),
        ];
        for _ in 0..4 {
            for &a in &anchors {
                f.update_range(a, robot.distance_to(a), 2.0);
            }
        }
        // It gets into the right neighbourhood (anchors constrain it) but
        // is not guaranteed the accuracy of the Bayesian cold start.
        assert!(f.estimate().distance_to(robot) < 60.0);
    }

    #[test]
    fn persistent_gating_inflates_covariance() {
        // A confidently-wrong filter (tiny P, biased state) must re-open
        // to evidence after enough consecutive rejections.
        let mut f = EkfLocalizer::new(
            EkfConfig {
                initial_sigma_m: 1.0, // confidently...
                ..EkfConfig::default()
            },
            Area::square(200.0),
            Some(Point::new(60.0, 60.0)), // ...wrong
        );
        let robot = Point::new(100.0, 100.0);
        let anchor = Point::new(95.0, 100.0);
        let unc0 = f.uncertainty();
        let mut applied = false;
        for _ in 0..8 {
            if f.update_range(anchor, robot.distance_to(anchor), 1.0) == EkfUpdate::Applied {
                applied = true;
                break;
            }
        }
        assert!(
            applied,
            "inflation must eventually let the measurement through (unc0 {unc0}, now {})",
            f.uncertainty()
        );
        assert!(f.updates_gated() >= 2, "the gate fired first");
    }

    #[test]
    fn gate_reopens_after_the_configured_streak() {
        // Pins the `gate_reset_after` contract: the first N−1 consecutive
        // rejections leave the covariance untouched, the Nth inflates it
        // ×10 (σ ×√10) and resets the streak, and the reopened gate
        // eventually lets the honest measurement through.
        let mut f = EkfLocalizer::new(
            EkfConfig {
                initial_sigma_m: 1.0,
                gate_reset_after: 3,
                ..EkfConfig::default()
            },
            Area::square(200.0),
            Some(Point::new(60.0, 60.0)), // confidently wrong
        );
        let robot = Point::new(100.0, 100.0);
        let anchor = Point::new(95.0, 100.0);
        let range = robot.distance_to(anchor);
        let unc0 = f.uncertainty();
        for i in 0..2 {
            assert_eq!(
                f.update_range(anchor, range, 1.0),
                EkfUpdate::Gated,
                "rejection {i} must be gated"
            );
            assert_eq!(
                f.uncertainty(),
                unc0,
                "rejection {i} is below the streak; P must not move"
            );
        }
        assert_eq!(f.update_range(anchor, range, 1.0), EkfUpdate::Gated);
        assert!(
            (f.uncertainty() - unc0 * 10f64.sqrt()).abs() < 1e-9,
            "the streak's 3rd rejection must inflate σ by √10: {} vs {}",
            f.uncertainty(),
            unc0 * 10f64.sqrt()
        );
        assert_eq!(f.updates_gated(), 3);
        // The gate reopened: repeated inflation admits the measurement,
        // which pulls the confidently-wrong state toward the truth.
        let err0 = f.estimate().distance_to(robot);
        let mut applied = false;
        for _ in 0..12 {
            if f.update_range(anchor, range, 1.0) == EkfUpdate::Applied {
                applied = true;
                break;
            }
        }
        assert!(applied, "the reopened gate must admit the measurement");
        assert!(f.estimate().distance_to(robot) < err0);
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let mut f = ekf();
        let robot = Point::new(100.0, 100.0);
        f.predict(Vec2::new(3.0, -2.0));
        for &a in &[
            Point::new(90.0, 100.0),
            Point::new(110.0, 108.0),
            Point::new(100.0, 88.0),
        ] {
            f.update_range(a, robot.distance_to(a), 1.0);
        }
        f.update_range(Point::new(95.0, 100.0), 120.0, 1.0); // gated
        let s = cocoa_sim::snapshot::encode(|c| f.code(c));
        let mut g = ekf();
        cocoa_sim::snapshot::decode(&s, "ekf", |c| g.code(c)).expect("own bytes decode");
        assert_eq!(f, g);
        assert_eq!(cocoa_sim::snapshot::encode(|c| g.code(c)), s);
    }

    #[test]
    fn prediction_moves_state_and_grows_uncertainty() {
        let mut f = ekf();
        // Tighten first.
        let robot = Point::new(100.0, 100.0);
        for &a in &[
            Point::new(90.0, 100.0),
            Point::new(110.0, 108.0),
            Point::new(100.0, 88.0),
        ] {
            f.update_range(a, robot.distance_to(a), 1.0);
            f.update_range(a, robot.distance_to(a), 1.0);
        }
        let unc_before = f.uncertainty();
        let est_before = f.estimate();
        f.predict(Vec2::new(10.0, 0.0));
        assert!((f.estimate().x - (est_before.x + 10.0)).abs() < 1e-9);
        assert!(f.uncertainty() > unc_before, "prediction must inflate P");
    }

    #[test]
    fn gate_rejects_outliers() {
        let mut f = ekf();
        let robot = Point::new(100.0, 100.0);
        let anchors = [
            Point::new(90.0, 100.0),
            Point::new(110.0, 108.0),
            Point::new(100.0, 88.0),
        ];
        for _ in 0..3 {
            for &a in &anchors {
                f.update_range(a, robot.distance_to(a), 1.0);
            }
        }
        let est = f.estimate();
        // A wildly wrong range (multipath ghost) must be gated.
        let outcome = f.update_range(Point::new(95.0, 100.0), 120.0, 1.0);
        assert_eq!(outcome, EkfUpdate::Gated);
        assert_eq!(f.estimate(), est, "gated update must not move the state");
        assert_eq!(f.updates_gated(), 1);
    }

    #[test]
    fn tracks_a_moving_robot() {
        use cocoa_sim::dist::Normal;
        use cocoa_sim::rng::SeedSplitter;
        let mut rng = SeedSplitter::new(8).stream("ekf", 0);
        let mut f = ekf();
        let anchors = [
            Point::new(50.0, 50.0),
            Point::new(150.0, 50.0),
            Point::new(100.0, 150.0),
            Point::new(60.0, 130.0),
        ];
        let noise = Normal::new(0.0, 1.5);
        let mut robot = Point::new(80.0, 80.0);
        let v = Vec2::new(1.0, 0.4);
        let mut last_err = f64::INFINITY;
        for step in 0..60 {
            robot += v;
            // Odometry-reported displacement with small error.
            f.predict(Vec2::new(
                v.x + 0.05 * noise.sample(&mut rng),
                v.y + 0.05 * noise.sample(&mut rng),
            ));
            for &a in &anchors {
                let measured = robot.distance_to(a) + noise.sample(&mut rng);
                f.update_range(a, measured.max(0.1), 1.5);
            }
            if step > 10 {
                last_err = f.estimate().distance_to(robot);
                assert!(last_err < 6.0, "lost track at step {step}: {last_err} m");
            }
        }
        assert!(last_err < 4.0, "final error {last_err}");
    }

    #[test]
    fn cross_track_noise_dominates() {
        let mut f = ekf();
        // Travel straight east; cross-track (y) variance must grow faster.
        f.p11 = 1.0;
        f.p22 = 1.0;
        f.p12 = 0.0;
        f.predict(Vec2::new(100.0, 0.0));
        assert!(f.p22 > f.p11, "cross-track {} vs along {}", f.p22, f.p11);
    }

    #[test]
    fn estimate_clamped_to_area() {
        let mut f = ekf();
        f.predict(Vec2::new(10_000.0, 0.0));
        assert!(Area::square(200.0).contains(f.estimate()));
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn zero_sigma_rejected() {
        let mut f = ekf();
        f.update_range(Point::ORIGIN, 5.0, 0.0);
    }

    #[test]
    fn beacon_interface_uses_table() {
        use cocoa_net::calibration::{calibrate, CalibrationConfig};
        use cocoa_net::channel::RfChannel;
        use cocoa_sim::rng::SeedSplitter;
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig::default(),
            &mut SeedSplitter::new(2).stream("cal", 0),
        );
        let mut f = ekf();
        let robot = Point::new(100.0, 100.0);
        let mut rng = SeedSplitter::new(3).stream("probe", 0);
        for _ in 0..2 {
            for &a in &[
                Point::new(92.0, 100.0),
                Point::new(108.0, 106.0),
                Point::new(100.0, 90.0),
            ] {
                let rssi = ch.sample_rssi(robot.distance_to(a), &mut rng);
                f.update_from_beacon(&table, a, rssi);
            }
        }
        assert!(f.estimate().distance_to(robot) < 10.0);
        assert_eq!(
            f.update_from_beacon(&table, robot, Dbm::new(30.0)),
            EkfUpdate::NoPdf
        );
    }
}
