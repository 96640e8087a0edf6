//! The odometry model (paper Section 3).
//!
//! > "We assume odometry displacement error to be zero-mean Gaussian with
//! > standard deviation 0.1 m/s and assume the angular odometry error to
//! > also be zero-mean Gaussian with standard deviation 10°."
//!
//! The odometer dead-reckons: it starts from a known pose and integrates
//! noisy measurements of each turn+run segment the robot performs.
//!
//! - The **displacement** error scales with `sqrt(duration)` so its
//!   statistics are independent of the simulation tick (at the paper's
//!   1 s tick the per-second sigma is exactly the quoted 0.1 m);
//! - the **angular** error is drawn once per *course change*, following
//!   the paper's Fig. 5 semantics ("when the robot turns by θ … it
//!   estimates a turn by θ′"): wheel odometry measures turns, and each
//!   measured turn is off by a zero-mean Gaussian with σ = 10°.
//!
//! This is the component whose unbounded error accumulation motivates the
//! whole paper (its Fig. 4 and Fig. 5): heading errors compound across
//! turns, and displacement errors integrate, so the dead-reckoned path
//! diverges without bound.

use rand::Rng;
use serde::{Deserialize, Serialize};

use cocoa_sim::dist::Normal;
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::pose::Pose;
use crate::waypoint::Segment;

/// Odometry noise parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OdometryConfig {
    /// Displacement error sigma, metres per √second of travel (paper: 0.1).
    pub displacement_sigma: f64,
    /// Angular error sigma per course change, radians (paper: 10°).
    pub angular_sigma: f64,
    /// Continuous heading drift sigma while moving, radians per √second —
    /// wheel slip and encoder mismatch on a differential drive curve the
    /// "straight" runs too. The default (0.8°/√s) is calibrated so that
    /// the 30-minute odometry-only drift reaches the ~100 m of the paper's
    /// Fig. 4 while a 100 s CoCoA period accrues only a few degrees.
    pub heading_drift_sigma: f64,
}

impl Default for OdometryConfig {
    fn default() -> Self {
        OdometryConfig {
            displacement_sigma: 0.1,
            angular_sigma: 10f64.to_radians(),
            heading_drift_sigma: 0.8f64.to_radians(),
        }
    }
}

impl OdometryConfig {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let OdometryConfig {
            displacement_sigma,
            angular_sigma,
            heading_drift_sigma,
        } = self;
        c.f64(displacement_sigma)?;
        c.f64(angular_sigma)?;
        c.f64(heading_drift_sigma)
    }

    /// A perfect odometer (for tests and ablations).
    pub fn noiseless() -> Self {
        OdometryConfig {
            displacement_sigma: 0.0,
            angular_sigma: 0.0,
            heading_drift_sigma: 0.0,
        }
    }
}

/// A dead-reckoning odometer.
///
/// # Examples
///
/// ```
/// use cocoa_mobility::odometry::{Odometer, OdometryConfig};
/// use cocoa_mobility::pose::Pose;
/// use cocoa_mobility::waypoint::Segment;
/// use cocoa_net::geometry::Point;
/// use cocoa_sim::rng::SeedSplitter;
///
/// let mut odo = Odometer::new(OdometryConfig::default(), Pose::at(Point::ORIGIN));
/// let mut rng = SeedSplitter::new(3).stream("odo", 0);
/// odo.observe(&Segment { turn: 0.0, distance: 1.0, duration: 1.0 }, &mut rng);
/// let est = odo.estimated_pose();
/// assert!((est.position.x - 1.0).abs() < 1.0); // ~1 m east, noisy
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Odometer {
    config: OdometryConfig,
    estimate: Pose,
    distance_integrated: f64,
    observations: u64,
}

impl Odometer {
    /// Creates an odometer initialized at `initial` (the paper provides
    /// robots with their true initial position in the odometry-only
    /// experiment).
    pub fn new(config: OdometryConfig, initial: Pose) -> Self {
        Odometer {
            config,
            estimate: initial,
            distance_integrated: 0.0,
            observations: 0,
        }
    }

    /// The dead-reckoned pose estimate.
    pub fn estimated_pose(&self) -> Pose {
        self.estimate
    }

    /// Total distance integrated so far, metres (odometer reading).
    pub fn distance_integrated(&self) -> f64 {
        self.distance_integrated
    }

    /// Number of segments observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Resets the estimate to an externally supplied pose. CoCoA does this
    /// at the end of every transmit period with the RF fix.
    pub fn reset_to(&mut self, pose: Pose) {
        self.estimate = pose;
    }

    /// The snapshot layout, decoded onto an odometer built with the same
    /// noise configuration.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Odometer {
            estimate,
            distance_integrated,
            observations,
            // The scenario's, set by the reader's constructor.
            config: _,
        } = self;
        estimate.code(c)?;
        c.f64(distance_integrated)?;
        c.u64(observations)
    }

    /// Feeds one true motion segment through the noisy sensors and
    /// integrates the measurement into the estimate. The angular noise
    /// fires only on segments that actually contain a course change.
    pub fn observe<R: Rng + ?Sized>(&mut self, segment: &Segment, rng: &mut R) {
        let scale = segment.duration.max(0.0).sqrt();
        let turned = segment.turn.abs() > 1e-9;
        let mut measured_turn = if self.config.angular_sigma > 0.0 && turned {
            segment.turn + Normal::new(0.0, self.config.angular_sigma).sample(rng)
        } else {
            segment.turn
        };
        if self.config.heading_drift_sigma > 0.0 && segment.distance > 1e-9 {
            measured_turn += Normal::new(0.0, self.config.heading_drift_sigma * scale).sample(rng);
        }
        let measured_distance = if self.config.displacement_sigma > 0.0 && segment.duration > 0.0 {
            segment.distance + Normal::new(0.0, self.config.displacement_sigma * scale).sample(rng)
        } else {
            segment.distance
        };
        self.estimate = self
            .estimate
            .turned(measured_turn)
            .advanced(measured_distance);
        self.distance_integrated += measured_distance;
        self.observations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waypoint::{WaypointConfig, WaypointModel};
    use cocoa_net::geometry::{Area, Point};
    use cocoa_sim::rng::SeedSplitter;

    #[test]
    fn noiseless_odometer_tracks_exactly() {
        let mut rng = SeedSplitter::new(1).stream("wp", 0);
        let cfg = WaypointConfig::paper(Area::square(200.0), 2.0);
        let mut model = WaypointModel::new(cfg, Point::new(100.0, 100.0), &mut rng);
        let mut odo = Odometer::new(OdometryConfig::noiseless(), model.pose());
        let mut odo_rng = SeedSplitter::new(1).stream("odo", 0);
        for _ in 0..600 {
            let pose = model.step(1.0, &mut rng, |s| odo.observe(s, &mut odo_rng));
            let err = pose.position.distance_to(odo.estimated_pose().position);
            assert!(err < 1e-6, "noiseless odometry drifted by {err} m");
        }
    }

    #[test]
    fn error_accumulates_over_time() {
        // The paper's core observation (Fig. 4): odometry-only error grows
        // without bound. Average over several robots to dodge lucky seeds.
        let mut total_early = 0.0;
        let mut total_late = 0.0;
        let robots = 10;
        for r in 0..robots {
            let mut rng = SeedSplitter::new(40 + r).stream("wp", r);
            let mut odo_rng = SeedSplitter::new(40 + r).stream("odo", r);
            let cfg = WaypointConfig::paper(Area::square(200.0), 2.0);
            let mut model = WaypointModel::new(cfg, Point::new(100.0, 100.0), &mut rng);
            let mut odo = Odometer::new(OdometryConfig::default(), model.pose());
            let mut early = 0.0;
            for tick in 0..1800 {
                let pose = model.step(1.0, &mut rng, |s| odo.observe(s, &mut odo_rng));
                if tick == 59 {
                    early = pose.position.distance_to(odo.estimated_pose().position);
                }
            }
            let late = model
                .pose()
                .position
                .distance_to(odo.estimated_pose().position);
            total_early += early;
            total_late += late;
        }
        let early = total_early / robots as f64;
        let late = total_late / robots as f64;
        assert!(
            late > early,
            "error should grow: {early} m @1min vs {late} m @30min"
        );
        assert!(late > 50.0, "30-minute drift should be large, got {late} m");
    }

    #[test]
    fn reset_clears_accumulated_error() {
        let mut rng = SeedSplitter::new(2).stream("wp", 0);
        let mut odo_rng = SeedSplitter::new(2).stream("odo", 0);
        let cfg = WaypointConfig::paper(Area::square(200.0), 2.0);
        let mut model = WaypointModel::new(cfg, Point::new(100.0, 100.0), &mut rng);
        let mut odo = Odometer::new(OdometryConfig::default(), model.pose());
        for _ in 0..300 {
            model.step(1.0, &mut rng, |s| odo.observe(s, &mut odo_rng));
        }
        odo.reset_to(model.pose());
        let err = model
            .pose()
            .position
            .distance_to(odo.estimated_pose().position);
        assert_eq!(err, 0.0);
    }

    #[test]
    fn displacement_noise_statistics() {
        // Straight 1 m/s motion for n seconds: displacement errors are
        // N(0, 0.1) per second, so the final error sigma is 0.1 * sqrt(n).
        let n = 400;
        let trials = 200;
        let mut final_errors = Vec::new();
        for t in 0..trials {
            let mut rng = SeedSplitter::new(900 + t).stream("odo", 0);
            let mut odo = Odometer::new(
                OdometryConfig {
                    displacement_sigma: 0.1,
                    angular_sigma: 0.0,
                    heading_drift_sigma: 0.0,
                },
                Pose::at(Point::ORIGIN),
            );
            for _ in 0..n {
                odo.observe(
                    &Segment {
                        turn: 0.0,
                        distance: 1.0,
                        duration: 1.0,
                    },
                    &mut rng,
                );
            }
            final_errors.push(odo.estimated_pose().position.x - n as f64);
        }
        let mean = final_errors.iter().sum::<f64>() / trials as f64;
        let sd =
            (final_errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / trials as f64).sqrt();
        let expected = 0.1 * (n as f64).sqrt(); // 2.0
        assert!(mean.abs() < 0.5, "bias {mean}");
        assert!((sd - expected).abs() < 0.4, "sd {sd}, expected {expected}");
    }

    #[test]
    fn observations_counted_and_distance_integrated() {
        let mut rng = SeedSplitter::new(3).stream("odo", 0);
        let mut odo = Odometer::new(OdometryConfig::noiseless(), Pose::at(Point::ORIGIN));
        for _ in 0..10 {
            odo.observe(
                &Segment {
                    turn: 0.1,
                    distance: 2.0,
                    duration: 1.0,
                },
                &mut rng,
            );
        }
        assert_eq!(odo.observations(), 10);
        assert!((odo.distance_integrated() - 20.0).abs() < 1e-9);
    }
}
