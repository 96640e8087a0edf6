//! The combined true-motion + odometry pipeline for one robot.
//!
//! Couples a [`WaypointModel`] (ground truth) with an [`Odometer`]
//! (dead-reckoned belief) using separate RNG streams, so enabling or
//! disabling odometry noise never perturbs the trajectories — a property
//! the cross-experiment comparisons (paper Figs. 4, 6, 7) rely on.

use rand::Rng;
use serde::{Deserialize, Serialize};

use cocoa_net::geometry::{Point, Vec2};
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::odometry::{Odometer, OdometryConfig};
use crate::pose::Pose;
use crate::waypoint::{WaypointConfig, WaypointModel};

/// One robot's motion state: where it really is and where its odometer
/// believes it is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobotMotion {
    waypoints: WaypointModel,
    odometer: Odometer,
}

impl RobotMotion {
    /// Creates the motion state with the robot at `start`, odometer
    /// initialized to the true pose (as in the paper's odometry-only
    /// experiment).
    pub fn new<R: Rng + ?Sized>(
        waypoint_config: WaypointConfig,
        odometry_config: OdometryConfig,
        start: Point,
        move_rng: &mut R,
    ) -> Self {
        let waypoints = WaypointModel::new(waypoint_config, start, move_rng);
        let odometer = Odometer::new(odometry_config, waypoints.pose());
        RobotMotion {
            waypoints,
            odometer,
        }
    }

    /// The snapshot layout: the waypoint model, then the odometer. Decode
    /// onto a motion built with the same configurations; which start and
    /// RNG built it does not matter, since every draw it made is
    /// overwritten.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let RobotMotion {
            waypoints,
            odometer,
        } = self;
        waypoints.code(c)?;
        odometer.code(c)
    }

    /// Advances true motion by `dt` seconds and feeds the performed
    /// segments through the noisy odometer.
    pub fn step<R1: Rng + ?Sized, R2: Rng + ?Sized>(
        &mut self,
        dt: f64,
        move_rng: &mut R1,
        odo_rng: &mut R2,
    ) {
        self.waypoints
            .step(dt, move_rng, |s| self.odometer.observe(s, odo_rng));
    }

    /// Ground-truth pose.
    pub fn true_pose(&self) -> Pose {
        self.waypoints.pose()
    }

    /// Ground-truth position.
    pub fn true_position(&self) -> Point {
        self.waypoints.position()
    }

    /// Dead-reckoned pose.
    pub fn odometry_pose(&self) -> Pose {
        self.odometer.estimated_pose()
    }

    /// Distance between truth and the dead-reckoned estimate, metres.
    pub fn odometry_error(&self) -> f64 {
        self.true_position()
            .distance_to(self.odometer.estimated_pose().position)
    }

    /// Resets the odometer estimate (e.g. after an RF fix).
    pub fn reset_odometry_to(&mut self, pose: Pose) {
        self.odometer.reset_to(pose);
    }

    /// Current true velocity, m/s.
    pub fn velocity(&self) -> Vec2 {
        self.waypoints.velocity()
    }

    /// Distance remaining to the current waypoint (`d_rest`), metres.
    pub fn d_rest(&self) -> f64 {
        self.waypoints.d_rest()
    }

    /// Read-only access to the waypoint model.
    pub fn waypoints(&self) -> &WaypointModel {
        &self.waypoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_net::geometry::Area;
    use cocoa_sim::rng::SeedSplitter;

    fn motion(seed: u64) -> (RobotMotion, cocoa_sim::rng::DetRng, cocoa_sim::rng::DetRng) {
        let split = SeedSplitter::new(seed);
        let mut move_rng = split.stream("move", 0);
        let odo_rng = split.stream("odo", 0);
        let m = RobotMotion::new(
            WaypointConfig::paper(Area::square(200.0), 2.0),
            OdometryConfig::default(),
            Point::new(100.0, 100.0),
            &mut move_rng,
        );
        (m, move_rng, odo_rng)
    }

    #[test]
    fn starts_with_zero_error() {
        let (m, _, _) = motion(1);
        assert_eq!(m.odometry_error(), 0.0);
    }

    #[test]
    fn error_grows_with_motion() {
        let (mut m, mut mr, mut or) = motion(2);
        for _ in 0..600 {
            m.step(1.0, &mut mr, &mut or);
        }
        assert!(m.odometry_error() > 1.0, "error {}", m.odometry_error());
    }

    #[test]
    fn odometry_noise_does_not_perturb_truth() {
        // Same seed, noisy vs noiseless odometry: identical true paths.
        let split = SeedSplitter::new(3);
        let mut mr1 = split.stream("move", 0);
        let mut or1 = split.stream("odo", 0);
        let mut noisy = RobotMotion::new(
            WaypointConfig::paper(Area::square(200.0), 2.0),
            OdometryConfig::default(),
            Point::new(50.0, 50.0),
            &mut mr1,
        );
        let mut mr2 = split.stream("move", 0);
        let mut or2 = split.stream("odo", 0);
        let mut clean = RobotMotion::new(
            WaypointConfig::paper(Area::square(200.0), 2.0),
            OdometryConfig::noiseless(),
            Point::new(50.0, 50.0),
            &mut mr2,
        );
        for _ in 0..300 {
            noisy.step(1.0, &mut mr1, &mut or1);
            clean.step(1.0, &mut mr2, &mut or2);
        }
        assert_eq!(noisy.true_pose(), clean.true_pose());
        assert!(clean.odometry_error() < 1e-6);
    }

    #[test]
    fn reset_sets_estimate() {
        let (mut m, mut mr, mut or) = motion(4);
        for _ in 0..100 {
            m.step(1.0, &mut mr, &mut or);
        }
        let truth = m.true_pose();
        m.reset_odometry_to(truth);
        assert_eq!(m.odometry_error(), 0.0);
    }
}
