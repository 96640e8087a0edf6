//! The paper's movement model (Section 3, "Movement and Odometry Models").
//!
//! > "each robot is given a random command to move to a random destination
//! > in the given area and starts moving towards the chosen destination
//! > with a speed chosen uniformly between 0.1 and v_max meters/second.
//! > Once the robot reaches the destination, it is given a new random
//! > command."
//!
//! This models robots performing tasks: travel somewhere, do a task, travel
//! on. There is no pause time in the paper's description, so there is none
//! here.
//!
//! The model also exposes the mobility knowledge MRMM prunes with: the
//! robot's current velocity vector and `d_rest`, the distance it will still
//! travel before its next course change.

use rand::Rng;
use serde::{Deserialize, Serialize};

use cocoa_net::geometry::{Area, Point, Vec2};
use cocoa_sim::dist::uniform;
use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::pose::{normalize_angle, Pose};

/// Configuration of the random-task movement model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WaypointConfig {
    /// The deployment area destinations are drawn from.
    pub area: Area,
    /// Minimum commanded speed, m/s (paper: 0.1).
    pub v_min: f64,
    /// Maximum commanded speed, m/s (paper varies 0.5 and 2.0).
    pub v_max: f64,
}

impl WaypointConfig {
    /// The paper's configuration over `area` with maximum speed `v_max`.
    ///
    /// # Panics
    ///
    /// Panics if `v_max <= 0.1` (the paper's fixed lower bound).
    pub fn paper(area: Area, v_max: f64) -> Self {
        assert!(v_max > 0.1, "v_max must exceed the 0.1 m/s lower bound");
        WaypointConfig {
            area,
            v_min: 0.1,
            v_max,
        }
    }
}

/// One primitive motion the robot performed during a step: an in-place turn
/// followed by a straight run. This is exactly the decomposition the
/// odometry model applies its two noise terms to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Heading change at the start of the segment, radians.
    pub turn: f64,
    /// Straight-line distance travelled, metres.
    pub distance: f64,
    /// Wall-clock duration of the segment, seconds.
    pub duration: f64,
}

/// The per-robot movement state machine.
///
/// # Examples
///
/// ```
/// use cocoa_mobility::waypoint::{WaypointConfig, WaypointModel};
/// use cocoa_net::geometry::{Area, Point};
/// use cocoa_sim::rng::SeedSplitter;
///
/// let cfg = WaypointConfig::paper(Area::square(200.0), 2.0);
/// let mut rng = SeedSplitter::new(9).stream("mobility", 0);
/// let mut model = WaypointModel::new(cfg, Point::new(100.0, 100.0), &mut rng);
/// let mut segments = Vec::new();
/// let pose = model.step(1.0, &mut rng, |s| segments.push(*s));
/// assert!(cfg.area.contains(pose.position));
/// assert!(!segments.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaypointModel {
    config: WaypointConfig,
    pose: Pose,
    destination: Point,
    speed: f64,
    legs_completed: u64,
}

impl WaypointModel {
    /// Creates the model with the robot at `start`, immediately issuing its
    /// first random command.
    ///
    /// # Panics
    ///
    /// Panics if `start` lies outside the configured area.
    pub fn new<R: Rng + ?Sized>(config: WaypointConfig, start: Point, rng: &mut R) -> Self {
        assert!(
            config.area.contains(start),
            "start {start} outside deployment area"
        );
        let mut m = WaypointModel {
            config,
            pose: Pose::at(start),
            destination: start,
            speed: config.v_min,
            legs_completed: 0,
        };
        m.issue_command(rng);
        // Face the first destination immediately so heading is meaningful.
        m.pose.heading = m.pose.position.bearing_to(m.destination);
        m
    }

    fn issue_command<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let a = self.config.area;
        self.destination = Point::new(
            uniform(a.x_min, a.x_max, rng),
            uniform(a.y_min, a.y_max, rng),
        );
        self.speed = if self.config.v_min < self.config.v_max {
            uniform(self.config.v_min, self.config.v_max, rng)
        } else {
            // Degenerate range: a fixed commanded speed, including the
            // static deployment v_min = v_max = 0. The draw still happens
            // so the random stream stays aligned across configurations.
            let _: f64 = rng.gen();
            self.config.v_min
        };
    }

    /// The robot's true pose.
    pub fn pose(&self) -> Pose {
        self.pose
    }

    /// The robot's true position (shorthand).
    pub fn position(&self) -> Point {
        self.pose.position
    }

    /// Current commanded speed, m/s.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Current destination.
    pub fn destination(&self) -> Point {
        self.destination
    }

    /// Velocity vector, m/s.
    pub fn velocity(&self) -> Vec2 {
        match (self.destination - self.pose.position).normalized() {
            Some(dir) => dir * self.speed,
            None => Vec2::ZERO,
        }
    }

    /// Distance remaining to the current destination (`d_rest` in MRMM),
    /// metres.
    pub fn d_rest(&self) -> f64 {
        self.pose.position.distance_to(self.destination)
    }

    /// Number of waypoint legs completed so far.
    pub fn legs_completed(&self) -> u64 {
        self.legs_completed
    }

    /// The snapshot layout, decoded onto a model built with the same
    /// configuration. Decoding consumes no RNG draws.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let WaypointModel {
            pose,
            destination,
            speed,
            legs_completed,
            // The scenario's, set by the reader's constructor.
            config: _,
        } = self;
        pose.code(c)?;
        destination.code(c)?;
        c.f64(speed)?;
        c.u64(legs_completed)
    }

    /// Advances the robot by `dt` seconds and returns the new true pose.
    /// Each turn+run segment performed is handed to `on_segment` as it is
    /// done: one per leg touched during the step, two or more when a
    /// destination is reached mid-step.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        dt: f64,
        rng: &mut R,
        mut on_segment: impl FnMut(&Segment),
    ) -> Pose {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive, got {dt}");
        let mut remaining = dt;
        while remaining > 1e-12 {
            let to_dest = self.d_rest();
            let desired_heading = if to_dest > 1e-9 {
                self.pose.position.bearing_to(self.destination)
            } else {
                self.pose.heading
            };
            let turn = normalize_angle(desired_heading - self.pose.heading);
            let reach_time = if self.speed > 0.0 {
                to_dest / self.speed
            } else {
                f64::INFINITY
            };
            let seg_time = remaining.min(reach_time);
            let distance = self.speed * seg_time;
            self.pose = Pose::new(self.pose.position, self.pose.heading + turn).advanced(distance);
            // Numerical guard: never leave the deployment area.
            self.pose.position = self.config.area.clamp(self.pose.position);
            on_segment(&Segment {
                turn,
                distance,
                duration: seg_time,
            });
            remaining -= seg_time;
            if reach_time <= remaining + 1e-12 || self.d_rest() < 1e-9 {
                // Destination reached: task done, new command.
                self.legs_completed += 1;
                self.pose.position = self.config.area.clamp(self.destination);
                self.issue_command(rng);
            }
            if seg_time <= 0.0 {
                break;
            }
        }
        self.pose
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_sim::rng::SeedSplitter;

    fn model(seed: u64, v_max: f64) -> (WaypointModel, cocoa_sim::rng::DetRng) {
        let mut rng = SeedSplitter::new(seed).stream("wp", 0);
        let cfg = WaypointConfig::paper(Area::square(200.0), v_max);
        let m = WaypointModel::new(cfg, Point::new(100.0, 100.0), &mut rng);
        (m, rng)
    }

    #[test]
    fn stays_inside_area() {
        let (mut m, mut rng) = model(1, 2.0);
        for _ in 0..5_000 {
            let pose = m.step(1.0, &mut rng, |_| {});
            assert!(
                Area::square(200.0).contains(pose.position),
                "escaped at {}",
                pose.position
            );
        }
    }

    #[test]
    fn speed_respects_bounds() {
        let (mut m, mut rng) = model(2, 0.5);
        for _ in 0..2_000 {
            m.step(1.0, &mut rng, |_| {});
            assert!(
                (0.1..=0.5).contains(&m.speed()),
                "speed {} out of bounds",
                m.speed()
            );
        }
    }

    #[test]
    fn distance_per_step_bounded_by_speed() {
        let (mut m, mut rng) = model(3, 2.0);
        for _ in 0..1_000 {
            let before = m.position();
            let pose = m.step(1.0, &mut rng, |_| {});
            let moved = before.distance_to(pose.position);
            assert!(moved <= 2.0 + 1e-9, "moved {moved} m in 1 s at v_max=2");
        }
    }

    #[test]
    fn eventually_completes_legs() {
        let (mut m, mut rng) = model(4, 2.0);
        for _ in 0..1_800 {
            m.step(1.0, &mut rng, |_| {});
        }
        assert!(
            m.legs_completed() >= 5,
            "expected several tasks in 30 min, got {}",
            m.legs_completed()
        );
    }

    #[test]
    fn segments_account_for_step_duration() {
        let (mut m, mut rng) = model(5, 2.0);
        for _ in 0..500 {
            let mut total = 0.0;
            m.step(1.0, &mut rng, |s| total += s.duration);
            assert!(
                (total - 1.0).abs() < 1e-9,
                "segment durations sum to {total}"
            );
        }
    }

    #[test]
    fn segment_distances_match_displacement_on_straight_legs() {
        let (mut m, mut rng) = model(6, 1.0);
        for _ in 0..200 {
            let before = m.position();
            let mut segments = Vec::new();
            let pose = m.step(1.0, &mut rng, |s| segments.push(*s));
            if segments.len() == 1 {
                let direct = before.distance_to(pose.position);
                assert!((segments[0].distance - direct).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn d_rest_shrinks_along_a_leg() {
        let (mut m, mut rng) = model(7, 1.0);
        let mut last = m.d_rest();
        for _ in 0..20 {
            let legs_before = m.legs_completed();
            m.step(0.5, &mut rng, |_| {});
            if m.legs_completed() == legs_before {
                assert!(m.d_rest() < last + 1e-9);
            }
            last = m.d_rest();
        }
    }

    #[test]
    fn velocity_points_at_destination() {
        let (m, _) = model(8, 2.0);
        let v = m.velocity();
        let dir = (m.destination() - m.position()).normalized().unwrap();
        assert!((v.normalized().unwrap().dot(dir) - 1.0).abs() < 1e-9);
        assert!((v.norm() - m.speed()).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, mut rng_a) = model(9, 2.0);
        let (mut b, mut rng_b) = model(9, 2.0);
        for _ in 0..100 {
            let pa = a.step(1.0, &mut rng_a, |_| {});
            let pb = b.step(1.0, &mut rng_b, |_| {});
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn static_config_never_moves_and_reports_zero_velocity() {
        let mut rng = SeedSplitter::new(11).stream("wp", 0);
        let cfg = WaypointConfig {
            area: Area::square(200.0),
            v_min: 0.0,
            v_max: 0.0,
        };
        let start = Point::new(50.0, 60.0);
        let mut m = WaypointModel::new(cfg, start, &mut rng);
        for _ in 0..100 {
            let mut total = 0.0;
            let pose = m.step(1.0, &mut rng, |s| total += s.distance);
            assert_eq!(pose.position, start, "static robot drifted");
            assert_eq!(total, 0.0);
        }
        assert_eq!(m.velocity(), Vec2::ZERO);
        assert_eq!(m.legs_completed(), 0);
    }

    #[test]
    fn fixed_speed_config_commands_that_speed() {
        let mut rng = SeedSplitter::new(12).stream("wp", 0);
        let cfg = WaypointConfig {
            area: Area::square(200.0),
            v_min: 1.5,
            v_max: 1.5,
        };
        let mut m = WaypointModel::new(cfg, Point::new(100.0, 100.0), &mut rng);
        for _ in 0..500 {
            m.step(1.0, &mut rng, |_| {});
            assert_eq!(m.speed(), 1.5);
        }
    }

    #[test]
    #[should_panic(expected = "outside deployment area")]
    fn start_outside_area_panics() {
        let mut rng = SeedSplitter::new(1).stream("wp", 0);
        let cfg = WaypointConfig::paper(Area::square(200.0), 2.0);
        let _ = WaypointModel::new(cfg, Point::new(300.0, 0.0), &mut rng);
    }
}
