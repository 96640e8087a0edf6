//! Robot pose: planar position plus heading.

use serde::{Deserialize, Serialize};

use cocoa_net::geometry::{Point, Vec2};
use cocoa_sim::snapshot::{Codec, SnapshotError};

/// Normalizes an angle to `(-π, π]`.
///
/// # Examples
///
/// ```
/// use cocoa_mobility::pose::normalize_angle;
/// use std::f64::consts::PI;
/// assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((normalize_angle(-3.0 * PI) - PI).abs() < 1e-12);
/// ```
pub fn normalize_angle(a: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut a = a % two_pi;
    if a <= -std::f64::consts::PI {
        a += two_pi;
    } else if a > std::f64::consts::PI {
        a -= two_pi;
    }
    a
}

/// A planar pose: where the robot is and which way it faces.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Pose {
    /// Position in the deployment plane, metres.
    pub position: Point,
    /// Heading, radians (atan2 convention: east = 0, CCW positive).
    pub heading: f64,
}

impl Pose {
    /// Creates a pose.
    pub fn new(position: Point, heading: f64) -> Self {
        Pose {
            position,
            heading: normalize_angle(heading),
        }
    }

    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Pose { position, heading } = self;
        position.code(c)?;
        c.f64(heading)
    }

    /// A pose at `position` facing east.
    pub fn at(position: Point) -> Self {
        Pose {
            position,
            heading: 0.0,
        }
    }

    /// The unit vector of the current heading.
    pub fn direction(&self) -> Vec2 {
        Vec2::from_angle(self.heading)
    }

    /// The pose after turning by `delta` radians in place.
    pub fn turned(&self, delta: f64) -> Pose {
        Pose::new(self.position, self.heading + delta)
    }

    /// The pose after advancing `distance` metres along the heading.
    pub fn advanced(&self, distance: f64) -> Pose {
        Pose {
            position: self.position + self.direction() * distance,
            heading: self.heading,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn normalize_covers_edge_cases() {
        assert_eq!(normalize_angle(0.0), 0.0);
        assert!((normalize_angle(PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(-PI) - PI).abs() < 1e-12, "-π maps to +π");
        assert!((normalize_angle(2.0 * PI)).abs() < 1e-12);
        assert!((normalize_angle(5.0 * PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn turn_and_advance() {
        let p = Pose::at(Point::ORIGIN);
        let north = p.turned(FRAC_PI_2);
        let moved = north.advanced(10.0);
        assert!((moved.position.x).abs() < 1e-9);
        assert!((moved.position.y - 10.0).abs() < 1e-9);
    }

    #[test]
    fn heading_wraps_on_turn() {
        let p = Pose::new(Point::ORIGIN, PI - 0.1);
        let q = p.turned(0.2);
        assert!(q.heading < 0.0, "wrapped past π: {}", q.heading);
    }

    #[test]
    fn direction_is_unit() {
        for h in [0.0, 0.7, -2.1, 3.0] {
            assert!((Pose::new(Point::ORIGIN, h).direction().norm() - 1.0).abs() < 1e-12);
        }
    }
}
