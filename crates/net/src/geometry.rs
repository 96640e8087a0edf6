//! Planar geometry for the deployment area.
//!
//! Robots in the paper move in a 200 m × 200 m field; everything here is 2-D.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use cocoa_sim::snapshot::{Codec, SnapshotError};

/// A point in the deployment plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// East coordinate, metres.
    pub x: f64,
    /// North coordinate, metres.
    pub y: f64,
}

/// A displacement between two [`Point`]s, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// East component, metres.
    pub x: f64,
    /// North component, metres.
    pub y: f64,
}

impl Point {
    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Point { x, y } = self;
        c.f64(x)?;
        c.f64(y)
    }

    /// Euclidean distance to `other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cocoa_net::geometry::Point;
    /// let a = Point::new(0.0, 0.0);
    /// let b = Point::new(3.0, 4.0);
    /// assert_eq!(a.distance_to(b), 5.0);
    /// ```
    pub fn distance_to(self, other: Point) -> f64 {
        (other - self).norm()
    }

    /// Squared Euclidean distance (avoids the square root on hot paths).
    pub fn distance_sq_to(self, other: Point) -> f64 {
        let d = other - self;
        d.x * d.x + d.y * d.y
    }

    /// Bearing (radians, atan2 convention: east = 0, counter-clockwise
    /// positive) from `self` towards `other`.
    pub fn bearing_to(self, other: Point) -> f64 {
        let d = other - self;
        d.y.atan2(d.x)
    }

    /// The midpoint between `self` and `other`.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

impl Vec2 {
    /// The zero displacement.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector at `angle` radians (atan2 convention).
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Angle of this vector (radians, atan2 convention).
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Scales to unit length; returns `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(Vec2::new(self.x / n, self.y / n))
        }
    }
}

impl Sub for Point {
    type Output = Vec2;
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// An axis-aligned rectangular deployment area.
///
/// The paper's evaluation uses a 40 000 m² (200 m × 200 m) field; the
/// bounding coordinates `x_min..x_max × y_min..y_max` appear directly in the
/// Bayesian constraint (paper Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Area {
    /// Western bound, metres.
    pub x_min: f64,
    /// Eastern bound, metres.
    pub x_max: f64,
    /// Southern bound, metres.
    pub y_min: f64,
    /// Northern bound, metres.
    pub y_max: f64,
}

impl Area {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Area {
            x_min,
            x_max,
            y_min,
            y_max,
        } = self;
        c.f64s([x_min, x_max, y_min, y_max])
    }

    /// Creates an area from its bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are inverted or not finite.
    pub fn new(x_min: f64, x_max: f64, y_min: f64, y_max: f64) -> Self {
        assert!(
            x_min.is_finite() && x_max.is_finite() && y_min.is_finite() && y_max.is_finite(),
            "area bounds must be finite"
        );
        assert!(x_min < x_max && y_min < y_max, "area bounds are inverted");
        Area {
            x_min,
            x_max,
            y_min,
            y_max,
        }
    }

    /// A square area `side × side` anchored at the origin.
    ///
    /// # Examples
    ///
    /// ```
    /// use cocoa_net::geometry::Area;
    /// // The paper's 40 000 m² field.
    /// let a = Area::square(200.0);
    /// assert_eq!(a.width() * a.height(), 40_000.0);
    /// ```
    pub fn square(side: f64) -> Self {
        Area::new(0.0, side, 0.0, side)
    }

    /// Width (east–west extent), metres.
    pub fn width(&self) -> f64 {
        self.x_max - self.x_min
    }

    /// Height (north–south extent), metres.
    pub fn height(&self) -> f64 {
        self.y_max - self.y_min
    }

    /// Geometric centre.
    pub fn center(&self) -> Point {
        Point::new(
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
        )
    }

    /// Whether `p` lies inside (inclusive of the boundary).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x_min && p.x <= self.x_max && p.y >= self.y_min && p.y <= self.y_max
    }

    /// Clamps `p` to the area boundary.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.x_min, self.x_max),
            p.y.clamp(self.y_min, self.y_max),
        )
    }

    /// The longest distance between any two points of the area.
    pub fn diagonal(&self) -> f64 {
        self.width().hypot(self.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq_to(b) - 25.0).abs() < 1e-12);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let o = Point::ORIGIN;
        assert!((o.bearing_to(Point::new(1.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((o.bearing_to(Point::new(0.0, 1.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((o.bearing_to(Point::new(-1.0, 0.0)).abs() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn vector_algebra() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(Vec2::ZERO.normalized().is_none());
        assert_eq!(-v, Vec2::new(-3.0, -4.0));
        assert_eq!(v * 2.0, Vec2::new(6.0, 8.0));
    }

    #[test]
    fn from_angle_roundtrip() {
        for deg in [0.0f64, 45.0, 90.0, 135.0, -90.0] {
            let rad = deg.to_radians();
            let v = Vec2::from_angle(rad);
            assert!((v.angle() - rad).abs() < 1e-12, "angle {deg}");
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn point_plus_vec() {
        let mut p = Point::new(1.0, 1.0);
        p += Vec2::new(2.0, -1.0);
        assert_eq!(p, Point::new(3.0, 0.0));
        assert_eq!(p + Vec2::new(0.0, 5.0), Point::new(3.0, 5.0));
    }

    #[test]
    fn area_contains_and_clamp() {
        let a = Area::square(200.0);
        assert!(a.contains(Point::new(0.0, 0.0)));
        assert!(a.contains(Point::new(200.0, 200.0)));
        assert!(!a.contains(Point::new(-0.1, 10.0)));
        assert_eq!(a.clamp(Point::new(-5.0, 300.0)), Point::new(0.0, 200.0));
        assert_eq!(a.center(), Point::new(100.0, 100.0));
        assert!((a.diagonal() - 200.0 * 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn area_rejects_inverted_bounds() {
        let _ = Area::new(10.0, 0.0, 0.0, 10.0);
    }

    #[test]
    fn midpoint() {
        let m = Point::new(0.0, 0.0).midpoint(Point::new(10.0, 20.0));
        assert_eq!(m, Point::new(5.0, 10.0));
    }
}
