//! MRMM's mobility-aware mesh pruning machinery.
//!
//! MRMM (Mobile Robot Mesh Multicast, Das et al., ICRA 2005) extends ODMRP
//! by exploiting the mobility knowledge available in robot networks — each
//! robot knows its position, velocity and `d_rest`, the distance it will
//! still travel before its next course change. From a neighbour's
//! advertised triple, a robot can *predict the residual lifetime of the
//! radio link* and prefer long-lived reverse paths, pruning short-lived
//! redundant forwarders out of the mesh (the paper: "select a new set of
//! nodes P ⊆ F that maximizes the lifetime of the mesh without greatly
//! affecting the redundancy and path lengths").

use serde::{Deserialize, Serialize};

use cocoa_net::geometry::{Point, Vec2};
use cocoa_sim::snapshot::{Codec, SnapshotError};

/// The mobility knowledge a robot advertises in JOIN QUERY packets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilityInfo {
    /// Believed position, metres.
    pub position: Point,
    /// Velocity vector, m/s.
    pub velocity: Vec2,
    /// Distance remaining to the next course change, metres.
    pub d_rest: f64,
}

impl MobilityInfo {
    /// A stationary robot at `position`.
    pub fn stationary(position: Point) -> Self {
        MobilityInfo {
            position,
            velocity: Vec2::ZERO,
            d_rest: 0.0,
        }
    }

    /// Time until this robot's current straight leg ends, seconds
    /// (`∞` when stationary).
    pub fn leg_time(&self) -> f64 {
        let speed = self.velocity.norm();
        if speed < 1e-9 {
            f64::INFINITY
        } else {
            self.d_rest / speed
        }
    }
}

/// First time within `[t0, t1)` at which `|p0 + v (t - t0)| > range`, or
/// `None` if the pair stays in range through the phase. `p0` is the
/// relative position at `t0`, `v` the relative velocity during the phase.
fn phase_escape_time(p0: Vec2, v: Vec2, range: f64, t0: f64, t1: f64) -> Option<f64> {
    let c = p0.dot(p0) - range * range;
    if c > 0.0 {
        // Already out of range at the phase start.
        return Some(t0);
    }
    let a = v.dot(v);
    if a < 1e-12 {
        return None; // relative position constant, stays in range
    }
    let b = 2.0 * p0.dot(v);
    // Starting inside (c <= 0), the escape is the larger root.
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return None;
    }
    let escape = (-b + disc.sqrt()) / (2.0 * a);
    let t = t0 + escape;
    if escape >= 0.0 && t < t1 {
        Some(t)
    } else {
        None
    }
}

/// Predicts how long the radio link between robots `a` and `b` will
/// survive, seconds, assuming each travels its current straight leg and
/// then (conservatively) halts. Clamped to `horizon`.
///
/// Returns `0.0` if the pair is already out of range.
///
/// # Examples
///
/// ```
/// use cocoa_multicast::mrmm::{link_lifetime, MobilityInfo};
/// use cocoa_net::geometry::{Point, Vec2};
///
/// // Two robots 50 m apart, one driving away at 2 m/s with 1 km to go:
/// // the 150 m range is exhausted after (150 - 50) / 2 = 50 s.
/// let a = MobilityInfo::stationary(Point::new(0.0, 0.0));
/// let b = MobilityInfo {
///     position: Point::new(50.0, 0.0),
///     velocity: Vec2::new(2.0, 0.0),
///     d_rest: 1000.0,
/// };
/// let t = link_lifetime(&a, &b, 150.0, 600.0);
/// assert!((t - 50.0).abs() < 1e-6);
/// ```
pub fn link_lifetime(a: &MobilityInfo, b: &MobilityInfo, range: f64, horizon: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    assert!(horizon > 0.0, "horizon must be positive");
    let p0 = b.position - a.position;
    if p0.norm() > range {
        return 0.0;
    }
    // Phase boundaries: each robot's leg end, then the horizon.
    let ta = a.leg_time().min(horizon);
    let tb = b.leg_time().min(horizon);
    let (first, second) = if ta <= tb { (ta, tb) } else { (tb, ta) };
    let boundaries = [0.0, first, second, horizon];
    let mut p = p0;
    for w in boundaries.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        if t1 <= t0 {
            continue;
        }
        // Velocities active during this phase.
        let va = if t0 < ta { a.velocity } else { Vec2::ZERO };
        let vb = if t0 < tb { b.velocity } else { Vec2::ZERO };
        let v = vb - va;
        if let Some(t) = phase_escape_time(p, v, range, t0, t1) {
            return t;
        }
        p = p + v * (t1 - t0);
    }
    horizon
}

/// MRMM's scoring of a candidate reverse-path predecessor: prefer links
/// that will live longer, tie-breaking on shorter paths. Lifetimes beyond
/// the mesh refresh interval are equivalent (the mesh is rebuilt anyway).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PathScore {
    /// Predicted residual link lifetime, seconds (clamped to refresh).
    pub lifetime: f64,
    /// Hop count from the mesh source.
    pub hops: u8,
}

impl PathScore {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let PathScore { lifetime, hops } = self;
        c.f64(lifetime)?;
        c.u8(hops)
    }

    /// Whether this path beats `other` under MRMM's ordering.
    pub fn better_than(&self, other: &PathScore) -> bool {
        if (self.lifetime - other.lifetime).abs() > 1e-9 {
            self.lifetime > other.lifetime
        } else {
            self.hops < other.hops
        }
    }
}

/// MRMM's rebroadcast-pruning policy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruneConfig {
    /// A forwarder whose best upstream link is predicted to live less than
    /// this (seconds) is a pruning candidate.
    pub min_lifetime_s: f64,
    /// Prune only when at least this many copies of the query were heard
    /// (redundancy evidence: other nodes cover the neighbourhood).
    pub redundancy_threshold: u32,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            min_lifetime_s: 30.0,
            redundancy_threshold: 2,
        }
    }
}

impl PruneConfig {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let PruneConfig {
            min_lifetime_s,
            redundancy_threshold,
        } = self;
        c.f64(min_lifetime_s)?;
        c.u32(redundancy_threshold)
    }

    /// MRMM's pruning decision: should a node *suppress* its JOIN QUERY
    /// rebroadcast (drop out of the candidate forwarder set F)?
    pub fn should_prune(&self, best_lifetime_s: f64, copies_heard: u32) -> bool {
        copies_heard >= self.redundancy_threshold && best_lifetime_s < self.min_lifetime_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn stationary_pair_in_range_lives_to_horizon() {
        let a = MobilityInfo::stationary(at(0.0, 0.0));
        let b = MobilityInfo::stationary(at(100.0, 0.0));
        assert_eq!(link_lifetime(&a, &b, 150.0, 300.0), 300.0);
    }

    #[test]
    fn out_of_range_pair_has_zero_lifetime() {
        let a = MobilityInfo::stationary(at(0.0, 0.0));
        let b = MobilityInfo::stationary(at(200.0, 0.0));
        assert_eq!(link_lifetime(&a, &b, 150.0, 300.0), 0.0);
    }

    #[test]
    fn receding_robot_breaks_link_at_predicted_time() {
        let a = MobilityInfo::stationary(at(0.0, 0.0));
        let b = MobilityInfo {
            position: at(50.0, 0.0),
            velocity: Vec2::new(2.0, 0.0),
            d_rest: 1000.0,
        };
        let t = link_lifetime(&a, &b, 150.0, 600.0);
        assert!((t - 50.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn leg_end_halts_the_escape() {
        // Same as above but the leg ends after 10 s (20 m): the robot
        // halts at 70 m separation, still in range — link survives.
        let a = MobilityInfo::stationary(at(0.0, 0.0));
        let b = MobilityInfo {
            position: at(50.0, 0.0),
            velocity: Vec2::new(2.0, 0.0),
            d_rest: 20.0,
        };
        assert_eq!(link_lifetime(&a, &b, 150.0, 600.0), 600.0);
    }

    #[test]
    fn approaching_then_passing_robot() {
        // B drives towards and past A; link holds while |sep| <= range.
        let a = MobilityInfo::stationary(at(0.0, 0.0));
        let b = MobilityInfo {
            position: at(-100.0, 0.0),
            velocity: Vec2::new(2.0, 0.0),
            d_rest: 10_000.0,
        };
        // Escape when B reaches +150 m: travel 250 m at 2 m/s = 125 s.
        let t = link_lifetime(&a, &b, 150.0, 600.0);
        assert!((t - 125.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn both_moving_relative_velocity_counts() {
        // Convoy: same velocity, never separates.
        let a = MobilityInfo {
            position: at(0.0, 0.0),
            velocity: Vec2::new(1.0, 1.0),
            d_rest: 10_000.0,
        };
        let b = MobilityInfo {
            position: at(50.0, 0.0),
            velocity: Vec2::new(1.0, 1.0),
            d_rest: 10_000.0,
        };
        assert_eq!(link_lifetime(&a, &b, 150.0, 400.0), 400.0);
        // Diverging: both drive apart at 1 m/s each = 2 m/s closing rate.
        let c = MobilityInfo {
            position: at(0.0, 0.0),
            velocity: Vec2::new(-1.0, 0.0),
            d_rest: 10_000.0,
        };
        let d = MobilityInfo {
            position: at(50.0, 0.0),
            velocity: Vec2::new(1.0, 0.0),
            d_rest: 10_000.0,
        };
        let t = link_lifetime(&c, &d, 150.0, 400.0);
        assert!((t - 50.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn boundary_exactly_at_range_is_in_range() {
        let a = MobilityInfo::stationary(at(0.0, 0.0));
        let b = MobilityInfo::stationary(at(150.0, 0.0));
        assert_eq!(link_lifetime(&a, &b, 150.0, 100.0), 100.0);
    }

    #[test]
    fn path_score_ordering() {
        let long = PathScore {
            lifetime: 60.0,
            hops: 5,
        };
        let short = PathScore {
            lifetime: 10.0,
            hops: 2,
        };
        assert!(long.better_than(&short), "lifetime dominates hops");
        let a = PathScore {
            lifetime: 60.0,
            hops: 2,
        };
        let b = PathScore {
            lifetime: 60.0,
            hops: 4,
        };
        assert!(a.better_than(&b), "hops break ties");
        assert!(!b.better_than(&a));
    }

    #[test]
    fn prune_policy() {
        let cfg = PruneConfig::default();
        assert!(
            cfg.should_prune(5.0, 3),
            "short-lived redundant node prunes"
        );
        assert!(!cfg.should_prune(5.0, 1), "sole covering node never prunes");
        assert!(!cfg.should_prune(120.0, 5), "long-lived node never prunes");
    }

    #[test]
    fn leg_time_handles_stationary() {
        assert_eq!(
            MobilityInfo::stationary(at(0.0, 0.0)).leg_time(),
            f64::INFINITY
        );
        let m = MobilityInfo {
            position: at(0.0, 0.0),
            velocity: Vec2::new(3.0, 4.0),
            d_rest: 10.0,
        };
        assert!((m.leg_time() - 2.0).abs() < 1e-12);
    }
}
