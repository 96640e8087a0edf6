//! Property-based tests for the motion and odometry models.

use cocoa_mobility::prelude::*;
use cocoa_net::geometry::{Area, Point};
use cocoa_sim::rng::SeedSplitter;
use proptest::prelude::*;

proptest! {
    /// Robots never leave the deployment area, at any speed or seed.
    #[test]
    fn robots_stay_in_area(seed in 0u64..1000, v_max in 0.2..5.0f64, steps in 1usize..300) {
        let area = Area::square(200.0);
        let mut rng = SeedSplitter::new(seed).stream("wp", 0);
        let mut m = WaypointModel::new(
            WaypointConfig::paper(area, v_max),
            Point::new(100.0, 100.0),
            &mut rng,
        );
        for _ in 0..steps {
            let pose = m.step(1.0, &mut rng, |_| {});
            prop_assert!(area.contains(pose.position), "escaped to {}", pose.position);
        }
    }

    /// Commanded speed always respects the paper's [0.1, v_max] bounds.
    #[test]
    fn speed_in_bounds(seed in 0u64..1000, v_max in 0.2..5.0f64) {
        let area = Area::square(200.0);
        let mut rng = SeedSplitter::new(seed).stream("wp", 1);
        let mut m = WaypointModel::new(
            WaypointConfig::paper(area, v_max),
            Point::new(50.0, 50.0),
            &mut rng,
        );
        for _ in 0..100 {
            m.step(1.0, &mut rng, |_| {});
            prop_assert!(m.speed() >= 0.1 - 1e-12 && m.speed() <= v_max + 1e-12);
        }
    }

    /// Segment durations always account exactly for the step duration.
    #[test]
    fn segments_cover_step(seed in 0u64..500, dt in 0.1..5.0f64) {
        let area = Area::square(200.0);
        let mut rng = SeedSplitter::new(seed).stream("wp", 2);
        let mut m = WaypointModel::new(
            WaypointConfig::paper(area, 2.0),
            Point::new(100.0, 100.0),
            &mut rng,
        );
        for _ in 0..30 {
            let mut segments = Vec::new();
            m.step(dt, &mut rng, |s| segments.push(*s));
            let total: f64 = segments.iter().map(|s| s.duration).sum();
            prop_assert!((total - dt).abs() < 1e-9, "covered {total} of {dt}");
            for s in &segments {
                prop_assert!(s.distance >= 0.0 && s.duration >= 0.0);
            }
        }
    }

    /// The noiseless odometer reproduces the true pose exactly for any
    /// trajectory.
    #[test]
    fn noiseless_odometry_is_exact(seed in 0u64..500) {
        let area = Area::square(200.0);
        let mut rng = SeedSplitter::new(seed).stream("wp", 3);
        let mut m = WaypointModel::new(
            WaypointConfig::paper(area, 2.0),
            Point::new(100.0, 100.0),
            &mut rng,
        );
        let mut odo = Odometer::new(OdometryConfig::noiseless(), m.pose());
        let mut odo_rng = SeedSplitter::new(seed).stream("odo", 3);
        for _ in 0..120 {
            let pose = m.step(1.0, &mut rng, |s| odo.observe(s, &mut odo_rng));
            let err = pose.position.distance_to(odo.estimated_pose().position);
            prop_assert!(err < 1e-6, "drifted {err}");
        }
    }

    /// Odometry noise is unbiased in displacement: over many trials the
    /// mean along-track error stays near zero.
    #[test]
    fn displacement_noise_unbiased(base_seed in 0u64..20) {
        let mut sum = 0.0;
        let trials = 80;
        for t in 0..trials {
            let mut rng = SeedSplitter::new(base_seed * 1000 + t).stream("odo", 0);
            let mut odo = Odometer::new(
                OdometryConfig { displacement_sigma: 0.1, angular_sigma: 0.0, heading_drift_sigma: 0.0 },
                Pose::at(Point::ORIGIN),
            );
            for _ in 0..50 {
                odo.observe(&Segment { turn: 0.0, distance: 1.0, duration: 1.0 }, &mut rng);
            }
            sum += odo.estimated_pose().position.x - 50.0;
        }
        let mean = sum / trials as f64;
        // sigma of the mean ~ 0.1*sqrt(50)/sqrt(80) ~ 0.08; allow 5 sigma.
        prop_assert!(mean.abs() < 0.4, "bias {mean}");
    }

    /// Trajectory aggregates are consistent: mean <= max, and errors are
    /// non-negative.
    #[test]
    fn trajectory_invariants(points in proptest::collection::vec((0.0..200.0f64, 0.0..200.0f64, 0.0..200.0f64, 0.0..200.0f64), 1..100)) {
        use cocoa_sim::time::SimTime;
        let mut tr = Trajectory::new();
        for (i, &(tx, ty, ex, ey)) in points.iter().enumerate() {
            tr.record(SimTime::from_secs(i as u64), Point::new(tx, ty), Point::new(ex, ey));
        }
        prop_assert!(tr.mean_error() <= tr.max_error() + 1e-12);
        prop_assert!(tr.mean_error() >= 0.0);
        prop_assert_eq!(tr.len(), points.len());
    }
}
