//! Fusion styles head to head: CoCoA's reset-style fusion vs an EKF.
//!
//! ```sh
//! cargo run --release --example ekf_fusion
//! ```
//!
//! The paper (Section 5) notes CoCoA "is not tied to a specific
//! localization technique". This example compares, on identical synthetic
//! data, the two fusion philosophies:
//!
//! - **CoCoA style**: every beacon period, throw the estimate away, take a
//!   fresh Bayesian fix from the window's beacons, dead-reckon in between;
//! - **EKF style**: never reset — predict from odometry displacements
//!   every second, fuse each beacon range as it arrives (initialized by
//!   the first Bayesian fix, since range-only EKFs cannot cold-start).
//!
//! One robot wanders the paper's field for 15 minutes; 25 static anchors
//! beacon every T = 100 s for 3 s.

use cocoa_suite::localization::bayes::radial_constraints_for_grid;
use cocoa_suite::localization::ekf::{EkfConfig, EkfLocalizer, EkfUpdate};
use cocoa_suite::localization::estimator::WindowedRfEstimator;
use cocoa_suite::localization::grid::{BeaconField, GridConfig};
use cocoa_suite::mobility::prelude::*;
use cocoa_suite::net::calibration::{calibrate, CalibrationConfig};
use cocoa_suite::net::channel::RfChannel;
use cocoa_suite::net::geometry::{Area, Point};
use cocoa_suite::sim::rng::SeedSplitter;
use rand::Rng;

const PERIOD_S: u64 = 100;
const WINDOW_S: u64 = 3;
const DURATION_S: u64 = 900;

fn main() {
    let area = Area::square(200.0);
    let channel = RfChannel::default();
    let split = SeedSplitter::new(99);
    let table = calibrate(
        &channel,
        &CalibrationConfig::default(),
        &mut split.stream("cal", 0),
    );
    let mut anchor_rng = split.stream("anchors", 0);
    let anchors: Vec<Point> = (0..25)
        .map(|_| {
            Point::new(
                anchor_rng.gen::<f64>() * 200.0,
                anchor_rng.gen::<f64>() * 200.0,
            )
        })
        .collect();

    let mut move_rng = split.stream("move", 0);
    let mut odo_rng = split.stream("odo", 0);
    let mut chan_rng = split.stream("chan", 0);
    let mut robot = RobotMotion::new(
        WaypointConfig::paper(area, 2.0),
        OdometryConfig::default(),
        Point::new(100.0, 100.0),
        &mut move_rng,
    );

    // CoCoA-style state; the first window is open from the start.
    let grid = GridConfig::new(area, 2.0);
    let radial = radial_constraints_for_grid(&table, &grid);
    let mut bayes = WindowedRfEstimator::new(grid);
    bayes.begin_window();
    let mut cocoa_fix: Option<Point> = None;
    let mut odo_at_fix = robot.odometry_pose().position;

    // EKF state (initialized after the first Bayesian fix).
    let mut ekf: Option<EkfLocalizer> = None;
    let mut fused = 0u32;
    let mut last_odo = robot.odometry_pose().position;

    let mut cocoa_stats = cocoa_suite::sim::stats::RunningStats::new();
    let mut ekf_stats = cocoa_suite::sim::stats::RunningStats::new();

    for t in 1..=DURATION_S {
        robot.step(1.0, &mut move_rng, &mut odo_rng);
        // EKF prediction from the odometry displacement this second.
        let odo_now = robot.odometry_pose().position;
        if let Some(f) = ekf.as_mut() {
            f.predict(odo_now - last_odo);
        }
        last_odo = odo_now;

        let in_window = t % PERIOD_S < WINDOW_S;
        if t % PERIOD_S == 0 {
            bayes.begin_window(); // window opens: throw the old posterior away
        }
        if in_window {
            // Each anchor sends one beacon per second of the window.
            for &a in &anchors {
                let d = robot.true_position().distance_to(a).max(0.3);
                let rssi = channel.sample_rssi(d, &mut chan_rng);
                if !channel.is_detectable(rssi) {
                    continue;
                }
                bayes.observe_beacon(&table, &radial, &mut BeaconField::new(a), rssi, None, 0.0);
                if let Some(f) = ekf.as_mut() {
                    if f.update_from_beacon(&table, a, rssi) == EkfUpdate::Applied {
                        fused += 1;
                    }
                }
            }
        }
        if t % PERIOD_S == WINDOW_S - 1 {
            // Window closes: take the fix.
            if let Some(fix) = bayes.end_window() {
                cocoa_fix = Some(fix);
                odo_at_fix = odo_now;
                if ekf.is_none() {
                    // Bootstrap the EKF from the first Bayesian fix.
                    ekf = Some(EkfLocalizer::new(
                        EkfConfig {
                            initial_sigma_m: 10.0,
                            ..EkfConfig::default()
                        },
                        area,
                        Some(fix),
                    ));
                }
            }
        }

        // Score both estimators once warm.
        if t > PERIOD_S + WINDOW_S {
            if let Some(fix) = cocoa_fix {
                let est = fix + (odo_now - odo_at_fix);
                cocoa_stats.push(robot.true_position().distance_to(area.clamp(est)));
            }
            if let Some(f) = &ekf {
                ekf_stats.push(robot.true_position().distance_to(f.estimate()));
            }
        }
    }

    println!(
        "fusion comparison over {} s (T = {PERIOD_S} s, one robot, 25 anchors)\n",
        DURATION_S - PERIOD_S
    );
    println!(
        "{:<28}{:>10}{:>10}{:>10}",
        "estimator", "mean [m]", "std [m]", "max [m]"
    );
    println!(
        "{:<28}{:>10.2}{:>10.2}{:>10.2}",
        "CoCoA (reset + odometry)",
        cocoa_stats.mean(),
        cocoa_stats.std_dev(),
        cocoa_stats.max()
    );
    println!(
        "{:<28}{:>10.2}{:>10.2}{:>10.2}",
        "EKF (continuous fusion)",
        ekf_stats.mean(),
        ekf_stats.std_dev(),
        ekf_stats.max()
    );
    let f = ekf.expect("ekf bootstrapped");
    println!(
        "\nEKF fused {fused} ranges, gated {} ({} windows of beacons)",
        f.updates_gated(),
        DURATION_S / PERIOD_S
    );
    println!("(both styles see identical beacons, odometry and channel noise)");
}
