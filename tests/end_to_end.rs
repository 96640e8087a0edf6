//! Cross-crate integration tests: full CoCoA simulations exercising the
//! engine, channel, MAC, mobility, multicast, localization and the
//! coordination runner together.

use cocoa_suite::core::prelude::*;
use cocoa_suite::sim::time::{SimDuration, SimTime};

/// A downsized but complete scenario: 20 robots, 5 minutes, T = 50 s.
fn quick(seed: u64) -> ScenarioBuilder {
    let mut b = Scenario::builder();
    b.seed(seed)
        .robots(20)
        .equipped(10)
        .duration(SimDuration::from_secs(300))
        .beacon_period(SimDuration::from_secs(50))
        .grid_resolution(4.0);
    b
}

#[test]
fn runs_are_bit_reproducible() {
    let s = quick(9).build();
    let a = run(&s);
    let b = run(&s);
    assert_eq!(a, b, "same scenario must produce identical metrics");
}

#[test]
fn different_seeds_differ() {
    let a = run(&quick(1).build());
    let b = run(&quick(2).build());
    assert_ne!(a.error_series, b.error_series);
}

#[test]
fn cocoa_beats_rf_only_which_beats_late_odometry() {
    let cocoa = run(&quick(3).mode(EstimatorMode::Cocoa).build());
    let rf = run(&quick(3).mode(EstimatorMode::RfOnly).build());
    let odo = run(&quick(3).mode(EstimatorMode::OdometryOnly).build());
    // Steady-state comparison (skip the cold start before the first fix).
    let cocoa_err = cocoa.mean_error_after(60.0);
    let rf_err = rf.mean_error_after(60.0);
    assert!(
        cocoa_err < rf_err,
        "CoCoA ({cocoa_err:.1} m) must beat RF-only ({rf_err:.1} m)"
    );
    // Odometry error grows over time; the final stretch is worse than the
    // first minute.
    let early = odo.error_near(30.0).unwrap();
    let late = odo.error_near(290.0).unwrap();
    assert!(
        late > early,
        "odometry error must grow: {early:.1} -> {late:.1}"
    );
}

#[test]
fn coordination_saves_energy_without_hurting_accuracy() {
    let with = run(&quick(4).coordination(true).build());
    let without = run(&quick(4).coordination(false).build());
    assert!(
        with.energy.total_j() < without.energy.total_j() / 2.0,
        "sleep coordination must save at least 2x ({:.0} J vs {:.0} J)",
        with.energy.total_j(),
        without.energy.total_j()
    );
    let delta = (with.mean_error_over_time() - without.mean_error_over_time()).abs();
    assert!(
        delta < 2.0,
        "coordination must not change accuracy materially (delta {delta:.2} m)"
    );
    // The sleep ledger only accrues when coordinating.
    assert!(with.energy.team().sleep_uj > 0.0);
    assert_eq!(without.energy.team().sleep_uj, 0.0);
}

#[test]
fn larger_beacon_period_saves_more_energy() {
    let t20 = run(&quick(5).beacon_period(SimDuration::from_secs(20)).build());
    let t100 = run(&quick(5).beacon_period(SimDuration::from_secs(100)).build());
    assert!(
        t100.energy.total_j() < t20.energy.total_j(),
        "T = 100 ({:.0} J) must be cheaper than T = 20 ({:.0} J)",
        t100.energy.total_j(),
        t20.energy.total_j()
    );
}

#[test]
fn fixes_happen_and_beacons_flow() {
    let m = run(&quick(6).build());
    // 10 unequipped robots × 6 windows: expect most windows to fix.
    assert!(m.traffic.fixes > 30, "fixes {}", m.traffic.fixes);
    assert!(m.traffic.beacons_sent > 100);
    assert!(m.traffic.beacons_received > m.traffic.beacons_sent);
    assert!(m.traffic.syncs_delivered > 0);
}

#[test]
fn snapshots_show_the_window_refresh_cycle() {
    // Post-window accuracy must beat the end-of-period accuracy.
    let s = quick(7)
        .beacon_period(SimDuration::from_secs(50))
        .snapshots([
            SimTime::from_secs(249), // end of a period, most stale
            SimTime::from_secs(254), // right after the transmit window
        ])
        .build();
    let m = run(&s);
    let stale = &m.snapshots[0];
    let fresh = &m.snapshots[1];
    assert!(
        fresh.mean() < stale.mean(),
        "post-window mean {:.1} must beat pre-window {:.1}",
        fresh.mean(),
        stale.mean()
    );
}

#[test]
fn sync_loss_with_bad_clocks_degrades_coordination() {
    let mut b = quick(8);
    b.duration(SimDuration::from_secs(900))
        .clock_skew_ppm(9000.0);
    let synced = run(&b.sync_enabled(true).build());
    let free = run(&b.sync_enabled(false).build());
    // Free-running 9000 ppm clocks spread their wake windows apart by up
    // to several seconds over 15 minutes: robots still hear equipped
    // robots whose clocks drifted the same way, but lose the beacons of
    // oppositely-drifted ones. SYNC keeps the whole team's windows
    // aligned, so far more beacons are received and accuracy is better.
    assert!(
        (free.traffic.beacons_received as f64) < 0.75 * synced.traffic.beacons_received as f64,
        "free-running clocks must lose beacon receptions: {} vs {}",
        free.traffic.beacons_received,
        synced.traffic.beacons_received
    );
    assert!(
        free.mean_error_after(60.0) > synced.mean_error_after(60.0),
        "free-running clocks must hurt accuracy: {:.1} vs {:.1}",
        free.mean_error_after(60.0),
        synced.mean_error_after(60.0)
    );
}

#[test]
fn equipped_robots_report_no_error_and_are_excluded() {
    let m = run(&quick(10).build());
    for p in &m.error_series {
        assert_eq!(p.robots, 10, "only the 10 unequipped robots report");
    }
    let equipped_errors: Vec<f64> = m
        .final_states
        .iter()
        .filter(|r| r.equipped)
        .map(|r| r.true_position.distance_to(r.estimate))
        .collect();
    assert_eq!(equipped_errors.len(), 10);
    assert!(equipped_errors.iter().all(|&e| e == 0.0));
}

#[test]
fn odometry_only_mode_uses_no_radio() {
    let m = run(&quick(11).mode(EstimatorMode::OdometryOnly).build());
    assert_eq!(m.traffic.beacons_sent, 0);
    assert_eq!(m.traffic.syncs_delivered, 0);
    assert_eq!(m.energy.total_j(), 0.0, "radios are off");
    // And everyone reports (the paper averages over all 50 robots here).
    assert!(m.error_series.iter().all(|p| p.robots == 20));
}

#[test]
fn relay_beaconing_adds_beacon_sources() {
    let mut base = quick(12);
    base.equipped(4);
    let off = run(&base.relay_beaconing(false).build());
    let on = run(&base.relay_beaconing(true).build());
    assert!(
        on.traffic.beacons_sent > off.traffic.beacons_sent,
        "relaying must add beacons: {} vs {}",
        on.traffic.beacons_sent,
        off.traffic.beacons_sent
    );
}

#[test]
fn final_states_feed_geo_routing() {
    use cocoa_suite::georouting::prelude::*;
    let m = run(&quick(13).build());
    let nodes: Vec<RoutingNode> = m
        .final_states
        .iter()
        .map(|r| RoutingNode {
            true_position: r.true_position,
            believed_position: r.estimate,
        })
        .collect();
    let graph = UnitDiskGraph::new(nodes, 60.0);
    let pairs: Vec<(usize, usize)> = (0..graph.len()).map(|i| (i, graph.len() - 1 - i)).collect();
    let stats = delivery_experiment(&graph, &pairs);
    assert!(stats.attempted > 0);
    assert!(
        stats.delivery_rate() > 0.5,
        "CoCoA coordinates should route most packets, got {:.0}%",
        stats.delivery_rate() * 100.0
    );
}

#[test]
fn mesh_statistics_are_consistent() {
    let m = run(&quick(14).build());
    // The Sync robot originates one query and one SYNC data packet per
    // window (6 windows in 300 s at T = 50).
    assert_eq!(m.mesh.queries_originated, 6);
    assert_eq!(m.mesh.data_originated, 6);
    assert!(m.mesh.data_delivered > 0, "SYNC must reach members");
    assert!(m.mesh.queries_rebroadcast > 0, "queries must flood");
}

#[test]
fn packet_loss_degrades_gracefully() {
    // k = 3 beacons per window absorb moderate loss; heavy loss starves
    // windows and costs fixes.
    let clean = run(&quick(20).build());
    let lossy = {
        let mut b = quick(20);
        b.packet_loss(0.5);
        run(&b.build())
    };
    assert!(
        (lossy.traffic.beacons_received as f64) < 0.62 * clean.traffic.beacons_received as f64,
        "50% loss must roughly halve receptions: {} vs {}",
        lossy.traffic.beacons_received,
        clean.traffic.beacons_received
    );
    assert!(
        lossy.traffic.fixes <= clean.traffic.fixes,
        "loss must not add fixes"
    );
    // Still functional: most windows fix (redundant beacons at work).
    assert!(
        lossy.traffic.fixes * 10 >= clean.traffic.fixes * 5,
        "half the fixes should survive 50% loss: {} vs {}",
        lossy.traffic.fixes,
        clean.traffic.fixes
    );
}

#[test]
fn traced_runs_record_protocol_milestones() {
    use cocoa_suite::sim::telemetry::{Telemetry, TelemetryLevel};
    let s = quick(21).build();
    let (metrics, telemetry) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Timeline));
    let count = |kind: &str| {
        telemetry
            .events()
            .filter(|e| e.event.kind() == kind)
            .count() as u64
    };
    // One window start per beacon period.
    assert_eq!(count("window_start"), s.num_windows());
    // One fix event per fresh fix.
    assert_eq!(count("fix"), metrics.traffic.fixes);
    // Tracing never perturbs the simulation itself.
    let untraced = run(&s);
    assert_eq!(untraced, metrics);
}
