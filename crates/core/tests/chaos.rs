//! The chaos harness: canned fault schedules driven through full runs,
//! asserting that the stack never panics, metrics stay finite, the same
//! seed reproduces bit-identical output, and degradation stays graceful
//! (bounded error, successful Sync failover) under heavy faults.

use cocoa_core::prelude::*;
use cocoa_sim::faults::{FaultPlan, GilbertElliott, PRESET_NAMES};
use cocoa_sim::time::{SimDuration, SimTime};

const DURATION: SimDuration = SimDuration::from_secs(360);

/// A quick scenario small enough for CI but with enough windows (12) for
/// crashes, failover and recovery to all play out.
fn quick() -> ScenarioBuilder {
    let mut b = Scenario::builder();
    b.seed(77)
        .robots(12)
        .equipped(6)
        .duration(DURATION)
        .beacon_period(SimDuration::from_secs(30))
        .transmit_window(SimDuration::from_secs(3))
        .grid_resolution(8.0)
        .failover_missed_periods(2);
    b
}

fn finite(metrics: &RunMetrics) {
    for p in &metrics.error_series {
        assert!(
            p.mean_error_m.is_finite() && p.mean_error_m >= 0.0,
            "error series must stay finite, got {} at t={}",
            p.mean_error_m,
            p.t_s
        );
    }
    assert!(metrics.energy.total_j().is_finite());
    for l in &metrics.health {
        assert!(l.total_s().is_finite());
    }
}

#[test]
fn every_preset_runs_without_panicking() {
    for name in PRESET_NAMES {
        let plan = FaultPlan::preset(name, DURATION, 12).expect("known preset");
        let m = run(&quick().faults(plan).build());
        finite(&m);
        assert!(
            m.events_processed > 0,
            "preset '{name}' must actually simulate"
        );
    }
}

#[test]
fn same_seed_same_faults_identical_metrics() {
    let plan = FaultPlan::preset("chaos", DURATION, 12).expect("known preset");
    let a = run(&quick().faults(plan.clone()).build());
    let b = run(&quick().faults(plan).build());
    assert_eq!(a, b, "same seed and fault schedule must reproduce exactly");
    // Byte-identical, not just structurally equal: the rendered forms of
    // both runs match down to every digit.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn sync_crash_mid_run_elects_new_timebase() {
    // Crash the Sync robot (robot 0) at T/2 with no reboot: the team must
    // elect a replacement timebase and keep delivering SYNC.
    let mut plan = FaultPlan::new();
    plan.schedule(
        SimTime::ZERO + DURATION / 2,
        cocoa_sim::faults::Fault::Crash { robot: 0 },
    );
    let m = run(&quick().faults(plan).build());
    finite(&m);
    assert_eq!(m.robustness.crashes, 1);
    assert!(
        m.robustness.failovers >= 1,
        "a new timebase must be elected after the Sync robot crashes"
    );
    // SYNC keeps flowing after the failover gap: more deliveries than a
    // run that stopped at T/2 could produce alone is hard to bound tightly,
    // but there must be deliveries and the dead robot accrues down-time.
    assert!(m.traffic.syncs_delivered > 0);
    assert!(
        m.health[0].down_s > DURATION.as_secs_f64() * 0.4,
        "the crashed robot spends the second half down, got {:.0} s",
        m.health[0].down_s
    );
}

#[test]
fn degradation_is_graceful_at_30pct_burst_loss_plus_sync_crash() {
    let baseline = run(&quick().build());
    let base_err = baseline.mean_error_over_time();

    let mut plan = FaultPlan::new();
    plan.schedule(
        SimTime::ZERO + DURATION / 6,
        cocoa_sim::faults::Fault::BurstLossStart {
            model: GilbertElliott::bursty(0.3, 8.0),
        },
    );
    plan.schedule(
        SimTime::ZERO + DURATION / 2,
        cocoa_sim::faults::Fault::Crash { robot: 0 },
    );
    let m = run(&quick().faults(plan).build());
    finite(&m);
    assert!(
        m.robustness.burst_losses > 0,
        "the overlay must drop frames"
    );
    assert!(m.robustness.failovers >= 1);
    let err = m.mean_error_over_time();
    assert!(
        err <= 3.0 * base_err.max(1.0),
        "degradation must stay graceful: {err:.1} m vs fault-free {base_err:.1} m"
    );
}

#[test]
fn reboot_restores_the_robot_and_ledgers_add_up() {
    use cocoa_localization::estimator::RfAlgorithm;
    use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
    // Crash an unequipped robot for the middle third of the run.
    let mut plan = FaultPlan::new();
    plan.schedule(
        SimTime::ZERO + DURATION / 3,
        cocoa_sim::faults::Fault::Crash { robot: 7 },
    );
    plan.schedule(
        SimTime::ZERO + (DURATION * 2) / 3,
        cocoa_sim::faults::Fault::Reboot { robot: 7 },
    );
    for algorithm in RfAlgorithm::ALL {
        let s = quick().faults(plan.clone()).rf_algorithm(algorithm).build();
        let (m, telemetry) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Counters));
        finite(&m);
        assert_eq!(m.robustness.crashes, 1);
        assert_eq!(m.robustness.reboots, 1);
        let third = DURATION.as_secs_f64() / 3.0;
        let l = &m.health[7];
        assert!(
            (l.down_s - third).abs() < 1.0,
            "{algorithm}: down time should be one third of the run, got {:.0} s",
            l.down_s
        );
        assert!(
            (l.total_s() - DURATION.as_secs_f64()).abs() < 1e-6,
            "{algorithm}: the ledger must cover the whole run"
        );
        // After the reboot the robot re-enters the window cycle and can fix
        // again; at minimum it reports an estimate and stays finite.
        assert!(m.error_series.last().is_some());
        // The reboot resets the estimator but keeps its lifetime counters,
        // so the estimator's telemetry still counts the fixes made before
        // the crash.
        assert_eq!(
            telemetry
                .counters()
                .get(&format!("estimator.{algorithm}.fixes")),
            Some(m.traffic.fixes),
            "{algorithm}: estimator fixes must match the run's fixes"
        );
    }
}

#[test]
fn corrupted_beacons_are_counted_and_survived() {
    let plan = FaultPlan::preset("corrupt", DURATION, 12).expect("known preset");
    let m = run(&quick().faults(plan).build());
    finite(&m);
    let r = &m.robustness;
    assert!(
        r.corrupt_frames_dropped + r.garbled_frames_delivered > 0,
        "the garbling transmitter must have corrupted frames: {r:?}"
    );
    assert!(
        m.traffic.fixes > 0,
        "the team must keep localizing through corruption"
    );
}
