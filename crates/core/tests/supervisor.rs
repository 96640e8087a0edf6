//! End-to-end properties of the supervision layer.
//!
//! The pinned tentpole property: a sweep that is interrupted (completed
//! points recorded, one point mid-flight, one never started) and then
//! auto-resumed from its manifest produces `RunMetrics` **byte-identical**
//! — through the metrics codec — to an uninterrupted sweep. Alongside it:
//! panic isolation (one poisoned point cannot sink the sweep), retry
//! determinism across all mesh backends, deadline classification, and
//! manifest codec round-trip/corruption properties.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cocoa_core::executor::manifest::{encode_metrics, PointState, SweepManifest};
use cocoa_core::executor::supervisor::SupervisorConfig;
use cocoa_core::executor::sweep::{run_supervised, SweepConfig};
use cocoa_core::metrics::RunMetrics;
use cocoa_core::runner::{run, SimRun};
use cocoa_core::scenario::Scenario;
use cocoa_core::world::checkpoint::scenario_fingerprint;
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_sim::telemetry::Telemetry;
use cocoa_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn scenario(seed: u64, period_s: u64, protocol: MulticastProtocol) -> Scenario {
    let mut b = Scenario::builder();
    b.seed(seed)
        .duration(SimDuration::from_secs(60))
        .robots(8)
        .equipped(4)
        .beacon_period(SimDuration::from_secs(period_s))
        .multicast(protocol);
    b.build()
}

fn temp_manifest(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cocoa-supervisor-{tag}-{}.csnp",
        std::process::id()
    ))
}

fn metrics_of(report: &cocoa_core::prelude::SweepReport<RunMetrics>, index: usize) -> Vec<u8> {
    encode_metrics(
        report.outcomes[index]
            .result
            .as_ref()
            .expect("point should have completed"),
    )
}

/// One always-panicking point is classified and contained; every other
/// point completes with metrics byte-identical to an unsupervised run.
#[test]
fn always_panicking_point_completes_the_rest() {
    let scenarios = vec![
        scenario(1, 10, MulticastProtocol::Mrmm),
        scenario(2, 15, MulticastProtocol::Mrmm),
        scenario(3, 20, MulticastProtocol::Mrmm),
    ];
    let golden: Vec<Vec<u8>> = scenarios.iter().map(|s| encode_metrics(&run(s))).collect();
    let cfg = SweepConfig {
        supervisor: SupervisorConfig {
            max_attempts: 2,
            ..SupervisorConfig::default()
        },
        attempt_hook: Some(Arc::new(|index| {
            if index == 1 {
                panic!("poisoned point");
            }
        })),
        ..SweepConfig::default()
    };
    let report = run_supervised(scenarios, &cfg).expect("no manifest involved");
    assert_eq!(report.completed(), 2);
    assert_eq!(report.failed(), 1);
    let failures: Vec<_> = report.failures().collect();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 1);
    assert_eq!(failures[0].1.kind(), "panic");
    assert!(failures[0].1.detail().contains("poisoned point"));
    assert_eq!(report.outcomes[1].attempts, 2);
    assert_eq!(report.counters.panics_caught, 2);
    assert_eq!(metrics_of(&report, 0), golden[0]);
    assert_eq!(metrics_of(&report, 2), golden[2]);
}

/// A job that panics on its first N−1 attempts and then succeeds yields
/// metrics byte-identical to a first-try success — under every mesh
/// backend (retries must not perturb the deterministic RNG streams).
#[test]
fn retry_recovery_is_byte_identical_across_backends() {
    for protocol in MulticastProtocol::ALL {
        let s = scenario(7, 10, protocol);
        let golden = encode_metrics(&run(&s));
        let panics_left = Arc::new(AtomicU32::new(2));
        let hook_left = Arc::clone(&panics_left);
        let cfg = SweepConfig {
            supervisor: SupervisorConfig {
                max_attempts: 3,
                ..SupervisorConfig::default()
            },
            attempt_hook: Some(Arc::new(move |_| {
                if hook_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    panic!("flaky attempt");
                }
            })),
            ..SweepConfig::default()
        };
        let report = run_supervised(vec![s], &cfg).expect("no manifest involved");
        assert!(
            report.is_clean(),
            "{protocol:?}: flaky point should recover"
        );
        assert_eq!(report.outcomes[0].attempts, 3, "{protocol:?}");
        assert_eq!(report.counters.retries, 2, "{protocol:?}");
        assert_eq!(metrics_of(&report, 0), golden, "{protocol:?}");
    }
}

/// The pinned resume property: a manifest recording one completed point,
/// one mid-flight snapshot and one pending point resumes to metrics
/// byte-identical to uninterrupted runs, skipping the finished point.
#[test]
fn interrupted_sweep_resumes_byte_identical() {
    let scenarios = vec![
        scenario(11, 10, MulticastProtocol::Mrmm),
        scenario(12, 15, MulticastProtocol::Mrmm),
        scenario(13, 20, MulticastProtocol::Mrmm),
    ];
    let golden: Vec<RunMetrics> = scenarios.iter().map(run).collect();

    // Hand-craft the state a killed sweep would leave behind.
    let fingerprints: Vec<u64> = scenarios.iter().map(scenario_fingerprint).collect();
    let mut manifest = SweepManifest::new(fingerprints);
    manifest.states[0] = PointState::Completed(Box::new(golden[0].clone()));
    let mut mid = SimRun::new(&scenarios[1], Telemetry::off());
    mid.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    manifest.states[1] = PointState::InFlight(mid.capture());
    drop(mid);
    let path = temp_manifest("resume");
    manifest.store(&path).expect("manifest store");

    let cfg = SweepConfig {
        manifest_path: Some(path.clone()),
        ..SweepConfig::default()
    };
    let report = run_supervised(scenarios, &cfg);
    std::fs::remove_file(&path).ok();
    let report = report.expect("manifest should load");
    assert!(report.is_clean());
    assert_eq!(report.counters.points_skipped_on_resume, 1);
    for (i, golden) in golden.iter().enumerate() {
        assert_eq!(metrics_of(&report, i), encode_metrics(golden), "point {i}");
    }
}

/// Periodic in-flight checkpointing must not perturb the run: a sweep
/// that snapshots every 10 simulated seconds produces the same bytes as
/// a straight run. A sub-second interval, which can hold no event at
/// all, still ends.
#[test]
fn inflight_checkpointing_does_not_perturb_metrics() {
    for every in [SimDuration::from_secs(10), SimDuration::from_millis(500)] {
        let scenarios = vec![scenario(21, 10, MulticastProtocol::Mrmm)];
        let golden = encode_metrics(&run(&scenarios[0]));
        let path = temp_manifest("inflight");
        std::fs::remove_file(&path).ok();
        let cfg = SweepConfig {
            manifest_path: Some(path.clone()),
            inflight_interval: Some(every),
            ..SweepConfig::default()
        };
        let report = run_supervised(scenarios, &cfg);
        std::fs::remove_file(&path).ok();
        let report = report.expect("fresh manifest");
        assert!(report.counters.checkpoints_written > 0);
        assert_eq!(metrics_of(&report, 0), golden, "{every}");
    }
}

/// A hung point is classified as a deadline failure after the configured
/// number of attempts.
#[test]
fn deadline_classifies_hung_points() {
    let scenarios = vec![scenario(31, 10, MulticastProtocol::Mrmm)];
    let cfg = SweepConfig {
        supervisor: SupervisorConfig {
            max_attempts: 2,
            deadline: Some(Duration::from_millis(100)),
            ..SupervisorConfig::default()
        },
        attempt_hook: Some(Arc::new(|_| std::thread::sleep(Duration::from_secs(5)))),
        ..SweepConfig::default()
    };
    let report = run_supervised(scenarios, &cfg).expect("no manifest involved");
    assert_eq!(report.failed(), 1);
    let (_, failure) = report.failures().next().expect("one failure");
    assert_eq!(failure.kind(), "deadline");
    assert_eq!(report.counters.timeouts, 2);
}

/// Real metrics for the proptest cases, computed once.
fn tiny_metrics() -> &'static RunMetrics {
    static METRICS: OnceLock<RunMetrics> = OnceLock::new();
    METRICS.get_or_init(|| run(&scenario(99, 10, MulticastProtocol::Mrmm)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary manifests (mixed pending / in-flight / completed states)
    /// survive an encode → decode → encode cycle byte-exactly.
    #[test]
    fn manifest_round_trips(
        fingerprints in proptest::collection::vec(any::<u64>(), 1..6),
        tags in proptest::collection::vec(0u8..3, 1..6),
        payload in proptest::collection::vec(any::<u8>(), 32..128),
    ) {
        let n = fingerprints.len().min(tags.len());
        let mut manifest = SweepManifest::new(fingerprints[..n].to_vec());
        for (i, tag) in tags[..n].iter().enumerate() {
            manifest.states[i] = match tag {
                0 => PointState::Pending,
                1 => PointState::InFlight(payload.clone()),
                _ => PointState::Completed(Box::new(tiny_metrics().clone())),
            };
        }
        let bytes = manifest.encode();
        let decoded = SweepManifest::decode(&bytes).expect("round trip");
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Any bit flip in the CRC-guarded tail (section payload or checksum)
    /// is rejected with a typed error, never a panic or silent corruption.
    #[test]
    fn manifest_tail_bit_flips_are_rejected(
        fingerprints in proptest::collection::vec(any::<u64>(), 1..4),
        payload in proptest::collection::vec(any::<u8>(), 64..128),
        back in 1usize..48,
        bit in 0u8..8,
    ) {
        let mut manifest = SweepManifest::new(fingerprints);
        manifest.states[0] = PointState::InFlight(payload);
        let mut bytes = manifest.encode();
        let pos = bytes.len() - back;
        bytes[pos] ^= 1 << bit;
        prop_assert!(SweepManifest::decode(&bytes).is_err());
    }
}
