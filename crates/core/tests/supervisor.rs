//! End-to-end properties of the supervision layer.
//!
//! The pinned tentpole property: a sweep that is interrupted (completed
//! points recorded, one point mid-flight, one never started) and then
//! auto-resumed from its manifest produces `RunMetrics` **byte-identical**
//! — through the metrics codec — to an uninterrupted sweep. Alongside it:
//! panic isolation (one poisoned point cannot sink the sweep), retry
//! determinism across all mesh backends, deadline classification, the
//! file layout next to the manifest (one point file per point in flight,
//! none once a point completes, another sweep's never resumed, a corrupt
//! one costing only its point), and manifest round-trip/corruption
//! properties through `store`/`load`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cocoa_core::executor::manifest::{
    encode_metrics, point_path, ManifestError, PointState, SweepManifest,
};
use cocoa_core::executor::supervisor::SupervisorConfig;
use cocoa_core::executor::sweep::{run_supervised, SweepConfig};
use cocoa_core::metrics::RunMetrics;
use cocoa_core::runner::{run, SimRun};
use cocoa_core::scenario::Scenario;
use cocoa_core::world::checkpoint::scenario_fingerprint;
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_sim::snapshot::Snapshot;
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

/// A manifest path in a fresh, empty temp directory named for `tag`.
fn temp_manifest(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cocoa-supervisor-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create a temp dir");
    dir.join("sweep.csnp")
}

/// Removes the temp directory [`temp_manifest`] made.
fn remove_temp(path: &Path) {
    std::fs::remove_dir_all(path.parent().expect("a temp dir")).ok();
}

/// The file names next to the manifest at `path`, sorted.
fn files_next_to(path: &Path) -> Vec<String> {
    let dir = path.parent().expect("a temp dir");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list the temp dir")
        .map(|e| {
            e.expect("an entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// `scenario` run to `at_s` simulated seconds and captured.
fn capture_at(scenario: &Scenario, at_s: u64) -> Vec<u8> {
    let mut run = SimRun::new(scenario, Telemetry::off());
    run.run_until(SimTime::ZERO + SimDuration::from_secs(at_s));
    run.capture()
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
    manifest.states[1] = PointState::InFlight(capture_at(&scenarios[1], 30));
    let path = temp_manifest("resume");
    manifest.store(&path).expect("manifest store");

    let cfg = SweepConfig {
        manifest_path: Some(path.clone()),
        ..SweepConfig::default()
    };
    let report = run_supervised(scenarios, &cfg);
    let left = files_next_to(&path);
    remove_temp(&path);
    let report = report.expect("manifest should load");
    assert!(report.is_clean());
    assert_eq!(report.counters.points_skipped_on_resume, 1);
    assert_eq!(report.counters.points_resumed_in_flight, 1);
    for (i, golden) in golden.iter().enumerate() {
        assert_eq!(metrics_of(&report, i), encode_metrics(golden), "point {i}");
    }
    assert_eq!(left, ["sweep.csnp"], "no point file outlives its point");
}

/// The manifest's fingerprints guard its list of points, not the
/// snapshots inside it. An in-flight snapshot holding another point's
/// scenario is unusable: the point restarts cold instead of returning
/// the other point's metrics as its own.
#[test]
fn foreign_inflight_snapshot_restarts_cold() {
    let scenarios = vec![
        scenario(11, 10, MulticastProtocol::Mrmm),
        scenario(12, 15, MulticastProtocol::Mrmm),
    ];
    let golden: Vec<RunMetrics> = scenarios.iter().map(run).collect();

    let fingerprints: Vec<u64> = scenarios.iter().map(scenario_fingerprint).collect();
    let mut manifest = SweepManifest::new(fingerprints);
    manifest.states[1] = PointState::InFlight(capture_at(&scenarios[0], 30));
    let path = temp_manifest("foreign");
    manifest.store(&path).expect("manifest store");

    let cfg = SweepConfig {
        manifest_path: Some(path.clone()),
        ..SweepConfig::default()
    };
    let report = run_supervised(scenarios, &cfg);
    remove_temp(&path);
    let report = report.expect("manifest should load");
    assert!(report.is_clean());
    assert_eq!(report.counters.snapshots_corrupt, 1);
    assert_eq!(report.counters.points_resumed_in_flight, 0);
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
        let cfg = SweepConfig {
            manifest_path: Some(path.clone()),
            inflight_interval: Some(every),
            ..SweepConfig::default()
        };
        let report = run_supervised(scenarios, &cfg);
        let left = files_next_to(&path);
        remove_temp(&path);
        let report = report.expect("fresh manifest");
        assert!(report.counters.checkpoints_written > 0);
        assert_eq!(metrics_of(&report, 0), golden, "{every}");
        assert_eq!(left, ["sweep.csnp"], "{every}: no point file remains");
    }
}

/// Fingerprints of `scenarios`, in order.
fn fingerprints_of(scenarios: &[Scenario]) -> Vec<u64> {
    scenarios.iter().map(scenario_fingerprint).collect()
}

/// A corrupt or truncated point file costs only its own point a cold
/// restart: the manifest still loads, the other point resumes, and
/// every point's metrics are byte-identical to a cold run's.
#[test]
fn corrupt_point_file_restarts_only_its_point() {
    let scenarios = vec![
        scenario(41, 10, MulticastProtocol::Mrmm),
        scenario(42, 15, MulticastProtocol::Mrmm),
    ];
    let golden: Vec<Vec<u8>> = scenarios.iter().map(|s| encode_metrics(&run(s))).collect();
    let fingerprints = fingerprints_of(&scenarios);
    for damage in ["bit flip", "truncation"] {
        let path = temp_manifest("corrupt-point");
        let mut manifest = SweepManifest::new(fingerprints.clone());
        for (state, s) in manifest.states.iter_mut().zip(&scenarios) {
            *state = PointState::InFlight(capture_at(s, 30));
        }
        manifest.store(&path).expect("manifest store");
        let file = point_path(&path, 0, fingerprints[0]);
        let mut bytes = std::fs::read(&file).expect("point file");
        let mid = bytes.len() / 2;
        match damage {
            "bit flip" => bytes[mid] ^= 0x10,
            _ => bytes.truncate(mid),
        }
        std::fs::write(&file, bytes).expect("damage the point file");

        let cfg = SweepConfig {
            manifest_path: Some(path.clone()),
            ..SweepConfig::default()
        };
        let report = run_supervised(scenarios.clone(), &cfg);
        remove_temp(&path);
        let report = report.expect("a corrupt point file is not a corrupt manifest");
        assert!(report.is_clean(), "{damage}");
        assert_eq!(report.counters.snapshots_corrupt, 1, "{damage}");
        assert_eq!(report.counters.points_resumed_in_flight, 1, "{damage}");
        for (i, golden) in golden.iter().enumerate() {
            assert_eq!(&metrics_of(&report, i), golden, "{damage}: point {i}");
        }
    }
}

/// A point file left next to a completed point (a crash between the
/// completion store and the file's removal) loses to the completed
/// state: the point keeps its stored metrics, and the file is gone once
/// the sweep has run.
#[test]
fn stale_point_file_next_to_a_completed_point_is_ignored() {
    let scenarios = vec![
        scenario(51, 10, MulticastProtocol::Mrmm),
        scenario(52, 15, MulticastProtocol::Mrmm),
    ];
    let golden: Vec<RunMetrics> = scenarios.iter().map(run).collect();
    let fingerprints = fingerprints_of(&scenarios);
    let mut manifest = SweepManifest::new(fingerprints.clone());
    manifest.states[0] = PointState::Completed(Box::new(golden[0].clone()));
    let path = temp_manifest("stale");
    manifest.store(&path).expect("manifest store");
    let stale = capture_at(&scenarios[0], 30);
    std::fs::write(point_path(&path, 0, fingerprints[0]), stale).expect("stale file");

    let cfg = SweepConfig {
        manifest_path: Some(path.clone()),
        ..SweepConfig::default()
    };
    let report = run_supervised(scenarios, &cfg);
    let left = files_next_to(&path);
    remove_temp(&path);
    let report = report.expect("manifest should load");
    assert!(report.is_clean());
    assert_eq!(report.counters.points_skipped_on_resume, 1);
    assert_eq!(report.counters.points_resumed_in_flight, 0);
    for (i, golden) in golden.iter().enumerate() {
        assert_eq!(metrics_of(&report, i), encode_metrics(golden), "point {i}");
    }
    assert_eq!(left, ["sweep.csnp"], "no point file remains");
}

/// Point files another sweep left at the same manifest path are never
/// resumed, not even one whose point has this sweep's scenario at the
/// same index: the sweep starts fresh and removes them.
#[test]
fn another_sweeps_point_files_are_removed_not_resumed() {
    let ours = vec![
        scenario(61, 10, MulticastProtocol::Mrmm),
        scenario(62, 15, MulticastProtocol::Mrmm),
    ];
    let theirs = vec![ours[0].clone(), scenario(63, 20, MulticastProtocol::Mrmm)];
    let golden: Vec<RunMetrics> = ours.iter().map(run).collect();
    let mut manifest = SweepManifest::new(fingerprints_of(&theirs));
    for (state, s) in manifest.states.iter_mut().zip(&theirs) {
        *state = PointState::InFlight(capture_at(s, 30));
    }
    let path = temp_manifest("other-sweep");
    manifest.store(&path).expect("manifest store");
    assert_eq!(files_next_to(&path).len(), 3);

    let cfg = SweepConfig {
        manifest_path: Some(path.clone()),
        ..SweepConfig::default()
    };
    let report = run_supervised(ours, &cfg);
    let left = files_next_to(&path);
    remove_temp(&path);
    let report = report.expect("another sweep's manifest is not an error");
    assert!(report.is_clean());
    assert_eq!(report.counters.points_resumed_in_flight, 0);
    assert_eq!(report.counters.snapshots_corrupt, 0);
    for (i, golden) in golden.iter().enumerate() {
        assert_eq!(metrics_of(&report, i), encode_metrics(golden), "point {i}");
    }
    assert_eq!(left, ["sweep.csnp"]);
}

/// Points that share a seed share one calibration, the resumed point
/// too, and their metrics stay byte-identical to cold runs.
#[test]
fn single_seed_sweep_matches_cold_runs() {
    let scenarios: Vec<Scenario> = [10, 15, 20]
        .map(|t| scenario(71, t, MulticastProtocol::Mrmm))
        .into();
    let golden: Vec<RunMetrics> = scenarios.iter().map(run).collect();
    let mut manifest = SweepManifest::new(fingerprints_of(&scenarios));
    manifest.states[1] = PointState::InFlight(capture_at(&scenarios[1], 30));
    let path = temp_manifest("single-seed");
    manifest.store(&path).expect("manifest store");

    let cfg = SweepConfig {
        manifest_path: Some(path.clone()),
        inflight_interval: Some(SimDuration::from_secs(10)),
        ..SweepConfig::default()
    };
    let report = run_supervised(scenarios, &cfg);
    remove_temp(&path);
    let report = report.expect("manifest should load");
    assert!(report.is_clean());
    assert_eq!(report.counters.points_resumed_in_flight, 1);
    for (i, golden) in golden.iter().enumerate() {
        assert_eq!(metrics_of(&report, i), encode_metrics(golden), "point {i}");
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
    /// survive a store → load → store cycle exactly: the same states,
    /// and the same manifest file byte for byte.
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
        let path = temp_manifest("round-trip");
        manifest.store(&path).expect("store");
        let bytes = std::fs::read(&path).expect("the manifest file");
        let loaded = SweepManifest::load(&path).expect("load").expect("present");
        loaded.store(&path).expect("store again");
        let again = std::fs::read(&path).expect("the manifest file");
        remove_temp(&path);
        prop_assert_eq!(&loaded, &manifest);
        prop_assert_eq!(again, bytes);
    }

    /// Any bit flip in the manifest file's CRC-guarded tail (every byte
    /// of the `sweep` section's payload and its checksum) makes `load`
    /// fail with [`ManifestError::Corrupt`], never a panic or silent
    /// corruption. The meta line before it has no CRC.
    #[test]
    fn manifest_tail_bit_flips_are_rejected(
        fingerprints in proptest::collection::vec(any::<u64>(), 1..4),
        payload in proptest::collection::vec(any::<u8>(), 64..128),
        bit in 0u8..8,
    ) {
        let mut manifest = SweepManifest::new(fingerprints);
        manifest.states[0] = PointState::InFlight(payload);
        let path = temp_manifest("bit-flips");
        manifest.store(&path).expect("store");
        let bytes = std::fs::read(&path).expect("the manifest file");
        let snap = Snapshot::parse(&bytes).expect("own bytes parse");
        prop_assert_eq!(snap.sections().len(), 1);
        let guarded = snap.sections()[0].payload.len() + 4;
        for pos in bytes.len() - guarded..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            std::fs::write(&path, flipped).expect("write the flipped file");
            let loaded = SweepManifest::load(&path);
            prop_assert!(
                matches!(loaded, Err(ManifestError::Corrupt(_))),
                "flip at {}: {:?}",
                pos,
                loaded.map(|m| m.map(|m| m.fingerprints))
            );
        }
        remove_temp(&path);
    }
}
