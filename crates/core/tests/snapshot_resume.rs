//! Resume equivalence and corruption safety for the snapshot subsystem.
//!
//! The tentpole property: interrupting a run with a snapshot and resuming
//! it produces **bit-identical** results — the same `RunMetrics` and the
//! same full-telemetry JSONL — as the uninterrupted run, for every mesh
//! backend and under fault injection. And the dual safety property:
//! corrupted snapshot bytes yield a typed [`SnapshotError`], never a
//! panic.

use std::sync::{Arc, OnceLock};

use cocoa_core::metrics::RunMetrics;
use cocoa_core::runner::{Calibration, SimRun};
use cocoa_core::scenario::Scenario;
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_sim::faults::FaultPlan;
use cocoa_sim::snapshot::{Snapshot, SnapshotError, SnapshotWriter, SNAPSHOT_SCHEMA_VERSION};
use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
use cocoa_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

const DURATION_S: u64 = 40;
const FAULT_PRESETS: [&str; 2] = ["sync-crash", "chaos"];

fn scenario(seed: u64, protocol: MulticastProtocol, preset: &str) -> Scenario {
    let duration = SimDuration::from_secs(DURATION_S);
    let num_robots = 6;
    let mut b = Scenario::builder();
    b.seed(seed)
        .duration(duration)
        .robots(num_robots)
        .equipped(3)
        .beacon_period(SimDuration::from_secs(10))
        .multicast(protocol)
        .faults(FaultPlan::preset(preset, duration, num_robots).expect("known preset"));
    b.build()
}

/// Runs `s` start to finish with full telemetry.
fn uninterrupted(s: &Scenario) -> (RunMetrics, String) {
    let (metrics, telemetry) = SimRun::new(s, Telemetry::new(TelemetryLevel::Full)).finish();
    (metrics, telemetry.to_jsonl(false))
}

/// Runs `s` to `at`, captures a snapshot, abandons that run, restores the
/// snapshot and runs the restored state to completion.
fn interrupted_at(s: &Scenario, at: SimTime) -> (RunMetrics, String) {
    let mut first = SimRun::new(s, Telemetry::new(TelemetryLevel::Full));
    first.run_until(at);
    let bytes = first.capture();
    drop(first);
    let resumed = SimRun::resume(&bytes).expect("own snapshot must restore");
    let (metrics, telemetry) = resumed.finish();
    (metrics, telemetry.to_jsonl(false))
}

#[test]
fn resume_is_bit_identical_across_backends_and_fault_presets() {
    let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2);
    for protocol in MulticastProtocol::ALL {
        for preset in FAULT_PRESETS {
            let s = scenario(42, protocol, preset);
            let (m_cold, j_cold) = uninterrupted(&s);
            let (m_res, j_res) = interrupted_at(&s, at);
            assert_eq!(
                m_cold,
                m_res,
                "{}/{preset}: RunMetrics diverged after resume",
                protocol.as_str()
            );
            assert_eq!(
                j_cold,
                j_res,
                "{}/{preset}: telemetry JSONL diverged after resume",
                protocol.as_str()
            );
        }
    }
}

#[test]
fn resume_is_bit_identical_for_every_estimator_backend() {
    // The estimator section is backend-tagged: each RF solver's state
    // (posterior cells / range set / EKF mean+covariance) must survive
    // capture and restore so the resumed run stays bit-identical, across
    // every mesh backend it might be combined with.
    use cocoa_localization::estimator::RfAlgorithm;
    let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2);
    for algorithm in RfAlgorithm::ALL {
        for protocol in MulticastProtocol::ALL {
            let mut s = scenario(42, protocol, "sync-crash");
            s.rf_algorithm = algorithm;
            s.validate().expect("estimator scenario must validate");
            let (m_cold, j_cold) = uninterrupted(&s);
            let (m_res, j_res) = interrupted_at(&s, at);
            assert_eq!(
                m_cold,
                m_res,
                "{algorithm}/{}: RunMetrics diverged after resume",
                protocol.as_str()
            );
            assert_eq!(
                j_cold,
                j_res,
                "{algorithm}/{}: telemetry JSONL diverged after resume",
                protocol.as_str()
            );
        }
    }
}

/// Robot 4, which runs an estimator (robots 0–2 are equipped), crashes in
/// the middle of the 20 s window, its posterior holding beacons, and
/// reboots at 24 s, between windows.
fn unequipped_crash_and_reboot() -> FaultPlan {
    use cocoa_sim::faults::Fault;
    let mut plan = FaultPlan::new();
    plan.schedule(SimTime::from_millis(21_500), Fault::Crash { robot: 4 })
        .schedule(SimTime::from_secs(24), Fault::Reboot { robot: 4 });
    plan
}

/// Every estimator resumes bit-identically from each point of a window:
/// its start, before the first beacon (20 s; robots wake 0.2 s early and
/// the first beacon flies at 20.7 s), its middle, after beacons (22 s),
/// and the gap after its close at 23.2 s (25 s). Each runs without faults
/// and with an unequipped robot crashing and rebooting around them.
#[test]
fn resume_is_bit_identical_from_every_point_of_a_window() {
    use cocoa_localization::estimator::RfAlgorithm;
    let instants = [20_000, 22_000, 25_000].map(SimTime::from_millis);
    for algorithm in RfAlgorithm::ALL {
        for (plan, faults) in [
            ("none", FaultPlan::new()),
            ("reboot", unequipped_crash_and_reboot()),
        ] {
            let mut s = scenario(42, MulticastProtocol::Odmrp, "none");
            s.rf_algorithm = algorithm;
            s.faults = faults;
            s.validate().expect("a valid scenario");
            let (m_cold, j_cold) = uninterrupted(&s);
            let reboots = if plan == "none" { 0 } else { 1 };
            assert_eq!(m_cold.robustness.reboots, reboots, "{algorithm}/{plan}");
            for at in instants {
                let (m_res, j_res) = interrupted_at(&s, at);
                assert_eq!(
                    m_cold, m_res,
                    "{algorithm}/{plan} at {at}: RunMetrics diverged"
                );
                assert!(
                    j_cold == j_res,
                    "{algorithm}/{plan} at {at}: telemetry JSONL diverged"
                );
            }
        }
    }
}

/// With the entropy watchdog armed, as by default, a window's close
/// records the posterior's entropy and resets its cells, so a capture
/// between windows stores no posterior, and neither capturing nor
/// resuming it computes an entropy; a capture mid-window stores them.
#[test]
fn a_capture_between_windows_makes_no_entropy_pass() {
    use cocoa_localization::grid::entropy_passes;
    let s = scenario(42, MulticastProtocol::Odmrp, "none");
    let mut run = SimRun::new(&s, Telemetry::off());
    run.run_until(SimTime::from_secs(25));
    let before = entropy_passes();
    let bytes = run.capture();
    let resumed = SimRun::resume(&bytes).expect("own snapshot must restore");
    assert_eq!(
        entropy_passes(),
        before,
        "capture and resume computed an entropy"
    );
    // One posterior of the default 2 m grid is 80,008 bytes.
    assert!(
        bytes.len() < 80_000,
        "a {}-byte capture holds a posterior",
        bytes.len()
    );
    let (cold, _) = SimRun::new(&s, Telemetry::off()).finish();
    assert_eq!(resumed.finish().0, cold);
    // The same run in the middle of that window, as the resume test above
    // captures it, stores posteriors.
    let mut mid = SimRun::new(&s, Telemetry::off());
    mid.run_until(SimTime::from_secs(22));
    assert!(mid.capture().len() > 80_000, "no posterior mid-window");
}

/// The wire bytes are pinned: CRC-32 and length of a capture for every
/// mesh × estimator pair at full telemetry, of one run's encoded
/// metrics, and of the manifest file of a sweep holding a point in each
/// state (the in-flight point's file holds its capture, byte for byte).
/// A codec refactor must not move a single byte.
#[test]
fn snapshot_bytes_are_pinned() {
    use cocoa_core::executor::manifest::{encode_metrics, point_path, PointState, SweepManifest};
    use cocoa_localization::estimator::RfAlgorithm;
    use cocoa_sim::snapshot::crc32;
    let pin = |bytes: &[u8]| format!("{:08x}/{}", crc32(bytes), bytes.len());
    let mut got = Vec::new();
    let mut captures = Vec::new();
    for protocol in MulticastProtocol::ALL {
        for algorithm in RfAlgorithm::ALL {
            let mut s = scenario(42, protocol, "chaos");
            s.rf_algorithm = algorithm;
            let mut run = SimRun::new(&s, Telemetry::new(TelemetryLevel::Full));
            run.run_until(SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2));
            let bytes = run.capture();
            got.push(format!("{}/{algorithm} {}", protocol.as_str(), pin(&bytes)));
            captures.push(bytes);
        }
    }
    let (metrics, _) = SimRun::new(
        &scenario(42, MulticastProtocol::Mrmm, "chaos"),
        Telemetry::off(),
    )
    .finish();
    got.push(format!("metrics {}", pin(&encode_metrics(&metrics))));
    let dir = std::env::temp_dir().join(format!("cocoa-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a temp dir");
    let path = dir.join("sweep.csnp");
    let inflight = captures.swap_remove(0);
    let manifest = SweepManifest {
        fingerprints: vec![11, 22, 33],
        states: vec![
            PointState::Pending,
            PointState::InFlight(inflight.clone()),
            PointState::Completed(Box::new(metrics)),
        ],
    };
    manifest.store(&path).expect("store the manifest");
    got.push(format!(
        "manifest {}",
        pin(&std::fs::read(&path).expect("the manifest file"))
    ));
    let point_file = std::fs::read(point_path(&path, 1, 22)).expect("the point file");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        point_file == inflight,
        "a point file holds the capture's bytes"
    );
    assert_eq!(
        got,
        [
            "flood/bayes e51f297b/23469",
            "flood/multilateration 2dfbff9a/23010",
            "flood/ekf b1575b16/22992",
            "odmrp/bayes 93ecb63e/23716",
            "odmrp/multilateration 17cad0ac/23149",
            "odmrp/ekf f6e2f084/23359",
            "mrmm/bayes a7d4e7c5/23715",
            "mrmm/multilateration 315113b4/23148",
            "mrmm/ekf f95cc344/23358",
            "metrics 63903f36/1862",
            "manifest c9e14542/1984",
        ]
    );
}

#[test]
fn previous_schema_snapshots_are_rejected_with_a_typed_error() {
    let s = scenario(42, MulticastProtocol::Mrmm, "none");
    let mut run = SimRun::new(&s, Telemetry::off());
    run.run_until(SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2));
    let mut bytes = run.capture();
    // The schema version sits right after the four magic bytes.
    let previous = SNAPSHOT_SCHEMA_VERSION - 1;
    bytes[4..8].copy_from_slice(&previous.to_le_bytes());
    assert_eq!(
        SimRun::resume(&bytes).err(),
        Some(SnapshotError::UnsupportedVersion { found: previous })
    );
}

#[test]
fn resume_restores_histogram_state_bit_identically() {
    // The deterministic histograms (per-robot error, entropy, RSSI,
    // queue depth, …) are part of the snapshot codec: a resumed run's
    // final histograms must equal the uninterrupted run's, bucket for
    // bucket and aggregate for aggregate. Wall-clock histograms
    // (`span.duration_us`) are measurement, not state — they restart
    // empty on resume and are excluded from the comparison.
    let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2);
    for protocol in MulticastProtocol::ALL {
        let s = scenario(42, protocol, "chaos");
        let (_, t_cold) = SimRun::new(&s, Telemetry::new(TelemetryLevel::Full)).finish();

        let mut first = SimRun::new(&s, Telemetry::new(TelemetryLevel::Full));
        first.run_until(at);
        let bytes = first.capture();
        drop(first);
        let resumed = SimRun::resume(&bytes).expect("own snapshot must restore");
        let (_, t_res) = resumed.finish();

        let cold: Vec<_> = t_cold.histograms().deterministic_sorted();
        let res: Vec<_> = t_res.histograms().deterministic_sorted();
        assert_eq!(
            cold,
            res,
            "{}: deterministic histograms diverged after resume",
            protocol.as_str()
        );
        assert!(
            cold.iter().any(|(_, h)| h.count() > 0),
            "the comparison must cover populated histograms"
        );
    }
}

#[test]
fn marked_resume_counts_and_announces_the_restore() {
    let s = scenario(42, MulticastProtocol::Flood, "sync-crash");
    let mut first = SimRun::new(&s, Telemetry::new(TelemetryLevel::Full));
    first.run_until(SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2));
    let bytes = first.capture();
    let (_, capturing) = first.finish();
    assert_eq!(capturing.counters().get("snapshot.captures"), Some(1));
    assert_eq!(
        capturing.counters().get("snapshot.bytes"),
        Some(bytes.len() as u64)
    );

    let resumed = SimRun::resume_marked(&bytes).expect("own snapshot must restore");
    let (_, telemetry) = resumed.finish();
    assert_eq!(telemetry.counters().get("snapshot.restores"), Some(1));
    let jsonl = telemetry.to_jsonl(false);
    assert!(
        jsonl.contains("\"kind\":\"snapshot_restored\""),
        "marked resume must announce itself in the timeline"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// snapshot → restore → run is bit-identical for random seeds,
    /// snapshot instants (to the millisecond, anywhere in the run: at a
    /// window start, mid-window or between windows), mesh backends and
    /// fault presets.
    #[test]
    fn snapshot_restore_run_is_bit_identical(
        seed in 1u64..10_000,
        backend in 0usize..3,
        preset in 0usize..2,
        at_ms in 0u64..DURATION_S * 1000,
    ) {
        let s = scenario(seed, MulticastProtocol::ALL[backend], FAULT_PRESETS[preset]);
        let at = SimTime::ZERO + SimDuration::from_millis(at_ms);
        let (m_cold, j_cold) = uninterrupted(&s);
        let (m_res, j_res) = interrupted_at(&s, at);
        prop_assert_eq!(m_cold, m_res);
        prop_assert_eq!(j_cold, j_res);
    }
}

/// A valid snapshot to corrupt, captured once for the whole test binary,
/// at the start of the 20 s window: no posterior holds a beacon yet.
fn pristine() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let s = scenario(7, MulticastProtocol::Odmrp, "chaos");
        let mut run = SimRun::new(&s, Telemetry::off());
        run.run_until(SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2));
        run.capture()
    })
}

#[test]
fn truncated_snapshots_yield_typed_errors() {
    let bytes = pristine();
    for cut in [0, 1, 4, 7, bytes.len() / 2, bytes.len() - 1] {
        let err = SimRun::resume(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("truncation to {cut} bytes must not restore"));
        // Typed and displayable, never a panic.
        assert!(!err.to_string().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A bit flip anywhere in the file never panics the decoder; flips
    /// inside section payloads (past the tiny header/meta region) are
    /// always caught by the per-section CRC or a structural check.
    #[test]
    fn bit_flips_are_rejected_not_panicked_on(
        offset_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = pristine().clone();
        let offset = (offset_seed as usize) % bytes.len();
        bytes[offset] ^= 1 << bit;
        let outcome = SimRun::resume(&bytes);
        // Flips inside the CRC-covered payload area must be detected.
        // (The header + metadata line occupy well under 1 KiB; only those
        // cosmetic bytes may corrupt silently.)
        if offset >= 1024 {
            prop_assert!(outcome.is_err(), "payload flip at {offset} went undetected");
        } else if let Err(e) = outcome {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Random truncation points never restore and never panic.
    #[test]
    fn random_truncations_are_rejected(cut_seed in any::<u64>()) {
        let bytes = pristine();
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(SimRun::resume(&bytes[..cut]).is_err());
    }
}

/// Section tags in container order.
const SECTIONS: [&str; 7] = [
    "scenario",
    "engine",
    "rngs",
    "medium",
    "robots",
    "world",
    "telemetry",
];

/// `pristine()` with `edit` applied to section `tag` and that section's
/// CRC rewritten, as a tool that edits a snapshot would: every CRC is
/// valid, only the content is inconsistent.
fn edited(tag: &str, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    edited_from(pristine(), tag, edit)
}

/// [`edited`] on the snapshot `bytes`.
fn edited_from(bytes: &[u8], tag: &str, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let snap = Snapshot::parse(bytes).expect("a valid snapshot parses");
    let mut edit = Some(edit);
    let mut w = SnapshotWriter::new(snap.meta().to_string());
    for name in SECTIONS {
        let section = snap.sections().iter().find(|s| s.tag == name);
        let mut payload = section.expect("every section present").payload.clone();
        if name == tag {
            (edit.take().expect("one edit"))(&mut payload);
        }
        w.push_section(name, payload);
    }
    w.finish()
}

/// Resuming `bytes` must fail with a consistency error mentioning `what`.
fn assert_inconsistent(bytes: &[u8], what: &str) {
    match SimRun::resume(bytes).err() {
        Some(SnapshotError::Malformed { context }) => {
            assert!(context.contains(what), "expected '{what}' in: {context}")
        }
        Some(other) => panic!("expected a consistency error about {what}, got: {other}"),
        None => panic!("an edited snapshot ({what}) resumed"),
    }
}

/// A capture of `pristine()`'s run in the middle of the 20 s window, after
/// its first beacons: posteriors hold evidence, so their cells are stored.
/// Taken once for the whole test binary.
fn mid_window() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let s = scenario(7, MulticastProtocol::Odmrp, "chaos");
        let mut run = SimRun::new(&s, Telemetry::off());
        run.run_until(SimTime::ZERO + SimDuration::from_secs(22));
        run.capture()
    })
}

#[test]
fn a_scenario_grid_that_does_not_fit_the_posterior_is_a_typed_error() {
    let bytes = edited_from(mid_window(), "scenario", |p| {
        // grid_resolution_m sits at byte 103 of the fingerprint-pinned
        // scenario layout.
        assert_eq!(p[103..111], 2.0f64.to_le_bytes());
        p[103..111].copy_from_slice(&8.0f64.to_le_bytes());
    });
    assert_inconsistent(&bytes, "posterior cell count");
}

#[test]
fn a_queued_event_naming_a_robot_outside_the_team_is_a_typed_error() {
    let mut robot = 0;
    let bytes = edited("engine", |p| {
        // Byte 57 is the first queued event's tag (a beacon `Transmit`),
        // byte 58 the low byte of its robot index: 128 + robot.
        assert_eq!(p[57], 5, "first queued event is a Transmit");
        p[58] ^= 0x80;
        robot = u64::from_le_bytes(p[58..66].try_into().unwrap());
    });
    assert!(robot >= 128);
    assert_inconsistent(&bytes, &format!("Transmit {{ robot: {robot},"));
}

#[test]
fn a_robot_instant_after_the_engine_clock_is_a_typed_error() {
    let bytes = edited("robots", |p| {
        // Robot 0 follows the robot count: alive, epoch, last fix window,
        // two flags, beacon offset, fix anchor, 96 bytes of motion and its
        // radio's power state, then the instant of that state's change.
        let mut at = 8 + 1 + 4;
        at += 1 + 8 * usize::from(p[at]);
        at += 2;
        at += 1 + 16 * usize::from(p[at]);
        at += 1 + 32 * usize::from(p[at]);
        let since = at + 96 + 1;
        let later = SimTime::ZERO + SimDuration::from_secs(DURATION_S);
        p[since..since + 8].copy_from_slice(&later.as_micros().to_le_bytes());
    });
    assert_inconsistent(&bytes, "radio state change");
}

/// `mid_window()` with the cells of the first robot posterior in the
/// robots section passed to `edit`. A posterior is laid out as its cell
/// count, 10,000 for the default 2 m grid, then each cell: the edit lands
/// on the first such count whose cells sum to 1.
fn posterior_edited(edit: impl FnOnce(&mut [f64])) -> Vec<u8> {
    const CELLS: usize = 10_000;
    let cells_of = |p: &[u8], at: usize| -> Vec<f64> {
        p[at..at + 8 * CELLS]
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect()
    };
    edited_from(mid_window(), "robots", |p| {
        let at = (0..p.len().saturating_sub(8 * CELLS + 8))
            .find(|&i| {
                u64::from_le_bytes(p[i..i + 8].try_into().unwrap()) == CELLS as u64
                    && (cells_of(p, i + 8).iter().sum::<f64>() - 1.0).abs() < 1e-9
            })
            .expect("a posterior in the robots section")
            + 8;
        let mut cells = cells_of(p, at);
        edit(&mut cells);
        for (k, c) in cells.iter().enumerate() {
            p[at + 8 * k..at + 8 * k + 8].copy_from_slice(&c.to_le_bytes());
        }
    })
}

#[test]
fn an_unedited_posterior_resumes() {
    SimRun::resume(&posterior_edited(|_| {})).expect("the same bytes resume");
}

#[test]
fn a_nan_posterior_cell_is_a_typed_error() {
    let bytes = posterior_edited(|c| c[17] = f64::NAN);
    assert_inconsistent(&bytes, "posterior is not a distribution");
}

#[test]
fn an_infinite_posterior_cell_is_a_typed_error() {
    let bytes = posterior_edited(|c| c[17] = f64::INFINITY);
    assert_inconsistent(&bytes, "posterior is not a distribution");
}

#[test]
fn a_negative_posterior_cell_is_a_typed_error() {
    // Moves cell 17's mass, and a little more, to cell 18: the cells
    // still sum to 1, but one is negative.
    let bytes = posterior_edited(|c| {
        c[18] += c[17] + 1e-9;
        c[17] = -1e-9;
    });
    assert_inconsistent(&bytes, "posterior is not a distribution");
}

#[test]
fn a_posterior_not_summing_to_one_is_a_typed_error() {
    let bytes = posterior_edited(|c| c.iter_mut().for_each(|p| *p *= 1.5));
    assert_inconsistent(&bytes, "posterior is not a distribution");
}

/// `frames_on_the_air()`, captured between windows, with `edit` applied to
/// its robots section at the first recorded entropy: the offset of its
/// presence byte. In an estimator's layout that byte follows the open
/// window flag (41 bytes before it), the window's applied beacons and 36
/// bytes of window statistics; the entropy's `f64` comes after it.
fn recorded_entropy_edited(edit: impl FnOnce(&mut Vec<u8>, usize)) -> Vec<u8> {
    edited_from(frames_on_the_air(), "robots", |p| {
        let u32_at = |at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap());
        let f64_at = |at: usize| f64::from_le_bytes(p[at..at + 8].try_into().unwrap());
        let max_entropy = 10_000f64.ln();
        let at = (41..p.len() - 9)
            .find(|&i| {
                p[i] == 1
                    && p[i - 41] == 0
                    && (3..=9).contains(&u32_at(i - 40))
                    && (1..=2).contains(&u32_at(i - 36))
                    && (0.0..=max_entropy).contains(&f64_at(i + 1))
            })
            .expect("a recorded entropy in the robots section");
        edit(p, at)
    })
}

#[test]
fn an_unedited_recorded_entropy_resumes() {
    SimRun::resume(&recorded_entropy_edited(|_, _| {})).expect("the same bytes resume");
}

#[test]
fn a_recorded_entropy_outside_its_range_is_a_typed_error() {
    for bad in [-1.0, 10.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let bytes = recorded_entropy_edited(|p, at| {
            p[at + 1..at + 9].copy_from_slice(&f64::to_le_bytes(bad));
        });
        assert_inconsistent(&bytes, &format!("recorded entropy {bad} outside [0, "));
    }
}

#[test]
fn a_recorded_entropy_in_an_open_window_is_a_typed_error() {
    // Opens the window with no beacon applied, so the layout still stores
    // no cells after the entropy.
    let bytes = recorded_entropy_edited(|p, at| {
        p[at - 41] = 1;
        p[at - 40..at - 36].fill(0);
    });
    assert_inconsistent(&bytes, "while a window is open");
}

/// A capture while the frames of the 10 s window are still held on the
/// medium (the next garbage collection is at 20 s), taken once for the
/// whole test binary. At 15 s that window has closed and the next one
/// has not opened.
fn frames_on_the_air() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let s = scenario(7, MulticastProtocol::Odmrp, "chaos");
        let mut run = SimRun::new(&s, Telemetry::off());
        run.run_until(SimTime::ZERO + SimDuration::from_secs(15));
        run.capture()
    })
}

/// Byte offsets in a medium section: its next id, each frame's id and
/// the RSSI records each frame holds (a `u32` receiver, an `f64` dBm).
struct MediumLayout {
    next_id: usize,
    frame_ids: Vec<usize>,
    records: Vec<Vec<usize>>,
}

impl MediumLayout {
    /// The records of the first frame heard by at least two receivers.
    fn shared_frame(&self) -> &[usize] {
        self.records.iter().find(|r| r.len() >= 2).expect("checked")
    }
}

const RECORD_BYTES: usize = 12;

fn medium_layout(p: &[u8]) -> MediumLayout {
    let u64_at = |at: usize| u64::from_le_bytes(p[at..at + 8].try_into().unwrap()) as usize;
    // Next id, transmissions, collisions and half-duplex losses, then the
    // frame count.
    let mut at = 32;
    let frames = u64_at(at);
    at += 8;
    let mut frame_ids = Vec::new();
    let mut records = Vec::new();
    for _ in 0..frames {
        frame_ids.push(at);
        // Id, source, source position, start and end, the packet as a
        // length-prefixed blob, then the record count and the records.
        at += 8 + 4 + 16 + 8 + 8;
        at += 8 + u64_at(at);
        let n = u64_at(at);
        at += 8;
        records.push((0..n).map(|i| at + i * RECORD_BYTES).collect());
        at += n * RECORD_BYTES;
    }
    assert_eq!(at, p.len(), "medium layout");
    MediumLayout {
        next_id: 0,
        frame_ids,
        records,
    }
}

/// `frames_on_the_air()` with `edit` applied to its medium section, which
/// holds at least two frames, one of them heard by at least two robots.
fn medium_edited(edit: impl FnOnce(&mut Vec<u8>, &MediumLayout)) -> Vec<u8> {
    edited_from(frames_on_the_air(), "medium", |p| {
        let layout = medium_layout(p);
        assert!(layout.frame_ids.len() >= 2 && layout.records.iter().any(|r| r.len() >= 2));
        edit(p, &layout)
    })
}

#[test]
fn medium_frame_ids_out_of_order_are_a_typed_error() {
    let bytes = medium_edited(|p, m| {
        let first = m.frame_ids[0];
        p.copy_within(first..first + 8, m.frame_ids[1]);
    });
    assert_inconsistent(&bytes, "frame ids are not strictly increasing");
}

#[test]
fn a_medium_frame_id_not_below_the_next_id_is_a_typed_error() {
    let bytes = medium_edited(|p, m| {
        let last = *m.frame_ids.last().unwrap();
        p.copy_within(last..last + 8, m.next_id);
    });
    assert_inconsistent(&bytes, "is not below the next id");
}

#[test]
fn unsorted_medium_rssi_records_are_a_typed_error() {
    let bytes = medium_edited(|p, m| {
        let (a, b) = (m.shared_frame()[0], m.shared_frame()[1]);
        let first: Vec<u8> = p[a..a + RECORD_BYTES].to_vec();
        p.copy_within(b..b + RECORD_BYTES, a);
        p[b..b + RECORD_BYTES].copy_from_slice(&first);
    });
    assert_inconsistent(&bytes, "RSSI records out of order");
}

#[test]
fn duplicated_medium_rssi_records_are_a_typed_error() {
    let bytes = medium_edited(|p, m| {
        let records = m.shared_frame();
        p.copy_within(records[0]..records[0] + RECORD_BYTES, records[1]);
    });
    assert_inconsistent(&bytes, "RSSI records duplicated");
}

#[test]
fn a_medium_frame_receiver_outside_the_team_is_a_typed_error() {
    let team = scenario(7, MulticastProtocol::Odmrp, "chaos").num_robots as u32;
    let bytes = medium_edited(|p, m| {
        // The frame's last receiver becomes the first index past the
        // team, which keeps its receivers in order.
        let last = *m.shared_frame().last().unwrap();
        p[last..last + 4].copy_from_slice(&team.to_le_bytes());
    });
    assert_inconsistent(&bytes, "outside the 6-robot team");
}

#[test]
fn a_channel_with_an_unbounded_radio_range_fails_validation() {
    use cocoa_net::channel::ChannelParams;
    let mut s = scenario(7, MulticastProtocol::Odmrp, "chaos");
    // Bit 7 of scenario byte 117: tx_power_dbm 15 dBm becomes 3840 dBm,
    // a radio range of ~10^129 m that calibration would sweep forever.
    s.channel.tx_power_dbm = f64::from_bits(s.channel.tx_power_dbm.to_bits() ^ (1 << 55));
    let err = s.validate().expect_err("unbounded range must be rejected");
    assert!(err.contains("radio range"), "{err}");
    for bad in [f64::NAN, f64::INFINITY] {
        s.channel = ChannelParams {
            path_loss_1m_db: bad,
            ..ChannelParams::default()
        };
        assert!(s.validate().is_err(), "non-finite channel must be rejected");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One flipped bit with the section CRC rewritten never panics the
    /// decoder, and a snapshot that still resumes runs to the end without
    /// panicking — except after a scenario edit, which may legitimately
    /// ask for a different (valid) run.
    #[test]
    fn re_crc_bit_flips_never_panic(
        section in 0usize..SECTIONS.len(),
        bit_seed in any::<u64>(),
    ) {
        let tag = SECTIONS[section];
        let bytes = edited(tag, |p| {
            let bit = (bit_seed % (p.len() as u64 * 8)) as usize;
            p[bit / 8] ^= 1 << (bit % 8);
        });
        if let Ok(run) = SimRun::resume(&bytes) {
            if tag != "scenario" {
                let _ = run.finish();
            }
        }
    }
}

/// What a caught panic said.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// A crafted-snapshot sweep. Two small captures (6 robots, a 25 m grid,
/// ODMRP, the `chaos` preset), one at 15 s, between windows, and one at
/// 22 s, mid-window with posteriors stored, each get 8 bytes at one
/// offset of one non-scenario section overwritten, with `0x00` or with
/// `0xFF`, and that section's CRC rewritten as [`edited_from`] does.
/// Resuming such a file and running it to the end must never panic.
///
/// Every offset of every section of both captures is overwritten with
/// both fills, about 30,000 edits. All resumes share one calibration, but
/// the sweep still takes 15–25 s on a 2-vCPU host; CI runs it with
/// `--ignored`, in release and in the dev profile.
#[test]
#[ignore = "takes about 20 s"]
fn crafted_overwrites_never_panic() {
    let mut s = scenario(7, MulticastProtocol::Odmrp, "chaos");
    s.grid_resolution_m = 25.0;
    s.validate().expect("a 25 m grid is valid");
    // No edit touches the scenario section, so one calibration fits all.
    let calibration = Arc::new(Calibration::new(&s));
    let mut edits = 0;
    let mut panics = Vec::new();
    for at_s in [15, 22] {
        let mut run = SimRun::new(&s, Telemetry::off());
        run.run_until(SimTime::from_secs(at_s));
        let capture = run.capture();
        let snap = Snapshot::parse(&capture).expect("a valid snapshot parses");
        for tag in &SECTIONS[1..] {
            let section = snap.sections().iter().find(|s| s.tag == *tag);
            let len = section.expect("every section present").payload.len();
            for fill in [0x00, 0xFF] {
                for at in 0..len {
                    let bytes = edited_from(&capture, tag, |p| p[at..len.min(at + 8)].fill(fill));
                    edits += 1;
                    let outcome = std::panic::catch_unwind(|| {
                        let calibration = Arc::clone(&calibration);
                        if let Ok(run) = SimRun::resume_with_calibration(&bytes, calibration) {
                            let _ = run.finish();
                        }
                    });
                    if let Err(payload) = outcome {
                        panics.push(format!(
                            "{at_s} s {tag}+{at} {fill:#04x}: {}",
                            panic_message(payload)
                        ));
                    }
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {edits} overwrites panicked: {:?}",
        panics.len(),
        &panics[..panics.len().min(8)]
    );
}
