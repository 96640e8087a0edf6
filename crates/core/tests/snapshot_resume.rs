//! Resume equivalence and corruption safety for the snapshot subsystem.
//!
//! The tentpole property: interrupting a run with a snapshot and resuming
//! it produces **bit-identical** results — the same `RunMetrics` and the
//! same full-telemetry JSONL — as the uninterrupted run, for every mesh
//! backend and under fault injection. And the dual safety property:
//! corrupted snapshot bytes yield a typed [`SnapshotError`], never a
//! panic.

use std::sync::OnceLock;

use cocoa_core::metrics::RunMetrics;
use cocoa_core::runner::SimRun;
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

#[test]
fn resume_is_bit_identical_for_every_grid_kernel_variant() {
    // The one grid-update knob: a fused estimator also carries its
    // recorded-but-unflushed beacons across the snapshot.
    let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2);
    for fused in [false, true] {
        let mut s = scenario(42, MulticastProtocol::Mrmm, "sync-crash");
        s.grid_fused = fused;
        s.validate().expect("variant scenario must validate");
        let (m_cold, j_cold) = uninterrupted(&s);
        let (m_res, j_res) = interrupted_at(&s, at);
        assert_eq!(
            m_cold, m_res,
            "fused={fused}: RunMetrics diverged after resume"
        );
        assert_eq!(
            j_cold, j_res,
            "fused={fused}: telemetry JSONL diverged after resume"
        );
    }
}

/// The wire bytes are pinned: CRC-32 and length of a capture for every
/// mesh × estimator pair at full telemetry, of one run's encoded
/// metrics, and of a manifest holding a point in each state. A codec
/// refactor must not move a single byte.
#[test]
fn snapshot_bytes_are_pinned() {
    use cocoa_core::executor::manifest::{encode_metrics, PointState, SweepManifest};
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
    let manifest = SweepManifest {
        fingerprints: vec![11, 22, 33],
        states: vec![
            PointState::Pending,
            PointState::InFlight(captures.swap_remove(0)),
            PointState::Completed(Box::new(metrics)),
        ],
    };
    got.push(format!("manifest {}", pin(&manifest.encode())));
    assert_eq!(
        got,
        [
            "flood/bayes c2c56622/265336",
            "flood/multilateration 35f950a6/24714",
            "flood/ekf 0798843c/24729",
            "odmrp/bayes c11e0ebc/265705",
            "odmrp/multilateration b602ef51/24975",
            "odmrp/ekf 942313f8/25219",
            "mrmm/bayes 23e5ab15/265704",
            "mrmm/multilateration a98757c5/24974",
            "mrmm/ekf f7eff5c7/25218",
            "metrics 63903f36/1862",
            "manifest 050ddec2/267328",
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
    /// snapshot instants, mesh backends and fault presets.
    #[test]
    fn snapshot_restore_run_is_bit_identical(
        seed in 1u64..10_000,
        backend in 0usize..3,
        preset in 0usize..2,
        quarter in 1u64..4,
    ) {
        let s = scenario(seed, MulticastProtocol::ALL[backend], FAULT_PRESETS[preset]);
        let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S * quarter / 4);
        let (m_cold, j_cold) = uninterrupted(&s);
        let (m_res, j_res) = interrupted_at(&s, at);
        prop_assert_eq!(m_cold, m_res);
        prop_assert_eq!(j_cold, j_res);
    }
}

/// A valid snapshot to corrupt, captured once for the whole test binary.
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
    let snap = Snapshot::parse(pristine()).expect("pristine parses");
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

/// Offset of the first occurrence of `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("pattern present")
}

fn le_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[test]
fn a_scenario_grid_that_does_not_fit_the_posterior_is_a_typed_error() {
    let bytes = edited("scenario", |p| {
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
        // Byte 65 is the first queued event's tag (a beacon `Transmit`),
        // byte 66 the low byte of its robot index: 128 + robot.
        assert_eq!(p[65], 5, "first queued event is a Transmit");
        p[66] ^= 0x80;
        robot = u64::from_le_bytes(p[66..74].try_into().unwrap());
    });
    assert!(robot >= 128);
    assert_inconsistent(&bytes, &format!("Transmit {{ robot: {robot},"));
}

#[test]
fn an_engine_horizon_past_the_scenario_end_is_a_typed_error() {
    // The horizon is bytes 8..16; a high bit would run for ~2^62 us.
    let bytes = edited("engine", |p| p[15] ^= 0x40);
    assert_inconsistent(&bytes, "engine state inconsistent")
}

#[test]
fn a_robot_copy_of_a_scenario_setting_that_differs_is_a_typed_error() {
    let area = scenario(7, MulticastProtocol::Odmrp, "chaos").area;
    let bytes = edited("robots", |p| {
        // Robot 0's waypoint area: flip the sign of x_max.
        let at = find(
            p,
            &le_bytes(&[area.x_min, area.x_max, area.y_min, area.y_max]),
        );
        p[at + 15] ^= 0x80;
    });
    assert_inconsistent(&bytes, "waypoint area");
}

#[test]
fn a_robot_instant_after_the_engine_clock_is_a_typed_error() {
    use cocoa_net::energy::EnergyParams;
    let e = EnergyParams::default();
    let bytes = edited("robots", |p| {
        // Robot 0's radio: energy params, bitrate, power state, then the
        // instant of its last state change.
        let params = [
            e.idle_mw,
            e.sleep_mw,
            e.tx_uj_per_byte,
            e.tx_uj_fixed,
            e.rx_uj_per_byte,
            e.rx_uj_fixed,
            e.wake_uj,
        ];
        let since = find(p, &le_bytes(&params)) + 56 + 8 + 1;
        let later = SimTime::ZERO + SimDuration::from_secs(DURATION_S);
        p[since..since + 8].copy_from_slice(&later.as_micros().to_le_bytes());
    });
    assert_inconsistent(&bytes, "after the engine clock");
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
