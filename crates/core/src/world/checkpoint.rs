//! Deterministic run snapshots: capture a run at any event boundary,
//! restore it bit-identically, or fork it under a patched scenario.
//!
//! The serialized form is the dependency-free sectioned container of
//! [`cocoa_sim::snapshot`]: a JSON metadata header (human-greppable) plus
//! CRC-guarded binary sections — `"scenario"`, `"engine"`, `"rngs"`,
//! `"medium"`, `"robots"`, `"world"` and `"telemetry"` — that together
//! hold *everything* the event loop reads: the pending event queue, every
//! named RNG stream's position, per-robot pose/estimator/radio/clock/
//! health/mesh state, in-flight transmissions, fault overlays and the
//! telemetry bus itself. Restoring a snapshot and running to the horizon
//! therefore produces metrics and a deterministic trace that are
//! bit-identical to the uninterrupted run — the property the resume tests
//! pin down.
//!
//! Three consumers build on this module:
//!
//! - `cocoa-run --snapshot-at/--resume`: operational save/restore;
//! - [`SimRun::warm_fork`]: sweep acceleration — capture the shared
//!   time-zero state (calibration done, team placed) once per seed, then
//!   fork it under each sweep point's patched scenario;
//! - `cocoa-trace bisect` + [`cocoa_sim::snapshot::Snapshot::diff`]:
//!   divergence localization between two runs.

use bytes::Bytes;

use cocoa_localization::backend::BackendCheckpoint;
use cocoa_localization::bayes::GridStats;
use cocoa_localization::ekf::EkfSnapshot;
use cocoa_localization::estimator::{
    EstimatorCheckpoint, EstimatorMode, RfAlgorithm, WindowStats, WindowedRfEstimator,
};
use cocoa_localization::grid::GridConfig;
use cocoa_localization::multilateration::RangeObservation;
use cocoa_mobility::motion::RobotMotion;
use cocoa_mobility::odometry::{Odometer, OdometerCheckpoint, OdometryConfig};
use cocoa_mobility::pose::Pose;
use cocoa_mobility::waypoint::{WaypointCheckpoint, WaypointConfig, WaypointModel};
use cocoa_multicast::odmrp::{MeshMode, OdmrpConfig};
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_net::calibration::{calibrate, CalibrationConfig, PdfTable, RadialConstraintTable};
use cocoa_net::channel::{ChannelParams, PathLossModel, RfChannel};
use cocoa_net::energy::{EnergyLedger, EnergyParams, PowerState};
use cocoa_net::geometry::{Area, Point};
use cocoa_net::mac::{ActiveTxState, Medium, MediumState, TxId};
use cocoa_net::packet::{NodeId, Packet};
use cocoa_net::radio::{Radio, RadioCheckpoint};
use cocoa_net::rssi::Dbm;
use cocoa_net::rssi::RssiBin;
use cocoa_sim::engine::Engine;
use cocoa_sim::event::EventQueue;
use cocoa_sim::faults::{Fault, FaultPlan, GilbertElliott, GilbertElliottLink};
use cocoa_sim::jsonfmt::ObjectWriter;
use cocoa_sim::rng::{DetRng, SeedSplitter};
use cocoa_sim::snapshot::{
    intern, put_bool, put_bytes, put_f64, put_str, put_u32, put_u64, put_u8, put_usize, Snapshot,
    SnapshotError, SnapshotReader, SnapshotWriter,
};
use cocoa_sim::telemetry::hist::{HistSnapshot, Histogram, NUM_BUCKETS};
use cocoa_sim::telemetry::{
    SpanStart, StampedEvent, Telemetry, TelemetryCheckpoint, TelemetryEvent, TelemetryLevel,
};
use cocoa_sim::time::{SimDuration, SimTime};
use cocoa_sim::trace::TraceLevel;

use crate::health::{DegradationState, HealthLedger, HealthMonitor};
use crate::metrics::{
    ErrorPoint, ErrorSnapshot, RobotFinalState, RobustnessStats, RunMetrics, TrafficStats,
};
use crate::robot::{FixAnchor, Robot};
use crate::scenario::Scenario;
use crate::sync::DriftingClock;
use crate::world::events::{Event, SpanIds, TxIntent};
use crate::world::{self, events, mesh, metrics_hook, WorldState, SYNC_GROUP};

/// Section tags, in the order they are written.
const SECTIONS: [&str; 7] = [
    "scenario",
    "engine",
    "rngs",
    "medium",
    "robots",
    "world",
    "telemetry",
];

/// Upper bound on `Vec::with_capacity` pre-allocation while decoding
/// length-prefixed collections: a corrupt length then costs a bounded
/// allocation plus a clean `Truncated` error instead of an abort.
const CAP_GUARD: usize = 4096;

fn malformed(context: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        context: context.into(),
    }
}

// ---------------------------------------------------------------------------
// Small codec helpers shared by every section.
// ---------------------------------------------------------------------------

fn put_time(buf: &mut Vec<u8>, t: SimTime) {
    put_u64(buf, t.as_micros());
}

fn read_time(r: &mut SnapshotReader<'_>) -> Result<SimTime, SnapshotError> {
    Ok(SimTime::from_micros(r.u64()?))
}

fn put_dur(buf: &mut Vec<u8>, d: SimDuration) {
    put_u64(buf, d.as_micros());
}

fn read_dur(r: &mut SnapshotReader<'_>) -> Result<SimDuration, SnapshotError> {
    Ok(SimDuration::from_micros(r.u64()?))
}

fn put_point(buf: &mut Vec<u8>, p: Point) {
    put_f64(buf, p.x);
    put_f64(buf, p.y);
}

fn read_point(r: &mut SnapshotReader<'_>) -> Result<Point, SnapshotError> {
    Ok(Point::new(r.f64()?, r.f64()?))
}

fn put_pose(buf: &mut Vec<u8>, p: Pose) {
    put_point(buf, p.position);
    put_f64(buf, p.heading);
}

fn read_pose(r: &mut SnapshotReader<'_>) -> Result<Pose, SnapshotError> {
    Ok(Pose {
        position: read_point(r)?,
        heading: r.f64()?,
    })
}

fn put_opt<T>(buf: &mut Vec<u8>, v: Option<T>, f: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        Some(v) => {
            put_bool(buf, true);
            f(buf, v);
        }
        None => put_bool(buf, false),
    }
}

fn read_opt<T>(
    r: &mut SnapshotReader<'_>,
    f: impl FnOnce(&mut SnapshotReader<'_>) -> Result<T, SnapshotError>,
) -> Result<Option<T>, SnapshotError> {
    if r.bool()? {
        Ok(Some(f(r)?))
    } else {
        Ok(None)
    }
}

fn put_vec<T>(buf: &mut Vec<u8>, items: &[T], mut f: impl FnMut(&mut Vec<u8>, &T)) {
    put_usize(buf, items.len());
    for item in items {
        f(buf, item);
    }
}

fn read_vec<T>(
    r: &mut SnapshotReader<'_>,
    mut f: impl FnMut(&mut SnapshotReader<'_>) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    let n = r.usize_()?;
    let mut v = Vec::with_capacity(n.min(CAP_GUARD));
    for _ in 0..n {
        v.push(f(r)?);
    }
    Ok(v)
}

fn put_rng(buf: &mut Vec<u8>, rng: &DetRng) {
    for word in rng.state() {
        put_u64(buf, word);
    }
}

fn read_rng(r: &mut SnapshotReader<'_>) -> Result<DetRng, SnapshotError> {
    let s = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    if s == [0u64; 4] {
        return Err(malformed("rng stream has the all-zero state"));
    }
    Ok(DetRng::from_state(s))
}

fn bad_tag(what: &str, tag: u8) -> SnapshotError {
    malformed(format!("unknown {what} tag {tag}"))
}

// ---------------------------------------------------------------------------
// Scenario section.
// ---------------------------------------------------------------------------

fn put_channel(buf: &mut Vec<u8>, c: &ChannelParams) {
    put_f64(buf, c.tx_power_dbm);
    put_f64(buf, c.path_loss_1m_db);
    match c.path_loss {
        PathLossModel::LogDistance { exponent } => {
            put_u8(buf, 0);
            put_f64(buf, exponent);
        }
        PathLossModel::TwoRayGround {
            antenna_height_m,
            wavelength_m,
        } => {
            put_u8(buf, 1);
            put_f64(buf, antenna_height_m);
            put_f64(buf, wavelength_m);
        }
    }
    put_f64(buf, c.shadowing_sigma_db);
    put_f64(buf, c.shadowing_sigma_slope_db_per_m);
    put_f64(buf, c.multipath_onset_m);
    put_f64(buf, c.multipath_fade_prob);
    put_f64(buf, c.multipath_fade_mean_db);
    put_f64(buf, c.sensitivity_dbm);
}

fn read_channel(r: &mut SnapshotReader<'_>) -> Result<ChannelParams, SnapshotError> {
    let tx_power_dbm = r.f64()?;
    let path_loss_1m_db = r.f64()?;
    let path_loss = match r.u8()? {
        0 => PathLossModel::LogDistance { exponent: r.f64()? },
        1 => PathLossModel::TwoRayGround {
            antenna_height_m: r.f64()?,
            wavelength_m: r.f64()?,
        },
        t => return Err(bad_tag("path-loss model", t)),
    };
    Ok(ChannelParams {
        tx_power_dbm,
        path_loss_1m_db,
        path_loss,
        shadowing_sigma_db: r.f64()?,
        shadowing_sigma_slope_db_per_m: r.f64()?,
        multipath_onset_m: r.f64()?,
        multipath_fade_prob: r.f64()?,
        multipath_fade_mean_db: r.f64()?,
        sensitivity_dbm: r.f64()?,
    })
}

fn put_energy(buf: &mut Vec<u8>, e: &EnergyParams) {
    put_f64(buf, e.idle_mw);
    put_f64(buf, e.sleep_mw);
    put_f64(buf, e.tx_uj_per_byte);
    put_f64(buf, e.tx_uj_fixed);
    put_f64(buf, e.rx_uj_per_byte);
    put_f64(buf, e.rx_uj_fixed);
    put_f64(buf, e.wake_uj);
}

fn read_energy(r: &mut SnapshotReader<'_>) -> Result<EnergyParams, SnapshotError> {
    Ok(EnergyParams {
        idle_mw: r.f64()?,
        sleep_mw: r.f64()?,
        tx_uj_per_byte: r.f64()?,
        tx_uj_fixed: r.f64()?,
        rx_uj_per_byte: r.f64()?,
        rx_uj_fixed: r.f64()?,
        wake_uj: r.f64()?,
    })
}

fn put_fault(buf: &mut Vec<u8>, f: &Fault) {
    match f {
        Fault::Crash { robot } => {
            put_u8(buf, 0);
            put_usize(buf, *robot);
        }
        Fault::Reboot { robot } => {
            put_u8(buf, 1);
            put_usize(buf, *robot);
        }
        Fault::ClockSkewStep { robot, delta_ppm } => {
            put_u8(buf, 2);
            put_usize(buf, *robot);
            put_f64(buf, *delta_ppm);
        }
        Fault::GarbleTxStart { robot } => {
            put_u8(buf, 3);
            put_usize(buf, *robot);
        }
        Fault::GarbleTxEnd { robot } => {
            put_u8(buf, 4);
            put_usize(buf, *robot);
        }
        Fault::BeaconOffsetStart { robot, dx_m, dy_m } => {
            put_u8(buf, 5);
            put_usize(buf, *robot);
            put_f64(buf, *dx_m);
            put_f64(buf, *dy_m);
        }
        Fault::BeaconOffsetEnd { robot } => {
            put_u8(buf, 6);
            put_usize(buf, *robot);
        }
        Fault::BurstLossStart { model } => {
            put_u8(buf, 7);
            put_gilbert(buf, model);
        }
        Fault::BurstLossEnd => put_u8(buf, 8),
    }
}

fn read_fault(r: &mut SnapshotReader<'_>) -> Result<Fault, SnapshotError> {
    Ok(match r.u8()? {
        0 => Fault::Crash { robot: r.usize_()? },
        1 => Fault::Reboot { robot: r.usize_()? },
        2 => Fault::ClockSkewStep {
            robot: r.usize_()?,
            delta_ppm: r.f64()?,
        },
        3 => Fault::GarbleTxStart { robot: r.usize_()? },
        4 => Fault::GarbleTxEnd { robot: r.usize_()? },
        5 => Fault::BeaconOffsetStart {
            robot: r.usize_()?,
            dx_m: r.f64()?,
            dy_m: r.f64()?,
        },
        6 => Fault::BeaconOffsetEnd { robot: r.usize_()? },
        7 => Fault::BurstLossStart {
            model: read_gilbert(r)?,
        },
        8 => Fault::BurstLossEnd,
        t => return Err(bad_tag("fault", t)),
    })
}

fn put_gilbert(buf: &mut Vec<u8>, m: &GilbertElliott) {
    put_f64(buf, m.p_enter_bad);
    put_f64(buf, m.p_exit_bad);
    put_f64(buf, m.loss_good);
    put_f64(buf, m.loss_bad);
}

fn read_gilbert(r: &mut SnapshotReader<'_>) -> Result<GilbertElliott, SnapshotError> {
    Ok(GilbertElliott {
        p_enter_bad: r.f64()?,
        p_exit_bad: r.f64()?,
        loss_good: r.f64()?,
        loss_bad: r.f64()?,
    })
}

/// Writes `value` as its index in `all`: an enum's `ALL` list is its
/// codec-tag order (pinned by `codec_tag_orders_are_pinned`).
fn put_tag<T: PartialEq>(buf: &mut Vec<u8>, all: &[T], value: &T) {
    let tag = all.iter().position(|v| v == value);
    put_u8(buf, tag.expect("ALL lists every variant") as u8);
}

fn read_tag<T: Copy>(
    r: &mut SnapshotReader<'_>,
    all: &[T],
    what: &str,
) -> Result<T, SnapshotError> {
    let tag = r.u8()?;
    all.get(usize::from(tag))
        .copied()
        .ok_or_else(|| bad_tag(what, tag))
}

fn put_area(buf: &mut Vec<u8>, a: &Area) {
    put_f64(buf, a.x_min);
    put_f64(buf, a.x_max);
    put_f64(buf, a.y_min);
    put_f64(buf, a.y_max);
}

fn read_area(r: &mut SnapshotReader<'_>) -> Result<Area, SnapshotError> {
    Ok(Area {
        x_min: r.f64()?,
        x_max: r.f64()?,
        y_min: r.f64()?,
        y_max: r.f64()?,
    })
}

fn put_odometry(buf: &mut Vec<u8>, o: &OdometryConfig) {
    put_f64(buf, o.displacement_sigma);
    put_f64(buf, o.angular_sigma);
    put_f64(buf, o.heading_drift_sigma);
}

fn read_odometry(r: &mut SnapshotReader<'_>) -> Result<OdometryConfig, SnapshotError> {
    Ok(OdometryConfig {
        displacement_sigma: r.f64()?,
        angular_sigma: r.f64()?,
        heading_drift_sigma: r.f64()?,
    })
}

fn put_mesh(buf: &mut Vec<u8>, m: &OdmrpConfig) {
    put_u8(
        buf,
        match m.mode {
            MeshMode::Odmrp => 0,
            MeshMode::Mrmm => 1,
        },
    );
    put_u8(buf, m.max_hops);
    put_dur(buf, m.fg_timeout);
    put_dur(buf, m.reply_delay);
    put_dur(buf, m.rebroadcast_jitter);
    put_f64(buf, m.range_m);
    put_f64(buf, m.lifetime_horizon_s);
    put_f64(buf, m.prune.min_lifetime_s);
    put_u32(buf, m.prune.redundancy_threshold);
    put_dur(buf, m.dedup_retention);
}

fn read_mesh(r: &mut SnapshotReader<'_>) -> Result<OdmrpConfig, SnapshotError> {
    let mode = match r.u8()? {
        0 => MeshMode::Odmrp,
        1 => MeshMode::Mrmm,
        t => return Err(bad_tag("mesh mode", t)),
    };
    Ok(OdmrpConfig {
        mode,
        max_hops: r.u8()?,
        fg_timeout: read_dur(r)?,
        reply_delay: read_dur(r)?,
        rebroadcast_jitter: read_dur(r)?,
        range_m: r.f64()?,
        lifetime_horizon_s: r.f64()?,
        prune: cocoa_multicast::mrmm::PruneConfig {
            min_lifetime_s: r.f64()?,
            redundancy_threshold: r.u32()?,
        },
        dedup_retention: read_dur(r)?,
    })
}

fn encode_scenario(s: &Scenario) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, s.seed);
    put_area(&mut buf, &s.area);
    put_usize(&mut buf, s.num_robots);
    put_usize(&mut buf, s.num_equipped);
    put_dur(&mut buf, s.duration);
    put_dur(&mut buf, s.beacon_period);
    put_dur(&mut buf, s.transmit_window);
    put_u32(&mut buf, s.beacons_per_window);
    put_f64(&mut buf, s.v_min);
    put_f64(&mut buf, s.v_max);
    put_tag(&mut buf, &EstimatorMode::ALL, &s.mode);
    put_tag(&mut buf, &RfAlgorithm::ALL, &s.rf_algorithm);
    put_bool(&mut buf, s.coordination);
    put_f64(&mut buf, s.grid_resolution_m);
    put_channel(&mut buf, &s.channel);
    put_energy(&mut buf, &s.energy);
    put_odometry(&mut buf, &s.odometry);
    put_mesh(&mut buf, &s.mesh);
    put_tag(&mut buf, &MulticastProtocol::ALL, &s.multicast);
    put_bool(&mut buf, s.sync_enabled);
    put_f64(&mut buf, s.clock_skew_ppm);
    put_dur(&mut buf, s.guard_band);
    put_dur(&mut buf, s.tick);
    put_dur(&mut buf, s.metrics_interval);
    put_vec(&mut buf, &s.snapshot_times, |b, &t| put_time(b, t));
    put_f64(&mut buf, s.packet_loss);
    put_bool(&mut buf, s.relay_beaconing);
    put_u64(&mut buf, s.relay_max_fix_age_windows);
    put_vec(&mut buf, s.faults.events(), |b, e| {
        put_time(b, e.at);
        put_fault(b, &e.fault);
    });
    put_u32(&mut buf, s.failover_missed_periods);
    put_f64(&mut buf, s.entropy_watchdog_frac);
    put_f64(&mut buf, s.outlier_gate_m);
    put_bool(&mut buf, s.grid_fused);
    buf
}

/// The setup-feeding subset of the scenario encoding: exactly the
/// fields whose effects are baked into a time-zero snapshot during
/// [`world::setup_world`] (seed, arena, team size and composition,
/// speed range, estimator, grid resolution and fusion, channel, energy,
/// odometry, mesh, multicast, clock skew). Two scenarios with identical
/// immutable encodings are warm-fork compatible; everything else is
/// schedule-side and may differ between a snapshot and its forks.
///
/// [`SimRun::warm_fork`] compares these bytes directly, so the
/// compatibility check and the [`warm_fingerprint`] cache key can never
/// drift apart.
fn encode_scenario_immutable(s: &Scenario) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, s.seed);
    put_area(&mut buf, &s.area);
    put_usize(&mut buf, s.num_robots);
    put_usize(&mut buf, s.num_equipped);
    put_f64(&mut buf, s.v_min);
    put_f64(&mut buf, s.v_max);
    put_tag(&mut buf, &EstimatorMode::ALL, &s.mode);
    put_tag(&mut buf, &RfAlgorithm::ALL, &s.rf_algorithm);
    put_f64(&mut buf, s.grid_resolution_m);
    // Fusion decides how every robot's estimator is built at setup, so
    // the time-zero snapshot bakes it in.
    put_bool(&mut buf, s.grid_fused);
    put_channel(&mut buf, &s.channel);
    put_energy(&mut buf, &s.energy);
    put_odometry(&mut buf, &s.odometry);
    put_mesh(&mut buf, &s.mesh);
    put_tag(&mut buf, &MulticastProtocol::ALL, &s.multicast);
    put_f64(&mut buf, s.clock_skew_ppm);
    buf
}

/// CRC-fingerprints `payload` under the given codec version: the high
/// 32 bits are the CRC-32 of the version-prefixed payload, the low 32
/// bits its length. Prefixing the version means fingerprints computed
/// by different snapshot schemas never collide, so caches keyed by a
/// fingerprint (serve results, warm artifacts, sweep manifests) cannot
/// cross-serve stale state after a codec bump.
fn versioned_fingerprint(payload: &[u8], version: u32) -> u64 {
    let mut buf = Vec::with_capacity(payload.len() + 4);
    put_u32(&mut buf, version);
    buf.extend_from_slice(payload);
    (u64::from(cocoa_sim::snapshot::crc32(&buf)) << 32) | buf.len() as u64
}

/// A 64-bit fingerprint of a scenario's full configuration, derived
/// from the same canonical encoding the snapshot codec persists,
/// prefixed with [`cocoa_sim::snapshot::SNAPSHOT_SCHEMA_VERSION`].
///
/// Sweep manifests store one fingerprint per point so a manifest is
/// never replayed against a different sweep: any scenario field that
/// affects the simulation changes the encoding, hence the fingerprint,
/// and a snapshot-codec version bump changes every fingerprint, so
/// artifacts produced by one schema are never served against another.
/// Cheap, stable across runs, and collision-resistant enough for
/// sweep-shaped point counts.
pub fn scenario_fingerprint(s: &Scenario) -> u64 {
    versioned_fingerprint(
        &encode_scenario(s),
        cocoa_sim::snapshot::SNAPSHOT_SCHEMA_VERSION,
    )
}

/// A 64-bit fingerprint of only the scenario's *setup-feeding* fields
/// (see [`SimRun::warm_fork`] for the list), version-prefixed like
/// [`scenario_fingerprint`].
///
/// Two scenarios with equal warm fingerprints share calibration tables,
/// radial constraint tables and the time-zero snapshot: any of them can
/// be served by forking the same [`WarmArtifacts`]. Schedule-side
/// fields (beacon period, windowing, faults, duration…) deliberately do
/// not participate.
pub fn warm_fingerprint(s: &Scenario) -> u64 {
    versioned_fingerprint(
        &encode_scenario_immutable(s),
        cocoa_sim::snapshot::SNAPSHOT_SCHEMA_VERSION,
    )
}

fn decode_scenario(r: &mut SnapshotReader<'_>) -> Result<Scenario, SnapshotError> {
    let seed = r.u64()?;
    let area = read_area(r)?;
    let num_robots = r.usize_()?;
    let num_equipped = r.usize_()?;
    let duration = read_dur(r)?;
    let beacon_period = read_dur(r)?;
    let transmit_window = read_dur(r)?;
    let beacons_per_window = r.u32()?;
    let v_min = r.f64()?;
    let v_max = r.f64()?;
    let mode = read_tag(r, &EstimatorMode::ALL, "estimator mode")?;
    let rf_algorithm = read_tag(r, &RfAlgorithm::ALL, "rf algorithm")?;
    let coordination = r.bool()?;
    let grid_resolution_m = r.f64()?;
    let channel = read_channel(r)?;
    let energy = read_energy(r)?;
    let odometry = read_odometry(r)?;
    let mesh = read_mesh(r)?;
    let multicast = read_tag(r, &MulticastProtocol::ALL, "multicast protocol")?;
    let sync_enabled = r.bool()?;
    let clock_skew_ppm = r.f64()?;
    let guard_band = read_dur(r)?;
    let tick = read_dur(r)?;
    let metrics_interval = read_dur(r)?;
    let snapshot_times = read_vec(r, read_time)?;
    let packet_loss = r.f64()?;
    let relay_beaconing = r.bool()?;
    let relay_max_fix_age_windows = r.u64()?;
    let fault_events = read_vec(r, |r| Ok((read_time(r)?, read_fault(r)?)))?;
    let mut faults = FaultPlan::new();
    for (at, fault) in fault_events {
        faults.schedule(at, fault);
    }
    let failover_missed_periods = r.u32()?;
    let entropy_watchdog_frac = r.f64()?;
    let outlier_gate_m = r.f64()?;
    let grid_fused = r.bool()?;
    Ok(Scenario {
        seed,
        area,
        num_robots,
        num_equipped,
        duration,
        beacon_period,
        transmit_window,
        beacons_per_window,
        v_min,
        v_max,
        mode,
        rf_algorithm,
        coordination,
        grid_resolution_m,
        channel,
        energy,
        odometry,
        mesh,
        multicast,
        sync_enabled,
        clock_skew_ppm,
        guard_band,
        tick,
        metrics_interval,
        snapshot_times,
        packet_loss,
        relay_beaconing,
        relay_max_fix_age_windows,
        faults,
        failover_missed_periods,
        entropy_watchdog_frac,
        outlier_gate_m,
        grid_fused,
    })
}

// ---------------------------------------------------------------------------
// Engine section (clock + pending event queue).
// ---------------------------------------------------------------------------

fn put_packet(buf: &mut Vec<u8>, p: &Packet) {
    put_bytes(buf, &p.encode());
}

fn read_packet(r: &mut SnapshotReader<'_>) -> Result<Packet, SnapshotError> {
    let raw = r.bytes()?;
    Packet::decode(Bytes::from(raw))
        .map_err(|e| malformed(format!("undecodable packet in snapshot: {e:?}")))
}

fn put_event(buf: &mut Vec<u8>, e: &Event) {
    match e {
        Event::MoveTick => put_u8(buf, 0),
        Event::MetricsSample => put_u8(buf, 1),
        Event::WindowStart { index } => {
            put_u8(buf, 2);
            put_u64(buf, *index);
        }
        Event::RobotWake {
            robot,
            window,
            epoch,
        } => {
            put_u8(buf, 3);
            put_usize(buf, *robot);
            put_u64(buf, *window);
            put_u32(buf, *epoch);
        }
        Event::RobotWindowEnd {
            robot,
            window,
            epoch,
        } => {
            put_u8(buf, 4);
            put_usize(buf, *robot);
            put_u64(buf, *window);
            put_u32(buf, *epoch);
        }
        Event::Transmit { robot, intent } => {
            put_u8(buf, 5);
            put_usize(buf, *robot);
            match intent {
                TxIntent::Beacon => put_u8(buf, 0),
                TxIntent::Mesh(packet) => {
                    put_u8(buf, 1);
                    put_packet(buf, packet);
                }
            }
        }
        Event::TxEnd { tx, receivers } => {
            put_u8(buf, 6);
            put_u64(buf, tx.raw());
            put_vec(buf, receivers, |b, &i| put_usize(b, i));
        }
        Event::MeshReply { robot, source } => {
            put_u8(buf, 7);
            put_usize(buf, *robot);
            put_u32(buf, source.0);
        }
        Event::MeshRebroadcast { robot, source, seq } => {
            put_u8(buf, 8);
            put_usize(buf, *robot);
            put_u32(buf, source.0);
            put_u32(buf, *seq);
        }
        Event::MediumGc => put_u8(buf, 9),
        Event::Snapshot { index } => {
            put_u8(buf, 10);
            put_usize(buf, *index);
        }
        Event::Fault(f) => {
            put_u8(buf, 11);
            put_fault(buf, f);
        }
    }
}

fn read_event(r: &mut SnapshotReader<'_>) -> Result<Event, SnapshotError> {
    Ok(match r.u8()? {
        0 => Event::MoveTick,
        1 => Event::MetricsSample,
        2 => Event::WindowStart { index: r.u64()? },
        3 => Event::RobotWake {
            robot: r.usize_()?,
            window: r.u64()?,
            epoch: r.u32()?,
        },
        4 => Event::RobotWindowEnd {
            robot: r.usize_()?,
            window: r.u64()?,
            epoch: r.u32()?,
        },
        5 => {
            let robot = r.usize_()?;
            let intent = match r.u8()? {
                0 => TxIntent::Beacon,
                1 => TxIntent::Mesh(read_packet(r)?),
                t => return Err(bad_tag("tx intent", t)),
            };
            Event::Transmit { robot, intent }
        }
        6 => Event::TxEnd {
            tx: TxId::from_raw(r.u64()?),
            receivers: read_vec(r, |r| r.usize_())?,
        },
        7 => Event::MeshReply {
            robot: r.usize_()?,
            source: NodeId(r.u32()?),
        },
        8 => Event::MeshRebroadcast {
            robot: r.usize_()?,
            source: NodeId(r.u32()?),
            seq: r.u32()?,
        },
        9 => Event::MediumGc,
        10 => Event::Snapshot { index: r.usize_()? },
        11 => Event::Fault(read_fault(r)?),
        t => return Err(bad_tag("event", t)),
    })
}

struct EngineParts {
    now: SimTime,
    horizon: SimTime,
    stopped: bool,
    processed: u64,
    next_seq: u64,
    peak_len: usize,
    events: Vec<(SimTime, u64, Event)>,
}

fn encode_engine(parts: &EngineParts) -> Vec<u8> {
    let mut buf = Vec::new();
    put_time(&mut buf, parts.now);
    put_time(&mut buf, parts.horizon);
    put_bool(&mut buf, parts.stopped);
    put_u64(&mut buf, parts.processed);
    put_u64(&mut buf, parts.next_seq);
    put_usize(&mut buf, parts.peak_len);
    put_vec(&mut buf, &parts.events, |b, (t, seq, e)| {
        put_time(b, *t);
        put_u64(b, *seq);
        put_event(b, e);
    });
    buf
}

fn decode_engine(r: &mut SnapshotReader<'_>) -> Result<EngineParts, SnapshotError> {
    let now = read_time(r)?;
    let horizon = read_time(r)?;
    let stopped = r.bool()?;
    let processed = r.u64()?;
    let next_seq = r.u64()?;
    let peak_len = r.usize_()?;
    let events = read_vec(r, |r| Ok((read_time(r)?, r.u64()?, read_event(r)?)))?;
    // Pre-validate what `EventQueue::from_parts` would otherwise assert,
    // so a corrupt section surfaces as a typed error rather than a panic.
    if peak_len < events.len() {
        return Err(malformed(format!(
            "queue peak_len {peak_len} below pending count {}",
            events.len()
        )));
    }
    for &(t, seq, _) in &events {
        if seq >= next_seq {
            return Err(malformed(format!(
                "queued event seq {seq} not below next_seq {next_seq}"
            )));
        }
        if t < now {
            return Err(malformed(format!(
                "queued event at {t} is before the engine clock {now}"
            )));
        }
    }
    Ok(EngineParts {
        now,
        horizon,
        stopped,
        processed,
        next_seq,
        peak_len,
        events,
    })
}

// ---------------------------------------------------------------------------
// Medium section.
// ---------------------------------------------------------------------------

fn encode_medium(state: &MediumState) -> Vec<u8> {
    let mut buf = Vec::new();
    put_f64(&mut buf, state.capture_margin_db);
    put_dur(&mut buf, state.retention);
    put_u64(&mut buf, state.next_id);
    put_u64(&mut buf, state.total_tx);
    put_u64(&mut buf, state.total_collisions);
    put_u64(&mut buf, state.total_half_duplex);
    put_vec(&mut buf, &state.active, |b, tx| {
        put_u64(b, tx.id.raw());
        put_u32(b, tx.src.0);
        put_point(b, tx.src_pos);
        put_time(b, tx.start);
        put_time(b, tx.end);
        put_packet(b, &tx.packet);
    });
    put_vec(&mut buf, &state.rssi, |b, &(tx, rx, dbm)| {
        put_u64(b, tx.raw());
        put_u32(b, rx.0);
        put_f64(b, dbm.0);
    });
    buf
}

fn decode_medium(r: &mut SnapshotReader<'_>) -> Result<MediumState, SnapshotError> {
    Ok(MediumState {
        capture_margin_db: r.f64()?,
        retention: read_dur(r)?,
        next_id: r.u64()?,
        total_tx: r.u64()?,
        total_collisions: r.u64()?,
        total_half_duplex: r.u64()?,
        active: read_vec(r, |r| {
            Ok(ActiveTxState {
                id: TxId::from_raw(r.u64()?),
                src: NodeId(r.u32()?),
                src_pos: read_point(r)?,
                start: read_time(r)?,
                end: read_time(r)?,
                packet: read_packet(r)?,
            })
        })?,
        rssi: read_vec(r, |r| {
            Ok((TxId::from_raw(r.u64()?), NodeId(r.u32()?), Dbm(r.f64()?)))
        })?,
    })
}

// ---------------------------------------------------------------------------
// Robots section.
// ---------------------------------------------------------------------------

/// Writes the estimator section: the lifecycle header shared by every
/// backend, then a backend tag and the tagged solver payload (mirroring
/// [`BackendCheckpoint`]).
fn put_estimator(buf: &mut Vec<u8>, c: &EstimatorCheckpoint) {
    put_tag(buf, &RfAlgorithm::ALL, &c.algorithm());
    put_opt(buf, c.last_fix, put_point);
    put_bool(buf, c.in_window);
    put_u32(buf, c.stats.windows);
    put_u32(buf, c.stats.fixes);
    put_u32(buf, c.stats.flat_windows);
    put_u64(buf, c.stats.beacons_seen);
    put_u64(buf, c.stats.beacons_applied);
    put_u64(buf, c.stats.beacons_rejected_outlier);
    match &c.backend {
        BackendCheckpoint::Bayes {
            posterior_cells,
            pending,
            grid_stats,
            beacons_applied,
            beacons_seen,
        } => {
            put_vec(buf, posterior_cells, |b, &p| put_f64(b, p));
            put_u32(buf, *beacons_applied);
            put_u32(buf, *beacons_seen);
            put_vec(buf, pending, |b, &(anchor, bin)| {
                put_point(b, anchor);
                put_u32(b, bin.0 as u16 as u32);
            });
            put_u64(buf, grid_stats.kernel_simd);
            put_u64(buf, grid_stats.kernel_fused);
            put_u64(buf, grid_stats.fused_windows);
            put_u64(buf, grid_stats.cells_touched);
        }
        BackendCheckpoint::Lateration { ranges } => {
            put_vec(buf, ranges, |b, obs| {
                put_point(b, obs.anchor);
                put_f64(b, obs.range);
                put_f64(b, obs.weight);
            });
        }
        BackendCheckpoint::Ekf {
            filter,
            window_applied,
            last_odo,
        } => {
            put_f64(buf, filter.x);
            put_f64(buf, filter.y);
            put_f64(buf, filter.p11);
            put_f64(buf, filter.p12);
            put_f64(buf, filter.p22);
            put_u64(buf, filter.updates_applied);
            put_u64(buf, filter.updates_gated);
            put_u32(buf, filter.consecutive_gated);
            put_u32(buf, *window_applied);
            put_opt(buf, *last_odo, put_point);
        }
    }
}

fn read_estimator(r: &mut SnapshotReader<'_>) -> Result<EstimatorCheckpoint, SnapshotError> {
    let algorithm = read_tag(r, &RfAlgorithm::ALL, "rf algorithm")?;
    let last_fix = read_opt(r, read_point)?;
    let in_window = r.bool()?;
    let stats = WindowStats {
        windows: r.u32()?,
        fixes: r.u32()?,
        flat_windows: r.u32()?,
        beacons_seen: r.u64()?,
        beacons_applied: r.u64()?,
        beacons_rejected_outlier: r.u64()?,
    };
    let backend = match algorithm {
        RfAlgorithm::Bayes => {
            let posterior_cells = read_vec(r, |r| r.f64())?;
            let beacons_applied = r.u32()?;
            let beacons_seen = r.u32()?;
            let pending = read_vec(r, |r| {
                let anchor = read_point(r)?;
                let bin = RssiBin(r.u32()? as u16 as i16);
                Ok((anchor, bin))
            })?;
            let grid_stats = GridStats {
                kernel_simd: r.u64()?,
                kernel_fused: r.u64()?,
                fused_windows: r.u64()?,
                cells_touched: r.u64()?,
            };
            BackendCheckpoint::Bayes {
                posterior_cells,
                pending,
                grid_stats,
                beacons_applied,
                beacons_seen,
            }
        }
        RfAlgorithm::Multilateration => BackendCheckpoint::Lateration {
            ranges: read_vec(r, |r| {
                Ok(RangeObservation {
                    anchor: read_point(r)?,
                    range: r.f64()?,
                    weight: r.f64()?,
                })
            })?,
        },
        RfAlgorithm::Ekf => BackendCheckpoint::Ekf {
            filter: EkfSnapshot {
                x: r.f64()?,
                y: r.f64()?,
                p11: r.f64()?,
                p12: r.f64()?,
                p22: r.f64()?,
                updates_applied: r.u64()?,
                updates_gated: r.u64()?,
                consecutive_gated: r.u32()?,
            },
            window_applied: r.u32()?,
            last_odo: read_opt(r, read_point)?,
        },
    };
    Ok(EstimatorCheckpoint {
        last_fix,
        in_window,
        stats,
        backend,
    })
}

fn put_radio(buf: &mut Vec<u8>, c: &RadioCheckpoint) {
    put_energy(buf, &c.params);
    put_u64(buf, c.bitrate_bps);
    put_u8(
        buf,
        match c.state {
            PowerState::Off => 0,
            PowerState::Sleep => 1,
            PowerState::Idle => 2,
        },
    );
    put_time(buf, c.since);
    put_f64(buf, c.ledger.tx_uj);
    put_f64(buf, c.ledger.rx_uj);
    put_f64(buf, c.ledger.idle_uj);
    put_f64(buf, c.ledger.sleep_uj);
    put_f64(buf, c.ledger.wake_uj);
    put_u32(buf, c.wakes);
    put_u32(buf, c.packets_sent);
    put_u32(buf, c.packets_received);
}

fn read_radio(r: &mut SnapshotReader<'_>) -> Result<RadioCheckpoint, SnapshotError> {
    Ok(RadioCheckpoint {
        params: read_energy(r)?,
        bitrate_bps: r.u64()?,
        state: match r.u8()? {
            0 => PowerState::Off,
            1 => PowerState::Sleep,
            2 => PowerState::Idle,
            t => return Err(bad_tag("power state", t)),
        },
        since: read_time(r)?,
        ledger: EnergyLedger {
            tx_uj: r.f64()?,
            rx_uj: r.f64()?,
            idle_uj: r.f64()?,
            sleep_uj: r.f64()?,
            wake_uj: r.f64()?,
        },
        wakes: r.u32()?,
        packets_sent: r.u32()?,
        packets_received: r.u32()?,
    })
}

fn put_health_state(buf: &mut Vec<u8>, s: DegradationState) {
    put_u8(
        buf,
        match s {
            DegradationState::Healthy => 0,
            DegradationState::Degraded => 1,
            DegradationState::DeadReckoning => 2,
            DegradationState::Down => 3,
        },
    );
}

fn read_health_state(r: &mut SnapshotReader<'_>) -> Result<DegradationState, SnapshotError> {
    Ok(match r.u8()? {
        0 => DegradationState::Healthy,
        1 => DegradationState::Degraded,
        2 => DegradationState::DeadReckoning,
        3 => DegradationState::Down,
        t => return Err(bad_tag("degradation state", t)),
    })
}

fn encode_robots(robots: &[Robot]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_usize(&mut buf, robots.len());
    for robot in robots {
        put_bool(&mut buf, robot.alive);
        put_bool(&mut buf, robot.equipped);
        put_u32(&mut buf, robot.epoch);
        put_bool(&mut buf, robot.has_fix);
        put_opt(&mut buf, robot.last_fix_window, put_u64);
        put_bool(&mut buf, robot.synced_this_window);
        put_bool(&mut buf, robot.garbled_tx);
        put_opt(&mut buf, robot.beacon_offset, |b, (dx, dy)| {
            put_f64(b, dx);
            put_f64(b, dy);
        });
        put_opt(&mut buf, robot.fix_anchor, |b, a| {
            put_point(b, a.fix);
            put_point(b, a.odo_at_fix);
        });
        let wc = robot.motion.waypoints().checkpoint();
        put_f64(&mut buf, wc.config.area.x_min);
        put_f64(&mut buf, wc.config.area.x_max);
        put_f64(&mut buf, wc.config.area.y_min);
        put_f64(&mut buf, wc.config.area.y_max);
        put_f64(&mut buf, wc.config.v_min);
        put_f64(&mut buf, wc.config.v_max);
        put_pose(&mut buf, wc.pose);
        put_point(&mut buf, wc.destination);
        put_f64(&mut buf, wc.speed);
        put_u64(&mut buf, wc.legs_completed);
        let oc = robot.motion.odometer().checkpoint();
        put_f64(&mut buf, oc.config.displacement_sigma);
        put_f64(&mut buf, oc.config.angular_sigma);
        put_f64(&mut buf, oc.config.heading_drift_sigma);
        put_pose(&mut buf, oc.estimate);
        put_f64(&mut buf, oc.distance_integrated);
        put_u64(&mut buf, oc.observations);
        put_radio(&mut buf, &robot.radio.checkpoint());
        let (skew, error_s, anchor, missed, stale) = robot.clock.checkpoint();
        put_f64(&mut buf, skew);
        put_f64(&mut buf, error_s);
        put_time(&mut buf, anchor);
        put_u32(&mut buf, missed);
        put_u32(&mut buf, stale);
        let (hstate, hsince, hledger) = robot.health.checkpoint();
        put_health_state(&mut buf, hstate);
        put_time(&mut buf, hsince);
        put_f64(&mut buf, hledger.healthy_s);
        put_f64(&mut buf, hledger.degraded_s);
        put_f64(&mut buf, hledger.dead_reckoning_s);
        put_f64(&mut buf, hledger.down_s);
        put_opt(
            &mut buf,
            robot.rf.as_ref().map(|rf| rf.checkpoint()),
            |b, c| put_estimator(b, &c),
        );
        put_bytes(&mut buf, &robot.mesh.save_state());
    }
    buf
}

fn decode_robots(
    r: &mut SnapshotReader<'_>,
    scenario: &Scenario,
) -> Result<Vec<Robot>, SnapshotError> {
    let n = r.usize_()?;
    if n != scenario.num_robots {
        return Err(malformed(format!(
            "snapshot holds {n} robots but the scenario declares {}",
            scenario.num_robots
        )));
    }
    let grid = GridConfig::new(scenario.area, scenario.grid_resolution_m);
    let mut robots = Vec::with_capacity(n.min(CAP_GUARD));
    for i in 0..n {
        let alive = r.bool()?;
        let equipped = r.bool()?;
        let epoch = r.u32()?;
        let has_fix = r.bool()?;
        let last_fix_window = read_opt(r, |r| r.u64())?;
        let synced_this_window = r.bool()?;
        let garbled_tx = r.bool()?;
        let beacon_offset = read_opt(r, |r| Ok((r.f64()?, r.f64()?)))?;
        let fix_anchor = read_opt(r, |r| {
            Ok(FixAnchor {
                fix: read_point(r)?,
                odo_at_fix: read_point(r)?,
            })
        })?;
        let waypoints = WaypointModel::from_checkpoint(WaypointCheckpoint {
            config: WaypointConfig {
                area: Area {
                    x_min: r.f64()?,
                    x_max: r.f64()?,
                    y_min: r.f64()?,
                    y_max: r.f64()?,
                },
                v_min: r.f64()?,
                v_max: r.f64()?,
            },
            pose: read_pose(r)?,
            destination: read_point(r)?,
            speed: r.f64()?,
            legs_completed: r.u64()?,
        });
        let odometer = Odometer::from_checkpoint(OdometerCheckpoint {
            config: OdometryConfig {
                displacement_sigma: r.f64()?,
                angular_sigma: r.f64()?,
                heading_drift_sigma: r.f64()?,
            },
            estimate: read_pose(r)?,
            distance_integrated: r.f64()?,
            observations: r.u64()?,
        });
        let radio = Radio::from_checkpoint(read_radio(r)?);
        let clock = {
            let skew = r.f64()?;
            let error_s = r.f64()?;
            let anchor = read_time(r)?;
            let missed = r.u32()?;
            let stale = r.u32()?;
            DriftingClock::from_checkpoint(skew, error_s, anchor, missed, stale)
        };
        let health = {
            let state = read_health_state(r)?;
            let since = read_time(r)?;
            let ledger = HealthLedger {
                healthy_s: r.f64()?,
                degraded_s: r.f64()?,
                dead_reckoning_s: r.f64()?,
                down_s: r.f64()?,
            };
            HealthMonitor::from_checkpoint(state, since, ledger)
        };
        let rf = read_opt(r, read_estimator)?
            .map(|c| WindowedRfEstimator::from_checkpoint_fused(grid, scenario.grid_fused, c));
        let mesh_bytes = r.bytes()?;
        let mut mesh = mesh::make_backend(
            scenario.multicast,
            NodeId(i as u32),
            SYNC_GROUP,
            true,
            scenario.mesh,
        );
        mesh.load_state(mesh_bytes)?;
        robots.push(Robot {
            id: NodeId(i as u32),
            index: i,
            equipped,
            motion: RobotMotion::from_parts(waypoints, odometer),
            radio,
            rf,
            mesh,
            clock,
            has_fix,
            last_fix_window,
            synced_this_window,
            fix_anchor,
            alive,
            epoch,
            garbled_tx,
            beacon_offset,
            health,
        });
    }
    Ok(robots)
}

// ---------------------------------------------------------------------------
// World section (accumulators, fault overlays).
// ---------------------------------------------------------------------------

fn encode_world(world: &WorldState) -> Vec<u8> {
    let mut buf = Vec::new();
    put_usize(&mut buf, world.sync_robot);
    put_u32(&mut buf, world.sync_dead_windows);
    put_dur(&mut buf, world.max_guard);
    put_opt(&mut buf, world.next_robot_sample, put_time);
    let t = &world.traffic;
    for v in [
        t.beacons_sent,
        t.beacons_received,
        t.collisions,
        t.syncs_delivered,
        t.syncs_missed,
        t.fixes,
        t.starved_windows,
    ] {
        put_u64(&mut buf, v);
    }
    let ro = &world.robustness;
    for v in [
        ro.crashes,
        ro.reboots,
        ro.failovers,
        ro.burst_losses,
        ro.corrupt_frames_dropped,
        ro.garbled_frames_delivered,
        ro.outlier_beacons_rejected,
        ro.flat_posteriors,
        ro.stale_syncs_ignored,
        ro.malformed_sync_bodies,
    ] {
        put_u64(&mut buf, v);
    }
    put_vec(&mut buf, &world.error_series, |b, p| {
        put_f64(b, p.t_s);
        put_f64(b, p.mean_error_m);
        put_usize(b, p.robots);
    });
    put_vec(&mut buf, &world.snapshots, |b, s| {
        put_time(b, s.time);
        put_vec(b, &s.errors_m, |b, &e| put_f64(b, e));
    });
    put_vec(&mut buf, &world.position_snapshots, |b, (t, states)| {
        put_time(b, *t);
        put_vec(b, states, |b, s| {
            put_point(b, s.true_position);
            put_point(b, s.estimate);
            put_bool(b, s.equipped);
        });
    });
    put_opt(&mut buf, world.burst.as_deref(), |b, links| {
        put_vec(b, links, |b, link| {
            put_gilbert(b, &link.model());
            put_bool(b, link.in_bad());
        });
    });
    let mut corrupt: Vec<u64> = world.corrupt_txs.iter().map(|tx| tx.raw()).collect();
    corrupt.sort_unstable();
    put_vec(&mut buf, &corrupt, |b, &v| put_u64(b, v));
    buf
}

struct WorldExtras {
    sync_robot: usize,
    sync_dead_windows: u32,
    max_guard: SimDuration,
    next_robot_sample: Option<SimTime>,
    traffic: TrafficStats,
    robustness: RobustnessStats,
    error_series: Vec<ErrorPoint>,
    snapshots: Vec<ErrorSnapshot>,
    position_snapshots: Vec<(SimTime, Vec<RobotFinalState>)>,
    burst: Option<Vec<GilbertElliottLink>>,
    corrupt_txs: std::collections::HashSet<TxId>,
}

fn decode_world(r: &mut SnapshotReader<'_>) -> Result<WorldExtras, SnapshotError> {
    let sync_robot = r.usize_()?;
    let sync_dead_windows = r.u32()?;
    let max_guard = read_dur(r)?;
    let next_robot_sample = read_opt(r, read_time)?;
    let traffic = TrafficStats {
        beacons_sent: r.u64()?,
        beacons_received: r.u64()?,
        collisions: r.u64()?,
        syncs_delivered: r.u64()?,
        syncs_missed: r.u64()?,
        fixes: r.u64()?,
        starved_windows: r.u64()?,
    };
    let robustness = RobustnessStats {
        crashes: r.u64()?,
        reboots: r.u64()?,
        failovers: r.u64()?,
        burst_losses: r.u64()?,
        corrupt_frames_dropped: r.u64()?,
        garbled_frames_delivered: r.u64()?,
        outlier_beacons_rejected: r.u64()?,
        flat_posteriors: r.u64()?,
        stale_syncs_ignored: r.u64()?,
        malformed_sync_bodies: r.u64()?,
    };
    let error_series = read_vec(r, |r| {
        Ok(ErrorPoint {
            t_s: r.f64()?,
            mean_error_m: r.f64()?,
            robots: r.usize_()?,
        })
    })?;
    let snapshots = read_vec(r, |r| {
        Ok(ErrorSnapshot {
            time: read_time(r)?,
            // Written from an `ErrorSnapshot`, so already sorted; the
            // struct literal skips the re-sort of `ErrorSnapshot::new`.
            errors_m: read_vec(r, |r| r.f64())?,
        })
    })?;
    let position_snapshots = read_vec(r, |r| {
        Ok((
            read_time(r)?,
            read_vec(r, |r| {
                Ok(RobotFinalState {
                    true_position: read_point(r)?,
                    estimate: read_point(r)?,
                    equipped: r.bool()?,
                })
            })?,
        ))
    })?;
    let burst = read_opt(r, |r| {
        read_vec(r, |r| {
            let model = read_gilbert(r)?;
            let in_bad = r.bool()?;
            Ok(GilbertElliottLink::with_state(model, in_bad))
        })
    })?;
    let corrupt_txs = read_vec(r, |r| Ok(TxId::from_raw(r.u64()?)))?
        .into_iter()
        .collect();
    Ok(WorldExtras {
        sync_robot,
        sync_dead_windows,
        max_guard,
        next_robot_sample,
        traffic,
        robustness,
        error_series,
        snapshots,
        position_snapshots,
        burst,
        corrupt_txs,
    })
}

// ---------------------------------------------------------------------------
// Telemetry section.
// ---------------------------------------------------------------------------

fn put_telemetry_event(buf: &mut Vec<u8>, e: &TelemetryEvent) {
    match e {
        TelemetryEvent::WindowStart { window } => {
            put_u8(buf, 0);
            put_u64(buf, *window);
        }
        TelemetryEvent::BeaconTx { robot, x_m, y_m } => {
            put_u8(buf, 1);
            put_u32(buf, *robot);
            put_f64(buf, *x_m);
            put_f64(buf, *y_m);
        }
        TelemetryEvent::BeaconRx {
            robot,
            from,
            rssi_dbm,
            outcome,
        } => {
            put_u8(buf, 2);
            put_u32(buf, *robot);
            put_u32(buf, *from);
            put_f64(buf, *rssi_dbm);
            put_str(buf, outcome);
        }
        TelemetryEvent::GridUpdate { robot } => {
            put_u8(buf, 3);
            put_u32(buf, *robot);
        }
        TelemetryEvent::Fix {
            robot,
            window,
            x_m,
            y_m,
            err_m,
        } => {
            put_u8(buf, 4);
            put_u32(buf, *robot);
            put_u64(buf, *window);
            put_f64(buf, *x_m);
            put_f64(buf, *y_m);
            put_f64(buf, *err_m);
        }
        TelemetryEvent::FlatPosterior {
            robot,
            window,
            entropy,
            threshold,
        } => {
            put_u8(buf, 5);
            put_u32(buf, *robot);
            put_u64(buf, *window);
            put_f64(buf, *entropy);
            put_f64(buf, *threshold);
        }
        TelemetryEvent::StarvedWindow { robot, window } => {
            put_u8(buf, 6);
            put_u32(buf, *robot);
            put_u64(buf, *window);
        }
        TelemetryEvent::SyncDelivered { robot, window } => {
            put_u8(buf, 7);
            put_u32(buf, *robot);
            put_u64(buf, *window);
        }
        TelemetryEvent::SyncMissed { robot, window } => {
            put_u8(buf, 8);
            put_u32(buf, *robot);
            put_u64(buf, *window);
        }
        TelemetryEvent::Failover { new_sync } => {
            put_u8(buf, 9);
            put_u32(buf, *new_sync);
        }
        TelemetryEvent::MeshPrune { robot, source, seq } => {
            put_u8(buf, 10);
            put_u32(buf, *robot);
            put_u32(buf, *source);
            put_u32(buf, *seq);
        }
        TelemetryEvent::RadioState { robot, state } => {
            put_u8(buf, 11);
            put_u32(buf, *robot);
            put_str(buf, state);
        }
        TelemetryEvent::FaultInjected { kind, robot } => {
            put_u8(buf, 12);
            put_str(buf, kind);
            put_opt(buf, *robot, put_u32);
        }
        TelemetryEvent::HealthTransition { robot, state } => {
            put_u8(buf, 13);
            put_u32(buf, *robot);
            put_str(buf, state);
        }
        TelemetryEvent::RobotSample {
            robot,
            true_x_m,
            true_y_m,
            est_x_m,
            est_y_m,
            err_m,
            entropy_frac,
            energy_j,
            radio,
            health,
        } => {
            put_u8(buf, 14);
            put_u32(buf, *robot);
            put_f64(buf, *true_x_m);
            put_f64(buf, *true_y_m);
            put_f64(buf, *est_x_m);
            put_f64(buf, *est_y_m);
            put_f64(buf, *err_m);
            put_opt(buf, *entropy_frac, put_f64);
            put_f64(buf, *energy_j);
            put_str(buf, radio);
            put_str(buf, health);
        }
        TelemetryEvent::TeamSample {
            mean_err_m,
            robots,
            energy_j,
        } => {
            put_u8(buf, 15);
            put_f64(buf, *mean_err_m);
            put_u32(buf, *robots);
            put_f64(buf, *energy_j);
        }
        TelemetryEvent::SnapshotTaken { bytes, sections } => {
            put_u8(buf, 16);
            put_u64(buf, *bytes);
            put_u32(buf, *sections);
        }
        TelemetryEvent::SnapshotRestored { bytes } => {
            put_u8(buf, 17);
            put_u64(buf, *bytes);
        }
        TelemetryEvent::Legacy {
            level,
            subsystem,
            message,
        } => {
            put_u8(buf, 18);
            put_u8(
                buf,
                match level {
                    TraceLevel::Debug => 0,
                    TraceLevel::Info => 1,
                    TraceLevel::Warn => 2,
                },
            );
            put_str(buf, subsystem);
            put_str(buf, message);
        }
    }
}

fn read_telemetry_event(r: &mut SnapshotReader<'_>) -> Result<TelemetryEvent, SnapshotError> {
    Ok(match r.u8()? {
        0 => TelemetryEvent::WindowStart { window: r.u64()? },
        1 => TelemetryEvent::BeaconTx {
            robot: r.u32()?,
            x_m: r.f64()?,
            y_m: r.f64()?,
        },
        2 => TelemetryEvent::BeaconRx {
            robot: r.u32()?,
            from: r.u32()?,
            rssi_dbm: r.f64()?,
            outcome: intern(r.str_()?),
        },
        3 => TelemetryEvent::GridUpdate { robot: r.u32()? },
        4 => TelemetryEvent::Fix {
            robot: r.u32()?,
            window: r.u64()?,
            x_m: r.f64()?,
            y_m: r.f64()?,
            err_m: r.f64()?,
        },
        5 => TelemetryEvent::FlatPosterior {
            robot: r.u32()?,
            window: r.u64()?,
            entropy: r.f64()?,
            threshold: r.f64()?,
        },
        6 => TelemetryEvent::StarvedWindow {
            robot: r.u32()?,
            window: r.u64()?,
        },
        7 => TelemetryEvent::SyncDelivered {
            robot: r.u32()?,
            window: r.u64()?,
        },
        8 => TelemetryEvent::SyncMissed {
            robot: r.u32()?,
            window: r.u64()?,
        },
        9 => TelemetryEvent::Failover { new_sync: r.u32()? },
        10 => TelemetryEvent::MeshPrune {
            robot: r.u32()?,
            source: r.u32()?,
            seq: r.u32()?,
        },
        11 => TelemetryEvent::RadioState {
            robot: r.u32()?,
            state: intern(r.str_()?),
        },
        12 => TelemetryEvent::FaultInjected {
            kind: intern(r.str_()?),
            robot: read_opt(r, |r| r.u32())?,
        },
        13 => TelemetryEvent::HealthTransition {
            robot: r.u32()?,
            state: intern(r.str_()?),
        },
        14 => TelemetryEvent::RobotSample {
            robot: r.u32()?,
            true_x_m: r.f64()?,
            true_y_m: r.f64()?,
            est_x_m: r.f64()?,
            est_y_m: r.f64()?,
            err_m: r.f64()?,
            entropy_frac: read_opt(r, |r| r.f64())?,
            energy_j: r.f64()?,
            radio: intern(r.str_()?),
            health: intern(r.str_()?),
        },
        15 => TelemetryEvent::TeamSample {
            mean_err_m: r.f64()?,
            robots: r.u32()?,
            energy_j: r.f64()?,
        },
        16 => TelemetryEvent::SnapshotTaken {
            bytes: r.u64()?,
            sections: r.u32()?,
        },
        17 => TelemetryEvent::SnapshotRestored { bytes: r.u64()? },
        18 => TelemetryEvent::Legacy {
            level: match r.u8()? {
                0 => TraceLevel::Debug,
                1 => TraceLevel::Info,
                2 => TraceLevel::Warn,
                t => return Err(bad_tag("trace level", t)),
            },
            subsystem: intern(r.str_()?),
            message: r.str_()?.to_owned(),
        },
        t => return Err(bad_tag("telemetry event", t)),
    })
}

fn encode_telemetry(t: &Telemetry) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u8(
        &mut buf,
        match t.level() {
            TelemetryLevel::Off => 0,
            TelemetryLevel::Counters => 1,
            TelemetryLevel::Timeline => 2,
            TelemetryLevel::Full => 3,
        },
    );
    put_opt(&mut buf, t.capacity(), put_usize);
    put_u64(&mut buf, t.events_emitted());
    put_u64(&mut buf, t.dropped_events());
    put_opt(&mut buf, t.sample_interval(), put_dur);
    let events: Vec<&StampedEvent> = t.events().collect();
    put_usize(&mut buf, events.len());
    for e in events {
        put_u64(&mut buf, e.t_us);
        put_u64(&mut buf, e.seq);
        put_telemetry_event(&mut buf, &e.event);
    }
    put_vec(&mut buf, &t.counters().sorted(), |b, &(name, value)| {
        put_str(b, name);
        put_u64(b, value);
    });
    // Deterministic histogram state (wall-clock histograms restart at
    // zero on resume, exactly like span timers).
    put_vec(
        &mut buf,
        &t.histograms().deterministic_sorted(),
        |b, &(name, hist)| {
            put_str(b, name);
            put_hist(b, hist);
        },
    );
    buf
}

fn put_hist(buf: &mut Vec<u8>, h: &Histogram) {
    let snap = h.snapshot();
    put_u64(buf, snap.count);
    put_f64(buf, snap.sum);
    put_f64(buf, snap.min);
    put_f64(buf, snap.max);
    put_vec(buf, &snap.buckets, |b, &(idx, c)| {
        put_u32(b, idx);
        put_u64(b, c);
    });
}

fn read_hist(r: &mut SnapshotReader<'_>) -> Result<Histogram, SnapshotError> {
    let count = r.u64()?;
    let sum = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    let buckets = read_vec(r, |r| Ok((r.u32()?, r.u64()?)))?;
    for &(idx, _) in &buckets {
        if idx as usize >= NUM_BUCKETS {
            return Err(malformed(format!("histogram bucket index {idx}")));
        }
    }
    if sum.is_nan() || min.is_nan() || max.is_nan() {
        return Err(malformed("histogram NaN aggregate"));
    }
    Ok(Histogram::from_snapshot(&HistSnapshot {
        buckets,
        count,
        sum,
        min,
        max,
    }))
}

fn decode_telemetry(r: &mut SnapshotReader<'_>) -> Result<Telemetry, SnapshotError> {
    let level = match r.u8()? {
        0 => TelemetryLevel::Off,
        1 => TelemetryLevel::Counters,
        2 => TelemetryLevel::Timeline,
        3 => TelemetryLevel::Full,
        t => return Err(bad_tag("telemetry level", t)),
    };
    let capacity = read_opt(r, |r| r.usize_())?;
    let seq = r.u64()?;
    let dropped = r.u64()?;
    let sample_interval = read_opt(r, read_dur)?;
    let events = read_vec(r, |r| {
        Ok(StampedEvent {
            t_us: r.u64()?,
            seq: r.u64()?,
            event: read_telemetry_event(r)?,
        })
    })?;
    let counters = read_vec(r, |r| Ok((intern(r.str_()?), r.u64()?)))?;
    let hists = read_vec(r, |r| Ok((intern(r.str_()?), read_hist(r)?)))?;
    Ok(Telemetry::from_checkpoint(TelemetryCheckpoint {
        level,
        capacity,
        seq,
        dropped,
        sample_interval,
        events,
        counters,
        hists,
    }))
}

// ---------------------------------------------------------------------------
// Top-level encode / decode.
// ---------------------------------------------------------------------------

fn encode_all(world: &WorldState, parts: &EngineParts) -> Vec<u8> {
    let mut meta = ObjectWriter::new();
    meta.str_field("kind", "cocoa-run-snapshot")
        .u64_field("t_us", parts.now.as_micros())
        .u64_field("seed", world.scenario.seed)
        .u64_field("robots", world.scenario.num_robots as u64)
        .str_field("multicast", world.scenario.multicast.as_str());
    let mut w = SnapshotWriter::new(meta.finish());
    w.push_section("scenario", encode_scenario(&world.scenario));
    w.push_section("engine", encode_engine(parts));
    let mut rngs = Vec::new();
    put_vec(&mut rngs, &world.move_rngs, put_rng);
    put_vec(&mut rngs, &world.odo_rngs, put_rng);
    put_rng(&mut rngs, &world.channel_rng);
    put_rng(&mut rngs, &world.jitter_rng);
    put_rng(&mut rngs, &world.fault_rng);
    w.push_section("rngs", rngs);
    w.push_section("medium", encode_medium(&world.medium.state()));
    w.push_section("robots", encode_robots(&world.robots));
    w.push_section("world", encode_world(world));
    w.push_section("telemetry", encode_telemetry(&world.telemetry));
    debug_assert_eq!(w.section_count(), SECTIONS.len());
    w.finish()
}

/// Decodes snapshot bytes into a world and engine, ready to run.
///
/// When `tables` is `None` the calibration tables are recomputed from the
/// serialized scenario (deterministic: calibration consumes a dedicated
/// RNG stream derived only from the seed). Warm forks pass precomputed
/// tables instead — skipping calibration is where the sweep speedup
/// comes from.
fn decode(
    bytes: &[u8],
    tables: Option<(PdfTable, RadialConstraintTable)>,
) -> Result<(WorldState, Engine<Event>), SnapshotError> {
    let snap = Snapshot::parse(bytes)?;
    let scenario = {
        let mut r = snap.section("scenario")?;
        let s = decode_scenario(&mut r)?;
        r.finish()?;
        s
    };
    scenario
        .validate()
        .map_err(|e| malformed(format!("snapshot scenario fails validation: {e}")))?;

    let channel = RfChannel::new(scenario.channel);
    let (table, radial) = match tables {
        Some(t) => t,
        None => {
            let split = SeedSplitter::new(scenario.seed);
            let table = calibrate(
                &channel,
                &CalibrationConfig::default(),
                &mut split.stream("calibration", 0),
            );
            let radial = cocoa_localization::bayes::radial_constraints_for_grid(
                &table,
                &GridConfig::new(scenario.area, scenario.grid_resolution_m),
            );
            (table, radial)
        }
    };

    let parts = {
        let mut r = snap.section("engine")?;
        let p = decode_engine(&mut r)?;
        r.finish()?;
        p
    };

    let (move_rngs, odo_rngs, channel_rng, jitter_rng, fault_rng) = {
        let mut r = snap.section("rngs")?;
        let move_rngs = read_vec(&mut r, read_rng)?;
        let odo_rngs = read_vec(&mut r, read_rng)?;
        let channel_rng = read_rng(&mut r)?;
        let jitter_rng = read_rng(&mut r)?;
        let fault_rng = read_rng(&mut r)?;
        r.finish()?;
        if move_rngs.len() != scenario.num_robots || odo_rngs.len() != scenario.num_robots {
            return Err(malformed(format!(
                "rng stream counts ({}, {}) do not match the {}-robot scenario",
                move_rngs.len(),
                odo_rngs.len(),
                scenario.num_robots
            )));
        }
        (move_rngs, odo_rngs, channel_rng, jitter_rng, fault_rng)
    };

    let medium = {
        let mut r = snap.section("medium")?;
        let state = decode_medium(&mut r)?;
        r.finish()?;
        Medium::from_state(state)
    };

    let robots = {
        let mut r = snap.section("robots")?;
        let robots = decode_robots(&mut r, &scenario)?;
        r.finish()?;
        robots
    };

    let extras = {
        let mut r = snap.section("world")?;
        let e = decode_world(&mut r)?;
        r.finish()?;
        e
    };
    if extras.sync_robot >= scenario.num_robots {
        return Err(malformed(format!(
            "sync robot {} out of range for {} robots",
            extras.sync_robot, scenario.num_robots
        )));
    }
    if let Some(links) = &extras.burst {
        if links.len() != scenario.num_robots {
            return Err(malformed(format!(
                "burst overlay holds {} links for {} robots",
                links.len(),
                scenario.num_robots
            )));
        }
    }

    let mut telemetry = {
        let mut r = snap.section("telemetry")?;
        let t = decode_telemetry(&mut r)?;
        r.finish()?;
        t
    };
    let spans = SpanIds::register(&mut telemetry);
    let hists = events::HistIds::register(&mut telemetry);

    let world = WorldState {
        scenario,
        channel,
        table,
        radial,
        medium,
        robots,
        move_rngs,
        odo_rngs,
        channel_rng,
        jitter_rng,
        error_series: extras.error_series,
        snapshots: extras.snapshots,
        position_snapshots: extras.position_snapshots,
        traffic: extras.traffic,
        sync_robot: extras.sync_robot,
        max_guard: extras.max_guard,
        telemetry,
        spans,
        hists,
        next_robot_sample: extras.next_robot_sample,
        fault_rng,
        burst: extras.burst,
        corrupt_txs: extras.corrupt_txs,
        robustness: extras.robustness,
        sync_dead_windows: extras.sync_dead_windows,
    };
    let queue = EventQueue::from_parts(parts.events, parts.next_seq, parts.peak_len);
    let engine = Engine::from_parts(
        queue,
        parts.now,
        parts.horizon,
        parts.stopped,
        parts.processed,
    );
    Ok((world, engine))
}

// ---------------------------------------------------------------------------
// SimRun: the resumable run handle.
// ---------------------------------------------------------------------------

/// A simulation run that can be paused, serialized, restored and forked.
///
/// [`crate::runner::run`] is sugar for `SimRun::new(..).finish()`; the
/// extra surface here — [`SimRun::run_until`], [`SimRun::capture`],
/// [`SimRun::resume`], [`SimRun::warm_fork`] — is what the snapshot
/// subsystem adds.
pub struct SimRun {
    world: WorldState,
    engine: Engine<Event>,
    t_total: SpanStart,
}

impl SimRun {
    /// Builds a run positioned at time zero: scenario validated,
    /// calibration done, team placed, initial events scheduled.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation.
    pub fn new(scenario: &Scenario, telemetry: Telemetry) -> SimRun {
        let t_total = telemetry.span_start();
        let mut world = world::setup_world(scenario, telemetry);
        let engine = world::build_initial_schedule(&mut world);
        SimRun {
            world,
            engine,
            t_total,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The scenario this run is executing (for a resumed run, the one
    /// serialized in the snapshot).
    pub fn scenario(&self) -> &Scenario {
        &self.world.scenario
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Processes every event scheduled at or before `at`, then stops at
    /// that boundary. Events exactly at `at` are processed, so a
    /// subsequent [`SimRun::capture`] sits on a clean event-queue
    /// boundary. Returns early if the run finishes first.
    pub fn run_until(&mut self, at: SimTime) {
        while self.engine.next_event_time().is_some_and(|t| t <= at) {
            if !self.engine.step(&mut self.world, events::handle_event) {
                break;
            }
        }
    }

    /// Runs to the horizon and finalizes the metrics.
    pub fn finish(mut self) -> (RunMetrics, Telemetry) {
        let spans = self.world.spans;
        let t_loop = self.world.telemetry.span_start();
        self.engine.run(&mut self.world, events::handle_event);
        self.world.telemetry.span_end(spans.run_event_loop, t_loop);

        let t_finalize = self.world.telemetry.span_start();
        let horizon = self.engine.horizon();
        let metrics = metrics_hook::finalize(&mut self.world, &self.engine, horizon);
        self.world
            .telemetry
            .span_end(spans.run_finalize, t_finalize);
        self.world.telemetry.span_end(spans.run_total, self.t_total);
        (metrics, self.world.telemetry)
    }

    /// Serializes the complete run state at the current event boundary.
    ///
    /// The run is untouched and can keep running afterwards. The
    /// `SnapshotTaken` marker and the `snapshot.captures` counter are
    /// recorded on the bus *after* the bytes are serialized, so the
    /// snapshot never contains its own marker and a resumed run stays
    /// bit-identical to an uninterrupted one.
    pub fn capture(&mut self) -> Vec<u8> {
        let queue = self.engine.replace_queue(EventQueue::new());
        let next_seq = queue.next_seq();
        let peak_len = queue.peak_len();
        let events = queue.drain_sorted();
        let parts = EngineParts {
            now: self.engine.now(),
            horizon: self.engine.horizon(),
            stopped: self.engine.is_stopped(),
            processed: self.engine.events_processed(),
            next_seq,
            peak_len,
            events,
        };
        let bytes = encode_all(&self.world, &parts);
        let rebuilt = EventQueue::from_parts(parts.events, next_seq, peak_len);
        let _ = self.engine.replace_queue(rebuilt);

        let captures = self
            .world
            .telemetry
            .counters()
            .get("snapshot.captures")
            .unwrap_or(0);
        self.world
            .telemetry
            .absorb("snapshot.captures", captures + 1);
        self.world
            .telemetry
            .absorb("snapshot.bytes", bytes.len() as u64);
        self.world.telemetry.emit(
            self.engine.now(),
            TelemetryEvent::SnapshotTaken {
                bytes: bytes.len() as u64,
                sections: SECTIONS.len() as u32,
            },
        );
        bytes
    }

    /// Restores a run from [`SimRun::capture`] bytes, quietly: the
    /// telemetry bus comes back exactly as captured, with no restore
    /// marker. This is the path resume-equivalence tests and warm-start
    /// forks use, so the resumed trace is byte-identical to the
    /// uninterrupted one.
    pub fn resume(bytes: &[u8]) -> Result<SimRun, SnapshotError> {
        let (world, engine) = decode(bytes, None)?;
        let t_total = world.telemetry.span_start();
        Ok(SimRun {
            world,
            engine,
            t_total,
        })
    }

    /// Restores a run and records the restoration on the bus: a
    /// `SnapshotRestored` event plus the `snapshot.restores` counter.
    /// Operational resumes (`cocoa-run --resume`) use this; the marker
    /// makes restarts visible in timelines.
    pub fn resume_marked(bytes: &[u8]) -> Result<SimRun, SnapshotError> {
        let mut run = SimRun::resume(bytes)?;
        let restores = run
            .world
            .telemetry
            .counters()
            .get("snapshot.restores")
            .unwrap_or(0);
        run.world
            .telemetry
            .absorb("snapshot.restores", restores + 1);
        let now = run.engine.now();
        run.world.telemetry.emit(
            now,
            TelemetryEvent::SnapshotRestored {
                bytes: bytes.len() as u64,
            },
        );
        Ok(run)
    }

    /// Clones this run's calibration tables for reuse by
    /// [`SimRun::warm_fork`].
    pub fn calibration(&self) -> (PdfTable, RadialConstraintTable) {
        (self.world.table.clone(), self.world.radial.clone())
    }

    /// Forks a *time-zero* snapshot under a patched scenario.
    ///
    /// Sweeps capture the shared warm-up prefix — calibration done, team
    /// placed, RNG streams split — once per seed, then fork it for each
    /// sweep point instead of redoing that setup. Only fields that do not
    /// feed setup may differ from the snapshot's scenario: the beacon
    /// period, windowing, coordination flag, fault plan and similar
    /// schedule-side knobs. Setup-feeding fields (seed, area, team size,
    /// channel, energy, odometry, estimator, grid resolution and fusion,
    /// multicast, mesh config, clock skew, speed range) must match,
    /// because their effects are already baked into the captured state.
    ///
    /// The snapshot must have been captured at time zero with no events
    /// processed; anything later has already consumed schedule-dependent
    /// state and cannot be re-scheduled consistently.
    pub fn warm_fork(
        bytes: &[u8],
        scenario: &Scenario,
        table: PdfTable,
        radial: RadialConstraintTable,
        telemetry: Telemetry,
    ) -> Result<SimRun, SnapshotError> {
        let (mut world, engine) = decode(bytes, Some((table, radial)))?;
        if engine.now() != SimTime::ZERO || engine.events_processed() != 0 {
            return Err(malformed(
                "warm fork requires a snapshot captured at time zero with no events processed",
            ));
        }
        drop(engine);
        // Byte-compare the canonical immutable encodings instead of a
        // field-by-field check so this gate and the warm-artifact cache
        // key (`warm_fingerprint`) can never disagree about what counts
        // as setup-feeding.
        let compatible =
            encode_scenario_immutable(&world.scenario) == encode_scenario_immutable(scenario);
        if !compatible {
            return Err(malformed(
                "warm fork scenario changes a setup-feeding field (seed, area, team, \
                 channel, energy, odometry, estimator, grid, multicast, mesh or clock skew)",
            ));
        }
        scenario
            .validate()
            .map_err(|e| malformed(format!("warm fork scenario fails validation: {e}")))?;

        let mut telemetry = telemetry;
        let spans = SpanIds::register(&mut telemetry);
        let hists = events::HistIds::register(&mut telemetry);
        let t_total = telemetry.span_start();
        world.scenario = scenario.clone();
        world.max_guard = (scenario.beacon_period / 4).max(scenario.guard_band);
        world.telemetry = telemetry;
        world.spans = spans;
        world.hists = hists;
        world.next_robot_sample = None;
        let engine = world::build_initial_schedule(&mut world);
        Ok(SimRun {
            world,
            engine,
            t_total,
        })
    }
}

/// The scenario-immutable artifacts of one warm-fork family: the
/// calibration PDF table, the radial constraint table and the time-zero
/// snapshot bytes, split out of the per-run [`SimRun`] state so a
/// single build can be shared (`Arc<WarmArtifacts>`) across worker
/// threads and forked once per sweep point or served request.
///
/// The artifacts are keyed by [`warm_fingerprint`]: every scenario with
/// the same setup-feeding fields forks the same artifacts regardless of
/// its schedule-side knobs. `WarmArtifacts` is `Send + Sync` (asserted
/// below), which is what lets the serve layer and `run_warm_parallel`
/// hand one copy to many workers without cloning megabytes of tables.
#[derive(Clone)]
pub struct WarmArtifacts {
    snapshot: Vec<u8>,
    table: PdfTable,
    radial: RadialConstraintTable,
    fingerprint: u64,
}

impl WarmArtifacts {
    /// Builds the artifacts for `base`'s warm-fork family: runs the
    /// full setup (validation, RF calibration, team placement, RNG
    /// stream splits), captures the time-zero snapshot, and extracts
    /// the calibration tables.
    ///
    /// # Panics
    ///
    /// Panics if `base` fails validation (same contract as
    /// [`SimRun::new`]).
    pub fn build(base: &Scenario) -> WarmArtifacts {
        let mut run = SimRun::new(base, Telemetry::off());
        let snapshot = run.capture();
        let (table, radial) = run.calibration();
        WarmArtifacts {
            snapshot,
            table,
            radial,
            fingerprint: warm_fingerprint(base),
        }
    }

    /// The [`warm_fingerprint`] of the base scenario — the cache key
    /// under which these artifacts serve repeat traffic.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The captured time-zero snapshot bytes.
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snapshot
    }

    /// Whether `scenario` belongs to this artifact family (equal
    /// [`warm_fingerprint`]), i.e. whether [`WarmArtifacts::fork`] can
    /// serve it.
    pub fn compatible_with(&self, scenario: &Scenario) -> bool {
        self.fingerprint == warm_fingerprint(scenario)
    }

    /// Forks a run for `scenario` from the shared time-zero state,
    /// cloning the calibration tables instead of recomputing them. See
    /// [`SimRun::warm_fork`] for the compatibility contract.
    ///
    /// # Errors
    ///
    /// Fails when `scenario` changes a setup-feeding field or fails
    /// validation.
    pub fn fork(&self, scenario: &Scenario, telemetry: Telemetry) -> Result<SimRun, SnapshotError> {
        SimRun::warm_fork(
            &self.snapshot,
            scenario,
            self.table.clone(),
            self.radial.clone(),
            telemetry,
        )
    }
}

// The whole point of the artifact split: runs and artifacts must hand
// off cleanly across worker threads. Compile-time, not a test, so a
// regression (e.g. an Rc sneaking into WorldState) fails every build.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<SimRun>();
    assert_send_sync::<WarmArtifacts>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_point() -> impl Strategy<Value = Point> {
        (0.0f64..200.0, 0.0f64..200.0).prop_map(|(x, y)| Point::new(x, y))
    }

    fn arb_stats() -> impl Strategy<Value = WindowStats> {
        (
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(|(w, f, fl, seen, applied, rejected)| WindowStats {
                windows: u32::from(w),
                fixes: u32::from(f),
                flat_windows: u32::from(fl),
                beacons_seen: u64::from(seen),
                beacons_applied: u64::from(applied),
                beacons_rejected_outlier: u64::from(rejected),
            })
    }

    fn arb_backend() -> impl Strategy<Value = BackendCheckpoint> {
        let bayes = (
            proptest::collection::vec(0.0f64..1.0, 0..64),
            proptest::collection::vec(
                (arb_point(), -120i16..0).prop_map(|(p, b)| (p, RssiBin(b))),
                0..4,
            ),
            any::<u8>(),
            any::<u8>(),
        )
            .prop_map(|(cells, pending, applied, seen)| BackendCheckpoint::Bayes {
                posterior_cells: cells,
                pending,
                grid_stats: GridStats::default(),
                beacons_applied: u32::from(applied),
                beacons_seen: u32::from(seen),
            });
        let lateration = proptest::collection::vec(
            (arb_point(), 0.1f64..300.0, 0.01f64..10.0).prop_map(|(anchor, range, weight)| {
                RangeObservation {
                    anchor,
                    range,
                    weight,
                }
            }),
            0..8,
        )
        .prop_map(|ranges| BackendCheckpoint::Lateration { ranges });
        let ekf = (
            arb_point(),
            (1e-9f64..1e4, 1e-9f64..1e4, -10.0f64..10.0),
            (any::<u32>(), any::<u32>(), any::<u16>(), 0u32..8),
            prop_oneof![Just(None), arb_point().prop_map(Some)],
        )
            .prop_map(|(mean, (p11, p22, p12), (ua, ug, cg, wa), last_odo)| {
                BackendCheckpoint::Ekf {
                    filter: EkfSnapshot {
                        x: mean.x,
                        y: mean.y,
                        p11,
                        p12,
                        p22,
                        updates_applied: u64::from(ua),
                        updates_gated: u64::from(ug),
                        consecutive_gated: u32::from(cg),
                    },
                    window_applied: wa,
                    last_odo,
                }
            });
        prop_oneof![bayes, lateration, ekf]
    }

    proptest! {
        /// The estimator section round-trips byte-exactly for every
        /// backend variant: encode → decode → re-encode reproduces both
        /// the checkpoint struct and the original bytes.
        #[test]
        fn estimator_section_round_trips_byte_exactly(
            backend in arb_backend(),
            stats in arb_stats(),
            last_fix in prop_oneof![Just(None), arb_point().prop_map(Some)],
            in_window in any::<bool>(),
        ) {
            let checkpoint = EstimatorCheckpoint {
                last_fix,
                in_window,
                stats,
                backend,
            };
            let mut bytes = Vec::new();
            put_estimator(&mut bytes, &checkpoint);
            let mut reader = SnapshotReader::new(&bytes, "test");
            let decoded = read_estimator(&mut reader).expect("own bytes must decode");
            prop_assert_eq!(reader.remaining(), 0, "decoder must consume the section");
            prop_assert_eq!(&decoded, &checkpoint);
            let mut again = Vec::new();
            put_estimator(&mut again, &decoded);
            prop_assert_eq!(again, bytes, "re-encode must be byte-identical");
        }
    }

    /// Every `ScenarioBuilder` field must perturb the fingerprint: a
    /// silently-unhashed field would let two different scenarios share a
    /// cache slot and serve each other's results. Knob fields are
    /// perturbed by their table examples; the rest are listed here.
    #[test]
    fn every_builder_field_perturbs_the_fingerprint() {
        use crate::knobs::{example_forms, KNOBS};
        use crate::scenario::ScenarioBuilder;
        use crate::serve::{parse_spec, request_fingerprint, ServeRequest};
        // A new field breaks this destructure until it is classified:
        // give it a knob row, or an explicit entry below.
        let Scenario {
            // Knob rows.
            seed: _,
            num_robots: _,
            num_equipped: _,
            duration: _,
            beacon_period: _,
            transmit_window: _,
            beacons_per_window: _,
            v_min: _,
            v_max: _,
            mode: _,
            rf_algorithm: _,
            coordination: _,
            grid_resolution_m: _,
            multicast: _,
            sync_enabled: _,
            clock_skew_ppm: _,
            guard_band: _,
            snapshot_times: _,
            packet_loss: _,
            relay_beaconing: _,
            faults: _,
            failover_missed_periods: _,
            entropy_watchdog_frac: _,
            outlier_gate_m: _,
            grid_fused: _,
            // Explicit entries.
            area: _,
            channel: _,
            energy: _,
            odometry: _,
            mesh: _,
            // Fixed by the builder: no setter can change them.
            tick: _,
            metrics_interval: _,
            relay_max_fix_age_windows: _,
        } = Scenario::builder().build();
        type Tweak = fn(&mut ScenarioBuilder);
        let explicit: [(&str, Tweak); 5] = [
            ("area", |b| {
                b.area(Area::square(300.0));
            }),
            ("channel", |b| {
                b.channel(ChannelParams {
                    tx_power_dbm: 18.0,
                    ..ChannelParams::default()
                });
            }),
            ("energy", |b| {
                b.energy(EnergyParams {
                    idle_mw: 901.0,
                    ..EnergyParams::default()
                });
            }),
            ("odometry", |b| {
                b.odometry(OdometryConfig {
                    displacement_sigma: 0.17,
                    ..OdometryConfig::default()
                });
            }),
            ("mesh", |b| {
                b.mesh(OdmrpConfig {
                    max_hops: 9,
                    ..OdmrpConfig::default()
                });
            }),
        ];
        let mut requests = vec![("default", parse_spec("{}").expect("empty spec"))];
        for knob in KNOBS {
            let (spec, _) = example_forms(knob);
            let request = parse_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            requests.push((knob.key, request));
        }
        for (name, tweak) in explicit {
            let mut b = Scenario::builder();
            tweak(&mut b);
            let scenario = b
                .try_build()
                .unwrap_or_else(|e| panic!("perturbation '{name}' must stay valid: {e}"));
            requests.push((
                name,
                ServeRequest {
                    scenario,
                    telemetry: TelemetryLevel::Off,
                    sample_interval: None,
                },
            ));
        }
        let mut seen: Vec<(&str, u64)> = Vec::new();
        for (name, request) in &requests {
            let fp = request_fingerprint(request);
            for (other, other_fp) in &seen {
                assert_ne!(
                    fp, *other_fp,
                    "field '{name}' collides with '{other}': the field is not hashed"
                );
            }
            seen.push((name, fp));
        }
    }

    /// The `ALL` lists double as codec tags: reordering one would
    /// silently reinterpret every stored snapshot.
    #[test]
    fn codec_tag_orders_are_pinned() {
        use EstimatorMode::*;
        use MulticastProtocol::*;
        use RfAlgorithm::*;
        assert_eq!(EstimatorMode::ALL, [OdometryOnly, RfOnly, Cocoa]);
        assert_eq!(RfAlgorithm::ALL, [Bayes, Multilateration, Ekf]);
        assert_eq!(MulticastProtocol::ALL, [Flood, Odmrp, Mrmm]);
    }

    /// Persisted `--state-dir` jobs and sweep manifests are keyed by these
    /// fingerprints, so a codec refactor must not move them.
    #[test]
    fn fingerprints_are_pinned() {
        let default = Scenario::builder().build();
        let template = crate::serve::parse_spec(&crate::serve::example_spec())
            .expect("the template parses")
            .scenario;
        let pinned = [
            scenario_fingerprint(&default),
            warm_fingerprint(&default),
            scenario_fingerprint(&template),
            warm_fingerprint(&template),
        ]
        .map(|fp| format!("{fp:016x}"));
        assert_eq!(
            pinned,
            [
                "d6c66ec1000001a2",
                "9572b99d00000137",
                "c7509b99000001a2",
                "6bb593b800000137"
            ]
        );
    }

    /// The codec version participates in the hash, so fingerprints from
    /// one snapshot schema never match another's: an artifact cache
    /// built under one schema cannot serve a request under the next.
    #[test]
    fn fingerprints_are_schema_versioned() {
        use cocoa_sim::snapshot::SNAPSHOT_SCHEMA_VERSION;
        let s = Scenario::builder().build();
        let full = encode_scenario(&s);
        let immutable = encode_scenario_immutable(&s);
        assert_eq!(
            scenario_fingerprint(&s),
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION)
        );
        assert_eq!(
            warm_fingerprint(&s),
            versioned_fingerprint(&immutable, SNAPSHOT_SCHEMA_VERSION)
        );
        assert_ne!(
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION),
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION + 1),
            "a codec bump must change every scenario fingerprint"
        );
        assert_ne!(
            versioned_fingerprint(&immutable, SNAPSHOT_SCHEMA_VERSION),
            versioned_fingerprint(&immutable, SNAPSHOT_SCHEMA_VERSION + 1),
            "a codec bump must change every warm fingerprint"
        );
    }

    /// The warm fingerprint tracks only setup-feeding fields: schedule
    /// knobs fork the same artifacts, setup knobs do not.
    #[test]
    fn warm_fingerprint_ignores_schedule_side_fields() {
        let base = Scenario::builder().build();
        let schedule = Scenario::builder()
            .beacon_period(SimDuration::from_secs(50))
            .duration(SimDuration::from_secs(600))
            .coordination(false)
            .build();
        assert_eq!(
            warm_fingerprint(&base),
            warm_fingerprint(&schedule),
            "schedule-side fields must not split the warm-artifact family"
        );
        assert_ne!(
            scenario_fingerprint(&base),
            scenario_fingerprint(&schedule),
            "the full fingerprint must still tell the requests apart"
        );
        let setup = Scenario::builder().seed(7).build();
        // Fusion picks how each robot's estimator is built at setup, so a
        // fork cannot switch it on a snapshot taken without it.
        let fused = Scenario::builder().grid_fused(true).build();
        for (name, other) in [("seed", &setup), ("grid_fused", &fused)] {
            assert_ne!(
                warm_fingerprint(&base),
                warm_fingerprint(other),
                "setup-feeding field '{name}' must split the family"
            );
        }
        // The compatibility gate agrees with the cache key, both ways.
        let artifacts = WarmArtifacts::build(&base);
        assert!(artifacts.compatible_with(&schedule));
        assert!(artifacts.fork(&schedule, Telemetry::off()).is_ok());
        for other in [&setup, &fused] {
            assert!(!artifacts.compatible_with(other));
            assert!(artifacts.fork(other, Telemetry::off()).is_err());
        }
    }
}
