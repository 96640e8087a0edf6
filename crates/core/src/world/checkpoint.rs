//! Deterministic run snapshots: capture a run at any event boundary and
//! restore it bit-identically.
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
//! Every layout is one function generic over [`Codec`], run by the writer
//! at capture and by the reader at restore, so the two directions cannot
//! drift apart. A value the reader can rebuild from the scenario, a code
//! constant or the medium is not stored: the reader starts each robot
//! from `world::blank_robot`, which sets everything the scenario fixes,
//! and decodes the rest onto it. The reader then checks what the CRCs
//! cannot: that the snapshot is consistent with its own scenario (team
//! size, grid, robot indices, clock order), so a well-formed but edited
//! file is a typed error instead of a panic mid-run.
//!
//! Two consumers build on this module:
//!
//! - `cocoa-run --snapshot-at/--resume` and checkpointed sweeps:
//!   operational save/restore;
//! - `cocoa-trace bisect` + [`cocoa_sim::snapshot::Snapshot::diff`]:
//!   divergence localization between two runs.

use std::sync::Arc;

use bytes::Bytes;

use cocoa_localization::backend::BackendCheckpoint;
use cocoa_localization::estimator::{
    EstimatorCheckpoint, EstimatorMode, RfAlgorithm, WindowStats, WindowedRfEstimator,
};
use cocoa_localization::grid::GridConfig;
use cocoa_mobility::motion::RobotMotion;
use cocoa_mobility::odometry::{Odometer, OdometerCheckpoint, OdometryConfig};
use cocoa_mobility::pose::Pose;
use cocoa_mobility::waypoint::{WaypointCheckpoint, WaypointModel};
use cocoa_multicast::odmrp::OdmrpConfig;
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_net::channel::{ChannelParams, PathLossModel};
use cocoa_net::energy::{EnergyLedger, EnergyParams, PowerState};
use cocoa_net::geometry::{Area, Point};
use cocoa_net::mac::{Frame, Medium, MediumState, TxId};
use cocoa_net::packet::{NodeId, Packet, Payload};
use cocoa_net::radio::{Radio, RadioCheckpoint};
use cocoa_sim::engine::Engine;
use cocoa_sim::event::EventQueue;
use cocoa_sim::faults::{Fault, FaultEvent, FaultPlan, GilbertElliott, GilbertElliottLink};
use cocoa_sim::jsonfmt::ObjectWriter;
use cocoa_sim::rng::DetRng;
use cocoa_sim::snapshot::{self, Codec, Snapshot, SnapshotError, SnapshotWriter};
use cocoa_sim::telemetry::hist::{HistSnapshot, NUM_BUCKETS};
use cocoa_sim::telemetry::{
    SpanStart, Telemetry, TelemetryCheckpoint, TelemetryEvent, TelemetryLevel,
};
use cocoa_sim::time::{SimDuration, SimTime};

use crate::health::{DegradationState, HealthLedger};
use crate::metrics::{
    ErrorPoint, ErrorSnapshot, RobotFinalState, RobustnessStats, RunMetrics, TrafficStats,
};
use crate::robot::Robot;
use crate::scenario::Scenario;
use crate::world::events::{Event, SpanIds, TxIntent};
use crate::world::{self, events, mesh, metrics_hook, Calibration, WorldState, SYNC_GROUP};

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

fn malformed(context: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        context: context.into(),
    }
}

// ---------------------------------------------------------------------------
// Codec tag orders: one ordered list per tagged enum. A list of data-
// carrying variants holds placeholders; its order is the wire tag.
// ---------------------------------------------------------------------------

const PATH_LOSS_MODELS: [PathLossModel; 2] = [
    PathLossModel::LogDistance { exponent: 0.0 },
    PathLossModel::TwoRayGround {
        antenna_height_m: 0.0,
        wavelength_m: 0.0,
    },
];
const POWER_STATES: [PowerState; 3] = [PowerState::Off, PowerState::Sleep, PowerState::Idle];
const DEGRADATION_STATES: [DegradationState; 4] = [
    DegradationState::Healthy,
    DegradationState::Degraded,
    DegradationState::DeadReckoning,
    DegradationState::Down,
];
const TELEMETRY_LEVELS: [TelemetryLevel; 4] = [
    TelemetryLevel::Off,
    TelemetryLevel::Counters,
    TelemetryLevel::Timeline,
    TelemetryLevel::Full,
];

const GILBERT: GilbertElliott = GilbertElliott {
    p_enter_bad: 0.0,
    p_exit_bad: 0.0,
    loss_good: 0.0,
    loss_bad: 0.0,
};
const FAULTS: [Fault; 9] = [
    Fault::Crash { robot: 0 },
    Fault::Reboot { robot: 0 },
    Fault::ClockSkewStep {
        robot: 0,
        delta_ppm: 0.0,
    },
    Fault::GarbleTxStart { robot: 0 },
    Fault::GarbleTxEnd { robot: 0 },
    Fault::BeaconOffsetStart {
        robot: 0,
        dx_m: 0.0,
        dy_m: 0.0,
    },
    Fault::BeaconOffsetEnd { robot: 0 },
    Fault::BurstLossStart { model: GILBERT },
    Fault::BurstLossEnd,
];

static TX_INTENTS: [TxIntent; 2] = [
    TxIntent::Beacon,
    TxIntent::Mesh(Packet {
        src: NodeId(0),
        seq: 0,
        payload: Payload::Beacon {
            position: Point { x: 0.0, y: 0.0 },
        },
    }),
];
static EVENTS: [Event; 12] = [
    Event::MoveTick,
    Event::MetricsSample,
    Event::WindowStart { index: 0 },
    Event::RobotWake {
        robot: 0,
        window: 0,
        epoch: 0,
    },
    Event::RobotWindowEnd {
        robot: 0,
        window: 0,
        epoch: 0,
    },
    Event::Transmit {
        robot: 0,
        intent: TxIntent::Beacon,
    },
    Event::TxEnd {
        tx: TxId::from_raw(0),
    },
    Event::MeshReply {
        robot: 0,
        source: NodeId(0),
    },
    Event::MeshRebroadcast {
        robot: 0,
        source: NodeId(0),
        seq: 0,
    },
    Event::MediumGc,
    Event::Snapshot { index: 0 },
    Event::Fault(Fault::BurstLossEnd),
];

static TELEMETRY_EVENTS: [TelemetryEvent; 18] = [
    TelemetryEvent::WindowStart { window: 0 },
    TelemetryEvent::BeaconTx {
        robot: 0,
        x_m: 0.0,
        y_m: 0.0,
    },
    TelemetryEvent::BeaconRx {
        robot: 0,
        from: 0,
        rssi_dbm: 0.0,
        outcome: "",
    },
    TelemetryEvent::GridUpdate { robot: 0 },
    TelemetryEvent::Fix {
        robot: 0,
        window: 0,
        x_m: 0.0,
        y_m: 0.0,
        err_m: 0.0,
    },
    TelemetryEvent::FlatPosterior {
        robot: 0,
        window: 0,
        entropy: 0.0,
        threshold: 0.0,
    },
    TelemetryEvent::StarvedWindow {
        robot: 0,
        window: 0,
    },
    TelemetryEvent::SyncDelivered {
        robot: 0,
        window: 0,
    },
    TelemetryEvent::SyncMissed {
        robot: 0,
        window: 0,
    },
    TelemetryEvent::Failover { new_sync: 0 },
    TelemetryEvent::MeshPrune {
        robot: 0,
        source: 0,
        seq: 0,
    },
    TelemetryEvent::RadioState {
        robot: 0,
        state: "",
    },
    TelemetryEvent::FaultInjected {
        kind: "",
        robot: None,
    },
    TelemetryEvent::HealthTransition {
        robot: 0,
        state: "",
    },
    TelemetryEvent::RobotSample {
        robot: 0,
        true_x_m: 0.0,
        true_y_m: 0.0,
        est_x_m: 0.0,
        est_y_m: 0.0,
        err_m: 0.0,
        entropy_frac: None,
        energy_j: 0.0,
        radio: "",
        health: "",
    },
    TelemetryEvent::TeamSample {
        mean_err_m: 0.0,
        robots: 0,
        energy_j: 0.0,
    },
    TelemetryEvent::SnapshotTaken {
        bytes: 0,
        sections: 0,
    },
    TelemetryEvent::SnapshotRestored { bytes: 0 },
];

// ---------------------------------------------------------------------------
// Layouts shared by every section, the sweep manifest and the mesh state.
// ---------------------------------------------------------------------------

/// An instant as whole microseconds.
pub(crate) fn time(c: &mut impl Codec, t: &mut SimTime) -> Result<(), SnapshotError> {
    c.via(
        t,
        |t| t.as_micros(),
        Codec::u64,
        |us| Ok(SimTime::from_micros(us)),
    )
}

fn dur(c: &mut impl Codec, d: &mut SimDuration) -> Result<(), SnapshotError> {
    c.via(
        d,
        |d| d.as_micros(),
        Codec::u64,
        |us| Ok(SimDuration::from_micros(us)),
    )
}

fn point(c: &mut impl Codec, p: &mut Point) -> Result<(), SnapshotError> {
    c.f64(&mut p.x)?;
    c.f64(&mut p.y)
}

fn pose(c: &mut impl Codec, p: &mut Pose) -> Result<(), SnapshotError> {
    point(c, &mut p.position)?;
    c.f64(&mut p.heading)
}

/// A node id as its `u32`.
pub(crate) fn node(c: &mut impl Codec, n: &mut NodeId) -> Result<(), SnapshotError> {
    c.u32(&mut n.0)
}

fn tx_id(c: &mut impl Codec, t: &mut TxId) -> Result<(), SnapshotError> {
    c.via(t, |t| t.raw(), Codec::u64, |raw| Ok(TxId::from_raw(raw)))
}

fn packet(c: &mut impl Codec, p: &mut Packet) -> Result<(), SnapshotError> {
    c.via(
        p,
        |p| p.encode().to_vec(),
        Codec::bytes,
        |raw| {
            Packet::decode(Bytes::from(raw))
                .map_err(|e| malformed(format!("undecodable packet in snapshot: {e:?}")))
        },
    )
}

/// An RNG stream's four state words; the all-zero state is rejected.
fn rng(c: &mut impl Codec, r: &mut DetRng) -> Result<(), SnapshotError> {
    c.via(
        r,
        DetRng::state,
        |c, words| words.iter_mut().try_for_each(|w| c.u64(w)),
        |words| match words {
            [0, 0, 0, 0] => Err(malformed("rng stream has the all-zero state")),
            _ => Ok(DetRng::from_state(words)),
        },
    )
}

pub(crate) fn energy_ledger(c: &mut impl Codec, l: &mut EnergyLedger) -> Result<(), SnapshotError> {
    c.f64s([
        &mut l.tx_uj,
        &mut l.rx_uj,
        &mut l.idle_uj,
        &mut l.sleep_uj,
        &mut l.wake_uj,
    ])
}

pub(crate) fn health_ledger(c: &mut impl Codec, l: &mut HealthLedger) -> Result<(), SnapshotError> {
    c.f64s([
        &mut l.healthy_s,
        &mut l.degraded_s,
        &mut l.dead_reckoning_s,
        &mut l.down_s,
    ])
}

pub(crate) fn traffic(c: &mut impl Codec, t: &mut TrafficStats) -> Result<(), SnapshotError> {
    c.u64s([
        &mut t.beacons_sent,
        &mut t.beacons_received,
        &mut t.collisions,
        &mut t.syncs_delivered,
        &mut t.syncs_missed,
        &mut t.fixes,
        &mut t.starved_windows,
    ])
}

pub(crate) fn robustness(c: &mut impl Codec, r: &mut RobustnessStats) -> Result<(), SnapshotError> {
    c.u64s([
        &mut r.crashes,
        &mut r.reboots,
        &mut r.failovers,
        &mut r.burst_losses,
        &mut r.corrupt_frames_dropped,
        &mut r.garbled_frames_delivered,
        &mut r.outlier_beacons_rejected,
        &mut r.flat_posteriors,
        &mut r.stale_syncs_ignored,
        &mut r.malformed_sync_bodies,
    ])
}

pub(crate) fn error_point(c: &mut impl Codec, p: &mut ErrorPoint) -> Result<(), SnapshotError> {
    c.f64(&mut p.t_s)?;
    c.f64(&mut p.mean_error_m)?;
    c.usize(&mut p.robots)
}

/// Stored sorted, as an [`ErrorSnapshot`] keeps it, so the reader does
/// not re-sort (a re-sort could reorder NaNs and break byte-exactness).
pub(crate) fn error_snapshot(
    c: &mut impl Codec,
    s: &mut ErrorSnapshot,
) -> Result<(), SnapshotError> {
    time(c, &mut s.time)?;
    c.vec(&mut s.errors_m, Codec::f64)
}

pub(crate) fn final_state(
    c: &mut impl Codec,
    s: &mut RobotFinalState,
) -> Result<(), SnapshotError> {
    point(c, &mut s.true_position)?;
    point(c, &mut s.estimate)?;
    c.bool(&mut s.equipped)
}

pub(crate) fn position_snapshot(
    c: &mut impl Codec,
    (t, states): &mut (SimTime, Vec<RobotFinalState>),
) -> Result<(), SnapshotError> {
    time(c, t)?;
    c.vec(states, final_state)
}

// ---------------------------------------------------------------------------
// Scenario section.
// ---------------------------------------------------------------------------

fn channel(c: &mut impl Codec, p: &mut ChannelParams) -> Result<(), SnapshotError> {
    c.f64(&mut p.tx_power_dbm)?;
    c.f64(&mut p.path_loss_1m_db)?;
    c.tag(&PATH_LOSS_MODELS, &mut p.path_loss, "path-loss model")?;
    match &mut p.path_loss {
        PathLossModel::LogDistance { exponent } => c.f64(exponent)?,
        PathLossModel::TwoRayGround {
            antenna_height_m,
            wavelength_m,
        } => {
            c.f64(antenna_height_m)?;
            c.f64(wavelength_m)?;
        }
    }
    c.f64s([
        &mut p.shadowing_sigma_db,
        &mut p.shadowing_sigma_slope_db_per_m,
        &mut p.multipath_onset_m,
        &mut p.multipath_fade_prob,
        &mut p.multipath_fade_mean_db,
        &mut p.sensitivity_dbm,
    ])
}

fn energy(c: &mut impl Codec, e: &mut EnergyParams) -> Result<(), SnapshotError> {
    c.f64s([
        &mut e.idle_mw,
        &mut e.sleep_mw,
        &mut e.tx_uj_per_byte,
        &mut e.tx_uj_fixed,
        &mut e.rx_uj_per_byte,
        &mut e.rx_uj_fixed,
        &mut e.wake_uj,
    ])
}

fn gilbert(c: &mut impl Codec, m: &mut GilbertElliott) -> Result<(), SnapshotError> {
    c.f64s([
        &mut m.p_enter_bad,
        &mut m.p_exit_bad,
        &mut m.loss_good,
        &mut m.loss_bad,
    ])
}

fn fault(c: &mut impl Codec, f: &mut Fault) -> Result<(), SnapshotError> {
    c.tag(&FAULTS, f, "fault")?;
    match f {
        Fault::Crash { robot }
        | Fault::Reboot { robot }
        | Fault::GarbleTxStart { robot }
        | Fault::GarbleTxEnd { robot }
        | Fault::BeaconOffsetEnd { robot } => c.usize(robot),
        Fault::ClockSkewStep { robot, delta_ppm } => {
            c.usize(robot)?;
            c.f64(delta_ppm)
        }
        Fault::BeaconOffsetStart { robot, dx_m, dy_m } => {
            c.usize(robot)?;
            c.f64(dx_m)?;
            c.f64(dy_m)
        }
        Fault::BurstLossStart { model } => gilbert(c, model),
        Fault::BurstLossEnd => Ok(()),
    }
}

fn fault_plan(c: &mut impl Codec, plan: &mut FaultPlan) -> Result<(), SnapshotError> {
    c.via(
        plan,
        |plan| plan.events().to_vec(),
        |c, events| {
            c.vec(events, |c, e: &mut FaultEvent| {
                time(c, &mut e.at)?;
                fault(c, &mut e.fault)
            })
        },
        |events| {
            let mut plan = FaultPlan::new();
            for e in events {
                plan.schedule(e.at, e.fault);
            }
            Ok(plan)
        },
    )
}

fn area(c: &mut impl Codec, a: &mut Area) -> Result<(), SnapshotError> {
    c.f64s([&mut a.x_min, &mut a.x_max, &mut a.y_min, &mut a.y_max])
}

fn odometry(c: &mut impl Codec, o: &mut OdometryConfig) -> Result<(), SnapshotError> {
    c.f64(&mut o.displacement_sigma)?;
    c.f64(&mut o.angular_sigma)?;
    c.f64(&mut o.heading_drift_sigma)
}

fn mesh_config(c: &mut impl Codec, m: &mut OdmrpConfig) -> Result<(), SnapshotError> {
    c.u8(&mut m.max_hops)?;
    dur(c, &mut m.fg_timeout)?;
    dur(c, &mut m.reply_delay)?;
    dur(c, &mut m.rebroadcast_jitter)?;
    c.f64(&mut m.range_m)?;
    c.f64(&mut m.lifetime_horizon_s)?;
    c.f64(&mut m.prune.min_lifetime_s)?;
    c.u32(&mut m.prune.redundancy_threshold)?;
    dur(c, &mut m.dedup_retention)
}

fn scenario_section(c: &mut impl Codec, s: &mut Scenario) -> Result<(), SnapshotError> {
    c.u64(&mut s.seed)?;
    area(c, &mut s.area)?;
    c.usize(&mut s.num_robots)?;
    c.usize(&mut s.num_equipped)?;
    dur(c, &mut s.duration)?;
    dur(c, &mut s.beacon_period)?;
    dur(c, &mut s.transmit_window)?;
    c.u32(&mut s.beacons_per_window)?;
    c.f64(&mut s.v_min)?;
    c.f64(&mut s.v_max)?;
    c.tag(&EstimatorMode::ALL, &mut s.mode, "estimator mode")?;
    c.tag(&RfAlgorithm::ALL, &mut s.rf_algorithm, "rf algorithm")?;
    c.bool(&mut s.coordination)?;
    c.f64(&mut s.grid_resolution_m)?;
    channel(c, &mut s.channel)?;
    energy(c, &mut s.energy)?;
    odometry(c, &mut s.odometry)?;
    mesh_config(c, &mut s.mesh)?;
    c.tag(&MulticastProtocol::ALL, &mut s.multicast, "multicast")?;
    c.bool(&mut s.sync_enabled)?;
    c.f64(&mut s.clock_skew_ppm)?;
    dur(c, &mut s.guard_band)?;
    dur(c, &mut s.tick)?;
    dur(c, &mut s.metrics_interval)?;
    c.vec(&mut s.snapshot_times, time)?;
    c.f64(&mut s.packet_loss)?;
    c.bool(&mut s.relay_beaconing)?;
    c.u64(&mut s.relay_max_fix_age_windows)?;
    fault_plan(c, &mut s.faults)?;
    c.u32(&mut s.failover_missed_periods)?;
    c.f64(&mut s.entropy_watchdog_frac)?;
    c.f64(&mut s.outlier_gate_m)
}

fn encode_scenario(s: &Scenario) -> Vec<u8> {
    snapshot::encode(|c| scenario_section(c, &mut s.clone()))
}

/// CRC-fingerprints `payload` under the given codec version: the high
/// 32 bits are the CRC-32 of the version-prefixed payload, the low 32
/// bits its length. Prefixing the version means fingerprints computed
/// by different snapshot schemas never collide, so caches keyed by a
/// fingerprint (serve results, sweep manifests) cannot cross-serve stale
/// state after a codec bump.
fn versioned_fingerprint(payload: &[u8], version: u32) -> u64 {
    let mut buf = Vec::with_capacity(payload.len() + 4);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(payload);
    (u64::from(snapshot::crc32(&buf)) << 32) | buf.len() as u64
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
    versioned_fingerprint(&encode_scenario(s), snapshot::SNAPSHOT_SCHEMA_VERSION)
}

// ---------------------------------------------------------------------------
// Engine section (clock + pending event queue).
// ---------------------------------------------------------------------------

fn event(c: &mut impl Codec, e: &mut Event) -> Result<(), SnapshotError> {
    c.tag(&EVENTS, e, "event")?;
    match e {
        Event::MoveTick | Event::MetricsSample | Event::MediumGc => Ok(()),
        Event::WindowStart { index } => c.u64(index),
        Event::RobotWake {
            robot,
            window,
            epoch,
        }
        | Event::RobotWindowEnd {
            robot,
            window,
            epoch,
        } => {
            c.usize(robot)?;
            c.u64(window)?;
            c.u32(epoch)
        }
        Event::Transmit { robot, intent } => {
            c.usize(robot)?;
            c.tag(&TX_INTENTS, intent, "tx intent")?;
            match intent {
                TxIntent::Beacon => Ok(()),
                TxIntent::Mesh(p) => packet(c, p),
            }
        }
        Event::TxEnd { tx } => tx_id(c, tx),
        Event::MeshReply { robot, source } => {
            c.usize(robot)?;
            node(c, source)
        }
        Event::MeshRebroadcast { robot, source, seq } => {
            c.usize(robot)?;
            node(c, source)?;
            c.u32(seq)
        }
        Event::Snapshot { index } => c.usize(index),
        Event::Fault(f) => fault(c, f),
    }
}

/// The engine's clock, counters and pending queue, moved out of the
/// engine for the capture and back in afterwards. The horizon is the
/// scenario's end, so it is not stored.
#[derive(Default)]
struct EngineParts {
    now: SimTime,
    stopped: bool,
    processed: u64,
    next_seq: u64,
    peak_len: usize,
    events: Vec<(SimTime, u64, Event)>,
}

fn engine_section(c: &mut impl Codec, p: &mut EngineParts) -> Result<(), SnapshotError> {
    time(c, &mut p.now)?;
    c.bool(&mut p.stopped)?;
    c.u64(&mut p.processed)?;
    c.u64(&mut p.next_seq)?;
    c.usize(&mut p.peak_len)?;
    c.vec(&mut p.events, |c, (t, seq, e)| {
        time(c, t)?;
        c.u64(seq)?;
        event(c, e)
    })
}

/// What `EventQueue::from_parts` and the event handlers would otherwise
/// assert, index or overflow on, checked so an edited section is a typed
/// error: every queued event is due at or after the clock and names a
/// robot of the team, a window of the run (a window start exactly at its
/// boundary) or a scheduled snapshot.
fn check_engine(p: &EngineParts, s: &Scenario) -> Result<(), SnapshotError> {
    let n = s.num_robots;
    let period = s.beacon_period.as_micros();
    let last_window = (s.duration.as_micros() / period).saturating_add(1);
    let bad_event = p.events.iter().find(|(t, seq, e)| {
        let consistent = match e {
            Event::WindowStart { index } => period.checked_mul(*index) == Some(t.as_micros()),
            Event::RobotWake { robot, window, .. }
            | Event::RobotWindowEnd { robot, window, .. } => *robot < n && *window <= last_window,
            Event::Transmit { robot, .. }
            | Event::MeshReply { robot, .. }
            | Event::MeshRebroadcast { robot, .. } => *robot < n,
            Event::Fault(f) => f.robot().is_none_or(|r| r < n),
            Event::Snapshot { index } => *index < s.snapshot_times.len(),
            Event::MoveTick | Event::MetricsSample | Event::MediumGc | Event::TxEnd { .. } => true,
        };
        !consistent || *seq >= p.next_seq || *t < p.now
    });
    if p.peak_len >= p.events.len() && bad_event.is_none() {
        return Ok(());
    }
    Err(malformed(format!(
        "engine state inconsistent with the {n}-robot scenario ending at {}: \
         clock {}, next seq {}, queue peak {} for {} events, first bad event {bad_event:?}",
        SimTime::ZERO + s.duration,
        p.now,
        p.next_seq,
        p.peak_len,
        p.events.len()
    )))
}

/// The team-size consistency no single section can check: one robot, two
/// RNG streams and (while a burst overlay is active) one link per team
/// member, a sync robot of the team, one error snapshot per snapshot time.
fn check_world(w: &WorldState) -> Result<(), SnapshotError> {
    let s = &w.scenario;
    let n = s.num_robots;
    let burst = w.burst.as_ref().map_or(n, Vec::len);
    let counts = [w.robots.len(), w.move_rngs.len(), w.odo_rngs.len(), burst];
    if counts == [n; 4] && w.sync_robot < n && w.snapshots.len() == s.snapshot_times.len() {
        return Ok(());
    }
    Err(malformed(format!(
        "robots, rng streams and burst links {counts:?}, sync robot {} or {} error \
         snapshots do not match the {n}-robot scenario",
        w.sync_robot,
        w.snapshots.len()
    )))
}

// ---------------------------------------------------------------------------
// Rngs and medium sections.
// ---------------------------------------------------------------------------

/// A stand-in stream the reader overwrites.
fn blank_rng(_: usize) -> DetRng {
    DetRng::from_state([1, 0, 0, 0])
}

fn rngs_section(c: &mut impl Codec, w: &mut WorldState) -> Result<(), SnapshotError> {
    c.vec_with(&mut w.move_rngs, blank_rng, rng)?;
    c.vec_with(&mut w.odo_rngs, blank_rng, rng)?;
    rng(c, &mut w.channel_rng)?;
    rng(c, &mut w.jitter_rng)?;
    rng(c, &mut w.fault_rng)
}

fn medium_state(c: &mut impl Codec, m: &mut MediumState) -> Result<(), SnapshotError> {
    c.f64(&mut m.capture_margin_db)?;
    dur(c, &mut m.retention)?;
    c.u64s([
        &mut m.next_id,
        &mut m.total_tx,
        &mut m.total_collisions,
        &mut m.total_half_duplex,
    ])?;
    c.vec(&mut m.active, |c, frame: &mut Frame| {
        tx_id(c, &mut frame.id)?;
        node(c, &mut frame.src)?;
        point(c, &mut frame.src_pos)?;
        time(c, &mut frame.start)?;
        time(c, &mut frame.end)?;
        packet(c, &mut frame.packet)?;
        c.vec(&mut frame.heard, |c, (rx, dbm)| {
            node(c, rx)?;
            c.f64(&mut dbm.0)
        })
    })
}

fn medium_section(c: &mut impl Codec, m: &mut Medium, team: usize) -> Result<(), SnapshotError> {
    c.via(m, Medium::state, medium_state, |s| {
        check_medium(&s, team)?;
        Ok(Medium::from_state(s))
    })
}

/// The orders [`Medium::from_state`] relies on to find frames and
/// receivers by binary search — frame ids strictly increasing and below
/// the next id to allocate, each frame's receivers strictly increasing —
/// and the bound reception relies on to find a receiver's robot: every
/// receiver is a robot of the `team`.
fn check_medium(m: &MediumState, team: usize) -> Result<(), SnapshotError> {
    if let Some(pair) = m.active.windows(2).find(|w| w[0].id >= w[1].id) {
        return Err(malformed(format!(
            "medium frame ids are not strictly increasing: {} then {}",
            pair[0].id.raw(),
            pair[1].id.raw()
        )));
    }
    if let Some(last) = m.active.last().filter(|f| f.id.raw() >= m.next_id) {
        return Err(malformed(format!(
            "medium frame id {} is not below the next id {}",
            last.id.raw(),
            m.next_id
        )));
    }
    for frame in &m.active {
        let id = frame.id.raw();
        if let Some(pair) = frame.heard.windows(2).find(|w| w[0].0 >= w[1].0) {
            let what = if pair[0].0 == pair[1].0 {
                "duplicated"
            } else {
                "out of order"
            };
            return Err(malformed(format!(
                "medium frame {id} RSSI records {what}: receiver {} then {}",
                pair[0].0 .0, pair[1].0 .0
            )));
        }
        if let Some((rx, _)) = frame.heard.last().filter(|(rx, _)| rx.0 as usize >= team) {
            return Err(malformed(format!(
                "medium frame {id} names receiver {} outside the {team}-robot team",
                rx.0
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Robots section.
// ---------------------------------------------------------------------------

fn window_stats(c: &mut impl Codec, s: &mut WindowStats) -> Result<(), SnapshotError> {
    c.u32(&mut s.windows)?;
    c.u32(&mut s.fixes)?;
    c.u32(&mut s.flat_windows)?;
    c.u64s([
        &mut s.beacons_seen,
        &mut s.beacons_applied,
        &mut s.beacons_rejected_outlier,
    ])
}

/// The estimator section: the lifecycle header shared by every backend,
/// then the solver payload (mirroring [`BackendCheckpoint`]). The backend
/// is the scenario's, so no tag names it: the reader decodes onto a
/// checkpoint of the scenario's backend.
fn estimator(c: &mut impl Codec, e: &mut EstimatorCheckpoint) -> Result<(), SnapshotError> {
    c.opt(&mut e.last_fix, point)?;
    c.bool(&mut e.in_window)?;
    window_stats(c, &mut e.stats)?;
    match &mut e.backend {
        BackendCheckpoint::Bayes {
            posterior_cells,
            grid_stats,
            beacons_applied,
            beacons_seen,
        } => {
            c.vec(posterior_cells, Codec::f64)?;
            c.u32(beacons_applied)?;
            c.u32(beacons_seen)?;
            c.u64s([&mut grid_stats.kernel_simd, &mut grid_stats.cells_touched])
        }
        BackendCheckpoint::Lateration { ranges } => c.vec(ranges, |c, obs| {
            point(c, &mut obs.anchor)?;
            c.f64(&mut obs.range)?;
            c.f64(&mut obs.weight)
        }),
        BackendCheckpoint::Ekf {
            filter,
            window_applied,
            last_odo,
        } => {
            c.f64s([
                &mut filter.x,
                &mut filter.y,
                &mut filter.p11,
                &mut filter.p12,
                &mut filter.p22,
            ])?;
            c.u64(&mut filter.updates_applied)?;
            c.u64(&mut filter.updates_gated)?;
            c.u32(&mut filter.consecutive_gated)?;
            c.u32(window_applied)?;
            c.opt(last_odo, point)
        }
    }
}

/// A radio's state; its energy parameters are the scenario's.
fn radio(c: &mut impl Codec, r: &mut RadioCheckpoint) -> Result<(), SnapshotError> {
    c.tag(&POWER_STATES, &mut r.state, "power state")?;
    time(c, &mut r.since)?;
    energy_ledger(c, &mut r.ledger)?;
    c.u32(&mut r.wakes)?;
    c.u32(&mut r.packets_sent)?;
    c.u32(&mut r.packets_received)
}

/// A robot's motion; its waypoint and odometry settings are the
/// scenario's.
fn motion(
    c: &mut impl Codec,
    (w, o): &mut (WaypointCheckpoint, OdometerCheckpoint),
) -> Result<(), SnapshotError> {
    pose(c, &mut w.pose)?;
    point(c, &mut w.destination)?;
    c.f64(&mut w.speed)?;
    c.u64(&mut w.legs_completed)?;
    pose(c, &mut o.estimate)?;
    c.f64(&mut o.distance_integrated)?;
    c.u64(&mut o.observations)
}

/// Rejects an instant after the engine clock: state accrues from it.
fn not_after(what: &str, t: SimTime, now: SimTime) -> Result<(), SnapshotError> {
    if t <= now {
        Ok(())
    } else {
        Err(malformed(format!(
            "{what} {t} is after the engine clock {now}"
        )))
    }
}

/// One robot, decoded onto [`world::blank_robot`]: what the scenario
/// fixes (equipment, estimator presence and backend, settings) is not
/// stored.
fn robot(
    c: &mut impl Codec,
    r: &mut Robot,
    s: &Scenario,
    now: SimTime,
) -> Result<(), SnapshotError> {
    c.bool(&mut r.alive)?;
    c.u32(&mut r.epoch)?;
    c.opt(&mut r.last_fix_window, Codec::u64)?;
    c.bool(&mut r.synced_this_window)?;
    c.bool(&mut r.garbled_tx)?;
    c.opt(&mut r.beacon_offset, |c, (dx, dy)| {
        c.f64(dx)?;
        c.f64(dy)
    })?;
    c.opt(&mut r.fix_anchor, |c, a| {
        point(c, &mut a.fix)?;
        point(c, &mut a.odo_at_fix)
    })?;
    c.via(
        &mut r.motion,
        |m| (m.waypoints().checkpoint(), m.odometer().checkpoint()),
        motion,
        |(w, o)| {
            Ok(RobotMotion::from_parts(
                WaypointModel::from_checkpoint(w),
                Odometer::from_checkpoint(o),
            ))
        },
    )?;
    c.via(&mut r.radio, Radio::checkpoint, radio, |rc| {
        not_after("radio state change", rc.since, now)?;
        Ok(Radio::from_checkpoint(rc))
    })?;
    let clock = &mut r.clock;
    c.f64(&mut clock.skew)?;
    c.f64(&mut clock.error_s)?;
    time(c, &mut clock.anchor)?;
    c.u32(&mut clock.missed_syncs)?;
    c.u32(&mut clock.stale_syncs)?;
    if !(clock.skew.abs() < 0.01 && clock.error_s.is_finite()) {
        return Err(malformed(format!("unphysical clock skew {}", clock.skew)));
    }
    not_after("clock anchor", clock.anchor, now)?;
    let health = &mut r.health;
    c.tag(&DEGRADATION_STATES, &mut health.state, "degradation state")?;
    time(c, &mut health.since)?;
    health_ledger(c, &mut health.ledger)?;
    not_after("health state change", health.since, now)?;
    if let Some(rf) = r.rf.as_mut() {
        c.via(rf, WindowedRfEstimator::checkpoint, estimator, |e| {
            restore_estimator(e, s)
        })?;
    }
    let id = r.id;
    c.via(
        &mut r.mesh,
        |m| m.save_state(),
        Codec::bytes,
        |state| {
            let mut mesh = mesh::make_backend(s.multicast, id, SYNC_GROUP, true, s.mesh);
            mesh.load_state(&state)?;
            Ok(mesh)
        },
    )
}

fn restore_estimator(
    e: EstimatorCheckpoint,
    s: &Scenario,
) -> Result<WindowedRfEstimator, SnapshotError> {
    let grid = GridConfig::new(s.area, s.grid_resolution_m);
    let (nx, ny) = grid.dims();
    if let BackendCheckpoint::Bayes {
        posterior_cells, ..
    } = &e.backend
    {
        if posterior_cells.len() != nx * ny {
            return Err(malformed(format!(
                "posterior cell count {} does not fit the scenario's {nx} x {ny} grid",
                posterior_cells.len()
            )));
        }
    }
    Ok(WindowedRfEstimator::from_checkpoint(grid, e))
}

fn robots_section(
    c: &mut impl Codec,
    w: &mut WorldState,
    now: SimTime,
) -> Result<(), SnapshotError> {
    let s = &w.scenario;
    c.vec_with(
        &mut w.robots,
        |i| world::blank_robot(i, s),
        |c, r| robot(c, r, s, now),
    )
}

// ---------------------------------------------------------------------------
// World section (accumulators, fault overlays).
// ---------------------------------------------------------------------------

fn world_section(c: &mut impl Codec, w: &mut WorldState) -> Result<(), SnapshotError> {
    c.usize(&mut w.sync_robot)?;
    c.u32(&mut w.sync_dead_windows)?;
    c.opt(&mut w.next_robot_sample, time)?;
    traffic(c, &mut w.traffic)?;
    robustness(c, &mut w.robustness)?;
    c.vec(&mut w.error_series, error_point)?;
    c.vec(&mut w.snapshots, error_snapshot)?;
    c.vec(&mut w.position_snapshots, position_snapshot)?;
    c.opt(&mut w.burst, |c, links| {
        c.vec(links, |c, link| {
            c.via(
                link,
                |l| (l.model(), l.in_bad()),
                |c, (model, in_bad)| {
                    gilbert(c, model)?;
                    c.bool(in_bad)
                },
                |(model, in_bad)| Ok(GilbertElliottLink::with_state(model, in_bad)),
            )
        })
    })?;
    // Stored sorted so the bytes do not depend on hash order.
    c.via(
        &mut w.corrupt_txs,
        |txs| {
            let mut raw: Vec<u64> = txs.iter().map(|tx| tx.raw()).collect();
            raw.sort_unstable();
            raw
        },
        |c, raw| c.vec(raw, Codec::u64),
        |raw| Ok(raw.into_iter().map(TxId::from_raw).collect()),
    )
}

// ---------------------------------------------------------------------------
// Telemetry section.
// ---------------------------------------------------------------------------

fn telemetry_event(c: &mut impl Codec, e: &mut TelemetryEvent) -> Result<(), SnapshotError> {
    c.tag(&TELEMETRY_EVENTS, e, "telemetry event")?;
    match e {
        TelemetryEvent::WindowStart { window } => c.u64(window),
        TelemetryEvent::BeaconTx { robot, x_m, y_m } => {
            c.u32(robot)?;
            c.f64(x_m)?;
            c.f64(y_m)
        }
        TelemetryEvent::BeaconRx {
            robot,
            from,
            rssi_dbm,
            outcome,
        } => {
            c.u32(robot)?;
            c.u32(from)?;
            c.f64(rssi_dbm)?;
            c.name(outcome)
        }
        TelemetryEvent::GridUpdate { robot } => c.u32(robot),
        TelemetryEvent::Fix {
            robot,
            window,
            x_m,
            y_m,
            err_m,
        } => {
            c.u32(robot)?;
            c.u64(window)?;
            c.f64s([x_m, y_m, err_m])
        }
        TelemetryEvent::FlatPosterior {
            robot,
            window,
            entropy,
            threshold,
        } => {
            c.u32(robot)?;
            c.u64(window)?;
            c.f64(entropy)?;
            c.f64(threshold)
        }
        TelemetryEvent::StarvedWindow { robot, window }
        | TelemetryEvent::SyncDelivered { robot, window }
        | TelemetryEvent::SyncMissed { robot, window } => {
            c.u32(robot)?;
            c.u64(window)
        }
        TelemetryEvent::Failover { new_sync } => c.u32(new_sync),
        TelemetryEvent::MeshPrune { robot, source, seq } => {
            c.u32(robot)?;
            c.u32(source)?;
            c.u32(seq)
        }
        TelemetryEvent::RadioState { robot, state }
        | TelemetryEvent::HealthTransition { robot, state } => {
            c.u32(robot)?;
            c.name(state)
        }
        TelemetryEvent::FaultInjected { kind, robot } => {
            c.name(kind)?;
            c.opt(robot, Codec::u32)
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
            c.u32(robot)?;
            c.f64s([true_x_m, true_y_m, est_x_m, est_y_m, err_m])?;
            c.opt(entropy_frac, Codec::f64)?;
            c.f64(energy_j)?;
            c.name(radio)?;
            c.name(health)
        }
        TelemetryEvent::TeamSample {
            mean_err_m,
            robots,
            energy_j,
        } => {
            c.f64(mean_err_m)?;
            c.u32(robots)?;
            c.f64(energy_j)
        }
        TelemetryEvent::SnapshotTaken { bytes, sections } => {
            c.u64(bytes)?;
            c.u32(sections)
        }
        TelemetryEvent::SnapshotRestored { bytes } => c.u64(bytes),
    }
}

fn hist(c: &mut impl Codec, h: &mut HistSnapshot) -> Result<(), SnapshotError> {
    c.u64(&mut h.count)?;
    c.f64s([&mut h.sum, &mut h.min, &mut h.max])?;
    c.vec(&mut h.buckets, |c, (index, count)| {
        c.u32(index)?;
        c.u64(count)
    })
}

fn telemetry_state(c: &mut impl Codec, t: &mut TelemetryCheckpoint) -> Result<(), SnapshotError> {
    c.tag(&TELEMETRY_LEVELS, &mut t.level, "telemetry level")?;
    c.opt(&mut t.capacity, Codec::usize)?;
    c.u64(&mut t.seq)?;
    c.u64(&mut t.dropped)?;
    c.opt(&mut t.sample_interval, dur)?;
    c.vec(&mut t.events, |c, e| {
        c.u64(&mut e.t_us)?;
        c.u64(&mut e.seq)?;
        telemetry_event(c, &mut e.event)
    })?;
    c.vec(&mut t.counters, |c, (name, value)| {
        c.name(name)?;
        c.u64(value)
    })?;
    // Deterministic histogram state (wall-clock histograms restart at
    // zero on resume, exactly like span timers).
    c.vec(&mut t.hists, |c, (name, h)| {
        c.name(name)?;
        hist(c, h)
    })
}

fn telemetry_section(c: &mut impl Codec, t: &mut Telemetry) -> Result<(), SnapshotError> {
    c.via(t, Telemetry::checkpoint, telemetry_state, |state| {
        for (_, h) in &state.hists {
            if let Some(&(index, _)) = h.buckets.iter().find(|(i, _)| *i as usize >= NUM_BUCKETS) {
                return Err(malformed(format!("histogram bucket index {index}")));
            }
            if h.sum.is_nan() || h.min.is_nan() || h.max.is_nan() {
                return Err(malformed("histogram NaN aggregate"));
            }
        }
        Ok(Telemetry::from_checkpoint(state))
    })
}

// ---------------------------------------------------------------------------
// Top-level encode / decode: the container's section order.
// ---------------------------------------------------------------------------

fn encode_all(world: &mut WorldState, parts: &mut EngineParts) -> Vec<u8> {
    let mut meta = ObjectWriter::new();
    meta.str_field("kind", "cocoa-run-snapshot")
        .u64_field("t_us", parts.now.as_micros())
        .u64_field("seed", world.scenario.seed)
        .u64_field("robots", world.scenario.num_robots as u64)
        .str_field("multicast", world.scenario.multicast.as_str());
    let now = parts.now;
    let mut w = SnapshotWriter::new(meta.finish());
    w.push_section(
        "scenario",
        snapshot::encode(|c| scenario_section(c, &mut world.scenario)),
    );
    w.push_section("engine", snapshot::encode(|c| engine_section(c, parts)));
    w.push_section("rngs", snapshot::encode(|c| rngs_section(c, world)));
    let team = world.scenario.num_robots;
    w.push_section(
        "medium",
        snapshot::encode(|c| medium_section(c, &mut world.medium, team)),
    );
    w.push_section(
        "robots",
        snapshot::encode(|c| robots_section(c, world, now)),
    );
    w.push_section("world", snapshot::encode(|c| world_section(c, world)));
    w.push_section(
        "telemetry",
        snapshot::encode(|c| telemetry_section(c, &mut world.telemetry)),
    );
    debug_assert_eq!(w.section_count(), SECTIONS.len());
    w.finish()
}

/// Decodes snapshot bytes into a world and engine, ready to run. The
/// calibration is recomputed from the serialized scenario (deterministic:
/// it consumes a dedicated RNG stream derived only from the seed).
fn decode(bytes: &[u8]) -> Result<(WorldState, Engine<Event>), SnapshotError> {
    let snap = Snapshot::parse(bytes)?;
    let mut scenario = Scenario::builder().build();
    snap.decode("scenario", |c| scenario_section(c, &mut scenario))?;
    scenario
        .validate()
        .map_err(|e| malformed(format!("snapshot scenario fails validation: {e}")))?;
    let calibration = Arc::new(Calibration::new(&scenario));
    let mut world = WorldState::new(&scenario, Telemetry::off(), calibration);

    let mut parts = EngineParts::default();
    snap.decode("engine", |c| engine_section(c, &mut parts))?;
    check_engine(&parts, &scenario)?;
    snap.decode("rngs", |c| rngs_section(c, &mut world))?;
    snap.decode("medium", |c| {
        medium_section(c, &mut world.medium, scenario.num_robots)
    })?;
    snap.decode("robots", |c| robots_section(c, &mut world, parts.now))?;
    snap.decode("world", |c| world_section(c, &mut world))?;
    snap.decode("telemetry", |c| telemetry_section(c, &mut world.telemetry))?;
    check_world(&world)?;
    world.spans = SpanIds::register(&mut world.telemetry);
    world.hists = events::HistIds::register(&mut world.telemetry);

    let queue = EventQueue::from_parts(parts.events, parts.next_seq, parts.peak_len);
    let engine = Engine::from_parts(
        queue,
        parts.now,
        SimTime::ZERO + scenario.duration,
        parts.stopped,
        parts.processed,
    );
    Ok((world, engine))
}

// ---------------------------------------------------------------------------
// SimRun: the resumable run handle.
// ---------------------------------------------------------------------------

/// A simulation run that can be paused, serialized and restored.
///
/// [`crate::runner::run`] is sugar for `SimRun::new(..).finish()`; the
/// extra surface here — [`SimRun::run_until`], [`SimRun::capture`],
/// [`SimRun::resume`] — is what the snapshot subsystem adds, and
/// [`SimRun::with_calibration`] starts a run on a shared [`Calibration`].
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
    pub fn new(scenario: &Scenario, mut telemetry: Telemetry) -> SimRun {
        let t_total = telemetry.span_start();
        let spans = SpanIds::register(&mut telemetry);
        let t_calibrate = telemetry.span_start();
        world::validate(scenario);
        let calibration = Arc::new(Calibration::new(scenario));
        telemetry.span_end(spans.run_calibrate, t_calibrate);
        SimRun {
            t_total,
            ..SimRun::with_calibration(scenario, telemetry, calibration)
        }
    }

    /// Like [`SimRun::new`], but on a calibration the caller already
    /// holds, so runs of one seed and channel can share its table.
    /// Results are bit-identical to [`SimRun::new`]'s.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation, or if `calibration` was
    /// run for another seed or channel ([`Calibration::fits`]).
    pub fn with_calibration(
        scenario: &Scenario,
        telemetry: Telemetry,
        calibration: Arc<Calibration>,
    ) -> SimRun {
        let t_total = telemetry.span_start();
        let mut world = world::setup_world(scenario, telemetry, calibration);
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
        let mut parts = EngineParts {
            now: self.engine.now(),
            stopped: self.engine.is_stopped(),
            processed: self.engine.events_processed(),
            next_seq,
            peak_len,
            events,
        };
        let bytes = encode_all(&mut self.world, &mut parts);
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
    /// marker. This is the path resume-equivalence tests use, so the
    /// resumed trace is byte-identical to the uninterrupted one.
    pub fn resume(bytes: &[u8]) -> Result<SimRun, SnapshotError> {
        let (world, engine) = decode(bytes)?;
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
}

// Runs hand off cleanly across worker threads. Compile-time, not a test,
// so a regression (e.g. an Rc sneaking into WorldState) fails every build.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SimRun>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_localization::bayes::GridStats;
    use cocoa_localization::ekf::EkfSnapshot;
    use cocoa_localization::multilateration::RangeObservation;
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
            any::<u8>(),
            any::<u8>(),
        )
            .prop_map(|(cells, applied, seen)| BackendCheckpoint::Bayes {
                posterior_cells: cells,
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
        /// backend variant: encode → decode onto a blank estimator of the
        /// same backend, as a robot's reader does → re-encode reproduces
        /// both the checkpoint struct and the original bytes.
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
            let bytes = snapshot::encode(|c| estimator(c, &mut checkpoint.clone()));
            let grid = GridConfig::new(Area::square(16.0), 2.0);
            let mut decoded =
                WindowedRfEstimator::with_algorithm(grid, checkpoint.algorithm()).checkpoint();
            // `decode` also rejects bytes the layout leaves unread.
            snapshot::decode(&bytes, "test", |c| estimator(c, &mut decoded))
                .expect("own bytes must decode");
            prop_assert_eq!(&decoded, &checkpoint);
            let again = snapshot::encode(|c| estimator(c, &mut decoded.clone()));
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
        assert_eq!(
            POWER_STATES,
            [PowerState::Off, PowerState::Sleep, PowerState::Idle]
        );
        assert_eq!(
            DEGRADATION_STATES,
            [
                DegradationState::Healthy,
                DegradationState::Degraded,
                DegradationState::DeadReckoning,
                DegradationState::Down
            ]
        );
        assert_eq!(
            TELEMETRY_LEVELS,
            [
                TelemetryLevel::Off,
                TelemetryLevel::Counters,
                TelemetryLevel::Timeline,
                TelemetryLevel::Full
            ]
        );
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
            scenario_fingerprint(&template),
        ]
        .map(|fp| format!("{fp:016x}"));
        assert_eq!(pinned, ["ae4ec873000001a0", "82939b78000001a0"]);
    }

    /// The codec version participates in the hash, so fingerprints from
    /// one snapshot schema never match another's: a results cache built
    /// under one schema cannot serve a request under the next.
    #[test]
    fn fingerprints_are_schema_versioned() {
        use cocoa_sim::snapshot::SNAPSHOT_SCHEMA_VERSION;
        let s = Scenario::builder().build();
        let full = encode_scenario(&s);
        assert_eq!(
            scenario_fingerprint(&s),
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION)
        );
        assert_ne!(
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION),
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION + 1),
            "a codec bump must change every scenario fingerprint"
        );
    }

    /// A channel other than the default one.
    fn louder_channel() -> ChannelParams {
        ChannelParams {
            tx_power_dbm: 18.0,
            ..ChannelParams::default()
        }
    }

    /// A calibration fits every scenario with its seed and channel,
    /// whatever else differs, and no other.
    #[test]
    fn calibration_fits_only_its_seed_and_channel() {
        let base = Scenario::builder().build();
        let calibration = Calibration::new(&base);
        let same_inputs = Scenario::builder()
            .beacon_period(SimDuration::from_secs(50))
            .duration(SimDuration::from_secs(600))
            .robots(8)
            .equipped(4)
            .grid_resolution(4.0)
            .build();
        assert!(calibration.fits(&base));
        assert!(calibration.fits(&same_inputs));
        assert!(!calibration.fits(&Scenario::builder().seed(7).build()));
        assert!(!calibration.fits(&Scenario::builder().channel(louder_channel()).build()));
    }

    /// Starts `scenario` on the default scenario's calibration.
    fn start_on_default_calibration(scenario: &Scenario) -> SimRun {
        let calibration = Arc::new(Calibration::new(&Scenario::builder().build()));
        SimRun::with_calibration(scenario, Telemetry::off(), calibration)
    }

    #[test]
    #[should_panic(expected = "another seed or channel")]
    fn with_calibration_rejects_another_seed() {
        start_on_default_calibration(&Scenario::builder().seed(7).build());
    }

    #[test]
    #[should_panic(expected = "another seed or channel")]
    fn with_calibration_rejects_another_channel() {
        start_on_default_calibration(&Scenario::builder().channel(louder_channel()).build());
    }
}
