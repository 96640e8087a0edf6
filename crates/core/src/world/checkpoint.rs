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
//! Each stateful type codes itself, in one `code` method beside its
//! fields, generic over [`Codec`]: the writer runs it at capture and the
//! reader at restore, so the two directions cannot drift apart. This
//! module holds only the container: the section order, what each section
//! holds, the engine section's layout, and the checks that need the
//! scenario or the engine clock. A value the reader can rebuild from the scenario, a code
//! constant or the medium is not stored: the reader starts each robot
//! from `world::blank_robot`, which sets everything the scenario fixes,
//! and decodes the rest onto it. The reader then checks what the CRCs
//! and the types' own layouts cannot: that the snapshot is consistent
//! with its own scenario (team size, grid, robot indices, clock order),
//! so a well-formed but edited file is a typed error instead of a panic
//! mid-run.
//!
//! Two consumers build on this module:
//!
//! - `cocoa-run --snapshot-at/--resume` and checkpointed sweeps:
//!   operational save/restore;
//! - `cocoa-trace bisect` + [`cocoa_sim::snapshot::Snapshot::diff`]:
//!   divergence localization between two runs.

use std::sync::Arc;

use cocoa_net::mac::{Medium, TxId};
use cocoa_sim::engine::Engine;
use cocoa_sim::event::EventQueue;
use cocoa_sim::jsonfmt::ObjectWriter;
use cocoa_sim::rng::{self, DetRng};
use cocoa_sim::snapshot::{self, Codec, Snapshot, SnapshotError, SnapshotWriter};
use cocoa_sim::telemetry::{SpanStart, Telemetry, TelemetryEvent};
use cocoa_sim::time::SimTime;

use crate::metrics::{RobotFinalState, RunMetrics};
use crate::robot::Robot;
use crate::scenario::Scenario;
use crate::world::events::{Event, SpanIds};
use crate::world::{self, events, metrics_hook, Calibration, WorldState};

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

// ---------------------------------------------------------------------------
// Scenario fingerprints: the scenario section's bytes, versioned.
// ---------------------------------------------------------------------------

fn encode_scenario(s: &Scenario) -> Vec<u8> {
    snapshot::encode(|c| s.clone().code(c))
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

impl EngineParts {
    /// The engine section's layout.
    fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let EngineParts {
            now,
            stopped,
            processed,
            next_seq,
            peak_len,
            events,
        } = self;
        now.code(c)?;
        c.bool(stopped)?;
        c.u64(processed)?;
        c.u64(next_seq)?;
        c.usize(peak_len)?;
        c.vec(events, |c, (t, seq, e)| {
            t.code(c)?;
            c.u64(seq)?;
            e.code(c)
        })
    }
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
    Err(SnapshotError::malformed(format!(
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
    Err(SnapshotError::malformed(format!(
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
pub(crate) fn blank_rng(_: usize) -> DetRng {
    DetRng::from_state([1, 0, 0, 0])
}

fn rngs_section(c: &mut impl Codec, w: &mut WorldState) -> Result<(), SnapshotError> {
    c.vec_with(&mut w.move_rngs, blank_rng, rng::code)?;
    c.vec_with(&mut w.odo_rngs, blank_rng, rng::code)?;
    rng::code(c, &mut w.channel_rng)?;
    rng::code(c, &mut w.jitter_rng)?;
    rng::code(c, &mut w.fault_rng)
}

/// The medium, whose layout checks its own orders, and the bound
/// reception relies on to find a receiver's robot: every receiver is a
/// robot of the `team`.
fn medium_section(c: &mut impl Codec, m: &mut Medium, team: usize) -> Result<(), SnapshotError> {
    m.code(c)?;
    for frame in m.frames() {
        if let Some((rx, _)) = frame.heard.last().filter(|(rx, _)| rx.0 as usize >= team) {
            return Err(SnapshotError::malformed(format!(
                "medium frame {} names receiver {} outside the {team}-robot team",
                frame.id.raw(),
                rx.0
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Robots section.
// ---------------------------------------------------------------------------

/// Rejects an instant after the engine clock: state accrues from it.
fn not_after(what: &str, t: SimTime, now: SimTime) -> Result<(), SnapshotError> {
    if t <= now {
        Ok(())
    } else {
        Err(SnapshotError::malformed(format!(
            "{what} {t} is after the engine clock {now}"
        )))
    }
}

/// One robot, decoded onto [`world::blank_robot`], then checked against
/// the engine clock and the scenario's grid: state accrues from each
/// stored instant, and the estimator's posterior must be a distribution
/// over the grid's cells — finite, non-negative cells summing to 1, which
/// is what lets a beacon's grid update be reported applied on arrival.
fn robot(c: &mut impl Codec, r: &mut Robot, now: SimTime) -> Result<(), SnapshotError> {
    r.code(c)?;
    not_after("radio state change", r.radio.since(), now)?;
    let clock = &r.clock;
    if !(clock.skew.abs() < 0.01 && clock.error_s.is_finite()) {
        return Err(SnapshotError::malformed(format!(
            "unphysical clock skew {}",
            clock.skew
        )));
    }
    not_after("clock anchor", clock.anchor, now)?;
    not_after("health state change", r.health.since, now)?;
    if let Some(grid) = r.rf.as_ref().and_then(|rf| rf.posterior()) {
        let cells = grid.nx() * grid.ny();
        if grid.num_cells() != cells {
            return Err(SnapshotError::malformed(format!(
                "posterior cell count {} does not fit the scenario's grid of {cells} cells",
                grid.num_cells()
            )));
        }
        if !grid.is_distribution(POSTERIOR_MASS_TOLERANCE) {
            return Err(SnapshotError::malformed(format!(
                "posterior is not a distribution: a cell is negative or not finite, \
                 or the cells sum to {}",
                grid.total_mass()
            )));
        }
    }
    Ok(())
}

/// How far a decoded posterior's mass may stray from 1: renormalizing
/// leaves it within a few ulps per thousand cells.
const POSTERIOR_MASS_TOLERANCE: f64 = 1e-6;

fn robots_section(
    c: &mut impl Codec,
    w: &mut WorldState,
    now: SimTime,
) -> Result<(), SnapshotError> {
    let s = &w.scenario;
    c.vec_with(
        &mut w.robots,
        |i| world::blank_robot(i, s),
        |c, r| robot(c, r, now),
    )
}

// ---------------------------------------------------------------------------
// World section (accumulators, fault overlays).
// ---------------------------------------------------------------------------

fn world_section(c: &mut impl Codec, w: &mut WorldState) -> Result<(), SnapshotError> {
    c.usize(&mut w.sync_robot)?;
    c.u32(&mut w.sync_dead_windows)?;
    c.opt(&mut w.next_robot_sample, |c, t| t.code(c))?;
    w.traffic.code(c)?;
    w.robustness.code(c)?;
    c.vec(&mut w.error_series, |c, p| p.code(c))?;
    c.vec(&mut w.snapshots, |c, s| s.code(c))?;
    c.vec(&mut w.position_snapshots, RobotFinalState::code_at)?;
    c.opt(&mut w.burst, |c, links| {
        c.vec(links, |c, link| link.code(c))
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

fn telemetry_section(c: &mut impl Codec, t: &mut Telemetry) -> Result<(), SnapshotError> {
    t.code(c)
}

// ---------------------------------------------------------------------------
// Top-level encode / decode: the container's section order.
// ---------------------------------------------------------------------------

/// Encodes the whole run into one buffer reserved at `capacity` bytes.
fn encode_all(world: &mut WorldState, parts: &mut EngineParts, capacity: usize) -> Vec<u8> {
    let mut meta = ObjectWriter::new();
    meta.str_field("kind", "cocoa-run-snapshot")
        .u64_field("t_us", parts.now.as_micros())
        .u64_field("seed", world.scenario.seed)
        .u64_field("robots", world.scenario.num_robots as u64)
        .str_field("multicast", world.scenario.multicast.as_str());
    let now = parts.now;
    let mut w = SnapshotWriter::with_capacity(meta.finish(), capacity);
    w.section("scenario", |c| world.scenario.code(c));
    w.section("engine", |c| parts.code(c));
    w.section("rngs", |c| rngs_section(c, world));
    let team = world.scenario.num_robots;
    w.section("medium", |c| medium_section(c, &mut world.medium, team));
    w.section("robots", |c| robots_section(c, world, now));
    w.section("world", |c| world_section(c, world));
    w.section("telemetry", |c| telemetry_section(c, &mut world.telemetry));
    debug_assert_eq!(w.section_count(), SECTIONS.len());
    w.finish()
}

/// Decodes snapshot bytes into a world and engine, ready to run, on
/// `calibration` if it fits the serialized scenario. Without one, the
/// calibration is recomputed from the scenario (deterministic: it
/// consumes a dedicated RNG stream derived only from the seed).
fn decode(
    bytes: &[u8],
    calibration: Option<Arc<Calibration>>,
) -> Result<(WorldState, Engine<Event>), SnapshotError> {
    let snap = Snapshot::parse(bytes)?;
    let mut scenario = Scenario::builder().build();
    snap.decode("scenario", |c| scenario.code(c))?;
    scenario.validate().map_err(|e| {
        SnapshotError::malformed(format!("snapshot scenario fails validation: {e}"))
    })?;
    let calibration = match calibration {
        Some(calibration) if calibration.fits(&scenario) => calibration,
        Some(_) => {
            return Err(SnapshotError::malformed(
                "the calibration fits another scenario".to_string(),
            ))
        }
        None => Arc::new(Calibration::new(&scenario)),
    };
    let mut world = WorldState::new(&scenario, Telemetry::off(), calibration);

    let mut parts = EngineParts::default();
    snap.decode("engine", |c| parts.code(c))?;
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
    /// The length of the last capture, or of the snapshot this run
    /// resumed from: the next capture reserves that much up front.
    capture_len: usize,
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
            capture_len: 0,
        }
    }

    /// Makes every flush of this run use `workers` workers, whatever the
    /// spare cores, so tests can pin that results do not depend on it.
    #[cfg(test)]
    pub(crate) fn flushing_on(mut self, workers: usize) -> SimRun {
        self.world.pending.fixed_workers = Some(workers);
        self
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
        world::beacon::flush(&mut self.world);
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
        let bytes = encode_all(&mut self.world, &mut parts, self.capture_len);
        self.capture_len = bytes.len();
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
        decode(bytes, None).map(|parts| SimRun::resumed(parts, bytes.len()))
    }

    /// Like [`SimRun::resume`], but on a calibration the caller already
    /// holds, as [`SimRun::with_calibration`] starts a run: a sweep
    /// resumes its points on one calibration per seed and channel.
    /// Results are bit-identical to [`SimRun::resume`]'s.
    ///
    /// # Errors
    ///
    /// As [`SimRun::resume`]; a `calibration` run for another seed or
    /// channel than the snapshot's scenario ([`Calibration::fits`]) is
    /// [`SnapshotError::Malformed`].
    pub fn resume_with_calibration(
        bytes: &[u8],
        calibration: Arc<Calibration>,
    ) -> Result<SimRun, SnapshotError> {
        decode(bytes, Some(calibration)).map(|parts| SimRun::resumed(parts, bytes.len()))
    }

    fn resumed((world, engine): (WorldState, Engine<Event>), capture_len: usize) -> SimRun {
        let t_total = world.telemetry.span_start();
        SimRun {
            world,
            engine,
            t_total,
            capture_len,
        }
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
    use cocoa_localization::estimator::{EstimatorMode, RfAlgorithm, WindowedRfEstimator};
    use cocoa_localization::grid::GridConfig;
    use cocoa_mobility::odometry::OdometryConfig;
    use cocoa_multicast::odmrp::OdmrpConfig;
    use cocoa_multicast::protocol::MulticastProtocol;
    use cocoa_net::channel::ChannelParams;
    use cocoa_net::energy::{EnergyParams, PowerState};
    use cocoa_net::geometry::{Area, Point};
    use cocoa_sim::telemetry::TelemetryLevel;
    use cocoa_sim::time::SimDuration;
    use proptest::prelude::*;

    use crate::health::DegradationState;

    fn arb_point() -> impl Strategy<Value = Point> {
        (0.0f64..200.0, 0.0f64..200.0).prop_map(|(x, y)| Point::new(x, y))
    }

    /// Writes `p` as the layout of a point.
    fn put_point(c: &mut Vec<u8>, mut p: Point) -> Result<(), SnapshotError> {
        c.f64(&mut p.x)?;
        c.f64(&mut p.y)
    }

    /// An estimator's lifecycle state — last fix, open window and window
    /// statistics — written field by field with the `Codec` primitives.
    fn arb_header() -> impl Strategy<Value = Vec<u8>> {
        (
            prop_oneof![Just(None), arb_point().prop_map(Some)],
            any::<bool>(),
            (any::<u16>(), any::<u16>(), any::<u16>()),
            (any::<u32>(), any::<u32>(), any::<u32>()),
        )
            .prop_map(
                |(last_fix, in_window, (w, f, fl), (seen, applied, rejected))| {
                    snapshot::encode(|c| {
                        c.opt(&mut last_fix.clone(), |c, p| put_point(c, *p))?;
                        c.bool(&mut { in_window })?;
                        for mut n in [w, f, fl].map(u32::from) {
                            c.u32(&mut n)?;
                        }
                        for mut n in [seen, applied, rejected].map(u64::from) {
                            c.u64(&mut n)?;
                        }
                        Ok(())
                    })
                },
            )
    }

    /// Cells of the 16 m × 16 m, 2 m grid the estimator tests run on.
    const CELLS: usize = 64;

    /// One backend's arbitrary state — unnormalised posteriors, arbitrary
    /// ranges, extreme covariances — written with the `Codec` primitives,
    /// and the algorithm whose blank estimator decodes it.
    fn arb_backend() -> impl Strategy<Value = (RfAlgorithm, Vec<u8>)> {
        let bayes = (
            proptest::collection::vec(0.0f64..1.0, CELLS),
            (any::<u8>(), any::<u8>()),
            (any::<u32>(), any::<u32>()),
        )
            .prop_map(|(mut cells, (applied, seen), (simd, touched))| {
                let bytes = snapshot::encode(|c| {
                    c.vec(&mut cells, Codec::f64)?;
                    c.u32(&mut u32::from(applied))?;
                    c.u32(&mut u32::from(seen))?;
                    c.u64s([&mut u64::from(simd), &mut u64::from(touched)])
                });
                (RfAlgorithm::Bayes, bytes)
            });
        let lateration =
            proptest::collection::vec((arb_point(), 0.1f64..300.0, 0.01f64..10.0), 0..8).prop_map(
                |mut ranges| {
                    let bytes = snapshot::encode(|c| {
                        c.vec(&mut ranges, |c, (anchor, range, weight)| {
                            put_point(c, *anchor)?;
                            c.f64(range)?;
                            c.f64(weight)
                        })
                    });
                    (RfAlgorithm::Multilateration, bytes)
                },
            );
        let ekf = (
            arb_point(),
            (1e-9f64..1e4, 1e-9f64..1e4, -10.0f64..10.0),
            (any::<u32>(), any::<u32>(), any::<u16>(), 0u32..8),
            prop_oneof![Just(None), arb_point().prop_map(Some)],
        )
            .prop_map(|(mean, (p11, p22, p12), (ua, ug, cg, wa), last_odo)| {
                let bytes = snapshot::encode(|c| {
                    put_point(c, mean)?;
                    c.f64s([&mut { p11 }, &mut { p12 }, &mut { p22 }])?;
                    c.u64(&mut u64::from(ua))?;
                    c.u64(&mut u64::from(ug))?;
                    c.u32(&mut u32::from(cg))?;
                    c.u32(&mut { wa })?;
                    c.opt(&mut last_odo.clone(), |c, p| put_point(c, *p))
                });
                (RfAlgorithm::Ekf, bytes)
            });
        prop_oneof![bayes, lateration, ekf]
    }

    proptest! {
        /// The estimator section round-trips byte-exactly for every
        /// backend variant: bytes written field by field decode in place
        /// onto a blank estimator of the same backend, as a robot's reader
        /// does → re-encoding reproduces them, and writing leaves the
        /// estimator as it was.
        #[test]
        fn estimator_section_round_trips_byte_exactly(
            (algorithm, backend) in arb_backend(),
            header in arb_header(),
        ) {
            let bytes = [header, backend].concat();
            let grid = GridConfig::new(Area::square(16.0), 2.0);
            let mut decoded = WindowedRfEstimator::with_algorithm(grid, algorithm);
            // `decode` also rejects bytes the layout leaves unread.
            snapshot::decode(&bytes, "test", |c| decoded.code(c))
                .expect("written bytes must decode");
            prop_assert_eq!(decoded.algorithm(), algorithm);
            let again = snapshot::encode(|c| decoded.code(c));
            prop_assert_eq!(&again, &bytes, "re-encode must be byte-identical");
            let before = decoded.clone();
            prop_assert_eq!(snapshot::encode(|c| decoded.code(c)), again);
            prop_assert_eq!(decoded, before, "writing leaves it as it was");
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
            PowerState::ALL,
            [PowerState::Off, PowerState::Sleep, PowerState::Idle]
        );
        assert_eq!(
            DegradationState::ALL,
            [
                DegradationState::Healthy,
                DegradationState::Degraded,
                DegradationState::DeadReckoning,
                DegradationState::Down
            ]
        );
        assert_eq!(
            TelemetryLevel::ALL,
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
        assert_eq!(pinned, ["b37ca4e9000001a0", "9fa1f7e2000001a0"]);
    }

    /// Every run localizes through the calibration campaign's table, so
    /// a change to the campaign must not move it. The digest is the
    /// CRC-32 and length of the table's `Debug` form, which prints each
    /// float in its shortest round-trip form: any bit that moves shows.
    #[test]
    fn calibration_tables_are_pinned() {
        let digests = [1, 7, 42].map(|seed| {
            let calibration = Calibration::new(&Scenario::builder().seed(seed).build());
            let text = format!("{:?}", calibration.table);
            format!("{:08x}-{}", snapshot::crc32(text.as_bytes()), text.len())
        });
        assert_eq!(
            digests,
            ["2ed4bb84-26480", "f9813365-26459", "5a91d1f0-26270"]
        );
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

    /// Resuming on a calibration of another seed or channel than the
    /// snapshot's scenario is a typed error, not a panic; on its own
    /// calibration the resumed run finishes like an uninterrupted one.
    #[test]
    fn resume_with_calibration_rejects_one_that_does_not_fit() {
        let mut b = Scenario::builder();
        b.robots(6).equipped(3).duration(SimDuration::from_secs(30));
        let scenario = b.build();
        let mut run = SimRun::new(&scenario, Telemetry::off());
        run.run_until(SimTime::ZERO + SimDuration::from_secs(15));
        let bytes = run.capture();
        let (cold, _) = run.finish();
        let misfits = [
            Scenario::builder().seed(7).build(),
            Scenario::builder().channel(louder_channel()).build(),
        ];
        for other in misfits {
            let calibration = Arc::new(Calibration::new(&other));
            match SimRun::resume_with_calibration(&bytes, calibration) {
                Err(SnapshotError::Malformed { context }) => {
                    assert!(context.contains("calibration"), "{context}")
                }
                Err(e) => panic!("expected a malformed-snapshot error, got {e}"),
                Ok(_) => panic!("resumed on a calibration that does not fit"),
            }
        }
        let own = Arc::new(Calibration::new(&scenario));
        let resumed = SimRun::resume_with_calibration(&bytes, own).expect("fits");
        assert_eq!(resumed.finish().0, cold);
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
