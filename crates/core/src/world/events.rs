//! The event vocabulary of the world, its span bookkeeping, and the
//! dispatch table that routes each event to the module that owns it.

use cocoa_net::geometry::Point;
use cocoa_net::mac::TxId;
use cocoa_net::packet::{NodeId, Packet, Payload};
use cocoa_sim::engine::Engine;
use cocoa_sim::faults::Fault;
use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::telemetry::hist::HistId;
use cocoa_sim::telemetry::{SpanId, Telemetry};
use cocoa_sim::time::SimDuration;

use super::WorldState;

/// What a deferred transmission should put on the air.
#[derive(Debug, Clone)]
pub(crate) enum TxIntent {
    /// A localization beacon; the position is read at fire time.
    Beacon,
    /// A mesh packet built earlier (query/reply/data).
    Mesh(Packet),
}

#[derive(Debug, Clone, Default)]
pub(crate) enum Event {
    /// Advance all robots' motion by one tick.
    #[default]
    MoveTick,
    /// Sample the error series.
    MetricsSample,
    /// Global window start (the Sync robot's reference timeline).
    WindowStart { index: u64 },
    /// A robot's local wake-up for a window. `epoch` ties the event to one
    /// life of the robot: a crash bumps the epoch, orphaning the pending
    /// wake chain of the previous life.
    RobotWake {
        robot: usize,
        window: u64,
        epoch: u32,
    },
    /// A robot's local end-of-window processing (then sleep).
    RobotWindowEnd {
        robot: usize,
        window: u64,
        epoch: u32,
    },
    /// A deferred transmission fires.
    Transmit { robot: usize, intent: TxIntent },
    /// A frame's airtime ends; judge receptions at the receivers the
    /// medium holds for it.
    TxEnd { tx: TxId },
    /// A member's deferred JOIN REPLY.
    MeshReply { robot: usize, source: NodeId },
    /// A node's deferred JOIN QUERY rebroadcast decision.
    MeshRebroadcast {
        robot: usize,
        source: NodeId,
        seq: u32,
    },
    /// Reclaim old frames from the medium.
    MediumGc,
    /// Record a per-robot error snapshot (Fig. 8 CDFs).
    Snapshot { index: usize },
    /// An injected fault fires (from the scenario's `FaultPlan`).
    Fault(Fault),
}

/// One placeholder per variant; the order is the snapshot tag.
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
/// One placeholder per variant; the order is the snapshot tag.
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

impl TxIntent {
    /// The snapshot layout: a tag, then the packet of a mesh intent.
    pub(crate) fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        c.tag(&TX_INTENTS, self, "tx intent")?;
        match self {
            TxIntent::Beacon => Ok(()),
            TxIntent::Mesh(p) => p.code(c),
        }
    }
}

impl Event {
    /// The snapshot layout: a tag, then the variant's fields.
    pub(crate) fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        c.tag(&EVENTS, self, "event")?;
        match self {
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
                intent.code(c)
            }
            Event::TxEnd { tx } => tx.code(c),
            Event::MeshReply { robot, source } => {
                c.usize(robot)?;
                source.code(c)
            }
            Event::MeshRebroadcast { robot, source, seq } => {
                c.usize(robot)?;
                source.code(c)?;
                c.u32(seq)
            }
            Event::Snapshot { index } => c.usize(index),
            Event::Fault(f) => f.code(c),
        }
    }
}

/// Pre-registered span handles, so hot paths never look a span up by name.
/// `run.*` spans tile the whole run; `event.*` spans tile the event loop by
/// category; the rest are nested subsystem spans.
#[derive(Clone, Copy)]
pub(crate) struct SpanIds {
    pub(crate) run_total: SpanId,
    pub(crate) run_calibrate: SpanId,
    pub(crate) run_setup: SpanId,
    pub(crate) run_event_loop: SpanId,
    pub(crate) run_finalize: SpanId,
    pub(crate) event_move_tick: SpanId,
    pub(crate) event_metrics_sample: SpanId,
    pub(crate) event_snapshot: SpanId,
    pub(crate) event_window_start: SpanId,
    pub(crate) event_robot_wake: SpanId,
    pub(crate) event_robot_window_end: SpanId,
    pub(crate) event_transmit: SpanId,
    pub(crate) event_tx_end: SpanId,
    pub(crate) event_mesh_reply: SpanId,
    pub(crate) event_mesh_rebroadcast: SpanId,
    pub(crate) event_medium_gc: SpanId,
    pub(crate) event_fault: SpanId,
    pub(crate) grid_update: SpanId,
    pub(crate) grid_fix: SpanId,
    pub(crate) channel_sample: SpanId,
    /// Channel scan for mesh JOIN REPLY transmissions. Distinct from
    /// `channel_sample` so each scan attributes to the event category
    /// that actually paid for it — the flamegraph fold relies on every
    /// subsystem span having a single event-span parent.
    pub(crate) channel_sample_reply: SpanId,
    /// Channel scan for mesh rebroadcast transmissions (see
    /// `channel_sample_reply`).
    pub(crate) channel_sample_rebroadcast: SpanId,
    pub(crate) mesh_handle: SpanId,
    pub(crate) mobility_step: SpanId,
}

/// Pre-registered histogram handles, so hot paths never look a histogram
/// up by name. All of these are deterministic (recorded from simulation
/// state only); the one wall-clock histogram, `span.duration_us`, is
/// owned by the bus itself.
#[derive(Clone, Copy)]
pub(crate) struct HistIds {
    /// Per-robot localization error at each metrics tick, metres.
    pub(crate) robot_error: HistId,
    /// Team mean localization error at each metrics tick, metres.
    pub(crate) team_error: HistId,
    /// Posterior entropy fraction of RF robots at each metrics tick.
    pub(crate) entropy_frac: HistId,
    /// Per-fix localization error at window close, metres.
    pub(crate) fix_err: HistId,
    /// RSSI of every delivered beacon, dBm (negative values).
    pub(crate) beacon_rssi: HistId,
    /// Pending event-queue depth at each metrics tick.
    pub(crate) queue_depth: HistId,
}

impl HistIds {
    pub(crate) fn register(t: &mut Telemetry) -> HistIds {
        HistIds {
            robot_error: t.hist("run.robot_error_m"),
            team_error: t.hist("run.team_error_m"),
            entropy_frac: t.hist("run.entropy_frac"),
            fix_err: t.hist("run.fix_err_m"),
            beacon_rssi: t.hist("radio.beacon_rssi_dbm"),
            queue_depth: t.hist("engine.queue_depth"),
        }
    }
}

impl SpanIds {
    pub(crate) fn register(t: &mut Telemetry) -> SpanIds {
        SpanIds {
            run_total: t.span_id("run.total"),
            run_calibrate: t.span_id("run.calibrate"),
            run_setup: t.span_id("run.setup"),
            run_event_loop: t.span_id("run.event_loop"),
            run_finalize: t.span_id("run.finalize"),
            event_move_tick: t.span_id("event.move_tick"),
            event_metrics_sample: t.span_id("event.metrics_sample"),
            event_snapshot: t.span_id("event.snapshot"),
            event_window_start: t.span_id("event.window_start"),
            event_robot_wake: t.span_id("event.robot_wake"),
            event_robot_window_end: t.span_id("event.robot_window_end"),
            event_transmit: t.span_id("event.transmit"),
            event_tx_end: t.span_id("event.tx_end"),
            event_mesh_reply: t.span_id("event.mesh_reply"),
            event_mesh_rebroadcast: t.span_id("event.mesh_rebroadcast"),
            event_medium_gc: t.span_id("event.medium_gc"),
            event_fault: t.span_id("event.fault"),
            grid_update: t.span_id("grid.update"),
            grid_fix: t.span_id("grid.fix"),
            channel_sample: t.span_id("channel.sample"),
            channel_sample_reply: t.span_id("channel.sample_reply"),
            channel_sample_rebroadcast: t.span_id("channel.sample_rebroadcast"),
            mesh_handle: t.span_id("mesh.handle"),
            mobility_step: t.span_id("mobility.step"),
        }
    }

    fn for_event(&self, event: &Event) -> SpanId {
        match event {
            Event::MoveTick => self.event_move_tick,
            Event::MetricsSample => self.event_metrics_sample,
            Event::Snapshot { .. } => self.event_snapshot,
            Event::WindowStart { .. } => self.event_window_start,
            Event::RobotWake { .. } => self.event_robot_wake,
            Event::RobotWindowEnd { .. } => self.event_robot_window_end,
            Event::Transmit { .. } => self.event_transmit,
            Event::TxEnd { .. } => self.event_tx_end,
            Event::MeshReply { .. } => self.event_mesh_reply,
            Event::MeshRebroadcast { .. } => self.event_mesh_rebroadcast,
            Event::MediumGc => self.event_medium_gc,
            Event::Fault(_) => self.event_fault,
        }
    }
}

pub(crate) fn handle_event(engine: &mut Engine<Event>, world: &mut WorldState, event: Event) {
    // The logged beacons land before their posteriors are read, outside
    // the event's span, so the `grid.update` span has one parent however
    // many event kinds trigger a flush.
    if reads_posteriors(&event, world) {
        super::beacon::flush(world);
    }
    // Attribute the wall-clock cost of every dispatch to its event
    // category; dispatch_event holds the actual logic so early returns
    // inside the arms cannot skip closing the span.
    let span = world.telemetry.span_start();
    let span_id = world.spans.for_event(&event);
    dispatch_event(engine, world, event);
    world.telemetry.span_end(span_id, span);
}

/// Whether handling `event` may read or reset a posterior: a window's
/// end reads it, a wake resets it, a reboot replaces it, and a metrics
/// tick reads its entropy when something records it.
fn reads_posteriors(event: &Event, world: &WorldState) -> bool {
    match event {
        Event::RobotWake { .. }
        | Event::RobotWindowEnd { .. }
        | Event::Fault(Fault::Reboot { .. }) => true,
        Event::MetricsSample => world.telemetry.wants_hists() || world.telemetry.wants_events(),
        _ => false,
    }
}

fn dispatch_event(engine: &mut Engine<Event>, world: &mut WorldState, event: Event) {
    let now = engine.now();
    match event {
        Event::MoveTick => {
            let dt = world.scenario.tick.as_secs_f64();
            let sp = world.telemetry.span_start();
            for i in 0..world.robots.len() {
                let r = &mut world.robots[i];
                if !r.alive {
                    continue; // crashed robots stop where they are
                }
                r.motion
                    .step(dt, &mut world.move_rngs[i], &mut world.odo_rngs[i]);
            }
            world.telemetry.span_end(world.spans.mobility_step, sp);
            engine.schedule_in(world.scenario.tick, Event::MoveTick);
        }

        Event::MetricsSample => {
            super::metrics_hook::metrics_sample(engine, world, now);
        }

        Event::Snapshot { index } => {
            super::metrics_hook::snapshot(world, index);
        }

        Event::WindowStart { index } => {
            super::window::window_start(engine, world, index, now);
        }

        Event::RobotWake {
            robot,
            window,
            epoch,
        } => {
            super::window::robot_wake(engine, world, robot, window, epoch, now);
        }

        Event::RobotWindowEnd {
            robot,
            window,
            epoch,
        } => {
            super::window::robot_window_end(engine, world, robot, window, epoch, now);
        }

        Event::Transmit { robot, intent } => {
            super::beacon::transmit_intent(engine, world, robot, intent, now);
        }

        Event::TxEnd { tx } => {
            super::beacon::deliver(engine, world, tx, now);
        }

        Event::MeshReply { robot, source } => {
            super::mesh::mesh_reply(engine, world, robot, source, now);
        }

        Event::MeshRebroadcast { robot, source, seq } => {
            super::mesh::mesh_rebroadcast(engine, world, robot, source, seq, now);
        }

        Event::MediumGc => {
            world.medium.gc(now);
            engine.schedule_in(SimDuration::from_secs(10), Event::MediumGc);
        }

        Event::Fault(fault) => {
            super::faults_hook::apply_fault(engine, world, fault, now);
        }
    }
}
