//! The mesh layer's event glue: deferred replies, rebroadcast decisions
//! and delivered mesh packets, so every call into a robot's
//! [`MeshNode`](cocoa_multicast::protocol::MeshNode) goes through one
//! place.
//!
//! The node itself is an enum over the three transports, built for the
//! scenario's [`MulticastProtocol`](cocoa_multicast::protocol::MulticastProtocol):
//!
//! - **flood** — blind flooding ([`cocoa_multicast::flood::FloodNode`]):
//!   no control plane, every node rebroadcasts every data packet once;
//! - **odmrp** — classic ODMRP ([`OdmrpNode::odmrp`](cocoa_multicast::odmrp::OdmrpNode::odmrp)):
//!   JOIN QUERY flood, JOIN REPLY aggregation, only forwarding-group
//!   members rebroadcast data;
//! - **mrmm** — the paper's mobility-aware variant (the same node type,
//!   built by [`OdmrpNode::mrmm`](cocoa_multicast::odmrp::OdmrpNode::mrmm)):
//!   queries piggyback position/velocity, routes are scored by predicted
//!   link lifetime, and redundant query rebroadcasts are pruned.

use cocoa_multicast::odmrp::ProtocolAction;
use cocoa_net::packet::{NodeId, Packet};
use cocoa_sim::dist::uniform;
use cocoa_sim::engine::Engine;
use cocoa_sim::telemetry::TelemetryEvent;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::sync::SyncMessage;

use super::events::{Event, TxIntent};
use super::WorldState;

/// Handles a deferred JOIN REPLY for `robot` toward `source`.
pub(crate) fn mesh_reply(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    robot: usize,
    source: NodeId,
    now: SimTime,
) {
    if !world.robots[robot].radio.can_receive() {
        return;
    }
    if let Some(packet) = world.robots[robot].mesh.make_reply(now, source) {
        let scan_span = world.spans.channel_sample_reply;
        super::beacon::transmit(engine, world, robot, packet, now, scan_span);
    }
}

/// Handles a deferred JOIN QUERY rebroadcast decision for `robot`.
///
/// When the backend declines by *pruning* (MRMM's redundancy suppression,
/// visible as a bump in its `queries_suppressed` counter) a
/// [`TelemetryEvent::MeshPrune`] is emitted; a decline because the round
/// went stale stays silent, exactly as before.
pub(crate) fn mesh_rebroadcast(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    robot: usize,
    source: NodeId,
    seq: u32,
    now: SimTime,
) {
    if !world.robots[robot].radio.can_receive() {
        return;
    }
    let mode = world.mode();
    let area = world.scenario.area;
    let info = world.robots[robot].mobility_info(mode, &area);
    let suppressed_before = world.robots[robot].mesh.stats().queries_suppressed;
    match world.robots[robot]
        .mesh
        .make_rebroadcast(now, source, seq, &info)
    {
        Some(packet) => {
            let scan_span = world.spans.channel_sample_rebroadcast;
            super::beacon::transmit(engine, world, robot, packet, now, scan_span);
        }
        None => {
            if world.robots[robot].mesh.stats().queries_suppressed > suppressed_before {
                world.telemetry.emit(
                    now,
                    TelemetryEvent::MeshPrune {
                        robot: robot as u32,
                        source: source.0,
                        seq,
                    },
                );
            }
        }
    }
}

/// Routes a delivered mesh packet (query/reply/data) into the backend and
/// executes the resulting protocol actions.
pub(crate) fn handle_mesh_packet(
    engine: &mut Engine<Event>,
    world: &mut WorldState,
    robot: usize,
    packet: &Packet,
    now: SimTime,
) {
    let mode = world.mode();
    let area = world.scenario.area;
    let info = world.robots[robot].mobility_info(mode, &area);
    let sp = world.telemetry.span_start();
    let actions = world.robots[robot].mesh.handle_packet(now, packet, &info);
    world.telemetry.span_end(world.spans.mesh_handle, sp);
    for action in actions {
        match action {
            ProtocolAction::Broadcast {
                packet,
                jitter_bound,
            } => {
                let jitter = uniform(
                    0.0,
                    jitter_bound.as_secs_f64().max(1e-4),
                    &mut world.jitter_rng,
                );
                engine.schedule_in(
                    SimDuration::from_secs_f64(jitter),
                    Event::Transmit {
                        robot,
                        intent: TxIntent::Mesh(packet),
                    },
                );
            }
            ProtocolAction::Deliver { source: _, body } => {
                match SyncMessage::decode(body) {
                    Some(_msg) => {
                        let r = &mut world.robots[robot];
                        if r.clock.resync(now) {
                            r.synced_this_window = true;
                        } else {
                            // A replayed or reordered SYNC older than
                            // the clock's anchor: ignored, counted.
                            world.robustness.stale_syncs_ignored += 1;
                        }
                    }
                    None => {
                        // Garbled in flight: the mesh delivered bytes
                        // the application cannot parse.
                        world.robustness.malformed_sync_bodies += 1;
                        world.robots[robot].mesh.note_undecodable_delivery();
                    }
                }
            }
            ProtocolAction::ScheduleReply { source, after } => {
                engine.schedule_in(after, Event::MeshReply { robot, source });
            }
            ProtocolAction::ScheduleRebroadcast { source, seq, after } => {
                engine.schedule_in(after, Event::MeshRebroadcast { robot, source, seq });
            }
        }
    }
}
