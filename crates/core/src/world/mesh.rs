//! The pluggable mesh layer: one [`MeshBackend`] trait, three transports.
//!
//! The runner never names a concrete multicast protocol; it drives
//! whatever [`make_backend`] hands it for the scenario's
//! [`MulticastProtocol`]. Three backends exist:
//!
//! - **flood** — blind flooding ([`cocoa_multicast::flood::FloodNode`]):
//!   no control plane, every node rebroadcasts every data packet once;
//! - **odmrp** — classic ODMRP ([`OdmrpNode::odmrp`]): JOIN QUERY flood,
//!   JOIN REPLY aggregation, only forwarding-group members rebroadcast
//!   data;
//! - **mrmm** — the paper's mobility-aware variant (the same node type,
//!   built by [`OdmrpNode::mrmm`]): queries piggyback position/velocity,
//!   routes are scored by predicted link lifetime, and redundant query
//!   rebroadcasts are pruned.
//!
//! This module also owns the mesh-side event handling (deferred replies,
//! rebroadcast decisions, and delivered mesh packets), so all calls into
//! the backend go through one place.

use bytes::Bytes;
use cocoa_multicast::flood::{FloodCheckpoint, FloodNode};
use cocoa_multicast::mesh::MeshStats;
use cocoa_multicast::mrmm::MobilityInfo;
use cocoa_multicast::odmrp::{OdmrpCheckpoint, OdmrpConfig, OdmrpNode, ProtocolAction};
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_net::packet::{GroupId, NodeId, Packet};
use cocoa_sim::dist::uniform;
use cocoa_sim::engine::Engine;
use cocoa_sim::snapshot::{self, Codec, SnapshotError};
use cocoa_sim::telemetry::TelemetryEvent;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::sync::SyncMessage;

use super::checkpoint::{node, time};
use super::events::{Event, TxIntent};
use super::WorldState;

/// A sans-IO multicast transport as the runner sees it: packets in,
/// protocol actions out, counters on demand.
///
/// All three backends share the envelope of
/// [`cocoa_multicast::odmrp::OdmrpNode`]'s API; the trait narrows it to
/// exactly what the event loop calls, so swapping transports cannot leak
/// protocol-specific behaviour into the runner.
pub trait MeshBackend: Send {
    /// Stable lowercase backend name (`"flood"`, `"odmrp"`, `"mrmm"`),
    /// used for telemetry counter namespaces and reports.
    fn name(&self) -> &'static str;

    /// Starts a mesh-refresh round, if this transport has a control plane.
    /// Flooding returns `None`: there is no route state to refresh.
    fn originate_query(&mut self, now: SimTime, my: &MobilityInfo) -> Option<Packet>;

    /// Originates a data packet carrying `body` (source side).
    fn originate_data(&mut self, now: SimTime, body: Bytes) -> Packet;

    /// Handles a received mesh packet and returns the follow-up actions.
    fn handle_packet(
        &mut self,
        now: SimTime,
        packet: &Packet,
        my: &MobilityInfo,
    ) -> Vec<ProtocolAction>;

    /// Builds the deferred JOIN REPLY toward `source`, if still warranted.
    fn make_reply(&mut self, now: SimTime, source: NodeId) -> Option<Packet>;

    /// Builds the deferred JOIN QUERY rebroadcast for (`source`, `seq`),
    /// or `None` if the round went stale or the backend pruned it.
    fn make_rebroadcast(
        &mut self,
        now: SimTime,
        source: NodeId,
        seq: u32,
        my: &MobilityInfo,
    ) -> Option<Packet>;

    /// Lifetime protocol counters.
    fn stats(&self) -> MeshStats;

    /// Records a delivered data body the application could not decode.
    fn note_undecodable_delivery(&mut self);

    /// Serializes the backend's complete mutable state as checkpoint bytes.
    /// Identity and configuration are not included — they are rebuilt by
    /// [`make_backend`] before [`MeshBackend::load_state`] decodes these
    /// bytes onto the fresh node.
    fn save_state(&self) -> Vec<u8>;

    /// Restores state produced by [`MeshBackend::save_state`] on a backend
    /// constructed with the same identity and configuration.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

fn dedup_entry(
    c: &mut impl Codec,
    ((source, seq), expiry): &mut ((NodeId, u32), SimTime),
) -> Result<(), SnapshotError> {
    node(c, source)?;
    c.u32(seq)?;
    time(c, expiry)
}

/// Lifetime protocol counters, in [`MeshStats::counters`] order; the run
/// metrics reuse this layout.
pub(crate) fn mesh_stats(c: &mut impl Codec, s: &mut MeshStats) -> Result<(), SnapshotError> {
    c.u64s([
        &mut s.queries_originated,
        &mut s.queries_rebroadcast,
        &mut s.queries_suppressed,
        &mut s.replies_sent,
        &mut s.fg_activations,
        &mut s.data_originated,
        &mut s.data_forwarded,
        &mut s.data_delivered,
        &mut s.data_duplicates,
        &mut s.data_undecodable,
    ])
}

fn odmrp_state(c: &mut impl Codec, s: &mut OdmrpCheckpoint) -> Result<(), SnapshotError> {
    c.opt(&mut s.fg_until, time)?;
    c.vec(&mut s.routes, |c, r| {
        node(c, &mut r.source)?;
        node(c, &mut r.prev_hop)?;
        c.u8(&mut r.hops)?;
        c.f64(&mut r.score.lifetime)?;
        c.u8(&mut r.score.hops)?;
        c.u32(&mut r.seq)
    })?;
    c.vec(&mut s.rounds, |c, r| {
        node(c, &mut r.source)?;
        c.u32(&mut r.seq)?;
        c.u32(&mut r.copies)?;
        c.bool(&mut r.reply_scheduled)?;
        c.bool(&mut r.rebroadcast_scheduled)
    })?;
    c.vec(&mut s.seen_queries, dedup_entry)?;
    c.vec(&mut s.seen_data, dedup_entry)?;
    c.vec(&mut s.last_reply_propagated, |c, (n, t)| {
        node(c, n)?;
        time(c, t)
    })?;
    c.u32(&mut s.next_seq)?;
    mesh_stats(c, &mut s.stats)
}

fn flood_state(c: &mut impl Codec, s: &mut FloodCheckpoint) -> Result<(), SnapshotError> {
    c.vec(&mut s.seen, dedup_entry)?;
    c.u32(&mut s.next_seq)?;
    mesh_stats(c, &mut s.stats)
}

/// ODMRP or MRMM, whichever constructor built the node.
struct OdmrpBackend {
    node: OdmrpNode,
    name: &'static str,
}

impl MeshBackend for OdmrpBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn originate_query(&mut self, now: SimTime, my: &MobilityInfo) -> Option<Packet> {
        Some(self.node.originate_query(now, my))
    }

    fn originate_data(&mut self, now: SimTime, body: Bytes) -> Packet {
        self.node.originate_data(now, body)
    }

    fn handle_packet(
        &mut self,
        now: SimTime,
        packet: &Packet,
        my: &MobilityInfo,
    ) -> Vec<ProtocolAction> {
        self.node.handle_packet(now, packet, my)
    }

    fn make_reply(&mut self, now: SimTime, source: NodeId) -> Option<Packet> {
        self.node.make_reply(now, source)
    }

    fn make_rebroadcast(
        &mut self,
        now: SimTime,
        source: NodeId,
        seq: u32,
        my: &MobilityInfo,
    ) -> Option<Packet> {
        self.node.make_rebroadcast(now, source, seq, my)
    }

    fn stats(&self) -> MeshStats {
        self.node.stats()
    }

    fn note_undecodable_delivery(&mut self) {
        self.node.note_undecodable_delivery();
    }

    fn save_state(&self) -> Vec<u8> {
        snapshot::encode(|c| odmrp_state(c, &mut self.node.checkpoint()))
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut state = OdmrpCheckpoint::default();
        snapshot::decode(bytes, "mesh.odmrp", |c| odmrp_state(c, &mut state))?;
        self.node.restore(state);
        Ok(())
    }
}

/// The blind-flooding baseline: data only, no control plane.
struct FloodBackend {
    node: FloodNode,
}

impl MeshBackend for FloodBackend {
    fn name(&self) -> &'static str {
        "flood"
    }

    fn originate_query(&mut self, _now: SimTime, _my: &MobilityInfo) -> Option<Packet> {
        None // no mesh to refresh
    }

    fn originate_data(&mut self, now: SimTime, body: Bytes) -> Packet {
        self.node.originate_data(now, body)
    }

    fn handle_packet(
        &mut self,
        now: SimTime,
        packet: &Packet,
        _my: &MobilityInfo,
    ) -> Vec<ProtocolAction> {
        self.node.handle_packet(now, packet)
    }

    fn make_reply(&mut self, _now: SimTime, _source: NodeId) -> Option<Packet> {
        None
    }

    fn make_rebroadcast(
        &mut self,
        _now: SimTime,
        _source: NodeId,
        _seq: u32,
        _my: &MobilityInfo,
    ) -> Option<Packet> {
        None
    }

    fn stats(&self) -> MeshStats {
        self.node.stats()
    }

    fn note_undecodable_delivery(&mut self) {
        self.node.note_undecodable_delivery();
    }

    fn save_state(&self) -> Vec<u8> {
        snapshot::encode(|c| flood_state(c, &mut self.node.checkpoint()))
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut state = FloodCheckpoint::default();
        snapshot::decode(bytes, "mesh.flood", |c| flood_state(c, &mut state))?;
        self.node.restore(state);
        Ok(())
    }
}

/// Builds the mesh backend for `protocol`. The ODMRP-family backends
/// share the scenario's mesh parameters; flooding has none.
pub fn make_backend(
    protocol: MulticastProtocol,
    id: NodeId,
    group: GroupId,
    member: bool,
    params: OdmrpConfig,
) -> Box<dyn MeshBackend> {
    let node = match protocol {
        MulticastProtocol::Flood => {
            return Box::new(FloodBackend {
                node: FloodNode::new(id, group, member),
            })
        }
        MulticastProtocol::Odmrp => OdmrpNode::odmrp(id, group, member, params),
        MulticastProtocol::Mrmm => OdmrpNode::mrmm(id, group, member, params),
    };
    Box::new(OdmrpBackend {
        node,
        name: protocol.as_str(),
    })
}

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
