//! The naive dissemination baseline: blind flooding.
//!
//! ODMRP/MRMM exist because flooding every data packet is wasteful: every
//! node rebroadcasts every packet once, so delivering one SYNC costs N
//! transmissions regardless of topology. This module implements that
//! baseline with the same sans-IO interface as [`crate::odmrp::OdmrpNode`],
//! so the mesh-efficiency comparison (forwarding efficiency, control
//! overhead) has a floor to stand on.

use bytes::Bytes;

use cocoa_net::packet::{GroupId, NodeId, Packet, Payload};
use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::time::{SimDuration, SimTime};

use crate::mesh::{code_round, DedupCache, MeshStats};
use crate::odmrp::ProtocolAction;

/// A blind-flooding node: rebroadcast every first copy of every data
/// packet, deliver to the local member, drop duplicates.
pub struct FloodNode {
    id: NodeId,
    group: GroupId,
    member: bool,
    jitter: SimDuration,
    seen: DedupCache<(NodeId, u32)>,
    next_seq: u32,
    stats: MeshStats,
}

impl std::fmt::Debug for FloodNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FloodNode")
            .field("id", &self.id)
            .field("member", &self.member)
            .finish()
    }
}

impl FloodNode {
    /// Creates a flooding node.
    pub fn new(id: NodeId, group: GroupId, member: bool) -> Self {
        FloodNode {
            id,
            group,
            member,
            jitter: SimDuration::from_millis(100),
            seen: DedupCache::new(SimDuration::from_secs(120)),
            next_seq: 0,
            stats: MeshStats::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Protocol counters (flooding has no control traffic; only the data
    /// fields are populated).
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// Originates a data packet (source only).
    pub fn originate_data(&mut self, now: SimTime, body: Bytes) -> Packet {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.seen.insert((self.id, seq), now);
        self.stats.data_originated = self.stats.data_originated.wrapping_add(1);
        Packet::new(
            self.id,
            seq,
            Payload::Data {
                group: self.group,
                body,
            },
        )
    }

    /// Records a delivered data body the application could not decode
    /// (same accounting hook as `OdmrpNode::note_undecodable_delivery`).
    pub fn note_undecodable_delivery(&mut self) {
        self.stats.data_undecodable = self.stats.data_undecodable.wrapping_add(1);
    }

    /// The snapshot layout of the node's mutable state, decoded onto a
    /// node built with the same identity.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let FloodNode {
            seen,
            next_seq,
            stats,
            // Identity and settings, set by the reader's constructor.
            id: _,
            group: _,
            member: _,
            jitter: _,
        } = self;
        seen.code(c, code_round)?;
        c.u32(next_seq)?;
        stats.code(c)
    }

    /// Handles a received packet: deliver once, rebroadcast once.
    pub fn handle_packet(&mut self, now: SimTime, packet: &Packet) -> Vec<ProtocolAction> {
        let Payload::Data { group, body } = &packet.payload else {
            return Vec::new(); // flooding ignores all control traffic
        };
        if *group != self.group || packet.src == self.id {
            return Vec::new();
        }
        if !self.seen.insert((packet.src, packet.seq), now) {
            self.stats.data_duplicates = self.stats.data_duplicates.wrapping_add(1);
            return Vec::new();
        }
        let mut actions = Vec::new();
        if self.member {
            self.stats.data_delivered = self.stats.data_delivered.wrapping_add(1);
            actions.push(ProtocolAction::Deliver {
                source: packet.src,
                body: body.clone(),
            });
        }
        self.stats.data_forwarded = self.stats.data_forwarded.wrapping_add(1);
        actions.push(ProtocolAction::Broadcast {
            packet: packet.clone(),
            jitter_bound: self.jitter,
        });
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn first_copy_delivers_and_forwards() {
        let mut src = FloodNode::new(NodeId(0), GroupId(1), true);
        let mut node = FloodNode::new(NodeId(1), GroupId(1), true);
        let data = src.originate_data(t(0), Bytes::from_static(b"sync"));
        let acts = node.handle_packet(t(0), &data);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::Deliver { .. })));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::Broadcast { .. })));
        assert_eq!(node.stats().data_forwarded, 1);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut src = FloodNode::new(NodeId(0), GroupId(1), true);
        let mut node = FloodNode::new(NodeId(1), GroupId(1), true);
        let data = src.originate_data(t(0), Bytes::from_static(b"x"));
        assert!(!node.handle_packet(t(0), &data).is_empty());
        assert!(node.handle_packet(t(0), &data).is_empty());
        assert_eq!(node.stats().data_duplicates, 1);
    }

    #[test]
    fn non_members_forward_without_delivering() {
        let mut src = FloodNode::new(NodeId(0), GroupId(1), true);
        let mut relay = FloodNode::new(NodeId(1), GroupId(1), false);
        let data = src.originate_data(t(0), Bytes::from_static(b"x"));
        let acts = relay.handle_packet(t(0), &data);
        assert!(!acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::Deliver { .. })));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::Broadcast { .. })));
    }

    #[test]
    fn control_traffic_is_ignored() {
        let mut node = FloodNode::new(NodeId(1), GroupId(1), true);
        let query = Packet::new(
            NodeId(0),
            0,
            Payload::JoinQuery {
                group: GroupId(1),
                hop_count: 0,
                prev_hop: NodeId(0),
                position: cocoa_net::geometry::Point::ORIGIN,
                velocity: (0.0, 0.0),
                d_rest: 0.0,
            },
        );
        assert!(node.handle_packet(t(0), &query).is_empty());
    }

    #[test]
    fn other_groups_are_ignored() {
        let mut src = FloodNode::new(NodeId(0), GroupId(2), true);
        let mut node = FloodNode::new(NodeId(1), GroupId(1), true);
        let data = src.originate_data(t(0), Bytes::from_static(b"x"));
        assert!(node.handle_packet(t(0), &data).is_empty());
    }

    #[test]
    fn every_node_forwards_exactly_once_per_packet() {
        // The defining cost of flooding: per packet, every node transmits.
        let mut src = FloodNode::new(NodeId(0), GroupId(1), true);
        let mut nodes: Vec<FloodNode> = (1..10)
            .map(|i| FloodNode::new(NodeId(i), GroupId(1), true))
            .collect();
        let data = src.originate_data(t(0), Bytes::from_static(b"x"));
        // Deliver the packet to everyone twice (as rebroadcasts would).
        for n in &mut nodes {
            n.handle_packet(t(0), &data);
            n.handle_packet(t(0), &data);
        }
        let total_tx: u64 = nodes.iter().map(|n| n.stats().data_forwarded).sum();
        assert_eq!(total_tx, 9, "each node forwards exactly once");
    }
}
