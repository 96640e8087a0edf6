//! Backend selection: which mesh multicast protocol a scenario runs.
//!
//! The simulation core treats the mesh layer as a swappable backend (the
//! paper's comparison axis: blind flooding vs plain ODMRP vs the MRMM
//! extension). [`MulticastProtocol`] names the three backends in one place
//! so configuration, CLI parsing and reporting all agree on the spelling,
//! and [`MeshNode`] is the node the selected backend runs.

use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use cocoa_net::packet::{GroupId, NodeId, Packet};
use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::time::SimTime;

use crate::flood::FloodNode;
use crate::mesh::MeshStats;
use crate::mrmm::MobilityInfo;
use crate::odmrp::{OdmrpConfig, OdmrpNode, ProtocolAction};

/// The mesh multicast backend driving SYNC dissemination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MulticastProtocol {
    /// Blind flooding: every node rebroadcasts every first copy. No
    /// control traffic, maximal data redundancy — the baseline floor.
    Flood,
    /// Plain ODMRP: JOIN QUERY flood, JOIN REPLY reverse paths, a
    /// forwarding group rebroadcasting data (hop-count routes).
    Odmrp,
    /// MRMM: ODMRP plus mobility-aware link-lifetime scoring and
    /// redundancy-based forwarding-group pruning (the paper's protocol).
    Mrmm,
}

impl MulticastProtocol {
    /// All backends, in comparison order (baseline first); this is also
    /// the snapshot codec-tag order.
    pub const ALL: [MulticastProtocol; 3] = [
        MulticastProtocol::Flood,
        MulticastProtocol::Odmrp,
        MulticastProtocol::Mrmm,
    ];

    /// Stable lower-case name, used in CLI flags, counters and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            MulticastProtocol::Flood => "flood",
            MulticastProtocol::Odmrp => "odmrp",
            MulticastProtocol::Mrmm => "mrmm",
        }
    }

    /// Parses a backend name (the inverse of [`MulticastProtocol::as_str`]).
    pub fn parse(s: &str) -> Option<MulticastProtocol> {
        match s {
            "flood" => Some(MulticastProtocol::Flood),
            "odmrp" => Some(MulticastProtocol::Odmrp),
            "mrmm" => Some(MulticastProtocol::Mrmm),
            _ => None,
        }
    }
}

impl Default for MulticastProtocol {
    /// MRMM — the paper's protocol and the pre-existing default behaviour
    /// of the simulation core.
    fn default() -> Self {
        MulticastProtocol::Mrmm
    }
}

impl fmt::Display for MulticastProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One robot's mesh node under the selected [`MulticastProtocol`]: packets
/// in, protocol actions out, counters on demand. The runner drives every
/// backend through these methods, so no protocol-specific behaviour leaks
/// into it.
#[derive(Debug)]
pub enum MeshNode {
    /// Blind flooding: data only, no control plane.
    Flood(FloodNode),
    /// Plain ODMRP or MRMM, whichever the constructor built.
    Odmrp(Box<OdmrpNode>),
}

impl MeshNode {
    /// Builds `protocol`'s node. The ODMRP family runs on `config`;
    /// flooding has no settings.
    pub fn new(
        protocol: MulticastProtocol,
        id: NodeId,
        group: GroupId,
        member: bool,
        config: OdmrpConfig,
    ) -> Self {
        match protocol {
            MulticastProtocol::Flood => MeshNode::Flood(FloodNode::new(id, group, member)),
            MulticastProtocol::Odmrp => {
                MeshNode::Odmrp(Box::new(OdmrpNode::odmrp(id, group, member, config)))
            }
            MulticastProtocol::Mrmm => {
                MeshNode::Odmrp(Box::new(OdmrpNode::mrmm(id, group, member, config)))
            }
        }
    }

    /// Starts a mesh-refresh round. Flooding has no route state to
    /// refresh, so it returns `None`.
    pub fn originate_query(&mut self, now: SimTime, my: &MobilityInfo) -> Option<Packet> {
        match self {
            MeshNode::Flood(_) => None,
            MeshNode::Odmrp(n) => Some(n.originate_query(now, my)),
        }
    }

    /// Originates a data packet carrying `body` (source side).
    pub fn originate_data(&mut self, now: SimTime, body: Bytes) -> Packet {
        match self {
            MeshNode::Flood(n) => n.originate_data(now, body),
            MeshNode::Odmrp(n) => n.originate_data(now, body),
        }
    }

    /// Handles a received mesh packet and returns the follow-up actions.
    pub fn handle_packet(
        &mut self,
        now: SimTime,
        packet: &Packet,
        my: &MobilityInfo,
    ) -> Vec<ProtocolAction> {
        match self {
            MeshNode::Flood(n) => n.handle_packet(now, packet),
            MeshNode::Odmrp(n) => n.handle_packet(now, packet, my),
        }
    }

    /// Builds the deferred JOIN REPLY toward `source`, if still warranted.
    pub fn make_reply(&mut self, now: SimTime, source: NodeId) -> Option<Packet> {
        match self {
            MeshNode::Flood(_) => None,
            MeshNode::Odmrp(n) => n.make_reply(now, source),
        }
    }

    /// Builds the deferred JOIN QUERY rebroadcast for (`source`, `seq`),
    /// or `None` if the round went stale or the node pruned it.
    pub fn make_rebroadcast(
        &mut self,
        now: SimTime,
        source: NodeId,
        seq: u32,
        my: &MobilityInfo,
    ) -> Option<Packet> {
        match self {
            MeshNode::Flood(_) => None,
            MeshNode::Odmrp(n) => n.make_rebroadcast(now, source, seq, my),
        }
    }

    /// Lifetime protocol counters.
    pub fn stats(&self) -> MeshStats {
        match self {
            MeshNode::Flood(n) => n.stats(),
            MeshNode::Odmrp(n) => n.stats(),
        }
    }

    /// Records a delivered data body the application could not decode.
    pub fn note_undecodable_delivery(&mut self) {
        match self {
            MeshNode::Flood(n) => n.note_undecodable_delivery(),
            MeshNode::Odmrp(n) => n.note_undecodable_delivery(),
        }
    }

    /// The snapshot layout: the node's state as one length-prefixed blob,
    /// decoded onto a node [`MeshNode::new`] built for the same protocol,
    /// identity and configuration. Bytes the node's layout leaves unread
    /// are an error.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        match self {
            MeshNode::Flood(n) => c.nested("mesh.flood", |c| n.code(c)),
            MeshNode::Odmrp(n) => c.nested("mesh.odmrp", |c| n.code(c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in MulticastProtocol::ALL {
            assert_eq!(MulticastProtocol::parse(p.as_str()), Some(p));
            assert_eq!(format!("{p}"), p.as_str());
        }
        assert_eq!(MulticastProtocol::parse("gossip"), None);
    }

    #[test]
    fn default_is_mrmm() {
        assert_eq!(MulticastProtocol::default(), MulticastProtocol::Mrmm);
    }
}
