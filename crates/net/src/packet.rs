//! Packet vocabulary shared by every protocol in the reproduction.
//!
//! The paper sends RF beacons as UDP broadcasts whose payload is the
//! transmitting robot's coordinates, "in addition to the IP and UDP headers
//! (20 bytes each)". We reproduce that accounting exactly: every packet's
//! wire size is the encoded payload plus [`IP_HEADER_BYTES`] +
//! [`UDP_HEADER_BYTES`].
//!
//! All payloads have an explicit binary encoding (via [`bytes`]) so that
//! sizes fed to the MAC and energy models are those of a real
//! serialization, not hand-waved constants: [`Packet::wire_size`] counts
//! the layout [`Packet::encode`] writes, and a property test pins the two
//! together.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use cocoa_sim::snapshot::{Codec, SnapshotError};

use crate::geometry::Point;

/// IP header size used for wire-size accounting, bytes (paper Section 2.3).
pub const IP_HEADER_BYTES: usize = 20;
/// UDP header size used for wire-size accounting, bytes. The paper charges
/// 20 bytes for the UDP header as well, and we follow the paper.
pub const UDP_HEADER_BYTES: usize = 20;

/// Identifier of a robot (network node).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The snapshot layout: the id's `u32`.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let NodeId(id) = self;
        c.u32(id)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "robot-{}", self.0)
    }
}

/// Identifier of a multicast group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u16);

/// The protocol payload of a packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// A CoCoA localization beacon: the sender's coordinates from its
    /// localization device (paper Section 2.2).
    Beacon {
        /// Coordinates the sender believes it is at.
        position: Point,
    },
    /// A CoCoA SYNC message carrying the coordination periods (Section 2.3).
    Sync {
        /// Beacon period `T`, microseconds.
        period_us: u64,
        /// Transmit period `t`, microseconds.
        window_us: u64,
        /// Time remaining until the next beacon period starts, measured at
        /// the Sync robot when the message was originated, microseconds.
        /// Receivers use it to phase-align their local timers.
        next_period_in_us: u64,
    },
    /// ODMRP/MRMM JOIN QUERY flooded to (re)build the mesh. Carries the
    /// mobility knowledge MRMM prunes with (position, velocity, residual
    /// travel distance).
    JoinQuery {
        /// Multicast group being built.
        group: GroupId,
        /// Hops travelled so far.
        hop_count: u8,
        /// The node that rebroadcast this copy (reverse-path predecessor).
        prev_hop: NodeId,
        /// Rebroadcaster's believed position.
        position: Point,
        /// Rebroadcaster's velocity, m/s (east, north).
        velocity: (f64, f64),
        /// Distance the rebroadcaster will still travel before its next
        /// course change (`d_rest` in the MRMM paper), metres.
        d_rest: f64,
    },
    /// ODMRP JOIN REPLY sent by members back along reverse paths; receiving
    /// one addressed to you makes you a forwarding-group node.
    JoinReply {
        /// Multicast group.
        group: GroupId,
        /// The mesh source this reply answers.
        source: NodeId,
        /// The upstream node being recruited as forwarder.
        next_hop: NodeId,
    },
    /// Application data delivered down the mesh (carries the SYNC in CoCoA,
    /// but any app may use it).
    Data {
        /// Multicast group.
        group: GroupId,
        /// Opaque application bytes.
        body: Bytes,
    },
}

/// A placeholder decoders overwrite: a beacon from the origin.
impl Default for Payload {
    fn default() -> Self {
        Payload::Beacon {
            position: Point::default(),
        }
    }
}

impl Payload {
    /// A compact discriminant for tracing/metrics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Beacon { .. } => "beacon",
            Payload::Sync { .. } => "sync",
            Payload::JoinQuery { .. } => "join-query",
            Payload::JoinReply { .. } => "join-reply",
            Payload::Data { .. } => "data",
        }
    }
}

/// A fully-formed packet as handed to the MAC.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Packet {
    /// Originating node (not necessarily the last forwarder).
    pub src: NodeId,
    /// Per-source sequence number for duplicate suppression.
    pub seq: u32,
    /// Protocol payload.
    pub payload: Payload,
}

/// Error returned when decoding a malformed packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodePacketError {
    what: &'static str,
}

impl std::fmt::Display for DecodePacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed packet: {}", self.what)
    }
}

impl std::error::Error for DecodePacketError {}

impl DecodePacketError {
    fn new(what: &'static str) -> Self {
        DecodePacketError { what }
    }
}

/// Largest data body the wire format can carry (the length field is u16).
/// Longer bodies are truncated at encode time instead of panicking — a
/// mis-sized application payload must never take down the radio stack.
pub const MAX_DATA_BODY: usize = u16::MAX as usize;

const TAG_BEACON: u8 = 1;
const TAG_SYNC: u8 = 2;
const TAG_JOIN_QUERY: u8 = 3;
const TAG_JOIN_REPLY: u8 = 4;
const TAG_DATA: u8 = 5;

impl Packet {
    /// Creates a packet.
    pub fn new(src: NodeId, seq: u32, payload: Payload) -> Self {
        Packet { src, seq, payload }
    }

    /// The snapshot layout: the on-air bytes ([`Packet::encode`]) as a
    /// blob. Bytes [`Packet::decode`] refuses are malformed.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        c.via(
            self,
            |p| p.encode().to_vec(),
            Codec::bytes,
            |raw| {
                Packet::decode(Bytes::from(raw)).map_err(|e| {
                    SnapshotError::malformed(format!("undecodable packet in snapshot: {e:?}"))
                })
            },
        )
    }

    /// Serializes to the on-air byte representation (excluding the IP/UDP
    /// headers, which exist only as size accounting).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64);
        b.put_u32(self.src.0);
        b.put_u32(self.seq);
        match &self.payload {
            Payload::Beacon { position } => {
                b.put_u8(TAG_BEACON);
                b.put_f64(position.x);
                b.put_f64(position.y);
            }
            Payload::Sync {
                period_us,
                window_us,
                next_period_in_us,
            } => {
                b.put_u8(TAG_SYNC);
                b.put_u64(*period_us);
                b.put_u64(*window_us);
                b.put_u64(*next_period_in_us);
            }
            Payload::JoinQuery {
                group,
                hop_count,
                prev_hop,
                position,
                velocity,
                d_rest,
            } => {
                b.put_u8(TAG_JOIN_QUERY);
                b.put_u16(group.0);
                b.put_u8(*hop_count);
                b.put_u32(prev_hop.0);
                b.put_f64(position.x);
                b.put_f64(position.y);
                b.put_f64(velocity.0);
                b.put_f64(velocity.1);
                b.put_f64(*d_rest);
            }
            Payload::JoinReply {
                group,
                source,
                next_hop,
            } => {
                b.put_u8(TAG_JOIN_REPLY);
                b.put_u16(group.0);
                b.put_u32(source.0);
                b.put_u32(next_hop.0);
            }
            Payload::Data { group, body } => {
                b.put_u8(TAG_DATA);
                b.put_u16(group.0);
                let len = body.len().min(MAX_DATA_BODY);
                b.put_u16(len as u16);
                b.extend_from_slice(&body[..len]);
            }
        }
        b.freeze()
    }

    /// Decodes a packet previously produced by [`Packet::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodePacketError`] if the buffer is truncated, carries
    /// trailing bytes past the payload, or the payload tag is unknown.
    pub fn decode(mut buf: Bytes) -> Result<Self, DecodePacketError> {
        fn need(buf: &Bytes, n: usize) -> Result<(), DecodePacketError> {
            if buf.remaining() < n {
                Err(DecodePacketError::new("truncated"))
            } else {
                Ok(())
            }
        }
        need(&buf, 9)?;
        let src = NodeId(buf.get_u32());
        let seq = buf.get_u32();
        let tag = buf.get_u8();
        let payload = match tag {
            TAG_BEACON => {
                need(&buf, 16)?;
                Payload::Beacon {
                    position: Point::new(buf.get_f64(), buf.get_f64()),
                }
            }
            TAG_SYNC => {
                need(&buf, 24)?;
                Payload::Sync {
                    period_us: buf.get_u64(),
                    window_us: buf.get_u64(),
                    next_period_in_us: buf.get_u64(),
                }
            }
            TAG_JOIN_QUERY => {
                need(&buf, 2 + 1 + 4 + 40)?;
                Payload::JoinQuery {
                    group: GroupId(buf.get_u16()),
                    hop_count: buf.get_u8(),
                    prev_hop: NodeId(buf.get_u32()),
                    position: Point::new(buf.get_f64(), buf.get_f64()),
                    velocity: (buf.get_f64(), buf.get_f64()),
                    d_rest: buf.get_f64(),
                }
            }
            TAG_JOIN_REPLY => {
                need(&buf, 10)?;
                Payload::JoinReply {
                    group: GroupId(buf.get_u16()),
                    source: NodeId(buf.get_u32()),
                    next_hop: NodeId(buf.get_u32()),
                }
            }
            TAG_DATA => {
                need(&buf, 4)?;
                let group = GroupId(buf.get_u16());
                let len = usize::from(buf.get_u16());
                need(&buf, len)?;
                Payload::Data {
                    group,
                    body: buf.copy_to_bytes(len),
                }
            }
            _ => return Err(DecodePacketError::new("unknown payload tag")),
        };
        if buf.remaining() > 0 {
            // A longer buffer than the payload needs is as malformed as a
            // shorter one — strictness here keeps garbled frames from
            // silently passing as valid packets.
            return Err(DecodePacketError::new("trailing bytes"));
        }
        Ok(Packet { src, seq, payload })
    }

    /// Total bytes this packet occupies on the air: encoded payload plus the
    /// IP and UDP headers the paper charges. Counted from the layout
    /// [`Packet::encode`] writes (source, sequence and tag, then the
    /// payload's fields), without encoding.
    pub fn wire_size(&self) -> usize {
        let fields = match &self.payload {
            Payload::Beacon { .. } => 16,
            Payload::Sync { .. } => 24,
            Payload::JoinQuery { .. } => 2 + 1 + 4 + 40,
            Payload::JoinReply { .. } => 10,
            Payload::Data { body, .. } => 4 + body.len().min(MAX_DATA_BODY),
        };
        IP_HEADER_BYTES + UDP_HEADER_BYTES + 9 + fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: Packet) {
        let encoded = p.encode();
        let decoded = Packet::decode(encoded).expect("decode");
        assert_eq!(decoded, p);
    }

    #[test]
    fn beacon_roundtrip_and_size() {
        let p = Packet::new(
            NodeId(7),
            42,
            Payload::Beacon {
                position: Point::new(12.5, -3.25),
            },
        );
        roundtrip(p.clone());
        // 4 src + 4 seq + 1 tag + 16 coords = 25 payload bytes + 40 headers.
        assert_eq!(p.wire_size(), 65);
    }

    #[test]
    fn sync_roundtrip() {
        roundtrip(Packet::new(
            NodeId(0),
            1,
            Payload::Sync {
                period_us: 100_000_000,
                window_us: 3_000_000,
                next_period_in_us: 97_000_000,
            },
        ));
    }

    #[test]
    fn join_query_roundtrip() {
        roundtrip(Packet::new(
            NodeId(3),
            9,
            Payload::JoinQuery {
                group: GroupId(1),
                hop_count: 4,
                prev_hop: NodeId(12),
                position: Point::new(100.0, 50.0),
                velocity: (0.3, -1.2),
                d_rest: 38.5,
            },
        ));
    }

    #[test]
    fn join_reply_roundtrip() {
        roundtrip(Packet::new(
            NodeId(3),
            9,
            Payload::JoinReply {
                group: GroupId(1),
                source: NodeId(0),
                next_hop: NodeId(5),
            },
        ));
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(Packet::new(
            NodeId(3),
            9,
            Payload::Data {
                group: GroupId(2),
                body: Bytes::from_static(b"hello mesh"),
            },
        ));
    }

    #[test]
    fn oversized_data_body_is_truncated_not_panicking() {
        let p = Packet::new(
            NodeId(3),
            9,
            Payload::Data {
                group: GroupId(2),
                body: Bytes::from(vec![0xABu8; MAX_DATA_BODY + 100]),
            },
        );
        assert_eq!(p.wire_size(), 40 + p.encode().len());
        let decoded = Packet::decode(p.encode()).expect("decode");
        match decoded.payload {
            Payload::Data { body, .. } => assert_eq!(body.len(), MAX_DATA_BODY),
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn truncated_buffer_errors() {
        let p = Packet::new(
            NodeId(7),
            42,
            Payload::Beacon {
                position: Point::new(1.0, 2.0),
            },
        );
        let enc = p.encode();
        for cut in [0, 5, 9, 20] {
            let truncated = enc.slice(0..cut);
            assert!(Packet::decode(truncated).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_tag_errors() {
        let mut b = BytesMut::new();
        b.put_u32(1);
        b.put_u32(1);
        b.put_u8(99);
        assert!(Packet::decode(b.freeze()).is_err());
    }

    #[test]
    fn kind_names_are_stable() {
        let kinds = [
            Payload::Beacon {
                position: Point::ORIGIN,
            }
            .kind_name(),
            Payload::Sync {
                period_us: 0,
                window_us: 0,
                next_period_in_us: 0,
            }
            .kind_name(),
        ];
        assert_eq!(kinds, ["beacon", "sync"]);
    }

    #[test]
    fn header_accounting_matches_paper() {
        assert_eq!(IP_HEADER_BYTES + UDP_HEADER_BYTES, 40);
    }
}
