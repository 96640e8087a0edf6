//! The ODMRP node state machine, with MRMM's mobility-aware extensions.
//!
//! ODMRP (Lee, Gerla & Chiang, WCNC 1999) builds a multicast **mesh**:
//!
//! 1. the source periodically floods a **JOIN QUERY**; every node records
//!    the reverse path (who it first heard the query from);
//! 2. group members answer with a **JOIN REPLY** naming their reverse-path
//!    predecessor; a node named in a reply sets its *forwarding-group*
//!    flag and propagates a reply towards the source;
//! 3. **data** is broadcast and rebroadcast by forwarding-group members
//!    until every member has a copy.
//!
//! MRMM (Das et al., ICRA 2005) adds mobility knowledge: JOIN QUERY
//! packets advertise `(position, velocity, d_rest)`, receivers predict
//! residual link lifetimes, reverse paths prefer long-lived links, and
//! short-lived redundant nodes suppress their rebroadcasts — yielding a
//! sparser, longer-lived mesh with fewer control and data transmissions.
//!
//! The node is written sans-IO: it consumes packets and emits
//! [`ProtocolAction`]s; the simulation runner owns all timing and the
//! actual radio.

use std::collections::HashMap;
use std::hash::Hash;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use cocoa_net::packet::{GroupId, NodeId, Packet, Payload};
use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::time::{SimDuration, SimTime};

use crate::mesh::{code_round, DedupCache, MeshStats};
use crate::mrmm::{link_lifetime, MobilityInfo, PathScore, PruneConfig};

/// Protocol configuration, shared by plain ODMRP and MRMM nodes (the
/// variant is chosen by the constructor, [`OdmrpNode::odmrp`] or
/// [`OdmrpNode::mrmm`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OdmrpConfig {
    /// Queries stop propagating after this many hops.
    pub max_hops: u8,
    /// How long a forwarding-group flag stays set after being refreshed.
    pub fg_timeout: SimDuration,
    /// Delay before a member answers a query (lets multiple copies arrive
    /// so MRMM can pick the best reverse path).
    pub reply_delay: SimDuration,
    /// Suggested jitter bound for rebroadcasts (avoids synchronized
    /// collisions; the runner draws the actual value).
    pub rebroadcast_jitter: SimDuration,
    /// Nominal radio range used for link-lifetime prediction, metres.
    pub range_m: f64,
    /// Prediction horizon, seconds (lifetimes are clamped to it).
    pub lifetime_horizon_s: f64,
    /// MRMM pruning policy.
    pub prune: PruneConfig,
    /// Duplicate-cache retention.
    pub dedup_retention: SimDuration,
}

impl OdmrpConfig {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let OdmrpConfig {
            max_hops,
            fg_timeout,
            reply_delay,
            rebroadcast_jitter,
            range_m,
            lifetime_horizon_s,
            prune,
            dedup_retention,
        } = self;
        c.u8(max_hops)?;
        fg_timeout.code(c)?;
        reply_delay.code(c)?;
        rebroadcast_jitter.code(c)?;
        c.f64(range_m)?;
        c.f64(lifetime_horizon_s)?;
        prune.code(c)?;
        dedup_retention.code(c)
    }
}

impl Default for OdmrpConfig {
    fn default() -> Self {
        OdmrpConfig {
            max_hops: 8,
            fg_timeout: SimDuration::from_secs(360),
            // Wide enough that a 50-node query flood does not collapse
            // into one collision storm on the shared medium.
            reply_delay: SimDuration::from_millis(200),
            rebroadcast_jitter: SimDuration::from_millis(100),
            range_m: 150.0,
            lifetime_horizon_s: 120.0,
            prune: PruneConfig::default(),
            dedup_retention: SimDuration::from_secs(120),
        }
    }
}

/// What the runner should do on the node's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolAction {
    /// Broadcast `packet`, after a runner-chosen jitter of at most
    /// `jitter_bound`.
    Broadcast {
        /// The packet to put on the air.
        packet: Packet,
        /// Upper bound on the random delay before transmission.
        jitter_bound: SimDuration,
    },
    /// Deliver application data to the local member.
    Deliver {
        /// The mesh source the data originated from.
        source: NodeId,
        /// The application payload.
        body: Bytes,
    },
    /// Call [`OdmrpNode::make_reply`] for `source` after `after`.
    ScheduleReply {
        /// The query source to reply to.
        source: NodeId,
        /// Aggregation delay.
        after: SimDuration,
    },
    /// Call [`OdmrpNode::make_rebroadcast`] for `(source, seq)` after
    /// `after` (gives MRMM time to count redundant copies).
    ScheduleRebroadcast {
        /// Query source.
        source: NodeId,
        /// Query round.
        seq: u32,
        /// Deferral before the rebroadcast decision.
        after: SimDuration,
    },
}

#[derive(Debug, Clone, Default)]
struct RouteEntry {
    prev_hop: NodeId,
    hops: u8,
    score: PathScore,
    seq: u32,
}

impl RouteEntry {
    fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let RouteEntry {
            prev_hop,
            hops,
            score,
            seq,
        } = self;
        prev_hop.code(c)?;
        c.u8(hops)?;
        score.code(c)?;
        c.u32(seq)
    }
}

#[derive(Debug, Clone, Default)]
struct QueryRound {
    copies: u32,
    reply_scheduled: bool,
    rebroadcast_scheduled: bool,
}

impl QueryRound {
    fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let QueryRound {
            copies,
            reply_scheduled,
            rebroadcast_scheduled,
        } = self;
        c.u32(copies)?;
        c.bool(reply_scheduled)?;
        c.bool(rebroadcast_scheduled)
    }
}

/// The snapshot layout of a hash map: its entries sorted by key, so the
/// bytes do not depend on hash order. The reader collects them back.
fn code_map<C: Codec, K: Copy + Default + Ord + Hash, V: Clone + Default>(
    c: &mut C,
    map: &mut HashMap<K, V>,
    mut entry: impl FnMut(&mut C, &mut K, &mut V) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    c.via(
        map,
        |m| {
            let mut entries: Vec<(K, V)> = m.iter().map(|(&k, v)| (k, v.clone())).collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            entries
        },
        |c, entries| c.vec(entries, |c, (k, v)| entry(c, k, v)),
        |entries| Ok(entries.into_iter().collect()),
    )
}

/// One node's ODMRP/MRMM state.
pub struct OdmrpNode {
    id: NodeId,
    group: GroupId,
    member: bool,
    /// MRMM (lifetime-scored routes, redundancy-aware pruning) rather than
    /// plain ODMRP (hop-count routes, every first query copy rebroadcast).
    mrmm: bool,
    config: OdmrpConfig,
    fg_until: Option<SimTime>,
    routes: HashMap<NodeId, RouteEntry>,
    rounds: HashMap<(NodeId, u32), QueryRound>,
    seen_queries: DedupCache<(NodeId, u32)>,
    seen_data: DedupCache<(NodeId, u32)>,
    last_reply_propagated: HashMap<NodeId, SimTime>,
    next_seq: u32,
    stats: MeshStats,
}

impl std::fmt::Debug for OdmrpNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OdmrpNode")
            .field("id", &self.id)
            .field("member", &self.member)
            .field("mrmm", &self.mrmm)
            .field("fg_until", &self.fg_until)
            .field("routes", &self.routes.len())
            .finish()
    }
}

impl OdmrpNode {
    /// Creates a plain ODMRP node: hop-count routes, every first query
    /// copy rebroadcast. `member` nodes deliver data and answer queries;
    /// in CoCoA every robot is a member of the SYNC group.
    pub fn odmrp(id: NodeId, group: GroupId, member: bool, config: OdmrpConfig) -> Self {
        OdmrpNode::new(id, group, member, false, config)
    }

    /// Creates an MRMM node: routes scored by predicted link lifetime,
    /// short-lived redundant query rebroadcasts pruned.
    pub fn mrmm(id: NodeId, group: GroupId, member: bool, config: OdmrpConfig) -> Self {
        OdmrpNode::new(id, group, member, true, config)
    }

    fn new(id: NodeId, group: GroupId, member: bool, mrmm: bool, config: OdmrpConfig) -> Self {
        OdmrpNode {
            id,
            group,
            member,
            mrmm,
            config,
            fg_until: None,
            routes: HashMap::new(),
            rounds: HashMap::new(),
            seen_queries: DedupCache::new(config.dedup_retention),
            seen_data: DedupCache::new(config.dedup_retention),
            last_reply_propagated: HashMap::new(),
            next_seq: 0,
            stats: MeshStats::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node currently holds the forwarding-group flag.
    pub fn is_forwarding(&self, now: SimTime) -> bool {
        self.fg_until.is_some_and(|until| now <= until)
    }

    /// Protocol counters.
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// Records that a delivered data body failed to decode at the
    /// application layer (garbled in flight). The mesh did its job — the
    /// payload was corrupt — but reliability accounting wants the split.
    pub fn note_undecodable_delivery(&mut self) {
        self.stats.data_undecodable += 1;
    }

    /// Originates a JOIN QUERY round (call on the mesh source; CoCoA's
    /// Sync robot does this every beacon period).
    pub fn originate_query(&mut self, now: SimTime, my: &MobilityInfo) -> Packet {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seen_queries.insert((self.id, seq), now);
        self.stats.queries_originated += 1;
        Packet::new(
            self.id,
            seq,
            Payload::JoinQuery {
                group: self.group,
                hop_count: 0,
                prev_hop: self.id,
                position: my.position,
                velocity: (my.velocity.x, my.velocity.y),
                d_rest: my.d_rest,
            },
        )
    }

    /// Originates a data packet down the mesh (source only).
    pub fn originate_data(&mut self, now: SimTime, body: Bytes) -> Packet {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seen_data.insert((self.id, seq), now);
        self.stats.data_originated += 1;
        Packet::new(
            self.id,
            seq,
            Payload::Data {
                group: self.group,
                body,
            },
        )
    }

    /// The snapshot layout of the node's mutable state, decoded onto a
    /// node built with the same identity, variant and configuration. The
    /// hash maps are stored sorted by key, so identical nodes always code
    /// to identical bytes.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let OdmrpNode {
            fg_until,
            routes,
            rounds,
            seen_queries,
            seen_data,
            last_reply_propagated,
            next_seq,
            stats,
            // Identity, variant and settings, set by the reader's
            // constructor.
            id: _,
            group: _,
            member: _,
            mrmm: _,
            config: _,
        } = self;
        c.opt(fg_until, |c, t| t.code(c))?;
        code_map(c, routes, |c, source, route| {
            source.code(c)?;
            route.code(c)
        })?;
        code_map(c, rounds, |c, key, round| {
            code_round(c, key)?;
            round.code(c)
        })?;
        seen_queries.code(c, code_round)?;
        seen_data.code(c, code_round)?;
        code_map(c, last_reply_propagated, |c, source, at| {
            source.code(c)?;
            at.code(c)
        })?;
        c.u32(next_seq)?;
        stats.code(c)
    }

    /// Handles a received packet; returns the actions the runner must
    /// perform. `my` is this node's current mobility knowledge.
    pub fn handle_packet(
        &mut self,
        now: SimTime,
        packet: &Packet,
        my: &MobilityInfo,
    ) -> Vec<ProtocolAction> {
        match &packet.payload {
            Payload::JoinQuery {
                group,
                hop_count,
                prev_hop,
                position,
                velocity,
                d_rest,
            } => {
                if *group != self.group || packet.src == self.id {
                    return Vec::new();
                }
                let sender = MobilityInfo {
                    position: *position,
                    velocity: cocoa_net::geometry::Vec2::new(velocity.0, velocity.1),
                    d_rest: *d_rest,
                };
                self.on_join_query(
                    now, packet.src, packet.seq, *hop_count, *prev_hop, &sender, my,
                )
            }
            Payload::JoinReply {
                group,
                source,
                next_hop,
            } => {
                if *group != self.group {
                    return Vec::new();
                }
                self.on_join_reply(now, *source, *next_hop)
            }
            Payload::Data { group, body } => {
                if *group != self.group {
                    return Vec::new();
                }
                self.on_data(now, packet, body.clone())
            }
            // Beacons and SYNC are not mesh-control traffic.
            Payload::Beacon { .. } | Payload::Sync { .. } => Vec::new(),
        }
    }

    fn score_link(&self, my: &MobilityInfo, sender: &MobilityInfo, hops: u8) -> PathScore {
        let lifetime = if self.mrmm {
            link_lifetime(
                my,
                sender,
                self.config.range_m,
                self.config.lifetime_horizon_s,
            )
        } else {
            0.0
        };
        PathScore { lifetime, hops }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_join_query(
        &mut self,
        now: SimTime,
        source: NodeId,
        seq: u32,
        hop_count: u8,
        prev_hop: NodeId,
        sender: &MobilityInfo,
        my: &MobilityInfo,
    ) -> Vec<ProtocolAction> {
        let my_hops = hop_count.saturating_add(1);
        let score = self.score_link(my, sender, my_hops);
        // Route maintenance: adopt the path if the round is newer or the
        // score better within the same round.
        let update = match self.routes.get(&source) {
            None => true,
            Some(e) => {
                seq.wrapping_sub(e.seq) < u32::MAX / 2 && seq != e.seq
                    || (seq == e.seq && score.better_than(&e.score))
            }
        };
        if update {
            self.routes.insert(
                source,
                RouteEntry {
                    prev_hop,
                    hops: my_hops,
                    score,
                    seq,
                },
            );
        }

        let first_copy = self.seen_queries.insert((source, seq), now);
        let round = self.rounds.entry((source, seq)).or_default();
        round.copies += 1;
        let mut actions = Vec::new();
        if first_copy {
            if self.member && !round.reply_scheduled {
                round.reply_scheduled = true;
                actions.push(ProtocolAction::ScheduleReply {
                    source,
                    after: self.config.reply_delay,
                });
            }
            if my_hops < self.config.max_hops && !round.rebroadcast_scheduled {
                round.rebroadcast_scheduled = true;
                actions.push(ProtocolAction::ScheduleRebroadcast {
                    source,
                    seq,
                    after: self.config.rebroadcast_jitter,
                });
            }
        }
        // Bound the per-round bookkeeping.
        if self.rounds.len() > 256 {
            let keep_seq = seq;
            self.rounds
                .retain(|(_, s), _| keep_seq.wrapping_sub(*s) < 8);
        }
        actions
    }

    /// Performs the deferred rebroadcast decision for query `(source,
    /// seq)`. MRMM nodes suppress themselves when redundant copies were
    /// heard and their best upstream link is short-lived.
    pub fn make_rebroadcast(
        &mut self,
        _now: SimTime,
        source: NodeId,
        seq: u32,
        my: &MobilityInfo,
    ) -> Option<Packet> {
        let copies = self.rounds.get(&(source, seq)).map_or(1, |r| r.copies);
        let route = self.routes.get(&source)?;
        if route.seq != seq {
            return None; // a newer round superseded this one
        }
        if self.mrmm && self.config.prune.should_prune(route.score.lifetime, copies) {
            self.stats.queries_suppressed += 1;
            return None;
        }
        self.stats.queries_rebroadcast += 1;
        Some(Packet::new(
            source,
            seq,
            Payload::JoinQuery {
                group: self.group,
                hop_count: route.hops,
                prev_hop: self.id,
                position: my.position,
                velocity: (my.velocity.x, my.velocity.y),
                d_rest: my.d_rest,
            },
        ))
    }

    /// Builds this member's JOIN REPLY for `source` (call after the
    /// aggregation delay). Returns `None` if no route is known or this
    /// node *is* the source.
    pub fn make_reply(&mut self, _now: SimTime, source: NodeId) -> Option<Packet> {
        if source == self.id {
            return None;
        }
        let route = self.routes.get(&source)?;
        self.stats.replies_sent += 1;
        Some(Packet::new(
            self.id,
            route.seq,
            Payload::JoinReply {
                group: self.group,
                source,
                next_hop: route.prev_hop,
            },
        ))
    }

    fn on_join_reply(
        &mut self,
        now: SimTime,
        source: NodeId,
        next_hop: NodeId,
    ) -> Vec<ProtocolAction> {
        if next_hop != self.id || source == self.id {
            return Vec::new(); // overheard, or we are the source (mesh root)
        }
        let was_forwarding = self.is_forwarding(now);
        self.fg_until = Some(now + self.config.fg_timeout);
        if !was_forwarding {
            self.stats.fg_activations += 1;
        }
        // Propagate towards the source, at most once per reply_delay to
        // collapse the replies of multiple downstream members.
        let recently = self
            .last_reply_propagated
            .get(&source)
            .is_some_and(|t| now.saturating_since(*t) < self.config.reply_delay);
        if recently {
            return Vec::new();
        }
        let Some(route) = self.routes.get(&source) else {
            return Vec::new();
        };
        self.last_reply_propagated.insert(source, now);
        self.stats.replies_sent += 1;
        vec![ProtocolAction::Broadcast {
            packet: Packet::new(
                self.id,
                route.seq,
                Payload::JoinReply {
                    group: self.group,
                    source,
                    next_hop: route.prev_hop,
                },
            ),
            jitter_bound: self.config.rebroadcast_jitter,
        }]
    }

    fn on_data(&mut self, now: SimTime, packet: &Packet, body: Bytes) -> Vec<ProtocolAction> {
        if !self.seen_data.insert((packet.src, packet.seq), now) {
            self.stats.data_duplicates += 1;
            return Vec::new();
        }
        let mut actions = Vec::new();
        if self.member && packet.src != self.id {
            self.stats.data_delivered += 1;
            actions.push(ProtocolAction::Deliver {
                source: packet.src,
                body,
            });
        }
        // Members and forwarding-group nodes rebroadcast down the mesh.
        if (self.member || self.is_forwarding(now)) && packet.src != self.id {
            self.stats.data_forwarded += 1;
            actions.push(ProtocolAction::Broadcast {
                packet: packet.clone(),
                jitter_bound: self.config.rebroadcast_jitter,
            });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_net::geometry::{Point, Vec2};

    fn mob(x: f64) -> MobilityInfo {
        MobilityInfo::stationary(Point::new(x, 0.0))
    }

    fn moving(x: f64, vx: f64, d_rest: f64) -> MobilityInfo {
        MobilityInfo {
            position: Point::new(x, 0.0),
            velocity: Vec2::new(vx, 0.0),
            d_rest,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// [`OdmrpNode::odmrp`] or [`OdmrpNode::mrmm`].
    type Variant = fn(NodeId, GroupId, bool, OdmrpConfig) -> OdmrpNode;

    fn node(id: u32, member: bool, variant: Variant) -> OdmrpNode {
        variant(NodeId(id), GroupId(1), member, OdmrpConfig::default())
    }

    /// Drives a query from `src` through `relay` to `member` and returns
    /// the member's reply chain.
    fn build_small_mesh(variant: Variant) -> (OdmrpNode, OdmrpNode, OdmrpNode) {
        let mut src = node(0, true, variant);
        let mut relay = node(1, false, variant);
        let mut member = node(2, true, variant);

        let query = src.originate_query(t(0), &mob(0.0));
        // Relay hears the query and schedules a rebroadcast.
        let acts = relay.handle_packet(t(0), &query, &mob(75.0));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::ScheduleRebroadcast { .. })));
        let rebro = relay
            .make_rebroadcast(t(0), NodeId(0), query.seq, &mob(75.0))
            .expect("relay rebroadcasts");
        // Member hears the rebroadcast and schedules a reply.
        let acts = member.handle_packet(t(0), &rebro, &mob(150.0));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::ScheduleReply { .. })));
        let reply = member.make_reply(t(0), NodeId(0)).expect("member replies");
        // The reply names the relay; delivering it makes the relay FG and
        // produces an upstream reply naming the source.
        let acts = relay.handle_packet(t(0), &reply, &mob(75.0));
        assert!(relay.is_forwarding(t(1)));
        let upstream = acts.iter().find_map(|a| match a {
            ProtocolAction::Broadcast { packet, .. } => Some(packet.clone()),
            _ => None,
        });
        let upstream = upstream.expect("relay propagates reply");
        match upstream.payload {
            Payload::JoinReply { next_hop, .. } => assert_eq!(next_hop, NodeId(0)),
            ref p => panic!("unexpected payload {p:?}"),
        }
        (src, relay, member)
    }

    #[test]
    fn mesh_construction_odmrp() {
        build_small_mesh(OdmrpNode::odmrp);
    }

    #[test]
    fn mesh_construction_mrmm() {
        build_small_mesh(OdmrpNode::mrmm);
    }

    #[test]
    fn data_flows_down_the_mesh() {
        let (mut src, mut relay, mut member) = build_small_mesh(OdmrpNode::mrmm);
        let data = src.originate_data(t(1), Bytes::from_static(b"sync"));
        let acts = relay.handle_packet(t(1), &data, &mob(75.0));
        // Relay is FG but not a member: forwards, does not deliver.
        assert!(acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::Broadcast { .. })));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::Deliver { .. })));
        let acts = member.handle_packet(t(1), &data, &mob(150.0));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::Deliver { source, .. } if *source == NodeId(0))));
        assert_eq!(member.stats().data_delivered, 1);
    }

    #[test]
    fn duplicate_data_is_discarded() {
        let (mut src, _, mut member) = build_small_mesh(OdmrpNode::mrmm);
        let data = src.originate_data(t(1), Bytes::from_static(b"sync"));
        let first = member.handle_packet(t(1), &data, &mob(150.0));
        assert!(!first.is_empty());
        let second = member.handle_packet(t(1), &data, &mob(150.0));
        assert!(second.is_empty());
        assert_eq!(member.stats().data_duplicates, 1);
    }

    #[test]
    fn duplicate_query_copies_do_not_reschedule() {
        let mut relay = node(1, false, OdmrpNode::mrmm);
        let mut src = node(0, true, OdmrpNode::mrmm);
        let query = src.originate_query(t(0), &mob(0.0));
        let first = relay.handle_packet(t(0), &query, &mob(75.0));
        assert_eq!(first.len(), 1);
        // Second copy via another path: no new schedule.
        let copy = Packet::new(
            NodeId(0),
            query.seq,
            Payload::JoinQuery {
                group: GroupId(1),
                hop_count: 1,
                prev_hop: NodeId(9),
                position: Point::new(60.0, 0.0),
                velocity: (0.0, 0.0),
                d_rest: 0.0,
            },
        );
        let second = relay.handle_packet(t(0), &copy, &mob(75.0));
        assert!(second.is_empty());
    }

    #[test]
    fn mrmm_prefers_longer_lived_reverse_path() {
        let mut relay = node(1, true, OdmrpNode::mrmm);
        let mut src = node(0, true, OdmrpNode::mrmm);
        let my = mob(75.0);
        // First copy arrives via a neighbour about to drive out of range.
        let q = src.originate_query(t(0), &mob(0.0));
        let via_flaky = Packet::new(
            NodeId(0),
            q.seq,
            Payload::JoinQuery {
                group: GroupId(1),
                hop_count: 1,
                prev_hop: NodeId(5),
                // 140 m away driving away fast: link dies in ~5 s.
                position: Point::new(215.0, 0.0),
                velocity: (2.0, 0.0),
                d_rest: 1000.0,
            },
        );
        relay.handle_packet(t(0), &via_flaky, &my);
        // Second copy via a stationary neighbour: longer-lived, adopted
        // even though it arrived later with equal hops.
        let via_stable = Packet::new(
            NodeId(0),
            q.seq,
            Payload::JoinQuery {
                group: GroupId(1),
                hop_count: 1,
                prev_hop: NodeId(6),
                position: Point::new(100.0, 0.0),
                velocity: (0.0, 0.0),
                d_rest: 0.0,
            },
        );
        relay.handle_packet(t(0), &via_stable, &my);
        let reply = relay.make_reply(t(0), NodeId(0)).unwrap();
        match reply.payload {
            Payload::JoinReply { next_hop, .. } => assert_eq!(next_hop, NodeId(6)),
            ref p => panic!("unexpected {p:?}"),
        }
    }

    #[test]
    fn odmrp_keeps_first_path_regardless_of_lifetime() {
        let mut relay = node(1, true, OdmrpNode::odmrp);
        let mut src = node(0, true, OdmrpNode::odmrp);
        let my = mob(75.0);
        let q = src.originate_query(t(0), &mob(0.0));
        let via_flaky = Packet::new(
            NodeId(0),
            q.seq,
            Payload::JoinQuery {
                group: GroupId(1),
                hop_count: 1,
                prev_hop: NodeId(5),
                position: Point::new(215.0, 0.0),
                velocity: (2.0, 0.0),
                d_rest: 1000.0,
            },
        );
        relay.handle_packet(t(0), &via_flaky, &my);
        let via_stable = Packet::new(
            NodeId(0),
            q.seq,
            Payload::JoinQuery {
                group: GroupId(1),
                hop_count: 1,
                prev_hop: NodeId(6),
                position: Point::new(100.0, 0.0),
                velocity: (0.0, 0.0),
                d_rest: 0.0,
            },
        );
        relay.handle_packet(t(0), &via_stable, &my);
        let reply = relay.make_reply(t(0), NodeId(0)).unwrap();
        match reply.payload {
            Payload::JoinReply { next_hop, .. } => {
                assert_eq!(next_hop, NodeId(5), "plain ODMRP keeps the first path");
            }
            ref p => panic!("unexpected {p:?}"),
        }
    }

    #[test]
    fn mrmm_prunes_redundant_short_lived_forwarder() {
        let mut relay = node(1, false, OdmrpNode::mrmm);
        let mut src = node(0, true, OdmrpNode::mrmm);
        // Relay is driving away from everything: links die in ~5 s.
        let my = moving(75.0, 2.0, 1000.0);
        let q = src.originate_query(t(0), &moving(0.0, -2.0, 1000.0));
        // Hearing three copies ⇒ redundancy evidence.
        relay.handle_packet(t(0), &q, &my);
        for prev in [7u32, 8] {
            let copy = Packet::new(
                NodeId(0),
                q.seq,
                Payload::JoinQuery {
                    group: GroupId(1),
                    hop_count: 1,
                    prev_hop: NodeId(prev),
                    // Behind the relay and driving the other way: also a
                    // short-lived link, so every candidate path is flaky.
                    position: Point::new(10.0, 0.0),
                    velocity: (-2.0, 0.0),
                    d_rest: 1000.0,
                },
            );
            relay.handle_packet(t(0), &copy, &my);
        }
        assert!(
            relay
                .make_rebroadcast(t(0), NodeId(0), q.seq, &my)
                .is_none(),
            "short-lived redundant node prunes itself"
        );
        assert_eq!(relay.stats().queries_suppressed, 1);
    }

    #[test]
    fn sole_path_node_never_prunes() {
        let mut relay = node(1, false, OdmrpNode::mrmm);
        let mut src = node(0, true, OdmrpNode::mrmm);
        let my = moving(75.0, 2.0, 1000.0);
        let q = src.originate_query(t(0), &moving(0.0, -2.0, 1000.0));
        relay.handle_packet(t(0), &q, &my); // exactly one copy
        assert!(relay
            .make_rebroadcast(t(0), NodeId(0), q.seq, &my)
            .is_some());
    }

    #[test]
    fn fg_flag_expires() {
        let (_, relay, member) = build_small_mesh(OdmrpNode::mrmm);
        assert!(relay.is_forwarding(t(1)));
        assert!(!relay.is_forwarding(t(10_000)));
        let _ = member;
    }

    #[test]
    fn newer_round_supersedes_rebroadcast() {
        let mut relay = node(1, false, OdmrpNode::mrmm);
        let mut src = node(0, true, OdmrpNode::mrmm);
        let q1 = src.originate_query(t(0), &mob(0.0));
        relay.handle_packet(t(0), &q1, &mob(75.0));
        let q2 = src.originate_query(t(10), &mob(0.0));
        relay.handle_packet(t(10), &q2, &mob(75.0));
        // The deferred rebroadcast of round 0 is stale now.
        assert!(relay
            .make_rebroadcast(t(10), NodeId(0), q1.seq, &mob(75.0))
            .is_none());
        assert!(relay
            .make_rebroadcast(t(10), NodeId(0), q2.seq, &mob(75.0))
            .is_some());
    }

    #[test]
    fn non_member_does_not_deliver() {
        let (mut src, mut relay, _) = build_small_mesh(OdmrpNode::mrmm);
        let data = src.originate_data(t(2), Bytes::from_static(b"x"));
        let acts = relay.handle_packet(t(2), &data, &mob(75.0));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, ProtocolAction::Deliver { .. })));
    }

    #[test]
    fn source_ignores_its_own_flooded_query() {
        let mut src = node(0, true, OdmrpNode::mrmm);
        let q = src.originate_query(t(0), &mob(0.0));
        let echo = Packet::new(
            NodeId(0),
            q.seq,
            Payload::JoinQuery {
                group: GroupId(1),
                hop_count: 1,
                prev_hop: NodeId(3),
                position: Point::new(10.0, 0.0),
                velocity: (0.0, 0.0),
                d_rest: 0.0,
            },
        );
        assert!(src.handle_packet(t(0), &echo, &mob(0.0)).is_empty());
    }
}
