//! Property-based tests for the mesh multicast substrate.

use bytes::Bytes;
use cocoa_multicast::prelude::*;
use cocoa_net::geometry::{Point, Vec2};
use cocoa_net::packet::{GroupId, NodeId, Packet, Payload};
use cocoa_sim::snapshot;
use cocoa_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_mobility() -> impl Strategy<Value = MobilityInfo> {
    (
        -200.0..200.0f64,
        -200.0..200.0f64,
        -3.0..3.0f64,
        -3.0..3.0f64,
        0.0..300.0f64,
    )
        .prop_map(|(x, y, vx, vy, d_rest)| MobilityInfo {
            position: Point::new(x, y),
            velocity: Vec2::new(vx, vy),
            d_rest,
        })
}

/// The node the round-trip property drives, in a team of `TEAM` ids.
const ME: NodeId = NodeId(1);
const TEAM: u32 = 5;

/// A mesh packet of group 1 from a team member: a JOIN QUERY, a JOIN
/// REPLY or a data packet. Replies name the node under test as their
/// next hop often enough to make it a forwarder.
fn arb_mesh_packet() -> impl Strategy<Value = Packet> {
    let query = (0..TEAM, 0u32..4, 0u8..9, 0..TEAM, arb_mobility()).prop_map(
        |(src, seq, hop_count, prev, m)| {
            Packet::new(
                NodeId(src),
                seq,
                Payload::JoinQuery {
                    group: GroupId(1),
                    hop_count,
                    prev_hop: NodeId(prev),
                    position: m.position,
                    velocity: (m.velocity.x, m.velocity.y),
                    d_rest: m.d_rest,
                },
            )
        },
    );
    let reply = (0..TEAM, 0u32..4, 0..TEAM, 0..TEAM).prop_map(|(src, seq, source, next)| {
        Packet::new(
            NodeId(src),
            seq,
            Payload::JoinReply {
                group: GroupId(1),
                source: NodeId(source),
                next_hop: NodeId(next),
            },
        )
    });
    let data = (0..TEAM, 0u32..4).prop_map(|(src, seq)| {
        Packet::new(
            NodeId(src),
            seq,
            Payload::Data {
                group: GroupId(1),
                body: Bytes::from_static(b"sync"),
            },
        )
    });
    prop_oneof![query, reply, data]
}

/// Drives `node` through `steps`: each packet arrives `gap_s` seconds
/// after the previous one, and a query is followed by the deferred reply
/// and rebroadcast decisions the runner would make.
fn drive(node: &mut MeshNode, steps: &[(u64, Packet)], my: &MobilityInfo) -> SimTime {
    let mut now = SimTime::ZERO;
    for (gap_s, packet) in steps {
        now += SimDuration::from_secs(*gap_s);
        node.handle_packet(now, packet, my);
        if let Payload::JoinQuery { .. } = packet.payload {
            node.make_reply(now, packet.src);
            node.make_rebroadcast(now, packet.src, packet.seq, my);
        }
    }
    now
}

proptest! {
    /// A flooding, ODMRP or MRMM node driven through random packets
    /// encodes to bytes that, decoded onto a freshly built node, encode
    /// the same again, and the decoded node answers one more packet
    /// exactly as the original does.
    #[test]
    fn mesh_nodes_round_trip_through_their_layout(
        protocol in 0usize..3,
        member in any::<bool>(),
        my in arb_mobility(),
        steps in proptest::collection::vec((0u64..40, arb_mesh_packet()), 0..40),
        last in arb_mesh_packet(),
    ) {
        let protocol = MulticastProtocol::ALL[protocol];
        let build = || MeshNode::new(protocol, ME, GroupId(1), member, OdmrpConfig::default());
        let mut original = build();
        let now = drive(&mut original, &steps, &my);
        let bytes = snapshot::encode(|c| original.code(c));
        let mut decoded = build();
        snapshot::decode(&bytes, "mesh", |c| decoded.code(c)).expect("own bytes decode");
        prop_assert_eq!(snapshot::encode(|c| decoded.code(c)), bytes.clone());
        let next = now + SimDuration::from_secs(1);
        prop_assert_eq!(
            decoded.handle_packet(next, &last, &my),
            original.handle_packet(next, &last, &my)
        );
        prop_assert_eq!(decoded.stats(), original.stats());
        prop_assert_eq!(
            snapshot::encode(|c| decoded.code(c)),
            snapshot::encode(|c| original.code(c))
        );
    }

    /// Link lifetime is always within [0, horizon].
    #[test]
    fn lifetime_bounded(a in arb_mobility(), b in arb_mobility(), range in 10.0..300.0f64, horizon in 1.0..600.0f64) {
        let t = link_lifetime(&a, &b, range, horizon);
        prop_assert!((0.0..=horizon).contains(&t), "lifetime {t}");
    }

    /// Link lifetime is symmetric in its endpoints.
    #[test]
    fn lifetime_symmetric(a in arb_mobility(), b in arb_mobility(), range in 10.0..300.0f64) {
        let ab = link_lifetime(&a, &b, range, 300.0);
        let ba = link_lifetime(&b, &a, range, 300.0);
        prop_assert!((ab - ba).abs() < 1e-6, "{ab} vs {ba}");
    }

    /// Out-of-range pairs have zero lifetime; in-range stationary pairs
    /// live to the horizon.
    #[test]
    fn lifetime_edge_cases(d in 0.1..500.0f64, range in 10.0..300.0f64) {
        let a = MobilityInfo::stationary(Point::new(0.0, 0.0));
        let b = MobilityInfo::stationary(Point::new(d, 0.0));
        let t = link_lifetime(&a, &b, range, 120.0);
        if d > range {
            prop_assert_eq!(t, 0.0);
        } else {
            prop_assert_eq!(t, 120.0);
        }
    }

    /// A larger range never shortens a link's predicted lifetime.
    #[test]
    fn lifetime_monotone_in_range(a in arb_mobility(), b in arb_mobility(), r1 in 10.0..150.0f64, extra in 0.0..150.0f64) {
        let t1 = link_lifetime(&a, &b, r1, 300.0);
        let t2 = link_lifetime(&a, &b, r1 + extra, 300.0);
        prop_assert!(t2 >= t1 - 1e-9, "range {r1}->{} lifetime {t1}->{t2}", r1 + extra);
    }

    /// The dedup cache behaves like a set within the retention window:
    /// first insert accepted, duplicates rejected.
    #[test]
    fn dedup_is_a_set(keys in proptest::collection::vec(0u32..50, 1..200)) {
        let mut cache: DedupCache<u32> = DedupCache::new(SimDuration::from_secs(1_000_000));
        let mut reference = std::collections::HashSet::new();
        for (i, k) in keys.iter().enumerate() {
            let fresh = cache.insert(*k, SimTime::from_secs(i as u64));
            prop_assert_eq!(fresh, reference.insert(*k));
        }
        prop_assert_eq!(cache.len(), reference.len());
    }

    /// Path scores are a strict weak order: never both a < b and b < a.
    #[test]
    fn path_score_antisymmetric(l1 in 0.0..200.0f64, h1 in 0u8..16, l2 in 0.0..200.0f64, h2 in 0u8..16) {
        let a = PathScore { lifetime: l1, hops: h1 };
        let b = PathScore { lifetime: l2, hops: h2 };
        prop_assert!(!(a.better_than(&b) && b.better_than(&a)));
    }

    /// No score beats itself (irreflexivity of the strict order).
    #[test]
    fn path_score_irreflexive(l in 0.0..200.0f64, h in 0u8..16) {
        let a = PathScore { lifetime: l, hops: h };
        prop_assert!(!a.better_than(&a));
    }

    /// A clearly longer-lived path always wins, whatever the hop counts:
    /// MRMM's ordering puts lifetime strictly before path length.
    #[test]
    fn path_score_lifetime_dominates(l in 0.0..200.0f64, extra in 1.0..100.0f64, h1 in 0u8..16, h2 in 0u8..16) {
        let short = PathScore { lifetime: l, hops: h1 };
        let long = PathScore { lifetime: l + extra, hops: h2 };
        prop_assert!(long.better_than(&short));
        prop_assert!(!short.better_than(&long));
    }

    /// The pruning policy never drops the last forwarder: a node that
    /// heard fewer copies than the redundancy threshold keeps its
    /// rebroadcast no matter how short-lived its best upstream link is.
    #[test]
    fn prune_never_drops_sole_forwarder(min_lifetime in 0.0..600.0f64, threshold in 2u32..16, lifetime in 0.0..600.0f64, copies in 0u32..16) {
        let cfg = PruneConfig { min_lifetime_s: min_lifetime, redundancy_threshold: threshold };
        if copies < threshold {
            prop_assert!(!cfg.should_prune(lifetime, copies));
        }
        // The sole-copy case in particular (exactly one forwarder heard
        // the query) survives under every configuration.
        prop_assert!(!cfg.should_prune(lifetime, 1));
    }

    /// A link predicted dead on arrival (out of range) prunes whenever
    /// redundancy evidence exists — the complementary direction.
    #[test]
    fn prune_fires_on_dead_redundant_links(threshold in 2u32..8, extra in 0u32..8) {
        let cfg = PruneConfig { min_lifetime_s: 30.0, redundancy_threshold: threshold };
        prop_assert!(cfg.should_prune(0.0, threshold + extra));
    }

    /// MeshStats::merge is associative-compatible: merging equals field
    /// sums.
    #[test]
    fn mesh_stats_merge(a in any::<u16>(), b in any::<u16>(), c in any::<u16>()) {
        let mk = |v: u16| MeshStats {
            queries_rebroadcast: u64::from(v),
            data_forwarded: u64::from(v) * 2,
            data_delivered: u64::from(v) * 3,
            ..Default::default()
        };
        let mut merged = MeshStats::default();
        merged.merge(&mk(a));
        merged.merge(&mk(b));
        merged.merge(&mk(c));
        let total = u64::from(a) + u64::from(b) + u64::from(c);
        prop_assert_eq!(merged.queries_rebroadcast, total);
        prop_assert_eq!(merged.data_delivered, total * 3);
    }
}
