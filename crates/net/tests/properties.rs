//! Property-based tests for the wireless substrate.

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;
use cocoa_net::mac::DEFAULT_CAPTURE_MARGIN_DB;
use cocoa_net::prelude::*;
use cocoa_sim::rng::SeedSplitter;
use cocoa_sim::snapshot;
use cocoa_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-500.0..500.0f64, -500.0..500.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        arb_point().prop_map(|position| Payload::Beacon { position }),
        (0u64..1u64 << 40, 0u64..1u64 << 30, 0u64..1u64 << 40).prop_map(
            |(period_us, window_us, next_period_in_us)| Payload::Sync {
                period_us,
                window_us,
                next_period_in_us,
            }
        ),
        (
            0u16..100,
            0u8..32,
            0u32..1000,
            arb_point(),
            -3.0..3.0f64,
            -3.0..3.0f64,
            0.0..300.0f64
        )
            .prop_map(
                |(g, hops, prev, position, vx, vy, d_rest)| Payload::JoinQuery {
                    group: GroupId(g),
                    hop_count: hops,
                    prev_hop: NodeId(prev),
                    position,
                    velocity: (vx, vy),
                    d_rest,
                }
            ),
        (0u16..100, 0u32..1000, 0u32..1000).prop_map(|(g, s, n)| Payload::JoinReply {
            group: GroupId(g),
            source: NodeId(s),
            next_hop: NodeId(n),
        }),
        (0u16..100, proptest::collection::vec(any::<u8>(), 0..200)).prop_map(|(g, body)| {
            Payload::Data {
                group: GroupId(g),
                body: Bytes::from(body),
            }
        }),
    ]
}

/// The medium's reception judgement as it was before frames carried their
/// own RSSI: one call per (frame, receiver), a linear search for the
/// frame, two scans over every retained frame and a map of every RSSI
/// sample. Kept as the reference [`Medium::judge`] must match.
struct OracleMedium {
    active: Vec<OracleTx>,
    rssi: HashMap<(TxId, NodeId), Dbm>,
    capture_margin_db: f64,
    retention: SimDuration,
    next_id: u64,
    total_collisions: u64,
    total_half_duplex: u64,
}

#[derive(Clone)]
struct OracleTx {
    id: TxId,
    src: NodeId,
    start: SimTime,
    end: SimTime,
}

impl OracleMedium {
    fn new(capture_margin_db: f64) -> Self {
        OracleMedium {
            active: Vec::new(),
            rssi: HashMap::new(),
            capture_margin_db,
            retention: SimDuration::from_millis(10),
            next_id: 0,
            total_collisions: 0,
            total_half_duplex: 0,
        }
    }

    fn begin_tx(&mut self, src: NodeId, start: SimTime, end: SimTime, heard: &[(NodeId, Dbm)]) {
        let id = TxId::from_raw(self.next_id);
        self.next_id += 1;
        self.active.push(OracleTx {
            id,
            src,
            start,
            end,
        });
        for &(rx, rssi) in heard {
            self.rssi.insert((id, rx), rssi);
        }
    }

    /// The receivers with an RSSI sample for `tx`, in increasing order.
    fn receivers(&self, tx: TxId) -> Vec<NodeId> {
        let mut receivers: Vec<NodeId> = self
            .rssi
            .keys()
            .filter(|(t, _)| *t == tx)
            .map(|&(_, rx)| rx)
            .collect();
        receivers.sort();
        receivers
    }

    /// The verdict at `rx`, one of `tx`'s receivers; `None` when the frame
    /// was already garbage-collected.
    fn outcome(&mut self, tx: TxId, rx: NodeId) -> Option<ReceptionOutcome> {
        let frame = self.active.iter().find(|t| t.id == tx).cloned()?;
        let rssi = self.rssi[&(tx, rx)];
        let rx_was_txing = self
            .active
            .iter()
            .any(|t| t.src == rx && t.start < frame.end && t.end > frame.start);
        if rx_was_txing {
            self.total_collisions += 1;
            self.total_half_duplex += 1;
            return Some(ReceptionOutcome::HalfDuplex);
        }
        let mut worst: Option<(Dbm, NodeId)> = None;
        for other in &self.active {
            if other.id == tx || other.end <= frame.start || other.start >= frame.end {
                continue;
            }
            if let Some(&irssi) = self.rssi.get(&(other.id, rx)) {
                if worst.is_none_or(|(w, _)| irssi > w) {
                    worst = Some((irssi, other.src));
                }
            }
        }
        if let Some((irssi, interferer)) = worst {
            if rssi.value() < irssi.value() + self.capture_margin_db {
                self.total_collisions += 1;
                return Some(ReceptionOutcome::Collided { interferer });
            }
        }
        Some(ReceptionOutcome::Delivered { rssi })
    }

    fn gc(&mut self, now: SimTime) {
        let cutoff = now.saturating_since(SimTime::ZERO);
        let keep_after = if cutoff > self.retention {
            SimTime::ZERO + (cutoff - self.retention)
        } else {
            SimTime::ZERO
        };
        let before = self.active.len();
        self.active.retain(|t| t.end >= keep_after);
        if self.active.len() != before {
            let live: HashSet<TxId> = self.active.iter().map(|t| t.id).collect();
            self.rssi.retain(|(tx, _), _| live.contains(tx));
        }
    }

    /// Every frame as `(id, src, start, end)`, the part of
    /// `Medium::frames` it models.
    fn frames(&self) -> Vec<(TxId, NodeId, SimTime, SimTime)> {
        self.active
            .iter()
            .map(|t| (t.id, t.src, t.start, t.end))
            .collect()
    }

    /// Every RSSI record, sorted by `(tx, rx)` as walking
    /// `Medium::frames` and their receivers lists them.
    fn rssi_records(&self) -> Vec<(TxId, NodeId, Dbm)> {
        let mut rssi: Vec<_> = self
            .rssi
            .iter()
            .map(|(&(tx, rx), &dbm)| (tx, rx, dbm))
            .collect();
        rssi.sort_by_key(|&(tx, rx, _)| (tx, rx));
        rssi
    }
}

/// One step of a random medium workload. Times sit on a 130 µs grid so
/// airtimes overlap, abut or miss; RSSI comes in 5 dB steps, so values
/// tie and land exactly on the capture margin; nodes both send and
/// receive.
#[derive(Debug, Clone)]
enum MediumOp {
    Send {
        src: u32,
        start_us: u64,
        airtime_us: u64,
        heard: BTreeMap<u32, u8>,
    },
    Judge {
        pick: usize,
    },
    Gc {
        now_us: u64,
    },
}

fn arb_medium_op() -> impl Strategy<Value = MediumOp> {
    let send = || {
        (
            0u32..6,
            0u64..20,
            0u64..4,
            proptest::collection::vec((0u32..6, 0u8..5), 0..6),
        )
            .prop_map(|(src, slot, slots, heard)| MediumOp::Send {
                src,
                start_us: slot * 130,
                airtime_us: slots * 130,
                heard: heard.into_iter().collect(),
            })
    };
    let judge = || any::<usize>().prop_map(|pick| MediumOp::Judge { pick });
    let gc = (0u64..16_000).prop_map(|now_us| MediumOp::Gc { now_us });
    // Three sends and three judgements to each collection.
    prop_oneof![send(), send(), send(), judge(), judge(), judge(), gc]
}

proptest! {
    /// Every packet round-trips through its wire encoding.
    #[test]
    fn packet_roundtrip(src in 0u32..10_000, seq in any::<u32>(), payload in arb_payload()) {
        let p = Packet::new(NodeId(src), seq, payload);
        let decoded = Packet::decode(p.encode()).expect("well-formed packets decode");
        prop_assert_eq!(decoded, p);
    }

    /// Wire size is headers + encoding, and encoding is deterministic.
    #[test]
    fn wire_size_consistent(seq in any::<u32>(), payload in arb_payload()) {
        let p = Packet::new(NodeId(1), seq, payload);
        prop_assert_eq!(p.wire_size(), 40 + p.encode().len());
        prop_assert_eq!(p.encode(), p.encode());
    }

    /// Truncating an encoded packet never panics, only errors.
    #[test]
    fn truncated_decode_errors(payload in arb_payload(), cut_frac in 0.0..1.0f64) {
        let p = Packet::new(NodeId(1), 1, payload);
        let enc = p.encode();
        let cut = ((enc.len() as f64) * cut_frac) as usize;
        if cut < enc.len() {
            prop_assert!(Packet::decode(enc.slice(0..cut)).is_err());
        }
    }

    /// Fuzz: arbitrary byte soup never panics the decoder — it either
    /// yields a packet or an error.
    #[test]
    fn random_bytes_never_panic_decode(raw in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = Packet::decode(Bytes::from(raw));
    }

    /// Fuzz: bit-flipping a well-formed frame never panics the decoder.
    /// A flip may still yield a (wrong) packet — that is the runner's
    /// problem, not the decoder's — but it must never crash.
    #[test]
    fn bit_flipped_frames_never_panic(
        payload in arb_payload(),
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..16),
    ) {
        let p = Packet::new(NodeId(1), 7, payload);
        let mut raw = p.encode().to_vec();
        for (pos, bit) in flips {
            let i = pos % raw.len();
            raw[i] ^= 1 << bit;
        }
        let _ = Packet::decode(Bytes::from(raw));
    }

    /// Fuzz: appending trailing garbage past a well-formed frame errors
    /// (the decoder rejects over-length input) and never panics.
    #[test]
    fn over_length_frames_error(
        payload in arb_payload(),
        extra in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let p = Packet::new(NodeId(1), 7, payload);
        let mut raw = p.encode().to_vec();
        raw.extend_from_slice(&extra);
        prop_assert!(Packet::decode(Bytes::from(raw)).is_err());
    }

    /// dBm <-> milliwatt conversion round-trips.
    #[test]
    fn dbm_roundtrip(v in -120.0..30.0f64) {
        let d = Dbm::new(v);
        let back = Dbm::from_milliwatts(d.to_milliwatts());
        prop_assert!((back.value() - v).abs() < 1e-9);
    }

    /// Mean RSSI decreases monotonically with distance, and the inverse
    /// mapping round-trips.
    #[test]
    fn channel_monotone_and_invertible(d1 in 1.0..150.0f64, d2 in 1.0..150.0f64) {
        let ch = RfChannel::default();
        if d1 < d2 {
            prop_assert!(ch.mean_rssi(d1) > ch.mean_rssi(d2));
        }
        let back = ch.distance_for_mean_rssi(ch.mean_rssi(d1));
        prop_assert!((back - d1).abs() / d1 < 1e-9);
    }

    /// Geometry: distance satisfies the triangle inequality and symmetry.
    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9);
        prop_assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-12);
    }

    /// Area clamp always lands inside, and is the identity inside.
    #[test]
    fn clamp_contains(p in arb_point(), side in 1.0..400.0f64) {
        let area = Area::square(side);
        let clamped = area.clamp(p);
        prop_assert!(area.contains(clamped));
        if area.contains(p) {
            prop_assert_eq!(clamped, p);
        }
    }

    /// Energy ledger: accrue + charge never decreases any bucket, and
    /// total equals the sum of buckets.
    #[test]
    fn ledger_monotone(
        idle_s in 0u64..1000,
        sleep_s in 0u64..1000,
        txs in proptest::collection::vec(0usize..2000, 0..20),
    ) {
        let p = EnergyParams::default();
        let mut l = EnergyLedger::new();
        l.accrue(&p, PowerState::Idle, SimDuration::from_secs(idle_s));
        l.accrue(&p, PowerState::Sleep, SimDuration::from_secs(sleep_s));
        for bytes in txs {
            l.charge_tx(&p, bytes);
            l.charge_rx(&p, bytes);
        }
        let sum = l.tx_uj + l.rx_uj + l.idle_uj + l.sleep_uj + l.wake_uj;
        prop_assert!((l.total_uj() - sum).abs() < 1e-6);
        prop_assert!(l.tx_uj >= 0.0 && l.rx_uj >= 0.0);
    }

    /// A lone recorded frame on the medium is always delivered.
    #[test]
    fn lone_frame_delivers(
        start_us in 0u64..1_000_000,
        rssi in -97.0..-30.0f64,
    ) {
        let mut m = Medium::new();
        let pkt = Packet::new(NodeId(1), 0, Payload::Beacon { position: Point::ORIGIN });
        let tx = m.begin_tx(
            NodeId(1),
            Point::ORIGIN,
            pkt,
            SimTime::from_micros(start_us),
            SimDuration::from_micros(260),
            [(NodeId(2), Dbm::new(rssi))],
        );
        let mut verdicts = Vec::new();
        m.judge(tx, &mut verdicts);
        let delivered =
            verdicts == [(NodeId(2), ReceptionOutcome::Delivered { rssi: Dbm::new(rssi) })];
        prop_assert!(delivered);
    }

    /// Judging each frame once, for the receivers it carries, matches the
    /// per-receiver oracle asked about every receiver it holds an RSSI
    /// sample for: the same outcomes, packets, collision and half-duplex
    /// counts, and state, through garbage collection.
    #[test]
    fn per_frame_judgement_matches_the_per_receiver_oracle(
        ops in proptest::collection::vec(arb_medium_op(), 1..48),
    ) {
        let mut m = Medium::new();
        let mut oracle = OracleMedium::new(DEFAULT_CAPTURE_MARGIN_DB);
        let mut sent: Vec<(TxId, Packet)> = Vec::new();
        let mut verdicts = Vec::new();
        for op in ops {
            match op {
                MediumOp::Send { src, start_us, airtime_us, heard } => {
                    let heard: Vec<(NodeId, Dbm)> = heard
                        .into_iter()
                        .map(|(rx, step)| {
                            (NodeId(rx), Dbm::new(-60.0 - 5.0 * f64::from(step)))
                        })
                        .collect();
                    let start = SimTime::from_micros(start_us);
                    let airtime = SimDuration::from_micros(airtime_us);
                    let packet = Packet::new(
                        NodeId(src),
                        sent.len() as u32,
                        Payload::Beacon { position: Point::ORIGIN },
                    );
                    oracle.begin_tx(NodeId(src), start, start + airtime, &heard);
                    let tx = m.begin_tx(
                        NodeId(src),
                        Point::ORIGIN,
                        packet.clone(),
                        start,
                        airtime,
                        heard,
                    );
                    sent.push((tx, packet));
                }
                MediumOp::Judge { pick } => {
                    // One pick past the frames sent names a frame never sent.
                    let pick = pick % (sent.len() + 1);
                    let tx = sent.get(pick).map_or(TxId::from_raw(pick as u64), |s| s.0);
                    let judged = m.judge(tx, &mut verdicts).cloned();
                    if oracle.active.iter().any(|t| t.id == tx) {
                        let expected: Vec<(NodeId, ReceptionOutcome)> = oracle
                            .receivers(tx)
                            .into_iter()
                            .map(|rx| (rx, oracle.outcome(tx, rx).expect("the frame is retained")))
                            .collect();
                        prop_assert_eq!(judged.as_ref(), Some(&sent[pick].1));
                        prop_assert_eq!(&verdicts, &expected);
                    } else {
                        // Collected or never sent: every attempt is dropped.
                        prop_assert!(oracle.receivers(tx).is_empty());
                        prop_assert_eq!(judged, None);
                        prop_assert!(verdicts.is_empty());
                    }
                }
                MediumOp::Gc { now_us } => {
                    m.gc(SimTime::from_micros(now_us));
                    oracle.gc(SimTime::from_micros(now_us));
                }
            }
            prop_assert_eq!(m.collisions(), oracle.total_collisions);
            prop_assert_eq!(m.half_duplex(), oracle.total_half_duplex);
            let frames: Vec<_> = m
                .frames()
                .iter()
                .map(|t| (t.id, t.src, t.start, t.end))
                .collect();
            prop_assert_eq!(frames, oracle.frames());
            let rssi: Vec<_> = m
                .frames()
                .iter()
                .flat_map(|t| t.heard.iter().map(|&(rx, dbm)| (t.id, rx, dbm)))
                .collect();
            prop_assert_eq!(rssi, oracle.rssi_records());
            prop_assert_eq!(m.next_id(), oracle.next_id);
            // A decoded medium carries the same state on: decoding the
            // bytes onto a new medium and encoding it again gives them back.
            let bytes = snapshot::encode(|c| m.code(c));
            let mut decoded = Medium::new();
            snapshot::decode(&bytes, "medium", |c| decoded.code(c)).expect("own bytes decode");
            prop_assert_eq!(snapshot::encode(|c| decoded.code(c)), bytes);
        }
    }

    /// Calibration PDFs are non-negative everywhere and have positive
    /// density near their mean.
    #[test]
    fn pdf_nonnegative(seed in 0u64..50, probe in 0.5..160.0f64) {
        let ch = RfChannel::default();
        let cfg = CalibrationConfig { samples_per_distance: 30, ..Default::default() };
        let table = calibrate(&ch, &cfg, &mut SeedSplitter::new(seed).stream("cal", 0));
        for (_, pdf) in table.entries() {
            prop_assert!(pdf.density(probe) >= 0.0);
            prop_assert!(pdf.density(pdf.mean()) > 0.0);
            prop_assert!(pdf.sigma() > 0.0);
        }
    }
}
