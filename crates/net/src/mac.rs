//! The shared broadcast medium: overlap-based collisions with capture.
//!
//! The paper broadcasts beacons over 802.11b UDP. We model the medium at
//! the granularity that matters for beacon delivery:
//!
//! - every transmission occupies the air for `wire_size × 8 / bitrate`;
//! - a receiver successfully decodes a frame iff its RSSI is above the
//!   sensitivity floor **and** no time-overlapping frame arrives within the
//!   capture margin (10 dB, the classic 802.11 capture threshold) — the
//!   stronger frame survives, comparable frames destroy each other;
//! - radios are half-duplex: a node transmitting during any part of a
//!   frame's airtime cannot receive it.
//!
//! Senders use randomized jitter inside the CoCoA transmit window (the
//! paper sends k = 3 beacons for reliability precisely because collisions
//! and fades happen); a [`Medium::next_clear_time`] helper supports
//! carrier-sense deferral.

use std::collections::HashMap;

use cocoa_sim::time::{SimDuration, SimTime};

use crate::geometry::Point;
use crate::packet::{NodeId, Packet};
use crate::rssi::Dbm;

/// Identifier of one transmission on the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord, Hash)]
pub struct TxId(u64);

impl TxId {
    /// The underlying allocation counter value (checkpoint support).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from [`TxId::raw`]. Only meaningful against the
    /// medium that originally allocated it.
    pub const fn from_raw(v: u64) -> Self {
        TxId(v)
    }
}

/// The classic 802.11 capture threshold, dB: a frame is decodable in the
/// presence of an overlapping frame only if it is this much stronger.
pub const DEFAULT_CAPTURE_MARGIN_DB: f64 = 10.0;

#[derive(Debug, Clone)]
struct ActiveTx {
    id: TxId,
    src: NodeId,
    src_pos: Point,
    start: SimTime,
    end: SimTime,
    packet: Packet,
}

/// Outcome of a reception attempt, as judged at the frame's end time.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceptionOutcome {
    /// Frame decoded; carries the sampled RSSI and the packet.
    Delivered {
        /// Received signal strength of the decoded frame.
        rssi: Dbm,
        /// The decoded packet.
        packet: Packet,
    },
    /// Destroyed by an overlapping transmission within the capture margin.
    Collided {
        /// One interfering node (the strongest).
        interferer: NodeId,
    },
    /// The receiver itself was transmitting during the frame (half-duplex).
    HalfDuplex,
    /// No RSSI was recorded for this `(tx, rx)` pair — the frame was below
    /// sensitivity or the receiver was asleep at frame start.
    NotReceivable,
    /// The transmission was already garbage-collected when the outcome was
    /// queried — the reception attempt is simply dropped. A model that
    /// queries on time never sees this, but a late query (a fault-injected
    /// or rebooted node replaying stale state) degrades to a lost frame
    /// instead of a panic.
    Expired,
}

/// The shared broadcast medium.
///
/// The simulation runner drives it in two phases per frame:
///
/// 1. at frame start, [`Medium::begin_tx`] registers the transmission and
///    [`Medium::record_rssi`] stores the sampled RSSI for each awake,
///    in-range receiver;
/// 2. at frame end, [`Medium::outcome`] judges delivery against every
///    overlapping transmission.
///
/// # Examples
///
/// ```
/// use cocoa_net::mac::{Medium, ReceptionOutcome};
/// use cocoa_net::packet::{NodeId, Packet, Payload};
/// use cocoa_net::geometry::Point;
/// use cocoa_net::rssi::Dbm;
/// use cocoa_sim::time::{SimDuration, SimTime};
///
/// let mut medium = Medium::new();
/// let pkt = Packet::new(NodeId(1), 0, Payload::Beacon { position: Point::ORIGIN });
/// let tx = medium.begin_tx(NodeId(1), Point::ORIGIN, pkt, SimTime::ZERO,
///                          SimDuration::from_micros(260));
/// medium.record_rssi(tx, NodeId(2), Dbm::new(-60.0));
/// match medium.outcome(tx, NodeId(2)) {
///     ReceptionOutcome::Delivered { rssi, .. } => assert_eq!(rssi.value(), -60.0),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Medium {
    active: Vec<ActiveTx>,
    rssi: HashMap<(TxId, NodeId), Dbm>,
    capture_margin_db: f64,
    retention: SimDuration,
    next_id: u64,
    total_tx: u64,
    total_collisions: u64,
    total_half_duplex: u64,
}

impl Default for Medium {
    fn default() -> Self {
        Self::new()
    }
}

impl Medium {
    /// Creates a medium with the default 10 dB capture margin.
    pub fn new() -> Self {
        Medium::with_capture_margin(DEFAULT_CAPTURE_MARGIN_DB)
    }

    /// Creates a medium with an explicit capture margin in dB.
    ///
    /// # Panics
    ///
    /// Panics if the margin is negative.
    pub fn with_capture_margin(margin_db: f64) -> Self {
        assert!(margin_db >= 0.0, "capture margin must be non-negative");
        Medium {
            active: Vec::new(),
            rssi: HashMap::new(),
            capture_margin_db: margin_db,
            retention: SimDuration::from_millis(10),
            next_id: 0,
            total_tx: 0,
            total_collisions: 0,
            total_half_duplex: 0,
        }
    }

    /// Registers a transmission occupying `[start, start + duration)`.
    pub fn begin_tx(
        &mut self,
        src: NodeId,
        src_pos: Point,
        packet: Packet,
        start: SimTime,
        duration: SimDuration,
    ) -> TxId {
        let id = TxId(self.next_id);
        self.next_id += 1;
        self.total_tx += 1;
        self.active.push(ActiveTx {
            id,
            src,
            src_pos,
            start,
            end: start + duration,
            packet,
        });
        id
    }

    /// Records the sampled RSSI of transmission `tx` at receiver `rx`.
    /// Call only for receivers that were awake and above sensitivity.
    pub fn record_rssi(&mut self, tx: TxId, rx: NodeId, rssi: Dbm) {
        self.rssi.insert((tx, rx), rssi);
    }

    fn find(&self, tx: TxId) -> Option<&ActiveTx> {
        self.active.iter().find(|t| t.id == tx)
    }

    /// Judges the reception of `tx` at `rx`. Meant to be called at the
    /// frame's end time, after all overlapping frames have started. A `tx`
    /// that was already garbage-collected yields
    /// [`ReceptionOutcome::Expired`] — the attempt is dropped, never a
    /// panic.
    pub fn outcome(&mut self, tx: TxId, rx: NodeId) -> ReceptionOutcome {
        let Some(frame) = self.find(tx).cloned() else {
            return ReceptionOutcome::Expired;
        };
        let Some(&rssi) = self.rssi.get(&(tx, rx)) else {
            return ReceptionOutcome::NotReceivable;
        };
        // Half-duplex: the receiver transmitting during any overlap kills it.
        let rx_was_txing = self
            .active
            .iter()
            .any(|t| t.src == rx && t.start < frame.end && t.end > frame.start);
        if rx_was_txing {
            self.total_collisions += 1;
            self.total_half_duplex += 1;
            return ReceptionOutcome::HalfDuplex;
        }
        // Strongest overlapping interferer that this receiver could hear.
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
                return ReceptionOutcome::Collided { interferer };
            }
        }
        ReceptionOutcome::Delivered {
            rssi,
            packet: frame.packet,
        }
    }

    /// Earliest time at or after `now` at which the medium is clear within
    /// `cs_range` metres of `pos` (simple carrier-sense helper).
    pub fn next_clear_time(&self, pos: Point, cs_range: f64, now: SimTime) -> SimTime {
        let mut clear = now;
        for t in &self.active {
            if t.end > clear && t.start <= clear && t.src_pos.distance_to(pos) <= cs_range {
                clear = t.end;
            }
        }
        clear
    }

    /// Drops transmissions that ended more than the retention window before
    /// `now`. Outcomes must be queried before their frame ages out.
    pub fn gc(&mut self, now: SimTime) {
        let cutoff = now.saturating_since(SimTime::ZERO); // now as duration
        let retention = self.retention;
        let keep_after = if cutoff > retention {
            SimTime::ZERO + (cutoff - retention)
        } else {
            SimTime::ZERO
        };
        let before = self.active.len();
        self.active.retain(|t| t.end >= keep_after);
        if self.active.len() != before {
            let live: std::collections::HashSet<TxId> = self.active.iter().map(|t| t.id).collect();
            self.rssi.retain(|(tx, _), _| live.contains(tx));
        }
    }

    /// Number of transmissions ever registered.
    pub fn transmissions(&self) -> u64 {
        self.total_tx
    }

    /// Number of reception attempts judged collided or half-duplex.
    pub fn collisions(&self) -> u64 {
        self.total_collisions
    }

    /// The subset of [`Medium::collisions`] lost to the receiver itself
    /// transmitting (half-duplex), rather than to an interfering frame.
    pub fn half_duplex(&self) -> u64 {
        self.total_half_duplex
    }

    /// The medium's complete state as checkpoint data. Active frames keep
    /// their registration order (delivery judgement iterates them in
    /// order); RSSI records are sorted by `(tx, rx)` so serialized bytes
    /// never depend on hash-map iteration order.
    pub fn state(&self) -> MediumState {
        let mut rssi: Vec<(TxId, NodeId, Dbm)> = self
            .rssi
            .iter()
            .map(|(&(tx, rx), &dbm)| (tx, rx, dbm))
            .collect();
        rssi.sort_by_key(|&(tx, rx, _)| (tx, rx));
        MediumState {
            active: self
                .active
                .iter()
                .map(|t| ActiveTxState {
                    id: t.id,
                    src: t.src,
                    src_pos: t.src_pos,
                    start: t.start,
                    end: t.end,
                    packet: t.packet.clone(),
                })
                .collect(),
            rssi,
            capture_margin_db: self.capture_margin_db,
            retention: self.retention,
            next_id: self.next_id,
            total_tx: self.total_tx,
            total_collisions: self.total_collisions,
            total_half_duplex: self.total_half_duplex,
        }
    }

    /// Rebuilds a medium from checkpointed state.
    pub fn from_state(state: MediumState) -> Self {
        Medium {
            active: state
                .active
                .into_iter()
                .map(|t| ActiveTx {
                    id: t.id,
                    src: t.src,
                    src_pos: t.src_pos,
                    start: t.start,
                    end: t.end,
                    packet: t.packet,
                })
                .collect(),
            rssi: state
                .rssi
                .into_iter()
                .map(|(tx, rx, dbm)| ((tx, rx), dbm))
                .collect(),
            capture_margin_db: state.capture_margin_db,
            retention: state.retention,
            next_id: state.next_id,
            total_tx: state.total_tx,
            total_collisions: state.total_collisions,
            total_half_duplex: state.total_half_duplex,
        }
    }
}

/// One in-flight transmission as checkpoint data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActiveTxState {
    /// The transmission's id.
    pub id: TxId,
    /// Transmitting node.
    pub src: NodeId,
    /// Transmitter position at frame start.
    pub src_pos: Point,
    /// Airtime start.
    pub start: SimTime,
    /// Airtime end.
    pub end: SimTime,
    /// The frame on the air.
    pub packet: Packet,
}

/// The medium's complete state as checkpoint data (see [`Medium::state`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MediumState {
    /// In-flight transmissions, in registration order.
    pub active: Vec<ActiveTxState>,
    /// Recorded RSSI samples, sorted by `(tx, rx)`.
    pub rssi: Vec<(TxId, NodeId, Dbm)>,
    /// Capture margin, dB.
    pub capture_margin_db: f64,
    /// How long ended frames are retained for late outcome queries.
    pub retention: SimDuration,
    /// Next [`TxId`] to allocate.
    pub next_id: u64,
    /// Transmissions ever registered.
    pub total_tx: u64,
    /// Reception attempts judged collided or half-duplex.
    pub total_collisions: u64,
    /// The half-duplex subset of the collision total.
    pub total_half_duplex: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    fn beacon(src: u32, seq: u32) -> Packet {
        Packet::new(
            NodeId(src),
            seq,
            Payload::Beacon {
                position: Point::new(f64::from(src), 0.0),
            },
        )
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn lone_frame_is_delivered() {
        let mut m = Medium::new();
        let tx = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        m.record_rssi(tx, NodeId(2), Dbm::new(-55.0));
        assert!(matches!(
            m.outcome(tx, NodeId(2)),
            ReceptionOutcome::Delivered { .. }
        ));
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn unrecorded_receiver_is_not_receivable() {
        let mut m = Medium::new();
        let tx = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        assert_eq!(m.outcome(tx, NodeId(9)), ReceptionOutcome::NotReceivable);
    }

    #[test]
    fn comparable_overlapping_frames_collide() {
        let mut m = Medium::new();
        let a = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        let b = m.begin_tx(
            NodeId(2),
            Point::new(5.0, 0.0),
            beacon(2, 0),
            at(100),
            us(260),
        );
        m.record_rssi(a, NodeId(3), Dbm::new(-60.0));
        m.record_rssi(b, NodeId(3), Dbm::new(-62.0)); // within 10 dB
        assert_eq!(
            m.outcome(a, NodeId(3)),
            ReceptionOutcome::Collided {
                interferer: NodeId(2)
            }
        );
        assert_eq!(
            m.outcome(b, NodeId(3)),
            ReceptionOutcome::Collided {
                interferer: NodeId(1)
            }
        );
        assert_eq!(m.collisions(), 2);
    }

    #[test]
    fn much_stronger_frame_captures() {
        let mut m = Medium::new();
        let strong = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        let weak = m.begin_tx(
            NodeId(2),
            Point::new(50.0, 0.0),
            beacon(2, 0),
            at(50),
            us(260),
        );
        m.record_rssi(strong, NodeId(3), Dbm::new(-50.0));
        m.record_rssi(weak, NodeId(3), Dbm::new(-75.0));
        assert!(matches!(
            m.outcome(strong, NodeId(3)),
            ReceptionOutcome::Delivered { .. }
        ));
        assert!(matches!(
            m.outcome(weak, NodeId(3)),
            ReceptionOutcome::Collided { .. }
        ));
    }

    #[test]
    fn non_overlapping_frames_do_not_interfere() {
        let mut m = Medium::new();
        let a = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        let b = m.begin_tx(NodeId(2), Point::ORIGIN, beacon(2, 0), at(260), us(260));
        m.record_rssi(a, NodeId(3), Dbm::new(-60.0));
        m.record_rssi(b, NodeId(3), Dbm::new(-60.0));
        assert!(matches!(
            m.outcome(a, NodeId(3)),
            ReceptionOutcome::Delivered { .. }
        ));
        assert!(matches!(
            m.outcome(b, NodeId(3)),
            ReceptionOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn half_duplex_receiver_drops_frame() {
        let mut m = Medium::new();
        let a = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        // Node 2 transmits overlapping with a's airtime.
        let _b = m.begin_tx(
            NodeId(2),
            Point::new(5.0, 0.0),
            beacon(2, 0),
            at(100),
            us(260),
        );
        m.record_rssi(a, NodeId(2), Dbm::new(-40.0));
        assert_eq!(m.outcome(a, NodeId(2)), ReceptionOutcome::HalfDuplex);
        assert_eq!(m.half_duplex(), 1);
        assert_eq!(m.collisions(), 1);
    }

    #[test]
    fn interferer_unheard_by_receiver_is_harmless() {
        let mut m = Medium::new();
        let a = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        // Far-away node transmits concurrently but below this receiver's
        // sensitivity: no RSSI recorded for it.
        let _b = m.begin_tx(
            NodeId(2),
            Point::new(500.0, 0.0),
            beacon(2, 0),
            at(0),
            us(260),
        );
        m.record_rssi(a, NodeId(3), Dbm::new(-60.0));
        assert!(matches!(
            m.outcome(a, NodeId(3)),
            ReceptionOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn carrier_sense_reports_busy_medium() {
        let mut m = Medium::new();
        m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(1000));
        // Within carrier-sense range: must wait for the frame to end.
        assert_eq!(
            m.next_clear_time(Point::new(10.0, 0.0), 100.0, at(500)),
            at(1000)
        );
        // Out of range: clear immediately.
        assert_eq!(
            m.next_clear_time(Point::new(500.0, 0.0), 100.0, at(500)),
            at(500)
        );
    }

    #[test]
    fn gc_reclaims_old_frames() {
        let mut m = Medium::new();
        let a = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        m.record_rssi(a, NodeId(2), Dbm::new(-60.0));
        m.gc(at(100_000_000)); // 100 s later
        assert_eq!(m.transmissions(), 1);
        // The frame and its RSSI records are gone: the attempt expires
        // gracefully instead of panicking.
        assert_eq!(m.outcome(a, NodeId(2)), ReceptionOutcome::Expired);
    }

    #[test]
    fn state_round_trip_preserves_outcomes_and_ids() {
        let mut m = Medium::new();
        let a = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        let b = m.begin_tx(
            NodeId(2),
            Point::new(5.0, 0.0),
            beacon(2, 0),
            at(100),
            us(260),
        );
        m.record_rssi(a, NodeId(3), Dbm::new(-60.0));
        m.record_rssi(b, NodeId(3), Dbm::new(-62.0));
        let mut r = Medium::from_state(m.state());
        assert_eq!(m.outcome(a, NodeId(3)), r.outcome(a, NodeId(3)));
        assert_eq!(m.outcome(b, NodeId(3)), r.outcome(b, NodeId(3)));
        assert_eq!(m.transmissions(), r.transmissions());
        assert_eq!(m.collisions(), r.collisions());
        // Id allocation continues where the original left off.
        let next_m = m.begin_tx(NodeId(4), Point::ORIGIN, beacon(4, 0), at(600), us(260));
        let next_r = r.begin_tx(NodeId(4), Point::ORIGIN, beacon(4, 0), at(600), us(260));
        assert_eq!(next_m, next_r);
        assert_eq!(TxId::from_raw(next_m.raw()), next_m);
    }

    #[test]
    fn gc_keeps_recent_frames() {
        let mut m = Medium::new();
        let a = m.begin_tx(NodeId(1), Point::ORIGIN, beacon(1, 0), at(0), us(260));
        m.record_rssi(a, NodeId(2), Dbm::new(-60.0));
        m.gc(at(5_000)); // within retention
        assert!(matches!(
            m.outcome(a, NodeId(2)),
            ReceptionOutcome::Delivered { .. }
        ));
    }
}
