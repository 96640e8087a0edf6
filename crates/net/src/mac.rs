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
//! and fades happen).
//!
//! Each frame carries the RSSI sampled at every receiver that heard it,
//! sorted by receiver, and that list is the frame's only list of
//! receivers. A frame is judged once, at its end time, for all of
//! its receivers together: one scan of the medium collects the frames
//! that overlap its airtime, and each receiver is then judged against
//! those alone, its RSSI in each found by binary search.

use cocoa_sim::snapshot::{Codec, SnapshotError};
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

    /// The snapshot layout: the allocation counter value.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let TxId(raw) = self;
        c.u64(raw)
    }
}

/// The classic 802.11 capture threshold, dB: a frame is decodable in the
/// presence of an overlapping frame only if it is this much stronger.
pub const DEFAULT_CAPTURE_MARGIN_DB: f64 = 10.0;

/// How long the medium keeps a frame after its airtime ends.
const RETENTION: SimDuration = SimDuration::from_millis(10);

/// One frame on the medium: its airtime, its packet and the RSSI sampled
/// at each receiver that heard it. The frame's receivers are exactly the
/// receivers in `heard`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
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
    /// The sampled RSSI at each receiver that heard the frame, strictly
    /// increasing by receiver.
    pub heard: Vec<(NodeId, Dbm)>,
}

impl Frame {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Frame {
            id,
            src,
            src_pos,
            start,
            end,
            packet,
            heard,
        } = self;
        id.code(c)?;
        src.code(c)?;
        src_pos.code(c)?;
        start.code(c)?;
        end.code(c)?;
        packet.code(c)?;
        c.vec(heard, |c, (rx, dbm)| {
            rx.code(c)?;
            c.f64(&mut dbm.0)
        })
    }

    /// Whether this frame is on the air during part of `[start, end)`.
    fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && self.end > start
    }

    fn rssi_at(&self, rx: NodeId) -> Option<Dbm> {
        let at = self.heard.binary_search_by_key(&rx, |&(r, _)| r).ok()?;
        Some(self.heard[at].1)
    }
}

/// Outcome of one reception of a frame, as judged at the frame's end time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReceptionOutcome {
    /// Frame decoded.
    Delivered {
        /// Received signal strength of the decoded frame.
        rssi: Dbm,
    },
    /// Destroyed by an overlapping transmission within the capture margin.
    Collided {
        /// One interfering node (the strongest).
        interferer: NodeId,
    },
    /// The receiver itself was transmitting during the frame (half-duplex).
    HalfDuplex,
}

/// The shared broadcast medium.
///
/// The simulation runner drives it in two phases per frame:
///
/// 1. at frame start, [`Medium::begin_tx`] registers the transmission with
///    the RSSI sampled at each awake, in-range receiver;
/// 2. at frame end, [`Medium::judge`] judges every receiver of the frame
///    against the transmissions that overlap it. Every overlapping frame
///    has started by then, which is what makes the verdict final.
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
///                          SimDuration::from_micros(260), [(NodeId(2), Dbm::new(-60.0))]);
/// let mut verdicts = Vec::new();
/// let packet = medium.judge(tx, &mut verdicts);
/// assert_eq!(packet.map(|p| p.src), Some(NodeId(1)));
/// assert_eq!(verdicts, [(NodeId(2), ReceptionOutcome::Delivered { rssi: Dbm::new(-60.0) })]);
/// ```
#[derive(Debug)]
pub struct Medium {
    /// Frames on the air or recently ended, in strictly increasing id
    /// order: ids are allocated in increasing order, and `gc` keeps it.
    active: Vec<Frame>,
    next_id: u64,
    total_tx: u64,
    total_collisions: u64,
    total_half_duplex: u64,
    /// Indices into `active` of the frames overlapping the one being
    /// judged. A buffer reused across judgements, not state.
    overlapping: Vec<usize>,
}

impl Default for Medium {
    fn default() -> Self {
        Self::new()
    }
}

impl Medium {
    /// Creates a medium with the 10 dB capture margin
    /// ([`DEFAULT_CAPTURE_MARGIN_DB`]).
    pub fn new() -> Self {
        Medium {
            active: Vec::new(),
            next_id: 0,
            total_tx: 0,
            total_collisions: 0,
            total_half_duplex: 0,
            overlapping: Vec::new(),
        }
    }

    /// Registers a transmission occupying `[start, start + duration)`,
    /// heard with the sampled RSSI at each receiver in `heard`. List only
    /// receivers that were awake and above sensitivity, in increasing
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `heard` names a receiver twice or out of order.
    pub fn begin_tx(
        &mut self,
        src: NodeId,
        src_pos: Point,
        packet: Packet,
        start: SimTime,
        duration: SimDuration,
        heard: impl IntoIterator<Item = (NodeId, Dbm)>,
    ) -> TxId {
        let heard: Vec<(NodeId, Dbm)> = heard.into_iter().collect();
        assert!(
            heard.windows(2).all(|w| w[0].0 < w[1].0),
            "a frame's receivers must be listed once each, in increasing order"
        );
        let id = TxId(self.next_id);
        self.next_id = self.next_id.wrapping_add(1);
        self.total_tx = self.total_tx.wrapping_add(1);
        self.active.push(Frame {
            id,
            src,
            src_pos,
            start,
            end: start + duration,
            packet,
            heard,
        });
        id
    }

    /// Judges frame `tx` at each receiver that heard it: one
    /// `(receiver, verdict)` per receiver, in increasing receiver order,
    /// into `verdicts` (cleared first). Returns the frame's packet for the
    /// receivers that decoded it. Meant to be called at the frame's end
    /// time, after all overlapping frames have started.
    ///
    /// A `tx` that was already garbage-collected returns `None` and leaves
    /// `verdicts` empty: its reception attempts are dropped, never a
    /// panic. A model that judges on time never sees this, but a late
    /// judgement (a fault-injected or rebooted node replaying stale state)
    /// degrades to lost frames.
    pub fn judge(
        &mut self,
        tx: TxId,
        verdicts: &mut Vec<(NodeId, ReceptionOutcome)>,
    ) -> Option<&Packet> {
        verdicts.clear();
        let Medium {
            active,
            overlapping,
            total_collisions,
            total_half_duplex,
            ..
        } = self;
        let at = active.binary_search_by_key(&tx, |t| t.id).ok()?;
        let frame = &active[at];
        overlapping.clear();
        overlapping.extend(
            active
                .iter()
                .enumerate()
                .filter(|(_, t)| t.overlaps(frame.start, frame.end))
                .map(|(i, _)| i),
        );
        verdicts.extend(frame.heard.iter().map(|&(rx, rssi)| {
            // Half-duplex: the receiver transmitting during any overlap
            // (this frame included) kills it.
            if overlapping.iter().any(|&i| active[i].src == rx) {
                *total_collisions = total_collisions.wrapping_add(1);
                *total_half_duplex = total_half_duplex.wrapping_add(1);
                return (rx, ReceptionOutcome::HalfDuplex);
            }
            // Strongest overlapping interferer that this receiver could
            // hear; the earliest registered wins a tie.
            let mut worst: Option<(Dbm, NodeId)> = None;
            for &i in overlapping.iter().filter(|&&i| i != at) {
                if let Some(irssi) = active[i].rssi_at(rx) {
                    if worst.is_none_or(|(w, _)| irssi > w) {
                        worst = Some((irssi, active[i].src));
                    }
                }
            }
            if let Some((irssi, interferer)) = worst {
                if rssi.value() < irssi.value() + DEFAULT_CAPTURE_MARGIN_DB {
                    *total_collisions = total_collisions.wrapping_add(1);
                    return (rx, ReceptionOutcome::Collided { interferer });
                }
            }
            (rx, ReceptionOutcome::Delivered { rssi })
        }));
        Some(&frame.packet)
    }

    /// Drops transmissions that ended more than the retention window before
    /// `now`, with their RSSI records. Frames must be judged before they
    /// age out.
    pub fn gc(&mut self, now: SimTime) {
        let cutoff = now.saturating_since(SimTime::ZERO); // now as duration
        let keep_after = if cutoff > RETENTION {
            SimTime::ZERO + (cutoff - RETENTION)
        } else {
            SimTime::ZERO
        };
        self.active.retain(|t| t.end >= keep_after);
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

    /// The frames on the air or recently ended, in increasing id order.
    pub fn frames(&self) -> &[Frame] {
        &self.active
    }

    /// The id the next transmission will get, as its raw value.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The snapshot layout. The reader rejects what [`Medium::judge`]'s
    /// binary searches could not work on: frame ids not strictly
    /// increasing or not below the next id to allocate, and a frame's
    /// receivers not strictly increasing.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Medium {
            active,
            next_id,
            total_tx,
            total_collisions,
            total_half_duplex,
            // A buffer reused across judgements.
            overlapping: _,
        } = self;
        c.u64s([next_id, total_tx, total_collisions, total_half_duplex])?;
        c.vec(active, |c, frame| frame.code(c))?;
        if let Some(pair) = active.windows(2).find(|w| w[0].id >= w[1].id) {
            return Err(SnapshotError::malformed(format!(
                "medium frame ids are not strictly increasing: {} then {}",
                pair[0].id.raw(),
                pair[1].id.raw()
            )));
        }
        if let Some(last) = active.last().filter(|f| f.id.raw() >= *next_id) {
            return Err(SnapshotError::malformed(format!(
                "medium frame id {} is not below the next id {next_id}",
                last.id.raw()
            )));
        }
        for frame in active.iter() {
            if let Some(pair) = frame.heard.windows(2).find(|w| w[0].0 >= w[1].0) {
                let what = if pair[0].0 == pair[1].0 {
                    "duplicated"
                } else {
                    "out of order"
                };
                return Err(SnapshotError::malformed(format!(
                    "medium frame {} RSSI records {what}: receiver {} then {}",
                    frame.id.raw(),
                    pair[0].0 .0,
                    pair[1].0 .0
                )));
            }
        }
        Ok(())
    }
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

    /// `src` transmits a beacon over `[start, start + 260 µs)`, heard at
    /// each `(receiver, dBm)` of `heard`.
    fn send(m: &mut Medium, src: u32, start: u64, heard: &[(u32, f64)]) -> TxId {
        m.begin_tx(
            NodeId(src),
            Point::new(f64::from(src), 0.0),
            beacon(src, 0),
            at(start),
            us(260),
            heard.iter().map(|&(rx, dbm)| (NodeId(rx), Dbm::new(dbm))),
        )
    }

    /// Judges `tx` and returns its verdict at receiver `rx`; `None` once
    /// it expired or if `rx` did not hear it.
    fn judge_at(m: &mut Medium, tx: TxId, rx: u32) -> Option<ReceptionOutcome> {
        let mut verdicts = Vec::new();
        m.judge(tx, &mut verdicts)?;
        verdicts
            .iter()
            .find(|&&(r, _)| r == NodeId(rx))
            .map(|&(_, v)| v)
    }

    fn delivered(dbm: f64) -> Option<ReceptionOutcome> {
        Some(ReceptionOutcome::Delivered {
            rssi: Dbm::new(dbm),
        })
    }

    #[test]
    fn lone_frame_is_delivered() {
        let mut m = Medium::new();
        let tx = send(&mut m, 1, 0, &[(2, -55.0)]);
        assert_eq!(judge_at(&mut m, tx, 2), delivered(-55.0));
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn comparable_overlapping_frames_collide() {
        let mut m = Medium::new();
        let a = send(&mut m, 1, 0, &[(3, -60.0)]);
        let b = send(&mut m, 2, 100, &[(3, -62.0)]); // within 10 dB
        assert_eq!(
            judge_at(&mut m, a, 3),
            Some(ReceptionOutcome::Collided {
                interferer: NodeId(2)
            })
        );
        assert_eq!(
            judge_at(&mut m, b, 3),
            Some(ReceptionOutcome::Collided {
                interferer: NodeId(1)
            })
        );
        assert_eq!(m.collisions(), 2);
    }

    #[test]
    fn much_stronger_frame_captures() {
        let mut m = Medium::new();
        let strong = send(&mut m, 1, 0, &[(3, -50.0)]);
        let weak = send(&mut m, 2, 50, &[(3, -75.0)]);
        assert_eq!(judge_at(&mut m, strong, 3), delivered(-50.0));
        assert!(matches!(
            judge_at(&mut m, weak, 3),
            Some(ReceptionOutcome::Collided { .. })
        ));
    }

    #[test]
    fn non_overlapping_frames_do_not_interfere() {
        let mut m = Medium::new();
        let a = send(&mut m, 1, 0, &[(3, -60.0)]);
        let b = send(&mut m, 2, 260, &[(3, -60.0)]);
        assert_eq!(judge_at(&mut m, a, 3), delivered(-60.0));
        assert_eq!(judge_at(&mut m, b, 3), delivered(-60.0));
    }

    #[test]
    fn half_duplex_receiver_drops_frame() {
        let mut m = Medium::new();
        let a = send(&mut m, 1, 0, &[(2, -40.0)]);
        // Node 2 transmits overlapping with a's airtime.
        let _b = send(&mut m, 2, 100, &[]);
        assert_eq!(judge_at(&mut m, a, 2), Some(ReceptionOutcome::HalfDuplex));
        assert_eq!(m.half_duplex(), 1);
        assert_eq!(m.collisions(), 1);
    }

    #[test]
    fn interferer_unheard_by_receiver_is_harmless() {
        let mut m = Medium::new();
        let a = send(&mut m, 1, 0, &[(3, -60.0)]);
        // A far-away node transmits concurrently but below this receiver's
        // sensitivity: it heard nothing.
        let _b = send(&mut m, 2, 0, &[]);
        assert_eq!(judge_at(&mut m, a, 3), delivered(-60.0));
    }

    #[test]
    fn one_judgement_covers_every_receiver_in_order() {
        let mut m = Medium::new();
        let a = send(&mut m, 1, 0, &[(2, -40.0), (3, -60.0), (4, -50.0)]);
        let _b = send(&mut m, 2, 100, &[(3, -62.0), (4, -70.0)]);
        let mut verdicts = vec![(NodeId(9), ReceptionOutcome::HalfDuplex); 7];
        let packet = m.judge(a, &mut verdicts);
        assert_eq!(packet, Some(&beacon(1, 0)));
        // Only the receivers that heard the frame are judged.
        assert_eq!(
            verdicts,
            [
                (NodeId(2), ReceptionOutcome::HalfDuplex),
                (
                    NodeId(3),
                    ReceptionOutcome::Collided {
                        interferer: NodeId(2)
                    }
                ),
                (
                    NodeId(4),
                    ReceptionOutcome::Delivered {
                        rssi: Dbm::new(-50.0)
                    }
                ),
            ]
        );
        assert_eq!((m.collisions(), m.half_duplex()), (2, 1));
    }

    #[test]
    #[should_panic(expected = "in increasing order")]
    fn receivers_out_of_order_are_refused() {
        send(&mut Medium::new(), 1, 0, &[(3, -60.0), (2, -60.0)]);
    }

    #[test]
    fn gc_reclaims_old_frames() {
        let mut m = Medium::new();
        let a = send(&mut m, 1, 0, &[(2, -60.0)]);
        m.gc(at(100_000_000)); // 100 s later
        assert_eq!(m.transmissions(), 1);
        // The frame and its RSSI records are gone: the attempt expires
        // gracefully instead of panicking.
        let mut verdicts = vec![(NodeId(2), ReceptionOutcome::HalfDuplex)];
        assert_eq!(m.judge(a, &mut verdicts), None);
        assert!(verdicts.is_empty());
        assert!(m.frames().is_empty());
    }

    /// Encodes `m` and decodes the bytes onto a new medium.
    fn round_trip(m: &mut Medium) -> (Vec<u8>, Medium) {
        let bytes = cocoa_sim::snapshot::encode(|c| m.code(c));
        let mut r = Medium::new();
        cocoa_sim::snapshot::decode(&bytes, "medium", |c| r.code(c)).expect("own bytes decode");
        (bytes, r)
    }

    #[test]
    fn state_round_trip_preserves_outcomes_and_ids() {
        let mut m = Medium::new();
        let a = send(&mut m, 1, 0, &[(3, -60.0), (5, -70.0)]);
        let b = send(&mut m, 2, 100, &[(3, -62.0)]);
        let (bytes, mut r) = round_trip(&mut m);
        assert_eq!(round_trip(&mut r).0, bytes);
        for (tx, rx) in [(a, 3), (a, 5), (b, 3)] {
            assert_eq!(judge_at(&mut m, tx, rx), judge_at(&mut r, tx, rx));
        }
        assert_eq!(m.transmissions(), r.transmissions());
        assert_eq!(m.collisions(), r.collisions());
        // Id allocation continues where the original left off.
        let next_m = send(&mut m, 4, 600, &[]);
        let next_r = send(&mut r, 4, 600, &[]);
        assert_eq!(next_m, next_r);
        assert_eq!(TxId::from_raw(next_m.raw()), next_m);
    }

    #[test]
    fn gc_keeps_recent_frames() {
        let mut m = Medium::new();
        let a = send(&mut m, 1, 0, &[(2, -60.0)]);
        m.gc(at(5_000)); // within retention
        assert_eq!(judge_at(&mut m, a, 2), delivered(-60.0));
    }
}
