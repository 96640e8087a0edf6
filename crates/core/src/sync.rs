//! Coarse-grained time synchronization (paper Section 2.3, Fig. 3).
//!
//! Every robot runs a cheap crystal with some skew. The designated Sync
//! robot is the timebase: it multicasts SYNC messages (carrying `T`, `t`
//! and the countdown to the next period) over the MRMM mesh at the start
//! of every beacon period. A robot that receives a SYNC realigns its local
//! schedule; one that keeps missing them drifts, wakes at increasingly
//! wrong times, and compensates with an escalating guard band until it
//! re-acquires — this is what makes synchronization *matter* in the
//! simulation instead of being assumed.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::time::{SimDuration, SimTime};

/// A drifting local clock.
///
/// Tracks the robot's scheduling error relative to the true (Sync-robot)
/// timeline: positive error means the robot's timers fire late.
///
/// # Examples
///
/// ```
/// use cocoa_core::sync::DriftingClock;
/// use cocoa_sim::time::SimTime;
///
/// let mut clock = DriftingClock::new(100e-6); // 100 ppm fast-running skew
/// let err = clock.error_at(SimTime::from_secs(1000));
/// assert!((err - 0.1).abs() < 1e-9); // 100 ms of drift after 1000 s
/// clock.resync(SimTime::from_secs(1000));
/// assert_eq!(clock.error_at(SimTime::from_secs(1000)), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftingClock {
    /// Skew as a fraction (100 ppm = 100e-6). May be negative.
    pub(crate) skew: f64,
    /// Accumulated scheduling error at `anchor`, seconds.
    pub(crate) error_s: f64,
    /// When `error_s` was last materialized.
    pub(crate) anchor: SimTime,
    /// Consecutive beacon periods without a SYNC.
    pub(crate) missed_syncs: u32,
    /// SYNCs ignored because they were older than the current anchor.
    pub(crate) stale_syncs: u32,
}

impl DriftingClock {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let DriftingClock {
            skew,
            error_s,
            anchor,
            missed_syncs,
            stale_syncs,
        } = self;
        c.f64(skew)?;
        c.f64(error_s)?;
        anchor.code(c)?;
        c.u32(missed_syncs)?;
        c.u32(stale_syncs)
    }

    /// Creates a clock with the given fractional skew, synchronized at
    /// time zero.
    pub fn new(skew: f64) -> Self {
        assert!(
            skew.is_finite() && skew.abs() < 0.01,
            "unphysical skew {skew}"
        );
        DriftingClock {
            skew,
            error_s: 0.0,
            anchor: SimTime::ZERO,
            missed_syncs: 0,
            stale_syncs: 0,
        }
    }

    /// The scheduling error at `now`, seconds (positive = timers late).
    pub fn error_at(&self, now: SimTime) -> f64 {
        self.error_s + self.skew * now.saturating_since(self.anchor).as_secs_f64()
    }

    /// Realigns the clock to the reference timeline (a SYNC was received).
    ///
    /// A SYNC carrying a timestamp older than the current anchor — a
    /// delayed mesh duplicate, or a replay from a partitioned node — is
    /// ignored rather than silently rewinding the clock; such events are
    /// counted in [`DriftingClock::stale_syncs`]. Returns whether the
    /// realignment was applied.
    pub fn resync(&mut self, now: SimTime) -> bool {
        if now < self.anchor {
            self.stale_syncs = self.stale_syncs.saturating_add(1);
            return false;
        }
        self.error_s = 0.0;
        self.anchor = now;
        self.missed_syncs = 0;
        true
    }

    /// Applies a step change of `delta_ppm` parts per million to the skew
    /// (temperature shock, voltage sag). Error accumulated so far is
    /// materialized first so history is preserved; the resulting skew is
    /// clamped to the physical range accepted by [`DriftingClock::new`].
    pub fn apply_skew_step(&mut self, delta_ppm: f64, now: SimTime) {
        self.error_s = self.error_at(now);
        self.anchor = self.anchor.max(now);
        self.skew = (self.skew + delta_ppm * 1e-6).clamp(-0.009, 0.009);
    }

    /// SYNCs ignored because their timestamp predated the current anchor.
    pub fn stale_syncs(&self) -> u32 {
        self.stale_syncs
    }

    /// Records that a beacon period passed without hearing a SYNC.
    pub fn note_missed_sync(&mut self) {
        self.missed_syncs = self.missed_syncs.saturating_add(1);
    }

    /// Consecutive periods without a SYNC.
    pub fn missed_syncs(&self) -> u32 {
        self.missed_syncs
    }

    /// When the robot's timer actually fires for an intended instant,
    /// given the current drift. Never earlier than `now`.
    pub fn actual_fire_time(&self, intended: SimTime, now: SimTime) -> SimTime {
        let err = self.error_at(intended.max(now));
        let shifted = intended.as_secs_f64() + err;
        let t = SimTime::from_secs_f64(shifted.max(0.0));
        t.max(now)
    }

    /// The guard band to use given the current desynchronization: doubles
    /// per missed SYNC so a drifted robot widens its wake window until it
    /// re-acquires, capped at `max`.
    pub fn effective_guard(&self, base: SimDuration, max: SimDuration) -> SimDuration {
        let factor = 1u64 << self.missed_syncs.min(6);
        (base * factor).min(max)
    }
}

/// The SYNC message body carried as MRMM mesh data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncMessage {
    /// Beacon period `T`, microseconds.
    pub period_us: u64,
    /// Transmit window `t`, microseconds.
    pub window_us: u64,
    /// Index of the window this SYNC opens.
    pub window_index: u64,
    /// True start time of that window on the Sync robot's timeline, µs.
    pub window_start_us: u64,
}

impl SyncMessage {
    /// Serialized size, bytes.
    pub const WIRE_SIZE: usize = 32;

    /// Encodes the message as mesh-data body bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(Self::WIRE_SIZE);
        b.put_u64(self.period_us);
        b.put_u64(self.window_us);
        b.put_u64(self.window_index);
        b.put_u64(self.window_start_us);
        b.freeze()
    }

    /// Decodes a body previously produced by [`SyncMessage::encode`].
    ///
    /// Returns `None` for truncated or oversized bodies.
    pub fn decode(mut body: Bytes) -> Option<Self> {
        if body.len() != Self::WIRE_SIZE {
            return None;
        }
        Some(SyncMessage {
            period_us: body.get_u64(),
            window_us: body.get_u64(),
            window_index: body.get_u64(),
            window_start_us: body.get_u64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_accumulates_linearly() {
        let c = DriftingClock::new(50e-6);
        assert!((c.error_at(SimTime::from_secs(100)) - 0.005).abs() < 1e-12);
        assert!((c.error_at(SimTime::from_secs(200)) - 0.010).abs() < 1e-12);
    }

    #[test]
    fn resync_zeroes_error_and_missed_count() {
        let mut c = DriftingClock::new(-100e-6);
        c.note_missed_sync();
        c.note_missed_sync();
        assert_eq!(c.missed_syncs(), 2);
        c.resync(SimTime::from_secs(500));
        assert_eq!(c.missed_syncs(), 0);
        assert_eq!(c.error_at(SimTime::from_secs(500)), 0.0);
        // Drift resumes from the resync anchor.
        assert!((c.error_at(SimTime::from_secs(600)) + 0.01).abs() < 1e-9);
    }

    #[test]
    fn fire_time_shifts_by_error() {
        let mut c = DriftingClock::new(0.0);
        c.resync(SimTime::ZERO);
        // Inject a 2-second-late clock by simulating skew.
        let mut late = DriftingClock::new(0.001);
        late.resync(SimTime::ZERO);
        let intended = SimTime::from_secs(2000); // error = 2 s
        let fire = late.actual_fire_time(intended, SimTime::from_secs(1000));
        assert!((fire.as_secs_f64() - 2002.0).abs() < 1e-6);
        let exact = c.actual_fire_time(intended, SimTime::from_secs(1000));
        assert_eq!(exact, intended);
    }

    #[test]
    fn fire_time_never_in_the_past() {
        let c = DriftingClock::new(-0.001); // fast clock, fires early
        let intended = SimTime::from_secs(10);
        let now = SimTime::from_secs(10);
        assert!(c.actual_fire_time(intended, now) >= now);
    }

    #[test]
    fn guard_escalates_and_caps() {
        let mut c = DriftingClock::new(0.0);
        let base = SimDuration::from_millis(200);
        let max = SimDuration::from_secs(5);
        assert_eq!(c.effective_guard(base, max), base);
        c.note_missed_sync();
        assert_eq!(c.effective_guard(base, max), SimDuration::from_millis(400));
        for _ in 0..10 {
            c.note_missed_sync();
        }
        assert_eq!(c.effective_guard(base, max), max, "capped");
    }

    #[test]
    fn stale_resync_is_ignored_and_counted() {
        let mut c = DriftingClock::new(100e-6);
        assert!(c.resync(SimTime::from_secs(500)));
        c.note_missed_sync();
        // A SYNC from before the anchor must not rewind the clock.
        assert!(!c.resync(SimTime::from_secs(400)));
        assert_eq!(c.stale_syncs(), 1);
        assert_eq!(c.missed_syncs(), 1, "stale SYNC does not reset misses");
        // Drift still measured from the newer anchor.
        assert!((c.error_at(SimTime::from_secs(600)) - 0.01).abs() < 1e-9);
        // A fresh SYNC still works.
        assert!(c.resync(SimTime::from_secs(600)));
        assert_eq!(c.missed_syncs(), 0);
    }

    #[test]
    fn skew_step_preserves_accumulated_error() {
        let mut c = DriftingClock::new(100e-6);
        // 0.05 s of error after 500 s.
        c.apply_skew_step(100.0, SimTime::from_secs(500));
        let e = c.error_at(SimTime::from_secs(600));
        // 0.05 s history + 100 s at 200 ppm.
        assert!((e - 0.07).abs() < 1e-9, "error {e}");
    }

    #[test]
    fn skew_step_clamps_to_physical_range() {
        let mut c = DriftingClock::new(0.0);
        c.apply_skew_step(1e9, SimTime::ZERO);
        assert!((c.error_at(SimTime::from_secs(1000)) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn sync_message_roundtrip() {
        let m = SyncMessage {
            period_us: 100_000_000,
            window_us: 3_000_000,
            window_index: 7,
            window_start_us: 700_000_000,
        };
        assert_eq!(SyncMessage::decode(m.encode()), Some(m));
        assert_eq!(m.encode().len(), SyncMessage::WIRE_SIZE);
    }

    #[test]
    fn sync_message_rejects_bad_sizes() {
        assert_eq!(SyncMessage::decode(Bytes::from_static(b"short")), None);
        let long = Bytes::from(vec![0u8; 33]);
        assert_eq!(SyncMessage::decode(long), None);
    }

    #[test]
    #[should_panic(expected = "unphysical")]
    fn rejects_unphysical_skew() {
        let _ = DriftingClock::new(0.5);
    }
}
