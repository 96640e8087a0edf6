//! Per-robot degradation state machine and its time ledger.
//!
//! Graceful degradation only counts if you can see it happen. Each robot
//! carries a [`HealthMonitor`] that classifies it into one of four
//! [`DegradationState`]s after every transmit window and accumulates the
//! time spent in each; the final [`HealthLedger`]s are surfaced in
//! `RunMetrics` so chaos experiments can assert "the team degraded, it did
//! not cliff-dive".

use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How healthy a robot's localization pipeline currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DegradationState {
    /// Fresh RF fix this window (or ground-truth-equipped robot).
    #[default]
    Healthy,
    /// Coasting on a recent fix plus odometry.
    Degraded,
    /// No usable fix for a while: pure odometry dead reckoning.
    DeadReckoning,
    /// Crashed — not moving, not listening, not transmitting.
    Down,
}

impl DegradationState {
    /// Every state, in order; the order is the snapshot tag.
    pub const ALL: [DegradationState; 4] = [
        DegradationState::Healthy,
        DegradationState::Degraded,
        DegradationState::DeadReckoning,
        DegradationState::Down,
    ];

    /// Stable machine name of this state (report columns, telemetry events).
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradationState::Healthy => "healthy",
            DegradationState::Degraded => "degraded",
            DegradationState::DeadReckoning => "dead-reckoning",
            DegradationState::Down => "down",
        }
    }
}

impl std::fmt::Display for DegradationState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Seconds a robot spent in each degradation state over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthLedger {
    /// Time with a fresh fix.
    pub healthy_s: f64,
    /// Time coasting on a recent fix.
    pub degraded_s: f64,
    /// Time on pure dead reckoning.
    pub dead_reckoning_s: f64,
    /// Time crashed.
    pub down_s: f64,
}

impl HealthLedger {
    /// The snapshot layout; the run metrics reuse it.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let HealthLedger {
            healthy_s,
            degraded_s,
            dead_reckoning_s,
            down_s,
        } = self;
        c.f64s([healthy_s, degraded_s, dead_reckoning_s, down_s])
    }

    /// Total accounted time, seconds.
    pub fn total_s(&self) -> f64 {
        self.healthy_s + self.degraded_s + self.dead_reckoning_s + self.down_s
    }

    fn add(&mut self, state: DegradationState, dt: SimDuration) {
        let s = dt.as_secs_f64();
        match state {
            DegradationState::Healthy => self.healthy_s += s,
            DegradationState::Degraded => self.degraded_s += s,
            DegradationState::DeadReckoning => self.dead_reckoning_s += s,
            DegradationState::Down => self.down_s += s,
        }
    }
}

/// Tracks one robot's degradation state over time.
///
/// # Examples
///
/// ```
/// use cocoa_core::health::{DegradationState, HealthMonitor};
/// use cocoa_sim::time::SimTime;
///
/// let mut h = HealthMonitor::new(DegradationState::Healthy, SimTime::ZERO);
/// h.transition(SimTime::from_secs(10), DegradationState::Down);
/// let ledger = h.finalize(SimTime::from_secs(25));
/// assert_eq!(ledger.healthy_s, 10.0);
/// assert_eq!(ledger.down_s, 15.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HealthMonitor {
    pub(crate) state: DegradationState,
    pub(crate) since: SimTime,
    pub(crate) ledger: HealthLedger,
}

impl HealthMonitor {
    /// Starts the monitor in `state` at time `now`.
    pub fn new(state: DegradationState, now: SimTime) -> Self {
        HealthMonitor {
            state,
            since: now,
            ledger: HealthLedger::default(),
        }
    }

    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let HealthMonitor {
            state,
            since,
            ledger,
        } = self;
        c.tag(&DegradationState::ALL, state, "degradation state")?;
        since.code(c)?;
        ledger.code(c)
    }

    /// The current state.
    pub fn state(&self) -> DegradationState {
        self.state
    }

    /// Moves to `next` at time `now`, closing out the previous interval.
    /// A self-transition is a no-op (time keeps accruing). Returns whether
    /// the state actually changed, so callers can emit transition events
    /// without tracking the previous state themselves.
    pub fn transition(&mut self, now: SimTime, next: DegradationState) -> bool {
        if next == self.state {
            return false;
        }
        self.ledger
            .add(self.state, now.saturating_since(self.since));
        self.state = next;
        self.since = now;
        true
    }

    /// Closes the final interval at `end` and returns the completed ledger.
    pub fn finalize(&self, end: SimTime) -> HealthLedger {
        let mut ledger = self.ledger;
        ledger.add(self.state, end.saturating_since(self.since));
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accounts_all_time() {
        let mut h = HealthMonitor::new(DegradationState::Degraded, SimTime::ZERO);
        h.transition(SimTime::from_secs(5), DegradationState::Healthy);
        h.transition(SimTime::from_secs(12), DegradationState::DeadReckoning);
        h.transition(SimTime::from_secs(20), DegradationState::Down);
        let l = h.finalize(SimTime::from_secs(30));
        assert_eq!(l.degraded_s, 5.0);
        assert_eq!(l.healthy_s, 7.0);
        assert_eq!(l.dead_reckoning_s, 8.0);
        assert_eq!(l.down_s, 10.0);
        assert_eq!(l.total_s(), 30.0);
    }

    #[test]
    fn transition_reports_actual_changes() {
        let mut h = HealthMonitor::new(DegradationState::Healthy, SimTime::ZERO);
        assert!(!h.transition(SimTime::from_secs(1), DegradationState::Healthy));
        assert!(h.transition(SimTime::from_secs(2), DegradationState::Down));
        assert!(!h.transition(SimTime::from_secs(3), DegradationState::Down));
    }

    #[test]
    fn self_transition_is_noop() {
        let mut h = HealthMonitor::new(DegradationState::Healthy, SimTime::ZERO);
        h.transition(SimTime::from_secs(3), DegradationState::Healthy);
        h.transition(SimTime::from_secs(7), DegradationState::Healthy);
        let l = h.finalize(SimTime::from_secs(10));
        assert_eq!(l.healthy_s, 10.0);
        assert_eq!(l.total_s(), 10.0);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(
            DegradationState::DeadReckoning.to_string(),
            "dead-reckoning"
        );
        assert_eq!(DegradationState::Down.to_string(), "down");
    }
}
