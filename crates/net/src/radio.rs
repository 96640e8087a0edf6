//! The per-robot radio: a power-state machine with exact energy accrual.
//!
//! CoCoA's coordination toggles radios between **idle** (awake, able to
//! receive beacons) and **sleep** (cheap, deaf). The radio tracks the
//! current state, accrues time-proportional energy on every transition and
//! charges per-packet send/receive energy, all into an [`EnergyLedger`].
//!
//! Transmission time is computed from the paper's 2 Mbps interface.

use serde::{Deserialize, Serialize};

use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::time::{SimDuration, SimTime};

use crate::energy::{EnergyLedger, EnergyParams, PowerState};

/// Link rate: the paper simulates a 2 Mbps 802.11b interface.
pub const BITRATE_BPS: u64 = 2_000_000;

/// A radio with explicit power management.
///
/// # Examples
///
/// ```
/// use cocoa_net::radio::Radio;
/// use cocoa_net::energy::{EnergyParams, PowerState};
/// use cocoa_sim::time::SimTime;
///
/// let mut radio = Radio::new(EnergyParams::default(), SimTime::ZERO);
/// radio.set_state(SimTime::from_secs(3), PowerState::Sleep);   // idled 3 s
/// radio.set_state(SimTime::from_secs(10), PowerState::Idle);   // slept 7 s
/// let ledger = radio.finalize(SimTime::from_secs(10));
/// assert!((ledger.idle_uj - 3.0 * 900_000.0).abs() < 1.0);
/// assert!((ledger.sleep_uj - 7.0 * 50_000.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Radio {
    params: EnergyParams,
    state: PowerState,
    since: SimTime,
    ledger: EnergyLedger,
    wakes: u32,
    packets_sent: u32,
    packets_received: u32,
}

impl Radio {
    /// Creates a radio that starts **idle** at `t0`, at the paper's 2 Mbps.
    pub fn new(params: EnergyParams, t0: SimTime) -> Self {
        Radio {
            params,
            state: PowerState::Idle,
            since: t0,
            ledger: EnergyLedger::new(),
            wakes: 0,
            packets_sent: 0,
            packets_received: 0,
        }
    }

    /// Current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// When the radio entered its current state: the instant energy
    /// accrues from.
    pub fn since(&self) -> SimTime {
        self.since
    }

    /// Whether the radio can currently detect incoming packets.
    pub fn can_receive(&self) -> bool {
        self.state == PowerState::Idle
    }

    /// The time a packet of `bytes` occupies the air at [`BITRATE_BPS`].
    pub fn tx_duration(&self, bytes: usize) -> SimDuration {
        let micros = (bytes as u64 * 8).saturating_mul(1_000_000) / BITRATE_BPS;
        SimDuration::from_micros(micros.max(1))
    }

    /// Transitions to `new_state` at time `now`, accruing energy for the
    /// state being left. Waking from sleep/off charges the wake-up energy.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last transition.
    pub fn set_state(&mut self, now: SimTime, new_state: PowerState) {
        let dt = now.since(self.since);
        self.ledger.accrue(&self.params, self.state, dt);
        let was_dormant = matches!(self.state, PowerState::Sleep | PowerState::Off);
        if was_dormant && new_state == PowerState::Idle {
            self.ledger.charge_wake(&self.params);
            self.wakes += 1;
        }
        self.state = new_state;
        self.since = now;
    }

    /// Charges the incremental energy of broadcasting `bytes` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the radio is not idle — transmitting while asleep is a
    /// coordination bug the simulation should never mask.
    pub fn record_tx(&mut self, now: SimTime, bytes: usize) {
        assert!(
            self.state == PowerState::Idle,
            "attempt to transmit while radio is {:?} at {now}",
            self.state
        );
        self.ledger.charge_tx(&self.params, bytes);
        self.packets_sent += 1;
    }

    /// Charges the incremental energy of receiving `bytes` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the radio is not idle.
    pub fn record_rx(&mut self, now: SimTime, bytes: usize) {
        assert!(
            self.state == PowerState::Idle,
            "attempt to receive while radio is {:?} at {now}",
            self.state
        );
        self.ledger.charge_rx(&self.params, bytes);
        self.packets_received += 1;
    }

    /// Accrues energy up to `now` and returns the final ledger. The radio
    /// remains usable (this is a checkpoint, not a teardown).
    pub fn finalize(&mut self, now: SimTime) -> EnergyLedger {
        let dt = now.since(self.since);
        self.ledger.accrue(&self.params, self.state, dt);
        self.since = now;
        self.ledger
    }

    /// The ledger as it would read if finalized at `now`, without mutating
    /// the radio. Mid-run observers (telemetry sampling) must use this
    /// instead of [`Radio::finalize`]: checkpointing splits the f64 accrual
    /// into different interval sums, perturbing the final ledger by ulps.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last transition.
    pub fn peek_ledger(&self, now: SimTime) -> EnergyLedger {
        let dt = now.since(self.since);
        let mut ledger = self.ledger;
        ledger.accrue(&self.params, self.state, dt);
        ledger
    }

    /// Number of wake-up transitions so far.
    pub fn wake_count(&self) -> u32 {
        self.wakes
    }

    /// Packets sent so far.
    pub fn packets_sent(&self) -> u32 {
        self.packets_sent
    }

    /// Packets received (delivered up the stack) so far.
    pub fn packets_received(&self) -> u32 {
        self.packets_received
    }

    /// The energy parameters this radio uses.
    pub fn energy_params(&self) -> &EnergyParams {
        &self.params
    }

    /// The snapshot layout, decoded onto a radio built with the same
    /// energy parameters. A decoded radio resumes mid-accrual: the ledger
    /// and the `since` anchor continue the exact interval sums of the
    /// original (bit-identical energy totals, see [`Radio::peek_ledger`]).
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Radio {
            state,
            since,
            ledger,
            wakes,
            packets_sent,
            packets_received,
            // The scenario's, set by the reader's constructor.
            params: _,
        } = self;
        c.tag(&PowerState::ALL, state, "power state")?;
        since.code(c)?;
        ledger.code(c)?;
        c.u32(wakes)?;
        c.u32(packets_sent)?;
        c.u32(packets_received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn accrues_idle_then_sleep() {
        let mut r = Radio::new(EnergyParams::default(), t(0));
        r.set_state(t(10), PowerState::Sleep);
        r.set_state(t(20), PowerState::Idle);
        let l = r.finalize(t(20));
        assert!((l.idle_uj - 10.0 * 900_000.0).abs() < 1.0);
        assert!((l.sleep_uj - 10.0 * 50_000.0).abs() < 1.0);
        assert_eq!(r.wake_count(), 1);
        assert!((l.wake_uj - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn sleeping_radio_cannot_receive() {
        let mut r = Radio::new(EnergyParams::default(), t(0));
        assert!(r.can_receive());
        r.set_state(t(1), PowerState::Sleep);
        assert!(!r.can_receive());
    }

    #[test]
    #[should_panic(expected = "transmit while radio")]
    fn tx_while_asleep_panics() {
        let mut r = Radio::new(EnergyParams::default(), t(0));
        r.set_state(t(1), PowerState::Sleep);
        r.record_tx(t(2), 65);
    }

    #[test]
    fn tx_duration_at_2mbps() {
        let r = Radio::new(EnergyParams::default(), t(0));
        // 65 bytes * 8 bits / 2 Mbps = 260 µs.
        assert_eq!(r.tx_duration(65), SimDuration::from_micros(260));
        // Never zero, even for tiny frames.
        assert!(r.tx_duration(0) >= SimDuration::from_micros(1));
    }

    #[test]
    fn packet_counters_and_charges() {
        let mut r = Radio::new(EnergyParams::default(), t(0));
        r.record_tx(t(1), 65);
        r.record_rx(t(1), 65);
        r.record_rx(t(2), 65);
        assert_eq!(r.packets_sent(), 1);
        assert_eq!(r.packets_received(), 2);
        let l = r.finalize(t(2));
        assert!(l.tx_uj > 0.0 && l.rx_uj > l.tx_uj * 0.1);
    }

    #[test]
    fn off_state_accrues_nothing() {
        let mut r = Radio::new(EnergyParams::default(), t(0));
        r.set_state(t(0), PowerState::Off);
        r.set_state(t(100), PowerState::Idle);
        let l = r.finalize(t(100));
        assert_eq!(l.idle_uj, 0.0);
        assert_eq!(l.sleep_uj, 0.0);
        // But waking from off costs energy.
        assert!(l.wake_uj > 0.0);
    }

    #[test]
    fn peek_ledger_matches_finalize_without_mutating() {
        let mut r = Radio::new(EnergyParams::default(), t(0));
        r.record_tx(t(5), 65);
        r.set_state(t(10), PowerState::Sleep);
        let peeked = r.peek_ledger(t(20));
        let snapshot = r.clone();
        let finalized = r.finalize(t(20));
        assert_eq!(peeked, finalized);
        // Peeking must leave the radio bit-identical.
        let mut again = snapshot;
        assert_eq!(again.finalize(t(20)), finalized);
    }

    #[test]
    fn power_state_names_are_stable() {
        assert_eq!(PowerState::Idle.as_str(), "idle");
        assert_eq!(PowerState::Sleep.as_str(), "sleep");
        assert_eq!(PowerState::Off.as_str(), "off");
    }

    #[test]
    fn finalize_is_idempotent_checkpoint() {
        let mut r = Radio::new(EnergyParams::default(), t(0));
        let a = r.finalize(t(5));
        let b = r.finalize(t(5));
        assert_eq!(a, b);
        // And further time keeps accruing.
        let c = r.finalize(t(6));
        assert!(c.idle_uj > b.idle_uj);
    }

    #[test]
    #[should_panic]
    fn time_going_backwards_panics() {
        let mut r = Radio::new(EnergyParams::default(), t(10));
        r.set_state(t(5), PowerState::Sleep);
    }
}
