//! The 802.11 energy model.
//!
//! The paper adopts Feeney & Nilsson's measurements of a Lucent WaveLAN
//! card (INFOCOM 2001): per-packet transmission/reception costs that are
//! linear in packet size, plus state power draws. Its headline numbers —
//! quoted directly in Section 2.3 — are **idle ≈ 900 mW vs sleep ≈ 50 mW**,
//! which is where all of CoCoA's coordination savings come from. We model:
//!
//! - state power: idle, sleep (and off = 0);
//! - per-packet incremental energy for broadcast send/receive, linear in
//!   size (`cost = m × bytes + b`);
//! - a fixed energy charge for waking the radio from sleep.
//!
//! Everything lands in an auditable [`EnergyLedger`] with one bucket per
//! category so Fig. 9(b)'s with/without-coordination ratio can be traced to
//! its sources.

use serde::{Deserialize, Serialize};

use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::time::SimDuration;

/// Energy model parameters (defaults follow Feeney & Nilsson's broadcast
/// measurements and the paper's idle/sleep quotes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Power drawn while idle (awake, not actively tx/rx), milliwatts.
    pub idle_mw: f64,
    /// Power drawn while sleeping, milliwatts.
    pub sleep_mw: f64,
    /// Per-byte incremental cost of a broadcast send, microjoules/byte.
    pub tx_uj_per_byte: f64,
    /// Fixed incremental cost of a broadcast send, microjoules.
    pub tx_uj_fixed: f64,
    /// Per-byte incremental cost of a broadcast receive, microjoules/byte.
    pub rx_uj_per_byte: f64,
    /// Fixed incremental cost of a broadcast receive, microjoules.
    pub rx_uj_fixed: f64,
    /// Energy to power the radio up from sleep or off, microjoules.
    pub wake_uj: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            idle_mw: 900.0,
            sleep_mw: 50.0,
            tx_uj_per_byte: 1.9,
            tx_uj_fixed: 266.0,
            rx_uj_per_byte: 0.5,
            rx_uj_fixed: 56.0,
            wake_uj: 1_000.0,
        }
    }
}

impl EnergyParams {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let EnergyParams {
            idle_mw,
            sleep_mw,
            tx_uj_per_byte,
            tx_uj_fixed,
            rx_uj_per_byte,
            rx_uj_fixed,
            wake_uj,
        } = self;
        c.f64s([
            idle_mw,
            sleep_mw,
            tx_uj_per_byte,
            tx_uj_fixed,
            rx_uj_per_byte,
            rx_uj_fixed,
            wake_uj,
        ])
    }

    /// Incremental energy of broadcasting a packet of `bytes`, microjoules.
    pub fn tx_cost_uj(&self, bytes: usize) -> f64 {
        self.tx_uj_per_byte * bytes as f64 + self.tx_uj_fixed
    }

    /// Incremental energy of receiving a broadcast of `bytes`, microjoules.
    pub fn rx_cost_uj(&self, bytes: usize) -> f64 {
        self.rx_uj_per_byte * bytes as f64 + self.rx_uj_fixed
    }
}

/// Where time-proportional energy is being accrued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// Radio fully off: no power draw, cannot receive.
    #[default]
    Off,
    /// Radio sleeping: minimal draw, cannot receive.
    Sleep,
    /// Radio awake (idle/receive-ready).
    Idle,
}

impl PowerState {
    /// Every state, in order; the order is the snapshot tag.
    pub const ALL: [PowerState; 3] = [PowerState::Off, PowerState::Sleep, PowerState::Idle];

    /// Stable machine name of this state (telemetry event field).
    pub fn as_str(&self) -> &'static str {
        match self {
            PowerState::Off => "off",
            PowerState::Sleep => "sleep",
            PowerState::Idle => "idle",
        }
    }
}

/// Per-category energy account for one radio, microjoules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyLedger {
    /// Incremental transmit energy.
    pub tx_uj: f64,
    /// Incremental receive energy.
    pub rx_uj: f64,
    /// Idle-state energy.
    pub idle_uj: f64,
    /// Sleep-state energy.
    pub sleep_uj: f64,
    /// Radio wake-up transitions.
    pub wake_uj: f64,
}

impl EnergyLedger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// The snapshot layout; the run metrics reuse it.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let EnergyLedger {
            tx_uj,
            rx_uj,
            idle_uj,
            sleep_uj,
            wake_uj,
        } = self;
        c.f64s([tx_uj, rx_uj, idle_uj, sleep_uj, wake_uj])
    }

    /// Charges a broadcast transmission of `bytes`.
    pub fn charge_tx(&mut self, params: &EnergyParams, bytes: usize) {
        self.tx_uj += params.tx_cost_uj(bytes);
    }

    /// Charges a broadcast reception of `bytes`.
    pub fn charge_rx(&mut self, params: &EnergyParams, bytes: usize) {
        self.rx_uj += params.rx_cost_uj(bytes);
    }

    /// Charges one wake-up transition.
    pub fn charge_wake(&mut self, params: &EnergyParams) {
        self.wake_uj += params.wake_uj;
    }

    /// Accrues time-proportional energy for `dt` spent in `state`.
    pub fn accrue(&mut self, params: &EnergyParams, state: PowerState, dt: SimDuration) {
        let secs = dt.as_secs_f64();
        match state {
            PowerState::Off => {}
            PowerState::Sleep => self.sleep_uj += params.sleep_mw * secs * 1_000.0,
            PowerState::Idle => self.idle_uj += params.idle_mw * secs * 1_000.0,
        }
    }

    /// Total energy, microjoules.
    pub fn total_uj(&self) -> f64 {
        self.tx_uj + self.rx_uj + self.idle_uj + self.sleep_uj + self.wake_uj
    }

    /// Total energy, joules.
    pub fn total_j(&self) -> f64 {
        self.total_uj() / 1e6
    }

    /// Adds another ledger into this one (for team-wide totals).
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.tx_uj += other.tx_uj;
        self.rx_uj += other.rx_uj;
        self.idle_uj += other.idle_uj;
        self.sleep_uj += other.sleep_uj;
        self.wake_uj += other.wake_uj;
    }
}

impl std::fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tx={:.3}J rx={:.3}J idle={:.3}J sleep={:.3}J wake={:.3}J total={:.3}J",
            self.tx_uj / 1e6,
            self.rx_uj / 1e6,
            self.idle_uj / 1e6,
            self.sleep_uj / 1e6,
            self.wake_uj / 1e6,
            self.total_j()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_ratio_holds() {
        // The entire premise of Section 2.3: sleeping is ~18x cheaper than
        // idling (50 mW vs 900 mW).
        let p = EnergyParams::default();
        assert!((p.idle_mw / p.sleep_mw - 18.0).abs() < 1e-9);
    }

    #[test]
    fn packet_costs_are_linear_in_size() {
        let p = EnergyParams::default();
        let small = p.tx_cost_uj(50);
        let large = p.tx_cost_uj(150);
        assert!((large - small - 1.9 * 100.0).abs() < 1e-9);
        assert!(
            p.rx_cost_uj(100) < p.tx_cost_uj(100),
            "rx is cheaper than tx"
        );
    }

    #[test]
    fn ledger_accrues_state_power() {
        let p = EnergyParams::default();
        let mut l = EnergyLedger::new();
        l.accrue(&p, PowerState::Idle, SimDuration::from_secs(10));
        // 900 mW * 10 s = 9 J
        assert!((l.idle_uj - 9e6).abs() < 1e-3);
        l.accrue(&p, PowerState::Sleep, SimDuration::from_secs(10));
        assert!((l.sleep_uj - 0.5e6).abs() < 1e-3);
        l.accrue(&p, PowerState::Off, SimDuration::from_secs(100));
        assert!((l.total_j() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn ledger_charges_packets_and_wakes() {
        let p = EnergyParams::default();
        let mut l = EnergyLedger::new();
        l.charge_tx(&p, 65);
        l.charge_rx(&p, 65);
        l.charge_wake(&p);
        assert!((l.tx_uj - (1.9 * 65.0 + 266.0)).abs() < 1e-9);
        assert!((l.rx_uj - (0.5 * 65.0 + 56.0)).abs() < 1e-9);
        assert_eq!(l.wake_uj, 1_000.0);
    }

    #[test]
    fn merge_sums_categories() {
        let p = EnergyParams::default();
        let mut a = EnergyLedger::new();
        let mut b = EnergyLedger::new();
        a.charge_tx(&p, 100);
        b.charge_rx(&p, 100);
        b.accrue(&p, PowerState::Idle, SimDuration::from_secs(1));
        let mut team = EnergyLedger::new();
        team.merge(&a);
        team.merge(&b);
        assert!((team.total_uj() - (a.total_uj() + b.total_uj())).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        let s = EnergyLedger::new().to_string();
        assert!(s.contains("total"));
    }
}
