//! Run metrics: the two quantities the paper evaluates (Section 3,
//! "Metrics") plus the audit trail behind them.
//!
//! 1. **Localization error** — distance between a robot's true position
//!    and its estimate, averaged per second over the reporting robots
//!    (all robots in odometry-only runs, unequipped robots otherwise);
//! 2. **Energy consumption** — team-wide, split by category (tx / rx /
//!    idle / sleep / wake) so the coordination savings are auditable.

use serde::{Deserialize, Serialize};

use cocoa_multicast::mesh::MeshStats;
use cocoa_net::energy::EnergyLedger;
use cocoa_net::geometry::Point;
use cocoa_sim::snapshot::{Codec, SnapshotError};
use cocoa_sim::stats;
use cocoa_sim::time::SimTime;

/// One point of the per-second error series.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ErrorPoint {
    /// Sample time, seconds.
    pub t_s: f64,
    /// Mean localization error over the reporting robots, metres.
    pub mean_error_m: f64,
    /// How many robots contributed.
    pub robots: usize,
}

impl ErrorPoint {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let ErrorPoint {
            t_s,
            mean_error_m,
            robots,
        } = self;
        c.f64(t_s)?;
        c.f64(mean_error_m)?;
        c.usize(robots)
    }
}

/// An empirical CDF over per-robot errors at one instant (paper Fig. 8).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ErrorSnapshot {
    /// When the snapshot was taken.
    pub time: SimTime,
    /// Per-robot errors, sorted ascending, metres.
    pub errors_m: Vec<f64>,
}

impl ErrorSnapshot {
    /// The snapshot layout. The errors are stored sorted, as kept, so the
    /// reader does not re-sort (a re-sort could reorder NaNs and break
    /// byte-exactness).
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let ErrorSnapshot { time, errors_m } = self;
        time.code(c)?;
        c.vec(errors_m, Codec::f64)
    }

    /// Builds a snapshot from unsorted errors.
    pub fn new(time: SimTime, mut errors_m: Vec<f64>) -> Self {
        stats::sort_finite(&mut errors_m);
        ErrorSnapshot { time, errors_m }
    }

    /// Fraction of robots with error at most `x` metres.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.errors_m.is_empty() {
            return 0.0;
        }
        let n = self.errors_m.partition_point(|&e| e <= x);
        n as f64 / self.errors_m.len() as f64
    }

    /// The `p`-quantile error (`p` in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is empty or `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> f64 {
        stats::percentile_sorted(&self.errors_m, p)
    }

    /// Mean error of the snapshot, metres.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.errors_m)
    }
}

/// Team energy accounting.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Final per-robot ledgers (index = robot index).
    pub per_robot: Vec<EnergyLedger>,
}

impl EnergyReport {
    /// The team-wide ledger (sum over robots).
    pub fn team(&self) -> EnergyLedger {
        let mut total = EnergyLedger::new();
        for l in &self.per_robot {
            total.merge(l);
        }
        total
    }

    /// Team total in joules.
    pub fn total_j(&self) -> f64 {
        self.team().total_j()
    }

    /// Mean per-robot total in joules.
    pub fn mean_per_robot_j(&self) -> f64 {
        if self.per_robot.is_empty() {
            0.0
        } else {
            self.total_j() / self.per_robot.len() as f64
        }
    }
}

/// Packet-level counters for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Localization beacons put on the air.
    pub beacons_sent: u64,
    /// Beacon receptions delivered to localizers.
    pub beacons_received: u64,
    /// Receptions lost to collisions / half-duplex.
    pub collisions: u64,
    /// SYNC messages delivered to robots.
    pub syncs_delivered: u64,
    /// Robot-windows that passed without a SYNC.
    pub syncs_missed: u64,
    /// Fresh RF fixes computed.
    pub fixes: u64,
    /// Windows during which a robot was awake but got fewer than the
    /// minimum beacons.
    pub starved_windows: u64,
}

impl TrafficStats {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let TrafficStats {
            beacons_sent,
            beacons_received,
            collisions,
            syncs_delivered,
            syncs_missed,
            fixes,
            starved_windows,
        } = self;
        c.u64s([
            beacons_sent,
            beacons_received,
            collisions,
            syncs_delivered,
            syncs_missed,
            fixes,
            starved_windows,
        ])
    }
}

/// Fault-injection and graceful-degradation counters for the run.
///
/// All counters stay zero on a fault-free run, so adding robustness
/// accounting costs nothing on the benign baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RobustnessStats {
    /// Robot crashes injected (and actually applied to a live robot).
    pub crashes: u64,
    /// Robot reboots injected (and applied to a crashed robot).
    pub reboots: u64,
    /// Sync-timebase failover elections performed.
    pub failovers: u64,
    /// Receptions dropped by the Gilbert–Elliott burst-loss overlay.
    pub burst_losses: u64,
    /// Garbled frames that no longer decoded and were dropped at the
    /// receiver instead of panicking the stack.
    pub corrupt_frames_dropped: u64,
    /// Garbled frames that still decoded to *something* and were delivered
    /// (the payload may carry wrong data — that is the point).
    pub garbled_frames_delivered: u64,
    /// Beacons rejected by the outlier gate (claimed position inconsistent
    /// with the measured RSSI).
    pub outlier_beacons_rejected: u64,
    /// Transmit windows in which the entropy watchdog declared the
    /// posterior flat and fell back to dead reckoning.
    pub flat_posteriors: u64,
    /// SYNC messages ignored because they carried a stale timestamp.
    pub stale_syncs_ignored: u64,
    /// Mesh data deliveries whose SYNC body failed to decode.
    pub malformed_sync_bodies: u64,
}

impl RobustnessStats {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let RobustnessStats {
            crashes,
            reboots,
            failovers,
            burst_losses,
            corrupt_frames_dropped,
            garbled_frames_delivered,
            outlier_beacons_rejected,
            flat_posteriors,
            stale_syncs_ignored,
            malformed_sync_bodies,
        } = self;
        c.u64s([
            crashes,
            reboots,
            failovers,
            burst_losses,
            corrupt_frames_dropped,
            garbled_frames_delivered,
            outlier_beacons_rejected,
            flat_posteriors,
            stale_syncs_ignored,
            malformed_sync_bodies,
        ])
    }
}

/// A robot's state at the end of the run: what downstream applications
/// (e.g. geographic routing over CoCoA coordinates) consume.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RobotFinalState {
    /// Ground-truth position.
    pub true_position: Point,
    /// The robot's own position estimate.
    pub estimate: Point,
    /// Whether the robot carried a localization device.
    pub equipped: bool,
}

impl RobotFinalState {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let RobotFinalState {
            true_position,
            estimate,
            equipped,
        } = self;
        true_position.code(c)?;
        estimate.code(c)?;
        c.bool(equipped)
    }

    /// The snapshot layout of one position snapshot: its instant, then
    /// each robot's state.
    pub(crate) fn code_at(
        c: &mut impl Codec,
        (at, states): &mut (SimTime, Vec<RobotFinalState>),
    ) -> Result<(), SnapshotError> {
        at.code(c)?;
        c.vec(states, |c, s| s.code(c))
    }
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Per-second mean localization error.
    pub error_series: Vec<ErrorPoint>,
    /// Requested per-robot error CDF snapshots (paper Fig. 8).
    pub snapshots: Vec<ErrorSnapshot>,
    /// Energy accounting.
    pub energy: EnergyReport,
    /// Mesh protocol counters summed over the team.
    pub mesh: MeshStats,
    /// Packet-level counters.
    pub traffic: TrafficStats,
    /// Per-robot truth/estimate at the end of the run.
    pub final_states: Vec<RobotFinalState>,
    /// Per-robot truth/estimate at each requested snapshot time (same
    /// instants as `snapshots`) — lets applications like coverage mapping
    /// or routing consume mid-run coordinates.
    pub position_snapshots: Vec<(SimTime, Vec<RobotFinalState>)>,
    /// Fault-injection and degradation counters (all zero on benign runs).
    pub robustness: RobustnessStats,
    /// Per-robot time spent in each degradation state (index = robot
    /// index).
    pub health: Vec<crate::health::HealthLedger>,
    /// Total events the engine processed (performance telemetry).
    pub events_processed: u64,
}

impl RunMetrics {
    /// The layout a sweep manifest stores a completed point's metrics in.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let RunMetrics {
            error_series,
            snapshots,
            energy: EnergyReport { per_robot },
            mesh,
            traffic,
            final_states,
            position_snapshots,
            robustness,
            health,
            events_processed,
        } = self;
        c.vec(error_series, |c, p| p.code(c))?;
        c.vec(snapshots, |c, s| s.code(c))?;
        c.vec(per_robot, |c, l| l.code(c))?;
        mesh.code(c)?;
        traffic.code(c)?;
        c.vec(final_states, |c, s| s.code(c))?;
        c.vec(position_snapshots, RobotFinalState::code_at)?;
        robustness.code(c)?;
        c.vec(health, |c, l| l.code(c))?;
        c.u64(events_processed)
    }

    /// Mean of the per-second error series — "average localization error
    /// over time" in the paper's wording.
    pub fn mean_error_over_time(&self) -> f64 {
        let ys: Vec<f64> = self.error_series.iter().map(|p| p.mean_error_m).collect();
        stats::mean(&ys)
    }

    /// Maximum of the per-second error series.
    pub fn max_error_over_time(&self) -> f64 {
        self.error_series
            .iter()
            .map(|p| p.mean_error_m)
            .fold(0.0, f64::max)
    }

    /// The series value closest to `t_s` seconds, if any samples exist.
    pub fn error_near(&self, t_s: f64) -> Option<f64> {
        self.error_series
            .iter()
            .min_by(|a, b| {
                (a.t_s - t_s)
                    .abs()
                    .partial_cmp(&(b.t_s - t_s).abs())
                    .expect("finite")
            })
            .map(|p| p.mean_error_m)
    }

    /// Mean error over the tail of the run (after `from_s` seconds) —
    /// useful to exclude the cold start before the first fix.
    pub fn mean_error_after(&self, from_s: f64) -> f64 {
        let tail: Vec<f64> = self
            .error_series
            .iter()
            .filter(|p| p.t_s >= from_s)
            .map(|p| p.mean_error_m)
            .collect();
        stats::mean(&tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(series: &[(f64, f64)]) -> RunMetrics {
        RunMetrics {
            error_series: series
                .iter()
                .map(|&(t_s, e)| ErrorPoint {
                    t_s,
                    mean_error_m: e,
                    robots: 25,
                })
                .collect(),
            snapshots: Vec::new(),
            energy: EnergyReport::default(),
            mesh: MeshStats::default(),
            traffic: TrafficStats::default(),
            final_states: Vec::new(),
            position_snapshots: Vec::new(),
            robustness: RobustnessStats::default(),
            health: Vec::new(),
            events_processed: 0,
        }
    }

    #[test]
    fn series_aggregates() {
        let m = metrics_with(&[(0.0, 2.0), (1.0, 4.0), (2.0, 9.0)]);
        assert!((m.mean_error_over_time() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_error_over_time(), 9.0);
        assert_eq!(m.error_near(1.2), Some(4.0));
        assert!((m.mean_error_after(1.0) - 6.5).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_safe() {
        let m = metrics_with(&[]);
        assert_eq!(m.mean_error_over_time(), 0.0);
        assert_eq!(m.max_error_over_time(), 0.0);
        assert_eq!(m.error_near(5.0), None);
    }

    #[test]
    fn snapshot_cdf() {
        let s = ErrorSnapshot::new(SimTime::from_secs(804), vec![5.0, 1.0, 3.0, 9.0, 7.0]);
        assert_eq!(s.errors_m, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        assert!((s.fraction_below(5.0) - 0.6).abs() < 1e-12);
        assert_eq!(s.fraction_below(0.5), 0.0);
        assert_eq!(s.fraction_below(100.0), 1.0);
        assert_eq!(s.percentile(0.5), 5.0);
        assert_eq!(s.percentile(1.0), 9.0);
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_fraction_is_zero() {
        let s = ErrorSnapshot::new(SimTime::ZERO, vec![]);
        assert_eq!(s.fraction_below(10.0), 0.0);
    }

    #[test]
    fn energy_report_sums() {
        use cocoa_net::energy::{EnergyParams, PowerState};
        use cocoa_sim::time::SimDuration;
        let p = EnergyParams::default();
        let mut a = EnergyLedger::new();
        a.accrue(&p, PowerState::Idle, SimDuration::from_secs(1));
        let mut b = EnergyLedger::new();
        b.accrue(&p, PowerState::Sleep, SimDuration::from_secs(1));
        let report = EnergyReport {
            per_robot: vec![a, b],
        };
        assert!((report.total_j() - 0.95).abs() < 1e-9);
        assert!((report.mean_per_robot_j() - 0.475).abs() < 1e-9);
    }
}
