//! Scenario configuration: everything a CoCoA simulation run needs.
//!
//! Defaults reproduce the paper's evaluation setup (Section 4): 50 robots
//! in a 40 000 m² (200 m × 200 m) area, half equipped with localization
//! devices, 30 simulated minutes, transmit window t = 3 s with k = 3
//! beacons, and the movement/odometry models of Section 3.

use serde::{Deserialize, Serialize};

use cocoa_localization::estimator::{EstimatorMode, RfAlgorithm};
use cocoa_mobility::odometry::OdometryConfig;
use cocoa_multicast::odmrp::{MeshMode, OdmrpConfig};
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_net::calibration::CalibrationConfig;
use cocoa_net::channel::{ChannelParams, RfChannel};
use cocoa_net::energy::EnergyParams;
use cocoa_net::geometry::Area;
use cocoa_sim::faults::FaultPlan;
use cocoa_sim::time::{SimDuration, SimTime};

/// The most cells a robot's Bayesian grid may have: 1 m cells over a
/// 1 km × 1 km area, 16 MB of posterior and scratch per robot. Every
/// robot allocates its grid at setup, so a finer resolution would let a
/// request ask for more memory than the host has.
const MAX_GRID_CELLS: f64 = 1e6;

/// The longest nominal radio range ([`RfChannel::max_range`]) a scenario
/// may have: 10 km, about 60 times the default channel's 158 m.
/// Calibration draws 200 samples every 0.5 m out to that range and keeps
/// each detectable one, so at the cap it holds at most 4·10⁶ samples
/// (32 MB) and runs in well under a second; an uncapped range let one
/// edited channel field allocate without bound.
const MAX_RADIO_RANGE_M: f64 = 10_000.0;

/// A fully-specified simulation scenario.
///
/// Construct via [`Scenario::builder`]; every field is also public for
/// inspection and serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Master seed; every random stream in the run derives from it.
    pub seed: u64,
    /// Deployment area (paper: 200 m × 200 m).
    pub area: Area,
    /// Total robots (paper: 50).
    pub num_robots: usize,
    /// Robots equipped with localization devices (paper default: 25).
    /// Ignored in [`EstimatorMode::OdometryOnly`] runs.
    pub num_equipped: usize,
    /// Simulated duration (paper: 30 minutes).
    pub duration: SimDuration,
    /// Beacon period `T` (paper sweeps 10–300 s; default 100 s).
    pub beacon_period: SimDuration,
    /// Transmit window `t` (paper: 3 s).
    pub transmit_window: SimDuration,
    /// Beacons per robot per window, `k` (paper: 3).
    pub beacons_per_window: u32,
    /// Minimum commanded robot speed, m/s (paper: 0.1). Set `v_min` and
    /// `v_max` both to zero for a static deployment (robots hold their
    /// start positions — a sensor-network-style baseline).
    pub v_min: f64,
    /// Maximum robot speed, m/s (paper: 0.5 or 2.0).
    pub v_max: f64,
    /// Which estimator the unequipped robots run.
    pub mode: EstimatorMode,
    /// Which per-window RF algorithm computes fixes (Bayes by default;
    /// multilateration is the classic baseline of paper Section 5).
    pub rf_algorithm: RfAlgorithm,
    /// Whether radios sleep between windows (CoCoA coordination). With
    /// `false`, radios idle through the whole period — the comparison line
    /// of paper Fig. 9(b).
    pub coordination: bool,
    /// Bayesian grid resolution, metres (ablation sweeps this).
    pub grid_resolution_m: f64,
    /// RF channel parameters.
    pub channel: ChannelParams,
    /// Energy model parameters.
    pub energy: EnergyParams,
    /// Odometry noise parameters.
    pub odometry: OdometryConfig,
    /// Mesh multicast (MRMM/ODMRP) timing/range parameters. The backend
    /// actually run is selected by [`Scenario::multicast`], which
    /// overrides this block's `mode`.
    pub mesh: OdmrpConfig,
    /// Which mesh multicast backend disseminates SYNC (flood baseline,
    /// plain ODMRP, or the paper's MRMM extension — the default).
    pub multicast: MulticastProtocol,
    /// Whether the Sync robot disseminates SYNC over the mesh. Disabling
    /// it leaves robots free-running on drifting clocks (ablation).
    pub sync_enabled: bool,
    /// Per-robot clock skew magnitude, parts per million. Each robot draws
    /// its skew uniformly from `[-skew, +skew]`.
    pub clock_skew_ppm: f64,
    /// How much earlier than the window start robots wake (coarse-sync
    /// slack).
    pub guard_band: SimDuration,
    /// Movement/odometry tick.
    pub tick: SimDuration,
    /// Metrics sampling interval (paper plots per-second averages).
    pub metrics_interval: SimDuration,
    /// Instants at which per-robot error snapshots are recorded (paper
    /// Fig. 8's CDFs).
    pub snapshot_times: Vec<SimTime>,
    /// Probability that any individual reception is lost to unmodelled
    /// effects (obstructions, interference bursts). Applied independently
    /// per (frame, receiver); 0.0 = the paper's clean outdoor field.
    pub packet_loss: f64,
    /// Future-work extension (paper Section 6): localized unequipped
    /// robots also beacon.
    pub relay_beaconing: bool,
    /// Relay-beaconing goodness guard: only relay if the last fix is at
    /// most this many windows old.
    pub relay_max_fix_age_windows: u64,
    /// Deterministic fault schedule (empty = benign run).
    pub faults: FaultPlan,
    /// How many beacon periods the Sync timebase may stay silent (crashed)
    /// before the team deterministically elects a replacement.
    pub failover_missed_periods: u32,
    /// Entropy watchdog threshold as a fraction of the grid's maximum
    /// entropy: a window whose posterior entropy exceeds
    /// `frac · ln(cells)` is declared flat and yields no fix. Values
    /// `>= 1.0` disable the watchdog.
    pub entropy_watchdog_frac: f64,
    /// Outlier beacon gate, metres: reject a beacon whose claimed distance
    /// from our reference estimate disagrees with the RSSI-implied
    /// distance by more than this. `0.0` disables the gate.
    pub outlier_gate_m: f64,
}

impl Scenario {
    /// Starts building a scenario from the paper's defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Number of beacon periods that fit in the run.
    pub fn num_windows(&self) -> u64 {
        SimDuration::from_micros(self.duration.as_micros()).div_duration(self.beacon_period)
    }

    /// Whether this scenario deploys a static team (no robot ever moves:
    /// `v_min = v_max = 0`).
    pub fn is_static(&self) -> bool {
        self.v_max == 0.0
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_robots == 0 {
            return Err("scenario needs at least one robot".into());
        }
        if self.num_equipped > self.num_robots {
            return Err(format!(
                "{} equipped robots exceed the team of {}",
                self.num_equipped, self.num_robots
            ));
        }
        if self.transmit_window >= self.beacon_period {
            return Err(format!(
                "transmit window ({}) must be shorter than the beacon period ({})",
                self.transmit_window, self.beacon_period
            ));
        }
        if self.mode.uses_rf() && self.num_equipped == 0 && !self.relay_beaconing {
            return Err("RF modes need at least one beacon source".into());
        }
        if !self.v_min.is_finite() || !self.v_max.is_finite() || self.v_min < 0.0 {
            return Err(format!(
                "speed range [{}, {}] m/s must be finite and non-negative",
                self.v_min, self.v_max
            ));
        }
        if self.v_max < self.v_min {
            return Err(format!(
                "v_max {} m/s must be at least v_min {} m/s",
                self.v_max, self.v_min
            ));
        }
        if self.v_max <= 0.1 && !self.is_static() {
            return Err(format!(
                "v_max {} must exceed 0.1 m/s (or set v_min = v_max = 0 for a static deployment)",
                self.v_max
            ));
        }
        if self.multicast == MulticastProtocol::Mrmm && self.is_static() {
            // MRMM's link-lifetime scoring needs velocity: a static team
            // advertises all-stationary MobilityInfo, every link scores
            // the full horizon, and MRMM silently degrades to ODMRP.
            // Surface that as a configuration error instead.
            return Err(
                "MRMM requires a mobile team: with v_min = v_max = 0 every MobilityInfo is \
                 stationary and MRMM degrades to plain ODMRP — select the odmrp backend \
                 for static deployments"
                    .into(),
            );
        }
        let side = self.area.width().min(self.area.height());
        if !(self.grid_resolution_m > 0.0 && self.grid_resolution_m <= side) {
            return Err(format!(
                "grid resolution {} m must be positive and no coarser than the area's \
                 shorter side ({side} m)",
                self.grid_resolution_m
            ));
        }
        let cells = (self.area.width() / self.grid_resolution_m).ceil()
            * (self.area.height() / self.grid_resolution_m).ceil();
        if cells > MAX_GRID_CELLS {
            return Err(format!(
                "grid resolution {} m needs {cells} cells per robot; at most \
                 {MAX_GRID_CELLS} are allowed",
                self.grid_resolution_m
            ));
        }
        self.validate_channel()?;
        if self.beacons_per_window == 0 {
            return Err("k (beacons per window) must be at least 1".into());
        }
        if self.guard_band.as_micros().saturating_mul(2) >= self.beacon_period.as_micros() {
            return Err("guard band too large for the beacon period".into());
        }
        if !(0.0..1.0).contains(&self.packet_loss) {
            return Err(format!(
                "packet loss {} must be in [0, 1)",
                self.packet_loss
            ));
        }
        self.faults.validate(self.num_robots)?;
        if self.failover_missed_periods == 0 {
            return Err("failover threshold must be at least one period".into());
        }
        if !self.entropy_watchdog_frac.is_finite() || self.entropy_watchdog_frac <= 0.0 {
            return Err(format!(
                "entropy watchdog fraction {} must be positive (>= 1.0 disables)",
                self.entropy_watchdog_frac
            ));
        }
        if !self.outlier_gate_m.is_finite() || self.outlier_gate_m < 0.0 {
            return Err(format!(
                "outlier gate {} m must be finite and non-negative",
                self.outlier_gate_m
            ));
        }
        Ok(())
    }

    /// Rejects a channel that calibration or sampling cannot handle:
    /// parameters out of their physical range, a radio range outside
    /// calibration's sweep (0.5 m up to [`MAX_RADIO_RANGE_M`]), or a mean
    /// RSSI or shadowing spread that overflows within that sweep.
    fn validate_channel(&self) -> Result<(), String> {
        self.channel.validate()?;
        let channel = RfChannel::new(self.channel);
        let range = channel.max_range();
        let d_min = CalibrationConfig::default().d_min;
        let finite = |d: f64| {
            channel.mean_rssi(d).value().is_finite() && channel.shadowing_sigma(d).is_finite()
        };
        if range > d_min && range <= MAX_RADIO_RANGE_M && finite(d_min) && finite(range) {
            Ok(())
        } else {
            Err(format!(
                "radio range {range} m must be above {d_min} m and at most \
                 {MAX_RADIO_RANGE_M} m"
            ))
        }
    }
}

/// Builder for [`Scenario`] (non-consuming, per Rust API guidelines).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                seed: 42,
                area: Area::square(200.0),
                num_robots: 50,
                num_equipped: 25,
                duration: SimDuration::from_secs(1800),
                beacon_period: SimDuration::from_secs(100),
                transmit_window: SimDuration::from_secs(3),
                beacons_per_window: 3,
                v_min: 0.1,
                v_max: 2.0,
                mode: EstimatorMode::Cocoa,
                rf_algorithm: RfAlgorithm::Bayes,
                coordination: true,
                grid_resolution_m: 2.0,
                channel: ChannelParams::default(),
                energy: EnergyParams::default(),
                odometry: OdometryConfig::default(),
                mesh: OdmrpConfig::default(),
                multicast: MulticastProtocol::default(),
                sync_enabled: true,
                clock_skew_ppm: 100.0,
                guard_band: SimDuration::from_millis(200),
                tick: SimDuration::from_secs(1),
                metrics_interval: SimDuration::from_secs(1),
                snapshot_times: Vec::new(),
                packet_loss: 0.0,
                relay_beaconing: false,
                relay_max_fix_age_windows: 1,
                faults: FaultPlan::new(),
                failover_missed_periods: 3,
                entropy_watchdog_frac: 0.98,
                outlier_gate_m: 80.0,
            },
        }
    }
}

impl ScenarioBuilder {
    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the deployment area.
    pub fn area(&mut self, area: Area) -> &mut Self {
        self.scenario.area = area;
        self
    }

    /// Sets the team size.
    pub fn robots(&mut self, n: usize) -> &mut Self {
        self.scenario.num_robots = n;
        self
    }

    /// Sets how many robots carry localization devices.
    pub fn equipped(&mut self, n: usize) -> &mut Self {
        self.scenario.num_equipped = n;
        self
    }

    /// Sets the simulated duration.
    pub fn duration(&mut self, d: SimDuration) -> &mut Self {
        self.scenario.duration = d;
        self
    }

    /// Sets the beacon period `T`.
    pub fn beacon_period(&mut self, t: SimDuration) -> &mut Self {
        self.scenario.beacon_period = t;
        self
    }

    /// Sets the transmit window `t`.
    pub fn transmit_window(&mut self, t: SimDuration) -> &mut Self {
        self.scenario.transmit_window = t;
        self
    }

    /// Sets `k`, the beacons per robot per window.
    pub fn beacons_per_window(&mut self, k: u32) -> &mut Self {
        self.scenario.beacons_per_window = k;
        self
    }

    /// Sets the minimum commanded robot speed.
    pub fn v_min(&mut self, v: f64) -> &mut Self {
        self.scenario.v_min = v;
        self
    }

    /// Sets the maximum robot speed.
    pub fn v_max(&mut self, v: f64) -> &mut Self {
        self.scenario.v_max = v;
        self
    }

    /// Deploys a static team: robots hold their start positions for the
    /// whole run (`v_min = v_max = 0`).
    pub fn static_team(&mut self) -> &mut Self {
        self.scenario.v_min = 0.0;
        self.scenario.v_max = 0.0;
        self
    }

    /// Selects the estimator mode.
    pub fn mode(&mut self, mode: EstimatorMode) -> &mut Self {
        self.scenario.mode = mode;
        self
    }

    /// Selects the per-window RF algorithm.
    pub fn rf_algorithm(&mut self, algorithm: RfAlgorithm) -> &mut Self {
        self.scenario.rf_algorithm = algorithm;
        self
    }

    /// Enables or disables sleep coordination.
    pub fn coordination(&mut self, on: bool) -> &mut Self {
        self.scenario.coordination = on;
        self
    }

    /// Sets the Bayesian grid resolution.
    pub fn grid_resolution(&mut self, metres: f64) -> &mut Self {
        self.scenario.grid_resolution_m = metres;
        self
    }

    /// Overrides the channel parameters.
    pub fn channel(&mut self, params: ChannelParams) -> &mut Self {
        self.scenario.channel = params;
        self
    }

    /// Overrides the energy parameters.
    pub fn energy(&mut self, params: EnergyParams) -> &mut Self {
        self.scenario.energy = params;
        self
    }

    /// Overrides the odometry noise parameters.
    pub fn odometry(&mut self, params: OdometryConfig) -> &mut Self {
        self.scenario.odometry = params;
        self
    }

    /// Overrides the mesh multicast parameters. The parameter block's
    /// `mode` also selects the matching backend, so pre-existing callers
    /// that switched modes through here keep their meaning.
    pub fn mesh(&mut self, params: OdmrpConfig) -> &mut Self {
        self.scenario.multicast = match params.mode {
            MeshMode::Odmrp => MulticastProtocol::Odmrp,
            MeshMode::Mrmm => MulticastProtocol::Mrmm,
        };
        self.scenario.mesh = params;
        self
    }

    /// Selects the mesh multicast backend (flood / odmrp / mrmm).
    pub fn multicast(&mut self, protocol: MulticastProtocol) -> &mut Self {
        self.scenario.multicast = protocol;
        self
    }

    /// Enables or disables SYNC dissemination.
    pub fn sync_enabled(&mut self, on: bool) -> &mut Self {
        self.scenario.sync_enabled = on;
        self
    }

    /// Sets the clock-skew magnitude, ppm.
    pub fn clock_skew_ppm(&mut self, ppm: f64) -> &mut Self {
        self.scenario.clock_skew_ppm = ppm;
        self
    }

    /// Sets the wake guard band.
    pub fn guard_band(&mut self, d: SimDuration) -> &mut Self {
        self.scenario.guard_band = d;
        self
    }

    /// Requests per-robot error snapshots at the given instants (Fig. 8).
    pub fn snapshots(&mut self, times: impl IntoIterator<Item = SimTime>) -> &mut Self {
        self.scenario.snapshot_times = times.into_iter().collect();
        self
    }

    /// Enables the relay-beaconing extension.
    pub fn relay_beaconing(&mut self, on: bool) -> &mut Self {
        self.scenario.relay_beaconing = on;
        self
    }

    /// Sets the per-reception loss probability (robustness studies).
    pub fn packet_loss(&mut self, p: f64) -> &mut Self {
        self.scenario.packet_loss = p;
        self
    }

    /// Installs a deterministic fault schedule.
    pub fn faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.scenario.faults = plan;
        self
    }

    /// Sets how many silent periods trigger Sync-timebase failover.
    pub fn failover_missed_periods(&mut self, k: u32) -> &mut Self {
        self.scenario.failover_missed_periods = k;
        self
    }

    /// Sets the entropy watchdog threshold fraction (`>= 1.0` disables).
    pub fn entropy_watchdog_frac(&mut self, frac: f64) -> &mut Self {
        self.scenario.entropy_watchdog_frac = frac;
        self
    }

    /// Sets the outlier beacon gate in metres (`0.0` disables).
    pub fn outlier_gate_m(&mut self, gate: f64) -> &mut Self {
        self.scenario.outlier_gate_m = gate;
        self
    }

    /// Builds the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates an invariant; use
    /// [`ScenarioBuilder::try_build`] for a fallible version.
    pub fn build(&self) -> Scenario {
        self.try_build().expect("invalid scenario")
    }

    /// Builds the scenario, returning the violated invariant on failure.
    ///
    /// # Errors
    ///
    /// See [`Scenario::validate`].
    pub fn try_build(&self) -> Result<Scenario, String> {
        self.scenario.validate()?;
        Ok(self.scenario.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let s = Scenario::builder().build();
        assert_eq!(s.num_robots, 50);
        assert_eq!(s.num_equipped, 25);
        assert!((s.area.width() * s.area.height() - 40_000.0).abs() < 1e-9);
        assert_eq!(s.duration, SimDuration::from_secs(1800));
        assert_eq!(s.transmit_window, SimDuration::from_secs(3));
        assert_eq!(s.beacons_per_window, 3);
        assert_eq!(s.num_windows(), 18);
    }

    #[test]
    fn builder_round_trips_fields() {
        let s = Scenario::builder()
            .seed(7)
            .robots(10)
            .equipped(4)
            .v_max(0.5)
            .beacon_period(SimDuration::from_secs(50))
            .mode(EstimatorMode::RfOnly)
            .coordination(false)
            .build();
        assert_eq!(s.seed, 7);
        assert_eq!(s.num_robots, 10);
        assert_eq!(s.num_equipped, 4);
        assert_eq!(s.v_max, 0.5);
        assert!(!s.coordination);
        assert_eq!(s.mode, EstimatorMode::RfOnly);
    }

    #[test]
    fn rejects_equipped_exceeding_team() {
        let err = Scenario::builder().robots(10).equipped(11).try_build();
        assert!(err.is_err());
    }

    #[test]
    fn rejects_window_longer_than_period() {
        let err = Scenario::builder()
            .beacon_period(SimDuration::from_secs(2))
            .try_build();
        assert!(err.is_err());
    }

    #[test]
    fn rejects_rf_mode_without_sources() {
        let err = Scenario::builder()
            .equipped(0)
            .mode(EstimatorMode::RfOnly)
            .try_build();
        assert!(err.is_err());
        // Odometry-only mode is fine without beacon sources.
        assert!(Scenario::builder()
            .equipped(0)
            .mode(EstimatorMode::OdometryOnly)
            .try_build()
            .is_ok());
    }

    #[test]
    fn rejects_fault_plan_targeting_missing_robot() {
        use cocoa_sim::faults::Fault;
        let mut plan = FaultPlan::new();
        plan.schedule(SimTime::from_secs(10), Fault::Crash { robot: 50 });
        let err = Scenario::builder().faults(plan).try_build();
        assert!(err.is_err());
    }

    #[test]
    fn rejects_zero_failover_threshold() {
        let err = Scenario::builder().failover_missed_periods(0).try_build();
        assert!(err.is_err());
    }

    #[test]
    fn fault_preset_builds_valid_scenario() {
        let mut b = Scenario::builder();
        let d = b.try_build().unwrap().duration;
        let plan = FaultPlan::preset("chaos", d, 50).unwrap();
        let s = b.faults(plan).build();
        assert!(!s.faults.is_empty());
    }

    #[test]
    fn mesh_mode_selects_the_matching_backend() {
        let s = Scenario::builder()
            .mesh(OdmrpConfig {
                mode: MeshMode::Odmrp,
                ..OdmrpConfig::default()
            })
            .build();
        assert_eq!(s.multicast, MulticastProtocol::Odmrp);
        assert_eq!(
            Scenario::builder().build().multicast,
            MulticastProtocol::Mrmm
        );
    }

    #[test]
    fn rejects_mrmm_on_a_static_team() {
        // A static team advertises all-stationary MobilityInfo, silently
        // degrading MRMM to ODMRP — that must be a config error.
        let err = Scenario::builder().static_team().try_build();
        assert!(err.is_err(), "default backend is MRMM");
        let msg = err.unwrap_err();
        assert!(msg.contains("MRMM"), "unexpected message: {msg}");
        // The same deployment under ODMRP or flooding is fine.
        for p in [MulticastProtocol::Odmrp, MulticastProtocol::Flood] {
            assert!(Scenario::builder()
                .static_team()
                .multicast(p)
                .try_build()
                .is_ok());
        }
    }

    #[test]
    fn rejects_inverted_or_negative_speed_range() {
        assert!(Scenario::builder()
            .v_min(3.0)
            .v_max(2.0)
            .try_build()
            .is_err());
        assert!(Scenario::builder().v_min(-0.5).try_build().is_err());
        // A crawling-but-mobile team still trips the v_max floor.
        assert!(Scenario::builder()
            .v_min(0.0)
            .v_max(0.05)
            .try_build()
            .is_err());
    }

    #[test]
    fn rejects_grid_resolutions_the_grid_cannot_hold() {
        for metres in [0.0, -2.0, 500.0, f64::NAN, f64::INFINITY, 0.1, 1e-3, 5e-324] {
            assert!(
                Scenario::builder()
                    .grid_resolution(metres)
                    .try_build()
                    .is_err(),
                "{metres}"
            );
        }
        // The area's shorter side is the coarsest grid that still fits.
        assert!(Scenario::builder()
            .grid_resolution(200.0)
            .try_build()
            .is_ok());
    }

    #[test]
    fn snapshot_times_recorded() {
        let s = Scenario::builder()
            .snapshots([SimTime::from_secs(804), SimTime::from_secs(850)])
            .build();
        assert_eq!(s.snapshot_times.len(), 2);
    }
}
