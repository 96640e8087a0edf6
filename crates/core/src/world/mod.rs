//! The CoCoA simulation world: wires robots, radios, the medium, the
//! mesh, the coordination timeline and the metrics into one deterministic
//! discrete-event run.
//!
//! This module tree is the equivalent of the paper's Glomosim experiment
//! scripts: it realizes the timeline of Fig. 2 (beacon periods `T`,
//! transmit windows `t`, `k` beacons, radios sleeping in between) and the
//! SYNC dissemination of Fig. 3, and produces the error/energy metrics of
//! Section 4.
//!
//! The run is decomposed by concern, all sharing one `WorldState`:
//!
//! - [`events`](self): the event vocabulary, span bookkeeping and the
//!   dispatch table;
//! - `mesh`: the event glue between the engine and each robot's
//!   [`MeshNode`] (flood / ODMRP / MRMM);
//! - `window`: the coordination timeline — window starts, per-robot wakes
//!   and end-of-window fix/sync processing;
//! - `beacon`: the physical layer — deferred transmissions, channel
//!   sampling, reception judgment and beacon dispatch into the estimator;
//! - `faults_hook`: applying injected faults to the world;
//! - `metrics_hook`: metric sampling, snapshots and the end-of-run
//!   finalization into [`RunMetrics`].
//!
//! This file owns setup and teardown: scenario validation, the shared
//! [`Calibration`], team construction, the initial schedule, and the
//! public entry points [`run`] and [`run_with_telemetry`].

pub(crate) mod beacon;
pub mod checkpoint;
pub(crate) mod events;
pub(crate) mod faults_hook;
pub(crate) mod mesh;
pub(crate) mod metrics_hook;
pub(crate) mod window;

use std::sync::Arc;

use cocoa_localization::bayes::radial_constraints_for_grid;
use cocoa_localization::estimator::EstimatorMode;
use cocoa_localization::estimator::WindowedRfEstimator;
use cocoa_localization::grid::GridConfig;
use cocoa_mobility::motion::RobotMotion;
use cocoa_mobility::waypoint::WaypointConfig;
use cocoa_multicast::protocol::MeshNode;
use cocoa_net::calibration::{calibrate, CalibrationConfig, PdfTable, RadialConstraintTable};
use cocoa_net::channel::{ChannelParams, RfChannel};
use cocoa_net::energy::PowerState;
use cocoa_net::geometry::Point;
use cocoa_net::mac::{Medium, TxId};
use cocoa_net::packet::{GroupId, NodeId};
use cocoa_net::radio::Radio;
use cocoa_sim::dist::uniform;
use cocoa_sim::engine::Engine;
use cocoa_sim::faults::GilbertElliottLink;
use cocoa_sim::rng::{DetRng, SeedSplitter};
use cocoa_sim::telemetry::Telemetry;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::health::{DegradationState, HealthMonitor};
use crate::metrics::{ErrorPoint, ErrorSnapshot, RobustnessStats, RunMetrics, TrafficStats};
use crate::robot::Robot;
use crate::scenario::Scenario;
use crate::sync::DriftingClock;

use events::{Event, HistIds, SpanIds};

/// The multicast group every robot joins for SYNC delivery.
pub(crate) const SYNC_GROUP: GroupId = GroupId(1);

/// Offset of the JOIN QUERY flood from the window start.
pub(crate) const QUERY_OFFSET: SimDuration = SimDuration::from_millis(5);
/// Offset of the SYNC data from the window start (lets the mesh form:
/// query flood + jittered rebroadcasts + aggregated replies take a few
/// hundred milliseconds).
pub(crate) const SYNC_OFFSET: SimDuration = SimDuration::from_millis(600);
/// Beacons start this far into the window, clear of the mesh-control burst.
pub(crate) const BEACON_LEAD_IN: SimDuration = SimDuration::from_millis(700);

/// Everything the event handlers share: the team, the channel, the
/// accumulators and the telemetry bus.
pub(crate) struct WorldState {
    pub(crate) scenario: Scenario,
    pub(crate) channel: RfChannel,
    pub(crate) calibration: Arc<Calibration>,
    /// Radial constraint profiles (one per calibrated RSSI bin, floor
    /// baked in, each sampled when a beacon first resolves to its bin),
    /// shared by every robot's Bayesian update.
    pub(crate) radial: RadialConstraintTable,
    pub(crate) medium: Medium,
    pub(crate) rx_buffers: beacon::RxBuffers,
    pub(crate) robots: Vec<Robot>,
    pub(crate) move_rngs: Vec<DetRng>,
    pub(crate) odo_rngs: Vec<DetRng>,
    pub(crate) channel_rng: DetRng,
    pub(crate) jitter_rng: DetRng,
    // Metric accumulators.
    pub(crate) error_series: Vec<ErrorPoint>,
    pub(crate) snapshots: Vec<ErrorSnapshot>,
    pub(crate) position_snapshots: Vec<(SimTime, Vec<crate::metrics::RobotFinalState>)>,
    pub(crate) traffic: TrafficStats,
    pub(crate) sync_robot: usize,
    pub(crate) telemetry: Telemetry,
    pub(crate) spans: SpanIds,
    pub(crate) hists: HistIds,
    /// Next sim time at which per-robot timeline samples are due.
    pub(crate) next_robot_sample: Option<SimTime>,
    // Fault-injection state.
    pub(crate) fault_rng: DetRng,
    /// Per-receiver Gilbert–Elliott link state while a burst-loss overlay
    /// is active.
    pub(crate) burst: Option<Vec<GilbertElliottLink>>,
    /// Transmissions whose garbled frame no longer decodes: receivers pay
    /// the reception energy, then drop the frame.
    pub(crate) corrupt_txs: std::collections::HashSet<TxId>,
    pub(crate) robustness: RobustnessStats,
    /// Consecutive beacon periods the Sync timebase has been silent.
    pub(crate) sync_dead_windows: u32,
}

impl WorldState {
    pub(crate) fn mode(&self) -> EstimatorMode {
        self.scenario.mode
    }

    pub(crate) fn uses_rf(&self) -> bool {
        self.scenario.mode.uses_rf()
    }

    pub(crate) fn window_start_time(&self, index: u64) -> SimTime {
        SimTime::ZERO + self.scenario.beacon_period * index
    }

    /// Whether `robot` beacons during window `w` (equipped robots always,
    /// relayers when their fix is fresh enough).
    pub(crate) fn beacons_in_window(&self, robot: usize, window: u64) -> bool {
        let r = &self.robots[robot];
        r.equipped
            || self.scenario.relay_beaconing
                && r.last_fix_window.is_some_and(|w| {
                    window.saturating_sub(w) <= self.scenario.relay_max_fix_age_windows
                })
    }
}

/// Runs `scenario` to completion and returns its metrics.
///
/// Deterministic: the same scenario (including seed) always produces the
/// same metrics, bit for bit.
///
/// # Panics
///
/// Panics if the scenario fails validation — construct it through
/// [`Scenario::builder`] to catch that earlier.
///
/// # Examples
///
/// ```no_run
/// use cocoa_core::runner::run;
/// use cocoa_core::scenario::Scenario;
///
/// let metrics = run(&Scenario::builder().build());
/// println!("mean error {:.1} m", metrics.mean_error_over_time());
/// ```
pub fn run(scenario: &Scenario) -> RunMetrics {
    run_with_telemetry(scenario, Telemetry::off()).0
}

/// Like [`run`], but records typed events, counters and span timings into
/// the supplied [`Telemetry`] bus and returns it alongside the metrics.
///
/// Telemetry is strictly an observer: for any fixed scenario the returned
/// [`RunMetrics`] are bit-identical whatever the bus level, and the
/// deterministic part of the trace ([`Telemetry::to_jsonl`] without spans)
/// is byte-identical across runs of the same seed.
///
/// # Panics
///
/// Panics if the scenario fails validation.
pub fn run_with_telemetry(scenario: &Scenario, telemetry: Telemetry) -> (RunMetrics, Telemetry) {
    checkpoint::SimRun::new(scenario, telemetry).finish()
}

/// Panics with the validation error unless `scenario` is valid.
pub(crate) fn validate(scenario: &Scenario) {
    scenario
        .validate()
        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
}

/// Validates the scenario and constructs the complete [`WorldState`] on
/// `calibration` — team, channel, RNG streams, accumulators — with span
/// ids registered on `telemetry`. Does not schedule any events.
///
/// # Panics
///
/// Panics if the scenario fails validation or `calibration` was run for
/// another seed or channel.
pub(crate) fn setup_world(
    scenario: &Scenario,
    mut telemetry: Telemetry,
    calibration: Arc<Calibration>,
) -> WorldState {
    let spans = SpanIds::register(&mut telemetry);
    validate(scenario);
    assert!(
        calibration.fits(scenario),
        "the calibration was run for another seed or channel than the scenario's"
    );
    let t_setup = telemetry.span_start();
    let mut world = WorldState::new(scenario, telemetry, calibration);

    // --- Team construction. ---
    let split = SeedSplitter::new(scenario.seed);
    let mut placement_rng = split.stream("placement", 0);
    let mut clock_rng = split.stream("clock", 0);
    for i in 0..scenario.num_robots {
        let start = Point::new(
            uniform(scenario.area.x_min, scenario.area.x_max, &mut placement_rng),
            uniform(scenario.area.y_min, scenario.area.y_max, &mut placement_rng),
        );
        let mut move_rng = split.stream("move", i as u64);
        let odo_rng = split.stream("odo", i as u64);
        let skew = if i == 0 {
            0.0 // the Sync robot is the timebase
        } else {
            uniform(
                -scenario.clock_skew_ppm * 1e-6,
                scenario.clock_skew_ppm * 1e-6 + f64::EPSILON,
                &mut clock_rng,
            )
        };
        let mut robot = blank_robot(i, scenario);
        robot.motion = RobotMotion::new(
            waypoint_config(scenario),
            scenario.odometry,
            start,
            &mut move_rng,
        );
        if !scenario.mode.uses_rf() {
            robot.radio.set_state(SimTime::ZERO, PowerState::Off);
        }
        robot.clock = DriftingClock::new(skew);
        // Equipped robots are healthy by construction; everyone else starts
        // dead-reckoning (no fix yet — the RF estimator has not run, and
        // odometry-only robots never get one).
        if !robot.equipped {
            robot.health = HealthMonitor::new(DegradationState::DeadReckoning, SimTime::ZERO);
        }
        world.robots.push(robot);
        world.move_rngs.push(move_rng);
        world.odo_rngs.push(odo_rng);
    }
    world.telemetry.span_end(spans.run_setup, t_setup);
    world
}

/// Robot `index` of `scenario` before setup or a snapshot gives it its
/// state: alive, at the area's centre on a stand-in first leg, a fresh
/// radio, clock, health monitor and mesh node. Everything the scenario
/// fixes is set here and nowhere else, and snapshots do not store it:
/// whether the robot is equipped (in RF modes, the first `num_equipped`
/// robots are), whether it runs an estimator (the unequipped ones, with
/// the scenario's backend and grid), and its waypoint, odometry, energy
/// and mesh settings.
pub(crate) fn blank_robot(index: usize, scenario: &Scenario) -> Robot {
    let id = NodeId(index as u32);
    let equipped = scenario.mode.uses_rf() && index < scenario.num_equipped;
    let rf = (scenario.mode.uses_rf() && !equipped).then(|| {
        WindowedRfEstimator::with_algorithm(
            GridConfig::new(scenario.area, scenario.grid_resolution_m),
            scenario.rf_algorithm,
        )
    });
    Robot {
        id,
        index,
        equipped,
        motion: RobotMotion::new(
            waypoint_config(scenario),
            scenario.odometry,
            scenario.area.center(),
            &mut checkpoint::blank_rng(index),
        ),
        radio: Radio::new(scenario.energy, SimTime::ZERO),
        rf,
        mesh: MeshNode::new(scenario.multicast, id, SYNC_GROUP, true, scenario.mesh),
        clock: DriftingClock::new(0.0),
        last_fix_window: None,
        synced_this_window: false,
        fix_anchor: None,
        alive: true,
        epoch: 0,
        garbled_tx: false,
        beacon_offset: None,
        health: HealthMonitor::new(DegradationState::Healthy, SimTime::ZERO),
    }
}

fn waypoint_config(scenario: &Scenario) -> WaypointConfig {
    WaypointConfig {
        area: scenario.area,
        v_min: scenario.v_min,
        v_max: scenario.v_max,
    }
}

/// The offline calibration phase (paper Section 2.2): the RSSI→distance
/// PDF table every robot's estimator shares. It depends only on the seed
/// (it draws from a stream derived from it alone) and the channel, so
/// runs that agree on both can share one value behind an `Arc`.
#[derive(PartialEq)]
pub struct Calibration {
    seed: u64,
    channel: ChannelParams,
    table: PdfTable,
}

impl Calibration {
    /// Runs the calibration campaign for `scenario`'s seed and channel.
    /// The scenario must be valid: the campaign trusts its channel.
    pub fn new(scenario: &Scenario) -> Calibration {
        let table = calibrate(
            &RfChannel::new(scenario.channel),
            &CalibrationConfig::default(),
            &mut SeedSplitter::new(scenario.seed).stream("calibration", 0),
        );
        Calibration {
            seed: scenario.seed,
            channel: scenario.channel,
            table,
        }
    }

    /// Whether this calibration is the one `scenario` would run: same
    /// seed, same channel.
    pub fn fits(&self, scenario: &Scenario) -> bool {
        self.seed == scenario.seed && self.channel == scenario.channel
    }
}

// Serve shares one calibration across its worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Calibration>();
};

impl WorldState {
    /// A world for `scenario` with no team yet: the radial table over
    /// `calibration` for the scenario's grid, empty accumulators, the
    /// shared RNG streams split from the seed, span and histogram ids
    /// registered on `telemetry`.
    pub(crate) fn new(
        scenario: &Scenario,
        mut telemetry: Telemetry,
        calibration: Arc<Calibration>,
    ) -> WorldState {
        let split = SeedSplitter::new(scenario.seed);
        let spans = SpanIds::register(&mut telemetry);
        let hists = HistIds::register(&mut telemetry);
        let radial = radial_constraints_for_grid(
            &calibration.table,
            &GridConfig::new(scenario.area, scenario.grid_resolution_m),
        );
        WorldState {
            scenario: scenario.clone(),
            channel: RfChannel::new(scenario.channel),
            calibration,
            radial,
            medium: Medium::new(),
            rx_buffers: beacon::RxBuffers::default(),
            robots: Vec::new(),
            move_rngs: Vec::new(),
            odo_rngs: Vec::new(),
            channel_rng: split.stream("channel", 0),
            jitter_rng: split.stream("jitter", 0),
            error_series: Vec::new(),
            snapshots: Vec::new(),
            position_snapshots: Vec::new(),
            traffic: TrafficStats::default(),
            sync_robot: 0,
            telemetry,
            spans,
            hists,
            next_robot_sample: None,
            fault_rng: split.stream("faults", 0),
            burst: None,
            corrupt_txs: std::collections::HashSet::new(),
            robustness: RobustnessStats::default(),
            sync_dead_windows: 0,
        }
    }
}

/// Builds the initial event schedule for a freshly constructed world and
/// returns an engine positioned at time zero.
/// Also sizes `world.snapshots` to match the scheduled snapshot times.
pub(crate) fn build_initial_schedule(world: &mut WorldState) -> Engine<Event> {
    let scenario = &world.scenario;
    let horizon = SimTime::ZERO + scenario.duration;
    let mut engine: Engine<Event> = Engine::new(horizon);
    engine.schedule_at(SimTime::ZERO + scenario.tick, Event::MoveTick);
    engine.schedule_at(
        SimTime::ZERO + scenario.metrics_interval,
        Event::MetricsSample,
    );
    if world.uses_rf() {
        engine.schedule_at(SimTime::ZERO, Event::WindowStart { index: 0 });
        for i in 0..world.robots.len() {
            engine.schedule_at(
                SimTime::ZERO,
                Event::RobotWake {
                    robot: i,
                    window: 0,
                    epoch: 0,
                },
            );
        }
        engine.schedule_at(SimTime::ZERO + SimDuration::from_secs(10), Event::MediumGc);
    }
    for e in scenario.faults.events() {
        if e.at <= horizon {
            engine.schedule_at(e.at, Event::Fault(e.fault.clone()));
        }
    }
    let mut snapshot_times = scenario.snapshot_times.clone();
    snapshot_times.sort();
    for (i, &t) in snapshot_times.iter().enumerate() {
        if t <= horizon {
            engine.schedule_at(t, Event::Snapshot { index: i });
        }
    }
    world.snapshots = snapshot_times
        .iter()
        .map(|&t| ErrorSnapshot::new(t, Vec::new()))
        .collect();
    engine
}
