//! The run-scoped observability backbone: a typed, allocation-lean event
//! bus with per-subsystem counters, monotonic span timers and a
//! deterministic JSONL exporter.
//!
//! Every simulation run owns one [`Telemetry`] instance (no globals, so
//! parallel parameter sweeps via `map_bounded` never interleave), which
//! collects three kinds of data:
//!
//! 1. **Events** — a time-ordered stream of [`TelemetryEvent`] records
//!    (beacon tx/rx, grid updates, fixes, sync delivery/miss, radio state
//!    changes, fault injections, health transitions, periodic per-robot
//!    samples). Events are stamped with the simulation time and a stable
//!    sequence number, never with wall-clock time, so identical seeds
//!    produce byte-identical traces.
//! 2. **Counters** — named `u64` totals in a [`CounterRegistry`], exported
//!    in sorted order.
//! 3. **Spans** — wall-clock timers ([`SpanProfiler`]) that attribute run
//!    time to named subsystems (`grid.update`, `channel.sample`, …). Span
//!    durations are the *only* non-deterministic quantity the bus records;
//!    they are excluded from the deterministic JSONL stream unless
//!    explicitly requested.
//!
//! # Levels
//!
//! The bus is gated by a [`TelemetryLevel`]:
//!
//! | level      | counters | events + timelines | high-volume events + spans |
//! |------------|----------|--------------------|----------------------------|
//! | `Off`      | —        | —                  | —                          |
//! | `Counters` | ✓        | —                  | —                          |
//! | `Timeline` | ✓        | ✓                  | —                          |
//! | `Full`     | ✓        | ✓                  | ✓                          |
//!
//! At `Off`, every emission path is a single branch on the level — no
//! allocation, no closure invocation, no `Instant::now()` call — so
//! telemetry costs nothing when disabled.
//!
//! # Examples
//!
//! ```
//! use cocoa_sim::telemetry::{Telemetry, TelemetryEvent, TelemetryLevel};
//! use cocoa_sim::time::SimTime;
//!
//! let mut t = Telemetry::new(TelemetryLevel::Timeline);
//! t.emit(SimTime::from_secs(1), TelemetryEvent::WindowStart { window: 0 });
//! let fixes = t.counter("traffic.fixes");
//! t.bump(fixes);
//! assert_eq!(t.events().count(), 1);
//! assert_eq!(t.counters().get("traffic.fixes"), Some(1));
//! ```

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

use crate::jsonfmt::write_opt_f64;
use crate::snapshot::{Codec, SnapshotError};
use crate::time::{SimDuration, SimTime};

pub mod export;
pub mod hist;

use hist::{HistId, HistogramRegistry};

/// Version of the JSONL trace schema emitted by [`Telemetry::to_jsonl`].
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// How much the bus records. Ordered: each level includes everything the
/// previous one records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TelemetryLevel {
    /// Record nothing; every hook is a single branch.
    #[default]
    Off,
    /// Per-subsystem counters only.
    Counters,
    /// Counters plus protocol events and periodic per-robot samples.
    Timeline,
    /// Everything: per-packet events and wall-clock span timers too.
    Full,
}

impl TelemetryLevel {
    /// Every level, in order; the order is the snapshot tag.
    pub const ALL: [TelemetryLevel; 4] = [
        TelemetryLevel::Off,
        TelemetryLevel::Counters,
        TelemetryLevel::Timeline,
        TelemetryLevel::Full,
    ];

    /// Parses the CLI spelling of a level.
    pub fn parse(s: &str) -> Option<TelemetryLevel> {
        match s {
            "off" => Some(TelemetryLevel::Off),
            "counters" => Some(TelemetryLevel::Counters),
            "timeline" => Some(TelemetryLevel::Timeline),
            "full" => Some(TelemetryLevel::Full),
            _ => None,
        }
    }

    /// The CLI spelling of this level.
    pub fn as_str(&self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Timeline => "timeline",
            TelemetryLevel::Full => "full",
        }
    }
}

impl std::fmt::Display for TelemetryLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed event on the bus.
///
/// Robot indices are `u32` and subsystem states are `&'static str` so the
/// simulation kernel stays decoupled from the protocol crates that define
/// the richer types. Every variant is allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A beacon period starts on the coordinator's reference timeline.
    WindowStart {
        /// Window index.
        window: u64,
    },
    /// A localization beacon was put on the air.
    BeaconTx {
        /// Transmitting robot.
        robot: u32,
        /// Advertised x coordinate, metres.
        x_m: f64,
        /// Advertised y coordinate, metres.
        y_m: f64,
    },
    /// A beacon reached a localizer.
    BeaconRx {
        /// Receiving robot.
        robot: u32,
        /// Beacon source.
        from: u32,
        /// Received signal strength, dBm.
        rssi_dbm: f64,
        /// What the estimator did with it (`"applied"`, `"outlier"`,
        /// `"rejected"`, `"no_pdf"`).
        outcome: &'static str,
    },
    /// A beacon refined a robot's posterior grid.
    GridUpdate {
        /// Robot whose grid was updated.
        robot: u32,
    },
    /// A transmit window produced a fresh RF fix.
    Fix {
        /// Robot that fixed.
        robot: u32,
        /// Window index.
        window: u64,
        /// Fix x coordinate, metres.
        x_m: f64,
        /// Fix y coordinate, metres.
        y_m: f64,
        /// Distance from ground truth, metres.
        err_m: f64,
    },
    /// The entropy watchdog vetoed a near-uniform posterior.
    FlatPosterior {
        /// Affected robot.
        robot: u32,
        /// Window index.
        window: u64,
        /// Posterior entropy, nats.
        entropy: f64,
        /// Watchdog threshold, nats.
        threshold: f64,
    },
    /// A robot was awake but received fewer than the minimum beacons.
    StarvedWindow {
        /// Affected robot.
        robot: u32,
        /// Window index.
        window: u64,
    },
    /// A SYNC message reached a robot during its window.
    SyncDelivered {
        /// Receiving robot.
        robot: u32,
        /// Window index.
        window: u64,
    },
    /// A robot's window closed without a SYNC.
    SyncMissed {
        /// Affected robot.
        robot: u32,
        /// Window index.
        window: u64,
    },
    /// The team elected a new Sync timebase.
    Failover {
        /// Index of the newly elected timebase robot.
        new_sync: u32,
    },
    /// An MRMM node suppressed a JOIN QUERY rebroadcast: the link was
    /// predicted too short-lived and enough redundant copies were heard.
    MeshPrune {
        /// Pruning robot.
        robot: u32,
        /// Source of the pruned query round.
        source: u32,
        /// Sequence number of the pruned query round.
        seq: u32,
    },
    /// A radio changed power state.
    RadioState {
        /// Robot whose radio transitioned.
        robot: u32,
        /// New state (`"idle"`, `"sleep"`, `"off"`).
        state: &'static str,
    },
    /// An injected fault fired.
    FaultInjected {
        /// Fault kind (`"crash"`, `"reboot"`, `"burst_loss_start"`, …).
        kind: &'static str,
        /// Targeted robot, if the fault targets one.
        robot: Option<u32>,
    },
    /// A robot's degradation state changed.
    HealthTransition {
        /// Affected robot.
        robot: u32,
        /// New state (`"healthy"`, `"degraded"`, `"dead-reckoning"`,
        /// `"down"`).
        state: &'static str,
    },
    /// Periodic per-robot timeline sample.
    RobotSample {
        /// Sampled robot.
        robot: u32,
        /// Ground-truth x, metres.
        true_x_m: f64,
        /// Ground-truth y, metres.
        true_y_m: f64,
        /// Estimated x, metres.
        est_x_m: f64,
        /// Estimated y, metres.
        est_y_m: f64,
        /// Localization error, metres.
        err_m: f64,
        /// Posterior entropy as a fraction of the maximum (RF robots only).
        entropy_frac: Option<f64>,
        /// Total energy consumed so far, joules.
        energy_j: f64,
        /// Radio power state.
        radio: &'static str,
        /// Degradation state.
        health: &'static str,
    },
    /// Periodic team-level sample mirroring the metrics error series.
    TeamSample {
        /// Mean localization error over reporting robots, metres.
        mean_err_m: f64,
        /// Robots that contributed.
        robots: u32,
        /// Team energy consumed so far, joules.
        energy_j: f64,
    },
    /// A run-state snapshot was serialized at this instant.
    ///
    /// Emitted *after* the telemetry section is captured, so the snapshot
    /// bytes never contain their own marker and a resumed run stays
    /// byte-identical to an uninterrupted one.
    SnapshotTaken {
        /// Size of the serialized snapshot.
        bytes: u64,
        /// Number of codec sections written.
        sections: u32,
    },
    /// The run was restored from a snapshot at this instant (only the
    /// marked resume path emits this; the quiet path used by equivalence
    /// tests leaves the restored bus untouched).
    SnapshotRestored {
        /// Size of the snapshot the run was restored from.
        bytes: u64,
    },
}

/// A placeholder decoders overwrite.
impl Default for TelemetryEvent {
    fn default() -> Self {
        TelemetryEvent::WindowStart { window: 0 }
    }
}

/// One placeholder per variant; the order is the snapshot tag.
static TELEMETRY_EVENTS: [TelemetryEvent; 18] = [
    TelemetryEvent::WindowStart { window: 0 },
    TelemetryEvent::BeaconTx {
        robot: 0,
        x_m: 0.0,
        y_m: 0.0,
    },
    TelemetryEvent::BeaconRx {
        robot: 0,
        from: 0,
        rssi_dbm: 0.0,
        outcome: "",
    },
    TelemetryEvent::GridUpdate { robot: 0 },
    TelemetryEvent::Fix {
        robot: 0,
        window: 0,
        x_m: 0.0,
        y_m: 0.0,
        err_m: 0.0,
    },
    TelemetryEvent::FlatPosterior {
        robot: 0,
        window: 0,
        entropy: 0.0,
        threshold: 0.0,
    },
    TelemetryEvent::StarvedWindow {
        robot: 0,
        window: 0,
    },
    TelemetryEvent::SyncDelivered {
        robot: 0,
        window: 0,
    },
    TelemetryEvent::SyncMissed {
        robot: 0,
        window: 0,
    },
    TelemetryEvent::Failover { new_sync: 0 },
    TelemetryEvent::MeshPrune {
        robot: 0,
        source: 0,
        seq: 0,
    },
    TelemetryEvent::RadioState {
        robot: 0,
        state: "",
    },
    TelemetryEvent::FaultInjected {
        kind: "",
        robot: None,
    },
    TelemetryEvent::HealthTransition {
        robot: 0,
        state: "",
    },
    TelemetryEvent::RobotSample {
        robot: 0,
        true_x_m: 0.0,
        true_y_m: 0.0,
        est_x_m: 0.0,
        est_y_m: 0.0,
        err_m: 0.0,
        entropy_frac: None,
        energy_j: 0.0,
        radio: "",
        health: "",
    },
    TelemetryEvent::TeamSample {
        mean_err_m: 0.0,
        robots: 0,
        energy_j: 0.0,
    },
    TelemetryEvent::SnapshotTaken {
        bytes: 0,
        sections: 0,
    },
    TelemetryEvent::SnapshotRestored { bytes: 0 },
];

impl TelemetryEvent {
    /// The snapshot layout: a tag, then the variant's fields.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        c.tag(&TELEMETRY_EVENTS, self, "telemetry event")?;
        match self {
            TelemetryEvent::WindowStart { window } => c.u64(window),
            TelemetryEvent::BeaconTx { robot, x_m, y_m } => {
                c.u32(robot)?;
                c.f64(x_m)?;
                c.f64(y_m)
            }
            TelemetryEvent::BeaconRx {
                robot,
                from,
                rssi_dbm,
                outcome,
            } => {
                c.u32(robot)?;
                c.u32(from)?;
                c.f64(rssi_dbm)?;
                c.name(outcome)
            }
            TelemetryEvent::GridUpdate { robot } => c.u32(robot),
            TelemetryEvent::Fix {
                robot,
                window,
                x_m,
                y_m,
                err_m,
            } => {
                c.u32(robot)?;
                c.u64(window)?;
                c.f64s([x_m, y_m, err_m])
            }
            TelemetryEvent::FlatPosterior {
                robot,
                window,
                entropy,
                threshold,
            } => {
                c.u32(robot)?;
                c.u64(window)?;
                c.f64(entropy)?;
                c.f64(threshold)
            }
            TelemetryEvent::StarvedWindow { robot, window }
            | TelemetryEvent::SyncDelivered { robot, window }
            | TelemetryEvent::SyncMissed { robot, window } => {
                c.u32(robot)?;
                c.u64(window)
            }
            TelemetryEvent::Failover { new_sync } => c.u32(new_sync),
            TelemetryEvent::MeshPrune { robot, source, seq } => {
                c.u32(robot)?;
                c.u32(source)?;
                c.u32(seq)
            }
            TelemetryEvent::RadioState { robot, state }
            | TelemetryEvent::HealthTransition { robot, state } => {
                c.u32(robot)?;
                c.name(state)
            }
            TelemetryEvent::FaultInjected { kind, robot } => {
                c.name(kind)?;
                c.opt(robot, Codec::u32)
            }
            TelemetryEvent::RobotSample {
                robot,
                true_x_m,
                true_y_m,
                est_x_m,
                est_y_m,
                err_m,
                entropy_frac,
                energy_j,
                radio,
                health,
            } => {
                c.u32(robot)?;
                c.f64s([true_x_m, true_y_m, est_x_m, est_y_m, err_m])?;
                c.opt(entropy_frac, Codec::f64)?;
                c.f64(energy_j)?;
                c.name(radio)?;
                c.name(health)
            }
            TelemetryEvent::TeamSample {
                mean_err_m,
                robots,
                energy_j,
            } => {
                c.f64(mean_err_m)?;
                c.u32(robots)?;
                c.f64(energy_j)
            }
            TelemetryEvent::SnapshotTaken { bytes, sections } => {
                c.u64(bytes)?;
                c.u32(sections)
            }
            TelemetryEvent::SnapshotRestored { bytes } => c.u64(bytes),
        }
    }

    /// The stable machine name of this event kind (the JSONL `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::WindowStart { .. } => "window_start",
            TelemetryEvent::BeaconTx { .. } => "beacon_tx",
            TelemetryEvent::BeaconRx { .. } => "beacon_rx",
            TelemetryEvent::GridUpdate { .. } => "grid_update",
            TelemetryEvent::Fix { .. } => "fix",
            TelemetryEvent::FlatPosterior { .. } => "flat_posterior",
            TelemetryEvent::StarvedWindow { .. } => "starved_window",
            TelemetryEvent::SyncDelivered { .. } => "sync_delivered",
            TelemetryEvent::SyncMissed { .. } => "sync_missed",
            TelemetryEvent::Failover { .. } => "failover",
            TelemetryEvent::MeshPrune { .. } => "mesh_prune",
            TelemetryEvent::RadioState { .. } => "radio_state",
            TelemetryEvent::FaultInjected { .. } => "fault",
            TelemetryEvent::HealthTransition { .. } => "health",
            TelemetryEvent::RobotSample { .. } => "robot_sample",
            TelemetryEvent::TeamSample { .. } => "team_sample",
            TelemetryEvent::SnapshotTaken { .. } => "snapshot_taken",
            TelemetryEvent::SnapshotRestored { .. } => "snapshot_restored",
        }
    }
}

/// An event stamped with simulation time and a stable sequence number.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StampedEvent {
    /// Simulation time of emission, microseconds.
    pub t_us: u64,
    /// Monotonic per-run sequence number (total emission order).
    pub seq: u64,
    /// The payload.
    pub event: TelemetryEvent,
}

impl StampedEvent {
    /// The snapshot layout.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let StampedEvent { t_us, seq, event } = self;
        c.u64(t_us)?;
        c.u64(seq)?;
        event.code(c)
    }
}

/// Handle to one registered counter (index into the registry, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Named `u64` counters with stable, sorted export order.
///
/// Registration returns a [`CounterId`] so hot paths bump by index instead
/// of hashing a name.
#[derive(Debug, Default)]
pub struct CounterRegistry {
    names: Vec<&'static str>,
    values: Vec<u64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `name` (idempotent) and returns its handle.
    pub fn register(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return CounterId(i);
        }
        self.names.push(name);
        self.values.push(0);
        CounterId(self.names.len() - 1)
    }

    /// Adds `n` to a registered counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.values[id.0] += n;
    }

    /// Increments a registered counter by one.
    pub fn bump(&mut self, id: CounterId) {
        self.values[id.0] += 1;
    }

    /// Registers `name` if needed and sets its value (end-of-run
    /// absorption of subsystem statistics).
    pub fn set(&mut self, name: &'static str, value: u64) {
        let id = self.register(name);
        self.values[id.0] = value;
    }

    /// The current value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.values[i])
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The snapshot layout: every counter as its name and value, sorted
    /// by name. The reader registers each name it decodes.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let CounterRegistry { names, values } = self;
        let mut sorted = names.clone();
        sorted.sort_unstable();
        c.vec(&mut sorted, |c, name| {
            c.name(name)?;
            let i = names.iter().position(|n| n == name).unwrap_or_else(|| {
                names.push(*name);
                values.push(0);
                names.len() - 1
            });
            c.u64(&mut values[i])
        })
    }

    /// All counters sorted by name (deterministic export order).
    pub fn sorted(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .names
            .iter()
            .copied()
            .zip(self.values.iter().copied())
            .collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }
}

/// Handle to one registered span (index into the profiler, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The start token of an open span: `Some` only when spans are enabled,
/// so closing it is free when telemetry is off.
pub type SpanStart = Option<Instant>;

/// One profiled span's accumulated totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name, dot-separated by convention (`"grid.update"`,
    /// `"run.event_loop"`).
    pub name: &'static str,
    /// Total wall-clock time attributed, nanoseconds.
    pub total_ns: u128,
    /// Number of times the span closed, or, for a span recorded with
    /// [`SpanProfiler::record_n`], of the units of work it timed.
    pub count: u64,
}

/// Accumulates wall-clock time per named span.
///
/// Spans follow a dot-separated naming convention: `run.*` spans tile the
/// whole run (calibrate / setup / event_loop / finalize), `event.*` spans
/// tile the event loop by event category, and subsystem spans
/// (`channel.sample`, `mesh.handle`, `mobility.step`) nest inside event
/// spans, or, like `grid.update`, run between events inside
/// `run.event_loop` — so `run.*` children sum to the run and everything
/// else attributes time *within* them.
#[derive(Debug, Default)]
pub struct SpanProfiler {
    names: Vec<&'static str>,
    totals_ns: Vec<u128>,
    counts: Vec<u64>,
}

impl SpanProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `name` (idempotent) and returns its handle.
    pub fn register(&mut self, name: &'static str) -> SpanId {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return SpanId(i);
        }
        self.names.push(name);
        self.totals_ns.push(0);
        self.counts.push(0);
        SpanId(self.names.len() - 1)
    }

    /// Attributes `elapsed` to a span.
    pub fn record(&mut self, id: SpanId, elapsed: std::time::Duration) {
        self.record_n(id, elapsed, 1);
    }

    /// Attributes `elapsed` to `n` closings of a span at once: one timed
    /// stretch of work that did `n` of the span's units (a batch of grid
    /// updates), so the span's per-call time stays time per unit.
    pub fn record_n(&mut self, id: SpanId, elapsed: std::time::Duration, n: u64) {
        self.totals_ns[id.0] += elapsed.as_nanos();
        self.counts[id.0] += n;
    }

    /// The accumulated totals, sorted by total time descending.
    pub fn report(&self) -> Vec<SpanStat> {
        let mut out: Vec<SpanStat> = (0..self.names.len())
            .filter(|&i| self.counts[i] > 0)
            .map(|i| SpanStat {
                name: self.names[i],
                total_ns: self.totals_ns[i],
                count: self.counts[i],
            })
            .collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        out
    }

    /// Total nanoseconds attributed to `name`, if it ever closed.
    pub fn total_ns(&self, name: &str) -> Option<u128> {
        self.names
            .iter()
            .position(|n| *n == name)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| self.totals_ns[i])
    }

    /// Fraction of the `root` span covered by its direct children — spans
    /// named `prefix.*` with exactly one more dot-separated segment than
    /// `prefix` (the root `"run.total"` is covered by `"run.calibrate"`,
    /// `"run.event_loop"`, … but not by `"run.total"` itself).
    ///
    /// Returns `None` if the root span never closed.
    pub fn coverage(&self, root: &str) -> Option<f64> {
        let total = self.total_ns(root)?;
        if total == 0 {
            return Some(1.0);
        }
        let prefix = root.rsplit_once('.').map_or("", |(p, _)| p);
        let depth = root.matches('.').count();
        let children: u128 = (0..self.names.len())
            .filter(|&i| {
                let n = self.names[i];
                n != root
                    && self.counts[i] > 0
                    && n.starts_with(prefix)
                    && n.matches('.').count() == depth
            })
            .map(|i| self.totals_ns[i])
            .sum();
        Some(children as f64 / total as f64)
    }
}

/// An RAII span guard: closes its span on drop.
///
/// Holds a mutable borrow of the bus for its whole scope — use it for
/// coarse phases. Hot paths that need the bus inside the span should use
/// the manual [`Telemetry::span_start`] / [`Telemetry::span_end`] pair
/// instead.
pub struct SpanGuard<'a> {
    telemetry: &'a mut Telemetry,
    id: SpanId,
    start: SpanStart,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.telemetry.span_end(self.id, self.start);
    }
}

/// Opens an RAII span on a [`Telemetry`] bus by name.
///
/// ```
/// use cocoa_sim::span;
/// use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
///
/// let mut t = Telemetry::new(TelemetryLevel::Full);
/// {
///     let _s = span!(t, "grid.update");
///     // ... timed work ...
/// }
/// assert_eq!(t.spans().report()[0].name, "grid.update");
/// ```
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:literal) => {{
        let id = $telemetry.span_id($name);
        $telemetry.span_guard(id)
    }};
}

/// The per-run telemetry bus.
///
/// See the [module docs](self) for the data model and level gating.
#[derive(Debug)]
pub struct Telemetry {
    level: TelemetryLevel,
    events: VecDeque<StampedEvent>,
    capacity: Option<usize>,
    seq: u64,
    dropped: u64,
    counters: CounterRegistry,
    spans: SpanProfiler,
    hists: HistogramRegistry,
    hist_enabled: bool,
    span_dur_hist: HistId,
    sample_interval: Option<SimDuration>,
}

impl Telemetry {
    /// A bus recording at `level`, unbounded.
    pub fn new(level: TelemetryLevel) -> Self {
        let mut hists = HistogramRegistry::new();
        // Span durations are wall-clock — the one non-deterministic hist,
        // excluded from snapshots and equivalence checks like span timers.
        let span_dur_hist = hists.register("span.duration_us", true);
        Telemetry {
            level,
            events: VecDeque::new(),
            capacity: None,
            seq: 0,
            dropped: 0,
            counters: CounterRegistry::new(),
            spans: SpanProfiler::new(),
            hists,
            hist_enabled: true,
            span_dur_hist,
            sample_interval: None,
        }
    }

    /// A disabled bus: every hook is a single branch.
    pub fn off() -> Self {
        Telemetry::new(TelemetryLevel::Off)
    }

    /// A bus retaining at most `capacity` events; older events are evicted
    /// and counted in [`Telemetry::dropped_events`] (ring-buffer mode for
    /// long runs — the drop is explicit, never silent).
    pub fn with_capacity(level: TelemetryLevel, capacity: usize) -> Self {
        let mut t = Telemetry::new(level);
        t.capacity = Some(capacity);
        t.events.reserve(capacity.min(65_536));
        t
    }

    /// The recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// The ring-buffer capacity bound, if one was set.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The snapshot layout: everything deterministic the bus carries —
    /// its settings, the retained event window, the emission and drop
    /// totals, the counters and the deterministic histograms.
    ///
    /// Decode onto a fresh bus ([`Telemetry::off`]). Span timers (and
    /// wall-clock histograms such as `span.duration_us`) are not stored
    /// and restart at zero: span durations are wall-clock, the one
    /// non-deterministic quantity the bus records.
    pub fn code(&mut self, c: &mut impl Codec) -> Result<(), SnapshotError> {
        let Telemetry {
            level,
            events,
            capacity,
            seq,
            dropped,
            counters,
            hists,
            sample_interval,
            // Wall-clock timers, never stored.
            spans: _,
            // A run setting: the reader's bus keeps its own.
            hist_enabled: _,
            // Registered by `Telemetry::new` on every bus.
            span_dur_hist: _,
        } = self;
        c.tag(&TelemetryLevel::ALL, level, "telemetry level")?;
        c.opt(capacity, Codec::usize)?;
        c.u64(seq)?;
        c.u64(dropped)?;
        c.opt(sample_interval, |c, d| d.code(c))?;
        let mut retained = Vec::from(std::mem::take(events));
        let coded = c.vec(&mut retained, |c, e| e.code(c));
        *events = retained.into();
        coded?;
        counters.code(c)?;
        hists.code(c)
    }

    /// Sets the per-robot timeline sampling interval. Unset means "sample
    /// at every metrics tick".
    pub fn set_sample_interval(&mut self, interval: SimDuration) {
        self.sample_interval = Some(interval);
    }

    /// The configured timeline sampling interval, if any.
    pub fn sample_interval(&self) -> Option<SimDuration> {
        self.sample_interval
    }

    /// Whether protocol events and timeline samples are recorded.
    #[inline]
    pub fn wants_events(&self) -> bool {
        self.level >= TelemetryLevel::Timeline
    }

    /// Whether counters are maintained.
    #[inline]
    pub fn wants_counters(&self) -> bool {
        self.level >= TelemetryLevel::Counters
    }

    fn push(&mut self, t_us: u64, event: TelemetryEvent) {
        if self.capacity == Some(0) {
            self.seq += 1;
            self.dropped += 1;
            return;
        }
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(StampedEvent {
            t_us,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Records a protocol event (kept at `Timeline` and above).
    #[inline]
    pub fn emit(&mut self, now: SimTime, event: TelemetryEvent) {
        if self.level >= TelemetryLevel::Timeline {
            self.push(now.as_micros(), event);
        }
    }

    /// Records a high-volume event (kept at `Full` only). The closure is
    /// invoked only when the event is kept, so hot paths pay one branch
    /// when it is not.
    #[inline]
    pub fn emit_full(&mut self, now: SimTime, event: impl FnOnce() -> TelemetryEvent) {
        if self.level >= TelemetryLevel::Full {
            self.push(now.as_micros(), event());
        }
    }

    /// Registers (or looks up) a counter.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        self.counters.register(name)
    }

    /// Increments a counter by one (no-op below `Counters`).
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        if self.level >= TelemetryLevel::Counters {
            self.counters.bump(id);
        }
    }

    /// Adds `n` to a counter (no-op below `Counters`).
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if self.level >= TelemetryLevel::Counters {
            self.counters.add(id, n);
        }
    }

    /// Registers `name` if needed and sets it to `value` (no-op below
    /// `Counters`). Used to absorb subsystem statistics at run end.
    pub fn absorb(&mut self, name: &'static str, value: u64) {
        if self.level >= TelemetryLevel::Counters {
            self.counters.set(name, value);
        }
    }

    /// The counter registry.
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// Registers (or looks up) a deterministic histogram.
    pub fn hist(&mut self, name: &'static str) -> HistId {
        self.hists.register(name, false)
    }

    /// Registers (or looks up) a wall-clock histogram — excluded from
    /// snapshots and determinism checks, like span timers.
    pub fn hist_wall(&mut self, name: &'static str) -> HistId {
        self.hists.register(name, true)
    }

    /// Whether [`hist_record`](Self::hist_record) keeps its samples:
    /// histograms are enabled and the level is at least `Counters`.
    #[inline]
    pub fn wants_hists(&self) -> bool {
        self.hist_enabled && self.wants_counters()
    }

    /// Records a histogram sample (no-op unless
    /// [`wants_hists`](Self::wants_hists)). Recording is a branch plus
    /// four writes — no allocation, no clock, no RNG — so it never
    /// perturbs a run. A sample that costs more to compute than to record
    /// is computed only when `wants_hists()` holds, so a run that keeps no
    /// histogram never pays for it. The one such sample today, a
    /// posterior's entropy, is a pass over its cells; the grid also caches
    /// it per posterior state (never serialized), so every reader between
    /// two updates shares one pass.
    #[inline]
    pub fn hist_record(&mut self, id: HistId, x: f64) {
        if self.wants_hists() {
            self.hists.record(id, x);
        }
    }

    /// Enables or disables histogram recording wholesale (used by the
    /// zero-observer-effect suite to compare on vs off).
    pub fn set_histograms(&mut self, enabled: bool) {
        self.hist_enabled = enabled;
    }

    /// The histogram registry.
    pub fn histograms(&self) -> &HistogramRegistry {
        &self.hists
    }

    /// Registers (or looks up) a span by name.
    pub fn span_id(&mut self, name: &'static str) -> SpanId {
        self.spans.register(name)
    }

    /// Starts a span: returns a token that is `Some` only at `Full`, so
    /// closing it costs nothing otherwise.
    #[inline]
    pub fn span_start(&self) -> SpanStart {
        if self.level >= TelemetryLevel::Full {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a span opened with [`Telemetry::span_start`]. The duration
    /// also feeds the wall-clock `span.duration_us` histogram (spans only
    /// open at `Full`, so this costs nothing otherwise).
    #[inline]
    pub fn span_end(&mut self, id: SpanId, start: SpanStart) {
        self.span_end_n(id, start, 1);
    }

    /// Closes a span opened with [`Telemetry::span_start`] that covered
    /// `n` units of the span's work, counting it `n` times
    /// ([`SpanProfiler::record_n`]). Nothing is recorded for `n = 0`.
    #[inline]
    pub fn span_end_n(&mut self, id: SpanId, start: SpanStart, n: u64) {
        if let (Some(t0), true) = (start, n > 0) {
            let elapsed = t0.elapsed();
            self.spans.record_n(id, elapsed, n);
            if self.hist_enabled {
                self.hists
                    .record(self.span_dur_hist, elapsed.as_secs_f64() * 1e6);
            }
        }
    }

    /// Opens an RAII span (see [`SpanGuard`] and the [`span!`](crate::span)
    /// macro).
    pub fn span_guard(&mut self, id: SpanId) -> SpanGuard<'_> {
        let start = self.span_start();
        SpanGuard {
            telemetry: self,
            id,
            start,
        }
    }

    /// The span profiler.
    pub fn spans(&self) -> &SpanProfiler {
        &self.spans
    }

    /// Retained events in emission order.
    pub fn events(&self) -> impl Iterator<Item = &StampedEvent> {
        self.events.iter()
    }

    /// Total events emitted (including dropped ones).
    pub fn events_emitted(&self) -> u64 {
        self.seq
    }

    /// Events discarded by the ring-buffer capacity bound.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Serializes the deterministic part of the bus as JSONL: one `meta`
    /// header line, one line per event, and one `counter` line per
    /// registered counter (sorted by name). With `include_spans`, a
    /// trailer of `span` lines and non-empty `hist` lines is appended —
    /// span durations (and the `span.duration_us` histogram) are
    /// wall-clock and therefore non-reproducible content; leave the
    /// trailer out to get a byte-identical trace across identical seeds.
    pub fn to_jsonl(&self, include_spans: bool) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        let _ = writeln!(
            out,
            "{{\"kind\":\"meta\",\"schema\":{},\"level\":\"{}\",\"events\":{},\"dropped\":{}}}",
            TRACE_SCHEMA_VERSION, self.level, self.seq, self.dropped
        );
        for e in &self.events {
            write_event_line(&mut out, e);
        }
        for (name, value) in self.counters.sorted() {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}"
            );
        }
        if include_spans {
            for s in self.spans.report() {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"span\",\"name\":\"{}\",\"total_ns\":{},\"count\":{}}}",
                    s.name, s.total_ns, s.count
                );
            }
            for (name, h, wall) in self.hists.sorted() {
                if h.is_empty() {
                    continue;
                }
                let _ = write!(
                    out,
                    "{{\"kind\":\"hist\",\"name\":\"{name}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"wall\":{wall},\"buckets\":\"",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                );
                let mut first = true;
                for (idx, c) in h.nonzero_buckets() {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "{idx}:{c}");
                }
                out.push_str("\"}\n");
            }
        }
        out
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

fn write_event_line(out: &mut String, e: &StampedEvent) {
    let _ = write!(
        out,
        "{{\"kind\":\"{}\",\"seq\":{},\"t_us\":{}",
        e.event.kind(),
        e.seq,
        e.t_us
    );
    match &e.event {
        TelemetryEvent::WindowStart { window } => {
            let _ = write!(out, ",\"window\":{window}");
        }
        TelemetryEvent::BeaconTx { robot, x_m, y_m } => {
            let _ = write!(out, ",\"robot\":{robot},\"x_m\":{x_m},\"y_m\":{y_m}");
        }
        TelemetryEvent::BeaconRx {
            robot,
            from,
            rssi_dbm,
            outcome,
        } => {
            let _ = write!(
                out,
                ",\"robot\":{robot},\"from\":{from},\"rssi_dbm\":{rssi_dbm},\"outcome\":\"{outcome}\""
            );
        }
        TelemetryEvent::GridUpdate { robot } => {
            let _ = write!(out, ",\"robot\":{robot}");
        }
        TelemetryEvent::Fix {
            robot,
            window,
            x_m,
            y_m,
            err_m,
        } => {
            let _ = write!(
                out,
                ",\"robot\":{robot},\"window\":{window},\"x_m\":{x_m},\"y_m\":{y_m},\"err_m\":{err_m}"
            );
        }
        TelemetryEvent::FlatPosterior {
            robot,
            window,
            entropy,
            threshold,
        } => {
            let _ = write!(
                out,
                ",\"robot\":{robot},\"window\":{window},\"entropy\":{entropy},\"threshold\":{threshold}"
            );
        }
        TelemetryEvent::StarvedWindow { robot, window }
        | TelemetryEvent::SyncDelivered { robot, window }
        | TelemetryEvent::SyncMissed { robot, window } => {
            let _ = write!(out, ",\"robot\":{robot},\"window\":{window}");
        }
        TelemetryEvent::Failover { new_sync } => {
            let _ = write!(out, ",\"new_sync\":{new_sync}");
        }
        TelemetryEvent::MeshPrune { robot, source, seq } => {
            // `seq` already names the line's stamp, so the round's
            // sequence number travels as `mesh_seq`.
            let _ = write!(
                out,
                ",\"robot\":{robot},\"source\":{source},\"mesh_seq\":{seq}"
            );
        }
        TelemetryEvent::RadioState { robot, state } => {
            let _ = write!(out, ",\"robot\":{robot},\"state\":\"{state}\"");
        }
        TelemetryEvent::FaultInjected { kind, robot } => {
            let _ = write!(out, ",\"fault\":\"{kind}\"");
            match robot {
                Some(r) => {
                    let _ = write!(out, ",\"robot\":{r}");
                }
                None => out.push_str(",\"robot\":null"),
            }
        }
        TelemetryEvent::HealthTransition { robot, state } => {
            let _ = write!(out, ",\"robot\":{robot},\"state\":\"{state}\"");
        }
        TelemetryEvent::RobotSample {
            robot,
            true_x_m,
            true_y_m,
            est_x_m,
            est_y_m,
            err_m,
            entropy_frac,
            energy_j,
            radio,
            health,
        } => {
            let _ = write!(
                out,
                ",\"robot\":{robot},\"true_x_m\":{true_x_m},\"true_y_m\":{true_y_m},\"est_x_m\":{est_x_m},\"est_y_m\":{est_y_m},\"err_m\":{err_m}"
            );
            write_opt_f64(out, "entropy_frac", *entropy_frac);
            let _ = write!(
                out,
                ",\"energy_j\":{energy_j},\"radio\":\"{radio}\",\"health\":\"{health}\""
            );
        }
        TelemetryEvent::TeamSample {
            mean_err_m,
            robots,
            energy_j,
        } => {
            let _ = write!(
                out,
                ",\"mean_err_m\":{mean_err_m},\"robots\":{robots},\"energy_j\":{energy_j}"
            );
        }
        TelemetryEvent::SnapshotTaken { bytes, sections } => {
            let _ = write!(out, ",\"bytes\":{bytes},\"sections\":{sections}");
        }
        TelemetryEvent::SnapshotRestored { bytes } => {
            let _ = write!(out, ",\"bytes\":{bytes}");
        }
    }
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn level_ordering() {
        assert!(TelemetryLevel::Off < TelemetryLevel::Counters);
        assert!(TelemetryLevel::Counters < TelemetryLevel::Timeline);
        assert!(TelemetryLevel::Timeline < TelemetryLevel::Full);
        assert_eq!(
            TelemetryLevel::parse("timeline"),
            Some(TelemetryLevel::Timeline)
        );
        assert_eq!(TelemetryLevel::parse("bogus"), None);
        assert_eq!(TelemetryLevel::Full.to_string(), "full");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Telemetry::off();
        t.emit(at(0), TelemetryEvent::WindowStart { window: 0 });
        t.emit_full(at(0), || TelemetryEvent::GridUpdate { robot: 1 });
        let c = t.counter("x");
        t.bump(c);
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.counters().get("x"), Some(0));
        assert!(t.span_start().is_none());
    }

    #[test]
    fn emit_full_closure_is_lazy() {
        let mut t = Telemetry::new(TelemetryLevel::Timeline);
        let mut built = false;
        t.emit_full(at(0), || {
            built = true;
            TelemetryEvent::GridUpdate { robot: 0 }
        });
        assert!(!built, "closure must not run below Full");
        t.emit(at(0), TelemetryEvent::WindowStart { window: 0 });
        assert_eq!(t.events().count(), 1);
    }

    #[test]
    fn sequence_numbers_are_stable_and_total() {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        t.emit(at(1), TelemetryEvent::WindowStart { window: 0 });
        t.emit_full(at(1), || TelemetryEvent::GridUpdate { robot: 2 });
        t.emit(at(2), TelemetryEvent::WindowStart { window: 1 });
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn ring_buffer_counts_drops_explicitly() {
        let mut t = Telemetry::with_capacity(TelemetryLevel::Timeline, 2);
        for w in 0..5 {
            t.emit(at(w), TelemetryEvent::WindowStart { window: w });
        }
        assert_eq!(t.events().count(), 2);
        assert_eq!(t.dropped_events(), 3);
        assert_eq!(t.events_emitted(), 5);
        // The meta line reports the drop.
        let jsonl = t.to_jsonl(false);
        assert!(jsonl.starts_with("{\"kind\":\"meta\""), "{jsonl}");
        assert!(jsonl.contains("\"dropped\":3"), "{jsonl}");
        // Survivors are the newest events.
        let windows: Vec<u64> = t
            .events()
            .map(|e| match e.event {
                TelemetryEvent::WindowStart { window } => window,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(windows, vec![3, 4]);
    }

    #[test]
    fn counters_bump_at_counters_level_and_sort_by_name() {
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        let b = t.counter("z.second");
        let a = t.counter("a.first");
        t.bump(b);
        t.add(a, 4);
        t.absorb("m.middle", 7);
        let sorted = t.counters().sorted();
        assert_eq!(
            sorted,
            vec![("a.first", 4), ("m.middle", 7), ("z.second", 1)]
        );
        // Registration is idempotent.
        assert_eq!(t.counter("a.first"), a);
    }

    #[test]
    fn spans_only_run_at_full() {
        let mut t = Telemetry::new(TelemetryLevel::Timeline);
        let id = t.span_id("grid.update");
        let s = t.span_start();
        t.span_end(id, s);
        assert!(t.spans().report().is_empty());

        let mut t = Telemetry::new(TelemetryLevel::Full);
        let id = t.span_id("grid.update");
        let s = t.span_start();
        t.span_end(id, s);
        let report = t.spans().report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].name, "grid.update");
        assert_eq!(report[0].count, 1);
    }

    #[test]
    fn span_guard_macro_records() {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        {
            let _g = span!(t, "run.total");
        }
        {
            let _g = span!(t, "run.total");
        }
        assert_eq!(t.spans().report()[0].count, 2);
    }

    #[test]
    fn coverage_sums_direct_children() {
        let mut p = SpanProfiler::new();
        let total = p.register("run.total");
        let a = p.register("run.calibrate");
        let b = p.register("run.event_loop");
        let nested = p.register("event.transmit");
        p.record(total, std::time::Duration::from_nanos(100));
        p.record(a, std::time::Duration::from_nanos(30));
        p.record(b, std::time::Duration::from_nanos(68));
        p.record(nested, std::time::Duration::from_nanos(50));
        let cov = p.coverage("run.total").unwrap();
        assert!((cov - 0.98).abs() < 1e-12, "coverage {cov}");
        assert_eq!(p.coverage("missing.root"), None);
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        t.emit(at(1), TelemetryEvent::WindowStart { window: 0 });
        t.emit(
            at(2),
            TelemetryEvent::RobotSample {
                robot: 3,
                true_x_m: 1.5,
                true_y_m: 2.0,
                est_x_m: 1.0,
                est_y_m: 2.5,
                err_m: 0.75,
                entropy_frac: None,
                energy_j: 12.25,
                radio: "idle",
                health: "healthy",
            },
        );
        t.emit(
            at(3),
            TelemetryEvent::FaultInjected {
                kind: "burst_loss_start",
                robot: None,
            },
        );
        t.absorb("traffic.fixes", 9);
        let jsonl = t.to_jsonl(false);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5); // meta + 3 events + 1 counter
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(jsonl.contains("\"entropy_frac\":null"));
        assert!(jsonl.contains("\"fault\":\"burst_loss_start\",\"robot\":null"));
        assert!(jsonl.contains("{\"kind\":\"counter\",\"name\":\"traffic.fixes\",\"value\":9}"));
    }

    #[test]
    fn jsonl_is_deterministic_for_identical_emissions() {
        let build = || {
            let mut t = Telemetry::new(TelemetryLevel::Full);
            for w in 0..10 {
                t.emit(at(w), TelemetryEvent::WindowStart { window: w });
                t.emit_full(at(w), || TelemetryEvent::GridUpdate { robot: w as u32 });
            }
            t.absorb("a", 1);
            t.absorb("b", 2);
            t.to_jsonl(false)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn spans_appear_only_when_requested() {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        let id = t.span_id("grid.update");
        let s = t.span_start();
        t.span_end(id, s);
        assert!(!t.to_jsonl(false).contains("\"kind\":\"span\""));
        assert!(t.to_jsonl(true).contains("\"kind\":\"span\""));
    }

    #[test]
    fn hist_recording_is_gated_by_level_and_toggle() {
        let mut t = Telemetry::off();
        assert!(!t.wants_hists());
        let h = t.hist("run.x");
        t.hist_record(h, 1.0);
        assert!(t.histograms().get("run.x").unwrap().is_empty());

        let mut t = Telemetry::new(TelemetryLevel::Counters);
        assert!(t.wants_hists());
        let h = t.hist("run.x");
        t.hist_record(h, 1.0);
        assert_eq!(t.histograms().get("run.x").unwrap().count(), 1);
        t.set_histograms(false);
        assert!(!t.wants_hists());
        t.hist_record(h, 2.0);
        assert_eq!(t.histograms().get("run.x").unwrap().count(), 1);
    }

    #[test]
    fn hist_lines_ride_the_span_trailer_only() {
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        let h = t.hist("run.x");
        t.hist_record(h, 2.5);
        assert!(!t.to_jsonl(false).contains("\"kind\":\"hist\""));
        let full = t.to_jsonl(true);
        assert!(full.contains(
            "{\"kind\":\"hist\",\"name\":\"run.x\",\"count\":1,\"sum\":2.5,\"min\":2.5,\"max\":2.5,\"wall\":false,\"buckets\":\""
        ));
        // The empty span.duration_us histogram is omitted.
        assert!(!full.contains("span.duration_us"));
    }

    #[test]
    fn span_end_feeds_the_wall_duration_hist() {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        let id = t.span_id("grid.update");
        let s = t.span_start();
        t.span_end(id, s);
        let h = t.histograms().get("span.duration_us").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(t.histograms().is_wall("span.duration_us"), Some(true));
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(
            TelemetryEvent::WindowStart { window: 0 }.kind(),
            "window_start"
        );
        assert_eq!(
            TelemetryEvent::FaultInjected {
                kind: "crash",
                robot: Some(1)
            }
            .kind(),
            "fault"
        );
    }
}
