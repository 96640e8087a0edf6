//! # cocoa-core — the CoCoA architecture
//!
//! CoCoA (Coordinated Cooperative Ad-hoc localization, ICDCS 2006) lets a
//! mobile robot team in which only a *subset* of robots carry localization
//! devices localize everyone: equipped robots broadcast RF beacons with
//! their coordinates, unequipped robots range on beacon RSSI and run
//! Bayesian inference, odometry bridges the gaps, and an MRMM-multicast
//! SYNC service coarsely synchronizes the team so radios sleep between the
//! short transmit windows.
//!
//! This crate assembles the substrates (`cocoa-sim`, `cocoa-net`,
//! `cocoa-mobility`, `cocoa-multicast`, `cocoa-localization`) into the full
//! system:
//!
//! - [`scenario`]: the experiment configuration (defaults = the paper's
//!   evaluation setup);
//! - [`knobs`]: the one table of scenario knobs behind the CLI flags,
//!   serve spec keys, `--help` and the spec template;
//! - [`robot`]: the per-robot bundle (motion, radio, estimator, mesh,
//!   clock) and its estimate logic;
//! - [`sync`]: drifting clocks, SYNC messages and the escalating-guard
//!   re-acquisition policy;
//! - [`world`]: the deterministic event-driven simulation, split by
//!   concern (events, windows, beacons, mesh backends, faults, metrics);
//! - [`runner`]: the stable facade over [`world`]'s entry points;
//! - [`metrics`]: localization-error series, CDF snapshots and the energy
//!   ledger;
//! - [`experiment`]: the paper's figures (1, 4 through 10) and the
//!   ablations as one table of keyed scenario rows, each distinct scenario
//!   run once;
//! - [`tracefile`]: the read side of the telemetry bus — JSONL trace
//!   parsing, validation and the queries behind `cocoa-trace`;
//! - [`serve`]: sweep-as-a-service — the `cocoa-serve` batch server with
//!   single-flight scenario dedup, a results cache and a calibration
//!   cache.
//!
//! # Examples
//!
//! ```no_run
//! use cocoa_core::prelude::*;
//!
//! // The paper's headline configuration: 50 robots, 25 equipped,
//! // T = 100 s, CoCoA mode.
//! let scenario = Scenario::builder().seed(1).build();
//! let metrics = run(&scenario);
//! println!(
//!     "avg error {:.1} m, team energy {:.0} J",
//!     metrics.mean_error_over_time(),
//!     metrics.energy.total_j()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod experiment;
pub mod health;
pub mod knobs;
pub mod metrics;
pub mod report;
pub mod robot;
pub mod runner;
pub mod scenario;
pub mod serve;
pub mod sync;
pub mod tracefile;
pub mod world;

/// Glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::executor::manifest::{ManifestError, PointState, SweepManifest};
    pub use crate::executor::supervisor::{
        CaughtPanic, JobFailure, JobOutcome, Supervisor, SupervisorConfig, SupervisorCounters,
        SweepReport,
    };
    pub use crate::executor::sweep::{run_supervised, SweepConfig};
    pub use crate::health::{DegradationState, HealthLedger, HealthMonitor};
    pub use crate::metrics::{
        EnergyReport, ErrorPoint, ErrorSnapshot, RobotFinalState, RobustnessStats, RunMetrics,
        TrafficStats,
    };
    pub use crate::robot::Robot;
    pub use crate::runner::{run, run_with_telemetry};
    pub use crate::scenario::{Scenario, ScenarioBuilder};
    pub use crate::serve::{parse_spec, request_fingerprint, ServeConfig, ServeRequest, Server};
    pub use crate::sync::{DriftingClock, SyncMessage};
    pub use crate::tracefile::{TraceError, TraceFile};
    pub use cocoa_localization::estimator::EstimatorMode;
    pub use cocoa_multicast::protocol::MulticastProtocol;
    pub use cocoa_sim::faults::{Fault, FaultPlan, GilbertElliott};
    pub use cocoa_sim::telemetry::{Telemetry, TelemetryEvent, TelemetryLevel};
}
