//! # cocoa-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate that replaces Glomosim in the CoCoA
//! reproduction (see `DESIGN.md` at the repository root): a minimal,
//! deterministic discrete-event kernel with
//!
//! - exact integer-microsecond [`time::SimTime`] / [`time::SimDuration`],
//! - a time-ordered, FIFO-tie-broken [`event::EventQueue`],
//! - a generic run loop, [`engine::Engine`], that dispatches events to a
//!   caller-supplied handler,
//! - reproducible per-subsystem random streams via [`rng::SeedSplitter`],
//! - a typed observability bus — events, counters, span timers — in
//!   [`telemetry::Telemetry`],
//! - a versioned, CRC-checked binary checkpoint codec in [`snapshot`],
//!   with the shared hand-rolled JSON emission helpers in [`jsonfmt`],
//! - crash-safe file replacement in [`files`].
//!
//! The crate knows nothing about radios or robots; protocol models live in
//! `cocoa-net`, `cocoa-mobility`, `cocoa-multicast` and `cocoa-core`.
//!
//! # Examples
//!
//! ```
//! use cocoa_sim::prelude::*;
//!
//! // Count ticks over a 5-second horizon.
//! let mut engine: Engine<()> = Engine::new(SimTime::from_secs(5));
//! engine.schedule_at(SimTime::from_secs(1), ());
//! let mut ticks = 0u32;
//! engine.run(&mut ticks, |eng, ticks, ()| {
//!     *ticks += 1;
//!     eng.schedule_in(SimDuration::from_secs(1), ());
//! });
//! assert_eq!(ticks, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod event;
pub mod faults;
pub mod files;
pub mod jsonfmt;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod time;

/// Convenient glob-import of the types nearly every consumer needs.
pub mod prelude {
    pub use crate::engine::Engine;
    pub use crate::event::EventQueue;
    pub use crate::faults::{Fault, FaultEvent, FaultPlan, GilbertElliott, GilbertElliottLink};
    pub use crate::rng::{DetRng, SeedSplitter};
    pub use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
    pub use crate::stats::RunningStats;
    pub use crate::telemetry::{
        CounterId, CounterRegistry, SpanId, SpanProfiler, StampedEvent, Telemetry, TelemetryEvent,
        TelemetryLevel,
    };
    pub use crate::time::{SimDuration, SimTime};
}
