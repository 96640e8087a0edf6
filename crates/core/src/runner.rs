//! Facade over the [`crate::world`] module tree, kept so existing callers
//! (`cocoa_core::runner::run`) and the prelude stay stable.
//!
//! The simulation itself — event vocabulary, coordination timeline,
//! physical layer, mesh backends, fault hooks and metrics finalization —
//! lives in [`crate::world`]; see that module's docs for the map.

pub use crate::world::checkpoint::{scenario_fingerprint, SimRun};
pub use crate::world::{run, run_with_telemetry, Calibration};
