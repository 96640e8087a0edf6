//! Shared plumbing for the figure-regeneration and perf binaries.
//!
//! `figures` regenerates every paper figure at full scale (50 robots, 30
//! simulated minutes — the paper's setup) and prints the same rows/series
//! the paper reports; `perf` times the hot kernels and gates them against
//! [`regress`]'s history ring.
//!
//! The `COCOA_BENCH_QUICK=1` environment variable downsizes the figure
//! regeneration to [`ExperimentScale::quick`] (useful on laptops / CI).

pub mod regress;

use cocoa_core::experiment::ExperimentScale;

/// The scale used for figure regeneration: the paper's setup, unless
/// `COCOA_BENCH_QUICK` is set, which picks the quick scale `perf` runs.
pub fn figure_scale() -> ExperimentScale {
    if std::env::var_os("COCOA_BENCH_QUICK").is_some() {
        ExperimentScale::quick()
    } else {
        ExperimentScale::default()
    }
}
