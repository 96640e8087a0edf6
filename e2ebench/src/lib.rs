//! # cocoa-e2ebench — the end-to-end benchmark of the CoCoA reproduction
//!
//! Four workloads drive the simulator through its public API only:
//! paper-scale runs with the Bayesian grid and with the EKF
//! ([`runner`](cocoa_core::runner)), a closed-loop traffic mix against
//! an in-process [`Server`](cocoa_core::serve::Server), and supervised,
//! checkpointed sweeps
//! ([`run_supervised`](cocoa_core::executor::sweep::run_supervised)).
//! Each run generates its inputs from one seed, does a fixed amount of
//! work, the same on every commit, checks every output, and reports the
//! metrics named in [`catalog`]. A traced pass adds per-layer numbers:
//! harness timings of each layer's public calls, and the span totals the
//! simulator records at `TelemetryLevel::Full`, folded into self time.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin e2e -- \
//!     --workload paper_ekf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `README.md` beside this crate for the metric dictionary.

pub mod catalog;
pub mod compare;
pub mod host;
mod layers;
pub mod stats;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use cocoa_sim::jsonfmt::ObjectWriter;

use catalog::Values;
pub use catalog::Workload;
use host::HostStamp;

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper: the paper's 50-robot, 200 m × 200 m world.
    Paper,
    /// A few robots for a few simulated minutes: the same code paths and
    /// checks in a fraction of a second, for tests.
    Tiny,
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every input is generated from.
    pub seed: u64,
    /// A safety cap on the run. The measured loop does a fixed amount of
    /// work; if it is still running at the cap, it stops between
    /// operations and the run is marked incomplete.
    pub cap: Duration,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory for manifests; created and removed by the run.
    pub scratch: PathBuf,
}

/// A SplitMix64 stream: the benchmark's only source of randomness, so
/// a seed fixes every generated input.
pub(crate) struct SplitMix(u64);

impl SplitMix {
    pub(crate) fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is negligible here).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// First scenario seed of a run: a hash of `--seed`, so runs with nearby
/// seeds draw unrelated scenarios. Below 2^53, so seeds derived from it
/// survive a JSON number.
pub(crate) fn seed_base(seed: u64) -> u64 {
    SplitMix::new(seed).next_u64() >> 11
}

/// Counts operations and the ones whose checks failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (runs, requests, sweep points, probes).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
}

impl Tally {
    /// Records one operation; logs `what` to stderr if it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("e2e: check failed: {}", what());
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and failures.
    pub tally: Tally,
    /// Every metric measured, by name.
    pub values: Values,
    /// Whether the cap stopped the measured loop before its fixed work
    /// was done: the run's numbers then cover less work than other runs'.
    pub truncated: bool,
}

/// Runs `workload` under `cfg`.
///
/// # Panics
///
/// Panics if the scratch directory cannot be created or removed, or a
/// server cannot start: the benchmark cannot run at all then.
pub fn run(workload: Workload, cfg: &Config) -> Outcome {
    std::fs::create_dir_all(&cfg.scratch).expect("create the scratch directory");
    let outcome = match workload {
        Workload::PaperBayes | Workload::PaperEkf => workloads::paper::run(workload, cfg),
        Workload::ServeMixed => workloads::serve::run(cfg),
        Workload::SweepCheckpointed => workloads::sweep::run(cfg),
    };
    std::fs::remove_dir_all(&cfg.scratch).expect("remove the scratch directory");
    outcome
}

/// The two lines a run prints: a flat record carrying the host stamp
/// (what `e2e compare` reads), then the result object, which is last.
///
/// # Errors
///
/// As [`catalog::select`].
pub fn render(
    workload: Workload,
    cfg: &Config,
    outcome: &Outcome,
    host: &HostStamp,
) -> Result<(String, String), String> {
    let metrics = catalog::select(workload, cfg.trace, &outcome.values)?;
    let correct = outcome.tally.failed == 0;
    let mut record = ObjectWriter::new();
    record
        .str_field("kind", compare::RECORD_KIND)
        .str_field("workload", workload.name())
        .u64_field("seed", cfg.seed)
        .bool_field("trace", cfg.trace)
        .str_field("host.cpu", &host.cpu)
        .u64_field("host.nproc", host.nproc as u64)
        .str_field("host.profile", host.profile)
        .str_field("host.features", &host.features)
        .bool_field("correct", correct)
        .bool_field("complete", !outcome.truncated);
    let mut body = Vec::with_capacity(metrics.len());
    for (name, unit, value) in metrics {
        record.f64_field(name, value);
        body.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        body.join(",")
    );
    Ok((record.finish(), result))
}
