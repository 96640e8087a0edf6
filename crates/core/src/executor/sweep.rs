//! Checkpointed, supervised scenario sweeps.
//!
//! [`run_supervised`] is the resilient counterpart of the plain sweep
//! entry points in [`crate::experiment`]: every point runs under the
//! [`Supervisor`] (panic isolation, deadlines, deterministic retry) and
//! — when a manifest path is configured — the sweep's progress is
//! persisted through the [`manifest`](super::manifest) codec so an
//! interrupted or killed sweep auto-resumes:
//!
//! - **completed** points are skipped outright, their stored
//!   [`RunMetrics`] returned byte-exact;
//! - **in-flight** points warm-resume from their last
//!   [`SimRun::capture`](crate::runner::SimRun::capture) snapshot
//!   instead of starting cold — and
//!   because PR 5's codec guarantees bit-identical resume, the metrics
//!   of an interrupted-then-resumed point equal an uninterrupted run's
//!   bit for bit;
//! - **pending** points start fresh.
//!
//! The manifest is fingerprint-guarded: if the file on disk describes a
//! different sweep (any scenario field changed), it is ignored and the
//! sweep starts from scratch rather than mixing incompatible results.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cocoa_sim::telemetry::Telemetry;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::metrics::RunMetrics;
use crate::runner::SimRun;
use crate::scenario::Scenario;
use crate::world::checkpoint::scenario_fingerprint;

use super::manifest::{ManifestError, PointState, SweepManifest};
use super::supervisor::{JobFailure, JobObserver, Supervisor, SupervisorConfig, SweepReport};

/// A hook invoked at the start of every job attempt with the point
/// index — the chaos-injection seam used by tests and the
/// `cocoa-sweep` CLI to provoke panics and hangs on demand.
pub type AttemptHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Configuration for a supervised sweep.
#[derive(Clone, Default)]
pub struct SweepConfig {
    /// Supervision policy (attempts, deadline, backoff).
    pub supervisor: SupervisorConfig,
    /// Where to persist the sweep manifest. `None` disables
    /// checkpointing and resume.
    pub manifest_path: Option<PathBuf>,
    /// How much simulated time runs between in-flight checkpoints of
    /// each point. `None` (or zero) checkpoints only on completion.
    pub inflight_interval: Option<SimDuration>,
    /// Chaos-injection hook, called at the start of every attempt.
    pub attempt_hook: Option<AttemptHook>,
    /// Live fleet observer, receiving every attempt-level state change
    /// (see [`super::fleet::FleetStatus`]).
    pub observer: Option<JobObserver>,
}

impl std::fmt::Debug for SweepConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepConfig")
            .field("supervisor", &self.supervisor)
            .field("manifest_path", &self.manifest_path)
            .field("inflight_interval", &self.inflight_interval)
            .field("attempt_hook", &self.attempt_hook.as_ref().map(|_| "…"))
            .field("observer", &self.observer.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Shared write-through view of the sweep manifest.
///
/// Persistence is best-effort: a failed write warns on stderr and the
/// sweep carries on (losing checkpoint granularity, never results).
struct Checkpointer {
    manifest: Mutex<SweepManifest>,
    path: Option<PathBuf>,
    checkpoints_written: AtomicU64,
    points_skipped: AtomicU64,
    snapshots_corrupt: AtomicU64,
}

impl Checkpointer {
    fn state_of(&self, index: usize) -> PointState {
        self.manifest.lock().expect("manifest lock poisoned").states[index].clone()
    }

    fn inflight(&self, index: usize, snapshot: Vec<u8>) {
        let mut m = self.manifest.lock().expect("manifest lock poisoned");
        // A zombie attempt (abandoned after its deadline) may still be
        // capturing; never let it downgrade a completed point.
        if matches!(m.states[index], PointState::Completed(_)) {
            return;
        }
        m.states[index] = PointState::InFlight(snapshot);
        self.persist(&m);
    }

    fn completed(&self, index: usize, metrics: &RunMetrics) {
        let mut m = self.manifest.lock().expect("manifest lock poisoned");
        if matches!(m.states[index], PointState::Completed(_)) {
            return;
        }
        m.states[index] = PointState::Completed(Box::new(metrics.clone()));
        self.persist(&m);
    }

    fn persist(&self, m: &SweepManifest) {
        let Some(path) = &self.path else { return };
        match m.store(path) {
            Ok(()) => {
                self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("warning: sweep manifest write failed: {e}"),
        }
    }
}

/// Runs every scenario under supervision, checkpointing progress and
/// auto-resuming from a prior manifest when one matches.
///
/// Returns the structured [`SweepReport`]: per-point outcomes in input
/// order plus the `supervisor.*` counters (including
/// `checkpoints_written`, `points_skipped_on_resume` and
/// `snapshots_corrupt` merged from the checkpoint layer).
///
/// # Errors
///
/// Fails only on an unreadable or corrupt manifest file — job failures
/// never surface here; they are classified inside the report. A missing
/// manifest file is a fresh sweep, not an error.
pub fn run_supervised(
    scenarios: Vec<Scenario>,
    cfg: &SweepConfig,
) -> Result<SweepReport<RunMetrics>, ManifestError> {
    let fingerprints: Vec<u64> = scenarios.iter().map(scenario_fingerprint).collect();
    let manifest = match &cfg.manifest_path {
        Some(path) => match SweepManifest::load(path)? {
            Some(m) if m.matches(&fingerprints) => m,
            Some(_) => {
                eprintln!(
                    "warning: manifest at {} describes a different sweep; starting fresh",
                    path.display()
                );
                SweepManifest::new(fingerprints)
            }
            None => SweepManifest::new(fingerprints),
        },
        None => SweepManifest::new(fingerprints),
    };

    let ckpt = Arc::new(Checkpointer {
        manifest: Mutex::new(manifest),
        path: cfg.manifest_path.clone(),
        checkpoints_written: AtomicU64::new(0),
        points_skipped: AtomicU64::new(0),
        snapshots_corrupt: AtomicU64::new(0),
    });

    let supervisor = Supervisor::new(cfg.supervisor.clone());
    let every = cfg.inflight_interval.filter(|e| !e.is_zero());
    let hook = cfg.attempt_hook.clone();
    let job_ckpt = Arc::clone(&ckpt);
    let mut report = supervisor.map_seeded_observed(
        scenarios,
        |s| s.seed,
        move |index, s| run_point(index, s, &job_ckpt, every, hook.as_deref()),
        cfg.observer.clone(),
    );

    report.counters.checkpoints_written = ckpt.checkpoints_written.load(Ordering::Relaxed);
    report.counters.points_skipped_on_resume = ckpt.points_skipped.load(Ordering::Relaxed);
    report.counters.snapshots_corrupt = ckpt.snapshots_corrupt.load(Ordering::Relaxed);
    Ok(report)
}

/// One supervised sweep point: validate, resume-or-start, checkpoint
/// periodically, record completion.
fn run_point(
    index: usize,
    scenario: &Scenario,
    ckpt: &Checkpointer,
    every: Option<SimDuration>,
    hook: Option<&(dyn Fn(usize) + Send + Sync)>,
) -> Result<RunMetrics, JobFailure> {
    if let Some(hook) = hook {
        hook(index);
    }
    if let Err(detail) = scenario.validate() {
        return Err(JobFailure::Validation { detail });
    }
    let mut run = match ckpt.state_of(index) {
        PointState::Completed(metrics) => {
            ckpt.points_skipped.fetch_add(1, Ordering::Relaxed);
            return Ok(*metrics);
        }
        PointState::InFlight(snapshot) => match SimRun::resume(&snapshot) {
            Ok(run) => run,
            Err(e) => {
                // Degrade, don't die: a torn in-flight snapshot costs a
                // cold restart of this one point, not the sweep.
                ckpt.snapshots_corrupt.fetch_add(1, Ordering::Relaxed);
                eprintln!("warning: point {index}: in-flight snapshot unusable ({e}); restarting");
                SimRun::new(scenario, Telemetry::off())
            }
        },
        PointState::Pending => SimRun::new(scenario, Telemetry::off()),
    };
    if let Some(every) = every {
        let end = SimTime::ZERO + scenario.duration;
        // Step from the previous target, not from `run.now()`: the clock
        // only moves when an event fires, so an interval with no event in
        // it would otherwise repeat the same target forever.
        let mut next = run.now();
        loop {
            next += every;
            if next >= end {
                break;
            }
            run.run_until(next);
            ckpt.inflight(index, run.capture());
        }
    }
    let (metrics, _telemetry) = run.finish();
    ckpt.completed(index, &metrics);
    Ok(metrics)
}
