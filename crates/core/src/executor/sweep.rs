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
//!   [`SimRun::capture`](crate::runner::SimRun::capture) snapshot, kept
//!   in the point's own file, instead of starting cold — and because
//!   the codec guarantees bit-identical resume, the metrics of an
//!   interrupted-then-resumed point equal an uninterrupted run's bit for
//!   bit;
//! - **pending** points start fresh.
//!
//! An in-flight checkpoint writes its point's file and nothing else,
//! under that point's lock alone, so points checkpoint in parallel. The
//! manifest file is written when a point completes, and once when a
//! fresh sweep starts. The manifest is fingerprint-guarded: if the file
//! on disk describes a different sweep (any scenario field changed), it
//! is ignored, the point files next to it are removed, and the sweep
//! starts from scratch rather than mixing incompatible results.
//!
//! Points that share a seed and a channel share one
//! [`Calibration`], computed by the first of them to start.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cocoa_sim::files::write_atomic;
use cocoa_sim::snapshot::SnapshotError;
use cocoa_sim::telemetry::Telemetry;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::metrics::RunMetrics;
use crate::runner::{Calibration, SimRun};
use crate::scenario::Scenario;
use crate::world::checkpoint::scenario_fingerprint;

use super::manifest::{
    point_path, read_if_present, remove_if_present, remove_point_files, ManifestError, PointState,
    SweepManifest,
};
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

/// A sweep's checkpoint files: the manifest file and one point file per
/// point in flight (see [`super::manifest`]).
///
/// Persistence is best-effort: a failed write warns on stderr and the
/// sweep carries on (losing checkpoint granularity, never results).
struct Checkpointer {
    /// The manifest file; `None` disables checkpointing and resume.
    path: Option<PathBuf>,
    /// Each point's file (none without a manifest path).
    point_files: Vec<PathBuf>,
    /// What the manifest file records: completed metrics, never
    /// snapshot bytes. Locked while the file is written.
    ledger: Mutex<SweepManifest>,
    /// One lock per point, held while that point's file is written or
    /// removed: whether the point has completed. A point's writes are
    /// serialized; different points' are not.
    completed: Vec<Mutex<bool>>,
    checkpoints_written: AtomicU64,
    points_skipped: AtomicU64,
    snapshots_corrupt: AtomicU64,
    points_resumed: AtomicU64,
}

impl Checkpointer {
    /// Opens the sweep's checkpoints at `path`: the manifest file if it
    /// describes this sweep, else a fresh one, stored at once with every
    /// stray point file removed so no other sweep's snapshot is resumed.
    fn open(path: Option<PathBuf>, fingerprints: Vec<u64>) -> Result<Self, ManifestError> {
        let ledger = match &path {
            Some(path) => match SweepManifest::load_ledger(path)? {
                Some(m) if m.matches(&fingerprints) => m,
                found => {
                    if found.is_some() {
                        eprintln!(
                            "warning: manifest at {} describes a different sweep; starting fresh",
                            path.display()
                        );
                    }
                    let fresh = SweepManifest::new(fingerprints);
                    let stored = remove_point_files(path)
                        .map_err(ManifestError::Io)
                        .and_then(|()| fresh.store_ledger(path));
                    if let Err(e) = stored {
                        eprintln!("warning: sweep manifest write failed: {e}");
                    }
                    fresh
                }
            },
            None => SweepManifest::new(fingerprints),
        };
        let completed = (ledger.states.iter())
            .map(|s| Mutex::new(matches!(s, PointState::Completed(_))))
            .collect();
        let point_files = match &path {
            Some(path) => (ledger.fingerprints.iter().enumerate())
                .map(|(index, &fp)| point_path(path, index, fp))
                .collect(),
            None => Vec::new(),
        };
        Ok(Checkpointer {
            path,
            point_files,
            ledger: Mutex::new(ledger),
            completed,
            checkpoints_written: AtomicU64::new(0),
            points_skipped: AtomicU64::new(0),
            snapshots_corrupt: AtomicU64::new(0),
            points_resumed: AtomicU64::new(0),
        })
    }

    /// Where point `index` starts: its recorded metrics, its point
    /// file's snapshot, or nothing.
    fn start(&self, index: usize) -> PointState {
        let done = self.completed[index].lock().expect("point lock poisoned");
        let file = self.point_files.get(index);
        if *done {
            // A crash between a completion store and the removal that
            // follows it leaves a stale point file behind.
            if let Some(file) = file {
                remove_stale(file);
            }
            return self.ledger.lock().expect("ledger lock poisoned").states[index].clone();
        }
        match file.map(|f| read_if_present(f)) {
            Some(Ok(Some(snapshot))) => PointState::InFlight(snapshot),
            Some(Err(e)) => {
                self.snapshots_corrupt.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: point {index}: in-flight snapshot unreadable ({e}); restarting"
                );
                PointState::Pending
            }
            Some(Ok(None)) | None => PointState::Pending,
        }
    }

    /// Writes point `index`'s in-flight snapshot to its file.
    fn inflight(&self, index: usize, snapshot: &[u8]) {
        let Some(file) = self.point_files.get(index) else {
            return;
        };
        let done = self.completed[index].lock().expect("point lock poisoned");
        // A zombie attempt (abandoned after its deadline) may still be
        // capturing; never let it downgrade a completed point.
        if *done {
            return;
        }
        match write_atomic(file, snapshot) {
            Ok(()) => {
                self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("warning: point file {} write failed: {e}", file.display()),
        }
    }

    /// Records point `index` as completed: the manifest file first, then
    /// the point file goes.
    fn completed(&self, index: usize, metrics: &RunMetrics) {
        let mut done = self.completed[index].lock().expect("point lock poisoned");
        if *done {
            return;
        }
        *done = true;
        let mut ledger = self.ledger.lock().expect("ledger lock poisoned");
        ledger.states[index] = PointState::Completed(Box::new(metrics.clone()));
        let Some(path) = &self.path else { return };
        match ledger.store_ledger(path) {
            Ok(()) => {
                drop(ledger);
                self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                remove_stale(&self.point_files[index]);
            }
            Err(e) => eprintln!("warning: sweep manifest write failed: {e}"),
        }
    }
}

/// Removes a point file the manifest has made stale, warning on failure.
fn remove_stale(file: &Path) {
    if let Err(e) = remove_if_present(file) {
        eprintln!("warning: cannot remove {}: {e}", file.display());
    }
}

/// The calibrations a sweep has run: one per seed and channel, computed
/// by the first point that needs it while the others wait for it.
#[derive(Default)]
struct Calibrations(Mutex<Vec<Arc<Calibration>>>);

impl Calibrations {
    /// The calibration that fits `scenario`, which must be valid.
    fn get(&self, scenario: &Scenario) -> Arc<Calibration> {
        let mut known = self.0.lock().expect("calibration lock poisoned");
        if let Some(calibration) = known.iter().find(|c| c.fits(scenario)) {
            return Arc::clone(calibration);
        }
        let calibration = Arc::new(Calibration::new(scenario));
        known.push(Arc::clone(&calibration));
        calibration
    }
}

/// Runs every scenario under supervision, checkpointing progress and
/// auto-resuming from a prior manifest when one matches.
///
/// Returns the structured [`SweepReport`]: per-point outcomes in input
/// order plus the `supervisor.*` counters (including
/// `checkpoints_written`, `points_skipped_on_resume`,
/// `snapshots_corrupt` and `points_resumed_in_flight` merged from the
/// checkpoint layer).
///
/// # Errors
///
/// Fails only on an unreadable or corrupt manifest file — job failures
/// never surface here; they are classified inside the report, and an
/// unusable point file costs only its point a cold restart. A missing
/// manifest file is a fresh sweep, not an error.
pub fn run_supervised(
    scenarios: Vec<Scenario>,
    cfg: &SweepConfig,
) -> Result<SweepReport<RunMetrics>, ManifestError> {
    let fingerprints: Vec<u64> = scenarios.iter().map(scenario_fingerprint).collect();
    let ckpt = Checkpointer::open(cfg.manifest_path.clone(), fingerprints)?;
    let sweep = Arc::new(Sweep {
        calibrations: Calibrations::default(),
        ckpt,
        // In-flight checkpoints need a file to go to.
        every: (cfg.inflight_interval).filter(|e| !e.is_zero() && cfg.manifest_path.is_some()),
        hook: cfg.attempt_hook.clone(),
    });

    let supervisor = Supervisor::new(cfg.supervisor.clone());
    let job = Arc::clone(&sweep);
    let mut report = supervisor.map_seeded_observed(
        scenarios,
        |s| s.seed,
        move |index, s| job.run_point(index, s),
        cfg.observer.clone(),
    );

    let ckpt = &sweep.ckpt;
    let counters = &mut report.counters;
    counters.checkpoints_written = ckpt.checkpoints_written.load(Ordering::Relaxed);
    counters.points_skipped_on_resume = ckpt.points_skipped.load(Ordering::Relaxed);
    counters.snapshots_corrupt = ckpt.snapshots_corrupt.load(Ordering::Relaxed);
    counters.points_resumed_in_flight = ckpt.points_resumed.load(Ordering::Relaxed);
    Ok(report)
}

/// What every point of one supervised sweep shares.
struct Sweep {
    ckpt: Checkpointer,
    calibrations: Calibrations,
    every: Option<SimDuration>,
    hook: Option<AttemptHook>,
}

impl Sweep {
    /// One supervised sweep point: validate, resume-or-start, checkpoint
    /// periodically, record completion.
    fn run_point(&self, index: usize, scenario: &Scenario) -> Result<RunMetrics, JobFailure> {
        if let Some(hook) = &self.hook {
            hook(index);
        }
        if let Err(detail) = scenario.validate() {
            return Err(JobFailure::Validation { detail });
        }
        let ckpt = &self.ckpt;
        let snapshot = match ckpt.start(index) {
            PointState::Completed(metrics) => {
                ckpt.points_skipped.fetch_add(1, Ordering::Relaxed);
                return Ok(*metrics);
            }
            PointState::InFlight(snapshot) => Some(snapshot),
            PointState::Pending => None,
        };
        let calibration = self.calibrations.get(scenario);
        let fresh = |calibration| SimRun::with_calibration(scenario, Telemetry::off(), calibration);
        let mut run = match snapshot {
            Some(snapshot) => {
                // The file's name carries the point's fingerprint, but its
                // bytes are only trusted once the resumed run holds this
                // point's scenario.
                let resumed = SimRun::resume_with_calibration(&snapshot, Arc::clone(&calibration))
                    .and_then(|run| {
                        if scenario_fingerprint(run.scenario()) == scenario_fingerprint(scenario) {
                            Ok(run)
                        } else {
                            Err(SnapshotError::Malformed {
                                context: "snapshot holds another point's scenario".to_string(),
                            })
                        }
                    });
                match resumed {
                    Ok(run) => {
                        ckpt.points_resumed.fetch_add(1, Ordering::Relaxed);
                        run
                    }
                    Err(e) => {
                        // Degrade, don't die: a torn or foreign in-flight
                        // snapshot costs a cold restart of this one point,
                        // not the sweep.
                        ckpt.snapshots_corrupt.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "warning: point {index}: in-flight snapshot unusable ({e}); restarting"
                        );
                        fresh(calibration)
                    }
                }
            }
            None => fresh(calibration),
        };
        if let Some(every) = self.every {
            let end = SimTime::ZERO + scenario.duration;
            // Step from the previous target, not from `run.now()`: the
            // clock only moves when an event fires, so an interval with no
            // event in it would otherwise repeat the same target forever.
            let mut next = run.now();
            loop {
                next += every;
                if next >= end {
                    break;
                }
                run.run_until(next);
                ckpt.inflight(index, &run.capture());
            }
        }
        let (metrics, _telemetry) = run.finish();
        ckpt.completed(index, &metrics);
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points of one seed and channel share one calibration, as a
    /// beacon-period sweep's do; another seed or channel gets its own.
    #[test]
    fn points_of_one_seed_and_channel_share_a_calibration() {
        let point = |seed: u64, period_s: u64| {
            let mut b = Scenario::builder();
            b.seed(seed).beacon_period(SimDuration::from_secs(period_s));
            b.build()
        };
        let calibrations = Calibrations::default();
        let first = calibrations.get(&point(3, 10));
        for period_s in [50, 100, 300] {
            assert!(Arc::ptr_eq(&first, &calibrations.get(&point(3, period_s))));
        }
        let mut louder = point(3, 10);
        louder.channel.tx_power_dbm += 3.0;
        let other_seed = calibrations.get(&point(4, 10));
        assert!(!Arc::ptr_eq(&first, &other_seed));
        assert!(!Arc::ptr_eq(&first, &calibrations.get(&louder)));
        assert!(Arc::ptr_eq(&other_seed, &calibrations.get(&point(4, 50))));
        assert_eq!(calibrations.0.lock().expect("not poisoned").len(), 3);
    }

    /// A zombie attempt (abandoned after its deadline, still running)
    /// whose in-flight write arrives after its point completed writes
    /// nothing: no point file reappears, and the manifest keeps the
    /// point completed. Another point's write goes through.
    #[test]
    fn a_zombie_write_after_completion_does_not_downgrade_the_point() {
        let dir = std::env::temp_dir().join(format!("cocoa-sweep-zombie-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create a temp dir");
        let path = dir.join("sweep.csnp");
        let ckpt = Checkpointer::open(Some(path.clone()), vec![7, 8]).expect("fresh sweep");
        let metrics = RunMetrics {
            events_processed: 42,
            ..RunMetrics::default()
        };
        ckpt.inflight(0, b"first capture");
        ckpt.completed(0, &metrics);
        ckpt.inflight(0, b"the zombie's capture");
        ckpt.inflight(1, b"another point's capture");

        let point_0 = point_path(&path, 0, 7);
        let point_1 = point_path(&path, 1, 8);
        let zombie_file = point_0.exists();
        let other_file = std::fs::read(&point_1).ok();
        let ledger = SweepManifest::load_ledger(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert!(!zombie_file, "the zombie's write must not land");
        assert_eq!(other_file.as_deref(), Some(&b"another point's capture"[..]));
        let ledger = ledger.expect("manifest loads").expect("manifest present");
        assert_eq!(ledger.states[0], PointState::Completed(Box::new(metrics)));
        assert_eq!(ledger.states[1], PointState::Pending);
        // Two in-flight writes and one completion store; the store at
        // the sweep's start is not a checkpoint.
        assert_eq!(ckpt.checkpoints_written.load(Ordering::Relaxed), 3);
    }
}
