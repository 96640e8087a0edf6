//! Supervised job execution: panic isolation, wall-clock deadlines,
//! retry with deterministic backoff, and typed failure classification.
//!
//! The plain executor ([`super::map_bounded`]) propagates the first
//! panic and a hung job blocks its worker forever — acceptable for
//! interactive figure regeneration, fatal for long unattended sweeps.
//! The [`Supervisor`] wraps each job in a hardened boundary instead:
//!
//! - **Panic isolation** — every attempt runs under
//!   [`std::panic::catch_unwind`]; the payload is stringified, the
//!   panicking thread's backtrace captured, and the other jobs keep
//!   running ([`run_guarded`] is the boundary).
//! - **Deadlines** — with [`SupervisorConfig::deadline`] set, each
//!   attempt runs on its own watchdog-guarded thread; the worker waits
//!   with a timeout and classifies an overrun as
//!   [`JobFailure::DeadlineExceeded`]. The runaway thread itself cannot
//!   be killed safely, so it is abandoned: it keeps running detached
//!   and its eventual result is discarded. That trades bounded memory
//!   for forward progress — the documented cost of supervising jobs
//!   that cannot be cancelled cooperatively.
//! - **Retry with seeded backoff** — failed and timed-out attempts are
//!   retried up to [`SupervisorConfig::max_attempts`] times with
//!   exponential backoff whose jitter is drawn from the job's own
//!   deterministic RNG stream ([`SeedSplitter`]), so a rerun of the
//!   same sweep sleeps the same schedule and — the jobs themselves
//!   being deterministic — produces byte-identical results.
//! - **Structured reporting** — terminal failures are classified into
//!   [`JobFailure`] and collected into a [`SweepReport`] alongside the
//!   successful results; nothing aborts the process.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

use cocoa_sim::rng::SeedSplitter;
use cocoa_sim::telemetry::Telemetry;

// ---------------------------------------------------------------------------
// The hardened panic boundary.

thread_local! {
    static SUPERVISED_DEPTH: Cell<u32> = const { Cell::new(0) };
    static LAST_BACKTRACE: RefCell<Option<String>> = const { RefCell::new(None) };
}

static CAPTURE_HOOK: OnceLock<()> = OnceLock::new();

/// Installs the process-wide panic hook that captures backtraces for
/// supervised frames and silences their default stderr report, while
/// delegating unsupervised panics to the previously installed hook.
fn install_capture_hook() {
    CAPTURE_HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPERVISED_DEPTH.with(Cell::get) > 0 {
                let bt = std::backtrace::Backtrace::force_capture().to_string();
                LAST_BACKTRACE.with(|b| *b.borrow_mut() = Some(bt));
            } else {
                previous(info);
            }
        }));
    });
}

/// A panic caught at the supervision boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaughtPanic {
    /// The panic payload rendered to a string (`&str` and `String`
    /// payloads verbatim; anything else becomes a placeholder).
    pub payload: String,
    /// The backtrace of the panicking thread, captured at the panic
    /// site regardless of `RUST_BACKTRACE`.
    pub backtrace: Option<String>,
}

impl CaughtPanic {
    /// Re-raises the panic with the stringified payload.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(Box::new(self.payload))
    }
}

impl fmt::Display for CaughtPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "panic: {}", self.payload)
    }
}

fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` inside the hardened panic boundary.
///
/// A panic in `f` is caught, its payload stringified, its backtrace
/// captured at the panic site, and the default "thread panicked"
/// stderr noise suppressed. Jobs own their inputs and a failed attempt
/// discards all of its partial state — only values returned by a
/// *successful* attempt are ever consumed — which is what makes the
/// `AssertUnwindSafe` below sound.
pub fn run_guarded<R>(f: impl FnOnce() -> R) -> Result<R, CaughtPanic> {
    install_capture_hook();
    // Balance the depth counter even if `f` panics (we are about to
    // catch that panic, so the decrement must sit in a drop guard).
    struct DepthGuard;
    impl Drop for DepthGuard {
        fn drop(&mut self) {
            SUPERVISED_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    SUPERVISED_DEPTH.with(|d| d.set(d.get() + 1));
    let guard = DepthGuard;
    let result = catch_unwind(AssertUnwindSafe(f));
    drop(guard);
    result.map_err(|payload| CaughtPanic {
        payload: payload_string(payload.as_ref()),
        backtrace: LAST_BACKTRACE.with(|b| b.borrow_mut().take()),
    })
}

// ---------------------------------------------------------------------------
// Failure taxonomy.

/// Why a job terminally failed, after retries were exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The job panicked on its final attempt.
    Panic(CaughtPanic),
    /// The job exceeded its per-attempt wall-clock deadline on its
    /// final attempt.
    DeadlineExceeded {
        /// The configured per-attempt limit.
        limit: Duration,
    },
    /// A checkpoint or snapshot the job depended on failed to decode.
    SnapshotCorrupt {
        /// The underlying decode error.
        detail: String,
    },
    /// The job's input failed validation. Never retried: validation is
    /// deterministic, so a second attempt cannot succeed.
    Validation {
        /// The validation error.
        detail: String,
    },
}

impl JobFailure {
    /// A stable short tag for reports and CSV rows.
    pub fn kind(&self) -> &'static str {
        match self {
            JobFailure::Panic(_) => "panic",
            JobFailure::DeadlineExceeded { .. } => "deadline",
            JobFailure::SnapshotCorrupt { .. } => "snapshot-corrupt",
            JobFailure::Validation { .. } => "validation",
        }
    }

    /// Whether another attempt could plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, JobFailure::Validation { .. })
    }

    /// The human-readable detail line (panic payload, error message…).
    pub fn detail(&self) -> String {
        match self {
            JobFailure::Panic(p) => p.payload.clone(),
            JobFailure::DeadlineExceeded { limit } => {
                format!(
                    "exceeded the {:.3} s wall-clock deadline",
                    limit.as_secs_f64()
                )
            }
            JobFailure::SnapshotCorrupt { detail } | JobFailure::Validation { detail } => {
                detail.clone()
            }
        }
    }
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

// ---------------------------------------------------------------------------
// Policy and report types.

/// Supervision policy for one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Total attempts per job (1 = no retries). Clamped to at least 1.
    pub max_attempts: u32,
    /// Per-attempt wall-clock deadline. `None` disables the watchdog
    /// and runs attempts inline on the worker.
    pub deadline: Option<Duration>,
    /// Base delay before the first retry; doubles per retry. Zero (the
    /// default) disables backoff sleeping entirely.
    pub backoff_base: Duration,
    /// Upper bound on the exponential part of the backoff delay.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_attempts: 3,
            deadline: None,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// What happened to one job: how many attempts it took and either its
/// result or the classified terminal failure.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome<R> {
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// The job's value, or why it terminally failed.
    pub result: Result<R, JobFailure>,
}

/// Aggregate supervision counters, exported as `supervisor.*`
/// telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorCounters {
    /// Attempts re-run after a retryable failure.
    pub retries: u64,
    /// Attempts that exceeded the wall-clock deadline.
    pub timeouts: u64,
    /// Panics caught at the supervision boundary.
    pub panics_caught: u64,
    /// Checkpoints persisted to disk: in-flight point files and
    /// completion stores of the sweep manifest.
    pub checkpoints_written: u64,
    /// Points skipped on resume because the manifest already carried
    /// their metrics.
    pub points_skipped_on_resume: u64,
    /// In-flight snapshots that failed to decode (the point restarted
    /// cold instead).
    pub snapshots_corrupt: u64,
    /// Points resumed from an in-flight snapshot instead of starting
    /// cold.
    pub points_resumed_in_flight: u64,
}

impl SupervisorCounters {
    /// Every counter as a stable `(name, value)` list, in declaration
    /// order, under the `supervisor.` prefix.
    pub fn as_pairs(&self) -> [(&'static str, u64); 7] {
        [
            ("supervisor.retries", self.retries),
            ("supervisor.timeouts", self.timeouts),
            ("supervisor.panics_caught", self.panics_caught),
            ("supervisor.checkpoints_written", self.checkpoints_written),
            (
                "supervisor.points_skipped_on_resume",
                self.points_skipped_on_resume,
            ),
            ("supervisor.snapshots_corrupt", self.snapshots_corrupt),
            (
                "supervisor.points_resumed_in_flight",
                self.points_resumed_in_flight,
            ),
        ]
    }

    /// Accumulates another report's counters into this one. The serve
    /// layer runs many single-job supervisions and keeps one
    /// process-lifetime aggregate for its stats endpoint.
    pub fn merge(&mut self, other: &SupervisorCounters) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.panics_caught += other.panics_caught;
        self.checkpoints_written += other.checkpoints_written;
        self.points_skipped_on_resume += other.points_skipped_on_resume;
        self.snapshots_corrupt += other.snapshots_corrupt;
        self.points_resumed_in_flight += other.points_resumed_in_flight;
    }

    /// Publishes the counters onto a telemetry bus.
    pub fn absorb_into(&self, telemetry: &mut Telemetry) {
        for (name, value) in self.as_pairs() {
            telemetry.absorb(name, value);
        }
    }
}

/// A live observation from the supervised fleet: one attempt-level
/// state change of one job. Emitted synchronously from worker threads,
/// so observers must be cheap and thread-safe; they exist to drive
/// progress displays and status files, never control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// An attempt is starting (`attempt` is 1-based).
    Started {
        /// Job index in input order.
        index: usize,
        /// Attempt number, starting at 1.
        attempt: u32,
    },
    /// The job produced a value.
    Completed {
        /// Job index in input order.
        index: usize,
        /// Attempts consumed.
        attempts: u32,
    },
    /// The attempt failed retryably; another attempt will follow.
    Retrying {
        /// Job index in input order.
        index: usize,
        /// The attempt that just failed.
        attempt: u32,
        /// Failure tag ([`JobFailure::kind`]).
        kind: &'static str,
    },
    /// The job terminally failed.
    Failed {
        /// Job index in input order.
        index: usize,
        /// Attempts consumed.
        attempts: u32,
        /// Failure tag ([`JobFailure::kind`]).
        kind: &'static str,
    },
}

/// Shared callback receiving [`JobEvent`]s as a fleet progresses.
pub type JobObserver = Arc<dyn Fn(JobEvent) + Send + Sync>;

/// The structured result of a supervised sweep: one outcome per job in
/// input order, plus the aggregate counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<R> {
    /// Per-job outcomes, in input order.
    pub outcomes: Vec<JobOutcome<R>>,
    /// Aggregate supervision counters.
    pub counters: SupervisorCounters,
}

impl<R> SweepReport<R> {
    /// Number of jobs that produced a value.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Number of jobs that terminally failed.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.completed()
    }

    /// Whether every job completed.
    pub fn is_clean(&self) -> bool {
        self.failed() == 0
    }

    /// The terminal failures, as `(job index, failure)` in input order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &JobFailure)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.result.as_ref().err().map(|f| (i, f)))
    }

    /// Per-job results in input order, `None` where the job failed.
    pub fn results(&self) -> Vec<Option<&R>> {
        self.outcomes
            .iter()
            .map(|o| o.result.as_ref().ok())
            .collect()
    }

    /// Consumes the report into per-job results, in input order.
    pub fn into_results(self) -> Vec<Result<R, JobFailure>> {
        self.outcomes.into_iter().map(|o| o.result).collect()
    }

    /// Unwraps every result, panicking with a failure summary if any
    /// job failed — the strict entry for callers that cannot degrade.
    pub fn expect_all(self, context: &str) -> Vec<R> {
        let failed: Vec<String> = self
            .failures()
            .map(|(i, f)| format!("job {i}: {f}"))
            .collect();
        assert!(failed.is_empty(), "{context}: {}", failed.join("; "));
        self.into_results()
            .into_iter()
            .map(|r| r.expect("checked above"))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The supervisor.

#[derive(Default)]
struct AtomicCounters {
    retries: AtomicU64,
    timeouts: AtomicU64,
    panics_caught: AtomicU64,
}

/// Runs jobs under the supervision policy of a [`SupervisorConfig`]:
/// panic-isolated, deadline-bounded, retried with deterministic
/// backoff, reported as a [`SweepReport`].
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    cfg: SupervisorConfig,
}

impl Supervisor {
    /// A supervisor with the given policy.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Supervisor { cfg }
    }

    /// The policy this supervisor runs.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Applies `f` to every item on the bounded worker pool of
    /// [`super::try_map_bounded`], each call supervised: panics are caught
    /// and classified, attempts are deadline-bounded when configured, and
    /// retryable failures re-run with exponential backoff whose jitter
    /// comes from the stream
    /// `SeedSplitter::new(seed_of(item)).seed_for("supervisor.backoff", …)`
    /// — the job's own RNG universe, so reruns sleep identically. Every
    /// attempt-level state change is reported to `observer`, if any, as it
    /// happens — the seam behind live fleet displays (see
    /// [`super::fleet::FleetStatus`]).
    ///
    /// Results come back in input order. The `'static` bounds exist
    /// because a deadline-exceeding attempt is abandoned on a detached
    /// thread that may outlive this call; inputs are therefore shared
    /// via `Arc` rather than borrowed.
    pub fn map_seeded_observed<T, R, F, S>(
        &self,
        items: Vec<T>,
        seed_of: S,
        f: F,
        observer: Option<JobObserver>,
    ) -> SweepReport<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> Result<R, JobFailure> + Send + Sync + 'static,
        S: Fn(&T) -> u64 + Sync,
    {
        let indices: Vec<usize> = (0..items.len()).collect();
        let items = Arc::new(items);
        let f = Arc::new(f);
        let counters = AtomicCounters::default();
        let outcomes = super::try_map_bounded(indices, |&i| {
            let seed = seed_of(&items[i]);
            self.run_job(&counters, &items, &f, i, seed, observer.as_deref())
        });
        SweepReport {
            // `run_job` runs every attempt inside its own panic boundary.
            outcomes: outcomes
                .into_iter()
                .map(|outcome| outcome.unwrap_or_else(|p| p.resume()))
                .collect(),
            counters: SupervisorCounters {
                retries: counters.retries.load(Ordering::Relaxed),
                timeouts: counters.timeouts.load(Ordering::Relaxed),
                panics_caught: counters.panics_caught.load(Ordering::Relaxed),
                ..SupervisorCounters::default()
            },
        }
    }

    /// The retry loop around one job.
    fn run_job<T, R, F>(
        &self,
        counters: &AtomicCounters,
        items: &Arc<Vec<T>>,
        f: &Arc<F>,
        index: usize,
        seed: u64,
        observer: Option<&(dyn Fn(JobEvent) + Send + Sync)>,
    ) -> JobOutcome<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> Result<R, JobFailure> + Send + Sync + 'static,
    {
        let notify = |event: JobEvent| {
            if let Some(obs) = observer {
                obs(event);
            }
        };
        let splitter = SeedSplitter::new(seed);
        let max_attempts = self.cfg.max_attempts.max(1);
        let mut attempts = 0u32;
        let result = loop {
            attempts += 1;
            notify(JobEvent::Started {
                index,
                attempt: attempts,
            });
            let attempt = run_attempt(self.cfg.deadline, items, f, index);
            let failure = match attempt {
                Ok(Ok(value)) => break Ok(value),
                Ok(Err(failure)) => failure,
                Err(panic) => {
                    counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                    JobFailure::Panic(panic)
                }
            };
            if matches!(failure, JobFailure::DeadlineExceeded { .. }) {
                counters.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            if !failure.is_retryable() || attempts >= max_attempts {
                break Err(failure);
            }
            counters.retries.fetch_add(1, Ordering::Relaxed);
            notify(JobEvent::Retrying {
                index,
                attempt: attempts,
                kind: failure.kind(),
            });
            let delay = backoff_delay(&self.cfg, &splitter, index, attempts);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        };
        match &result {
            Ok(_) => notify(JobEvent::Completed { index, attempts }),
            Err(failure) => notify(JobEvent::Failed {
                index,
                attempts,
                kind: failure.kind(),
            }),
        }
        JobOutcome { attempts, result }
    }
}

/// Runs one attempt inside the panic boundary — inline when no
/// deadline is set, on a watchdog-guarded thread otherwise.
///
/// On an overrun the attempt thread is *abandoned*, not killed: it
/// keeps running detached and its eventual send lands in a
/// disconnected channel. The alternative — killing a thread mid-run —
/// is unsound in Rust, and the jobs here (whole simulations) have no
/// cooperative cancellation point cheap enough to be worth threading
/// through every model.
fn run_attempt<T, R, F>(
    deadline: Option<Duration>,
    items: &Arc<Vec<T>>,
    f: &Arc<F>,
    index: usize,
) -> Result<Result<R, JobFailure>, CaughtPanic>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> Result<R, JobFailure> + Send + Sync + 'static,
{
    let Some(limit) = deadline else {
        return run_guarded(|| f(index, &items[index]));
    };
    let (tx, rx) = mpsc::channel();
    let items = Arc::clone(items);
    let f = Arc::clone(f);
    let spawned = std::thread::Builder::new()
        .name(format!("cocoa-supervised-{index}"))
        .spawn(move || {
            let out = run_guarded(|| f(index, &items[index]));
            let _ = tx.send(out);
        });
    match spawned {
        Err(e) => Err(CaughtPanic {
            payload: format!("failed to spawn supervised job thread: {e}"),
            backtrace: None,
        }),
        Ok(_detached) => match rx.recv_timeout(limit) {
            Ok(out) => out,
            Err(_) => Ok(Err(JobFailure::DeadlineExceeded { limit })),
        },
    }
}

/// The delay before retry number `attempt` of job `index`:
/// exponential in the attempt count, capped, plus jitter drawn from
/// the job's own deterministic stream (up to half the exponential
/// part). Zero when backoff is disabled.
fn backoff_delay(
    cfg: &SupervisorConfig,
    splitter: &SeedSplitter,
    index: usize,
    attempt: u32,
) -> Duration {
    if cfg.backoff_base.is_zero() {
        return Duration::ZERO;
    }
    let exp = cfg
        .backoff_base
        .saturating_mul(2u32.saturating_pow(attempt.saturating_sub(1)))
        .min(cfg.backoff_cap);
    let stream = ((index as u64) << 16) | u64::from(attempt);
    let seed = splitter.seed_for("supervisor.backoff", stream);
    let word = u64::from_le_bytes(seed[..8].try_into().expect("8 bytes"));
    let span_ms = (exp.as_millis() as u64 / 2).max(1);
    exp + Duration::from_millis(word % span_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    /// A supervised map with no observer, every job's backoff seeded 0.
    fn map<T, R, F>(sup: &Supervisor, items: Vec<T>, f: F) -> SweepReport<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> Result<R, JobFailure> + Send + Sync + 'static,
    {
        sup.map_seeded_observed(items, |_| 0, f, None)
    }

    #[test]
    fn all_jobs_succeed_first_try() {
        let sup = Supervisor::new(SupervisorConfig::default());
        let report = map(&sup, (0..10u64).collect(), |_, &x| Ok(x * 2));
        assert!(report.is_clean());
        assert_eq!(report.completed(), 10);
        assert_eq!(
            report.clone().expect_all("test"),
            (0..10).map(|x| x * 2).collect::<Vec<u64>>()
        );
        assert!(report.outcomes.iter().all(|o| o.attempts == 1));
        assert_eq!(report.counters, SupervisorCounters::default());
    }

    #[test]
    fn panicking_job_is_isolated_and_classified() {
        let sup = Supervisor::new(SupervisorConfig {
            max_attempts: 2,
            ..SupervisorConfig::default()
        });
        let report = map(&sup, (0..8usize).collect(), |_, &x| {
            assert!(x != 5, "boom {x}");
            Ok(x)
        });
        assert_eq!(report.completed(), 7);
        assert_eq!(report.failed(), 1);
        let (idx, failure) = report.failures().next().expect("one failure");
        assert_eq!(idx, 5);
        assert_eq!(failure.kind(), "panic");
        assert!(failure.detail().contains("boom 5"), "{failure}");
        assert_eq!(report.outcomes[5].attempts, 2);
        assert_eq!(report.counters.panics_caught, 2);
        assert_eq!(report.counters.retries, 1);
        // The surviving results are intact and ordered.
        let results = report.results();
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                assert!(r.is_none());
            } else {
                assert_eq!(*r, Some(&i));
            }
        }
    }

    #[test]
    fn retry_recovers_a_flaky_job() {
        let failures_left = AtomicU32::new(2);
        let failures_left = std::sync::Arc::new(failures_left);
        let fl = std::sync::Arc::clone(&failures_left);
        let sup = Supervisor::new(SupervisorConfig {
            max_attempts: 3,
            ..SupervisorConfig::default()
        });
        let report = map(&sup, vec![7u64], move |_, &x| {
            if fl
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
            {
                panic!("flaky");
            }
            Ok(x)
        });
        assert!(report.is_clean());
        assert_eq!(report.outcomes[0].attempts, 3);
        assert_eq!(report.counters.retries, 2);
        assert_eq!(report.counters.panics_caught, 2);
    }

    #[test]
    fn validation_failures_are_terminal_without_retry() {
        let sup = Supervisor::new(SupervisorConfig {
            max_attempts: 5,
            ..SupervisorConfig::default()
        });
        let report = map(&sup, vec![1u64], |_, _| -> Result<u64, JobFailure> {
            Err(JobFailure::Validation {
                detail: "bad input".into(),
            })
        });
        assert_eq!(report.failed(), 1);
        assert_eq!(report.outcomes[0].attempts, 1, "validation must not retry");
        assert_eq!(report.counters.retries, 0);
    }

    #[test]
    fn deadline_classifies_hung_jobs() {
        let sup = Supervisor::new(SupervisorConfig {
            max_attempts: 2,
            deadline: Some(Duration::from_millis(50)),
            ..SupervisorConfig::default()
        });
        let report = map(&sup, vec![0u64, 1], |i, &x| {
            if i == 0 {
                // Far past the deadline; the attempt thread is abandoned.
                std::thread::sleep(Duration::from_secs(5));
            }
            Ok(x)
        });
        assert_eq!(report.completed(), 1);
        let (idx, failure) = report.failures().next().expect("one failure");
        assert_eq!(idx, 0);
        assert_eq!(failure.kind(), "deadline");
        assert_eq!(report.outcomes[0].attempts, 2);
        assert_eq!(report.counters.timeouts, 2);
        assert_eq!(report.counters.retries, 1);
        assert_eq!(report.outcomes[1].result, Ok(1));
    }

    #[test]
    fn guarded_panic_captures_payload_and_backtrace() {
        let caught = run_guarded(|| -> u32 { panic!("captured {}", 41 + 1) }).unwrap_err();
        assert_eq!(caught.payload, "captured 42");
        let bt = caught.backtrace.expect("backtrace captured at panic site");
        assert!(!bt.is_empty());
        // A clean call returns the value and leaves no stale backtrace.
        assert_eq!(run_guarded(|| 7).unwrap(), 7);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(8),
            backoff_cap: Duration::from_millis(100),
            ..SupervisorConfig::default()
        };
        let s = SeedSplitter::new(42);
        let a = backoff_delay(&cfg, &s, 3, 1);
        let b = backoff_delay(&cfg, &s, 3, 1);
        assert_eq!(a, b, "same job + attempt => same delay");
        assert_ne!(
            backoff_delay(&cfg, &s, 3, 1),
            backoff_delay(&cfg, &s, 4, 1),
            "different jobs jitter independently"
        );
        for attempt in 1..=10 {
            let d = backoff_delay(&cfg, &s, 0, attempt);
            assert!(d >= cfg.backoff_base);
            assert!(d <= cfg.backoff_cap + cfg.backoff_cap / 2);
        }
        let off = SupervisorConfig::default();
        assert_eq!(backoff_delay(&off, &s, 0, 1), Duration::ZERO);
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let sup = Supervisor::default();
        let report = map(&sup, Vec::<u64>::new(), |_, &x| Ok(x));
        assert!(report.outcomes.is_empty());
        assert!(report.is_clean());
    }

    #[test]
    fn observer_sees_the_full_job_lifecycle() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let sup = Supervisor::new(SupervisorConfig {
            max_attempts: 2,
            ..SupervisorConfig::default()
        });
        let report = sup.map_seeded_observed(
            vec![0u64, 1],
            |_| 0,
            |i, &x| {
                assert!(i != 1, "boom");
                Ok(x)
            },
            Some(Arc::new(move |e| {
                sink.lock().expect("sink").push(e);
            })),
        );
        assert_eq!(report.completed(), 1);
        let events = events.lock().expect("sink");
        let of = |index: usize| -> Vec<JobEvent> {
            events
                .iter()
                .copied()
                .filter(|e| match e {
                    JobEvent::Started { index: i, .. }
                    | JobEvent::Completed { index: i, .. }
                    | JobEvent::Retrying { index: i, .. }
                    | JobEvent::Failed { index: i, .. } => *i == index,
                })
                .collect()
        };
        assert_eq!(
            of(0),
            vec![
                JobEvent::Started {
                    index: 0,
                    attempt: 1
                },
                JobEvent::Completed {
                    index: 0,
                    attempts: 1
                },
            ]
        );
        assert_eq!(
            of(1),
            vec![
                JobEvent::Started {
                    index: 1,
                    attempt: 1
                },
                JobEvent::Retrying {
                    index: 1,
                    attempt: 1,
                    kind: "panic"
                },
                JobEvent::Started {
                    index: 1,
                    attempt: 2
                },
                JobEvent::Failed {
                    index: 1,
                    attempts: 2,
                    kind: "panic"
                },
            ]
        );
    }

    #[test]
    fn counters_export_under_supervisor_prefix() {
        let c = SupervisorCounters {
            retries: 1,
            timeouts: 2,
            panics_caught: 3,
            checkpoints_written: 4,
            points_skipped_on_resume: 5,
            snapshots_corrupt: 6,
            points_resumed_in_flight: 7,
        };
        let pairs = c.as_pairs();
        assert!(pairs.iter().all(|(n, _)| n.starts_with("supervisor.")));
        let mut t = Telemetry::new(cocoa_sim::telemetry::TelemetryLevel::Counters);
        c.absorb_into(&mut t);
        assert_eq!(t.counters().get("supervisor.retries"), Some(1));
        assert_eq!(t.counters().get("supervisor.snapshots_corrupt"), Some(6));
        assert_eq!(
            t.counters().get("supervisor.points_resumed_in_flight"),
            Some(7)
        );
    }
}
