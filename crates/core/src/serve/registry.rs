//! The job registry: single-flight dedup and the two cache layers.
//!
//! Three structures keep repeat traffic cheap without ever running the
//! same experiment twice concurrently:
//!
//! - **Single-flight map.** The first request for a fingerprint becomes
//!   the *leader* and executes; concurrent identical requests become
//!   *joiners* that block on the leader's [`JobCell`] and receive the
//!   byte-identical body. Failures are delivered to every joiner and
//!   then forgotten — a failed fingerprint may be retried.
//! - **Results cache.** Completed bodies, bounded FIFO. A later
//!   identical request is served without touching the simulator.
//! - **Calibration cache.** Bounded FIFO of [`Calibration`]s, at most
//!   one per seed and channel: any request with the same seed and
//!   channel, whatever else it changes, reuses the PDF table instead of
//!   rerunning the calibration campaign.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::runner::Calibration;
use crate::scenario::Scenario;

/// How many completed bodies the results cache retains (FIFO).
pub const RESULTS_CAP: usize = 256;
/// How many calibrations the calibration cache retains (FIFO).
pub const WARM_CAP: usize = 32;

/// Monotonic serve-layer counters, exported as `serve.*` pairs.
#[derive(Default)]
pub struct ServeCounters {
    /// POSTs to `/v1/runs`, before any parsing.
    pub requests: AtomicU64,
    /// Requests admitted as single-flight leaders.
    pub accepted: AtomicU64,
    /// Requests rejected before admission (bad JSON, bad scenario).
    pub rejected: AtomicU64,
    /// Requests answered from the results cache.
    pub cache_hits: AtomicU64,
    /// Requests that joined an identical in-flight run.
    pub joined: AtomicU64,
    /// Runs actually executed to completion.
    pub executed: AtomicU64,
    /// Untraced executions that reused a cached calibration.
    pub warm_forks: AtomicU64,
    /// Executions that ran their own calibration.
    pub cold_starts: AtomicU64,
    /// Executions that terminally failed.
    pub failed: AtomicU64,
    /// Results restored from the state directory at startup.
    pub restored: AtomicU64,
    /// Results persisted to the state directory.
    pub persisted: AtomicU64,
}

impl ServeCounters {
    /// Relaxed increment — counters are monotonic telemetry, never
    /// control flow.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Every counter as a stable `(name, value)` list, in declaration
    /// order, under the `serve.` prefix.
    pub fn as_pairs(&self) -> [(&'static str, u64); 11] {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("serve.requests", get(&self.requests)),
            ("serve.accepted", get(&self.accepted)),
            ("serve.rejected", get(&self.rejected)),
            ("serve.cache_hits", get(&self.cache_hits)),
            ("serve.joined", get(&self.joined)),
            ("serve.executed", get(&self.executed)),
            ("serve.warm_forks", get(&self.warm_forks)),
            ("serve.cold_starts", get(&self.cold_starts)),
            ("serve.failed", get(&self.failed)),
            ("serve.restored", get(&self.restored)),
            ("serve.persisted", get(&self.persisted)),
        ]
    }
}

/// A completed run, exactly as served: the response body and the
/// byte-exact metrics codec output.
pub struct JobResult {
    /// The request fingerprint this result answers.
    pub fingerprint: u64,
    /// The full response body: telemetry JSONL + `serve.metrics` line.
    pub body: Vec<u8>,
    /// `encode_metrics` bytes (the wire/persistence form).
    pub metrics: Vec<u8>,
}

/// Why a run failed, as delivered to joiners: the supervisor's failure
/// tag plus a human-readable detail.
#[derive(Clone, Debug)]
pub struct JobError {
    /// Stable failure tag (`panic`, `deadline`, `validation`, …).
    pub kind: &'static str,
    /// Human-readable detail for the error body.
    pub detail: String,
}

/// The rendezvous between a single-flight leader and its joiners.
pub struct JobCell {
    slot: Mutex<Option<Result<Arc<JobResult>, JobError>>>,
    ready: Condvar,
}

impl JobCell {
    fn new() -> Arc<JobCell> {
        Arc::new(JobCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Blocks until the leader fills the cell, then returns its copy.
    pub fn wait(&self) -> Result<Arc<JobResult>, JobError> {
        let mut slot = self.slot.lock().expect("job cell poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.ready.wait(slot).expect("job cell poisoned");
        }
    }

    fn fill(&self, value: Result<Arc<JobResult>, JobError>) {
        *self.slot.lock().expect("job cell poisoned") = Some(value);
        self.ready.notify_all();
    }
}

enum Entry {
    InFlight(Arc<JobCell>),
    Done(Arc<JobResult>),
}

/// How a request was admitted.
pub enum Admission {
    /// First sighting: the caller is the leader and must execute.
    Fresh(Arc<JobCell>),
    /// An identical run is in flight: wait on its cell.
    Joined(Arc<JobCell>),
    /// Already completed: serve straight from cache.
    Cached(Arc<JobResult>),
}

struct Inner {
    entries: HashMap<u64, Entry>,
    done_order: VecDeque<u64>,
    calibrations: VecDeque<Arc<Calibration>>,
}

impl Inner {
    /// Enters a completed result into the results cache, evicting the
    /// oldest results beyond `cap`.
    fn push_done(&mut self, fingerprint: u64, result: Arc<JobResult>, cap: usize) {
        self.entries.insert(fingerprint, Entry::Done(result));
        self.done_order.push_back(fingerprint);
        while self.done_order.len() > cap {
            if let Some(oldest) = self.done_order.pop_front() {
                if matches!(self.entries.get(&oldest), Some(Entry::Done(_))) {
                    self.entries.remove(&oldest);
                }
            }
        }
    }
}

/// The shared registry (interior-mutex; every method is `&self`).
pub struct Registry {
    inner: Mutex<Inner>,
    results_cap: usize,
    warm_cap: usize,
}

impl Registry {
    /// A registry with the given cache bounds (zero disables a layer).
    pub fn new(results_cap: usize, warm_cap: usize) -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                done_order: VecDeque::new(),
                calibrations: VecDeque::new(),
            }),
            results_cap,
            warm_cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry poisoned")
    }

    /// Admits one request: cache hit, join, or fresh leadership. The
    /// check-and-insert is atomic under the registry lock, so exactly
    /// one caller per fingerprint ever sees [`Admission::Fresh`].
    pub fn admit(&self, fingerprint: u64) -> Admission {
        let mut inner = self.lock();
        match inner.entries.get(&fingerprint) {
            Some(Entry::Done(result)) => Admission::Cached(Arc::clone(result)),
            Some(Entry::InFlight(cell)) => Admission::Joined(Arc::clone(cell)),
            None => {
                let cell = JobCell::new();
                inner
                    .entries
                    .insert(fingerprint, Entry::InFlight(Arc::clone(&cell)));
                Admission::Fresh(cell)
            }
        }
    }

    /// Leader hand-off: publishes the result (or failure) and wakes
    /// every joiner. Success enters the results cache; failure removes
    /// the fingerprint so a later retry gets fresh leadership.
    pub fn complete(
        &self,
        fingerprint: u64,
        result: Result<JobResult, JobError>,
    ) -> Result<Arc<JobResult>, JobError> {
        let mut inner = self.lock();
        let cell = match inner.entries.get(&fingerprint) {
            Some(Entry::InFlight(cell)) => Some(Arc::clone(cell)),
            _ => None,
        };
        let outcome = match result {
            Ok(result) => {
                let result = Arc::new(result);
                inner.push_done(fingerprint, Arc::clone(&result), self.results_cap);
                Ok(result)
            }
            Err(error) => {
                inner.entries.remove(&fingerprint);
                Err(error)
            }
        };
        drop(inner);
        if let Some(cell) = cell {
            cell.fill(outcome.clone());
        }
        outcome
    }

    /// Seeds the results cache directly (the restore-from-disk path),
    /// under the same FIFO bound as completed runs. A fingerprint
    /// already present is left untouched.
    pub fn insert_done(&self, result: JobResult) -> bool {
        let mut inner = self.lock();
        if inner.entries.contains_key(&result.fingerprint) {
            return false;
        }
        inner.push_done(result.fingerprint, Arc::new(result), self.results_cap);
        true
    }

    /// Fingerprints with cached results, oldest first.
    pub fn done_fingerprints(&self) -> Vec<u64> {
        self.lock().done_order.iter().copied().collect()
    }

    /// The cached calibration that fits `scenario`, if any.
    pub fn calibration(&self, scenario: &Scenario) -> Option<Arc<Calibration>> {
        let inner = self.lock();
        inner
            .calibrations
            .iter()
            .find(|c| c.fits(scenario))
            .cloned()
    }

    /// Caches `calibration` (FIFO-bounded). An equal one already cached
    /// is kept in its place.
    pub fn keep_calibration(&self, calibration: Arc<Calibration>) {
        let mut inner = self.lock();
        if inner.calibrations.iter().any(|c| **c == *calibration) {
            return;
        }
        inner.calibrations.push_back(calibration);
        if inner.calibrations.len() > self.warm_cap {
            inner.calibrations.pop_front();
        }
    }

    /// Number of calibrations currently cached.
    pub fn warm_len(&self) -> usize {
        self.lock().calibrations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(fp: u64) -> JobResult {
        JobResult {
            fingerprint: fp,
            body: vec![1, 2, 3],
            metrics: vec![4],
        }
    }

    #[test]
    fn single_flight_admission() {
        let registry = Registry::new(8, 8);
        let Admission::Fresh(cell) = registry.admit(7) else {
            panic!("first sighting must lead");
        };
        assert!(matches!(registry.admit(7), Admission::Joined(_)));
        let published = registry.complete(7, Ok(result(7))).unwrap();
        assert_eq!(cell.wait().unwrap().body, published.body);
        assert!(matches!(registry.admit(7), Admission::Cached(_)));
    }

    #[test]
    fn failure_wakes_joiners_and_allows_retry() {
        let registry = Registry::new(8, 8);
        let Admission::Fresh(_) = registry.admit(9) else {
            panic!("fresh");
        };
        let Admission::Joined(cell) = registry.admit(9) else {
            panic!("joined");
        };
        registry
            .complete(
                9,
                Err(JobError {
                    kind: "panic",
                    detail: "boom".into(),
                }),
            )
            .err()
            .expect("failure propagates");
        let err = cell.wait().err().expect("joiner sees the failure");
        assert_eq!(err.kind, "panic");
        // The fingerprint was forgotten: a retry leads again.
        assert!(matches!(registry.admit(9), Admission::Fresh(_)));
    }

    #[test]
    fn results_cache_evicts_fifo() {
        let registry = Registry::new(2, 2);
        for fp in 1..=3u64 {
            let Admission::Fresh(_) = registry.admit(fp) else {
                panic!("fresh {fp}");
            };
            registry.complete(fp, Ok(result(fp))).unwrap();
        }
        assert!(matches!(registry.admit(1), Admission::Fresh(_)), "evicted");
        assert!(matches!(registry.admit(3), Admission::Cached(_)));
        assert_eq!(registry.done_fingerprints(), vec![2, 3]);
    }

    #[test]
    fn insert_done_is_idempotent() {
        let registry = Registry::new(8, 8);
        assert!(registry.insert_done(result(5)));
        assert!(!registry.insert_done(result(5)));
        assert!(matches!(registry.admit(5), Admission::Cached(_)));
    }

    #[test]
    fn restored_results_are_bounded_like_completed_ones() {
        let registry = Registry::new(2, 2);
        for fp in 1..=3u64 {
            assert!(registry.insert_done(result(fp)));
        }
        assert_eq!(registry.done_fingerprints(), vec![2, 3]);
        assert!(matches!(registry.admit(1), Admission::Fresh(_)), "evicted");
    }

    #[test]
    fn calibration_cache_evicts_fifo_and_keeps_one_per_seed() {
        let registry = Registry::new(0, WARM_CAP);
        let scenario = |seed| Scenario::builder().seed(seed).build();
        for seed in 0..=WARM_CAP as u64 {
            registry.keep_calibration(Arc::new(Calibration::new(&scenario(seed))));
        }
        assert_eq!(registry.warm_len(), WARM_CAP);
        assert!(
            registry.calibration(&scenario(0)).is_none(),
            "oldest evicted"
        );
        let newest = scenario(WARM_CAP as u64);
        let cached = registry.calibration(&newest).expect("newest kept");
        assert!(cached.fits(&newest));
        registry.keep_calibration(Arc::new(Calibration::new(&newest)));
        assert_eq!(
            registry.warm_len(),
            WARM_CAP,
            "an equal calibration does not grow the cache"
        );
        assert!(
            registry.calibration(&scenario(1)).is_some(),
            "and evicts nothing"
        );
    }
}
