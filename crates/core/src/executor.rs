//! A bounded work-stealing executor for simulation sweeps.
//!
//! Figure and ablation drivers run many independent, single-threaded,
//! deterministic simulations. Spawning one OS thread per scenario (the
//! previous approach) oversubscribes the machine as soon as a sweep has
//! more points than cores, and a 16-point sweep on a 4-core box pays for
//! 16 stacks and the scheduler thrash of 4× oversubscription.
//!
//! [`map_bounded`] instead runs the jobs on at most
//! `available_parallelism()` scoped worker threads that pull indices off a
//! shared atomic counter: no job queue to build, no channel, no
//! oversubscription, and results come back in input order regardless of
//! which worker finished which job.
//!
//! Three entry points with increasing resilience:
//!
//! - [`map_bounded`] — fail-fast: the first panic propagates after the
//!   sweep drains (all results are discarded). Right for interactive
//!   figure regeneration where a panic means "fix the code".
//! - [`try_map_bounded`] — panic-isolated: every job runs to completion
//!   and each result slot is `Ok(value)` or the caught panic. Surviving
//!   workers finish their queues.
//! - [`supervisor::Supervisor`] — full supervision: deadlines, retries
//!   with deterministic backoff, typed failure classification, and (via
//!   [`sweep`]) checkpointed auto-resume of interrupted sweeps.

pub mod fleet;
pub mod manifest;
pub mod supervisor;
pub mod sweep;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use supervisor::{run_guarded, CaughtPanic};

/// Upper bound on worker threads, from the OS (1 if unknown).
pub fn max_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item of `items` on a bounded pool of scoped
/// threads and returns the results in input order.
///
/// At most `min(items.len(), max_workers())` threads run at any moment.
/// Workers self-schedule: each repeatedly claims the next unclaimed index
/// from an atomic counter, so long and short jobs interleave without any
/// up-front partitioning. Even one item runs on a worker thread, never on
/// the caller's: run on `cocoa-serve`'s long-lived connection threads
/// instead, single supervised jobs raised `serve_mixed`'s peak RSS from
/// about 39 to 45 MiB (2-vCPU Xeon, glibc malloc).
///
/// # Panics
///
/// Panics if any invocation of `f` panics. Unlike the previous
/// join-and-abort behavior, every job still runs to completion first —
/// only then is the lowest-index panic re-raised (with its original
/// payload) and the completed results discarded. Callers that want those
/// results use [`try_map_bounded`].
pub fn map_bounded<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut first_panic: Option<CaughtPanic> = None;
    let mut out = Vec::with_capacity(items.len());
    for result in try_map_bounded(items, f) {
        match result {
            Ok(r) => out.push(r),
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic {
        p.resume();
    }
    out
}

/// Panic-isolated variant of [`map_bounded`]: applies `f` to every item
/// and returns, in input order, `Ok(result)` per completed job and
/// `Err(caught panic)` per panicked one.
///
/// One panicking job no longer poisons the sweep — surviving workers
/// keep pulling indices until the queue drains, so a 100-point sweep
/// with one crash still yields 99 results. Each caught panic carries the
/// stringified payload and a backtrace captured at the panic site (see
/// [`supervisor::run_guarded`]).
pub fn try_map_bounded<T, R, F>(items: Vec<T>, f: F) -> Vec<Result<R, CaughtPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = max_workers().min(n);

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, CaughtPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = run_guarded(|| f(&items[i]));
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = map_bounded(items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = map_bounded(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_on_one_worker() {
        let caller = std::thread::current().id();
        let out = map_bounded(vec![41], |&x| (x + 1, std::thread::current().id()));
        assert_eq!(out[0].0, 42);
        assert_ne!(out[0].1, caller, "the job ran on the caller's thread");
    }

    #[test]
    fn concurrency_never_exceeds_the_core_count() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        map_bounded(items, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= max_workers(),
            "peak concurrency {} exceeded the bound {}",
            peak.load(Ordering::SeqCst),
            max_workers()
        );
    }

    #[test]
    fn uneven_job_durations_still_order_results() {
        let items: Vec<u64> = (0..16).rev().collect();
        let out = map_bounded(items.clone(), |&ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms / 4));
            ms
        });
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        map_bounded(items, |&i| {
            assert!(i != 5, "boom");
            i
        });
    }

    #[test]
    fn isolated_map_returns_surviving_results() {
        let items: Vec<usize> = (0..32).collect();
        let out = try_map_bounded(items, |&i| {
            assert!(i % 10 != 7, "boom at {i}");
            i * 3
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i % 10 == 7 {
                let p = r.as_ref().expect_err("index {i} should have panicked");
                assert!(p.payload.contains(&format!("boom at {i}")));
            } else {
                assert_eq!(*r.as_ref().expect("surviving job"), i * 3);
            }
        }
    }

    #[test]
    fn isolated_map_catches_a_single_item_panic() {
        let out = try_map_bounded(vec![1u32], |_| -> u32 { panic!("single boom") });
        assert_eq!(out.len(), 1);
        assert!(out[0].as_ref().unwrap_err().payload.contains("single boom"));
    }
}
