//! `sweep_checkpointed`: a fixed number of supervised sweeps over the
//! Fig. 9 period family (T = 10/50/100/300 s) at paper scale, each
//! checkpointing its points in flight every 20 simulated seconds into a
//! fresh manifest, then run again on the completed manifest, which must
//! skip every point and return the same metrics byte for byte.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cocoa_core::executor::manifest::encode_metrics;
use cocoa_core::executor::max_workers;
use cocoa_core::executor::supervisor::{JobEvent, JobObserver};
use cocoa_core::executor::sweep::{run_supervised, SweepConfig};
use cocoa_core::runner;
use cocoa_core::scenario::Scenario;
use cocoa_sim::time::SimDuration;

use super::{capped, end_to_end, Setups};
use crate::stats::median;
use crate::{layers, seed_base, Config, Outcome, Size, Tally};

/// Beacon periods of one sweep, seconds (paper Fig. 9).
const PERIODS_S: [u64; 4] = [10, 50, 100, 300];
/// Simulated time between in-flight checkpoints of a point.
const INFLIGHT: SimDuration = SimDuration::from_secs(20);

/// One sweep's points. Paper scale with a 300 s mission keeps a sweep
/// to a few seconds while its snapshots keep their full size.
fn points(size: Size, seed: u64) -> Vec<Scenario> {
    PERIODS_S
        .iter()
        .map(|&t| {
            let mut b = Scenario::builder();
            b.seed(seed).beacon_period(SimDuration::from_secs(t));
            match size {
                Size::Paper => b.duration(SimDuration::from_secs(300)),
                Size::Tiny => b
                    .robots(8)
                    .equipped(4)
                    .duration(SimDuration::from_secs(120)),
            };
            b.build()
        })
        .collect()
}

/// What one sweep measured.
struct SweepStats {
    /// Wall time of the sweep's first, checkpointing pass.
    wall: f64,
    /// Wall time of each point, from its start to its completion event.
    point_walls: Vec<f64>,
    /// Share of the workers' time spent without a point to run.
    idle_share: f64,
    checkpoints_written: u64,
    retries: u64,
}

/// Sweeps in the measured loop: about 8 s on the 2-vCPU reference host,
/// plus about 3 s of set-ups.
fn sweeps(size: Size) -> usize {
    match size {
        Size::Paper => 3,
        Size::Tiny => 1,
    }
}

pub(crate) fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let base = seed_base(cfg.seed);
    let n = sweeps(cfg.size);
    let setup = || {
        let mut warm = points(cfg.size, base)[0].clone();
        warm.duration = SimDuration::from_secs(60);
        std::hint::black_box(runner::run(&warm));
    };
    let start = Instant::now();
    let mut setups = Setups::new(n);
    setups.time(setup);

    let mut point_walls = Vec::new();
    let mut batches = Vec::new();
    let mut idle_shares = Vec::new();
    let mut checkpoints_written = 0;
    let mut retries = 0;
    for i in 0..n {
        if capped(i, start, cfg, &mut out) {
            break;
        }
        setups.before(i, setup);
        let dir = cfg.scratch.join(format!("sweep-{i}"));
        if let Some(stats) = sweep(points(cfg.size, base + i as u64), &dir, &mut out.tally) {
            batches.push((stats.point_walls.len(), stats.wall));
            point_walls.extend(stats.point_walls);
            idle_shares.push(stats.idle_share);
            checkpoints_written += stats.checkpoints_written;
            retries += stats.retries;
        }
    }
    end_to_end(&mut out.values, setups.median_s(), &batches, &point_walls);
    out.values.insert(
        "manifest.checkpoints_written",
        checkpoints_written as f64 / idle_shares.len() as f64,
    );
    out.values.insert(
        "sweep.worker_idle_share",
        median(&idle_shares).unwrap_or(f64::NAN),
    );
    out.values.insert("supervisor.retries", retries as f64);

    if cfg.trace {
        layers::probe(&points(cfg.size, base)[2], &cfg.scratch, &mut out);
    }
    out
}

/// Runs one checkpointed sweep and its resume pass in `dir`, checking
/// both. `None` when a manifest could not be read back.
fn sweep(scenarios: Vec<Scenario>, dir: &Path, tally: &mut Tally) -> Option<SweepStats> {
    std::fs::create_dir_all(dir).expect("create a sweep directory");
    let events: Arc<Mutex<Vec<(JobEvent, Instant)>>> = Arc::default();
    let log = Arc::clone(&events);
    let observer: JobObserver = Arc::new(move |event| {
        log.lock()
            .expect("event log poisoned")
            .push((event, Instant::now()));
    });
    let with_observer = SweepConfig {
        manifest_path: Some(dir.join("manifest.csnp")),
        inflight_interval: Some(INFLIGHT),
        observer: Some(observer),
        ..SweepConfig::default()
    };
    let without_observer = SweepConfig {
        observer: None,
        ..with_observer.clone()
    };

    let n = scenarios.len();
    let t0 = Instant::now();
    let first = run_supervised(scenarios.clone(), &with_observer);
    let wall = t0.elapsed().as_secs_f64();
    let again = run_supervised(scenarios, &without_observer);
    std::fs::remove_dir_all(dir).expect("remove a sweep directory");
    let (first, again) = match (first, again) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            tally.record(false, || format!("sweep manifest unreadable: {e}"));
            return None;
        }
    };

    for (p, (a, b)) in first.outcomes.iter().zip(&again.outcomes).enumerate() {
        let same = match (&a.result, &b.result) {
            (Ok(a), Ok(b)) => {
                a.mean_error_over_time().is_finite() && encode_metrics(a) == encode_metrics(b)
            }
            _ => false,
        };
        tally.record(same, || {
            format!("point {p}: failed, or its resumed metrics differ")
        });
    }
    let skipped = (
        first.counters.points_skipped_on_resume,
        again.counters.points_skipped_on_resume,
    );
    tally.record(skipped == (0, n as u64), || {
        format!("points skipped on resume {skipped:?}, expected (0, {n})")
    });

    let log = events.lock().expect("event log poisoned");
    let started = |index: usize| {
        log.iter().find_map(|(e, t)| match e {
            JobEvent::Started { index: j, .. } if *j == index => Some(*t),
            _ => None,
        })
    };
    let point_walls: Vec<f64> = log
        .iter()
        .filter_map(|(e, done)| match e {
            JobEvent::Completed { index, .. } => {
                Some(done.duration_since(started(*index)?).as_secs_f64())
            }
            _ => None,
        })
        .collect();
    let workers = max_workers().min(n) as f64;
    Some(SweepStats {
        wall,
        idle_share: 1.0 - point_walls.iter().sum::<f64>() / (workers * wall),
        point_walls,
        checkpoints_written: first.counters.checkpoints_written,
        retries: first.counters.retries + again.counters.retries,
    })
}
