//! The four workloads and what they share: set-ups timed across the
//! measured loop, the `--seconds` cap on it, and the end-to-end metrics
//! computed from it.

pub(crate) mod paper;
pub(crate) mod serve;
pub(crate) mod sweep;

use std::time::Instant;

use crate::catalog::Values;
use crate::host::peak_rss_mib;
use crate::stats::median;
use crate::{Config, Outcome};

/// Set-ups timed per run; `setup_s` reports their median.
const SETUPS: usize = 11;

/// Times a workload's set-up [`SETUPS`] times, spread evenly over its
/// measured loop of `ops` operations. The first set-up comes before the
/// loop and its result is the one the run uses; later ones are dropped,
/// outside the timing, as soon as they are made. Spreading them out
/// means a slow phase of the host shorter than half the run moves
/// `setup_s` no more than it moves the loop's median.
pub(crate) struct Setups {
    ops: usize,
    walls: Vec<f64>,
}

impl Setups {
    pub(crate) fn new(ops: usize) -> Setups {
        Setups {
            ops,
            walls: Vec::with_capacity(SETUPS),
        }
    }

    /// Times one set-up and returns its result. A run calls this once,
    /// before its loop, for the set-up whose result it uses.
    pub(crate) fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = setup();
        self.walls.push(t0.elapsed().as_secs_f64());
        value
    }

    /// Before operation `i`: the set-ups that fall due. Set-up `j` falls
    /// before operation `j * ops / SETUPS`, so all of them are made
    /// before the last operation.
    pub(crate) fn before<T>(&mut self, i: usize, mut setup: impl FnMut() -> T) {
        while self.walls.len() < SETUPS && self.walls.len() * self.ops / SETUPS <= i {
            drop(self.time(&mut setup));
        }
    }

    /// Median set-up time in seconds.
    pub(crate) fn median_s(&self) -> f64 {
        median(&self.walls).unwrap_or(f64::NAN)
    }
}

/// Whether the `--seconds` cap stops the loop before operation `i`. The
/// first operation always runs; a loop stopped later marks the run as
/// truncated.
pub(crate) fn capped(i: usize, start: Instant, cfg: &Config, out: &mut Outcome) -> bool {
    let stop = i > 0 && start.elapsed() >= cfg.cap;
    if stop && !out.truncated {
        out.truncated = true;
        eprintln!(
            "e2e: stopped at the {:?} cap after {i} operations; this run's numbers do not compare with complete runs",
            cfg.cap
        );
    }
    stop
}

/// Records the end-to-end metrics of a measured loop. `batches` holds
/// `(operations, wall seconds)` per batch of work (a group of runs, a
/// block of requests, a sweep); `op_walls` the wall seconds of each
/// operation.
///
/// Throughput is the median of the batches' rates, not their total over
/// the loop: the host is shared, and a slow phase that covers less than
/// half of the batches then does not move the result.
pub(crate) fn end_to_end(
    values: &mut Values,
    setup_s: f64,
    batches: &[(usize, f64)],
    op_walls: &[f64],
) {
    let rates: Vec<f64> = batches
        .iter()
        .map(|&(ops, wall)| ops as f64 / wall)
        .collect();
    values.insert("setup_s", setup_s);
    values.insert("ops_per_s", median(&rates).unwrap_or(f64::NAN));
    values.insert("op_p50_ms", median(op_walls).map_or(f64::NAN, |s| s * 1e3));
    values.insert("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN));
}
