//! `paper_bayes` and `paper_ekf`: a fixed number of sequential runs of
//! the paper's world, one scenario seed after another, through
//! `runner::run`.

use std::ops::RangeInclusive;
use std::time::Instant;

use cocoa_core::prelude::MulticastProtocol;
use cocoa_core::runner;
use cocoa_core::scenario::Scenario;
use cocoa_localization::estimator::RfAlgorithm;
use cocoa_sim::time::SimDuration;

use super::{capped, end_to_end, Setups};
use crate::{layers, seed_base, Config, Outcome, Size, Workload};

/// Simulated length of the untimed warm-up run inside each set-up.
const WARM_UP: SimDuration = SimDuration::from_secs(60);

/// The workload's scenario for one seed: the paper defaults (50 robots,
/// 25 equipped, T = 100 s, MRMM, Bayes 2 m grid, 1800 s), with the EKF
/// over ODMRP for `paper_ekf`.
pub(crate) fn scenario(workload: Workload, size: Size, seed: u64) -> Scenario {
    let mut b = Scenario::builder();
    b.seed(seed);
    if size == Size::Tiny {
        b.robots(8)
            .equipped(4)
            .duration(SimDuration::from_secs(120));
    }
    if workload == Workload::PaperEkf {
        b.rf_algorithm(RfAlgorithm::Ekf)
            .multicast(MulticastProtocol::Odmrp);
    }
    b.build()
}

/// Mean localization error a correct run lands in. Over 60 Bayes and
/// 600 EKF scenario seeds at paper scale the errors spanned 9.3–14.6 m
/// (median 11.9 m) and 14.1–42.5 m (median 23.3 m), and one EKF seed
/// outside that sample reached 46.5 m; the bands leave room for tails
/// at least that long.
fn error_band(workload: Workload, size: Size) -> RangeInclusive<f64> {
    match (size, workload) {
        (Size::Paper, Workload::PaperBayes) => 5.0..=25.0,
        (Size::Paper, _) => 5.0..=70.0,
        (Size::Tiny, _) => 0.0..=200.0,
    }
}

/// The measured loop's fixed work: how many runs, and how many of them
/// make one batch of `ops_per_s`. About 10 s (Bayes) and 8 s (EKF) on
/// the 2-vCPU reference host, so a host twice as slow still finishes
/// within the 20 s cap; a `paper_bayes` batch is its whole loop.
fn work(workload: Workload, size: Size) -> (usize, usize) {
    match (size, workload) {
        (Size::Tiny, _) => (2, 2),
        (Size::Paper, Workload::PaperBayes) => (3, 3),
        (Size::Paper, _) => (64, 8),
    }
}

pub(crate) fn run(workload: Workload, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let base = seed_base(cfg.seed);
    let (runs, batch) = work(workload, cfg.size);
    let setup = || {
        let mut warm = scenario(workload, cfg.size, base);
        warm.duration = WARM_UP;
        std::hint::black_box(runner::run(&warm));
    };
    let start = Instant::now();
    let mut setups = Setups::new(runs);
    setups.time(setup);

    let band = error_band(workload, cfg.size);
    let mut walls = Vec::with_capacity(runs);
    for i in 0..runs {
        if capped(i, start, cfg, &mut out) {
            break;
        }
        setups.before(i, setup);
        let s = scenario(workload, cfg.size, base + i as u64);
        let t0 = Instant::now();
        let metrics = runner::run(&s);
        walls.push(t0.elapsed().as_secs_f64());
        let error = metrics.mean_error_over_time();
        let energy = metrics.energy.total_j();
        out.tally.record(
            band.contains(&error) && energy.is_finite() && energy > 0.0,
            || {
                format!(
                    "seed {}: mean error {error} m, team energy {energy} J",
                    s.seed
                )
            },
        );
    }
    let batches: Vec<(usize, f64)> = walls
        .chunks(batch)
        .map(|c| (c.len(), c.iter().sum()))
        .collect();
    end_to_end(&mut out.values, setups.median_s(), &batches, &walls);

    if cfg.trace {
        layers::probe(&scenario(workload, cfg.size, base), &cfg.scratch, &mut out);
    }
    out
}
