//! Performance smoke benchmark: times the localization hot kernels and a
//! quick-scale Figure 7 run, prints a summary, and writes the numbers to
//! `BENCH_grid.json` for CI to archive.
//!
//! ```sh
//! cargo run --release -p cocoa-bench --bin perf
//! ```
//!
//! A single fast pass (a few seconds end to end), intended as a regression
//! tripwire: the JSON records the calibration campaign's time against
//! its per-draw reference and how many of its samples it computed
//! exactly, the radial table's set-up times and the bytes of every bin's
//! profile, ops/s for
//! the Bayesian grid update, the lane kernels (one receiver of a beacon
//! frame, and a later receiver reading the frame's stored distances)
//! against their scalar reference, the dense PDF-table lookup, one
//! paper-scale window of beacons applied in one batch on one worker and
//! on every core, the wall time of the quick-scale Figure 7 comparison,
//! and (in `BENCH_snapshot.json`) the snapshot CRC-32's throughput.
//!
//! The tripwire is armed by the regression gate
//! (see [`cocoa_bench::regress`]):
//!
//! - `perf --record` additionally merges the fresh BENCH files into the
//!   `bench/history/` ring (pruned to the last 8 entries);
//! - `perf --check` skips the benchmarks and compares the BENCH files on
//!   disk against the median of the history ring, exiting non-zero if any
//!   gated metric regressed beyond its per-metric tolerance;
//! - `--history DIR` overrides the history directory for both.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use cocoa_bench::regress;

use cocoa_core::experiment::{estimator, fig7, fig9, run_rows, ExperimentScale};
use cocoa_core::metrics::RunMetrics;
use cocoa_core::runner::{run, Calibration, SimRun};
use cocoa_core::serve::{client, ServeConfig, Server};
use cocoa_localization::batch::BeaconLog;
use cocoa_localization::bayes::radial_constraints_for_grid;
use cocoa_localization::estimator::WindowedRfEstimator;
use cocoa_localization::grid::{BeaconField, GridConfig, PositionGrid};
use cocoa_net::calibration::{
    calibrate, calibrate_reference, calibration_exact_draws, CalibrationConfig,
};
use cocoa_net::channel::RfChannel;
use cocoa_net::geometry::{Area, Point};
use cocoa_net::rssi::Dbm;
use cocoa_sim::rng::SeedSplitter;
use cocoa_sim::snapshot::crc32;
use cocoa_sim::telemetry::Telemetry;
use cocoa_sim::time::SimDuration;

/// Runs `f` repeatedly until at least ~200 ms have elapsed (after one
/// warm-up call) and returns ops per second.
fn ops_per_sec(mut f: impl FnMut()) -> f64 {
    f();
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= 0.2 {
            return iters as f64 / dt;
        }
        iters = (iters * 4).max((0.25 / dt.max(1e-9)) as u64);
    }
}

fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2} Mops/s", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1} kops/s", v / 1e3)
    } else {
        format!("{v:.1} ops/s")
    }
}

/// Compares the BENCH files on disk against the history ring and prints
/// the verdict table. Returns failure if any gated metric regressed.
fn check_only(history_dir: &Path) -> ExitCode {
    let current = match regress::load_current(Path::new(".")) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let history = match regress::load_history(history_dir) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if history.is_empty() {
        eprintln!(
            "error: no history under {} — run `perf --record` first",
            history_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let report = regress::check(&current, &history);
    print!("{}", report.render());
    if report.passed() {
        println!("perf check: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf check: REGRESSION detected");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut do_check = false;
    let mut do_record = false;
    let mut history_dir = PathBuf::from("bench/history");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => do_check = true,
            "--record" => do_record = true,
            "--history" => match args.next() {
                Some(dir) => history_dir = PathBuf::from(dir),
                None => {
                    eprintln!("error: --history needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!("usage: perf [--record] [--check] [--history DIR]");
                return ExitCode::FAILURE;
            }
        }
    }
    if do_check {
        return check_only(&history_dir);
    }

    // The calibration campaign every run starts with, against its
    // per-draw reference (nine alternating rounds, medians), and the
    // radial table a run builds on it: constructed (all a run pays before
    // its first beacon) and with every bin's profile sampled (what a run
    // pays once its robots have heard every bin). Medians of nine.
    let channel = RfChannel::default();
    let time_secs = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let median = |mut secs: Vec<f64>| {
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    };
    let median_secs = |f: &mut dyn FnMut()| median((0..9).map(|_| time_secs(f)).collect());
    let campaign = |reference: bool| {
        let mut rng = SeedSplitter::new(1).stream("cal", 0);
        let cfg = CalibrationConfig::default();
        std::hint::black_box(if reference {
            calibrate_reference(&channel, &cfg, &mut rng)
        } else {
            calibrate(&channel, &cfg, &mut rng)
        });
    };
    let (fast_secs, reference_secs): (Vec<f64>, Vec<f64>) = (0..9)
        .map(|_| {
            (
                time_secs(&mut || campaign(false)),
                time_secs(&mut || campaign(true)),
            )
        })
        .unzip();
    let calibrate_ms = 1e3 * median(fast_secs);
    let calibrate_reference_ms = 1e3 * median(reference_secs);
    let calibrate_speedup = calibrate_reference_ms / calibrate_ms;
    let exact_before = calibration_exact_draws();
    let mut cal_rng = SeedSplitter::new(1).stream("cal", 0);
    let table = calibrate(&channel, &CalibrationConfig::default(), &mut cal_rng);
    let calibrate_exact_draws = calibration_exact_draws() - exact_before;
    let grid_cfg = GridConfig::new(Area::square(200.0), 2.0);
    let radial_setup_us = 1e6
        * median_secs(&mut || {
            std::hint::black_box(radial_constraints_for_grid(&table, &grid_cfg));
        });
    let radial_all_bins_ms = 1e3
        * median_secs(&mut || {
            let radial = radial_constraints_for_grid(&table, &grid_cfg);
            for (bin, _) in table.entries() {
                std::hint::black_box(radial.get(bin));
            }
        });
    // The bytes those profiles hold (`val` and `del` of every bin's lane
    // table), a function of the calibration, the grid and the floor alone.
    let all_bins = radial_constraints_for_grid(&table, &grid_cfg);
    let radial_all_bins_kib = table
        .entries()
        .map(|(bin, _)| {
            let lane = all_bins.get(bin).expect("calibrated bin").lane_table();
            std::mem::size_of_val(lane.val()) + std::mem::size_of_val(lane.del())
        })
        .sum::<usize>() as f64
        / 1024.0;
    let radial = radial_constraints_for_grid(&table, &grid_cfg);
    let beacon = Point::new(90.0, 110.0);

    // Bayesian grid update, 100x100 cells, one beacon frame per call,
    // observed by an estimator with a window open.
    let mut est = WindowedRfEstimator::new(grid_cfg);
    est.begin_window();
    let mut rng = SeedSplitter::new(2).stream("bench", 0);
    let mut field = BeaconField::new(beacon);
    let grid_radial = ops_per_sec(|| {
        let rssi = channel.sample_rssi(20.0, &mut rng);
        field.reset(beacon);
        est.observe_beacon(&table, &radial, &mut field, rssi, None, 0.0);
    });

    // The lane kernels against the scalar reference loop they must match
    // bit for bit, isolated at the grid level (100×100 cells, one
    // representative floored profile, beacon positions rotated so the work
    // is not degenerate). The one-receiver update starts a new frame each
    // call, so it computes the distances and stores them in the field;
    // the shared-field update is a later receiver of a frame, which reads
    // them.
    let profile = radial
        .lookup(Dbm::new(-70.0))
        .expect("calibrated bin")
        .clone();
    let beacons = [
        Point::new(90.0, 110.0),
        Point::new(120.0, 80.0),
        Point::new(60.0, 60.0),
        Point::new(140.0, 150.0),
    ];
    let bench_kernel = |apply: &mut dyn FnMut(&mut PositionGrid, usize)| {
        let mut g = PositionGrid::new(grid_cfg);
        let mut i = 0usize;
        ops_per_sec(|| {
            apply(&mut g, i % 4);
            i += 1;
            if i.is_multiple_of(16) {
                g.reset_uniform();
            }
        })
    };
    let kernel_scalar = bench_kernel(&mut |g, b| {
        g.apply_radial_constraint_reference(beacons[b], &profile);
    });
    let kernel_simd = bench_kernel(&mut |g, b| {
        field.reset(beacons[b]);
        g.apply_radial_constraint(&mut field, &profile);
    });
    let mut shared = beacons.map(BeaconField::new);
    for f in &mut shared {
        PositionGrid::new(grid_cfg).apply_radial_constraint(f, &profile);
    }
    let kernel_shared = bench_kernel(&mut |g, b| {
        g.apply_radial_constraint(&mut shared[b], &profile);
    });
    let simd_speedup = kernel_simd / kernel_scalar;
    let shared_speedup = kernel_shared / kernel_simd;

    // Window-level: 4 beacons applied sequentially (one posterior
    // load/store + renormalize each).
    let mut g_seq = PositionGrid::new(grid_cfg);
    let window_sequential = ops_per_sec(|| {
        g_seq.reset_uniform();
        for &b in &beacons {
            field.reset(b);
            g_seq.apply_radial_constraint(&mut field, &profile);
        }
    });

    let dense_cells_per_window = 4 * PositionGrid::new(grid_cfg).num_cells();

    // One paper-scale window in one batch: 25 equipped robots send 3
    // beacons each, and every one of the 25 Bayes robots hears each of
    // the 75 frames at the RSSI its distance draws. Applied on one worker
    // and on as many as the host has cores; medians of five.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut place = SeedSplitter::new(3).stream("bench", 1);
    let mut at = || {
        Point::new(
            rand::Rng::gen_range(&mut place, 0.0..200.0),
            rand::Rng::gen_range(&mut place, 0.0..200.0),
        )
    };
    let receivers: Vec<Point> = (0..25).map(|_| at()).collect();
    let mut heard = SeedSplitter::new(3).stream("bench", 2);
    let mut window = Vec::new();
    for _ in 0..75 {
        let sender = at();
        for (slot, &rx) in receivers.iter().enumerate() {
            let rssi = channel.sample_rssi(sender.distance_to(rx).max(1.0), &mut heard);
            if let Some((bin, _)) = radial.resolve(rssi) {
                window.push((sender, slot, bin));
            }
        }
    }
    let flush_ms = |workers: usize| {
        let mut grids: Vec<PositionGrid> = (0..25).map(|_| PositionGrid::new(grid_cfg)).collect();
        let mut fields: Vec<BeaconField> = (0..workers).map(|_| BeaconField::default()).collect();
        let mut log = BeaconLog::new();
        let mut ms: Vec<f64> = (0..5)
            .map(|_| {
                grids.iter_mut().for_each(PositionGrid::reset_uniform);
                for &(sender, slot, bin) in &window {
                    log.push(sender, slot, bin);
                }
                let batches = grids.iter_mut().map(|g| Some(g.batch())).collect();
                let t0 = Instant::now();
                log.apply(batches, &radial, &mut fields);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let flush_one_ms = flush_ms(1);
    let flush_all_ms = flush_ms(cores);
    let flush_speedup = flush_one_ms / flush_all_ms;
    let flush_updates = window.len();

    // PDF-table lookup over a 64-value RSSI ramp.
    let rssis: Vec<Dbm> = (0..64).map(|i| Dbm::new(-95.0 + f64::from(i))).collect();
    let lookup_dense = ops_per_sec(|| {
        let hits = rssis.iter().filter(|&&r| table.lookup(r).is_some()).count();
        assert!(hits > 0);
    }) * rssis.len() as f64;

    // Quick-scale Figure 7 (CoCoA vs RF-only vs odometry comparison) as an
    // end-to-end smoke run through the bounded sweep executor.
    let t0 = Instant::now();
    let fig7_runs = run_rows(&fig7(ExperimentScale::quick()).rows);
    let fig7_secs = t0.elapsed().as_secs_f64();
    let fig7_cocoa = fig7_runs.get("fig7.v2.cocoa").mean_error_over_time();
    let fig7_rf = fig7_runs.get("fig7.v2.rf-only").mean_error_over_time();

    // Quick-scale estimator-backend ablation: the summary rows feed the
    // regression gate, so a change that silently degrades one RF backend
    // (or stops exercising the outlier gate under faults) trips `--check`.
    let t0 = Instant::now();
    let est_runs = run_rows(&estimator(ExperimentScale::quick()).rows);
    let est_secs = t0.elapsed().as_secs_f64();
    let est_error = |key: &str| est_runs.get(key).mean_error_over_time();
    let est_bayes = est_error("estimator.bayes.none");
    let est_lateration = est_error("estimator.multilateration.none");
    let est_ekf = est_error("estimator.ekf.none");
    let est_ekf_chaos = est_error("estimator.ekf.chaos");
    let est_ekf_chaos_gated = est_runs
        .get("estimator.ekf.chaos")
        .robustness
        .outlier_beacons_rejected;

    // Shared-calibration sweep: the default beacon-period family (Fig. 9,
    // paper periods 10/50/100/300 s) executed point by point, cold vs on
    // one shared calibration. Both paths run serially so the numbers
    // measure the calibration campaign saved per point, independent of
    // the machine's core count. The sweep uses a small team at full
    // mission length — the setup-bound shard shape that distributed sweep
    // workers run — because per-run setup is fixed, so its share (and the
    // speedup) shrinks as team size grows. `snapshot_bytes` records the
    // size of point 0's time-zero capture.
    let snap_scale = ExperimentScale {
        seed: 42,
        duration: SimDuration::from_secs(400),
        num_robots: 4,
    };
    let periods_s = [10u64, 50, 100, 300];
    let scenarios: Vec<_> = fig9(snap_scale, &periods_s)
        .rows
        .into_iter()
        .map(|r| r.scenario)
        .collect();
    let t0 = Instant::now();
    let cold: Vec<RunMetrics> = scenarios.iter().map(run).collect();
    let snap_cold_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let calibration = Arc::new(Calibration::new(&scenarios[0]));
    let snap_setup_secs = t0.elapsed().as_secs_f64();
    let warm: Vec<RunMetrics> = scenarios
        .iter()
        .map(|s| {
            SimRun::with_calibration(s, Telemetry::off(), Arc::clone(&calibration))
                .finish()
                .0
        })
        .collect();
    let snap_warm_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        cold, warm,
        "runs on a shared calibration must be bit-identical to cold runs"
    );
    let snap_speedup = snap_cold_secs / snap_warm_secs;
    let snapshot_bytes = SimRun::new(&scenarios[0], Telemetry::off()).capture().len();

    // The section checksum behind every capture, manifest store and load:
    // the median of nine passes over a fixed, deterministically filled
    // 4 MiB buffer.
    let crc_buf: Vec<u8> = (0u32..4 << 20)
        .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
        .collect();
    let mut crc_secs: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(crc32(std::hint::black_box(&crc_buf)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crc_secs.sort_by(f64::total_cmp);
    let crc32_mb_per_sec = crc_buf.len() as f64 / crc_secs[crc_secs.len() / 2] / 1e6;

    // Serve round trip: an in-process `cocoa-serve` server on an
    // ephemeral port, timed through the bundled HTTP client (the exact
    // `--submit` code path). Cold executes the run; an identical
    // resubmission must come from the results cache with a byte-identical
    // body; a spec with the same seed at a different beacon period reuses
    // the cached calibration instead of cold-starting. The cached time is
    // the median of several hits, so one slow round trip cannot fail the
    // gate. The ≥5× floor on the cold/cached ratio is deliberately loose —
    // a cache hit skips the whole simulation, so anything near the floor
    // means the cache broke.
    let serve_spec = "{\"seed\": 42, \"robots\": 10, \"equipped\": 5, \
                      \"duration_s\": 300, \"period_s\": 100}";
    let serve_warm_spec = "{\"seed\": 42, \"robots\": 10, \"equipped\": 5, \
                           \"duration_s\": 300, \"period_s\": 50}";
    let server = Server::start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("serve bench server starts");
    let serve_addr = server.local_addr().to_string();
    let t0 = Instant::now();
    let serve_cold = client::submit(&serve_addr, serve_spec).expect("cold submit");
    let serve_cold_secs = t0.elapsed().as_secs_f64();
    const SERVE_HITS: usize = 9;
    let mut hits: Vec<(f64, _)> = (0..SERVE_HITS)
        .map(|_| {
            let t0 = Instant::now();
            let hit = client::submit(&serve_addr, serve_spec).expect("cached submit");
            (t0.elapsed().as_secs_f64(), hit)
        })
        .collect();
    hits.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (serve_cached_secs, serve_cached) = hits.swap_remove(SERVE_HITS / 2);
    assert!(hits
        .iter()
        .all(|(_, hit)| hit.cache_status() == Some("hit") && hit.body == serve_cached.body));
    let t0 = Instant::now();
    let serve_warm = client::submit(&serve_addr, serve_warm_spec).expect("warm submit");
    let serve_warm_secs = t0.elapsed().as_secs_f64();
    assert_eq!(serve_cold.status, 200, "{}", serve_cold.body_str());
    assert_eq!(serve_cold.cache_status(), Some("miss"));
    assert_eq!(serve_cached.cache_status(), Some("hit"));
    assert_eq!(serve_warm.status, 200, "{}", serve_warm.body_str());
    let serve_warm_forks = server
        .counters()
        .into_iter()
        .find(|(name, _)| *name == "serve.warm_forks")
        .map_or(0, |(_, v)| v);
    assert_eq!(serve_warm_forks, 1, "warm spec must reuse the calibration");
    let serve_bit_identical = serve_cold.body == serve_cached.body;
    assert!(serve_bit_identical, "cached body must be byte-identical");
    let serve_cache_speedup = serve_cold_secs / serve_cached_secs.max(1e-9);
    assert!(
        serve_cache_speedup >= 5.0,
        "cache hit only {serve_cache_speedup:.1}x faster than cold \
         ({serve_cold_secs:.4} s vs {serve_cached_secs:.4} s)"
    );
    drop(server);

    println!(
        "calibration:           {calibrate_ms:.2} ms against {calibrate_reference_ms:.2} ms per \
         draw ({calibrate_speedup:.2}x, {calibrate_exact_draws} exact draws)"
    );
    println!(
        "radial table:          {radial_setup_us:.1} us, every bin sampled \
         {radial_all_bins_ms:.2} ms ({radial_all_bins_kib:.0} KiB)"
    );
    println!("grid update (radial):  {}", fmt_ops(grid_radial));
    println!("grid kernel (scalar):  {}", fmt_ops(kernel_scalar));
    println!(
        "grid kernel (simd):    {}  ({simd_speedup:.2}x)",
        fmt_ops(kernel_simd)
    );
    println!(
        "grid kernel (shared):  {}  ({shared_speedup:.2}x one receiver)",
        fmt_ops(kernel_shared)
    );
    println!("grid window (4 seq):   {}", fmt_ops(window_sequential));
    println!(
        "paper window batch:    {flush_updates} updates in {flush_one_ms:.1} ms on 1 worker, \
         {flush_all_ms:.1} ms on {cores} ({flush_speedup:.2}x)"
    );
    println!("pdf lookup (dense):    {}", fmt_ops(lookup_dense));
    println!("fig7 quick scale:      {fig7_secs:.2} s");
    println!("fig7 headline @ 2 m/s: CoCoA {fig7_cocoa:.1} m vs RF-only {fig7_rf:.1} m");
    println!(
        "estimator ablation:    bayes {est_bayes:.2} m / wls {est_lateration:.2} m / \
         ekf {est_ekf:.2} m (chaos {est_ekf_chaos:.2} m, {est_ekf_chaos_gated} gated) \
         in {est_secs:.2} s"
    );
    println!(
        "shared calibration:    cold {snap_cold_secs:.2} s, warm {snap_warm_secs:.2} s \
         ({snap_speedup:.2}x, setup {snap_setup_secs:.3} s, snapshot {snapshot_bytes} B)"
    );
    println!("crc32 (4 MiB):         {crc32_mb_per_sec:.0} MB/s");
    println!(
        "serve round trip:      cold {serve_cold_secs:.3} s, cached {serve_cached_secs:.4} s \
         ({serve_cache_speedup:.0}x), warm {serve_warm_secs:.3} s"
    );

    let json = format!(
        "{{\n  \"grid_update_radial_ops_per_sec\": {grid_radial:.1},\n  \
         \"grid_kernel_scalar_ops_per_sec\": {kernel_scalar:.1},\n  \
         \"grid_kernel_simd_ops_per_sec\": {kernel_simd:.1},\n  \
         \"grid_kernel_shared_ops_per_sec\": {kernel_shared:.1},\n  \
         \"grid_update_simd_speedup\": {simd_speedup:.2},\n  \
         \"grid_update_shared_speedup\": {shared_speedup:.2},\n  \
         \"calibrate_ms\": {calibrate_ms:.3},\n  \
         \"calibrate_reference_ms\": {calibrate_reference_ms:.3},\n  \
         \"calibrate_speedup\": {calibrate_speedup:.2},\n  \
         \"calibrate_exact_draws\": {calibrate_exact_draws},\n  \
         \"radial_setup_us\": {radial_setup_us:.1},\n  \
         \"radial_all_bins_ms\": {radial_all_bins_ms:.3},\n  \
         \"radial_all_bins_kib\": {radial_all_bins_kib:.1},\n  \
         \"grid_window_sequential_ops_per_sec\": {window_sequential:.1},\n  \
         \"grid_dense_cells_per_window\": {dense_cells_per_window},\n  \
         \"grid_window_batch_one_worker_ms\": {flush_one_ms:.3},\n  \
         \"grid_window_batch_all_workers_ms\": {flush_all_ms:.3},\n  \
         \"grid_window_batch_workers\": {cores},\n  \
         \"grid_window_batch_speedup\": {flush_speedup:.2},\n  \
         \"pdf_lookup_dense_ops_per_sec\": {lookup_dense:.1},\n  \
         \"fig7_quick_wall_secs\": {fig7_secs:.3}\n}}\n"
    );
    std::fs::write("BENCH_grid.json", &json).expect("write BENCH_grid.json");
    println!("wrote BENCH_grid.json");

    let snap_json = format!(
        "{{\n  \"sweep_points\": {},\n  \
         \"duration_secs\": {},\n  \
         \"num_robots\": {},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"setup_wall_secs\": {snap_setup_secs:.3},\n  \
         \"cold_wall_secs\": {snap_cold_secs:.3},\n  \
         \"warm_wall_secs\": {snap_warm_secs:.3},\n  \
         \"warm_speedup\": {snap_speedup:.2},\n  \
         \"crc32_mb_per_sec\": {crc32_mb_per_sec:.1},\n  \
         \"bit_identical\": true\n}}\n",
        scenarios.len(),
        snap_scale.duration.as_secs_f64(),
        snap_scale.num_robots,
    );
    std::fs::write("BENCH_snapshot.json", &snap_json).expect("write BENCH_snapshot.json");
    println!("wrote BENCH_snapshot.json");

    let est_json = format!(
        "{{\n  \"estimator_bayes_error_m\": {est_bayes:.4},\n  \
         \"estimator_multilateration_error_m\": {est_lateration:.4},\n  \
         \"estimator_ekf_error_m\": {est_ekf:.4},\n  \
         \"estimator_ekf_chaos_error_m\": {est_ekf_chaos:.4},\n  \
         \"estimator_ekf_chaos_outliers_rejected\": {est_ekf_chaos_gated},\n  \
         \"estimator_quick_wall_secs\": {est_secs:.3}\n}}\n"
    );
    std::fs::write("BENCH_estimator.json", &est_json).expect("write BENCH_estimator.json");
    println!("wrote BENCH_estimator.json");

    let serve_json = format!(
        "{{\n  \"serve_cold_wall_secs\": {serve_cold_secs:.4},\n  \
         \"serve_cached_wall_secs\": {serve_cached_secs:.5},\n  \
         \"serve_warm_wall_secs\": {serve_warm_secs:.4},\n  \
         \"serve_cache_speedup\": {serve_cache_speedup:.1},\n  \
         \"serve_bit_identical\": {serve_bit_identical}\n}}\n"
    );
    std::fs::write("BENCH_serve.json", &serve_json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    if do_record {
        let current = match regress::load_current(Path::new(".")) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        match regress::record(&history_dir, &current) {
            Ok(name) => println!("recorded {}", history_dir.join(name).display()),
            Err(e) => {
                eprintln!("error: cannot record history: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
