//! Telemetry acceptance tests: observation must not perturb the
//! simulation, traces must be reproducible, and the trace must carry
//! enough information to rebuild the headline metrics exactly.

use cocoa_core::prelude::*;
use cocoa_core::tracefile::TraceFile;
use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
use cocoa_sim::time::SimDuration;

fn scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .seed(seed)
        .robots(10)
        .equipped(5)
        .duration(SimDuration::from_secs(120))
        .beacon_period(SimDuration::from_secs(30))
        .grid_resolution(6.0)
        .build()
}

fn faulty_scenario(seed: u64) -> Scenario {
    let mut s = scenario(seed);
    s.faults = FaultPlan::preset("chaos", s.duration, s.num_robots).expect("preset exists");
    s.validate().expect("valid scenario");
    s
}

#[test]
fn identical_seeds_give_byte_identical_traces() {
    let s = scenario(42);
    let (_, t1) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Full));
    let (_, t2) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Full));
    // Spans are wall-clock and excluded; everything else must match byte
    // for byte.
    assert_eq!(t1.to_jsonl(false), t2.to_jsonl(false));
}

#[test]
fn different_seeds_give_different_traces() {
    let (_, t1) = run_with_telemetry(&scenario(1), Telemetry::new(TelemetryLevel::Full));
    let (_, t2) = run_with_telemetry(&scenario(2), Telemetry::new(TelemetryLevel::Full));
    assert_ne!(t1.to_jsonl(false), t2.to_jsonl(false));
}

#[test]
fn histograms_have_zero_observer_effect() {
    // Histogram recording must be invisible to the simulation AND to the
    // deterministic trace: with histograms on vs off, RunMetrics and the
    // wall-clock-free JSONL are byte-identical across every mesh backend
    // and under fault injection. Hist lines ride only the `to_jsonl(true)`
    // trailer, next to the span report.
    use cocoa_multicast::protocol::MulticastProtocol;
    let mut variants = Vec::new();
    for protocol in [
        MulticastProtocol::Flood,
        MulticastProtocol::Odmrp,
        MulticastProtocol::Mrmm,
    ] {
        let mut s = scenario(11);
        s.multicast = protocol;
        s.validate().expect("valid scenario");
        variants.push(s);
    }
    variants.push(faulty_scenario(11));
    for s in variants {
        let mut dark = Telemetry::new(TelemetryLevel::Full);
        dark.set_histograms(false);
        let (m_off, t_off) = run_with_telemetry(&s, dark);
        let (m_on, t_on) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Full));
        assert_eq!(
            m_on, m_off,
            "histograms changed RunMetrics ({:?})",
            s.multicast
        );
        assert_eq!(
            t_on.to_jsonl(false),
            t_off.to_jsonl(false),
            "histograms changed the deterministic trace ({:?})",
            s.multicast
        );
        // And the instrumented side actually measured something.
        let populated = t_on
            .histograms()
            .sorted()
            .iter()
            .any(|(_, h, _)| h.count() > 0);
        assert!(populated, "instrumented run recorded no histogram samples");
        assert!(
            t_off
                .histograms()
                .sorted()
                .iter()
                .all(|(_, h, _)| h.count() == 0),
            "set_histograms(false) must record nothing"
        );
    }
}

#[test]
fn exposition_export_round_trips_from_a_real_run() {
    use cocoa_sim::telemetry::export::{parse_exposition, MetricsSnapshot};
    let (_, t) = run_with_telemetry(&scenario(42), Telemetry::new(TelemetryLevel::Full));
    let text = MetricsSnapshot::from_telemetry(&t).to_exposition();
    let families = parse_exposition(&text).expect("exported text must satisfy our own lint");
    // The run instruments at least the six core distributions plus span
    // durations; each must survive the round trip with samples intact.
    let hist_families: Vec<_> = families.iter().filter(|f| !f.buckets.is_empty()).collect();
    assert!(
        hist_families.len() >= 6,
        "expected >= 6 histogram families, got {}",
        hist_families.len()
    );
    assert!(
        families
            .iter()
            .any(|f| f.name.starts_with("cocoa_traffic_")),
        "counters must be exported alongside histograms"
    );
}

#[test]
fn folded_stacks_conserve_span_profiler_totals_exactly() {
    use cocoa_sim::telemetry::export::fold_spans;
    let (_, t) = run_with_telemetry(&scenario(42), Telemetry::new(TelemetryLevel::Full));
    let report = t.spans().report();
    assert!(!report.is_empty(), "a full-telemetry run must record spans");
    let totals: Vec<(&str, u128)> = report.iter().map(|s| (s.name, s.total_ns)).collect();
    let folded = fold_spans(&totals);
    // Per-span conservation: a span's profiler total equals its folded
    // self time plus the folded lines of all stacks nesting under it.
    for stat in &report {
        let attributed: u128 = folded
            .iter()
            .filter(|(stack, _)| {
                stack.ends_with(&format!(";{}", stat.name))
                    || stack == stat.name
                    || stack.contains(&format!(";{};", stat.name))
                    || stack.starts_with(&format!("{};", stat.name))
            })
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(
            attributed, stat.total_ns,
            "span {} lost time in the fold",
            stat.name
        );
    }
    // Global conservation: the flamegraph's grand total is the root's
    // profiler total (everything nests under run.total).
    let grand: u128 = folded.iter().map(|(_, v)| *v).sum();
    let root = report
        .iter()
        .find(|s| s.name == "run.total")
        .expect("run.total span");
    assert_eq!(grand, root.total_ns);
}

#[test]
fn observation_does_not_perturb_the_run() {
    // The whole point of the read-only telemetry design: metrics from an
    // instrumented run equal metrics from a dark run, bit for bit.
    for s in [scenario(7), faulty_scenario(7)] {
        let dark = run(&s);
        for level in [
            TelemetryLevel::Counters,
            TelemetryLevel::Timeline,
            TelemetryLevel::Full,
        ] {
            let (observed, _) = run_with_telemetry(&s, Telemetry::new(level));
            assert_eq!(observed, dark, "telemetry level {level} changed the run");
        }
    }
}

#[test]
fn trace_reconstructs_error_and_energy_curves_exactly() {
    let s = scenario(9);
    let (metrics, t) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Timeline));
    let trace = TraceFile::parse(&t.to_jsonl(false)).expect("valid trace");
    let curve = trace.team_error_curve();
    assert_eq!(curve.len(), metrics.error_series.len());
    for (rebuilt, original) in curve.iter().zip(&metrics.error_series) {
        assert_eq!(rebuilt.0, original.t_s, "sample times diverge");
        assert_eq!(
            rebuilt.1, original.mean_error_m,
            "mean error diverges at t = {} s",
            original.t_s
        );
        assert_eq!(rebuilt.2 as usize, original.robots);
    }
    // Energy: the final sample's cumulative ledger must match the final
    // report's total for robots that were sampled at the same instant.
    let energy = trace.team_energy_curve();
    assert_eq!(energy.len(), metrics.error_series.len());
    let (_, last_j) = *energy.last().expect("samples exist");
    let total_j = metrics.energy.total_j();
    assert!(
        (last_j - total_j).abs() < 1e-6,
        "trace energy {last_j} J vs metrics {total_j} J"
    );
}

#[test]
fn full_trace_round_trips_through_the_parser() {
    let s = faulty_scenario(11);
    let (_, t) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Full));
    let trace = TraceFile::parse(&t.to_jsonl(true)).expect("valid trace");
    assert_eq!(trace.meta.events_emitted, t.events_emitted());
    assert_eq!(trace.meta.dropped, 0);
    assert_eq!(trace.events.len() as u64, t.events_emitted());
    // The chaos preset must leave visible fingerprints in the stream.
    let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.as_str()).collect();
    for expected in [
        "window_start",
        "beacon_tx",
        "beacon_rx",
        "fix",
        "fault",
        "team_sample",
    ] {
        assert!(kinds.contains(&expected), "no {expected} events in trace");
    }
    // Counters must be exported and include every subsystem prefix.
    for prefix in ["traffic.", "mesh.", "engine.", "radio.", "telemetry."] {
        assert!(
            trace.counters.iter().any(|(n, _)| n.starts_with(prefix)),
            "no {prefix} counters"
        );
    }
}

#[test]
fn span_report_attributes_the_run() {
    let s = scenario(5);
    let (_, t) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Full));
    let spans = t.spans();
    let coverage = spans
        .coverage("run.total")
        .expect("run.total span recorded");
    assert!(
        coverage >= 0.95,
        "run.* phases only cover {:.1}% of run.total",
        coverage * 100.0
    );
}

#[test]
fn bounded_telemetry_counts_what_it_drops() {
    let s = scenario(3);
    let (_, t) = run_with_telemetry(&s, Telemetry::with_capacity(TelemetryLevel::Full, 64));
    assert!(t.events_emitted() > 64, "run emits more than the bound");
    assert_eq!(t.events().count(), 64, "ring buffer holds the bound");
    assert_eq!(
        t.dropped_events(),
        t.events_emitted() - 64,
        "every evicted event is counted"
    );
    // The drop count survives into the exported trace and its counters.
    let trace = TraceFile::parse(&t.to_jsonl(false)).expect("valid trace");
    assert_eq!(trace.meta.dropped, t.dropped_events());
    let dropped = trace
        .counters
        .iter()
        .find(|(n, _)| n == "telemetry.events_dropped")
        .map(|(_, v)| *v);
    assert_eq!(dropped, Some(t.dropped_events()));
}

#[test]
fn posterior_entropy_is_computed_only_when_recorded() {
    use cocoa_localization::grid::entropy_passes;
    // With the watchdog disarmed, only telemetry reads a posterior's
    // entropy: the `run.entropy_frac` histogram and the timeline samples.
    let mut s = scenario(42);
    s.entropy_watchdog_frac = 1.0;
    s.validate().expect("valid scenario");

    let before = entropy_passes();
    run_with_telemetry(&s, Telemetry::off());
    assert_eq!(
        entropy_passes() - before,
        0,
        "a run that records nothing evaluated a posterior's entropy"
    );

    let before = entropy_passes();
    let (_, t) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Full));
    let passes = entropy_passes() - before;
    let counter = |name: &str| {
        t.counters()
            .get(name)
            .unwrap_or_else(|| panic!("counter {name}"))
    };
    // A posterior state begins at an RF robot's uniform prior, at each
    // window's reset and at each applied beacon; nothing else writes the
    // cells in a fault-free run.
    let rf_robots = (s.num_robots - s.num_equipped) as u64;
    let states =
        counter("estimator.bayes.beacons_applied") + counter("estimator.bayes.windows") + rf_robots;
    assert!(passes > 0, "a Full run records the entropy");
    assert!(
        passes <= states,
        "{passes} entropy passes for at most {states} posterior states"
    );
}

// ---------------------------------------------------------------------------
// Golden-seed regression: the `world/` refactor must leave the pinned-seed
// ODMRP path bit-identical — both the `RunMetrics` value and the full-level
// JSONL trace. The golden files were generated at the pre-refactor HEAD
// (commit 32f1d9a) and are compared byte for byte. Regenerate deliberately
// with:
//
// ```sh
// COCOA_REGEN_GOLDEN=1 cargo test -p cocoa-core --test telemetry golden
// ```
//
// Counter lines with a `mesh.<backend>.` prefix are stripped before the
// trace comparison: the per-backend counter export is additive telemetry
// introduced by the refactor itself and carries no simulation state.

use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned scenario: the standard telemetry test scenario run over
/// plain ODMRP.
fn golden_odmrp_scenario() -> Scenario {
    Scenario::builder()
        .seed(42)
        .robots(10)
        .equipped(5)
        .duration(SimDuration::from_secs(120))
        .beacon_period(SimDuration::from_secs(30))
        .grid_resolution(6.0)
        .multicast(MulticastProtocol::Odmrp)
        .build()
}

/// Drops `mesh.<backend>.*` / `estimator.<backend>.*` counter lines
/// (additive, refactor-era) so the remaining trace must match the
/// pre-refactor bytes exactly.
fn strip_backend_counters(trace: &str) -> String {
    let mut out = String::with_capacity(trace.len());
    for line in trace.lines() {
        let is_backend_counter = line.starts_with("{\"kind\":\"counter\"")
            && [
                "mesh.flood.",
                "mesh.odmrp.",
                "mesh.mrmm.",
                "grid.",
                "estimator.",
            ]
            .iter()
            .any(|p| line.contains(&format!("\"name\":\"{p}")));
        if !is_backend_counter {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Byte comparison with a readable failure: reports the first divergent
/// line instead of dumping both multi-hundred-KB documents.
fn assert_same_text(actual: &str, golden: &str, what: &str) {
    if actual == golden {
        return;
    }
    let mut a = actual.lines();
    let mut g = golden.lines();
    let mut line_no = 1usize;
    loop {
        match (a.next(), g.next()) {
            (Some(x), Some(y)) if x == y => line_no += 1,
            (Some(x), Some(y)) => panic!(
                "{what} diverges from the pre-refactor golden at line {line_no}:\n  golden: {y}\n  actual: {x}"
            ),
            (Some(x), None) => panic!("{what} has extra content at line {line_no}: {x}"),
            (None, Some(y)) => panic!("{what} is truncated at line {line_no}; golden continues: {y}"),
            (None, None) => panic!("{what} differs from the golden in line endings only"),
        }
    }
}

/// Compares `text` against the pinned golden file, or rewrites the pin when
/// `COCOA_REGEN_GOLDEN` is set.
fn check_golden(file: &str, text: &str, what: &str) {
    let path = golden_dir().join(file);
    if std::env::var_os("COCOA_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); regenerate with COCOA_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_same_text(text, &golden, what);
}

#[test]
fn golden_odmrp_metrics_and_trace_survive_the_world_refactor() {
    let s = golden_odmrp_scenario();
    let (metrics, t) = run_with_telemetry(&s, Telemetry::new(TelemetryLevel::Full));
    check_golden(
        "odmrp_seed42_metrics.txt",
        &format!("{metrics:#?}\n"),
        "ODMRP RunMetrics",
    );
    check_golden(
        "odmrp_seed42_trace.jsonl",
        &strip_backend_counters(&t.to_jsonl(false)),
        "ODMRP full trace",
    );
}

#[test]
fn golden_odmrp_entropy_histogram_is_pinned() {
    // The goldens hold no `hist` lines, so this pins one whole run's
    // `run.entropy_frac` histogram. The literals were captured from the
    // implementation that recomputed the entropy on every read; caching it
    // per posterior state must not move a bit.
    let (_, t) = run_with_telemetry(
        &golden_odmrp_scenario(),
        Telemetry::new(TelemetryLevel::Full),
    );
    let h = t
        .histograms()
        .get("run.entropy_frac")
        .expect("registered histogram");
    assert_eq!(h.count(), 600);
    assert_eq!(h.min().to_bits(), 0x3e23_4715_1052_9f10);
    assert_eq!(h.max().to_bits(), 0x3fef_ffff_ffff_ffca);
    assert_eq!(h.sum().to_bits(), 0x4067_4427_61e6_d7c6);
    let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
    assert_eq!(
        buckets,
        [
            (1, 27),
            (18, 1),
            (130, 28),
            (132, 54),
            (133, 2),
            (134, 27),
            (136, 1),
            (137, 29),
            (138, 55),
            (139, 27),
            (141, 1),
            (142, 3),
            (145, 82),
            (146, 2),
            (147, 27),
            (148, 1),
            (149, 30),
            (150, 55),
            (151, 29),
            (152, 2),
            (153, 30),
            (154, 29),
            (155, 28),
            (156, 6),
            (157, 2),
            (158, 1),
            (159, 6),
            (160, 15),
        ]
    );
}

#[test]
fn golden_default_metrics_survive_the_world_refactor() {
    // The default mesh configuration (MRMM mode). Its trace may gain
    // refactor-era `mesh_prune` events, but the metrics must stay
    // bit-identical because prune bookkeeping consumes no randomness.
    let s = scenario(42);
    let metrics = run(&s);
    check_golden(
        "default_seed42_metrics.txt",
        &format!("{metrics:#?}\n"),
        "default-path RunMetrics",
    );
}

/// Every `grid.*` and `estimator.<backend>.*` counter of one
/// Counters-level run of `s`, sorted by name, and how many robots the run
/// rebooted.
fn backend_counters(s: &Scenario) -> (Vec<(&'static str, u64)>, Option<u64>) {
    let (_, t) = run_with_telemetry(s, Telemetry::new(TelemetryLevel::Counters));
    let counters = t
        .counters()
        .sorted()
        .into_iter()
        .filter(|(name, _)| name.starts_with("grid.") || name.starts_with("estimator."))
        .collect();
    (counters, t.counters().get("robustness.reboots"))
}

#[test]
fn backend_counters_are_pinned() {
    // The golden trace strips these lines (`strip_backend_counters`), so
    // this test is what pins their values: one small run per backend,
    // and chaos runs for the two backends with counters of their own. The
    // preset's reboot hits robot 0, which is equipped, so the chaos runs
    // also crash and reboot robot 9, which runs an estimator.
    use cocoa_localization::estimator::RfAlgorithm;
    use cocoa_sim::time::SimTime;
    let plain = |algorithm| {
        let mut s = scenario(42);
        s.rf_algorithm = algorithm;
        s
    };
    let chaos = |algorithm| {
        let mut s = faulty_scenario(7);
        s.rf_algorithm = algorithm;
        let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
        s.faults
            .schedule(at(50), Fault::Crash { robot: 9 })
            .schedule(at(80), Fault::Reboot { robot: 9 });
        s.validate().expect("valid scenario");
        s
    };
    let bayes: &[(&str, u64)] = &[
        ("estimator.bayes.beacons_applied", 284),
        ("estimator.bayes.beacons_rejected_outlier", 0),
        ("estimator.bayes.beacons_seen", 284),
        ("estimator.bayes.fixes", 20),
        ("estimator.bayes.flat_windows", 0),
        ("estimator.bayes.windows", 20),
        ("grid.cells_touched", 328_304),
        ("grid.kernel.simd", 284),
    ];
    let multilateration: &[(&str, u64)] = &[
        ("estimator.multilateration.beacons_applied", 284),
        ("estimator.multilateration.beacons_rejected_outlier", 0),
        ("estimator.multilateration.beacons_seen", 284),
        ("estimator.multilateration.fixes", 20),
        ("estimator.multilateration.flat_windows", 0),
        ("estimator.multilateration.windows", 20),
    ];
    let ekf: &[(&str, u64)] = &[
        ("estimator.ekf.beacons_applied", 239),
        ("estimator.ekf.beacons_rejected_outlier", 35),
        ("estimator.ekf.beacons_seen", 274),
        ("estimator.ekf.fixes", 20),
        ("estimator.ekf.flat_windows", 0),
        ("estimator.ekf.updates_applied", 239),
        ("estimator.ekf.updates_gated", 31),
        ("estimator.ekf.windows", 20),
    ];
    let bayes_chaos: &[(&str, u64)] = &[
        ("estimator.bayes.beacons_applied", 136),
        ("estimator.bayes.beacons_rejected_outlier", 2),
        ("estimator.bayes.beacons_seen", 138),
        ("estimator.bayes.fixes", 15),
        ("estimator.bayes.flat_windows", 0),
        ("estimator.bayes.windows", 19),
        ("grid.cells_touched", 157_216),
        ("grid.kernel.simd", 136),
    ];
    let ekf_chaos: &[(&str, u64)] = &[
        ("estimator.ekf.beacons_applied", 134),
        ("estimator.ekf.beacons_rejected_outlier", 4),
        ("estimator.ekf.beacons_seen", 138),
        ("estimator.ekf.fixes", 15),
        ("estimator.ekf.flat_windows", 0),
        ("estimator.ekf.updates_applied", 134),
        ("estimator.ekf.updates_gated", 3),
        ("estimator.ekf.windows", 19),
    ];
    let runs = [
        (plain(RfAlgorithm::Bayes), 0, bayes),
        (plain(RfAlgorithm::Multilateration), 0, multilateration),
        (plain(RfAlgorithm::Ekf), 0, ekf),
        (chaos(RfAlgorithm::Bayes), 2, bayes_chaos),
        (chaos(RfAlgorithm::Ekf), 2, ekf_chaos),
    ];
    for (s, reboots, expected) in runs {
        let what = format!("{} (faults: {})", s.rf_algorithm, !s.faults.is_empty());
        let (counters, rebooted) = backend_counters(&s);
        assert_eq!(rebooted, Some(reboots), "{what}");
        assert_eq!(counters, expected, "{what}");
    }
}
