//! The benchmark's own contract: its names, its declaration in
//! `BENCHMARK.json`, its statistics, its verdicts, and every workload's
//! checks at a tiny size.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cocoa_e2ebench::catalog::{Better, EndToEnd, END_TO_END, PER_LAYER};
use cocoa_e2ebench::compare::{compare, verdict, Verdict};
use cocoa_e2ebench::host::HostStamp;
use cocoa_e2ebench::stats::{median, percentile, quartiles};
use cocoa_e2ebench::{render, run, Config, Outcome, Size, Workload};

fn all_names() -> Vec<&'static str> {
    Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect()
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let names = all_names();
    for name in &names {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "bad name {name:?}"
        );
        assert_eq!(
            names.iter().filter(|n| *n == name).count(),
            1,
            "{name} reused"
        );
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    assert!(PER_LAYER.len() <= 128);
}

#[test]
fn benchmark_json_declares_exactly_the_catalog() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let mut expected: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    expected.extend(END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        )
    }));
    expected.extend(PER_LAYER.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    }));
    for entry in &expected {
        assert!(
            json.contains(entry.as_str()),
            "BENCHMARK.json lacks {entry}"
        );
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        expected.len(),
        "BENCHMARK.json declares names the catalog does not have"
    );
}

#[test]
fn percentiles_are_nearest_rank_and_need_ten_samples_beyond() {
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&twenty, 50.0), Some(10.0));
    assert_eq!(percentile(&twenty, 90.0), None, "2 samples beyond p90");
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&hundred, 90.0), Some(90.0));
    assert_eq!(percentile(&hundred, 91.0), None, "9 samples beyond p91");
    assert_eq!(percentile(&hundred, 89.5), Some(90.0), "rank rounds up");
    assert_eq!(percentile(&[], 50.0), None);
    // The median is always reported, whatever the count.
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_pythons_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
}

#[test]
fn verdicts_follow_bound_and_spread() {
    let lower = EndToEnd {
        name: "t",
        unit: "s",
        better: Better::Lower,
        bound: 0.1,
    };
    let a = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98];
    let scaled = |k: f64| a.map(|v| v * k);
    assert_eq!(verdict(&a, &scaled(1.05), &lower), Verdict::Within);
    assert_eq!(verdict(&a, &scaled(1.2), &lower), Verdict::Worse);
    assert_eq!(verdict(&a, &scaled(0.5), &lower), Verdict::Within);
    let wide = [0.5, 1.5, 0.6, 1.4, 1.0, 0.9];
    assert_eq!(verdict(&a, &wide, &lower), Verdict::Unresolved);
    let higher = EndToEnd {
        better: Better::Higher,
        ..lower
    };
    assert_eq!(verdict(&a, &scaled(0.8), &higher), Verdict::Worse);
    // A wide spread is still resolved when every new run is better.
    let wide_but_better = [0.1, 0.5, 0.2, 0.4, 0.3, 0.45];
    assert_eq!(verdict(&a, &wide_but_better, &lower), Verdict::Within);
}

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-{tag}-{}", std::process::id()))
}

fn tiny(trace: bool, tag: &str) -> Config {
    Config {
        seed: 5,
        cap: Duration::from_secs(60),
        trace,
        size: Size::Tiny,
        scratch: scratch(tag),
    }
}

/// Runs a workload at the tiny size, untraced and traced; every check
/// passes and each run emits exactly the catalog's names for its mode.
fn workload_passes(workload: Workload) {
    for trace in [false, true] {
        let cfg = tiny(trace, &format!("{}-{trace}", workload.name()));
        let outcome = run(workload, &cfg);
        assert_eq!(outcome.tally.failed, 0, "{} trace={trace}", workload.name());
        assert!(outcome.tally.attempted > 0);
        assert!(!outcome.truncated, "the fixed work fits the cap");
        assert!(!cfg.scratch.exists(), "scratch directory left behind");
        let (record, result) =
            render(workload, &cfg, &outcome, &HostStamp::current()).expect("every metric measured");
        assert!(record.contains("\"kind\":\"e2e.record\""));
        let expected: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let emitted: Vec<&str> = result
            .split("\":{\"value\":")
            .filter_map(|chunk| chunk.rsplit('"').next())
            .collect();
        assert_eq!(&emitted[..emitted.len() - 1], &expected[..]);
        assert!(result.starts_with("{\"correct\":true,\"attempted\":"));
    }
}

#[test]
fn paper_bayes_checks_pass() {
    workload_passes(Workload::PaperBayes);
}

#[test]
fn paper_ekf_checks_pass() {
    workload_passes(Workload::PaperEkf);
}

#[test]
fn serve_mixed_checks_pass() {
    workload_passes(Workload::ServeMixed);
}

#[test]
fn sweep_checkpointed_checks_pass() {
    workload_passes(Workload::SweepCheckpointed);
}

#[test]
fn compare_judges_logged_runs_and_refuses_other_hosts() {
    let cfg = tiny(false, "compare");
    let host = HostStamp::current();
    let outcome = run(Workload::PaperEkf, &cfg);
    let (record, result) = render(Workload::PaperEkf, &cfg, &outcome, &host).expect("render");
    let log = format!("{record}\n{result}\n");
    let (table, all_within) = compare(&log, &log).expect("same host");
    assert!(all_within, "{table}");
    assert_eq!(table.lines().count(), 1 + END_TO_END.len());

    let other = HostStamp {
        nproc: host.nproc + 1,
        ..host.clone()
    };
    let (record, _) = render(Workload::PaperEkf, &cfg, &outcome, &other).expect("render");
    assert!(
        compare(&log, &record).is_err(),
        "different hosts must not compare"
    );

    let cut_short = Outcome {
        truncated: true,
        ..outcome
    };
    let (record, _) = render(Workload::PaperEkf, &cfg, &cut_short, &host).expect("render");
    assert!(record.contains("\"complete\":false"));
    assert!(
        compare(&log, &record).is_err(),
        "a run stopped at its cap must not compare"
    );
}

#[test]
fn the_cap_stops_the_fixed_work_and_marks_the_run() {
    let cfg = Config {
        cap: Duration::ZERO,
        ..tiny(false, "cap")
    };
    let outcome = run(Workload::PaperEkf, &cfg);
    assert!(outcome.truncated);
    assert_eq!(outcome.tally.failed, 0);
    assert_eq!(outcome.tally.attempted, 1, "only the first run");
}
