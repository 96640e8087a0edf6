//! Noise-aware performance-regression gate over BENCH snapshots.
//!
//! The `perf` binary writes flat-JSON metric snapshots (`BENCH_grid.json`,
//! `BENCH_snapshot.json`, `BENCH_estimator.json`, `BENCH_serve.json`). This
//! module turns a ring of such snapshots under `bench/history/` into a
//! regression gate:
//!
//! - `perf --record` merges the freshly written BENCH files into one history
//!   entry and prunes the ring to the most recent [`HISTORY_KEEP`] entries;
//! - `perf --check` compares the current BENCH files against the **median**
//!   of the history ring, metric by metric, and fails (non-zero exit) if any
//!   gated metric regresses beyond its per-metric relative tolerance.
//!
//! The median-of-history baseline plus generous per-metric tolerances make
//! the gate robust to the run-to-run noise of shared CI runners: a single
//! slow historic run cannot drag the baseline, and throughput metrics only
//! fail on large, sustained drops. Deterministic metrics (cell counts,
//! accuracy deltas, the `bit_identical` invariant) get tight tolerances —
//! they should not move at all without a deliberate change and a re-record.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use cocoa_core::tracefile::{parse_flat_object, JsonValue};
use cocoa_sim::files::write_atomic;

/// How many history entries the ring keeps on `--record`.
pub const HISTORY_KEEP: usize = 8;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better; regressions are drops below the baseline.
    HigherIsBetter,
    /// Smaller is better; regressions are rises above the baseline.
    LowerIsBetter,
    /// Tracked and reported but never gating. Used for metrics whose
    /// expected value is known to be unflattering until a planned fix
    /// lands.
    Informational,
}

/// One gated metric: its JSON key, direction, and relative tolerance.
///
/// The tolerance is relative to the baseline: a `HigherIsBetter` metric
/// fails when `current < baseline * (1 - tolerance)`, a `LowerIsBetter`
/// one when `current > baseline * (1 + tolerance)`.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// JSON key in the BENCH snapshot.
    pub key: &'static str,
    /// Which way the metric may move.
    pub direction: Direction,
    /// Relative tolerance before a move counts as a regression.
    pub tolerance: f64,
}

use Direction::{HigherIsBetter, Informational, LowerIsBetter};

/// The gate's metric table.
///
/// Throughput (`*_ops_per_sec`) and wall-clock metrics run on shared,
/// noisy machines and get wide tolerances — the gate is for catching
/// "the kernel got 2× slower", not 10% jitter. Deterministic shape
/// metrics (cell counts, accuracy deltas, `bit_identical`) are tight.
pub const SPECS: &[MetricSpec] = &[
    // --- BENCH_grid.json: throughput ---
    spec("grid_update_radial_ops_per_sec", HigherIsBetter, 0.5),
    spec("grid_kernel_scalar_ops_per_sec", HigherIsBetter, 0.5),
    spec("grid_kernel_simd_ops_per_sec", HigherIsBetter, 0.5),
    spec("grid_kernel_shared_ops_per_sec", HigherIsBetter, 0.5),
    spec("grid_window_sequential_ops_per_sec", HigherIsBetter, 0.5),
    spec("pdf_lookup_dense_ops_per_sec", HigherIsBetter, 0.5),
    // --- BENCH_grid.json: relative speedups (ratios of two timings taken
    // back to back on the same machine, so noise partially cancels) ---
    spec("grid_update_simd_speedup", HigherIsBetter, 0.35),
    // A later receiver of a beacon frame reads the distances the first
    // one stored. The ratio to a first receiver spread from 0.92 to 1.45
    // over 12 runs on a 2-vCPU host, as wide as the effect, so it is
    // tracked, not gated.
    spec("grid_update_shared_speedup", Informational, 0.0),
    // --- BENCH_grid.json: per-run set-up. The radial table samples each
    // bin on first lookup, so constructing it takes 1–4 µs; sampling
    // every bin up front again would read thousands of times that, so a
    // microsecond timing's noise gets a 10× tolerance.
    spec("calibrate_ms", LowerIsBetter, 1.0),
    spec("radial_setup_us", LowerIsBetter, 10.0),
    spec("radial_all_bins_ms", LowerIsBetter, 1.0),
    // The bytes of every bin's lane table once all are built. It is
    // deterministic, so its tolerance is tight: profiles sampled out to
    // the diagonal again, past their flat tails, would read about 5×.
    spec("radial_all_bins_kib", LowerIsBetter, 0.01),
    // --- BENCH_grid.json: one paper-scale window (75 frames × 25 grids)
    // applied in one batch on one worker and on every core. The
    // all-core time and the speedup depend on how many cores the host
    // has, and the one-worker time is the kernel rows' again, so all four
    // are tracked, not gated.
    spec("grid_window_batch_one_worker_ms", Informational, 0.0),
    spec("grid_window_batch_all_workers_ms", Informational, 0.0),
    spec("grid_window_batch_workers", Informational, 0.0),
    spec("grid_window_batch_speedup", Informational, 0.0),
    // --- BENCH_grid.json: deterministic shape ---
    spec("grid_dense_cells_per_window", LowerIsBetter, 0.01),
    spec("fig7_quick_wall_secs", LowerIsBetter, 1.0),
    // --- BENCH_estimator.json: quick-scale estimator-backend ablation.
    // The errors are deterministic for a fixed seed, but deliberate
    // algorithm tuning legitimately moves them — tolerances are loose so
    // only a substantial accuracy loss gates. The chaos row is
    // informational: fault interleavings shift with unrelated scheduling
    // changes.
    spec("estimator_bayes_error_m", LowerIsBetter, 0.15),
    spec("estimator_multilateration_error_m", LowerIsBetter, 0.3),
    spec("estimator_ekf_error_m", LowerIsBetter, 0.3),
    spec("estimator_ekf_chaos_error_m", Informational, 0.0),
    spec("estimator_ekf_chaos_outliers_rejected", Informational, 0.0),
    spec("estimator_quick_wall_secs", LowerIsBetter, 1.0),
    // --- BENCH_snapshot.json: the Fig. 9 family cold vs on one shared
    // calibration, the size of a time-zero capture, and the section
    // CRC's throughput (a return to a bytewise loop is −80%) ---
    spec("snapshot_bytes", LowerIsBetter, 0.02),
    spec("cold_wall_secs", LowerIsBetter, 1.0),
    spec("warm_wall_secs", LowerIsBetter, 1.0),
    spec("warm_speedup", HigherIsBetter, 0.35),
    spec("crc32_mb_per_sec", HigherIsBetter, 0.5),
    // Booleans map to 1.0/0.0; zero tolerance means any `false` against a
    // `true` baseline fails — runs on a shared calibration matching cold
    // runs bit for bit is an invariant, not a performance number.
    spec("bit_identical", HigherIsBetter, 0.0),
    // --- BENCH_serve.json: the cocoa-serve round trip. The cold leg is
    // one full run plus HTTP overhead; the cached leg must be served
    // straight from the results cache, so the cold/cached ratio collapses
    // toward 1 the moment the cache stops working — that ratio is the
    // gate (perf itself also asserts an absolute ≥5× floor). The cached
    // wall time alone is sub-millisecond scheduler noise, so it is
    // tracked but informational.
    spec("serve_cold_wall_secs", LowerIsBetter, 1.0),
    spec("serve_cached_wall_secs", Informational, 0.0),
    spec("serve_warm_wall_secs", LowerIsBetter, 1.0),
    spec("serve_cache_speedup", HigherIsBetter, 0.8),
    // Byte-identical cold vs cached bodies is an invariant, like
    // `bit_identical` above.
    spec("serve_bit_identical", HigherIsBetter, 0.0),
];

const fn spec(key: &'static str, direction: Direction, tolerance: f64) -> MetricSpec {
    MetricSpec {
        key,
        direction,
        tolerance,
    }
}

/// A flat metric map: key → numeric value (booleans as 1.0/0.0).
pub type Metrics = BTreeMap<String, f64>;

/// Parses one BENCH snapshot (flat JSON, possibly pretty-printed) into a
/// metric map. Booleans become 1.0/0.0; strings and nulls are skipped.
///
/// # Errors
///
/// Returns a human-readable message on malformed JSON.
pub fn parse_metrics(text: &str) -> Result<Metrics, String> {
    let obj = parse_flat_object(text)?;
    let mut out = Metrics::new();
    for (key, value) in obj {
        let num = match value {
            JsonValue::Num(n) => n,
            JsonValue::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
            JsonValue::Str(_) | JsonValue::Null => continue,
        };
        out.insert(key, num);
    }
    Ok(out)
}

/// Reads and merges the current BENCH files from `dir`.
///
/// Missing files are skipped (a partial bench run still checks what it
/// produced); an empty result is an error so `--check` cannot silently
/// pass with nothing to compare.
///
/// # Errors
///
/// Fails when no BENCH file could be read, or any present one is
/// malformed.
pub fn load_current(dir: &Path) -> Result<Metrics, String> {
    let mut merged = Metrics::new();
    let mut found = false;
    for name in [
        "BENCH_grid.json",
        "BENCH_snapshot.json",
        "BENCH_estimator.json",
        "BENCH_serve.json",
    ] {
        let path = dir.join(name);
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        found = true;
        let metrics = parse_metrics(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        merged.extend(metrics);
    }
    if !found {
        return Err(format!(
            "no BENCH_grid.json / BENCH_snapshot.json / BENCH_estimator.json / \
             BENCH_serve.json under {} — run `perf` first",
            dir.display()
        ));
    }
    Ok(merged)
}

/// Loads every `*.json` history entry under `dir`, sorted by file name.
///
/// A missing directory is an empty history (fresh repo), not an error.
///
/// # Errors
///
/// Fails on unreadable or malformed entries — a corrupt baseline should
/// be fixed or deleted, not silently ignored.
pub fn load_history(dir: &Path) -> Result<Vec<Metrics>, String> {
    let mut names: Vec<String> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".json"))
            .collect(),
        Err(_) => return Ok(Vec::new()),
    };
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let path = dir.join(&name);
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(parse_metrics(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(out)
}

/// Appends the current metrics as a new history entry and prunes the
/// ring to [`HISTORY_KEEP`] entries.
///
/// Entries are named `NNNN.json` with a monotonically increasing index,
/// so lexicographic order is chronological order.
///
/// # Errors
///
/// Fails on filesystem errors.
pub fn record(history_dir: &Path, current: &Metrics) -> Result<String, String> {
    fs::create_dir_all(history_dir).map_err(|e| format!("{}: {e}", history_dir.display()))?;
    let mut names: Vec<String> = fs::read_dir(history_dir)
        .map_err(|e| format!("{}: {e}", history_dir.display()))?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    let next_index = names
        .iter()
        .filter_map(|n| n.trim_end_matches(".json").parse::<u64>().ok())
        .max()
        .map_or(0, |m| m + 1);
    let name = format!("{next_index:04}.json");
    let mut text = String::from("{\n");
    let mut first = true;
    for (key, value) in current {
        if !first {
            text.push_str(",\n");
        }
        first = false;
        text.push_str(&format!("  \"{key}\": {value}"));
    }
    text.push_str("\n}\n");
    let path = history_dir.join(&name);
    write_atomic(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    names.push(name.clone());
    names.sort();
    while names.len() > HISTORY_KEEP {
        let victim = names.remove(0);
        let _ = fs::remove_file(history_dir.join(victim));
    }
    Ok(name)
}

/// The median of each key across the history entries. Keys missing from
/// some entries use the median of the entries that have them, so adding
/// a new metric does not need a flag day.
pub fn baseline(history: &[Metrics]) -> Metrics {
    let mut per_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for entry in history {
        for (key, value) in entry {
            per_key.entry(key).or_default().push(*value);
        }
    }
    per_key
        .into_iter()
        .map(|(key, mut values)| {
            values.sort_by(f64::total_cmp);
            let n = values.len();
            let median = if n % 2 == 1 {
                values[n / 2]
            } else {
                (values[n / 2 - 1] + values[n / 2]) / 2.0
            };
            (key.to_string(), median)
        })
        .collect()
}

/// One metric's verdict after comparison against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or improved).
    Pass,
    /// Regressed beyond tolerance — gates the check.
    Fail,
    /// Informational metric; reported, never gating.
    Info,
    /// No history entry has this metric yet.
    NoBaseline,
    /// The current BENCH files do not report this metric.
    Missing,
}

/// One row of the check report.
#[derive(Debug, Clone)]
pub struct MetricCheck {
    /// The metric key.
    pub key: &'static str,
    /// Current value, if present.
    pub current: Option<f64>,
    /// Median-of-history baseline, if any history has the key.
    pub baseline: Option<f64>,
    /// The spec's tolerance.
    pub tolerance: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The full report of one `--check` run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// One row per [`SPECS`] entry, in table order.
    pub rows: Vec<MetricCheck>,
    /// How many history entries fed the baseline.
    pub history_len: usize,
}

impl CheckReport {
    /// Whether the gate passes (no `Fail` rows).
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Fail)
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf check against median of {} history entr{}",
            self.history_len,
            if self.history_len == 1 { "y" } else { "ies" }
        );
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:>14} {:>7}  verdict",
            "metric", "current", "baseline", "tol"
        );
        for row in &self.rows {
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
            let verdict = match row.verdict {
                Verdict::Pass => "ok",
                Verdict::Fail => "REGRESSED",
                Verdict::Info => "info",
                Verdict::NoBaseline => "no baseline",
                Verdict::Missing => "missing",
            };
            let _ = writeln!(
                out,
                "{:<36} {:>14} {:>14} {:>6.0}%  {verdict}",
                row.key,
                fmt(row.current),
                fmt(row.baseline),
                row.tolerance * 100.0
            );
        }
        out
    }
}

/// Compares `current` against the median of `history` under [`SPECS`].
///
/// Metrics absent from all history pass as `NoBaseline` (a new metric
/// must not fail the first run after it is added); metrics absent from
/// `current` pass as `Missing` (a partial bench run checks what it has).
pub fn check(current: &Metrics, history: &[Metrics]) -> CheckReport {
    let base = baseline(history);
    let rows = SPECS
        .iter()
        .map(|spec| {
            let cur = current.get(spec.key).copied();
            let bas = base.get(spec.key).copied();
            let verdict = match (spec.direction, cur, bas) {
                (Direction::Informational, _, _) => Verdict::Info,
                (_, None, _) => Verdict::Missing,
                (_, _, None) => Verdict::NoBaseline,
                (Direction::HigherIsBetter, Some(c), Some(b)) => {
                    if c < b * (1.0 - spec.tolerance) {
                        Verdict::Fail
                    } else {
                        Verdict::Pass
                    }
                }
                (Direction::LowerIsBetter, Some(c), Some(b)) => {
                    if c > b * (1.0 + spec.tolerance) {
                        Verdict::Fail
                    } else {
                        Verdict::Pass
                    }
                }
            };
            MetricCheck {
                key: spec.key,
                current: cur,
                baseline: bas,
                tolerance: spec.tolerance,
                verdict,
            }
        })
        .collect();
    CheckReport {
        rows,
        history_len: history.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> Metrics {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn parses_pretty_printed_bench_json_with_booleans() {
        let m = parse_metrics(
            "{\n  \"warm_speedup\": 1.44,\n  \"bit_identical\": true,\n  \"note\": \"x\"\n}\n",
        )
        .unwrap();
        assert_eq!(m.get("warm_speedup"), Some(&1.44));
        assert_eq!(m.get("bit_identical"), Some(&1.0));
        assert!(!m.contains_key("note"), "strings are not metrics");
    }

    #[test]
    fn baseline_is_the_per_key_median() {
        let history = vec![
            metrics(&[("a", 1.0), ("b", 10.0)]),
            metrics(&[("a", 100.0), ("b", 20.0)]),
            metrics(&[("a", 3.0)]),
        ];
        let base = baseline(&history);
        // Odd count: middle value; the 100.0 outlier does not drag it.
        assert_eq!(base.get("a"), Some(&3.0));
        // Even count (b missing from one entry): mean of the middle two.
        assert_eq!(base.get("b"), Some(&15.0));
    }

    #[test]
    fn matching_current_passes() {
        let history = vec![metrics(&[
            ("grid_kernel_simd_ops_per_sec", 50_000.0),
            ("bit_identical", 1.0),
        ])];
        let report = check(&history[0].clone(), &history);
        assert!(
            report.passed(),
            "identical metrics must pass:\n{}",
            report.render()
        );
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let history = vec![
            metrics(&[("grid_kernel_simd_ops_per_sec", 50_000.0)]),
            metrics(&[("grid_kernel_simd_ops_per_sec", 52_000.0)]),
            metrics(&[("grid_kernel_simd_ops_per_sec", 48_000.0)]),
        ];
        // 3× slowdown: far beyond the 50% tolerance.
        let current = metrics(&[("grid_kernel_simd_ops_per_sec", 16_000.0)]);
        let report = check(&current, &history);
        assert!(!report.passed());
        let row = report
            .rows
            .iter()
            .find(|r| r.key == "grid_kernel_simd_ops_per_sec")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Fail);
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn lower_is_better_gates_on_rises() {
        let history = vec![metrics(&[("snapshot_bytes", 160_000.0)])];
        let shrunk = metrics(&[("snapshot_bytes", 150_000.0)]);
        assert!(check(&shrunk, &history).passed(), "shrinking is fine");
        let grown = metrics(&[("snapshot_bytes", 200_000.0)]);
        assert!(!check(&grown, &history).passed(), "25% growth beats 2% tol");
    }

    #[test]
    fn informational_metric_never_fails() {
        let history = vec![metrics(&[("serve_cached_wall_secs", 0.0004)])];
        let tanked = metrics(&[("serve_cached_wall_secs", 0.4)]);
        let report = check(&tanked, &history);
        assert!(report.passed());
        let row = report
            .rows
            .iter()
            .find(|r| r.key == "serve_cached_wall_secs")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Info);
    }

    #[test]
    fn bit_identical_false_fails_against_true_baseline() {
        let history = vec![metrics(&[("bit_identical", 1.0)])];
        let broken = metrics(&[("bit_identical", 0.0)]);
        assert!(!check(&broken, &history).passed());
    }

    #[test]
    fn new_metric_without_history_passes() {
        let history = vec![metrics(&[("unrelated", 1.0)])];
        let current = metrics(&[("grid_kernel_simd_ops_per_sec", 50_000.0)]);
        let report = check(&current, &history);
        assert!(report.passed());
        let row = report
            .rows
            .iter()
            .find(|r| r.key == "grid_kernel_simd_ops_per_sec")
            .unwrap();
        assert_eq!(row.verdict, Verdict::NoBaseline);
    }

    #[test]
    fn record_rotates_the_ring() {
        let dir = std::env::temp_dir().join(format!(
            "cocoa-regress-ring-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let m = metrics(&[("a", 1.0), ("bit_identical", 1.0)]);
        for _ in 0..(HISTORY_KEEP + 3) {
            record(&dir, &m).unwrap();
        }
        let history = load_history(&dir).unwrap();
        assert_eq!(history.len(), HISTORY_KEEP, "ring prunes to the cap");
        // Round-trip: the stored entries parse back to the same metrics.
        assert_eq!(history[0], m);
        // Indices keep increasing, so the newest survives pruning.
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        assert_eq!(
            names.last().unwrap(),
            &format!("{:04}.json", HISTORY_KEEP + 2)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_history_dir_is_a_fresh_start() {
        let dir = Path::new("/nonexistent/cocoa-regress-history");
        assert!(load_history(dir).unwrap().is_empty());
    }
}
