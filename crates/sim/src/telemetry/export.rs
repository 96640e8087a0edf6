//! Dependency-free metrics export: Prometheus text exposition and
//! collapsed-stack (folded) span profiles.
//!
//! [`MetricsSnapshot`] is a point-in-time view of a run's counters,
//! histograms and gauges, detached from the bus so CLIs can aggregate
//! several sources (a run's telemetry plus supervisor gauges) before
//! writing. [`MetricsSnapshot::to_exposition`] renders the Prometheus text
//! format by hand — the build environment has no client library — and
//! [`parse_exposition`] is the matching strict parser, used as an in-repo
//! `promtool`-style lint so CI can validate what we emit without external
//! tooling.
//!
//! [`fold_spans`] converts span totals into the folded `stack;frames N`
//! format consumed by inferno and speedscope, attributing each span's
//! *self time* (total minus direct children) so frame subtrees sum exactly
//! to the profiler's totals.

use std::fmt::Write as _;

use super::hist::HistSnapshot;
use super::Telemetry;

/// One metric family kind in an exposition document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonic counter (`_total` suffix).
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Bucketed distribution (`_bucket`/`_sum`/`_count` series).
    Histogram,
}

impl FamilyKind {
    fn as_str(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

/// A point-in-time bundle of metrics ready for export.
#[derive(Debug, Default)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// An empty snapshot to aggregate into.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures every counter and histogram currently on a telemetry bus
    /// (wall-clock histograms included — the exposition format is a
    /// monitoring surface, not a determinism surface).
    pub fn from_telemetry(t: &Telemetry) -> Self {
        let mut snap = MetricsSnapshot::new();
        for (name, value) in t.counters().sorted() {
            snap.push_counter(name, value);
        }
        for (name, hist, _wall) in t.histograms().sorted() {
            snap.push_hist(name, hist.snapshot());
        }
        snap
    }

    /// Adds a counter sample (dotted names welcome; sanitized on export).
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_owned(), value));
    }

    /// Adds a gauge sample.
    pub fn push_gauge(&mut self, name: &str, value: f64) {
        self.gauges.push((name.to_owned(), value));
    }

    /// Adds a histogram snapshot.
    pub fn push_hist(&mut self, name: &str, hist: HistSnapshot) {
        self.hists.push((name.to_owned(), hist));
    }

    /// Number of histogram families in the snapshot.
    pub fn hist_families(&self) -> usize {
        self.hists.len()
    }

    /// Renders the Prometheus text exposition format: `# HELP`/`# TYPE`
    /// headers, `_total`-suffixed counters, gauges, and full cumulative
    /// histogram series ending in `le="+Inf"`. Deterministic for a given
    /// snapshot; families render sorted by name within each kind.
    pub fn to_exposition(&self) -> String {
        let mut out = String::new();
        let mut counters = self.counters.clone();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in &counters {
            let metric = format!("{}_total", metric_name(name));
            let _ = writeln!(out, "# HELP {metric} Telemetry counter {name}.");
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {value}");
        }
        let mut gauges = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in &gauges {
            let metric = metric_name(name);
            let _ = writeln!(out, "# HELP {metric} Gauge {name}.");
            let _ = writeln!(out, "# TYPE {metric} gauge");
            let _ = writeln!(out, "{metric} {value}");
        }
        let mut hists: Vec<&(String, HistSnapshot)> = self.hists.iter().collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, hist) in hists {
            let metric = metric_name(name);
            let _ = writeln!(out, "# HELP {metric} Distribution of {name}.");
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let mut cumulative = 0u64;
            for (le, count) in hist.ascending() {
                cumulative += count;
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count);
            let _ = writeln!(
                out,
                "{metric}_sum {}",
                if hist.count == 0 { 0.0 } else { hist.sum }
            );
            let _ = writeln!(out, "{metric}_count {}", hist.count);
        }
        out
    }
}

/// Sanitizes a dotted counter name into a Prometheus metric name:
/// `cocoa_` prefix, every non-`[a-zA-Z0-9_]` byte becomes `_`.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(6 + name.len());
    out.push_str("cocoa_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// One parsed metric family from an exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFamily {
    /// Metric family name (without `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Declared kind.
    pub kind: FamilyKind,
    /// Plain samples `(value)` for counters/gauges; for histograms the
    /// `_count` value.
    pub value: f64,
    /// Histogram buckets as `(le, cumulative count)`, `+Inf` last (empty
    /// for counters and gauges).
    pub buckets: Vec<(f64, f64)>,
    /// Histogram `_sum` (0 for counters and gauges).
    pub sum: f64,
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Strict parser for the subset of the Prometheus text format that
/// [`MetricsSnapshot::to_exposition`] emits — the in-repo `promtool` lint.
///
/// Validates: every sample is preceded by a `# TYPE` for its family;
/// metric names are well-formed; values parse; histogram bucket series
/// are cumulative (non-decreasing), ordered by ascending `le`, terminated
/// by `le="+Inf"`, and consistent with `_count`.
pub fn parse_exposition(text: &str) -> Result<Vec<ParsedFamily>, String> {
    let mut families: Vec<ParsedFamily> = Vec::new();
    let mut types: Vec<(String, FamilyKind)> = Vec::new();
    let kind_of = |types: &[(String, FamilyKind)], name: &str| -> Option<FamilyKind> {
        types.iter().find(|(n, _)| n == name).map(|&(_, k)| k)
    };
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {n}: TYPE without a name"))?;
            let kind = match parts.next() {
                Some("counter") => FamilyKind::Counter,
                Some("gauge") => FamilyKind::Gauge,
                Some("histogram") => FamilyKind::Histogram,
                other => return Err(format!("line {n}: unknown TYPE {other:?}")),
            };
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid metric name '{name}'"));
            }
            if kind_of(&types, name).is_some() {
                return Err(format!("line {n}: duplicate TYPE for '{name}'"));
            }
            types.push((name.to_owned(), kind));
            if kind == FamilyKind::Histogram {
                families.push(ParsedFamily {
                    name: name.to_owned(),
                    kind,
                    value: 0.0,
                    buckets: Vec::new(),
                    sum: 0.0,
                });
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and comments
        }
        // Sample line: name[{labels}] value
        let (name_labels, value_str) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {n}: unparseable value '{value_str}'"))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (name_labels, None),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid metric name '{name}'"));
        }
        // Resolve the family: histogram series carry suffixes.
        let (family, series) = if let Some(f) = name.strip_suffix("_bucket") {
            (f, "bucket")
        } else if let Some(f) = name
            .strip_suffix("_sum")
            .filter(|f| kind_of(&types, f) == Some(FamilyKind::Histogram))
        {
            (f, "sum")
        } else if let Some(f) = name
            .strip_suffix("_count")
            .filter(|f| kind_of(&types, f) == Some(FamilyKind::Histogram))
        {
            (f, "count")
        } else {
            (name, "plain")
        };
        let kind = kind_of(&types, family)
            .ok_or_else(|| format!("line {n}: sample '{name}' has no preceding TYPE"))?;
        match (kind, series) {
            (FamilyKind::Histogram, "bucket") => {
                let labels =
                    labels.ok_or_else(|| format!("line {n}: _bucket without an le label"))?;
                let le_str = labels
                    .strip_prefix("le=\"")
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: malformed le label '{labels}'"))?;
                let le = if le_str == "+Inf" {
                    f64::INFINITY
                } else {
                    le_str
                        .parse()
                        .map_err(|_| format!("line {n}: unparseable le '{le_str}'"))?
                };
                let fam = families
                    .iter_mut()
                    .rfind(|f| f.name == family)
                    .expect("histogram family registered at TYPE");
                if let Some(&(prev_le, prev_count)) = fam.buckets.last() {
                    if le <= prev_le {
                        return Err(format!("line {n}: le series not ascending for '{family}'"));
                    }
                    if value < prev_count {
                        return Err(format!(
                            "line {n}: bucket counts not cumulative for '{family}'"
                        ));
                    }
                }
                fam.buckets.push((le, value));
            }
            (FamilyKind::Histogram, "sum") => {
                let fam = families
                    .iter_mut()
                    .rfind(|f| f.name == family)
                    .expect("histogram family registered at TYPE");
                fam.sum = value;
            }
            (FamilyKind::Histogram, "count") => {
                let fam = families
                    .iter_mut()
                    .rfind(|f| f.name == family)
                    .expect("histogram family registered at TYPE");
                fam.value = value;
            }
            (FamilyKind::Histogram, _) => {
                return Err(format!(
                    "line {n}: bare sample '{name}' for histogram family"
                ));
            }
            (FamilyKind::Counter, "plain") => {
                if !name.ends_with("_total") {
                    return Err(format!("line {n}: counter '{name}' must end in _total"));
                }
                families.push(ParsedFamily {
                    name: family.to_owned(),
                    kind,
                    value,
                    buckets: Vec::new(),
                    sum: 0.0,
                });
            }
            (FamilyKind::Gauge, "plain") => {
                families.push(ParsedFamily {
                    name: family.to_owned(),
                    kind,
                    value,
                    buckets: Vec::new(),
                    sum: 0.0,
                });
            }
            (k, s) => {
                return Err(format!("line {n}: {s} series on {} family", k.as_str()));
            }
        }
    }
    // Histogram closing checks.
    for fam in &families {
        if fam.kind != FamilyKind::Histogram {
            continue;
        }
        match fam.buckets.last() {
            Some(&(le, count)) if le.is_infinite() => {
                if count != fam.value {
                    return Err(format!(
                        "histogram '{}': +Inf bucket {count} != _count {}",
                        fam.name, fam.value
                    ));
                }
            }
            _ => {
                return Err(format!(
                    "histogram '{}': bucket series must end with le=\"+Inf\"",
                    fam.name
                ));
            }
        }
        if !fam.sum.is_finite() {
            return Err(format!("histogram '{}': non-finite _sum", fam.name));
        }
    }
    Ok(families)
}

/// Folds span totals into collapsed stacks.
///
/// The span naming convention (see [`super::SpanProfiler`]) defines the
/// hierarchy: `run.total` is the root, other `run.*` spans are its direct
/// children, `event.*` spans nest under `run.event_loop`, and the
/// subsystem spans nest under the event category whose handler invokes
/// them (`channel.sample` under `event.transmit`, `mesh.handle` under
/// `event.tx_end`, `grid.fix` under `event.robot_window_end`,
/// `mobility.step` under `event.move_tick` — unknown names, and
/// `grid.update`, which runs between events, fall back to
/// `run.event_loop`). Each output line carries
/// the span's *self* time — its total minus its direct children's totals,
/// in exact integer arithmetic (saturating at zero if children overlap) —
/// so that summing a frame's subtree reproduces the profiler's total for
/// that span exactly whenever the data nests consistently.
///
/// Input: `(name, total_ns)` pairs. Output: `(stack, self_ns)` lines with
/// `;`-separated frames, zero-valued lines omitted, sorted by stack.
pub fn fold_spans(spans: &[(&str, u128)]) -> Vec<(String, u128)> {
    let has = |name: &str| spans.iter().any(|(n, _)| *n == name);
    let parent = |name: &str| -> Option<&'static str> {
        // Preferred parent first; fall back outward so partial span sets
        // (filtered traces, other instrumentation) still fold sensibly.
        let candidates: &[&str] = match name {
            "run.total" => return None,
            n if n.starts_with("run.") => &["run.total"],
            "channel.sample" => &["event.transmit", "run.event_loop", "run.total"],
            "channel.sample_reply" => &["event.mesh_reply", "run.event_loop", "run.total"],
            "channel.sample_rebroadcast" => {
                &["event.mesh_rebroadcast", "run.event_loop", "run.total"]
            }
            // The logged beacons are applied between events.
            "grid.update" => &["run.event_loop", "run.total"],
            "mesh.handle" => &["event.tx_end", "run.event_loop", "run.total"],
            "grid.fix" => &["event.robot_window_end", "run.event_loop", "run.total"],
            "mobility.step" => &["event.move_tick", "run.event_loop", "run.total"],
            _ => &["run.event_loop", "run.total"],
        };
        candidates.iter().copied().find(|c| has(c))
    };
    let stack_of = |name: &str| -> String {
        let mut frames = vec![name.to_owned()];
        let mut cur = name.to_owned();
        while let Some(p) = parent(&cur) {
            frames.push(p.to_owned());
            cur = p.to_owned();
        }
        frames.reverse();
        frames.join(";")
    };
    let mut out = Vec::new();
    for &(name, total) in spans {
        let children: u128 = spans
            .iter()
            .filter(|(n, _)| *n != name && parent(n) == Some(name))
            .map(|&(_, t)| t)
            .sum();
        let self_ns = total.saturating_sub(children);
        if self_ns > 0 {
            out.push((stack_of(name), self_ns));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Renders folded stacks as the textual format inferno/speedscope read:
/// one `stack;frames value` line each.
pub fn render_folded(folded: &[(String, u128)]) -> String {
    let mut out = String::new();
    for (stack, value) in folded {
        let _ = writeln!(out, "{stack} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::hist::Histogram;
    use super::super::{Telemetry, TelemetryLevel};
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("traffic.fixes", 42);
        snap.push_counter("mesh.data_delivered", 7);
        snap.push_counter("estimator.ekf.beacons_rejected_outlier", 5);
        snap.push_counter("estimator.ekf.updates_gated", 2);
        snap.push_gauge("sweep.points_total", 3.0);
        let mut h = Histogram::new();
        for x in [0.5, 1.0, 2.0, -3.0, 0.0] {
            h.record(x);
        }
        snap.push_hist("run.robot_error_m", h.snapshot());
        snap
    }

    #[test]
    fn exposition_round_trips_through_the_validator() {
        let text = sample_snapshot().to_exposition();
        let families = parse_exposition(&text).expect("own output must validate");
        assert_eq!(families.len(), 6);
        // The estimator-backend namespace survives the sanitizer and the
        // strict parser like every other dotted counter name.
        let outliers = families
            .iter()
            .find(|f| f.name == "cocoa_estimator_ekf_beacons_rejected_outlier_total")
            .unwrap();
        assert_eq!(outliers.value, 5.0);
        let hist = families
            .iter()
            .find(|f| f.kind == FamilyKind::Histogram)
            .unwrap();
        assert_eq!(hist.name, "cocoa_run_robot_error_m");
        assert_eq!(hist.value, 5.0);
        assert_eq!(hist.sum, 0.5);
        assert!(hist.buckets.last().unwrap().0.is_infinite());
        // Counter family names carry the _total suffix, as in the classic
        // Prometheus text format.
        let counter = families
            .iter()
            .find(|f| f.name == "cocoa_traffic_fixes_total")
            .unwrap();
        assert_eq!(counter.value, 42.0);
    }

    #[test]
    fn empty_histogram_exposes_consistent_zeroes() {
        let mut snap = MetricsSnapshot::new();
        snap.push_hist("run.empty", Histogram::new().snapshot());
        let text = snap.to_exposition();
        assert!(text.contains("cocoa_run_empty_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("cocoa_run_empty_sum 0"));
        parse_exposition(&text).expect("empty histogram must validate");
    }

    #[test]
    fn from_telemetry_captures_counters_and_hists() {
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        t.absorb("traffic.fixes", 3);
        let h = t.hist("run.robot_error_m");
        t.hist_record(h, 1.5);
        let snap = MetricsSnapshot::from_telemetry(&t);
        let text = snap.to_exposition();
        assert!(text.contains("cocoa_traffic_fixes_total 3"));
        assert!(text.contains("cocoa_run_robot_error_m_count 1"));
        parse_exposition(&text).unwrap();
    }

    #[test]
    fn validator_rejects_missing_type() {
        assert!(parse_exposition("cocoa_x_total 1\n").is_err());
    }

    #[test]
    fn validator_rejects_non_cumulative_buckets() {
        let bad = "# TYPE cocoa_h histogram\n\
                   cocoa_h_bucket{le=\"1\"} 5\n\
                   cocoa_h_bucket{le=\"2\"} 3\n\
                   cocoa_h_bucket{le=\"+Inf\"} 5\n\
                   cocoa_h_sum 1\ncocoa_h_count 5\n";
        assert!(parse_exposition(bad).unwrap_err().contains("cumulative"));
    }

    #[test]
    fn validator_rejects_unordered_le() {
        let bad = "# TYPE cocoa_h histogram\n\
                   cocoa_h_bucket{le=\"2\"} 1\n\
                   cocoa_h_bucket{le=\"1\"} 2\n";
        assert!(parse_exposition(bad).unwrap_err().contains("ascending"));
    }

    #[test]
    fn validator_rejects_missing_inf_bucket() {
        let bad = "# TYPE cocoa_h histogram\n\
                   cocoa_h_bucket{le=\"1\"} 1\n\
                   cocoa_h_sum 1\ncocoa_h_count 1\n";
        assert!(parse_exposition(bad).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn validator_rejects_count_mismatch() {
        let bad = "# TYPE cocoa_h histogram\n\
                   cocoa_h_bucket{le=\"+Inf\"} 4\n\
                   cocoa_h_sum 1\ncocoa_h_count 5\n";
        assert!(parse_exposition(bad).unwrap_err().contains("_count"));
    }

    #[test]
    fn validator_rejects_bad_names() {
        assert!(parse_exposition("# TYPE 9bad counter\n").is_err());
    }

    #[test]
    fn metric_name_sanitizes_dots() {
        assert_eq!(metric_name("mesh.odmrp.joins"), "cocoa_mesh_odmrp_joins");
        assert_eq!(metric_name("a-b c"), "cocoa_a_b_c");
    }

    #[test]
    fn fold_attributes_self_time_exactly() {
        let spans: Vec<(&str, u128)> = vec![
            ("run.total", 1000),
            ("run.calibrate", 100),
            ("run.event_loop", 850),
            ("event.transmit", 500),
            ("event.metrics", 200),
            ("grid.update", 100),
        ];
        let folded = fold_spans(&spans);
        let value = |stack: &str| {
            folded
                .iter()
                .find(|(s, _)| s == stack)
                .map_or(0, |&(_, v)| v)
        };
        assert_eq!(value("run.total"), 50); // 1000 - 100 - 850
        assert_eq!(value("run.total;run.calibrate"), 100);
        assert_eq!(value("run.total;run.event_loop"), 50); // 850 - 500 - 200 - 100
        assert_eq!(value("run.total;run.event_loop;event.transmit"), 500);
        assert_eq!(value("run.total;run.event_loop;grid.update"), 100);
        // Subtree sums reproduce the profiler totals exactly.
        let subtree = |frame: &str| -> u128 {
            folded
                .iter()
                .filter(|(s, _)| s.split(';').any(|f| f == frame))
                .map(|&(_, v)| v)
                .sum()
        };
        for &(name, total) in &spans {
            assert_eq!(subtree(name), total, "subtree of {name}");
        }
    }

    #[test]
    fn fold_without_root_keeps_orphans() {
        let spans: Vec<(&str, u128)> = vec![("grid.update", 10), ("channel.sample", 5)];
        let folded = fold_spans(&spans);
        assert_eq!(folded.len(), 2);
        assert!(folded.iter().all(|(s, _)| !s.contains(';')));
    }

    #[test]
    fn render_folded_is_line_per_stack() {
        let folded = vec![("a;b".to_owned(), 3u128)];
        assert_eq!(render_folded(&folded), "a;b 3\n");
    }
}
