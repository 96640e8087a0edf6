//! `e2e compare A B`: judges set B of runs against set A, workload by
//! workload and end-to-end metric by metric, by the rule the benchmark's
//! bounds serve. Each set is the captured standard output of any number
//! of `e2e` runs; only the untraced runs' records are read, and a run
//! the `--seconds` cap stopped short makes the comparison refuse.
//!
//! For each pairing the verdict is:
//!
//! - `unresolved` when either set's spread (interquartile range over
//!   median) is wider than the metric's bound, unless every run of B
//!   reads better than every run of A (then `within bound`);
//! - `worse` when B's median is worse than A's by more than the bound;
//! - `within bound` otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cocoa_core::tracefile::{parse_flat_object, JsonValue};

use crate::catalog::{Better, EndToEnd, END_TO_END};
use crate::stats::quartiles;

/// The `kind` of the flat record line every run prints before its
/// result.
pub const RECORD_KIND: &str = "e2e.record";

/// One run's record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced.
    pub trace: bool,
    /// Whether the run did all of its fixed work before the cap.
    pub complete: bool,
    /// The host stamp fields, joined.
    pub host: String,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

/// Reads every record line of a run log, ignoring other lines.
///
/// # Errors
///
/// A record line that does not parse.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let kind = format!("\"kind\":\"{RECORD_KIND}\"");
    let mut records = Vec::new();
    for line in text.lines().filter(|l| l.contains(&kind)) {
        let object = parse_flat_object(line)?;
        let text_of = |key: &str| match object.get(key) {
            Some(JsonValue::Str(s)) => s.clone(),
            Some(JsonValue::Num(n)) => n.to_string(),
            _ => String::new(),
        };
        let host = ["host.cpu", "host.nproc", "host.profile", "host.features"]
            .map(text_of)
            .join(" | ");
        let values = object
            .iter()
            .filter(|(k, _)| !k.starts_with("host.") && !matches!(k.as_str(), "kind" | "seed"))
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        records.push(Record {
            workload: text_of("workload"),
            trace: matches!(object.get("trace"), Some(JsonValue::Bool(true))),
            complete: matches!(object.get("complete"), Some(JsonValue::Bool(true))),
            host,
            values,
        });
    }
    Ok(records)
}

/// How set B compares with set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs spread wider than the bound; more runs are needed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative spread of a set: interquartile range over the median.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(f64::INFINITY, |(q1, m, q3)| (q3 - q1) / m.abs())
}

/// The verdict on `metric` for runs `b` against runs `a`.
pub fn verdict(a: &[f64], b: &[f64], metric: &EndToEnd) -> Verdict {
    let (Some((_, ma, _)), Some((_, mb, _))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (worse_by, b_always_better) = match metric.better {
        Better::Lower => ((mb - ma) / ma.abs(), max(b) < min(a)),
        Better::Higher => ((ma - mb) / ma.abs(), min(b) > max(a)),
    };
    if spread(a) > metric.bound || spread(b) > metric.bound {
        if b_always_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn summary(values: &[f64]) -> String {
    quartiles(values).map_or("-".into(), |(q1, m, q3)| {
        format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", values.len())
    })
}

/// Compares the runs logged in `a` and `b`: a table, and whether every
/// pairing is within bound.
///
/// # Errors
///
/// A log that does not parse, runs from more than one host stamp, a run
/// stopped at its cap, or a workload present in only one set.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let untraced = |text: &str| -> Result<Vec<Record>, String> {
        Ok(parse_records(text)?
            .into_iter()
            .filter(|r| !r.trace)
            .collect())
    };
    let (a, b) = (untraced(a)?, untraced(b)?);
    let mut hosts: Vec<&str> = a.iter().chain(&b).map(|r| r.host.as_str()).collect();
    hosts.sort_unstable();
    hosts.dedup();
    if hosts.len() > 1 {
        return Err(format!(
            "runs come from different hosts or builds and cannot be compared:\n  {}",
            hosts.join("\n  ")
        ));
    }
    let cut_short = a.iter().chain(&b).filter(|r| !r.complete).count();
    if cut_short > 0 {
        return Err(format!(
            "{cut_short} runs stopped at their --seconds cap before their fixed work was done; their numbers cover less work and cannot be compared"
        ));
    }
    let mut workloads: Vec<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut table =
        String::from("workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tverdict\n");
    let mut all_within = true;
    for workload in workloads {
        for metric in END_TO_END {
            let values = |set: &[Record]| -> Vec<f64> {
                set.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| r.values.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: {} missing from one set", metric.name));
            }
            let v = verdict(&va, &vb, metric);
            all_within &= v == Verdict::Within;
            let _ = writeln!(
                table,
                "{workload}\t{}\t{}\t{}\t{}",
                metric.name,
                summary(&va),
                summary(&vb),
                v.as_str()
            );
        }
    }
    Ok((table, all_within))
}
