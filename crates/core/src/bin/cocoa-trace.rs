//! `cocoa-trace` — inspect a JSONL telemetry trace offline.
//!
//! ```sh
//! cargo run -p cocoa-core --bin cocoa-run -- --telemetry full --trace-out run.jsonl
//! cargo run -p cocoa-core --bin cocoa-trace -- run.jsonl counters
//! cargo run -p cocoa-core --bin cocoa-trace -- run.jsonl timeline 7
//! ```
//!
//! Every command first parses and validates the whole file (schema
//! version, known event kinds, monotone sequence numbers), so a zero exit
//! status doubles as a trace-integrity check for CI. One damage shape is
//! tolerated with a warning instead of a hard error: a torn final line,
//! the signature of a run killed mid-write — the valid prefix is used,
//! which is exactly what `bisect` needs to analyze traces from crashed
//! or interrupted runs.

use cocoa_core::tracefile::{TraceError, TraceFile, TraceSpan};
use cocoa_sim::snapshot::Snapshot;
use cocoa_sim::telemetry::export::{fold_spans, render_folded};
use cocoa_sim::telemetry::hist::{bucket_bounds, HistSnapshot, Histogram};

const USAGE: &str = "\
cocoa-trace — query a CoCoA telemetry trace (JSONL)

USAGE:
    cocoa-trace <FILE> <COMMAND> [OPTIONS]
    cocoa-trace bisect <A.jsonl> <B.jsonl>
    cocoa-trace snapdiff <A.csnp> <B.csnp>

COMMANDS:
    summary                 meta line, event/counter totals, drop count
    counters                every end-of-run counter, sorted by name
    spans [--top N]         wall-clock span report, hottest first
    flamegraph              collapsed-stack span profile on stdout
                            (the folded format inferno/speedscope read)
    hist [NAME]             histogram bucket table and percentiles;
                            without NAME, lists recorded histograms
    timeline <ROBOT>        every event touching one robot, in time order
    windows                 per-window fixes / SYNC deliveries / starvation
    replay [--from SECS] [--limit N]
                            print events from a point in time onwards
    curves                  reconstructed team error + energy curves
    bisect <A> <B>          localize the first diverging event between two
                            traces of the same scenario (exit 1 if found)
    snapdiff <A> <B>        section-level delta report between two binary
                            snapshots (exit 1 if they differ)

    -h, --help              print this help
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    // Two-file commands lead with the command name instead of a file.
    match args.first().map(String::as_str) {
        Some("bisect") => return two_files(&args[1..], "bisect", bisect),
        Some("snapdiff") => return two_files(&args[1..], "snapdiff", snapdiff),
        _ => {}
    }
    let [file, command, rest @ ..] = args else {
        return Err("expected <FILE> <COMMAND>".into());
    };
    let trace = load_trace(file)?;
    match command.as_str() {
        "summary" => summary(&trace),
        "counters" => counters(&trace),
        "spans" => spans(&trace, parse_opt(rest, "--top")?.unwrap_or(10)),
        "flamegraph" => flamegraph(&trace),
        "hist" => hist(&trace, rest.first().map(String::as_str))?,
        "timeline" => {
            let robot: u64 = rest
                .first()
                .ok_or("timeline needs a robot id")?
                .parse()
                .map_err(|e| format!("robot id: {e}"))?;
            timeline(&trace, robot)
        }
        "windows" => windows(&trace),
        "curves" => curves(&trace),
        "replay" => replay(
            &trace,
            parse_opt(rest, "--from")?.unwrap_or(0.0),
            parse_opt(rest, "--limit")?,
        ),
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(())
}

/// Reads and parses one trace file, tolerating a torn final line (the
/// signature of a killed run) with a stderr warning.
fn load_trace(path: &str) -> Result<TraceFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    match TraceFile::parse_partial(&text) {
        Ok(trace) => Ok(trace),
        Err(TraceError::TruncatedTail {
            prefix,
            line,
            detail,
        }) => {
            eprintln!(
                "warning: {path}: line {line} is torn ({detail}); \
                 continuing with the {}-event valid prefix",
                prefix.events.len()
            );
            Ok(*prefix)
        }
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Looks up `--flag VALUE` in `rest` and parses the value.
fn parse_opt<T: std::str::FromStr>(rest: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match rest.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => rest
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map(Some)
            .map_err(|e| format!("{flag}: {e}")),
    }
}

fn summary(trace: &TraceFile) {
    let m = &trace.meta;
    println!("schema          {}", m.schema);
    println!("level           {}", m.level);
    println!("events emitted  {}", m.events_emitted);
    println!("events retained {}", trace.events.len());
    println!("events dropped  {}", m.dropped);
    println!("counters        {}", trace.counters.len());
    println!("spans           {}", trace.spans.len());
    println!("histograms      {}", trace.hists.len());
    // One-line grid-kernel digest: single vs fused updates and their cost.
    let grid = |name: &str| {
        trace
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let variants: Vec<String> = [("simd", "grid.kernel.simd"), ("fused", "grid.kernel.fused")]
        .iter()
        .filter_map(|(short, name)| {
            let v = grid(name);
            (v > 0).then(|| format!("{short}={v}"))
        })
        .collect();
    if !variants.is_empty() {
        println!("grid kernels    {}", variants.join(" "));
        println!("grid cells      {}", grid("grid.cells_touched"));
        let fused = grid("grid.fused_windows");
        if fused > 0 {
            println!("grid fused wins {fused}");
        }
    }
    // One-line estimator digest: which RF backend ran and how its windows
    // resolved (`estimator.<backend>.*` is emitted by every counter run).
    for backend in ["bayes", "multilateration", "ekf"] {
        let est = |short: &str| grid(&format!("estimator.{backend}.{short}"));
        if est("windows") == 0 && est("beacons_seen") == 0 {
            continue;
        }
        let mut parts = vec![
            format!("windows={}", est("windows")),
            format!("fixes={}", est("fixes")),
            format!("flat={}", est("flat_windows")),
            format!("beacons={}/{}", est("beacons_applied"), est("beacons_seen")),
        ];
        let rejected = est("beacons_rejected_outlier");
        if rejected > 0 {
            parts.push(format!("outliers={rejected}"));
        }
        if backend == "ekf" {
            parts.push(format!(
                "updates={}/{}",
                est("updates_applied"),
                est("updates_applied") + est("updates_gated")
            ));
        }
        println!("estimator {backend:<5} {}", parts.join(" "));
    }
    // One-line supervisor digest when a sweep bus absorbed its counters.
    let supervisor: Vec<String> = trace
        .counters
        .iter()
        .filter_map(|(n, v)| {
            n.strip_prefix("supervisor.")
                .map(|short| format!("{short}={v}"))
        })
        .collect();
    if !supervisor.is_empty() {
        println!("supervisor      {}", supervisor.join(" "));
    }
    if let (Some(first), Some(last)) = (trace.events.first(), trace.events.last()) {
        println!(
            "time range      {:.3} s .. {:.3} s",
            first.t_s(),
            last.t_s()
        );
    }
}

fn counters(trace: &TraceFile) {
    if trace.counters.is_empty() {
        println!("(no counters — was the run recorded at --telemetry off?)");
        return;
    }
    let width = trace
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0);
    for (name, value) in &trace.counters {
        println!("{name:<width$}  {value}");
    }
}

fn spans(trace: &TraceFile, top: usize) {
    if trace.spans.is_empty() {
        println!("(no spans — record with --telemetry full and keep the span trailer)");
        return;
    }
    let mut sorted: Vec<&TraceSpan> = trace.spans.iter().collect();
    sorted.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    let root = sorted
        .iter()
        .find(|s| s.name == "run.total")
        .map(|s| s.total_ns)
        .unwrap_or_else(|| sorted.iter().map(|s| s.total_ns).sum());
    println!(
        "{:<24} {:>12} {:>10} {:>7}",
        "span", "total_ms", "count", "share"
    );
    for s in sorted.iter().take(top) {
        let share = if root > 0 {
            s.total_ns as f64 / root as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<24} {:>12.3} {:>10} {:>6.1}%",
            s.name,
            s.total_ns as f64 / 1e6,
            s.count,
            share
        );
    }
}

/// Prints the collapsed-stack span profile: one `stack;frames value`
/// line per span, value = self time in nanoseconds. Feed the output to
/// inferno or speedscope to render an actual flamegraph.
fn flamegraph(trace: &TraceFile) {
    if trace.spans.is_empty() {
        println!("(no spans — record with --telemetry full and keep the span trailer)");
        return;
    }
    let totals: Vec<(&str, u128)> = trace
        .spans
        .iter()
        .map(|s| (s.name.as_str(), u128::from(s.total_ns)))
        .collect();
    print!("{}", render_folded(&fold_spans(&totals)));
}

/// Prints one histogram's bucket table and percentiles, or lists the
/// recorded histograms when no name is given.
fn hist(trace: &TraceFile, name: Option<&str>) -> Result<(), String> {
    if trace.hists.is_empty() {
        println!("(no histograms — record with --telemetry counters or above)");
        return Ok(());
    }
    let Some(name) = name else {
        let width = trace.hists.iter().map(|h| h.name.len()).max().unwrap_or(0);
        for h in &trace.hists {
            let kind = if h.wall { "wall" } else { "sim" };
            println!("{:<width$}  {:>10} samples  ({kind})", h.name, h.count);
        }
        return Ok(());
    };
    let h = trace
        .hists
        .iter()
        .find(|h| h.name == name)
        .ok_or_else(|| format!("no histogram named '{name}' (try `hist` with no name)"))?;
    let full = Histogram::from_snapshot(&HistSnapshot {
        buckets: h.buckets.clone(),
        count: h.count,
        sum: h.sum,
        min: h.min,
        max: h.max,
    });
    println!("{name}: {} samples, sum {}", h.count, h.sum);
    let ps = [0.0, 0.5, 0.9, 0.99, 1.0];
    let qs = full.percentiles(&ps);
    let labels = ["min", "p50", "p90", "p99", "max"];
    for (label, q) in labels.iter().zip(&qs) {
        println!("  {label:<4} {q}");
    }
    println!("{:>16} {:>16} {:>10}  histogram", "low", "high", "count");
    let peak = h.buckets.iter().map(|&(_, c)| c).max().unwrap_or(1);
    for &(idx, count) in &h.buckets {
        let (lo, hi) = bucket_bounds(idx as usize);
        let bar = "#".repeat(((count as f64 / peak as f64) * 40.0).ceil() as usize);
        println!("{lo:>16.6} {hi:>16.6} {count:>10}  {bar}");
    }
    Ok(())
}

fn timeline(trace: &TraceFile, robot: u64) {
    let events = trace.robot_events(robot);
    if events.is_empty() {
        println!("(no events for robot {robot} — timelines need --telemetry timeline or full)");
        return;
    }
    for e in events {
        println!("{}", TraceFile::format_event(e));
    }
}

fn windows(trace: &TraceFile) {
    let rows = trace.window_summary();
    if rows.is_empty() {
        println!("(no per-window events in this trace)");
        return;
    }
    println!(
        "{:>7} {:>6} {:>10} {:>8} {:>8}",
        "window", "fixes", "delivered", "missed", "starved"
    );
    for (w, fixes, delivered, missed, starved) in rows {
        println!("{w:>7} {fixes:>6} {delivered:>10} {missed:>8} {starved:>8}");
    }
}

fn curves(trace: &TraceFile) {
    let errors = trace.team_error_curve();
    let energy = trace.team_energy_curve();
    if errors.is_empty() && energy.is_empty() {
        println!("(no team_sample events — record with --telemetry timeline or full)");
        return;
    }
    println!("t_s,mean_error_m,robots,energy_j");
    for (i, (t_s, err, robots)) in errors.iter().enumerate() {
        let e_j = energy.get(i).map(|(_, e)| *e).unwrap_or(f64::NAN);
        println!("{t_s},{err},{robots},{e_j}");
    }
}

fn replay(trace: &TraceFile, from_s: f64, limit: Option<usize>) {
    let events = trace.replay_from(from_s, limit);
    for e in &events {
        println!("{}", TraceFile::format_event(e));
    }
    eprintln!("({} events)", events.len());
}

/// Dispatches a command that takes exactly two file paths.
fn two_files(
    rest: &[String],
    name: &str,
    f: fn(&str, &str) -> Result<(), String>,
) -> Result<(), String> {
    let [a, b] = rest else {
        return Err(format!("{name} needs exactly two files"));
    };
    f(a, b)
}

/// Localizes the first diverging event between two traces of the same
/// scenario. Prints the shared-prefix length, the diverging pair with
/// surrounding context, and any end-of-run counter deltas; exits 1 when
/// a divergence is found so CI can assert determinism.
fn bisect(path_a: &str, path_b: &str) -> Result<(), String> {
    let a = load_trace(path_a)?;
    let b = load_trace(path_b)?;
    if a.meta.level != b.meta.level {
        eprintln!(
            "warning: telemetry levels differ ({} vs {}) — event streams are \
             only comparable at equal levels",
            a.meta.level, b.meta.level
        );
    }
    let counter_diffs = a.counter_diffs(&b);
    let Some(idx) = a.first_divergence(&b) else {
        println!(
            "event streams identical ({} events in lockstep)",
            a.events.len()
        );
        if counter_diffs.is_empty() {
            println!("counters identical");
        } else {
            print_counter_diffs(&counter_diffs);
            std::process::exit(1);
        }
        return Ok(());
    };

    println!(
        "traces diverge after {idx} shared events (A has {}, B has {})",
        a.events.len(),
        b.events.len()
    );
    if let Some(last) = idx.checked_sub(1).and_then(|i| a.events.get(i)) {
        println!(
            "last common event: seq={} {}",
            last.seq,
            TraceFile::format_event(last)
        );
    }
    for (label, trace) in [("A", &a), ("B", &b)] {
        match trace.events.get(idx) {
            Some(e) => println!(
                "first divergent {label}: seq={} {}",
                e.seq,
                TraceFile::format_event(e)
            ),
            None => println!("first divergent {label}: <stream ends>"),
        }
    }
    const CONTEXT: usize = 3;
    let from = idx.saturating_sub(CONTEXT);
    if from < idx {
        println!("context (shared prefix):");
        for e in &a.events[from..idx] {
            println!("  seq={} {}", e.seq, TraceFile::format_event(e));
        }
    }
    for (label, trace) in [("A", &a), ("B", &b)] {
        let tail: Vec<_> = trace.events.iter().skip(idx).take(CONTEXT).collect();
        if !tail.is_empty() {
            println!("{label} continues:");
            for e in tail {
                println!("  seq={} {}", e.seq, TraceFile::format_event(e));
            }
        }
    }
    print_counter_diffs(&counter_diffs);
    std::process::exit(1);
}

fn print_counter_diffs(diffs: &[(String, Option<u64>, Option<u64>)]) {
    if diffs.is_empty() {
        return;
    }
    println!("counters differing ({}):", diffs.len());
    let fmt = |v: Option<u64>| v.map_or("absent".to_string(), |v| v.to_string());
    for (name, va, vb) in diffs {
        println!("  {name}: A={} B={}", fmt(*va), fmt(*vb));
    }
}

/// Prints the section-level [`Snapshot::diff`] report between two binary
/// snapshot files; exits 1 when they differ.
fn snapdiff(path_a: &str, path_b: &str) -> Result<(), String> {
    let read = |p: &str| -> Result<Snapshot, String> {
        let bytes = std::fs::read(p).map_err(|e| format!("reading {p}: {e}"))?;
        Snapshot::parse(&bytes).map_err(|e| format!("{p}: {e}"))
    };
    let a = read(path_a)?;
    let b = read(path_b)?;
    let diff = a.diff(&b);
    print!("{diff}");
    if !diff.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}
