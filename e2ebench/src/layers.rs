//! The traced pass: per-layer numbers for a workload's reference
//! scenario. Two sources, as the simulator offers them:
//!
//! - harness timings of public calls, made from outside (`SimRun::new`,
//!   `capture`, `resume`, `SweepManifest::store`/`load`, `to_jsonl`),
//!   plus allocation counts around an untraced run;
//! - the span totals `SpanProfiler` records at `TelemetryLevel::Full`,
//!   folded into self time by `fold_spans`. Spans exist only at `Full`,
//!   so span shares include the overhead `telemetry.trace_overhead_x`
//!   reports.
//!
//! The pass also checks what tracing and checkpointing promise: the
//! traced run's metrics equal the untraced run's bit for bit, and a run
//! captured and resumed half-way finishes with the same metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use cocoa_core::executor::manifest::{encode_metrics, PointState, SweepManifest};
use cocoa_core::runner::SimRun;
use cocoa_core::scenario::Scenario;
use cocoa_sim::telemetry::export::fold_spans;
use cocoa_sim::telemetry::{SpanStat, Telemetry, TelemetryLevel};
use cocoa_sim::time::SimTime;

use crate::catalog::Values;
use crate::host::allocation_totals;
use crate::stats::median;
use crate::{Outcome, Tally};

/// Timed repetitions of each checkpoint and manifest call.
const REPEATS: usize = 5;

const MIB: f64 = 1024.0 * 1024.0;

/// Layer shares and the spans whose self time each one sums. Spans in
/// no row (the root's own time, fault handling, spans added later) make
/// up `unattributed.share`.
const SHARES: &[(&str, &[&str])] = &[
    (
        "world.metrics_sample.share",
        &["event.metrics_sample", "event.snapshot"],
    ),
    ("localization.grid_update.share", &["grid.update"]),
    ("localization.grid_fix.share", &["grid.fix"]),
    ("net.tx_end.self_share", &["event.tx_end"]),
    (
        "net.transmit.self_share",
        &["event.transmit", "event.medium_gc"],
    ),
    (
        "net.channel_sample.share",
        &[
            "channel.sample",
            "channel.sample_reply",
            "channel.sample_rebroadcast",
        ],
    ),
    ("mobility.step.share", &["mobility.step", "event.move_tick"]),
    ("multicast.mesh_handle.share", &["mesh.handle"]),
    (
        "multicast.mesh_control.share",
        &["event.mesh_reply", "event.mesh_rebroadcast"],
    ),
    (
        "world.window.share",
        &[
            "event.window_start",
            "event.robot_wake",
            "event.robot_window_end",
        ],
    ),
    (
        "world.setup.share",
        &["run.calibrate", "run.setup", "run.finalize"],
    ),
    ("engine.dispatch.share", &["run.event_loop"]),
];

/// Mean time per closed span, as `(metric, span)`.
const PER_CALL: &[(&str, &str)] = &[
    ("world.metrics_sample.us_per_call", "event.metrics_sample"),
    ("localization.grid_update.us_per_call", "grid.update"),
    ("localization.grid_fix.us_per_call", "grid.fix"),
    ("mobility.step.us_per_call", "mobility.step"),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the traced pass over `scenario` and records every
/// [`Source::Probe`](crate::catalog::Source::Probe) metric.
pub(crate) fn probe(scenario: &Scenario, scratch: &Path, out: &mut Outcome) {
    let values = &mut out.values;

    let (allocs_before, bytes_before) = allocation_totals();
    let t0 = Instant::now();
    let run = SimRun::new(scenario, Telemetry::off());
    let setup = t0.elapsed();
    let (untraced, _) = run.finish();
    let untraced_wall = t0.elapsed();
    let (allocs_after, bytes_after) = allocation_totals();
    let reference = encode_metrics(&untraced);

    let t0 = Instant::now();
    let (traced, telemetry) = SimRun::new(scenario, Telemetry::new(TelemetryLevel::Full)).finish();
    let traced_wall = t0.elapsed();
    out.tally.record(encode_metrics(&traced) == reference, || {
        "tracing changed the run's metrics".into()
    });

    let t0 = Instant::now();
    let jsonl_bytes = telemetry.to_jsonl(true).len();
    values.insert("telemetry.to_jsonl_ms", ms(t0.elapsed()));
    values.insert("telemetry.jsonl_mb", jsonl_bytes as f64 / MIB);
    values.insert(
        "telemetry.trace_overhead_x",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
    );

    let counter = |name: &str| telemetry.counters().get(name).unwrap_or(0) as f64;
    let events = counter("engine.events_processed");
    values.insert("engine.events", events);
    values.insert("engine.queue_depth_max", counter("engine.peak_pending"));
    values.insert(
        "engine.ns_per_event",
        untraced_wall.as_nanos() as f64 / events,
    );
    values.insert(
        "alloc.per_event",
        (allocs_after - allocs_before) as f64 / events,
    );
    values.insert(
        "alloc.mb_per_run",
        (bytes_after - bytes_before) as f64 / MIB,
    );
    values.insert("localization.cells_touched", counter("grid.cells_touched"));
    values.insert("net.receptions", counter("radio.packets_received"));
    values.insert(
        "multicast.control_packets",
        counter("mesh.queries_originated")
            + counter("mesh.queries_rebroadcast")
            + counter("mesh.replies_sent"),
    );
    values.insert("world.setup_ms", ms(setup));

    attribute(&telemetry.spans().report(), &mut out.tally, values);
    drop(telemetry);
    checkpoints(scenario, &reference, scratch, &mut out.tally, values);
}

/// Folds the span totals into self time and records the layer shares,
/// per-call times and span-derived counts.
fn attribute(report: &[SpanStat], tally: &mut Tally, values: &mut Values) {
    let stat = |name: &str| report.iter().find(|s| s.name == name);
    let total_ns = stat("run.total").map_or(0, |s| s.total_ns) as f64;
    let totals: Vec<(&str, u128)> = report.iter().map(|s| (s.name, s.total_ns)).collect();
    let mut shares = vec![0.0; SHARES.len()];
    let mut unattributed = 0.0;
    for (stack, self_ns) in fold_spans(&totals) {
        let leaf = stack.rsplit(';').next().unwrap_or(&stack);
        let share = self_ns as f64 / total_ns;
        match SHARES.iter().position(|(_, spans)| spans.contains(&leaf)) {
            Some(i) => shares[i] += share,
            None => unattributed += share,
        }
    }
    for ((name, _), share) in SHARES.iter().zip(&shares) {
        values.insert(name, *share);
    }
    values.insert("unattributed.share", unattributed);
    let sum = shares.iter().sum::<f64>() + unattributed;
    tally.record((sum - 1.0).abs() <= 0.01, || {
        format!("layer shares sum to {sum}, not 1: spans overlap their parents")
    });

    for &(metric, span) in PER_CALL {
        let per_call = stat(span).map_or(0.0, |s| s.total_ns as f64 / 1e3 / s.count as f64);
        values.insert(metric, per_call);
    }
    values.insert(
        "localization.grid_updates",
        stat("grid.update").map_or(0, |s| s.count) as f64,
    );
    values.insert(
        "world.calibrate_ms",
        stat("run.calibrate").map_or(0.0, |s| s.total_ns as f64 / 1e6),
    );
}

/// Times capture and resume of the scenario's state half-way through,
/// checks that the resumed run finishes like the uninterrupted one, and
/// times a sweep manifest holding two in-flight copies of that state
/// (what a two-worker checkpointed sweep writes).
fn checkpoints(
    scenario: &Scenario,
    reference: &[u8],
    scratch: &Path,
    tally: &mut Tally,
    values: &mut Values,
) {
    let mut run = SimRun::new(scenario, Telemetry::off());
    run.run_until(SimTime::ZERO + scenario.duration / 2);
    let mut captures = Vec::with_capacity(REPEATS);
    let mut snapshot = Vec::new();
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        snapshot = run.capture();
        captures.push(ms(t0.elapsed()));
    }
    drop(run);
    let mut resumes = Vec::with_capacity(REPEATS);
    let mut resumed = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        resumed = Some(SimRun::resume(&snapshot));
        resumes.push(ms(t0.elapsed()));
    }
    match resumed.expect("at least one resume") {
        Ok(run) => {
            let (metrics, _) = run.finish();
            tally.record(encode_metrics(&metrics) == reference, || {
                "capture, resume and finish differ from the uninterrupted run".into()
            });
        }
        Err(e) => tally.record(false, || format!("snapshot does not resume: {e}")),
    }
    values.insert("checkpoint.bytes", snapshot.len() as f64);
    values.insert(
        "checkpoint.capture_ms",
        median(&captures).unwrap_or(f64::NAN),
    );
    values.insert("checkpoint.resume_ms", median(&resumes).unwrap_or(f64::NAN));

    let manifest = SweepManifest {
        fingerprints: vec![1, 2, 3, 4],
        states: vec![
            PointState::InFlight(snapshot.clone()),
            PointState::InFlight(snapshot),
            PointState::Pending,
            PointState::Pending,
        ],
    };
    let path = scratch.join("probe.manifest");
    let mut stores = Vec::with_capacity(REPEATS);
    let mut loads = Vec::with_capacity(REPEATS);
    let mut round_trips = true;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let stored = manifest.store(&path);
        stores.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        let loaded = SweepManifest::load(&path);
        loads.push(ms(t0.elapsed()));
        round_trips &= stored.is_ok() && matches!(loaded, Ok(Some(ref m)) if *m == manifest);
    }
    tally.record(round_trips, || "sweep manifest does not round-trip".into());
    values.insert("manifest.store_ms", median(&stores).unwrap_or(f64::NAN));
    values.insert("manifest.load_ms", median(&loads).unwrap_or(f64::NAN));
}
