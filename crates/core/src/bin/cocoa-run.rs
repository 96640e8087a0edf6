//! `cocoa-run` — run one CoCoA scenario from the command line.
//!
//! ```sh
//! cargo run --release -p cocoa-core --bin cocoa-run -- \
//!     --robots 50 --equipped 25 --duration 1800 --period 100 --mode cocoa
//! ```
//!
//! Prints a markdown summary; `--csv PREFIX` additionally writes
//! `PREFIX-errors.csv`, `PREFIX-energy.csv` and `PREFIX-snapshots.csv`
//! for plotting.
//!
//! Failures exit with distinct codes (see the EXIT CODES section of
//! `--help`) so scripts and CI can react to *why* a run died, not just
//! that it died.

use std::sync::mpsc;
use std::time::Duration;

use cocoa_core::executor::supervisor::{run_guarded, CaughtPanic};
use cocoa_core::knobs::{self, Draft, KnobError};
use cocoa_core::prelude::*;
use cocoa_core::report;
use cocoa_core::runner::SimRun;
use cocoa_sim::snapshot::SnapshotError;
use cocoa_sim::time::SimTime;

use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};

const USAGE_HEAD: &str = "\
cocoa-run — simulate one CoCoA deployment

USAGE:
    cocoa-run [OPTIONS]

SCENARIO OPTIONS:
";

const USAGE_TAIL: &str = "
OUTPUT OPTIONS:
    --snapshot-at SECS       serialize the full run state at this instant
                             (the run then continues to completion)
    --snapshot-out PATH      where to write the --snapshot-at bytes
                             [default: cocoa-run.csnp]
    --resume PATH            restore a --snapshot-out file and run it to the
                             horizon; scenario flags are ignored (the snapshot
                             carries its own scenario)
    --deadline SECS          wall-clock limit for the simulation itself; a
                             hung run exits 6 instead of blocking forever
    --csv PREFIX             write PREFIX-{errors,energy,mesh,snapshots,robustness,health}.csv
    --trace-out PATH         write a JSONL trace (implies --telemetry full);
                             inspect it with cocoa-trace
    --metrics-out PATH       write the final counters, histograms and span
                             totals in Prometheus text exposition format
                             (implies at least --telemetry counters)
    -h, --help               print this help

With --telemetry at counters or above, --csv also writes
PREFIX-counters.csv and PREFIX-spans.csv; at timeline or above,
PREFIX-timeline.csv.

EXIT CODES:
    0   success
    2   usage error (unknown flag, missing or unparsable value)
    3   scenario validation failure (flags parsed, but the scenario
        they describe is inconsistent)
    4   runtime failure (simulation panic, unreadable input file,
        unwritable output file)
    5   snapshot corruption (--resume file failed CRC/schema checks)
    6   wall-clock deadline exceeded (--deadline)
";

fn usage() -> String {
    format!("{USAGE_HEAD}{}{USAGE_TAIL}", knobs::cli_help(&[]))
}

/// Usage error (bad flags).
const EXIT_USAGE: i32 = 2;
/// The flags parsed but describe an invalid scenario.
const EXIT_VALIDATION: i32 = 3;
/// The run itself failed: panic, unreadable input, unwritable output.
const EXIT_RUNTIME: i32 = 4;
/// A snapshot failed its integrity checks.
const EXIT_SNAPSHOT: i32 = 5;
/// The wall-clock deadline fired.
const EXIT_DEADLINE: i32 = 6;

struct Args {
    request: ServeRequest,
    csv_prefix: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    snapshot_at: Option<SimTime>,
    snapshot_out: String,
    resume: Option<String>,
    deadline: Option<Duration>,
}

/// Parses the command line; a [`KnobError::Value`] is a usage error,
/// a [`KnobError::Invalid`] a scenario validation failure.
fn parse_args() -> Result<Args, KnobError> {
    use KnobError::Value as Usage;
    let mut draft = Draft::default();
    let mut csv_prefix = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut snapshot_at = None;
    let mut snapshot_out = String::from("cocoa-run.csnp");
    let mut resume = None;
    let mut deadline = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, KnobError> {
            it.next()
                .ok_or_else(|| Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--snapshot-at" => {
                let at = knobs::parse_secs(&flag, &value(&flag)?)?;
                snapshot_at = Some(SimTime::ZERO + at);
            }
            "--snapshot-out" => snapshot_out = value("--snapshot-out")?,
            "--resume" => resume = Some(value("--resume")?),
            "--deadline" => match knobs::parse_secs(&flag, &value(&flag)?)? {
                d if d.is_zero() => return Err(Usage("--deadline must be positive".into())),
                d => deadline = Some(Duration::from_micros(d.as_micros())),
            },
            "--csv" => csv_prefix = Some(value("--csv")?),
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "-h" | "--help" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => {
                let knob = knobs::by_flag(other)
                    .ok_or_else(|| Usage(format!("unknown flag '{other}' (try --help)")))?;
                draft.apply_flag(knob, &mut it)?;
            }
        }
    }
    let mut request = draft.finish()?;
    if trace_out.is_some() {
        // A trace file is only useful with the complete event stream.
        request.telemetry = TelemetryLevel::Full;
    }
    if metrics_out.is_some() && request.telemetry < TelemetryLevel::Counters {
        // Exposition output needs at least the counter registry.
        request.telemetry = TelemetryLevel::Counters;
    }
    Ok(Args {
        request,
        csv_prefix,
        trace_out,
        metrics_out,
        snapshot_at,
        snapshot_out,
        resume,
        deadline,
    })
}

/// What the simulation job produces: the effective scenario, the run
/// outputs, and the captured `--snapshot-at` bytes (written by the
/// caller, outside the panic/deadline boundary).
type JobOutput = Result<(Scenario, RunMetrics, Telemetry, Option<Vec<u8>>), SnapshotError>;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(KnobError::Value(e)) => {
            eprintln!("error: {e}\n\n{}", usage());
            return EXIT_USAGE;
        }
        Err(KnobError::Invalid(e)) => {
            eprintln!("error: invalid scenario: {e}");
            return EXIT_VALIDATION;
        }
    };
    let start = std::time::Instant::now();
    let mut telemetry = Telemetry::new(args.request.telemetry);
    if let Some(interval) = args.request.sample_interval {
        telemetry.set_sample_interval(interval);
    }

    // File reads happen before the supervised section so io failures are
    // classified as runtime errors, not snapshot corruption.
    let resume_input = match &args.resume {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => Some((path.clone(), bytes)),
            Err(e) => {
                eprintln!("error: cannot read snapshot {path}: {e}");
                return EXIT_RUNTIME;
            }
        },
        None => None,
    };

    // The simulation itself runs inside the hardened panic boundary —
    // and, under --deadline, on a watchdog-guarded thread.
    let resume_path = resume_input.as_ref().map(|(p, _)| p.clone());
    let scenario_in = args.request.scenario.clone();
    let snapshot_at = args.snapshot_at;
    let job = move || -> JobOutput {
        if let Some((path, bytes)) = resume_input {
            // The snapshot carries the scenario and telemetry bus; CLI
            // scenario/telemetry flags only describe *new* runs.
            let run = SimRun::resume_marked(&bytes)?;
            eprintln!("resumed {path} at t = {}", run.now());
            let scenario = run.scenario().clone();
            let (metrics, telemetry) = run.finish();
            Ok((scenario, metrics, telemetry, None))
        } else {
            let mut run = SimRun::new(&scenario_in, telemetry);
            let snapshot = snapshot_at.map(|at| {
                run.run_until(at);
                let bytes = run.capture();
                eprintln!("captured {} bytes at t = {}", bytes.len(), run.now());
                bytes
            });
            let (metrics, telemetry) = run.finish();
            Ok((scenario_in, metrics, telemetry, snapshot))
        }
    };
    let outcome: Result<JobOutput, CaughtPanic> = match args.deadline {
        None => run_guarded(job),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let spawned = std::thread::Builder::new()
                .name("cocoa-run-job".into())
                .spawn(move || {
                    let _ = tx.send(run_guarded(job));
                });
            if let Err(e) = spawned {
                eprintln!("error: cannot spawn the run thread: {e}");
                return EXIT_RUNTIME;
            }
            match rx.recv_timeout(limit) {
                Ok(out) => out,
                Err(_) => {
                    eprintln!(
                        "error: run exceeded the {:.1} s wall-clock deadline",
                        limit.as_secs_f64()
                    );
                    return EXIT_DEADLINE;
                }
            }
        }
    };
    let (scenario, metrics, telemetry, snapshot_bytes) = match outcome {
        Ok(Ok(v)) => v,
        Ok(Err(e)) => {
            let path = resume_path.as_deref().unwrap_or("<snapshot>");
            eprintln!("error: cannot restore snapshot {path}: {e}");
            return EXIT_SNAPSHOT;
        }
        Err(p) => {
            eprintln!("error: run panicked: {}", p.payload);
            if let Some(bt) = p.backtrace {
                eprintln!("{bt}");
            }
            return EXIT_RUNTIME;
        }
    };
    if let Some(bytes) = snapshot_bytes {
        match std::fs::write(&args.snapshot_out, &bytes) {
            Ok(()) => eprintln!("wrote {} ({} bytes)", args.snapshot_out, bytes.len()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", args.snapshot_out);
                return EXIT_RUNTIME;
            }
        }
    }
    print!("{}", report::markdown_summary(&scenario, &metrics));
    eprintln!("\n(wall time {:.1} s)", start.elapsed().as_secs_f64());
    if let Some(path) = &args.trace_out {
        match std::fs::write(path, telemetry.to_jsonl(true)) {
            Ok(()) => eprintln!(
                "wrote {path} ({} events, {} dropped)",
                telemetry.events_emitted(),
                telemetry.dropped_events()
            ),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if let Some(path) = &args.metrics_out {
        use cocoa_sim::telemetry::export::MetricsSnapshot;
        let text = MetricsSnapshot::from_telemetry(&telemetry).to_exposition();
        // Atomic tmp+rename so a reader never observes a half-written file.
        let tmp = format!("{path}.tmp");
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
        match result {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return EXIT_RUNTIME;
            }
        }
    }
    if let Some(prefix) = args.csv_prefix {
        let write = |suffix: &str, body: String| {
            let path = format!("{prefix}-{suffix}.csv");
            match std::fs::write(&path, body) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        };
        write("errors", report::error_series_csv(&metrics));
        write("energy", report::energy_csv(&metrics));
        write("mesh", report::mesh_csv(&scenario, &metrics));
        if !metrics.snapshots.is_empty() {
            write("snapshots", report::snapshots_csv(&metrics));
        }
        if !scenario.faults.is_empty() {
            write("robustness", report::robustness_csv(&metrics));
            write("health", report::health_csv(&metrics));
        }
        if telemetry.level() >= cocoa_sim::telemetry::TelemetryLevel::Counters {
            write("counters", report::telemetry_counters_csv(&telemetry));
            write("spans", report::telemetry_spans_csv(&telemetry));
        }
        if telemetry.level() >= cocoa_sim::telemetry::TelemetryLevel::Timeline {
            write("timeline", report::timeline_csv(&telemetry));
        }
    }
    0
}
