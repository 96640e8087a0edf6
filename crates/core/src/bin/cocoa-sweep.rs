//! `cocoa-sweep` — supervised beacon-period sweeps with auto-resume.
//!
//! Runs one scenario per `--periods` entry under the supervision layer:
//! each point is panic-isolated, deadline-guarded and retried with
//! deterministic backoff. With `--manifest`, progress is checkpointed so
//! a killed sweep resumes where it stopped — completed points are
//! skipped, in-flight points warm-resume from their last snapshot, and
//! the resumed metrics are byte-identical to an uninterrupted run.
//!
//! ```sh
//! cocoa-sweep --robots 20 --equipped 10 --duration 600 \
//!     --periods 20,60,100 --manifest sweep.csnp --inflight 60
//! ```
//!
//! Every `cocoa-run` scenario flag except `--period` (and the telemetry
//! flags) sets the base scenario the points share.
//!
//! The `--inject-*` flags exist for the chaos tests in CI: they provoke
//! panics and hangs at chosen points so the supervisor's behaviour can
//! be exercised end to end from the command line.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cocoa_core::executor::fleet::FleetStatus;
use cocoa_core::executor::manifest::encode_metrics;
use cocoa_core::executor::supervisor::JobEvent;
use cocoa_core::knobs::{self, Draft, KnobInput};
use cocoa_core::prelude::*;
use cocoa_core::report;
use cocoa_sim::files::write_atomic;
use cocoa_sim::snapshot::crc32;
use cocoa_sim::telemetry::export::MetricsSnapshot;
use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
use cocoa_sim::time::SimDuration;

const USAGE_HEAD: &str = "\
cocoa-sweep — supervised beacon-period sweep with checkpoint/auto-resume

USAGE:
    cocoa-sweep [OPTIONS]

SWEEP OPTIONS:
    --periods LIST      comma-separated beacon periods, seconds
                                                     [default: 20,60,100]
    --manifest PATH     checkpoint the sweep here and auto-resume from
                        it on the next invocation: PATH records each
                        point's fingerprint and completed metrics, and
                        each point in flight keeps its latest snapshot
                        next to it in PATH.p<INDEX>-<FINGERPRINT>, a
                        plain snapshot `cocoa-run --resume` accepts
    --inflight SECS     simulated seconds between in-flight checkpoints
                        of each running point (requires --manifest)
    --deadline SECS     wall-clock limit per job attempt
    --attempts N        attempts per point before giving up [default: 3]
    --backoff-ms MS     base retry backoff, milliseconds    [default: 0]
    --status-out PATH   maintain a machine-readable fleet status file
                        here (JSON; rewritten atomically on every
                        point state change, final state at exit)
    --metrics-out PATH  write sweep counters and the per-point wall-time
                        histogram in Prometheus exposition format
    --progress          print a live progress line (throughput, ETA) to
                        stderr as points start, retry and finish
    --report PREFIX     write PREFIX-failures.csv and PREFIX-sweep.md
    --print-metrics     print a deterministic per-point digest (metrics
                        codec CRC + mean error) for golden comparisons
    --inject-panic I:K  chaos: point I panics on its first K attempts
    --inject-hang I:S   chaos: point I sleeps S wall-clock seconds at
                        the start of every attempt
    -h, --help          print this help

BASE SCENARIO OPTIONS (shared by every point):
";

const USAGE_TAIL: &str = "
EXIT CODES:
    0   every point completed
    1   the sweep finished but at least one point failed terminally
    2   usage error
    5   the manifest file exists but is corrupt or unreadable (a
        corrupt point file only restarts its point cold)
";

/// Knobs a sweep does not take from the command line: `--periods` sets
/// each point's period, and sweeps record no telemetry.
const NOT_SWEEP_KNOBS: [&str; 3] = ["period_s", "telemetry", "sample_interval_s"];

fn usage() -> String {
    format!(
        "{USAGE_HEAD}{}{USAGE_TAIL}",
        knobs::cli_help(&NOT_SWEEP_KNOBS)
    )
}

const EXIT_FAILURES: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_MANIFEST: i32 = 5;

struct Args {
    periods: Vec<u64>,
    base: Draft,
    manifest: Option<PathBuf>,
    inflight: Option<SimDuration>,
    deadline: Option<Duration>,
    attempts: u32,
    backoff_ms: u64,
    report_prefix: Option<String>,
    status_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    progress: bool,
    print_metrics: bool,
    inject_panic: Option<(usize, u32)>,
    inject_hang: Option<(usize, f64)>,
}

/// Parses an `I:K` injection spec.
fn parse_pair<K: std::str::FromStr>(flag: &str, spec: &str) -> Result<(usize, K), String>
where
    K::Err: std::fmt::Display,
{
    let (i, k) = spec
        .split_once(':')
        .ok_or_else(|| format!("{flag} expects POINT:VALUE, got '{spec}'"))?;
    let i = i.parse().map_err(|e| format!("{flag} point: {e}"))?;
    let k = k.parse().map_err(|e| format!("{flag} value: {e}"))?;
    Ok((i, k))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        periods: vec![20, 60, 100],
        base: Draft::default(),
        manifest: None,
        inflight: None,
        deadline: None,
        attempts: 3,
        backoff_ms: 0,
        report_prefix: None,
        status_out: None,
        metrics_out: None,
        progress: false,
        print_metrics: false,
        inject_panic: None,
        inject_hang: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--periods" => {
                let list = value("--periods")?;
                args.periods = list
                    .split(',')
                    .map(|p| p.trim().parse().map_err(|e| format!("--periods: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.periods.is_empty() {
                    return Err("--periods needs at least one period".into());
                }
            }
            "--manifest" => args.manifest = Some(PathBuf::from(value("--manifest")?)),
            "--inflight" => {
                let every = knobs::parse_whole_secs(&flag, &value(&flag)?);
                args.inflight = Some(every.map_err(|e| e.to_string())?);
            }
            "--deadline" => match knobs::parse_secs(&flag, &value(&flag)?) {
                Ok(d) if !d.is_zero() => args.deadline = Some(Duration::from_micros(d.as_micros())),
                _ => return Err("--deadline must be a positive number of seconds".into()),
            },
            "--attempts" => {
                args.attempts = value("--attempts")?
                    .parse()
                    .map_err(|e| format!("--attempts: {e}"))?;
            }
            "--backoff-ms" => {
                args.backoff_ms = value("--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("--backoff-ms: {e}"))?;
            }
            "--report" => args.report_prefix = Some(value("--report")?),
            "--status-out" => args.status_out = Some(PathBuf::from(value("--status-out")?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--progress" => args.progress = true,
            "--print-metrics" => args.print_metrics = true,
            "--inject-panic" => {
                args.inject_panic = Some(parse_pair("--inject-panic", &value("--inject-panic")?)?);
            }
            "--inject-hang" => {
                args.inject_hang = Some(parse_pair("--inject-hang", &value("--inject-hang")?)?);
            }
            "-h" | "--help" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => {
                let knob = knobs::by_flag(other)
                    .filter(|k| !NOT_SWEEP_KNOBS.contains(&k.key))
                    .ok_or_else(|| format!("unknown flag '{other}' (try --help)"))?;
                args.base
                    .apply_flag(knob, &mut it)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(args)
}

/// Builds the chaos hook from the `--inject-*` flags, if any.
fn build_hook(args: &Args) -> Option<cocoa_core::executor::sweep::AttemptHook> {
    if args.inject_panic.is_none() && args.inject_hang.is_none() {
        return None;
    }
    let panic_spec = args.inject_panic;
    let hang_spec = args.inject_hang;
    let panics_left = Arc::new(AtomicU32::new(panic_spec.map_or(0, |(_, k)| k)));
    Some(Arc::new(move |index: usize| {
        if let Some((target, secs)) = hang_spec {
            if index == target {
                std::thread::sleep(Duration::from_secs_f64(secs));
            }
        }
        if let Some((target, _)) = panic_spec {
            if index == target
                && panics_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                panic!("injected panic at sweep point {index}");
            }
        }
    }))
}

/// Shared live-view state driven by supervisor events: the fleet state
/// machine, per-point attempt start times (for the wall-time histogram)
/// and the status-file / progress-line side effects. All wall-clock
/// reads live here, at the CLI edge — the sweep itself stays
/// deterministic.
struct Watch {
    fleet: Mutex<FleetStatus>,
    started: Instant,
    starts: Mutex<Vec<Option<Instant>>>,
    point_wall_ms: Mutex<Vec<f64>>,
    status_out: Option<PathBuf>,
    progress: bool,
}

impl Watch {
    fn new(total: usize, status_out: Option<PathBuf>, progress: bool) -> Self {
        Watch {
            fleet: Mutex::new(FleetStatus::new(total)),
            started: Instant::now(),
            starts: Mutex::new(vec![None; total]),
            point_wall_ms: Mutex::new(Vec::new()),
            status_out,
            progress,
        }
    }

    fn observe(&self, event: JobEvent) {
        match event {
            JobEvent::Started { index, .. } => {
                if let Some(slot) = self.starts.lock().expect("starts").get_mut(index) {
                    *slot = Some(Instant::now());
                }
            }
            JobEvent::Completed { index, .. } => {
                let t0 = self.starts.lock().expect("starts").get(index).copied();
                if let Some(Some(t0)) = t0 {
                    self.point_wall_ms
                        .lock()
                        .expect("wall")
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            _ => {}
        }
        let mut fleet = self.fleet.lock().expect("fleet");
        fleet.observe(event);
        let elapsed = self.started.elapsed();
        if self.progress {
            eprintln!("{}", fleet.progress_line(elapsed));
        }
        if let Some(path) = &self.status_out {
            if let Err(e) = fleet.store(path, elapsed) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }
}

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return EXIT_USAGE;
        }
    };

    let scenarios: Vec<Scenario> = {
        let mut out = Vec::with_capacity(args.periods.len());
        let period_knob = knobs::by_key("period_s").expect("the period knob");
        for period in &args.periods {
            let mut point = args.base.clone();
            let built = point
                .set(period_knob, KnobInput::Arg(&period.to_string()))
                .and_then(|()| point.finish());
            match built {
                Ok(request) => out.push(request.scenario),
                Err(e) => {
                    eprintln!("error: invalid scenario for period {period}: {e}");
                    return EXIT_USAGE;
                }
            }
        }
        out
    };

    let watch = Arc::new(Watch::new(
        scenarios.len(),
        args.status_out.clone(),
        args.progress,
    ));
    let observer_watch = Arc::clone(&watch);
    let cfg = SweepConfig {
        supervisor: SupervisorConfig {
            max_attempts: args.attempts,
            deadline: args.deadline,
            backoff_base: Duration::from_millis(args.backoff_ms),
            ..SupervisorConfig::default()
        },
        manifest_path: args.manifest.clone(),
        inflight_interval: args.inflight,
        attempt_hook: build_hook(&args),
        observer: Some(Arc::new(move |event| observer_watch.observe(event))),
    };

    let sweep = match run_supervised(scenarios, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: sweep manifest: {e}");
            return EXIT_MANIFEST;
        }
    };

    if args.print_metrics {
        for (i, (period, outcome)) in args.periods.iter().zip(&sweep.outcomes).enumerate() {
            match &outcome.result {
                Ok(metrics) => {
                    let bytes = encode_metrics(metrics);
                    println!(
                        "point {i} period {period}: crc {:08x} mean_error {:?}",
                        crc32(&bytes),
                        metrics.mean_error_over_time()
                    );
                }
                Err(failure) => {
                    println!("point {i} period {period}: FAILED {}", failure.kind());
                }
            }
        }
    }

    eprintln!(
        "sweep: {} points, {} completed, {} failed \
         (retries {}, timeouts {}, panics {}, checkpoints {}, skipped-on-resume {}, \
         resumed-in-flight {})",
        sweep.outcomes.len(),
        sweep.completed(),
        sweep.failed(),
        sweep.counters.retries,
        sweep.counters.timeouts,
        sweep.counters.panics_caught,
        sweep.counters.checkpoints_written,
        sweep.counters.points_skipped_on_resume,
        sweep.counters.points_resumed_in_flight,
    );
    for (index, failure) in sweep.failures() {
        eprintln!("point {index}: {failure}");
    }

    let elapsed = watch.started.elapsed();
    // The last event already stored the settled state; writing again
    // here guarantees the file exists even for an empty sweep and
    // reflects the final elapsed time.
    if let Some(path) = &args.status_out {
        let fleet = watch.fleet.lock().expect("fleet");
        match fleet.store(path, elapsed) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &args.metrics_out {
        // The sweep bus: supervisor counters plus the per-point
        // wall-time histogram, exported in exposition format.
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        sweep.counters.absorb_into(&mut t);
        let wall_hist = t.hist_wall("sweep.point_wall_ms");
        for &ms in watch.point_wall_ms.lock().expect("wall").iter() {
            t.hist_record(wall_hist, ms);
        }
        let mut snap = MetricsSnapshot::from_telemetry(&t);
        snap.push_gauge("sweep.points_total", sweep.outcomes.len() as f64);
        snap.push_gauge("sweep.points_done", sweep.completed() as f64);
        snap.push_gauge("sweep.points_failed", sweep.failed() as f64);
        match write_atomic(path, snap.to_exposition()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }

    if let Some(prefix) = &args.report_prefix {
        let write = |path: String, body: String| match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        };
        write(
            format!("{prefix}-failures.csv"),
            report::sweep_failures_csv(&sweep),
        );
        write(format!("{prefix}-sweep.md"), report::sweep_markdown(&sweep));
    }

    if sweep.is_clean() {
        0
    } else {
        EXIT_FAILURES
    }
}
