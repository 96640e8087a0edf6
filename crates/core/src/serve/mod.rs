//! Sweep-as-a-service: the `cocoa-serve` batch server.
//!
//! A long-lived process that accepts scenario specs over a tiny
//! dependency-free HTTP/1.1 subset (see [`http`](self)), runs each one
//! under the supervised executor, and streams the full schema-v1
//! telemetry JSONL plus the final byte-exact metrics back. Three
//! properties shape the design:
//!
//! - **Single-flight dedup.** Identical requests (same
//!   [`request_fingerprint`]) in flight at once execute exactly one
//!   run; every caller receives the byte-identical body. Completed
//!   fingerprints are served from a bounded results cache without
//!   touching the simulator.
//! - **Calibration reuse.** An untraced request whose seed and channel
//!   match a cached [`Calibration`] runs on its PDF table instead of
//!   rerunning the calibration campaign. Determinism makes this
//!   invisible: the metrics are bit-identical to a cold run's.
//! - **Zero observer effect.** A traced request runs through exactly
//!   the local `cocoa-run` path (`SimRun::new`, which calibrates for
//!   itself, so every setup span is present) and the streamed JSONL is
//!   byte-for-byte what `--trace-out` would have written.
//!
//! ## Protocol
//!
//! | Route              | Meaning                                        |
//! |--------------------|------------------------------------------------|
//! | `POST /v1/runs`    | Run a spec; body = telemetry JSONL + `serve.metrics` line |
//! | `GET /healthz`     | Liveness probe (`ok`)                          |
//! | `GET /v1/spec`     | A starter spec template                        |
//! | `GET /v1/stats`    | Flat JSON: `serve.*` + `supervisor.*` counters |
//! | `GET /v1/fleet`    | Live job fleet status (`status.json` schema)   |
//! | `POST /v1/shutdown`| Begin a graceful drain                         |
//!
//! Run responses carry `X-Cocoa-Cache: miss|join|hit` and
//! `X-Cocoa-Fingerprint`. Cache provenance lives in *headers* so the
//! body stays byte-identical across cold, joined and cached serves.
//!
//! ## Shutdown
//!
//! SIGTERM/SIGINT (via `cocoa-signal`), `POST /v1/shutdown` or
//! [`Server::begin_shutdown`] stop the accept loop; in-flight
//! connections drain to completion, then the serve manifest is
//! persisted. With a state directory configured, completed results are
//! also persisted per-job and restored on the next start, so a restart
//! resumes cache service without recomputing anything.

pub mod client;
mod http;
mod registry;
pub mod spec;

pub use registry::{ServeCounters, RESULTS_CAP, WARM_CAP};
pub use spec::{example_spec, parse_spec, request_fingerprint, ServeRequest};

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cocoa_sim::jsonfmt::ObjectWriter;
use cocoa_sim::snapshot::{self, crc32, Codec, Snapshot, SnapshotWriter};
use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};

use crate::executor::fleet::FleetStatus;
use crate::executor::manifest::{decode_metrics, encode_metrics};
use crate::executor::supervisor::{
    JobEvent, JobObserver, Supervisor, SupervisorConfig, SupervisorCounters,
};
use crate::metrics::RunMetrics;
use crate::runner::{Calibration, SimRun};

use registry::{Admission, JobError, JobResult, Registry};

/// The meta `kind` tag of a persisted per-job result file.
const JOB_KIND: &str = "cocoa-serve-job";
/// The serve manifest written at the end of a graceful drain.
const MANIFEST_FILE: &str = "serve-manifest.json";
/// Accept-loop poll interval while idle. Bounds both shutdown latency
/// and the time-to-first-byte of a cache hit, so it is kept small; the
/// idle spin this buys (500 wakeups/s) is noise next to one run.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// How long a connection may take to deliver its complete request. A
/// peer that connects and stalls is answered 408 once this expires, so
/// it cannot pin a handler thread — and with it the drain, which joins
/// every handler. A spec is a few hundred bytes; honest clients send it
/// in well under a millisecond.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Server configuration. `Default` binds an ephemeral localhost port
/// with no deadline and no persistence.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `host:port` (`port 0` = ephemeral).
    pub addr: String,
    /// Maximum concurrently executing runs; further leaders queue.
    pub max_jobs: usize,
    /// Per-run wall-clock deadline (`None` = unbounded).
    pub job_deadline: Option<Duration>,
    /// Directory for per-job results and the serve manifest (`None` =
    /// in-memory only).
    pub state_dir: Option<PathBuf>,
    /// Suppress per-request log lines on stderr.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_jobs: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            job_deadline: None,
            state_dir: None,
            quiet: false,
        }
    }
}

/// Everything the accept loop and connection handlers share.
struct Shared {
    cfg: ServeConfig,
    registry: Registry,
    counters: ServeCounters,
    supervisor_totals: Mutex<SupervisorCounters>,
    fleet: Mutex<FleetStatus>,
    stop: AtomicBool,
    free_slots: Mutex<usize>,
    slot_freed: Condvar,
    started: Instant,
}

impl Shared {
    fn log(&self, line: &str) {
        if !self.cfg.quiet {
            eprintln!("cocoa-serve: {line}");
        }
    }

    /// Blocks until an execution slot is free, bounding concurrent
    /// simulations at `max_jobs` regardless of connection count.
    fn acquire_slot(&self) {
        let mut free = self.free_slots.lock().expect("slots poisoned");
        while *free == 0 {
            free = self.slot_freed.wait(free).expect("slots poisoned");
        }
        *free -= 1;
    }

    fn release_slot(&self) {
        *self.free_slots.lock().expect("slots poisoned") += 1;
        self.slot_freed.notify_one();
    }

    fn shutting_down(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || cocoa_signal::shutdown_requested()
    }

    /// The `/v1/stats` document: one flat JSON object of every serve
    /// and supervisor counter plus uptime and cache occupancy.
    fn stats_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str_field("kind", "serve.stats");
        for (name, value) in self.counters.as_pairs() {
            w.u64_field(name, value);
        }
        let totals = *self.supervisor_totals.lock().expect("totals poisoned");
        for (name, value) in totals.as_pairs() {
            w.u64_field(name, value);
        }
        w.u64_field(
            "serve.results_cached",
            self.registry.done_fingerprints().len() as u64,
        )
        .u64_field("serve.warm_cached", self.registry.warm_len() as u64)
        .f64_field("serve.uptime_s", self.started.elapsed().as_secs_f64());
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Writes the drain-time manifest (atomic tmp + rename).
    fn persist_manifest(&self) {
        let Some(dir) = &self.cfg.state_dir else {
            return;
        };
        let mut w = ObjectWriter::new();
        w.str_field("kind", "cocoa-serve-manifest");
        for (name, value) in self.counters.as_pairs() {
            w.u64_field(name, value);
        }
        w.u64_field(
            "serve.results_cached",
            self.registry.done_fingerprints().len() as u64,
        );
        let mut body = w.finish();
        body.push('\n');
        let path = dir.join(MANIFEST_FILE);
        let tmp = path.with_extension("json.tmp");
        let stored = std::fs::write(&tmp, body).and_then(|()| std::fs::rename(&tmp, &path));
        match stored {
            Ok(()) => self.log(&format!("wrote {}", path.display())),
            Err(e) => self.log(&format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// A running serve instance. Dropping it begins a shutdown and joins
/// the accept loop, so tests cannot leak listeners.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds, restores any persisted results, and starts accepting.
    ///
    /// # Errors
    ///
    /// A message if the address cannot be bound or the state directory
    /// cannot be created.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking: {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read local addr: {e}"))?;
        let shared = Arc::new(Shared {
            free_slots: Mutex::new(cfg.max_jobs.max(1)),
            registry: Registry::new(RESULTS_CAP, WARM_CAP),
            counters: ServeCounters::default(),
            supervisor_totals: Mutex::new(SupervisorCounters::default()),
            fleet: Mutex::new(FleetStatus::new(0)),
            stop: AtomicBool::new(false),
            slot_freed: Condvar::new(),
            started: Instant::now(),
            cfg,
        });
        if let Some(dir) = shared.cfg.state_dir.clone() {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            restore_results(&shared, &dir);
        }
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("cocoa-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| format!("cannot spawn accept loop: {e}"))?;
        Ok(Server {
            shared,
            accept: Some(accept),
            local_addr,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Raises the shutdown flag; the accept loop stops taking new
    /// connections and drains in-flight ones.
    pub fn begin_shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until the accept loop has drained and exited.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: flag, drain, join.
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.wait();
    }

    /// Current `serve.*` + `supervisor.*` counters as `(name, value)`
    /// pairs (the in-process view of `/v1/stats`).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut pairs: Vec<(&'static str, u64)> = self.shared.counters.as_pairs().to_vec();
        let totals = *self
            .shared
            .supervisor_totals
            .lock()
            .expect("totals poisoned");
        pairs.extend(totals.as_pairs());
        pairs
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, peer)) => {
                // The listener is nonblocking (for shutdown polling);
                // accepted streams must not inherit that.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("cocoa-serve-conn".into())
                    .spawn(move || handle_connection(stream, conn_shared));
                match spawned {
                    Ok(handle) => handlers.push(handle),
                    Err(e) => shared.log(&format!("cannot spawn handler for {peer}: {e}")),
                }
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => {
                shared.log(&format!("accept error: {e}"));
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    shared.log(&format!(
        "draining {} in-flight connection(s)",
        handlers.iter().filter(|h| !h.is_finished()).count()
    ));
    for handle in handlers {
        let _ = handle.join();
    }
    shared.persist_manifest();
    shared.log("drained, bye");
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(http::ReadError::TimedOut) => {
            let _ = error_response(
                &mut stream,
                408,
                "Request Timeout",
                "protocol",
                "no complete request within the read timeout",
            );
            return;
        }
        Err(http::ReadError::Malformed(e)) => {
            let _ = error_response(&mut stream, 400, "Bad Request", "protocol", &e);
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = http::respond(&mut stream, 200, "OK", "text/plain", &[], b"ok\n");
        }
        ("GET", "/v1/spec") => {
            let _ = http::respond(
                &mut stream,
                200,
                "OK",
                "application/json",
                &[],
                example_spec().as_bytes(),
            );
        }
        ("GET", "/v1/stats") => {
            let _ = http::respond(
                &mut stream,
                200,
                "OK",
                "application/json",
                &[],
                shared.stats_json().as_bytes(),
            );
        }
        ("GET", "/v1/fleet") => {
            let body = shared
                .fleet
                .lock()
                .expect("fleet poisoned")
                .to_status_json(shared.started.elapsed());
            let _ = http::respond(
                &mut stream,
                200,
                "OK",
                "application/json",
                &[],
                body.as_bytes(),
            );
        }
        ("POST", "/v1/shutdown") => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.log("shutdown requested over HTTP");
            let _ = http::respond(
                &mut stream,
                200,
                "OK",
                "application/json",
                &[],
                b"{\"kind\":\"serve.shutdown\",\"draining\":true}\n",
            );
        }
        ("POST", "/v1/runs") => handle_run(&mut stream, &shared, &request.body),
        (method, path) => {
            let _ = error_response(
                &mut stream,
                404,
                "Not Found",
                "protocol",
                &format!("no route {method} {path}"),
            );
        }
    }
}

/// Writes a one-line JSON error body with the given HTTP status.
fn error_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    kind: &str,
    detail: &str,
) -> std::io::Result<()> {
    let mut w = ObjectWriter::new();
    w.str_field("kind", "serve.error")
        .str_field("stage", kind)
        .str_field("detail", detail);
    let mut body = w.finish();
    body.push('\n');
    http::respond(
        stream,
        status,
        reason,
        "application/json",
        &[],
        body.as_bytes(),
    )
}

/// HTTP status for a terminal job failure, by supervisor failure tag.
fn failure_status(kind: &str) -> (u16, &'static str) {
    match kind {
        "validation" => (400, "Bad Request"),
        "deadline" => (504, "Gateway Timeout"),
        _ => (500, "Internal Server Error"),
    }
}

/// Serves one completed result with its cache-provenance headers.
fn respond_result(stream: &mut TcpStream, cache: &str, result: &JobResult) {
    let headers = [
        ("X-Cocoa-Cache", cache.to_string()),
        (
            "X-Cocoa-Fingerprint",
            format!("{:016x}", result.fingerprint),
        ),
    ];
    let _ = http::respond(
        stream,
        200,
        "OK",
        "application/x-ndjson",
        &headers,
        &result.body,
    );
}

fn handle_run(stream: &mut TcpStream, shared: &Arc<Shared>, body: &[u8]) {
    ServeCounters::bump(&shared.counters.requests);
    let spec_text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            ServeCounters::bump(&shared.counters.rejected);
            let _ = error_response(
                stream,
                400,
                "Bad Request",
                "validation",
                "body is not UTF-8",
            );
            return;
        }
    };
    let request = match parse_spec(spec_text) {
        Ok(r) => r,
        Err(e) => {
            ServeCounters::bump(&shared.counters.rejected);
            let _ = error_response(stream, 400, "Bad Request", "validation", &e);
            return;
        }
    };
    let fingerprint = request_fingerprint(&request);
    match shared.registry.admit(fingerprint) {
        Admission::Cached(result) => {
            ServeCounters::bump(&shared.counters.cache_hits);
            shared.log(&format!("{fingerprint:016x} served from cache"));
            respond_result(stream, "hit", &result);
        }
        Admission::Joined(cell) => {
            ServeCounters::bump(&shared.counters.joined);
            shared.log(&format!("{fingerprint:016x} joined in-flight run"));
            match cell.wait() {
                Ok(result) => respond_result(stream, "join", &result),
                Err(error) => {
                    let (status, reason) = failure_status(error.kind);
                    let _ = error_response(stream, status, reason, error.kind, &error.detail);
                }
            }
        }
        Admission::Fresh(_cell) => {
            ServeCounters::bump(&shared.counters.accepted);
            shared.log(&format!("{fingerprint:016x} accepted, executing"));
            match lead_run(shared, &request, fingerprint) {
                Ok(result) => respond_result(stream, "miss", &result),
                Err(error) => {
                    let (status, reason) = failure_status(error.kind);
                    let _ = error_response(stream, status, reason, error.kind, &error.detail);
                }
            }
        }
    }
}

/// Leader path: execute the run under supervision, publish the result
/// to joiners and caches, optionally persist it.
fn lead_run(
    shared: &Arc<Shared>,
    request: &ServeRequest,
    fingerprint: u64,
) -> Result<Arc<JobResult>, JobError> {
    let fleet_index = shared.fleet.lock().expect("fleet poisoned").grow(1);
    shared.acquire_slot();
    let supervisor = Supervisor::new(SupervisorConfig {
        // The serve layer owns retry policy at the request level (a
        // failed fingerprint may simply be resubmitted), so each run
        // gets exactly one supervised attempt.
        max_attempts: 1,
        deadline: shared.cfg.job_deadline,
        ..SupervisorConfig::default()
    });
    let observer_shared = Arc::clone(shared);
    let observer: JobObserver = Arc::new(move |event| {
        let remapped = remap_event(event, fleet_index);
        observer_shared
            .fleet
            .lock()
            .expect("fleet poisoned")
            .observe(remapped);
    });
    let exec_shared = Arc::clone(shared);
    let report = supervisor.map_seeded_observed(
        vec![request.clone()],
        |r: &ServeRequest| r.scenario.seed,
        move |_index, req| Ok(execute(&exec_shared, req)),
        Some(observer),
    );
    shared.release_slot();
    shared
        .supervisor_totals
        .lock()
        .expect("totals poisoned")
        .merge(&report.counters);
    let outcome = report
        .outcomes
        .into_iter()
        .next()
        .expect("one job in, one outcome out");
    match outcome.result {
        Ok((metrics, telemetry)) => {
            ServeCounters::bump(&shared.counters.executed);
            let metrics_bytes = encode_metrics(&metrics);
            let result = JobResult {
                fingerprint,
                body: build_body(&telemetry, fingerprint, &metrics, &metrics_bytes),
                metrics: metrics_bytes,
            };
            persist_result(shared, &result);
            shared.registry.complete(fingerprint, Ok(result))
        }
        Err(failure) => {
            ServeCounters::bump(&shared.counters.failed);
            shared.log(&format!("{fingerprint:016x} failed: {failure}"));
            shared.registry.complete(
                fingerprint,
                Err(JobError {
                    kind: failure.kind(),
                    detail: failure.to_string(),
                }),
            )
        }
    }
}

/// Rewrites a single-job supervisor event onto the server-global fleet
/// index space.
fn remap_event(event: JobEvent, fleet_index: usize) -> JobEvent {
    match event {
        JobEvent::Started { attempt, .. } => JobEvent::Started {
            index: fleet_index,
            attempt,
        },
        JobEvent::Completed { attempts, .. } => JobEvent::Completed {
            index: fleet_index,
            attempts,
        },
        JobEvent::Retrying { attempt, kind, .. } => JobEvent::Retrying {
            index: fleet_index,
            attempt,
            kind,
        },
        JobEvent::Failed { attempts, kind, .. } => JobEvent::Failed {
            index: fleet_index,
            attempts,
            kind,
        },
    }
}

/// Runs one request to completion, choosing the cheapest faithful
/// path.
///
/// Untraced requests go through the calibration cache: run on the
/// cached calibration for the request's seed and channel, or calibrate
/// and cache the result. Traced requests always run the exact local
/// `cocoa-run` path — a reused calibration skips the `run.calibrate`
/// span, which would make the streamed trace differ from `--trace-out`,
/// and zero observer effect outranks speed.
fn execute(shared: &Arc<Shared>, request: &ServeRequest) -> (RunMetrics, Telemetry) {
    if request.telemetry == TelemetryLevel::Off {
        let calibration = match shared.registry.calibration(&request.scenario) {
            Some(calibration) => {
                ServeCounters::bump(&shared.counters.warm_forks);
                calibration
            }
            None => {
                ServeCounters::bump(&shared.counters.cold_starts);
                let calibration = Arc::new(Calibration::new(&request.scenario));
                shared.registry.keep_calibration(Arc::clone(&calibration));
                calibration
            }
        };
        return SimRun::with_calibration(&request.scenario, Telemetry::off(), calibration).finish();
    }
    ServeCounters::bump(&shared.counters.cold_starts);
    let mut telemetry = Telemetry::new(request.telemetry);
    if let Some(interval) = request.sample_interval {
        telemetry.set_sample_interval(interval);
    }
    SimRun::new(&request.scenario, telemetry).finish()
}

/// Assembles the response body: the telemetry JSONL exactly as
/// `--trace-out` writes it, then one `serve.metrics` trailer line
/// carrying the byte-exact metrics codec output as hex.
fn build_body(
    telemetry: &Telemetry,
    fingerprint: u64,
    metrics: &RunMetrics,
    metrics_bytes: &[u8],
) -> Vec<u8> {
    let mut body = telemetry.to_jsonl(true).into_bytes();
    let mut w = ObjectWriter::new();
    w.str_field("kind", "serve.metrics")
        .str_field("fingerprint", &format!("{fingerprint:016x}"))
        .u64_field("metrics_crc", u64::from(crc32(metrics_bytes)))
        .f64_field("mean_error_m", metrics.mean_error_over_time())
        .str_field("metrics_hex", &http::to_hex(metrics_bytes));
    body.extend_from_slice(w.finish().as_bytes());
    body.push(b'\n');
    body
}

// ---------------------------------------------------------------------------
// Persistence: per-job result files through the snapshot container.

/// Encodes one result as a CRC-guarded snapshot container.
fn encode_job(result: &JobResult) -> Vec<u8> {
    let mut meta = ObjectWriter::new();
    // Hex, not a JSON number: fingerprints use all 64 bits and JSON
    // numbers only round-trip integers up to 2^53.
    meta.str_field("kind", JOB_KIND)
        .str_field("fingerprint", &format!("{:016x}", result.fingerprint));
    let mut w = SnapshotWriter::new(meta.finish());
    for (tag, blob) in [("body", &result.body), ("metrics", &result.metrics)] {
        w.push_section(tag, snapshot::encode(|c| c.bytes(&mut blob.clone())));
    }
    w.finish()
}

/// Decodes and integrity-checks one persisted result.
fn decode_job(bytes: &[u8]) -> Result<JobResult, String> {
    let snap = Snapshot::parse(bytes).map_err(|e| e.to_string())?;
    let wanted = format!("\"kind\":\"{JOB_KIND}\"");
    if !snap.meta().contains(&wanted) {
        return Err(format!("not a serve job (meta: {})", snap.meta()));
    }
    let meta = crate::tracefile::parse_flat_object(snap.meta())?;
    let fingerprint = meta
        .get("fingerprint")
        .and_then(|v| v.as_str())
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| "job meta missing fingerprint".to_string())?;
    let (mut body, mut metrics) = (Vec::new(), Vec::new());
    snap.decode("body", |c| c.bytes(&mut body))
        .and_then(|()| snap.decode("metrics", |c| c.bytes(&mut metrics)))
        .map_err(|e| e.to_string())?;
    // The metrics must still decode — a job file that lies about its
    // payload must not enter the cache.
    decode_metrics(&metrics).map_err(|e| e.to_string())?;
    Ok(JobResult {
        fingerprint,
        body,
        metrics,
    })
}

/// Persists one completed result under `<state_dir>/<fp>.job`
/// (atomic tmp + rename).
fn persist_result(shared: &Shared, result: &JobResult) {
    let Some(dir) = &shared.cfg.state_dir else {
        return;
    };
    let path = dir.join(format!("{:016x}.job", result.fingerprint));
    let tmp = path.with_extension("job.tmp");
    let stored =
        std::fs::write(&tmp, encode_job(result)).and_then(|()| std::fs::rename(&tmp, &path));
    match stored {
        Ok(()) => ServeCounters::bump(&shared.counters.persisted),
        Err(e) => shared.log(&format!("cannot persist {}: {e}", path.display())),
    }
}

/// Loads every `.job` file in the state directory into the results
/// cache. Corrupt or foreign files are skipped with a log line, never
/// a startup failure.
fn restore_results(shared: &Shared, dir: &Path) {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            shared.log(&format!("cannot scan {}: {e}", dir.display()));
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("job") {
            continue;
        }
        let decoded = std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| decode_job(&bytes));
        match decoded {
            Ok(result) => {
                if shared.registry.insert_done(result) {
                    ServeCounters::bump(&shared.counters.restored);
                }
            }
            Err(e) => shared.log(&format!("skipping {}: {e}", path.display())),
        }
    }
    let restored = shared.counters.restored.load(Ordering::Relaxed);
    if restored > 0 {
        shared.log(&format!("restored {restored} cached result(s)"));
    }
}
