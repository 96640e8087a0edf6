//! End-to-end tests for the `cocoa-serve` subsystem: wire fidelity,
//! single-flight dedup, the two cache layers, failure mapping, and
//! persistence across restarts. Every test runs a real server on an
//! ephemeral localhost port and talks to it through the bundled
//! client — the same code path `cocoa-serve --submit` uses.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cocoa_core::executor::manifest::encode_metrics;
use cocoa_core::runner::SimRun;
use cocoa_core::serve::{client, parse_spec, ServeConfig, Server};
use cocoa_sim::telemetry::Telemetry;

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn counter(server: &Server, name: &str) -> u64 {
    server
        .counters()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("unknown counter {name}"))
}

const SMALL_SPEC: &str =
    "{\"seed\": 11, \"robots\": 6, \"equipped\": 3, \"duration_s\": 120, \"period_s\": 50}";

/// Normalizes the wall-clock residue of span lines: zeroes `total_ns`
/// and orders spans by name (the export sorts them by measured time).
/// The event stream is deterministic and kept byte-for-byte; span
/// *timings* are the one thing two separate executions can never
/// share.
fn normalize_span_timings(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    let mut spans: Vec<String> = Vec::new();
    let flush = |spans: &mut Vec<String>, out: &mut String| {
        spans.sort();
        for span in spans.drain(..) {
            out.push_str(&span);
            out.push('\n');
        }
    };
    for line in jsonl.lines() {
        if line.contains("\"wall\":true") {
            // Wall-clock histograms (they say so themselves) are as
            // run-specific as span timings; skip them entirely.
            continue;
        }
        if line.starts_with("{\"kind\":\"span\"") {
            if let Some(pos) = line.find("\"total_ns\":") {
                let digits_at = pos + "\"total_ns\":".len();
                let rest = &line[digits_at..];
                let digits = rest.chars().take_while(|c| c.is_ascii_digit()).count();
                spans.push(format!("{}0{}", &line[..digits_at], &rest[digits..]));
                continue;
            }
        }
        flush(&mut spans, &mut out);
        out.push_str(line);
        out.push('\n');
    }
    flush(&mut spans, &mut out);
    out
}

#[test]
fn end_to_end_stream_matches_local_run_exactly() {
    let spec = "{\"seed\": 11, \"robots\": 6, \"equipped\": 3, \"duration_s\": 120,\n \
                \"period_s\": 50, \"telemetry\": \"full\"}";
    let (_server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    let response = client::submit(&addr, spec).expect("submit succeeds");
    assert_eq!(response.status, 200, "{}", response.body_str());
    assert_eq!(response.cache_status(), Some("miss"));

    // The same experiment run locally, exactly as cocoa-run would.
    let request = parse_spec(spec).expect("spec parses");
    let telemetry = Telemetry::new(request.telemetry);
    let (local_metrics, local_telemetry) = SimRun::new(&request.scenario, telemetry).finish();

    // Zero observer effect: the streamed JSONL is what --trace-out
    // would have written locally — the event stream byte-for-byte, the
    // span lines up to their wall-clock timings (the only
    // nondeterministic bytes any two executions can differ in).
    assert_eq!(
        normalize_span_timings(&response.telemetry_jsonl()),
        normalize_span_timings(&local_telemetry.to_jsonl(true))
    );
    // And the metrics trailer decodes to the byte-exact local metrics.
    let wire_metrics = response.metrics().expect("metrics decode");
    assert_eq!(
        encode_metrics(&wire_metrics),
        encode_metrics(&local_metrics)
    );
}

#[test]
fn repeat_submission_is_served_from_cache() {
    let (server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    let first = client::submit(&addr, SMALL_SPEC).expect("first submit");
    let second = client::submit(&addr, SMALL_SPEC).expect("second submit");
    assert_eq!(first.cache_status(), Some("miss"));
    assert_eq!(second.cache_status(), Some("hit"));
    assert_eq!(
        first.header("X-Cocoa-Fingerprint"),
        second.header("X-Cocoa-Fingerprint")
    );
    assert_eq!(first.body, second.body, "cached body is byte-identical");
    assert_eq!(counter(&server, "serve.executed"), 1, "one run, two serves");
    assert_eq!(counter(&server, "serve.cache_hits"), 1);
}

#[test]
fn concurrent_identical_submissions_execute_once() {
    let (server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    let spec = "{\"seed\": 3, \"robots\": 10, \"equipped\": 5, \"duration_s\": 400, \
                \"period_s\": 50}";
    let addr = Arc::new(addr);
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || client::submit(&addr, spec).expect("submit"))
        })
        .collect();
    let responses: Vec<_> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // Exactly one run executed, no matter how the four requests raced.
    assert_eq!(counter(&server, "serve.executed"), 1);
    let misses = responses
        .iter()
        .filter(|r| r.cache_status() == Some("miss"))
        .count();
    assert_eq!(misses, 1, "exactly one leader");
    for response in &responses {
        assert_eq!(response.status, 200);
        assert!(
            matches!(response.cache_status(), Some("miss" | "join" | "hit")),
            "unexpected cache status {:?}",
            response.cache_status()
        );
        assert_eq!(response.body, responses[0].body, "byte-identical bodies");
    }
}

#[test]
fn reused_calibration_results_match_a_cold_local_run() {
    let (server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    // Three specs with one seed and channel, hence one calibration: the
    // second changes the beacon schedule, the third the team size.
    let cold_spec = "{\"seed\": 11, \"robots\": 6, \"equipped\": 3, \"duration_s\": 120, \
                     \"period_s\": 50}";
    let warm_spec = "{\"seed\": 11, \"robots\": 6, \"equipped\": 3, \"duration_s\": 120, \
                     \"period_s\": 30}";
    let larger_spec = "{\"seed\": 11, \"robots\": 8, \"equipped\": 3, \"duration_s\": 120, \
                       \"period_s\": 50}";
    let first = client::submit(&addr, cold_spec).expect("cold submit");
    let second = client::submit(&addr, warm_spec).expect("warm submit");
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(counter(&server, "serve.cold_starts"), 1);
    assert_eq!(
        counter(&server, "serve.warm_forks"),
        1,
        "second run reuses the cached calibration"
    );
    let third = client::submit(&addr, larger_spec).expect("larger submit");
    assert_eq!(third.status, 200);
    assert_eq!(counter(&server, "serve.cold_starts"), 1);
    assert_eq!(
        counter(&server, "serve.warm_forks"),
        2,
        "the team size does not feed the calibration"
    );
    // Determinism makes the reuse invisible: each result is
    // byte-identical to running its scenario cold and locally.
    for (spec, response) in [(warm_spec, &second), (larger_spec, &third)] {
        let request = parse_spec(spec).expect("spec parses");
        let (local_metrics, _) = SimRun::new(&request.scenario, Telemetry::off()).finish();
        let wire_metrics = response.metrics().expect("metrics decode");
        assert_eq!(
            encode_metrics(&wire_metrics),
            encode_metrics(&local_metrics),
            "{spec}"
        );
    }
}

#[test]
fn silent_client_cannot_stall_shutdown_drain() {
    let (server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    // Connects and never sends a byte.
    let mut silent = TcpStream::connect(&addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("client read timeout");
    // Connections are accepted in arrival order, so once this answer is
    // in, the silent connection already has its handler.
    let health = client::get(&addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    client::shutdown(&addr).expect("shutdown accepted");
    let (done, drained) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        server.wait();
        let _ = done.send(());
    });
    drained
        .recv_timeout(Duration::from_secs(60))
        .expect("drain must finish while the silent client still holds its socket");
    waiter.join().expect("drain waiter");
    let mut answer = String::new();
    silent
        .read_to_string(&mut answer)
        .expect("server closes the silent connection");
    assert!(
        answer.starts_with("HTTP/1.1 408 "),
        "silent client gets a timeout answer: {answer:?}"
    );
}

#[test]
fn unread_response_cannot_stall_shutdown_drain() {
    let (server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    // A traced run whose response (about 18 MiB) outgrows the socket
    // buffers of a client that never reads it.
    let spec = "{\"seed\": 3, \"robots\": 8, \"equipped\": 4, \"duration_s\": 7200, \
                \"grid_m\": 20, \"telemetry\": \"full\"}";
    let mut deaf = TcpStream::connect(&addr).expect("connect");
    write!(
        deaf,
        "POST /v1/runs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{spec}",
        spec.len()
    )
    .expect("send request");
    let started = Instant::now();
    while counter(&server, "serve.executed") < 1 {
        assert!(
            started.elapsed() < Duration::from_secs(300),
            "the run never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    client::shutdown(&addr).expect("shutdown accepted");
    let (done, drained) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        server.wait();
        let _ = done.send(());
    });
    drained
        .recv_timeout(Duration::from_secs(60))
        .expect("drain must finish while the client still ignores its response");
    waiter.join().expect("drain waiter");
    drop(deaf);
}

#[test]
fn invalid_specs_are_rejected_with_400() {
    let (server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    let bad_specs = [
        "not json at all",
        "{\"robotz\": 5}",
        "{\"robots\": 4, \"equipped\": 9}",
        // Hostile values used to panic the handler thread (no response
        // at all) or the run (500).
        "{\"guard_band_s\": -1}",
        "{\"period_s\": 9007199254740991}",
        "{\"grid_m\": 0}",
        "{\"seed\": 1, \"seed\": 2}",
    ];
    for bad in bad_specs {
        let response = client::submit(&addr, bad).expect("transport ok");
        assert_eq!(response.status, 400, "spec {bad:?}");
        assert!(
            response.body_str().contains("\"kind\":\"serve.error\""),
            "{}",
            response.body_str()
        );
    }
    assert_eq!(counter(&server, "serve.rejected"), bad_specs.len() as u64);
    assert_eq!(counter(&server, "serve.executed"), 0);
    let health = client::get(&addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
}

#[test]
fn deadline_exceeded_maps_to_504() {
    let (server, addr) = start(ServeConfig {
        quiet: true,
        job_deadline: Some(Duration::from_millis(1)),
        ..ServeConfig::default()
    });
    let spec = "{\"seed\": 5, \"robots\": 30, \"equipped\": 15, \"duration_s\": 3600}";
    let response = client::submit(&addr, spec).expect("transport ok");
    assert_eq!(response.status, 504, "{}", response.body_str());
    assert_eq!(counter(&server, "serve.failed"), 1);
    // The failed fingerprint was not cached: the next submission leads
    // again rather than being served a stale failure.
    assert_eq!(counter(&server, "serve.cache_hits"), 0);
}

#[test]
fn results_persist_across_a_restart() {
    let dir = std::env::temp_dir().join(format!("cocoa-serve-state-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let body_before;
    {
        let (server, addr) = start(ServeConfig {
            quiet: true,
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let response = client::submit(&addr, SMALL_SPEC).expect("submit");
        assert_eq!(response.status, 200);
        assert_eq!(counter(&server, "serve.persisted"), 1);
        body_before = response.body;
        // Graceful drain over HTTP; wait() returns only after the
        // accept loop has drained and written the manifest.
        client::shutdown(&addr).expect("shutdown accepted");
        server.wait();
    }
    assert!(
        dir.join("serve-manifest.json").exists(),
        "drain persists the manifest"
    );
    // A fresh process (modeled as a fresh Server) restores the cache.
    let (server, addr) = start(ServeConfig {
        quiet: true,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(counter(&server, "serve.restored"), 1);
    let response = client::submit(&addr, SMALL_SPEC).expect("resubmit");
    assert_eq!(response.cache_status(), Some("hit"));
    assert_eq!(
        response.body, body_before,
        "restored body is byte-identical"
    );
    assert_eq!(counter(&server, "serve.executed"), 0, "no recompute");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn service_endpoints_answer() {
    let (_server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    let health = client::get(&addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body_str(), "ok\n");

    let template = client::get(&addr, "/v1/spec").expect("spec template");
    assert_eq!(template.status, 200);
    parse_spec(&template.body_str()).expect("template is a valid spec");

    let stats = client::get(&addr, "/v1/stats").expect("stats");
    let object =
        cocoa_core::tracefile::parse_flat_object(&stats.body_str()).expect("stats are flat JSON");
    assert!(object.contains_key("serve.requests"));
    assert!(object.contains_key("supervisor.panics_caught"));

    let fleet = client::get(&addr, "/v1/fleet").expect("fleet");
    assert!(
        fleet.body_str().contains("\"schema\":1"),
        "{}",
        fleet.body_str()
    );

    let missing = client::get(&addr, "/v1/nope").expect("transport ok");
    assert_eq!(missing.status, 404);
}

#[test]
fn tailed_submission_streams_the_same_bytes() {
    let (_server, addr) = start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    });
    let spec = "{\"seed\": 11, \"robots\": 6, \"equipped\": 3, \"duration_s\": 120, \
                \"period_s\": 50, \"telemetry\": \"counters\"}";
    let mut tailed = Vec::new();
    let response = client::submit_tailed(&addr, spec, &mut tailed).expect("submit");
    assert_eq!(response.status, 200);
    assert_eq!(tailed, response.body, "the tail saw every byte, in order");
    assert!(
        response.body_str().contains("\"kind\":\"serve.metrics\""),
        "trailer line present"
    );
}
