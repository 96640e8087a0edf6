//! Hostile knob values through both front ends: `parse_spec` must return
//! an error (the server answers 400) and `cocoa-run` must exit with a
//! usage (2) or validation (3) code. Neither may panic, and no build
//! profile may quietly run a wrapped value instead.

use std::process::Command;

use cocoa_core::serve::parse_spec;

/// `(spec, cocoa-run flags, expected exit code)`.
const HOSTILE: &[(&str, &str, i32)] = &[
    // Negative seconds used to trip `SimDuration::from_secs_f64`'s assert.
    (r#"{"guard_band_s": -1}"#, "--guard-band -1", 2),
    (r#"{"snapshot_s": -5}"#, "--snapshot -5", 2),
    (r#"{"sample_interval_s": -1}"#, "--sample-interval -1", 2),
    // Seconds whose microseconds overflow `u64`: a panic in the dev
    // profile, a silently wrapped period in release.
    (
        r#"{"period_s": 9007199254740991}"#,
        "--period 9007199254740991",
        2,
    ),
    (
        r#"{"window_s": 9007199254740991}"#,
        "--window 9007199254740991",
        2,
    ),
    (
        r#"{"duration_s": 100000000000000}"#,
        "--duration 100000000000000",
        2,
    ),
    (r#"{"guard_band_s": 1e300}"#, "--guard-band 1e300", 2),
    // Grids the posterior cannot hold used to parse, then panic mid-run.
    (r#"{"grid_m": 0}"#, "--grid 0", 3),
    (r#"{"grid_m": -2}"#, "--grid -2", 3),
    (r#"{"grid_m": 500}"#, "--grid 500", 3),
    // A grid too fine to allocate used to abort the whole process.
    (r#"{"grid_m": 1e-3}"#, "--grid 0.001", 3),
    (r#"{"grid_m": 5e-324}"#, "--grid 5e-324", 3),
    // `static` with an explicit speed is a contradiction in either order.
    (
        r#"{"multicast": "odmrp", "static": true, "v_max": 3}"#,
        "--multicast odmrp --static --vmax 3",
        3,
    ),
    (
        r#"{"multicast": "odmrp", "v_max": 3, "static": true}"#,
        "--multicast odmrp --vmax 3 --static",
        3,
    ),
];

/// Small enough that a parent build which wrongly accepts a row still
/// finishes quickly.
const QUICK: &str = "--robots 4 --equipped 2 --duration 60";

#[test]
fn hostile_values_are_rejected_by_both_front_ends() {
    for &(spec, flags, code) in HOSTILE {
        assert!(parse_spec(spec).is_err(), "spec {spec} was accepted");
        let out = Command::new(env!("CARGO_BIN_EXE_cocoa-run"))
            .args(QUICK.split_whitespace())
            .args(flags.split_whitespace())
            .output()
            .expect("cocoa-run starts");
        assert_eq!(
            out.status.code(),
            Some(code),
            "cocoa-run {flags}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// `--inflight` takes whole seconds, like `--period`: a fractional
/// interval is a usage error.
#[test]
fn sweep_inflight_takes_whole_seconds() {
    let out = Command::new(env!("CARGO_BIN_EXE_cocoa-sweep"))
        .args(QUICK.split_whitespace())
        .args(["--periods", "20", "--inflight", "0.5"])
        .output()
        .expect("cocoa-sweep starts");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn removed_algorithm_alias_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_cocoa-run"))
        .args(QUICK.split_whitespace())
        .args(["--algorithm", "ekf"])
        .output()
        .expect("cocoa-run starts");
    assert_eq!(out.status.code(), Some(2));
}
