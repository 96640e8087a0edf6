//! Request specs: the wire form of a scenario.
//!
//! A serve request is one flat JSON object whose keys are the spec keys
//! of the [`crate::knobs`] table — the same table behind the
//! `cocoa-run` flags (`robots`, `period_s`, `estimator`, …). Parsing is
//! **fail-closed**: an unknown or repeated key, a mistyped value or a
//! contradictory combination rejects the whole request — a server must
//! never silently run a different experiment than the client described.

use cocoa_sim::telemetry::TelemetryLevel;
use cocoa_sim::time::SimDuration;

use crate::knobs::{self, Draft, KnobInput};
use crate::runner::scenario_fingerprint;
use crate::scenario::Scenario;
use crate::tracefile::parse_flat_object;

/// A fully validated run request: the scenario to simulate plus the
/// observation knobs that shape the streamed response.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// The validated experiment configuration.
    pub scenario: Scenario,
    /// Telemetry detail for the streamed JSONL body.
    pub telemetry: TelemetryLevel,
    /// Per-robot timeline sample interval override.
    pub sample_interval: Option<SimDuration>,
}

/// Parses one spec object into a validated [`ServeRequest`].
///
/// # Errors
///
/// A human-readable message naming the offending key: malformed JSON,
/// an unknown or repeated key, a mistyped value, or a spec that parses
/// but describes an invalid scenario (the same validation `cocoa-run`
/// applies to its flags).
pub fn parse_spec(spec: &str) -> Result<ServeRequest, String> {
    let mut draft = Draft::default();
    for (key, value) in &parse_flat_object(spec)? {
        let knob = knobs::by_key(key).ok_or_else(|| format!("unknown spec key '{key}'"))?;
        draft
            .set(knob, KnobInput::Json(value))
            .map_err(|e| e.to_string())?;
    }
    draft.finish().map_err(|e| e.to_string())
}

/// The request behind [`example_spec`]: the paper's defaults at quick
/// scale.
fn template_request() -> ServeRequest {
    let mut b = Scenario::builder();
    b.robots(12)
        .equipped(6)
        .duration(SimDuration::from_secs(300));
    ServeRequest {
        scenario: b.build(),
        telemetry: TelemetryLevel::Off,
        sample_interval: None,
    }
}

/// A quick-scale starter spec listing every knob with its value (every
/// omitted key takes the paper's default, exactly like `cocoa-run` with
/// no flags).
pub fn example_spec() -> String {
    knobs::render_spec(&template_request())
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The cache key for one request: the scenario fingerprint mixed with
/// the observation knobs. Two requests for the same scenario at
/// different telemetry levels must never share a cached body — their
/// JSONL streams differ.
pub fn request_fingerprint(request: &ServeRequest) -> u64 {
    let level = match request.telemetry {
        TelemetryLevel::Off => 0u64,
        TelemetryLevel::Counters => 1,
        TelemetryLevel::Timeline => 2,
        TelemetryLevel::Full => 3,
    };
    let interval = request
        .sample_interval
        .map(|d| d.as_micros())
        .unwrap_or(u64::MAX);
    let base = scenario_fingerprint(&request.scenario);
    splitmix(base ^ splitmix(level.wrapping_add(1)) ^ splitmix(interval))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_builder_defaults() {
        let req = parse_spec("{}").unwrap();
        assert_eq!(req.scenario, Scenario::builder().build());
        assert_eq!(req.telemetry, TelemetryLevel::Off);
        assert!(req.sample_interval.is_none());
    }

    #[test]
    fn keys_reach_the_builder() {
        let req = parse_spec(
            "{\"seed\": 7, \"robots\": 10, \"equipped\": 4, \"duration_s\": 120,\n \
             \"period_s\": 50, \"estimator\": \"ekf\", \"telemetry\": \"full\",\n \
             \"sample_interval_s\": 2.5}",
        )
        .unwrap();
        assert_eq!(req.scenario.seed, 7);
        assert_eq!(req.scenario.num_robots, 10);
        assert_eq!(req.scenario.num_equipped, 4);
        assert_eq!(req.telemetry, TelemetryLevel::Full);
        assert_eq!(req.sample_interval, Some(SimDuration::from_secs_f64(2.5)));
    }

    #[test]
    fn parsing_fails_closed() {
        assert!(parse_spec("not json").is_err());
        assert!(parse_spec("{\"robots\": \"many\"}").is_err(), "mistyped");
        assert!(parse_spec("{\"robotz\": 5}").is_err(), "unknown key");
        assert!(parse_spec("{\"mode\": \"psychic\"}").is_err());
        assert!(
            parse_spec("{\"seed\": 1, \"seed\": 2}").is_err(),
            "repeated key"
        );
        for retired in [
            "{\"grid_kernel\": \"scalar\"}",
            "{\"grid_precision\": \"f32\"}",
            "{\"grid_adaptive\": true}",
            "{\"grid_fused\": true}",
        ] {
            assert!(parse_spec(retired).is_err(), "{retired} is no longer a key");
        }
        assert!(
            parse_spec("{\"static\": true, \"v_max\": 3.0}").is_err(),
            "static vs explicit speeds"
        );
        assert!(
            parse_spec("{\"robots\": 4, \"equipped\": 9}").is_err(),
            "scenario validation runs"
        );
    }

    /// The template lists every knob that has a value to show, parses
    /// back to the request it was rendered from, and stays quick-scale.
    #[test]
    fn example_spec_round_trips() {
        let text = example_spec();
        let req = parse_spec(&text).unwrap();
        assert_eq!(req, template_request());
        assert!(req.scenario.num_robots <= 12);
        assert!(req.scenario.duration <= SimDuration::from_secs(300));
        for knob in knobs::KNOBS {
            if !["snapshot_s", "sample_interval_s"].contains(&knob.key) {
                assert!(
                    text.contains(&format!("\n  \"{}\": ", knob.key)),
                    "{}",
                    knob.key
                );
            }
        }
        // CI edits this line in place.
        assert!(text.contains("\"telemetry\": \"off\""));
    }

    /// Results persisted under `--state-dir` are keyed by these values.
    #[test]
    fn request_fingerprints_are_pinned() {
        use TelemetryLevel::*;
        let template = parse_spec(&example_spec()).unwrap();
        let pinned = [Off, Counters, Timeline, Full].map(|telemetry| {
            let request = ServeRequest {
                telemetry,
                ..template.clone()
            };
            format!("{:016x}", request_fingerprint(&request))
        });
        assert_eq!(
            pinned,
            [
                "870b55627465bea0",
                "e451c9e59a5bd669",
                "3458fc3589ed7ff8",
                "0c1b5cc4860bc9bb"
            ]
        );
    }

    #[test]
    fn observation_knobs_split_the_request_fingerprint() {
        let base = parse_spec("{\"robots\": 10, \"equipped\": 5}").unwrap();
        let traced =
            parse_spec("{\"robots\": 10, \"equipped\": 5, \"telemetry\": \"full\"}").unwrap();
        let sampled =
            parse_spec("{\"robots\": 10, \"equipped\": 5, \"sample_interval_s\": 1.0}").unwrap();
        let fps = [
            request_fingerprint(&base),
            request_fingerprint(&traced),
            request_fingerprint(&sampled),
        ];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
        assert_eq!(request_fingerprint(&base), fps[0], "deterministic");
    }
}
