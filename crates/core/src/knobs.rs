//! The scenario-knob table: every setting a user can reach from
//! `cocoa-run`, `cocoa-sweep` or a serve spec, described once. The CLI
//! parsers, [`parse_spec`], `cocoa-run --help`, the `/v1/spec` template
//! and the fingerprint test all iterate [`KNOBS`], so adding a knob is
//! one row.
//!
//! Values arrive as a [`KnobInput`] — argv text or a spec JSON scalar —
//! and accumulate in a [`Draft`]. Rules that span several knobs (the
//! `faults` preset scales to the final team and duration, `static`
//! conflicts with explicit speeds, `--snapshot` repeats) live in
//! [`Draft::finish`], so the order of flags or keys never matters.
//!
//! [`parse_spec`]: crate::serve::parse_spec

use cocoa_localization::estimator::{EstimatorMode, RfAlgorithm};
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_sim::faults::{FaultPlan, PRESET_NAMES};
use cocoa_sim::telemetry::TelemetryLevel;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::scenario::{Scenario, ScenarioBuilder};
use crate::serve::ServeRequest;
use crate::tracefile::JsonValue;

/// The longest span any seconds-valued knob accepts: 10⁹ s, about 32
/// years of simulated time. Sums and small multiples of such a value in
/// microseconds stay far below `u64::MAX`, so no later arithmetic on a
/// parsed time can overflow, in any build profile.
const MAX_SECS: u64 = 1_000_000_000;

/// A knob value on its way in.
#[derive(Debug, Clone, Copy)]
pub enum KnobInput<'a> {
    /// Command-line text.
    Arg(&'a str),
    /// A spec value; its JSON type must match the knob's, so
    /// `{"robots": "5"}` is rejected rather than coerced.
    Json(&'a JsonValue),
}

impl<'a> KnobInput<'a> {
    fn int<T: TryFrom<u64>>(self) -> Result<T, String> {
        match self {
            KnobInput::Arg(s) => s.parse().ok(),
            KnobInput::Json(v) => v.as_u64(),
        }
        .ok_or("must be a non-negative integer")?
        .try_into()
        .map_err(|_| "is too large".into())
    }

    fn num(self) -> Result<f64, String> {
        match self {
            KnobInput::Arg(s) => s.parse().ok(),
            KnobInput::Json(v) => v.as_f64(),
        }
        .filter(|v: &f64| v.is_finite())
        .ok_or_else(|| "must be a finite number".into())
    }

    fn switch(self) -> Result<bool, String> {
        match self {
            KnobInput::Arg("true") | KnobInput::Json(JsonValue::Bool(true)) => Ok(true),
            KnobInput::Arg("false") | KnobInput::Json(JsonValue::Bool(false)) => Ok(false),
            _ => Err("must be true or false".into()),
        }
    }

    /// A name, as `parse` spells it.
    fn named<T>(self, parse: fn(&str) -> Option<T>) -> Result<T, String> {
        let name = match self {
            KnobInput::Arg(s) => s,
            KnobInput::Json(v) => v.as_str().ok_or("must be a string")?,
        };
        parse(name).ok_or_else(|| format!("cannot be '{name}'"))
    }

    /// Whole seconds, at most [`MAX_SECS`].
    fn whole_secs(self) -> Result<SimDuration, String> {
        match self.int()? {
            s if s <= MAX_SECS => Ok(SimDuration::from_secs(s)),
            _ => Err(format!("must be at most {MAX_SECS} seconds")),
        }
    }

    /// Fractional seconds in `[0, MAX_SECS]` as whole microseconds,
    /// rounded like [`SimDuration::from_secs_f64`].
    fn micros(self) -> Result<u64, String> {
        let s = self.num()?;
        if !(0.0..=MAX_SECS as f64).contains(&s) {
            return Err(format!("must be between 0 and {MAX_SECS} seconds"));
        }
        Ok((s * 1e6).round() as u64)
    }
}

/// Why a set of knob values does not make a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobError {
    /// A value failed to parse: wrong JSON type, out of range, unknown
    /// name (`cocoa-run` exit 2).
    Value(String),
    /// The values parsed but describe an invalid scenario (`cocoa-run`
    /// exit 3).
    Invalid(String),
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KnobError::Value(msg) | KnobError::Invalid(msg) => f.write_str(msg),
        }
    }
}

/// A request being assembled from knob values.
#[derive(Debug, Clone, Default)]
pub struct Draft {
    builder: ScenarioBuilder,
    telemetry: TelemetryLevel,
    sample_interval: Option<SimDuration>,
    snapshots: Vec<SimTime>,
    static_team: bool,
    explicit_speed: bool,
    faults: Option<String>,
}

impl Draft {
    /// Applies one value to `knob`; a value that does not parse is a
    /// [`KnobError::Value`] naming the flag (argv) or the key (JSON).
    pub fn set(&mut self, knob: &Knob, input: KnobInput<'_>) -> Result<(), KnobError> {
        (knob.set)(self, input).map_err(|msg| {
            KnobError::Value(match input {
                KnobInput::Arg(_) => format!("{} {msg}", knob.flag),
                KnobInput::Json(_) => format!("'{}' {msg}", knob.key),
            })
        })
    }

    /// Applies `knob`'s command-line flag, taking its value from `args`
    /// unless the knob is a switch.
    pub fn apply_flag(
        &mut self,
        knob: &Knob,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<(), KnobError> {
        if knob.placeholder.is_empty() {
            return self.set(knob, KnobInput::Arg(knob.example));
        }
        let value = args
            .next()
            .ok_or_else(|| KnobError::Value(format!("{} needs a value", knob.flag)))?;
        self.set(knob, KnobInput::Arg(&value))
    }

    /// Applies the rules that span several knobs, then validates; a
    /// rejection is a [`KnobError::Invalid`].
    pub fn finish(mut self) -> Result<ServeRequest, KnobError> {
        if self.static_team {
            if self.explicit_speed {
                return Err(KnobError::Invalid(
                    "static pins both speeds to zero; drop v_min/v_max".into(),
                ));
            }
            self.builder.static_team();
        }
        if !self.snapshots.is_empty() {
            self.builder.snapshots(self.snapshots);
        }
        let mut scenario = self.builder.try_build().map_err(KnobError::Invalid)?;
        let plan = (self.faults.as_deref())
            .and_then(|name| FaultPlan::preset(name, scenario.duration, scenario.num_robots));
        if let Some(plan) = plan {
            scenario.faults = plan;
            scenario.validate().map_err(KnobError::Invalid)?;
        }
        Ok(ServeRequest {
            scenario,
            telemetry: self.telemetry,
            sample_interval: self.sample_interval,
        })
    }
}

/// One scenario knob: how it is spelled, documented and exemplified,
/// and the functions that parse a value in and render it back out.
pub struct Knob {
    /// Serve spec key, e.g. `period_s`.
    pub key: &'static str,
    /// Command-line flag, e.g. `--period`.
    pub flag: &'static str,
    /// Value placeholder for `--help`. Empty for a switch: the bare flag
    /// sets the knob to its example value (`--no-sync` sets `sync` to
    /// `false`).
    placeholder: &'static str,
    /// A valid, non-default value, as a JSON literal.
    pub example: &'static str,
    /// One-line description.
    doc: &'static str,
    set: Set,
    /// The value in a request as a JSON literal, or `None` when no single
    /// value of this knob reproduces it (an unnamed fault plan, several
    /// snapshots, an unset sample interval).
    show: Show,
}

type Set = fn(&mut Draft, KnobInput<'_>) -> Result<(), String>;
type Show = fn(&ServeRequest) -> Option<String>;

#[rustfmt::skip]
const fn knob(key: &'static str, flag: &'static str, placeholder: &'static str,
    example: &'static str, doc: &'static str, set: Set, show: Show) -> Knob {
    Knob { key, flag, placeholder, example, doc, set, show }
}

/// Succeeds, dropping a builder setter's `&mut ScenarioBuilder`.
fn ok<T>(_: T) -> Result<(), String> {
    Ok(())
}

fn lit(value: impl ToString) -> Option<String> {
    Some(value.to_string())
}

fn quoted(name: &str) -> Option<String> {
    Some(format!("\"{name}\""))
}

fn secs(d: SimDuration) -> Option<String> {
    lit(d.as_secs_f64())
}

/// Every scenario knob, in `--help` and template order. Columns: spec
/// key, flag, placeholder, example, doc, then the `set` and `show`
/// functions.
#[rustfmt::skip]
pub static KNOBS: &[Knob] = &[
    knob("seed", "--seed", "N", "7", "master seed",
        |d, v| ok(d.builder.seed(v.int()?)), |r| lit(r.scenario.seed)),
    knob("robots", "--robots", "N", "40", "team size",
        |d, v| ok(d.builder.robots(v.int()?)), |r| lit(r.scenario.num_robots)),
    knob("equipped", "--equipped", "N", "10", "robots with localization devices",
        |d, v| ok(d.builder.equipped(v.int()?)), |r| lit(r.scenario.num_equipped)),
    knob("duration_s", "--duration", "SECS", "900", "simulated seconds",
        |d, v| ok(d.builder.duration(v.whole_secs()?)), |r| secs(r.scenario.duration)),
    knob("period_s", "--period", "SECS", "50", "beacon period T",
        |d, v| ok(d.builder.beacon_period(v.whole_secs()?)),
        |r| secs(r.scenario.beacon_period)),
    knob("window_s", "--window", "SECS", "2", "transmit window t",
        |d, v| ok(d.builder.transmit_window(v.whole_secs()?)),
        |r| secs(r.scenario.transmit_window)),
    knob("beacons", "--beacons", "K", "2", "beacons per robot per window",
        |d, v| ok(d.builder.beacons_per_window(v.int()?)),
        |r| lit(r.scenario.beacons_per_window)),
    knob("v_max", "--vmax", "M_PER_S", "3.0", "maximum robot speed",
        |d, v| { d.explicit_speed = true; ok(d.builder.v_max(v.num()?)) },
        |r| lit(r.scenario.v_max).filter(|_| !r.scenario.is_static())),
    knob("v_min", "--vmin", "M_PER_S", "0.2", "minimum robot speed",
        |d, v| { d.explicit_speed = true; ok(d.builder.v_min(v.num()?)) },
        |r| lit(r.scenario.v_min).filter(|_| !r.scenario.is_static())),
    knob("static", "--static", "", "true",
        "pin every robot in place; needs --multicast flood or odmrp",
        |d, v| { d.static_team = v.switch()?; Ok(()) }, |r| lit(r.scenario.is_static())),
    knob("mode", "--mode", "MODE", "\"odometry\"", "estimator mode: cocoa | rf-only | odometry",
        |d, v| ok(d.builder.mode(v.named(EstimatorMode::parse)?)),
        |r| quoted(r.scenario.mode.as_str())),
    knob("multicast", "--multicast", "PROTO", "\"odmrp\"", "SYNC transport: flood | odmrp | mrmm",
        |d, v| ok(d.builder.multicast(v.named(MulticastProtocol::parse)?)),
        |r| quoted(r.scenario.multicast.as_str())),
    knob("estimator", "--estimator", "ALGO", "\"ekf\"",
        "per-window RF solver: bayes | multilateration | ekf",
        |d, v| ok(d.builder.rf_algorithm(v.named(RfAlgorithm::parse)?)),
        |r| quoted(r.scenario.rf_algorithm.as_str())),
    knob("grid_m", "--grid", "METRES", "4.0", "Bayesian grid resolution",
        |d, v| ok(d.builder.grid_resolution(v.num()?)),
        |r| lit(r.scenario.grid_resolution_m)),
    knob("grid_fused", "--grid-fused", "", "true",
        "commit each transmit window's beacons as one fused grid pass",
        |d, v| ok(d.builder.grid_fused(v.switch()?)), |r| lit(r.scenario.grid_fused)),
    knob("snapshot_s", "--snapshot", "SECS", "100",
        "record a per-robot CDF snapshot (the flag repeats)",
        |d, v| { d.snapshots.push(SimTime::from_micros(v.micros()?)); Ok(()) },
        |r| match r.scenario.snapshot_times[..] { [t] => lit(t.as_secs_f64()), _ => None }),
    knob("coordination", "--no-coordination", "", "false",
        "radios idle instead of sleeping between windows",
        |d, v| ok(d.builder.coordination(v.switch()?)), |r| lit(r.scenario.coordination)),
    knob("sync", "--no-sync", "", "false", "disable the MRMM SYNC service",
        |d, v| ok(d.builder.sync_enabled(v.switch()?)), |r| lit(r.scenario.sync_enabled)),
    knob("relay", "--relay", "", "true", "localized robots also beacon (Section 6 extension)",
        |d, v| ok(d.builder.relay_beaconing(v.switch()?)),
        |r| lit(r.scenario.relay_beaconing)),
    knob("faults", "--faults", "NAME", "\"burst30\"",
        "canned fault schedule: none | sync-crash | burst30 | corrupt | chaos",
        |d, v| {
            d.faults = Some(v.named(|n| PRESET_NAMES.contains(&n).then(|| n.to_string()))?);
            Ok(())
        },
        |r| quoted("none").filter(|_| r.scenario.faults.is_empty())),
    knob("packet_loss", "--packet-loss", "P", "0.1", "independent per-reception loss probability",
        |d, v| ok(d.builder.packet_loss(v.num()?)), |r| lit(r.scenario.packet_loss)),
    knob("clock_skew_ppm", "--clock-skew", "PPM", "99", "per-robot clock skew magnitude",
        |d, v| ok(d.builder.clock_skew_ppm(v.num()?)), |r| lit(r.scenario.clock_skew_ppm)),
    knob("guard_band_s", "--guard-band", "SECS", "2", "how early robots wake before a window",
        |d, v| ok(d.builder.guard_band(SimDuration::from_micros(v.micros()?))),
        |r| secs(r.scenario.guard_band)),
    knob("failover_missed_periods", "--failover-periods", "N", "5",
        "silent periods before the Sync timebase fails over",
        |d, v| ok(d.builder.failover_missed_periods(v.int()?)),
        |r| lit(r.scenario.failover_missed_periods)),
    knob("entropy_watchdog_frac", "--entropy-watchdog", "FRAC", "0.5",
        "flat-posterior threshold, fraction of max entropy (>= 1 disables)",
        |d, v| ok(d.builder.entropy_watchdog_frac(v.num()?)),
        |r| lit(r.scenario.entropy_watchdog_frac)),
    knob("outlier_gate_m", "--outlier-gate", "METRES", "75", "beacon outlier gate (0 disables)",
        |d, v| ok(d.builder.outlier_gate_m(v.num()?)), |r| lit(r.scenario.outlier_gate_m)),
    knob("telemetry", "--telemetry", "LEVEL", "\"full\"",
        "telemetry detail: off | counters | timeline | full",
        |d, v| { d.telemetry = v.named(TelemetryLevel::parse)?; Ok(()) },
        |r| quoted(r.telemetry.as_str())),
    knob("sample_interval_s", "--sample-interval", "SECS", "2.5",
        "per-robot timeline sample interval [default: the metrics interval]",
        |d, v| match v.micros()? {
            0 => Err("must be positive".into()),
            us => { d.sample_interval = Some(SimDuration::from_micros(us)); Ok(()) }
        },
        |r| r.sample_interval.and_then(secs)),
];

/// Parses seconds for a command-line flag outside the table
/// (`--snapshot-at`, `--deadline`) by the same rules as the seconds
/// knobs.
pub fn parse_secs(flag: &str, text: &str) -> Result<SimDuration, KnobError> {
    (KnobInput::Arg(text).micros().map(SimDuration::from_micros))
        .map_err(|msg| KnobError::Value(format!("{flag} {msg}")))
}

/// Parses whole seconds for a command-line flag outside the table
/// (`cocoa-sweep --inflight`) by the same rules as `--period`.
pub fn parse_whole_secs(flag: &str, text: &str) -> Result<SimDuration, KnobError> {
    (KnobInput::Arg(text).whole_secs()).map_err(|msg| KnobError::Value(format!("{flag} {msg}")))
}

/// The row for spec key `key`.
pub fn by_key(key: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.key == key)
}

/// The row for command-line flag `flag`.
pub fn by_flag(flag: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.flag == flag)
}

/// Renders `request` as a spec: one `"key": value` line per knob that
/// can show its value. [`parse_spec`](crate::serve::parse_spec) of the
/// result rebuilds `request`.
pub(crate) fn render_spec(request: &ServeRequest) -> String {
    let lines: Vec<String> = KNOBS
        .iter()
        .filter_map(|k| Some(format!("  \"{}\": {}", k.key, (k.show)(request)?)))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// The `--help` lines for every knob whose key is not in `skip`, with
/// defaults read from the builder.
pub fn cli_help(skip: &[&str]) -> String {
    let defaults = ServeRequest {
        scenario: Scenario::builder().build(),
        telemetry: TelemetryLevel::default(),
        sample_interval: None,
    };
    let mut out = String::new();
    for knob in KNOBS.iter().filter(|k| !skip.contains(&k.key)) {
        let head = format!("{} {}", knob.flag, knob.placeholder);
        let default = (knob.show)(&defaults)
            .filter(|_| !knob.placeholder.is_empty())
            .map(|v| format!(" [default: {}]", v.trim_matches('"')))
            .unwrap_or_default();
        out.push_str(&format!("    {head:<25}{}{default}\n", knob.doc));
    }
    out
}

/// The row's example as a spec and as argv. `static` needs a non-MRMM
/// transport to be valid, so it brings one along.
#[cfg(test)]
pub(crate) fn example_forms(knob: &Knob) -> (String, Vec<String>) {
    let mut spec = format!("\"{}\": {}", knob.key, knob.example);
    let mut args = vec![knob.flag.to_string()];
    if !knob.placeholder.is_empty() {
        args.push(knob.example.trim_matches('"').to_string());
    }
    if knob.key == "static" {
        spec.push_str(", \"multicast\": \"flood\"");
        args.extend(["--multicast".to_string(), "flood".to_string()]);
    }
    (format!("{{{spec}}}"), args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::parse_spec;

    fn from_args(args: &[&str]) -> Result<ServeRequest, KnobError> {
        let mut draft = Draft::default();
        let mut it = args.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            let knob = by_flag(&flag).unwrap_or_else(|| panic!("{flag} is not a knob flag"));
            draft.apply_flag(knob, &mut it)?;
        }
        draft.finish()
    }

    #[test]
    fn keys_and_flags_are_unique() {
        for (i, a) in KNOBS.iter().enumerate() {
            for b in &KNOBS[i + 1..] {
                assert_ne!(a.key, b.key);
                assert_ne!(a.flag, b.flag);
            }
        }
    }

    /// Every row's CLI form and spec form build the same request, and
    /// that request differs from the defaults.
    #[test]
    fn cli_and_spec_forms_build_equal_requests() {
        let default = parse_spec("{}").unwrap();
        for knob in KNOBS {
            let (spec, args) = example_forms(knob);
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let from_spec = parse_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let from_cli = from_args(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(from_cli, from_spec, "{}", knob.key);
            assert_ne!(from_spec, default, "{}'s example is the default", knob.key);
        }
    }

    #[test]
    fn static_conflicts_with_explicit_speeds_in_any_order() {
        for args in [
            ["--multicast", "odmrp", "--static", "--vmax", "3"],
            ["--multicast", "odmrp", "--vmax", "3", "--static"],
        ] {
            let result = from_args(&args);
            assert!(matches!(result, Err(KnobError::Invalid(_))), "{args:?}");
        }
    }

    #[test]
    fn snapshot_flag_repeats() {
        let request = from_args(&["--snapshot", "100", "--snapshot", "200.5"]).unwrap();
        assert_eq!(
            request.scenario.snapshot_times,
            [SimTime::from_secs(100), SimTime::from_millis(200_500)]
        );
    }

    /// Docs that list a knob's names list exactly the parsers' names.
    #[test]
    fn docs_list_every_accepted_name() {
        use TelemetryLevel::*;
        let lists: [(&str, Vec<&str>); 5] = [
            (
                "mode",
                EstimatorMode::ALL.map(EstimatorMode::as_str).to_vec(),
            ),
            (
                "multicast",
                MulticastProtocol::ALL
                    .map(MulticastProtocol::as_str)
                    .to_vec(),
            ),
            (
                "estimator",
                RfAlgorithm::ALL.map(RfAlgorithm::as_str).to_vec(),
            ),
            ("faults", PRESET_NAMES.to_vec()),
            (
                "telemetry",
                [Off, Counters, Timeline, Full].map(|l| l.as_str()).to_vec(),
            ),
        ];
        for (key, mut names) in lists {
            let doc = by_key(key).unwrap().doc;
            let mut listed: Vec<&str> = doc.rsplit(": ").next().unwrap().split(" | ").collect();
            listed.sort_unstable();
            names.sort_unstable();
            assert_eq!(listed, names, "{key}: {doc}");
        }
    }

    #[test]
    fn help_lists_every_flag_with_builder_defaults() {
        let help = cli_help(&[]);
        for knob in KNOBS {
            assert!(help.contains(knob.flag), "{}", knob.flag);
        }
        assert!(help.contains("[default: 1800]"), "{help}");
        assert!(help.contains("[default: mrmm]"), "{help}");
        assert!(!cli_help(&["period_s"]).contains("--period "));
    }
}
