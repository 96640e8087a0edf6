//! Loading, validating and querying JSONL telemetry traces.
//!
//! [`Telemetry::to_jsonl`](cocoa_sim::telemetry::Telemetry::to_jsonl)
//! writes one flat JSON object per line; this module is the read side — a
//! dependency-free parser for exactly that subset of JSON (flat objects of
//! strings, numbers, booleans and nulls) plus the query layer behind the
//! `cocoa-trace` binary: per-robot timelines, span reports, counter dumps,
//! per-window summaries and event replay.
//!
//! The reconstruction helpers ([`TraceFile::team_error_curve`],
//! [`TraceFile::team_energy_curve`]) rebuild the paper-style
//! error-vs-time and energy-vs-time curves from `team_sample` events; the
//! runner emits those with bit-identical arithmetic to the metrics
//! pipeline, so the rebuilt curves match `RunMetrics` exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers up to 2^53 round-trip exactly).
    Num(f64),
    /// A string, unescaped.
    Str(String),
}

impl JsonValue {
    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parsed flat JSON object (one trace line).
pub type JsonObject = BTreeMap<String, JsonValue>;

/// Parses one flat JSON object: `{"key": scalar, ...}` with no nesting.
///
/// # Errors
///
/// Returns a human-readable message on malformed input, including a key
/// that appears twice (a map would silently keep only one of the
/// values).
pub fn parse_flat_object(line: &str) -> Result<JsonObject, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = JsonObject::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            if out.contains_key(&key) {
                return Err(format!("repeated key {key:?}"));
            }
            out.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.next() {
            Some(c) if c == b => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", b as char)),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {:?}", d as char))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                s.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|e| format!("bad number {s:?}: {e}"))
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(format!("expected keyword {kw:?}"))
        }
    }
}

/// The `meta` header line of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Trace schema version.
    pub schema: u32,
    /// Telemetry level the trace was recorded at.
    pub level: String,
    /// Total events emitted (including dropped ones).
    pub events_emitted: u64,
    /// Events discarded by the ring-buffer bound.
    pub dropped: u64,
}

/// One event line of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event kind (`"fix"`, `"team_sample"`, …).
    pub kind: String,
    /// Stable sequence number.
    pub seq: u64,
    /// Simulation time, microseconds.
    pub t_us: u64,
    /// All remaining fields of the line.
    pub fields: JsonObject,
}

impl TraceEvent {
    /// Simulation time in seconds.
    pub fn t_s(&self) -> f64 {
        self.t_us as f64 / 1e6
    }

    /// The `robot` field, if present and numeric.
    pub fn robot(&self) -> Option<u64> {
        self.fields.get("robot").and_then(|v| v.as_u64())
    }
}

/// One span line of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span name.
    pub name: String,
    /// Total wall-clock time attributed, nanoseconds.
    pub total_ns: u64,
    /// Times the span closed.
    pub count: u64,
}

/// One histogram line of a trace (the `include_spans` trailer).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHist {
    /// Histogram name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Whether the histogram tracks wall-clock quantities.
    pub wall: bool,
    /// Non-zero buckets as `(bucket index, count)`, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

/// Every event kind the schema defines.
pub const KNOWN_EVENT_KINDS: &[&str] = &[
    "window_start",
    "beacon_tx",
    "beacon_rx",
    "grid_update",
    "fix",
    "flat_posterior",
    "starved_window",
    "sync_delivered",
    "sync_missed",
    "failover",
    "mesh_prune",
    "radio_state",
    "fault",
    "health",
    "robot_sample",
    "team_sample",
    "snapshot_taken",
    "snapshot_restored",
    "legacy",
];

/// A fully parsed telemetry trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// The header line.
    pub meta: TraceMeta,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// End-of-run counters, as written (sorted by name).
    pub counters: Vec<(String, u64)>,
    /// Span totals, if the trace embeds them.
    pub spans: Vec<TraceSpan>,
    /// Histogram snapshots, if the trace embeds them.
    pub hists: Vec<TraceHist>,
}

/// Why a trace failed to parse — distinguishing genuinely invalid input
/// from the one damage shape a killed run produces: a torn final line.
///
/// A process killed mid-`write` leaves a JSONL file whose last line
/// stops short. Everything before it is intact and perfectly usable —
/// notably by `cocoa-trace bisect`, which compares the longest common
/// prefix anyway — so [`TruncatedTail`](TraceError::TruncatedTail)
/// carries the valid prefix instead of discarding it.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace violates the schema somewhere other than a torn tail.
    Invalid(String),
    /// Only the final line is damaged; every earlier line parsed and
    /// validated.
    TruncatedTail {
        /// The valid trace formed by every line before the torn one.
        /// Its `meta` is the original header, so `meta.events_emitted`
        /// may exceed `events.len()`.
        prefix: Box<TraceFile>,
        /// 1-based number of the torn line.
        line: usize,
        /// What went wrong on that line.
        detail: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Invalid(msg) => f.write_str(msg),
            TraceError::TruncatedTail {
                prefix,
                line,
                detail,
            } => write!(
                f,
                "line {line}: {detail} (file ends on a torn line; {} valid events precede it)",
                prefix.events.len()
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parser state threaded through the per-line validation.
#[derive(Default)]
struct TraceAccumulator {
    meta: Option<TraceMeta>,
    events: Vec<TraceEvent>,
    counters: Vec<(String, u64)>,
    spans: Vec<TraceSpan>,
    hists: Vec<TraceHist>,
    last_seq: Option<u64>,
    last_t: u64,
}

impl TraceAccumulator {
    /// Parses and validates one non-empty line. Errors carry no line
    /// number — the caller owns line accounting.
    fn push_line(&mut self, lineno: usize, line: &str) -> Result<(), String> {
        let obj = parse_flat_object(line)?;
        let get_u64 = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("missing integer {key:?}"))
        };
        let get_str = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        let kind = get_str("kind")?;
        match kind.as_str() {
            "meta" => {
                if self.meta.is_some() {
                    return Err("duplicate meta line".into());
                }
                if lineno != 1 {
                    return Err("meta must be the first line".into());
                }
                let schema = get_u64("schema")? as u32;
                if schema != cocoa_sim::telemetry::TRACE_SCHEMA_VERSION {
                    return Err(format!("unsupported schema {schema}"));
                }
                self.meta = Some(TraceMeta {
                    schema,
                    level: get_str("level")?,
                    events_emitted: get_u64("events")?,
                    dropped: get_u64("dropped")?,
                });
            }
            "counter" => self.counters.push((get_str("name")?, get_u64("value")?)),
            "span" => self.spans.push(TraceSpan {
                name: get_str("name")?,
                total_ns: get_u64("total_ns")?,
                count: get_u64("count")?,
            }),
            "hist" => {
                let get_f64 = |key: &str| -> Result<f64, String> {
                    obj.get(key)
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| format!("missing number {key:?}"))
                };
                let wall = match obj.get("wall") {
                    Some(JsonValue::Bool(b)) => *b,
                    _ => return Err("missing boolean \"wall\"".into()),
                };
                // Non-zero buckets ride a compact "idx:count,idx:count"
                // string so hist lines stay flat JSON objects.
                let mut buckets = Vec::new();
                let spec = get_str("buckets")?;
                for pair in spec.split(',').filter(|p| !p.is_empty()) {
                    let (idx, count) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("malformed bucket pair {pair:?}"))?;
                    let idx: u32 = idx
                        .parse()
                        .map_err(|_| format!("bad bucket index {idx:?}"))?;
                    let count: u64 = count
                        .parse()
                        .map_err(|_| format!("bad bucket count {count:?}"))?;
                    buckets.push((idx, count));
                }
                self.hists.push(TraceHist {
                    name: get_str("name")?,
                    count: get_u64("count")?,
                    sum: get_f64("sum")?,
                    min: get_f64("min")?,
                    max: get_f64("max")?,
                    wall,
                    buckets,
                });
            }
            k if KNOWN_EVENT_KINDS.contains(&k) => {
                if self.meta.is_none() {
                    return Err("event before meta line".into());
                }
                let seq = get_u64("seq")?;
                let t_us = get_u64("t_us")?;
                if self.last_seq.is_some_and(|s| seq <= s) {
                    return Err(format!("seq {seq} not increasing"));
                }
                if t_us < self.last_t {
                    return Err(format!("t_us {t_us} went backwards"));
                }
                self.last_seq = Some(seq);
                self.last_t = t_us;
                let mut fields = obj;
                fields.remove("kind");
                fields.remove("seq");
                fields.remove("t_us");
                self.events.push(TraceEvent {
                    kind,
                    seq,
                    t_us,
                    fields,
                });
            }
            other => return Err(format!("unknown kind {other:?}")),
        }
        Ok(())
    }

    fn into_trace(self) -> Result<TraceFile, String> {
        let meta = self.meta.ok_or("missing meta line")?;
        Ok(TraceFile {
            meta,
            events: self.events,
            counters: self.counters,
            spans: self.spans,
            hists: self.hists,
        })
    }
}

impl TraceFile {
    /// Parses and validates a JSONL trace.
    ///
    /// Validation enforces the schema: a leading `meta` line with a known
    /// schema version, only known event kinds, strictly increasing
    /// sequence numbers and non-decreasing timestamps.
    ///
    /// # Errors
    ///
    /// Returns `"line N: reason"` on the first malformed line. A torn
    /// final line is also an error here; use [`TraceFile::parse_partial`]
    /// to recover the valid prefix instead.
    pub fn parse(text: &str) -> Result<TraceFile, String> {
        TraceFile::parse_partial(text).map_err(|e| e.to_string())
    }

    /// Like [`TraceFile::parse`], but classifies the one recoverable
    /// damage shape: when only the *final* non-empty line is malformed
    /// (the signature of a run killed mid-write), the error is
    /// [`TraceError::TruncatedTail`] carrying the fully validated
    /// prefix, so tools can keep working with every intact event.
    ///
    /// # Errors
    ///
    /// [`TraceError::Invalid`] for damage anywhere before the final
    /// line (or a missing/unsupported header);
    /// [`TraceError::TruncatedTail`] when only the tail is torn.
    pub fn parse_partial(text: &str) -> Result<TraceFile, TraceError> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let mut acc = TraceAccumulator::default();
        for (pos, &(lineno, line)) in lines.iter().enumerate() {
            if let Err(detail) = acc.push_line(lineno, line) {
                let is_tail = pos == lines.len() - 1 && acc.meta.is_some();
                if is_tail {
                    let prefix = acc
                        .into_trace()
                        .expect("meta checked above, prefix is valid");
                    return Err(TraceError::TruncatedTail {
                        prefix: Box::new(prefix),
                        line: lineno,
                        detail,
                    });
                }
                return Err(TraceError::Invalid(format!("line {lineno}: {detail}")));
            }
        }
        acc.into_trace().map_err(TraceError::Invalid)
    }

    /// The team mean-error curve: `(t_s, mean_err_m, robots)` per sample.
    /// Bit-identical to `RunMetrics::error_series` for the same run.
    pub fn team_error_curve(&self) -> Vec<(f64, f64, u64)> {
        self.events
            .iter()
            .filter(|e| e.kind == "team_sample")
            .filter_map(|e| {
                Some((
                    e.t_s(),
                    e.fields.get("mean_err_m")?.as_f64()?,
                    e.fields.get("robots")?.as_u64()?,
                ))
            })
            .collect()
    }

    /// The team energy curve: `(t_s, energy_j)` per sample.
    pub fn team_energy_curve(&self) -> Vec<(f64, f64)> {
        self.events
            .iter()
            .filter(|e| e.kind == "team_sample")
            .filter_map(|e| Some((e.t_s(), e.fields.get("energy_j")?.as_f64()?)))
            .collect()
    }

    /// All events touching `robot` (samples, fixes, radio/health changes),
    /// in time order.
    pub fn robot_events(&self, robot: u64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.robot() == Some(robot))
            .collect()
    }

    /// Per-window protocol summary derived from the event stream:
    /// `(window, fixes, syncs_delivered, syncs_missed, starved)`.
    pub fn window_summary(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        let mut windows: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
        for e in &self.events {
            let Some(w) = e.fields.get("window").and_then(|v| v.as_u64()) else {
                continue;
            };
            let entry = windows.entry(w).or_default();
            match e.kind.as_str() {
                "fix" => entry.0 += 1,
                "sync_delivered" => entry.1 += 1,
                "sync_missed" => entry.2 += 1,
                "starved_window" => entry.3 += 1,
                _ => {}
            }
        }
        windows
            .into_iter()
            .map(|(w, (f, sd, sm, st))| (w, f, sd, sm, st))
            .collect()
    }

    /// Events at or after `from_s`, optionally capped at `limit`.
    pub fn replay_from(&self, from_s: f64, limit: Option<usize>) -> Vec<&TraceEvent> {
        let from_us = (from_s * 1e6).max(0.0) as u64;
        let it = self.events.iter().filter(move |e| e.t_us >= from_us);
        match limit {
            Some(n) => it.take(n).collect(),
            None => it.collect(),
        }
    }

    /// Finds the first event index at which two traces diverge.
    ///
    /// Events are compared in stream order on kind, sequence number,
    /// timestamp and every field. Returns `None` when both event streams
    /// are identical (counters and spans are not compared — see
    /// [`TraceFile::counter_diffs`]); when one stream is a strict prefix
    /// of the other, the divergence index is the prefix length.
    pub fn first_divergence(&self, other: &TraceFile) -> Option<usize> {
        let n = self.events.len().min(other.events.len());
        for i in 0..n {
            if self.events[i] != other.events[i] {
                return Some(i);
            }
        }
        if self.events.len() != other.events.len() {
            return Some(n);
        }
        None
    }

    /// End-of-run counters that differ between two traces:
    /// `(name, value_in_self, value_in_other)`, `None` when absent.
    pub fn counter_diffs(&self, other: &TraceFile) -> Vec<(String, Option<u64>, Option<u64>)> {
        let a: BTreeMap<&str, u64> = self
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let b: BTreeMap<&str, u64> = other
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let names: std::collections::BTreeSet<&str> = a.keys().chain(b.keys()).copied().collect();
        names
            .into_iter()
            .filter_map(|name| {
                let (va, vb) = (a.get(name).copied(), b.get(name).copied());
                (va != vb).then(|| (name.to_string(), va, vb))
            })
            .collect()
    }

    /// One human-readable line for an event (the replay display format).
    pub fn format_event(e: &TraceEvent) -> String {
        let mut out = format!("{:>12.6}s  {:<16}", e.t_s(), e.kind);
        for (k, v) in &e.fields {
            match v {
                JsonValue::Null => {
                    let _ = write!(out, " {k}=null");
                }
                JsonValue::Bool(b) => {
                    let _ = write!(out, " {k}={b}");
                }
                JsonValue::Num(n) => {
                    let _ = write!(out, " {k}={n}");
                }
                JsonValue::Str(s) => {
                    let _ = write!(out, " {k}={s:?}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_sim::telemetry::{Telemetry, TelemetryEvent, TelemetryLevel};
    use cocoa_sim::time::SimTime;

    #[test]
    fn parses_scalars_and_escapes() {
        let obj = parse_flat_object(r#"{"a": 1.5, "b": "x\"y\nz", "c": null, "d": true, "e": -2}"#)
            .unwrap();
        assert_eq!(obj["a"], JsonValue::Num(1.5));
        assert_eq!(obj["b"], JsonValue::Str("x\"y\nz".into()));
        assert_eq!(obj["c"], JsonValue::Null);
        assert_eq!(obj["d"], JsonValue::Bool(true));
        assert_eq!(obj["e"], JsonValue::Num(-2.0));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_flat_object("{").is_err());
        assert!(parse_flat_object(r#"{"a":}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} trailing"#).is_err());
        assert!(parse_flat_object(r#"{"a":1,}"#).is_err());
        assert!(
            parse_flat_object(r#"{"a":1,"a":2}"#).is_err(),
            "repeated key"
        );
    }

    #[test]
    fn unicode_escapes_and_utf8_round_trip() {
        let obj = parse_flat_object(r#"{"s": "café → 日本"}"#).unwrap();
        assert_eq!(obj["s"], JsonValue::Str("café → 日本".into()));
    }

    fn sample_trace() -> String {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        t.emit(
            SimTime::from_secs(1),
            TelemetryEvent::WindowStart { window: 0 },
        );
        t.emit(
            SimTime::from_secs(2),
            TelemetryEvent::Fix {
                robot: 3,
                window: 0,
                x_m: 10.0,
                y_m: 20.0,
                err_m: 1.25,
            },
        );
        t.emit(
            SimTime::from_secs(2),
            TelemetryEvent::SyncMissed {
                robot: 4,
                window: 0,
            },
        );
        t.emit(
            SimTime::from_secs(3),
            TelemetryEvent::TeamSample {
                mean_err_m: 2.5,
                robots: 25,
                energy_j: 100.0,
            },
        );
        t.absorb("traffic.fixes", 1);
        t.to_jsonl(false)
    }

    #[test]
    fn round_trips_telemetry_output() {
        let trace = TraceFile::parse(&sample_trace()).unwrap();
        assert_eq!(trace.meta.level, "full");
        assert_eq!(trace.meta.events_emitted, 4);
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.counters, vec![("traffic.fixes".to_string(), 1)]);
        assert_eq!(trace.events[1].kind, "fix");
        assert_eq!(trace.events[1].robot(), Some(3));
        let curve = trace.team_error_curve();
        assert_eq!(curve, vec![(3.0, 2.5, 25)]);
        assert_eq!(trace.team_energy_curve(), vec![(3.0, 100.0)]);
        let windows = trace.window_summary();
        assert_eq!(windows, vec![(0, 1, 0, 1, 0)]);
        assert_eq!(trace.robot_events(3).len(), 1);
        assert_eq!(trace.replay_from(2.0, None).len(), 3);
        assert_eq!(trace.replay_from(2.0, Some(1)).len(), 1);
    }

    /// A prune line carries the stamp's `seq` and the round's `mesh_seq`:
    /// one key each, so the strict parser accepts it.
    #[test]
    fn mesh_prune_lines_parse() {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        t.emit(
            SimTime::from_secs(1),
            TelemetryEvent::MeshPrune {
                robot: 2,
                source: 0,
                seq: 7,
            },
        );
        let trace = TraceFile::parse(&t.to_jsonl(false)).unwrap();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].kind, "mesh_prune");
        assert_eq!(trace.events[0].fields["mesh_seq"], JsonValue::Num(7.0));
    }

    #[test]
    fn validation_rejects_schema_violations() {
        // Missing meta.
        let err = TraceFile::parse("{\"kind\":\"fix\",\"seq\":0,\"t_us\":0,\"robot\":1,\"window\":0,\"x_m\":0,\"y_m\":0,\"err_m\":0}\n")
            .unwrap_err();
        assert!(err.contains("before meta"), "{err}");
        // Unknown kind.
        let err = TraceFile::parse(
            "{\"kind\":\"meta\",\"schema\":1,\"level\":\"full\",\"events\":0,\"dropped\":0}\n{\"kind\":\"bogus\",\"seq\":0,\"t_us\":0}\n",
        )
        .unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        // Decreasing seq.
        let err = TraceFile::parse(
            "{\"kind\":\"meta\",\"schema\":1,\"level\":\"full\",\"events\":2,\"dropped\":0}\n\
             {\"kind\":\"window_start\",\"seq\":1,\"t_us\":0,\"window\":0}\n\
             {\"kind\":\"window_start\",\"seq\":0,\"t_us\":0,\"window\":1}\n",
        )
        .unwrap_err();
        assert!(err.contains("not increasing"), "{err}");
        // Unsupported schema.
        let err = TraceFile::parse(
            "{\"kind\":\"meta\",\"schema\":99,\"level\":\"full\",\"events\":0,\"dropped\":0}\n",
        )
        .unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn spans_parse_when_embedded() {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        let id = t.span_id("grid.update");
        let s = t.span_start();
        t.span_end(id, s);
        let trace = TraceFile::parse(&t.to_jsonl(true)).unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "grid.update");
        assert_eq!(trace.spans[0].count, 1);
    }

    #[test]
    fn hist_lines_parse_when_embedded() {
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        let h = t.hist("run.robot_error_m");
        for x in [0.5, 1.5, 1.5, -2.0] {
            t.hist_record(h, x);
        }
        let trace = TraceFile::parse(&t.to_jsonl(true)).unwrap();
        assert_eq!(trace.hists.len(), 1);
        let hist = &trace.hists[0];
        assert_eq!(hist.name, "run.robot_error_m");
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 1.5);
        assert_eq!(hist.min, -2.0);
        assert_eq!(hist.max, 1.5);
        assert!(!hist.wall);
        assert_eq!(hist.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        // A trace without the trailer simply has no hists.
        let bare = TraceFile::parse(&t.to_jsonl(false)).unwrap();
        assert!(bare.hists.is_empty());
    }

    #[test]
    fn malformed_hist_buckets_are_rejected() {
        let text = "{\"kind\":\"meta\",\"schema\":1,\"level\":\"counters\",\"events\":0,\"dropped\":0}\n\
                    {\"kind\":\"hist\",\"name\":\"x\",\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"wall\":false,\"buckets\":\"7\"}\n";
        let err = TraceFile::parse(text).unwrap_err();
        assert!(err.contains("malformed bucket pair"), "{err}");
    }

    #[test]
    fn format_event_is_readable() {
        let trace = TraceFile::parse(&sample_trace()).unwrap();
        let line = TraceFile::format_event(&trace.events[1]);
        assert!(line.contains("fix"), "{line}");
        assert!(line.contains("robot=3"), "{line}");
    }

    #[test]
    fn bisect_localizes_injected_single_event_divergence() {
        let base = sample_trace();
        let a = TraceFile::parse(&base).unwrap();
        // Inject a single-event divergence: perturb one field of the
        // third event (seq 2) and leave everything else untouched.
        let divergent = base.replacen("\"robot\":4", "\"robot\":5", 1);
        assert_ne!(base, divergent, "injection must change the trace");
        let b = TraceFile::parse(&divergent).unwrap();
        let idx = a.first_divergence(&b).expect("divergence must be found");
        assert_eq!(idx, 2, "exact first diverging event index");
        assert_eq!(a.events[idx].seq, 2, "exact first diverging seq");
        assert_eq!(a.events[idx].kind, "sync_missed");
        // Symmetric.
        assert_eq!(b.first_divergence(&a), Some(2));
        // Identical traces report no divergence.
        assert_eq!(a.first_divergence(&a), None);
        assert!(a.counter_diffs(&a).is_empty());
    }

    #[test]
    fn bisect_reports_prefix_truncation_and_counter_deltas() {
        let base = sample_trace();
        let a = TraceFile::parse(&base).unwrap();
        // Drop the last event line and change the counter value.
        let truncated: String = base
            .lines()
            .filter(|l| !l.contains("team_sample"))
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            .replace("\"value\":1", "\"value\":3");
        let b = TraceFile::parse(&truncated).unwrap();
        assert_eq!(
            a.first_divergence(&b),
            Some(3),
            "a strict prefix diverges at its length"
        );
        let diffs = a.counter_diffs(&b);
        assert_eq!(diffs, vec![("traffic.fixes".to_string(), Some(1), Some(3))]);
    }

    #[test]
    fn torn_final_line_yields_the_valid_prefix() {
        let base = sample_trace();
        let full = TraceFile::parse(&base).unwrap();
        // Chop the file mid-way through its final line, as a SIGKILL
        // during the trailing write would.
        let cut = base.trim_end().len() - 9;
        let torn = &base[..cut];
        let err = TraceFile::parse_partial(torn).unwrap_err();
        match err {
            TraceError::TruncatedTail { prefix, line, .. } => {
                assert_eq!(prefix.meta, full.meta);
                assert_eq!(line, 6, "the counter line is the torn one");
                assert_eq!(prefix.events.len(), full.events.len());
                assert_eq!(prefix.events, full.events);
                assert!(prefix.counters.is_empty(), "torn counter not kept");
                // The prefix still answers queries — what bisect needs.
                assert_eq!(prefix.team_error_curve(), full.team_error_curve());
            }
            other => panic!("expected TruncatedTail, got {other:?}"),
        }
        // The strict entry point reports the same failure as a string.
        let msg = TraceFile::parse(torn).unwrap_err();
        assert!(msg.contains("torn line"), "{msg}");
    }

    #[test]
    fn damage_before_the_tail_is_still_invalid() {
        let base = sample_trace();
        // Tear an event line in the middle of the file.
        let lines: Vec<&str> = base.lines().collect();
        let mut mangled: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let mid = 2;
        mangled[mid] = mangled[mid][..mangled[mid].len() / 2].to_string();
        let text = mangled.join("\n");
        match TraceFile::parse_partial(&text) {
            Err(TraceError::Invalid(msg)) => {
                assert!(msg.starts_with(&format!("line {}", mid + 1)), "{msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn missing_meta_is_invalid_not_truncated() {
        match TraceFile::parse_partial("{\"kind\":\"counter\",\"name\":\"x\"") {
            Err(TraceError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_marker_events_parse() {
        let mut t = Telemetry::new(TelemetryLevel::Full);
        t.emit(
            SimTime::from_secs(1),
            TelemetryEvent::SnapshotTaken {
                bytes: 1024,
                sections: 7,
            },
        );
        t.emit(
            SimTime::from_secs(2),
            TelemetryEvent::SnapshotRestored { bytes: 1024 },
        );
        let trace = TraceFile::parse(&t.to_jsonl(false)).unwrap();
        assert_eq!(trace.events[0].kind, "snapshot_taken");
        assert_eq!(trace.events[1].kind, "snapshot_restored");
    }
}
