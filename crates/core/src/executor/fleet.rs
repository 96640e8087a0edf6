//! Live fleet status for supervised sweeps.
//!
//! [`FleetStatus`] folds the [`JobEvent`] stream of a supervised sweep
//! into a per-point state machine (pending → in-flight → retrying →
//! done / failed) and renders it two ways: a one-line terminal progress
//! display with throughput and ETA, and a machine-readable
//! `status.json` document written atomically (like the sweep manifest)
//! so an external watcher never reads a torn file.
//!
//! The struct itself never touches a clock — elapsed wall time is an
//! input, supplied by the CLI edge that owns the `Instant`. That keeps
//! the state machine deterministic and unit-testable.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use cocoa_sim::files::write_atomic;

use super::supervisor::JobEvent;

/// The lifecycle state of one sweep point, as observed from the
/// supervisor's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointProgress {
    /// No attempt has started yet.
    Pending,
    /// An attempt is currently running.
    InFlight {
        /// The running attempt, 1-based.
        attempt: u32,
    },
    /// The last attempt failed retryably; the next has not started.
    Retrying {
        /// The attempt that failed.
        attempt: u32,
        /// Failure tag of that attempt.
        kind: &'static str,
    },
    /// The point produced a value.
    Done {
        /// Attempts consumed.
        attempts: u32,
    },
    /// The point terminally failed.
    Failed {
        /// Attempts consumed.
        attempts: u32,
        /// Terminal failure tag.
        kind: &'static str,
    },
}

impl PointProgress {
    /// The stable state tag used in `status.json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            PointProgress::Pending => "pending",
            PointProgress::InFlight { .. } => "in_flight",
            PointProgress::Retrying { .. } => "retrying",
            PointProgress::Done { .. } => "done",
            PointProgress::Failed { .. } => "failed",
        }
    }
}

/// Aggregated live view of a sweep fleet.
#[derive(Debug, Clone)]
pub struct FleetStatus {
    points: Vec<PointProgress>,
}

impl FleetStatus {
    /// A fleet of `total` points, all pending.
    pub fn new(total: usize) -> Self {
        FleetStatus {
            points: vec![PointProgress::Pending; total],
        }
    }

    /// Appends `n` fresh pending points and returns the index of the
    /// first one. A batch sweep knows its size up front, but a server
    /// observes an open-ended job stream — each accepted job grows the
    /// fleet by one and reports events under the returned index.
    pub fn grow(&mut self, n: usize) -> usize {
        let first = self.points.len();
        self.points
            .extend(std::iter::repeat_n(PointProgress::Pending, n));
        first
    }

    /// Folds one supervisor event into the per-point state machine.
    /// Terminal states are sticky: a zombie attempt (abandoned after
    /// its deadline) can never un-finish a point.
    pub fn observe(&mut self, event: JobEvent) {
        let (index, next) = match event {
            JobEvent::Started { index, attempt } => (index, PointProgress::InFlight { attempt }),
            JobEvent::Retrying {
                index,
                attempt,
                kind,
            } => (index, PointProgress::Retrying { attempt, kind }),
            JobEvent::Completed { index, attempts } => (index, PointProgress::Done { attempts }),
            JobEvent::Failed {
                index,
                attempts,
                kind,
            } => (index, PointProgress::Failed { attempts, kind }),
        };
        let Some(slot) = self.points.get_mut(index) else {
            return; // out-of-range index from a foreign stream; ignore
        };
        if matches!(
            slot,
            PointProgress::Done { .. } | PointProgress::Failed { .. }
        ) {
            return;
        }
        *slot = next;
    }

    /// Per-point states in input order.
    pub fn points(&self) -> &[PointProgress] {
        &self.points
    }

    /// Number of points in the fleet.
    pub fn total(&self) -> usize {
        self.points.len()
    }

    fn count(&self, f: impl Fn(&PointProgress) -> bool) -> usize {
        self.points.iter().filter(|p| f(p)).count()
    }

    /// Points that have produced a value.
    pub fn done(&self) -> usize {
        self.count(|p| matches!(p, PointProgress::Done { .. }))
    }

    /// Points that terminally failed.
    pub fn failed(&self) -> usize {
        self.count(|p| matches!(p, PointProgress::Failed { .. }))
    }

    /// Points currently running an attempt.
    pub fn in_flight(&self) -> usize {
        self.count(|p| matches!(p, PointProgress::InFlight { .. }))
    }

    /// Points between a retryable failure and their next attempt.
    pub fn retrying(&self) -> usize {
        self.count(|p| matches!(p, PointProgress::Retrying { .. }))
    }

    /// Points that have not started.
    pub fn pending(&self) -> usize {
        self.count(|p| matches!(p, PointProgress::Pending))
    }

    /// Whether every point reached a terminal state.
    pub fn is_settled(&self) -> bool {
        self.done() + self.failed() == self.total()
    }

    /// Throughput in completed points per second, `None` until the
    /// first completion or while `elapsed` is zero.
    pub fn throughput(&self, elapsed: Duration) -> Option<f64> {
        let done = self.done();
        if done == 0 || elapsed.is_zero() {
            return None;
        }
        Some(done as f64 / elapsed.as_secs_f64())
    }

    /// Estimated seconds until the remaining points complete, from the
    /// observed throughput. `None` before the first completion.
    pub fn eta_seconds(&self, elapsed: Duration) -> Option<f64> {
        let remaining = self.total() - self.done() - self.failed();
        self.throughput(elapsed).map(|tp| remaining as f64 / tp)
    }

    /// The one-line terminal progress display.
    pub fn progress_line(&self, elapsed: Duration) -> String {
        let mut line = format!(
            "sweep {}/{} done, {} in-flight, {} retrying, {} failed",
            self.done(),
            self.total(),
            self.in_flight(),
            self.retrying(),
            self.failed(),
        );
        if let Some(tp) = self.throughput(elapsed) {
            let _ = write!(line, " | {:.2} pts/min", tp * 60.0);
            if !self.is_settled() {
                if let Some(eta) = self.eta_seconds(elapsed) {
                    let _ = write!(line, ", eta {eta:.0} s");
                }
            }
        }
        line
    }

    /// The machine-readable status document: aggregate counts,
    /// throughput/ETA, and the per-point state array.
    pub fn to_status_json(&self, elapsed: Duration) -> String {
        let num = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => format!("{x}"),
            _ => "null".to_owned(),
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":1,\"total\":{},\"pending\":{},\"in_flight\":{},\
             \"retrying\":{},\"done\":{},\"failed\":{},\"settled\":{},\
             \"elapsed_s\":{},\"throughput_per_s\":{},\"eta_s\":{},\"points\":[",
            self.total(),
            self.pending(),
            self.in_flight(),
            self.retrying(),
            self.done(),
            self.failed(),
            self.is_settled(),
            elapsed.as_secs_f64(),
            num(self.throughput(elapsed)),
            num(self.eta_seconds(elapsed)),
        );
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"index\":{i},\"state\":\"{}\"", p.as_str());
            match p {
                PointProgress::Pending => {}
                PointProgress::InFlight { attempt } => {
                    let _ = write!(out, ",\"attempt\":{attempt}");
                }
                PointProgress::Retrying { attempt, kind } => {
                    let _ = write!(out, ",\"attempt\":{attempt},\"kind\":\"{kind}\"");
                }
                PointProgress::Done { attempts } => {
                    let _ = write!(out, ",\"attempts\":{attempts}");
                }
                PointProgress::Failed { attempts, kind } => {
                    let _ = write!(out, ",\"attempts\":{attempts},\"kind\":\"{kind}\"");
                }
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Writes `status.json` atomically ([`write_atomic`]), so a watcher
    /// never observes a torn file.
    ///
    /// # Errors
    ///
    /// Any io error from the write or the rename.
    pub fn store(&self, path: &Path, elapsed: Duration) -> std::io::Result<()> {
        write_atomic(path, self.to_status_json(elapsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_drive_the_state_machine() {
        let mut fleet = FleetStatus::new(3);
        assert_eq!(fleet.pending(), 3);
        fleet.observe(JobEvent::Started {
            index: 0,
            attempt: 1,
        });
        fleet.observe(JobEvent::Started {
            index: 1,
            attempt: 1,
        });
        assert_eq!(fleet.in_flight(), 2);
        assert_eq!(fleet.pending(), 1);
        fleet.observe(JobEvent::Retrying {
            index: 1,
            attempt: 1,
            kind: "panic",
        });
        assert_eq!(fleet.retrying(), 1);
        fleet.observe(JobEvent::Completed {
            index: 0,
            attempts: 1,
        });
        fleet.observe(JobEvent::Started {
            index: 1,
            attempt: 2,
        });
        fleet.observe(JobEvent::Failed {
            index: 1,
            attempts: 2,
            kind: "panic",
        });
        fleet.observe(JobEvent::Completed {
            index: 2,
            attempts: 1,
        });
        assert_eq!(fleet.done(), 2);
        assert_eq!(fleet.failed(), 1);
        assert!(fleet.is_settled());
    }

    #[test]
    fn grow_appends_pending_points() {
        let mut fleet = FleetStatus::new(0);
        assert_eq!(fleet.grow(1), 0);
        assert_eq!(fleet.grow(2), 1);
        assert_eq!(fleet.total(), 3);
        assert_eq!(fleet.pending(), 3);
        fleet.observe(JobEvent::Completed {
            index: 2,
            attempts: 1,
        });
        assert_eq!(fleet.done(), 1);
    }

    #[test]
    fn terminal_states_are_sticky() {
        let mut fleet = FleetStatus::new(1);
        fleet.observe(JobEvent::Completed {
            index: 0,
            attempts: 1,
        });
        // A zombie attempt (abandoned after its deadline) reports late.
        fleet.observe(JobEvent::Started {
            index: 0,
            attempt: 2,
        });
        assert_eq!(fleet.points()[0], PointProgress::Done { attempts: 1 });
        // Out-of-range indices are ignored, not a panic.
        fleet.observe(JobEvent::Started {
            index: 99,
            attempt: 1,
        });
        assert!(fleet.is_settled());
    }

    #[test]
    fn throughput_and_eta_follow_completions() {
        let mut fleet = FleetStatus::new(4);
        let elapsed = Duration::from_secs(10);
        assert_eq!(fleet.throughput(elapsed), None);
        assert_eq!(fleet.eta_seconds(elapsed), None);
        for index in 0..2 {
            fleet.observe(JobEvent::Completed { index, attempts: 1 });
        }
        // 2 points in 10 s -> 0.2 pts/s; 2 remaining -> 10 s eta.
        assert_eq!(fleet.throughput(elapsed), Some(0.2));
        assert_eq!(fleet.eta_seconds(elapsed), Some(10.0));
        assert_eq!(fleet.throughput(Duration::ZERO), None);
    }

    #[test]
    fn progress_line_reads_naturally() {
        let mut fleet = FleetStatus::new(3);
        fleet.observe(JobEvent::Started {
            index: 0,
            attempt: 1,
        });
        let line = fleet.progress_line(Duration::from_secs(5));
        assert_eq!(line, "sweep 0/3 done, 1 in-flight, 0 retrying, 0 failed");
        fleet.observe(JobEvent::Completed {
            index: 0,
            attempts: 1,
        });
        let line = fleet.progress_line(Duration::from_secs(60));
        assert!(line.starts_with("sweep 1/3 done"), "{line}");
        assert!(line.contains("1.00 pts/min"), "{line}");
        assert!(line.contains("eta 120 s"), "{line}");
    }

    #[test]
    fn status_json_is_flat_and_parseable() {
        let mut fleet = FleetStatus::new(2);
        fleet.observe(JobEvent::Started {
            index: 0,
            attempt: 1,
        });
        fleet.observe(JobEvent::Failed {
            index: 1,
            attempts: 3,
            kind: "deadline",
        });
        let json = fleet.to_status_json(Duration::from_secs(2));
        assert!(json.contains("\"total\":2"), "{json}");
        assert!(json.contains("\"in_flight\":1"), "{json}");
        assert!(json.contains("\"failed\":1"), "{json}");
        assert!(json.contains("\"throughput_per_s\":null"), "{json}");
        assert!(
            json.contains(
                "{\"index\":1,\"state\":\"failed\",\"attempts\":3,\"kind\":\"deadline\"}"
            ),
            "{json}"
        );
    }

    #[test]
    fn store_writes_atomically() {
        let dir = std::env::temp_dir().join(format!("cocoa-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        let fleet = FleetStatus::new(1);
        fleet.store(&path, Duration::from_secs(1)).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"total\":1"), "{body}");
        assert!(!dir.join("status.json.tmp").exists(), "tmp renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
