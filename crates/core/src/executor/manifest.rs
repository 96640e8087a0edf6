//! The sweep manifest: a versioned, CRC-guarded progress ledger that
//! makes long sweeps resumable.
//!
//! A supervised sweep periodically persists one manifest file through
//! the snapshot container codec (`CSNP` magic, per-section CRC-32).
//! The manifest records, per sweep point:
//!
//! - a **fingerprint** of the scenario (so a manifest is never replayed
//!   against a different sweep),
//! - its **state**: still pending, in flight (carrying the latest
//!   [`SimRun::capture`](crate::runner::SimRun::capture) snapshot so a
//!   restart resumes mid-run instead of starting cold), or
//!   completed (carrying the full [`RunMetrics`], byte-exact).
//!
//! Writes are atomic (temp file + rename), so a `SIGKILL` mid-write
//! leaves the previous good manifest on disk rather than a torn one.

use std::fmt;
use std::path::Path;

use cocoa_sim::jsonfmt::ObjectWriter;
use cocoa_sim::snapshot::{self, Codec, Snapshot, SnapshotError, SnapshotWriter};

use crate::metrics::RunMetrics;
use crate::world::checkpoint::{
    energy_ledger, error_point, error_snapshot, final_state, health_ledger, position_snapshot,
    robustness, traffic,
};
use crate::world::mesh::mesh_stats;

/// The `kind` tag stamped into every manifest's meta line.
pub const MANIFEST_KIND: &str = "cocoa-sweep-manifest";

/// Why a manifest could not be loaded or stored.
#[derive(Debug)]
pub enum ManifestError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes are not a valid manifest (truncation, CRC mismatch,
    /// schema drift…).
    Corrupt(SnapshotError),
    /// The file is a valid snapshot container but not a sweep manifest.
    WrongKind(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest io error: {e}"),
            ManifestError::Corrupt(e) => write!(f, "corrupt manifest: {e}"),
            ManifestError::WrongKind(meta) => {
                write!(f, "not a sweep manifest (meta: {meta})")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<SnapshotError> for ManifestError {
    fn from(e: SnapshotError) -> Self {
        ManifestError::Corrupt(e)
    }
}

impl From<std::io::Error> for ManifestError {
    fn from(e: std::io::Error) -> Self {
        ManifestError::Io(e)
    }
}

/// Where one sweep point stands.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PointState {
    /// Not started (or restarted after a terminal failure).
    #[default]
    Pending,
    /// Mid-run: the latest engine snapshot, resumable via
    /// [`SimRun::resume`](crate::runner::SimRun::resume).
    InFlight(Vec<u8>),
    /// Finished: the point's metrics, byte-exact.
    Completed(Box<RunMetrics>),
}

impl PointState {
    /// Short tag for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            PointState::Pending => "pending",
            PointState::InFlight(_) => "in-flight",
            PointState::Completed(_) => "completed",
        }
    }
}

/// Progress ledger for one sweep: per-point fingerprints and states.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Scenario fingerprints, one per sweep point, in sweep order.
    pub fingerprints: Vec<u64>,
    /// Per-point progress, parallel to `fingerprints`.
    pub states: Vec<PointState>,
}

impl SweepManifest {
    /// A fresh manifest with every point pending.
    pub fn new(fingerprints: Vec<u64>) -> Self {
        let states = fingerprints.iter().map(|_| PointState::Pending).collect();
        SweepManifest {
            fingerprints,
            states,
        }
    }

    /// Whether this manifest describes exactly the given sweep.
    pub fn matches(&self, fingerprints: &[u64]) -> bool {
        self.fingerprints == fingerprints
    }

    /// Number of points already completed.
    pub fn completed_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, PointState::Completed(_)))
            .count()
    }

    /// Serializes the manifest through the snapshot container codec.
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = ObjectWriter::new();
        meta.str_field("kind", MANIFEST_KIND)
            .u64_field("points", self.fingerprints.len() as u64);
        let mut points: Vec<(u64, PointState)> = (self.fingerprints.iter().copied())
            .zip(self.states.iter().cloned())
            .collect();
        let body = snapshot::encode(|c| c.vec(&mut points, point));
        drop(points); // free the snapshot copies before the container copies the body
        let mut w = SnapshotWriter::new(meta.finish());
        w.push_section("sweep", body);
        w.finish()
    }

    /// Decodes a manifest, verifying the container CRC and the meta
    /// `kind` tag.
    pub fn decode(bytes: &[u8]) -> Result<SweepManifest, ManifestError> {
        let snap = Snapshot::parse(bytes)?;
        let wanted = format!("\"kind\":\"{MANIFEST_KIND}\"");
        if !snap.meta().contains(&wanted) {
            return Err(ManifestError::WrongKind(snap.meta().to_string()));
        }
        let mut points = Vec::new();
        snap.decode("sweep", |c| c.vec(&mut points, point))?;
        let (fingerprints, states) = points.into_iter().unzip();
        Ok(SweepManifest {
            fingerprints,
            states,
        })
    }

    /// Atomically persists the manifest: the bytes land in a sibling
    /// temp file first and replace `path` via rename, so a crash
    /// mid-write cannot corrupt the previous good manifest.
    pub fn store(&self, path: &Path) -> Result<(), ManifestError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a manifest from disk. A missing file is `Ok(None)` (a
    /// fresh sweep); anything unreadable or undecodable is an error.
    pub fn load(path: &Path) -> Result<Option<SweepManifest>, ManifestError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ManifestError::Io(e)),
        };
        Ok(Some(SweepManifest::decode(&bytes)?))
    }
}

// ---------------------------------------------------------------------------
// Layouts. f64 fields travel as raw bit patterns, so decode → encode is
// the identity on bytes.

/// The tag order of [`PointState`].
fn point_states() -> [PointState; 3] {
    [
        PointState::Pending,
        PointState::InFlight(Vec::new()),
        PointState::Completed(Box::default()),
    ]
}

/// One point of the "sweep" section: its fingerprint and state.
fn point(c: &mut impl Codec, (fp, state): &mut (u64, PointState)) -> Result<(), SnapshotError> {
    c.u64(fp)?;
    c.tag(&point_states(), state, "point state")?;
    match state {
        PointState::Pending => Ok(()),
        PointState::InFlight(snapshot) => c.bytes(snapshot),
        PointState::Completed(metrics) => c.nested("run metrics", |c| run_metrics(c, metrics)),
    }
}

fn run_metrics(c: &mut impl Codec, m: &mut RunMetrics) -> Result<(), SnapshotError> {
    c.vec(&mut m.error_series, error_point)?;
    c.vec(&mut m.snapshots, error_snapshot)?;
    c.vec(&mut m.energy.per_robot, energy_ledger)?;
    mesh_stats(c, &mut m.mesh)?;
    traffic(c, &mut m.traffic)?;
    c.vec(&mut m.final_states, final_state)?;
    c.vec(&mut m.position_snapshots, position_snapshot)?;
    robustness(c, &mut m.robustness)?;
    c.vec(&mut m.health, health_ledger)?;
    c.u64(&mut m.events_processed)
}

/// Serializes metrics to the manifest wire form.
pub fn encode_metrics(m: &RunMetrics) -> Vec<u8> {
    snapshot::encode(|c| run_metrics(c, &mut m.clone()))
}

/// Deserializes metrics from the manifest wire form.
pub fn decode_metrics(bytes: &[u8]) -> Result<RunMetrics, SnapshotError> {
    let mut m = RunMetrics::default();
    snapshot::decode(bytes, "run metrics", |c| run_metrics(c, &mut m))?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthLedger;
    use crate::metrics::{
        EnergyReport, ErrorPoint, ErrorSnapshot, RobotFinalState, RobustnessStats, TrafficStats,
    };
    use cocoa_multicast::mesh::MeshStats;
    use cocoa_net::energy::EnergyLedger;
    use cocoa_net::geometry::Point;
    use cocoa_sim::time::SimTime;

    fn sample_metrics(salt: u64) -> RunMetrics {
        let f = salt as f64;
        RunMetrics {
            error_series: vec![
                ErrorPoint {
                    t_s: 1.0 + f,
                    mean_error_m: 2.5 * (f + 1.0),
                    robots: 7,
                },
                ErrorPoint {
                    t_s: 2.0 + f,
                    mean_error_m: 1.25,
                    robots: 8,
                },
            ],
            snapshots: vec![ErrorSnapshot {
                time: SimTime::from_secs(804 + salt),
                errors_m: vec![0.5, 1.5, f + 2.0],
            }],
            energy: EnergyReport {
                per_robot: vec![EnergyLedger {
                    tx_uj: 1.0,
                    rx_uj: 2.0,
                    idle_uj: 3.0,
                    sleep_uj: 4.0,
                    wake_uj: f,
                }],
            },
            mesh: MeshStats {
                queries_originated: salt,
                data_delivered: 99,
                ..MeshStats::default()
            },
            traffic: TrafficStats {
                beacons_sent: 1000 + salt,
                fixes: 42,
                ..TrafficStats::default()
            },
            final_states: vec![RobotFinalState {
                true_position: Point { x: 10.0, y: 20.0 },
                estimate: Point {
                    x: 10.5,
                    y: 19.5 + f,
                },
                equipped: salt.is_multiple_of(2),
            }],
            position_snapshots: vec![(
                SimTime::from_secs(300),
                vec![RobotFinalState {
                    true_position: Point { x: 1.0, y: 2.0 },
                    estimate: Point { x: 1.1, y: 2.2 },
                    equipped: true,
                }],
            )],
            robustness: RobustnessStats {
                crashes: salt,
                flat_posteriors: 3,
                ..RobustnessStats::default()
            },
            health: vec![HealthLedger {
                healthy_s: 100.0,
                degraded_s: 5.0,
                dead_reckoning_s: 2.0,
                down_s: f,
            }],
            events_processed: 123_456 + salt,
        }
    }

    #[test]
    fn metrics_round_trip_byte_exact() {
        let m = sample_metrics(3);
        let bytes = encode_metrics(&m);
        let back = decode_metrics(&bytes).expect("decodes");
        assert_eq!(back, m);
        assert_eq!(encode_metrics(&back), bytes, "re-encode is the identity");
    }

    #[test]
    fn manifest_round_trip() {
        let manifest = SweepManifest {
            fingerprints: vec![11, 22, 33],
            states: vec![
                PointState::Completed(Box::new(sample_metrics(0))),
                PointState::InFlight(vec![1, 2, 3, 4]),
                PointState::Pending,
            ],
        };
        let bytes = manifest.encode();
        let back = SweepManifest::decode(&bytes).expect("decodes");
        assert_eq!(back, manifest);
        assert_eq!(back.completed_count(), 1);
        assert!(back.matches(&[11, 22, 33]));
        assert!(!back.matches(&[11, 22, 34]));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let w = SnapshotWriter::new("{\"kind\":\"something-else\"}".to_string());
        let bytes = w.finish();
        match SweepManifest::decode(&bytes) {
            Err(ManifestError::WrongKind(_)) => {}
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn payload_bit_flip_is_rejected() {
        let manifest = SweepManifest::new(vec![5, 6]);
        let mut bytes = manifest.encode();
        // Flip a bit in the tail, inside the CRC-guarded section payload.
        let idx = bytes.len() - 6;
        bytes[idx] ^= 0x10;
        assert!(SweepManifest::decode(&bytes).is_err());
    }

    #[test]
    fn store_and_load_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cocoa-manifest-test-{}.csnp", std::process::id()));
        let manifest = SweepManifest::new(vec![1, 2, 3]);
        manifest.store(&path).expect("store");
        let back = SweepManifest::load(&path).expect("load").expect("present");
        assert_eq!(back, manifest);
        std::fs::remove_file(&path).ok();
        assert!(SweepManifest::load(&path).expect("missing is ok").is_none());
    }
}
