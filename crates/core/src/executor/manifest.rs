//! The sweep manifest: a versioned, CRC-guarded progress ledger that
//! makes long sweeps resumable.
//!
//! A checkpointed sweep keeps its progress in files next to its
//! manifest path `PATH`:
//!
//! - the **manifest file** at `PATH`, written through the snapshot
//!   container codec (`CSNP` magic, schema version, per-section
//!   CRC-32). Per sweep point it records a **fingerprint** of the
//!   scenario, so a manifest is never replayed against a different
//!   sweep, and whether the point is **completed**, with its full
//!   [`RunMetrics`], byte-exact;
//! - one **point file** per point in flight, at
//!   [`point_path`]`(PATH, index, fingerprint)` (`PATH.p1-<16 hex
//!   digits>`), holding exactly the bytes
//!   [`SimRun::capture`](crate::runner::SimRun::capture) returned: a
//!   plain snapshot, so `cocoa-run --resume` and `cocoa-trace snapdiff`
//!   read it.
//!
//! A point is in flight if and only if its point file exists and the
//! manifest file does not record it as completed; otherwise it is
//! pending. Completion stores the manifest file first and then removes
//! the point file, so a crash between the two leaves a stale point file
//! that loses to the completed state. Every file is replaced atomically
//! ([`write_atomic`]), so a `SIGKILL` mid-write leaves the previous good
//! file rather than a torn one. The point file's name carries the
//! point's fingerprint, so another sweep at the same path never reads
//! it.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use cocoa_sim::files::{write_atomic, TEMP_SUFFIX};
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
    /// [`SimRun::resume`](crate::runner::SimRun::resume). Stored in the
    /// point's own file, not in the manifest file.
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

    /// Persists the manifest at `path`: the manifest file, then one
    /// point file per in-flight point. Any other point's file is removed,
    /// so [`SweepManifest::load`] reads back exactly these states. Each
    /// file is replaced atomically.
    pub fn store(&self, path: &Path) -> Result<(), ManifestError> {
        self.store_ledger(path)?;
        for (index, (&fingerprint, state)) in self.fingerprints.iter().zip(&self.states).enumerate()
        {
            let file = point_path(path, index, fingerprint);
            match state {
                PointState::InFlight(snapshot) => write_atomic(&file, snapshot)?,
                _ => remove_if_present(&file)?,
            }
        }
        Ok(())
    }

    /// Loads the manifest at `path` with its in-flight points' snapshots.
    /// A missing manifest file is `Ok(None)` (a fresh sweep); anything
    /// unreadable or undecodable is an error. A point file's bytes are
    /// returned as they are: whether they resume is the sweep's to find
    /// out.
    pub fn load(path: &Path) -> Result<Option<SweepManifest>, ManifestError> {
        let Some(mut manifest) = SweepManifest::load_ledger(path)? else {
            return Ok(None);
        };
        for (index, (&fingerprint, state)) in (manifest.fingerprints.iter())
            .zip(&mut manifest.states)
            .enumerate()
        {
            if matches!(state, PointState::Pending) {
                if let Some(snapshot) = read_if_present(&point_path(path, index, fingerprint))? {
                    *state = PointState::InFlight(snapshot);
                }
            }
        }
        Ok(Some(manifest))
    }

    /// Writes only the manifest file: fingerprints and completed
    /// metrics. An in-flight point is recorded as not completed; its
    /// point file is left as it is.
    pub(crate) fn store_ledger(&self, path: &Path) -> Result<(), ManifestError> {
        write_atomic(path, self.encode())?;
        Ok(())
    }

    /// Reads only the manifest file: every point not completed is
    /// pending, whatever point files lie next to it.
    pub(crate) fn load_ledger(path: &Path) -> Result<Option<SweepManifest>, ManifestError> {
        match read_if_present(path)? {
            Some(bytes) => Ok(Some(SweepManifest::decode(&bytes)?)),
            None => Ok(None),
        }
    }

    /// The manifest file's bytes.
    fn encode(&self) -> Vec<u8> {
        let mut meta = ObjectWriter::new();
        meta.str_field("kind", MANIFEST_KIND)
            .u64_field("points", self.fingerprints.len() as u64);
        let mut points: Vec<(u64, Option<Box<RunMetrics>>)> = (self.fingerprints.iter().copied())
            .zip(self.states.iter().map(|state| match state {
                PointState::Completed(metrics) => Some(metrics.clone()),
                _ => None,
            }))
            .collect();
        let mut w = SnapshotWriter::new(meta.finish());
        w.push_section("sweep", snapshot::encode(|c| c.vec(&mut points, point)));
        w.finish()
    }

    /// Decodes the manifest file, verifying the container CRC and the
    /// meta `kind` tag.
    fn decode(bytes: &[u8]) -> Result<SweepManifest, ManifestError> {
        let snap = Snapshot::parse(bytes)?;
        let wanted = format!("\"kind\":\"{MANIFEST_KIND}\"");
        if !snap.meta().contains(&wanted) {
            return Err(ManifestError::WrongKind(snap.meta().to_string()));
        }
        let mut points = Vec::new();
        snap.decode("sweep", |c| c.vec(&mut points, point))?;
        let (fingerprints, states) = points
            .into_iter()
            .map(|(fp, completed)| {
                (
                    fp,
                    completed.map_or(PointState::Pending, PointState::Completed),
                )
            })
            .unzip();
        Ok(SweepManifest {
            fingerprints,
            states,
        })
    }
}

/// The file that holds point `index`'s in-flight snapshot, next to the
/// manifest at `manifest`: its name with `.p<index>-<fingerprint in 16
/// hex digits>` appended.
pub fn point_path(manifest: &Path, index: usize, fingerprint: u64) -> PathBuf {
    let mut name = manifest.as_os_str().to_owned();
    name.push(format!(".p{index}-{fingerprint:016x}"));
    PathBuf::from(name)
}

/// Removes every point file next to the manifest at `manifest`, of any
/// sweep, and any temp file a killed write left of one.
pub(crate) fn remove_point_files(manifest: &Path) -> io::Result<()> {
    let Some(name) = manifest.file_name().and_then(|n| n.to_str()) else {
        return Ok(());
    };
    let dir = match manifest.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let prefix = format!("{name}.p");
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let file = entry.file_name();
        let Some(rest) = file.to_str().and_then(|f| f.strip_prefix(&prefix)) else {
            continue;
        };
        let rest = rest.strip_suffix(TEMP_SUFFIX).unwrap_or(rest);
        let is_point_file = rest.split_once('-').is_some_and(|(index, fp)| {
            !index.is_empty()
                && index.bytes().all(|b| b.is_ascii_digit())
                && fp.len() == 16
                && fp.bytes().all(|b| b.is_ascii_hexdigit())
        });
        if is_point_file {
            remove_if_present(&entry.path())?;
        }
    }
    Ok(())
}

/// The file's bytes, or `None` if it does not exist.
pub(crate) fn read_if_present(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Removes the file; one that does not exist is not an error.
pub(crate) fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Layouts. f64 fields travel as raw bit patterns, so decode → encode is
// the identity on bytes.

/// One point of the "sweep" section: its fingerprint and, once it has
/// completed, its metrics.
fn point(
    c: &mut impl Codec,
    (fp, completed): &mut (u64, Option<Box<RunMetrics>>),
) -> Result<(), SnapshotError> {
    c.u64(fp)?;
    c.opt(completed, |c, metrics| {
        c.nested("run metrics", |c| run_metrics(c, metrics))
    })
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

    /// A fresh directory under the system temp dir, named for `tag`.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cocoa-manifest-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create a temp dir");
        dir
    }

    /// The file names in `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list the dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn manifest_round_trip() {
        let dir = temp_dir("round-trip");
        let path = dir.join("sweep.csnp");
        let manifest = SweepManifest {
            fingerprints: vec![11, 22, 33],
            states: vec![
                PointState::Completed(Box::new(sample_metrics(0))),
                PointState::InFlight(vec![1, 2, 3, 4]),
                PointState::Pending,
            ],
        };
        manifest.store(&path).expect("store");
        // The snapshot lives in its point's file, byte for byte, and
        // the manifest file records the point as not completed.
        assert_eq!(
            names(&dir),
            ["sweep.csnp", "sweep.csnp.p1-0000000000000016"]
        );
        assert_eq!(
            std::fs::read(point_path(&path, 1, 22)).expect("point file"),
            [1, 2, 3, 4]
        );
        let ledger = SweepManifest::load_ledger(&path)
            .expect("load")
            .expect("present");
        assert_eq!(ledger.states[1], PointState::Pending);
        let back = SweepManifest::load(&path).expect("load").expect("present");
        assert_eq!(back, manifest);
        assert_eq!(back.completed_count(), 1);
        assert!(back.matches(&[11, 22, 33]));
        assert!(!back.matches(&[11, 22, 34]));

        // Storing the point as pending removes its file again.
        SweepManifest::new(vec![11, 22, 33])
            .store(&path)
            .expect("store");
        assert_eq!(names(&dir), ["sweep.csnp"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Only point files of the manifest's own name are removed: their
    /// staged temp files too, but not a file that merely shares the
    /// prefix.
    #[test]
    fn remove_point_files_spares_other_files() {
        let dir = temp_dir("remove");
        let path = dir.join("sweep.csnp");
        for name in [
            "sweep.csnp",
            "sweep.csnp.p0-00000000000000ab",
            "sweep.csnp.p12-ffffffffffffffff.tmp",
            "sweep.csnp.p1-notafingerprint",
            "sweep.csnp.prom",
            "other.csnp.p0-00000000000000ab",
        ] {
            std::fs::write(dir.join(name), b"x").expect("write");
        }
        remove_point_files(&path).expect("remove");
        assert_eq!(
            names(&dir),
            [
                "other.csnp.p0-00000000000000ab",
                "sweep.csnp",
                "sweep.csnp.p1-notafingerprint",
                "sweep.csnp.prom",
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
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
        let dir = temp_dir("store");
        let path = dir.join("sweep.csnp");
        let manifest = SweepManifest::new(vec![1, 2, 3]);
        manifest.store(&path).expect("store");
        let back = SweepManifest::load(&path).expect("load").expect("present");
        assert_eq!(back, manifest);
        std::fs::remove_file(&path).ok();
        assert!(SweepManifest::load(&path).expect("missing is ok").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
