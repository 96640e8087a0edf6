//! A versioned, dependency-free binary checkpoint codec.
//!
//! Snapshots capture complete run state at an event-queue boundary so a
//! resumed run is *bit-identical* to an uninterrupted one. The container
//! format is deliberately dumb — self-describing sections of little-endian
//! primitives, each guarded by a CRC — so it can be produced and consumed
//! without serde (the build environment vendors only API stubs) and so two
//! snapshots can be compared section-by-section ([`Snapshot::diff`]).
//!
//! # Wire layout
//!
//! ```text
//! magic     b"CSNP"                      4 bytes
//! version   u32 LE                       schema version, bump on change
//! meta      u32 len + UTF-8 JSON line    built with cocoa_sim::jsonfmt
//! count     u32                          number of sections
//! section*  tag (u32 len + UTF-8)
//!           payload (u64 len + bytes)
//!           crc32 (u32, IEEE, over payload only)
//! ```
//!
//! Sections are written and read in a fixed order by convention, but the
//! reader indexes them by tag, so adding a section is backward-compatible
//! within a schema version while *reinterpreting* one requires a version
//! bump.
//!
//! Every decode error is a typed [`SnapshotError`]; feeding this module
//! truncated or corrupted bytes must never panic.
//!
//! # Examples
//!
//! ```
//! use cocoa_sim::snapshot::{self, Snapshot, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new("{\"kind\":\"snapshot\"}".to_string());
//! let mut payload = Vec::new();
//! snapshot::put_u64(&mut payload, 42);
//! snapshot::put_str(&mut payload, "hello");
//! w.push_section("demo", payload);
//! let bytes = w.finish();
//!
//! let snap = Snapshot::parse(&bytes).unwrap();
//! let mut r = snap.section("demo").unwrap();
//! assert_eq!(r.u64().unwrap(), 42);
//! assert_eq!(r.str_().unwrap(), "hello");
//! r.finish().unwrap();
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// The four magic bytes at the start of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CSNP";

/// Version of the snapshot wire schema. Bump whenever the meaning of any
/// section's bytes changes; readers reject other versions outright rather
/// than guessing. (v3: the telemetry section gained deterministic
/// histogram state after the counters vector. v4: the estimator section
/// became backend-tagged — Bayes, multilateration, or EKF payloads. v5:
/// the scenario keeps one grid-update field, `grid_fused`, and the Bayes
/// payload lost its adaptive tiles and four dead kernel counters.)
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 5;

/// A typed decode failure. Corrupted input surfaces here — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the declared structure requires.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The leading magic bytes are not `b"CSNP"`.
    BadMagic,
    /// The file's schema version is not the one this build understands.
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// A section's payload does not match its stored CRC.
    CrcMismatch {
        /// Tag of the damaged section.
        section: String,
    },
    /// A section the decoder requires is absent.
    MissingSection {
        /// Tag of the missing section.
        section: String,
    },
    /// Structurally invalid content (bad UTF-8, out-of-range enum
    /// discriminant, impossible length, …).
    Malformed {
        /// Human-readable description of the inconsistency.
        context: String,
    },
    /// A section decoded cleanly but left unread bytes behind — the writer
    /// and reader disagree about the section's shape.
    TrailingBytes {
        /// Tag or context of the over-long section.
        context: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot schema version {found} (this build reads {SNAPSHOT_SCHEMA_VERSION})"
            ),
            SnapshotError::CrcMismatch { section } => {
                write!(f, "CRC mismatch in section '{section}'")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "required section '{section}' missing")
            }
            SnapshotError::Malformed { context } => write!(f, "malformed snapshot: {context}"),
            SnapshotError::TrailingBytes { context } => {
                write!(f, "trailing bytes after {context}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial), table generated at compile time.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// The IEEE CRC-32 of `bytes` (the checksum guarding each section).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitive encoders: little-endian, length-prefixed strings and blobs.

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64`, little-endian two's complement.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its exact IEEE-754 bit pattern (bit-identical
/// round trips, NaN payloads included).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `bool` as one byte (0 or 1).
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Appends a `usize` widened to `u64` (portable across word sizes).
pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Appends a string as `u32` length + UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).expect("string over 4 GiB"));
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a byte blob as `u64` length + raw bytes.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

// ---------------------------------------------------------------------------
// Reader.

/// A bounds-checked typed cursor over one section's payload.
///
/// Every read returns [`SnapshotError::Truncated`] instead of panicking
/// when the bytes run out; [`SnapshotReader::finish`] rejects unread
/// trailing bytes so shape drift between writer and reader is caught.
#[derive(Debug, Clone)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps raw payload bytes; `context` labels errors.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        SnapshotReader {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed {
                context: format!("bool byte {other} in {}", self.context),
            }),
        }
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that overflow
    /// this platform's word size.
    pub fn usize_(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed {
            context: format!("usize {v} overflows platform word in {}", self.context),
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Malformed {
            context: format!("non-UTF-8 string in {}", self.context),
        })
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Malformed {
            context: format!(
                "blob length {len} overflows platform word in {}",
                self.context
            ),
        })?;
        self.take(len)
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes {
                context: self.context.to_string(),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Container.

/// Builds a snapshot file: metadata header plus CRC-guarded sections.
#[derive(Debug)]
pub struct SnapshotWriter {
    meta: String,
    sections: Vec<(&'static str, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot whose metadata header is `meta` — one flat JSON
    /// line, typically built with [`crate::jsonfmt::ObjectWriter`].
    pub fn new(meta: String) -> Self {
        SnapshotWriter {
            meta,
            sections: Vec::new(),
        }
    }

    /// Appends a section. Tags must be unique; sections render in push
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was already pushed — duplicate tags would make
    /// [`Snapshot::section`] ambiguous.
    pub fn push_section(&mut self, tag: &'static str, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(t, _)| *t != tag),
            "duplicate snapshot section '{tag}'"
        );
        self.sections.push((tag, payload));
    }

    /// Number of sections pushed so far.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Serializes the container: magic, version, metadata, sections with
    /// their CRCs.
    pub fn finish(self) -> Vec<u8> {
        let payload_total: usize = self
            .sections
            .iter()
            .map(|(t, p)| t.len() + p.len() + 16)
            .sum();
        let mut out = Vec::with_capacity(4 + 4 + 4 + self.meta.len() + 4 + payload_total);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAPSHOT_SCHEMA_VERSION);
        put_str(&mut out, &self.meta);
        put_u32(
            &mut out,
            u32::try_from(self.sections.len()).expect("section count"),
        );
        for (tag, payload) in &self.sections {
            put_str(&mut out, tag);
            put_bytes(&mut out, payload);
            put_u32(&mut out, crc32(payload));
        }
        out
    }
}

/// One parsed section: tag, payload, and the CRC stored in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSection {
    /// The section's tag.
    pub tag: String,
    /// The raw payload bytes (CRC already verified).
    pub payload: Vec<u8>,
    /// The verified CRC-32 of the payload.
    pub crc: u32,
}

/// A parsed snapshot file: version, metadata line, ordered sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    version: u32,
    meta: String,
    sections: Vec<SnapshotSection>,
}

impl Snapshot {
    /// Parses and validates `bytes`: magic, version, structure and every
    /// section CRC. Corrupted input yields a typed error, never a panic.
    pub fn parse(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut r = SnapshotReader::new(bytes, "snapshot header");
        let magic = r.take(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let meta = r.str_()?.to_string();
        let count = r.u32()?;
        let mut sections = Vec::with_capacity(count.min(1024) as usize);
        for _ in 0..count {
            r.context = "section table";
            let tag = r.str_()?.to_string();
            let payload = r.bytes()?.to_vec();
            let stored = r.u32()?;
            let actual = crc32(&payload);
            if stored != actual {
                return Err(SnapshotError::CrcMismatch { section: tag });
            }
            sections.push(SnapshotSection {
                tag,
                payload,
                crc: stored,
            });
        }
        r.context = "section table";
        r.finish()?;
        Ok(Snapshot {
            version,
            meta,
            sections,
        })
    }

    /// The file's schema version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The metadata JSON line.
    pub fn meta(&self) -> &str {
        &self.meta
    }

    /// The parsed sections, in file order.
    pub fn sections(&self) -> &[SnapshotSection] {
        &self.sections
    }

    /// A typed reader over the payload of section `tag`.
    pub fn section(&self, tag: &'static str) -> Result<SnapshotReader<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| SnapshotReader::new(&s.payload, tag))
            .ok_or(SnapshotError::MissingSection {
                section: tag.to_string(),
            })
    }

    /// Compares two snapshots section by section.
    pub fn diff(&self, other: &Snapshot) -> SnapshotDiff {
        let mut deltas = Vec::new();
        for a in &self.sections {
            match other.sections.iter().find(|b| b.tag == a.tag) {
                None => deltas.push(SectionDelta {
                    tag: a.tag.clone(),
                    kind: DeltaKind::OnlyInFirst,
                }),
                Some(b) if a.payload != b.payload => {
                    let first_diff = a
                        .payload
                        .iter()
                        .zip(&b.payload)
                        .position(|(x, y)| x != y)
                        .unwrap_or_else(|| a.payload.len().min(b.payload.len()));
                    deltas.push(SectionDelta {
                        tag: a.tag.clone(),
                        kind: DeltaKind::Changed {
                            len_first: a.payload.len(),
                            len_second: b.payload.len(),
                            first_diff_offset: first_diff,
                        },
                    });
                }
                Some(_) => {}
            }
        }
        for b in &other.sections {
            if !self.sections.iter().any(|a| a.tag == b.tag) {
                deltas.push(SectionDelta {
                    tag: b.tag.clone(),
                    kind: DeltaKind::OnlyInSecond,
                });
            }
        }
        SnapshotDiff {
            meta_differs: self.meta != other.meta,
            sections: deltas,
        }
    }
}

/// How one section differs between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaKind {
    /// Present only in the first snapshot.
    OnlyInFirst,
    /// Present only in the second snapshot.
    OnlyInSecond,
    /// Present in both with different payloads.
    Changed {
        /// Payload length in the first snapshot.
        len_first: usize,
        /// Payload length in the second snapshot.
        len_second: usize,
        /// Byte offset of the first difference (equal-prefix length if one
        /// payload is a prefix of the other).
        first_diff_offset: usize,
    },
}

/// One differing section in a [`Snapshot::diff`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionDelta {
    /// The section's tag.
    pub tag: String,
    /// How it differs.
    pub kind: DeltaKind,
}

/// The section-level comparison of two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// Whether the metadata lines differ.
    pub meta_differs: bool,
    /// Every differing section.
    pub sections: Vec<SectionDelta>,
}

impl SnapshotDiff {
    /// Whether the two snapshots are byte-identical in meta and sections.
    pub fn is_empty(&self) -> bool {
        !self.meta_differs && self.sections.is_empty()
    }
}

impl fmt::Display for SnapshotDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "snapshots identical");
        }
        if self.meta_differs {
            writeln!(f, "meta: differs")?;
        }
        for d in &self.sections {
            match &d.kind {
                DeltaKind::OnlyInFirst => writeln!(f, "{}: only in first", d.tag)?,
                DeltaKind::OnlyInSecond => writeln!(f, "{}: only in second", d.tag)?,
                DeltaKind::Changed {
                    len_first,
                    len_second,
                    first_diff_offset,
                } => writeln!(
                    f,
                    "{}: differs at byte {} (lengths {} vs {})",
                    d.tag, first_diff_offset, len_first, len_second
                )?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Interning: restoring `&'static str` fields from snapshot bytes.

static INTERNED: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();

/// Returns a `'static` copy of `s`, leaking at most once per distinct
/// string process-wide.
///
/// Telemetry events and counters carry `&'static str` names; restoring
/// them from snapshot bytes needs owned strings promoted to `'static`.
/// The memo bounds the leak to the set of distinct names ever restored —
/// a few kilobytes over any real workload.
pub fn intern(s: &str) -> &'static str {
    let mut map = INTERNED
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("intern table poisoned");
    if let Some(&v) = map.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    map.insert(s.to_owned(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new("{\"kind\":\"snapshot\",\"seed\":42}".to_string());
        let mut a = Vec::new();
        put_u64(&mut a, 7);
        put_f64(&mut a, -0.25);
        put_bool(&mut a, true);
        put_str(&mut a, "name");
        w.push_section("engine", a);
        let mut b = Vec::new();
        put_bytes(&mut b, &[1, 2, 3]);
        put_i64(&mut b, -5);
        w.push_section("rngs", b);
        w.finish()
    }

    #[test]
    fn round_trips_every_primitive() {
        let snap = Snapshot::parse(&sample()).unwrap();
        assert_eq!(snap.version(), SNAPSHOT_SCHEMA_VERSION);
        assert_eq!(snap.meta(), "{\"kind\":\"snapshot\",\"seed\":42}");
        let mut r = snap.section("engine").unwrap();
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.f64().unwrap(), -0.25);
        assert!(r.bool().unwrap());
        assert_eq!(r.str_().unwrap(), "name");
        r.finish().unwrap();
        let mut r = snap.section("rngs").unwrap();
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.i64().unwrap(), -5);
        r.finish().unwrap();
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, f64::INFINITY, f64::NAN, 1.0e-308, 0.1 + 0.2] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let got = SnapshotReader::new(&buf, "t").f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            match Snapshot::parse(&bytes[..cut]) {
                Ok(_) => panic!("truncated snapshot at {cut} bytes parsed"),
                Err(
                    SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::CrcMismatch { .. }
                    | SnapshotError::Malformed { .. }
                    | SnapshotError::TrailingBytes { .. },
                ) => {}
                Err(other) => panic!("unexpected error at {cut}: {other}"),
            }
        }
    }

    #[test]
    fn corruption_is_caught_by_crc() {
        let mut bytes = sample();
        // Flip one bit inside the first section's payload (past header).
        let idx = bytes.len() - 20;
        bytes[idx] ^= 0x40;
        match Snapshot::parse(&bytes) {
            Err(SnapshotError::CrcMismatch { .. } | SnapshotError::Malformed { .. })
            | Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("corruption not caught: {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(Snapshot::parse(&bytes), Err(SnapshotError::BadMagic));
        let mut bytes = sample();
        bytes[4] = 99;
        assert_eq!(
            Snapshot::parse(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn missing_section_and_trailing_bytes_are_typed() {
        let snap = Snapshot::parse(&sample()).unwrap();
        assert_eq!(
            snap.section("robots").unwrap_err(),
            SnapshotError::MissingSection {
                section: "robots".to_string()
            }
        );
        let mut r = snap.section("engine").unwrap();
        let _ = r.u64().unwrap();
        assert!(matches!(
            r.finish(),
            Err(SnapshotError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn trailing_garbage_after_container_is_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(
            Snapshot::parse(&bytes),
            Err(SnapshotError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn diff_pinpoints_the_changed_section_and_offset() {
        let a = Snapshot::parse(&sample()).unwrap();
        let mut w = SnapshotWriter::new("{\"kind\":\"snapshot\",\"seed\":42}".to_string());
        let mut s1 = Vec::new();
        put_u64(&mut s1, 8); // differs from 7 at byte 0
        put_f64(&mut s1, -0.25);
        put_bool(&mut s1, true);
        put_str(&mut s1, "name");
        w.push_section("engine", s1);
        let mut s2 = Vec::new();
        put_bytes(&mut s2, &[1, 2, 3]);
        put_i64(&mut s2, -5);
        w.push_section("rngs", s2);
        let b = Snapshot::parse(&w.finish()).unwrap();
        let diff = a.diff(&b);
        assert!(!diff.is_empty());
        assert_eq!(diff.sections.len(), 1);
        assert_eq!(diff.sections[0].tag, "engine");
        match diff.sections[0].kind {
            DeltaKind::Changed {
                len_first,
                len_second,
                first_diff_offset,
            } => {
                assert_eq!(len_first, len_second);
                assert_eq!(first_diff_offset, 0);
            }
            ref other => panic!("expected Changed, got {other:?}"),
        }
        assert!(a.diff(&a).is_empty());
        assert!(a.diff(&a).to_string().contains("identical"));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn intern_is_stable_and_deduplicating() {
        let a = intern("snapshot.test.name");
        let b = intern("snapshot.test.name");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a, b));
    }
}
