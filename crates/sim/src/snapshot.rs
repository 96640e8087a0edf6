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
//! A section's payload is written and read by one layout generic over
//! [`Codec`], so its two directions cannot drift apart. Each stateful
//! type carries its own layout as a `code` method beside its fields.
//! Every decode error is a typed [`SnapshotError`]; feeding this module
//! truncated or corrupted bytes must never panic.
//!
//! # Examples
//!
//! ```
//! use cocoa_sim::snapshot::{self, Codec, Snapshot, SnapshotError, SnapshotWriter};
//!
//! #[derive(Debug, Default, PartialEq)]
//! struct Reading {
//!     id: u32,
//!     samples: Vec<f64>,
//!     label: Option<String>,
//! }
//!
//! // The one layout: it encodes `v` on a `Vec<u8>` and overwrites it on
//! // a decoder.
//! fn reading(c: &mut impl Codec, v: &mut Reading) -> Result<(), SnapshotError> {
//!     c.u32(&mut v.id)?;
//!     c.vec(&mut v.samples, Codec::f64)?;
//!     c.opt(&mut v.label, Codec::string)
//! }
//!
//! let mut original = Reading { id: 7, samples: vec![0.5, -1.0], label: Some("a".into()) };
//! let mut w = SnapshotWriter::new("{\"kind\":\"snapshot\"}".to_string());
//! w.push_section("demo", snapshot::encode(|c| reading(c, &mut original)));
//! let bytes = w.finish();
//!
//! let snap = Snapshot::parse(&bytes).unwrap();
//! let mut back = Reading::default();
//! snap.decode("demo", |c| reading(c, &mut back)).unwrap();
//! assert_eq!(back, original);
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
/// payload lost its adaptive tiles and four dead kernel counters. v6: the
/// scenario lost `grid_fused`, the Bayes payload its pending beacons and
/// two fused-window counters, and telemetry events their `Legacy` tag.
/// v7: every value a reader can rebuild from the scenario, a constant or
/// the medium is gone — the mesh mode, the engine horizon, the maximum
/// guard band, `TxEnd`'s receiver list, the frame id on each RSSI record
/// (each medium frame holds its own), and per robot the fix flag,
/// equipment, estimator presence and backend tag, and the waypoint,
/// odometry, energy and bitrate settings. v8: a sweep manifest keeps
/// only fingerprints and completed metrics; an in-flight point's
/// snapshot lives in a file of its own. v9: each beacon count is stored
/// once — the estimator keeps one per-window applied count, and the Bayes
/// payload's kernel counters and window counts and the EKF's applied
/// updates are gone — and the medium no longer stores its capture margin
/// and retention, which are constants. v10: a Bayes payload stores the
/// entropy its last window closed with, if recorded, and its cells only
/// while they hold a window's evidence.)
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 10;

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

impl SnapshotError {
    /// A [`SnapshotError::Malformed`] with `context` as its description.
    pub fn malformed(context: impl Into<String>) -> Self {
        SnapshotError::Malformed {
            context: context.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, zlib's values), slicing-by-16 over
// tables generated at compile time.

/// Table 0 is the classic bytewise table. Table k holds the CRC of byte
/// b followed by k zero bytes, so each byte of a 16-byte block folds in
/// through its own lookup instead of a chain of sixteen.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// One bytewise CRC step on table 0.
fn crc32_byte(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// The IEEE CRC-32 of `bytes` (the checksum guarding each section).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut b: [u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        // The running CRC folds into bytes 0–3; byte k is then followed by
        // 15 − k more bytes of the block, so it looks up table 15 − k.
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        b[..4].copy_from_slice(&head.to_le_bytes());
        c = b
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&byte, table)| acc ^ table[usize::from(byte)]);
    }
    c = blocks.remainder().iter().fold(c, |c, &b| crc32_byte(c, b));
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Reader cursor.

/// A bounds-checked cursor over one payload.
///
/// Reading past the end is [`SnapshotError::Truncated`] instead of a
/// panic; [`SnapshotReader::finish`] rejects unread trailing bytes so
/// shape drift between writer and reader is caught.
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
// Symmetric codec: little-endian numbers, `f64`s as exact bit patterns
// (NaN payloads included), length-prefixed strings and blobs.

/// One direction of the symmetric wire codec.
///
/// A wire layout is written once, as a function generic over `Codec`
/// that visits every field of a value through `&mut`. The writer (a
/// `Vec<u8>`) reads each value and appends it; the reader ([`Decoder`])
/// overwrites each value with what it decodes. Because both directions
/// run the same function, they cannot drift apart.
///
/// Collections follow one length rule ([`Codec::count`]): a count larger
/// than the bytes left to decode is [`SnapshotError::Truncated`] before
/// anything is allocated. See the [module example](self).
pub trait Codec: Sized {
    /// Whether this side decodes (overwrites values) rather than encodes.
    /// Only the combinators below need to ask; layouts never do.
    fn reading(&self) -> bool;

    /// `N` raw bytes, the base of every fixed-width number.
    fn raw<const N: usize>(&mut self, v: &mut [u8; N]) -> Result<(), SnapshotError>;

    /// A collection's element count, stored like a `usize`. The reader
    /// applies the length rule: a count above the bytes left is
    /// [`SnapshotError::Truncated`].
    fn count(&mut self, n: &mut usize) -> Result<(), SnapshotError>;

    /// A byte blob: `u64` length, then the bytes.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapshotError>;

    /// A string: `u32` length, then UTF-8.
    fn string(&mut self, v: &mut String) -> Result<(), SnapshotError>;

    /// A `'static` name, laid out like [`Codec::string`]; the reader
    /// [`intern`]s it.
    fn name(&mut self, v: &mut &'static str) -> Result<(), SnapshotError>;

    /// A nested layout stored as a blob (laid out like [`Codec::bytes`]).
    /// The reader decodes the blob with its own cursor labelled
    /// `context` and rejects bytes the layout leaves unread.
    fn nested(
        &mut self,
        context: &'static str,
        layout: impl FnOnce(&mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError>;

    /// One byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError> {
        let mut b = [*v];
        self.raw(&mut b)?;
        *v = b[0];
        Ok(())
    }

    /// A little-endian `u32`.
    fn u32(&mut self, v: &mut u32) -> Result<(), SnapshotError> {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u32::from_le_bytes(b);
        Ok(())
    }

    /// A little-endian `u64`.
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u64::from_le_bytes(b);
        Ok(())
    }

    /// An `f64` as its exact bit pattern.
    fn f64(&mut self, v: &mut f64) -> Result<(), SnapshotError> {
        let mut bits = v.to_bits();
        self.u64(&mut bits)?;
        *v = f64::from_bits(bits);
        Ok(())
    }

    /// A `bool` as one byte; anything but 0 or 1 is malformed.
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapshotError> {
        let mut b = u8::from(*v);
        self.u8(&mut b)?;
        *v = match b {
            0 => false,
            1 => true,
            other => return Err(SnapshotError::malformed(format!("bool byte {other}"))),
        };
        Ok(())
    }

    /// A `usize` as a `u64` (portable across word sizes); a value over
    /// this platform's word is malformed.
    fn usize(&mut self, v: &mut usize) -> Result<(), SnapshotError> {
        let mut wide = *v as u64;
        self.u64(&mut wide)?;
        *v = usize::try_from(wide).map_err(|_| {
            SnapshotError::malformed(format!("usize {wide} overflows the platform word"))
        })?;
        Ok(())
    }

    /// Several `f64`s in order.
    fn f64s<const N: usize>(&mut self, vs: [&mut f64; N]) -> Result<(), SnapshotError> {
        vs.into_iter().try_for_each(|v| self.f64(v))
    }

    /// Several `u64`s in order.
    fn u64s<const N: usize>(&mut self, vs: [&mut u64; N]) -> Result<(), SnapshotError> {
        vs.into_iter().try_for_each(|v| self.u64(v))
    }

    /// An optional value: a [`Codec::bool`] presence flag, then the value.
    fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        layout: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut present = v.is_some();
        self.bool(&mut present)?;
        if self.reading() {
            *v = present.then(T::default);
        }
        match v {
            Some(x) => layout(self, x),
            None => Ok(()),
        }
    }

    /// A vector: [`Codec::count`], then each element. The reader starts
    /// every element from `T::default()`.
    fn vec<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        layout: impl FnMut(&mut Self, &mut T) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        self.vec_with(v, |_| T::default(), layout)
    }

    /// A vector whose elements the reader starts from `blank(index)`,
    /// for element types without a useful `Default`.
    fn vec_with<T>(
        &mut self,
        v: &mut Vec<T>,
        mut blank: impl FnMut(usize) -> T,
        mut layout: impl FnMut(&mut Self, &mut T) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut n = v.len();
        self.count(&mut n)?;
        if !self.reading() {
            return v.iter_mut().try_for_each(|x| layout(self, x));
        }
        // Grow as elements decode: memory tracks the bytes actually read.
        v.clear();
        for i in 0..n {
            let mut x = blank(i);
            layout(self, &mut x)?;
            v.push(x);
        }
        Ok(())
    }

    /// Which variant of an enum `v` is, stored as one byte: its index in
    /// `variants`, one placeholder per variant in tag order (an enum's
    /// `ALL` list when it carries no data). The reader replaces `v` with
    /// the indexed placeholder, whose fields the caller then codes.
    ///
    /// # Panics
    ///
    /// The writer panics if `variants` misses `v`'s variant.
    fn tag<T: Clone>(
        &mut self,
        variants: &[T],
        v: &mut T,
        what: &'static str,
    ) -> Result<(), SnapshotError> {
        let mut tag = 0u8;
        if !self.reading() {
            let kind = std::mem::discriminant(v);
            let index = variants
                .iter()
                .position(|p| std::mem::discriminant(p) == kind);
            tag = u8::try_from(index.expect("the variant list names every variant"))
                .expect("at most 256 variants");
        }
        self.u8(&mut tag)?;
        if self.reading() {
            *v = variants
                .get(usize::from(tag))
                .cloned()
                .ok_or_else(|| SnapshotError::malformed(format!("unknown {what} tag {tag}")))?;
        }
        Ok(())
    }

    /// A value stored in another form: the writer codes `save(v)`; the
    /// reader codes into `save(v)` of the value `v` it was given and
    /// replaces `v` with `load` of the result, which may reject it. For
    /// value conversions only (a packet as its on-air bytes, a hash map
    /// as its entries sorted by key); a component's state is coded in
    /// place by its own layout.
    fn via<T, S>(
        &mut self,
        v: &mut T,
        save: impl FnOnce(&T) -> S,
        layout: impl FnOnce(&mut Self, &mut S) -> Result<(), SnapshotError>,
        load: impl FnOnce(S) -> Result<T, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut state = save(v);
        layout(self, &mut state)?;
        if self.reading() {
            *v = load(state)?;
        }
        Ok(())
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("string over 4 GiB");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// The writer: appends each value to the buffer.
impl Codec for Vec<u8> {
    fn reading(&self) -> bool {
        false
    }

    fn raw<const N: usize>(&mut self, v: &mut [u8; N]) -> Result<(), SnapshotError> {
        self.extend_from_slice(v);
        Ok(())
    }

    fn count(&mut self, n: &mut usize) -> Result<(), SnapshotError> {
        self.usize(n)
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapshotError> {
        put_bytes(self, v);
        Ok(())
    }

    fn string(&mut self, v: &mut String) -> Result<(), SnapshotError> {
        put_str(self, v);
        Ok(())
    }

    fn name(&mut self, v: &mut &'static str) -> Result<(), SnapshotError> {
        put_str(self, v);
        Ok(())
    }

    fn nested(
        &mut self,
        _context: &'static str,
        layout: impl FnOnce(&mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let len_at = self.len();
        self.extend_from_slice(&[0; 8]);
        layout(self)?;
        backpatch_len(self, len_at);
        Ok(())
    }
}

/// Writes the length of the bytes after the 8-byte slot at `len_at` into
/// that slot: a blob laid out like [`Codec::bytes`], encoded in place.
fn backpatch_len(buf: &mut [u8], len_at: usize) {
    let len = (buf.len() - len_at - 8) as u64;
    buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

/// The reader: overwrites each value with what it decodes from a
/// [`SnapshotReader`].
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    r: SnapshotReader<'a>,
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8], context: &'static str) -> Self {
        Decoder {
            r: SnapshotReader::new(buf, context),
        }
    }

    fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let mut len = 0;
        self.count(&mut len)?;
        self.r.take(len)
    }

    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let mut len = 0u32;
        self.u32(&mut len)?;
        let bytes = self.r.take(len as usize)?;
        std::str::from_utf8(bytes).map_err(|_| {
            SnapshotError::malformed(format!("non-UTF-8 string in {}", self.r.context))
        })
    }
}

impl Codec for Decoder<'_> {
    fn reading(&self) -> bool {
        true
    }

    fn raw<const N: usize>(&mut self, v: &mut [u8; N]) -> Result<(), SnapshotError> {
        v.copy_from_slice(self.r.take(N)?);
        Ok(())
    }

    fn count(&mut self, n: &mut usize) -> Result<(), SnapshotError> {
        self.usize(n)?;
        if *n > self.r.remaining() {
            return Err(SnapshotError::Truncated {
                context: self.r.context,
            });
        }
        Ok(())
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapshotError> {
        *v = self.blob()?.to_vec();
        Ok(())
    }

    fn string(&mut self, v: &mut String) -> Result<(), SnapshotError> {
        *v = self.str()?.to_owned();
        Ok(())
    }

    fn name(&mut self, v: &mut &'static str) -> Result<(), SnapshotError> {
        *v = intern(self.str()?);
        Ok(())
    }

    fn nested(
        &mut self,
        context: &'static str,
        layout: impl FnOnce(&mut Self) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        decode(self.blob()?, context, layout)
    }
}

/// Encodes with `layout` into a fresh buffer.
pub fn encode(layout: impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError>) -> Vec<u8> {
    let mut buf = Vec::new();
    layout(&mut buf).expect("encoding into a Vec cannot fail");
    buf
}

/// Decodes all of `buf` with `layout`: bytes it leaves unread are
/// [`SnapshotError::TrailingBytes`].
pub fn decode<'a>(
    buf: &'a [u8],
    context: &'static str,
    layout: impl FnOnce(&mut Decoder<'a>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut d = Decoder::new(buf, context);
    layout(&mut d)?;
    d.r.finish()
}

// ---------------------------------------------------------------------------
// Container.

/// Builds a snapshot file: metadata header plus CRC-guarded sections,
/// each encoded straight into the one container buffer.
#[derive(Debug)]
pub struct SnapshotWriter {
    /// Magic, version, metadata, the section-count slot, then every
    /// finished section.
    buf: Vec<u8>,
    /// Where the section count goes once the last section is written.
    count_at: usize,
    tags: Vec<&'static str>,
}

impl SnapshotWriter {
    /// Starts a snapshot whose metadata header is `meta` — one flat JSON
    /// line, typically built with [`crate::jsonfmt::ObjectWriter`].
    pub fn new(meta: String) -> Self {
        Self::with_capacity(meta, 0)
    }

    /// Like [`new`](Self::new), reserving `capacity` bytes for the whole
    /// file up front: a writer that knows roughly how large the snapshot
    /// will be (the previous one's length) writes it without growing the
    /// buffer.
    pub fn with_capacity(meta: String, capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity.max(16 + meta.len()));
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_SCHEMA_VERSION.to_le_bytes());
        put_str(&mut buf, &meta);
        let count_at = buf.len();
        buf.extend_from_slice(&[0; 4]);
        SnapshotWriter {
            buf,
            count_at,
            tags: Vec::new(),
        }
    }

    /// Appends a section holding `payload`. Tags must be unique; sections
    /// render in push order.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was already pushed — duplicate tags would make
    /// [`Snapshot::decode`]'s lookup by tag ambiguous.
    pub fn push_section(&mut self, tag: &'static str, payload: Vec<u8>) {
        self.section(tag, |c| {
            c.extend_from_slice(&payload);
            Ok(())
        });
    }

    /// Appends a section whose payload `layout` encodes in place, like
    /// [`encode`] would into a buffer of its own, with no copy.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was already pushed, or if `layout` fails, which
    /// encoding into a `Vec` cannot unless the value itself is invalid.
    pub fn section(
        &mut self,
        tag: &'static str,
        layout: impl FnOnce(&mut Vec<u8>) -> Result<(), SnapshotError>,
    ) {
        assert!(
            !self.tags.contains(&tag),
            "duplicate snapshot section '{tag}'"
        );
        self.tags.push(tag);
        put_str(&mut self.buf, tag);
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        layout(&mut self.buf).expect("encoding into a Vec cannot fail");
        backpatch_len(&mut self.buf, len_at);
        let crc = crc32(&self.buf[len_at + 8..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Number of sections pushed so far.
    pub fn section_count(&self) -> usize {
        self.tags.len()
    }

    /// The finished container: magic, version, metadata, sections with
    /// their CRCs.
    pub fn finish(mut self) -> Vec<u8> {
        let count = u32::try_from(self.tags.len()).expect("section count");
        self.buf[self.count_at..self.count_at + 4].copy_from_slice(&count.to_le_bytes());
        self.buf
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
        let mut d = Decoder::new(bytes, "snapshot header");
        let mut magic = [0u8; 4];
        d.raw(&mut magic)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut version = 0;
        d.u32(&mut version)?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let mut meta = String::new();
        d.string(&mut meta)?;
        let mut count = 0u32;
        d.u32(&mut count)?;
        d.r.context = "section table";
        let mut sections = Vec::new();
        for _ in 0..count {
            let mut tag = String::new();
            let (mut payload, mut crc) = (Vec::new(), 0);
            d.string(&mut tag)?;
            d.bytes(&mut payload)?;
            d.u32(&mut crc)?;
            if crc != crc32(&payload) {
                return Err(SnapshotError::CrcMismatch { section: tag });
            }
            sections.push(SnapshotSection { tag, payload, crc });
        }
        d.r.finish()?;
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

    /// Decodes all of section `tag` with `layout` (see [`decode`]).
    pub fn decode<'a>(
        &'a self,
        tag: &'static str,
        layout: impl FnOnce(&mut Decoder<'a>) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let section = self.sections.iter().find(|s| s.tag == tag);
        let section = section.ok_or(SnapshotError::MissingSection {
            section: tag.to_string(),
        })?;
        decode(&section.payload, tag, layout)
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
    use proptest::prelude::*;

    use super::*;

    type Engine = (u64, f64, bool, String);
    type Rngs = (Vec<u8>, u32, Option<usize>);

    fn engine(c: &mut impl Codec, v: &mut Engine) -> Result<(), SnapshotError> {
        c.u64(&mut v.0)?;
        c.f64(&mut v.1)?;
        c.bool(&mut v.2)?;
        c.string(&mut v.3)
    }

    fn rngs(c: &mut impl Codec, v: &mut Rngs) -> Result<(), SnapshotError> {
        c.bytes(&mut v.0)?;
        c.u32(&mut v.1)?;
        c.opt(&mut v.2, Codec::usize)
    }

    fn sample_with(first: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new("{\"kind\":\"snapshot\",\"seed\":42}".to_string());
        let mut e = (first, -0.25, true, "name".to_string());
        w.push_section("engine", encode(|c| engine(c, &mut e)));
        w.push_section(
            "rngs",
            encode(|c| rngs(c, &mut (vec![1, 2, 3], 5, Some(9)))),
        );
        w.finish()
    }

    fn sample() -> Vec<u8> {
        sample_with(7)
    }

    #[test]
    fn round_trips_every_primitive() {
        let snap = Snapshot::parse(&sample()).unwrap();
        assert_eq!(snap.version(), SNAPSHOT_SCHEMA_VERSION);
        assert_eq!(snap.meta(), "{\"kind\":\"snapshot\",\"seed\":42}");
        let mut e = Engine::default();
        snap.decode("engine", |c| engine(c, &mut e)).unwrap();
        assert_eq!(e, (7, -0.25, true, "name".to_string()));
        let mut r = Rngs::default();
        snap.decode("rngs", |c| rngs(c, &mut r)).unwrap();
        assert_eq!(r, (vec![1, 2, 3], 5, Some(9)));
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for mut v in [0.0, -0.0, f64::INFINITY, f64::NAN, 1.0e-308, 0.1 + 0.2] {
            let buf = encode(|c| c.f64(&mut v));
            let mut got = 0.0;
            decode(&buf, "t", |c| c.f64(&mut got)).unwrap();
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
            snap.decode("robots", |_| Ok(())).unwrap_err(),
            SnapshotError::MissingSection {
                section: "robots".to_string()
            }
        );
        assert!(matches!(
            snap.decode("engine", |c| c.u64(&mut 0)),
            Err(SnapshotError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn counts_beyond_the_payload_are_truncated_before_allocating() {
        let bytes = encode(|c| c.count(&mut { usize::MAX }));
        let mut v: Vec<u64> = Vec::new();
        assert!(matches!(
            decode(&bytes, "t", |c| c.vec(&mut v, Codec::u64)),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            decode(&[2], "t", |c| c.bool(&mut false)),
            Err(SnapshotError::Malformed { .. })
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
        let b = Snapshot::parse(&sample_with(8)).unwrap(); // differs at byte 0
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

    /// The bytewise loop the slicing kernel replaced: the reference it
    /// must match on every length and alignment.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_byte(c, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Check values from zlib's crc32 (the classic IEEE check value is
        // "123456789"). The long inputs cross the 16-byte blocks.
        let ramp: Vec<u8> = (0..4).flat_map(|_| 0..=255u8).collect();
        let cases: [(&[u8], u32); 7] = [
            (b"", 0),
            (b"a", 0xE8B7_BE43),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0; 32], 0x190A_55AD),
            (&[0xFF; 32], 0xFF6C_AB0B),
            (&ramp, 0xB70B_4C26),
        ];
        for (input, want) in cases {
            assert_eq!(crc32(input), want, "{} bytes", input.len());
            assert_eq!(crc32_bytewise(input), want, "{} bytes", input.len());
        }
    }

    proptest! {
        /// The slicing kernel equals the bytewise reference at every
        /// start offset within a block and every length up to 300, so
        /// every tail length and unaligned start is covered.
        #[test]
        fn crc32_matches_bytewise_reference(
            buf in proptest::collection::vec(any::<u8>(), 316),
        ) {
            for start in 0..16 {
                for len in 0..=300 {
                    let bytes = &buf[start..start + len];
                    prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
                }
            }
        }
    }

    #[test]
    fn intern_is_stable_and_deduplicating() {
        let a = intern("snapshot.test.name");
        let b = intern("snapshot.test.name");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a, b));
    }
}
