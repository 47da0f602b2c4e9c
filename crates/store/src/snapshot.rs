//! Versioned binary snapshots (`.hpcsnap`) of a full [`Trace`].
//!
//! A snapshot is written once after ingest and loaded at boot with a
//! single bulk read, skipping CSV parsing and per-record validation: the
//! failure and job columns are stored column by column, as in the
//! in-memory struct-of-arrays layouts ([`crate::columns::FailureColumns`],
//! [`crate::columns::JobColumns`]), so a load is one widening pass per
//! column plus the O(n) postings rebuild — no row structs, no sorting,
//! no text.
//!
//! # File format (version 6)
//!
//! ```text
//! magic      8 bytes  "HPCSNAP\0"
//! version    u32 LE   6
//! fingerprint u64 LE  Trace::fingerprint() of the whole trace
//! sections   u32 LE   number of section-table entries
//! table      sections × { id u32, offset u64, len u64, checksum u64 }
//! ...section payloads, back to back in table order, to the end of the file...
//! ```
//!
//! Section ids combine a kind (high 16 bits) and a system id (low 16
//! bits). The table lists the sections in one canonical order: one
//! `SYSTEMS` section carrying every [`SystemConfig`] in id order; then,
//! for each system in id order, `FAILURES`, `JOBS`, `TEMPERATURES`,
//! `MAINTENANCE` and, when the system has a layout, `LAYOUT`; and one
//! fleet-wide `NEUTRON` section last. Every section but `SYSTEMS` is a
//! `u32` row count followed by its columns. The `JOBS` payload:
//!
//! ```text
//! count        u32
//! job_id       int column of count u64
//! user         int column of count u32
//! submit       int column of count i64
//! dispatch     int column of count i64, non-decreasing
//! end          int column of count i64
//! procs        int column of count u32
//! node_count   int column of count u32, the length of each job's node list
//! refs         u32, the sum of the node counts
//! node_ids     int column of refs u32, the node lists back to back
//! ```
//!
//! # The integer column codec
//!
//! Every integer column is stored frame-of-reference: a width byte `w`
//! in {1, 2, 4, 8}, a `u64` base, then each value minus the base as a
//! `w`-byte little-endian integer. An `i64` is first mapped to a `u64`
//! by flipping its sign bit, which keeps the order. Only the two `f64`
//! columns, temperature celsius and neutron counts per minute, are
//! stored as raw 8-byte values. Job node lists are stored as per-job
//! counts; decode rebuilds the offsets with a prefix sum.
//!
//! The encoding of a column is canonical: the base is the column's
//! minimum and the width the smallest that holds maximum − minimum; an
//! empty column is width 1, base 0. Decode refuses anything else, and any
//! value past its type's range, as [`SnapshotError::Corrupt`]. Since no
//! value takes less than one byte and none decodes to more than eight,
//! decoded columns are at most 8× the payload bytes: every row count is
//! checked against the section's remaining bytes at the minimum width
//! (7 bytes a job) before anything is allocated.
//!
//! # Integrity and the content fingerprint
//!
//! Each table entry carries a checksum of its payload: the four-lane
//! content hash (`ContentHash` in [`crate::trace`]) over the payload
//! bytes. The content fingerprint is
//! the same hash over the table's `(id, checksum)` pairs, each written
//! as two little-endian `u64` words, in table order. A trace that was
//! generated or ingested from CSV gets its fingerprint by streaming its
//! encoding through the hash, section by section, without building it
//! ([`Trace::fingerprint`]); [`decode_snapshot`] gets it from the
//! checksums it verifies, so every upload and every rehydration is
//! hashed once.
//!
//! That is sound because decode is canonical: it accepts only the bytes
//! [`snapshot_bytes`] writes for the trace it returns. The sections
//! must come in canonical order with no gaps, unknown or duplicate
//! entries, every per-system section present; every column must be in
//! its canonical encoding (above); every row must be in the order the
//! builder sorts it into; and every flag must be one the encoder
//! writes. Equal content therefore has one encoding and one
//! fingerprint, whether it was uploaded, booted from CSV or demoted and
//! rehydrated. Decode also checks every declared size and every record
//! time against its system's span (see [`crate::SPAN_SLACK_DAYS`]),
//! and compares the header's fingerprint with the checksum fold.
//!
//! Older versions are refused as [`SnapshotError::UnsupportedVersion`]:
//! version 1 checksummed with a byte-serial FNV-1a, version 2 stored one
//! row per job, version 3 hashed one word at a time in a single chain,
//! version 4 fingerprinted a second, typed walk of the decoded trace,
//! and version 5 stored every column at its in-memory width (job node
//! lists as offsets), about 2.3× the bytes of version 6.
//!
//! # Fallback rules
//!
//! Loading never panics: any truncation, checksum mismatch, bad magic or
//! unsupported version yields a typed [`SnapshotError`].
//! [`try_read_snapshot`] additionally packages a failure as a
//! [`SnapshotFallback`] audit entry and bumps the
//! `store.snapshot.fallback` counter so callers can drop to CSV ingest
//! while recording exactly why.

use crate::columns::{FailureColumns, JobColumns};
use crate::trace::{ContentHash, SystemTrace, Trace};
use crate::{check_in_span, check_span, MAX_NODES};
use hpcfail_types::prelude::*;
use std::fmt;
use std::path::{Path, PathBuf};

/// The 8-byte prefix every `.hpcsnap` stream starts with; sniffing it
/// distinguishes a binary snapshot upload from CSV text.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HPCSNAP\0";
const MAGIC: &[u8; 8] = SNAPSHOT_MAGIC;
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 6;

const KIND_SYSTEMS: u32 = 1;
const KIND_FAILURES: u32 = 2;
const KIND_JOBS: u32 = 3;
const KIND_TEMPERATURES: u32 = 4;
const KIND_MAINTENANCE: u32 = 5;
const KIND_LAYOUT: u32 = 6;
const KIND_NEUTRON: u32 = 7;

const fn section_id(kind: u32, system: u16) -> u32 {
    (kind << 16) | system as u32
}

/// Bytes before the first payload: magic, version, fingerprint, section
/// count and the table.
const fn header_len(sections: usize) -> usize {
    MAGIC.len() + 4 + 8 + 4 + sections * (4 + 8 + 8 + 8)
}

/// Error raised when writing or loading a snapshot fails.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the `.hpcsnap` magic bytes.
    BadMagic,
    /// The file is a snapshot, but of a version this build cannot read.
    UnsupportedVersion(u32),
    /// The file is structurally damaged: truncated, checksum mismatch,
    /// undecodable payload, inconsistent or non-canonical content.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => f.write_str("not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<crate::columns::ColumnError> for SnapshotError {
    fn from(e: crate::columns::ColumnError) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

/// Typed audit entry recorded when a snapshot cannot be used and the
/// caller falls back to CSV ingest.
#[derive(Debug)]
pub struct SnapshotFallback {
    /// The snapshot that was rejected.
    pub path: PathBuf,
    /// Why it was rejected.
    pub error: SnapshotError,
}

impl fmt::Display for SnapshotFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot {} unusable, falling back to CSV: {}",
            self.path.display(),
            self.error
        )
    }
}

/// Outcome of [`try_read_snapshot`]: the loaded trace, or a typed audit
/// entry explaining the CSV fallback.
#[derive(Debug)]
pub enum SnapshotLoad {
    /// The snapshot decoded and verified; boot can skip CSV entirely.
    Loaded(Box<Trace>),
    /// The snapshot is unusable; carry on with CSV ingest.
    Unusable(SnapshotFallback),
}

// ---------------------------------------------------------------------
// Byte-level encoding (little-endian)

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = ContentHash::new();
    h.write(bytes);
    h.finish()
}

/// Adds one table entry to the content fingerprint.
fn fold_entry(fingerprint: &mut ContentHash, id: u32, checksum: u64) {
    fingerprint.u64(u64::from(id));
    fingerprint.u64(checksum);
}

/// An integer column type. Each value maps to a `u64` key that sorts
/// as the values do; the column codec stores keys.
trait Int: Copy + Ord {
    /// The key of the type's largest value.
    const MAX_KEY: u64;
    fn key(self) -> u64;
    /// The value whose key is `key`, which is at most `MAX_KEY`.
    fn from_key(key: u64) -> Self;
}

macro_rules! unsigned_int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MAX_KEY: u64 = <$t>::MAX as u64;
            fn key(self) -> u64 {
                u64::from(self)
            }
            fn from_key(key: u64) -> Self {
                key as $t
            }
        }
    )*};
}
unsigned_int!(u8, u16, u32, u64);

/// Flipping the sign bit maps `i64::MIN` to key 0 and `i64::MAX` to
/// `u64::MAX`, in order.
impl Int for i64 {
    const MAX_KEY: u64 = u64::MAX;
    fn key(self) -> u64 {
        self as u64 ^ (1 << 63)
    }
    fn from_key(key: u64) -> Self {
        (key ^ (1 << 63)) as i64
    }
}

/// The narrowest offset width, in bytes, that holds `range`.
fn width_for(range: u64) -> u8 {
    match range {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// Where the encoder writes: the snapshot buffer, the hash of one
/// section, or a byte count. Every value is little-endian; a string is
/// its `u32` length, then its bytes.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.put(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }

    /// Writes one `W`-byte value each, staged in 4 KiB chunks so the
    /// sink sees a few large writes.
    fn column<const W: usize>(&mut self, mut values: impl ExactSizeIterator<Item = [u8; W]>) {
        let mut chunk = [0u8; 4096];
        loop {
            let mut staged = 0;
            for (bytes, value) in chunk.chunks_exact_mut(W).zip(&mut values) {
                bytes.copy_from_slice(&value);
                staged += W;
            }
            if staged == 0 {
                return;
            }
            self.put(&chunk[..staged]);
        }
    }

    /// Writes an integer column in the frame-of-reference codec (see
    /// the module docs): the width byte, the base, then each value's
    /// offset from the base.
    fn ints<I: Int>(&mut self, values: impl ExactSizeIterator<Item = I> + Clone) {
        // Keys sort as the values do, so the extreme values give the
        // extreme keys; an empty column has base 0.
        let mut scan = values.clone();
        let (base, max) = match scan.next() {
            None => (0, 0),
            Some(first) => {
                let (min, max) =
                    scan.fold((first, first), |(min, max), v| (min.min(v), max.max(v)));
                (min.key(), max.key())
            }
        };
        let width = width_for(max - base);
        self.u8(width);
        self.u64(base);
        let offsets = values.map(move |v| v.key() - base);
        match width {
            1 => self.column(offsets.map(|o| [o as u8])),
            2 => self.column(offsets.map(|o| (o as u16).to_le_bytes())),
            4 => self.column(offsets.map(|o| (o as u32).to_le_bytes())),
            _ => self.column(offsets.map(u64::to_le_bytes)),
        }
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for ContentHash {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// Counts the bytes an encoding takes, so the snapshot buffer is
/// allocated once at its final size.
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn column<const W: usize>(&mut self, values: impl ExactSizeIterator<Item = [u8; W]>) {
        self.0 += values.len() * W;
    }
}

/// An offset width of the column codec. Each scan over a column reads
/// its offsets as this integer type, so it runs at that width.
trait Lane {
    /// The smallest and largest offset of a packed column.
    fn min_max(bytes: &[u8]) -> (u64, u64);
    /// Appends `f(offset)` for every offset of a packed column.
    fn extend<T>(bytes: &[u8], out: &mut Vec<T>, f: impl FnMut(u64) -> T);
}

macro_rules! lane {
    ($($t:ty),*) => {$(
        impl Lane for $t {
            fn min_max(bytes: &[u8]) -> (u64, u64) {
                let (lanes, _) = bytes.as_chunks::<{ std::mem::size_of::<$t>() }>();
                let (min, max) = lanes
                    .iter()
                    .map(|&lane| <$t>::from_le_bytes(lane))
                    .fold((<$t>::MAX, 0), |(min, max), v| (min.min(v), max.max(v)));
                (u64::from(min), u64::from(max))
            }

            fn extend<T>(bytes: &[u8], out: &mut Vec<T>, f: impl FnMut(u64) -> T) {
                let (lanes, _) = bytes.as_chunks::<{ std::mem::size_of::<$t>() }>();
                out.extend(lanes.iter().map(|&lane| u64::from(<$t>::from_le_bytes(lane))).map(f));
            }
        }
    )*};
}
lane!(u8, u16, u32, u64);

/// An integer column as stored: its offsets still packed, its encoding
/// checked canonical.
struct Packed<'a> {
    what: &'static str,
    field: &'static str,
    bytes: &'a [u8],
    width: u8,
    base: u64,
    /// The largest offset.
    max: u64,
}

impl Packed<'_> {
    /// Appends `f(base + offset)` for every value, in order.
    fn extend<T>(&self, out: &mut Vec<T>, mut f: impl FnMut(u64) -> T) {
        let base = self.base;
        let key = move |offset: u64| f(base.wrapping_add(offset));
        match self.width {
            1 => u8::extend(self.bytes, out, key),
            2 => u16::extend(self.bytes, out, key),
            4 => u32::extend(self.bytes, out, key),
            _ => u64::extend(self.bytes, out, key),
        }
    }

    /// The column's values, refused as corrupt when one lies past the
    /// range of `I`.
    fn widen<I: Int>(&self) -> Result<Vec<I>, SnapshotError> {
        self.check_fits(I::MAX_KEY)?;
        let mut out = Vec::with_capacity(self.bytes.len() / usize::from(self.width));
        self.extend(&mut out, I::from_key);
        Ok(out)
    }

    fn check_fits(&self, max_key: u64) -> Result<(), SnapshotError> {
        match self.base.checked_add(self.max) {
            Some(last) if last <= max_key => Ok(()),
            _ => Err(SnapshotError::Corrupt(format!(
                "{}: {} column base {} plus offset {} lies past the range of its type",
                self.what, self.field, self.base, self.max
            ))),
        }
    }
}

/// How decode finds a column's smallest and largest offset.
#[derive(Clone, Copy)]
enum Range {
    /// By scanning every offset.
    Scan,
    /// From the first and the last offset, for a column the caller
    /// refuses unless it decodes non-decreasing; see [`Reader::times`].
    Sorted,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, pos: 0, what }
    }

    fn corrupt(&self, message: String) -> SnapshotError {
        SnapshotError::Corrupt(format!("{}: {message}", self.what))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(SnapshotError::Corrupt(format!(
                "truncated {} section at byte {}",
                self.what, self.pos
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a flag byte the encoder writes as 0 or 1.
    fn bool(&mut self, field: &str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.corrupt(format!("{field} flag is {other}, not 0 or 1"))),
        }
    }

    /// Reads `n` raw `f64` values.
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, SnapshotError> {
        Ok(self
            .take(n.saturating_mul(8))?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks of 8 bytes")))
            .collect())
    }

    /// Reads the head and the packed offsets of an integer column of
    /// `n` values, refusing every encoding but the canonical one (see
    /// the module docs).
    fn packed(
        &mut self,
        n: usize,
        field: &'static str,
        range: Range,
    ) -> Result<Packed<'a>, SnapshotError> {
        let width = self.u8()?;
        let base = self.u64()?;
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(self.corrupt(format!("{field} column width {width} is not 1, 2, 4 or 8")));
        }
        let w = usize::from(width);
        let bytes = self.take(n.saturating_mul(w))?;
        let offset = |at: usize| {
            let mut le = [0u8; 8];
            le[..w].copy_from_slice(&bytes[at..at + w]);
            u64::from_le_bytes(le)
        };
        let (min, max) = match (range, width) {
            _ if n == 0 => (0, 0),
            (Range::Sorted, _) => (offset(0), offset(bytes.len() - w)),
            (Range::Scan, 1) => u8::min_max(bytes),
            (Range::Scan, 2) => u16::min_max(bytes),
            (Range::Scan, 4) => u32::min_max(bytes),
            (Range::Scan, _) => u64::min_max(bytes),
        };
        if n == 0 && base != 0 {
            return Err(self.corrupt(format!("empty {field} column has base {base}, not 0")));
        }
        if min != 0 {
            return Err(self.corrupt(format!("{field} column base {base} is not its minimum")));
        }
        if width != width_for(max) {
            return Err(self.corrupt(format!(
                "{field} column width {width} is not the narrowest for its range {max}"
            )));
        }
        Ok(Packed {
            what: self.what,
            field,
            bytes,
            width,
            base,
            max,
        })
    }

    /// Reads an integer column of `n` values.
    fn ints<I: Int>(&mut self, n: usize, field: &'static str) -> Result<Vec<I>, SnapshotError> {
        self.packed(n, field, Range::Scan)?.widen()
    }

    /// Reads a column of `n` times (seconds), refusing it unless every
    /// time lies in `config`'s span (see [`crate::SPAN_SLACK_DAYS`]):
    /// the column's base and largest offset are its earliest and latest
    /// time, so no pass over the values is needed.
    ///
    /// With [`Range::Sorted`] the range comes from the first and the
    /// last value, and the caller refuses the column unless it decodes
    /// non-decreasing. In a column that does, every value lies between
    /// those two, so the range is the one a scan finds. In one that
    /// does not, a value may have wrapped past `u64::MAX`; it then lies
    /// below the first value, and the caller refuses the column.
    fn times(
        &mut self,
        n: usize,
        field: &'static str,
        range: Range,
        config: &SystemConfig,
    ) -> Result<Vec<i64>, SnapshotError> {
        let packed = self.packed(n, field, range)?;
        let times = packed.widen()?;
        if n > 0 {
            let earliest = i64::from_key(packed.base);
            let latest = i64::from_key(packed.base + packed.max);
            check_in_span(field, [earliest, latest], config.start, config.end)
                .map_err(SnapshotError::Corrupt)?;
        }
        Ok(times)
    }

    /// Reads a length-prefixed count, guarding against lengths that
    /// cannot fit in the remaining bytes (`min_width` bytes per item).
    fn count(&mut self, min_width: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_width) > self.buf.len() - self.pos {
            return Err(SnapshotError::Corrupt(format!(
                "{} count {n} exceeds section size",
                self.what
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt(format!("{}: invalid utf-8 string", self.what)))
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} section has {} trailing bytes",
                self.what,
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Writing

/// One section's content, borrowed from the trace.
enum Payload<'a> {
    Systems(&'a Trace),
    Failures(&'a FailureColumns),
    Jobs(&'a JobColumns),
    Temperatures(&'a [TemperatureSample]),
    Maintenance(&'a [MaintenanceRecord]),
    Layout(&'a MachineLayout),
    Neutron(&'a [NeutronSample]),
}

/// The trace's sections in canonical table order (see the module docs).
fn sections(trace: &Trace) -> Vec<(u32, Payload<'_>)> {
    let mut sections = vec![(section_id(KIND_SYSTEMS, 0), Payload::Systems(trace))];
    for system in trace.systems() {
        let sys = system.id().raw();
        sections.extend([
            (
                section_id(KIND_FAILURES, sys),
                Payload::Failures(system.failure_columns()),
            ),
            (
                section_id(KIND_JOBS, sys),
                Payload::Jobs(system.job_columns()),
            ),
            (
                section_id(KIND_TEMPERATURES, sys),
                Payload::Temperatures(system.temperatures()),
            ),
            (
                section_id(KIND_MAINTENANCE, sys),
                Payload::Maintenance(system.maintenance()),
            ),
        ]);
        if let Some(layout) = system.layout() {
            sections.push((section_id(KIND_LAYOUT, sys), Payload::Layout(layout)));
        }
    }
    sections.push((
        section_id(KIND_NEUTRON, 0),
        Payload::Neutron(trace.neutron_samples()),
    ));
    sections
}

impl Payload<'_> {
    fn write(&self, w: &mut impl Sink) {
        match *self {
            Payload::Systems(trace) => encode_systems(w, trace),
            Payload::Failures(cols) => encode_failures(w, cols),
            Payload::Jobs(jobs) => encode_jobs(w, jobs),
            Payload::Temperatures(samples) => encode_temperatures(w, samples),
            Payload::Maintenance(records) => encode_maintenance(w, records),
            Payload::Layout(layout) => encode_layout(w, layout),
            Payload::Neutron(samples) => encode_neutron(w, samples),
        }
    }
}

fn encode_systems(w: &mut impl Sink, trace: &Trace) {
    w.u32(trace.len() as u32);
    for system in trace.systems() {
        let c = system.config();
        w.u16(c.id.raw());
        w.str(&c.name);
        w.u32(c.nodes);
        w.u32(c.procs_per_node);
        w.u8(matches!(c.hardware, HardwareClass::Numa) as u8);
        w.i64(c.start.as_seconds());
        w.i64(c.end.as_seconds());
        w.u8(c.has_layout as u8);
        w.u8(c.has_job_log as u8);
        w.u8(c.has_temperature as u8);
    }
}

fn encode_failures(w: &mut impl Sink, cols: &FailureColumns) {
    w.u32(cols.len() as u32);
    w.ints(cols.times().iter().copied());
    w.ints(cols.nodes().iter().copied());
    w.ints(cols.roots().iter().copied());
    w.ints(cols.subs().iter().copied());
    w.ints(cols.downtimes().iter().copied());
}

fn encode_jobs(w: &mut impl Sink, jobs: &JobColumns) {
    w.u32(jobs.len() as u32);
    w.ints(jobs.job_ids().iter().copied());
    w.ints(jobs.users().iter().copied());
    w.ints(jobs.submits().iter().copied());
    w.ints(jobs.dispatches().iter().copied());
    w.ints(jobs.ends().iter().copied());
    w.ints(jobs.procs().iter().copied());
    w.ints(jobs.node_offsets().windows(2).map(|w| w[1] - w[0]));
    w.u32(jobs.node_ids().len() as u32);
    w.ints(jobs.node_ids().iter().copied());
}

fn encode_temperatures(w: &mut impl Sink, samples: &[TemperatureSample]) {
    w.u32(samples.len() as u32);
    w.ints(samples.iter().map(|s| s.node.raw()));
    w.ints(samples.iter().map(|s| s.time.as_seconds()));
    w.column(samples.iter().map(|s| s.celsius.to_le_bytes()));
}

fn encode_maintenance(w: &mut impl Sink, records: &[MaintenanceRecord]) {
    w.u32(records.len() as u32);
    w.ints(records.iter().map(|m| m.node.raw()));
    w.ints(records.iter().map(|m| m.time.as_seconds()));
    w.ints(
        records
            .iter()
            .map(|m| ((m.hardware_related as u8) << 1) | m.scheduled as u8),
    );
}

fn encode_layout(w: &mut impl Sink, layout: &MachineLayout) {
    w.u32(layout.len() as u32);
    w.ints(layout.iter().map(|(node, _)| node.raw()));
    w.ints(layout.iter().map(|(_, loc)| loc.rack.raw()));
    w.ints(layout.iter().map(|(_, loc)| loc.position_in_rack));
    w.ints(layout.iter().map(|(_, loc)| loc.room_row));
    w.ints(layout.iter().map(|(_, loc)| loc.room_col));
}

fn encode_neutron(w: &mut impl Sink, samples: &[NeutronSample]) {
    w.u32(samples.len() as u32);
    w.ints(samples.iter().map(|s| s.time.as_seconds()));
    w.column(samples.iter().map(|s| s.counts_per_minute.to_le_bytes()));
}

/// The content fingerprint of `trace` (see the module docs), streamed:
/// each section is encoded straight into its hash, so no section and no
/// snapshot buffer is built.
pub(crate) fn content_fingerprint(trace: &Trace) -> u64 {
    let mut fingerprint = ContentHash::new();
    for (id, payload) in sections(trace) {
        let mut section = ContentHash::new();
        payload.write(&mut section);
        fold_entry(&mut fingerprint, id, section.finish());
    }
    fingerprint.finish()
}

/// Serializes the trace into the `.hpcsnap` byte format.
pub fn snapshot_bytes(trace: &Trace) -> Vec<u8> {
    let sections = sections(trace);
    let mut len = Len(header_len(sections.len()));
    for (_, payload) in &sections {
        payload.write(&mut len);
    }
    let mut out = Vec::with_capacity(len.0);
    out.resize(header_len(sections.len()), 0);
    let mut table = Vec::with_capacity(sections.len());
    let mut fingerprint = ContentHash::new();
    for (id, payload) in &sections {
        let offset = out.len();
        payload.write(&mut out);
        let sum = checksum(&out[offset..]);
        fold_entry(&mut fingerprint, *id, sum);
        table.push((*id, offset, out.len() - offset, sum));
    }
    let mut header = Vec::with_capacity(header_len(table.len()));
    header.put(MAGIC);
    header.u32(SNAPSHOT_VERSION);
    header.u64(fingerprint.finish());
    header.u32(table.len() as u32);
    for (id, offset, len, sum) in table {
        header.u32(id);
        header.u64(offset as u64);
        header.u64(len as u64);
        header.u64(sum);
    }
    out[..header.len()].copy_from_slice(&header);
    out
}

/// Writes a snapshot of `trace` to `path`, crash-atomically (see
/// [`hpcfail_obs::fs::write_atomic`]): a crash or failed write leaves
/// the previous file (if any) intact and no temporary file behind.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be written.
pub fn write_snapshot<P: AsRef<Path>>(path: P, trace: &Trace) -> Result<(), SnapshotError> {
    let _span = hpcfail_obs::span("store.snapshot.write");
    let bytes = snapshot_bytes(trace);
    hpcfail_obs::counter("store.snapshot.bytes_written").add(bytes.len() as u64);
    hpcfail_obs::fs::write_atomic(path, &bytes)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Loading

/// One section-table entry: the section id, its payload range, the
/// stored checksum and the file offset that checksum sits at.
struct TableEntry {
    id: u32,
    range: std::ops::Range<usize>,
    checksum: u64,
    checksum_at: usize,
}

/// Reads the header and the section table, checking the magic, the
/// version and that every payload range lies inside the file; returns
/// the header's fingerprint and the table.
fn section_table(buf: &[u8]) -> Result<(u64, Vec<TableEntry>), SnapshotError> {
    if buf.len() < MAGIC.len() {
        return Err(SnapshotError::BadMagic);
    }
    if &buf[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader::new(&buf[MAGIC.len()..], "header");
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let fingerprint = r.u64()?;
    let count = r.count(28)?;
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u32()?;
        let offset = r.u64()? as usize;
        let len = r.u64()? as usize;
        let checksum_at = MAGIC.len() + r.pos;
        let checksum = r.u64()?;
        let end = offset.checked_add(len).filter(|&e| e <= buf.len());
        let Some(end) = end else {
            return Err(SnapshotError::Corrupt(format!(
                "section {id:#x} range {offset}+{len} exceeds file size {}",
                buf.len()
            )));
        };
        table.push(TableEntry {
            id,
            range: offset..end,
            checksum,
            checksum_at,
        });
    }
    Ok((fingerprint, table))
}

/// Recomputes every section checksum of an edited snapshot in place.
///
/// The checksums catch damage, not intent: anyone can reseal a file,
/// so [`decode_snapshot`] checks every declared size and structure
/// itself. Tests and tools that craft hostile snapshots use this. The
/// header's content fingerprint is left as it was.
///
/// # Errors
///
/// [`SnapshotError`] when the header or section table is unreadable.
pub fn reseal(buf: &mut [u8]) -> Result<(), SnapshotError> {
    for entry in section_table(buf)?.1 {
        let sum = checksum(&buf[entry.range]);
        buf[entry.checksum_at..entry.checksum_at + 8].copy_from_slice(&sum.to_le_bytes());
    }
    Ok(())
}

/// The verified payloads of a snapshot, handed out in canonical order.
struct Sections<'a> {
    entries: std::iter::Peekable<std::vec::IntoIter<(u32, &'a [u8])>>,
}

impl<'a> Sections<'a> {
    /// The next section, which must be `id`.
    fn take(&mut self, id: u32) -> Result<&'a [u8], SnapshotError> {
        match self.entries.next() {
            Some((found, bytes)) if found == id => Ok(bytes),
            Some((found, _)) => Err(SnapshotError::Corrupt(format!(
                "section {found:#x} where section {id:#x} belongs"
            ))),
            None => Err(SnapshotError::Corrupt(format!("missing section {id:#x}"))),
        }
    }

    /// The next section if it is `id`.
    fn take_if(&mut self, id: u32) -> Option<&'a [u8]> {
        self.entries
            .next_if(|&(found, _)| found == id)
            .map(|(_, bytes)| bytes)
    }

    /// Checks that no section is left after the neutron section.
    fn finish(mut self) -> Result<(), SnapshotError> {
        match self.entries.next() {
            None => Ok(()),
            Some((id, _)) => Err(SnapshotError::Corrupt(format!(
                "section {id:#x} after the neutron section"
            ))),
        }
    }
}

/// Reads the table, checks that the payloads lie back to back from the
/// end of the table to the end of the file and that every checksum
/// matches, and returns the header's fingerprint, the checksum fold and
/// the payloads.
fn verified_sections(buf: &[u8]) -> Result<(u64, u64, Sections<'_>), SnapshotError> {
    let (header, table) = section_table(buf)?;
    let mut at = header_len(table.len());
    let mut fingerprint = ContentHash::new();
    let mut payloads = Vec::with_capacity(table.len());
    for entry in table {
        if entry.range.start != at {
            return Err(SnapshotError::Corrupt(format!(
                "section {:#x} starts at byte {}, not at byte {at}",
                entry.id, entry.range.start
            )));
        }
        at = entry.range.end;
        let bytes = &buf[entry.range];
        if checksum(bytes) != entry.checksum {
            return Err(SnapshotError::Corrupt(format!(
                "section {:#x} checksum mismatch",
                entry.id
            )));
        }
        fold_entry(&mut fingerprint, entry.id, entry.checksum);
        payloads.push((entry.id, bytes));
    }
    if at != buf.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} bytes after the last section",
            buf.len() - at
        )));
    }
    let sections = Sections {
        entries: payloads.into_iter().peekable(),
    };
    Ok((header, fingerprint.finish(), sections))
}

fn decode_systems(bytes: &[u8]) -> Result<Vec<SystemConfig>, SnapshotError> {
    let mut r = Reader::new(bytes, "systems");
    let count = r.count(31)?;
    let mut configs: Vec<SystemConfig> = Vec::with_capacity(count);
    let mut total_nodes = 0u64;
    for _ in 0..count {
        let id = SystemId::new(r.u16()?);
        if configs.last().is_some_and(|prev| prev.id >= id) {
            return Err(SnapshotError::Corrupt(format!(
                "{id} is listed out of id order or twice"
            )));
        }
        let name = r.str()?;
        let nodes = r.u32()?;
        total_nodes += u64::from(nodes);
        if total_nodes > u64::from(MAX_NODES) {
            return Err(SnapshotError::Corrupt(format!(
                "{id} declares {nodes} nodes, which takes the trace over the limit of {MAX_NODES}"
            )));
        }
        let procs_per_node = r.u32()?;
        let hardware = match r.u8()? {
            0 => HardwareClass::Smp4Way,
            1 => HardwareClass::Numa,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown hardware class code {other} for {id}"
                )))
            }
        };
        let start = Timestamp::from_seconds(r.i64()?);
        let end = Timestamp::from_seconds(r.i64()?);
        check_span(start, end).map_err(|e| SnapshotError::Corrupt(format!("{id}: {e}")))?;
        let has_layout = r.bool("has_layout")?;
        let has_job_log = r.bool("has_job_log")?;
        let has_temperature = r.bool("has_temperature")?;
        configs.push(SystemConfig {
            id,
            name,
            nodes,
            procs_per_node,
            hardware,
            start,
            end,
            has_layout,
            has_job_log,
            has_temperature,
        });
    }
    r.finish()?;
    Ok(configs)
}

fn decode_failures(bytes: &[u8], config: &SystemConfig) -> Result<FailureColumns, SnapshotError> {
    let mut r = Reader::new(bytes, "failures");
    let count = r.count(5)?;
    let times = r.ints(count, "time")?;
    let nodes = r.ints(count, "node")?;
    let roots = r.ints(count, "root")?;
    let subs = r.ints(count, "sub-cause")?;
    let downtimes = r.ints(count, "downtime")?;
    r.finish()?;
    Ok(FailureColumns::from_raw_parts(
        times,
        nodes,
        roots,
        subs,
        downtimes,
        config.nodes,
        config.start,
        config.end,
    )?)
}

fn decode_jobs(bytes: &[u8], config: &SystemConfig) -> Result<JobColumns, SnapshotError> {
    let mut r = Reader::new(bytes, "jobs");
    // One byte for each of the seven columns at the narrowest width.
    let count = r.count(7)?;
    let job_ids = r.ints(count, "job id")?;
    let users = r.ints(count, "user")?;
    let submits = r.times(count, "job submit", Range::Scan, config)?;
    let dispatches = r.times(count, "job dispatch", Range::Sorted, config)?;
    let ends = r.times(count, "job end", Range::Scan, config)?;
    let procs = r.ints(count, "procs")?;
    let node_counts = r.packed(count, "node count", Range::Scan)?;
    let refs = r.count(1)?;
    let node_ids = r.ints(refs, "node id")?;
    r.finish()?;
    // Each count is at most u32::MAX and there are fewer than 2^32 of
    // them, so the running sum cannot overflow a u64; it is checked
    // against `refs` only at the end, and any offset past u32::MAX
    // makes it differ.
    node_counts.check_fits(u32::MAX.into())?;
    let mut node_offsets = Vec::with_capacity(count + 1);
    node_offsets.push(0);
    let mut sum = 0u64;
    node_counts.extend(&mut node_offsets, |n| {
        sum += n;
        sum as u32
    });
    if sum != refs as u64 {
        return Err(SnapshotError::Corrupt(format!(
            "jobs: node counts sum to {sum}, which differs from the {refs} node ids"
        )));
    }
    Ok(JobColumns::from_raw_parts(
        job_ids,
        users,
        submits,
        dispatches,
        ends,
        procs,
        node_offsets,
        node_ids,
    )?)
}

fn decode_temperatures(
    bytes: &[u8],
    config: &SystemConfig,
) -> Result<Vec<TemperatureSample>, SnapshotError> {
    let mut r = Reader::new(bytes, "temperatures");
    let count = r.count(1 + 1 + 8)?;
    let nodes: Vec<u32> = r.ints(count, "node")?;
    let times = r.times(count, "temperature", Range::Scan, config)?;
    if times.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt(
            "temperature samples not sorted by time".into(),
        ));
    }
    let celsius = r.f64s(count)?;
    r.finish()?;
    Ok(nodes
        .into_iter()
        .zip(times)
        .zip(celsius)
        .map(|((node, time), celsius)| TemperatureSample {
            system: config.id,
            node: NodeId::new(node),
            time: Timestamp::from_seconds(time),
            celsius,
        })
        .collect())
}

fn decode_maintenance(
    bytes: &[u8],
    config: &SystemConfig,
) -> Result<Vec<MaintenanceRecord>, SnapshotError> {
    let mut r = Reader::new(bytes, "maintenance");
    let count = r.count(3)?;
    let nodes: Vec<u32> = r.ints(count, "node")?;
    if let Some(node) = nodes.iter().find(|&&n| n >= config.nodes) {
        return Err(SnapshotError::Corrupt(format!(
            "maintenance node {node} out of range (system has {} nodes)",
            config.nodes
        )));
    }
    let times = r.times(count, "maintenance", Range::Scan, config)?;
    if times
        .iter()
        .zip(&nodes)
        .zip(times.iter().zip(&nodes).skip(1))
        .any(|((t0, n0), (t1, n1))| (t0, n0) > (t1, n1))
    {
        return Err(SnapshotError::Corrupt(
            "maintenance not sorted by (time, node)".into(),
        ));
    }
    let flags: Vec<u8> = r.ints(count, "flags")?;
    if let Some(bad) = flags.iter().find(|&&f| f > 0b11) {
        return Err(SnapshotError::Corrupt(format!(
            "maintenance flags {bad:#04x} set unknown bits"
        )));
    }
    r.finish()?;
    Ok(nodes
        .into_iter()
        .zip(times)
        .zip(flags)
        .map(|((node, time), flags)| MaintenanceRecord {
            system: config.id,
            node: NodeId::new(node),
            time: Timestamp::from_seconds(time),
            hardware_related: flags & 0b10 != 0,
            scheduled: flags & 0b01 != 0,
        })
        .collect())
}

fn decode_layout(bytes: &[u8]) -> Result<MachineLayout, SnapshotError> {
    let mut r = Reader::new(bytes, "layout");
    let count = r.count(5)?;
    let nodes: Vec<u32> = r.ints(count, "node")?;
    if let Some(pair) = nodes.windows(2).find(|w| w[0] >= w[1]) {
        return Err(SnapshotError::Corrupt(format!(
            "layout row for {} is out of node order or repeated",
            NodeId::new(pair[1])
        )));
    }
    let racks: Vec<u16> = r.ints(count, "rack")?;
    let positions: Vec<u8> = r.ints(count, "position")?;
    let rows: Vec<u16> = r.ints(count, "room row")?;
    let cols: Vec<u16> = r.ints(count, "room column")?;
    r.finish()?;
    Ok((0..count)
        .map(|i| {
            (
                NodeId::new(nodes[i]),
                NodeLocation {
                    rack: RackId::new(racks[i]),
                    position_in_rack: positions[i],
                    room_row: rows[i],
                    room_col: cols[i],
                },
            )
        })
        .collect())
}

fn decode_neutron(bytes: &[u8]) -> Result<Vec<NeutronSample>, SnapshotError> {
    let mut r = Reader::new(bytes, "neutron");
    let count = r.count(1 + 8)?;
    let times: Vec<i64> = r.ints(count, "time")?;
    if times.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt(
            "neutron samples not sorted by time".into(),
        ));
    }
    let counts = r.f64s(count)?;
    r.finish()?;
    Ok(times
        .into_iter()
        .zip(counts)
        .map(|(time, counts_per_minute)| NeutronSample {
            time: Timestamp::from_seconds(time),
            counts_per_minute,
        })
        .collect())
}

/// Decodes a trace from snapshot bytes, accepting only the bytes
/// [`snapshot_bytes`] writes for the trace it returns (see the module
/// docs). The trace's [`Trace::fingerprint`] is the fold of the
/// verified checksums; nothing is hashed twice.
///
/// # Errors
///
/// Any structural damage — bad magic, unsupported version, out-of-range
/// or misplaced section, checksum or fingerprint mismatch, undecodable
/// or non-canonical payload, a record outside its system's span —
/// yields a typed [`SnapshotError`]; this function never panics on
/// hostile input.
pub fn decode_snapshot(buf: &[u8]) -> Result<Trace, SnapshotError> {
    let (expected, actual, mut sections) = verified_sections(buf)?;
    let configs = decode_systems(sections.take(section_id(KIND_SYSTEMS, 0))?)?;
    let mut trace = Trace::new();
    for config in configs {
        let sys = config.id.raw();
        let columns = decode_failures(sections.take(section_id(KIND_FAILURES, sys))?, &config)?;
        let jobs = decode_jobs(sections.take(section_id(KIND_JOBS, sys))?, &config)?;
        let temperatures =
            decode_temperatures(sections.take(section_id(KIND_TEMPERATURES, sys))?, &config)?;
        let maintenance =
            decode_maintenance(sections.take(section_id(KIND_MAINTENANCE, sys))?, &config)?;
        let layout = match sections.take_if(section_id(KIND_LAYOUT, sys)) {
            Some(bytes) => Some(decode_layout(bytes)?),
            None => None,
        };
        trace.insert_system(SystemTrace::from_parts(
            config,
            columns,
            jobs,
            temperatures,
            maintenance,
            layout,
        ));
    }
    let neutron = decode_neutron(sections.take(section_id(KIND_NEUTRON, 0))?)?;
    trace.set_neutron_samples(neutron);
    sections.finish()?;

    if expected != actual {
        return Err(SnapshotError::Corrupt(format!(
            "content fingerprint mismatch: header {expected:016x}, sections {actual:016x}"
        )));
    }
    trace.remember_fingerprint(actual);
    Ok(trace)
}

/// Loads a trace from a snapshot file with a single bulk read.
///
/// # Errors
///
/// [`SnapshotError`] on I/O failure or any structural damage; see
/// [`decode_snapshot`].
pub fn read_snapshot<P: AsRef<Path>>(path: P) -> Result<Trace, SnapshotError> {
    let _span = hpcfail_obs::span("store.snapshot.load");
    let buf = std::fs::read(path)?;
    hpcfail_obs::counter("store.snapshot.bytes_read").add(buf.len() as u64);
    let trace = decode_snapshot(&buf)?;
    hpcfail_obs::counter("store.snapshot.loaded").inc();
    Ok(trace)
}

/// Loads a snapshot, converting any failure into a typed
/// [`SnapshotFallback`] audit entry (and bumping the
/// `store.snapshot.fallback` counter) instead of an error, so boot paths
/// can drop to CSV ingest without panicking.
pub fn try_read_snapshot<P: AsRef<Path>>(path: P) -> SnapshotLoad {
    let path = path.as_ref();
    match read_snapshot(path) {
        Ok(trace) => SnapshotLoad::Loaded(Box::new(trace)),
        Err(error) => {
            hpcfail_obs::counter("store.snapshot.fallback").inc();
            SnapshotLoad::Unusable(SnapshotFallback {
                path: path.to_path_buf(),
                error,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SystemTraceBuilder;

    fn sample_trace() -> Trace {
        sample_trace_with(|_| {})
    }

    /// The sample trace with `extra` records pushed into its system.
    fn sample_trace_with(extra: impl FnOnce(&mut SystemTraceBuilder)) -> Trace {
        let config = SystemConfig {
            id: SystemId::new(3),
            name: "snap-test".into(),
            nodes: 6,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(30.0),
            has_layout: true,
            has_job_log: true,
            has_temperature: true,
        };
        let sys = config.id;
        let mut b = SystemTraceBuilder::new(config);
        b.push_failure(
            FailureRecord::new(
                sys,
                NodeId::new(2),
                Timestamp::from_days(3.5),
                RootCause::Hardware,
                SubCause::Hardware(HardwareComponent::MemoryDimm),
            )
            .with_downtime(Duration::from_hours(2.0)),
        );
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(0),
            Timestamp::from_days(10.0),
            RootCause::Software,
            SubCause::Software(SoftwareCause::Pfs),
        ));
        b.push_job(JobRecord {
            system: sys,
            job_id: JobId::new(11),
            user: UserId::new(4),
            submit: Timestamp::from_days(1.0),
            dispatch: Timestamp::from_days(1.25),
            end: Timestamp::from_days(2.0),
            procs: 8,
            nodes: vec![NodeId::new(1), NodeId::new(2)],
        });
        // Pushed out of dispatch order; the builder sorts it first.
        b.push_job(JobRecord {
            system: sys,
            job_id: JobId::new(12),
            user: UserId::new(5),
            submit: Timestamp::from_days(0.5),
            dispatch: Timestamp::from_days(0.75),
            end: Timestamp::from_days(3.0),
            procs: 12,
            nodes: vec![NodeId::new(0), NodeId::new(3), NodeId::new(5)],
        });
        // Ties job 11's dispatch (a stable sort keeps it second) and
        // names a node outside the system, which ingest admits.
        b.push_job(JobRecord {
            system: sys,
            job_id: JobId::new(13),
            user: UserId::new(4),
            submit: Timestamp::from_days(1.0),
            dispatch: Timestamp::from_days(1.25),
            end: Timestamp::from_days(1.5),
            procs: 4,
            nodes: vec![NodeId::new(7)],
        });
        b.push_job(JobRecord {
            system: sys,
            job_id: JobId::new(14),
            user: UserId::new(6),
            submit: Timestamp::from_days(20.0),
            dispatch: Timestamp::from_days(20.0),
            end: Timestamp::from_days(21.0),
            procs: 1,
            nodes: Vec::new(),
        });
        b.push_temperature(TemperatureSample {
            system: sys,
            node: NodeId::new(2),
            time: Timestamp::from_days(5.0),
            celsius: 41.5,
        });
        b.push_maintenance(MaintenanceRecord {
            system: sys,
            node: NodeId::new(3),
            time: Timestamp::from_days(8.0),
            hardware_related: true,
            scheduled: false,
        });
        b.layout(
            (0..6u32)
                .map(|n| {
                    (
                        NodeId::new(n),
                        NodeLocation {
                            rack: RackId::new((n / 3) as u16),
                            position_in_rack: (n % 3 + 1) as u8,
                            room_row: 0,
                            room_col: (n / 3) as u16,
                        },
                    )
                })
                .collect(),
        );
        extra(&mut b);
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace.set_neutron_samples(vec![
            NeutronSample {
                time: Timestamp::from_days(1.0),
                counts_per_minute: 4100.0,
            },
            NeutronSample {
                time: Timestamp::from_days(15.0),
                counts_per_minute: 4350.5,
            },
        ]);
        trace
    }

    fn traces_equal(a: &Trace, b: &Trace) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.neutron_samples(), b.neutron_samples());
        for (sa, sb) in a.systems().zip(b.systems()) {
            assert_eq!(sa.config(), sb.config());
            assert!(sa.failures().eq(sb.failures()));
            assert_eq!(sa.job_columns(), sb.job_columns());
            assert_eq!(sa.temperatures(), sb.temperatures());
            assert_eq!(sa.maintenance(), sb.maintenance());
            assert_eq!(sa.layout(), sb.layout());
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let bytes = snapshot_bytes(&trace);
        let decoded = decode_snapshot(&bytes).expect("decodes");
        traces_equal(&trace, &decoded);
        assert_eq!(trace.fingerprint(), decoded.fingerprint());
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let trace = sample_trace();
        let mut bytes = snapshot_bytes(&trace);
        assert!(matches!(
            decode_snapshot(b"not a snapshot"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(decode_snapshot(&[]), Err(SnapshotError::BadMagic)));
        // The version field sits right after the magic. Version 1 (the
        // byte-serial FNV-1a format), version 2 (one row per job),
        // version 3 (the single-chain hash), version 4 (the typed
        // fingerprint walk) and version 5 (every column at its
        // in-memory width) are refused like an unknown one.
        for version in [1u32, 2, 3, 4, 5, 0xfe] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_snapshot(&bytes),
                Err(SnapshotError::UnsupportedVersion(v)) if v == version
            ));
        }

        // An older file on disk becomes a typed fallback audit entry.
        let dir = std::env::temp_dir().join(format!("hpcsnap-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for version in [1u32, 2, 3, 4, 5] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let path = dir.join(format!("v{version}.hpcsnap"));
            std::fs::write(&path, &bytes).unwrap();
            match try_read_snapshot(&path) {
                SnapshotLoad::Unusable(f) => {
                    assert!(
                        matches!(f.error, SnapshotError::UnsupportedVersion(v) if v == version)
                    );
                    assert_eq!(f.path, path);
                    assert!(f
                        .to_string()
                        .contains(&format!("unsupported snapshot version {version}")));
                }
                SnapshotLoad::Loaded(_) => panic!("loaded a version-{version} snapshot"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sample_fingerprint_is_pinned() {
        // The format-6 value: the fold of the section checksums. It
        // moves only with a `SNAPSHOT_VERSION` bump.
        let trace = sample_trace();
        assert_eq!(format!("{:016x}", trace.fingerprint()), "c7a1e744c451515c");
        let system = trace.systems().next().expect("one system");
        let ids: Vec<u64> = system.jobs().map(|j| j.job_id.raw()).collect();
        assert_eq!(ids, [12, 11, 13, 14], "stable sort by dispatch");
        // The streamed value, the header's and the decoded checksum
        // fold agree.
        let bytes = snapshot_bytes(&trace);
        assert_eq!(section_table(&bytes).unwrap().0, trace.fingerprint());
        let decoded = decode_snapshot(&bytes).expect("decodes");
        assert_eq!(decoded.fingerprint(), trace.fingerprint());
    }

    /// The payload range of section `id`.
    fn section_range(bytes: &[u8], id: u32) -> std::ops::Range<usize> {
        section_table(bytes)
            .expect("readable table")
            .1
            .into_iter()
            .find(|e| e.id == id)
            .expect("section present")
            .range
    }

    /// `bytes` with `edit` applied to section `id`'s payload, resealed.
    fn edited(bytes: &[u8], id: u32, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let range = section_range(&out, id);
        edit(&mut out[range]);
        reseal(&mut out).expect("reseals");
        out
    }

    fn corrupt_message(bytes: &[u8]) -> String {
        match decode_snapshot(bytes) {
            Err(SnapshotError::Corrupt(message)) => message,
            other => panic!("expected a typed Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn resealing_an_unedited_snapshot_changes_nothing() {
        let bytes = snapshot_bytes(&sample_trace());
        let mut resealed = bytes.clone();
        reseal(&mut resealed).unwrap();
        assert_eq!(resealed, bytes);
    }

    #[test]
    fn declared_node_counts_over_the_limit_are_refused() {
        let bytes = snapshot_bytes(&sample_trace());
        // SYSTEMS payload: count u32, id u16, name (u32 length + bytes),
        // then the node count.
        let at = 4 + 2 + 4 + "snap-test".len();
        let with_nodes = |nodes: u32| {
            edited(&bytes, section_id(KIND_SYSTEMS, 0), |p| {
                p[at..at + 4].copy_from_slice(&nodes.to_le_bytes())
            })
        };
        for nodes in [MAX_NODES + 1, 4_000_000_000, u32::MAX] {
            let message = corrupt_message(&with_nodes(nodes));
            assert!(message.contains("over the limit"), "{nodes}: {message}");
        }
        // At the limit the count is allowed; the content then no longer
        // matches the header's fingerprint.
        let message = corrupt_message(&with_nodes(MAX_NODES));
        assert!(message.contains("fingerprint mismatch"), "{message}");
    }

    /// A 4-node system with 200 failures that declares an `end` of
    /// 10^15 s: a valid, correctly fingerprinted snapshot of under 5 KB
    /// whose first daily-count query would allocate 92 GB.
    fn span_probe(end: Timestamp) -> Trace {
        let config = SystemConfig {
            id: SystemId::new(1),
            name: "span".into(),
            nodes: 4,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end,
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        for i in 0..200u32 {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(i % 4),
                Timestamp::from_seconds(i64::from(i) * 3_600),
                RootCause::Hardware,
                SubCause::None,
            ));
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn declared_spans_over_the_limit_or_backwards_are_refused() {
        let probe = snapshot_bytes(&span_probe(Timestamp::from_seconds(1_000_000_000_000_000)));
        assert!(probe.len() < 5_000, "{} bytes", probe.len());
        let message = corrupt_message(&probe);
        assert!(message.contains("over the limit"), "{message}");

        let day = crate::MAX_SPAN_DAYS * 86_400;
        let at_limit = span_probe(Timestamp::from_seconds(day));
        let decoded = decode_snapshot(&snapshot_bytes(&at_limit)).expect("a span at the limit");
        assert_eq!(decoded.fingerprint(), at_limit.fingerprint());
        for end in [day + 1, i64::MAX, -1] {
            let message =
                corrupt_message(&snapshot_bytes(&span_probe(Timestamp::from_seconds(end))));
            assert!(
                message.contains("over the limit") || message.contains("before its start"),
                "{end}: {message}"
            );
        }
    }

    #[test]
    fn times_too_far_from_the_start_to_subtract_are_typed_corrupt() {
        let start = Timestamp::from_seconds(i64::MAX - 86_400);
        let probe = span_probe(Timestamp::EPOCH);
        let mut config = probe.systems().next().expect("one system").config().clone();
        config.start = start;
        config.end = Timestamp::from_seconds(i64::MAX);
        let mut b = SystemTraceBuilder::new(config);
        b.push_failure(FailureRecord::new(
            SystemId::new(1),
            NodeId::new(0),
            start + Duration::from_hours(1.0),
            RootCause::Hardware,
            SubCause::None,
        ));
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(0),
            time: start + Duration::from_hours(2.0),
            hardware_related: true,
            scheduled: false,
        });
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        let bytes = snapshot_bytes(&trace);
        decode_snapshot(&bytes).expect("in-span times decode");
        // FAILURES payload: count u32, then the times column; the
        // MAINTENANCE payload: count u32, the node column, then the
        // times. A one-row column is its width byte, its base (the one
        // value's key) and a zero offset, so a base of key 0 makes the
        // time `i64::MIN`.
        let node_column = 1 + 8 + 1;
        for (kind, at) in [(KIND_FAILURES, 4), (KIND_MAINTENANCE, 4 + node_column)] {
            let hostile = edited(&bytes, section_id(kind, 1), |p| {
                assert_eq!(p[at], 1, "a one-byte offset");
                p[at + 1..at + 9].copy_from_slice(&i64::MIN.key().to_le_bytes())
            });
            let message = corrupt_message(&hostile);
            assert!(message.contains("outside its system's span"), "{message}");
        }
    }

    #[test]
    fn damaged_job_sections_are_typed_corrupt() {
        let bytes = snapshot_bytes(&sample_trace());
        let jobs = section_id(KIND_JOBS, 3);
        let n = 4;
        // Column starts in the JOBS payload (see the module docs): the
        // ids, users, procs, node counts and node ids take one byte a
        // value, the three time columns four.
        let column = |width: usize| 1 + 8 + n * width;
        let dispatch = 4 + 2 * column(1) + column(4);
        let counts = 4 + 3 * column(1) + 3 * column(4);
        let refs = counts + column(1);
        let payload_len = section_range(&bytes, jobs).len();
        assert_eq!(payload_len, refs + 4 + 1 + 8 + 6, "the v6 layout");
        let put = |at: usize, v: &[u8]| {
            let v = v.to_vec();
            edited(&bytes, jobs, move |p| {
                p[at..at + v.len()].copy_from_slice(&v)
            })
        };
        // Row `row` of a four-byte offset column starting at `at`.
        let offset = |at: usize, row: usize| at + 9 + 4 * row;
        let cases = [
            (
                "node counts past the ids",
                // The first job's count, 3, becomes 4.
                put(counts + 9, &[4]),
                "differs from the 6 node ids",
            ),
            (
                "job count overflows",
                put(0, &u32::MAX.to_le_bytes()),
                "exceeds section size",
            ),
            (
                "one job too many for the section",
                put(0, &((payload_len as u32 - 4) / 7 + 1).to_le_bytes()),
                "exceeds section size",
            ),
            (
                "node refs overflow",
                put(refs, &u32::MAX.to_le_bytes()),
                "exceeds section size",
            ),
            (
                "one ref too few",
                put(refs, &5u32.to_le_bytes()),
                "trailing bytes",
            ),
            (
                "dispatch out of order",
                // The second job's dispatch becomes the last job's.
                edited(&bytes, jobs, |p| {
                    let last = p[offset(dispatch, 3)..][..4].to_vec();
                    p[offset(dispatch, 1)..][..4].copy_from_slice(&last);
                }),
                "not sorted by dispatch",
            ),
        ];
        for (what, hostile, expected) in cases {
            let message = corrupt_message(&hostile);
            assert!(message.contains(expected), "{what}: {message}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_benign() {
        // Flipping any byte must never panic, and when the decode
        // succeeds anyway the content fingerprint must still match
        // (i.e. silent corruption is impossible).
        let trace = sample_trace();
        let bytes = snapshot_bytes(&trace);
        let original = trace.fingerprint();
        let mut rejected = 0usize;
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xa5;
            match decode_snapshot(&mutated) {
                Err(_) => rejected += 1,
                Ok(decoded) => {
                    assert_eq!(
                        decoded.fingerprint(),
                        original,
                        "silent corruption after flipping byte {i}"
                    );
                }
            }
        }
        // The checksums make essentially every flip detectable.
        assert!(
            rejected >= bytes.len() - 1,
            "only {rejected}/{} flips rejected",
            bytes.len()
        );
    }

    #[test]
    fn truncation_at_any_length_is_rejected_without_panic() {
        let trace = sample_trace();
        let bytes = snapshot_bytes(&trace);
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
    }

    #[test]
    fn file_round_trip_and_typed_fallback() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("hpcsnap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.hpcsnap");
        write_snapshot(&path, &trace).expect("writes");
        let loaded = read_snapshot(&path).expect("reads");
        traces_equal(&trace, &loaded);
        match try_read_snapshot(&path) {
            SnapshotLoad::Loaded(t) => traces_equal(&trace, &t),
            SnapshotLoad::Unusable(f) => panic!("unexpected fallback: {f}"),
        }

        // A missing file becomes a typed audit entry, not a panic.
        match try_read_snapshot(dir.join("missing.hpcsnap")) {
            SnapshotLoad::Unusable(f) => {
                assert!(matches!(f.error, SnapshotError::Io(_)));
                assert!(f.to_string().contains("falling back to CSV"));
            }
            SnapshotLoad::Loaded(_) => panic!("loaded a missing file"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_keeps_the_previous_snapshot_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("hpcsnap-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.hpcsnap");
        let old = sample_trace();
        write_snapshot(&path, &old).expect("first write");

        // A directory squatting on the temporary path makes the next
        // write fail before anything reaches the target.
        let tmp = hpcfail_obs::fs::temp_path(&path);
        std::fs::create_dir(&tmp).unwrap();
        let err = write_snapshot(&path, &Trace::new()).expect_err("write must fail");
        assert!(matches!(err, SnapshotError::Io(_)));
        let kept = read_snapshot(&path).expect("previous snapshot still decodes");
        assert_eq!(kept.fingerprint(), old.fingerprint());
        std::fs::remove_dir(&tmp).unwrap();

        // With the squatter gone the write succeeds and leaves only the
        // target behind.
        write_snapshot(&path, &Trace::new()).expect("second write");
        assert!(read_snapshot(&path).expect("new snapshot").is_empty());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("trace.hpcsnap")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot's sections as `(id, payload)`, in table order.
    type Parts = Vec<(u32, Vec<u8>)>;

    fn parts(bytes: &[u8]) -> Parts {
        section_table(bytes)
            .expect("readable table")
            .1
            .into_iter()
            .map(|e| (e.id, bytes[e.range].to_vec()))
            .collect()
    }

    /// A snapshot of exactly these sections, back to back, with true
    /// checksums and the header fingerprint they fold to.
    fn assemble(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let mut fingerprint = ContentHash::new();
        for (id, payload) in sections {
            fold_entry(&mut fingerprint, *id, checksum(payload));
        }
        out.extend_from_slice(&fingerprint.finish().to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let mut offset = header_len(sections.len());
        for (id, payload) in sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(offset as u64).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&checksum(payload).to_le_bytes());
            offset += payload.len();
        }
        for (_, payload) in sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// [`reseal`], then the header fingerprint rewritten to the fold of
    /// the table, as a deliberate forger would.
    fn forge(bytes: &mut [u8]) -> Result<(), SnapshotError> {
        reseal(bytes)?;
        let mut fingerprint = ContentHash::new();
        for entry in section_table(bytes)?.1 {
            fold_entry(&mut fingerprint, entry.id, entry.checksum);
        }
        bytes[12..20].copy_from_slice(&fingerprint.finish().to_le_bytes());
        Ok(())
    }

    /// The sample trace plus a second system without a layout, listed
    /// before it.
    fn two_system_trace() -> Trace {
        let mut trace = sample_trace();
        let probe = span_probe(Timestamp::from_days(10.0));
        trace.insert_system(probe.systems().next().expect("one system").clone());
        trace
    }

    #[test]
    fn assembling_the_parts_gives_back_the_snapshot() {
        let bytes = snapshot_bytes(&two_system_trace());
        assert_eq!(assemble(&parts(&bytes)), bytes);
        let mut forged = bytes.clone();
        forge(&mut forged).unwrap();
        assert_eq!(forged, bytes);
    }

    #[test]
    fn non_canonical_snapshots_are_typed_corrupt() {
        let trace = two_system_trace();
        let bytes = snapshot_bytes(&trace);
        let sections = parts(&bytes);
        let ids: Vec<u32> = sections.iter().map(|(id, _)| *id).collect();
        let at = |id: u32| ids.iter().position(|&i| i == id).expect("present");
        let with = |edit: &dyn Fn(&mut Parts)| {
            let mut sections = sections.clone();
            edit(&mut sections);
            assemble(&sections)
        };
        let payload =
            |id: u32, edit: &dyn Fn(&mut Vec<u8>)| with(&|s: &mut Parts| edit(&mut s[at(id)].1));
        let jobs = section_id(KIND_JOBS, 3);
        let layout = section_id(KIND_LAYOUT, 3);
        let neutron = section_id(KIND_NEUTRON, 0);
        let maintenance = section_id(KIND_MAINTENANCE, 3);
        // SYSTEMS: count u32, then system 1: id u16, name "span" (u32
        // length + 4 bytes), nodes, procs, hardware u8, start, end and
        // the three flags.
        let system_one_flags = 4 + 2 + 4 + 4 + 4 + 4 + 1 + 8 + 8;
        let mut gap = bytes.clone();
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "sections swapped",
                with(&|s| s.swap(at(jobs), at(jobs) + 1)),
                "where section",
            ),
            (
                "a section repeated",
                with(&|s| s.insert(at(jobs), s[at(jobs)].clone())),
                "where section",
            ),
            (
                "a section missing",
                with(&|s| {
                    s.remove(at(jobs));
                }),
                "where section",
            ),
            (
                "the neutron section missing",
                with(&|s| {
                    s.pop();
                }),
                "missing section",
            ),
            (
                "an unknown section at the end",
                with(&|s| s.push((section_id(9, 0), Vec::new()))),
                "after the neutron section",
            ),
            (
                "trailing bytes",
                [bytes.as_slice(), &[0]].concat(),
                "bytes after the last section",
            ),
            (
                "a gap between sections",
                {
                    // Shift the neutron payload one byte later.
                    let (_, table) = section_table(&bytes).unwrap();
                    let last = table.last().unwrap();
                    let offset_at = last.checksum_at - 16;
                    gap.insert(last.range.start, 0);
                    let moved = (last.range.start as u64 + 1).to_le_bytes();
                    gap[offset_at..offset_at + 8].copy_from_slice(&moved);
                    gap
                },
                "not at byte",
            ),
            (
                "a flag byte of 2",
                payload(section_id(KIND_SYSTEMS, 0), &|p| p[system_one_flags] = 2),
                "not 0 or 1",
            ),
            (
                "systems out of id order",
                payload(section_id(KIND_SYSTEMS, 0), &|p| {
                    p[4..6].copy_from_slice(&3u16.to_le_bytes())
                }),
                "out of id order or twice",
            ),
            (
                "an unknown maintenance flag bit",
                // count u32, then the node, time and flags columns of
                // one row each: a width byte, the base (the one value)
                // and a zero offset.
                payload(maintenance, &|p| p[4 + 10 + 10 + 1] |= 0b100),
                "unknown bits",
            ),
            (
                "layout rows out of node order",
                // count u32, then the node column: a width byte, the
                // base and one byte a row.
                payload(layout, &|p| p.swap(13, 14)),
                "out of node order",
            ),
            (
                "neutron samples out of time order",
                // count u32, then the time column: a width byte, the
                // base and four bytes a sample.
                payload(neutron, &|p| {
                    let (first, second) = p.split_at_mut(17);
                    first[13..17].swap_with_slice(&mut second[..4]);
                }),
                "not sorted by time",
            ),
        ];
        for (what, hostile, expected) in cases {
            let message = corrupt_message(&hostile);
            assert!(message.contains(expected), "{what}: {message}");
        }
    }

    #[test]
    fn records_outside_their_span_are_typed_corrupt() {
        let slack = crate::SPAN_SLACK_DAYS * 86_400;
        // The sample system runs from 0 to 30 days. The builder does not
        // check spans, so each case pushes one record with a time at
        // `t` and the encoder writes it as it is.
        let end = 30 * 86_400 + slack;
        let sys = SystemId::new(3);
        let day = |d: f64| Timestamp::from_days(d);
        let job = |submit, dispatch, end| JobRecord {
            system: sys,
            job_id: JobId::new(99),
            user: UserId::new(4),
            submit,
            dispatch,
            end,
            procs: 1,
            nodes: vec![NodeId::new(1)],
        };
        let push = |what: &str, b: &mut SystemTraceBuilder, t: Timestamp| {
            match what {
                "failure" => b.push_failure(FailureRecord::new(
                    sys,
                    NodeId::new(1),
                    t,
                    RootCause::Hardware,
                    SubCause::None,
                )),
                "job submit" => b.push_job(job(t, day(2.0), day(2.0))),
                "job dispatch" => b.push_job(job(day(1.0), t, day(2.0))),
                "job end" => b.push_job(job(day(1.0), day(1.0), t)),
                "temperature" => b.push_temperature(TemperatureSample {
                    system: sys,
                    node: NodeId::new(1),
                    time: t,
                    celsius: 40.0,
                }),
                _ => b.push_maintenance(MaintenanceRecord {
                    system: sys,
                    node: NodeId::new(1),
                    time: t,
                    hardware_related: false,
                    scheduled: true,
                }),
            };
        };
        let cases = [
            "failure",
            "job submit",
            "job dispatch",
            "job end",
            "temperature",
            "maintenance",
        ];
        for what in cases {
            for (time, ok) in [(-1, false), (end, true), (end + 1, false)] {
                let trace = sample_trace_with(|b| push(what, b, Timestamp::from_seconds(time)));
                let bytes = snapshot_bytes(&trace);
                match decode_snapshot(&bytes) {
                    Ok(decoded) => {
                        assert!(ok, "{what} at {time} s decoded");
                        assert_eq!(snapshot_bytes(&decoded), bytes);
                    }
                    Err(SnapshotError::Corrupt(message)) => {
                        assert!(!ok, "{what} at {time} s: {message}");
                        assert!(message.contains(what), "{message}");
                        assert!(message.contains("outside its system's span"), "{message}");
                    }
                    Err(other) => panic!("{what} at {time} s: {other}"),
                }
            }
        }
    }

    /// An integer column written by hand: the width byte, the base,
    /// then each offset in `width` little-endian bytes.
    fn raw_column(width: usize, base: u64, offsets: &[u64]) -> Vec<u8> {
        let mut out = vec![width as u8];
        out.extend_from_slice(&base.to_le_bytes());
        for offset in offsets {
            let mut le = offset.to_le_bytes().to_vec();
            le.resize(width, 0);
            out.extend_from_slice(&le);
        }
        out
    }

    /// The JOBS payload of `jobs` with integer column `replace.0` (in
    /// payload order: id, user, submit, dispatch, end, procs, node
    /// count, node id) written as `replace.1` instead.
    fn jobs_payload(jobs: &JobColumns, replace: (usize, Vec<u8>)) -> Vec<u8> {
        let mut columns: Vec<Vec<u8>> = vec![Vec::new(); 8];
        columns[0].ints(jobs.job_ids().iter().copied());
        columns[1].ints(jobs.users().iter().copied());
        columns[2].ints(jobs.submits().iter().copied());
        columns[3].ints(jobs.dispatches().iter().copied());
        columns[4].ints(jobs.ends().iter().copied());
        columns[5].ints(jobs.procs().iter().copied());
        columns[6].ints(jobs.node_offsets().windows(2).map(|w| w[1] - w[0]));
        columns[7].ints(jobs.node_ids().iter().copied());
        columns[replace.0] = replace.1;
        let mut out = Vec::new();
        out.u32(jobs.len() as u32);
        for (i, column) in columns.iter().enumerate() {
            if i == 7 {
                out.u32(jobs.node_ids().len() as u32);
            }
            out.put(column);
        }
        out
    }

    #[test]
    fn non_canonical_column_encodings_are_typed_corrupt() {
        let trace = two_system_trace();
        let bytes = snapshot_bytes(&trace);
        let sections = parts(&bytes);
        let with_jobs = |system: u16, payload: Vec<u8>| {
            let mut sections = sections.clone();
            let id = section_id(KIND_JOBS, system);
            sections
                .iter_mut()
                .find(|(i, _)| *i == id)
                .expect("present")
                .1 = payload;
            assemble(&sections)
        };
        let sample = trace.system(SystemId::new(3)).expect("system 3");
        let jobs = sample.job_columns();
        let column = |i: usize, raw: Vec<u8>| with_jobs(3, jobs_payload(jobs, (i, raw)));
        // In dispatch order the users are 5, 4, 4, 6 (base 4, one byte
        // each), the node counts 3, 2, 1, 0, and the submits lie in the
        // first 20 days.
        let users = [1, 0, 0, 2];
        let (user, submit, node_count) = (1, 2, 6);
        let payload = |id: u32| &sections.iter().find(|(i, _)| *i == id).expect("present").1;
        assert_eq!(
            &jobs_payload(jobs, (user, raw_column(1, 4, &users))),
            payload(section_id(KIND_JOBS, 3)),
            "the canonical user column"
        );
        let submit_keys: Vec<u64> = jobs.submits().iter().map(|t| t.key()).collect();
        let top = *submit_keys.iter().max().unwrap();
        // Measured from the largest submit, every other one wraps past
        // u64::MAX to land on its value again.
        let wrapped: Vec<u64> = submit_keys.iter().map(|k| k.wrapping_sub(top)).collect();
        let mut empty_jobs = payload(section_id(KIND_JOBS, 1)).clone();
        // count u32, then the job id column: width 1, base 0, no offsets.
        assert_eq!(empty_jobs[4..13], raw_column(1, 0, &[])[..]);
        empty_jobs[5] = 7;
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "width 0",
                column(user, raw_column(0, 4, &[])),
                "width 0 is not 1, 2, 4 or 8",
            ),
            (
                "width 3",
                column(user, raw_column(3, 4, &users)),
                "width 3 is not 1, 2, 4 or 8",
            ),
            (
                "width 9",
                column(user, raw_column(9, 4, &users)),
                "width 9 is not 1, 2, 4 or 8",
            ),
            (
                "a wider width than the range needs",
                column(user, raw_column(2, 4, &users)),
                "user column width 2 is not the narrowest",
            ),
            (
                "a base below the minimum",
                column(user, raw_column(1, 3, &[2, 1, 1, 3])),
                "user column base 3 is not its minimum",
            ),
            (
                "a base above the minimum, the offsets wrapping",
                column(submit, raw_column(8, top, &wrapped)),
                "submit column base",
            ),
            (
                "a base plus offset past u32::MAX in a u32 column",
                column(user, raw_column(1, u64::from(u32::MAX) - 1, &users)),
                "lies past the range of its type",
            ),
            (
                "node counts summing past the node ids",
                column(node_count, raw_column(1, 0, &[4, 2, 1, 0])),
                "node counts sum to 7, which differs from the 6 node ids",
            ),
            (
                "node counts summing short of the node ids",
                column(node_count, raw_column(1, 0, &[3, 2, 0, 0])),
                "node counts sum to 5, which differs from the 6 node ids",
            ),
            (
                "an empty column with a base",
                with_jobs(1, empty_jobs),
                "empty job id column has base 7",
            ),
        ];
        for (what, hostile, expected) in cases {
            let message = corrupt_message(&hostile);
            assert!(message.contains(expected), "{what}: {message}");
        }
    }

    /// Encodes `values` as one integer column and decodes it back,
    /// checking the width is the narrowest for the range.
    fn column_round_trip<I: Int + std::fmt::Debug + PartialEq>(values: &[I]) {
        let mut bytes = Vec::new();
        bytes.ints(values.iter().copied());
        let mut len = Len(0);
        len.ints(values.iter().copied());
        assert_eq!(len.0, bytes.len());
        let keys = values.iter().map(|v| v.key());
        let range = keys.clone().max().unwrap_or(0) - keys.min().unwrap_or(0);
        assert_eq!(usize::from(bytes[0]), usize::from(width_for(range)));
        assert_eq!(bytes.len(), 9 + values.len() * usize::from(bytes[0]));
        let mut r = Reader::new(&bytes, "test");
        let decoded: Vec<I> = r.ints(values.len(), "test").expect("canonical");
        r.finish().expect("whole column read");
        assert_eq!(decoded, values);
    }

    #[test]
    fn maintenance_on_a_node_outside_the_system_is_typed_corrupt() {
        let bytes = snapshot_bytes(&sample_trace());
        // MAINTENANCE payload: count u32, then the node column of one
        // row: a width byte, the base (the one node) and a zero offset.
        for node in [6u32, u32::MAX] {
            let mut forged = edited(&bytes, section_id(KIND_MAINTENANCE, 3), |p| {
                p[5..13].copy_from_slice(&u64::from(node).to_le_bytes())
            });
            forge(&mut forged).unwrap();
            let message = corrupt_message(&forged);
            assert!(message.contains("out of range"), "{node}: {message}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        /// Every integer column round-trips at its narrowest width:
        /// random, clustered (offsets of 1, 2, 4 and 8 bytes from a
        /// random base), constant and empty columns, with the extremes
        /// of each type.
        #[test]
        fn integer_columns_round_trip(
            raw in proptest::prop::collection::vec(0u64..=u64::MAX, 0..48),
            base in 0u64..=u64::MAX,
            shift in 0u32..4,
            extremes in 0u8..4,
        ) {
            let bits = 8u32 << shift;
            let mut keys: Vec<u64> = raw
                .iter()
                .map(|r| base.wrapping_add(if bits == 64 { *r } else { r % (1 << bits) }))
                .collect();
            if extremes & 1 != 0 {
                keys.push(0);
            }
            if extremes & 2 != 0 {
                keys.push(u64::MAX);
            }
            let constant = vec![base; raw.len()];
            for keys in [&keys, &raw, &constant, &Vec::new()] {
                column_round_trip::<u64>(keys);
                column_round_trip::<i64>(&keys.iter().map(|&k| i64::from_key(k)).collect::<Vec<_>>());
                column_round_trip::<u32>(&keys.iter().map(|&k| k as u32).collect::<Vec<_>>());
            }
            column_round_trip::<i64>(&[i64::MIN, i64::MAX]);
            column_round_trip::<i64>(&[i64::MAX, -1, 0, i64::MIN]);
            column_round_trip::<u32>(&[u32::MAX, 0]);
        }

        /// Any snapshot that decodes, however it was damaged and then
        /// resealed with a matching fingerprint, is exactly the encoding
        /// of what it decodes to, so equal content has one fingerprint.
        #[test]
        fn whatever_decodes_re_encodes_to_the_same_bytes(
            edits in proptest::prop::collection::vec((0usize..1 << 20, 0u8..=255, 0u8..4), 1..4),
        ) {
            let mut bytes = snapshot_bytes(&two_system_trace());
            for (at, value, how) in edits {
                let at = at % bytes.len();
                match how {
                    0 => bytes[at] = value,
                    1 => bytes[at] ^= 1 << (value % 8),
                    2 => bytes[at] = bytes[at].wrapping_add(1),
                    _ => bytes[at] = bytes[at].wrapping_sub(1),
                }
            }
            if forge(&mut bytes).is_ok() {
                if let Ok(decoded) = decode_snapshot(&bytes) {
                    proptest::prop_assert!(snapshot_bytes(&decoded) == bytes);
                    proptest::prop_assert_eq!(decoded.fingerprint(), content_fingerprint(&decoded));
                }
            }
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new();
        let bytes = snapshot_bytes(&trace);
        let decoded = decode_snapshot(&bytes).expect("decodes");
        assert!(decoded.is_empty());
        assert_eq!(trace.fingerprint(), decoded.fingerprint());
    }
}
