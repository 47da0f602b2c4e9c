//! Versioned binary snapshots (`.hpcsnap`) of a full [`Trace`].
//!
//! A snapshot is written once after ingest and loaded at boot with a
//! single bulk read, skipping CSV parsing and per-record validation: the
//! failure and job columns are stored exactly as the in-memory
//! struct-of-arrays layouts ([`crate::columns::FailureColumns`],
//! [`crate::columns::JobColumns`]), so a load is one bulk
//! little-endian copy per column plus the O(n) postings rebuild — no
//! row structs, no sorting, no text.
//!
//! # File format (version 5)
//!
//! ```text
//! magic      8 bytes  "HPCSNAP\0"
//! version    u32 LE   5
//! fingerprint u64 LE  Trace::fingerprint() of the whole trace
//! sections   u32 LE   number of section-table entries
//! table      sections × { id u32, offset u64, len u64, checksum u64 }
//! ...section payloads, back to back in table order, to the end of the file...
//! ```
//!
//! Section ids combine a kind (high 16 bits) and a system id (low 16
//! bits). The table lists the sections in one canonical order: one
//! `SYSTEMS` section carrying every [`SystemConfig`] in id order; then,
//! for each system in id order, `FAILURES` (the five primitive columns,
//! stored column-wise), `JOBS`, `TEMPERATURES`, `MAINTENANCE` and, when
//! the system has a layout, `LAYOUT`; and one fleet-wide `NEUTRON`
//! section last. The `JOBS` payload is column-major too:
//!
//! ```text
//! count        u32
//! job_id       count × u64
//! user         count × u32
//! submit       count × i64
//! dispatch     count × i64, non-decreasing
//! end          count × i64
//! procs        count × u32
//! node_offsets (count + 1) × u32, from 0, non-decreasing
//! refs         u32, equal to the last node offset
//! node_ids     refs × u32
//! ```
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
//! entries, every per-system section present; every row must be in the
//! order the builder sorts it into; and every flag must be one the
//! encoder writes. Equal content therefore has one encoding and one
//! fingerprint, whether it was uploaded, booted from CSV or demoted and
//! rehydrated. Decode also checks every declared size and every record
//! time against its system's span (see [`crate::SPAN_SLACK_DAYS`]),
//! and compares the header's fingerprint with the checksum fold.
//!
//! Older versions are refused as [`SnapshotError::UnsupportedVersion`]:
//! version 1 checksummed with a byte-serial FNV-1a, version 2 stored one
//! row per job, version 3 hashed one word at a time in a single chain,
//! and version 4 fingerprinted a second, typed walk of the decoded
//! trace.
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
pub const SNAPSHOT_VERSION: u32 = 5;

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
// Byte-level encoding (little-endian, fixed width)

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

/// Where the encoder writes: the snapshot buffer, the hash of one
/// section, or a byte count. Every value is little-endian and fixed
/// width; a string is its `u32` length, then its bytes.
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

    /// Writes one value per item, staged in 4 KiB chunks so the sink
    /// sees a few large writes.
    fn column<T, const W: usize>(&mut self, items: &[T], encode: impl Fn(&T) -> [u8; W]) {
        let mut chunk = [0u8; 4096];
        for items in items.chunks(chunk.len() / W) {
            let staged = &mut chunk[..items.len() * W];
            for (bytes, item) in staged.chunks_exact_mut(W).zip(items) {
                bytes.copy_from_slice(&encode(item));
            }
            self.put(staged);
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

    fn column<T, const W: usize>(&mut self, items: &[T], _: impl Fn(&T) -> [u8; W]) {
        self.0 += items.len() * W;
    }
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
            other => Err(SnapshotError::Corrupt(format!(
                "{}: {field} flag is {other}, not 0 or 1",
                self.what
            ))),
        }
    }

    /// Reads `n` fixed-width little-endian values with one bulk copy.
    fn column<T, const W: usize>(
        &mut self,
        n: usize,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let Some(len) = n.checked_mul(W) else {
            return Err(SnapshotError::Corrupt(format!(
                "{} column of {n} values overflows",
                self.what
            )));
        };
        Ok(self
            .take(len)?
            .chunks_exact(W)
            .map(|c| decode(c.try_into().expect("chunks_exact yields W bytes")))
            .collect())
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
    w.column(cols.times(), |t| t.to_le_bytes());
    w.column(cols.nodes(), |n| n.to_le_bytes());
    w.put(cols.roots());
    w.column(cols.subs(), |s| s.to_le_bytes());
    w.column(cols.downtimes(), |d| d.to_le_bytes());
}

fn encode_jobs(w: &mut impl Sink, jobs: &JobColumns) {
    w.u32(jobs.len() as u32);
    w.column(jobs.job_ids(), |v| v.to_le_bytes());
    w.column(jobs.users(), |v| v.to_le_bytes());
    w.column(jobs.submits(), |v| v.to_le_bytes());
    w.column(jobs.dispatches(), |v| v.to_le_bytes());
    w.column(jobs.ends(), |v| v.to_le_bytes());
    w.column(jobs.procs(), |v| v.to_le_bytes());
    w.column(jobs.node_offsets(), |v| v.to_le_bytes());
    w.u32(jobs.node_ids().len() as u32);
    w.column(jobs.node_ids(), |v| v.to_le_bytes());
}

fn encode_temperatures(w: &mut impl Sink, samples: &[TemperatureSample]) {
    w.u32(samples.len() as u32);
    w.column(samples, |s| s.node.raw().to_le_bytes());
    w.column(samples, |s| s.time.as_seconds().to_le_bytes());
    w.column(samples, |s| s.celsius.to_le_bytes());
}

fn encode_maintenance(w: &mut impl Sink, records: &[MaintenanceRecord]) {
    w.u32(records.len() as u32);
    w.column(records, |m| m.node.raw().to_le_bytes());
    w.column(records, |m| m.time.as_seconds().to_le_bytes());
    w.column(records, |m| {
        [((m.hardware_related as u8) << 1) | m.scheduled as u8]
    });
}

fn encode_layout(w: &mut impl Sink, layout: &MachineLayout) {
    w.u32(layout.len() as u32);
    for (node, loc) in layout.iter() {
        w.u32(node.raw());
        w.u16(loc.rack.raw());
        w.u8(loc.position_in_rack);
        w.u16(loc.room_row);
        w.u16(loc.room_col);
    }
}

fn encode_neutron(w: &mut impl Sink, samples: &[NeutronSample]) {
    w.u32(samples.len() as u32);
    w.column(samples, |s| s.time.as_seconds().to_le_bytes());
    w.column(samples, |s| s.counts_per_minute.to_le_bytes());
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
    let count = r.count(8 + 4 + 1 + 2 + 8)?;
    let times = r.column(count, i64::from_le_bytes)?;
    let nodes = r.column(count, u32::from_le_bytes)?;
    let roots = r.take(count)?.to_vec();
    let subs = r.column(count, u16::from_le_bytes)?;
    let downtimes = r.column(count, i64::from_le_bytes)?;
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
    let count = r.count(8 + 4 + 8 + 8 + 8 + 4 + 4)?;
    let job_ids = r.column(count, u64::from_le_bytes)?;
    let users = r.column(count, u32::from_le_bytes)?;
    let submits = r.column(count, i64::from_le_bytes)?;
    let dispatches = r.column(count, i64::from_le_bytes)?;
    let ends = r.column(count, i64::from_le_bytes)?;
    let procs = r.column(count, u32::from_le_bytes)?;
    let node_offsets = r.column(count + 1, u32::from_le_bytes)?;
    let refs = r.count(4)?;
    let node_ids = r.column(refs, u32::from_le_bytes)?;
    r.finish()?;
    Ok(JobColumns::from_raw_parts(
        job_ids,
        users,
        submits,
        dispatches,
        ends,
        procs,
        node_offsets,
        node_ids,
        config.start,
        config.end,
    )?)
}

fn decode_temperatures(
    bytes: &[u8],
    config: &SystemConfig,
) -> Result<Vec<TemperatureSample>, SnapshotError> {
    let mut r = Reader::new(bytes, "temperatures");
    let count = r.count(4 + 8 + 8)?;
    let nodes = r.column(count, u32::from_le_bytes)?;
    let times = r.column(count, i64::from_le_bytes)?;
    if times.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt(
            "temperature samples not sorted by time".into(),
        ));
    }
    check_in_span(
        "temperature",
        times.iter().copied(),
        config.start,
        config.end,
    )
    .map_err(SnapshotError::Corrupt)?;
    let celsius = r.column(count, f64::from_le_bytes)?;
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
    let count = r.count(4 + 8 + 1)?;
    let nodes = r.column(count, u32::from_le_bytes)?;
    if let Some(node) = nodes.iter().find(|&&n| n >= config.nodes) {
        return Err(SnapshotError::Corrupt(format!(
            "maintenance node {node} out of range (system has {} nodes)",
            config.nodes
        )));
    }
    let times = r.column(count, i64::from_le_bytes)?;
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
    check_in_span(
        "maintenance",
        times.iter().copied(),
        config.start,
        config.end,
    )
    .map_err(SnapshotError::Corrupt)?;
    let flags = r.take(count)?;
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
        .map(|((node, time), &flags)| MaintenanceRecord {
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
    let count = r.count(4 + 2 + 1 + 2 + 2)?;
    let mut layout = MachineLayout::new();
    let mut last = None;
    for _ in 0..count {
        let node = NodeId::new(r.u32()?);
        if last.is_some_and(|last| last >= node) {
            return Err(SnapshotError::Corrupt(format!(
                "layout row for {node} is out of node order or repeated"
            )));
        }
        last = Some(node);
        let rack = RackId::new(r.u16()?);
        let position_in_rack = r.u8()?;
        let room_row = r.u16()?;
        let room_col = r.u16()?;
        layout.place(
            node,
            NodeLocation {
                rack,
                position_in_rack,
                room_row,
                room_col,
            },
        );
    }
    r.finish()?;
    Ok(layout)
}

fn decode_neutron(bytes: &[u8]) -> Result<Vec<NeutronSample>, SnapshotError> {
    let mut r = Reader::new(bytes, "neutron");
    let count = r.count(8 + 8)?;
    let times = r.column(count, i64::from_le_bytes)?;
    if times.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt(
            "neutron samples not sorted by time".into(),
        ));
    }
    let counts = r.column(count, f64::from_le_bytes)?;
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
        // version 3 (the single-chain hash) and version 4 (the typed
        // fingerprint walk) are refused like an unknown one.
        for version in [1u32, 2, 3, 4, 0xfe] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_snapshot(&bytes),
                Err(SnapshotError::UnsupportedVersion(v)) if v == version
            ));
        }

        // An older file on disk becomes a typed fallback audit entry.
        let dir = std::env::temp_dir().join(format!("hpcsnap-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for version in [1u32, 2, 3, 4] {
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
        // The format-5 value: the fold of the section checksums. It
        // moves only with a `SNAPSHOT_VERSION` bump.
        let trace = sample_trace();
        assert_eq!(format!("{:016x}", trace.fingerprint()), "9d3a2b9014182cd8");
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
        // MAINTENANCE payload: count u32, node u32, then the times.
        let min = i64::MIN.to_le_bytes();
        for (kind, at) in [(KIND_FAILURES, 4), (KIND_MAINTENANCE, 8)] {
            let hostile = edited(&bytes, section_id(kind, 1), |p| {
                p[at..at + 8].copy_from_slice(&min)
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
        // Column starts in the JOBS payload; see the module docs.
        let dispatch = 4 + n * (8 + 4 + 8);
        let offsets = 4 + n * (8 + 4 + 8 + 8 + 8 + 4);
        let refs = offsets + (n + 1) * 4;
        let put = |at: usize, v: &[u8]| {
            let v = v.to_vec();
            edited(&bytes, jobs, move |p| {
                p[at..at + v.len()].copy_from_slice(&v)
            })
        };
        let offset = |i: usize, v: u32| put(offsets + 4 * i, &v.to_le_bytes());
        let cases = [
            ("offset decreases", offset(1, 6), "decrease"),
            ("offset starts at 1", offset(0, 1), "do not start at 0"),
            (
                "last offset past the ids",
                offset(n, 7),
                "differs from the 6 node ids",
            ),
            (
                "job count overflows",
                put(0, &u32::MAX.to_le_bytes()),
                "exceeds section size",
            ),
            (
                "one job too many",
                put(0, &5u32.to_le_bytes()),
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
                put(dispatch, &i64::MAX.to_le_bytes()),
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
                // count u32, one node u32, one time i64, then the flags.
                payload(maintenance, &|p| p[16] |= 0b100),
                "unknown bits",
            ),
            (
                "layout rows out of node order",
                // count u32, then 11-byte rows led by the node id.
                payload(layout, &|p| {
                    p[4..8].copy_from_slice(&1u32.to_le_bytes());
                    p[15..19].copy_from_slice(&0u32.to_le_bytes());
                }),
                "out of node order",
            ),
            (
                "neutron samples out of time order",
                payload(neutron, &|p| {
                    let (first, second) = p.split_at_mut(12);
                    first[4..12].swap_with_slice(&mut second[..8]);
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
        let trace = sample_trace();
        let bytes = snapshot_bytes(&trace);
        let slack = crate::SPAN_SLACK_DAYS * 86_400;
        // The sample system runs from 0 to 30 days. Each case names a
        // time column's payload offset and length (see the module docs
        // and the encoders); an early time goes into the first row and
        // a late one into the last, so the rows stay sorted.
        let end = 30 * 86_400 + slack;
        let jobs = 4;
        let cases = [
            (KIND_FAILURES, 4, 2, "failure"),
            (KIND_JOBS, 4 + jobs * (8 + 4), jobs, "job submit"),
            (KIND_JOBS, 4 + jobs * (8 + 4 + 8), jobs, "job dispatch"),
            (KIND_JOBS, 4 + jobs * (8 + 4 + 8 + 8), jobs, "job end"),
            (KIND_TEMPERATURES, 4 + 4, 1, "temperature"),
            (KIND_MAINTENANCE, 4 + 4, 1, "maintenance"),
        ];
        for (kind, column, rows, what) in cases {
            for (time, row, ok) in [
                (-1, 0, false),
                (end, rows - 1, true),
                (end + 1, rows - 1, false),
            ] {
                let at = column + 8 * row;
                let mut forged = edited(&bytes, section_id(kind, 3), |p| {
                    p[at..at + 8].copy_from_slice(&i64::to_le_bytes(time))
                });
                forge(&mut forged).unwrap();
                match decode_snapshot(&forged) {
                    Ok(decoded) => {
                        assert!(ok, "{what} at {time} s decoded");
                        assert_eq!(snapshot_bytes(&decoded), forged);
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

    #[test]
    fn maintenance_on_a_node_outside_the_system_is_typed_corrupt() {
        let bytes = snapshot_bytes(&sample_trace());
        // MAINTENANCE payload: count u32, then the node column.
        for node in [6u32, u32::MAX] {
            let mut forged = edited(&bytes, section_id(KIND_MAINTENANCE, 3), |p| {
                p[4..8].copy_from_slice(&node.to_le_bytes())
            });
            forge(&mut forged).unwrap();
            let message = corrupt_message(&forged);
            assert!(message.contains("out of range"), "{node}: {message}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

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
