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
//! # File format (version 4)
//!
//! ```text
//! magic      8 bytes  "HPCSNAP\0"
//! version    u32 LE   4
//! fingerprint u64 LE  Trace::fingerprint() of the whole trace
//! sections   u32 LE   number of section-table entries
//! table      sections × { id u32, offset u64, len u64, checksum u64 }
//! ...section payloads at their recorded offsets...
//! ```
//!
//! Section ids combine a kind (high 16 bits) and a system id (low 16
//! bits). One `SYSTEMS` section carries every [`SystemConfig`]; each
//! system then contributes `FAILURES` (the five primitive columns,
//! stored column-wise), `JOBS`, `TEMPERATURES`, `MAINTENANCE` and — when
//! present — `LAYOUT` sections; one fleet-wide `NEUTRON` section closes
//! the file. The `JOBS` payload is column-major too:
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
//! Every payload is integrity-checked by a checksum in the table (the
//! same four-lane content hash as the fingerprint, over the payload
//! bytes), and the decoded trace must reproduce the header's content
//! fingerprint. Older versions are refused as
//! [`SnapshotError::UnsupportedVersion`]: version 1 checksummed with a
//! byte-serial FNV-1a, version 2 stored one row per job, and version 3
//! hashed one word at a time in a single chain.
//!
//! # Fallback rules
//!
//! Loading never panics: any truncation, checksum mismatch, bad magic or
//! unsupported version yields a typed [`SnapshotError`].
//! [`try_read_snapshot`] additionally packages a failure as a
//! [`SnapshotFallback`] audit entry and bumps the
//! `store.snapshot.fallback` counter so callers can drop to CSV ingest
//! while recording exactly why.

use crate::columns::{day_index, FailureColumns, JobColumns};
use crate::trace::{ContentHash, SystemTrace, Trace};
use crate::{check_span, MAX_NODES};
use hpcfail_types::prelude::*;
use std::fmt;
use std::path::{Path, PathBuf};

/// The 8-byte prefix every `.hpcsnap` stream starts with; sniffing it
/// distinguishes a binary snapshot upload from CSV text.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HPCSNAP\0";
const MAGIC: &[u8; 8] = SNAPSHOT_MAGIC;
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 4;

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
    /// undecodable payload or inconsistent content.
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
    h.bytes(bytes);
    h.finish()
}

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Appends one fixed-width little-endian value per item.
    fn column<T, const W: usize>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        encode: impl Fn(T) -> [u8; W],
    ) {
        self.buf.reserve(items.len() * W);
        for item in items {
            self.buf.extend_from_slice(&encode(item));
        }
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

fn encode_systems(trace: &Trace) -> Vec<u8> {
    let mut w = Writer::default();
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
    w.buf
}

fn encode_failures(cols: &FailureColumns) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(cols.len() as u32);
    w.column(cols.times().iter(), |t| t.to_le_bytes());
    w.column(cols.nodes().iter(), |n| n.to_le_bytes());
    w.buf.extend_from_slice(cols.roots());
    w.column(cols.subs().iter(), |s| s.to_le_bytes());
    w.column(cols.downtimes().iter(), |d| d.to_le_bytes());
    w.buf
}

fn encode_jobs(jobs: &JobColumns) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(jobs.len() as u32);
    w.column(jobs.job_ids().iter(), |v| v.to_le_bytes());
    w.column(jobs.users().iter(), |v| v.to_le_bytes());
    w.column(jobs.submits().iter(), |v| v.to_le_bytes());
    w.column(jobs.dispatches().iter(), |v| v.to_le_bytes());
    w.column(jobs.ends().iter(), |v| v.to_le_bytes());
    w.column(jobs.procs().iter(), |v| v.to_le_bytes());
    w.column(jobs.node_offsets().iter(), |v| v.to_le_bytes());
    w.u32(jobs.node_ids().len() as u32);
    w.column(jobs.node_ids().iter(), |v| v.to_le_bytes());
    w.buf
}

fn encode_temperatures(samples: &[TemperatureSample]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(samples.len() as u32);
    w.column(samples.iter(), |s| s.node.raw().to_le_bytes());
    w.column(samples.iter(), |s| s.time.as_seconds().to_le_bytes());
    w.column(samples.iter(), |s| s.celsius.to_le_bytes());
    w.buf
}

fn encode_maintenance(records: &[MaintenanceRecord]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(records.len() as u32);
    w.column(records.iter(), |m| m.node.raw().to_le_bytes());
    w.column(records.iter(), |m| m.time.as_seconds().to_le_bytes());
    w.column(records.iter(), |m| {
        [((m.hardware_related as u8) << 1) | m.scheduled as u8]
    });
    w.buf
}

fn encode_layout(layout: &MachineLayout) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(layout.len() as u32);
    for (node, loc) in layout.iter() {
        w.u32(node.raw());
        w.u16(loc.rack.raw());
        w.u8(loc.position_in_rack);
        w.u16(loc.room_row);
        w.u16(loc.room_col);
    }
    w.buf
}

fn encode_neutron(samples: &[NeutronSample]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(samples.len() as u32);
    w.column(samples.iter(), |s| s.time.as_seconds().to_le_bytes());
    w.column(samples.iter(), |s| s.counts_per_minute.to_le_bytes());
    w.buf
}

/// Serializes the trace into the `.hpcsnap` byte format.
pub fn snapshot_bytes(trace: &Trace) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> =
        vec![(section_id(KIND_SYSTEMS, 0), encode_systems(trace))];
    for system in trace.systems() {
        let sys = system.id().raw();
        sections.push((
            section_id(KIND_FAILURES, sys),
            encode_failures(system.failure_columns()),
        ));
        sections.push((
            section_id(KIND_JOBS, sys),
            encode_jobs(system.job_columns()),
        ));
        sections.push((
            section_id(KIND_TEMPERATURES, sys),
            encode_temperatures(system.temperatures()),
        ));
        sections.push((
            section_id(KIND_MAINTENANCE, sys),
            encode_maintenance(system.maintenance()),
        ));
        if let Some(layout) = system.layout() {
            sections.push((section_id(KIND_LAYOUT, sys), encode_layout(layout)));
        }
    }
    sections.push((
        section_id(KIND_NEUTRON, 0),
        encode_neutron(trace.neutron_samples()),
    ));

    let header_len = MAGIC.len() + 4 + 8 + 4 + sections.len() * (4 + 8 + 8 + 8);
    let mut out =
        Vec::with_capacity(header_len + sections.iter().map(|(_, b)| b.len()).sum::<usize>());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&trace.fingerprint().to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = header_len as u64;
    for (id, bytes) in &sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(bytes).to_le_bytes());
        offset += bytes.len() as u64;
    }
    for (_, bytes) in &sections {
        out.extend_from_slice(bytes);
    }
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

struct Section<'a> {
    bytes: &'a [u8],
}

/// One section-table entry: the section id, its payload range, the
/// stored checksum and the file offset that checksum sits at.
struct TableEntry {
    id: u32,
    range: std::ops::Range<usize>,
    checksum: u64,
    checksum_at: usize,
}

/// Reads the header and the section table, checking the magic, the
/// version and that every payload range lies inside the file.
fn section_table(buf: &[u8]) -> Result<Vec<TableEntry>, SnapshotError> {
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
    let _fingerprint = r.u64()?;
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
    Ok(table)
}

fn parse_sections(buf: &[u8]) -> Result<Vec<(u32, Section<'_>)>, SnapshotError> {
    section_table(buf)?
        .into_iter()
        .map(|entry| {
            let bytes = &buf[entry.range];
            if checksum(bytes) != entry.checksum {
                return Err(SnapshotError::Corrupt(format!(
                    "section {:#x} checksum mismatch",
                    entry.id
                )));
            }
            Ok((entry.id, Section { bytes }))
        })
        .collect()
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
    for entry in section_table(buf)? {
        let sum = checksum(&buf[entry.range]);
        buf[entry.checksum_at..entry.checksum_at + 8].copy_from_slice(&sum.to_le_bytes());
    }
    Ok(())
}

fn header_fingerprint(buf: &[u8]) -> Result<u64, SnapshotError> {
    let mut r = Reader::new(&buf[MAGIC.len()..], "header");
    let _version = r.u32()?;
    r.u64()
}

fn decode_systems(bytes: &[u8]) -> Result<Vec<SystemConfig>, SnapshotError> {
    let mut r = Reader::new(bytes, "systems");
    let count = r.count(31)?;
    let mut configs = Vec::with_capacity(count);
    let mut total_nodes = 0u64;
    for _ in 0..count {
        let id = SystemId::new(r.u16()?);
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
        let has_layout = r.u8()? != 0;
        let has_job_log = r.u8()? != 0;
        let has_temperature = r.u8()? != 0;
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
    )?)
}

fn decode_jobs(bytes: &[u8]) -> Result<JobColumns, SnapshotError> {
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
    let start = config.start.as_seconds();
    if let Some(t) = times.iter().find(|&&t| day_index(t, start).is_none()) {
        return Err(SnapshotError::Corrupt(format!(
            "maintenance time {t} is too far from the start {start}"
        )));
    }
    let flags = r.take(count)?;
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
    for _ in 0..count {
        let node = NodeId::new(r.u32()?);
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

/// Decodes a trace from snapshot bytes.
///
/// # Errors
///
/// Any structural damage — bad magic, unsupported version, out-of-range
/// section, checksum or fingerprint mismatch, undecodable payload —
/// yields a typed [`SnapshotError`]; this function never panics on
/// hostile input.
pub fn decode_snapshot(buf: &[u8]) -> Result<Trace, SnapshotError> {
    let sections = parse_sections(buf)?;
    let find = |id: u32| sections.iter().find(|(sid, _)| *sid == id).map(|(_, s)| s);

    let systems_section = find(section_id(KIND_SYSTEMS, 0))
        .ok_or_else(|| SnapshotError::Corrupt("missing systems section".into()))?;
    let configs = decode_systems(systems_section.bytes)?;

    let mut trace = Trace::new();
    for config in configs {
        let sys = config.id.raw();
        let failures = find(section_id(KIND_FAILURES, sys)).ok_or_else(|| {
            SnapshotError::Corrupt(format!("missing failures section for {}", config.id))
        })?;
        let columns = decode_failures(failures.bytes, &config)?;
        let jobs = match find(section_id(KIND_JOBS, sys)) {
            Some(s) => decode_jobs(s.bytes)?,
            None => JobColumns::default(),
        };
        let temperatures = match find(section_id(KIND_TEMPERATURES, sys)) {
            Some(s) => decode_temperatures(s.bytes, &config)?,
            None => Vec::new(),
        };
        let maintenance = match find(section_id(KIND_MAINTENANCE, sys)) {
            Some(s) => decode_maintenance(s.bytes, &config)?,
            None => Vec::new(),
        };
        let layout = match find(section_id(KIND_LAYOUT, sys)) {
            Some(s) => Some(decode_layout(s.bytes)?),
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
    if let Some(s) = find(section_id(KIND_NEUTRON, 0)) {
        let samples = decode_neutron(s.bytes)?;
        trace.set_neutron_samples(samples);
    }

    // Hashing here also memoizes the checked value, so the engine and
    // a later demotion re-encode reuse it instead of hashing again.
    let expected = header_fingerprint(buf)?;
    let actual = trace.fingerprint();
    if expected != actual {
        return Err(SnapshotError::Corrupt(format!(
            "content fingerprint mismatch: header {expected:016x}, decoded {actual:016x}"
        )));
    }
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
        // byte-serial FNV-1a format), version 2 (one row per job) and
        // version 3 (the single-chain hash) are refused like an unknown
        // one.
        for version in [1u32, 2, 3, 0xfe] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_snapshot(&bytes),
                Err(SnapshotError::UnsupportedVersion(v)) if v == version
            ));
        }

        // An older file on disk becomes a typed fallback audit entry.
        let dir = std::env::temp_dir().join(format!("hpcsnap-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for version in [1u32, 2, 3] {
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
        // The format-4 value: each column hashed in four lanes. It moves
        // only with a `SNAPSHOT_VERSION` bump.
        let trace = sample_trace();
        assert_eq!(format!("{:016x}", trace.fingerprint()), "44fac9bd63cedf61");
        let system = trace.systems().next().expect("one system");
        let ids: Vec<u64> = system.jobs().map(|j| j.job_id.raw()).collect();
        assert_eq!(ids, [12, 11, 13, 14], "stable sort by dispatch");
        let decoded = decode_snapshot(&snapshot_bytes(&trace)).expect("decodes");
        assert_eq!(decoded.fingerprint(), trace.fingerprint());
    }

    /// The payload range of section `id`.
    fn section_range(bytes: &[u8], id: u32) -> std::ops::Range<usize> {
        section_table(bytes)
            .expect("readable table")
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
            assert!(message.contains("too far from the start"), "{message}");
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

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new();
        let bytes = snapshot_bytes(&trace);
        let decoded = decode_snapshot(&bytes).expect("decodes");
        assert!(decoded.is_empty());
        assert_eq!(trace.fingerprint(), decoded.fingerprint());
    }
}
