//! Struct-of-arrays columnar storage for failure, maintenance and job
//! events.
//!
//! These columns are the only failure storage a trace has. The query
//! kernels — per-node day vectors, window membership tests, baseline
//! estimation — touch one or two fields per event, so each field lives
//! in its own timestamp-sorted array and kernels scan contiguous
//! primitive columns instead of 48-byte row structs; callers that want
//! whole records decode them with [`FailureColumns::record`]:
//!
//! - `times` / `nodes` / `roots` / `subs` / `downtimes` — the record
//!   fields, one array per field, all sorted by `(time, node)` in exactly
//!   the order [`crate::trace::SystemTraceBuilder::build`] establishes;
//! - `days` — the precomputed day index of each event relative to the
//!   system's observation start, so day-vector extraction is a gather
//!   instead of a per-event `div_euclid`;
//! - a CSR (compressed-sparse-row) postings index `node_ptr`/`node_post`
//!   mapping each node to its events in time order, replacing the
//!   pointer-chasing `Vec<Vec<u32>>` layout;
//! - `node_class_mask` — one bitmask per node recording which root-cause
//!   categories appear on that node at all, so class-restricted scans can
//!   skip nodes without touching their postings.
//!
//! Root and sub-causes are stored as compact integer codes
//! ([`root_code`], [`sub_code`]); class matching happens on the codes via
//! [`ClassCode`], never on materialized enums.

use hpcfail_types::prelude::*;
use hpcfail_types::time::SECONDS_PER_DAY;
use std::fmt;

/// Compact integer code for a [`RootCause`] (declaration order).
pub const fn root_code(root: RootCause) -> u8 {
    match root {
        RootCause::Environment => 0,
        RootCause::Hardware => 1,
        RootCause::HumanError => 2,
        RootCause::Network => 3,
        RootCause::Software => 4,
        RootCause::Undetermined => 5,
    }
}

/// Decodes a [`root_code`]; `None` for out-of-range codes.
pub const fn root_from_code(code: u8) -> Option<RootCause> {
    Some(match code {
        0 => RootCause::Environment,
        1 => RootCause::Hardware,
        2 => RootCause::HumanError,
        3 => RootCause::Network,
        4 => RootCause::Software,
        5 => RootCause::Undetermined,
        _ => return None,
    })
}

const SUB_NS_NONE: u16 = 0;
const SUB_NS_HW: u16 = 1 << 8;
const SUB_NS_SW: u16 = 2 << 8;
const SUB_NS_ENV: u16 = 3 << 8;

const fn hw_code(c: HardwareComponent) -> u16 {
    match c {
        HardwareComponent::Cpu => 0,
        HardwareComponent::MemoryDimm => 1,
        HardwareComponent::NodeBoard => 2,
        HardwareComponent::PowerSupply => 3,
        HardwareComponent::Fan => 4,
        HardwareComponent::MscBoard => 5,
        HardwareComponent::Midplane => 6,
        HardwareComponent::Nic => 7,
        HardwareComponent::Disk => 8,
        HardwareComponent::Other => 9,
    }
}

const fn sw_code(c: SoftwareCause) -> u16 {
    match c {
        SoftwareCause::Dst => 0,
        SoftwareCause::Pfs => 1,
        SoftwareCause::Cfs => 2,
        SoftwareCause::Os => 3,
        SoftwareCause::PatchInstall => 4,
        SoftwareCause::Other => 5,
    }
}

const fn env_code(c: EnvironmentCause) -> u16 {
    match c {
        EnvironmentCause::PowerOutage => 0,
        EnvironmentCause::PowerSpike => 1,
        EnvironmentCause::Ups => 2,
        EnvironmentCause::Chiller => 3,
        EnvironmentCause::Other => 4,
    }
}

/// Compact integer code for a [`SubCause`]: the high byte is the
/// namespace (none/hardware/software/environment), the low byte the
/// component within it.
pub const fn sub_code(sub: SubCause) -> u16 {
    match sub {
        SubCause::None => SUB_NS_NONE,
        SubCause::Hardware(c) => SUB_NS_HW | hw_code(c),
        SubCause::Software(c) => SUB_NS_SW | sw_code(c),
        SubCause::Environment(c) => SUB_NS_ENV | env_code(c),
    }
}

/// Decodes a [`sub_code`]; `None` for codes no [`SubCause`] produces.
pub fn sub_from_code(code: u16) -> Option<SubCause> {
    let low = code & 0xff;
    match code & 0xff00 {
        SUB_NS_NONE if low == 0 => Some(SubCause::None),
        SUB_NS_HW => Some(SubCause::Hardware(match low {
            0 => HardwareComponent::Cpu,
            1 => HardwareComponent::MemoryDimm,
            2 => HardwareComponent::NodeBoard,
            3 => HardwareComponent::PowerSupply,
            4 => HardwareComponent::Fan,
            5 => HardwareComponent::MscBoard,
            6 => HardwareComponent::Midplane,
            7 => HardwareComponent::Nic,
            8 => HardwareComponent::Disk,
            9 => HardwareComponent::Other,
            _ => return None,
        })),
        SUB_NS_SW => Some(SubCause::Software(match low {
            0 => SoftwareCause::Dst,
            1 => SoftwareCause::Pfs,
            2 => SoftwareCause::Cfs,
            3 => SoftwareCause::Os,
            4 => SoftwareCause::PatchInstall,
            5 => SoftwareCause::Other,
            _ => return None,
        })),
        SUB_NS_ENV => Some(SubCause::Environment(match low {
            0 => EnvironmentCause::PowerOutage,
            1 => EnvironmentCause::PowerSpike,
            2 => EnvironmentCause::Ups,
            3 => EnvironmentCause::Chiller,
            4 => EnvironmentCause::Other,
            _ => return None,
        })),
        _ => None,
    }
}

/// Downtime sentinel: `None` is stored as `-1` in the downtime column
/// (real downtimes are non-negative second counts).
pub const NO_DOWNTIME: i64 = -1;

/// A [`FailureClass`] compiled to the column codes, so per-event matching
/// is an integer compare instead of an enum walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassCode {
    /// Matches every event.
    Any,
    /// Matches events whose root-cause code equals the payload.
    Root(u8),
    /// Matches events whose sub-cause code equals the payload.
    Sub(u16),
}

impl ClassCode {
    /// Compiles a [`FailureClass`] to its column-code matcher.
    pub fn new(class: FailureClass) -> Self {
        match class {
            FailureClass::Any => ClassCode::Any,
            FailureClass::Root(r) => ClassCode::Root(root_code(r)),
            FailureClass::Hw(c) => ClassCode::Sub(sub_code(SubCause::Hardware(c))),
            FailureClass::Sw(c) => ClassCode::Sub(sub_code(SubCause::Software(c))),
            FailureClass::Env(c) => ClassCode::Sub(sub_code(SubCause::Environment(c))),
        }
    }

    /// `true` when the event with the given codes belongs to this class.
    #[inline]
    pub fn matches(self, root: u8, sub: u16) -> bool {
        match self {
            ClassCode::Any => true,
            ClassCode::Root(r) => root == r,
            ClassCode::Sub(s) => sub == s,
        }
    }
}

/// Error returned when raw column data (e.g. from a snapshot) fails
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnError(pub String);

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid column data: {}", self.0)
    }
}

impl std::error::Error for ColumnError {}

/// Whole days from `start_secs` to `t` (rounded down) for builder
/// input, which is not span-checked: a time too far from the start to
/// subtract saturates instead of wrapping.
fn saturating_day_index(t: i64, start_secs: i64) -> i64 {
    match t.checked_sub(start_secs) {
        Some(secs) => secs.div_euclid(SECONDS_PER_DAY),
        None if t < start_secs => i64::MIN / SECONDS_PER_DAY,
        None => i64::MAX / SECONDS_PER_DAY,
    }
}

/// Timestamp-sorted struct-of-arrays storage for one system's failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureColumns {
    times: Vec<i64>,
    nodes: Vec<u32>,
    roots: Vec<u8>,
    subs: Vec<u16>,
    downtimes: Vec<i64>,
    days: Vec<i64>,
    node_ptr: Vec<u32>,
    node_post: Vec<u32>,
    node_class_mask: Vec<u8>,
}

impl FailureColumns {
    /// Builds columns from records already sorted by `(time, node)`.
    ///
    /// `node_count` is the system's node count; every record's node index
    /// must be below it (the trace builder enforces this upstream).
    /// `start` is the observation start used for the precomputed day
    /// column.
    pub fn from_records(records: &[FailureRecord], node_count: u32, start: Timestamp) -> Self {
        debug_assert!(
            records
                .windows(2)
                .all(|w| (w[0].time, w[0].node) <= (w[1].time, w[1].node)),
            "records must be sorted by (time, node)"
        );
        let start_secs = start.as_seconds();
        let mut cols = FailureColumns {
            times: Vec::with_capacity(records.len()),
            nodes: Vec::with_capacity(records.len()),
            roots: Vec::with_capacity(records.len()),
            subs: Vec::with_capacity(records.len()),
            downtimes: Vec::with_capacity(records.len()),
            days: Vec::with_capacity(records.len()),
            node_ptr: Vec::new(),
            node_post: Vec::new(),
            node_class_mask: Vec::new(),
        };
        for r in records {
            debug_assert!(r.node.index() < node_count as usize);
            cols.times.push(r.time.as_seconds());
            cols.nodes.push(r.node.raw());
            cols.roots.push(root_code(r.root_cause));
            cols.subs.push(sub_code(r.sub_cause));
            cols.downtimes
                .push(r.downtime.map_or(NO_DOWNTIME, |d| d.as_seconds()));
            cols.days
                .push(saturating_day_index(r.time.as_seconds(), start_secs));
        }
        cols.build_postings(node_count);
        cols
    }

    /// Reassembles columns from raw arrays (the snapshot load path),
    /// validating codes, sortedness and node ranges, then rebuilding the
    /// derived day column and postings index.
    ///
    /// # Errors
    ///
    /// [`ColumnError`] when array lengths disagree, a code does not
    /// decode, a node index is out of range, the arrays are not
    /// `(time, node)`-sorted, or a time lies outside
    /// `[start, end + SPAN_SLACK_DAYS]` (see
    /// [`SPAN_SLACK_DAYS`](crate::SPAN_SLACK_DAYS)). `start` to `end`
    /// must be a span of at most [`MAX_SPAN_DAYS`](crate::MAX_SPAN_DAYS)
    /// that does not end before it starts.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        times: Vec<i64>,
        nodes: Vec<u32>,
        roots: Vec<u8>,
        subs: Vec<u16>,
        downtimes: Vec<i64>,
        node_count: u32,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Self, ColumnError> {
        let len = times.len();
        if nodes.len() != len || roots.len() != len || subs.len() != len || downtimes.len() != len {
            return Err(ColumnError(format!(
                "column length mismatch: times {len}, nodes {}, roots {}, subs {}, downtimes {}",
                nodes.len(),
                roots.len(),
                subs.len(),
                downtimes.len()
            )));
        }
        for (i, &code) in roots.iter().enumerate() {
            if root_from_code(code).is_none() {
                return Err(ColumnError(format!(
                    "bad root-cause code {code} at row {i}"
                )));
            }
        }
        for (i, &code) in subs.iter().enumerate() {
            if sub_from_code(code).is_none() {
                return Err(ColumnError(format!("bad sub-cause code {code} at row {i}")));
            }
        }
        for (i, (&root, &sub)) in roots.iter().zip(&subs).enumerate() {
            let consistent = sub_from_code(sub)
                .zip(root_from_code(root))
                .is_some_and(|(s, r)| s.consistent_with(r));
            if !consistent {
                return Err(ColumnError(format!(
                    "sub-cause code {sub} inconsistent with root code {root} at row {i}"
                )));
            }
        }
        for (i, &node) in nodes.iter().enumerate() {
            if node >= node_count {
                return Err(ColumnError(format!(
                    "node {node} out of range (system has {node_count} nodes) at row {i}"
                )));
            }
        }
        for (i, &dt) in downtimes.iter().enumerate() {
            if dt < NO_DOWNTIME {
                return Err(ColumnError(format!("bad downtime {dt} at row {i}")));
            }
        }
        if times
            .iter()
            .zip(&nodes)
            .zip(times.iter().zip(&nodes).skip(1))
            .any(|((t0, n0), (t1, n1))| (t0, n0) > (t1, n1))
        {
            return Err(ColumnError("rows not sorted by (time, node)".into()));
        }
        crate::check_in_span("failure", times.iter().copied(), start, end).map_err(ColumnError)?;
        // In the span, `t - start` is at most a few tens of thousands
        // of days of seconds: no overflow.
        let start_secs = start.as_seconds();
        let days = times
            .iter()
            .map(|&t| (t - start_secs).div_euclid(SECONDS_PER_DAY))
            .collect();
        let mut cols = FailureColumns {
            times,
            nodes,
            roots,
            subs,
            downtimes,
            days,
            node_ptr: Vec::new(),
            node_post: Vec::new(),
            node_class_mask: Vec::new(),
        };
        cols.build_postings(node_count);
        Ok(cols)
    }

    fn build_postings(&mut self, node_count: u32) {
        let n = node_count as usize;
        let mut counts = vec![0u32; n + 1];
        for &node in &self.nodes {
            counts[node as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut post = vec![0u32; self.nodes.len()];
        let mut cursor = counts.clone();
        for (i, &node) in self.nodes.iter().enumerate() {
            let slot = &mut cursor[node as usize];
            post[*slot as usize] = i as u32;
            *slot += 1;
        }
        let mut mask = vec![0u8; n];
        for (&node, &root) in self.nodes.iter().zip(&self.roots) {
            mask[node as usize] |= 1 << root;
        }
        self.node_ptr = counts;
        self.node_post = post;
        self.node_class_mask = mask;
    }

    /// Heap bytes held by the column arrays (primary storage plus the
    /// derived day column and postings index).
    pub fn resident_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.times.as_slice())
            + std::mem::size_of_val(self.nodes.as_slice())
            + std::mem::size_of_val(self.roots.as_slice())
            + std::mem::size_of_val(self.subs.as_slice())
            + std::mem::size_of_val(self.downtimes.as_slice())
            + std::mem::size_of_val(self.days.as_slice())
            + std::mem::size_of_val(self.node_ptr.as_slice())
            + std::mem::size_of_val(self.node_post.as_slice())
            + std::mem::size_of_val(self.node_class_mask.as_slice())) as u64
    }

    /// Number of failure events.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Event times in seconds, sorted by `(time, node)`.
    pub fn times(&self) -> &[i64] {
        &self.times
    }

    /// Event node ids, aligned with [`FailureColumns::times`].
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Root-cause codes ([`root_code`]), aligned with the time column.
    pub fn roots(&self) -> &[u8] {
        &self.roots
    }

    /// Sub-cause codes ([`sub_code`]), aligned with the time column.
    pub fn subs(&self) -> &[u16] {
        &self.subs
    }

    /// Downtimes in seconds ([`NO_DOWNTIME`] for absent), aligned with
    /// the time column.
    pub fn downtimes(&self) -> &[i64] {
        &self.downtimes
    }

    /// Precomputed day index of each event relative to observation start.
    pub fn days(&self) -> &[i64] {
        &self.days
    }

    /// Event indices for `node`, in time order.
    #[inline]
    pub fn node_postings(&self, node: NodeId) -> &[u32] {
        let n = node.index();
        if n + 1 >= self.node_ptr.len() {
            return &[];
        }
        &self.node_post[self.node_ptr[n] as usize..self.node_ptr[n + 1] as usize]
    }

    /// Number of events on `node`.
    #[inline]
    pub fn node_event_count(&self, node: NodeId) -> usize {
        self.node_postings(node).len()
    }

    /// `true` when `node` has at least one event whose root cause could
    /// match `code`. A cheap pre-filter: `false` means no posting can
    /// match; `true` still requires per-event checks for sub-cause
    /// classes.
    #[inline]
    pub fn node_may_match(&self, node: NodeId, code: ClassCode) -> bool {
        match code {
            ClassCode::Any => self.node_event_count(node) > 0,
            ClassCode::Root(r) => self
                .node_class_mask
                .get(node.index())
                .is_some_and(|m| m & (1 << r) != 0),
            ClassCode::Sub(s) => {
                // The namespace byte maps back to a root-cause category
                // (events with SubCause::None never carry it).
                let root = match s & 0xff00 {
                    SUB_NS_HW => root_code(RootCause::Hardware),
                    SUB_NS_SW => root_code(RootCause::Software),
                    SUB_NS_ENV => root_code(RootCause::Environment),
                    _ => return self.node_event_count(node) > 0,
                };
                self.node_class_mask
                    .get(node.index())
                    .is_some_and(|m| m & (1 << root) != 0)
            }
        }
    }

    /// Appends the day index of every event on `node` matching `code` to
    /// `out` (non-decreasing, possibly with duplicates). Returns
    /// `(scanned, matched)` event counts for scan accounting.
    pub fn collect_node_days(
        &self,
        node: NodeId,
        code: ClassCode,
        out: &mut Vec<i64>,
    ) -> (usize, usize) {
        let postings = self.node_postings(node);
        if postings.is_empty() || !self.node_may_match(node, code) {
            return (postings.len(), 0);
        }
        let before = out.len();
        match code {
            ClassCode::Any => {
                out.extend(postings.iter().map(|&i| self.days[i as usize]));
            }
            ClassCode::Root(r) => {
                out.extend(
                    postings
                        .iter()
                        .filter(|&&i| self.roots[i as usize] == r)
                        .map(|&i| self.days[i as usize]),
                );
            }
            ClassCode::Sub(s) => {
                out.extend(
                    postings
                        .iter()
                        .filter(|&&i| self.subs[i as usize] == s)
                        .map(|&i| self.days[i as usize]),
                );
            }
        }
        (postings.len(), out.len() - before)
    }

    /// `(time, node)` of every event matching `code`, in `(time, node)`
    /// order.
    pub fn events(&self, code: ClassCode) -> impl Iterator<Item = (Timestamp, NodeId)> + '_ {
        (0..self.len())
            .filter(move |&i| code.matches(self.roots[i], self.subs[i]))
            .map(|i| {
                (
                    Timestamp::from_seconds(self.times[i]),
                    NodeId::new(self.nodes[i]),
                )
            })
    }

    /// Times of the events on `node` matching `code`, in time order.
    pub fn node_events(
        &self,
        node: NodeId,
        code: ClassCode,
    ) -> impl Iterator<Item = Timestamp> + '_ {
        self.node_postings(node)
            .iter()
            .map(|&i| i as usize)
            .filter(move |&i| code.matches(self.roots[i], self.subs[i]))
            .map(|i| Timestamp::from_seconds(self.times[i]))
    }

    /// Decodes row `i` as a [`FailureRecord`] owned by `system`.
    pub fn record(&self, i: usize, system: SystemId) -> FailureRecord {
        let root = root_from_code(self.roots[i]).expect("validated root code");
        let sub = sub_from_code(self.subs[i]).expect("validated sub code");
        let mut r = FailureRecord::new(
            system,
            NodeId::new(self.nodes[i]),
            Timestamp::from_seconds(self.times[i]),
            root,
            sub,
        );
        if self.downtimes[i] != NO_DOWNTIME {
            r = r.with_downtime(Duration::from_seconds(self.downtimes[i]));
        }
        r
    }
}

/// Columnar view of one system's maintenance events: times, CSR node
/// postings, and a precomputed unscheduled-hardware day column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceColumns {
    times: Vec<i64>,
    unsched_hw: Vec<bool>,
    days: Vec<i64>,
    node_ptr: Vec<u32>,
    node_post: Vec<u32>,
}

impl MaintenanceColumns {
    /// Builds columns from records already sorted by `(time, node)`.
    pub fn from_records(records: &[MaintenanceRecord], node_count: u32, start: Timestamp) -> Self {
        let start_secs = start.as_seconds();
        let n = node_count as usize;
        let mut counts = vec![0u32; n + 1];
        for r in records {
            debug_assert!(r.node.index() < n);
            counts[r.node.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut post = vec![0u32; records.len()];
        let mut cursor = counts.clone();
        for (i, r) in records.iter().enumerate() {
            let slot = &mut cursor[r.node.index()];
            post[*slot as usize] = i as u32;
            *slot += 1;
        }
        MaintenanceColumns {
            times: records.iter().map(|r| r.time.as_seconds()).collect(),
            unsched_hw: records
                .iter()
                .map(|r| r.is_unscheduled_hardware())
                .collect(),
            days: records
                .iter()
                .map(|r| saturating_day_index(r.time.as_seconds(), start_secs))
                .collect(),
            node_ptr: counts,
            node_post: post,
        }
    }

    /// Heap bytes held by the maintenance column arrays.
    pub fn resident_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.times.as_slice())
            + std::mem::size_of_val(self.unsched_hw.as_slice())
            + std::mem::size_of_val(self.days.as_slice())
            + std::mem::size_of_val(self.node_ptr.as_slice())
            + std::mem::size_of_val(self.node_post.as_slice())) as u64
    }

    /// Event indices for `node`, in time order.
    #[inline]
    pub fn node_postings(&self, node: NodeId) -> &[u32] {
        let n = node.index();
        if n + 1 >= self.node_ptr.len() {
            return &[];
        }
        &self.node_post[self.node_ptr[n] as usize..self.node_ptr[n + 1] as usize]
    }

    /// Appends the day index of every unscheduled-hardware event on
    /// `node` to `out` (non-decreasing). Returns `(scanned, matched)`.
    pub fn collect_unsched_hw_days(&self, node: NodeId, out: &mut Vec<i64>) -> (usize, usize) {
        let postings = self.node_postings(node);
        let before = out.len();
        out.extend(
            postings
                .iter()
                .filter(|&&i| self.unsched_hw[i as usize])
                .map(|&i| self.days[i as usize]),
        );
        (postings.len(), out.len() - before)
    }

    /// `true` when `node` has an unscheduled-hardware event with
    /// `after < time <= until` (both in seconds).
    pub fn any_unsched_hw_in_window(&self, node: NodeId, after: i64, until: i64) -> bool {
        let postings = self.node_postings(node);
        let from = postings.partition_point(|&i| self.times[i as usize] <= after);
        postings[from..]
            .iter()
            .take_while(|&&i| self.times[i as usize] <= until)
            .any(|&i| self.unsched_hw[i as usize])
    }
}

/// Dispatch-sorted struct-of-arrays storage for one system's job log.
///
/// Each job field is its own array, and the node lists are one CSR
/// pair: job `i` ran on `node_ids[node_offsets[i]..node_offsets[i + 1]]`.
/// A job log is then eight allocations however many jobs it holds, so
/// decoding or dropping one costs a few bulk copies or frees, not one
/// per job. Node ids are kept exactly as logged: ingest admits jobs
/// whose nodes lie outside the system's range, and every reader skips
/// such ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobColumns {
    job_ids: Vec<u64>,
    users: Vec<u32>,
    submits: Vec<i64>,
    dispatches: Vec<i64>,
    ends: Vec<i64>,
    procs: Vec<u32>,
    node_offsets: Vec<u32>,
    node_ids: Vec<u32>,
}

impl Default for JobColumns {
    fn default() -> Self {
        JobColumns {
            job_ids: Vec::new(),
            users: Vec::new(),
            submits: Vec::new(),
            dispatches: Vec::new(),
            ends: Vec::new(),
            procs: Vec::new(),
            node_offsets: vec![0],
            node_ids: Vec::new(),
        }
    }
}

impl JobColumns {
    /// Appends one job in arrival order; [`JobColumns::sort_by_dispatch`]
    /// restores dispatch order afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the log would hold 2^32 or more node references.
    pub(crate) fn push(&mut self, job: &JobRecord) {
        self.job_ids.push(job.job_id.raw());
        self.users.push(job.user.raw());
        self.submits.push(job.submit.as_seconds());
        self.dispatches.push(job.dispatch.as_seconds());
        self.ends.push(job.end.as_seconds());
        self.procs.push(job.procs);
        self.node_ids.extend(job.nodes.iter().map(|n| n.raw()));
        let end = u32::try_from(self.node_ids.len())
            .expect("a job log holds fewer than 2^32 node references");
        self.node_offsets.push(end);
    }

    /// Reassembles columns from raw arrays (the snapshot load path).
    /// `node_offsets` must be the running sums of the jobs' node counts
    /// from 0, and every submit, dispatch and end must lie in its
    /// system's span, as snapshot decode checks. Checks that the arrays
    /// agree in length, that the last node offset is `node_ids.len()`
    /// and that the jobs are sorted by dispatch time.
    ///
    /// # Errors
    ///
    /// [`ColumnError`] naming the first check that fails.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        job_ids: Vec<u64>,
        users: Vec<u32>,
        submits: Vec<i64>,
        dispatches: Vec<i64>,
        ends: Vec<i64>,
        procs: Vec<u32>,
        node_offsets: Vec<u32>,
        node_ids: Vec<u32>,
    ) -> Result<Self, ColumnError> {
        let len = job_ids.len();
        let lens = [
            users.len(),
            submits.len(),
            dispatches.len(),
            ends.len(),
            procs.len(),
        ];
        if lens != [len; 5] || node_offsets.len() != len + 1 {
            return Err(ColumnError(format!(
                "job column length mismatch: {len} jobs, {} node offsets",
                node_offsets.len()
            )));
        }
        if node_offsets[len] as usize != node_ids.len() {
            return Err(ColumnError(format!(
                "last job node offset {} differs from the {} node ids",
                node_offsets[len],
                node_ids.len()
            )));
        }
        if let Some(i) = dispatches.windows(2).position(|w| w[0] > w[1]) {
            return Err(ColumnError(format!(
                "jobs not sorted by dispatch time at job {}",
                i + 1
            )));
        }
        Ok(JobColumns {
            job_ids,
            users,
            submits,
            dispatches,
            ends,
            procs,
            node_offsets,
            node_ids,
        })
    }

    /// Stably sorts the jobs by dispatch time. Input that is already
    /// sorted costs one comparison per job; otherwise every column is
    /// gathered through one permutation, a column at a time, so no
    /// second copy of the whole log ever exists.
    pub(crate) fn sort_by_dispatch(&mut self) {
        if self.dispatches.windows(2).all(|w| w[0] <= w[1]) {
            return;
        }
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&i| self.dispatches[i as usize]);
        fn gather<T: Copy>(column: &mut Vec<T>, order: &[u32]) {
            *column = order.iter().map(|&i| column[i as usize]).collect();
        }
        gather(&mut self.job_ids, &order);
        gather(&mut self.users, &order);
        gather(&mut self.submits, &order);
        gather(&mut self.dispatches, &order);
        gather(&mut self.ends, &order);
        gather(&mut self.procs, &order);
        let mut node_ids = Vec::with_capacity(self.node_ids.len());
        let mut node_offsets = Vec::with_capacity(self.node_offsets.len());
        node_offsets.push(0);
        for &i in &order {
            node_ids.extend_from_slice(self.nodes(i as usize));
            node_offsets.push(node_ids.len() as u32);
        }
        self.node_ids = node_ids;
        self.node_offsets = node_offsets;
    }

    /// Heap bytes held by the job column arrays.
    pub fn resident_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.job_ids.as_slice())
            + std::mem::size_of_val(self.users.as_slice())
            + std::mem::size_of_val(self.submits.as_slice())
            + std::mem::size_of_val(self.dispatches.as_slice())
            + std::mem::size_of_val(self.ends.as_slice())
            + std::mem::size_of_val(self.procs.as_slice())
            + std::mem::size_of_val(self.node_offsets.as_slice())
            + std::mem::size_of_val(self.node_ids.as_slice())) as u64
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.job_ids.len()
    }

    /// `true` when the log holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.job_ids.is_empty()
    }

    /// Job numbers, in dispatch order.
    pub fn job_ids(&self) -> &[u64] {
        &self.job_ids
    }

    /// Submitting users, aligned with [`JobColumns::job_ids`].
    pub fn users(&self) -> &[u32] {
        &self.users
    }

    /// Submit times in seconds, aligned with the job column.
    pub fn submits(&self) -> &[i64] {
        &self.submits
    }

    /// Dispatch times in seconds, non-decreasing.
    pub fn dispatches(&self) -> &[i64] {
        &self.dispatches
    }

    /// End times in seconds, aligned with the job column.
    pub fn ends(&self) -> &[i64] {
        &self.ends
    }

    /// Requested processor counts, aligned with the job column.
    pub fn procs(&self) -> &[u32] {
        &self.procs
    }

    /// CSR offsets into [`JobColumns::node_ids`]: one per job, plus one.
    pub fn node_offsets(&self) -> &[u32] {
        &self.node_offsets
    }

    /// Every job's node list, concatenated in job order.
    pub fn node_ids(&self) -> &[u32] {
        &self.node_ids
    }

    /// The nodes job `i` ran on.
    #[inline]
    pub fn nodes(&self, i: usize) -> &[u32] {
        &self.node_ids[self.node_offsets[i] as usize..self.node_offsets[i + 1] as usize]
    }

    /// Processor-days job `i` consumed, computed exactly as
    /// [`JobRecord::processor_days`].
    pub fn processor_days(&self, i: usize) -> f64 {
        let runtime =
            Duration::from_seconds(self.ends[i].saturating_sub(self.dispatches[i]).max(0));
        self.procs[i] as f64 * runtime.as_days()
    }

    /// Decodes job `i` as a [`JobRecord`] owned by `system`.
    pub fn record(&self, i: usize, system: SystemId) -> JobRecord {
        JobRecord {
            system,
            job_id: JobId::new(self.job_ids[i]),
            user: UserId::new(self.users[i]),
            submit: Timestamp::from_seconds(self.submits[i]),
            dispatch: Timestamp::from_seconds(self.dispatches[i]),
            end: Timestamp::from_seconds(self.ends[i]),
            procs: self.procs[i],
            nodes: self.nodes(i).iter().map(|&n| NodeId::new(n)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sub_causes() -> Vec<SubCause> {
        let mut subs = vec![SubCause::None];
        subs.extend(HardwareComponent::ALL.map(SubCause::Hardware));
        subs.extend(SoftwareCause::ALL.map(SubCause::Software));
        subs.extend(EnvironmentCause::ALL.map(SubCause::Environment));
        subs
    }

    #[test]
    fn root_codes_round_trip() {
        for root in RootCause::ALL {
            assert_eq!(root_from_code(root_code(root)), Some(root));
        }
        assert_eq!(root_from_code(6), None);
        assert_eq!(root_from_code(255), None);
    }

    #[test]
    fn sub_codes_round_trip_and_are_unique() {
        let subs = all_sub_causes();
        let codes: Vec<u16> = subs.iter().map(|&s| sub_code(s)).collect();
        for (sub, &code) in subs.iter().zip(&codes) {
            assert_eq!(sub_from_code(code), Some(*sub), "{sub:?}");
        }
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "codes collide");
        assert_eq!(sub_from_code(0x00ff), None);
        assert_eq!(sub_from_code(0x010a), None);
        assert_eq!(sub_from_code(0x0400), None);
    }

    #[test]
    fn class_code_matches_mirror_failure_class() {
        let mut classes: Vec<FailureClass> = vec![FailureClass::Any];
        classes.extend(RootCause::ALL.map(FailureClass::Root));
        classes.extend(HardwareComponent::ALL.map(FailureClass::Hw));
        classes.extend(SoftwareCause::ALL.map(FailureClass::Sw));
        classes.extend(EnvironmentCause::ALL.map(FailureClass::Env));

        let mut records = Vec::new();
        for root in RootCause::ALL {
            for sub in all_sub_causes() {
                if sub.consistent_with(root) {
                    records.push(FailureRecord::new(
                        SystemId::new(1),
                        NodeId::new(0),
                        Timestamp::EPOCH,
                        root,
                        sub,
                    ));
                }
            }
        }
        for class in classes {
            let code = ClassCode::new(class);
            for r in &records {
                assert_eq!(
                    code.matches(root_code(r.root_cause), sub_code(r.sub_cause)),
                    class.matches(r),
                    "{class:?} vs {r:?}"
                );
            }
        }
    }

    fn sample_records() -> Vec<FailureRecord> {
        let sys = SystemId::new(7);
        let mut records = vec![
            FailureRecord::new(
                sys,
                NodeId::new(3),
                Timestamp::from_seconds(100),
                RootCause::Hardware,
                SubCause::Hardware(HardwareComponent::Cpu),
            )
            .with_downtime(Duration::from_seconds(3600)),
            FailureRecord::new(
                sys,
                NodeId::new(0),
                Timestamp::from_seconds(90_000),
                RootCause::Software,
                SubCause::Software(SoftwareCause::Os),
            ),
            FailureRecord::new(
                sys,
                NodeId::new(3),
                Timestamp::from_seconds(90_000),
                RootCause::Undetermined,
                SubCause::None,
            ),
            FailureRecord::new(
                sys,
                NodeId::new(3),
                Timestamp::from_seconds(200_000),
                RootCause::Hardware,
                SubCause::Hardware(HardwareComponent::MemoryDimm),
            ),
        ];
        records.sort_by_key(|r| (r.time, r.node));
        records
    }

    #[test]
    fn from_records_decodes_identically() {
        let records = sample_records();
        let cols = FailureColumns::from_records(&records, 5, Timestamp::EPOCH);
        assert_eq!(cols.len(), records.len());
        let decoded: Vec<FailureRecord> = (0..cols.len())
            .map(|i| cols.record(i, SystemId::new(7)))
            .collect();
        assert_eq!(decoded, records);
        assert_eq!(cols.days(), &[0, 1, 1, 2]);
    }

    #[test]
    fn postings_are_per_node_and_time_ordered() {
        let cols = FailureColumns::from_records(&sample_records(), 5, Timestamp::EPOCH);
        assert_eq!(cols.node_event_count(NodeId::new(3)), 3);
        assert_eq!(cols.node_event_count(NodeId::new(0)), 1);
        assert_eq!(cols.node_event_count(NodeId::new(1)), 0);
        assert_eq!(cols.node_event_count(NodeId::new(99)), 0);
        let times: Vec<i64> = cols
            .node_postings(NodeId::new(3))
            .iter()
            .map(|&i| cols.times()[i as usize])
            .collect();
        assert_eq!(times, vec![100, 90_000, 200_000]);
    }

    #[test]
    fn collect_node_days_filters_and_counts() {
        let cols = FailureColumns::from_records(&sample_records(), 5, Timestamp::EPOCH);
        let mut out = Vec::new();
        let (scanned, matched) = cols.collect_node_days(
            NodeId::new(3),
            ClassCode::new(FailureClass::Root(RootCause::Hardware)),
            &mut out,
        );
        assert_eq!((scanned, matched), (3, 2));
        assert_eq!(out, vec![0, 2]);

        out.clear();
        // A class whose root never appears on the node: mask pre-filter
        // reports zero matches without scanning output.
        let (scanned, matched) = cols.collect_node_days(
            NodeId::new(3),
            ClassCode::new(FailureClass::Root(RootCause::Network)),
            &mut out,
        );
        assert_eq!((scanned, matched), (3, 0));
        assert!(out.is_empty());
    }

    #[test]
    fn raw_parts_round_trip_and_reject_bad_data() {
        let records = sample_records();
        let cols = FailureColumns::from_records(&records, 5, Timestamp::EPOCH);
        let rebuilt = FailureColumns::from_raw_parts(
            cols.times().to_vec(),
            cols.nodes().to_vec(),
            cols.roots().to_vec(),
            cols.subs().to_vec(),
            cols.downtimes().to_vec(),
            5,
            Timestamp::EPOCH,
            Timestamp::from_days(100.0),
        )
        .expect("valid columns");
        assert_eq!(rebuilt, cols);

        let bad_root = FailureColumns::from_raw_parts(
            vec![0],
            vec![0],
            vec![77],
            vec![0],
            vec![-1],
            5,
            Timestamp::EPOCH,
            Timestamp::from_days(100.0),
        );
        assert!(bad_root.is_err());

        let bad_node = FailureColumns::from_raw_parts(
            vec![0],
            vec![9],
            vec![1],
            vec![0],
            vec![-1],
            5,
            Timestamp::EPOCH,
            Timestamp::from_days(100.0),
        );
        assert!(bad_node.is_err());

        let unsorted = FailureColumns::from_raw_parts(
            vec![100, 50],
            vec![0, 0],
            vec![1, 1],
            vec![0, 0],
            vec![-1, -1],
            5,
            Timestamp::EPOCH,
            Timestamp::from_days(100.0),
        );
        assert!(unsorted.is_err());

        let inconsistent = FailureColumns::from_raw_parts(
            vec![0],
            vec![0],
            // Network root with a hardware sub-cause.
            vec![3],
            vec![sub_code(SubCause::Hardware(HardwareComponent::Cpu))],
            vec![-1],
            5,
            Timestamp::EPOCH,
            Timestamp::from_days(100.0),
        );
        assert!(inconsistent.is_err());
    }

    #[test]
    fn maintenance_columns_window_and_days() {
        let sys = SystemId::new(7);
        let mk = |node: u32, time: i64, hw: bool, sched: bool| MaintenanceRecord {
            system: sys,
            node: NodeId::new(node),
            time: Timestamp::from_seconds(time),
            hardware_related: hw,
            scheduled: sched,
        };
        let mut records = vec![
            mk(1, 1_000, true, false),
            mk(1, 90_000, true, true),
            mk(2, 5_000, false, false),
            mk(1, 200_000, true, false),
        ];
        records.sort_by_key(|r| (r.time, r.node));
        let cols = MaintenanceColumns::from_records(&records, 4, Timestamp::EPOCH);
        let mut out = Vec::new();
        let (scanned, matched) = cols.collect_unsched_hw_days(NodeId::new(1), &mut out);
        assert_eq!((scanned, matched), (3, 2));
        assert_eq!(out, vec![0, 2]);
        assert!(cols.any_unsched_hw_in_window(NodeId::new(1), 0, 2_000));
        assert!(!cols.any_unsched_hw_in_window(NodeId::new(1), 1_000, 100_000));
        assert!(!cols.any_unsched_hw_in_window(NodeId::new(2), 0, 10_000));
        assert!(cols.any_unsched_hw_in_window(NodeId::new(1), 100_000, 300_000));
    }
}
