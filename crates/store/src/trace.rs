//! The trace store: immutable, indexed collections of records.
//!
//! Failures and jobs are stored only as struct-of-arrays columns
//! ([`crate::columns::FailureColumns`], [`crate::columns::JobColumns`]);
//! [`SystemTrace::failures`] and [`SystemTrace::jobs`] decode records
//! from them on demand, in exactly the record order the builder
//! established.

use crate::columns::{FailureColumns, JobColumns, MaintenanceColumns};
use hpcfail_types::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Builder for a [`SystemTrace`]; collects records in any order, then
/// [`SystemTraceBuilder::build`] sorts and indexes them.
#[derive(Debug, Clone)]
pub struct SystemTraceBuilder {
    config: SystemConfig,
    failures: Vec<FailureRecord>,
    jobs: JobColumns,
    temperatures: Vec<TemperatureSample>,
    maintenance: Vec<MaintenanceRecord>,
    layout: Option<MachineLayout>,
}

impl SystemTraceBuilder {
    /// Starts a trace for the given system.
    pub fn new(config: SystemConfig) -> Self {
        SystemTraceBuilder {
            config,
            failures: Vec::new(),
            jobs: JobColumns::default(),
            temperatures: Vec::new(),
            maintenance: Vec::new(),
            layout: None,
        }
    }

    /// Adds a failure record.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the record's system id or node index does
    /// not belong to this system.
    pub fn push_failure(&mut self, record: FailureRecord) -> &mut Self {
        debug_assert_eq!(record.system, self.config.id, "failure from wrong system");
        debug_assert!(
            record.node.index() < self.config.nodes as usize,
            "node {} out of range for {}-node system",
            record.node,
            self.config.nodes
        );
        self.failures.push(record);
        self
    }

    /// Adds a job record, appending its fields to the job columns; the
    /// record itself is dropped here.
    pub fn push_job(&mut self, record: JobRecord) -> &mut Self {
        debug_assert_eq!(record.system, self.config.id, "job from wrong system");
        self.jobs.push(&record);
        self
    }

    /// Adds a temperature sample.
    pub fn push_temperature(&mut self, sample: TemperatureSample) -> &mut Self {
        debug_assert_eq!(sample.system, self.config.id, "sample from wrong system");
        self.temperatures.push(sample);
        self
    }

    /// Adds a maintenance record.
    pub fn push_maintenance(&mut self, record: MaintenanceRecord) -> &mut Self {
        debug_assert_eq!(
            record.system, self.config.id,
            "maintenance from wrong system"
        );
        self.maintenance.push(record);
        self
    }

    /// Sets the machine-room layout.
    pub fn layout(&mut self, layout: MachineLayout) -> &mut Self {
        self.layout = Some(layout);
        self
    }

    /// Sorts, indexes and freezes the trace.
    pub fn build(self) -> SystemTrace {
        let SystemTraceBuilder {
            config,
            mut failures,
            mut jobs,
            mut temperatures,
            mut maintenance,
            layout,
        } = self;
        failures.sort_by_key(|f| (f.time, f.node));
        jobs.sort_by_dispatch();
        temperatures.sort_by_key(|t| t.time);
        maintenance.sort_by_key(|m| (m.time, m.node));

        let columns = FailureColumns::from_records(&failures, config.nodes, config.start);
        SystemTrace::from_parts(config, columns, jobs, temperatures, maintenance, layout)
    }
}

/// One system's complete, indexed trace.
///
/// Records are sorted by time; per-node indexes give every node's
/// failures and maintenance events in time order.
#[derive(Debug, Clone)]
pub struct SystemTrace {
    config: SystemConfig,
    columns: FailureColumns,
    jobs: JobColumns,
    temperatures: Vec<TemperatureSample>,
    maintenance: Vec<MaintenanceRecord>,
    maint_columns: MaintenanceColumns,
    layout: Option<MachineLayout>,
    /// Baselines and features derived once from the records; see
    /// [`crate::index`].
    pub(crate) index: crate::index::TimelineIndex,
}

impl SystemTrace {
    /// Assembles a trace from pre-validated columnar parts (the builder
    /// and snapshot load paths) and builds its timeline index. `jobs`,
    /// `temperatures` and `maintenance` must already be in builder sort
    /// order.
    pub(crate) fn from_parts(
        config: SystemConfig,
        columns: FailureColumns,
        jobs: JobColumns,
        temperatures: Vec<TemperatureSample>,
        maintenance: Vec<MaintenanceRecord>,
        layout: Option<MachineLayout>,
    ) -> SystemTrace {
        let maint_columns =
            MaintenanceColumns::from_records(&maintenance, config.nodes, config.start);
        let mut trace = SystemTrace {
            config,
            columns,
            jobs,
            temperatures,
            maintenance,
            maint_columns,
            layout,
            index: crate::index::TimelineIndex::default(),
        };
        trace.index = crate::index::TimelineIndex::build(&trace);
        trace
    }

    /// The system's static description.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The system id (shorthand for `config().id`).
    pub fn id(&self) -> SystemId {
        self.config.id
    }

    /// All failures, sorted by `(time, node)`, decoded from the columns
    /// as the iterator advances. Query kernels that need only times,
    /// nodes or classes read [`SystemTrace::failure_columns`] instead.
    pub fn failures(&self) -> impl ExactSizeIterator<Item = FailureRecord> + '_ {
        (0..self.columns.len()).map(|i| self.columns.record(i, self.config.id))
    }

    /// The columnar failure storage: timestamp-sorted field arrays plus
    /// per-node postings.
    pub fn failure_columns(&self) -> &FailureColumns {
        &self.columns
    }

    /// Failures of one node, in time order, decoded from the columns.
    pub fn node_failures(&self, node: NodeId) -> impl Iterator<Item = FailureRecord> + '_ {
        self.columns
            .node_postings(node)
            .iter()
            .map(|&i| self.columns.record(i as usize, self.config.id))
    }

    /// Number of failures of one node.
    pub fn node_failure_count(&self, node: NodeId) -> usize {
        self.columns.node_event_count(node)
    }

    /// All jobs, sorted by dispatch time, decoded from the columns as
    /// the iterator advances (one node-list allocation per job). Only
    /// export and tests want whole records; analysis kernels read
    /// [`SystemTrace::job_columns`].
    pub fn jobs(&self) -> impl ExactSizeIterator<Item = JobRecord> + '_ {
        (0..self.jobs.len()).map(|i| self.jobs.record(i, self.config.id))
    }

    /// The columnar job log: dispatch-sorted field arrays plus CSR node
    /// lists.
    pub fn job_columns(&self) -> &JobColumns {
        &self.jobs
    }

    /// All temperature samples, sorted by time.
    pub fn temperatures(&self) -> &[TemperatureSample] {
        &self.temperatures
    }

    /// All maintenance records, sorted by time.
    pub fn maintenance(&self) -> &[MaintenanceRecord] {
        &self.maintenance
    }

    /// The columnar maintenance view (postings and unscheduled-hardware
    /// day column).
    pub(crate) fn maintenance_columns(&self) -> &MaintenanceColumns {
        &self.maint_columns
    }

    /// The machine-room layout, if available.
    pub fn layout(&self) -> Option<&MachineLayout> {
        self.layout.as_ref()
    }

    /// Approximate heap bytes held by this system's event storage: the
    /// failure, maintenance and job columns and the temperature and
    /// maintenance vectors. The timeline index (a fixed-size baseline
    /// table, one temperature aggregate per node and the lazy usage
    /// and per-user slots) and the layout are excluded — the figure
    /// sizes the primary data, not what is derived from it.
    pub fn resident_bytes(&self) -> u64 {
        fn vec_bytes<T>(v: &[T]) -> u64 {
            std::mem::size_of_val(v) as u64
        }
        self.columns.resident_bytes()
            + self.maint_columns.resident_bytes()
            + self.jobs.resident_bytes()
            + vec_bytes(&self.temperatures)
            + vec_bytes(&self.maintenance)
    }

    /// Iterates over all node ids of this system.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.config.nodes).map(NodeId::new)
    }

    /// `true` if `(t, t + window]` lies inside the observation period
    /// when anchored at `t` — i.e. the window is fully observed.
    pub fn window_observed(&self, t: Timestamp, window: Window) -> bool {
        t >= self.config.start
            && t.checked_add(window.duration())
                .is_some_and(|end| end <= self.config.end)
    }

    /// `true` if node has at least one *unscheduled hardware* maintenance
    /// event in `(after, until]`.
    pub fn node_has_unscheduled_hw_maintenance_in(
        &self,
        node: NodeId,
        after: Timestamp,
        until: Timestamp,
    ) -> bool {
        self.maint_columns
            .any_unsched_hw_in_window(node, after.as_seconds(), until.as_seconds())
    }
}

/// The full data release: every system plus fleet-wide neutron samples.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    systems: BTreeMap<SystemId, SystemTrace>,
    neutron: Vec<NeutronSample>,
    /// Memo of [`Trace::fingerprint`]; every mutation resets it.
    fingerprint: OnceLock<u64>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Adds (or replaces) a system trace.
    pub fn insert_system(&mut self, system: SystemTrace) {
        self.systems.insert(system.id(), system);
        self.fingerprint.take();
    }

    /// Sets the neutron-monitor samples (sorted by time internally).
    pub fn set_neutron_samples(&mut self, mut samples: Vec<NeutronSample>) {
        samples.sort_by_key(|s| s.time);
        self.neutron = samples;
        self.fingerprint.take();
    }

    /// Content fingerprint over everything the trace carries: the fold
    /// of the section ids and section checksums of its snapshot encoding
    /// (see [`crate::snapshot`]), which holds each system's config,
    /// failure columns, jobs (with their node lists), temperatures,
    /// maintenance and layout, then the neutron samples. Equal content
    /// gives equal fingerprints whether the trace was generated,
    /// ingested from CSV or decoded from a snapshot; the snapshot header
    /// stores it and result caches are keyed on it.
    ///
    /// A trace that was not decoded streams its encoding through the
    /// hash without building it; a decoded one already has the value
    /// from the checksums decode verified. Computed at most once per
    /// trace: the value is memoized until the next
    /// [`Trace::insert_system`] or [`Trace::set_neutron_samples`].
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::snapshot::content_fingerprint(self))
    }

    /// Memoizes `fingerprint` as [`Trace::fingerprint`]. Snapshot decode
    /// calls this with the fold of the checksums it verified: decode
    /// accepts only the bytes the encoder writes for the decoded trace,
    /// so the fold is the value streaming the encoding would give.
    pub(crate) fn remember_fingerprint(&mut self, fingerprint: u64) {
        self.fingerprint = OnceLock::from(fingerprint);
    }

    /// Looks up one system.
    pub fn system(&self, id: SystemId) -> Option<&SystemTrace> {
        self.systems.get(&id)
    }

    /// Iterates over all systems in id order.
    pub fn systems(&self) -> impl Iterator<Item = &SystemTrace> {
        self.systems.values()
    }

    /// Iterates over the systems of one hardware group.
    pub fn group_systems(&self, group: SystemGroup) -> impl Iterator<Item = &SystemTrace> {
        self.systems
            .values()
            .filter(move |s| s.config().group() == group)
    }

    /// The neutron-monitor samples, sorted by time.
    pub fn neutron_samples(&self) -> &[NeutronSample] {
        &self.neutron
    }

    /// Number of systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// `true` if the trace holds no systems.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// Total failures across all systems.
    pub fn total_failures(&self) -> usize {
        self.systems
            .values()
            .map(|s| s.failure_columns().len())
            .sum()
    }

    /// Approximate heap bytes held by the trace's event storage (the
    /// sum of every system's [`SystemTrace::resident_bytes`] plus the
    /// neutron samples). Serving layers use this for residency budgets.
    pub fn resident_bytes(&self) -> u64 {
        self.systems
            .values()
            .map(SystemTrace::resident_bytes)
            .sum::<u64>()
            + std::mem::size_of_val(self.neutron.as_slice()) as u64
    }
}

/// The streaming content hash behind the snapshot section checksums
/// and, through them, [`Trace::fingerprint`].
///
/// It reads a byte string as 8-byte little-endian words, the last one
/// zero-padded, and spreads them over four independent lanes (word `i`
/// to lane `i % 4`, each lane from its own seed). One step mixes a word
/// into a lane with an xor, a multiply by an odd constant and a rotate.
/// [`ContentHash::finish`] steps a seed with the byte length, then with
/// each lane in order, and applies the SplitMix64 finalizer. The four
/// chains do not wait on each other, so a pass runs about four words
/// per multiply latency instead of one. The length step keeps inputs
/// that differ only in trailing zero bytes apart.
///
/// Bytes may arrive in pieces of any size ([`ContentHash::write`]); the
/// value depends only on their concatenation, so a section hashed while
/// it is encoded gets the checksum its written payload gets.
///
/// Every step is a bijection of its lane for a fixed input word, and
/// the fold is a bijection in each lane value, so two inputs of equal
/// length that differ in exactly one word never hash alike: a single
/// damaged byte cannot pass a section checksum.
pub(crate) struct ContentHash {
    lanes: [u64; 4],
    /// The current four-word block; its first `filled` bytes are set.
    block: [u8; 32],
    filled: usize,
    len: u64,
}

impl ContentHash {
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    /// One seed per lane, so equal words in different lanes do not
    /// cancel in the fold.
    const LANE_SEEDS: [u64; 4] = [
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
        0x4528_21e6_38d0_1377,
    ];
    /// Odd, so the multiply is invertible modulo 2^64.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    pub(crate) fn new() -> Self {
        ContentHash {
            lanes: Self::LANE_SEEDS,
            block: [0; 32],
            filled: 0,
            len: 0,
        }
    }

    fn step(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(Self::MUL).rotate_left(27)
    }

    /// Steps each lane with its word of a full block.
    fn step_block(lanes: &mut [u64; 4], block: &[u8; 32]) {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = Self::step(*lane, u64::from_le_bytes(*word));
        }
    }

    /// Appends `bytes` to the hashed string.
    pub(crate) fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.filled > 0 {
            let take = (32 - self.filled).min(bytes.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 32 {
                return;
            }
            Self::step_block(&mut self.lanes, &self.block);
        }
        let (blocks, rest) = bytes.as_chunks::<32>();
        let mut lanes = self.lanes;
        for block in blocks {
            Self::step_block(&mut lanes, block);
        }
        self.lanes = lanes;
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    pub(crate) fn finish(mut self) -> u64 {
        // The last, partial block: its whole words, then the zero-padded
        // rest.
        self.block[self.filled..].fill(0);
        let (words, _) = self.block.as_chunks::<8>();
        let last = self.filled.div_ceil(8);
        for (lane, word) in self.lanes.iter_mut().zip(words).take(last) {
            *lane = Self::step(*lane, u64::from_le_bytes(*word));
        }
        let mut state = Self::step(Self::SEED, self.len);
        for lane in self.lanes {
            state = Self::step(state, lane);
        }
        hpcfail_obs::rng::mix64(state)
    }
}

#[cfg(test)]
mod resident_tests {
    use super::*;

    #[test]
    fn resident_bytes_track_event_volume() {
        let mut small = SystemTraceBuilder::new(tests::test_config(1, 4, 10.0));
        small.push_failure(FailureRecord::new(
            SystemId::new(1),
            NodeId::new(0),
            Timestamp::from_seconds(100),
            RootCause::Hardware,
            SubCause::None,
        ));
        let small = small.build();

        let mut large = SystemTraceBuilder::new(tests::test_config(2, 4, 10.0));
        for i in 0..100 {
            large.push_failure(FailureRecord::new(
                SystemId::new(2),
                NodeId::new(i % 4),
                Timestamp::from_seconds(i64::from(i) * 60),
                RootCause::Software,
                SubCause::None,
            ));
        }
        let large = large.build();

        assert!(small.resident_bytes() > 0);
        assert!(large.resident_bytes() > small.resident_bytes());

        let mut trace = Trace::new();
        trace.insert_system(small);
        let one = trace.resident_bytes();
        trace.insert_system(large);
        assert!(trace.resident_bytes() > one);
    }

    #[test]
    fn resident_bytes_count_every_job_node_reference() {
        let with_nodes_per_job = |per_job: u32| {
            let mut b = SystemTraceBuilder::new(tests::test_config(1, 1_000, 10.0));
            for i in 0..10u32 {
                b.push_job(JobRecord {
                    system: SystemId::new(1),
                    job_id: JobId::new(u64::from(i)),
                    user: UserId::new(0),
                    submit: Timestamp::from_seconds(i64::from(i)),
                    dispatch: Timestamp::from_seconds(i64::from(i)),
                    end: Timestamp::from_seconds(i64::from(i) + 60),
                    procs: 4,
                    nodes: (0..per_job).map(NodeId::new).collect(),
                });
            }
            b.build().resident_bytes()
        };
        let (wide, narrow) = (with_nodes_per_job(1_000), with_nodes_per_job(1));
        assert!(
            wide - narrow >= 10 * 4 * 999,
            "1,000-node jobs report only {wide} bytes against {narrow}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn test_config(id: u16, nodes: u32, days: f64) -> SystemConfig {
        SystemConfig {
            id: SystemId::new(id),
            name: format!("test-{id}"),
            nodes,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(days),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        }
    }

    fn failure(node: u32, day: f64, root: RootCause) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node),
            Timestamp::from_days(day),
            root,
            SubCause::None,
        )
    }

    fn build_simple() -> SystemTrace {
        let mut b = SystemTraceBuilder::new(test_config(1, 4, 100.0));
        b.push_failure(failure(2, 50.0, RootCause::Network));
        b.push_failure(failure(0, 10.0, RootCause::Hardware));
        b.push_failure(failure(2, 12.0, RootCause::Software));
        b.push_failure(failure(0, 10.5, RootCause::Hardware));
        b.build()
    }

    #[test]
    fn build_sorts_by_time() {
        let t = build_simple();
        let times: Vec<f64> = t.failures().map(|f| f.time.as_days()).collect();
        assert_eq!(times, vec![10.0, 10.5, 12.0, 50.0]);
    }

    #[test]
    fn node_index_partition() {
        let t = build_simple();
        assert_eq!(t.node_failure_count(NodeId::new(0)), 2);
        assert_eq!(t.node_failure_count(NodeId::new(2)), 2);
        assert_eq!(t.node_failure_count(NodeId::new(1)), 0);
        assert_eq!(t.node_failure_count(NodeId::new(99)), 0);
        let node0: Vec<f64> = t
            .node_failures(NodeId::new(0))
            .map(|f| f.time.as_days())
            .collect();
        assert_eq!(node0, vec![10.0, 10.5]);
    }

    #[test]
    fn window_observed_bounds() {
        let t = build_simple();
        assert!(t.window_observed(Timestamp::from_days(92.9), Window::Week));
        assert!(!t.window_observed(Timestamp::from_days(93.1), Window::Week));
        assert!(!t.window_observed(Timestamp::from_days(-0.1), Window::Day));
    }

    #[test]
    fn maintenance_index() {
        let mut b = SystemTraceBuilder::new(test_config(1, 2, 50.0));
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(1),
            time: Timestamp::from_days(5.0),
            hardware_related: true,
            scheduled: false,
        });
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(1),
            time: Timestamp::from_days(9.0),
            hardware_related: true,
            scheduled: true,
        });
        let t = b.build();
        assert!(t.node_has_unscheduled_hw_maintenance_in(
            NodeId::new(1),
            Timestamp::from_days(4.0),
            Timestamp::from_days(6.0),
        ));
        // The scheduled one must not count.
        assert!(!t.node_has_unscheduled_hw_maintenance_in(
            NodeId::new(1),
            Timestamp::from_days(8.0),
            Timestamp::from_days(10.0),
        ));
        assert_eq!(t.maintenance().len(), 2);
    }

    #[test]
    fn trace_grouping() {
        let mut trace = Trace::new();
        trace.insert_system(SystemTraceBuilder::new(test_config(1, 2, 10.0)).build());
        let mut numa = test_config(2, 2, 10.0);
        numa.hardware = HardwareClass::Numa;
        trace.insert_system(SystemTraceBuilder::new(numa).build());
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.group_systems(SystemGroup::Group1).count(), 1);
        assert_eq!(trace.group_systems(SystemGroup::Group2).count(), 1);
        assert!(trace.system(SystemId::new(2)).is_some());
        assert!(trace.system(SystemId::new(3)).is_none());
    }

    #[test]
    fn fingerprint_memo_resets_on_every_mutation() {
        let mut trace = Trace::new();
        let empty = trace.fingerprint();
        assert_eq!(trace.fingerprint(), empty);

        trace.insert_system(build_simple());
        let one = trace.fingerprint();
        assert_ne!(one, empty);

        trace.set_neutron_samples(vec![NeutronSample {
            time: Timestamp::from_days(1.0),
            counts_per_minute: 4000.0,
        }]);
        let with_neutron = trace.fingerprint();
        assert_ne!(with_neutron, one);

        // Replacing a system with different content changes it too.
        trace.insert_system(SystemTraceBuilder::new(test_config(1, 4, 20.0)).build());
        assert_ne!(trace.fingerprint(), with_neutron);
        // A clone carries the memo and the content it describes.
        assert_eq!(trace.clone().fingerprint(), trace.fingerprint());
    }

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = ContentHash::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn content_hash_reads_a_length_then_zero_padded_words() {
        // 42 bytes: five whole words and a two-byte tail.
        let bytes: Vec<u8> = (0..42).collect();
        let word = |i: usize| {
            let mut w = [0u8; 8];
            let chunk = &bytes[8 * i..(8 * i + 8).min(bytes.len())];
            w[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(w)
        };
        let step = ContentHash::step;
        let [s0, s1, s2, s3] = ContentHash::LANE_SEEDS;
        // Words 0..4 fill one block; word 4 and the padded word 5 start
        // the next from lane 0.
        let lanes = [
            step(step(s0, word(0)), word(4)),
            step(step(s1, word(1)), word(5)),
            step(s2, word(2)),
            step(s3, word(3)),
        ];
        // The length first, then the lanes folded in order.
        let state = lanes
            .iter()
            .fold(step(ContentHash::SEED, 42), |state, &lane| {
                step(state, lane)
            });
        assert_eq!(hash_bytes(&bytes), hpcfail_obs::rng::mix64(state));

        // Padding alone would make these collide; the length keeps them
        // apart.
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"a\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(&[0; 8]));
        assert_ne!(hash_bytes(&[0; 7]), hash_bytes(&[0; 8]));
        // Equal words in different lanes do not cancel.
        assert_ne!(hash_bytes(&[0; 16]), hash_bytes(&[0; 24]));

        let fingerprint = |name: &str| {
            let mut config = test_config(1, 4, 10.0);
            config.name = name.to_owned();
            let mut trace = Trace::new();
            trace.insert_system(SystemTraceBuilder::new(config).build());
            trace.fingerprint()
        };
        assert_ne!(fingerprint("sys"), fingerprint("sys\0"));
        // Eight bytes: the same single word as "sys" zero-padded.
        assert_ne!(fingerprint("sys"), fingerprint("sys\0\0\0\0\0"));
    }

    #[test]
    fn content_hash_depends_only_on_the_concatenation() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 73 + 5) as u8).collect();
        let whole = hash_bytes(&bytes);
        // Every split into pieces of one size, and a few uneven cuts.
        for piece in 1..=bytes.len() {
            let mut h = ContentHash::new();
            for chunk in bytes.chunks(piece) {
                h.write(chunk);
            }
            assert_eq!(h.finish(), whole, "pieces of {piece}");
        }
        for cuts in [[0, 0, 7], [1, 33, 34], [31, 32, 95], [64, 65, 199]] {
            let mut h = ContentHash::new();
            let mut from = 0;
            for cut in cuts {
                h.write(&bytes[from..cut]);
                from = cut;
            }
            h.write(&bytes[from..]);
            assert_eq!(h.finish(), whole, "cuts {cuts:?}");
        }
    }

    /// Lengths up to 80 bytes cover every lane, a second and a third
    /// block, each tail length and the padded last word.
    #[test]
    fn one_changed_byte_or_word_always_changes_the_hash() {
        for len in 0..=80usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let base = hash_bytes(&bytes);
            for pos in 0..len {
                for flip in [0x01, 0x80, 0xff] {
                    let mut damaged = bytes.clone();
                    damaged[pos] ^= flip;
                    assert_ne!(hash_bytes(&damaged), base, "len {len}, byte {pos}");
                }
            }
        }
        let hash_words = |values: &[u64]| {
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            hash_bytes(&bytes)
        };
        for len in 0..=9u64 {
            let values: Vec<u64> = (0..len).map(|i| i.wrapping_mul(ContentHash::MUL)).collect();
            let base = hash_words(&values);
            for pos in 0..values.len() {
                for flip in [1, 1 << 63, u64::MAX] {
                    let mut damaged = values.clone();
                    damaged[pos] ^= flip;
                    assert_ne!(hash_words(&damaged), base, "len {len}, value {pos}");
                }
            }
        }
    }

    #[test]
    fn neutron_samples_sorted() {
        let mut trace = Trace::new();
        trace.set_neutron_samples(vec![
            NeutronSample {
                time: Timestamp::from_days(2.0),
                counts_per_minute: 4000.0,
            },
            NeutronSample {
                time: Timestamp::from_days(1.0),
                counts_per_minute: 4100.0,
            },
        ]);
        let times: Vec<f64> = trace
            .neutron_samples()
            .iter()
            .map(|s| s.time.as_days())
            .collect();
        assert_eq!(times, vec![1.0, 2.0]);
    }
}
