//! Indexed trace store for HPC reliability data.
//!
//! A [`Trace`](trace::Trace) holds the full data release — one
//! [`SystemTrace`](trace::SystemTrace) per cluster plus fleet-wide
//! neutron-monitor samples. System traces are immutable once built and
//! carry per-node time indexes so window queries (the workhorse of every
//! analysis) are cheap.
//!
//! - [`trace`] — the store itself and its builder.
//! - [`query`] — window queries and empirical baseline probabilities.
//! - [`index`] — each system's pooled baselines and temperature
//!   aggregates, built once with the trace, plus lazy usage and per-user
//!   slots (the `indexed_*` methods on `SystemTrace`).
//! - [`features`] — derived per-node features (utilization, job counts,
//!   temperature aggregates) and per-user failure exposure feeding the
//!   paper's regressions.
//! - [`csv`] — the toolkit's native CSV schema (writers and per-line
//!   parsers).
//! - [`ingest`] — the one CSV read loop, policy-driven loading (strict /
//!   lenient / best-effort) with per-line quarantine, and a
//!   cross-record data-quality audit.
//! - [`lanl`] — importer for CFDR-style LANL failure records
//!   (`MM/DD/YYYY HH:MM` timestamps, `Facilities`/`Human Error` cause
//!   labels).
//!
//! # Examples
//!
//! ```
//! use hpcfail_store::prelude::*;
//! use hpcfail_types::prelude::*;
//!
//! let config = SystemConfig {
//!     id: SystemId::new(1),
//!     name: "demo".into(),
//!     nodes: 4,
//!     procs_per_node: 4,
//!     hardware: HardwareClass::Smp4Way,
//!     start: Timestamp::EPOCH,
//!     end: Timestamp::from_days(100.0),
//!     has_layout: false,
//!     has_job_log: false,
//!     has_temperature: false,
//! };
//! let mut builder = SystemTraceBuilder::new(config);
//! builder.push_failure(FailureRecord::new(
//!     SystemId::new(1),
//!     NodeId::new(2),
//!     Timestamp::from_days(10.0),
//!     RootCause::Hardware,
//!     SubCause::Hardware(HardwareComponent::Cpu),
//! ));
//! let system = builder.build();
//! assert_eq!(system.failures().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod csv;
pub mod features;
pub mod index;
pub mod ingest;
pub mod lanl;
pub mod query;
pub mod snapshot;
pub mod trace;

/// The most nodes one trace may declare, summed over its systems.
///
/// Every system allocates a few words per declared node (postings
/// offsets, per-node aggregates) whether or not any record names the
/// node, so a declared count is a size the loader must bound before it
/// allocates. Snapshot decode refuses a larger total as
/// [`SnapshotError::Corrupt`](snapshot::SnapshotError::Corrupt), CSV
/// ingest refuses it as a parse error, and a scenario pack that
/// declares more is refused when it is parsed. 131,072 is the first
/// power of two that holds every shipped scenario pack (`fleet-100k`
/// declares 100,352 nodes); LANL's largest system has 1,024 nodes and
/// its whole fleet about 4,750.
pub const MAX_NODES: u32 = 1 << 17;

/// The longest observation span one system may declare, in days.
///
/// Analyses allocate per day of a system's span (daily failure counts,
/// day windows) whether or not any record falls on the day, so a
/// declared span is a size the loader must bound before it allocates,
/// as [`MAX_NODES`] bounds node counts. Snapshot decode, CSV ingest,
/// the LANL importer and scenario packs all refuse a longer span, and
/// the loaders one that ends before it starts. 16,384 days
/// (almost 45 years) is the first power of two that holds every
/// shipped scenario pack (the longest observes 1,096 days) and the
/// full LANL fleet (3,200 days at most).
pub const MAX_SPAN_DAYS: i64 = 1 << 14;

/// How long after its system's declared end a record may still fall,
/// in days.
///
/// A loaded trace keeps every failure, job (submit, dispatch and end),
/// maintenance and temperature time in `[start, end + SPAN_SLACK_DAYS]`
/// of its system, so analyses that walk from a record to the end of the
/// span (checkpoint replay, day windows) cover at most
/// `MAX_SPAN_DAYS + SPAN_SLACK_DAYS` days. Snapshot decode, CSV ingest
/// and the LANL importer refuse a record outside it. The slack admits
/// what the generator writes past the end: a job submitted on the last
/// day waits in the queue (about an hour on average) and runs for up to
/// 14 days, and an unscheduled maintenance follows its failure by up to
/// 29 days (the generated fleets and the shipped scenario packs reach
/// 26 days). 32 days is the first power of two above both.
pub const SPAN_SLACK_DAYS: i64 = 32;

/// Checks that every time in `times` (seconds) lies in
/// `[start, end + SPAN_SLACK_DAYS]`; see [`SPAN_SLACK_DAYS`].
///
/// # Errors
///
/// A description naming `what` and the first time outside, for the
/// caller to wrap in its own typed error.
pub(crate) fn check_in_span(
    what: &str,
    times: impl IntoIterator<Item = i64> + Clone,
    start: hpcfail_types::time::Timestamp,
    end: hpcfail_types::time::Timestamp,
) -> Result<(), String> {
    let first = start.as_seconds();
    let last = end
        .as_seconds()
        .saturating_add(SPAN_SLACK_DAYS * hpcfail_types::time::SECONDS_PER_DAY);
    // One pass without an early exit, which vectorizes over a column;
    // only a failing column is searched for its first offender.
    let inside = |t: i64| t >= first && t <= last;
    if times
        .clone()
        .into_iter()
        .fold(true, |all, t| all & inside(t))
    {
        return Ok(());
    }
    match times.into_iter().find(|&t| !inside(t)) {
        None => Ok(()),
        Some(t) => Err(format!(
            "{what} time {t} s lies outside its system's span {first}..={last} s \
             (start to end plus {SPAN_SLACK_DAYS} days)"
        )),
    }
}

/// Checks that a system observed from `start` to `end` declares a span
/// of at most [`MAX_SPAN_DAYS`] that does not end before it starts.
///
/// # Errors
///
/// A description of the violation, for the caller to wrap in its own
/// typed error.
pub(crate) fn check_span(
    start: hpcfail_types::time::Timestamp,
    end: hpcfail_types::time::Timestamp,
) -> Result<(), String> {
    let (start, end) = (start.as_seconds(), end.as_seconds());
    if end < start {
        return Err(format!(
            "span ends at {end} s, before its start at {start} s"
        ));
    }
    match end.checked_sub(start) {
        Some(span) if span <= MAX_SPAN_DAYS * hpcfail_types::time::SECONDS_PER_DAY => Ok(()),
        _ => Err(format!(
            "span from {start} s to {end} s is over the limit of {MAX_SPAN_DAYS} days"
        )),
    }
}

/// The most frequently used items.
pub mod prelude {
    pub use crate::features::{NodeFeatures, NodeUsage, TemperatureAggregate, UserStat};
    pub use crate::ingest::{
        load_trace_with, DataQualityReport, IngestPolicy, IngestReport, QuarantinedLine,
    };
    pub use crate::query::BaselineEstimator;
    pub use crate::snapshot::{read_snapshot, write_snapshot, SnapshotError};
    pub use crate::trace::{SystemTrace, SystemTraceBuilder, Trace};
}
