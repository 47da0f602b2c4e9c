//! Pluggable exporters for registry snapshots.
//!
//! Two sinks ship with the workspace:
//!
//! - [`ManifestSink`](crate::manifest::ManifestSink) (in this crate)
//!   writes the machine-readable JSON run manifest;
//! - `TableSink` (in `hpcfail-report`, which depends on this crate —
//!   the dependency cannot point the other way without a cycle) renders
//!   the human-readable summary table.

use crate::registry::Snapshot;
use std::io;

/// Consumes a snapshot, e.g. by writing it somewhere.
pub trait Sink {
    /// Exports `snapshot`.
    fn export(&mut self, snapshot: &Snapshot) -> io::Result<()>;
}
