//! Snapshot decode allocates at most 8 bytes for every byte it reads:
//! the integer column codec stores no value in less than one byte and
//! none decodes to more than eight, and every row count is checked
//! against the section's remaining bytes before anything is allocated.
//!
//! This binary installs an allocator that keeps the largest single
//! allocation each thread asked for.

use hpcfail_store::snapshot::{decode_snapshot, snapshot_bytes};
use hpcfail_store::trace::{SystemTraceBuilder, Trace};
use hpcfail_types::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest allocation this thread asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Passes every call to the system allocator, keeping the largest
/// request size per thread.
struct Largest;

fn note(size: usize) {
    // Thread-local storage being torn down only skips the note.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// A 4-node system whose job log is `jobs` one-node jobs, with every
/// field inside a range of 256, so each integer column is stored one
/// byte a value.
fn narrow_trace(jobs: u32) -> Trace {
    let sys = SystemId::new(1);
    let config = SystemConfig {
        id: sys,
        name: "narrow".into(),
        nodes: 4,
        procs_per_node: 4,
        hardware: HardwareClass::Smp4Way,
        start: Timestamp::EPOCH,
        end: Timestamp::from_days(1.0),
        has_layout: false,
        has_job_log: true,
        has_temperature: false,
    };
    let mut b = SystemTraceBuilder::new(config);
    for i in 0..jobs {
        let t = Timestamp::from_seconds(i64::from(i * 255 / jobs));
        b.push_job(JobRecord {
            system: sys,
            job_id: JobId::new(u64::from(i % 256)),
            user: UserId::new(i % 7),
            submit: t,
            dispatch: t,
            end: t,
            procs: 1 + i % 200,
            nodes: vec![NodeId::new(i % 4)],
        });
    }
    for i in 0..100u32 {
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(i % 4),
            Timestamp::from_seconds(i64::from(i)),
            RootCause::Hardware,
            SubCause::None,
        ));
    }
    let mut trace = Trace::new();
    trace.insert_system(b.build());
    trace
}

#[test]
fn decode_allocates_at_most_eight_bytes_per_snapshot_byte() {
    let jobs = 50_000;
    let trace = narrow_trace(jobs);
    let bytes = snapshot_bytes(&trace);
    // Seven one-byte columns a job plus one node id: 8 bytes a job,
    // and a few hundred for the headers and the failures.
    assert!(
        bytes.len() < 8 * jobs as usize + 1_000,
        "{} bytes: some column is wider than one byte",
        bytes.len()
    );

    LARGEST.with(|largest| largest.set(0));
    let decoded = decode_snapshot(&bytes).expect("decodes");
    let largest = LARGEST.with(Cell::get);
    assert_eq!(decoded.fingerprint(), trace.fingerprint());
    assert!(
        largest <= 8 * bytes.len(),
        "largest allocation {largest} B for a {} B snapshot",
        bytes.len()
    );
    // The largest is an eight-byte column (the job ids or a time
    // column), which takes one snapshot byte a job.
    assert!(largest >= 8 * jobs as usize, "{largest} B");
}
