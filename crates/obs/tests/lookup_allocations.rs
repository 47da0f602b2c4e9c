//! Looking up a metric that already exists allocates nothing: only the
//! first lookup of a name copies it into the registry.
//!
//! This binary installs an allocator that counts the bytes each thread
//! asked for.

use hpcfail_obs::registry::{Histogram, Registry};
use hpcfail_obs::window::WindowHistogram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The bytes this thread asked for.
    static ASKED: Cell<usize> = const { Cell::new(0) };
}

/// Passes every call to the system allocator, counting the bytes each
/// thread asked for.
struct Counting;

fn note(size: usize) {
    // Thread-local storage being torn down only skips the note.
    let _ = ASKED.try_with(|asked| asked.set(asked.get() + size));
}

// SAFETY: every call forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
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
static ALLOCATOR: Counting = Counting;

/// The bytes `f` asked the allocator for on this thread.
fn bytes_allocated_by<T>(f: impl FnOnce() -> T) -> usize {
    let before = ASKED.with(Cell::get);
    let kept = f();
    let asked = ASKED.with(Cell::get) - before;
    drop(kept);
    asked
}

#[test]
fn a_second_lookup_of_an_existing_name_allocates_nothing() {
    let registry = Registry::new();
    let name = "serve.cache.hit";
    let first = bytes_allocated_by(|| registry.counter(name));
    assert!(first > 0, "the first lookup creates the counter");
    assert_eq!(bytes_allocated_by(|| registry.counter(name)), 0);

    registry.gauge(name);
    assert_eq!(bytes_allocated_by(|| registry.gauge(name)), 0);
    registry.histogram(name);
    assert_eq!(
        bytes_allocated_by(|| registry.histogram_with(name, Histogram::exponential_ns)),
        0
    );
    registry.window(name);
    assert_eq!(
        bytes_allocated_by(|| registry.window_with(name, WindowHistogram::exponential_ns)),
        0
    );
}
