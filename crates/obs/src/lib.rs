//! `hpcfail-obs` — the workspace's zero-dependency tracing and metrics
//! substrate.
//!
//! The reproduction pipeline runs dozens of statistical analyses over a
//! multi-million-event synthetic trace; this crate makes that pipeline
//! observable without adding any external dependency:
//!
//! - [`registry`] — a thread-safe metrics registry holding counters,
//!   gauges and fixed-bucket histograms (p50/p90/p99 estimates), all
//!   backed by atomics so instrumented hot loops stay cheap;
//! - [`span`](mod@span) — scoped RAII wall-time spans that nest, attribute self
//!   time to the innermost span, and survive early returns;
//! - [`sink`] — a pluggable exporter trait; the JSON
//!   [`manifest`] sink lives here, the human-readable
//!   table sink lives in `hpcfail-report` (which depends on this
//!   crate);
//! - [`json`] — the self-contained JSON writer/parser behind the run
//!   manifest.
//! - [`fs`] — crash-atomic writes for durable artifacts.
//!
//! # The front door
//!
//! Instrumentation sites use the free functions below, which talk to
//! the process-global registry:
//!
//! ```
//! let _span = hpcfail_obs::span("sec3a.window_scan");
//! hpcfail_obs::counter("store.rows_scanned").add(128);
//! hpcfail_obs::gauge("store.filter_hit_rate").set(0.42);
//! hpcfail_obs::histogram("core.parallel.batch_ns").record(1_500);
//! ```
//!
//! # Compile-time erasure (`no-obs`)
//!
//! With the `no-obs` feature enabled, every front-door call degrades to
//! a zero-sized no-op — no atomics, no clock reads, no registry — so
//! the overhead claim of the instrumentation is checkable by building
//! the same code twice (`cargo build` vs `cargo build --features
//! no-obs`) and comparing benches. The registry, manifest and sink
//! machinery remain available in both modes; under `no-obs` they simply
//! observe an empty world.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fs;
pub mod json;
pub mod manifest;
pub mod registry;
pub mod rng;
pub mod sink;
pub mod span;
pub mod trace;
pub mod window;

pub use registry::{Registry, Snapshot};
pub use trace::{TraceContext, TraceRecording};
pub use window::WindowedSnapshot;

#[cfg(not(feature = "no-obs"))]
mod front_door {
    use crate::registry::{self, Counter, Gauge, Histogram};
    use crate::span::Span;
    use crate::trace::{ActiveTrace, TraceContext};
    use crate::window::WindowHistogram;

    /// Opens a wall-time span on the global registry; it closes (and
    /// records) when the returned guard drops.
    #[must_use = "a span records when its guard drops; binding it to _ closes it immediately"]
    pub fn span(name: &str) -> Span {
        Span::enter(name)
    }

    /// The global counter named `name`.
    pub fn counter(name: &str) -> Counter {
        registry::global().counter(name)
    }

    /// The global gauge named `name`.
    pub fn gauge(name: &str) -> Gauge {
        registry::global().gauge(name)
    }

    /// The global histogram named `name`.
    pub fn histogram(name: &str) -> Histogram {
        registry::global().histogram(name)
    }

    /// The global sliding-window histogram named `name` (exponential
    /// nanosecond bounds, 30 s window).
    pub fn window(name: &str) -> WindowHistogram {
        registry::global().window(name)
    }

    /// Starts capturing a request-scoped trace on this thread: opens
    /// the root span `name` under `context` (propagated or freshly
    /// drawn trace ids) and returns the guard. See
    /// [`crate::trace::ActiveTrace`].
    #[must_use = "the trace records only until its guard drops; call finish() to collect it"]
    pub fn start_trace_with(name: &str, context: TraceContext) -> ActiveTrace {
        ActiveTrace::start_with(name, context)
    }

    /// A snapshot of the global registry.
    pub fn snapshot() -> crate::registry::Snapshot {
        registry::global().snapshot()
    }
}

#[cfg(feature = "no-obs")]
mod front_door {
    //! Zero-sized stand-ins: every call compiles away.

    /// Inert guard standing in for [`crate::span::Span`].
    #[derive(Debug, Clone, Copy)]
    pub struct NoopSpan;

    impl NoopSpan {
        /// No-op; see [`crate::span::Span::attr`].
        #[inline(always)]
        pub fn attr(&self, _key: &str, _value: &str) {}
    }

    /// No-op; see the instrumented variant.
    #[inline(always)]
    #[must_use = "a span records when its guard drops; binding it to _ closes it immediately"]
    pub fn span(_name: &str) -> NoopSpan {
        NoopSpan
    }

    /// Inert counter handle.
    #[derive(Debug, Clone, Copy)]
    pub struct NoopCounter;

    impl NoopCounter {
        /// No-op.
        #[inline(always)]
        pub fn inc(&self) {}

        /// No-op.
        #[inline(always)]
        pub fn add(&self, _n: u64) {}

        /// Always 0.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// No-op; see the instrumented variant.
    #[inline(always)]
    pub fn counter(_name: &str) -> NoopCounter {
        NoopCounter
    }

    /// Inert gauge handle.
    #[derive(Debug, Clone, Copy)]
    pub struct NoopGauge;

    impl NoopGauge {
        /// No-op.
        #[inline(always)]
        pub fn set(&self, _value: f64) {}

        /// Always 0.
        #[inline(always)]
        pub fn get(&self) -> f64 {
            0.0
        }
    }

    /// No-op; see the instrumented variant.
    #[inline(always)]
    pub fn gauge(_name: &str) -> NoopGauge {
        NoopGauge
    }

    /// Inert histogram handle.
    #[derive(Debug, Clone, Copy)]
    pub struct NoopHistogram;

    impl NoopHistogram {
        /// No-op.
        #[inline(always)]
        pub fn record(&self, _value: u64) {}

        /// Always 0.
        #[inline(always)]
        pub fn count(&self) -> u64 {
            0
        }
    }

    /// No-op; see the instrumented variant.
    #[inline(always)]
    pub fn histogram(_name: &str) -> NoopHistogram {
        NoopHistogram
    }

    /// Inert sliding-window histogram handle.
    #[derive(Debug, Clone, Copy)]
    pub struct NoopWindow;

    impl NoopWindow {
        /// No-op.
        #[inline(always)]
        pub fn record(&self, _value: u64) {}

        /// An all-zero snapshot.
        #[inline(always)]
        pub fn snapshot(&self) -> crate::window::WindowedSnapshot {
            crate::window::WindowedSnapshot::default()
        }
    }

    /// No-op; see the instrumented variant.
    #[inline(always)]
    pub fn window(_name: &str) -> NoopWindow {
        NoopWindow
    }

    /// Inert trace guard: same surface as
    /// [`crate::trace::ActiveTrace`], records nothing.
    #[derive(Debug, Clone, Copy)]
    pub struct NoopTrace;

    impl NoopTrace {
        /// No-op.
        #[inline(always)]
        pub fn attr(&self, _key: &str, _value: &str) {}

        /// Always `None`: nothing was captured.
        #[inline(always)]
        pub fn finish(self) -> Option<crate::trace::TraceRecording> {
            None
        }
    }

    /// No-op; see the instrumented variant.
    #[inline(always)]
    #[must_use = "the trace records only until its guard drops; call finish() to collect it"]
    pub fn start_trace_with(_name: &str, _context: crate::trace::TraceContext) -> NoopTrace {
        NoopTrace
    }

    /// An empty snapshot.
    #[inline(always)]
    pub fn snapshot() -> crate::registry::Snapshot {
        crate::registry::Snapshot::default()
    }
}

pub use front_door::*;

/// `true` when the crate was built with instrumentation compiled in.
pub const ENABLED: bool = cfg!(not(feature = "no-obs"));

#[cfg(test)]
mod tests {
    #[test]
    fn front_door_is_usable_in_both_modes() {
        let _span = crate::span("test.front_door");
        crate::counter("test.count").add(2);
        crate::gauge("test.gauge").set(1.0);
        crate::histogram("test.hist").record(10);
        let snap = crate::snapshot();
        if crate::ENABLED {
            assert!(snap.counters["test.count"] >= 2);
        } else {
            assert!(snap.counters.is_empty());
        }
    }
}
