//! Request-scoped tracing: 64-bit trace ids and hierarchical span
//! trees.
//!
//! A [`TraceContext`] names one unit of work (a served request) with a
//! 64-bit trace id; while an [`ActiveTrace`] guard is installed on a
//! thread, every [`crate::span::Span`] entered on that thread is
//! additionally captured into a tree of [`SpanNode`]s — parent/child
//! links, per-span self time, and `key=value` attributes — on top of
//! the flat per-name aggregates the registry keeps. Finishing the
//! guard yields a [`TraceRecording`] that serializes to JSON, which is
//! what `hpcfail-serve` returns inline when a client sends
//! `x-trace: 1`.
//!
//! Trace ids come from a process-global splitmix64 stream seeded from
//! wall-clock entropy. Span ids are allocated sequentially within a
//! trace (the root is span 1), so a recording is deterministic given a
//! deterministic execution.
//!
//! Like the rest of the crate, the capture path is reached through the
//! front door (`hpcfail_obs::start_trace_with`) and compiles down to an
//! inert stand-in under the `no-obs` feature.

use crate::json::Json;
use crate::span::{self, Span};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static TRACE_ID_STATE: OnceLock<AtomicU64> = OnceLock::new();

fn id_state() -> &'static AtomicU64 {
    TRACE_ID_STATE.get_or_init(|| {
        // Wall-clock + pid entropy; uniqueness within a process comes
        // from the counter, this only decorrelates processes.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        AtomicU64::new(nanos ^ (u64::from(std::process::id()) << 32))
    })
}

/// The next trace id from the process-global stream: unique within the
/// process, never zero.
pub fn next_trace_id() -> u64 {
    // splitmix64 over a sequential state: well-mixed 64-bit ids from a
    // seedable counter.
    let mut z = id_state()
        .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z ^ (z >> 31);
    z.max(1)
}

/// The identity of one traced unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 64-bit trace id.
    pub trace_id: u64,
    /// The id of the span this context currently names (the root span
    /// of a fresh context is span 1).
    pub span_id: u64,
}

impl TraceContext {
    /// A fresh context with a new trace id, positioned at the root.
    pub fn new() -> TraceContext {
        TraceContext {
            trace_id: next_trace_id(),
            span_id: 1,
        }
    }

    /// A context for a known trace id (e.g. one propagated by a
    /// client), positioned at the root.
    pub fn with_id(trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id: trace_id.max(1),
            span_id: 1,
        }
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::new()
    }
}

/// One finished span in a trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span name, as passed to [`crate::span()`].
    pub name: String,
    /// The span id, sequential within the trace (root is 1).
    pub span_id: u64,
    /// The parent's span id; 0 for the root.
    pub parent_id: u64,
    /// Wall time including children, nanoseconds.
    pub total_ns: u64,
    /// Wall time excluding children, nanoseconds.
    pub self_ns: u64,
    /// `key=value` attributes, in the order they were set.
    pub attrs: Vec<(String, String)>,
    /// Child spans, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Serializes the subtree rooted here.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("span_id", Json::Num(self.span_id as f64)),
            ("parent_id", Json::Num(self.parent_id as f64)),
            ("total_ns", Json::Num(self.total_ns as f64)),
            ("self_ns", Json::Num(self.self_ns as f64)),
            (
                "attrs",
                Json::obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            (
                "children",
                Json::Arr(self.children.iter().map(SpanNode::to_json).collect()),
            ),
        ])
    }

    /// Total number of spans in the subtree rooted here.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(SpanNode::len).sum::<usize>()
    }

    /// `false`: a node is at least itself.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A completed trace: the id plus the root of the span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecording {
    /// The trace id.
    pub trace_id: u64,
    /// The root span; every other captured span nests beneath it.
    pub root: SpanNode,
}

impl TraceRecording {
    /// The trace id as 16 lowercase hex digits.
    pub fn trace_id_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// Serializes the whole recording.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::Str(self.trace_id_hex())),
            ("spans", Json::Num(self.root.len() as f64)),
            ("root", self.root.to_json()),
        ])
    }
}

/// An installed trace capture: opened by
/// [`start_trace_with`](crate::start_trace_with) (or [`ActiveTrace::start_with`]),
/// closed by [`ActiveTrace::finish`].
///
/// The guard owns the trace's root span. While it lives, spans entered
/// on this thread are captured into the tree. Dropping the guard
/// without calling `finish` discards the capture cleanly.
///
/// Traces do not nest: starting a trace while one is already installed
/// on the thread yields a passive guard that allocates a trace id but
/// records nothing (`finish` returns `None`).
#[derive(Debug)]
pub struct ActiveTrace {
    /// Present only while capture is installed and unfinished.
    root: Option<Span>,
    owns_collector: bool,
}

impl ActiveTrace {
    /// Installs capture with an explicit context (deterministic tests,
    /// propagated ids).
    pub fn start_with(name: &str, context: TraceContext) -> ActiveTrace {
        let owns_collector = span::install_collector(context.trace_id);
        let root = Some(Span::enter(name));
        ActiveTrace {
            root,
            owns_collector,
        }
    }

    /// Sets a `key=value` attribute on the trace's root span.
    pub fn attr(&self, key: &str, value: &str) {
        if let Some(root) = &self.root {
            root.attr(key, value);
        }
    }

    /// Closes the root span and returns the captured tree, or `None`
    /// for a passive (nested) guard.
    pub fn finish(mut self) -> Option<TraceRecording> {
        self.root.take(); // drop order: root span must close first
        if !self.owns_collector {
            return None;
        }
        self.owns_collector = false;
        span::take_collector().map(|(trace_id, root)| TraceRecording { trace_id, root })
    }
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        self.root.take();
        if self.owns_collector {
            let _ = span::take_collector();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_after_seeding() {
        id_state().store(99, Ordering::SeqCst);
        let a = next_trace_id();
        let b = next_trace_id();
        id_state().store(99, Ordering::SeqCst);
        assert_eq!(next_trace_id(), a);
        assert_eq!(next_trace_id(), b);
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn context_hex_is_sixteen_digits() {
        let ctx = TraceContext::with_id(0xabc);
        assert_eq!(ctx.span_id, 1);
        let recording = ActiveTrace::start_with("hex", ctx)
            .finish()
            .expect("owning guard records");
        assert_eq!(recording.trace_id_hex(), "0000000000000abc");
    }

    #[test]
    fn captures_a_nested_tree_with_attrs() {
        let trace = ActiveTrace::start_with("request", TraceContext::with_id(7));
        trace.attr("kind", "trace-summary");
        {
            let outer = crate::span::Span::enter("outer");
            outer.attr("step", "1");
            {
                let _inner = crate::span::Span::enter("inner");
            }
        }
        let recording = trace.finish().expect("owning guard records");
        assert_eq!(recording.trace_id, 7);
        let root = &recording.root;
        assert_eq!(root.name, "request");
        assert_eq!(root.span_id, 1);
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.attrs, vec![("kind".into(), "trace-summary".into())]);
        assert_eq!(root.children.len(), 1);
        let outer = &root.children[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent_id, root.span_id);
        assert_eq!(outer.attrs, vec![("step".into(), "1".into())]);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(root.len(), 3);

        // Root duration covers the sum of child self times.
        let child_self: u64 = outer.self_ns + outer.children[0].self_ns;
        assert!(root.total_ns >= child_self);
        assert!(root.total_ns >= outer.total_ns);
    }

    #[test]
    fn nested_trace_guards_are_passive() {
        let outer = ActiveTrace::start_with("outer", TraceContext::with_id(1));
        let inner = ActiveTrace::start_with("inner", TraceContext::with_id(2));
        assert!(inner.finish().is_none(), "nested guard records nothing");
        let recording = outer.finish().expect("outer still owns the capture");
        assert_eq!(recording.root.name, "outer");
        // The passive guard's root span still shows up as a child span.
        assert_eq!(recording.root.children.len(), 1);
        assert_eq!(recording.root.children[0].name, "inner");
    }

    #[test]
    fn dropping_without_finish_uninstalls_cleanly() {
        {
            let _t = ActiveTrace::start_with("dropped", TraceContext::with_id(3));
        }
        // A fresh trace must own the capture again.
        let t = ActiveTrace::start_with("fresh", TraceContext::with_id(4));
        let recording = t.finish().expect("collector was released");
        assert_eq!(recording.trace_id, 4);
    }

    #[test]
    fn recording_serializes_to_json() {
        let trace = ActiveTrace::start_with("request", TraceContext::with_id(0xff));
        let recording = trace.finish().expect("records");
        let json = recording.to_json();
        assert_eq!(
            json.get("trace_id").and_then(Json::as_str),
            Some("00000000000000ff")
        );
        assert_eq!(json.get("spans").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("root")
                .and_then(|r| r.get("name"))
                .and_then(Json::as_str),
            Some("request")
        );
    }
}
