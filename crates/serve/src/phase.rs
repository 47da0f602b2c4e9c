//! Where a request's server time goes: one clock stamp per phase.
//!
//! The server keeps a [`Stamps`] value for each request it reads. It
//! holds the instant the request's first byte was available and one
//! end instant per [`Phase`], in a fixed-size array, so stamping
//! allocates nothing. A phase the request skips (a `/v1/healthz` is
//! never admitted, a cache hit runs no engine) takes its
//! predecessor's end and lasts zero. So the phases always add up to
//! the request's latency: from the first byte to the last byte
//! written.
//!
//! The same stamps feed three outputs:
//!
//! - the windowed `serve_phase_us{phase=…}` summaries on
//!   `/v1/metrics`, through the server's own [`PhaseWindows`] (seven
//!   windows it owns, not registry entries);
//! - the access log's `phases_us` object;
//! - one `serve.phase.<phase>` child span per phase in an `x-trace`
//!   tree, for the phases that end before that tree is built
//!   ([`Stamps::graft`]).
//!
//! Under `no-obs` [`clock`] reads no clock, so the stamps, windows,
//! log field and spans all fold away.

use hpcfail_obs::trace::SpanNode;
use hpcfail_obs::window::{WindowHistogram, WindowedSnapshot};
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// One phase of a served request. Each phase ends at its own stamp and
/// starts at the previous phase's end; [`Phase::Read`] starts at the
/// first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reading the request line, headers and body.
    Read,
    /// Resolving the path and, for analysis endpoints, parsing the
    /// body, pinning the trace's epoch and building the cache key.
    Route,
    /// Waiting at the admission gate.
    Admit,
    /// The cache lookup and coalescing, a follower's wait included.
    Cache,
    /// The engine computing a fresh answer (an upload's decode and
    /// build).
    Engine,
    /// Rendering the result to bytes and assembling the response.
    Render,
    /// Writing the response to the socket.
    Write,
}

/// Every phase, in request order.
pub const PHASES: [Phase; 7] = [
    Phase::Read,
    Phase::Route,
    Phase::Admit,
    Phase::Cache,
    Phase::Engine,
    Phase::Render,
    Phase::Write,
];

impl Phase {
    /// The label used in metrics, the access log and span names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::Route => "route",
            Phase::Admit => "admit",
            Phase::Cache => "cache",
            Phase::Engine => "engine",
            Phase::Render => "render",
            Phase::Write => "write",
        }
    }
}

/// A clock reading, or `None` when instrumentation is compiled out.
pub fn clock() -> Option<Instant> {
    hpcfail_obs::ENABLED.then(Instant::now)
}

/// What a fresh answer cost inside the [`QueryService`]: the engine
/// run and the rendering of its result to bytes. Zero for cached,
/// coalesced and failed answers, and under `no-obs`.
///
/// [`QueryService`]: crate::service::QueryService
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Compute {
    /// `Engine::run`.
    pub engine: Duration,
    /// `to_json().pretty()` of the result.
    pub render: Duration,
}

impl Compute {
    /// The split of `start → ran → done`, or zero without a clock.
    pub fn between(start: Option<Instant>, ran: Option<Instant>, done: Option<Instant>) -> Compute {
        match (start, ran, done) {
            (Some(start), Some(ran), Some(done)) => Compute {
                engine: ran.saturating_duration_since(start),
                render: done.saturating_duration_since(ran),
            },
            _ => Compute::default(),
        }
    }
}

impl AddAssign for Compute {
    fn add_assign(&mut self, other: Compute) {
        self.engine += other.engine;
        self.render += other.render;
    }
}

/// One request's phase stamps.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    start: Instant,
    ends: [Option<Instant>; PHASES.len()],
}

impl Stamps {
    /// Stamps for a request whose first byte was available at `start`.
    pub fn new(start: Instant) -> Stamps {
        Stamps {
            start,
            ends: [None; PHASES.len()],
        }
    }

    /// Ends `phase` now. A later mark of the same phase wins.
    pub fn mark(&mut self, phase: Phase) {
        self.ends[phase as usize] = clock();
    }

    /// Ends the cache and engine phases for a service answer that
    /// returns now after spending `compute`: the engine ran just before
    /// the render, and the rest of the service's time (lookup,
    /// coalescing, filling the cache) counts as cache. The service's
    /// render time falls into [`Phase::Render`].
    pub fn mark_answered(&mut self, compute: Compute) {
        let Some(now) = clock() else { return };
        let engine_end = now.checked_sub(compute.render).unwrap_or(now);
        let cache_end = engine_end.checked_sub(compute.engine).unwrap_or(engine_end);
        self.ends[Phase::Cache as usize] = Some(cache_end);
        self.ends[Phase::Engine as usize] = Some(engine_end);
    }

    /// Nanoseconds since the first byte.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Each phase's duration in nanoseconds. An unset (or earlier)
    /// stamp takes its predecessor's end, so the durations are never
    /// negative and always sum to the last stamp's distance from the
    /// first byte.
    pub fn phase_ns(&self) -> [u64; PHASES.len()] {
        let mut previous = self.start;
        let mut out = [0; PHASES.len()];
        for (slot, end) in out.iter_mut().zip(self.ends) {
            let end = end.map_or(previous, |end| end.max(previous));
            *slot = (end - previous).as_nanos() as u64;
            previous = end;
        }
        out
    }

    /// Each phase in whole microseconds, rounded on the running total
    /// so that they sum exactly to [`Stamps::total_us`]; `None` under
    /// `no-obs`, where no phase was timed.
    pub fn phase_us(&self) -> Option<[u64; PHASES.len()]> {
        let mut total_ns = 0;
        hpcfail_obs::ENABLED.then(|| {
            self.phase_ns().map(|ns| {
                let before = total_ns / 1_000;
                total_ns += ns;
                total_ns / 1_000 - before
            })
        })
    }

    /// The request's latency in microseconds: the phases' sum, or the
    /// time since the first byte when no clock was read (`no-obs`).
    pub fn total_us(&self) -> u64 {
        if hpcfail_obs::ENABLED {
            self.phase_ns().iter().sum::<u64>() / 1_000
        } else {
            self.elapsed_ns() / 1_000
        }
    }

    /// Rebuilds a finished request tree around the phases. The root
    /// then spans from the first byte to now, and its children are one
    /// `serve.phase.<phase>` span per phase that ends before the
    /// response body is built: read through engine. Render and write
    /// finish after the tree is serialized into the body they time, so
    /// they appear only in metrics and the access log. The spans the
    /// handler opened (`serve.query.<kind>` and the engine's own, an
    /// upload's decode and build) nest under the engine phase.
    pub fn graft(&self, root: &mut SpanNode) {
        let first_id = root.len() as u64 + 1;
        let parent_id = root.span_id;
        let mut handler = std::mem::take(&mut root.children);
        let handler_ns: u64 = handler.iter().map(|span| span.total_ns).sum();
        root.total_ns = root.total_ns.max(self.elapsed_ns());
        root.children = (first_id..)
            .zip(PHASES.into_iter().zip(self.phase_ns()))
            .take(Phase::Engine as usize + 1)
            .map(|(span_id, (phase, total_ns))| {
                let mut node = SpanNode {
                    name: format!("serve.phase.{}", phase.label()),
                    span_id,
                    parent_id,
                    total_ns,
                    self_ns: total_ns,
                    attrs: Vec::new(),
                    children: Vec::new(),
                };
                if phase == Phase::Engine {
                    for span in &mut handler {
                        span.parent_id = span_id;
                    }
                    node.self_ns = total_ns.saturating_sub(handler_ns);
                    node.children = std::mem::take(&mut handler);
                }
                node
            })
            .collect();
        let phases_ns: u64 = root.children.iter().map(|phase| phase.total_ns).sum();
        root.self_ns = root.total_ns.saturating_sub(phases_ns);
    }
}

/// The per-phase windows (nanoseconds), one set per server, so that
/// recording a request formats no name and looks nothing up.
/// `/v1/metrics` exports them as `serve_phase_us{phase=…}`.
pub struct PhaseWindows(Option<[WindowHistogram; PHASES.len()]>);

impl Default for PhaseWindows {
    /// Empty windows over the last 30 seconds; none under `no-obs`.
    fn default() -> PhaseWindows {
        PhaseWindows(
            hpcfail_obs::ENABLED.then(|| PHASES.map(|_| WindowHistogram::exponential_ns())),
        )
    }
}

impl PhaseWindows {
    /// Records one request: every phase gets one observation, zero for
    /// the phases it skipped.
    pub fn record(&self, stamps: &Stamps) {
        if let Some(windows) = &self.0 {
            for (window, ns) in windows.iter().zip(stamps.phase_ns()) {
                window.record(ns);
            }
        }
    }

    /// Each phase's window ending now, by label, in request order; a
    /// window holding no observation is left out.
    pub fn snapshot(&self) -> Vec<(&'static str, WindowedSnapshot)> {
        self.0
            .iter()
            .flatten()
            .zip(PHASES)
            .map(|(window, phase)| (phase.label(), window.snapshot()))
            .filter(|(_, w)| w.count > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamps_at(offsets_us: [Option<u64>; 7]) -> Stamps {
        let start = Instant::now();
        let mut stamps = Stamps::new(start);
        for (end, offset) in stamps.ends.iter_mut().zip(offsets_us) {
            *end = offset.map(|us| start + Duration::from_micros(us));
        }
        stamps
    }

    #[test]
    fn skipped_phases_last_zero_and_the_phases_add_up() {
        let stamps = stamps_at([Some(10), Some(12), None, None, None, Some(40), Some(47)]);
        assert_eq!(stamps.phase_ns(), [10_000, 2_000, 0, 0, 0, 28_000, 7_000]);
        if let Some(us) = stamps.phase_us() {
            assert_eq!(us.iter().sum::<u64>(), 47);
            assert_eq!(stamps.total_us(), 47);
        }
    }

    #[test]
    fn a_stamp_earlier_than_its_predecessor_lasts_zero() {
        let stamps = stamps_at([Some(10), Some(5), Some(20), None, None, None, Some(21)]);
        assert_eq!(stamps.phase_ns(), [10_000, 0, 10_000, 0, 0, 0, 1_000]);
    }

    #[test]
    fn microseconds_round_on_the_running_total() {
        let start = Instant::now();
        let mut stamps = Stamps::new(start);
        // 0.6 µs per phase: rounding each down would sum to 0.
        for (i, end) in stamps.ends.iter_mut().enumerate() {
            *end = Some(start + Duration::from_nanos(600 * (i as u64 + 1)));
        }
        if let Some(us) = stamps.phase_us() {
            assert_eq!(us.iter().sum::<u64>(), 4_200 / 1_000);
            assert_eq!(us, [0, 1, 0, 1, 1, 0, 1]);
        }
    }

    #[test]
    fn an_answer_places_the_engine_before_the_render() {
        if !hpcfail_obs::ENABLED {
            return;
        }
        let mut stamps = Stamps::new(Instant::now());
        stamps.mark(Phase::Read);
        stamps.mark(Phase::Route);
        stamps.mark(Phase::Admit);
        std::thread::sleep(Duration::from_millis(5));
        stamps.mark_answered(Compute {
            engine: Duration::from_millis(3),
            render: Duration::from_millis(1),
        });
        stamps.mark(Phase::Render);
        let ns = stamps.phase_ns();
        assert_eq!(ns[Phase::Engine as usize], 3_000_000);
        assert!(ns[Phase::Cache as usize] >= 1_000_000, "{ns:?}");
        assert!(ns[Phase::Render as usize] >= 1_000_000, "{ns:?}");
    }

    #[test]
    fn graft_puts_the_phases_under_the_root_and_the_handler_under_engine() {
        let handler = SpanNode {
            name: "serve.query.trace-summary".to_owned(),
            span_id: 2,
            parent_id: 1,
            total_ns: 3_000,
            self_ns: 3_000,
            attrs: Vec::new(),
            children: Vec::new(),
        };
        let mut root = SpanNode {
            name: "serve.request".to_owned(),
            span_id: 1,
            parent_id: 0,
            total_ns: 20_000,
            self_ns: 17_000,
            attrs: Vec::new(),
            children: vec![handler],
        };
        let stamps = stamps_at([Some(4), Some(6), Some(7), Some(9), Some(14), None, None]);
        stamps.graft(&mut root);
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "serve.phase.read",
                "serve.phase.route",
                "serve.phase.admit",
                "serve.phase.cache",
                "serve.phase.engine"
            ]
        );
        let engine = &root.children[4];
        assert_eq!(engine.total_ns, 5_000);
        assert_eq!(engine.self_ns, 2_000);
        assert_eq!(engine.children.len(), 1);
        assert_eq!(engine.children[0].parent_id, engine.span_id);
        let mut ids: Vec<u64> = root.children.iter().map(|c| c.span_id).collect();
        ids.extend([root.span_id, engine.children[0].span_id]);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 7, "span ids stay unique");
        let phases: u64 = root.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(phases, 14_000);
        assert_eq!(root.self_ns, root.total_ns - phases);
    }
}
