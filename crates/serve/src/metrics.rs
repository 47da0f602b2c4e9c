//! Renders the server's telemetry as Prometheus text exposition
//! format (version 0.0.4) for `GET /metrics`.
//!
//! The server's own families come from typed values, not from registry
//! names, so nothing is formatted into a name and parsed back into a
//! label:
//!
//! | source | exported as |
//! |---|---|
//! | registry `serve.requests` | `serve_requests_total` |
//! | registry `serve.cache.hit` / `.miss` / `serve.coalesced` | `serve_cache_requests_total{result=...}` |
//! | request table, per status | `serve_responses_total{code="..."}` |
//! | request table, per kind, lifetime histogram | `serve_requests_by_kind_total{kind=}` (its count) and `serve_request_latency_ns{kind=,quantile=}` summary |
//! | request table, per kind, SLO window | `serve_window_latency_ns{kind=,quantile=}` summary and `serve_window_seconds` |
//! | request table, per trace | `serve_trace_requests_total{trace="..."}` |
//! | request table, SLO report | `serve_slo_*` gauges |
//! | [`PhaseWindows`](crate::phase::PhaseWindows) | `serve_phase_us{phase=,quantile=}` summary, in µs |
//! | the live in-flight count | `serve_inflight` |
//!
//! The request table is the [`crate::slo::SloTracker`]; under `no-obs`
//! only its SLO gauges are exported. Everything else in the registry —
//! the engine and store instrumentation — is exported generically:
//! dots become underscores, counters get a `_total` suffix, histograms
//! become summaries. Output is deterministic for a given state.

use crate::slo::{KindSlo, RequestSnapshot};
use hpcfail_obs::registry::{HistogramSnapshot, Snapshot};
use hpcfail_obs::window::WindowedSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The registry counters exported as `serve_cache_requests_total`.
const CACHE_RESULTS: [(&str, &str); 3] = [
    ("serve.cache.hit", "hit"),
    ("serve.cache.miss", "miss"),
    ("serve.coalesced", "coalesced"),
];

/// The quantile labels of every summary series, in order.
const QUANTILES: [&str; 4] = ["0.5", "0.9", "0.95", "0.99"];

/// Maps a dotted registry name to a valid Prometheus metric name.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out
        .chars()
        .next()
        .is_none_or(|c| !(c.is_ascii_alphabetic() || c == '_' || c == ':'))
    {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value per the exposition format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a sample value the way Prometheus expects (no exponent
/// surprises for integral values).
fn fmt_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// What one summary series exports: its p50, p90, p95 and p99, its
/// count and its sum.
struct Summary([f64; 4], u64, u64);

fn lifetime(h: &HistogramSnapshot) -> Summary {
    Summary([h.p50, h.p90, h.p95, h.p99], h.count, h.sum)
}

fn windowed(w: &WindowedSnapshot) -> Summary {
    Summary([w.p50, w.p90, w.p95, w.p99], w.count, w.sum)
}

struct Out {
    text: String,
    declared: BTreeMap<String, &'static str>,
}

impl Out {
    fn family(&mut self, name: &str, kind: &'static str, help: &str) {
        if self.declared.insert(name.to_owned(), kind).is_none() {
            let _ = writeln!(self.text, "# HELP {name} {help}");
            let _ = writeln!(self.text, "# TYPE {name} {kind}");
        }
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.text.push_str(name);
        for (i, (label, v)) in labels.iter().enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.text, "{open}{label}=\"{}\"", escape_label(v));
        }
        if !labels.is_empty() {
            self.text.push('}');
        }
        let _ = writeln!(self.text, " {}", fmt_value(value));
    }

    /// One series of the summary `family` under `labels`; its
    /// quantiles and sum are divided by `divisor` (1000 exports
    /// nanoseconds in microseconds).
    fn summary(&mut self, family: &str, labels: &[(&str, &str)], summary: Summary, divisor: f64) {
        let Summary(quantiles, count, sum) = summary;
        for (q, value) in QUANTILES.into_iter().zip(quantiles) {
            let mut with_q = labels.to_vec();
            with_q.push(("quantile", q));
            self.sample(family, &with_q, value / divisor);
        }
        self.sample(&format!("{family}_count"), labels, count as f64);
        self.sample(&format!("{family}_sum"), labels, sum as f64 / divisor);
    }

    /// A counter family with one series per `(label value, count)`;
    /// nothing when there are none.
    fn counters<'a>(
        &mut self,
        family: &str,
        help: &str,
        label: &str,
        series: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        for (value, count) in series {
            self.family(family, "counter", help);
            self.sample(family, &[(label, value)], count as f64);
        }
    }
}

/// Renders one scrape from the registry, the request table, the phase
/// windows and the live in-flight request count (read from the server,
/// so it is exact at scrape time).
pub fn render(
    registry: &Snapshot,
    requests: &RequestSnapshot,
    phases: &[(&str, WindowedSnapshot)],
    inflight: u64,
) -> String {
    let mut out = Out {
        text: String::new(),
        declared: BTreeMap::new(),
    };
    let counter = |name: &str| registry.counters.get(name).copied().unwrap_or(0) as f64;

    out.family(
        "serve_requests_total",
        "counter",
        "Requests served, all endpoints.",
    );
    out.sample("serve_requests_total", &[], counter("serve.requests"));
    out.family(
        "serve_cache_requests_total",
        "counter",
        "Query answers by cache outcome.",
    );
    for (name, result) in CACHE_RESULTS {
        out.sample(
            "serve_cache_requests_total",
            &[("result", result)],
            counter(name),
        );
    }

    // The request table's instrumentation families; the SLO gauges
    // below work under `no-obs` too.
    if hpcfail_obs::ENABLED {
        let codes: Vec<(String, u64)> = requests
            .statuses
            .iter()
            .map(|(code, n)| (code.to_string(), *n))
            .collect();
        out.counters(
            "serve_responses_total",
            "Responses by status code.",
            "code",
            codes.iter().map(|(code, n)| (code.as_str(), *n)),
        );
        out.counters(
            "serve_requests_by_kind_total",
            "Requests by kind label.",
            "kind",
            requests
                .kinds
                .iter()
                .map(|(kind, h, _)| (kind.as_str(), h.count)),
        );
        out.counters(
            "serve_trace_requests_total",
            "Analysis requests by registry trace name.",
            "trace",
            requests
                .traces
                .iter()
                .map(|(trace, n)| (trace.as_str(), *n)),
        );
        for (kind, h, _) in &requests.kinds {
            out.family(
                "serve_request_latency_ns",
                "summary",
                "Request latency by kind, nanoseconds, process lifetime.",
            );
            out.summary(
                "serve_request_latency_ns",
                &[("kind", kind)],
                lifetime(h),
                1.0,
            );
        }
        let mut width_ms = None;
        for (kind, _, w) in requests.kinds.iter().filter(|(_, _, w)| w.count > 0) {
            out.family(
                "serve_window_latency_ns",
                "summary",
                "Request latency by kind, nanoseconds, sliding window.",
            );
            out.summary(
                "serve_window_latency_ns",
                &[("kind", kind)],
                windowed(w),
                1.0,
            );
            width_ms = Some(w.window_ms);
        }
        if let Some(width_ms) = width_ms {
            out.family(
                "serve_window_seconds",
                "gauge",
                "Width of the sliding latency window.",
            );
            out.sample("serve_window_seconds", &[], width_ms as f64 / 1000.0);
        }
    }

    // Per-phase request time, sliding window: every answered request
    // records each phase once, zero for the phases it skipped.
    for (phase, w) in phases {
        out.family(
            "serve_phase_us",
            "summary",
            "Request time by server phase, microseconds, sliding window.",
        );
        out.summary("serve_phase_us", &[("phase", phase)], windowed(w), 1_000.0);
    }

    out.family(
        "serve_inflight",
        "gauge",
        "Requests currently being handled.",
    );
    out.sample("serve_inflight", &[], inflight as f64);

    let slo = &requests.slo;
    out.family(
        "serve_slo_healthy",
        "gauge",
        "1 while every kind meets both SLO budgets.",
    );
    out.sample("serve_slo_healthy", &[], f64::from(u8::from(slo.healthy)));
    type Standing = fn(&KindSlo) -> f64;
    let gauges: [(&str, &str, Standing); 3] = [
        (
            "serve_slo_latency_burn",
            "Windowed p99 over the latency budget; above 1 the budget is blown.",
            |k| k.burn,
        ),
        ("serve_slo_error_rate", "Windowed 5xx rate by kind.", |k| {
            k.error_rate
        }),
        (
            "serve_slo_ok",
            "1 while the kind meets both budgets.",
            |k| f64::from(u8::from(k.latency_ok && k.errors_ok)),
        ),
    ];
    for (family, help, value) in gauges {
        for (kind, k) in &slo.kinds {
            out.family(family, "gauge", help);
            out.sample(family, &[("kind", kind)], value(k));
        }
    }

    // Everything else in the registry, exported generically.
    for (name, value) in &registry.counters {
        if name == "serve.requests" || CACHE_RESULTS.iter().any(|(c, _)| c == name) {
            continue;
        }
        let family = format!("{}_total", sanitize(name));
        out.family(&family, "counter", "Registry counter.");
        out.sample(&family, &[], *value as f64);
    }
    for (name, value) in &registry.gauges {
        let family = sanitize(name);
        out.family(&family, "gauge", "Registry gauge.");
        out.sample(&family, &[], *value);
    }
    for (name, h) in &registry.histograms {
        let family = sanitize(name);
        out.family(&family, "summary", "Registry histogram.");
        out.summary(&family, &[], lifetime(h), 1.0);
    }
    for (name, w) in &registry.windows {
        let family = sanitize(name);
        out.family(&family, "summary", "Registry sliding-window histogram.");
        out.summary(&family, &[], windowed(w), 1.0);
    }

    out.text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promtext;
    use crate::slo::{SloPolicy, SloTracker};
    use hpcfail_obs::registry::Registry;
    use hpcfail_obs::window::WindowHistogram;

    fn serve_like_registry() -> Registry {
        let registry = Registry::new();
        registry.counter("serve.requests").add(12);
        registry.counter("serve.cache.hit").add(4);
        registry.counter("serve.cache.miss").add(7);
        registry.counter("serve.coalesced").add(1);
        registry.counter("engine.requests").add(6);
        registry.gauge("store.filter_hit_rate").set(0.5);
        registry
    }

    fn serve_like_table() -> SloTracker {
        let tracker = SloTracker::new(SloPolicy::default());
        for latency_ns in [1_000, 2_000, 50_000] {
            tracker.record("trace-summary", 200, Some("lanl-96"), latency_ns);
        }
        tracker.record("query", 400, None, 3_000);
        tracker
    }

    fn engine_phase() -> Vec<(&'static str, WindowedSnapshot)> {
        let window = WindowHistogram::exponential_ns();
        for v in [1_000, 2_000, 50_000] {
            window.record_at_ms(0, v);
        }
        vec![("engine", window.snapshot_at_ms(0))]
    }

    #[test]
    fn render_is_valid_promtext_with_labeled_series() {
        let text = render(
            &serve_like_registry().snapshot(),
            &serve_like_table().snapshot(),
            &engine_phase(),
            3,
        );

        let scrape = promtext::parse(&text).expect("render emits valid promtext");
        assert_eq!(scrape.value("serve_requests_total", &[]), Some(12.0));
        assert_eq!(
            scrape.value("serve_cache_requests_total", &[("result", "hit")]),
            Some(4.0)
        );
        assert_eq!(scrape.value("serve_inflight", &[]), Some(3.0));
        assert_eq!(scrape.value("serve_slo_healthy", &[]), Some(1.0));
        assert_eq!(
            scrape.value("serve_slo_ok", &[("kind", "trace-summary")]),
            Some(1.0)
        );
        // Generic export keeps the rest visible, and nothing twice.
        assert_eq!(scrape.value("engine_requests_total", &[]), Some(6.0));
        assert_eq!(scrape.value("store_filter_hit_rate", &[]), Some(0.5));
        assert!(!text.contains("serve_cache_hit_total"), "{text}");
        if !hpcfail_obs::ENABLED {
            return;
        }
        assert_eq!(
            scrape.value("serve_responses_total", &[("code", "400")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("serve_requests_by_kind_total", &[("kind", "trace-summary")]),
            Some(3.0)
        );
        assert_eq!(
            scrape.value("serve_trace_requests_total", &[("trace", "lanl-96")]),
            Some(3.0)
        );
        for family in ["serve_request_latency_ns", "serve_window_latency_ns"] {
            assert_eq!(scrape.types[family], "summary");
            assert_eq!(
                scrape.value(&format!("{family}_count"), &[("kind", "trace-summary")]),
                Some(3.0)
            );
            assert_eq!(
                scrape.value(&format!("{family}_sum"), &[("kind", "trace-summary")]),
                Some(53_000.0)
            );
            assert!(scrape
                .value(family, &[("kind", "trace-summary"), ("quantile", "0.99")])
                .is_some());
        }
        assert_eq!(scrape.value("serve_window_seconds", &[]), Some(30.0));
        // Phase windows export in microseconds under a phase label.
        assert_eq!(scrape.types["serve_phase_us"], "summary");
        assert_eq!(
            scrape.value("serve_phase_us_count", &[("phase", "engine")]),
            Some(3.0)
        );
        assert_eq!(
            scrape.value("serve_phase_us_sum", &[("phase", "engine")]),
            Some(53.0)
        );
    }

    #[test]
    fn render_is_deterministic_for_a_snapshot() {
        let snapshot = serve_like_registry().snapshot();
        let table = serve_like_table().snapshot();
        assert_eq!(
            render(&snapshot, &table, &engine_phase(), 0),
            render(&snapshot, &table, &engine_phase(), 0)
        );
    }

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("serve.cache.hit"), "serve_cache_hit");
        assert_eq!(sanitize("0weird"), "_0weird");
        assert_eq!(sanitize("a-b c"), "a_b_c");
    }
}
