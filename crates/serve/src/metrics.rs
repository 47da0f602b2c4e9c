//! Renders the obs registry as Prometheus text exposition format
//! (version 0.0.4) for `GET /metrics`.
//!
//! The serve-side telemetry follows naming conventions that this
//! module maps onto properly *labeled* series:
//!
//! | registry name | exported as |
//! |---|---|
//! | `serve.requests` | `serve_requests_total` |
//! | `serve.cache.hit` / `.miss` / `serve.coalesced` | `serve_cache_requests_total{result=...}` |
//! | `serve.status.<code>` | `serve_responses_total{code="..."}` |
//! | `serve.kind.<kind>.requests` | `serve_requests_by_kind_total{kind="..."}` |
//! | `serve.trace.<name>.requests` | `serve_trace_requests_total{trace="..."}` |
//! | `serve.latency_ns.<kind>` histogram | `serve_request_latency_ns{kind=,quantile=}` summary |
//! | `serve.window.latency_ns.<kind>` window | `serve_window_latency_ns{kind=,quantile=}` summary |
//! | `serve.window.phase_ns.<phase>` window | `serve_phase_us{phase=,quantile=}` summary, in µs |
//!
//! plus live SLO gauges (`serve_slo_*`) from the [`crate::slo::SloTracker`]
//! report and the live in-flight gauge. Everything else in the
//! registry — the engine and store instrumentation — is exported
//! generically: dots become underscores, counters get a `_total`
//! suffix, histograms become summaries. Output is deterministic for a
//! given registry state (BTreeMap ordering everywhere).

use crate::phase::WINDOW_PREFIX as PHASE_WINDOW_PREFIX;
use crate::slo::SloReport;
use hpcfail_obs::registry::{HistogramSnapshot, Snapshot};
use hpcfail_obs::window::WindowedSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const CACHE_RESULTS: [(&str, &str); 3] = [
    ("serve.cache.hit", "hit"),
    ("serve.cache.miss", "miss"),
    ("serve.coalesced", "coalesced"),
];

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

struct Out {
    text: String,
    declared: BTreeMap<String, &'static str>,
}

impl Out {
    fn new() -> Out {
        Out {
            text: String::new(),
            declared: BTreeMap::new(),
        }
    }

    fn family(&mut self, name: &str, kind: &'static str, help: &str) {
        if self.declared.insert(name.to_owned(), kind).is_none() {
            let _ = writeln!(self.text, "# HELP {name} {help}");
            let _ = writeln!(self.text, "# TYPE {name} {kind}");
        }
    }

    fn sample(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        let _ = write!(self.text, "{name}");
        if !labels.is_empty() {
            let rendered: Vec<String> = labels
                .iter()
                .map(|(n, v)| format!("{n}=\"{}\"", escape_label(v)))
                .collect();
            let _ = write!(self.text, "{{{}}}", rendered.join(","));
        }
        let _ = writeln!(self.text, " {}", fmt_value(value));
    }
}

fn summary_block(out: &mut Out, family: &str, help: &str, entries: &[(String, HistogramSnapshot)]) {
    if entries.is_empty() {
        return;
    }
    out.family(family, "summary", help);
    for (kind, h) in entries {
        for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.95, h.p95), (0.99, h.p99)] {
            out.sample(
                family,
                &[("kind", kind.clone()), ("quantile", q.to_string())],
                v,
            );
        }
        out.sample(
            &format!("{family}_count"),
            &[("kind", kind.clone())],
            h.count as f64,
        );
        out.sample(
            &format!("{family}_sum"),
            &[("kind", kind.clone())],
            h.sum as f64,
        );
    }
}

/// One summary family over sliding windows, one series per `label`
/// value; quantiles and sums are divided by `divisor` (1000 exports
/// nanosecond windows in microseconds).
fn window_block(
    out: &mut Out,
    family: &str,
    help: &str,
    label: &'static str,
    divisor: f64,
    entries: &[(String, WindowedSnapshot)],
) {
    if entries.is_empty() {
        return;
    }
    out.family(family, "summary", help);
    for (value, w) in entries {
        for (q, v) in [(0.5, w.p50), (0.9, w.p90), (0.95, w.p95), (0.99, w.p99)] {
            out.sample(
                family,
                &[(label, value.clone()), ("quantile", q.to_string())],
                v / divisor,
            );
        }
        out.sample(
            &format!("{family}_count"),
            &[(label, value.clone())],
            w.count as f64,
        );
        out.sample(
            &format!("{family}_sum"),
            &[(label, value.clone())],
            w.sum as f64 / divisor,
        );
    }
}

/// The windows named `prefix<label>`, keyed by label.
fn windows_under(snapshot: &Snapshot, prefix: &str) -> Vec<(String, WindowedSnapshot)> {
    snapshot
        .windows
        .iter()
        .filter_map(|(name, w)| {
            name.strip_prefix(prefix)
                .map(|label| (label.to_owned(), *w))
        })
        .collect()
}

/// Renders one scrape. `inflight` is the live in-flight request count
/// (read from the server, not the registry, so it is exact at scrape
/// time).
pub fn render(snapshot: &Snapshot, slo: &SloReport, inflight: u64) -> String {
    let mut out = Out::new();
    let mut consumed: Vec<&str> = vec!["serve.requests"];

    // serve_requests_total
    out.family(
        "serve_requests_total",
        "counter",
        "Requests served, all endpoints.",
    );
    out.sample(
        "serve_requests_total",
        &[],
        snapshot
            .counters
            .get("serve.requests")
            .copied()
            .unwrap_or(0) as f64,
    );

    // serve_cache_requests_total{result=}
    out.family(
        "serve_cache_requests_total",
        "counter",
        "Query answers by cache outcome.",
    );
    for (counter, result) in CACHE_RESULTS {
        consumed.push(counter);
        out.sample(
            "serve_cache_requests_total",
            &[("result", result.to_owned())],
            snapshot.counters.get(counter).copied().unwrap_or(0) as f64,
        );
    }

    // serve_responses_total{code=}
    let codes: Vec<(&String, &u64)> = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve.status."))
        .collect();
    if !codes.is_empty() {
        out.family(
            "serve_responses_total",
            "counter",
            "Responses by status code.",
        );
        for (name, value) in codes {
            let code = name.trim_start_matches("serve.status.");
            out.sample(
                "serve_responses_total",
                &[("code", code.to_owned())],
                *value as f64,
            );
        }
    }

    // serve_requests_by_kind_total{kind=}
    let kinds: Vec<(String, u64)> = snapshot
        .counters
        .iter()
        .filter_map(|(name, value)| {
            name.strip_prefix("serve.kind.")
                .and_then(|rest| rest.strip_suffix(".requests"))
                .map(|kind| (kind.to_owned(), *value))
        })
        .collect();
    if !kinds.is_empty() {
        out.family(
            "serve_requests_by_kind_total",
            "counter",
            "Requests by kind label.",
        );
        for (kind, value) in &kinds {
            out.sample(
                "serve_requests_by_kind_total",
                &[("kind", kind.clone())],
                *value as f64,
            );
        }
    }

    // serve_trace_requests_total{trace=}
    let traces: Vec<(String, u64)> = snapshot
        .counters
        .iter()
        .filter_map(|(name, value)| {
            name.strip_prefix("serve.trace.")
                .and_then(|rest| rest.strip_suffix(".requests"))
                .map(|trace| (trace.to_owned(), *value))
        })
        .collect();
    if !traces.is_empty() {
        out.family(
            "serve_trace_requests_total",
            "counter",
            "Analysis requests by registry trace name.",
        );
        for (trace, value) in &traces {
            out.sample(
                "serve_trace_requests_total",
                &[("trace", trace.clone())],
                *value as f64,
            );
        }
    }

    // Per-kind latency summaries: lifetime and sliding-window.
    let latency: Vec<(String, HistogramSnapshot)> = snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            name.strip_prefix("serve.latency_ns.")
                .map(|kind| (kind.to_owned(), *h))
        })
        .collect();
    summary_block(
        &mut out,
        "serve_request_latency_ns",
        "Request latency by kind, nanoseconds, process lifetime.",
        &latency,
    );
    let windows = windows_under(snapshot, "serve.window.latency_ns.");
    window_block(
        &mut out,
        "serve_window_latency_ns",
        "Request latency by kind, nanoseconds, sliding window.",
        "kind",
        1.0,
        &windows,
    );
    if let Some((_, w)) = windows.first() {
        out.family(
            "serve_window_seconds",
            "gauge",
            "Width of the sliding latency window.",
        );
        out.sample("serve_window_seconds", &[], w.window_ms as f64 / 1000.0);
    }

    // Per-phase request time, sliding window: every answered request
    // records each phase once, zero for the phases it skipped.
    window_block(
        &mut out,
        "serve_phase_us",
        "Request time by server phase, microseconds, sliding window.",
        "phase",
        1_000.0,
        &windows_under(snapshot, PHASE_WINDOW_PREFIX),
    );

    // Live gauges.
    out.family(
        "serve_inflight",
        "gauge",
        "Requests currently being handled.",
    );
    out.sample("serve_inflight", &[], inflight as f64);

    // SLO standings.
    out.family(
        "serve_slo_healthy",
        "gauge",
        "1 while every kind meets both SLO budgets.",
    );
    out.sample("serve_slo_healthy", &[], f64::from(u8::from(slo.healthy)));
    if !slo.kinds.is_empty() {
        out.family(
            "serve_slo_latency_burn",
            "gauge",
            "Windowed p99 over the latency budget; above 1 the budget is blown.",
        );
        for (kind, k) in &slo.kinds {
            out.sample("serve_slo_latency_burn", &[("kind", kind.clone())], k.burn);
        }
        out.family(
            "serve_slo_error_rate",
            "gauge",
            "Windowed 5xx rate by kind.",
        );
        for (kind, k) in &slo.kinds {
            out.sample(
                "serve_slo_error_rate",
                &[("kind", kind.clone())],
                k.error_rate,
            );
        }
        out.family(
            "serve_slo_ok",
            "gauge",
            "1 while the kind meets both budgets.",
        );
        for (kind, k) in &slo.kinds {
            out.sample(
                "serve_slo_ok",
                &[("kind", kind.clone())],
                f64::from(u8::from(k.latency_ok && k.errors_ok)),
            );
        }
    }

    // Everything else in the registry, exported generically.
    for (name, value) in &snapshot.counters {
        if consumed.contains(&name.as_str())
            || name.starts_with("serve.status.")
            || name.starts_with("serve.kind.")
            || name.starts_with("serve.trace.")
        {
            continue;
        }
        let family = format!("{}_total", sanitize(name));
        out.family(&family, "counter", "Registry counter.");
        out.sample(&family, &[], *value as f64);
    }
    for (name, value) in &snapshot.gauges {
        if name == "serve.inflight" {
            continue; // exported live above
        }
        let family = sanitize(name);
        out.family(&family, "gauge", "Registry gauge.");
        out.sample(&family, &[], *value);
    }
    for (name, h) in &snapshot.histograms {
        if name.starts_with("serve.latency_ns.") {
            continue;
        }
        let family = sanitize(name);
        out.family(&family, "summary", "Registry histogram.");
        for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.95, h.p95), (0.99, h.p99)] {
            out.sample(&family, &[("quantile", q.to_string())], v);
        }
        out.sample(&format!("{family}_count"), &[], h.count as f64);
        out.sample(&format!("{family}_sum"), &[], h.sum as f64);
    }
    for (name, w) in &snapshot.windows {
        if name.starts_with("serve.window.latency_ns.") || name.starts_with(PHASE_WINDOW_PREFIX) {
            continue;
        }
        let family = sanitize(name);
        out.family(&family, "summary", "Registry sliding-window histogram.");
        for (q, v) in [(0.5, w.p50), (0.9, w.p90), (0.95, w.p95), (0.99, w.p99)] {
            out.sample(&family, &[("quantile", q.to_string())], v);
        }
        out.sample(&format!("{family}_count"), &[], w.count as f64);
        out.sample(&format!("{family}_sum"), &[], w.sum as f64);
    }

    out.text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promtext;
    use crate::slo::{SloPolicy, SloTracker};
    use hpcfail_obs::registry::Registry;

    fn serve_like_registry() -> Registry {
        let registry = Registry::new();
        registry.counter("serve.requests").add(12);
        registry.counter("serve.cache.hit").add(4);
        registry.counter("serve.cache.miss").add(7);
        registry.counter("serve.coalesced").add(1);
        registry.counter("serve.status.200").add(11);
        registry.counter("serve.status.400").add(1);
        registry.counter("serve.kind.trace-summary.requests").add(6);
        registry.counter("serve.trace.lanl-96.requests").add(5);
        registry.counter("engine.requests").add(6);
        registry.gauge("store.filter_hit_rate").set(0.5);
        for v in [1_000, 2_000, 50_000] {
            registry
                .histogram("serve.latency_ns.trace-summary")
                .record(v);
            registry
                .window("serve.window.latency_ns.trace-summary")
                .record_at_ms(0, v);
            registry
                .window("serve.window.phase_ns.engine")
                .record_at_ms(0, v);
        }
        registry
    }

    #[test]
    fn render_is_valid_promtext_with_labeled_series() {
        let registry = serve_like_registry();
        let tracker = SloTracker::new(SloPolicy::default());
        tracker.record("trace-summary", 2_000_000, false);
        let text = render(&registry.snapshot(), &tracker.report(), 3);

        let scrape = promtext::parse(&text).expect("render emits valid promtext");
        assert_eq!(scrape.value("serve_requests_total", &[]), Some(12.0));
        assert_eq!(
            scrape.value("serve_cache_requests_total", &[("result", "hit")]),
            Some(4.0)
        );
        assert_eq!(
            scrape.value("serve_responses_total", &[("code", "400")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("serve_requests_by_kind_total", &[("kind", "trace-summary")]),
            Some(6.0)
        );
        assert_eq!(
            scrape.value("serve_trace_requests_total", &[("trace", "lanl-96")]),
            Some(5.0)
        );
        assert_eq!(scrape.value("serve_inflight", &[]), Some(3.0));
        assert_eq!(scrape.value("serve_slo_healthy", &[]), Some(1.0));
        assert!(
            scrape
                .value(
                    "serve_request_latency_ns",
                    &[("kind", "trace-summary"), ("quantile", "0.99")]
                )
                .is_some(),
            "lifetime p99 present"
        );
        assert!(
            scrape
                .value(
                    "serve_window_latency_ns",
                    &[("kind", "trace-summary"), ("quantile", "0.99")]
                )
                .is_some(),
            "windowed p99 present"
        );
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
        assert!(
            !text.contains("serve_window_phase_ns"),
            "not exported twice"
        );
        // Generic export keeps the rest visible.
        assert_eq!(scrape.value("engine_requests_total", &[]), Some(6.0));
        assert_eq!(scrape.value("store_filter_hit_rate", &[]), Some(0.5));
        assert_eq!(scrape.types["serve_request_latency_ns"], "summary");
    }

    #[test]
    fn render_is_deterministic_for_a_snapshot() {
        let registry = serve_like_registry();
        let tracker = SloTracker::new(SloPolicy::default());
        let snapshot = registry.snapshot();
        let report = tracker.report();
        assert_eq!(render(&snapshot, &report, 0), render(&snapshot, &report, 0));
    }

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("serve.cache.hit"), "serve_cache_hit");
        assert_eq!(sanitize("0weird"), "_0weird");
        assert_eq!(sanitize("a-b c"), "a_b_c");
    }
}
