//! The server's request table: one record of every answered request,
//! and the SLO standings evaluated from it.
//!
//! Every answered request lands here once, under one lock, with its
//! kind label, status, latency and, for analysis requests that
//! resolved a trace, the trace's name. Per kind the [`SloTracker`]
//! keeps a lifetime latency histogram, a sliding-window latency
//! histogram and a windowed 5xx counter; beside them it counts
//! responses per status and requests per trace. The windows come from
//! `hpcfail_obs::window`, which is always compiled, so SLO evaluation
//! works even under `no-obs`.
//!
//! Evaluating the table against an [`SloPolicy`] yields an
//! [`SloReport`]: per-kind windowed p99 versus the latency budget (the
//! *burn* ratio) and windowed error rate versus the error budget. The
//! report feeds the `/healthz` body and the `top` dashboard; a
//! [`RequestSnapshot`] of the whole table feeds the per-kind,
//! per-status, per-trace and `serve_slo_*` families on `/metrics`.

use hpcfail_obs::json::Json;
use hpcfail_obs::registry::{Histogram, HistogramSnapshot};
use hpcfail_obs::window::{WindowCounter, WindowHistogram, WindowedSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The serving objectives a deployment promises.
#[derive(Debug, Clone, Copy)]
pub struct SloPolicy {
    /// Per-kind p99 latency budget over the window, milliseconds.
    pub latency_budget_ms: u64,
    /// Highest acceptable windowed error rate (5xx / requests).
    pub max_error_rate: f64,
    /// Evaluation window length, milliseconds, which is also the
    /// window of the per-kind latency summaries on `/metrics`. A
    /// shorter window lets `/healthz` recover faster after a storm
    /// (the chaos suite uses this); 30 s is the production default.
    pub window_ms: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            latency_budget_ms: 500,
            max_error_rate: 0.05,
            window_ms: 30_000,
        }
    }
}

struct KindTrack {
    lifetime: Histogram,
    window: WindowHistogram,
    errors: WindowCounter,
}

#[derive(Default)]
struct Table {
    kinds: BTreeMap<String, KindTrack>,
    statuses: BTreeMap<u16, u64>,
    traces: BTreeMap<String, u64>,
}

/// The entry for `key` in `map`, made by `make` on first use; only that
/// first use allocates the key.
fn entry<'a, V>(
    map: &'a mut BTreeMap<String, V>,
    key: &str,
    make: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), make());
    }
    map.get_mut(key).expect("present")
}

/// The live request table: per kind, per status and per trace.
pub struct SloTracker {
    policy: SloPolicy,
    table: Mutex<Table>,
}

impl SloTracker {
    /// An empty table evaluating against `policy`.
    pub fn new(policy: SloPolicy) -> SloTracker {
        SloTracker {
            policy,
            table: Mutex::new(Table::default()),
        }
    }

    /// Records one answered request: its kind, its status, the trace it
    /// resolved (if any) and its latency. A 5xx counts as an error.
    pub fn record(&self, kind: &str, status: u16, trace: Option<&str>, latency_ns: u64) {
        let mut table = self.table.lock().unwrap_or_else(|e| e.into_inner());
        *table.statuses.entry(status).or_default() += 1;
        if let Some(trace) = trace {
            *entry(&mut table.traces, trace, || 0) += 1;
        }
        let track = entry(&mut table.kinds, kind, || {
            // 30 slots over the window, whatever its length, with the
            // lifetime histogram's exponential nanosecond bounds.
            let slot_ms = (self.policy.window_ms / 30).max(1);
            let bounds: Vec<u64> = (10..37).map(|p| 1u64 << p).collect();
            KindTrack {
                lifetime: Histogram::exponential_ns(),
                window: WindowHistogram::with_bounds(&bounds, slot_ms, 30),
                errors: WindowCounter::new(slot_ms, 30),
            }
        });
        track.lifetime.record(latency_ns);
        track.window.record(latency_ns);
        if status >= 500 {
            track.errors.add(1);
        }
    }

    /// Evaluates every kind against the policy, right now.
    pub fn report(&self) -> SloReport {
        self.snapshot().slo
    }

    /// A point-in-time copy of the whole table, with the SLO standings
    /// its windows give.
    pub fn snapshot(&self) -> RequestSnapshot {
        let table = self.table.lock().unwrap_or_else(|e| e.into_inner());
        let budget_ns = self.policy.latency_budget_ms as f64 * 1e6;
        let mut kinds = Vec::new();
        let mut standings = BTreeMap::new();
        for (kind, track) in &table.kinds {
            let window = track.window.snapshot();
            kinds.push((kind.clone(), track.lifetime.snapshot(), window));
            let requests = window.count;
            if requests == 0 {
                continue; // nothing in the window any more
            }
            let errors = track.errors.total();
            let error_rate = errors as f64 / requests as f64;
            let burn = if budget_ns > 0.0 {
                window.p99 / budget_ns
            } else {
                0.0
            };
            standings.insert(
                kind.clone(),
                KindSlo {
                    requests,
                    errors,
                    error_rate,
                    p99_ms: window.p99 / 1e6,
                    budget_ms: self.policy.latency_budget_ms,
                    burn,
                    latency_ok: burn <= 1.0,
                    errors_ok: error_rate <= self.policy.max_error_rate,
                },
            );
        }
        RequestSnapshot {
            kinds,
            statuses: table.statuses.iter().map(|(&s, &n)| (s, n)).collect(),
            traces: table.traces.iter().map(|(t, &n)| (t.clone(), n)).collect(),
            slo: SloReport {
                healthy: standings.values().all(|k| k.latency_ok && k.errors_ok),
                max_error_rate: self.policy.max_error_rate,
                kinds: standings,
            },
        }
    }
}

/// A point-in-time copy of the request table.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSnapshot {
    /// Per kind label, in order: latency over the process lifetime
    /// (its count is the kind's request total) and over the SLO window
    /// (its count is the windowed request count), nanoseconds.
    pub kinds: Vec<(String, HistogramSnapshot, WindowedSnapshot)>,
    /// Responses per status code, ascending.
    pub statuses: Vec<(u16, u64)>,
    /// Analysis requests per resolved trace name, by name.
    pub traces: Vec<(String, u64)>,
    /// The SLO standings the windows give.
    pub slo: SloReport,
}

/// One kind's standing against the policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindSlo {
    /// Requests in the window.
    pub requests: u64,
    /// 5xx responses in the window.
    pub errors: u64,
    /// `errors / requests` over the window.
    pub error_rate: f64,
    /// Windowed p99 latency, milliseconds.
    pub p99_ms: f64,
    /// The latency budget, milliseconds.
    pub budget_ms: u64,
    /// `p99 / budget`: under 1.0 the budget holds.
    pub burn: f64,
    /// `true` while p99 stays within the budget.
    pub latency_ok: bool,
    /// `true` while the error rate stays within the budget.
    pub errors_ok: bool,
}

impl KindSlo {
    /// Serializes this kind's standing.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::Num(self.requests as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("error_rate", Json::Num(self.error_rate)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("budget_ms", Json::Num(self.budget_ms as f64)),
            ("burn", Json::Num(self.burn)),
            ("latency_ok", Json::Bool(self.latency_ok)),
            ("errors_ok", Json::Bool(self.errors_ok)),
        ])
    }
}

/// A point-in-time evaluation of every kind.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// `true` when every kind meets both budgets (vacuously true with
    /// no traffic in the window).
    pub healthy: bool,
    /// The error-rate budget the kinds were held to.
    pub max_error_rate: f64,
    /// Per-kind standings, keyed by kind label.
    pub kinds: BTreeMap<String, KindSlo>,
}

impl SloReport {
    /// Serializes the report as the `/healthz` `slo` object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "status",
                Json::Str(if self.healthy { "ok" } else { "degraded" }.to_owned()),
            ),
            ("max_error_rate", Json::Num(self.max_error_rate)),
            (
                "kinds",
                Json::obj(self.kinds.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_healthy() {
        let tracker = SloTracker::new(SloPolicy::default());
        let report = tracker.report();
        assert!(report.healthy);
        assert!(report.kinds.is_empty());
    }

    #[test]
    fn fast_clean_traffic_meets_both_budgets() {
        let tracker = SloTracker::new(SloPolicy {
            latency_budget_ms: 100,
            max_error_rate: 0.05,
            ..SloPolicy::default()
        });
        for _ in 0..100 {
            tracker.record("trace-summary", 200, None, 2_000_000); // 2 ms
        }
        let report = tracker.report();
        assert!(report.healthy);
        let kind = &report.kinds["trace-summary"];
        assert_eq!(kind.requests, 100);
        assert_eq!(kind.errors, 0);
        assert!(kind.latency_ok && kind.errors_ok);
        assert!(kind.burn < 1.0, "burn {}", kind.burn);
    }

    #[test]
    fn slow_or_failing_traffic_degrades() {
        let tracker = SloTracker::new(SloPolicy {
            latency_budget_ms: 1,
            max_error_rate: 0.01,
            ..SloPolicy::default()
        });
        for i in 0..50 {
            // 10 ms latency blows the 1 ms budget; every 5th is a 5xx.
            let status = if i % 5 == 0 { 500 } else { 200 };
            tracker.record("batch", status, None, 10_000_000);
        }
        let report = tracker.report();
        assert!(!report.healthy);
        let kind = &report.kinds["batch"];
        assert!(!kind.latency_ok, "p99 {} ms over 1 ms", kind.p99_ms);
        assert!(kind.burn > 1.0);
        assert!(!kind.errors_ok, "error rate {}", kind.error_rate);
    }

    #[test]
    fn one_record_feeds_every_column_of_the_table() {
        let tracker = SloTracker::new(SloPolicy::default());
        tracker.record("trace-summary", 200, Some("default"), 2_000);
        tracker.record("trace-summary", 503, Some("default"), 4_000);
        tracker.record("other", 404, None, 1_000);
        let table = tracker.snapshot();
        assert_eq!(table.statuses, [(200, 1), (404, 1), (503, 1)]);
        assert_eq!(table.traces, [("default".to_owned(), 2)]);
        let (kind, lifetime, window) = &table.kinds[1];
        assert_eq!(kind, "trace-summary");
        assert_eq!(lifetime.count, 2);
        assert_eq!(window.count, 2);
        let slo = table.slo.kinds["trace-summary"];
        assert_eq!((slo.requests, slo.errors, slo.error_rate), (2, 1, 0.5));
    }

    #[test]
    fn report_serializes_with_status() {
        let tracker = SloTracker::new(SloPolicy::default());
        tracker.record("healthz", 200, None, 1_000);
        let json = tracker.report().to_json();
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            json.pretty()
        );
        assert!(json.get("kinds").and_then(|k| k.get("healthz")).is_some());
    }
}
