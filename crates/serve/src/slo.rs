//! Per-kind SLO tracking over a sliding window.
//!
//! Every served request lands here with its kind label, latency and
//! error flag. The tracker keeps, per kind, a sliding-window latency
//! histogram and windowed request/error counters (the window machinery
//! comes from `hpcfail_obs::window`, which is always compiled — SLO
//! evaluation works even under `no-obs`). Evaluating the tracker
//! against an [`SloPolicy`] yields an [`SloReport`]: per-kind p99
//! versus the latency budget (the *burn* ratio) and windowed error
//! rate versus the error budget. The report feeds the enriched
//! `/healthz` body, the `serve_slo_*` series on `/metrics`, and the
//! `top` dashboard.

use hpcfail_obs::json::Json;
use hpcfail_obs::window::{WindowCounter, WindowHistogram};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The serving objectives a deployment promises.
#[derive(Debug, Clone, Copy)]
pub struct SloPolicy {
    /// Per-kind p99 latency budget over the window, milliseconds.
    pub latency_budget_ms: u64,
    /// Highest acceptable windowed error rate (5xx / requests).
    pub max_error_rate: f64,
    /// Evaluation window length, milliseconds. A shorter window lets
    /// `/healthz` recover faster after a storm (the chaos suite uses
    /// this); 30 s is the production default.
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
    latency: WindowHistogram,
    requests: WindowCounter,
    errors: WindowCounter,
}

/// Exponential nanosecond bounds (1 µs to ~64 s), matching
/// `WindowHistogram::exponential_ns`.
fn latency_bounds() -> Vec<u64> {
    (10..37).map(|p| 1u64 << p).collect()
}

impl KindTrack {
    fn new(window_ms: u64) -> KindTrack {
        // 30 slots over the window, whatever its length.
        let slot_ms = (window_ms / 30).max(1);
        KindTrack {
            latency: WindowHistogram::with_bounds(&latency_bounds(), slot_ms, 30),
            requests: WindowCounter::new(slot_ms, 30),
            errors: WindowCounter::new(slot_ms, 30),
        }
    }

    fn record(&mut self, latency_ns: u64, error: bool) {
        self.latency.record(latency_ns);
        self.requests.add(1);
        if error {
            self.errors.add(1);
        }
    }
}

/// The live tracker: one window set per request kind.
pub struct SloTracker {
    policy: SloPolicy,
    kinds: Mutex<BTreeMap<String, KindTrack>>,
}

impl SloTracker {
    /// An empty tracker evaluating against `policy`.
    pub fn new(policy: SloPolicy) -> SloTracker {
        SloTracker {
            policy,
            kinds: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records one served request.
    pub fn record(&self, kind: &str, latency_ns: u64, error: bool) {
        let mut kinds = match self.kinds.lock() {
            Ok(kinds) => kinds,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Only a kind's first request allocates its key.
        match kinds.get_mut(kind) {
            Some(track) => track.record(latency_ns, error),
            None => {
                let mut track = KindTrack::new(self.policy.window_ms);
                track.record(latency_ns, error);
                kinds.insert(kind.to_owned(), track);
            }
        }
    }

    /// Evaluates every kind against the policy, right now.
    pub fn report(&self) -> SloReport {
        let kinds = match self.kinds.lock() {
            Ok(kinds) => kinds,
            Err(poisoned) => poisoned.into_inner(),
        };
        let budget_ns = self.policy.latency_budget_ms as f64 * 1e6;
        let mut out = BTreeMap::new();
        for (kind, track) in kinds.iter() {
            let latency = track.latency.snapshot();
            let requests = track.requests.total();
            let errors = track.errors.total();
            if requests == 0 && latency.count == 0 {
                continue; // nothing in the window any more
            }
            let error_rate = if requests == 0 {
                0.0
            } else {
                errors as f64 / requests as f64
            };
            let burn = if budget_ns > 0.0 {
                latency.p99 / budget_ns
            } else {
                0.0
            };
            out.insert(
                kind.clone(),
                KindSlo {
                    requests,
                    errors,
                    error_rate,
                    p99_ms: latency.p99 / 1e6,
                    budget_ms: self.policy.latency_budget_ms,
                    burn,
                    latency_ok: burn <= 1.0,
                    errors_ok: error_rate <= self.policy.max_error_rate,
                },
            );
        }
        SloReport {
            healthy: out.values().all(|k| k.latency_ok && k.errors_ok),
            max_error_rate: self.policy.max_error_rate,
            kinds: out,
        }
    }
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
            tracker.record("trace-summary", 2_000_000, false); // 2 ms
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
            tracker.record("batch", 10_000_000, i % 5 == 0);
        }
        let report = tracker.report();
        assert!(!report.healthy);
        let kind = &report.kinds["batch"];
        assert!(!kind.latency_ok, "p99 {} ms over 1 ms", kind.p99_ms);
        assert!(kind.burn > 1.0);
        assert!(!kind.errors_ok, "error rate {}", kind.error_rate);
    }

    #[test]
    fn report_serializes_with_status() {
        let tracker = SloTracker::new(SloPolicy::default());
        tracker.record("healthz", 1_000, false);
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
