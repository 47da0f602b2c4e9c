//! Where planned requests go: a live server or an in-process engine.
//!
//! The in-process target is not a mock — it answers through the
//! server's own [`QueryService`] (result cache, coalescer, render
//! expression and batch wrapping), so harness bodies are the server's
//! bytes by construction and the differential tests can hold both
//! paths to the same answer. It pins one engine registered under
//! [`DEFAULT_TRACE`].
//!
//! The HTTP target is trace-scoped: it posts to
//! `/v1/traces/{name}/query` and `/v1/traces/{name}/batch`, aimed at
//! [`DEFAULT_TRACE`] unless told otherwise.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcfail_core::engine::{AnalysisRequest, Engine};
use hpcfail_obs::json::Json;
use hpcfail_serve::registry::ResolvedTrace;
use hpcfail_serve::{
    Answer, Client, QueryService, RetryPolicy, RetryingClient, ServerConfig, DEFAULT_TRACE,
};
use hpcfail_store::trace::Trace;

/// What one call produced, as the harness saw it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallOutcome {
    /// HTTP status (200 for in-process success); 0 = transport error.
    pub status: u16,
    /// Queries served from cache.
    pub hits: u64,
    /// Queries computed fresh.
    pub misses: u64,
    /// Queries that piggybacked on an identical in-flight query.
    pub coalesced: u64,
    /// The call hit its deadline (HTTP 504).
    pub timeout: bool,
    /// Shed answers (429/503) observed across every attempt,
    /// including ones a later retry recovered from.
    pub sheds: u64,
    /// Retries performed beyond the first attempt.
    pub retries: u64,
    /// Retries were exhausted while the last answer was still a shed
    /// or transport failure.
    pub gave_up: bool,
    /// Transport-level failure, if any.
    pub error: Option<String>,
    /// The response body.
    pub body: String,
}

/// A sink for planned requests.
pub trait Target: Sync {
    /// Issues one plan item: a single query (`requests.len() == 1`) or
    /// a batch. Returns what happened; implementations never panic on
    /// transport failures.
    fn call(&self, requests: &[&AnalysisRequest], deadline_ms: Option<u64>) -> CallOutcome;

    /// Stable label printed in the run summary ("in-process" / "http").
    fn label(&self) -> &'static str;
}

/// In-process target: one pinned engine behind the server's
/// [`QueryService`].
pub struct InProcess {
    resolved: ResolvedTrace,
    service: QueryService,
}

impl InProcess {
    /// Builds the target from a trace, with a result cache of
    /// `cache_capacity` entries (0 disables caching, like the server).
    pub fn new(trace: Trace, cache_capacity: usize) -> Self {
        let engine = Arc::new(Engine::new(trace));
        InProcess {
            resolved: ResolvedTrace {
                fingerprint: engine.fingerprint(),
                engine,
                epoch: 0,
            },
            service: QueryService::new(cache_capacity),
        }
    }

    /// The engine, for differential comparison against direct calls.
    pub fn engine(&self) -> &Engine {
        &self.resolved.engine
    }
}

impl Target for InProcess {
    /// Answers like the server's query (one request) or batch endpoint,
    /// with the server's deadline semantics: a coalesced wait gives up
    /// after `deadline_ms`, or the server's default deadline.
    fn call(&self, requests: &[&AnalysisRequest], deadline_ms: Option<u64>) -> CallOutcome {
        let deadline_ms = deadline_ms.unwrap_or(ServerConfig::default().default_deadline_ms);
        let deadline = Instant::now() + Duration::from_millis(deadline_ms.max(1));
        let mut outcome = CallOutcome {
            status: 200,
            ..CallOutcome::default()
        };
        let mut bodies = Vec::with_capacity(requests.len());
        for request in requests {
            let key = QueryService::key(DEFAULT_TRACE, &self.resolved, request);
            match self.service.answer(key, request, &self.resolved, deadline) {
                Answer::Fresh(body, _) => {
                    outcome.misses += 1;
                    bodies.push(body);
                }
                Answer::Cached(body) => {
                    outcome.hits += 1;
                    bodies.push(body);
                }
                Answer::Coalesced(body) => {
                    outcome.coalesced += 1;
                    bodies.push(body);
                }
                Answer::Degraded => {
                    outcome.status = 504;
                    outcome.timeout = true;
                    return outcome;
                }
                Answer::Failed(message) => {
                    outcome.status = 500;
                    outcome.body = message;
                    return outcome;
                }
            }
        }
        outcome.body = match bodies.as_slice() {
            [body] => (**body).clone(),
            _ => QueryService::batch_body(&bodies),
        };
        outcome
    }

    fn label(&self) -> &'static str {
        "in-process"
    }
}

/// HTTP target: a live `hpcfail-serve` instance, reached through a
/// [`RetryingClient`] so shed answers (429/503) and transport blips
/// are retried under the target's [`RetryPolicy`]. The default policy
/// is [`RetryPolicy::none`], which preserves single-attempt semantics.
pub struct Http {
    client: RetryingClient,
    query_path: String,
    batch_path: String,
}

impl Http {
    /// A single-attempt target for the server at `addr` (`host:port`),
    /// aimed at [`DEFAULT_TRACE`].
    pub fn new(addr: &str) -> Self {
        Http::with_retry(addr, RetryPolicy::none())
    }

    /// A target that retries sheds and transport failures per `policy`.
    pub fn with_retry(addr: &str, policy: RetryPolicy) -> Self {
        let mut target = Http {
            client: RetryingClient::new(
                Client::new(addr).with_timeout(Duration::from_secs(60)),
                policy,
            ),
            query_path: String::new(),
            batch_path: String::new(),
        };
        target.set_trace(DEFAULT_TRACE);
        target
    }

    /// Aims the target at the named trace's `/v1` endpoints instead of
    /// [`DEFAULT_TRACE`].
    #[must_use]
    pub fn with_trace(mut self, name: &str) -> Self {
        self.set_trace(name);
        self
    }

    fn set_trace(&mut self, name: &str) {
        self.query_path = format!("/v1/traces/{name}/query");
        self.batch_path = format!("/v1/traces/{name}/batch");
    }
}

impl Target for Http {
    fn call(&self, requests: &[&AnalysisRequest], deadline_ms: Option<u64>) -> CallOutcome {
        let deadline_value = deadline_ms.map(|d| d.to_string());
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(value) = &deadline_value {
            headers.push(("x-deadline-ms", value));
        }
        let (path, body) = if requests.len() == 1 {
            (self.query_path.as_str(), requests[0].canonical())
        } else {
            let items: Vec<Json> = requests.iter().map(|r| r.to_json()).collect();
            (self.batch_path.as_str(), Json::Arr(items).pretty())
        };
        let detailed = self.client.post_detailed(path, &body, &headers);
        let retries = u64::from(detailed.attempts.saturating_sub(1));
        let response = match detailed.result {
            Ok(response) => response,
            Err(err) => {
                return CallOutcome {
                    sheds: detailed.sheds,
                    retries,
                    gave_up: detailed.gave_up,
                    error: Some(err.to_string()),
                    ..CallOutcome::default()
                }
            }
        };
        let mut outcome = CallOutcome {
            status: response.status,
            timeout: response.status == 504,
            sheds: detailed.sheds,
            retries,
            gave_up: detailed.gave_up,
            body: response.body,
            ..CallOutcome::default()
        };
        // HTTP batches carry no per-query cache header, so only single
        // queries count toward the cache outcomes.
        if requests.len() == 1 {
            match response.headers.iter().find(|(n, _)| n == "x-cache") {
                Some((_, v)) if v == "hit" => outcome.hits = 1,
                Some((_, v)) if v == "miss" => outcome.misses = 1,
                Some((_, v)) if v == "coalesced" => outcome.coalesced = 1,
                _ => {}
            }
        }
        outcome
    }

    fn label(&self) -> &'static str {
        "http"
    }
}
