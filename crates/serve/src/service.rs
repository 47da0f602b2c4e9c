//! The one answer path: result cache, coalescing and the engine call
//! that produces a query's exact bytes.
//!
//! The server's query and batch endpoints and the load harness's
//! in-process target all answer through [`QueryService`], so a body
//! the harness sees is the server's body by construction: the cache
//! key, the render expression (`engine.run(req).to_json().pretty()`)
//! and the batch wrapping live here and nowhere else.
//!
//! The service records only the leader's `serve.query.<kind>` span,
//! around the engine run. Callers map each [`Answer`] to their own
//! counters, so a harness running in the same process as a server does
//! not inflate the server's `serve.cache.*` counters. A fresh answer
//! carries what its engine run and render cost ([`Compute`]); the
//! server places its phase stamps from it.

use crate::cache::{CacheKey, ResultCache};
use crate::coalesce::{Claim, Coalescer};
use crate::phase::{self, Compute};
use crate::registry::ResolvedTrace;
use hpcfail_core::engine::AnalysisRequest;
use hpcfail_obs::json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// How one query was answered.
pub enum Answer {
    /// Computed by this call, at this cost.
    Fresh(Arc<String>, Compute),
    /// Served from the result cache.
    Cached(Arc<String>),
    /// Shared from another caller's identical in-flight query.
    Coalesced(Arc<String>),
    /// The deadline passed while waiting on the in-flight leader.
    Degraded,
    /// The analysis panicked; the message is sanitized.
    Failed(String),
}

impl Answer {
    /// What computing this answer cost; zero unless it is fresh.
    pub fn compute(&self) -> Compute {
        match self {
            Answer::Fresh(_, compute) => *compute,
            _ => Compute::default(),
        }
    }
}

/// A result cache and a coalescer in front of pinned engines.
pub struct QueryService {
    cache: ResultCache,
    coalescer: Coalescer,
}

impl QueryService {
    /// A service whose cache holds `cache_capacity` results (0
    /// disables caching; coalescing still applies).
    pub fn new(cache_capacity: usize) -> Self {
        QueryService {
            cache: ResultCache::new(cache_capacity),
            coalescer: Coalescer::new(),
        }
    }

    /// The cache key for `request` against `trace_name`'s pinned epoch.
    ///
    /// The key carries the *epoch fingerprint*, not just the name: a
    /// re-uploaded trace with different data can never serve a
    /// predecessor's cached bytes, while re-uploading identical data
    /// keeps the warm entries.
    pub fn key(trace_name: &str, resolved: &ResolvedTrace, request: &AnalysisRequest) -> CacheKey {
        (
            trace_name.to_owned(),
            resolved.fingerprint,
            request.canonical(),
        )
    }

    /// `true` when `key` has a cached body (bumping its recency — the
    /// hit is about to serve).
    pub fn is_cached(&self, key: &CacheKey) -> bool {
        self.cache.get(key).is_some()
    }

    /// Answers `request` (whose key is `key`) against the pinned
    /// epoch: a cache hit, else a coalesced wait on an identical
    /// in-flight query until `deadline`, else a fresh, panic-safe
    /// computation that fills the cache.
    pub fn answer(
        &self,
        key: CacheKey,
        request: &AnalysisRequest,
        resolved: &ResolvedTrace,
        deadline: Instant,
    ) -> Answer {
        if let Some(body) = self.cache.get(&key) {
            return Answer::Cached(body);
        }
        match self.coalescer.claim(&key) {
            Claim::Leader(guard) => {
                let start = phase::clock();
                let computed = catch_unwind(AssertUnwindSafe(|| {
                    let result = {
                        let span = hpcfail_obs::span(&format!("serve.query.{}", request.kind()));
                        span.attr("kind", request.kind());
                        resolved.engine.run(request)
                    };
                    let ran = phase::clock();
                    (Arc::new(result.to_json().pretty()), ran)
                }));
                match computed {
                    Ok((body, ran)) => {
                        let compute = Compute::between(start, ran, phase::clock());
                        self.cache.put(key, Arc::clone(&body));
                        self.coalescer.complete(guard, Arc::clone(&body));
                        Answer::Fresh(body, compute)
                    }
                    Err(_) => {
                        self.coalescer.abandon(guard);
                        Answer::Failed(format!(
                            "analysis {} panicked; see server logs",
                            request.kind()
                        ))
                    }
                }
            }
            Claim::Follower(flight) => match flight.wait(deadline) {
                Some(body) => Answer::Coalesced(body),
                None => Answer::Degraded,
            },
        }
    }

    /// The batch body: each element is the exact query body for that
    /// request, embedded as a JSON string so per-query byte-identity
    /// survives batching.
    pub fn batch_body(bodies: &[Arc<String>]) -> String {
        let items = bodies.iter().map(|body| Json::Str((**body).clone()));
        Json::obj([("results", Json::Arr(items.collect()))]).pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_core::engine::Engine;
    use hpcfail_store::trace::Trace;
    use std::time::Duration;

    fn pinned() -> ResolvedTrace {
        let engine = Arc::new(Engine::new(Trace::new()));
        ResolvedTrace {
            fingerprint: engine.fingerprint(),
            engine,
            epoch: 0,
        }
    }

    #[test]
    fn a_miss_renders_the_engine_bytes_and_the_repeat_hits() {
        let service = QueryService::new(8);
        let resolved = pinned();
        let request = AnalysisRequest::TraceSummary;
        let key = QueryService::key("default", &resolved, &request);
        let deadline = Instant::now() + Duration::from_secs(5);
        let expected = resolved.engine.run(&request).to_json().pretty();
        assert!(!service.is_cached(&key));
        match service.answer(key.clone(), &request, &resolved, deadline) {
            Answer::Fresh(body, _) => assert_eq!(*body, expected),
            _ => panic!("first answer must be fresh"),
        }
        assert!(service.is_cached(&key));
        match service.answer(key, &request, &resolved, deadline) {
            Answer::Cached(body) => assert_eq!(*body, expected),
            _ => panic!("second answer must be cached"),
        }
    }
}
