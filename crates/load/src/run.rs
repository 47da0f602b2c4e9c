//! Plan execution: claim items off a shared cursor, observe outcomes.
//!
//! Workers race only for *position*: an atomic cursor hands each
//! worker the next plan item, so every item executes exactly once and
//! the per-kind query counts are independent of the thread count (the
//! determinism tests pin this down). Open-loop profiles pace claims
//! against the wall clock; a worker sleeps until its item's scheduled
//! release time, with concurrency still bounded by the worker count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hpcfail_core::engine::AnalysisRequest;

use crate::mix::{Arrival, MixConfig};
use crate::plan::LoadPlan;
use crate::target::Target;

/// Executor knobs.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads issuing requests.
    pub threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { threads: 4 }
    }
}

/// Everything observed over one run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Plan items issued.
    pub items: u64,
    /// Queries issued (batches counted per query).
    pub queries: u64,
    /// Non-2xx, non-timeout responses plus transport errors (items
    /// that gave up retrying are counted under `gave_up` instead).
    pub errors: u64,
    /// Deadline expiries (HTTP 504).
    pub timeouts: u64,
    /// Shed answers (429/503) observed, retried ones included.
    pub sheds: u64,
    /// Retries performed beyond first attempts.
    pub retries: u64,
    /// Items whose retries were exhausted without a non-shed answer.
    pub gave_up: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Coalesced with an identical in-flight query.
    pub coalesced: u64,
    /// Per-item latencies, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
    /// Queries actually executed, per request kind.
    pub executed_per_kind: BTreeMap<String, u64>,
}

impl RunStats {
    fn absorb(&mut self, other: RunStats) {
        self.items += other.items;
        self.queries += other.queries;
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.sheds += other.sheds;
        self.retries += other.retries;
        self.gave_up += other.gave_up;
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.latencies_us.extend(other.latencies_us);
        for (kind, count) in other.executed_per_kind {
            *self.executed_per_kind.entry(kind).or_insert(0) += count;
        }
    }

    /// Hit rate over lookups with a known outcome; 0 when none.
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }

    /// All per-item latencies, sorted, microseconds.
    pub fn sorted_latencies_us(&self) -> Vec<u64> {
        let mut all = self.latencies_us.clone();
        all.sort_unstable();
        all
    }
}

/// Nearest-rank quantile of an already-sorted slice; 0 when empty.
pub fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Executes `plan` against `target` with `options.threads` workers.
///
/// # Panics
///
/// If `options.threads` is 0 or a plan item references a corpus index
/// out of bounds (both are construction bugs, not runtime conditions).
pub fn execute(
    corpus: &[AnalysisRequest],
    plan: &LoadPlan,
    config: &MixConfig,
    target: &dyn Target,
    options: RunOptions,
) -> RunStats {
    assert!(options.threads > 0, "at least one worker thread");
    let _span = hpcfail_obs::span("load.execute");
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let latency_histogram = hpcfail_obs::histogram("load.latency_us");
    let request_counter = hpcfail_obs::counter("load.requests");
    let error_counter = hpcfail_obs::counter("load.errors");

    let worker = || {
        let mut stats = RunStats::default();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = plan.items.get(index) else {
                break;
            };
            if let Arrival::Open { rate_per_sec } = config.arrival {
                let release = started + Duration::from_secs_f64(index as f64 / rate_per_sec);
                let now = Instant::now();
                if release > now {
                    std::thread::sleep(release - now);
                }
            }
            let requests: Vec<&AnalysisRequest> =
                item.requests.iter().map(|&i| &corpus[i]).collect();
            let issued = Instant::now();
            let outcome = target.call(&requests, item.deadline_ms);
            let latency_us = issued.elapsed().as_micros() as u64;
            latency_histogram.record(latency_us);
            request_counter.add(1);
            stats.items += 1;
            stats.queries += requests.len() as u64;
            stats.hits += outcome.hits;
            stats.misses += outcome.misses;
            stats.coalesced += outcome.coalesced;
            stats.latencies_us.push(latency_us);
            stats.sheds += outcome.sheds;
            stats.retries += outcome.retries;
            if outcome.timeout {
                stats.timeouts += 1;
            } else if outcome.gave_up {
                stats.gave_up += 1;
            } else if outcome.error.is_some() || !(200..300).contains(&outcome.status) {
                stats.errors += 1;
                error_counter.add(1);
            }
            for request in &requests {
                *stats
                    .executed_per_kind
                    .entry(request.kind().to_owned())
                    .or_insert(0) += 1;
            }
        }
        stats
    };

    let mut merged = RunStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.threads).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            merged.absorb(handle.join().expect("load worker panicked"));
        }
    });
    merged.wall = started.elapsed();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_us(&sorted, 0.50), 50);
        assert_eq!(quantile_us(&sorted, 0.90), 90);
        assert_eq!(quantile_us(&sorted, 0.99), 99);
        assert_eq!(quantile_us(&sorted, 1.0), 100);
        assert_eq!(quantile_us(&[], 0.5), 0);
        assert_eq!(quantile_us(&[7], 0.5), 7);
    }
}
