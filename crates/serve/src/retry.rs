//! A retrying wrapper around [`Client`]: seeded jittered exponential
//! backoff, a global retry budget, and honor-`Retry-After` semantics.
//!
//! Shed responses (429/503) and transport failures (connection refused,
//! reset, dropped mid-response) are retried; every other status — 2xx,
//! 4xx client mistakes, injected 5xx other than 503 — returns on the
//! first attempt. Before re-sending, the client sleeps for whichever
//! the server hinted: `x-retry-after-ms` (exact milliseconds, set by
//! the admission gate), else `retry-after` (whole seconds, the
//! standard header), else seeded jittered exponential backoff
//! (`base · 2^(attempt-1)` capped at `max_delay_ms`, then jittered to
//! `[½, 1)` of that). The jitter stream is a [`SplitMix64`] over the
//! policy seed, so a retry sequence is reproducible in tests.
//!
//! The *budget* bounds total retries across the client's lifetime (not
//! per request): once spent, failures surface immediately instead of
//! amplifying an outage with retry traffic. [`RetryOutcome`] reports
//! what happened per request; [`RetryStats`] aggregates across them,
//! and `hpcfail-load run` prints the same shed/retried/gave-up counts.

use crate::client::{Client, Response};
use hpcfail_obs::rng::SplitMix64;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// When and how hard to retry.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included); at least 1.
    pub max_attempts: u32,
    /// First backoff step, milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_delay_ms: u64,
    /// Total retries allowed across the client's lifetime.
    pub budget: u64,
    /// Seed for the jitter stream; equal seeds ⇒ equal delays.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 1_000,
            budget: 1_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            budget: 0,
            ..RetryPolicy::default()
        }
    }
}

/// What one request cost through the retrying client.
#[derive(Debug)]
pub struct RetryOutcome {
    /// The final answer (or the final transport error).
    pub result: io::Result<Response>,
    /// Attempts actually sent (1 = no retry).
    pub attempts: u32,
    /// How many attempts came back shed (429/503).
    pub sheds: u64,
    /// `true` when retries were exhausted (or budget spent) while the
    /// last answer was still a shed or transport failure.
    pub gave_up: bool,
}

/// Lifetime totals across every request a [`RetryingClient`] sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retries actually performed (re-sends, not first attempts).
    pub retries: u64,
    /// Shed answers observed (429/503), including retried ones.
    pub sheds: u64,
    /// Requests that gave up without a non-shed answer.
    pub gave_up: u64,
}

/// A [`Client`] that retries shed and transport-failed requests.
#[derive(Debug)]
pub struct RetryingClient {
    client: Client,
    policy: RetryPolicy,
    jitter: Mutex<SplitMix64>,
    budget_left: AtomicU64,
    retries: AtomicU64,
    sheds: AtomicU64,
    gave_up: AtomicU64,
}

impl RetryingClient {
    /// Wraps `client` with `policy`.
    pub fn new(client: Client, policy: RetryPolicy) -> RetryingClient {
        RetryingClient {
            client,
            policy,
            jitter: Mutex::new(SplitMix64::new(policy.seed)),
            budget_left: AtomicU64::new(policy.budget),
            retries: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            gave_up: AtomicU64::new(0),
        }
    }

    /// Lifetime retry/shed/gave-up totals.
    pub fn stats(&self) -> RetryStats {
        RetryStats {
            retries: self.retries.load(Ordering::SeqCst),
            sheds: self.sheds.load(Ordering::SeqCst),
            gave_up: self.gave_up.load(Ordering::SeqCst),
        }
    }

    /// Sends a GET, retrying sheds and transport failures.
    ///
    /// # Errors
    ///
    /// The final transport error once retries are exhausted.
    pub fn get(&self, path: &str) -> io::Result<Response> {
        self.get_detailed(path).result
    }

    /// Like [`RetryingClient::get`], reporting the full
    /// [`RetryOutcome`].
    pub fn get_detailed(&self, path: &str) -> RetryOutcome {
        self.run(|| self.client.get(path))
    }

    /// Sends a POST, retrying sheds and transport failures, and reports
    /// the full [`RetryOutcome`].
    pub fn post_detailed(&self, path: &str, body: &str, headers: &[(&str, &str)]) -> RetryOutcome {
        self.run(|| self.client.post(path, body, headers))
    }

    fn run(&self, send: impl Fn() -> io::Result<Response>) -> RetryOutcome {
        let mut attempts = 0u32;
        let mut sheds = 0u64;
        loop {
            attempts += 1;
            let result = send();
            let retryable = match &result {
                Ok(response) if is_shed(response.status) => {
                    sheds += 1;
                    self.sheds.fetch_add(1, Ordering::SeqCst);
                    true
                }
                Ok(_) => false,
                Err(_) => true,
            };
            if !retryable {
                return RetryOutcome {
                    result,
                    attempts,
                    sheds,
                    gave_up: false,
                };
            }
            if attempts >= self.policy.max_attempts || !self.take_budget() {
                self.gave_up.fetch_add(1, Ordering::SeqCst);
                return RetryOutcome {
                    result,
                    attempts,
                    sheds,
                    gave_up: true,
                };
            }
            let delay = self.delay_before(attempts, result.as_ref().ok());
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            self.retries.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Claims one unit of retry budget; `false` once it is spent.
    fn take_budget(&self) -> bool {
        self.budget_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .is_ok()
    }

    /// The sleep before re-sending attempt `attempts + 1`: the
    /// server's hint when one came back, else seeded jittered
    /// exponential backoff.
    fn delay_before(&self, attempts: u32, response: Option<&Response>) -> Duration {
        if let Some(response) = response {
            if let Some(ms) = response
                .header("x-retry-after-ms")
                .and_then(|v| v.parse::<u64>().ok())
            {
                return Duration::from_millis(ms.min(self.policy.max_delay_ms));
            }
            if let Some(secs) = response
                .header("retry-after")
                .and_then(|v| v.parse::<u64>().ok())
            {
                return Duration::from_millis(
                    secs.saturating_mul(1_000).min(self.policy.max_delay_ms),
                );
            }
        }
        let exp = self
            .policy
            .base_delay_ms
            .saturating_mul(1u64 << (attempts - 1).min(20))
            .min(self.policy.max_delay_ms);
        let fraction = self
            .jitter
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .next_f64();
        Duration::from_millis(exp / 2 + (fraction * (exp as f64) / 2.0) as u64)
    }
}

/// `true` for the statuses the admission gate sheds with.
fn is_shed(status: u16) -> bool {
    status == 429 || status == 503
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(policy: RetryPolicy) -> RetryingClient {
        // Points at a dead address; only used for delay/stat logic.
        RetryingClient::new(Client::new("127.0.0.1:1"), policy)
    }

    fn shed_response(headers: &[(&str, &str)]) -> Response {
        Response {
            status: 429,
            headers: headers
                .iter()
                .map(|(n, v)| ((*n).to_owned(), (*v).to_owned()))
                .collect(),
            body: String::new(),
        }
    }

    #[test]
    fn exact_hint_beats_seconds_hint_beats_backoff() {
        let policy = RetryPolicy {
            base_delay_ms: 100,
            max_delay_ms: 10_000,
            ..RetryPolicy::default()
        };
        let c = client(policy);
        let both = shed_response(&[("x-retry-after-ms", "7"), ("retry-after", "2")]);
        assert_eq!(c.delay_before(1, Some(&both)), Duration::from_millis(7));
        let secs = shed_response(&[("retry-after", "2")]);
        assert_eq!(c.delay_before(1, Some(&secs)), Duration::from_millis(2_000));
        let bare = shed_response(&[]);
        let backoff = c.delay_before(3, Some(&bare));
        // Attempt 3 ⇒ exp = 400 ms, jittered into [200, 400).
        assert!(
            (Duration::from_millis(200)..Duration::from_millis(400)).contains(&backoff),
            "{backoff:?}"
        );
    }

    #[test]
    fn hints_are_capped_at_max_delay() {
        let policy = RetryPolicy {
            max_delay_ms: 50,
            ..RetryPolicy::default()
        };
        let c = client(policy);
        let huge = shed_response(&[("retry-after", "3600")]);
        assert_eq!(c.delay_before(1, Some(&huge)), Duration::from_millis(50));
    }

    #[test]
    fn seconds_hints_that_overflow_milliseconds_saturate_to_max_delay() {
        let policy = RetryPolicy {
            max_delay_ms: 5_000,
            ..RetryPolicy::default()
        };
        let c = client(policy);
        // 18446744073709552 s is the smallest value whose millisecond
        // count overflows u64; wrapping would give 384 ms.
        for secs in ["18446744073709552", &u64::MAX.to_string()] {
            let hint = shed_response(&[("retry-after", secs)]);
            assert_eq!(
                c.delay_before(1, Some(&hint)),
                Duration::from_millis(5_000),
                "retry-after: {secs}"
            );
        }
    }

    #[test]
    fn jitter_stream_is_seeded_and_reproducible() {
        let policy = RetryPolicy {
            base_delay_ms: 64,
            seed: 99,
            ..RetryPolicy::default()
        };
        let bare = shed_response(&[]);
        let delays = |policy| {
            let c = client(policy);
            (1..6)
                .map(|attempt| c.delay_before(attempt, Some(&bare)))
                .collect::<Vec<_>>()
        };
        assert_eq!(delays(policy), delays(policy));
        let reseeded = RetryPolicy {
            seed: 100,
            ..policy
        };
        assert_ne!(delays(policy), delays(reseeded));
    }

    #[test]
    fn transport_failures_retry_then_give_up() {
        // 127.0.0.1:1 refuses connections, so every attempt fails fast.
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 2,
            ..RetryPolicy::default()
        };
        let c = client(policy);
        let outcome = c.get_detailed("/v1/healthz");
        assert!(outcome.result.is_err());
        assert_eq!(outcome.attempts, 3);
        assert!(outcome.gave_up);
        assert_eq!(c.stats().retries, 2);
        assert_eq!(c.stats().gave_up, 1);
        assert_eq!(c.stats().sheds, 0);
    }

    #[test]
    fn spent_budget_stops_retrying() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 1,
            max_delay_ms: 1,
            budget: 3,
            ..RetryPolicy::default()
        };
        let c = client(policy);
        let first = c.get_detailed("/v1/healthz");
        assert_eq!(first.attempts, 4, "3 budgeted retries then give up");
        let second = c.get_detailed("/v1/healthz");
        assert_eq!(second.attempts, 1, "budget spent: no retries left");
        assert!(second.gave_up);
        assert_eq!(c.stats().retries, 3);
    }

    /// A header value: digits (some past `u64::MAX`), printable noise,
    /// or a number from anywhere in `u64`.
    fn hint_value(kind: u8, digits: String, noise: String, number: u64) -> String {
        match kind {
            0 => digits,
            1 => noise,
            _ => number.to_string(),
        }
    }

    /// Plain digits that fit a `u64`: the hint the server sends.
    fn well_formed(value: &str) -> Option<u64> {
        let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
        digits.then(|| value.parse().ok()).flatten()
    }

    proptest::proptest! {
        #[test]
        fn any_hint_and_attempt_gives_a_delay_under_the_ceiling(
            hints in (0u8..4, 0u8..3, "[0-9]{1,22}", "[ -~]{0,16}", 0u64..=u64::MAX),
            seconds_hint in (0u8..3, "[0-9]{1,22}", "[ -~]{0,16}", 0u64..=u64::MAX),
            attempts in 1u32..=64,
            base_delay_ms in proptest::prop::sample::select(
                vec![0u64, 1, 10, 1_000, 1 << 40, u64::MAX / 2, u64::MAX]),
            max_delay_ms in proptest::prop::sample::select(
                vec![0u64, 1, 50, 1_000, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX]),
            seed in 0u64..=u64::MAX,
        ) {
            let (present, kind, digits, noise, number) = hints;
            let exact = hint_value(kind, digits, noise, number);
            let (kind, digits, noise, number) = seconds_hint;
            let seconds = hint_value(kind, digits, noise, number);
            let mut headers = Vec::new();
            if present & 1 == 1 {
                headers.push(("x-retry-after-ms", exact.as_str()));
            }
            if present & 2 == 2 {
                headers.push(("retry-after", seconds.as_str()));
            }
            let policy = RetryPolicy {
                base_delay_ms,
                max_delay_ms,
                seed,
                ..RetryPolicy::default()
            };
            let delay = client(policy).delay_before(attempts, Some(&shed_response(&headers)));
            let ceiling = Duration::from_millis(max_delay_ms);
            proptest::prop_assert!(delay <= ceiling, "{:?} over {:?}", delay, ceiling);

            let exact = (present & 1 == 1).then(|| well_formed(&exact)).flatten();
            let seconds = (present & 2 == 2).then(|| well_formed(&seconds)).flatten();
            if let Some(ms) = exact {
                proptest::prop_assert_eq!(delay, Duration::from_millis(ms.min(max_delay_ms)));
            } else if let Some(secs) = seconds {
                let ms = secs.saturating_mul(1_000).min(max_delay_ms);
                proptest::prop_assert_eq!(delay, Duration::from_millis(ms));
            }
        }
    }

    #[test]
    fn none_policy_sends_exactly_once() {
        let c = client(RetryPolicy::none());
        let outcome = c.get_detailed("/v1/healthz");
        assert_eq!(outcome.attempts, 1);
        assert!(outcome.gave_up);
        assert_eq!(c.stats().retries, 0);
    }
}
