//! Bounded admission in front of the worker pool: cost classes,
//! brownout, typed load shedding.
//!
//! The gate caps how many `/query` and `/batch` requests may be *in
//! analysis* at once ([`AdmissionConfig::max_inflight`]); control
//! endpoints (`/healthz`, `/metrics`, `/requests`, `/shutdown`) never
//! pass through it, so the server stays observable and stoppable under
//! any overload. Each request is classified before admission:
//!
//! | class | meaning | brownout treatment |
//! |---|---|---|
//! | [`CostClass::Cheap`] | the result cache already holds the answer | admitted while any capacity remains |
//! | [`CostClass::Expensive`] | a cold scan must run | shed once the gate passes ¾ occupancy |
//! | [`CostClass::Batch`] | a multi-query batch | shed once the gate passes ¾ occupancy |
//!
//! When the gate is full a request either sheds immediately
//! ([`ShedPolicy::Reject`]) or waits in a bounded queue until its own
//! deadline ([`ShedPolicy::Brownout`]). Every shed is *typed*: the
//! caller gets a [`ShedReason`] that maps to a 429 (try again soon:
//! queue full / queue timeout) or 503 (capacity deliberately withheld:
//! brownout / draining / chaos) with a `Retry-After` hint — never a
//! silent drop. Shed decisions are counted both in gate-local atomics
//! (surfaced by `/healthz`) and as `serve.shed.*` registry counters
//! (surfaced by `/metrics` and the run manifest).
//!
//! Shutdown calls [`AdmissionGate::begin_drain`]: admitted requests
//! finish, queued waiters wake immediately and shed with
//! [`ShedReason::Draining`], and new arrivals shed at the door.

use hpcfail_obs::json::Json;
use hpcfail_obs::GaugeHandle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// How much work one admitted request represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// The result cache already holds the answer; admission is cheap.
    Cheap,
    /// A cold query: the engine must run an analysis.
    Expensive,
    /// A `/batch` request: several queries behind one admission.
    Batch,
}

impl CostClass {
    /// Stable label used in counters and logs.
    pub fn label(self) -> &'static str {
        match self {
            CostClass::Cheap => "cheap",
            CostClass::Expensive => "expensive",
            CostClass::Batch => "batch",
        }
    }
}

/// What the gate does when capacity runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Shed immediately at capacity; no queueing.
    Reject,
    /// Shed expensive classes once the gate passes ¾ occupancy; queue
    /// the rest (bounded, deadline-limited).
    #[default]
    Brownout,
}

impl ShedPolicy {
    /// Stable label (`reject` / `brownout`).
    pub fn label(self) -> &'static str {
        match self {
            ShedPolicy::Reject => "reject",
            ShedPolicy::Brownout => "brownout",
        }
    }
}

impl std::str::FromStr for ShedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reject" => Ok(ShedPolicy::Reject),
            "brownout" => Ok(ShedPolicy::Brownout),
            other => Err(format!(
                "unknown shed policy {other:?}; expected \"reject\" or \"brownout\""
            )),
        }
    }
}

/// Gate tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Most requests in analysis at once; 0 disables the gate (every
    /// request admits immediately).
    pub max_inflight: usize,
    /// Most requests waiting for a slot at once (beyond it: 429).
    pub max_queued: usize,
    /// What to do at capacity.
    pub policy: ShedPolicy,
    /// The `Retry-After` hint attached to shed responses, milliseconds.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 0,
            max_queued: 64,
            policy: ShedPolicy::Brownout,
            retry_after_ms: 50,
        }
    }
}

/// Why a request was shed. Every variant maps to a typed HTTP answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Gate and queue both full (or policy forbids queueing): 429.
    QueueFull,
    /// The request's deadline passed while it waited for a slot: 429.
    QueueTimeout,
    /// Brownout withheld capacity from an expensive class: 503.
    Brownout,
    /// The server is draining for shutdown: 503.
    Draining,
    /// A chaos rule forced this shed: 503.
    Chaos,
}

/// Every shed reason, in counter order.
pub const SHED_REASONS: [ShedReason; 5] = [
    ShedReason::QueueFull,
    ShedReason::QueueTimeout,
    ShedReason::Brownout,
    ShedReason::Draining,
    ShedReason::Chaos,
];

impl ShedReason {
    /// The HTTP status this shed answers with.
    pub fn status(self) -> u16 {
        match self {
            ShedReason::QueueFull | ShedReason::QueueTimeout => 429,
            ShedReason::Brownout | ShedReason::Draining | ShedReason::Chaos => 503,
        }
    }

    /// Stable label used in counters, headers and logs.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::QueueTimeout => "queue_timeout",
            ShedReason::Brownout => "brownout",
            ShedReason::Draining => "draining",
            ShedReason::Chaos => "chaos",
        }
    }

    /// Human-readable detail for the typed error body.
    pub fn message(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "admission queue is full; retry after the hinted delay",
            ShedReason::QueueTimeout => "deadline passed while waiting for an admission slot",
            ShedReason::Brownout => {
                "brownout: capacity reserved for cheap requests; retry after the hinted delay"
            }
            ShedReason::Draining => "server is draining for shutdown",
            ShedReason::Chaos => "chaos injection shed this request",
        }
    }

    fn index(self) -> usize {
        match self {
            ShedReason::QueueFull => 0,
            ShedReason::QueueTimeout => 1,
            ShedReason::Brownout => 2,
            ShedReason::Draining => 3,
            ShedReason::Chaos => 4,
        }
    }
}

#[derive(Debug)]
struct GateState {
    inflight: usize,
    queued: usize,
    draining: bool,
}

/// The bounded admission gate. One per server; shared by every worker.
#[derive(Debug)]
pub struct AdmissionGate {
    config: AdmissionConfig,
    state: Mutex<GateState>,
    available: Condvar,
    shed: [AtomicU64; 5],
    /// The occupancy gauges, resolved once.
    inflight_gauge: GaugeHandle,
    queued_gauge: GaugeHandle,
}

impl AdmissionGate {
    /// A gate with `config` limits, empty and not draining.
    pub fn new(config: AdmissionConfig) -> AdmissionGate {
        AdmissionGate {
            config,
            state: Mutex::new(GateState {
                inflight: 0,
                queued: 0,
                draining: false,
            }),
            available: Condvar::new(),
            shed: [const { AtomicU64::new(0) }; 5],
            inflight_gauge: hpcfail_obs::gauge("serve.admission.inflight"),
            queued_gauge: hpcfail_obs::gauge("serve.admission.queued"),
        }
    }

    /// The limits this gate enforces.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Occupancy above which brownout sheds expensive classes: ¾ of
    /// `max_inflight`, rounded up, at least 1.
    fn brownout_threshold(&self) -> usize {
        (self.config.max_inflight - self.config.max_inflight / 4).max(1)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish_gauges(&self, state: &GateState) {
        self.inflight_gauge.set(state.inflight as f64);
        self.queued_gauge.set(state.queued as f64);
    }

    fn shed(&self, class: CostClass, reason: ShedReason) -> ShedReason {
        self.shed[reason.index()].fetch_add(1, Ordering::SeqCst);
        hpcfail_obs::counter("serve.shed.total").inc();
        hpcfail_obs::counter(&format!("serve.shed.{}", reason.label())).inc();
        hpcfail_obs::counter(&format!("serve.shed.class.{}", class.label())).inc();
        reason
    }

    /// Records a chaos-forced shed (the decision was made by the chaos
    /// engine, not by gate occupancy) so it shows up in the same
    /// counters and the `/healthz` breakdown.
    pub fn record_chaos_shed(&self, class: CostClass) -> ShedReason {
        self.shed(class, ShedReason::Chaos)
    }

    /// Admits one request of `class`, waiting in the bounded queue up
    /// to `deadline` when the gate is full.
    ///
    /// # Errors
    ///
    /// A typed [`ShedReason`] when the request must be shed instead.
    pub fn admit(&self, class: CostClass, deadline: Instant) -> Result<Permit<'_>, ShedReason> {
        if self.config.max_inflight == 0 {
            // Gate disabled: track occupancy for drain, admit always.
            let mut state = self.lock();
            if state.draining {
                return Err(self.shed(class, ShedReason::Draining));
            }
            state.inflight += 1;
            self.publish_gauges(&state);
            return Ok(Permit { gate: self });
        }
        let mut state = self.lock();
        loop {
            if state.draining {
                return Err(self.shed(class, ShedReason::Draining));
            }
            if state.inflight < self.config.max_inflight {
                if self.config.policy == ShedPolicy::Brownout
                    && class != CostClass::Cheap
                    && state.inflight >= self.brownout_threshold()
                {
                    return Err(self.shed(class, ShedReason::Brownout));
                }
                state.inflight += 1;
                self.publish_gauges(&state);
                return Ok(Permit { gate: self });
            }
            if self.config.policy == ShedPolicy::Reject {
                return Err(self.shed(class, ShedReason::QueueFull));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self.shed(class, ShedReason::QueueTimeout));
            }
            if state.queued >= self.config.max_queued {
                return Err(self.shed(class, ShedReason::QueueFull));
            }
            state.queued += 1;
            self.publish_gauges(&state);
            let (next, _timeout) = self
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
            state.queued -= 1;
            self.publish_gauges(&state);
            // Loop: a freed slot admits, a passed deadline sheds as
            // QueueTimeout, drain sheds as Draining.
        }
    }

    /// Starts draining: queued waiters wake and shed immediately, new
    /// arrivals shed at the door, admitted requests run to completion.
    pub fn begin_drain(&self) {
        let mut state = self.lock();
        state.draining = true;
        drop(state);
        self.available.notify_all();
    }

    /// Requests currently admitted (holding a [`Permit`]).
    pub fn inflight(&self) -> usize {
        self.lock().inflight
    }

    /// Requests currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.lock().queued
    }

    /// Total sheds since boot, all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(|c| c.load(Ordering::SeqCst)).sum()
    }

    /// Sheds since boot for one reason.
    pub fn shed_count(&self, reason: ShedReason) -> u64 {
        self.shed[reason.index()].load(Ordering::SeqCst)
    }

    /// The `/healthz` `admission` object: limits, live occupancy and
    /// the per-reason shed breakdown.
    pub fn to_json(&self) -> Json {
        let state = self.lock();
        let sheds = SHED_REASONS.iter().map(|r| {
            (
                r.label(),
                Json::Num(self.shed[r.index()].load(Ordering::SeqCst) as f64),
            )
        });
        Json::obj([
            ("max_inflight", Json::Num(self.config.max_inflight as f64)),
            ("max_queued", Json::Num(self.config.max_queued as f64)),
            ("policy", Json::Str(self.config.policy.label().to_owned())),
            ("inflight", Json::Num(state.inflight as f64)),
            ("queued", Json::Num(state.queued as f64)),
            ("draining", Json::Bool(state.draining)),
            ("shed_total", Json::Num(self.shed_total() as f64)),
            ("shed", Json::obj(sheds)),
        ])
    }
}

/// An admitted request's slot; dropping it frees the slot and wakes one
/// queued waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.inflight = state.inflight.saturating_sub(1);
        self.gate.publish_gauges(&state);
        drop(state);
        self.gate.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn gate(max_inflight: usize, max_queued: usize, policy: ShedPolicy) -> AdmissionGate {
        AdmissionGate::new(AdmissionConfig {
            max_inflight,
            max_queued,
            policy,
            retry_after_ms: 10,
        })
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_millis(50)
    }

    #[test]
    fn disabled_gate_admits_everything() {
        let gate = gate(0, 0, ShedPolicy::Reject);
        let permits: Vec<_> = (0..32)
            .map(|_| gate.admit(CostClass::Batch, soon()).expect("admitted"))
            .collect();
        assert_eq!(gate.inflight(), 32);
        drop(permits);
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.shed_total(), 0);
    }

    #[test]
    fn reject_policy_sheds_at_capacity_without_queueing() {
        let gate = gate(2, 8, ShedPolicy::Reject);
        let a = gate.admit(CostClass::Cheap, soon()).expect("slot 1");
        let _b = gate.admit(CostClass::Cheap, soon()).expect("slot 2");
        let shed = gate.admit(CostClass::Cheap, soon()).expect_err("full");
        assert_eq!(shed, ShedReason::QueueFull);
        assert_eq!(shed.status(), 429);
        assert_eq!(gate.queued(), 0, "reject never queues");
        drop(a);
        gate.admit(CostClass::Cheap, soon())
            .expect("freed slot admits again");
    }

    #[test]
    fn brownout_sheds_expensive_classes_first() {
        // max_inflight 4 → threshold 3: with 3 admitted, expensive and
        // batch shed while cheap still enters.
        let gate = gate(4, 8, ShedPolicy::Brownout);
        let _held: Vec<_> = (0..3)
            .map(|_| gate.admit(CostClass::Cheap, soon()).expect("fill"))
            .collect();
        let shed = gate
            .admit(CostClass::Expensive, soon())
            .expect_err("browned out");
        assert_eq!(shed, ShedReason::Brownout);
        assert_eq!(shed.status(), 503);
        assert_eq!(
            gate.admit(CostClass::Batch, soon()).expect_err("batch too"),
            ShedReason::Brownout
        );
        gate.admit(CostClass::Cheap, soon())
            .expect("cheap still admitted under brownout");
    }

    #[test]
    fn queue_timeout_sheds_with_429() {
        let gate = gate(1, 8, ShedPolicy::Brownout);
        let _held = gate.admit(CostClass::Cheap, soon()).expect("slot");
        let deadline = Instant::now() + Duration::from_millis(30);
        let shed = gate
            .admit(CostClass::Cheap, deadline)
            .expect_err("deadline passes in queue");
        assert_eq!(shed, ShedReason::QueueTimeout);
        assert_eq!(shed.status(), 429);
        assert_eq!(gate.queued(), 0, "waiter left the queue");
    }

    #[test]
    fn queue_bound_sheds_queue_full() {
        let gate = gate(1, 1, ShedPolicy::Brownout);
        let held = gate.admit(CostClass::Cheap, soon()).expect("slot");
        // One waiter occupies the queue from another thread...
        std::thread::scope(|scope| {
            let waiter = scope
                .spawn(|| gate.admit(CostClass::Cheap, Instant::now() + Duration::from_secs(2)));
            while gate.queued() == 0 {
                std::thread::yield_now();
            }
            // ...so a second queue candidate sheds immediately.
            let shed = gate
                .admit(CostClass::Cheap, Instant::now() + Duration::from_secs(2))
                .expect_err("queue full");
            assert_eq!(shed, ShedReason::QueueFull);
            drop(held);
            waiter
                .join()
                .expect("waiter thread")
                .expect("queued waiter admitted after release");
        });
    }

    #[test]
    fn drain_wakes_queued_waiters_and_sheds_new_arrivals() {
        let gate = gate(1, 8, ShedPolicy::Brownout);
        let held = gate.admit(CostClass::Cheap, soon()).expect("slot");
        std::thread::scope(|scope| {
            let waiter = scope
                .spawn(|| gate.admit(CostClass::Cheap, Instant::now() + Duration::from_secs(10)));
            while gate.queued() == 0 {
                std::thread::yield_now();
            }
            gate.begin_drain();
            assert_eq!(
                waiter.join().expect("waiter thread").expect_err("drained"),
                ShedReason::Draining
            );
        });
        assert_eq!(
            gate.admit(CostClass::Cheap, soon()).expect_err("draining"),
            ShedReason::Draining
        );
        assert_eq!(gate.inflight(), 1, "admitted request still holds its slot");
        drop(held);
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn concurrency_never_exceeds_max_inflight() {
        let gate = gate(3, 64, ShedPolicy::Brownout);
        let live = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let deadline = Instant::now() + Duration::from_secs(5);
                        if let Ok(permit) = gate.admit(CostClass::Cheap, deadline) {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            high_water.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_micros(200));
                            live.fetch_sub(1, Ordering::SeqCst);
                            drop(permit);
                        }
                    }
                });
            }
        });
        assert!(
            high_water.load(Ordering::SeqCst) <= 3,
            "high water {} breached max_inflight",
            high_water.load(Ordering::SeqCst)
        );
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn shed_counts_break_down_by_reason_in_json() {
        let gate = gate(4, 8, ShedPolicy::Brownout);
        let _held: Vec<_> = (0..3)
            .map(|_| gate.admit(CostClass::Cheap, soon()).expect("fill"))
            .collect();
        let _ = gate.admit(CostClass::Expensive, soon());
        gate.record_chaos_shed(CostClass::Batch);
        let json = gate.to_json();
        assert_eq!(
            json.get("shed_total").and_then(Json::as_u64),
            Some(gate.shed_total())
        );
        assert_eq!(
            json.get("shed")
                .and_then(|s| s.get("chaos"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(json.get("policy").and_then(Json::as_str), Some("brownout"));
        assert!(gate.shed_count(ShedReason::Brownout) >= 1);
    }
}
