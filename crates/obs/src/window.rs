//! Sliding-window metrics: quantiles and rates over the last N
//! seconds, not since boot.
//!
//! A [`WindowHistogram`] is a ring of fixed-duration slots, each
//! holding the same log-bucketed count layout as the cumulative
//! [`Histogram`](crate::registry::Histogram). Recording lands an
//! observation in the slot covering "now"; reading merges every slot
//! still inside the window and interpolates quantiles exactly like the
//! cumulative histogram does. Slots are recycled lazily: the first
//! record (or read) that finds a slot stamped with an expired period
//! zeroes it, so an idle histogram decays to empty without a
//! background thread.
//!
//! Consistency: rotation takes a per-slot mutex, observation is a pair
//! of relaxed atomics. A record racing a rotation of the *same* slot —
//! which requires the two events to be a full window apart — can land
//! in the fresh period. Live telemetry tolerates that; nothing here
//! feeds the deterministic analysis path.
//!
//! All public entry points also accept an explicit elapsed-millisecond
//! position (`record_at_ms`, `snapshot_at_ms`) so tests can drive the
//! clock instead of sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A slot stamped with this period is empty (never used).
const EMPTY: u64 = u64::MAX;

#[derive(Debug)]
struct Slot {
    /// Which period index the counts below belong to; [`EMPTY`] if none.
    period: AtomicU64,
    rotate: Mutex<()>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Slot {
    fn new(buckets: usize) -> Slot {
        Slot {
            period: AtomicU64::new(EMPTY),
            rotate: Mutex::new(()),
            counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Makes the slot current for `period`, zeroing stale contents.
    fn rotate_to(&self, period: u64) {
        if self.period.load(Ordering::Acquire) == period {
            return;
        }
        let _guard = self.rotate.lock().unwrap_or_else(|e| e.into_inner());
        if self.period.load(Ordering::Acquire) == period {
            return;
        }
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.period.store(period, Ordering::Release);
    }
}

#[derive(Debug)]
struct WindowCore {
    bounds: Vec<u64>,
    slot_ms: u64,
    slots: Vec<Slot>,
    start: Instant,
}

/// A sliding-window histogram: live p50/p90/p95/p99 over the last
/// `slots × slot_ms` milliseconds. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct WindowHistogram {
    core: Arc<WindowCore>,
}

impl WindowHistogram {
    /// A window of `slots` slots of `slot_ms` each, with explicit
    /// ascending bucket bounds (same semantics as
    /// [`Histogram::with_bounds`](crate::registry::Histogram::with_bounds)).
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`, `slot_ms == 0`, or `bounds` is empty or
    /// not strictly ascending.
    pub fn with_bounds(bounds: &[u64], slot_ms: u64, slots: usize) -> Self {
        assert!(slots > 0, "window needs at least one slot");
        assert!(slot_ms > 0, "slots need a positive duration");
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        WindowHistogram {
            core: Arc::new(WindowCore {
                bounds: bounds.to_vec(),
                slot_ms,
                slots: (0..slots).map(|_| Slot::new(bounds.len() + 1)).collect(),
                start: Instant::now(),
            }),
        }
    }

    /// The default serving layout: the exponential nanosecond bounds of
    /// [`Histogram::exponential_ns`](crate::registry::Histogram::exponential_ns)
    /// over a 30-second window of 1-second slots.
    pub fn exponential_ns() -> Self {
        let bounds: Vec<u64> = (10..37).map(|p| 1u64 << p).collect();
        WindowHistogram::with_bounds(&bounds, 1_000, 30)
    }

    /// The window length in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.core.slot_ms * self.core.slots.len() as u64
    }

    fn now_ms(&self) -> u64 {
        self.core.start.elapsed().as_millis() as u64
    }

    /// Records one observation at the current time.
    pub fn record(&self, value: u64) {
        self.record_at_ms(self.now_ms(), value);
    }

    /// Records one observation as if it happened `at_ms` milliseconds
    /// after the histogram was created (test hook; production callers
    /// use [`WindowHistogram::record`]).
    pub fn record_at_ms(&self, at_ms: u64, value: u64) {
        let period = at_ms / self.core.slot_ms;
        let slot = &self.core.slots[(period % self.core.slots.len() as u64) as usize];
        slot.rotate_to(period);
        let idx = self.core.bounds.partition_point(|&b| b <= value);
        slot.counts[idx].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        slot.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The live statistics over the window ending now.
    pub fn snapshot(&self) -> WindowedSnapshot {
        self.snapshot_at_ms(self.now_ms())
    }

    /// The statistics over the window ending at `at_ms` (test hook).
    pub fn snapshot_at_ms(&self, at_ms: u64) -> WindowedSnapshot {
        let current = at_ms / self.core.slot_ms;
        let oldest = current.saturating_sub(self.core.slots.len() as u64 - 1);
        let mut merged = vec![0u64; self.core.bounds.len() + 1];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for slot in &self.core.slots {
            let period = slot.period.load(Ordering::Acquire);
            if period == EMPTY || period < oldest || period > current {
                continue;
            }
            for (m, c) in merged.iter_mut().zip(&slot.counts) {
                *m += c.load(Ordering::Relaxed);
            }
            count += slot.count.load(Ordering::Relaxed);
            sum += slot.sum.load(Ordering::Relaxed);
            max = max.max(slot.max.load(Ordering::Relaxed));
        }
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
            let mut seen = 0u64;
            for (i, &in_bucket) in merged.iter().enumerate() {
                if in_bucket == 0 {
                    continue;
                }
                if (seen + in_bucket) as f64 >= rank {
                    let lo = if i == 0 { 0 } else { self.core.bounds[i - 1] };
                    let hi = if i < self.core.bounds.len() {
                        self.core.bounds[i]
                    } else {
                        max.max(lo + 1)
                    };
                    let frac = (rank - seen as f64) / in_bucket as f64;
                    return lo as f64 + frac * (hi - lo) as f64;
                }
                seen += in_bucket;
            }
            max as f64
        };
        WindowedSnapshot {
            window_ms: self.window_ms(),
            count,
            sum,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Frozen sliding-window statistics; all quantiles are over the window
/// only, and an idle window reads as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowedSnapshot {
    /// The window length the statistics cover, in milliseconds.
    pub window_ms: u64,
    /// Observations inside the window.
    pub count: u64,
    /// Sum of observations inside the window.
    pub sum: u64,
    /// Largest observation inside the window.
    pub max: u64,
    /// Estimated windowed median.
    pub p50: f64,
    /// Estimated windowed 90th percentile.
    pub p90: f64,
    /// Estimated windowed 95th percentile.
    pub p95: f64,
    /// Estimated windowed 99th percentile.
    pub p99: f64,
}

/// A sliding-window event counter: totals over the last
/// `slots × slot_ms` milliseconds. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct WindowCounter {
    slot_ms: u64,
    slots: Arc<Vec<CounterSlot>>,
    start: Arc<Instant>,
}

#[derive(Debug)]
struct CounterSlot {
    period: AtomicU64,
    rotate: Mutex<()>,
    total: AtomicU64,
}

impl CounterSlot {
    fn rotate_to(&self, period: u64) {
        if self.period.load(Ordering::Acquire) == period {
            return;
        }
        let _guard = self.rotate.lock().unwrap_or_else(|e| e.into_inner());
        if self.period.load(Ordering::Acquire) == period {
            return;
        }
        self.total.store(0, Ordering::Relaxed);
        self.period.store(period, Ordering::Release);
    }
}

impl WindowCounter {
    /// A counter over `slots` slots of `slot_ms` milliseconds each.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `slot_ms == 0`.
    pub fn new(slot_ms: u64, slots: usize) -> Self {
        assert!(slots > 0, "window needs at least one slot");
        assert!(slot_ms > 0, "slots need a positive duration");
        WindowCounter {
            slot_ms,
            slots: Arc::new(
                (0..slots)
                    .map(|_| CounterSlot {
                        period: AtomicU64::new(EMPTY),
                        rotate: Mutex::new(()),
                        total: AtomicU64::new(0),
                    })
                    .collect(),
            ),
            start: Arc::new(Instant::now()),
        }
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Adds `n` events at the current time.
    pub fn add(&self, n: u64) {
        self.add_at_ms(self.now_ms(), n);
    }

    /// Adds `n` events at `at_ms` (test hook).
    pub fn add_at_ms(&self, at_ms: u64, n: u64) {
        let period = at_ms / self.slot_ms;
        let slot = &self.slots[(period % self.slots.len() as u64) as usize];
        slot.rotate_to(period);
        slot.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Events inside the window ending now.
    pub fn total(&self) -> u64 {
        self.total_at_ms(self.now_ms())
    }

    /// Events inside the window ending at `at_ms` (test hook).
    pub fn total_at_ms(&self, at_ms: u64) -> u64 {
        let current = at_ms / self.slot_ms;
        let oldest = current.saturating_sub(self.slots.len() as u64 - 1);
        self.slots
            .iter()
            .filter(|slot| {
                let p = slot.period.load(Ordering::Acquire);
                p != EMPTY && p >= oldest && p <= current
            })
            .map(|slot| slot.total.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_reads_zero() {
        let w = WindowHistogram::exponential_ns();
        let snap = w.snapshot_at_ms(0);
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p99, 0.0);
        assert_eq!(snap.window_ms, 30_000);
    }

    #[test]
    fn observations_age_out_of_the_window() {
        let w = WindowHistogram::with_bounds(&[10, 100, 1_000], 1_000, 5);
        for i in 0..50 {
            w.record_at_ms(0, 40 + i);
        }
        assert_eq!(w.snapshot_at_ms(0).count, 50);
        // Still inside the 5-second window.
        assert_eq!(w.snapshot_at_ms(4_500).count, 50);
        // A full window later everything has aged out.
        assert_eq!(w.snapshot_at_ms(5_000).count, 0);
    }

    #[test]
    fn windowed_quantiles_track_recent_values_only() {
        let w = WindowHistogram::with_bounds(&[10, 100, 1_000, 10_000], 1_000, 5);
        // An old burst of slow observations...
        for _ in 0..100 {
            w.record_at_ms(0, 5_000);
        }
        // ...then, 10 slots later, fast ones.
        for _ in 0..100 {
            w.record_at_ms(10_000, 50);
        }
        let snap = w.snapshot_at_ms(10_000);
        assert_eq!(snap.count, 100);
        assert!(
            snap.p99 <= 100.0,
            "p99 {} reflects only the window",
            snap.p99
        );
        assert!(snap.p50 >= 10.0);
        assert_eq!(snap.max, 50);
    }

    #[test]
    fn ring_slots_are_recycled() {
        let w = WindowHistogram::with_bounds(&[10], 100, 2);
        w.record_at_ms(0, 5);
        w.record_at_ms(150, 5);
        // Period 2 maps onto period 0's slot and must evict it.
        w.record_at_ms(200, 5);
        let snap = w.snapshot_at_ms(200);
        assert_eq!(snap.count, 2, "period-0 contents evicted, periods 1+2 kept");
    }

    #[test]
    fn quantiles_interpolate_like_the_cumulative_histogram() {
        let w = WindowHistogram::exponential_ns();
        let h = crate::registry::Histogram::exponential_ns();
        for v in (0..10_000).map(|i| i * 131) {
            w.record_at_ms(0, v);
            h.record(v);
        }
        let snap = w.snapshot_at_ms(0);
        for (q, got) in [(0.5, snap.p50), (0.9, snap.p90), (0.99, snap.p99)] {
            let want = h.quantile(q).expect("non-empty");
            assert!(
                (got - want).abs() < 1e-9,
                "q{q}: window {got} vs cumulative {want}"
            );
        }
    }

    #[test]
    fn concurrent_records_sum_exactly_within_one_period() {
        let w = WindowHistogram::exponential_ns();
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let w = w.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        w.record_at_ms(0, i);
                    }
                });
            }
        });
        assert_eq!(w.snapshot_at_ms(0).count, 8 * per_thread);
    }

    #[test]
    fn window_counter_ages_out() {
        let c = WindowCounter::new(1_000, 3);
        c.add_at_ms(0, 5);
        c.add_at_ms(1_000, 7);
        assert_eq!(c.total_at_ms(1_000), 12);
        assert_eq!(c.total_at_ms(2_999), 12);
        assert_eq!(c.total_at_ms(3_000), 7, "the first slot aged out");
        assert_eq!(c.total_at_ms(10_000), 0);
    }
}
