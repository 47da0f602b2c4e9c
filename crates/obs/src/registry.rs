//! The thread-safe metrics registry: counters, gauges, fixed-bucket
//! histograms, and per-span timing cells.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of
//! `Arc`-backed atomics; registration takes a lock, but every update on
//! a held handle is a single atomic operation, so hot loops should
//! register once outside the loop and update inside it.

use crate::window::{WindowHistogram, WindowedSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point level (e.g. a hit rate or a queue
/// depth). Stored as `f64` bits in an atomic.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Replaces the level.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `u64` observations (typically
/// nanoseconds or item counts) with quantile estimation.
///
/// Bucket `i` counts observations `v` with `bounds[i-1] <= v <
/// bounds[i]`; one implicit overflow bucket catches everything at or
/// above the last bound. Quantiles interpolate linearly inside the
/// containing bucket, so an estimate is off by at most one bucket
/// width.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram with explicit ascending bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts,
                sum: AtomicU64::new(0),
                total: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// The default timing layout: power-of-two bounds from 1 µs to
    /// ~68 s, in nanoseconds.
    pub fn exponential_ns() -> Self {
        let bounds: Vec<u64> = (10..37).map(|p| 1u64 << p).collect();
        Histogram::with_bounds(&bounds)
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self.core.bounds.partition_point(|&b| b <= value);
        self.core.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
        self.core.total.fetch_add(1, Ordering::Relaxed);
        self.core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.core.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.core.max.load(Ordering::Relaxed)
    }

    /// Frozen statistics; an empty histogram's quantiles read 0.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50).unwrap_or(0.0),
            p90: self.quantile(0.90).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`) estimated by linear
    /// interpolation within the containing bucket; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut seen = 0u64;
        for (i, c) in self.core.counts.iter().enumerate() {
            let in_bucket = c.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if (seen + in_bucket) as f64 >= rank {
                let lo = if i == 0 { 0 } else { self.core.bounds[i - 1] };
                let hi = if i < self.core.bounds.len() {
                    self.core.bounds[i]
                } else {
                    // Overflow bucket: cap at the observed max.
                    self.max().max(lo + 1)
                };
                let frac = (rank - seen as f64) / in_bucket as f64;
                return Some(lo as f64 + frac * (hi - lo) as f64);
            }
            seen += in_bucket;
        }
        Some(self.max() as f64)
    }
}

/// Accumulated wall time for one span name.
#[derive(Debug, Clone)]
pub struct SpanCell {
    pub(crate) count: Arc<AtomicU64>,
    pub(crate) total_ns: Arc<AtomicU64>,
    pub(crate) self_ns: Arc<AtomicU64>,
}

impl SpanCell {
    fn new() -> Self {
        SpanCell {
            count: Arc::new(AtomicU64::new(0)),
            total_ns: Arc::new(AtomicU64::new(0)),
            self_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    pub(crate) fn record(&self, total_ns: u64, self_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        self.self_ns.fetch_add(self_ns, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    windows: Mutex<BTreeMap<String, WindowHistogram>>,
    spans: Mutex<BTreeMap<String, SpanCell>>,
}

/// The handle named `name` in `map`, created by `make` on first use.
/// Only a miss copies the name: a hit allocates nothing.
fn lookup<T: Clone>(map: &Mutex<BTreeMap<String, T>>, name: &str, make: impl FnOnce() -> T) -> T {
    let mut map = map.lock().expect("registry lock");
    if let Some(found) = map.get(name) {
        return found.clone();
    }
    let made = make();
    map.insert(name.to_owned(), made.clone());
    made
}

/// A collection of named metrics. Cloning shares the underlying store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        lookup(&self.inner.counters, name, Counter::new)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        lookup(&self.inner.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, created on first use with the
    /// default exponential nanosecond bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, Histogram::exponential_ns)
    }

    /// The histogram named `name`, created on first use by `make`.
    pub fn histogram_with(&self, name: &str, make: impl FnOnce() -> Histogram) -> Histogram {
        lookup(&self.inner.histograms, name, make)
    }

    /// The sliding-window histogram named `name`, created on first use
    /// with the default layout
    /// ([`WindowHistogram::exponential_ns`]: nanosecond buckets over a
    /// 30-second window).
    pub fn window(&self, name: &str) -> WindowHistogram {
        self.window_with(name, WindowHistogram::exponential_ns)
    }

    /// The sliding-window histogram named `name`, created on first use
    /// by `make`.
    pub fn window_with(
        &self,
        name: &str,
        make: impl FnOnce() -> WindowHistogram,
    ) -> WindowHistogram {
        lookup(&self.inner.windows, name, make)
    }

    /// The span cell named `name`, created on first use.
    pub(crate) fn span_cell(&self, name: &str) -> SpanCell {
        lookup(&self.inner.spans, name, SpanCell::new)
    }

    /// A point-in-time copy of every metric, for sinks.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry lock")
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        let windows = self
            .inner
            .windows
            .lock()
            .expect("window registry lock")
            .iter()
            .map(|(k, w)| (k.clone(), w.snapshot()))
            .filter(|(_, s)| s.count > 0)
            .collect();
        let spans = self
            .inner
            .spans
            .lock()
            .expect("span registry lock")
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    SpanSnapshot {
                        count: s.count.load(Ordering::Relaxed),
                        total_ns: s.total_ns.load(Ordering::Relaxed),
                        self_ns: s.self_ns.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            windows,
            spans,
        }
    }
}

/// Frozen histogram statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// Frozen span statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// How many times the span was entered.
    pub count: u64,
    /// Total wall time, children included, in nanoseconds.
    pub total_ns: u64,
    /// Wall time excluding child spans, in nanoseconds.
    pub self_ns: u64,
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram statistics by name (empty histograms are omitted).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Sliding-window histogram statistics by name (windows currently
    /// holding no observations are omitted).
    pub windows: BTreeMap<String, WindowedSnapshot>,
    /// Span timings by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry used by the front-door instrumentation
/// API ([`crate::span()`], [`crate::counter`], ...).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5);
    }

    #[test]
    fn gauge_stores_floats() {
        let reg = Registry::new();
        reg.gauge("rate").set(0.375);
        assert_eq!(reg.gauge("rate").get(), 0.375);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::with_bounds(&[10, 20, 30, 40, 50]);
        for v in 0..50 {
            h.record(v);
        }
        assert_eq!(h.count(), 50);
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((15.0..=35.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.max(), 49);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::with_bounds(&[10]);
        h.record(1_000);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.5).expect("non-empty") >= 10.0);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let reg = Registry::new();
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = reg.counter("concurrent");
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("concurrent").get(), 8 * per_thread);
    }

    /// The width of the bucket containing `value`.
    fn bucket_width(h: &Histogram, value: u64) -> u64 {
        let bounds = &h.core.bounds;
        let idx = bounds.partition_point(|&b| b <= value);
        let lo = if idx == 0 { 0 } else { bounds[idx - 1] };
        let hi = bounds.get(idx).copied().unwrap_or(u64::MAX);
        hi - lo
    }

    #[test]
    fn quantile_estimates_within_one_bucket_width() {
        // Uniform values over [0, 1000) against the default exponential
        // bucketing: every quantile estimate must land within one bucket
        // width of the exact order statistic.
        let h = Histogram::exponential_ns();
        let n = 100_000u64;
        for v in 0..n {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * (n - 1) as f64;
            let estimate = h.quantile(q).expect("non-empty");
            let width = bucket_width(&h, exact as u64) as f64;
            assert!(
                (estimate - exact).abs() <= width,
                "q{q}: estimate {estimate} vs exact {exact}, bucket width {width}"
            );
        }
    }

    #[test]
    fn snapshot_carries_live_windows_and_p95() {
        let reg = Registry::new();
        reg.window("quiet");
        let live = reg.window("live");
        for v in 1..=100 {
            live.record(v * 1_000);
        }
        let h = reg.histogram("h");
        for v in 1..=100 {
            h.record(v * 1_000);
        }
        let snap = reg.snapshot();
        assert!(!snap.windows.contains_key("quiet"));
        let w = snap.windows["live"];
        assert_eq!(w.count, 100);
        assert!(w.p50 <= w.p90 && w.p90 <= w.p95 && w.p95 <= w.p99);
        let hist = snap.histograms["h"];
        assert!(hist.p90 <= hist.p95 && hist.p95 <= hist.p99);
    }

    #[test]
    fn snapshot_omits_empty_histograms() {
        let reg = Registry::new();
        reg.histogram("quiet");
        let active = reg.histogram("busy");
        active.record(7);
        let snap = reg.snapshot();
        assert!(!snap.histograms.contains_key("quiet"));
        assert_eq!(snap.histograms["busy"].count, 1);
    }
}
