//! Scoped-thread fan-out for independent per-class / per-system
//! analyses.
//!
//! The reproduction harness evaluates dozens of independent
//! (trigger-class, window, scope) combinations; this helper spreads
//! them over `std::thread::scope` workers while keeping results in
//! input order.
//!
//! Each worker reports what it did to the observability registry, at
//! per-worker (not per-item) granularity so the hot loop carries no
//! atomics or clock reads: `core.parallel.items` counts items processed
//! fleet-wide, `core.parallel.worker_items` is a histogram of how many
//! items each worker claimed, and `core.parallel.worker_busy_ns` /
//! `core.parallel.worker_idle_ns` expose load imbalance — a worker's
//! idle time is the gap between its own busy time and the fan-out's
//! wall time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Applies `f` to every item, using up to `threads` worker threads, and
/// returns results in input order.
///
/// Falls back to a sequential loop for a single thread or a single
/// item. `f` must be `Sync` because multiple workers share it.
///
/// # Panics
///
/// If `f` panics on any item, the panic is resumed on the calling
/// thread with the original payload once all workers have stopped.
///
/// # Examples
///
/// ```
/// use hpcfail_core::parallel::parallel_map;
///
/// let squares = parallel_map(&[1, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let items_counter = hpcfail_obs::counter("core.parallel.items");
    if threads == 1 || items.len() <= 1 {
        items_counter.add(items.len() as u64);
        return items.iter().map(&f).collect();
    }

    let results: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let busy_ns: Vec<Mutex<u64>> = (0..threads).map(|_| Mutex::new(0)).collect();
    let worker_items = hpcfail_obs::histogram("core.parallel.worker_items");
    let fan_out = Instant::now();
    let panic_payload = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let results = &results;
                let next = &next;
                let f = &f;
                let items_counter = &items_counter;
                let worker_items = &worker_items;
                let busy_cell = &busy_ns[worker];
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut claimed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let out = f(&items[i]);
                        claimed += 1;
                        // Slots hold finished values only; recover from
                        // poisoning (another worker's panic) instead of
                        // compounding it.
                        *results[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                    }
                    items_counter.add(claimed);
                    worker_items.record(claimed);
                    *busy_cell
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) =
                        started.elapsed().as_nanos() as u64;
                })
            })
            .collect();
        // Join every worker before deciding the outcome, so a panic in
        // one closure cannot leave others running; resume the first
        // panic payload observed, in worker order.
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }

    let wall_ns = fan_out.elapsed().as_nanos() as u64;
    let busy_hist = hpcfail_obs::histogram("core.parallel.worker_busy_ns");
    let idle_hist = hpcfail_obs::histogram("core.parallel.worker_idle_ns");
    for cell in &busy_ns {
        let busy = *cell
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        busy_hist.record(busy);
        idle_hist.record(wall_ns.saturating_sub(busy));
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every slot filled")
        })
        .collect()
}

/// A reasonable default worker count: available parallelism capped at 8
/// (the analyses are memory-bandwidth-bound beyond that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map(&[5, 6], 1, |&x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(&[] as &[i32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(&[1], 16, |&x| x * 10);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 33 {
                    panic!("worker exploded on {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("worker exploded on 33"),
            "original payload preserved, got {message:?}"
        );
    }

    #[test]
    fn panic_in_sequential_fallback_propagates() {
        let result = std::panic::catch_unwind(|| parallel_map(&[1], 1, |_| panic!("boom")));
        assert!(result.is_err());
    }
}
