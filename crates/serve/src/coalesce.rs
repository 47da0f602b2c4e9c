//! Coalescing of identical in-flight queries.
//!
//! When several clients ask the same (uncached) question at once, only
//! the first — the *leader* — computes it; the rest — *followers* —
//! block on the leader's flight and share its serialized result. A
//! follower whose deadline expires before the leader finishes gives up
//! and is answered with a degraded 504 instead of holding a worker.

use crate::cache::CacheKey;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One in-flight computation, shared between leader and followers.
pub struct Flight {
    slot: Mutex<Option<Arc<String>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Blocks until the leader publishes, or until `deadline` passes.
    pub fn wait(&self, deadline: Instant) -> Option<Arc<String>> {
        let mut slot = self.slot.lock().expect("flight lock");
        loop {
            if let Some(body) = slot.as_ref() {
                return Some(Arc::clone(body));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timeout) = self
                .done
                .wait_timeout(slot, deadline - now)
                .expect("flight wait");
            slot = guard;
            if timeout.timed_out() && slot.is_none() {
                return None;
            }
        }
    }

    fn publish(&self, body: Arc<String>) {
        *self.slot.lock().expect("flight lock") = Some(body);
        self.done.notify_all();
    }
}

/// Whether the caller computes or waits.
pub enum Claim {
    /// This caller runs the query and must call
    /// [`Coalescer::complete`] (the guard enforces cleanup on panic).
    Leader(LeaderGuard),
    /// Another caller is already running it; wait on the flight.
    Follower(Arc<Flight>),
}

/// Tracks identical queries currently being computed.
#[derive(Default)]
pub struct Coalescer {
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

/// Leadership of one flight. The holder must finish with
/// [`Coalescer::complete`] (normal path) or [`Coalescer::abandon`]
/// (the query failed); the server wraps leader work in `catch_unwind`
/// so a panicking query still abandons its flight and later identical
/// queries elect a fresh leader.
pub struct LeaderGuard {
    key: CacheKey,
    flight: Arc<Flight>,
}

impl Coalescer {
    /// An empty coalescer.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// Joins or starts the flight for `key`.
    pub fn claim(&self, key: &CacheKey) -> Claim {
        let mut inflight = self.inflight.lock().expect("coalescer lock");
        if let Some(flight) = inflight.get(key) {
            return Claim::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        inflight.insert(key.clone(), Arc::clone(&flight));
        Claim::Leader(LeaderGuard {
            key: key.clone(),
            flight,
        })
    }

    /// Publishes the leader's result to every follower and retires the
    /// flight.
    pub fn complete(&self, guard: LeaderGuard, body: Arc<String>) {
        self.inflight
            .lock()
            .expect("coalescer lock")
            .remove(&guard.key);
        guard.flight.publish(body);
    }

    /// Retires a flight whose leader failed, without publishing.
    /// Followers run out their deadlines.
    pub fn abandon(&self, guard: LeaderGuard) {
        self.inflight
            .lock()
            .expect("coalescer lock")
            .remove(&guard.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn key() -> CacheKey {
        ("default".to_owned(), 1, "q".to_owned())
    }

    #[test]
    fn first_claim_leads_second_follows() {
        let c = Coalescer::new();
        let leader = match c.claim(&key()) {
            Claim::Leader(g) => g,
            Claim::Follower(_) => panic!("first claim must lead"),
        };
        let follower = match c.claim(&key()) {
            Claim::Follower(f) => f,
            Claim::Leader(_) => panic!("second claim must follow"),
        };
        c.complete(leader, Arc::new("body".to_owned()));
        let got = follower.wait(Instant::now() + Duration::from_secs(1));
        assert_eq!(got.as_deref().map(String::as_str), Some("body"));
        // The key is free again.
        assert!(matches!(c.claim(&key()), Claim::Leader(_)));
    }

    #[test]
    fn followers_time_out_without_a_result() {
        let c = Coalescer::new();
        let _leader = match c.claim(&key()) {
            Claim::Leader(g) => g,
            Claim::Follower(_) => panic!("first claim must lead"),
        };
        let follower = match c.claim(&key()) {
            Claim::Follower(f) => f,
            Claim::Leader(_) => panic!("second claim must follow"),
        };
        assert!(follower
            .wait(Instant::now() + Duration::from_millis(20))
            .is_none());
    }

    #[test]
    fn abandon_frees_the_key() {
        let c = Coalescer::new();
        let leader = match c.claim(&key()) {
            Claim::Leader(g) => g,
            Claim::Follower(_) => panic!("first claim must lead"),
        };
        c.abandon(leader);
        assert!(matches!(c.claim(&key()), Claim::Leader(_)));
    }

    #[test]
    fn cross_thread_coalescing_delivers_to_all_followers() {
        let c = Arc::new(Coalescer::new());
        let leader = match c.claim(&key()) {
            Claim::Leader(g) => g,
            Claim::Follower(_) => panic!("first claim must lead"),
        };
        let mut joins = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || match c.claim(&key()) {
                Claim::Follower(f) => f.wait(Instant::now() + Duration::from_secs(5)),
                Claim::Leader(_) => panic!("leader already elected"),
            }));
        }
        // Give followers a moment to park before publishing.
        std::thread::sleep(Duration::from_millis(10));
        c.complete(leader, Arc::new("shared".to_owned()));
        for join in joins {
            let got = join.join().expect("follower thread");
            assert_eq!(got.as_deref().map(String::as_str), Some("shared"));
        }
    }
}
