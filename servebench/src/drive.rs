//! The closed-loop load: each client thread holds one keep-alive
//! connection and sends its next operation only after the previous
//! answer has been read and checked.

use crate::http::{nanos, CacheOutcome, Conn, Reply};
use crate::inputs::Expected;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One timed round: the latencies of its completed operations and the
/// time from the first client starting it to the last one finishing.
#[derive(Default)]
pub struct Round {
    pub latency_ns: Vec<u64>,
    pub wall: Duration,
}

/// What the clients observed.
#[derive(Default)]
pub struct Samples {
    pub rounds: Vec<Round>,
    /// Per HTTP exchange when tracing: write, wait for the first byte,
    /// rest of the response, in nanoseconds.
    pub phases: Vec<[u64; 3]>,
    pub attempted: u64,
    pub failed: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub reconnects: u64,
    /// HTTP requests sent, by the server's kind label.
    pub kinds: BTreeMap<&'static str, u64>,
    pub errors: Vec<String>,
}

/// One client's share of one round.
struct Share {
    latency_ns: Vec<u64>,
    start: Instant,
    end: Instant,
}

type Part = Result<(Samples, Vec<Share>), String>;

impl Samples {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    fn sent(&mut self, kind: &'static str) {
        *self.kinds.entry(kind).or_default() += 1;
    }

    /// Checks one answer and tallies its cache outcome; returns whether
    /// it was correct.
    fn check(&mut self, reply: &Reply, expected: &Expected, what: &str) -> bool {
        match reply.cache {
            Some(CacheOutcome::Hit) => self.hits += 1,
            Some(CacheOutcome::Miss) => self.misses += 1,
            Some(CacheOutcome::Coalesced) => self.coalesced += 1,
            None => {}
        }
        if reply.status != 200 {
            self.fail(format!("{what}: status {}", reply.status));
            false
        } else if !expected.matches(&reply.body) {
            self.fail(format!("{what}: body differs from the reference"));
            false
        } else {
            true
        }
    }

    fn record_phases(&mut self, trace: bool, reply: &Reply) {
        if trace {
            self.phases
                .push([reply.write_ns, reply.ttfb_ns, reply.body_ns]);
        }
    }

    /// HTTP requests sent.
    pub fn requests(&self) -> u64 {
        self.kinds.values().sum()
    }

    /// Completed timed operations.
    pub fn ops(&self) -> usize {
        self.rounds.iter().map(|r| r.latency_ns.len()).sum()
    }

    /// Merges the clients' counters and their shares of each round.
    fn combine(parts: Vec<Part>) -> Result<Samples, String> {
        let mut all = Samples::default();
        let mut rounds: Vec<Vec<Share>> = Vec::new();
        for part in parts {
            let (other, shares) = part?;
            all.phases.extend(other.phases);
            all.attempted += other.attempted;
            all.failed += other.failed;
            all.hits += other.hits;
            all.misses += other.misses;
            all.coalesced += other.coalesced;
            all.reconnects += other.reconnects;
            for (kind, n) in other.kinds {
                *all.kinds.entry(kind).or_default() += n;
            }
            all.errors.extend(other.errors);
            all.errors.truncate(5);
            rounds.resize_with(rounds.len().max(shares.len()), Vec::new);
            for (i, share) in shares.into_iter().enumerate() {
                rounds[i].push(share);
            }
        }
        all.rounds = rounds
            .into_iter()
            .map(|shares| {
                let start = shares.iter().map(|s| s.start).min();
                let end = shares.iter().map(|s| s.end).max();
                Round {
                    wall: match (start, end) {
                        (Some(start), Some(end)) => end - start,
                        _ => Duration::ZERO,
                    },
                    latency_ns: shares.into_iter().flat_map(|s| s.latency_ns).collect(),
                }
            })
            .collect();
        Ok(all)
    }
}

fn join_all<'scope>(handles: Vec<std::thread::ScopedJoinHandle<'scope, Part>>) -> Vec<Part> {
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

/// Runs `rounds` of operations (indices into `requests`) from
/// `clients` threads. Within a round the clients take the next entry
/// from one shared cursor; every round starts on a barrier.
pub fn run_queries(
    addr: &str,
    requests: &[Vec<u8>],
    kinds: &[&'static str],
    expected: &[Expected],
    rounds: &[&[u32]],
    clients: usize,
    trace: bool,
) -> Result<Samples, String> {
    let cursors: Vec<AtomicUsize> = rounds.iter().map(|_| AtomicUsize::new(0)).collect();
    let barrier = Barrier::new(clients);
    let parts = std::thread::scope(|scope| {
        let handles = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut opened = Conn::open(addr).map_err(|e| format!("connect: {e}"));
                    let mut samples = Samples::default();
                    let mut shares = Vec::with_capacity(rounds.len());
                    for (order, cursor) in rounds.iter().zip(&cursors) {
                        // Every client passes every barrier, connected or not.
                        barrier.wait();
                        let Ok(conn) = opened.as_mut() else { continue };
                        let mut latency_ns = Vec::new();
                        let start = Instant::now();
                        loop {
                            let at = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&op) = order.get(at) else { break };
                            let op = op as usize;
                            samples.attempted += 1;
                            samples.sent(kinds[op]);
                            match conn.exchange(&requests[op], &[]) {
                                Ok(reply) => {
                                    if samples.check(&reply, &expected[op], "query") {
                                        latency_ns
                                            .push(reply.write_ns + reply.ttfb_ns + reply.body_ns);
                                        samples.record_phases(trace, &reply);
                                    }
                                }
                                Err(e) => samples.fail(format!("query transport: {e}")),
                            }
                        }
                        shares.push(Share {
                            latency_ns,
                            start,
                            end: Instant::now(),
                        });
                    }
                    samples.reconnects = opened?.reconnects;
                    Ok((samples, shares))
                })
            })
            .collect();
        join_all(handles)
    });
    Samples::combine(parts)
}

/// One epoch-churn client's fixed inputs.
pub struct ChurnClient {
    /// Upload heads, one per snapshot; the body is `snapshots[s]`.
    pub uploads: Vec<Vec<u8>>,
    /// Panel query requests against this client's trace name.
    pub panel: Vec<Vec<u8>>,
    pub panel_kinds: Vec<&'static str>,
}

/// What each snapshot's answers must be.
pub struct ChurnExpect {
    /// The fingerprint the upload must report, as 16 hex digits.
    pub fingerprint: String,
    pub panel: Vec<Expected>,
}

/// Epoch churn: every client owns one trace name and alternates
/// uploads of the snapshots, each followed by the panel. One op is
/// upload + panel. `warm` untimed cycles run first; the timed cycles
/// form one round.
pub fn run_churn(
    addr: &str,
    clients: &[ChurnClient],
    snapshots: &[Vec<u8>],
    expect: &[ChurnExpect],
    warm: usize,
    cycles: usize,
    trace: bool,
) -> Result<Samples, String> {
    let barrier = Barrier::new(clients.len());
    let parts = std::thread::scope(|scope| {
        let handles = clients
            .iter()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut opened = Conn::open(addr).map_err(|e| format!("connect: {e}"));
                    // Warm-up answers are checked and counted, but not timed.
                    let mut samples = Samples::default();
                    if let Ok(conn) = opened.as_mut() {
                        for k in 0..warm {
                            let s = (k + c) % 2;
                            churn_cycle(conn, client, snapshots, expect, s, false, &mut samples);
                        }
                    }
                    barrier.wait();
                    let conn = opened.as_mut().map_err(|e| e.clone())?;
                    let mut latency_ns = Vec::with_capacity(cycles);
                    let start = Instant::now();
                    for k in warm..warm + cycles {
                        let op_start = Instant::now();
                        let s = (k + c) % 2;
                        if churn_cycle(conn, client, snapshots, expect, s, trace, &mut samples) {
                            latency_ns.push(nanos(op_start.elapsed()));
                        }
                    }
                    let share = Share {
                        latency_ns,
                        start,
                        end: Instant::now(),
                    };
                    samples.reconnects = conn.reconnects;
                    Ok((samples, vec![share]))
                })
            })
            .collect();
        join_all(handles)
    });
    Samples::combine(parts)
}

/// One upload of `snapshot` plus the panel; true when all of it was
/// answered correctly. Counts as one attempted operation.
fn churn_cycle(
    conn: &mut Conn,
    client: &ChurnClient,
    snapshots: &[Vec<u8>],
    expect: &[ChurnExpect],
    snapshot: usize,
    trace: bool,
    samples: &mut Samples,
) -> bool {
    samples.attempted += 1;
    let failed = samples.failed;
    samples.sent("upload");
    match conn.exchange(&client.uploads[snapshot], &snapshots[snapshot]) {
        Ok(reply) => {
            samples.record_phases(trace, &reply);
            if reply.status != 200 {
                samples.fail(format!("upload: status {}", reply.status));
                return false;
            }
            let reported = std::str::from_utf8(&reply.body)
                .ok()
                .and_then(|text| hpcfail_obs::json::parse(text).ok())
                .and_then(|json| {
                    json.get("trace")
                        .and_then(|t| t.get("fingerprint"))
                        .and_then(|f| f.as_str().map(str::to_owned))
                });
            if reported.as_deref() != Some(expect[snapshot].fingerprint.as_str()) {
                samples.fail(format!("upload: fingerprint {reported:?}"));
                return false;
            }
        }
        Err(e) => {
            samples.fail(format!("upload transport: {e}"));
            return false;
        }
    }
    for ((query, expected), kind) in client
        .panel
        .iter()
        .zip(&expect[snapshot].panel)
        .zip(&client.panel_kinds)
    {
        samples.sent(kind);
        match conn.exchange(query, &[]) {
            Ok(reply) => {
                samples.record_phases(trace, &reply);
                samples.check(&reply, expected, "panel query");
            }
            Err(e) => samples.fail(format!("panel transport: {e}")),
        }
    }
    // A cycle with several bad answers still counts as one failed op.
    let bad = samples.failed - failed;
    samples.failed = failed + u64::from(bad > 0);
    bad == 0
}
