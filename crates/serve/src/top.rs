//! The `hpcfail-serve top` dashboard: polls `/v1/metrics` and renders a
//! terminal view of the service — request rate, in-flight count,
//! cache hit rate, per-kind windowed p99 and SLO burn.
//!
//! The renderer is a pure function from two consecutive scrapes to a
//! text frame, so tests (and the CI metrics job) drive the exact
//! production path with `frames: Some(1)` and a plain writer instead
//! of a TTY.

use crate::client::Client;
use crate::promtext::{self, Scrape};
use std::io::{self, Write};
use std::time::Duration;

/// Dashboard configuration.
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Server address, `host:port`.
    pub addr: String,
    /// Poll interval.
    pub interval: Duration,
    /// Frames to render before returning; `None` runs until the
    /// server goes away.
    pub frames: Option<u64>,
    /// Clear the screen between frames (off for piped output).
    pub clear: bool,
}

/// One kind's row in the dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct KindRow {
    /// The kind label.
    pub kind: String,
    /// Lifetime request count for the kind.
    pub requests: f64,
    /// Windowed p99 latency, milliseconds.
    pub window_p99_ms: f64,
    /// SLO burn (p99 / budget); negative when the server exports no
    /// SLO series for the kind.
    pub burn: f64,
    /// Windowed 5xx rate.
    pub error_rate: f64,
}

/// Everything one frame shows, extracted from a scrape pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Total requests served so far.
    pub total_requests: f64,
    /// Requests per second since the previous scrape (0 on the first).
    pub req_per_s: f64,
    /// Requests currently in flight.
    pub inflight: f64,
    /// hits / (hits + misses + coalesced), 0 with no traffic.
    pub cache_hit_rate: f64,
    /// 1.0 while every kind meets its SLO.
    pub slo_healthy: bool,
    /// Per-kind rows, busiest first.
    pub kinds: Vec<KindRow>,
}

/// Extracts a frame from the current scrape, using the previous one
/// (if any) for rates.
pub fn frame_from(scrape: &Scrape, previous: Option<&Scrape>, interval: Duration) -> Frame {
    let total = scrape.value("serve_requests_total", &[]).unwrap_or(0.0);
    let req_per_s = match previous {
        Some(prev) if interval.as_secs_f64() > 0.0 => {
            let before = prev.value("serve_requests_total", &[]).unwrap_or(0.0);
            ((total - before) / interval.as_secs_f64()).max(0.0)
        }
        _ => 0.0,
    };
    let hits = scrape
        .value("serve_cache_requests_total", &[("result", "hit")])
        .unwrap_or(0.0);
    let lookups = hits
        + scrape
            .value("serve_cache_requests_total", &[("result", "miss")])
            .unwrap_or(0.0)
        + scrape
            .value("serve_cache_requests_total", &[("result", "coalesced")])
            .unwrap_or(0.0);
    let mut kinds: Vec<KindRow> = scrape
        .series("serve_requests_by_kind_total")
        .filter_map(|sample| {
            let kind = sample.label("kind")?.to_owned();
            Some(KindRow {
                window_p99_ms: scrape
                    .value(
                        "serve_window_latency_ns",
                        &[("kind", &kind), ("quantile", "0.99")],
                    )
                    .unwrap_or(0.0)
                    / 1e6,
                burn: scrape
                    .value("serve_slo_latency_burn", &[("kind", &kind)])
                    .unwrap_or(-1.0),
                error_rate: scrape
                    .value("serve_slo_error_rate", &[("kind", &kind)])
                    .unwrap_or(0.0),
                requests: sample.value,
                kind,
            })
        })
        .collect();
    kinds.sort_by(|a, b| {
        b.requests
            .partial_cmp(&a.requests)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.kind.cmp(&b.kind))
    });
    Frame {
        total_requests: total,
        req_per_s,
        inflight: scrape.value("serve_inflight", &[]).unwrap_or(0.0),
        cache_hit_rate: if lookups > 0.0 { hits / lookups } else { 0.0 },
        slo_healthy: scrape.value("serve_slo_healthy", &[]).unwrap_or(1.0) >= 1.0,
        kinds,
    }
}

/// Renders one frame as text.
pub fn render_frame(frame: &Frame, addr: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "hpcfail-serve top — {addr}\n\
         requests {:>10}   rate {:>8.1}/s   in-flight {:>3}   cache hit {:>5.1}%   slo {}\n\n",
        frame.total_requests as u64,
        frame.req_per_s,
        frame.inflight as u64,
        frame.cache_hit_rate * 100.0,
        if frame.slo_healthy { "ok" } else { "DEGRADED" },
    ));
    out.push_str(&format!(
        "{:<28} {:>10} {:>14} {:>10} {:>8}\n",
        "kind", "requests", "window p99", "burn", "err%"
    ));
    if frame.kinds.is_empty() {
        out.push_str("  (no per-kind traffic yet)\n");
    }
    for row in &frame.kinds {
        let burn = if row.burn < 0.0 {
            "-".to_owned()
        } else {
            format!("{:.2}", row.burn)
        };
        out.push_str(&format!(
            "{:<28} {:>10} {:>11.2} ms {:>10} {:>7.1}%\n",
            row.kind,
            row.requests as u64,
            row.window_p99_ms,
            burn,
            row.error_rate * 100.0
        ));
    }
    out
}

/// Polls `/v1/metrics` and writes frames to `out` until `frames` runs
/// out or the server stops answering.
///
/// # Errors
///
/// The first scrape failing (a later scrape failing ends the loop
/// cleanly — the server presumably shut down).
pub fn run(options: &TopOptions, out: &mut impl Write) -> io::Result<()> {
    let client = Client::new(options.addr.clone())
        .with_timeout(options.interval.max(Duration::from_secs(5)));
    let mut previous: Option<Scrape> = None;
    let mut remaining = options.frames;
    loop {
        let response = match client.get("/v1/metrics") {
            Ok(response) => response,
            Err(err) if previous.is_some() => {
                writeln!(out, "server went away: {err}")?;
                return Ok(());
            }
            Err(err) => return Err(err),
        };
        if response.status != 200 {
            return Err(io::Error::other(format!(
                "/v1/metrics answered {}",
                response.status
            )));
        }
        let scrape = promtext::parse(&response.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let frame = frame_from(&scrape, previous.as_ref(), options.interval);
        if options.clear {
            out.write_all(b"\x1b[2J\x1b[H")?;
        }
        out.write_all(render_frame(&frame, &options.addr).as_bytes())?;
        out.flush()?;
        previous = Some(scrape);
        if let Some(n) = &mut remaining {
            *n -= 1;
            if *n == 0 {
                return Ok(());
            }
        }
        std::thread::sleep(options.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(total: f64) -> Scrape {
        let text = format!(
            "# TYPE serve_requests_total counter\n\
             serve_requests_total {total}\n\
             # TYPE serve_cache_requests_total counter\n\
             serve_cache_requests_total{{result=\"hit\"}} 30\n\
             serve_cache_requests_total{{result=\"miss\"}} 10\n\
             serve_cache_requests_total{{result=\"coalesced\"}} 0\n\
             # TYPE serve_inflight gauge\n\
             serve_inflight 2\n\
             # TYPE serve_slo_healthy gauge\n\
             serve_slo_healthy 1\n\
             # TYPE serve_requests_by_kind_total counter\n\
             serve_requests_by_kind_total{{kind=\"trace-summary\"}} 25\n\
             serve_requests_by_kind_total{{kind=\"healthz\"}} 5\n\
             # TYPE serve_window_latency_ns summary\n\
             serve_window_latency_ns{{kind=\"trace-summary\",quantile=\"0.99\"}} 4000000\n\
             # TYPE serve_slo_latency_burn gauge\n\
             serve_slo_latency_burn{{kind=\"trace-summary\"}} 0.008\n"
        );
        promtext::parse(&text).expect("fixture parses")
    }

    #[test]
    fn frame_extracts_rates_and_rows() {
        let before = scrape(100.0);
        let after = scrape(160.0);
        let frame = frame_from(&after, Some(&before), Duration::from_secs(2));
        assert_eq!(frame.total_requests, 160.0);
        assert!((frame.req_per_s - 30.0).abs() < 1e-9, "{}", frame.req_per_s);
        assert_eq!(frame.inflight, 2.0);
        assert!((frame.cache_hit_rate - 0.75).abs() < 1e-9);
        assert!(frame.slo_healthy);
        assert_eq!(frame.kinds.len(), 2);
        // Busiest first.
        assert_eq!(frame.kinds[0].kind, "trace-summary");
        assert!((frame.kinds[0].window_p99_ms - 4.0).abs() < 1e-9);
        assert!((frame.kinds[0].burn - 0.008).abs() < 1e-9);
        // No SLO series for healthz: burn renders as '-'.
        assert!(frame.kinds[1].burn < 0.0);
    }

    #[test]
    fn first_frame_has_no_rate() {
        let frame = frame_from(&scrape(50.0), None, Duration::from_secs(1));
        assert_eq!(frame.req_per_s, 0.0);
        assert_eq!(frame.total_requests, 50.0);
    }

    #[test]
    fn render_mentions_every_kind() {
        let frame = frame_from(&scrape(50.0), None, Duration::from_secs(1));
        let text = render_frame(&frame, "127.0.0.1:7070");
        assert!(text.contains("trace-summary"));
        assert!(text.contains("healthz"));
        assert!(text.contains("cache hit  75.0%"), "{text}");
        assert!(text.contains("slo ok"));
    }
}
