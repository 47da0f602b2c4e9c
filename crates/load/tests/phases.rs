//! The server's phase stamps account for every request: corpus queries
//! over one keep-alive connection each add one observation to every
//! `serve_phase_us` phase, and each access-log line's `phases_us` adds
//! up to its `latency_us`.
//!
//! The obs registry is process-global, so this binary holds this one
//! test and the phase counts it scrapes are its own.

#![cfg(not(feature = "no-obs"))]

use hpcfail_core::engine::Engine;
use hpcfail_load::{build_corpus, systems_from_fleet};
use hpcfail_obs::json::Json;
use hpcfail_serve::phase::PHASES;
use hpcfail_serve::promtext;
use hpcfail_serve::server::{spawn, ServerConfig};
use hpcfail_synth::FleetSpec;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// One keep-alive HTTP/1.1 connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        Conn {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request and reads its sized response.
    fn exchange(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes()).expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let mut length = 0;
        loop {
            line.clear();
            self.reader.read_line(&mut line).expect("header line");
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header.strip_prefix("content-length: ") {
                length = value.parse().expect("content-length");
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf-8 body"))
    }
}

#[test]
fn phases_count_every_request_and_add_up_to_the_logged_latency() {
    let dir = std::env::temp_dir().join("hpcfail-load-phases");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join(format!("access-{}.jsonl", std::process::id()));
    std::fs::remove_file(&log).ok();

    let fleet = FleetSpec::demo();
    let corpus = build_corpus(&systems_from_fleet(&fleet), 240);
    let handle = spawn(
        Engine::new(fleet.generate(42).into_store()),
        ServerConfig {
            access_log: Some(log.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut conn = Conn::open(&handle.addr().to_string());
    for request in &corpus {
        let (status, body) =
            conn.exchange("POST", "/v1/traces/default/query", &request.canonical());
        assert_eq!(status, 200, "{body}");
    }
    // The same connection: every query above finished recording before
    // this request was read.
    let (status, text) = conn.exchange("GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let scrape = promtext::parse(&text).expect("valid exposition");
    for phase in PHASES {
        let labels = [("phase", phase.label())];
        assert_eq!(
            scrape.value("serve_phase_us_count", &labels),
            Some(corpus.len() as f64),
            "phase {} counts every query",
            phase.label()
        );
        let p50 = [("phase", phase.label()), ("quantile", "0.5")];
        assert!(scrape.value("serve_phase_us", &p50).is_some());
    }
    drop(conn);
    handle.shutdown();

    let text = std::fs::read_to_string(&log).expect("access log");
    let lines: Vec<Json> = text
        .lines()
        .map(|line| hpcfail_obs::json::parse(line).expect("JSON line"))
        .collect();
    assert_eq!(lines.len(), corpus.len() + 1, "the queries and the scrape");
    let mut engine_us = 0;
    for line in &lines {
        let latency = line
            .get("latency_us")
            .and_then(Json::as_u64)
            .expect("latency");
        let phases = line.get("phases_us").expect("phases_us object");
        let sum: u64 = PHASES
            .iter()
            .map(|phase| {
                phases
                    .get(phase.label())
                    .and_then(Json::as_u64)
                    .expect("phase")
            })
            .sum();
        assert_eq!(sum, latency, "phases add up: {line:?}");
        engine_us += phases.get("engine").and_then(Json::as_u64).unwrap_or(0);
    }
    assert!(engine_us > 0, "fresh queries spend time in the engine");
    std::fs::remove_file(&log).ok();
}
