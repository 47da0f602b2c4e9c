//! Outside-input properties: the route table, the HTTP reader, the
//! request parser, the chaos-spec parser and the Prometheus text
//! parser take arbitrary input and answer with a value or a typed
//! error, never a panic.

use hpcfail_core::engine::{AnalysisRequest, REQUEST_KINDS};
use hpcfail_serve::chaos::{ChaosConfig, ChaosFault};
use hpcfail_serve::http::{body_limit, read_request_with_limit, MAX_BODY, MAX_UPLOAD_BODY};
use hpcfail_serve::promtext;
use hpcfail_serve::routes::{resolve, Endpoint, Routed};
use proptest::prelude::*;
use std::io::BufReader;

/// Path segments the route table knows, so generated paths reach past
/// the first literal often enough to bind names and hit every route.
const SEGMENTS: &[&str] = &[
    "v1", "traces", "query", "batch", "healthz", "metrics", "requests", "shutdown", "", "lanl",
    "default", "v2",
];

/// A well-formed request each mutation starts from.
const VALID_REQUEST: &[u8] = b"POST /v1/traces/default/query HTTP/1.1\r\nhost: x\r\n\
content-length: 30\r\nconnection: close\r\n\r\n{\"analysis\": \"trace-summary\"}";

/// A well-formed trace upload, the one route [`body_limit`] grants
/// [`MAX_UPLOAD_BODY`].
const VALID_UPLOAD: &[u8] = b"POST /v1/traces/lanl HTTP/1.1\r\nhost: x\r\n\
content-length: 12\r\ncontent-type: text/csv\r\n\r\nSystem,Node\n";

/// The chaos spec CI runs its storm under; mutations start from it.
const VALID_CHAOS: &str = include_str!("../../../tests/chaos/ci-storm.json");

/// A scrape exercising TYPE/HELP lines, labels with escapes, summary
/// children, special values and a timestamp.
const VALID_SCRAPE: &str = "\
# HELP serve_requests_total Requests served.
# TYPE serve_requests_total counter
serve_requests_total 42
# TYPE serve_phase_us summary
serve_phase_us{phase=\"read\",quantile=\"0.5\"} 4
serve_phase_us_count{phase=\"read\"} 10
serve_phase_us_sum{phase=\"read\"} 40
# TYPE serve_inflight gauge
serve_inflight{note=\"a \\\"quoted\\\" \\\\ value\"} NaN 1700000000000
serve_ratio +Inf
";

/// Applies `(position, byte, op)` edits: 0 overwrites, 1 inserts, 2
/// deletes. Positions wrap around the current length.
fn mutate(base: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for &(position, byte, op) in edits {
        let at = position % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    bytes
}

/// Parses `text` as a chaos spec; an accepted spec must hold every
/// invariant the injector relies on.
fn check_chaos(text: &str) -> Result<(), TestCaseError> {
    if let Ok(config) = ChaosConfig::parse(text) {
        for rule in &config.rules {
            prop_assert!((0.0..=1.0).contains(&rule.probability), "{:?}", rule);
            if let ChaosFault::Error { status } = rule.fault {
                prop_assert!((400..600).contains(&status), "{:?}", rule);
            }
            prop_assert!(rule.fault.valid_at(rule.point), "{:?}", rule);
        }
    }
    Ok(())
}

/// Parses `text` as a scrape; an accepted scrape holds at most one
/// sample per line.
fn check_scrape(text: &str) -> Result<(), TestCaseError> {
    if let Ok(scrape) = promtext::parse(text) {
        prop_assert!(scrape.samples.len() <= text.lines().count());
    }
    Ok(())
}

/// Parses `bytes` as one request under the server's body limits and
/// checks the reader's contract.
fn check_read(bytes: &[u8]) -> Result<(), TestCaseError> {
    match read_request_with_limit(&mut BufReader::new(bytes), body_limit) {
        Ok(Some(request)) => {
            prop_assert!(request.body.len() <= body_limit(&request.method, &request.path))
        }
        Ok(None) => {}
        Err(err) => {
            let status = err.status();
            prop_assert!(
                status.is_some_and(|s| (400..500).contains(&s)),
                "{:?} answered {:?}",
                err.message(),
                status
            );
        }
    }
    Ok(())
}

/// The mutation bases are valid, so mutations start inside the
/// accepted language rather than at its first error.
#[test]
fn mutation_bases_parse() {
    let config = ChaosConfig::parse(VALID_CHAOS).expect("chaos base parses");
    assert_eq!(config.rules.len(), 3);
    let scrape = promtext::parse(VALID_SCRAPE).expect("scrape base parses");
    assert_eq!(scrape.samples.len(), 6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn resolve_matches_only_v1_paths_and_binds_the_trace_segment(
        method in prop::sample::select(vec!["GET", "POST", "DELETE", "PUT", "HEAD", "get", ""]),
        picks in prop::collection::vec(
            (0u8..4, prop::sample::select(SEGMENTS.to_vec()), "[a-z0-9{}.%-]{0,6}"),
            0..6,
        ),
    ) {
        let segments: Vec<String> = picks
            .into_iter()
            .map(|(choice, known, arbitrary)| if choice == 0 { arbitrary } else { known.to_owned() })
            .collect();
        let path = format!("/{}", segments.join("/"));
        if let Routed::Matched(matched) = resolve(method, &path) {
            prop_assert!(path.starts_with("/v1/"), "{} {} matched", method, path);
            let scoped = matches!(
                matched.endpoint,
                Endpoint::Query
                    | Endpoint::Batch
                    | Endpoint::TraceUpload
                    | Endpoint::TraceShow
                    | Endpoint::TraceDelete
            );
            prop_assert_eq!(matched.trace.is_some(), scoped);
            if scoped {
                // "/v1/traces/{name}..." splits as ["", "v1", "traces", name, ...].
                prop_assert_eq!(matched.trace.as_deref(), path.split('/').nth(3));
            }
        }
    }

    #[test]
    fn read_request_answers_arbitrary_bytes_with_a_typed_4xx(
        raw in prop::collection::vec(0u8..=255, 0..300),
    ) {
        check_read(&raw)?;
    }

    #[test]
    fn read_request_answers_mutated_requests_with_a_typed_4xx(
        edits in prop::collection::vec((0usize..200, 0u8..=255, 0u8..3), 1..6),
    ) {
        check_read(&mutate(VALID_REQUEST, &edits))?;
        check_read(&mutate(VALID_UPLOAD, &edits))?;
    }

    /// A declared length between the two limits passes the limit only
    /// on an upload, where the missing body is then a truncated 400;
    /// every other route answers 413 before reading the body. Past
    /// the upload limit both answer 413.
    #[test]
    fn body_limit_grants_the_upload_limit_only_to_uploads(
        length in MAX_BODY + 1..=MAX_UPLOAD_BODY + 1,
        path in prop::sample::select(vec!["/v1/traces/lanl", "/v1/traces/lanl/query"]),
    ) {
        let upload = path == "/v1/traces/lanl";
        let head = format!("POST {path} HTTP/1.1\r\ncontent-length: {length}\r\n\r\n");
        let err = read_request_with_limit(&mut BufReader::new(head.as_bytes()), body_limit)
            .expect_err("no body follows the head");
        let expected = if upload && length <= MAX_UPLOAD_BODY { 400 } else { 413 };
        prop_assert_eq!(err.status(), Some(expected), "{}", err.message());
    }

    #[test]
    fn analysis_request_parse_never_panics(
        text in "[{}\\[\\]\":,a-z0-9 .-]{0,80}",
        raw in prop::collection::vec(0u8..=255, 0..80),
        kind in prop::sample::select(REQUEST_KINDS.to_vec()),
        edits in prop::collection::vec((0usize..64, 0u8..=127, 0u8..3), 0..4),
    ) {
        let _ = AnalysisRequest::parse(&text);
        let _ = AnalysisRequest::parse(&String::from_utf8_lossy(&raw));
        let valid = format!("{{\"analysis\": \"{kind}\"}}");
        let mutated = mutate(valid.as_bytes(), &edits);
        let _ = AnalysisRequest::parse(&String::from_utf8_lossy(&mutated));
    }

    #[test]
    fn chaos_spec_parse_answers_arbitrary_text_with_a_value_or_an_error(
        text in "[{}\\[\\]\":,a-z0-9 .\n-]{0,160}",
        raw in prop::collection::vec(0u8..=255, 0..200),
    ) {
        check_chaos(&text)?;
        check_chaos(&String::from_utf8_lossy(&raw))?;
    }

    #[test]
    fn chaos_spec_parse_keeps_its_invariants_on_mutated_specs(
        edits in prop::collection::vec((0usize..320, 0u8..=255, 0u8..3), 1..6),
    ) {
        check_chaos(&String::from_utf8_lossy(&mutate(VALID_CHAOS.as_bytes(), &edits)))?;
    }

    #[test]
    fn chaos_spec_parse_keeps_its_invariants_on_generated_rules(
        rules in prop::collection::vec(
            (
                prop::sample::select(vec!["accept", "admission", "engine", "respond", "nowhere"]),
                prop::sample::select(vec!["latency", "stall", "error", "drop", "shed", "panic", "boom"]),
                -0.5f64..1.5,
                prop::option::of(0u64..1000),
                prop::option::of(0u64..100),
            ),
            0..5,
        ),
    ) {
        let rules: Vec<String> = rules
            .into_iter()
            .map(|(point, fault, probability, extra, max)| {
                let mut rule =
                    format!(r#"{{"point": "{point}", "fault": "{fault}", "probability": {probability}"#);
                if let Some(value) = extra {
                    let key = if fault == "error" { "status" } else { "ms" };
                    rule.push_str(&format!(r#", "{key}": {value}"#));
                }
                if let Some(max) = max {
                    rule.push_str(&format!(r#", "max": {max}"#));
                }
                rule.push('}');
                rule
            })
            .collect();
        check_chaos(&format!(r#"{{"seed": 1, "rules": [{}]}}"#, rules.join(", ")))?;
    }

    #[test]
    fn promtext_parse_answers_arbitrary_text_with_a_value_or_an_error(
        text in "[#{}=\",a-zA-Z_0-9 .\\\\\n+-]{0,160}",
        raw in prop::collection::vec(0u8..=255, 0..200),
    ) {
        check_scrape(&text)?;
        check_scrape(&String::from_utf8_lossy(&raw))?;
    }

    #[test]
    fn promtext_parse_answers_mutated_scrapes_with_a_value_or_an_error(
        edits in prop::collection::vec((0usize..420, 0u8..=255, 0u8..3), 1..6),
    ) {
        check_scrape(&String::from_utf8_lossy(&mutate(VALID_SCRAPE.as_bytes(), &edits)))?;
    }
}
