//! Outside-input properties: the route table, the HTTP reader and the
//! request parser take arbitrary input and answer with a value or a
//! typed error, never a panic.

use hpcfail_core::engine::{AnalysisRequest, REQUEST_KINDS};
use hpcfail_serve::http::{read_request, MAX_BODY};
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

/// Parses `bytes` as one request and checks the reader's contract.
fn check_read(bytes: &[u8]) -> Result<(), TestCaseError> {
    match read_request(&mut BufReader::new(bytes)) {
        Ok(Some(request)) => prop_assert!(request.body.len() <= MAX_BODY),
        Ok(None) => {}
        Err(err) => {
            let status = err.status().map(|(status, _)| status);
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
}
