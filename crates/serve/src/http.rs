//! A minimal, hardened HTTP/1.1 reader and writer.
//!
//! Only what the query service needs: request-line + headers + sized
//! body parsing with strict limits, and plain sized responses. Every
//! malformed input maps to a typed [`HttpError`] carrying the 4xx
//! status to answer with — parsing never panics, whatever the bytes.

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Longest accepted request line or header line, bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most accepted headers per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body on analysis/control endpoints, bytes.
pub const MAX_BODY: usize = 1024 * 1024;
/// Largest accepted request body on trace-upload endpoints, bytes.
/// The server's per-request limit callback returns this for
/// `POST /v1/traces/{name}` and [`MAX_BODY`] everywhere else, so an
/// oversized declaration still gets its typed 413 before any body
/// byte is read.
pub const MAX_UPLOAD_BODY: usize = 64 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method, e.g. `GET`.
    pub method: String,
    /// The path, query string included, e.g. `/v1/healthz`.
    pub path: String,
    /// Header pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `content-length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the (lower-cased) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` if the client asked to close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request; answer 400.
    Malformed(String),
    /// A line, header count or body over the limits; answer 413.
    TooLarge(String),
    /// The client started a request but stalled past the read
    /// timeout (slow-loris); answer 408.
    Timeout(String),
    /// The underlying socket failed; drop the connection.
    Io(io::Error),
}

impl HttpError {
    /// The status code this error maps to (I/O has none).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::TooLarge(_) => Some((413, "Content Too Large")),
            HttpError::Timeout(_) => Some((408, "Request Timeout")),
            HttpError::Io(_) => None,
        }
    }

    /// Human-readable detail, safe to return to the client.
    pub fn message(&self) -> String {
        match self {
            HttpError::Malformed(m) | HttpError::TooLarge(m) | HttpError::Timeout(m) => m.clone(),
            HttpError::Io(e) => e.to_string(),
        }
    }
}

/// `true` for the error kinds a socket read timeout surfaces as.
fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line up to CRLF (or bare LF), enforcing [`MAX_LINE`].
/// `Ok(None)` means the peer closed before sending anything.
///
/// A read timeout with zero bytes buffered is only benign on the
/// *first* line of a request (`allow_idle`: an idle keep-alive
/// connection going quiet); once any byte of a request has arrived, a
/// stall is a slow client and maps to [`HttpError::Timeout`] so the
/// server can answer with a typed 408 instead of silently dropping.
fn read_line(stream: &mut impl BufRead, allow_idle: bool) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = match stream.read(&mut byte) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(e.kind()) => {
                if line.is_empty() && allow_idle {
                    return Ok(None);
                }
                return Err(HttpError::Timeout(
                    "read timeout mid-request (slow client)".to_owned(),
                ));
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("truncated line".to_owned()));
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let text = String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".to_owned()))?;
            return Ok(Some(text));
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE {
            return Err(HttpError::TooLarge(format!(
                "line exceeds {MAX_LINE} bytes"
            )));
        }
    }
}

/// Reads one request under the default [`MAX_BODY`] limit. `Ok(None)`
/// means the connection closed cleanly between requests (normal
/// keep-alive end).
pub fn read_request(stream: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    read_request_with_limit(stream, |_, _| MAX_BODY)
}

/// Reads one request, asking `max_body(method, path)` — called once
/// the request line is parsed, before any body byte is read — how
/// large a body this endpoint accepts. The server grants
/// [`MAX_UPLOAD_BODY`] to trace uploads and [`MAX_BODY`] to everything
/// else; over-limit declarations answer a typed 413 immediately.
pub fn read_request_with_limit(
    stream: &mut impl BufRead,
    max_body: impl FnOnce(&str, &str) -> usize,
) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(stream, true)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, false)?
            .ok_or_else(|| HttpError::Malformed("connection closed mid-headers".to_owned()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let content_length = body_length(&headers)?;
    let max_body = max_body(&method.to_ascii_uppercase(), path);
    if content_length > max_body {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {max_body}"
        )));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        stream.read_exact(&mut body).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => HttpError::Malformed("truncated body".to_owned()),
            kind if is_timeout(kind) => {
                HttpError::Timeout("read timeout mid-body (slow client)".to_owned())
            }
            _ => HttpError::Io(e),
        })?;
    }

    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        headers,
        body,
    }))
}

/// The body length the headers declare, refusing every framing two
/// readers could disagree on (request smuggling): conflicting
/// `content-length` headers, a value that is not plain digits (RFC
/// 9112 allows no sign), and any `transfer-encoding`, whose chunks a
/// length-only reader would take for the next request.
fn body_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut declared: Option<&str> = None;
    for (name, value) in headers {
        match name.as_str() {
            "transfer-encoding" => {
                return Err(HttpError::Malformed(format!(
                    "unsupported transfer-encoding {value:?}; send a content-length body"
                )))
            }
            "content-length" if declared.is_some_and(|seen| seen != value) => {
                return Err(HttpError::Malformed(
                    "conflicting content-length headers".to_owned(),
                ))
            }
            "content-length" => declared = Some(value),
            _ => {}
        }
    }
    let Some(v) = declared else { return Ok(0) };
    v.bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| v.parse::<usize>().ok())
        .flatten()
        .ok_or_else(|| HttpError::Malformed(format!("invalid content-length {v:?}")))
}

/// Writes one sized response. `extra_headers` are emitted verbatim
/// after the standard ones; supplying a `content-type` there replaces
/// the default `application/json` (the `/metrics` endpoint answers in
/// Prometheus text format).
///
/// The head and the body go out as one buffer in one `write_all`. The
/// server sets `TCP_NODELAY`, so a second write would leave as a second
/// segment, and the client would wait for it on every response.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let custom_content_type = extra_headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("content-type"));
    let mut head = String::with_capacity(160 + body.len());
    let _ = write!(head, "HTTP/1.1 {status} {reason}\r\n");
    if !custom_content_type {
        head.push_str("content-type: application/json\r\n");
    }
    let _ = write!(head, "content-length: {}\r\n", body.len());
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    head.push_str(body);
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .expect("parses")
            .expect("present");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        assert!(parse(b"").expect("clean").is_none());
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bytes in [
            b"garbage\r\n\r\n".as_slice(),
            b"GET HTTP/1.1\r\n\r\n".as_slice(),
            b"GET /x HTTP/9.9\r\n\r\n".as_slice(),
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort".as_slice(),
            b"GET /x HTTP/1.1\r\ntrunc".as_slice(),
            b"\xff\xfe /x HTTP/1.1\r\n\r\n".as_slice(),
        ] {
            let err = parse(bytes).expect_err("must be rejected");
            assert_eq!(err.status().map(|(s, _)| s), Some(400), "{}", err.message());
        }
    }

    fn assert_malformed(bytes: &[u8]) {
        let err = parse(bytes).expect_err("ambiguous framing must be rejected");
        assert_eq!(err.status().map(|(s, _)| s), Some(400), "{}", err.message());
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        assert_malformed(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 40\r\n\r\nab");
        // Repeating the same value is unambiguous and stays accepted.
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab")
            .expect("identical duplicates parse")
            .expect("present");
        assert_eq!(req.body, b"ab");
    }

    #[test]
    fn rejects_a_signed_content_length() {
        assert_malformed(b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nab");
    }

    #[test]
    fn rejects_chunked_transfer_encoding() {
        assert_malformed(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nab\r\n0\r\n\r\n",
        );
    }

    /// Serves `data`, then times out forever — a slow-loris client.
    struct Stalling<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl std::io::Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.data.len() {
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
            }
        }
    }

    fn parse_stalling(data: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(Stalling { data, pos: 0 }))
    }

    #[test]
    fn idle_timeout_before_any_byte_is_a_silent_close() {
        assert!(parse_stalling(b"").expect("benign idle").is_none());
    }

    #[test]
    fn stalls_mid_request_map_to_typed_408() {
        for data in [
            b"GET /que".as_slice(),
            b"GET /x HTTP/1.1\r\nhost: x\r\n".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort".as_slice(),
        ] {
            let err = parse_stalling(data).expect_err("stalled request");
            assert_eq!(
                err.status().map(|(s, _)| s),
                Some(408),
                "{:?}: {}",
                data,
                err.message()
            );
        }
    }

    #[test]
    fn rejects_oversized_inputs() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        let err = parse(long_line.as_bytes()).expect_err("too long");
        assert_eq!(err.status().map(|(s, _)| s), Some(413));

        let huge_body = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(huge_body.as_bytes()).expect_err("too big");
        assert_eq!(err.status().map(|(s, _)| s), Some(413));

        let mut many_headers = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many_headers.push_str(&format!("h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        let err = parse(many_headers.as_bytes()).expect_err("too many");
        assert_eq!(err.status().map(|(s, _)| s), Some(413));
    }

    #[test]
    fn extra_content_type_replaces_the_default() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "OK",
            &[("content-type", "text/plain; version=0.0.4")],
            "x 1\n",
            false,
        )
        .expect("writes");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.contains("content-type: text/plain; version=0.0.4\r\n"));
        assert!(
            !text.contains("application/json"),
            "default content type suppressed: {text}"
        );
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_the_head_then_the_body() {
        // Writes one response and checks it went out in one call, as
        // exactly the bytes of `head` followed by the body.
        let check = |status, reason, headers: &[(&str, &str)], body: &str, close, head: &str| {
            let mut out = CountingWriter::default();
            write_response(&mut out, status, reason, headers, body, close).expect("writes");
            assert_eq!(out.writes, 1, "{status} {reason}: one write per response");
            assert_eq!(
                String::from_utf8(out.bytes).expect("utf-8"),
                format!("{head}{body}"),
                "{status} {reason}: the bytes are the head, then the body"
            );
        };
        check(
            200,
            "OK",
            &[("x-trace-id", "00000000000000ab"), ("x-cache", "miss")],
            "{\n  \"answer\": 42\n}",
            false,
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 18\r\n\
             x-trace-id: 00000000000000ab\r\nx-cache: miss\r\n\r\n",
        );
        check(
            200,
            "OK",
            &[("content-type", "text/plain; version=0.0.4")],
            "serve_requests_total 3\n",
            false,
            "HTTP/1.1 200 OK\r\ncontent-length: 23\r\n\
             content-type: text/plain; version=0.0.4\r\n\r\n",
        );
        check(
            503,
            "Service Unavailable",
            &[("retry-after", "1")],
            "{}",
            true,
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
             content-length: 2\r\nretry-after: 1\r\nconnection: close\r\n\r\n",
        );
    }

    #[test]
    fn writes_a_sized_response() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", &[("x-cache", "hit")], "{}\n", false).expect("writes");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.contains("x-cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }
}
