//! A tiny blocking HTTP client for the query service.
//!
//! Exists so the CLI (`hpcfail-serve query`) and CI smoke jobs can
//! talk to a server without external tooling like `curl`.

use crate::http::{body_length, read_headers, read_line, MAX_UPLOAD_BODY};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One response, as the client saw it.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Header pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body text.
    pub body: String,
}

impl Response {
    /// First value of the (lower-cased) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// A client for `addr` (`host:port`) with a 30-second socket
    /// timeout.
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
        }
    }

    /// Overrides the socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sends a GET.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn get(&self, path: &str) -> io::Result<Response> {
        self.send("GET", path, None, &[])
    }

    /// Sends a POST with a JSON body and optional extra headers.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn post(&self, path: &str, body: &str, headers: &[(&str, &str)]) -> io::Result<Response> {
        self.send("POST", path, Some(body.as_bytes()), headers)
    }

    /// Sends a POST with a binary body (trace uploads: `.hpcsnap`
    /// bytes or raw CSV) and optional extra headers.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn post_bytes(
        &self,
        path: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> io::Result<Response> {
        self.send("POST", path, Some(body), headers)
    }

    /// Sends a DELETE (trace eviction).
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn delete(&self, path: &str) -> io::Result<Response> {
        self.send("DELETE", path, None, &[])
    }

    fn send(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        headers: &[(&str, &str)],
    ) -> io::Result<Response> {
        let addr = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let mut writer = stream.try_clone()?;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\nconnection: close\r\n",
            self.addr
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        let body = body.unwrap_or(b"");
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        // One buffer, one write: on a TCP_NODELAY peer a separate body
        // write leaves as a second segment the server must wait for.
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        writer.write_all(&request)?;
        writer.flush()?;

        read_response(&mut BufReader::new(stream))
    }
}

/// Reads one response with the server's own readers: lines of at most
/// [`MAX_LINE`](crate::http::MAX_LINE) bytes, at most
/// [`MAX_HEADERS`](crate::http::MAX_HEADERS) headers and the same
/// `content-length` rules, then a body of the declared length, or up
/// to the end of the stream without one.
///
/// A body is at most [`MAX_UPLOAD_BODY`] bytes. A larger declared
/// length is refused before anything is allocated, and the body buffer
/// grows only as bytes arrive, so a length the peer never sends costs
/// nothing.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for a malformed head (a line the
/// stream cuts short included), limits exceeded, or a non-UTF-8 body;
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends before the
/// status line or inside the declared body; [`io::ErrorKind::TimedOut`]
/// for a read timeout; other socket errors as they come.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let status_line = read_line(reader, false)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        )
    })?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid_data(format!("malformed status line {status_line:?}")))?;
    let headers = read_headers(reader)?;
    // Without a content-length the body runs to the end of the stream.
    let sized = headers.iter().any(|(name, _)| name == "content-length");
    let too_large = || invalid_data(format!("response body exceeds {MAX_UPLOAD_BODY} bytes"));
    let limit = match sized.then(|| body_length(&headers)).transpose()? {
        Some(n) if n > MAX_UPLOAD_BODY => return Err(too_large()),
        Some(n) => n,
        None => MAX_UPLOAD_BODY + 1,
    };
    let mut body = Vec::new();
    reader.take(limit as u64).read_to_end(&mut body)?;
    if sized && body.len() < limit {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "response body cut short",
        ));
    }
    if body.len() > MAX_UPLOAD_BODY {
        return Err(too_large());
    }
    let body = String::from_utf8(body).map_err(|_| invalid_data("non-UTF-8 response body"))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn invalid_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}
