//! A tiny blocking HTTP client for the query service.
//!
//! Exists so the CLI (`hpcfail-serve query`) and CI smoke jobs can
//! talk to a server without external tooling like `curl`.

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

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line {status_line:?}"),
                )
            })?;
        let mut response_headers = Vec::new();
        let mut content_length: Option<usize> = None;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let line = line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_owned();
                if name == "content-length" {
                    content_length = value.parse().ok();
                }
                response_headers.push((name, value));
            }
        }
        let mut body_bytes = Vec::new();
        match content_length {
            Some(n) => {
                body_bytes.resize(n, 0);
                reader.read_exact(&mut body_bytes)?;
            }
            None => {
                reader.read_to_end(&mut body_bytes)?;
            }
        }
        let body = String::from_utf8(body_bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
        Ok(Response {
            status,
            headers: response_headers,
            body,
        })
    }
}
