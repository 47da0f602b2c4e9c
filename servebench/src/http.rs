//! The server under test as a child process, and the benchmark's own
//! keep-alive HTTP/1.1 client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `hpcfail-serve serve` process. Dropping it kills the
/// process and waits for it.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// From spawn to the first `200` from `/v1/healthz`.
    pub setup: Duration,
}

impl Server {
    /// Spawns the server with `args` after `serve`, waits for its
    /// `ADDR` line, then for one `200` from `/v1/healthz`.
    pub fn boot(binary: &Path, args: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--quiet"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening ({args:?})"));
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("ADDR ") {
                        break addr.to_owned();
                    }
                }
            }
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            setup: Duration::ZERO,
        };
        let reply = Conn::open(&server.addr)
            .and_then(|mut c| c.exchange(&get("/v1/healthz"), &[]))
            .map_err(|e| format!("healthz failed: {e}"))?;
        if reply.status != 200 {
            return Err(format!("healthz answered {}", reply.status));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    pub fn get(&self, path: &str) -> Result<Reply, String> {
        let reply = Conn::open(&self.addr)
            .and_then(|mut c| c.exchange(&get(path), &[]))
            .map_err(|e| format!("GET {path}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET {path} answered {}", reply.status));
        }
        Ok(reply)
    }

    /// Asks the server to stop and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::open(&self.addr)
            .and_then(|mut c| c.exchange(&post_head("/v1/shutdown", 0, "application/json"), &[]));
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked.is_ok() && Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not stop on /v1/shutdown".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

/// A POST head; the body follows separately.
pub fn post_head(path: &str, len: usize, content_type: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: {content_type}\r\ncontent-length: {len}\r\n\r\n"
    )
    .into_bytes()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    Hit,
    Miss,
    Coalesced,
}

pub struct Reply {
    pub status: u16,
    pub cache: Option<CacheOutcome>,
    pub body: Vec<u8>,
    /// Request write, wait for the first response byte, and the rest
    /// of the response, in nanoseconds.
    pub write_ns: u64,
    pub ttfb_ns: u64,
    pub body_ns: u64,
}

/// One persistent connection.
pub struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
    /// Connections opened after the first.
    pub reconnects: u64,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let mut conn = Conn {
            addr: addr.to_owned(),
            reader: None,
            reconnects: 0,
        };
        conn.connect()?;
        conn.reconnects = 0;
        Ok(conn)
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        self.reader = Some(BufReader::with_capacity(64 * 1024, stream));
        self.reconnects += 1;
        Ok(())
    }

    /// Sends `head` then `body` and reads one response. A connection
    /// the server closed is reopened before the next request.
    pub fn exchange(&mut self, head: &[u8], body: &[u8]) -> io::Result<Reply> {
        if self.reader.is_none() {
            self.connect()?;
        }
        let result = self.round_trip(head, body);
        match &result {
            Ok(reply) if !reply.close => {}
            _ => self.reader = None,
        }
        result.map(|r| r.reply)
    }

    fn round_trip(&mut self, head: &[u8], body: &[u8]) -> io::Result<Exchange> {
        let reader = self.reader.as_mut().expect("connected");
        let start = Instant::now();
        let stream = reader.get_mut();
        stream.write_all(head)?;
        if !body.is_empty() {
            stream.write_all(body)?;
        }
        let written = Instant::now();
        if reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            ));
        }
        let first = Instant::now();
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        let mut cache = None;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers".to_owned()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad(format!("bad header {header:?}")));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    len = value
                        .parse()
                        .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                }
                "x-cache" => {
                    cache = match value {
                        "hit" => Some(CacheOutcome::Hit),
                        "miss" => Some(CacheOutcome::Miss),
                        "coalesced" => Some(CacheOutcome::Coalesced),
                        _ => None,
                    };
                }
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        let end = Instant::now();
        Ok(Exchange {
            reply: Reply {
                status,
                cache,
                body,
                write_ns: nanos(written - start),
                ttfb_ns: nanos(first - written),
                body_ns: nanos(end - first),
            },
            close,
        })
    }
}

struct Exchange {
    reply: Reply,
    close: bool,
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}
