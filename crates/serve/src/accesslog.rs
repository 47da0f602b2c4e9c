//! The structured JSONL access log.
//!
//! One line per served request — valid JSON, keys sorted, no embedded
//! newlines — so the log is greppable *and* machine-parseable without
//! a log-shipping stack. Every line carries the request's trace id,
//! which is also echoed to the client in the `x-trace-id` header, so a
//! client-observed response joins to its server-side line (and, with
//! `x-trace: 1`, to its span tree) by a single id.
//!
//! The writer enforces a size cap: when appending a line would push
//! the file past `max_bytes`, the current file is renamed to
//! `<path>.1` (replacing any previous `.1`) and a fresh file is
//! started. One level of rotation bounds disk use at roughly
//! `2 * max_bytes` without a retention daemon.

use crate::phase::PHASES;
use hpcfail_obs::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Default rotation threshold: 16 MiB per file.
pub const DEFAULT_MAX_BYTES: u64 = 16 * 1024 * 1024;

/// One access-log record. Field names are the JSON keys; serialization
/// sorts them, so the wire order is alphabetical.
#[derive(Debug, Clone)]
pub struct AccessEntry {
    /// Trace id, 16 lowercase hex digits.
    pub trace_id: String,
    /// Request method, `-` when the request never parsed.
    pub method: String,
    /// Request path, `-` when the request never parsed.
    pub path: String,
    /// The request-kind label used for metrics (`trace-summary`,
    /// `batch`, `healthz`, `http-error`, ...).
    pub kind: String,
    /// Response status code.
    pub status: u16,
    /// Wall latency from the request's first byte to its last byte
    /// written, microseconds.
    pub latency_us: u64,
    /// The latency split by [`PHASES`], microseconds, summing exactly
    /// to `latency_us`; `None` (and no `phases_us` key) under `no-obs`.
    pub phases_us: Option<[u64; PHASES.len()]>,
    /// `hit` / `miss` / `coalesced`, or `-` when caching never applied.
    pub cache: String,
    /// The effective deadline, milliseconds.
    pub deadline_ms: u64,
    /// Response body size, bytes.
    pub bytes_out: u64,
    /// The shed reason (`queue_full`, `brownout`, ...) when admission
    /// rejected the request; `-` otherwise.
    pub shed: String,
}

impl AccessEntry {
    /// The single JSONL line for this entry (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("bytes_out", Json::Num(self.bytes_out as f64)),
            ("cache", Json::Str(self.cache.clone())),
            ("deadline_ms", Json::Num(self.deadline_ms as f64)),
            ("kind", Json::Str(self.kind.clone())),
            ("latency_us", Json::Num(self.latency_us as f64)),
            ("method", Json::Str(self.method.clone())),
            ("path", Json::Str(self.path.clone())),
            ("shed", Json::Str(self.shed.clone())),
            ("status", Json::Num(f64::from(self.status))),
            ("trace_id", Json::Str(self.trace_id.clone())),
        ];
        if let Some(phases) = self.phases_us {
            let phases = PHASES
                .iter()
                .zip(phases)
                .map(|(phase, us)| (phase.label(), Json::Num(us as f64)));
            fields.push(("phases_us", Json::obj(phases)));
        }
        Json::obj(fields).compact()
    }
}

struct LogState {
    file: File,
    bytes: u64,
}

/// A size-capped, thread-safe JSONL writer.
pub struct AccessLog {
    path: PathBuf,
    max_bytes: u64,
    state: Mutex<LogState>,
}

impl AccessLog {
    /// Opens (appending) the log at `path`, rotating once the file
    /// would exceed `max_bytes`.
    ///
    /// # Errors
    ///
    /// I/O errors creating or statting the file.
    pub fn open(path: impl Into<PathBuf>, max_bytes: u64) -> io::Result<AccessLog> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(AccessLog {
            path,
            max_bytes: max_bytes.max(1),
            state: Mutex::new(LogState { file, bytes }),
        })
    }

    /// The live log path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The rotated path (`<path>.1`).
    pub fn rotated_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(".1");
        PathBuf::from(name)
    }

    /// Appends one line; rotates first when the line would overflow
    /// the cap. Errors are swallowed: losing a log line must never
    /// fail a request.
    pub fn log(&self, entry: &AccessEntry) {
        let mut line = entry.to_line();
        line.push('\n');
        let Ok(mut state) = self.state.lock() else {
            return;
        };
        if state.bytes > 0 && state.bytes + line.len() as u64 > self.max_bytes {
            // Replace any previous .1; one rotation level is the cap.
            let _ = std::fs::rename(&self.path, self.rotated_path());
            match OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
            {
                Ok(file) => {
                    state.file = file;
                    state.bytes = 0;
                }
                Err(_) => return,
            }
        }
        if state.file.write_all(line.as_bytes()).is_ok() {
            state.bytes += line.len() as u64;
            let _ = state.file.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: &str, bytes_out: u64) -> AccessEntry {
        AccessEntry {
            trace_id: "00000000000000ab".to_owned(),
            method: "POST".to_owned(),
            path: "/query".to_owned(),
            kind: kind.to_owned(),
            status: 200,
            latency_us: 1500,
            phases_us: None,
            cache: "miss".to_owned(),
            deadline_ms: 10_000,
            bytes_out,
            shed: "-".to_owned(),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hpcfail-serve-accesslog");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn lines_are_single_line_valid_json() {
        let line = AccessEntry {
            phases_us: Some([300, 20, 0, 5, 900, 200, 75]),
            ..entry("trace-summary", 64)
        }
        .to_line();
        assert!(!line.contains('\n'));
        let parsed = hpcfail_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some("trace-summary")
        );
        assert_eq!(parsed.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(
            parsed.get("trace_id").and_then(Json::as_str),
            Some("00000000000000ab")
        );
        let phases = parsed.get("phases_us").expect("phases object");
        assert_eq!(phases.get("engine").and_then(Json::as_u64), Some(900));
        assert_eq!(phases.get("write").and_then(Json::as_u64), Some(75));
    }

    #[test]
    fn rotation_caps_the_live_file() {
        let path = temp_path("rotate");
        let rotated = {
            let log = AccessLog::open(&path, 256).expect("open");
            std::fs::remove_file(log.rotated_path()).ok();
            for i in 0..8 {
                log.log(&entry("healthz", i));
            }
            log.rotated_path()
        };
        let live = std::fs::read_to_string(&path).expect("live file");
        assert!(live.len() as u64 <= 256, "live stays under cap");
        assert!(rotated.exists(), "rotation happened");
        // Every line in both surviving files is intact JSON — rotation
        // never tears a line in half.
        let old = std::fs::read_to_string(&rotated).expect("rotated file");
        let mut total = 0;
        for line in live.lines().chain(old.lines()) {
            hpcfail_obs::json::parse(line).expect("each line parses");
            total += 1;
        }
        assert!(total >= 2, "live + rotated both hold lines, got {total}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&rotated).ok();
    }
}
