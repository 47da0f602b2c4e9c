//! The machine-readable JSON run manifest.
//!
//! One manifest captures everything needed to compare two runs: the
//! generation parameters (seed, scale), the build (`git describe`
//! string when available), per-span wall times, and every counter,
//! gauge and histogram total. The `repro` binary writes one under
//! `--manifest <path>`.

use crate::json::{self, Json};
use crate::registry::{HistogramSnapshot, Snapshot, SpanSnapshot};
use crate::sink::Sink;
use crate::window::WindowedSnapshot;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// The manifest schema version; bump on breaking layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// A complete run description.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Generation seed.
    pub seed: u64,
    /// Fleet scale in (0, 1].
    pub scale: f64,
    /// `git describe --always --dirty` output, when available.
    pub git_describe: Option<String>,
    /// The metrics snapshot taken at the end of the run.
    pub snapshot: Snapshot,
}

impl RunManifest {
    /// Builds a manifest from run parameters and a snapshot.
    pub fn new(seed: u64, scale: f64, git_describe: Option<String>, snapshot: Snapshot) -> Self {
        RunManifest {
            seed,
            scale,
            git_describe,
            snapshot,
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> Json {
        let spans = self
            .snapshot
            .spans
            .iter()
            .map(|(name, s)| {
                Json::obj([
                    ("name", Json::Str(name.clone())),
                    ("count", Json::Num(s.count as f64)),
                    ("total_ns", Json::Num(s.total_ns as f64)),
                    ("self_ns", Json::Num(s.self_ns as f64)),
                ])
            })
            .collect();
        let counters = Json::Obj(
            self.snapshot
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.snapshot
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.snapshot
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("count", Json::Num(h.count as f64)),
                            ("sum", Json::Num(h.sum as f64)),
                            ("max", Json::Num(h.max as f64)),
                            ("p50", Json::Num(h.p50)),
                            ("p90", Json::Num(h.p90)),
                            ("p95", Json::Num(h.p95)),
                            ("p99", Json::Num(h.p99)),
                        ]),
                    )
                })
                .collect(),
        );
        let windows = Json::Obj(
            self.snapshot
                .windows
                .iter()
                .map(|(k, w)| {
                    (
                        k.clone(),
                        Json::obj([
                            ("window_ms", Json::Num(w.window_ms as f64)),
                            ("count", Json::Num(w.count as f64)),
                            ("sum", Json::Num(w.sum as f64)),
                            ("max", Json::Num(w.max as f64)),
                            ("p50", Json::Num(w.p50)),
                            ("p90", Json::Num(w.p90)),
                            ("p95", Json::Num(w.p95)),
                            ("p99", Json::Num(w.p99)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("scale", Json::Num(self.scale)),
            (
                "git_describe",
                match &self.git_describe {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
            ("spans", Json::Arr(spans)),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("windows", windows),
        ])
    }

    /// Parses a manifest back from JSON text.
    pub fn from_json_str(text: &str) -> Result<RunManifest, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let need_u64 = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {key:?}"))
        };
        let version = need_u64("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version}, expected {SCHEMA_VERSION}"
            ));
        }
        let seed = need_u64("seed")?;
        let scale = doc
            .get("scale")
            .and_then(Json::as_f64)
            .ok_or("missing number field \"scale\"")?;
        let git_describe = match doc.get("git_describe") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("git_describe must be a string or null")?
                    .to_owned(),
            ),
        };
        let mut spans = BTreeMap::new();
        for entry in doc
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"spans\"")?
        {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("span entry without name")?;
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("span {name:?} missing {key:?}"))
            };
            spans.insert(
                name.to_owned(),
                SpanSnapshot {
                    count: field("count")?,
                    total_ns: field("total_ns")?,
                    self_ns: field("self_ns")?,
                },
            );
        }
        let mut counters = BTreeMap::new();
        if let Some(Json::Obj(map)) = doc.get("counters") {
            for (k, v) in map {
                counters.insert(
                    k.clone(),
                    v.as_u64()
                        .ok_or_else(|| format!("counter {k:?} not integral"))?,
                );
            }
        }
        let mut gauges = BTreeMap::new();
        if let Some(Json::Obj(map)) = doc.get("gauges") {
            for (k, v) in map {
                gauges.insert(
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| format!("gauge {k:?} not numeric"))?,
                );
            }
        }
        let mut histograms = BTreeMap::new();
        if let Some(Json::Obj(map)) = doc.get("histograms") {
            for (k, v) in map {
                let field = |key: &str| {
                    v.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("histogram {k:?} missing {key:?}"))
                };
                histograms.insert(
                    k.clone(),
                    HistogramSnapshot {
                        count: field("count")? as u64,
                        sum: field("sum")? as u64,
                        max: field("max")? as u64,
                        p50: field("p50")?,
                        p90: field("p90")?,
                        // Absent from manifests written before p95
                        // joined the snapshot; 0 marks "not recorded".
                        p95: v.get("p95").and_then(Json::as_f64).unwrap_or(0.0),
                        p99: field("p99")?,
                    },
                );
            }
        }
        // Absent from manifests written before sliding windows existed.
        let mut windows = BTreeMap::new();
        if let Some(Json::Obj(map)) = doc.get("windows") {
            for (k, v) in map {
                let field = |key: &str| {
                    v.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("window {k:?} missing {key:?}"))
                };
                windows.insert(
                    k.clone(),
                    WindowedSnapshot {
                        window_ms: field("window_ms")? as u64,
                        count: field("count")? as u64,
                        sum: field("sum")? as u64,
                        max: field("max")? as u64,
                        p50: field("p50")?,
                        p90: field("p90")?,
                        p95: field("p95")?,
                        p99: field("p99")?,
                    },
                );
            }
        }
        Ok(RunManifest {
            seed,
            scale,
            git_describe,
            snapshot: Snapshot {
                counters,
                gauges,
                histograms,
                windows,
                spans,
            },
        })
    }
}

/// A [`Sink`] writing the JSON manifest to a file.
pub struct ManifestSink {
    path: PathBuf,
    seed: u64,
    scale: f64,
    git_describe: Option<String>,
}

impl ManifestSink {
    /// A sink that will write to `path`.
    pub fn new(
        path: impl Into<PathBuf>,
        seed: u64,
        scale: f64,
        git_describe: Option<String>,
    ) -> Self {
        ManifestSink {
            path: path.into(),
            seed,
            scale,
            git_describe,
        }
    }
}

impl Sink for ManifestSink {
    fn export(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        let manifest = RunManifest::new(
            self.seed,
            self.scale,
            self.git_describe.clone(),
            snapshot.clone(),
        );
        crate::fs::write_atomic(&self.path, manifest.to_json().pretty().as_bytes())
    }
}

/// Best-effort `git describe --always --dirty` for the manifest's build
/// field; `None` when git or the repository is unavailable.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_manifest() -> RunManifest {
        let registry = Registry::new();
        registry.counter("synth.failures").add(1234);
        registry.gauge("store.filter_hit_rate").set(0.875);
        registry.histogram("core.parallel.batch_ns").record(2048);
        drop(crate::span::Span::enter_in(&registry, "experiment.sec3a"));
        RunManifest::new(42, 0.25, Some("v0-3-gabc".into()), registry.snapshot())
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let manifest = sample_manifest();
        let text = manifest.to_json().pretty();
        let back = RunManifest::from_json_str(&text).expect("parses");
        assert_eq!(back.seed, manifest.seed);
        assert_eq!(back.scale, manifest.scale);
        assert_eq!(back.git_describe, manifest.git_describe);
        assert_eq!(back.snapshot.counters, manifest.snapshot.counters);
        assert_eq!(back.snapshot.gauges, manifest.snapshot.gauges);
        assert!(back.snapshot.spans.contains_key("experiment.sec3a"));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let registry = Registry::new();
        registry.counter("serve.requests").add(17);
        registry.gauge("serve.inflight").set(2.0);
        let h = registry.histogram("serve.latency_ns");
        for v in [900, 1_500, 40_000, 2_000_000] {
            h.record(v);
        }
        registry
            .window("serve.window.latency_ns")
            .record_at_ms(0, 1234);
        let manifest = RunManifest::new(9, 0.5, None, registry.snapshot());

        let text = manifest.to_json().pretty();
        let back = RunManifest::from_json_str(&text).expect("parses");
        assert_eq!(back, manifest);
        let rewritten = back.to_json().pretty();
        assert_eq!(rewritten, text, "write -> parse -> re-write must be stable");
    }

    #[test]
    fn old_manifest_without_p95_or_windows_still_parses() {
        // The exact shape manifests had before p95 and sliding windows
        // joined the schema.
        let text = r#"{
            "schema_version": 1,
            "seed": 3,
            "scale": 1.0,
            "git_describe": null,
            "spans": [{"name": "engine.run", "count": 2, "total_ns": 10, "self_ns": 10}],
            "counters": {"serve.requests": 5},
            "gauges": {},
            "histograms": {
                "serve.latency_ns": {
                    "count": 5, "sum": 50, "max": 20,
                    "p50": 8.0, "p90": 18.0, "p99": 20.0
                }
            }
        }"#;
        let back = RunManifest::from_json_str(text).expect("old manifests stay parseable");
        let hist = &back.snapshot.histograms["serve.latency_ns"];
        assert_eq!(hist.count, 5);
        assert_eq!(hist.p95, 0.0, "missing p95 defaults to zero");
        assert_eq!(hist.p99, 20.0);
        assert!(back.snapshot.windows.is_empty());
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = r#"{"schema_version": 999, "seed": 1, "scale": 1.0, "spans": []}"#;
        assert!(RunManifest::from_json_str(text).is_err());
    }

    #[test]
    fn manifest_sink_writes_file() {
        let dir = std::env::temp_dir().join("hpcfail-obs-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("manifest-{}.json", std::process::id()));
        let registry = Registry::new();
        registry.counter("c").inc();
        ManifestSink::new(&path, 7, 1.0, None)
            .export(&registry.snapshot())
            .expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        let back = RunManifest::from_json_str(&text).expect("parses");
        assert_eq!(back.seed, 7);
        assert_eq!(back.snapshot.counters["c"], 1);
        std::fs::remove_file(&path).ok();
    }
}
