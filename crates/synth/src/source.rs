//! One parser and one loader for where a run's trace comes from.
//!
//! `repro`, `hpcfail-serve serve`, `hpcfail-load run` and `corrupt
//! --generate` read their trace source with [`SourceFlags`] and load it
//! with [`load`]; each maps an [`ArgError`] or a [`LoadError`] to its
//! own exit code. `hpcfail-load` takes generated inputs only, and
//! `corrupt` the fleet only. The rules are the same in every binary:
//!
//! - No source flag, or only `--scale S`/`--seed N`, is the LANL-shaped
//!   fleet. The default scale is 1.0, the paper's full fleet; the
//!   default seed is 42.
//! - A scale outside (0, 1], NaN and the infinities included, is
//!   [`ArgError::Scale`]. Nothing clamps.
//! - `--scale`/`--seed` beside `--trace DIR`/`--snapshot PATH` only
//!   label the run (manifests, `repro`'s ablation seed and validate
//!   tolerance). Without `--scale`, a read trace's scale is inferred
//!   from its node count ([`inferred_scale`]).
//! - `--scenario NAME|PATH` runs a pack with its own seed; any other
//!   source flag beside it is [`ArgError::ScenarioConflict`].
//! - `--snapshot` with `--trace` reads the snapshot first; an unusable
//!   one falls back to the CSV directory and [`Loaded::fallback`] says
//!   why.
//! - `--policy` (strict, lenient or best-effort; default strict)
//!   governs CSV ingest, so it needs `--trace`
//!   ([`ArgError::PolicyWithoutTrace`]). The last of a repeated flag
//!   wins.

use crate::scenario::{self, ScenarioError};
use crate::FleetSpec;
use hpcfail_store::csv::CsvError;
use hpcfail_store::ingest::{
    load_trace_snapshot_first, load_trace_with, IngestPolicy, IngestReport,
};
use hpcfail_store::snapshot::{read_snapshot, SnapshotError, SnapshotFallback};
use hpcfail_store::trace::Trace;
use std::fmt;
use std::path::PathBuf;

/// Where a run's trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceInput {
    /// The LANL-shaped fleet.
    Fleet {
        /// Scale in (0, 1].
        scale: f64,
        /// Generation seed.
        seed: u64,
    },
    /// A scenario pack.
    Scenario {
        /// A builtin pack name or a path to a JSON file.
        pack: String,
    },
    /// A CSV trace directory.
    Csv {
        /// The directory.
        dir: PathBuf,
        /// How malformed lines are handled.
        policy: IngestPolicy,
    },
    /// A binary snapshot.
    Snapshot {
        /// The `.hpcsnap` file.
        path: PathBuf,
        /// The CSV directory and policy to read if it is unusable.
        csv_fallback: Option<(PathBuf, IngestPolicy)>,
    },
}

impl fmt::Display for TraceInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceInput::Fleet { scale, seed } => write!(f, "fleet scale={scale} seed={seed}"),
            TraceInput::Scenario { pack } => write!(f, "scenario {pack}"),
            TraceInput::Csv { dir, policy } => write!(f, "{} ({policy})", dir.display()),
            TraceInput::Snapshot { path, .. } => write!(f, "snapshot {}", path.display()),
        }
    }
}

/// A parsed trace source and the run's labels.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceArgs {
    /// Where the trace comes from.
    pub input: TraceInput,
    /// The fleet's scale (default 1.0), else `--scale` if given.
    pub scale: Option<f64>,
    /// The fleet's seed, else `--seed` (default 42).
    pub seed: u64,
}

/// A bad trace-source flag: a usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// The flag was the last argument.
    MissingValue(String),
    /// `--scale` was not a number in (0, 1].
    Scale(String),
    /// `--seed` was not an unsigned 64-bit integer.
    Seed(String),
    /// `--policy` was not strict, lenient or best-effort.
    Policy(String),
    /// `--scenario` came with this other source flag.
    ScenarioConflict(&'static str),
    /// `--policy` came without `--trace`.
    PolicyWithoutTrace,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Scale(v) => write!(f, "--scale must be positive and at most 1, got {v:?}"),
            ArgError::Seed(v) => write!(f, "--seed must be an unsigned integer, got {v:?}"),
            ArgError::Policy(v) => write!(
                f,
                "--policy takes strict, lenient or best-effort, not {v:?}"
            ),
            ArgError::ScenarioConflict(x) => write!(f, "--scenario cannot be combined with {x}"),
            ArgError::PolicyWithoutTrace => write!(f, "--policy applies to --trace DIR only"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Collects trace-source flags inside a binary's argument loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceFlags {
    scale: Option<f64>,
    seed: Option<u64>,
    scenario: Option<String>,
    trace: Option<PathBuf>,
    policy: Option<IngestPolicy>,
    snapshot: Option<PathBuf>,
}

impl SourceFlags {
    /// Consumes `arg` and its value from `rest` if `arg` is a
    /// trace-source flag; `Ok(false)`, consuming nothing, otherwise.
    /// Fails on a missing or malformed value.
    pub fn take<I>(&mut self, arg: &str, rest: &mut I) -> Result<bool, ArgError>
    where
        I: Iterator,
        I::Item: AsRef<str>,
    {
        let mut value = || {
            let value = rest.next().map(|v| v.as_ref().to_owned());
            value.ok_or_else(|| ArgError::MissingValue(arg.to_owned()))
        };
        match arg {
            "--scale" => {
                self.scale = Some(parse(value()?, |s| *s > 0.0 && *s <= 1.0, ArgError::Scale)?)
            }
            "--seed" => self.seed = Some(parse(value()?, |_| true, ArgError::Seed)?),
            "--policy" => self.policy = Some(parse(value()?, |_| true, ArgError::Policy)?),
            "--scenario" => self.scenario = Some(value()?),
            "--trace" => self.trace = Some(value()?.into()),
            "--snapshot" => self.snapshot = Some(value()?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// `true` once any trace-source flag has been taken.
    pub fn given(&self) -> bool {
        *self != SourceFlags::default()
    }

    /// Resolves the flags by the rules in the module docs; fails with
    /// [`ArgError::ScenarioConflict`] or [`ArgError::PolicyWithoutTrace`].
    pub fn finish(self) -> Result<SourceArgs, ArgError> {
        if self.policy.is_some() && self.trace.is_none() {
            return Err(ArgError::PolicyWithoutTrace);
        }
        let seed = self.seed.unwrap_or(42);
        let policy = self.policy.unwrap_or_default();
        let input = match (self.scenario, self.snapshot, self.trace) {
            (Some(pack), snapshot, trace) => {
                let others = [
                    (self.scale.is_some(), "--scale"),
                    (self.seed.is_some(), "--seed"),
                    (trace.is_some(), "--trace"),
                    (snapshot.is_some(), "--snapshot"),
                ];
                if let Some((_, flag)) = others.into_iter().find(|(given, _)| *given) {
                    return Err(ArgError::ScenarioConflict(flag));
                }
                TraceInput::Scenario { pack }
            }
            (None, Some(path), trace) => TraceInput::Snapshot {
                path,
                csv_fallback: trace.map(|dir| (dir, policy)),
            },
            (None, None, Some(dir)) => TraceInput::Csv { dir, policy },
            (None, None, None) => TraceInput::Fleet {
                scale: self.scale.unwrap_or(1.0),
                seed,
            },
        };
        let scale = match input {
            TraceInput::Fleet { scale, .. } => Some(scale),
            _ => self.scale,
        };
        Ok(SourceArgs { input, scale, seed })
    }
}

/// Parses `value` as a `T` that passes `valid`, else makes `error` of it.
fn parse<T: std::str::FromStr>(
    value: String,
    valid: fn(&T) -> bool,
    error: fn(String) -> ArgError,
) -> Result<T, ArgError> {
    value.parse().ok().filter(valid).ok_or_else(|| error(value))
}

/// A trace source that could not be read.
#[derive(Debug)]
pub enum LoadError {
    /// The scenario pack (name or path) is unknown, unreadable or invalid.
    Scenario(String, ScenarioError),
    /// The CSV directory, or a snapshot's CSV fallback, failed.
    Csv(PathBuf, CsvError),
    /// A snapshot without a CSV fallback failed.
    Snapshot(PathBuf, SnapshotError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Scenario(pack, e) => write!(f, "cannot load scenario {pack:?}: {e}"),
            LoadError::Csv(dir, e) => write!(f, "cannot load trace from {}: {e}", dir.display()),
            LoadError::Snapshot(path, e) => {
                write!(f, "cannot load snapshot {}: {e}", path.display())
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// A fleet to generate.
#[derive(Debug, Clone)]
pub struct Generator {
    /// The fleet description.
    pub spec: FleetSpec,
    /// The generation seed; a scenario's is its pack's own.
    pub seed: u64,
    /// `scale=S seed=N` or `scenario=NAME`.
    pub label: String,
}

impl TraceInput {
    /// The fleet behind a `Fleet` or `Scenario` input, reading the pack
    /// (which can fail); `None` for a trace that is read, not generated.
    /// [`FleetSpec::lanl_scaled`] panics on a `Fleet` scale outside
    /// (0, 1], which [`SourceFlags`] never produces.
    pub fn generator(&self) -> Result<Option<Generator>, LoadError> {
        let (spec, seed, label) = match self {
            TraceInput::Fleet { scale, seed } => (
                FleetSpec::lanl_scaled(*scale),
                *seed,
                format!("scale={scale} seed={seed}"),
            ),
            TraceInput::Scenario { pack } => {
                let s = scenario::load(pack).map_err(|e| LoadError::Scenario(pack.clone(), e))?;
                (s.fleet(), s.seed, format!("scenario={}", s.name))
            }
            TraceInput::Csv { .. } | TraceInput::Snapshot { .. } => return Ok(None),
        };
        Ok(Some(Generator { spec, seed, label }))
    }
}

/// A loaded trace and what loading it found.
#[derive(Debug)]
pub struct Loaded {
    /// The trace.
    pub trace: Trace,
    /// A generator's own seed, else the `--seed` label.
    pub seed: u64,
    /// The scale the trace stands for: [`SourceArgs::scale`], else 1.0
    /// for a scenario and [`inferred_scale`] for a read trace.
    pub scale: f64,
    /// The CSV ingest report, when CSV was read.
    pub report: Option<IngestReport>,
    /// Why the snapshot was passed over for its CSV fallback.
    pub fallback: Option<SnapshotFallback>,
}

/// Generates or reads the trace `source` names. An unusable snapshot
/// with a CSV fallback is not an error: [`Loaded::fallback`] says why.
pub fn load(source: &SourceArgs) -> Result<Loaded, LoadError> {
    let loaded = |trace: Trace, seed, report, fallback| Loaded {
        scale: source.scale.unwrap_or_else(|| inferred_scale(&trace)),
        trace,
        seed,
        report,
        fallback,
    };
    if let Some(g) = source.input.generator()? {
        let trace = g.spec.generate(g.seed).into_store();
        return Ok(Loaded {
            scale: source.scale.unwrap_or(1.0),
            ..loaded(trace, g.seed, None, None)
        });
    }
    let seed = source.seed;
    match &source.input {
        TraceInput::Csv { dir, policy } => load_trace_with(dir, *policy)
            .map(|(trace, report)| loaded(trace, seed, Some(report), None))
            .map_err(|e| LoadError::Csv(dir.clone(), e)),
        TraceInput::Snapshot { path, csv_fallback } => match csv_fallback {
            Some((dir, policy)) => load_trace_snapshot_first(path, dir, *policy)
                .map(|(trace, report, why)| loaded(trace, seed, report, why))
                .map_err(|e| LoadError::Csv(dir.clone(), e)),
            None => read_snapshot(path)
                .map(|trace| loaded(trace, seed, None, None))
                .map_err(|e| LoadError::Snapshot(path.clone(), e)),
        },
        TraceInput::Fleet { .. } | TraceInput::Scenario { .. } => unreachable!("generated above"),
    }
}

/// The scale a trace's node count stands for against the full LANL
/// fleet's ([`FleetSpec::lanl_scaled`] at 1.0), at most 1.0; 1.0 for a
/// trace without nodes. A CSV directory or a snapshot does not record
/// the scale it was generated at, and this is close to it: the scaled
/// fleet rounds each system's nodes down and keeps a floor of a few.
pub fn inferred_scale(trace: &Trace) -> f64 {
    let full: u64 = FleetSpec::lanl_scaled(1.0)
        .systems
        .iter()
        .map(|s| u64::from(s.nodes))
        .sum();
    let nodes: u64 = trace.systems().map(|s| u64::from(s.config().nodes)).sum();
    let ratio = nodes as f64 / full as f64;
    if ratio > 0.0 {
        ratio.min(1.0)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::csv::save_trace;
    use hpcfail_store::snapshot::write_snapshot;
    use hpcfail_store::trace::SystemTraceBuilder;
    use proptest::prelude::*;

    /// Feeds `args` through [`SourceFlags`] the way a binary does,
    /// skipping every argument that is not a source flag.
    fn parse<S: AsRef<str>>(args: &[S]) -> Result<SourceArgs, ArgError> {
        let mut flags = SourceFlags::default();
        let mut iter = args.iter().map(AsRef::as_ref);
        while let Some(arg) = iter.next() {
            flags.take(arg, &mut iter)?;
        }
        flags.finish()
    }

    fn fleet(scale: f64, seed: u64) -> SourceArgs {
        SourceArgs {
            input: TraceInput::Fleet { scale, seed },
            scale: Some(scale),
            seed,
        }
    }

    fn loaded_from(input: TraceInput, scale: Option<f64>, seed: u64) -> SourceArgs {
        SourceArgs { input, scale, seed }
    }

    fn csv(dir: &str, policy: IngestPolicy) -> TraceInput {
        TraceInput::Csv {
            dir: dir.into(),
            policy,
        }
    }

    fn snapshot(path: &str, fallback: Option<(&str, IngestPolicy)>) -> TraceInput {
        TraceInput::Snapshot {
            path: path.into(),
            csv_fallback: fallback.map(|(dir, policy)| (dir.into(), policy)),
        }
    }

    #[test]
    fn every_flag_combination_resolves_by_the_documented_rules() {
        use IngestPolicy::{BestEffort, Lenient, Strict};
        let scenario = |pack: &str| TraceInput::Scenario { pack: pack.into() };
        let cases: Vec<(&[&str], Result<SourceArgs, ArgError>)> = vec![
            // Defaults: the full fleet, seed 42.
            (&[], Ok(fleet(1.0, 42))),
            (&["--out", "x", "all"], Ok(fleet(1.0, 42))),
            (&["--scale", "0.1"], Ok(fleet(0.1, 42))),
            (&["--seed", "7"], Ok(fleet(1.0, 7))),
            (&["--seed", "7", "--scale", "0.05"], Ok(fleet(0.05, 7))),
            // Scale range edges.
            (&["--scale", "1"], Ok(fleet(1.0, 42))),
            (&["--scale", "1e-9"], Ok(fleet(1e-9, 42))),
            (&["--scale", "0"], Err(ArgError::Scale("0".into()))),
            (&["--scale", "-0"], Err(ArgError::Scale("-0".into()))),
            (&["--scale", "-0.5"], Err(ArgError::Scale("-0.5".into()))),
            (
                &["--scale", "1.0000001"],
                Err(ArgError::Scale("1.0000001".into())),
            ),
            (&["--scale", "2"], Err(ArgError::Scale("2".into()))),
            (&["--scale", "NaN"], Err(ArgError::Scale("NaN".into()))),
            (&["--scale", "inf"], Err(ArgError::Scale("inf".into()))),
            (&["--scale", "-inf"], Err(ArgError::Scale("-inf".into()))),
            (&["--scale", "half"], Err(ArgError::Scale("half".into()))),
            (&["--scale", ""], Err(ArgError::Scale("".into()))),
            // Seeds are u64.
            (
                &["--seed", "18446744073709551615"],
                Ok(fleet(1.0, u64::MAX)),
            ),
            (
                &["--seed", "18446744073709551616"],
                Err(ArgError::Seed("18446744073709551616".into())),
            ),
            (&["--seed", "-1"], Err(ArgError::Seed("-1".into()))),
            // Every flag takes a value.
            (&["--scale"], Err(ArgError::MissingValue("--scale".into()))),
            (&["--seed"], Err(ArgError::MissingValue("--seed".into()))),
            (
                &["--scenario"],
                Err(ArgError::MissingValue("--scenario".into())),
            ),
            (&["--trace"], Err(ArgError::MissingValue("--trace".into()))),
            (
                &["--policy"],
                Err(ArgError::MissingValue("--policy".into())),
            ),
            (
                &["--snapshot"],
                Err(ArgError::MissingValue("--snapshot".into())),
            ),
            (
                &["--scale", "--seed"],
                Err(ArgError::Scale("--seed".into())),
            ),
            // CSV directories and policies.
            (
                &["--trace", "d"],
                Ok(loaded_from(csv("d", Strict), None, 42)),
            ),
            (
                &["--policy", "lenient", "--trace", "d"],
                Ok(loaded_from(csv("d", Lenient), None, 42)),
            ),
            (
                &["--trace", "d", "--policy", "best-effort"],
                Ok(loaded_from(csv("d", BestEffort), None, 42)),
            ),
            (
                &["--policy", "loose"],
                Err(ArgError::Policy("loose".into())),
            ),
            (&["--policy", "strict"], Err(ArgError::PolicyWithoutTrace)),
            (
                &["--snapshot", "s", "--policy", "lenient"],
                Err(ArgError::PolicyWithoutTrace),
            ),
            // Scale and seed beside a loaded trace are run labels.
            (
                &["--trace", "d", "--scale", "0.1", "--seed", "9"],
                Ok(loaded_from(csv("d", Strict), Some(0.1), 9)),
            ),
            (
                &["--snapshot", "s", "--scale", "0.1", "--seed", "42"],
                Ok(loaded_from(snapshot("s", None), Some(0.1), 42)),
            ),
            // Snapshot first, the CSV directory as its fallback.
            (
                &["--snapshot", "s"],
                Ok(loaded_from(snapshot("s", None), None, 42)),
            ),
            (
                &["--snapshot", "s", "--trace", "d"],
                Ok(loaded_from(snapshot("s", Some(("d", Strict))), None, 42)),
            ),
            (
                &["--trace", "d", "--policy", "lenient", "--snapshot", "s"],
                Ok(loaded_from(snapshot("s", Some(("d", Lenient))), None, 42)),
            ),
            // A scenario stands alone.
            (
                &["--scenario", "p"],
                Ok(loaded_from(scenario("p"), None, 42)),
            ),
            (
                &["--scenario", "p", "--policy", "lenient"],
                Err(ArgError::PolicyWithoutTrace),
            ),
            (
                &["--scenario", "p", "--scale", "0.5"],
                Err(ArgError::ScenarioConflict("--scale")),
            ),
            (
                &["--seed", "1", "--scenario", "p"],
                Err(ArgError::ScenarioConflict("--seed")),
            ),
            (
                &["--scenario", "p", "--trace", "d"],
                Err(ArgError::ScenarioConflict("--trace")),
            ),
            (
                &["--snapshot", "s", "--scenario", "p"],
                Err(ArgError::ScenarioConflict("--snapshot")),
            ),
            // The last of a repeated flag wins; a bad value fails at once.
            (&["--scale", "0.5", "--scale", "0.25"], Ok(fleet(0.25, 42))),
            (
                &["--scale", "2", "--scale", "0.5"],
                Err(ArgError::Scale("2".into())),
            ),
            (
                &["--trace", "a", "--trace", "b"],
                Ok(loaded_from(csv("b", Strict), None, 42)),
            ),
        ];
        for (args, want) in cases {
            assert_eq!(parse(args), want, "{args:?}");
        }
    }

    #[test]
    fn given_counts_every_source_flag() {
        let mut flags = SourceFlags::default();
        assert!(!flags.given());
        let mut rest = ["x"].iter();
        assert_eq!(flags.take("--out", &mut rest), Ok(false));
        assert_eq!(rest.len(), 1, "a foreign flag consumes nothing");
        assert!(!flags.given());
        for flag in [
            "--scale",
            "--seed",
            "--scenario",
            "--trace",
            "--policy",
            "--snapshot",
        ] {
            let mut flags = SourceFlags::default();
            let value = if flag == "--policy" { "strict" } else { "1" };
            assert_eq!(flags.take(flag, &mut [value].iter()), Ok(true));
            assert!(flags.given(), "{flag}");
        }
    }

    #[test]
    fn errors_name_the_flag_and_the_value() {
        let scale = parse(&["--scale", "NaN"]).unwrap_err().to_string();
        assert_eq!(scale, "--scale must be positive and at most 1, got \"NaN\"");
        let conflict = parse(&["--scenario", "p", "--trace", "d"]).unwrap_err();
        assert_eq!(
            conflict.to_string(),
            "--scenario cannot be combined with --trace"
        );
    }

    /// A fresh scratch directory under the system temp dir.
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hpcfail-source-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// A small CSV trace directory and the fingerprint of its trace.
    fn csv_dir(root: &std::path::Path) -> (PathBuf, u64) {
        let trace = FleetSpec::demo().generate(3).into_store();
        let dir = root.join("trace");
        std::fs::create_dir_all(&dir).expect("create trace dir");
        save_trace(&dir, &trace).expect("save trace");
        let (ingested, _) = load_trace_with(&dir, IngestPolicy::Strict).expect("reload");
        (dir, ingested.fingerprint())
    }

    #[test]
    fn an_unusable_snapshot_falls_back_to_the_csv_directory() {
        let root = scratch("fallback");
        let (dir, fingerprint) = csv_dir(&root);
        let bad = root.join("fleet.hpcsnap");
        std::fs::write(&bad, b"NOTASNAP and then some bytes").expect("write bad snapshot");
        let args = [
            "--snapshot",
            bad.to_str().expect("utf-8 path"),
            "--trace",
            dir.to_str().expect("utf-8 path"),
            "--seed",
            "5",
        ];
        let loaded = load(&parse(&args).expect("parses")).expect("falls back to CSV");
        std::fs::remove_dir_all(&root).ok();

        assert_eq!(loaded.trace.fingerprint(), fingerprint);
        assert_eq!(loaded.seed, 5, "the --seed label carries through");
        let report = loaded.report.expect("CSV was read, so there is a report");
        assert_eq!(report.policy, IngestPolicy::Strict);
        let fallback = loaded.fallback.expect("the fallback is recorded");
        assert!(
            matches!(fallback.error, SnapshotError::BadMagic),
            "{fallback}"
        );
        assert_eq!(fallback.path, bad);
        assert!(
            fallback.to_string().contains("falling back to CSV"),
            "{fallback}"
        );
    }

    #[test]
    fn a_usable_snapshot_is_read_without_touching_the_csv_directory() {
        let root = scratch("snapshot-first");
        let (dir, fingerprint) = csv_dir(&root);
        let (trace, _) = load_trace_with(&dir, IngestPolicy::Strict).expect("reload");
        let good = root.join("fleet.hpcsnap");
        write_snapshot(&good, &trace).expect("write snapshot");
        let missing = root.join("no-such-dir");
        let input = TraceInput::Snapshot {
            path: good.clone(),
            csv_fallback: Some((missing, IngestPolicy::Strict)),
        };
        let loaded = load(&loaded_from(input, None, 42)).expect("snapshot loads");
        let alone = load(&loaded_from(
            TraceInput::Snapshot {
                path: good,
                csv_fallback: None,
            },
            None,
            42,
        ))
        .expect("snapshot loads alone");
        std::fs::remove_dir_all(&root).ok();

        assert_eq!(loaded.trace.fingerprint(), fingerprint);
        assert_eq!(loaded.scale, inferred_scale(&loaded.trace));
        assert!(loaded.report.is_none() && loaded.fallback.is_none());
        assert_eq!(alone.trace.fingerprint(), fingerprint);
    }

    #[test]
    fn unreadable_sources_are_typed_load_errors() {
        let root = scratch("errors");
        let bad = root.join("bad.hpcsnap");
        std::fs::write(&bad, b"NOTASNAP").expect("write bad snapshot");
        let missing = root.join("missing");
        let snapshot = load(&loaded_from(
            TraceInput::Snapshot {
                path: bad.clone(),
                csv_fallback: None,
            },
            None,
            42,
        ));
        let both_bad = load(&loaded_from(
            TraceInput::Snapshot {
                path: bad,
                csv_fallback: Some((missing.clone(), IngestPolicy::Strict)),
            },
            None,
            42,
        ));
        let csv = load(&loaded_from(
            TraceInput::Csv {
                dir: missing.clone(),
                policy: IngestPolicy::Lenient,
            },
            None,
            42,
        ));
        let pack = missing.join("pack.json").to_string_lossy().into_owned();
        let scenario = load(&loaded_from(TraceInput::Scenario { pack }, None, 42));
        std::fs::remove_dir_all(&root).ok();

        assert!(matches!(snapshot, Err(LoadError::Snapshot(..))));
        assert!(matches!(both_bad, Err(LoadError::Csv(ref dir, _)) if *dir == missing));
        assert!(matches!(csv, Err(LoadError::Csv(..))));
        let err = scenario.expect_err("no such pack");
        assert!(matches!(err, LoadError::Scenario(..)));
        assert!(err.to_string().starts_with("cannot load scenario"), "{err}");
    }

    #[test]
    fn generated_inputs_carry_their_own_seed() {
        let root = scratch("scenario");
        let pack = root.join("pack.json");
        std::fs::write(
            &pack,
            r#"{"scenario": "tiny", "version": 1, "seed": 5,
                "systems": [{"id": 2, "template": "numa", "nodes": 4, "days": 30}]}"#,
        )
        .expect("write pack");
        let args = ["--scenario", pack.to_str().expect("utf-8 path")];
        let source = parse(&args).expect("parses");
        let generator = source
            .input
            .generator()
            .expect("pack loads")
            .expect("generated");
        let loaded = load(&source).expect("generates");
        std::fs::remove_dir_all(&root).ok();

        assert_eq!(generator.label, "scenario=tiny");
        assert_eq!((generator.seed, loaded.seed), (5, 5));
        assert_eq!(loaded.scale, 1.0);
        assert_eq!(
            loaded.trace.fingerprint(),
            generator.spec.generate(5).into_store().fingerprint()
        );
        let fleet = fleet(0.05, 9)
            .input
            .generator()
            .expect("no IO")
            .expect("generated");
        assert_eq!(fleet.label, "scale=0.05 seed=9");
        assert_eq!(fleet.spec, FleetSpec::lanl_scaled(0.05));
        assert!(csv("d", IngestPolicy::Strict)
            .generator()
            .expect("no IO")
            .is_none());
    }

    #[test]
    fn a_read_trace_without_scale_gets_its_node_count_scale() {
        for scale in [1.0, 0.5, 0.1, 0.05] {
            // The systems alone: the inference reads node counts only.
            let mut trace = Trace::new();
            for spec in &FleetSpec::lanl_scaled(scale).systems {
                trace.insert_system(SystemTraceBuilder::new(spec.to_config()).build());
            }
            let inferred = inferred_scale(&trace);
            // The scaled fleet rounds nodes down but keeps a floor.
            assert!(
                inferred >= scale * 0.99 && inferred <= scale * 1.1,
                "{scale}: {inferred}"
            );
        }
        assert_eq!(inferred_scale(&Trace::new()), 1.0);
    }

    /// Source flags and values that exercise every rule, mixed with
    /// arbitrary text below.
    const TOKENS: &[&str] = &[
        "--scale",
        "--seed",
        "--scenario",
        "--trace",
        "--policy",
        "--snapshot",
        "--out",
        "0.1",
        "1",
        "0",
        "2",
        "NaN",
        "inf",
        "-1",
        "42",
        "strict",
        "lenient",
        "best-effort",
        "d",
        "s",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_argv_parses_to_a_source_or_a_typed_error(
            picks in prop::collection::vec(
                (0u8..3, prop::sample::select(TOKENS.to_vec()), "[ -~é中]{0,8}"),
                0..10,
            ),
        ) {
            let argv: Vec<String> = picks
                .into_iter()
                .map(|(choice, token, text)| if choice == 0 { text } else { token.to_owned() })
                .collect();
            match parse(&argv) {
                Ok(source) => {
                    prop_assert!(source.scale.is_none_or(|s| s > 0.0 && s <= 1.0), "{:?}", argv);
                    if let TraceInput::Fleet { scale, seed } = source.input {
                        prop_assert_eq!((Some(scale), seed), (source.scale, source.seed));
                    }
                    if let TraceInput::Scenario { .. } = source.input {
                        prop_assert_eq!((source.scale, source.seed), (None, 42));
                    }
                }
                Err(err) => prop_assert!(!err.to_string().is_empty()),
            }
        }
    }
}
