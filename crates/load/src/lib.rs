//! Deterministic load harness for the hpcfail query service.
//!
//! The harness turns a seed and a named traffic profile into a fully
//! determined sequence of [`AnalysisRequest`]s — the *plan* — and then
//! drives that plan against a target: either a real `hpcfail-serve`
//! instance over HTTP or an in-process [`Engine`] fronted by the same
//! result cache the server uses. Because the plan is generated up
//! front by a single seeded RNG, the request sequence is byte-identical
//! no matter how many worker threads later execute it; threads only
//! race for *position* in the plan, never for its contents.
//!
//! The pipeline:
//!
//! 1. [`corpus`] — enumerate a deduplicated pool of distinct requests
//!    covering all twenty analysis kinds, parameterized by the fleet
//!    under test (a `--scale` LANL fleet or a scenario pack).
//! 2. [`mix`] — a named profile: phases (zipfian hot-key, batch-heavy,
//!    deadline-laden, cold-cache) with request counts and the arrival
//!    discipline (closed-loop or bounded open-loop).
//! 3. [`plan`] — expand profile × corpus × seed into the concrete
//!    request sequence.
//! 4. [`target`] + [`run`] — execute the plan and collect latency,
//!    status, and cache-outcome observations. `hpcfail-load run`
//!    prints their totals as one JSON line.
//!
//! The harness drives traffic; it is not a benchmark. Latency and
//! throughput of record come from `servebench/`.
//!
//! [`AnalysisRequest`]: hpcfail_core::engine::AnalysisRequest
//! [`Engine`]: hpcfail_core::engine::Engine

pub mod corpus;
pub mod mix;
pub mod plan;
pub mod run;
pub mod target;

pub use corpus::{build_corpus, systems_from_fleet, CorpusSystem};
pub use mix::{Arrival, MixConfig, MixError, Phase, PhaseKind};
pub use plan::LoadPlan;
pub use run::{execute, RunOptions, RunStats};
pub use target::{CallOutcome, Http, InProcess, Target};
