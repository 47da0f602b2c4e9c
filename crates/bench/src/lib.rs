//! The reproduction harness: regenerates every table and figure of
//! El-Sayed & Schroeder (DSN 2013) against a synthetic LANL fleet.
//!
//! Run via the `repro` binary:
//!
//! ```text
//! cargo run -p hpcfail-bench --bin repro --release -- all
//! cargo run -p hpcfail-bench --bin repro --release -- fig1a --scale 0.5 --seed 7
//! ```
//!
//! Each experiment is also callable as a library function returning its
//! report text, which the integration tests assert against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use hpcfail_core::channels::{missing_channels, Channel};
use hpcfail_core::engine::Engine;
use hpcfail_store::trace::Trace;
use hpcfail_synth::spec::FleetSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The shared context: one generated fleet behind one [`Engine`].
#[derive(Debug, Clone)]
pub struct ReproContext {
    engine: Engine,
    seed: u64,
    scale: f64,
}

impl ReproContext {
    /// Generates the fleet at `scale` (1.0 = the full LANL-sized fleet)
    /// with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in (0, 1].
    pub fn generate(scale: f64, seed: u64) -> Self {
        ReproContext {
            engine: Engine::new(FleetSpec::lanl_scaled(scale).generate(seed).into_store()),
            seed,
            scale,
        }
    }

    /// Wraps an already-loaded trace (e.g. from `--trace DIR`) so the
    /// experiments run against real records instead of a generated
    /// fleet. `seed` and `scale` are recorded for report banners only.
    pub fn from_trace(trace: Trace, seed: u64, scale: f64) -> Self {
        ReproContext {
            engine: Engine::new(trace),
            seed,
            scale,
        }
    }

    /// The analysis engine over the generated trace; every experiment
    /// reaches its per-analysis view through this single entry point.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The generated trace.
    pub fn trace(&self) -> &Trace {
        self.engine.trace()
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generation scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// How one experiment's execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentOutcome {
    /// Ran to completion; the report text.
    Report(String),
    /// Not run: the trace lacks required data channels.
    Skipped {
        /// Labels of the missing channels.
        missing: Vec<&'static str>,
    },
    /// The implementation panicked; the panic message.
    Failed {
        /// The captured panic payload (or a placeholder).
        message: String,
    },
}

/// One experiment: id, the paper artifact it reproduces, the optional
/// data channels it needs, and its implementation.
pub struct Experiment {
    /// Short id used on the command line (e.g. `fig1a`).
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Channels beyond the failure log the experiment needs; it is
    /// skipped (not failed) when the trace lacks any of them.
    pub requires: &'static [Channel],
    /// Produces the report text.
    pub run: fn(&ReproContext) -> String,
}

impl Experiment {
    /// Runs the experiment inside an `exp.<id>` observability span, so
    /// every run shows up in snapshots and manifests with its wall
    /// time. Prefer this over calling `run` directly: missing channels
    /// become a typed skip and a panic is caught and reported as
    /// [`ExperimentOutcome::Failed`] (with a `repro.failed.<id>`
    /// counter) instead of tearing down the whole run.
    /// `inject_failure` panics inside the run, so the degradation smoke
    /// tests exercise the failure path deterministically.
    pub fn execute_opts(&self, ctx: &ReproContext, inject_failure: bool) -> ExperimentOutcome {
        let missing = missing_channels(ctx.trace(), self.requires);
        if !missing.is_empty() {
            hpcfail_obs::counter(&format!("repro.skipped.{}", self.id)).inc();
            return ExperimentOutcome::Skipped {
                missing: missing.into_iter().map(Channel::label).collect(),
            };
        }
        let _span = hpcfail_obs::span(&format!("exp.{}", self.id));
        hpcfail_obs::counter("bench.experiments_run").inc();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_failure {
                panic!("injected failure (--inject-failure)");
            }
            (self.run)(ctx)
        }));
        match result {
            Ok(report) => ExperimentOutcome::Report(report),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic with non-string payload".to_owned());
                hpcfail_obs::counter(&format!("repro.failed.{}", self.id)).inc();
                ExperimentOutcome::Failed { message }
            }
        }
    }
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "sec3a",
        title: "III-A.1: failure probability after a failure vs a random day/week",
        requires: &[],
        run: experiments::sec3a,
    },
    Experiment {
        id: "fig1a",
        title: "Fig 1(a): P(any follow-up | failure of type X), same node, week",
        requires: &[],
        run: experiments::fig1a,
    },
    Experiment {
        id: "fig1b",
        title: "Fig 1(b): P(type X | same type / any / random), same node, week",
        requires: &[],
        run: experiments::fig1b,
    },
    Experiment {
        id: "fig2a",
        title: "Fig 2(left): P(any follow-up in rack | type X), week",
        requires: &[],
        run: experiments::fig2a,
    },
    Experiment {
        id: "fig2b",
        title: "Fig 2(right): P(type X in rack | same type / any / random), week",
        requires: &[],
        run: experiments::fig2b,
    },
    Experiment {
        id: "fig3",
        title: "Fig 3: P(any follow-up elsewhere in system | type X), week",
        requires: &[],
        run: experiments::fig3,
    },
    Experiment {
        id: "fig4",
        title: "Fig 4: failures per node id + equal-rates chi-square",
        requires: &[],
        run: experiments::fig4,
    },
    Experiment {
        id: "sec4c",
        title: "IV-C: physical location vs failure rates (null result)",
        requires: &[],
        run: experiments::sec4c,
    },
    Experiment {
        id: "fig5",
        title: "Fig 5: root-cause breakdown, node 0 vs rest",
        requires: &[],
        run: experiments::fig5,
    },
    Experiment {
        id: "fig6",
        title: "Fig 6: per-type failure probability, node 0 vs rest",
        requires: &[],
        run: experiments::fig6,
    },
    Experiment {
        id: "fig7",
        title: "Fig 7: failures vs utilization / jobs + Pearson r",
        requires: &[Channel::JobLog],
        run: experiments::fig7,
    },
    Experiment {
        id: "fig8",
        title: "Fig 8: failures per processor-day for the 50 heaviest users + ANOVA",
        requires: &[Channel::JobLog],
        run: experiments::fig8,
    },
    Experiment {
        id: "fig9",
        title: "Fig 9: breakdown of environmental failures",
        requires: &[],
        run: experiments::fig9,
    },
    Experiment {
        id: "fig10",
        title: "Fig 10: power problems vs hardware failures",
        requires: &[],
        run: experiments::fig10,
    },
    Experiment {
        id: "fig11",
        title: "Fig 11: power problems vs software failures",
        requires: &[],
        run: experiments::fig11,
    },
    Experiment {
        id: "sec7a2",
        title: "VII-A.2: unscheduled maintenance after power problems",
        requires: &[],
        run: experiments::sec7a2,
    },
    Experiment {
        id: "fig12",
        title: "Fig 12: time-space scatter of power problems (system 2)",
        requires: &[],
        run: experiments::fig12,
    },
    Experiment {
        id: "fig13",
        title: "Fig 13: fan/chiller failures vs hardware failures",
        requires: &[],
        run: experiments::fig13,
    },
    Experiment {
        id: "sec8a",
        title: "VIII-A: regressions of outages on average/max/var temperature",
        requires: &[Channel::Temperature],
        run: experiments::sec8a,
    },
    Experiment {
        id: "fig14",
        title: "Fig 14: DRAM/CPU failure probability vs neutron flux",
        requires: &[Channel::Neutron],
        run: experiments::fig14,
    },
    Experiment {
        id: "tab1",
        title: "Table I: the regression feature matrix (summary)",
        requires: &[Channel::JobLog, Channel::Temperature],
        run: experiments::tab1,
    },
    Experiment {
        id: "tab2",
        title: "Table II: Poisson regression coefficients (system 20)",
        requires: &[Channel::JobLog, Channel::Temperature],
        run: experiments::tab2,
    },
    Experiment {
        id: "tab3",
        title: "Table III: negative-binomial regression coefficients (system 20)",
        requires: &[Channel::JobLog, Channel::Temperature],
        run: experiments::tab3,
    },
    Experiment {
        id: "predict",
        title: "Extension: alarm-rule precision/recall from the correlations",
        requires: &[],
        run: experiments::predict,
    },
    Experiment {
        id: "ablation",
        title: "Extension: mechanism ablations (excitation/frailty/node-0/events/usage)",
        requires: &[],
        run: experiments::ablation,
    },
    Experiment {
        id: "interarrival",
        title: "Extension: inter-arrival distribution fits and autocorrelation",
        requires: &[],
        run: experiments::interarrival,
    },
    Experiment {
        id: "availability",
        title: "Extension: MTBF/MTTR/availability report",
        requires: &[],
        run: experiments::availability,
    },
    Experiment {
        id: "checkpoint",
        title: "Extension: checkpoint-policy replay (uniform vs correlation-adaptive)",
        requires: &[],
        run: experiments::checkpoint,
    },
    Experiment {
        id: "sweep",
        title: "Extension: window x scope sweep of the headline conditional",
        requires: &[],
        run: experiments::sweep,
    },
    Experiment {
        id: "validate",
        title: "Extension: calibration self-check against the paper's headline numbers",
        requires: &[],
        run: experiments::validate,
    },
];

/// Looks up an experiment by id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(n >= 30, "all experiments registered, got {n}");
    }

    #[test]
    fn lookup_works() {
        assert!(experiment("fig1a").is_some());
        assert!(experiment("nope").is_none());
    }
}
