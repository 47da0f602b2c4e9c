//! Synthetic LANL-like HPC fleet generator.
//!
//! The real study runs on nine years of failure, usage, layout,
//! temperature and neutron-flux data from ten LANL clusters — data that
//! cannot ship with this repository. This crate generates a synthetic
//! fleet with the same schema and, crucially, the same *generative
//! mechanisms* the paper infers:
//!
//! - per-node failure hazards with gamma-distributed node frailty;
//! - self-exciting, type-coupled follow-up failures (a failure of type X
//!   raises the short-term hazard of type Y on the same node);
//! - rack-level coupling through shared power/cooling events;
//! - a login/launch role for node 0 (elevated environment, network and
//!   software failure rates, highest utilization);
//! - cluster-level power events (outages, spikes, UPS, chiller failures)
//!   that elevate specific hardware-component and storage-software
//!   hazards for the following month, and trigger unscheduled
//!   maintenance;
//! - node-local degradation cascades after power-supply and fan failures
//!   (including temperature excursions);
//! - a solar-cycle neutron flux modulating the *soft* fraction of CPU
//!   errors while DRAM outages stay hard-error-dominated;
//! - a job/user workload model with heavy-tailed per-user load and
//!   per-user risk multipliers.
//!
//! Every analysis in `hpcfail-core` then *re-discovers* these phenomena
//! from the generated records, rather than reading back constants.
//!
//! Generation is deterministic for a given `(spec, seed)` pair.
//!
//! # Examples
//!
//! ```
//! use hpcfail_synth::prelude::*;
//!
//! let fleet = FleetSpec::demo().generate(42);
//! let again = FleetSpec::demo().generate(42);
//! assert_eq!(
//!     fleet.trace().total_failures(),
//!     again.trace().total_failures(),
//! );
//! let store = fleet.into_store();
//! assert!(store.total_failures() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod events;
pub mod excitation;
pub mod neutron;
pub mod scenario;
pub mod sim;
pub mod source;
pub mod spec;
pub mod workload;

pub use scenario::Scenario;
pub use sim::GeneratedFleet;
pub use spec::{FleetSpec, SystemSpec};

/// The most frequently used items.
pub mod prelude {
    pub use crate::scenario::{Scenario, ScenarioError};
    pub use crate::sim::GeneratedFleet;
    pub use crate::spec::{FleetSpec, SystemSpec};
}
