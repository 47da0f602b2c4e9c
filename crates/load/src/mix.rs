//! Named traffic profiles: phases, key-popularity, arrival discipline.
//!
//! A [`MixConfig`] is everything the planner needs besides the corpus:
//! the seed, the corpus size, how much of the corpus is *reserved* for
//! cold-cache traffic, and an ordered list of phases. Hot phases draw
//! zipfian keys from the front (hot) region of the corpus; cold-cache
//! phases walk the reserved tail sequentially so every cold request is
//! a guaranteed first sight for the cache.

use std::fmt;

/// How requests are released to workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each worker issues its next request as soon as the previous one
    /// finishes; concurrency equals the thread count.
    Closed,
    /// Requests are paced to a target rate; a worker sleeps until its
    /// claimed slot's scheduled time. Concurrency stays bounded by the
    /// thread count, so a slow server degrades to closed-loop instead
    /// of building an unbounded backlog.
    Open {
        /// Target arrival rate, plan items per second.
        rate_per_sec: f64,
    },
}

/// One phase of traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseKind {
    /// Single queries, zipfian over `hot_keys` distinct corpus entries.
    HotKey {
        /// Zipf exponent; larger = more skew toward the top keys.
        zipf_s: f64,
        /// Number of distinct keys drawn from the hot region.
        hot_keys: usize,
    },
    /// `/batch` requests of `batch` zipfian queries each.
    BatchHeavy {
        /// Zipf exponent for the per-query draw.
        zipf_s: f64,
        /// Number of distinct keys drawn from the hot region.
        hot_keys: usize,
        /// Queries per batch item.
        batch: usize,
    },
    /// Single zipfian queries carrying an `x-deadline-ms` header.
    DeadlineLaden {
        /// Zipf exponent.
        zipf_s: f64,
        /// Number of distinct keys drawn from the hot region.
        hot_keys: usize,
        /// Deadline sent with each query, milliseconds.
        deadline_ms: u64,
    },
    /// Sequential never-seen-before requests from the reserved tail.
    ColdCache,
}

/// A phase and how many plan items it contributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// The traffic shape.
    pub kind: PhaseKind,
    /// Plan items (for batch phases, each item is `batch` queries).
    pub requests: usize,
}

/// A complete profile: what the planner expands into a [`LoadPlan`].
///
/// [`LoadPlan`]: crate::plan::LoadPlan
#[derive(Debug, Clone, PartialEq)]
pub struct MixConfig {
    /// Profile name, printed in the run summary.
    pub profile: String,
    /// Seed for the plan RNG.
    pub seed: u64,
    /// Total corpus entries to enumerate.
    pub corpus_size: usize,
    /// Tail entries reserved for cold-cache phases.
    pub cold_reserve: usize,
    /// Arrival discipline.
    pub arrival: Arrival,
    /// Ordered phases.
    pub phases: Vec<Phase>,
}

/// Why a profile cannot be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixError {
    /// The hot region (corpus minus reserve) is empty.
    EmptyHotRegion,
    /// A phase asks for more hot keys than the hot region holds.
    HotKeysExceedRegion {
        /// Keys requested.
        hot_keys: usize,
        /// Hot-region size.
        region: usize,
    },
    /// Cold-cache phases together need more requests than the reserve.
    ColdReserveExhausted {
        /// Cold requests across all phases.
        needed: usize,
        /// Reserved tail size.
        reserve: usize,
    },
    /// A numeric parameter is out of range.
    BadParameter(String),
}

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixError::EmptyHotRegion => {
                write!(f, "corpus_size must exceed cold_reserve")
            }
            MixError::HotKeysExceedRegion { hot_keys, region } => {
                write!(
                    f,
                    "phase wants {hot_keys} hot keys but the hot region has {region}"
                )
            }
            MixError::ColdReserveExhausted { needed, reserve } => {
                write!(
                    f,
                    "cold-cache phases need {needed} requests but only {reserve} are reserved"
                )
            }
            MixError::BadParameter(message) => write!(f, "bad mix parameter: {message}"),
        }
    }
}

impl std::error::Error for MixError {}

impl MixConfig {
    /// Profile names accepted by [`MixConfig::named`].
    pub const PROFILES: [&'static str; 3] = ["ci", "smoke", "soak"];

    /// The pinned CI profile: 544 items carrying 768 queries over a
    /// 512-entry corpus (`tests/determinism.rs` pins the shape).
    ///
    /// Small enough to finish in seconds against a debug server, big
    /// enough that the cache, batch, and deadline paths all light up.
    pub fn ci() -> Self {
        MixConfig {
            profile: "ci".to_owned(),
            seed: 2026,
            corpus_size: 512,
            cold_reserve: 192,
            arrival: Arrival::Closed,
            phases: vec![
                Phase {
                    kind: PhaseKind::ColdCache,
                    requests: 64,
                },
                Phase {
                    kind: PhaseKind::HotKey {
                        zipf_s: 1.1,
                        hot_keys: 32,
                    },
                    requests: 256,
                },
                Phase {
                    kind: PhaseKind::BatchHeavy {
                        zipf_s: 1.1,
                        hot_keys: 48,
                        batch: 8,
                    },
                    requests: 32,
                },
                Phase {
                    kind: PhaseKind::DeadlineLaden {
                        zipf_s: 0.9,
                        hot_keys: 64,
                        deadline_ms: 5000,
                    },
                    requests: 64,
                },
                Phase {
                    kind: PhaseKind::ColdCache,
                    requests: 128,
                },
            ],
        }
    }

    /// A tiny profile for unit and integration tests.
    pub fn smoke() -> Self {
        MixConfig {
            profile: "smoke".to_owned(),
            seed: 7,
            corpus_size: 96,
            cold_reserve: 48,
            arrival: Arrival::Closed,
            phases: vec![
                Phase {
                    kind: PhaseKind::HotKey {
                        zipf_s: 1.2,
                        hot_keys: 8,
                    },
                    requests: 120,
                },
                Phase {
                    kind: PhaseKind::BatchHeavy {
                        zipf_s: 1.0,
                        hot_keys: 16,
                        batch: 4,
                    },
                    requests: 10,
                },
                Phase {
                    kind: PhaseKind::ColdCache,
                    requests: 40,
                },
            ],
        }
    }

    /// A longer open-loop profile for local soak runs.
    pub fn soak() -> Self {
        MixConfig {
            profile: "soak".to_owned(),
            seed: 2026,
            corpus_size: 2048,
            cold_reserve: 512,
            arrival: Arrival::Open {
                rate_per_sec: 400.0,
            },
            phases: vec![
                Phase {
                    kind: PhaseKind::ColdCache,
                    requests: 256,
                },
                Phase {
                    kind: PhaseKind::HotKey {
                        zipf_s: 1.1,
                        hot_keys: 128,
                    },
                    requests: 4096,
                },
                Phase {
                    kind: PhaseKind::BatchHeavy {
                        zipf_s: 1.1,
                        hot_keys: 192,
                        batch: 16,
                    },
                    requests: 128,
                },
                Phase {
                    kind: PhaseKind::DeadlineLaden {
                        zipf_s: 0.9,
                        hot_keys: 256,
                        deadline_ms: 2000,
                    },
                    requests: 512,
                },
                Phase {
                    kind: PhaseKind::ColdCache,
                    requests: 256,
                },
            ],
        }
    }

    /// Looks up a profile by name.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "ci" => Some(MixConfig::ci()),
            "smoke" => Some(MixConfig::smoke()),
            "soak" => Some(MixConfig::soak()),
            _ => None,
        }
    }

    /// The hot-region size (corpus entries not reserved for cold use).
    pub fn hot_region(&self) -> usize {
        self.corpus_size.saturating_sub(self.cold_reserve)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// A [`MixError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), MixError> {
        let region = self.hot_region();
        if region == 0 {
            return Err(MixError::EmptyHotRegion);
        }
        let mut cold_needed = 0usize;
        for phase in &self.phases {
            if phase.requests == 0 {
                return Err(MixError::BadParameter("phase with zero requests".into()));
            }
            match phase.kind {
                PhaseKind::HotKey { zipf_s, hot_keys }
                | PhaseKind::DeadlineLaden {
                    zipf_s, hot_keys, ..
                } => {
                    check_zipf(zipf_s, hot_keys, region)?;
                }
                PhaseKind::BatchHeavy {
                    zipf_s,
                    hot_keys,
                    batch,
                } => {
                    check_zipf(zipf_s, hot_keys, region)?;
                    if batch == 0 {
                        return Err(MixError::BadParameter("batch of zero queries".into()));
                    }
                }
                PhaseKind::ColdCache => cold_needed += phase.requests,
            }
        }
        if cold_needed > self.cold_reserve {
            return Err(MixError::ColdReserveExhausted {
                needed: cold_needed,
                reserve: self.cold_reserve,
            });
        }
        if let Arrival::Open { rate_per_sec } = self.arrival {
            if !rate_per_sec.is_finite() || rate_per_sec <= 0.0 {
                return Err(MixError::BadParameter(format!(
                    "open-loop rate {rate_per_sec} must be finite and positive"
                )));
            }
        }
        Ok(())
    }
}

fn check_zipf(zipf_s: f64, hot_keys: usize, region: usize) -> Result<(), MixError> {
    if !zipf_s.is_finite() || zipf_s < 0.0 {
        return Err(MixError::BadParameter(format!(
            "zipf exponent {zipf_s} must be finite and non-negative"
        )));
    }
    if hot_keys == 0 {
        return Err(MixError::BadParameter("hot_keys must be positive".into()));
    }
    if hot_keys > region {
        return Err(MixError::HotKeysExceedRegion { hot_keys, region });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_profiles_validate() {
        for name in MixConfig::PROFILES {
            let config = MixConfig::named(name).expect("profile exists");
            assert_eq!(config.profile, name);
            config.validate().expect("profile is internally consistent");
        }
        assert!(MixConfig::named("nope").is_none());
    }

    #[test]
    fn validation_catches_bad_profiles() {
        let mut config = MixConfig::smoke();
        config.cold_reserve = config.corpus_size;
        assert_eq!(config.validate(), Err(MixError::EmptyHotRegion));

        let mut config = MixConfig::smoke();
        config.phases[0].kind = PhaseKind::HotKey {
            zipf_s: 1.0,
            hot_keys: 10_000,
        };
        assert!(matches!(
            config.validate(),
            Err(MixError::HotKeysExceedRegion { .. })
        ));

        let mut config = MixConfig::smoke();
        config.phases.push(Phase {
            kind: PhaseKind::ColdCache,
            requests: 10_000,
        });
        assert!(matches!(
            config.validate(),
            Err(MixError::ColdReserveExhausted { .. })
        ));
    }
}
