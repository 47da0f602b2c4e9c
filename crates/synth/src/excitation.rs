//! Self-exciting, type-coupled follow-up-failure machinery.
//!
//! After a failure of root-cause type X on a node, the hazard of type Y
//! on the same node is elevated by `matrix[X][Y] * exp(-age / tau)`;
//! failures on rack peers contribute a scaled-down version of the same
//! kernel. This is the mechanism behind the paper's Section III
//! correlations: every type most strongly predicts itself, and the
//! environment/network/software triple is cross-coupled.

use hpcfail_types::failure::RootCause;

/// Index of a root cause in the excitation matrix.
pub(crate) fn root_index(root: RootCause) -> usize {
    match root {
        RootCause::Environment => 0,
        RootCause::Hardware => 1,
        RootCause::HumanError => 2,
        RootCause::Network => 3,
        RootCause::Software => 4,
        RootCause::Undetermined => 5,
    }
}

/// The 6x6 root-cause excitation matrix: `gain(x, y)` is the day-0
/// boost of channel `y` after a failure of type `x` on the same node.
#[derive(Debug, Clone, PartialEq)]
pub struct ExcitationMatrix {
    gains: [[f64; 6]; 6],
    /// Decay time constant in days.
    pub tau_days: f64,
    /// Fraction of the same-node gain applied to rack peers.
    pub rack_fraction: f64,
}

impl ExcitationMatrix {
    /// The LANL-calibrated default.
    ///
    /// Diagonals dominate (same-type follow-ups are strongest, with
    /// environment and network in the hundreds); environment, network
    /// and software cross-excite each other; hardware mostly
    /// self-excites (hard errors repeat).
    pub fn lanl() -> Self {
        use RootCause::*;
        let mut m = ExcitationMatrix {
            gains: [[0.0; 6]; 6],
            tau_days: 2.0,
            rack_fraction: 0.22,
        };
        let pairs: &[(RootCause, RootCause, f64)] = &[
            // Same-type diagonals, solved from Figure 1(b):
            // weekly P(Y|X) ~ gain * base_Y * sum_d exp(-d/tau).
            (Environment, Environment, 2300.0),
            (Network, Network, 700.0),
            (Software, Software, 48.0),
            (Hardware, Hardware, 45.0),
            (HumanError, HumanError, 60.0),
            (Undetermined, Undetermined, 60.0),
            // The env/net/sw triple cross-excites.
            (Environment, Network, 160.0),
            (Environment, Software, 60.0),
            (Network, Environment, 130.0),
            (Network, Software, 50.0),
            (Software, Environment, 16.0),
            (Software, Network, 16.0),
            // Everything raises the general follow-up risk a little.
            (Environment, Hardware, 14.0),
            (Network, Hardware, 9.0),
            (Software, Hardware, 7.0),
            (Hardware, Software, 8.0),
            (Hardware, Network, 5.0),
            (Hardware, Environment, 5.0),
            (HumanError, Software, 10.0),
            (HumanError, Hardware, 5.0),
            (Undetermined, Hardware, 10.0),
            (Undetermined, Software, 8.0),
            (Hardware, Undetermined, 8.0),
            (Software, Undetermined, 8.0),
        ];
        for &(x, y, g) in pairs {
            m.gains[root_index(x)][root_index(y)] = g;
        }
        m
    }

    /// A matrix with all gains zero (ablation: no follow-up coupling).
    pub fn disabled() -> Self {
        ExcitationMatrix {
            gains: [[0.0; 6]; 6],
            tau_days: 2.0,
            rack_fraction: 0.0,
        }
    }
}

impl Default for ExcitationMatrix {
    fn default() -> Self {
        ExcitationMatrix::lanl()
    }
}

/// Running excitation state: per-channel accumulated boosts that decay
/// exponentially day over day.
///
/// Instead of keeping a history of recent failures, the state exploits
/// the exponential kernel's memorylessness: each day every accumulator
/// is multiplied by `exp(-1/tau)` and new failures add their gain.
#[derive(Debug, Clone, Default)]
pub struct ExcitationState {
    levels: [f64; 6],
}

impl ExcitationState {
    /// Fresh state with no recent failures.
    pub fn new() -> Self {
        ExcitationState::default()
    }

    /// Advances one day: all levels decay by `exp(-1/tau)`.
    pub fn decay(&mut self, tau_days: f64) {
        let f = (-1.0 / tau_days).exp();
        for l in &mut self.levels {
            *l *= f;
        }
    }

    /// Records a failure of type `x`, boosting every channel per the
    /// matrix (scaled by `scale`; rack peers use the matrix's
    /// `rack_fraction`).
    pub fn record(&mut self, matrix: &ExcitationMatrix, x: RootCause, scale: f64) {
        let row = &matrix.gains[root_index(x)];
        for (l, g) in self.levels.iter_mut().zip(row) {
            *l += g * scale;
        }
    }

    /// Like [`ExcitationState::record`], but only for the inherently
    /// shared failure types — environment, network and software. Used
    /// for system-level coupling, where node-local hardware faults
    /// cannot propagate but a sick switch or file system can.
    pub fn record_shared(&mut self, matrix: &ExcitationMatrix, x: RootCause, scale: f64) {
        if matches!(
            x,
            RootCause::Environment | RootCause::Network | RootCause::Software
        ) {
            self.record(matrix, x, scale);
        }
    }

    /// The current boost of channel `y` (0 = no elevation; the hazard
    /// multiplier is `1 + boost`).
    pub fn boost(&self, y: RootCause) -> f64 {
        self.levels[root_index(y)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use RootCause::*;

    /// The day-0 gain of channel `y` after a type-`x` failure.
    fn gain(m: &ExcitationMatrix, x: RootCause, y: RootCause) -> f64 {
        m.gains[root_index(x)][root_index(y)]
    }

    #[test]
    fn diagonal_dominates() {
        let m = ExcitationMatrix::lanl();
        for x in RootCause::ALL {
            for y in RootCause::ALL {
                if x != y {
                    assert!(
                        gain(&m, x, x) >= gain(&m, x, y),
                        "diagonal {x} should dominate {x}->{y}"
                    );
                }
            }
        }
    }

    #[test]
    fn env_net_sw_triple_coupled() {
        let m = ExcitationMatrix::lanl();
        assert!(gain(&m, Environment, Network) > gain(&m, Environment, HumanError));
        assert!(gain(&m, Network, Software) > gain(&m, Network, HumanError));
        assert!(gain(&m, Software, Environment) > gain(&m, Software, HumanError));
    }

    #[test]
    fn state_decay_halves_on_tau_ln2() {
        let m = ExcitationMatrix::lanl();
        let mut s = ExcitationState::new();
        s.record(&m, Hardware, 1.0);
        let before = s.boost(Hardware);
        s.decay(1.0 / (2f64).ln()); // decay factor = 0.5 per day
        assert!((s.boost(Hardware) - before / 2.0).abs() < 1e-12);
    }

    #[test]
    fn record_accumulates() {
        let m = ExcitationMatrix::lanl();
        let mut s = ExcitationState::new();
        s.record(&m, Network, 1.0);
        s.record(&m, Network, 1.0);
        assert!((s.boost(Network) - 2.0 * gain(&m, Network, Network)).abs() < 1e-9);
        // Cross-channel boost also present.
        assert!(s.boost(Software) > 0.0);
        // Unrelated channel untouched by the zero gain.
        assert!((s.boost(HumanError) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_matrix_produces_no_boost() {
        let m = ExcitationMatrix::disabled();
        let mut s = ExcitationState::new();
        for x in RootCause::ALL {
            s.record(&m, x, 1.0);
        }
        for y in RootCause::ALL {
            assert_eq!(s.boost(y), 0.0);
        }
    }
}
