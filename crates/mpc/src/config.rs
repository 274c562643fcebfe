//! Engine configuration.

use mediator_field::Fp;
use serde::{Deserialize, Serialize};

/// Security mode of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Full robustness: `n > 4f`. Cheating is *corrected* (online error
    /// correction); the protocol always terminates with the right outputs.
    Robust,
    /// Detection-based: safety for `n > 3f`; detected cheating aborts the
    /// engine. `kappa` is the number of cut-and-choose checks per dealer,
    /// each with the soundness `mediator_vss::detect` states.
    Epsilon {
        /// Cut-and-choose checks per dealer.
        kappa: usize,
    },
}

/// Configuration for one MPC execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MpcConfig {
    /// Number of players.
    pub n: usize,
    /// Secrecy degree `f = k + t`: any `f` players learn nothing.
    pub f: usize,
    /// Number of actively lying players to tolerate in decoding
    /// (`t` in the paper; equal to `f` in robust mode).
    pub t: usize,
    /// Security mode.
    pub mode: Mode,
    /// Shared setup seed: ABA common coins and detection challenges.
    pub coin_seed: u64,
    /// Default input vectors used for players outside the input core
    /// (`defaults[p]` must match the circuit's input arity of `p`).
    pub defaults: Vec<Vec<Fp>>,
}

impl MpcConfig {
    /// A robust-mode configuration (`n > 4f` enforced at engine start).
    pub fn robust(n: usize, f: usize, coin_seed: u64, defaults: Vec<Vec<Fp>>) -> Self {
        MpcConfig {
            n,
            f,
            t: f,
            mode: Mode::Robust,
            coin_seed,
            defaults,
        }
    }

    /// An ε-mode configuration.
    pub fn epsilon(
        n: usize,
        f: usize,
        t: usize,
        kappa: usize,
        coin_seed: u64,
        defaults: Vec<Vec<Fp>>,
    ) -> Self {
        MpcConfig {
            n,
            f,
            t,
            mode: Mode::Epsilon { kappa },
            coin_seed,
            defaults,
        }
    }

    /// Validates the resilience requirements.
    ///
    /// # Panics
    ///
    /// Panics if the mode's threshold is violated (robust: `n > 4f`;
    /// ε: `n > 3·max(f,t)` for the agreement layer and `n ≥ f + 2t + 1`
    /// for decoding) or the defaults have the wrong shape.
    pub fn validate(&self, inputs_per_player: &[usize]) {
        match self.mode {
            Mode::Robust => {
                assert!(
                    self.n > 4 * self.f,
                    "robust MPC requires n > 4f (n={}, f={})",
                    self.n,
                    self.f
                );
                assert_eq!(self.t, self.f, "robust mode corrects t = f errors");
            }
            Mode::Epsilon { kappa } => {
                assert!(kappa >= 1, "need at least one cut-and-choose check");
                assert!(
                    self.n > self.f + 2 * self.t,
                    "epsilon MPC needs n ≥ f+2t+1 for challenge decoding"
                );
                assert!(self.n > 3 * self.t, "agreement layer needs n > 3t");
            }
        }
        assert_eq!(self.defaults.len(), self.n, "one default vector per player");
        for (p, d) in self.defaults.iter().enumerate() {
            assert_eq!(
                d.len(),
                inputs_per_player[p],
                "default arity mismatch for player {p}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_constructor_sets_t_equal_f() {
        let c = MpcConfig::robust(5, 1, 0, vec![vec![]; 5]);
        assert_eq!(c.t, 1);
        c.validate(&[0; 5]);
    }

    #[test]
    #[should_panic(expected = "n > 4f")]
    fn robust_threshold_enforced() {
        MpcConfig::robust(4, 1, 0, vec![vec![]; 4]).validate(&[0; 4]);
    }

    #[test]
    fn epsilon_accepts_n_3f_plus_1() {
        // k=0, t=1, f=1: n = 4 = 3f+1 ✓ (and ≥ f+2t+1 = 4).
        let c = MpcConfig::epsilon(4, 1, 1, 2, 0, vec![vec![]; 4]);
        c.validate(&[0; 4]);
    }

    #[test]
    #[should_panic(expected = "f+2t+1")]
    fn epsilon_decoding_bound_enforced() {
        MpcConfig::epsilon(4, 2, 1, 2, 0, vec![vec![]; 4]).validate(&[0; 4]);
    }

    #[test]
    #[should_panic(expected = "default arity")]
    fn defaults_shape_checked() {
        MpcConfig::robust(5, 1, 0, vec![vec![]; 5]).validate(&[1, 0, 0, 0, 0]);
    }
}
