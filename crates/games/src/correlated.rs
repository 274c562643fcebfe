//! Correlated equilibria: the solution concept a mediator implements.
//!
//! A distribution `μ` over action profiles is a **correlated equilibrium**
//! if, for every player and every recommendation `a`, obeying is a best
//! response given the posterior over the others' recommendations. This is
//! exactly the incentive constraint a mediator-game equilibrium induces in
//! the underlying game (the mediator privately recommends actions), and the
//! standard example of why mediators add value at all: chicken's correlated
//! equilibrium is worth more than its symmetric Nash.
//!
//! Complete-information games only (the mediator games in the experiment
//! catalog condition on no private types; Bayesian mediators are exercised
//! through the cheap-talk machinery instead).

use crate::dist::OutcomeDist;
use crate::game::{ActionIx, BayesianGame};

/// A witness that the obedience constraint fails.
#[derive(Debug, Clone)]
pub struct ObedienceViolation {
    /// The player with a profitable disobedience.
    pub player: usize,
    /// The recommended action.
    pub recommended: ActionIx,
    /// The profitable deviation.
    pub better: ActionIx,
    /// Expected gain from disobeying (conditional on the recommendation).
    pub gain: f64,
}

/// Checks whether `mu` is an (ε-)correlated equilibrium of the
/// complete-information game `game`.
///
/// # Panics
///
/// Panics if the game has private types (use the cheap-talk machinery for
/// Bayesian mediators) or `mu` has support outside the action space.
pub fn correlated_violation(
    game: &BayesianGame,
    mu: &OutcomeDist,
    eps: f64,
) -> Option<ObedienceViolation> {
    assert!(
        game.type_counts().iter().all(|&c| c == 1),
        "correlated-equilibrium check requires complete information"
    );
    let n = game.n();
    let types = vec![0; n];
    for (profile, _) in mu.iter() {
        assert_eq!(profile.len(), n, "profile arity mismatch");
        for (i, &a) in profile.iter().enumerate() {
            assert!(
                a < game.action_counts()[i],
                "action out of range in support"
            );
        }
    }
    for i in 0..n {
        for rec in 0..game.action_counts()[i] {
            // Posterior mass over others' profiles given recommendation rec.
            let cond: Vec<(&Vec<ActionIx>, f64)> = mu.iter().filter(|(p, _)| p[i] == rec).collect();
            let mass: f64 = cond.iter().map(|(_, w)| w).sum();
            if mass <= 0.0 {
                continue; // recommendation never issued
            }
            let expected_obey: f64 = cond
                .iter()
                .map(|(p, w)| w * game.utilities(&types, p)[i])
                .sum::<f64>()
                / mass;
            for alt in 0..game.action_counts()[i] {
                if alt == rec {
                    continue;
                }
                let expected_alt: f64 = cond
                    .iter()
                    .map(|(p, w)| {
                        let mut q = (*p).clone();
                        q[i] = alt;
                        w * game.utilities(&types, &q)[i]
                    })
                    .sum::<f64>()
                    / mass;
                let gain = expected_alt - expected_obey;
                if gain > eps + 1e-9 {
                    return Some(ObedienceViolation {
                        player: i,
                        recommended: rec,
                        better: alt,
                        gain,
                    });
                }
            }
        }
    }
    None
}

/// The per-player value of a correlated equilibrium (expected utilities
/// under obedience).
pub fn value(game: &BayesianGame, mu: &OutcomeDist) -> Vec<f64> {
    let types = vec![0; game.n()];
    let mut acc = vec![0.0; game.n()];
    for (p, w) in mu.iter() {
        let us = game.utilities(&types, p);
        for i in 0..game.n() {
            acc[i] += w * us[i];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn chicken_mediated_distribution_is_correlated_equilibrium() {
        let (game, mu) = library::chicken_correlated();
        assert!(correlated_violation(&game, &mu, 0.0).is_none());
        let v = value(&game, &mu);
        assert!((v[0] - 5.25).abs() < 1e-12);
        assert!((v[1] - 5.25).abs() < 1e-12);
    }

    #[test]
    fn mutual_dare_heavy_distribution_is_not() {
        let (game, _) = library::chicken_correlated();
        // Recommending (Dare, Dare) always: told Dare, deviating to Chicken
        // gains 2 − 0 = 2.
        let mut mu = OutcomeDist::new();
        mu.add(vec![0, 0], 1.0);
        let v = correlated_violation(&game, &mu, 0.0).expect("violated");
        assert_eq!(v.recommended, 0);
        assert_eq!(v.better, 1);
        assert!((v.gain - 2.0).abs() < 1e-9);
        // But it IS an ε-correlated equilibrium for ε ≥ 2.
        assert!(correlated_violation(&game, &mu, 2.0).is_none());
    }

    #[test]
    fn pure_nash_as_point_mass_is_correlated_equilibrium() {
        let (game, _) = library::chicken_correlated();
        // (Dare, Chicken) is a pure Nash of chicken.
        let mut mu = OutcomeDist::new();
        mu.add(vec![0, 1], 1.0);
        assert!(correlated_violation(&game, &mu, 0.0).is_none());
    }

    #[test]
    fn counterexample_mediated_outcome_is_correlated_equilibrium() {
        let (game, mu, _) = library::counterexample_game(4);
        // All-0 / all-1 each with probability 1/2: obedience is optimal
        // (disobeying alone yields 0 or keeps 1.1-threshold unreachable).
        assert!(correlated_violation(&game, &mu, 0.0).is_none());
        let v = value(&game, &mu);
        assert!((v[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "complete information")]
    fn rejects_bayesian_games() {
        let g = crate::BayesianGame::new(
            "bayes",
            vec![2, 1],
            vec![1, 1],
            vec![(vec![0, 0], 0.5), (vec![1, 0], 0.5)],
            |_, _| vec![0.0, 0.0],
        );
        let mu = OutcomeDist::from_samples(vec![vec![0, 0]]);
        let _ = correlated_violation(&g, &mu, 0.0);
    }
}
