//! Empirical implementation checking (§2's definitions, measured).
//!
//! `~σ'` implements `~σ''` when the *sets* of scheduler-induced outcome
//! distributions coincide; ε-implementation allows each side's
//! distributions to be ε-matched on the other side; weak implementation
//! drops one direction. The scheduler space is uncountable, so experiments
//! quantify over a **battery** of qualitatively distinct scheduler families
//! ([`SchedulerKind::battery`](mediator_sim::SchedulerKind::battery)) and estimate each family's outcome
//! distribution from seeded samples. The distances reported are therefore
//! statistical estimates, and the report carries the sample counts.

use crate::scenario::RunSet;
use mediator_games::dist::{set_distance, weak_set_distance};

/// The result of comparing two games' outcome-distribution sets.
#[derive(Debug, Clone)]
pub struct ImplementationReport {
    /// Symmetric set distance (implementation direction, both ways).
    pub distance: f64,
    /// One-sided distance (weak implementation: cheap-talk ⊆ mediator).
    pub weak_distance: f64,
    /// Scheduler kinds compared.
    pub kinds: usize,
    /// Samples per kind per side.
    pub samples: usize,
}

impl ImplementationReport {
    /// Whether the measured distance certifies ε-implementation (up to the
    /// battery/sampling approximation).
    pub fn eps_implements(&self, eps: f64) -> bool {
        self.distance <= eps
    }
}

/// Compares two batch [`RunSet`]s — typically a cheap-talk game against
/// its mediator game over the same scheduler battery, as produced by the
/// [`Scenario`](crate::scenario::Scenario) builders' `run_batch`. The
/// per-kind [`OutcomeDist`](mediator_games::dist::OutcomeDist)s come built-in with the sets, so this is pure
/// distance arithmetic.
///
/// # Panics
///
/// Panics if the two sets were not run over the same battery, or with
/// different sample counts per kind (the reported `samples` — and the
/// sampling-noise floor readers derive from it — would be wrong for one
/// side).
pub fn compare_run_sets(ct: &RunSet, md: &RunSet) -> ImplementationReport {
    assert_eq!(
        ct.kinds(),
        md.kinds(),
        "run sets must share the scheduler battery"
    );
    assert_eq!(
        ct.seeds_per_kind(),
        md.seeds_per_kind(),
        "run sets must sample the same number of seeds per kind"
    );
    let c = ct.distributions();
    let m = md.distributions();
    ImplementationReport {
        distance: set_distance(&c, &m),
        weak_distance: weak_set_distance(&c, &m),
        kinds: ct.kinds().len(),
        samples: ct.seeds_per_kind(),
    }
}

#[cfg(test)]
mod tests {
    //! The distance arithmetic itself — disjoint point masses at distance
    //! 2, the one-sided weak direction, empty-set conventions — is tested
    //! where it lives (`mediator_games::dist`: `l1_disjoint_is_two`,
    //! `set_distance_symmetric_cases`, `empty_set_conventions`); these
    //! cases pin the `RunSet` wiring around it.

    use super::*;
    use crate::scenario::{RunSet, Scenario};
    use mediator_circuits::catalog;
    use mediator_field::Fp;
    use mediator_sim::SchedulerKind;

    const N: usize = 5;

    fn majority_runs(vote: Fp) -> RunSet {
        Scenario::cheap_talk(catalog::majority_circuit(N))
            .players(N)
            .tolerance(1, 0)
            .inputs(vec![vec![vote]; N])
            .build()
            .expect("5 > 4")
            .battery(vec![SchedulerKind::Random, SchedulerKind::Fifo])
            .seeds(0..2)
            .run_batch()
    }

    #[test]
    fn run_set_comparison_of_identical_batches_is_zero() {
        let rep = compare_run_sets(&majority_runs(Fp::ONE), &majority_runs(Fp::ONE));
        assert_eq!(rep.distance, 0.0);
        assert_eq!(rep.weak_distance, 0.0);
        assert!(rep.eps_implements(0.0));
        assert_eq!(rep.kinds, 2);
        assert_eq!(rep.samples, 2);
    }

    #[test]
    fn diverging_run_sets_are_detected() {
        // Unanimous ones against unanimous zeros: two disjoint point
        // masses under every scheduler kind, in both directions.
        let rep = compare_run_sets(&majority_runs(Fp::ONE), &majority_runs(Fp::ZERO));
        assert!((rep.distance - 2.0).abs() < 1e-12);
        assert!((rep.weak_distance - 2.0).abs() < 1e-12);
        assert!(!rep.eps_implements(0.5));
    }
}
