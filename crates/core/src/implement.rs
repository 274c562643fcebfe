//! Empirical implementation checking (§2's definitions, measured).
//!
//! `~σ'` implements `~σ''` when the *sets* of scheduler-induced outcome
//! distributions coincide; ε-implementation allows each side's
//! distributions to be ε-matched on the other side; weak implementation
//! drops one direction. The scheduler space is uncountable, so experiments
//! quantify over a **battery** of qualitatively distinct scheduler families
//! ([`SchedulerKind::battery`]) and estimate each family's outcome
//! distribution from seeded samples. The distances reported are therefore
//! statistical estimates — EXPERIMENTS.md records sample counts alongside.

use crate::scenario::RunSet;
use mediator_games::dist::{set_distance, weak_set_distance, OutcomeDist};
use mediator_sim::SchedulerKind;

/// Estimates one outcome distribution per scheduler kind.
///
/// `run` maps `(kind, seed)` to an action profile (already resolved for
/// infinite play). Each kind is sampled `samples` times with distinct seeds.
pub fn outcome_distributions<F>(
    kinds: &[SchedulerKind],
    samples: usize,
    mut run: F,
) -> Vec<OutcomeDist>
where
    F: FnMut(&SchedulerKind, u64) -> Vec<usize>,
{
    kinds
        .iter()
        .map(|kind| OutcomeDist::from_samples((0..samples as u64).map(|seed| run(kind, seed))))
        .collect()
}

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

    /// Whether the measured one-sided distance certifies weak
    /// ε-implementation.
    pub fn weakly_eps_implements(&self, eps: f64) -> bool {
        self.weak_distance <= eps
    }
}

/// Compares two batch [`RunSet`]s — typically a cheap-talk game against
/// its mediator game over the same scheduler battery, as produced by the
/// [`Scenario`](crate::scenario::Scenario) builders' `run_batch`. The
/// per-kind [`OutcomeDist`]s come built-in with the sets, so this is pure
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

/// Compares a cheap-talk game against its mediator game over a battery.
pub fn compare_implementations<F, G>(
    kinds: &[SchedulerKind],
    samples: usize,
    cheap_talk: F,
    mediator: G,
) -> ImplementationReport
where
    F: FnMut(&SchedulerKind, u64) -> Vec<usize>,
    G: FnMut(&SchedulerKind, u64) -> Vec<usize>,
{
    let ct = outcome_distributions(kinds, samples, cheap_talk);
    let md = outcome_distributions(kinds, samples, mediator);
    ImplementationReport {
        distance: set_distance(&ct, &md),
        weak_distance: weak_set_distance(&ct, &md),
        kinds: kinds.len(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_runners_have_zero_distance() {
        let kinds = vec![SchedulerKind::Random, SchedulerKind::Fifo];
        let runner = |_k: &SchedulerKind, seed: u64| vec![(seed % 2) as usize];
        let rep = compare_implementations(&kinds, 50, runner, runner);
        assert_eq!(rep.distance, 0.0);
        assert_eq!(rep.weak_distance, 0.0);
        assert!(rep.eps_implements(0.0));
    }

    #[test]
    fn diverging_runners_are_detected() {
        let kinds = vec![SchedulerKind::Random];
        let a = |_: &SchedulerKind, _: u64| vec![0usize];
        let b = |_: &SchedulerKind, _: u64| vec![1usize];
        let rep = compare_implementations(&kinds, 20, a, b);
        assert!((rep.distance - 2.0).abs() < 1e-12);
        assert!(!rep.eps_implements(0.5));
    }

    #[test]
    fn weak_direction_is_one_sided() {
        // Cheap talk always plays 0; the mediator plays 0 or 1 depending on
        // the scheduler kind: weak implementation (⊆) holds, full does not.
        let kinds = vec![SchedulerKind::Random, SchedulerKind::Fifo];
        let ct = |_: &SchedulerKind, _: u64| vec![0usize];
        let md = |k: &SchedulerKind, _: u64| match k {
            SchedulerKind::Fifo => vec![1usize],
            _ => vec![0usize],
        };
        let rep = compare_implementations(&kinds, 20, ct, md);
        assert_eq!(rep.weak_distance, 0.0, "every CT distribution is matched");
        assert!(
            rep.distance > 1.0,
            "the mediator's Fifo distribution is unmatched"
        );
    }

    #[test]
    fn run_set_comparison_of_identical_batches_is_zero() {
        use crate::scenario::Scenario;
        use mediator_circuits::catalog;
        use mediator_field::Fp;
        let n = 5;
        let kinds = vec![SchedulerKind::Random, SchedulerKind::Fifo];
        let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("5 > 4");
        let a = plan.battery(kinds.clone()).seeds(0..2).run_batch();
        let b = plan.battery(kinds).seeds(0..2).run_batch();
        let rep = compare_run_sets(&a, &b);
        assert_eq!(rep.distance, 0.0);
        assert_eq!(rep.weak_distance, 0.0);
        assert_eq!(rep.kinds, 2);
        assert_eq!(rep.samples, 2);
    }

    #[test]
    fn sampling_noise_stays_small_for_identical_random_sources() {
        // Two independent samplings of the same coin: distance is O(1/√N).
        let kinds = vec![SchedulerKind::Random];
        let mk = |salt: u64| {
            move |_: &SchedulerKind, seed: u64| {
                // SplitMix-ish hash → fair coin.
                let mut z = seed.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 31;
                vec![(z & 1) as usize]
            }
        };
        let rep = compare_implementations(&kinds, 2000, mk(1), mk(2));
        assert!(rep.distance < 0.1, "distance {}", rep.distance);
    }
}
