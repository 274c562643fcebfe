//! Shared workloads for the `experiments` binary and the Criterion benches.
//!
//! Every quantitative claim of the paper maps to an experiment E1–E11 (see
//! DESIGN.md §4); this crate hosts the workload builders those experiments
//! share with the Criterion benches. Timing lives in `benchmark/` (the
//! repo benchmark, `BENCHMARK.json`), not here.

use mediator_circuits::catalog;
use mediator_core::scenario::CheapTalkPlan;
use mediator_core::CheapTalkSpec;
use mediator_field::Fp;

/// Builds the Theorem 4.1 majority workload.
pub fn majority_spec_robust(n: usize, k: usize, t: usize) -> CheapTalkSpec {
    CheapTalkSpec::theorem_4_1(
        n,
        k,
        t,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![0; n],
    )
}

/// Builds the Theorem 4.2 majority workload.
pub fn majority_spec_epsilon(n: usize, k: usize, t: usize, kappa: usize) -> CheapTalkSpec {
    CheapTalkSpec::theorem_4_2(
        n,
        k,
        t,
        kappa,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![0; n],
    )
}

/// Builds the Theorem 4.4 majority workload (punishment + barrier).
pub fn majority_spec_punish(n: usize, k: usize, t: usize) -> CheapTalkSpec {
    CheapTalkSpec::theorem_4_4(
        n,
        k,
        t,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![3; n], // punishment action (out of the game's range on purpose)
        vec![0; n],
    )
}

/// Builds the Theorem 4.5 majority workload.
pub fn majority_spec_eps_punish(n: usize, k: usize, t: usize, kappa: usize) -> CheapTalkSpec {
    CheapTalkSpec::theorem_4_5(
        n,
        k,
        t,
        kappa,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![3; n],
        vec![0; n],
    )
}

/// Bit inputs `1,0,1,0,...` (scheduler-sensitive majority for odd n).
pub fn alternating_inputs(n: usize) -> Vec<Vec<Fp>> {
    (0..n).map(|i| vec![Fp::new((i % 2 == 0) as u64)]).collect()
}

/// All-ones inputs (scheduler-proof majority).
pub fn ones_inputs(n: usize) -> Vec<Vec<Fp>> {
    vec![vec![Fp::ONE]; n]
}

/// Builds the Scenario plan for a spec + inputs (step budget 8M, the
/// harness default).
pub fn plan_for(spec: &CheapTalkSpec, inputs: &[Vec<Fp>]) -> CheapTalkPlan {
    CheapTalkPlan::from_spec(spec.clone(), inputs.to_vec())
}

/// Least-squares slope of `log y` against `log x` — the fitted scaling
/// exponent used by the E5 tables.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_sim::SchedulerKind;

    #[test]
    fn slope_of_exact_power_law() {
        let pts: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, (i as f64).powi(3))).collect();
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn workload_builders_validate() {
        let _ = majority_spec_robust(5, 1, 0);
        let _ = majority_spec_epsilon(4, 0, 1, 2);
        let _ = majority_spec_punish(6, 1, 0);
        let _ = majority_spec_eps_punish(6, 1, 1, 2);
        assert_eq!(alternating_inputs(3).len(), 3);
        assert_eq!(ones_inputs(4)[3][0], Fp::ONE);
    }

    #[test]
    fn robust_majority_smoke() {
        let n = 5;
        let spec = majority_spec_robust(n, 1, 0);
        let out = plan_for(&spec, &ones_inputs(n)).run_with(&SchedulerKind::Random, 1);
        assert_eq!(out.resolve_default(&vec![0; n]), vec![1; n]);
    }
}
