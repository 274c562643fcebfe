//! Shared workloads for the `experiments` binary and the Criterion benches.
//!
//! DESIGN.md §4 maps every quantitative claim of the paper to a test suite
//! or to one of the experiments kept here (E5, E6, E8–E10); this crate
//! hosts the workload builders they share with the Criterion benches.
//! Timing lives in `benchmark/` (the repo benchmark, `BENCHMARK.json`).

use mediator_field::Fp;

/// All-ones inputs (scheduler-proof majority).
pub fn ones_inputs(n: usize) -> Vec<Vec<Fp>> {
    vec![vec![Fp::ONE]; n]
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

    #[test]
    fn slope_of_exact_power_law() {
        let pts: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, (i as f64).powi(3))).collect();
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ones_inputs_are_one_bit_per_player() {
        assert_eq!(ones_inputs(4), vec![vec![Fp::ONE]; 4]);
    }
}
