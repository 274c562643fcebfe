//! Shared workloads for the Criterion benches, and the crate of the
//! `experiments` binary (the frontier atlas and its witness replay).
//!
//! DESIGN.md §4 maps every quantitative claim of the paper to the test
//! suite or frontier atlas cell that certifies it. Timing lives in
//! `benchmark/` (the repo benchmark, `BENCHMARK.json`).

use mediator_field::Fp;

/// All-ones inputs (scheduler-proof majority).
pub fn ones_inputs(n: usize) -> Vec<Vec<Fp>> {
    vec![vec![Fp::ONE]; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_inputs_are_one_bit_per_player() {
        assert_eq!(ones_inputs(4), vec![vec![Fp::ONE]; 4]);
    }
}
