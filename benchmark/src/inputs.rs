//! The one input family every workload runs, and how seeds are derived.
//!
//! Every execution is the Theorem 4.1 majority circuit with all-ones inputs
//! under `SchedulerKind::Random`. All-ones makes the answer scheduler-proof
//! — every player resolves to 1 whatever the delivery order — so each
//! unit's output can be checked without a reference run. The workload
//! `--seed` derives the per-run scheduler seeds and nothing else reaches
//! the program.

use mediator_circuits::catalog;
use mediator_core::scenario::{CheapTalkPlan, Scenario};
use mediator_field::Fp;
use mediator_sim::{Outcome, TerminationKind};

/// A built plan at one `(n, k)` working point.
pub struct Inputs {
    pub n: usize,
    pub k: usize,
    pub plan: CheapTalkPlan,
}

impl Inputs {
    /// Builds the plan; `n > 4k` is the Theorem 4.1 threshold, which the
    /// builder enforces with a typed error.
    pub fn majority(n: usize, k: usize) -> Result<Self, String> {
        let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(k, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .map_err(|e| format!("build n={n} k={k}: {e}"))?;
        Ok(Inputs { n, k, plan })
    }

    /// The small working point: `World` stepping dominates.
    pub fn n5() -> Result<Self, String> {
        Inputs::majority(5, 1)
    }

    /// The large working point: RS decode / OEC / interpolation dominate.
    pub fn n13() -> Result<Self, String> {
        Inputs::majority(13, 3)
    }

    /// The oracle for one in-process or hosted execution.
    pub fn check(&self, out: &Outcome) -> Result<(), String> {
        if out.termination != TerminationKind::Quiescent {
            return Err(format!("run ended {:?}", out.termination));
        }
        // The default action is 0, so a player that never moved fails.
        if out.resolve_default(&vec![0; self.n]) != vec![1; self.n] {
            return Err(format!("run resolved to {:?}", out.moves));
        }
        Ok(())
    }
}

/// splitmix64: the bijective mixer the per-run seeds are drawn with.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The scheduler seed of execution `index` in `stream` under workload seed
/// `seed`. Streams keep rounds, warm-up and probes from sharing seeds.
pub fn run_seed(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)).wrapping_add(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seeds_repeat_and_do_not_collide() {
        assert_eq!(run_seed(7, 1, 3), run_seed(7, 1, 3));
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..4 {
            for stream in 0..4 {
                for index in 0..64 {
                    assert!(seen.insert(run_seed(seed, stream, index)));
                }
            }
        }
    }
}
