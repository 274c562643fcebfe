//! Mediator circuits used by the paper's examples and the experiments.

use crate::builder::CircuitBuilder;
use crate::circuit::Circuit;
use mediator_field::Fp;

/// The Byzantine-agreement mediator from the paper's introduction: every
/// player sends its input bit; the mediator sends the majority back to all.
pub fn majority_circuit(n: usize) -> Circuit {
    let mut b = CircuitBuilder::new(n, &vec![1; n]);
    let bits: Vec<_> = (0..n).map(|p| b.input(p, 0)).collect();
    let maj = b.majority(&bits);
    b.output_all(maj);
    b.build()
}

/// A mediator computing the sum of everyone's inputs for everyone (the
/// simplest non-trivial aggregate; used in tests and the quickstart).
pub fn sum_circuit(n: usize) -> Circuit {
    let mut b = CircuitBuilder::new(n, &vec![1; n]);
    let xs: Vec<_> = (0..n).map(|p| b.input(p, 0)).collect();
    let s = b.sum(&xs);
    b.output_all(s);
    b.build()
}

/// The correlated-equilibrium mediator for chicken
/// (`mediator_games::library::chicken_correlated` payoffs — but this crate
/// is independent of the games crate; the distribution is documented here).
///
/// Draws two fair bits `(b1, b2)`; the joint recommendation is
///
/// * `b1 = 1` → `(Chicken, Chicken)` — probability 1/2;
/// * `b1 = 0, b2 = 0` → `(Dare, Chicken)` — probability 1/4;
/// * `b1 = 0, b2 = 1` → `(Chicken, Dare)` — probability 1/4;
///
/// and each player privately learns **only its own action** (0 = Dare,
/// 1 = Chicken) — the whole point of a correlated-equilibrium mediator.
pub fn chicken_mediator() -> Circuit {
    let mut b = CircuitBuilder::new(2, &[0, 0]);
    let b1 = b.rand_bit();
    let b2 = b.rand_bit();
    // Player 0 plays Chicken unless (b1=0 ∧ b2=0): a0 = b1 OR b2.
    let a0 = b.or(b1, b2);
    // Player 1 plays Chicken unless (b1=0 ∧ b2=1): a1 = b1 OR ¬b2.
    let nb2 = b.not(b2);
    let a1 = b.or(b1, nb2);
    b.output(0, a0);
    b.output(1, a1);
    b.build()
}

/// The §6.4 **naive** mediator for the counterexample game: it draws fair
/// bits `b` (the action) and `a` (the pad), and tells player `i` the pair
/// `(a + b·i mod 2, b)` encoded as the field element `2·leak_i + b` where
/// `leak_i = a XOR (b AND [i odd])`.
///
/// The leak is exactly the unnecessary information the paper warns about: a
/// rational coalition containing players `i, j` of different parities
/// computes `leak_i XOR leak_j = b` *before* acting and can profitably
/// deadlock the protocol when `b = 0` (`tests/counterexample.rs`).
pub fn counterexample_naive(n: usize) -> Circuit {
    let mut b = CircuitBuilder::new(n, &vec![0; n]);
    let bbit = b.rand_bit();
    let abit = b.rand_bit();
    for i in 0..n {
        let leak = if i % 2 == 1 { b.xor(abit, bbit) } else { abit };
        let two_leak = b.mul_const(leak, Fp::new(2));
        let out = b.add(two_leak, bbit);
        b.output(i, out);
    }
    b.build()
}

/// The minimally-informative repair of [`counterexample_naive`] (Lemma 6.8
/// applied to the §6.4 mediator): the mediator still draws both coins (the
/// message *pattern* is unchanged) but sends each player **only the action**
/// `b`.
pub fn counterexample_minfo(n: usize) -> Circuit {
    let mut b = CircuitBuilder::new(n, &vec![0; n]);
    let bbit = b.rand_bit();
    let _abit = b.rand_bit(); // drawn but never revealed
    for i in 0..n {
        b.output(i, bbit);
    }
    b.build()
}

/// A parameterized "work" circuit: `depth` layers of `width` multiplications
/// over the players' inputs, all players learn the final wire. Sweeps the
/// paper's `c` parameter in the message-cost test of the root
/// `tests/trace_golden.rs`.
pub fn work_circuit(n: usize, width: usize, depth: usize) -> Circuit {
    assert!(width >= 1 && n >= 1);
    let mut b = CircuitBuilder::new(n, &vec![1; n]);
    let xs: Vec<_> = (0..n).map(|p| b.input(p, 0)).collect();
    let mut layer: Vec<_> = (0..width).map(|j| xs[j % n]).collect();
    for _ in 0..depth {
        layer = (0..width)
            .map(|j| {
                let a = layer[j];
                let b2 = layer[(j + 1) % width];
                b.mul(a, b2)
            })
            .collect();
    }
    let s = b.sum(&layer);
    b.output_all(s);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn majority_circuit_matches_majority() {
        let n = 5;
        let c = majority_circuit(n);
        let mut rng = StdRng::seed_from_u64(0);
        for mask in 0..(1u64 << n) {
            let inputs: Vec<Vec<Fp>> = (0..n).map(|i| vec![Fp::new((mask >> i) & 1)]).collect();
            let out = c.eval(&inputs, &mut rng);
            let ones = (0..n).filter(|i| (mask >> i) & 1 == 1).count();
            let expect = if 2 * ones > n { Fp::ONE } else { Fp::ZERO };
            for p in 0..n {
                assert_eq!(out.outputs[p], vec![expect]);
            }
        }
    }

    #[test]
    fn chicken_mediator_distribution() {
        let c = chicken_mediator();
        // Enumerate the four coin outcomes.
        let mut counts = std::collections::BTreeMap::new();
        for b1 in [false, true] {
            for b2 in [false, true] {
                let out = c.eval_with_coins(&[vec![], vec![]], &[], &[b1, b2]);
                let a0 = out.outputs[0][0].as_u64();
                let a1 = out.outputs[1][0].as_u64();
                *counts.entry((a0, a1)).or_insert(0) += 1;
            }
        }
        // (C,C)=(1,1) twice; (D,C)=(0,1) once; (C,D)=(1,0) once.
        assert_eq!(counts.get(&(1, 1)), Some(&2));
        assert_eq!(counts.get(&(0, 1)), Some(&1));
        assert_eq!(counts.get(&(1, 0)), Some(&1));
        assert_eq!(counts.get(&(0, 0)), None);
    }

    #[test]
    fn naive_counterexample_leaks_b_to_odd_pairs() {
        let n = 4;
        let c = counterexample_naive(n);
        for b in [false, true] {
            for a in [false, true] {
                let out = c.eval_with_coins(&vec![vec![]; n], &[], &[b, a]);
                // Decode player i's message: low bit = action b, high bit = leak.
                for i in 0..n {
                    let v = out.outputs[i][0].as_u64();
                    let action = v & 1;
                    let leak = v >> 1;
                    assert_eq!(action, b as u64, "action must be b");
                    let expect_leak = (a as u64) ^ ((b as u64) & (i as u64 & 1));
                    assert_eq!(leak, expect_leak, "leak formula a+bi mod 2");
                }
                // Coalition {0, 1} (odd difference) recovers b:
                let l0 = out.outputs[0][0].as_u64() >> 1;
                let l1 = out.outputs[1][0].as_u64() >> 1;
                assert_eq!(l0 ^ l1, b as u64);
            }
        }
    }

    #[test]
    fn minfo_counterexample_reveals_only_b() {
        let n = 4;
        let c = counterexample_minfo(n);
        for b in [false, true] {
            for a in [false, true] {
                let out = c.eval_with_coins(&vec![vec![]; n], &[], &[b, a]);
                for i in 0..n {
                    assert_eq!(out.outputs[i][0].as_u64(), b as u64);
                }
            }
        }
        // Same number of RandBit gates as the naive circuit: the coin
        // pattern is unchanged, only the outputs shrink.
        assert_eq!(c.rand_bit_count(), counterexample_naive(n).rand_bit_count());
    }

    #[test]
    fn work_circuit_scales_in_size() {
        let c1 = work_circuit(3, 4, 1);
        let c2 = work_circuit(3, 4, 5);
        assert!(c2.size() > c1.size());
        assert_eq!(c2.mul_count(), 4 * 5);
        assert_eq!(c2.depth(), 5);
        // And it actually evaluates.
        let mut rng = StdRng::seed_from_u64(0);
        let out = c2.eval(
            &[vec![Fp::new(1)], vec![Fp::new(2)], vec![Fp::new(3)]],
            &mut rng,
        );
        assert_eq!(out.outputs[0], out.outputs[2]);
    }

    #[test]
    fn sum_circuit_all_players() {
        let c = sum_circuit(4);
        let mut rng = StdRng::seed_from_u64(0);
        let inputs: Vec<Vec<Fp>> = (1..=4u64).map(|v| vec![Fp::new(v)]).collect();
        let out = c.eval(&inputs, &mut rng);
        for p in 0..4 {
            assert_eq!(out.outputs[p], vec![Fp::new(10)]);
        }
    }
}
