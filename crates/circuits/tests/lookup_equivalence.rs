//! `CircuitBuilder::lookup` compiles a table as one polynomial on a shared
//! power chain. This suite keeps the construction it replaced — one Lagrange
//! indicator per table row, summed — as the reference, checks that the two
//! circuits compute the same function on the *whole field* (they are the
//! same polynomial, so also off the table's domain, where a byzantine
//! input can land), and pins what the new compile costs.

use mediator_circuits::{catalog, Circuit, CircuitBuilder, WireId};
use mediator_field::Fp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-PR 21 `lookup`: `Σ values[i]·[x == dᵢ]`, each indicator its own
/// `eq_const` chain (`|domain|·(|domain| − 2)` multiplications).
fn indicator_sum_lookup(
    b: &mut CircuitBuilder,
    x: WireId,
    domain: &[u64],
    values: &[Fp],
) -> WireId {
    assert_eq!(domain.len(), values.len());
    let mut acc: Option<WireId> = None;
    for (&d, &v) in domain.iter().zip(values) {
        let ind = b.eq_const(x, d, domain);
        let term = b.mul_const(ind, v);
        acc = Some(match acc {
            None => term,
            Some(a) => b.add(a, term),
        });
    }
    acc.unwrap_or_else(|| b.constant(Fp::ZERO))
}

type Lookup = fn(&mut CircuitBuilder, WireId, &[u64], &[Fp]) -> WireId;

/// One input, one output: the table applied to the input.
fn table_circuit(lookup: Lookup, domain: &[u64], values: &[Fp]) -> Circuit {
    let mut b = CircuitBuilder::new(1, &[1]);
    let x = b.input(0, 0);
    let y = lookup(&mut b, x, domain, values);
    b.output(0, y);
    b.build()
}

/// `majority_circuit(n)` with the replaced lookup.
fn indicator_sum_majority(n: usize) -> Circuit {
    let mut b = CircuitBuilder::new(n, &vec![1; n]);
    let bits: Vec<_> = (0..n).map(|p| b.input(p, 0)).collect();
    let s = b.sum(&bits);
    let domain: Vec<u64> = (0..=n as u64).collect();
    let values: Vec<Fp> = (0..=n)
        .map(|ones| if 2 * ones > n { Fp::ONE } else { Fp::ZERO })
        .collect();
    let maj = indicator_sum_lookup(&mut b, s, &domain, &values);
    b.output_all(maj);
    b.build()
}

fn eval1(c: &Circuit, x: Fp) -> Fp {
    let mut rng = StdRng::seed_from_u64(0);
    c.eval(&[vec![x]], &mut rng).outputs[0][0]
}

fn eval_all(c: &Circuit, inputs: &[Fp]) -> Vec<Vec<Fp>> {
    let mut rng = StdRng::seed_from_u64(0);
    let inputs: Vec<Vec<Fp>> = inputs.iter().map(|&x| vec![x]).collect();
    c.eval(&inputs, &mut rng).outputs
}

/// `raw` with repeated field elements dropped, first occurrence kept.
fn distinct_points(raw: &[u64]) -> Vec<u64> {
    let mut domain: Vec<u64> = Vec::new();
    for &d in raw {
        if domain.iter().all(|&e| Fp::new(e) != Fp::new(d)) {
            domain.push(d);
        }
    }
    domain
}

proptest! {
    /// Old and new compile agree on arbitrary tables over arbitrary domains
    /// of up to 14 distinct field elements, at every domain point and at an
    /// `x` drawn from the whole field.
    #[test]
    fn power_basis_matches_indicator_sum_everywhere(
        raw in proptest::collection::vec(any::<u64>(), 0..15),
        table in proptest::collection::vec(any::<u64>(), 14),
        x in any::<u64>(),
    ) {
        let domain = distinct_points(&raw);
        let values: Vec<Fp> = table[..domain.len()].iter().map(|&v| Fp::new(v)).collect();
        let old = table_circuit(indicator_sum_lookup, &domain, &values);
        let new = table_circuit(CircuitBuilder::lookup, &domain, &values);
        prop_assert_eq!(eval1(&new, Fp::new(x)), eval1(&old, Fp::new(x)));
        for (&d, &v) in domain.iter().zip(&values) {
            prop_assert_eq!(eval1(&new, Fp::new(d)), v);
            prop_assert_eq!(eval1(&old, Fp::new(d)), v);
        }
        prop_assert!(new.mul_count() <= domain.len().saturating_sub(2));
    }

    /// The same over small domains `{0, …, m}` with small tables — the shape
    /// mediator circuits use, where coefficients vanish and degrees drop.
    #[test]
    fn power_basis_matches_indicator_sum_on_small_tables(
        table in proptest::collection::vec(0u64..3, 1..15),
        x in any::<u64>(),
    ) {
        let domain: Vec<u64> = (0..table.len() as u64).collect();
        let values: Vec<Fp> = table.iter().map(|&v| Fp::new(v)).collect();
        let old = table_circuit(indicator_sum_lookup, &domain, &values);
        let new = table_circuit(CircuitBuilder::lookup, &domain, &values);
        prop_assert_eq!(eval1(&new, Fp::new(x)), eval1(&old, Fp::new(x)));
        for (&d, &v) in domain.iter().zip(&values) {
            prop_assert_eq!(eval1(&new, Fp::new(d)), v);
        }
    }

    /// `majority_circuit` agrees with its indicator-sum twin when a dealer's
    /// input is not a bit (the sum then leaves `0..=n`).
    #[test]
    fn majority_matches_indicator_sum_off_domain(
        n in 1usize..14,
        inputs in proptest::collection::vec(any::<u64>(), 13),
    ) {
        let inputs: Vec<Fp> = inputs[..n].iter().map(|&v| Fp::new(v)).collect();
        let old = eval_all(&indicator_sum_majority(n), &inputs);
        let new = eval_all(&catalog::majority_circuit(n), &inputs);
        prop_assert_eq!(new, old);
    }
}

/// Every sum class `0..=n` at the sizes too big to enumerate bit by bit
/// (the builder's own tests enumerate all `2ⁿ` inputs for `n ≤ 5`), with the
/// ones placed first and placed last.
#[test]
fn majority_is_the_threshold_on_every_sum_class() {
    for n in [9usize, 13] {
        let new = catalog::majority_circuit(n);
        let old = indicator_sum_majority(n);
        for ones in 0..=n {
            let expect = if 2 * ones > n { Fp::ONE } else { Fp::ZERO };
            let first: Vec<Fp> = (0..n).map(|i| Fp::new((i < ones) as u64)).collect();
            let last: Vec<Fp> = first.iter().rev().copied().collect();
            for inputs in [first, last] {
                let want = vec![vec![expect]; n];
                assert_eq!(eval_all(&new, &inputs), want, "n={n} ones={ones}");
                assert_eq!(eval_all(&old, &inputs), want, "n={n} ones={ones} (oracle)");
            }
        }
    }
}

/// What the mediator's circuit size `c` now is for the catalog's lookup
/// user: `n − 1` multiplications at logarithmic depth, against the
/// indicator sum's `n² − 1` at depth `n − 1`.
#[test]
fn majority_circuit_cost_is_pinned() {
    for (n, muls, depth) in [(5usize, 4usize, 3usize), (9, 8, 4), (13, 12, 4)] {
        let c = catalog::majority_circuit(n);
        assert_eq!((c.mul_count(), c.depth()), (muls, depth), "n = {n}");
        let old = indicator_sum_majority(n);
        assert_eq!(
            (old.mul_count(), old.depth()),
            (n * n - 1, n - 1),
            "n = {n}"
        );
    }
}

/// A table costs its polynomial's degree, not its domain's size.
#[test]
fn a_table_of_degree_e_costs_e_minus_one_multiplications() {
    let cost = |domain: &[u64], f: &dyn Fn(u64) -> u64| {
        let values: Vec<Fp> = domain.iter().map(|&d| Fp::new(f(d))).collect();
        table_circuit(CircuitBuilder::lookup, domain, &values).mul_count()
    };
    let four = [0u64, 1, 2, 3];
    assert_eq!(cost(&four, &|x| x * x + 1), 1, "x² + 1 over four points");
    assert_eq!(cost(&four, &|x| 3 * x + 2), 0, "linear");
    assert_eq!(cost(&four, &|_| 7), 0, "constant");
    assert_eq!(cost(&four, &|_| 0), 0, "zero");
    assert_eq!(cost(&four, &|x| x * x * x), 2, "x³: full degree");
    let fourteen: Vec<u64> = (0..14).collect();
    assert_eq!(cost(&fourteen, &|x| x * x + 1), 1, "x² + 1 over fourteen");
    assert_eq!(
        cost(&fourteen, &|x| x.pow(5) + x),
        4,
        "x⁵ + x over fourteen"
    );
}
