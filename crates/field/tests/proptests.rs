//! Property-based tests: field axioms, polynomial identities, share-grid
//! interpolation over any subset, and robust decoding under arbitrary
//! corruption patterns.

use mediator_field::{grid, rs, Fp, Poly};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_fp() -> impl Strategy<Value = Fp> {
    any::<u64>().prop_map(Fp::new)
}

/// A non-empty random subset of the share grid `{0, …, g − 1}`, in random
/// order, each index with a random value.
fn grid_subset(g: usize, seed: u64) -> Vec<(usize, Fp)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idxs: Vec<usize> = (0..g).collect();
    for i in 0..g {
        idxs.swap(i, rng.gen_range(i..g));
    }
    let m = rng.gen_range(1..=g);
    idxs[..m]
        .iter()
        .map(|&i| (i, Fp::random(&mut rng)))
        .collect()
}

/// The generic form of share-grid points: `(i + 1, y)`.
fn share_points(points: &[(usize, Fp)]) -> Vec<(Fp, Fp)> {
    points
        .iter()
        .map(|&(i, y)| (Fp::new(i as u64 + 1), y))
        .collect()
}

fn arb_poly(max_deg: usize) -> impl Strategy<Value = Poly> {
    proptest::collection::vec(arb_fp(), 1..=max_deg + 1).prop_map(Poly::from_coeffs)
}

proptest! {
    #[test]
    fn field_addition_commutes(a in arb_fp(), b in arb_fp()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn field_multiplication_commutes_and_associates(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn field_distributive_law(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn field_additive_inverse(a in arb_fp()) {
        prop_assert_eq!(a + (-a), Fp::ZERO);
        prop_assert_eq!(a - a, Fp::ZERO);
    }

    #[test]
    fn field_multiplicative_inverse(a in arb_fp()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.inv().unwrap(), Fp::ONE);
        }
    }

    #[test]
    fn pow_adds_exponents(a in arb_fp(), e1 in 0u64..64, e2 in 0u64..64) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    /// Montgomery's trick agrees with Fermat inversion on every nonzero
    /// entry, for arbitrary mixes of zero and nonzero inputs.
    #[test]
    fn batch_inv_matches_scalar_inv(xs in proptest::collection::vec(any::<u64>(), 0..40)) {
        let xs: Vec<Fp> = xs.into_iter().map(Fp::new).collect();
        let invs = Fp::batch_inv(&xs);
        prop_assert_eq!(invs.len(), xs.len());
        for (x, got) in xs.iter().zip(&invs) {
            match x.inv() {
                Some(inv) => prop_assert_eq!(*got, inv),
                None => prop_assert_eq!(*got, Fp::ZERO),
            }
        }
    }

    #[test]
    fn poly_add_is_pointwise(p in arb_poly(6), q in arb_poly(6), x in arb_fp()) {
        let sum = &p + &q;
        prop_assert_eq!(sum.eval(x), p.eval(x) + q.eval(x));
    }

    #[test]
    fn poly_mul_is_pointwise(p in arb_poly(5), q in arb_poly(5), x in arb_fp()) {
        let prod = &p * &q;
        prop_assert_eq!(prod.eval(x), p.eval(x) * q.eval(x));
    }

    #[test]
    fn poly_div_rem_identity(p in arb_poly(8), q in arb_poly(4)) {
        if !q.is_zero() {
            let (quot, rem) = p.div_rem(&q);
            let back = &(&quot * &q) + &rem;
            prop_assert_eq!(back, p);
        }
    }

    #[test]
    fn interpolation_roundtrip(p in arb_poly(6)) {
        let deg = p.degree().unwrap_or(0);
        let pts: Vec<(Fp, Fp)> = (1..=deg as u64 + 1)
            .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
            .collect();
        let q = Poly::interpolate(&pts);
        prop_assert_eq!(p, q);
    }

    /// The headline robustness property: for any degree ≤ 4, any error count
    /// e ≤ 2, any subset of corrupted positions and any corruption values,
    /// Berlekamp–Welch recovers the true polynomial from deg + 2e + 1 points.
    #[test]
    fn robust_decode_recovers_under_arbitrary_corruption(
        secret in arb_fp(),
        deg in 0usize..4,
        e in 0usize..3,
        corrupt_sel in proptest::collection::vec(any::<u16>(), 3),
        deltas in proptest::collection::vec(1u64..1_000_000, 3),
        coeff_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(coeff_seed);
        let p = Poly::random_with_secret(secret, deg, &mut rng);
        let n = deg + 2 * e + 1;
        let mut pts: Vec<(Fp, Fp)> = (1..=n as u64)
            .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
            .collect();
        // Pick e distinct positions to corrupt.
        let mut positions: Vec<usize> = (0..n).collect();
        for (i, sel) in corrupt_sel.iter().enumerate().take(e) {
            let j = i + (*sel as usize) % (n - i);
            positions.swap(i, j);
        }
        for (i, &pos) in positions.iter().take(e).enumerate() {
            pts[pos].1 += Fp::new(deltas[i]);
        }
        let (q, bad) = rs::decode_robust(&pts, deg, e).expect("decode");
        prop_assert_eq!(q, p);
        prop_assert_eq!(bad.len(), e.min(bad.len() + e - bad.len())); // bad ⊆ corrupted
    }

    /// The grid kernel derives every subset's weights from the cached
    /// full-grid ones; on grids of up to 70 points (both sides of the
    /// 64-point cache), any subset in any order interpolates to the same
    /// polynomial as the generic derivative-weight path.
    #[test]
    fn grid_interpolation_matches_generic_on_any_subset(g in 1usize..=70, seed in any::<u64>()) {
        let points = grid_subset(g, seed);
        let got = grid::interpolate_indices(&points, &mut Vec::new()).to_vec();
        prop_assert_eq!(Poly::from_coeffs(got), Poly::interpolate(&share_points(&points)));
    }

    /// Column `a` of the Lagrange basis is the polynomial through the
    /// `a`-th unit vector.
    #[test]
    fn lagrange_basis_columns_interpolate_unit_vectors(g in 1usize..=70, seed in any::<u64>()) {
        let mut points = grid_subset(g, seed);
        let idxs: Vec<usize> = points.iter().map(|&(i, _)| i).collect();
        let m = idxs.len();
        let basis = grid::lagrange_basis(&idxs);
        for a in 0..m {
            for (c, p) in points.iter_mut().enumerate() {
                p.1 = Fp::new(u64::from(c == a));
            }
            let column: Vec<Fp> = (0..m).map(|b| basis[b * m + a]).collect();
            prop_assert_eq!(Poly::from_coeffs(column), Poly::interpolate(&share_points(&points)));
        }
    }

    /// A repeated index is refused by both entry points, wherever it sits.
    #[test]
    fn a_repeated_index_panics(g in 1usize..=70, seed in any::<u64>(), at in any::<usize>()) {
        let mut points = grid_subset(g, seed);
        let (dup, m) = (points[at % points.len()], points.len());
        points.insert(at / m % (m + 1), dup);
        let idxs: Vec<usize> = points.iter().map(|&(i, _)| i).collect();
        let refusals = [
            std::panic::catch_unwind(|| grid::interpolate_indices(&points, &mut Vec::new()).to_vec()),
            std::panic::catch_unwind(|| grid::lagrange_basis(&idxs)),
        ];
        for refusal in refusals {
            let payload = refusal.expect_err("a repeated index must panic");
            let msg = (payload.downcast_ref::<&str>().copied())
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            prop_assert_eq!(msg, Some("interpolation points must be distinct"));
        }
    }
}
