//! Barycentric Lagrange machinery for the **share grid** `x = 1..=n`.
//!
//! Every sharing in this workspace evaluates polynomials at the fixed
//! points `x_i = i + 1` (player `i`'s share), so interpolation almost never
//! sees arbitrary field elements — it sees small-integer grid indices. That
//! structure pays twice:
//!
//! * the barycentric denominators `d_i = ∏_{j≠i}(x_i − x_j)` are products
//!   of small integers, and for the *full* grid they collapse to the
//!   factorial formula `d_i = (−1)^{n−1−i} · i! · (n−1−i)!` — cached here
//!   per `n`, computed once per process instead of once per reconstruction
//!   (a fixed table of `OnceLock`s: the read path takes no lock);
//! * all inversions (one per weight) batch into a single field inversion
//!   via Montgomery's trick ([`Fp::batch_inv`]).
//!
//! [`interpolate_indices`] combines the weights with one master-polynomial
//! synthetic division per point: O(n²) multiplications and exactly one
//! field inversion for a full interpolation — the seed implementation
//! rebuilt each Lagrange basis polynomial from scratch (O(n³)) and paid an
//! exponentiation-inversion per point.

use crate::gf::Fp;
use crate::poly::Poly;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Grids up to this size get a process-wide table; share grids are the
/// player count, so anything larger is computed per call.
const CACHED_GRIDS: usize = 64;

/// What is precomputed once per grid size `n`.
struct GridTable {
    /// `weights[i] = 1 / ∏_{j≠i}(x_i − x_j)`.
    weights: Vec<Fp>,
    /// Row-major `n × n`: `powers[j·n + b] = x_j^b`.
    powers: Vec<Fp>,
}

impl GridTable {
    fn build(n: usize) -> Self {
        GridTable {
            weights: compute_full_grid_weights(n),
            powers: compute_point_powers(n),
        }
    }
}

/// The table for grid size `n`, or `None` above [`CACHED_GRIDS`]. Reads
/// after the first are one atomic load: no lock, no reference count, so
/// the worker threads of a batch never meet here.
fn table(n: usize) -> Option<&'static GridTable> {
    static TABLES: [OnceLock<GridTable>; CACHED_GRIDS + 1] =
        [const { OnceLock::new() }; CACHED_GRIDS + 1];
    TABLES
        .get(n)
        .map(|slot| slot.get_or_init(|| GridTable::build(n)))
}

fn compute_full_grid_weights(n: usize) -> Vec<Fp> {
    // d_i = (−1)^{n−1−i} · i! · (n−1−i)!  (0-indexed i, x_i = i+1).
    let mut fact = vec![Fp::ONE; n.max(1)];
    for i in 1..n {
        fact[i] = fact[i - 1] * Fp::new(i as u64);
    }
    let denoms: Vec<Fp> = (0..n)
        .map(|i| {
            let d = fact[i] * fact[n - 1 - i];
            if (n - 1 - i) % 2 == 1 {
                -d
            } else {
                d
            }
        })
        .collect();
    Fp::batch_inv(&denoms)
}

fn compute_point_powers(n: usize) -> Vec<Fp> {
    let mut powers = Vec::with_capacity(n * n);
    for j in 0..n {
        let x = Fp::new(j as u64 + 1);
        let mut xp = Fp::ONE;
        for _ in 0..n {
            powers.push(xp);
            xp *= x;
        }
    }
    powers
}

/// Inverted barycentric denominators for the **full** grid `x = 1..=n`,
/// cached per `n`: `weights[i] = 1 / ∏_{j≠i}(x_i − x_j)` with
/// `x_i = i + 1`.
pub fn full_grid_weights(n: usize) -> Cow<'static, [Fp]> {
    match table(n) {
        Some(t) => Cow::Borrowed(t.weights.as_slice()),
        None => Cow::Owned(compute_full_grid_weights(n)),
    }
}

/// Powers of the share points of the grid `x = 1..=n`, cached per `n`:
/// row-major `n × n` with `powers[j·n + b] = x_j^b` for `x_j = j + 1`.
/// The prefix `[j·n ..= j·n + deg]` of row `j` is the evaluation plan of
/// any degree-`deg` polynomial at player `j`'s point: a value is one
/// [`Fp::dot`] against the coefficients, with no dependent multiply chain.
pub fn point_powers(n: usize) -> Cow<'static, [Fp]> {
    match table(n) {
        Some(t) => Cow::Borrowed(t.powers.as_slice()),
        None => Cow::Owned(compute_point_powers(n)),
    }
}

/// The Lagrange basis over the share points `idxs`, in coefficient form and
/// transposed for column-batched interpolation: row-major `m × m`
/// (`m = idxs.len()`) with `basis[b·m + a]` the coefficient of `x^b` in
/// `L_a`, where `L_a(x_c) = δ_ac`. The polynomial through `(x_a, y_a)` has
/// `x^b` coefficient `Fp::dot(&basis[b·m..(b+1)·m], ys)`, so one basis
/// serves every value vector over the same points.
///
/// # Panics
///
/// Panics if two indices coincide.
pub fn lagrange_basis(idxs: &[usize]) -> Vec<Fp> {
    let m = idxs.len();
    let mut points: Vec<(usize, Fp)> = idxs.iter().map(|&i| (i, Fp::ZERO)).collect();
    let (mut basis, mut scratch) = (vec![Fp::ZERO; m * m], Vec::new());
    for a in 0..m {
        // L_a interpolates the a-th unit vector.
        points[a].1 = Fp::ONE;
        for (b, &c) in interpolate_indices(&points, &mut scratch)
            .iter()
            .enumerate()
        {
            basis[b * m + a] = c;
        }
        points[a].1 = Fp::ZERO;
    }
    basis
}

/// Interpolates the unique polynomial of degree `< points.len()` through
/// the share points `(i + 1, y)` for each `(i, y)` of `points`, on a
/// caller-owned buffer: returns its low-to-high coefficients, which are
/// the prefix of `scratch`. The rest of `scratch` is working space
/// (weights, master polynomial, basis), grown as needed, so a caller that
/// keeps it — online error correction does — interpolates without
/// allocating. The full grid `0, 1, …` uses the cached weights.
///
/// # Panics
///
/// Panics if two indices coincide.
pub fn interpolate_indices<'a>(points: &[(usize, Fp)], scratch: &'a mut Vec<Fp>) -> &'a [Fp] {
    let m = points.len();
    scratch.clear();
    scratch.resize(5 * m + 1, Fp::ZERO);
    let (work, rest) = scratch.split_at_mut(2 * m);
    let (master, rest) = rest.split_at_mut(m + 1);
    let (denoms, subset_weights) = rest.split_at_mut(m);
    let x_of = |i: usize| Fp::new(points[i].0 as u64 + 1);
    let cached;
    let weights: &[Fp] = if points.iter().enumerate().all(|(a, &(i, _))| i == a) {
        cached = full_grid_weights(m);
        &cached
    } else {
        // d_a = ∏_{b≠a}(x_a − x_b); a duplicated point zeroes one.
        for (a, d) in denoms.iter_mut().enumerate() {
            *d = (0..m)
                .filter(|&b| b != a)
                .map(|b| x_of(a) - x_of(b))
                .product();
        }
        assert!(
            denoms.iter().all(|d| !d.is_zero()),
            "interpolation points must be distinct"
        );
        Fp::batch_inv_into(denoms, subset_weights);
        subset_weights
    };
    Poly::master_coeffs(x_of, master);
    Poly::interpolate_with_master(master, x_of, |i| points[i].1, weights, work);
    &scratch[..m]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`interpolate_indices`] through `(idxs[i] + 1, ys[i])`, as a
    /// polynomial.
    fn interp(idxs: &[usize], ys: &[Fp]) -> Poly {
        let points: Vec<(usize, Fp)> = idxs.iter().copied().zip(ys.iter().copied()).collect();
        Poly::from_coeffs(interpolate_indices(&points, &mut Vec::new()).to_vec())
    }

    #[test]
    fn full_grid_weights_match_direct_products() {
        for n in 1..10usize {
            let w = full_grid_weights(n);
            for i in 0..n {
                let mut d = Fp::ONE;
                for j in 0..n {
                    if j != i {
                        d *= Fp::from_i64(i as i64 - j as i64);
                    }
                }
                assert_eq!(w[i], d.inv().unwrap(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn interpolate_indices_matches_generic_interpolation() {
        let mut rng = StdRng::seed_from_u64(3);
        for deg in 0..8usize {
            let p = Poly::random_with_secret(Fp::new(99), deg, &mut rng);
            // Non-contiguous subset of the grid.
            let idxs: Vec<usize> = (0..=deg).map(|i| i * 2 + 1).collect();
            let ys: Vec<Fp> = idxs
                .iter()
                .map(|&i| p.eval(Fp::new(i as u64 + 1)))
                .collect();
            let q = interp(&idxs, &ys);
            assert_eq!(p, q, "deg {deg}");
            // Contiguous prefix (cached path).
            let idxs: Vec<usize> = (0..=deg).collect();
            let ys: Vec<Fp> = idxs
                .iter()
                .map(|&i| p.eval(Fp::new(i as u64 + 1)))
                .collect();
            assert_eq!(interp(&idxs, &ys), p, "deg {deg} contiguous");
        }
    }

    #[test]
    fn point_powers_are_powers_of_the_share_points() {
        // One cached size and one past the cache: same values either way.
        for n in [1usize, 5, 13, CACHED_GRIDS + 3] {
            let p = point_powers(n);
            assert_eq!(p.len(), n * n);
            for j in 0..n {
                for b in 0..n {
                    assert_eq!(p[j * n + b], Fp::new(j as u64 + 1).pow(b as u64));
                }
            }
            assert_eq!(
                full_grid_weights(n),
                Cow::<[Fp]>::Owned(compute_full_grid_weights(n))
            );
        }
    }

    #[test]
    fn lagrange_basis_interpolates_every_value_vector() {
        let mut rng = StdRng::seed_from_u64(4);
        for idxs in [vec![0usize, 1, 2, 3], vec![1, 4, 5, 9, 12], vec![7]] {
            let m = idxs.len();
            let basis = lagrange_basis(&idxs);
            let ys: Vec<Fp> = (0..m).map(|_| Fp::random(&mut rng)).collect();
            let coeffs: Vec<Fp> = (0..m)
                .map(|b| Fp::dot(&basis[b * m..(b + 1) * m], &ys))
                .collect();
            assert_eq!(Poly::from_coeffs(coeffs), interp(&idxs, &ys));
        }
        assert!(lagrange_basis(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_indices_rejected() {
        let _ = interp(&[1, 3, 1], &[Fp::ONE; 3]);
    }

    #[test]
    fn empty_interpolation_is_zero() {
        assert!(interp(&[], &[]).is_zero());
    }
}
