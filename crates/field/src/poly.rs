//! Dense univariate polynomials over [`Fp`].
//!
//! Provides the operations the sharing and decoding layers need: evaluation,
//! Lagrange interpolation, Euclidean division, and multiplication. Degrees in
//! this codebase are tiny (at most a few hundred), so the quadratic algorithms
//! are the right choice — no FFT.

use crate::gf::Fp;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense univariate polynomial `c0 + c1 x + c2 x^2 + ...` over `GF(2^61-1)`.
///
/// The invariant is that the leading coefficient is nonzero (the zero
/// polynomial is represented by an empty coefficient vector).
///
/// # Example
///
/// ```
/// use mediator_field::{Fp, Poly};
/// let p = Poly::from_coeffs(vec![Fp::new(1), Fp::new(2)]); // 1 + 2x
/// assert_eq!(p.eval(Fp::new(10)), Fp::new(21));
/// assert_eq!(p.degree(), Some(1));
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Poly {
    coeffs: Vec<Fp>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Fp) -> Self {
        Poly::from_coeffs(vec![c])
    }

    /// Builds a polynomial from low-to-high coefficients, trimming leading zeros.
    pub fn from_coeffs(coeffs: Vec<Fp>) -> Self {
        let mut p = Poly { coeffs };
        p.trim();
        p
    }

    /// Samples a uniformly random polynomial of degree at most `deg` whose
    /// constant term is `secret` — the Shamir dealing polynomial.
    pub fn random_with_secret<R: Rng + ?Sized>(secret: Fp, deg: usize, rng: &mut R) -> Self {
        let mut coeffs = Vec::with_capacity(deg + 1);
        coeffs.push(secret);
        for _ in 0..deg {
            coeffs.push(Fp::random(rng));
        }
        Poly::from_coeffs(coeffs)
    }

    fn trim(&mut self) {
        while self.coeffs.last().is_some_and(|c| c.is_zero()) {
            self.coeffs.pop();
        }
    }

    /// The coefficients, low-to-high (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[Fp] {
        &self.coeffs
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn eval(&self, x: Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Evaluates at the points `1, 2, ..., n` — the standard share vector.
    pub fn eval_shares(&self, n: usize) -> Vec<Fp> {
        (1..=n as u64).map(|i| self.eval(Fp::new(i))).collect()
    }

    /// Lagrange interpolation through `(x_i, y_i)` pairs with distinct `x_i`.
    ///
    /// O(n²) multiplications and a *single* field inversion: the master
    /// polynomial `M(x) = ∏(x − x_i)` is built once, each Lagrange basis
    /// falls out of it by synthetic division, the denominators are `M'`
    /// evaluations, and their inverses batch via Montgomery's trick. (The
    /// seed rebuilt every basis from its linear factors — O(n³) — and paid
    /// one exponentiation-inversion per point.) For share-grid points,
    /// [`crate::grid::interpolate_indices`] is faster still: its weights
    /// are cached.
    ///
    /// # Panics
    ///
    /// Panics if two `x_i` coincide.
    pub fn interpolate(points: &[(Fp, Fp)]) -> Self {
        let n = points.len();
        if n == 0 {
            return Poly::zero();
        }
        let x_of = |i: usize| points[i].0;
        let mut master = vec![Fp::ZERO; n + 1];
        Poly::master_coeffs(x_of, &mut master);
        // Denominators d_i = ∏_{j≠i}(x_i − x_j) = M'(x_i); a duplicated
        // point is a double root of M, making its derivative vanish there.
        let deriv = Poly::from_coeffs(
            (0..n)
                .map(|j| Fp::new(j as u64 + 1) * master[j + 1])
                .collect(),
        );
        let denoms: Vec<Fp> = points.iter().map(|&(x, _)| deriv.eval(x)).collect();
        assert!(
            denoms.iter().all(|d| !d.is_zero()),
            "interpolation points must be distinct"
        );
        let weights = Fp::batch_inv(&denoms);
        let mut work = vec![Fp::ZERO; 2 * n];
        Poly::interpolate_with_master(&master, x_of, |i| points[i].1, &weights, &mut work);
        work.truncate(n);
        Poly::from_coeffs(work)
    }

    /// Writes the master polynomial `M(x) = ∏ (x − x_i)` over the
    /// `master.len() − 1` points given by `x_of` into `master`, low-to-high
    /// coefficients (shared by [`Poly::interpolate`] and the grid kernel).
    pub(crate) fn master_coeffs(x_of: impl Fn(usize) -> Fp, master: &mut [Fp]) {
        let n = master.len() - 1;
        master.fill(Fp::ZERO);
        master[0] = Fp::ONE;
        for k in 0..n {
            let xi = x_of(k);
            master[k + 1] = master[k];
            for j in (1..=k).rev() {
                master[j] = master[j - 1] - xi * master[j];
            }
            master[0] = -(xi * master[0]);
        }
    }

    /// The shared interpolation core: given the master polynomial over the
    /// points and the inverted barycentric denominators (`weights`),
    /// accumulates `Σ (y_i · w_i) · M(x)/(x − x_i)` into the first half of
    /// `work` (`2n` long, caller-owned) with one synthetic division per
    /// point. Both [`Poly::interpolate`] (derivative-based weights) and
    /// [`crate::grid::interpolate_indices`] (cached grid weights) bottom
    /// out here.
    pub(crate) fn interpolate_with_master(
        master: &[Fp],
        x_of: impl Fn(usize) -> Fp,
        y_of: impl Fn(usize) -> Fp,
        weights: &[Fp],
        work: &mut [Fp],
    ) {
        let n = weights.len();
        debug_assert_eq!(master.len(), n + 1);
        let (acc, basis) = work.split_at_mut(n);
        acc.fill(Fp::ZERO);
        for (i, &w) in weights.iter().enumerate() {
            let scale = y_of(i) * w;
            if scale.is_zero() {
                continue;
            }
            let xi = x_of(i);
            let mut carry = master[n];
            for j in (0..n).rev() {
                basis[j] = carry;
                carry = master[j] + xi * carry;
            }
            debug_assert!(carry.is_zero(), "x_i must be a root of the master poly");
            for (a, &b) in acc.iter_mut().zip(basis.iter()) {
                *a += b * scale;
            }
        }
    }

    /// Multiplies every coefficient by `s`.
    pub fn scale(&self, s: Fp) -> Self {
        Poly::from_coeffs(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = q * divisor + r` and `deg r < deg divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let dd = divisor.coeffs.len();
        if self.coeffs.len() < dd {
            return (Poly::zero(), self.clone());
        }
        // Monic divisors (the common case: Berlekamp–Welch error locators)
        // skip the leading-coefficient inversion entirely.
        let lead = divisor.coeffs[dd - 1];
        let lead_inv = if lead == Fp::ONE {
            Fp::ONE
        } else {
            lead.inv().expect("leading coeff nonzero")
        };
        let mut rem = self.coeffs.clone();
        let qlen = rem.len() - dd + 1;
        let mut quot = vec![Fp::ZERO; qlen];
        for k in (0..qlen).rev() {
            let coef = rem[k + dd - 1] * lead_inv;
            quot[k] = coef;
            if coef.is_zero() {
                continue;
            }
            for (j, &dc) in divisor.coeffs.iter().enumerate() {
                rem[k + j] -= coef * dc;
            }
        }
        rem.truncate(dd - 1);
        (Poly::from_coeffs(quot), Poly::from_coeffs(rem))
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "Poly(0)");
        }
        write!(f, "Poly(")?;
        for (i, c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                write!(f, " + {c}·x^{i}")?;
            } else {
                write!(f, "{c}")?;
            }
        }
        write!(f, ")")
    }
}

impl Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![Fp::ZERO; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in rhs.coeffs.iter().enumerate() {
            out[i] += c;
        }
        Poly::from_coeffs(out)
    }
}

impl Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![Fp::ZERO; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in rhs.coeffs.iter().enumerate() {
            out[i] -= c;
        }
        Poly::from_coeffs(out)
    }
}

impl Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![Fp::ZERO; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::from_coeffs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn poly(cs: &[u64]) -> Poly {
        Poly::from_coeffs(cs.iter().map(|&c| Fp::new(c)).collect())
    }

    #[test]
    fn zero_polynomial_basics() {
        let z = Poly::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert_eq!(z.eval(Fp::new(99)), Fp::ZERO);
    }

    #[test]
    fn trim_removes_leading_zeros() {
        let p = Poly::from_coeffs(vec![Fp::new(1), Fp::ZERO, Fp::ZERO]);
        assert_eq!(p.degree(), Some(0));
    }

    #[test]
    fn eval_horner_quadratic() {
        let p = poly(&[3, 2, 1]); // 3 + 2x + x^2
        assert_eq!(p.eval(Fp::new(2)), Fp::new(11));
    }

    #[test]
    fn eval_shares_uses_points_1_to_n() {
        let p = poly(&[5, 1]); // 5 + x
        assert_eq!(p.eval_shares(3), vec![Fp::new(6), Fp::new(7), Fp::new(8)]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = poly(&[1, 2, 3]);
        let b = poly(&[7, 0, 0, 9]);
        let s = &a + &b;
        assert_eq!(&s - &b, a);
    }

    #[test]
    fn mul_matches_known_product() {
        // (1 + x)(1 - x) = 1 - x^2
        let a = poly(&[1, 1]);
        let b = Poly::from_coeffs(vec![Fp::ONE, -Fp::ONE]);
        let prod = &a * &b;
        assert_eq!(prod, Poly::from_coeffs(vec![Fp::ONE, Fp::ZERO, -Fp::ONE]));
    }

    #[test]
    fn interpolate_recovers_polynomial() {
        let mut rng = StdRng::seed_from_u64(1);
        for deg in 0..8usize {
            let p = Poly::random_with_secret(Fp::new(777), deg, &mut rng);
            let pts: Vec<(Fp, Fp)> = (1..=deg as u64 + 1)
                .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
                .collect();
            let q = Poly::interpolate(&pts);
            assert_eq!(p, q, "degree {deg}");
        }
    }

    #[test]
    fn interpolate_constant_term_is_secret() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = Poly::random_with_secret(Fp::new(424242), 3, &mut rng);
        let pts: Vec<(Fp, Fp)> = (1..=4u64)
            .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
            .collect();
        let q = Poly::interpolate(&pts);
        assert_eq!(q.eval(Fp::ZERO), Fp::new(424242));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn interpolate_rejects_duplicate_points() {
        let pts = vec![(Fp::new(1), Fp::new(2)), (Fp::new(1), Fp::new(3))];
        let _ = Poly::interpolate(&pts);
    }

    #[test]
    fn div_rem_reconstructs() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = Poly::random_with_secret(Fp::random(&mut rng), 7, &mut rng);
            let b = Poly::random_with_secret(Fp::random(&mut rng), 3, &mut rng);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b);
            let back = &(&q * &b) + &r;
            assert_eq!(back, a);
            assert!(r.degree().is_none_or(|d| d < b.degree().unwrap()));
        }
    }

    #[test]
    fn div_rem_smaller_dividend() {
        let a = poly(&[1]);
        let b = poly(&[0, 0, 1]);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn random_with_secret_has_requested_secret() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = Poly::random_with_secret(Fp::new(31337), 5, &mut rng);
        assert_eq!(p.eval(Fp::ZERO), Fp::new(31337));
    }

    #[test]
    fn scale_multiplies_evaluations() {
        let p = poly(&[1, 2, 3]);
        let s = Fp::new(9);
        let q = p.scale(s);
        for x in 0..5u64 {
            assert_eq!(q.eval(Fp::new(x)), p.eval(Fp::new(x)) * s);
        }
    }
}
