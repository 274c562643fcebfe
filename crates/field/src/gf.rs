//! The prime field `GF(p)` with `p = 2^61 - 1` (a Mersenne prime).
//!
//! The modulus is large enough that random linear-combination checks have
//! negligible collision probability (`< 2^-60`), and small enough that a
//! product of two elements fits in a `u128` with cheap Mersenne reduction.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The field modulus `p = 2^61 - 1`.
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of the prime field `GF(2^61 - 1)`.
///
/// The canonical representative is always kept in `0..MODULUS`.
///
/// # Example
///
/// ```
/// use mediator_field::Fp;
/// let a = Fp::new(5);
/// let b = Fp::new(7);
/// assert_eq!((a * b).as_u64(), 35);
/// assert_eq!((a - b) + b, a);
/// assert_eq!(a * a.inv().unwrap(), Fp::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Fp(u64);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Creates a field element, reducing `v` modulo `p`.
    ///
    /// Uses the same Mersenne fold as the multiplication path (`2^61 ≡ 1`,
    /// so high bits fold onto low bits) instead of a hardware division —
    /// `Fp::new` sits on share-grid loops (`x = 1..n`) all over the
    /// decoding kernel.
    #[inline]
    pub fn new(v: u64) -> Self {
        let r = (v & MODULUS) + (v >> 61);
        // r ≤ (2^61 - 1) + 7: one conditional subtraction canonicalises.
        Fp(if r >= MODULUS { r - MODULUS } else { r })
    }

    /// Creates a field element from a signed integer (negative values wrap).
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Fp::new(v as u64)
        } else {
            -Fp::new(v.unsigned_abs())
        }
    }

    /// Returns the canonical representative in `0..p`.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Mersenne reduction of a `u128` product into `0..p`.
    #[inline]
    fn reduce128(x: u128) -> u64 {
        // Split into low 61 bits and high bits; since 2^61 ≡ 1 (mod p),
        // x = hi*2^61 + lo ≡ hi + lo.
        let lo = (x & (MODULUS as u128)) as u64;
        let hi = x >> 61;
        let mut r = lo as u128 + hi;
        // One more fold covers the full u128 range.
        r = (r & MODULUS as u128) + (r >> 61);
        let mut r = r as u64;
        if r >= MODULUS {
            r -= MODULUS;
        }
        r
    }

    /// Fused `a·b − c·d` with a **single** Mersenne reduction.
    ///
    /// The row updates of Gaussian elimination (`pivot·mᵢⱼ − factor·pᵢⱼ`)
    /// are exactly this shape; fusing halves the reduction work on the
    /// decode kernel's innermost loop. `c·d` is subtracted by multiplying
    /// with the additive complement: both products are < 2¹²², so their
    /// sum fits a `u128` with room to spare.
    #[inline]
    pub fn mul_sub(a: Fp, b: Fp, c: Fp, d: Fp) -> Fp {
        // MODULUS − d.0 ≡ −d, and equals MODULUS when d = 0 — harmless,
        // since c·MODULUS ≡ 0.
        let t = a.0 as u128 * b.0 as u128 + c.0 as u128 * (MODULUS - d.0) as u128;
        Fp(Fp::reduce128(t))
    }

    /// Inner product `Σ aᵢ·bᵢ` with deferred reduction: products accumulate
    /// in a `u128` and fold only every 32 terms, so a length-`n` dot costs
    /// `n` multiplications and `⌈n/32⌉ + 1` reductions. Back-substitution
    /// and Horner-free evaluation sums are this shape.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(xs: &[Fp], ys: &[Fp]) -> Fp {
        assert_eq!(xs.len(), ys.len(), "dot-product length mismatch");
        let mut acc: u128 = 0;
        for (chunk_x, chunk_y) in xs.chunks(32).zip(ys.chunks(32)) {
            for (&x, &y) in chunk_x.iter().zip(chunk_y) {
                // Each term < 2¹²²; 32 of them < 2¹²⁷.
                acc += x.0 as u128 * y.0 as u128;
            }
            // Partial fold keeps the accumulator small for the next chunk.
            acc = (acc & ((1u128 << 61) - 1)) + (acc >> 61);
        }
        Fp(Fp::reduce128(acc))
    }

    /// Matrix–vector product `out[r] = Σ_b m[r·w + b]·v[b]` for a row-major
    /// matrix with rows of `w = v.len()` cells: [`Fp::dot`] per row, with
    /// the row length fixed at compile time for the widths share grids use
    /// (`w ≤ 8`), so each row is straight-line code against `v` held in
    /// registers.
    ///
    /// # Panics
    ///
    /// Panics unless `m.len() == out.len() · v.len()`.
    pub fn mat_vec(m: &[Fp], v: &[Fp], out: &mut [Fp]) {
        fn fixed<const W: usize>(m: &[Fp], v: &[Fp], out: &mut [Fp]) {
            let v: [Fp; W] = v.try_into().expect("width checked by the caller");
            for (row, o) in m.chunks_exact(W).zip(out) {
                // W ≤ 8 terms, each < 2¹²²: no intermediate fold needed.
                let acc: u128 = row
                    .iter()
                    .zip(&v)
                    .map(|(x, y)| x.0 as u128 * y.0 as u128)
                    .sum();
                *o = Fp(Fp::reduce128(acc));
            }
        }
        assert_eq!(m.len(), out.len() * v.len(), "mat_vec shape mismatch");
        match v.len() {
            0 => out.fill(Fp::ZERO),
            1 => fixed::<1>(m, v, out),
            2 => fixed::<2>(m, v, out),
            3 => fixed::<3>(m, v, out),
            4 => fixed::<4>(m, v, out),
            5 => fixed::<5>(m, v, out),
            6 => fixed::<6>(m, v, out),
            7 => fixed::<7>(m, v, out),
            8 => fixed::<8>(m, v, out),
            w => {
                for (row, o) in m.chunks_exact(w).zip(out) {
                    *o = Fp::dot(row, v);
                }
            }
        }
    }

    /// Raises `self` to the power `e` by square-and-multiply.
    pub fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Fp::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Returns the multiplicative inverse, or `None` for zero.
    ///
    /// Uses Fermat's little theorem (`a^(p-2)`) via a fixed addition chain
    /// exploiting the Mersenne exponent structure: `p − 2 = 2⁶¹ − 3` has
    /// binary form `1⁵⁹01`, so `a^(2^k − 1)` ladders (doubling the run of
    /// ones with one multiply per rung) reach it in ~70 multiplications
    /// instead of the ~120 of plain square-and-multiply. Constant-time-ish
    /// and no edge cases besides zero.
    pub fn inv(self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // e_k := a^(2^k − 1), built by e_{j+k} = e_j^(2^k) · e_k.
        let sq = |x: Fp, times: u32| {
            let mut r = x;
            for _ in 0..times {
                r *= r;
            }
            r
        };
        let a = self;
        let e2 = sq(a, 1) * a; // a^3
        let e4 = sq(e2, 2) * e2;
        let e8 = sq(e4, 4) * e4;
        let e16 = sq(e8, 8) * e8;
        let e32 = sq(e16, 16) * e16;
        let e48 = sq(e32, 16) * e16;
        let e56 = sq(e48, 8) * e8;
        let e58 = sq(e56, 2) * e2;
        let e59 = sq(e58, 1) * a;
        // p − 2 = (2^59 − 1)·4 + 1.
        Some(sq(e59, 2) * a)
    }

    /// Inverts a whole slice with Montgomery's trick: one field inversion
    /// plus `3(n-1)` multiplications, instead of one `p-2` exponentiation
    /// per element. Zeros map to zero (they have no inverse); nonzero
    /// entries satisfy `batch_inv(xs)[i] == xs[i].inv().unwrap()`.
    ///
    /// This is the workhorse behind the barycentric interpolation weights
    /// and the Gaussian-elimination pivots in [`crate::rs`].
    pub fn batch_inv(xs: &[Fp]) -> Vec<Fp> {
        let mut out = vec![Fp::ONE; xs.len()];
        Fp::batch_inv_into(xs, &mut out);
        out
    }

    /// In-place variant of [`Fp::batch_inv`] writing into a caller-owned
    /// buffer (must be the same length as `xs`); lets hot loops reuse the
    /// allocation.
    pub fn batch_inv_into(xs: &[Fp], out: &mut [Fp]) {
        assert_eq!(xs.len(), out.len(), "batch_inv buffer length mismatch");
        // Prefix products of the nonzero entries; zeros are skipped so one
        // bad share cannot poison the whole batch.
        let mut acc = Fp::ONE;
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = acc;
            if !x.is_zero() {
                acc *= x;
            }
        }
        // acc is a product of nonzero elements (or ONE), hence invertible.
        let mut inv = acc.inv().unwrap_or(Fp::ONE);
        for (o, &x) in out.iter_mut().zip(xs).rev() {
            if x.is_zero() {
                *o = Fp::ZERO;
            } else {
                *o *= inv;
                inv *= x;
            }
        }
    }

    /// Samples a uniformly random field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling over 61 bits keeps the distribution exactly
        // uniform (bias would otherwise be ~2^-61, but exactness is free).
        loop {
            let v = rng.gen::<u64>() & ((1u64 << 61) - 1);
            if v < MODULUS {
                return Fp(v);
            }
        }
    }

    /// Samples a uniformly random *nonzero* field element.
    pub fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let v = Self::random(rng);
            if !v.is_zero() {
                return v;
            }
        }
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Fp {
    fn from(v: u64) -> Self {
        Fp::new(v)
    }
}

impl From<u32> for Fp {
    fn from(v: u32) -> Self {
        Fp::new(v as u64)
    }
}

impl Add for Fp {
    type Output = Fp;
    #[inline]
    fn add(self, rhs: Fp) -> Fp {
        let mut s = self.0 + rhs.0; // < 2^62, no overflow
        if s >= MODULUS {
            s -= MODULUS;
        }
        Fp(s)
    }
}

impl Sub for Fp {
    type Output = Fp;
    #[inline]
    fn sub(self, rhs: Fp) -> Fp {
        let s = if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + MODULUS - rhs.0
        };
        Fp(s)
    }
}

impl Mul for Fp {
    type Output = Fp;
    #[inline]
    fn mul(self, rhs: Fp) -> Fp {
        Fp(Fp::reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl Div for Fp {
    type Output = Fp;
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // field division IS mul by inverse
    fn div(self, rhs: Fp) -> Fp {
        self * rhs.inv().expect("division by zero in GF(2^61-1)")
    }
}

impl Neg for Fp {
    type Output = Fp;
    #[inline]
    fn neg(self) -> Fp {
        if self.0 == 0 {
            self
        } else {
            Fp(MODULUS - self.0)
        }
    }
}

impl AddAssign for Fp {
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp {
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp {
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}
impl DivAssign for Fp {
    fn div_assign(&mut self, rhs: Fp) {
        *self = *self / rhs;
    }
}

impl Sum for Fp {
    fn sum<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ZERO, |a, b| a + b)
    }
}

impl Product for Fp {
    fn product<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modulus_is_mersenne_61() {
        assert_eq!(MODULUS, 2305843009213693951);
    }

    #[test]
    fn add_wraps_at_modulus() {
        assert_eq!(Fp::new(MODULUS - 1) + Fp::ONE, Fp::ZERO);
    }

    #[test]
    fn sub_wraps_below_zero() {
        assert_eq!(Fp::ZERO - Fp::ONE, Fp::new(MODULUS - 1));
    }

    #[test]
    fn new_reduces_large_values() {
        assert_eq!(Fp::new(MODULUS), Fp::ZERO);
        assert_eq!(Fp::new(MODULUS + 5), Fp::new(5));
        assert_eq!(Fp::new(u64::MAX), Fp::new(u64::MAX % MODULUS));
    }

    #[test]
    fn from_i64_handles_negatives() {
        assert_eq!(Fp::from_i64(-1), -Fp::ONE);
        assert_eq!(Fp::from_i64(-7) + Fp::new(7), Fp::ZERO);
        assert_eq!(Fp::from_i64(42), Fp::new(42));
    }

    #[test]
    fn mul_reduce_large_operands() {
        let a = Fp::new(MODULUS - 1); // = -1
        assert_eq!(a * a, Fp::ONE);
        let b = Fp::new(MODULUS - 2); // = -2
        assert_eq!(a * b, Fp::new(2));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Fp::new(12345);
        let mut acc = Fp::ONE;
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc *= a;
        }
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert!(Fp::ZERO.inv().is_none());
    }

    #[test]
    fn inverse_roundtrip_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let a = Fp::random_nonzero(&mut rng);
            assert_eq!(a * a.inv().unwrap(), Fp::ONE);
        }
    }

    #[test]
    fn neg_is_additive_inverse() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let a = Fp::random(&mut rng);
            assert_eq!(a + (-a), Fp::ZERO);
        }
    }

    #[test]
    fn division_matches_inverse() {
        let a = Fp::new(999);
        let b = Fp::new(13);
        assert_eq!(a / b * b, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Fp::ONE / Fp::ZERO;
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Fp::new(1), Fp::new(2), Fp::new(3)];
        assert_eq!(xs.iter().copied().sum::<Fp>(), Fp::new(6));
        assert_eq!(xs.iter().copied().product::<Fp>(), Fp::new(6));
    }

    #[test]
    fn random_is_in_range_and_deterministic() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let a = Fp::random(&mut r1);
            let b = Fp::random(&mut r2);
            assert_eq!(a, b);
            assert!(a.as_u64() < MODULUS);
        }
    }

    #[test]
    fn mul_sub_matches_separate_ops() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..200 {
            let (a, b, c, d) = (
                Fp::random(&mut rng),
                Fp::random(&mut rng),
                Fp::random(&mut rng),
                Fp::random(&mut rng),
            );
            assert_eq!(Fp::mul_sub(a, b, c, d), a * b - c * d);
        }
        assert_eq!(Fp::mul_sub(Fp::ONE, Fp::ONE, Fp::ZERO, Fp::ZERO), Fp::ONE);
        let big = Fp::new(MODULUS - 1);
        assert_eq!(Fp::mul_sub(big, big, big, big), Fp::ZERO);
    }

    #[test]
    fn dot_matches_naive_sum() {
        let mut rng = StdRng::seed_from_u64(32);
        for len in [0usize, 1, 31, 32, 33, 100] {
            let xs: Vec<Fp> = (0..len).map(|_| Fp::random(&mut rng)).collect();
            let ys: Vec<Fp> = (0..len).map(|_| Fp::random(&mut rng)).collect();
            let naive: Fp = xs.iter().zip(&ys).map(|(&x, &y)| x * y).sum();
            assert_eq!(Fp::dot(&xs, &ys), naive, "len {len}");
        }
    }

    #[test]
    fn mat_vec_is_dot_per_row() {
        // Every unrolled width, the generic one past them, and the
        // largest operands (the accumulator's worst case).
        let mut rng = StdRng::seed_from_u64(33);
        for w in 0..=10usize {
            let rows = 7;
            let mut m: Vec<Fp> = (0..rows * w).map(|_| Fp::random(&mut rng)).collect();
            let mut v: Vec<Fp> = (0..w).map(|_| Fp::random(&mut rng)).collect();
            for big in [false, true] {
                if big {
                    m.fill(Fp::new(MODULUS - 1));
                    v.fill(Fp::new(MODULUS - 1));
                }
                let mut out = vec![Fp::ONE; rows];
                Fp::mat_vec(&m, &v, &mut out);
                let want: Vec<Fp> = (0..rows)
                    .map(|r| Fp::dot(&m[r * w..(r + 1) * w], &v))
                    .collect();
                assert_eq!(out, want, "w {w} big {big}");
            }
        }
        Fp::mat_vec(&[], &[Fp::ONE], &mut []);
    }

    #[test]
    fn new_fold_matches_division_on_edges() {
        for v in [
            0u64,
            1,
            MODULUS - 1,
            MODULUS,
            MODULUS + 1,
            2 * MODULUS,
            2 * MODULUS + 3,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(Fp::new(v).as_u64(), v % MODULUS, "v={v}");
        }
    }

    #[test]
    fn batch_inv_matches_scalar_inv() {
        let mut rng = StdRng::seed_from_u64(21);
        let xs: Vec<Fp> = (0..50).map(|_| Fp::random_nonzero(&mut rng)).collect();
        let invs = Fp::batch_inv(&xs);
        for (x, i) in xs.iter().zip(&invs) {
            assert_eq!(*i, x.inv().unwrap());
        }
    }

    #[test]
    fn batch_inv_skips_zeros() {
        let xs = [Fp::new(2), Fp::ZERO, Fp::new(3), Fp::ZERO];
        let invs = Fp::batch_inv(&xs);
        assert_eq!(invs[0], Fp::new(2).inv().unwrap());
        assert_eq!(invs[1], Fp::ZERO);
        assert_eq!(invs[2], Fp::new(3).inv().unwrap());
        assert_eq!(invs[3], Fp::ZERO);
        assert!(Fp::batch_inv(&[]).is_empty());
        assert_eq!(Fp::batch_inv(&[Fp::ZERO]), vec![Fp::ZERO]);
    }

    #[test]
    fn fermat_little_theorem_sample() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let a = Fp::random_nonzero(&mut rng);
            assert_eq!(a.pow(MODULUS - 1), Fp::ONE);
        }
    }
}
