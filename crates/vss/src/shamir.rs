//! Plain Shamir secret sharing and share arithmetic.

use mediator_field::{Fp, Poly};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One Shamir share: the dealing polynomial evaluated at `x = index + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Share {
    /// The holder's player index (evaluation point is `index + 1`).
    pub index: usize,
    /// The value `poly(index + 1)`.
    pub value: Fp,
}

impl Share {
    /// The evaluation point of this share.
    pub fn x(&self) -> Fp {
        Fp::new(self.index as u64 + 1)
    }

    /// The `(x, y)` pair for interpolation.
    pub fn point(&self) -> (Fp, Fp) {
        (self.x(), self.value)
    }
}

/// Shares `secret` among `n` players with threshold degree `deg`
/// (any `deg + 1` shares reconstruct; any `deg` reveal nothing).
pub fn share_secret<R: Rng + ?Sized>(
    secret: Fp,
    deg: usize,
    n: usize,
    rng: &mut R,
) -> (Poly, Vec<Share>) {
    let poly = Poly::random_with_secret(secret, deg, rng);
    let shares = share_with_poly(&poly, n);
    (poly, shares)
}

/// Evaluates an existing dealing polynomial into share form.
pub fn share_with_poly(poly: &Poly, n: usize) -> Vec<Share> {
    (0..n)
        .map(|index| Share {
            index,
            value: poly.eval(Fp::new(index as u64 + 1)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_field::rs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn share_and_reconstruct() {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, shares) = share_secret(Fp::new(777), 2, 7, &mut rng);
        let pts: Vec<(Fp, Fp)> = shares.iter().map(Share::point).collect();
        let p = rs::interpolate_exact(&pts, 2).unwrap();
        assert_eq!(p.eval(Fp::ZERO), Fp::new(777));
    }

    #[test]
    fn deg_shares_reveal_nothing_statistically() {
        // Dealing polynomials for two different secrets produce identically
        // distributed share prefixes of length deg; spot-check that the same
        // RNG stream yields different share sets for different secrets (no
        // accidental determinism) while any deg shares are consistent with
        // *some* polynomial for either secret.
        let mut rng = StdRng::seed_from_u64(2);
        let (_, s1) = share_secret(Fp::new(1), 2, 5, &mut rng);
        let two = [s1[0].point(), s1[1].point()];
        // For any candidate secret, a degree-2 polynomial exists through
        // (0, secret) and the two observed shares.
        for cand in [0u64, 1, 99] {
            let mut pts = vec![(Fp::ZERO, Fp::new(cand))];
            pts.extend_from_slice(&two);
            let p = Poly::interpolate(&pts);
            assert_eq!(p.eval(Fp::ZERO), Fp::new(cand));
            assert!(p.degree().map_or(0, |d| d) <= 2);
        }
    }

    #[test]
    fn additive_homomorphism() {
        let mut rng = StdRng::seed_from_u64(3);
        let (_, a) = share_secret(Fp::new(10), 2, 6, &mut rng);
        let (_, b) = share_secret(Fp::new(32), 2, 6, &mut rng);
        let sum: Vec<Share> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| Share {
                index: x.index,
                value: x.value + y.value,
            })
            .collect();
        let pts: Vec<(Fp, Fp)> = sum.iter().map(Share::point).collect();
        let p = rs::interpolate_exact(&pts, 2).unwrap();
        assert_eq!(p.eval(Fp::ZERO), Fp::new(42));
    }

    #[test]
    fn share_points_start_at_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let (poly, shares) = share_secret(Fp::new(5), 1, 3, &mut rng);
        assert_eq!(shares[0].x(), Fp::new(1));
        assert_eq!(shares[2].x(), Fp::new(3));
        assert_eq!(shares[1].value, poly.eval(Fp::new(2)));
    }
}
