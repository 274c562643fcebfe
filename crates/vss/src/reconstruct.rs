//! Online error correction (OEC): incremental robust reconstruction.
//!
//! In an asynchronous network a reconstructor cannot wait for all `n`
//! shares — `f` senders may be silent forever. BCG's online error
//! correction accepts as soon as some degree-`deg` polynomial agrees with
//! `deg + f + 1` of the points received so far: at most `f` of those are
//! corrupt, so at least `deg + 1` honest points agree, pinning the honest
//! polynomial. Liveness: once all `n − f` honest shares arrive, a decode
//! correcting up to `f` errors succeeds provided `n − f ≥ deg + f + 1`,
//! i.e. **`n ≥ deg + 2f + 1`** — with `deg = 2f` (product openings) this is
//! the `n ≥ 4f + 1` of Theorem 4.1.

use mediator_field::{grid, rs, Fp, Poly};

/// Incremental robust reconstruction of one shared value.
///
/// The points received are kept sorted by sender, and every acceptance
/// attempt interpolates in one reused scratch buffer; once accepted, only
/// the polynomial and the secret are kept.
#[derive(Debug, Clone)]
pub struct OecState {
    deg: usize,
    f: usize,
    /// `(sender, share)` for each sender heard from, by ascending sender.
    points: Vec<(usize, Fp)>,
    scratch: Vec<Fp>,
    decoded: Option<(Poly, Fp)>,
}

impl OecState {
    /// Creates a reconstructor for a degree-`deg` sharing tolerating up to
    /// `f` corrupted shares.
    pub fn new(deg: usize, f: usize) -> Self {
        OecState {
            deg,
            f,
            points: Vec::with_capacity(deg + f + 1),
            scratch: Vec::new(),
            decoded: None,
        }
    }

    /// The reconstructed secret, if accepted already.
    pub fn secret(&self) -> Option<Fp> {
        self.decoded.as_ref().map(|(_, s)| *s)
    }

    /// The full decoded polynomial, if accepted already.
    pub fn polynomial(&self) -> Option<&Poly> {
        self.decoded.as_ref().map(|(p, _)| p)
    }

    /// Adds the share of player `index` (point `x = index+1`) and retries
    /// acceptance. Returns the secret when first accepted. Duplicate senders
    /// keep their first value (equivocation to the same reconstructor is
    /// pointless and ignored).
    pub fn add_share(&mut self, index: usize, value: Fp) -> Option<Fp> {
        if self.decoded.is_some() {
            return None;
        }
        // A repeated sender adds no point, so the attempt would fail again.
        let at = self
            .points
            .binary_search_by_key(&index, |&(i, _)| i)
            .err()?;
        self.points.insert(at, (index, value));
        let s = self.try_accept()?;
        (self.points, self.scratch) = (Vec::new(), Vec::new());
        Some(s)
    }

    fn try_accept(&mut self) -> Option<Fp> {
        let (m, deg) = (self.points.len(), self.deg);
        if m < deg + self.f + 1 {
            return None;
        }
        // Try error counts small to large; accept iff the candidate agrees
        // with ≥ deg + f + 1 received points. The exact path (e = 0) runs on
        // the cached-weight grid kernel, where clean shares accept.
        let coeffs = grid::interpolate_indices(&self.points[..=deg], &mut self.scratch);
        let on_curve = |&(i, y): &(usize, Fp)| {
            let x = Fp::new(i as u64 + 1);
            coeffs.iter().rev().fold(Fp::ZERO, |acc, &c| acc * x + c) == y
        };
        if self.points[deg + 1..].iter().all(on_curve) {
            // The coefficients are the scratch's prefix: it becomes the
            // polynomial.
            let mut coeffs = std::mem::take(&mut self.scratch);
            coeffs.truncate(deg + 1);
            return Some(self.accept(Poly::from_coeffs(coeffs)));
        }
        let max_e = ((m - (deg + 1)) / 2).min(self.f);
        if max_e == 0 {
            return None;
        }
        let pts: Vec<(Fp, Fp)> = (self.points.iter())
            .map(|&(i, y)| (Fp::new(i as u64 + 1), y))
            .collect();
        let agrees = |(_, bad): &(Poly, Vec<usize>)| m - bad.len() > deg + self.f;
        let decoded = (1..=max_e).find_map(|e| rs::decode_robust(&pts, deg, e).ok().filter(agrees));
        Some(self.accept(decoded?.0))
    }

    fn accept(&mut self, poly: Poly) -> Fp {
        let s = poly.eval(Fp::ZERO);
        self.decoded = Some((poly, s));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shamir::share_secret;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn accepts_with_exactly_deg_plus_f_plus_one_honest_points() {
        let mut rng = StdRng::seed_from_u64(1);
        let deg = 2;
        let f = 1;
        let (_, shares) = share_secret(Fp::new(55), deg, 7, &mut rng);
        let mut oec = OecState::new(deg, f);
        // deg + f + 1 = 4 points needed.
        assert!(oec.add_share(0, shares[0].value).is_none());
        assert!(oec.add_share(1, shares[1].value).is_none());
        assert!(oec.add_share(2, shares[2].value).is_none());
        assert_eq!(oec.add_share(3, shares[3].value), Some(Fp::new(55)));
        assert_eq!(oec.secret(), Some(Fp::new(55)));
    }

    #[test]
    fn corrects_f_lies_once_enough_points_arrive() {
        let mut rng = StdRng::seed_from_u64(2);
        let deg = 2;
        let f = 2;
        let n = deg + 2 * f + 1; // 7
        let (_, shares) = share_secret(Fp::new(99), deg, n, &mut rng);
        let mut oec = OecState::new(deg, f);
        // Two liars first.
        assert!(oec.add_share(0, Fp::new(123)).is_none());
        assert!(oec.add_share(1, Fp::new(456)).is_none());
        // Honest shares follow; must accept despite the lies, and must never
        // accept a wrong value on the way.
        let mut got = None;
        for s in shares.iter().skip(2) {
            if let Some(v) = oec.add_share(s.index, s.value) {
                got = Some(v);
            }
        }
        assert_eq!(got, Some(Fp::new(99)));
    }

    #[test]
    fn never_accepts_wrong_value_with_at_most_f_lies() {
        // Adversarial order: lies early, truth late, random corruption
        // patterns. Acceptance must always yield the true secret.
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..50 {
            let deg = 2;
            let f = 2;
            let n = 9;
            let secret = Fp::random(&mut rng);
            let (_, shares) = share_secret(secret, deg, n, &mut rng);
            let mut order: Vec<usize> = (0..n).collect();
            for i in 0..n {
                let j = rng.gen_range(i..n);
                order.swap(i, j);
            }
            let liars: Vec<usize> = order[..f].to_vec();
            let mut oec = OecState::new(deg, f);
            for &i in &order {
                let v = if liars.contains(&i) {
                    Fp::random(&mut rng)
                } else {
                    shares[i].value
                };
                if let Some(got) = oec.add_share(i, v) {
                    assert_eq!(got, secret, "trial {trial}");
                }
            }
            assert_eq!(oec.secret(), Some(secret), "trial {trial} must terminate");
        }
    }

    #[test]
    fn silent_f_does_not_block_liveness_at_threshold_n() {
        // n = deg + 2f + 1, f silent, f liars among the senders is impossible
        // (only n − f send) — check the pure-silence case.
        let mut rng = StdRng::seed_from_u64(4);
        let deg = 4; // 2f with f=2
        let f = 2;
        let n = deg + 2 * f + 1; // 9 = 4f+1
        let (_, shares) = share_secret(Fp::new(7), deg, n, &mut rng);
        let mut oec = OecState::new(deg, f);
        let mut got = None;
        for s in shares.iter().take(n - f) {
            if let Some(v) = oec.add_share(s.index, s.value) {
                got = Some(v);
            }
        }
        assert_eq!(got, Some(Fp::new(7)), "n−f honest points must suffice");
    }

    #[test]
    fn below_threshold_sharpness_deg2f_at_n_4f() {
        // With n = 4f (one below threshold), f silent + the rest honest gives
        // only deg + f points: OEC must (correctly) never accept — why the
        // builder rejects Theorem 4.1 below its bound.
        let mut rng = StdRng::seed_from_u64(5);
        let f = 1;
        let deg = 2 * f;
        let n = 4 * f; // 4
        let (_, shares) = share_secret(Fp::new(7), deg, n, &mut rng);
        let mut oec = OecState::new(deg, f);
        for s in shares.iter().take(n - f) {
            assert!(oec.add_share(s.index, s.value).is_none());
        }
        assert_eq!(oec.secret(), None);
    }

    #[test]
    fn duplicate_senders_do_not_help() {
        let mut rng = StdRng::seed_from_u64(6);
        let (_, shares) = share_secret(Fp::new(3), 1, 5, &mut rng);
        let mut oec = OecState::new(1, 1);
        assert!(oec.add_share(0, shares[0].value).is_none());
        assert!(oec.add_share(0, shares[0].value).is_none());
        assert!(
            oec.add_share(0, Fp::new(9)).is_none(),
            "second value ignored"
        );
        assert!(oec.add_share(1, shares[1].value).is_none());
        // deg + f + 1 = 3 distinct senders needed.
        assert_eq!(oec.add_share(2, shares[2].value), Some(Fp::new(3)));
    }

    #[test]
    fn zero_f_is_plain_interpolation() {
        let mut rng = StdRng::seed_from_u64(7);
        let (_, shares) = share_secret(Fp::new(11), 2, 3, &mut rng);
        let mut oec = OecState::new(2, 0);
        assert!(oec.add_share(0, shares[0].value).is_none());
        assert!(oec.add_share(1, shares[1].value).is_none());
        assert_eq!(oec.add_share(2, shares[2].value), Some(Fp::new(11)));
    }
}
