//! Reed–Solomon encoding and Berlekamp–Welch robust decoding.
//!
//! Robust decoding is the primitive behind every resilience threshold in the
//! paper: reconstructing a degree-`d` polynomial from `n` claimed evaluations
//! of which up to `e` may be adversarial requires `n ≥ d + 2e + 1`. In the
//! cheap-talk protocol of Theorem 4.1 the output wire is shared at degree
//! `2(k+t)` and up to `k+t` shares may lie, which is exactly where
//! `n > 4(k+t)` comes from.
//!
//! Performance: one decode may attempt several error-locator degrees `e`,
//! and each attempt solves an `n × (deg+2e+2)` linear system. The solver
//! works in a **flat row-major scratch matrix** allocated once per decode
//! and refilled per attempt (the seed allocated a fresh `Vec<Vec<Fp>>`
//! per attempt), runs forward elimination with cross-multiplied row
//! updates — no per-pivot inversion — and back-substitutes with all pivot
//! inverses obtained in a *single* batched inversion ([`Fp::batch_inv`]).

use crate::gf::Fp;
use crate::poly::Poly;
use std::fmt;

/// Errors produced by [`decode_robust`] / [`interpolate_exact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsError {
    /// Fewer evaluation points than the information-theoretic minimum.
    NotEnoughPoints { have: usize, need: usize },
    /// No polynomial of the requested degree is consistent with the points
    /// under the claimed error bound (decoding ambiguity or > e corruptions).
    DecodingFailed,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::NotEnoughPoints { have, need } => {
                write!(f, "not enough evaluation points: have {have}, need {need}")
            }
            RsError::DecodingFailed => {
                write!(f, "robust decoding failed (too many corrupted shares)")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// Encodes `poly` at points `1..=n` (the share vector convention).
pub fn encode(poly: &Poly, n: usize) -> Vec<Fp> {
    poly.eval_shares(n)
}

/// Exact interpolation: requires all points to be consistent with a single
/// polynomial of degree ≤ `deg`, otherwise fails.
///
/// This is the *crash-tolerant* reconstruction used by the ε-protocols: no
/// lies are corrected, they are only detected.
///
/// # Errors
///
/// [`RsError::NotEnoughPoints`] if fewer than `deg + 1` points are given;
/// [`RsError::DecodingFailed`] if the points are inconsistent.
pub fn interpolate_exact(points: &[(Fp, Fp)], deg: usize) -> Result<Poly, RsError> {
    if points.len() < deg + 1 {
        return Err(RsError::NotEnoughPoints {
            have: points.len(),
            need: deg + 1,
        });
    }
    let p = Poly::interpolate(&points[..deg + 1]);
    if p.degree().map_or(0, |d| d) > deg {
        return Err(RsError::DecodingFailed);
    }
    for &(x, y) in &points[deg + 1..] {
        if p.eval(x) != y {
            return Err(RsError::DecodingFailed);
        }
    }
    Ok(p)
}

/// Berlekamp–Welch robust decoding.
///
/// Given `n` claimed evaluations `(x_i, y_i)` of a degree-≤`deg` polynomial
/// of which at most `max_errors` are wrong, recovers the polynomial provided
/// `n ≥ deg + 2·max_errors + 1`. Returns the decoded polynomial together with
/// the indices (into `points`) of the corrupted shares.
///
/// # Errors
///
/// [`RsError::NotEnoughPoints`] if `n < deg + 2·max_errors + 1`;
/// [`RsError::DecodingFailed`] if more than `max_errors` points are corrupt.
///
/// # Example
///
/// ```
/// use mediator_field::{Fp, Poly, rs};
/// let p = Poly::from_coeffs(vec![Fp::new(9), Fp::new(4)]); // 9 + 4x, deg 1
/// let mut pts: Vec<(Fp, Fp)> = (1..=5u64).map(|i| (Fp::new(i), p.eval(Fp::new(i)))).collect();
/// pts[2].1 = Fp::new(123456); // one corruption
/// let (q, bad) = rs::decode_robust(&pts, 1, 1).unwrap();
/// assert_eq!(q, p);
/// assert_eq!(bad, vec![2]);
/// ```
pub fn decode_robust(
    points: &[(Fp, Fp)],
    deg: usize,
    max_errors: usize,
) -> Result<(Poly, Vec<usize>), RsError> {
    let n = points.len();
    let need = deg + 2 * max_errors + 1;
    if n < need {
        return Err(RsError::NotEnoughPoints { have: n, need });
    }
    if max_errors == 0 {
        return interpolate_exact(points, deg).map(|p| (p, Vec::new()));
    }

    // Try decreasing error counts e = max_errors, ..., 0. Trying the largest
    // first is fine: the Berlekamp–Welch system with slack still recovers the
    // codeword when fewer errors occurred, because E(x) picks up spurious
    // roots that cancel in Q/E. We verify the result against the error bound.
    // The whole workspace is allocated once and reused across attempts.
    let mut scratch = DecodeScratch::for_attempt(deg, max_errors);
    for e in (0..=max_errors).rev() {
        if let Some(result) = try_decode(&mut scratch, points, deg, e) {
            let (p, bad) = result;
            if bad.len() <= max_errors {
                return Ok((p, bad));
            }
        }
    }
    Err(RsError::DecodingFailed)
}

/// Reusable buffers for one [`decode_robust`] call: the flat row-major
/// system matrix plus every intermediate vector an attempt needs, so a
/// failed attempt costs no allocations at all and a successful one
/// allocates only its returned polynomial and bad-index list.
struct DecodeScratch {
    /// Row-major linear system (`unknowns × (unknowns + 1)` cells used).
    matrix: Vec<Fp>,
    /// Solution vector of the linear system.
    sol: Vec<Fp>,
    /// Pivot positions of the current elimination.
    pivots: Vec<(u32, u32)>,
    /// Pivot values / batched inverses.
    pivot_vals: Vec<Fp>,
    pivot_invs: Vec<Fp>,
    /// Long-division state: remainder (dividend) and quotient.
    rem: Vec<Fp>,
    quot: Vec<Fp>,
}

impl DecodeScratch {
    fn for_attempt(deg: usize, max_errors: usize) -> Self {
        let max_unknowns = deg + 2 * max_errors + 1;
        DecodeScratch {
            matrix: vec![Fp::ZERO; max_unknowns * (max_unknowns + 1)],
            sol: Vec::with_capacity(max_unknowns),
            pivots: Vec::with_capacity(max_unknowns),
            pivot_vals: Vec::with_capacity(max_unknowns),
            pivot_invs: Vec::with_capacity(max_unknowns),
            rem: Vec::with_capacity(max_unknowns),
            quot: Vec::with_capacity(deg + 1),
        }
    }
}

/// One Berlekamp–Welch attempt with exactly-`e` error-locator degree.
///
/// Solve for Q (deg ≤ deg+e) and monic E (deg = e) with Q(x_i) = y_i E(x_i).
/// Unknowns: q_0..q_{deg+e}, e_0..e_{e-1}  (e_e = 1). Total deg+2e+1.
/// `scratch` provides the system's backing store (row-major, reused across
/// attempts; only the leading `unknowns * (unknowns + 1)` cells are used).
///
/// The system is built from the **first `unknowns` points** only (a square
/// system). That loses nothing: with at most `e` errors among any
/// `deg + 2e + 1` points, every nonzero Berlekamp–Welch solution yields
/// the same `Q/E` — the unique codeword — and the subsequent global
/// verification (over *all* points) rejects anything else, exactly as it
/// rejected spurious full-system solutions.
fn try_decode(
    ws: &mut DecodeScratch,
    points: &[(Fp, Fp)],
    deg: usize,
    e: usize,
) -> Option<(Poly, Vec<usize>)> {
    let n = points.len();
    let nq = deg + e + 1; // number of Q coefficients
    let unknowns = nq + e;
    if n < unknowns {
        return None;
    }

    // Build the linear system: for each of the first `unknowns` points,
    //   sum_j q_j x_i^j - y_i sum_{j<e} e_j x_i^j = y_i x_i^e
    let rows = unknowns;
    let stride = unknowns + 1;
    let m = &mut ws.matrix[..rows * stride];
    for (i, &(x, y)) in points.iter().take(rows).enumerate() {
        let row = &mut m[i * stride..(i + 1) * stride];
        let mut xp = Fp::ONE;
        for cell in row.iter_mut().take(nq) {
            *cell = xp;
            xp *= x;
        }
        // Reuse the power table just written: row[j] = x^j for j < nq, and
        // e < nq always, so the E-columns and the rhs need no new powers.
        for j in 0..e {
            row[nq + j] = -(y * row[j]);
        }
        row[unknowns] = y * row[e];
    }

    if !solve_linear_into(ws, rows, stride, unknowns) {
        return None;
    }

    // Q / E by monic long division, in the reused buffers: Q has the first
    // nq solution cells, E the remaining e plus a forced leading ONE.
    // deg Q ≤ deg + e and deg E = e, so the quotient has deg + 1 cells.
    ws.rem.clear();
    ws.rem.extend_from_slice(&ws.sol[..nq]);
    let qlen = deg + 1;
    ws.quot.clear();
    ws.quot.resize(qlen, Fp::ZERO);
    for k in (0..qlen).rev() {
        // Divisor = [sol[nq..nq+e] | ONE]; its leading coefficient is ONE,
        // so the quotient coefficient is the current remainder head.
        let coef = ws.rem[k + e];
        ws.quot[k] = coef;
        if coef.is_zero() {
            continue;
        }
        for j in 0..e {
            let d = ws.sol[nq + j];
            ws.rem[k + j] -= coef * d;
        }
        // The leading ONE cancels the head exactly.
        ws.rem[k + e] = Fp::ZERO;
    }
    if ws.rem[..e].iter().any(|c| !c.is_zero()) {
        return None; // E does not divide Q
    }
    // deg(quot) ≤ deg by construction, matching the degree bound.

    // Identify corrupted indices and verify consistency everywhere else.
    let quot = &ws.quot;
    let mut bad = Vec::new();
    for (i, &(x, y)) in points.iter().enumerate() {
        let mut acc = Fp::ZERO;
        for &c in quot.iter().rev() {
            acc = acc * x + c;
        }
        if acc != y {
            bad.push(i);
        }
    }
    Some((Poly::from_coeffs(ws.quot.clone()), bad))
}

/// Gaussian elimination over Fp on the workspace's flat row-major matrix
/// (`rows` rows of `stride` cells, `unknowns` coefficient columns plus the
/// rhs). On success, `ws.sol` holds one solution of the (possibly
/// underdetermined) system with free variables at zero; returns `false`
/// if the system is inconsistent.
///
/// Forward elimination uses cross-multiplied row updates
/// (`row' = pivot·row − factor·pivot_row`) so no pivot is inverted during
/// the sweep; back-substitution then inverts all pivots in one batched
/// inversion. Every intermediate lives in the workspace — zero
/// allocations.
fn solve_linear_into(ws: &mut DecodeScratch, rows: usize, stride: usize, unknowns: usize) -> bool {
    let DecodeScratch {
        matrix,
        sol,
        pivots,
        pivot_vals,
        pivot_invs,
        ..
    } = ws;
    let m = &mut matrix[..rows * stride];
    pivots.clear();
    let mut pivot_row = 0usize;
    for col in 0..unknowns {
        // Find a pivot.
        let Some(r) = (pivot_row..rows).find(|&r| !m[r * stride + col].is_zero()) else {
            continue;
        };
        if r != pivot_row {
            // Swap the remaining (col..) segments of the two rows.
            let (a, b) = m.split_at_mut(r * stride);
            a[pivot_row * stride + col..pivot_row * stride + stride]
                .swap_with_slice(&mut b[col..stride]);
        }
        let piv_at = pivot_row * stride;
        for r2 in pivot_row + 1..rows {
            let row_at = r2 * stride;
            let factor = m[row_at + col];
            if factor.is_zero() {
                continue;
            }
            let piv = m[piv_at + col];
            m[row_at + col] = Fp::ZERO;
            // Cross-multiplied update, one fused reduction per cell.
            let (head, tail) = m.split_at_mut(row_at);
            let pivot_row_cells = &head[piv_at + col + 1..piv_at + stride];
            let target_cells = &mut tail[col + 1..stride];
            for (t, &p) in target_cells.iter_mut().zip(pivot_row_cells) {
                *t = Fp::mul_sub(piv, *t, factor, p);
            }
        }
        pivots.push((pivot_row as u32, col as u32));
        pivot_row += 1;
        if pivot_row == rows {
            break;
        }
    }
    // Rows below the last pivot have all-zero coefficients; a nonzero rhs
    // there means the system is inconsistent.
    for r in pivot_row..rows {
        debug_assert!(m[r * stride..r * stride + unknowns]
            .iter()
            .all(|c| c.is_zero()));
        if !m[r * stride + unknowns].is_zero() {
            return false;
        }
    }
    // Back-substitution, free variables at zero, all pivots inverted at once.
    pivot_vals.clear();
    pivot_vals.extend(
        pivots
            .iter()
            .map(|&(r, c)| m[r as usize * stride + c as usize]),
    );
    pivot_invs.clear();
    pivot_invs.resize(pivot_vals.len(), Fp::ZERO);
    Fp::batch_inv_into(pivot_vals, pivot_invs);
    sol.clear();
    sol.resize(unknowns, Fp::ZERO);
    for (&(r, c), &inv) in pivots.iter().zip(pivot_invs.iter()).rev() {
        let (r, c) = (r as usize, c as usize);
        let row = &m[r * stride..(r + 1) * stride];
        let acc = row[unknowns] - Fp::dot(&row[c + 1..unknowns], &sol[c + 1..unknowns]);
        sol[c] = acc * inv;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn share_points(p: &Poly, n: usize) -> Vec<(Fp, Fp)> {
        (1..=n as u64)
            .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
            .collect()
    }

    #[test]
    fn decode_no_errors() {
        let mut rng = StdRng::seed_from_u64(10);
        let p = Poly::random_with_secret(Fp::new(5), 3, &mut rng);
        let pts = share_points(&p, 10);
        let (q, bad) = decode_robust(&pts, 3, 3).unwrap();
        assert_eq!(q, p);
        assert!(bad.is_empty());
    }

    #[test]
    fn decode_corrects_up_to_e_errors() {
        let mut rng = StdRng::seed_from_u64(11);
        for deg in 0..4usize {
            for e in 0..3usize {
                let n = deg + 2 * e + 1;
                let p = Poly::random_with_secret(Fp::random(&mut rng), deg, &mut rng);
                let mut pts = share_points(&p, n);
                // Corrupt e distinct random positions.
                let mut idxs: Vec<usize> = (0..n).collect();
                for i in 0..e {
                    let j = rng.gen_range(i..n);
                    idxs.swap(i, j);
                }
                let mut expect_bad: Vec<usize> = idxs[..e].to_vec();
                expect_bad.sort_unstable();
                for &i in &expect_bad {
                    pts[i].1 += Fp::new(1 + rng.gen_range(0..1000));
                }
                let (q, bad) = decode_robust(&pts, deg, e)
                    .unwrap_or_else(|err| panic!("deg={deg} e={e}: {err}"));
                assert_eq!(q, p, "deg={deg} e={e}");
                assert_eq!(bad, expect_bad, "deg={deg} e={e}");
            }
        }
    }

    #[test]
    fn decode_fails_beyond_error_budget() {
        let mut rng = StdRng::seed_from_u64(12);
        let deg = 2;
        let e = 2;
        let n = deg + 2 * e + 1; // 7
        let p = Poly::random_with_secret(Fp::new(1), deg, &mut rng);
        let mut pts = share_points(&p, n);
        // Corrupt e+1 = 3 shares: decoding must not silently return a wrong
        // polynomial claiming ≤ e errors. (It may fail, or it may return p
        // itself only if the corruptions happen to still be closest — with
        // random corruption values, returning exactly p is impossible since
        // 3 > e.)
        for pt in pts.iter_mut().take(e + 1) {
            pt.1 += Fp::new(1 + rng.gen_range(0..1000));
        }
        match decode_robust(&pts, deg, e) {
            Err(RsError::DecodingFailed) => {}
            Ok((q, bad)) => {
                // If something decoded, it must be a genuinely consistent
                // codeword within the error budget — but p differs from it in
                // 3 places, so q != p is acceptable only if bad.len() <= e.
                assert!(bad.len() <= e);
                assert_ne!(q, p);
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn decode_requires_enough_points() {
        let pts = vec![(Fp::new(1), Fp::new(1)); 3];
        let err = decode_robust(&pts, 2, 1).unwrap_err();
        assert_eq!(err, RsError::NotEnoughPoints { have: 3, need: 5 });
    }

    #[test]
    fn ambiguity_at_exactly_4f_is_possible() {
        // The sharpness experiment behind Theorem 4.1: with n = deg + 2e
        // points (one short), two different degree-`deg` polynomials can each
        // be within distance e of the received word. We build such a word.
        let deg = 2; // = 2f with f=1
        let e = 1;
        let n = deg + 2 * e; // 4 = 4f, one less than the 4f+1 needed
        let p1 = Poly::from_coeffs(vec![Fp::new(10), Fp::new(1), Fp::new(1)]);
        // p2 agrees with p1 on n - 2e = deg points and differs elsewhere:
        let pts_shared: Vec<(Fp, Fp)> = (1..=deg as u64)
            .map(|i| (Fp::new(i), p1.eval(Fp::new(i))))
            .collect();
        let mut pts2 = pts_shared.clone();
        pts2.push((Fp::new(100), Fp::new(999)));
        let p2 = Poly::interpolate(&pts2);
        assert_ne!(p1, p2);
        // Received word: p1 on points 1..deg+e, p2 on the rest — within
        // distance e of both codewords.
        let mut word = Vec::new();
        for i in 1..=n as u64 {
            let x = Fp::new(i);
            let y = if i <= (deg + e) as u64 {
                p1.eval(x)
            } else {
                p2.eval(x)
            };
            word.push((x, y));
        }
        // decode_robust refuses to run (NotEnoughPoints): the threshold is real.
        assert_eq!(
            decode_robust(&word, deg, e).unwrap_err(),
            RsError::NotEnoughPoints {
                have: n,
                need: n + 1
            }
        );
        // And indeed both polynomials are within distance e of the word.
        let d1 = word.iter().filter(|&&(x, y)| p1.eval(x) != y).count();
        let d2 = word.iter().filter(|&&(x, y)| p2.eval(x) != y).count();
        assert!(d1 <= e && d2 <= e);
    }

    #[test]
    fn exact_interpolation_detects_inconsistency() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = Poly::random_with_secret(Fp::new(7), 2, &mut rng);
        let mut pts = share_points(&p, 5);
        assert!(interpolate_exact(&pts, 2).is_ok());
        pts[4].1 += Fp::ONE;
        assert_eq!(
            interpolate_exact(&pts, 2).unwrap_err(),
            RsError::DecodingFailed
        );
    }

    #[test]
    fn exact_interpolation_needs_deg_plus_one() {
        let pts = vec![(Fp::new(1), Fp::new(1))];
        assert_eq!(
            interpolate_exact(&pts, 2).unwrap_err(),
            RsError::NotEnoughPoints { have: 1, need: 3 }
        );
    }

    #[test]
    fn encode_then_decode_roundtrip_many() {
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..10 {
            let deg = rng.gen_range(0..5);
            let p = Poly::random_with_secret(Fp::random(&mut rng), deg, &mut rng);
            let shares = encode(&p, deg + 5);
            let pts: Vec<(Fp, Fp)> = shares
                .iter()
                .enumerate()
                .map(|(i, &y)| (Fp::new(i as u64 + 1), y))
                .collect();
            let (q, _) = decode_robust(&pts, deg, 2).unwrap();
            assert_eq!(q, p);
        }
    }
}
