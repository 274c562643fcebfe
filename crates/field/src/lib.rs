//! Finite-field arithmetic and coding-theory primitives for the
//! mediator-implementation protocols.
//!
//! Everything in the cheap-talk constructions of Abraham–Dolev–Geffner–Halpern
//! (PODC 2019) ultimately bottoms out in Shamir secret sharing and robust
//! polynomial reconstruction over a finite field. This crate provides:
//!
//! * [`Fp`] — the prime field `GF(2^61 - 1)` (a Mersenne prime, so reduction
//!   is two adds and a compare; products fit in `u128`).
//! * [`Poly`] — dense univariate polynomials with evaluation, interpolation,
//!   Euclidean division and GCD.
//! * [`grid`] — barycentric Lagrange weights for the fixed share grid
//!   `x = 1..=n` (cached per `n`, batch-inverted): the fast interpolation
//!   path every reconstruction in the sharing layer runs on.
//! * [`rs`] — Reed–Solomon encoding and **Berlekamp–Welch robust decoding**,
//!   the exact primitive whose `n ≥ deg + 2e + 1` requirement produces the
//!   paper's `n > 4(k+t)` threshold (Theorem 4.1). The decoder solves its
//!   linear systems in a flat reused scratch matrix with batch-inverted
//!   pivots (see the module docs).
//!
//! # Example
//!
//! ```
//! use mediator_field::{Fp, Poly};
//!
//! let p = Poly::from_coeffs(vec![Fp::new(3), Fp::new(0), Fp::new(1)]); // 3 + x^2
//! assert_eq!(p.eval(Fp::new(2)), Fp::new(7));
//! ```

pub mod gf;
pub mod grid;
pub mod poly;
pub mod rs;

pub use gf::Fp;
pub use poly::Poly;
pub use rs::{decode_robust, decode_robust_indices, encode, interpolate_exact, RsError};
