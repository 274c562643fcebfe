//! Secret sharing for the asynchronous MPC substrate.
//!
//! Four layers, bottom-up:
//!
//! * [`shamir`] — plain Shamir sharing over `GF(2^61−1)` (share `i` is the
//!   dealing polynomial evaluated at `x = i+1`), plus share arithmetic.
//! * [`reconstruct`] — **online error correction** (OEC, from BCG '93):
//!   incremental robust reconstruction as shares dribble in over an
//!   asynchronous network. Accept once some candidate polynomial agrees
//!   with `deg + f + 1` of the received points; liveness needs
//!   `n ≥ deg + 2f + 1`, which for the degree-`2f` product openings is
//!   exactly the paper's `n > 4f` threshold (Theorem 4.1).
//! * [`avss`] — asynchronous verifiable secret sharing from a symmetric
//!   bivariate polynomial (`t < n/4`): dealer sends row polynomials, players
//!   cross-echo evaluation points, READY amplification à la Bracha, and
//!   players that never received a row recover it by robustly decoding the
//!   echoes addressed to them. Ships whole *vectors* of secrets in one
//!   instance (the MPC input phase shares a player's inputs and all its
//!   randomness contributions at once).
//! * [`detect`] — cut-and-choose *detectable* sharing (`t < n/3`): the
//!   dealer also shares κ random blinding polynomials, and public challenges
//!   open `g_k + Σ_c ρ_{k,c}·f_c`, uniformly random (it reveals nothing);
//!   [`detect`] states what a check catches. This is the ε-machinery of
//!   Theorems 4.2/4.5.

pub mod avss;
pub mod detect;
pub mod driver;
pub mod reconstruct;
pub mod shamir;

pub use avss::{AvssMsg, AvssState};
pub use detect::DetectMsg;
pub use driver::AvssPeer;
pub use reconstruct::OecState;
