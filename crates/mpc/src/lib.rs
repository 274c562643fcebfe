//! Asynchronous secure multiparty computation over arithmetic circuits —
//! the BCG/BKR-style engine driving the cheap-talk protocols.
//!
//! Given a mediator circuit (see `mediator-circuits`), `n` players jointly
//! evaluate it so that each player learns **only its own output wires**,
//! tolerating `f = k + t` misbehaving players. Two modes:
//!
//! * [`Mode::Robust`] (`n > 4f`, Theorem 4.1): inputs and randomness
//!   contributions are dealt by **AVSS**; the input core is fixed by `n`
//!   ABA instances under the BKR common-subset rule
//!   ([`mediator_bcast::Acs`]); multiplications
//!   use masked public openings `z = ab + r` with the degree-doubling trick
//!   `h(x) = A(x)B(x) + R(x) + x^f·R'(x)` and **online error correction**
//!   (liveness exactly when `n ≥ 4f + 1` — the paper's bound).
//! * [`Mode::Epsilon`] (`n > 3f` for safety, Theorems 4.2/4.5): inputs are
//!   dealt by cut-and-choose *detectable* sharing; openings decode with a
//!   `t`-error budget and **abort** when no candidate survives — cheating is
//!   detected, not corrected. Aborts and byzantine-induced stalls route to
//!   the game layer's default/punishment path, which is precisely how the
//!   paper's Theorems 4.4/4.5 consume deadlocks. (BKR's full
//!   guaranteed-output-delivery machinery is substituted; see DESIGN.md.)
//!
//! Random field elements are sums of core contributions; random *bits* are
//! XOR-folds of core-contributed bits, each first verified by publicly
//! opening `b·(b−1)`.
//!
//! The engine is a sans-IO state machine ([`MpcEngine`](engine::MpcEngine)):
//! feed it messages, collect outgoing batches, watch for [`MpcEvent`]s.
//! [`MpcDriver`] wraps it in the shared [`mediator_sim::sansio::SansIo`]
//! contract so the full `mediator-sim` `World` (every scheduler, traces,
//! failure injection) can drive it; the cheap-talk layer (`mediator-core`)
//! embeds that same driver into its game-level processes.

pub mod config;
pub mod driver;
pub mod engine;
pub mod msg;

pub use config::{Mode, MpcConfig};
pub use driver::MpcDriver;
pub use engine::MpcEvent;
pub use msg::MpcMsg;
