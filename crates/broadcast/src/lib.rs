//! Asynchronous broadcast and agreement primitives: the BCG/BKR substrate.
//!
//! The cheap-talk constructions (Theorems 4.1–4.5) run secure multiparty
//! computation in the style of Ben-Or–Canetti–Goldreich '93 and
//! Ben-Or–Kelmer–Rabin '94, which are built from these primitives, all
//! implemented here as **sans-IO state machines** (pure transition functions
//! returning outgoing messages), so they can be unit-tested standalone and
//! composed inside the MPC engine:
//!
//! * [`rbc`] — Bracha reliable broadcast (`t < n/3`): if the dealer is
//!   honest everyone delivers its value; if any honest player delivers `v`,
//!   every honest player delivers `v`.
//! * [`aba`] — randomized binary Byzantine agreement (`t < n/3`), in the
//!   Mostéfaoui–Moumen–Raynal style (BV-broadcast + common coin), with a
//!   Bracha-style termination gadget. Rounds 1 and 2 flip fixed coins;
//!   from round 3 the coin is a [`CoinSource`], the ideal setup coin of
//!   [`coin`] (substituting BCG's AVSS-based coin — see DESIGN.md).
//! * [`acs`] — BKR agreement on a common subset over `n` agreement
//!   instances: every honest player fixes the *same* core of ≥ n−f parties
//!   whose dealings completed. The MPC engine's input phase runs it.
//!
//! [`driver`] wraps RBC and ABA as [`mediator_sim::sansio::SansIo`] peers,
//! and [`mediator_sim::sansio::Machines`] runs a set of peers under the full
//! `mediator-sim` `World` — every scheduler, traces, failure injection.
//! That is the one way they are driven, unit tests included. [`Acs`] has no
//! peer: its votes come from a dealing protocol, so it runs inside the MPC
//! engine, whose own driver puts it under the `World`.

pub mod aba;
pub mod acs;
pub mod coin;
pub mod driver;
pub mod rbc;

pub use aba::{AbaMsg, AbaState};
pub use acs::Acs;
pub use coin::{CoinSource, IdealCoin};
pub use driver::{AbaPeer, RbcPeer};
pub use rbc::RbcMsg;
