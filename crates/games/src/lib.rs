//! Normal-form Bayesian games and the solution concepts of
//! Abraham–Dolev–Geffner–Halpern (PODC 2019), §2–§3.
//!
//! The paper's underlying game `Γ` is a finite normal-form Bayesian game:
//! players have private types drawn from a commonly-known joint distribution,
//! pick one action each, and receive utilities determined by the type and
//! action profiles. This crate provides:
//!
//! * [`BayesianGame`] — the game representation, with exact expected-utility
//!   evaluation by enumeration (games here are small by design).
//! * [`Strategy`] / [`StrategyProfile`](strategy::StrategyProfile) —
//!   behavioural strategies `T_i → Δ(A_i)` and profiles, plus *coalition
//!   deviations* that may correlate the coalition's actions and depend on
//!   the coalition's joint type (the paper lets deviating coalitions share
//!   type information).
//! * [`solution`] — exact checkers for k-resilience, t-immunity,
//!   (k,t)-robustness and their ε- and strong variants (Definitions
//!   3.1–3.6), using a small built-in LP so *mixed* coalition deviations are
//!   searched exactly, not just pure ones.
//! * [`punishment`] — m-punishment strategies (Definition 4.3).
//! * [`library`] — the concrete games used by the paper and the experiments,
//!   including the §6.4 counterexample.
//! * [`dist`] — the L1 distance on outcome distributions used by the
//!   ε-implementation definition (§2).
//! * [`stats`] — normal-approximation confidence intervals for the
//!   empirical utility accounting the conformance harness builds on.
//!
//! # Example
//!
//! ```
//! use mediator_games::library;
//! use mediator_games::solution;
//!
//! let (game, eq) = library::prisoners_dilemma();
//! // Mutual defection is a Nash equilibrium (1-resilient) ...
//! assert!(solution::is_k_resilient(&game, &eq, 1, 0.0));
//! // ... but not resilient to a coalition of both players.
//! assert!(!solution::is_k_resilient(&game, &eq, 2, 0.0));
//! ```

pub mod correlated;
pub mod dist;
pub mod game;
pub mod library;
pub mod lp;
pub mod punishment;
pub mod solution;
pub mod stats;
pub mod strategy;

pub use dist::OutcomeDist;
pub use game::BayesianGame;
pub use strategy::Strategy;
