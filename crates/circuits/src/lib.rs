//! Arithmetic circuits over `GF(2^61 − 1)`: the mediator representation.
//!
//! The paper bounds cheap-talk message complexity in terms of `c`, the number
//! of gates of an arithmetic circuit representing the mediator (§4). This
//! crate provides the circuit DSL, a plain evaluator (what the *trusted*
//! mediator runs), gate/depth metrics, gadgets (XOR, selection, equality,
//! table lookup, majority), and a catalog of the mediator circuits used by
//! the experiments. Only [`Gate::Mul`] costs messages under MPC, so the
//! gadgets are built to spend few of them: a table lookup is one public
//! polynomial evaluated on shared powers of its argument
//! ([`CircuitBuilder::poly_eval`]) — degree − 1 multiplications at
//! logarithmic depth, which makes [`catalog::majority_circuit`] cost `n − 1`
//! of them, not one Lagrange chain per table row (`n² − 1`).
//!
//! The catalog:
//!
//! * [`catalog::majority_circuit`] — the introduction's Byzantine-agreement
//!   mediator (send the majority input back to everyone);
//! * [`catalog::chicken_mediator`] — a correlated-equilibrium mediator that
//!   tells each player only its own recommended action;
//! * [`catalog::counterexample_naive`] / [`catalog::counterexample_minfo`] —
//!   the §6.4 mediator that leaks `a + b·i (mod 2)` alongside the action,
//!   and its minimally-informative repair.
//!
//! Randomness appears as explicit gates ([`Gate::Rand`] for uniform field
//! elements, [`Gate::RandBit`] for fair bits) so that the MPC layer can
//! implement them with jointly-generated secrets while the trusted mediator
//! just draws from its RNG.
//!
//! # Example
//!
//! ```
//! use mediator_circuits::CircuitBuilder;
//! use mediator_field::Fp;
//!
//! // A 3-player mediator: everyone learns the sum of all inputs.
//! let mut b = CircuitBuilder::new(3, &[1, 1, 1]);
//! let x0 = b.input(0, 0);
//! let x1 = b.input(1, 0);
//! let x2 = b.input(2, 0);
//! let s01 = b.add(x0, x1);
//! let s = b.add(s01, x2);
//! for p in 0..3 {
//!     b.output(p, s);
//! }
//! let c = b.build();
//! let mut rng = rand::thread_rng();
//! let out = c.eval(&[vec![Fp::new(1)], vec![Fp::new(2)], vec![Fp::new(3)]], &mut rng);
//! assert_eq!(out.outputs[1], vec![Fp::new(6)]);
//! ```

pub mod builder;
pub mod catalog;
pub mod circuit;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, Evaluation, Gate, WireId};
