//! Implementing mediators with asynchronous cheap talk — the paper's
//! primary contribution (Abraham–Dolev–Geffner–Halpern, PODC 2019).
//!
//! This crate ties the substrates together into the objects the paper
//! reasons about:
//!
//! * [`mediator`] — **mediator games** `Γ_d`: the underlying Bayesian game
//!   extended with a trusted-mediator process speaking the *canonical form*
//!   of §2 (players send their input, respond to each non-STOP round, act
//!   on STOP), including the §6.4 *naive* two-round mediator that leaks
//!   `a + b·i (mod 2)` before revealing the action.
//! * [`cheap_talk`] — **cheap-talk games** `Γ_CT`: the mediator replaced by
//!   the asynchronous MPC engine, in the four parameterizations of
//!   Theorems 4.1 (robust, `n > 4k+4t`), 4.2 (ε, `n > 3k+3t`),
//!   4.4 (punishment wills + cotermination barrier, `n > 3k+4t`) and
//!   4.5 (ε + punishment, `n > 2k+3t`), with both infinite-play semantics
//!   (default moves and Aumann–Hart wills).
//! * [`min_info`] — the Lemma 6.8 **minimally informative mediator**:
//!   scheduler-equivalence-class counting (`(2rn)(4rn)(4rn)!/(r!)^{2n}`),
//!   the least round count `R` with `(Rn)! ≥ classes`, and the
//!   `2^{O(N log N)}`-vs-`O(n)` message-cost table.
//! * [`scenario`] — the **Scenario API**: the builder-first experiment
//!   surface (`Scenario::cheap_talk(…)` / `Scenario::mediator(…)`) with
//!   build-time theorem-threshold validation, the multi-threaded
//!   `(scheduler × seed)` batch runner ([`RunSet`](scenario::RunSet)), and steppable
//!   [`Session`](mediator_sim::Session)s — the one way the two game kinds
//!   above are run.
//! * [`implement`] — empirical **implementation checking**: outcome
//!   distributions under scheduler batteries, compared with the paper's
//!   set-distance (both directions for implementation, one direction for
//!   weak implementation).
//! * [`deviations`] — the deviation library (silence, crashes, input lies,
//!   opening lies, §6.4 deadlock collusion); judged by the conformance
//!   harness below, never by a second report.
//! * [`adversary`] — the **adversary plane**: message-level deviation
//!   primitives (drop, delay-until-phase, equivocate, selective silence,
//!   abort-at-round) composed per-phase and per-coalition by a combinator
//!   DSL, generalized §6.4 gossip colluders, and the **conformance
//!   harness** that sweeps generated coalition strategies × scheduler
//!   battery × seeds and renders an ε-k-resilience verdict with confidence
//!   intervals — or a concrete witnessing deviation.
//! * [`frontier`] — the **lower-bound frontier atlas**: an `(n, k, t)`
//!   grid straddling each theorem's boundary, every cell classified by
//!   experiment (the theorem's own construction above the line, the §6.4
//!   companion attack below it) and machine-checked against the theorem
//!   predicate cell for cell, rendered as a deterministic `FRONTIER.json`.
//! * [`egl`] — the Even–Goldreich–Lempel `O(1/ε)`-messages baseline the
//!   paper compares against in §1.
//! * [`lease`] — pure lease accounting ([`lease::LeaseLedger`]) for the
//!   sharded conformance plane: exactly-once unit completion under worker
//!   churn, proptested here without any transport in the loop.
//! * [`report`] — plain-text/markdown tables for the experiment harness.

pub mod adversary;
pub mod cheap_talk;
pub mod deviations;
pub mod egl;
pub mod frontier;
pub mod implement;
pub mod lease;
pub mod mediator;
pub mod min_info;
pub mod report;
pub mod scenario;

pub use adversary::{
    render_sweep_report, run_sweep_cell, run_sweep_unit, sweep_unit_plan, sweep_units, Conformance,
    ConformanceReport, ConformanceVerdict, SweepUnit,
};
pub use cheap_talk::CtMsg;
pub use lease::{LeaseLedger, Reclaim};
pub use mediator::MedMsg;
