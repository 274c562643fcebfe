//! The adversary plane and the conformance harness, end to end:
//!
//! 1. compose a deviation from message-level primitives with the
//!    combinator DSL and run it through a scenario;
//! 2. sweep the *generated* coalition-strategy battery over the §6.4
//!    mediator games and watch the harness find the paper's attack on the
//!    naive mediator — and certify the minimally-informative fix.
//!
//! ```sh
//! cargo run --release --example adversary_conformance
//! ```

use mediator_talk::games::library;
use mediator_talk::prelude::*;

fn main() {
    let n = 5;

    // --- 1. One composed deviation through the Scenario surface --------
    // Equivocate openings toward players 3 and 4, then abort entirely at
    // send 120: a strategy no hand-written battery entry covers, three
    // combinator calls here.
    let (name, behavior) = Deviation::named("equivocate-then-abort")
        .equivocate([3, 4], 1_000_003)
        .abort_at(120)
        .build();
    let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0) // Theorem 4.1: n = 5 > 4k + 4t = 4
        .inputs(vec![vec![Fp::ONE]; n])
        .deviant(2, behavior)
        .build()
        .expect("threshold satisfied");
    let out = plan.run_with(&SchedulerKind::Random, 7);
    println!(
        "composed deviation '{name}': honest players still decide {:?}",
        &out.resolve_default(&vec![0; n])[..2],
    );

    // --- 2. The conformance harness on the §6.4 games ------------------
    let n = 7;
    let (game, _, k) = library::counterexample_game(n);
    let bot = library::BOTTOM as u64;
    let cfg = Conformance::new(0.01, k, 0)
        .battery(vec![SchedulerKind::Random])
        .seeds(48)
        .coalitions(vec![vec![0, 1]])
        .deadlock_action(bot);

    let naive = Scenario::mediator(catalog::counterexample_naive(n))
        .players(n)
        .tolerance(k, 0)
        .naive_split()
        .wills(vec![bot; n])
        .default_actions(vec![bot; n])
        .build()
        .expect("n − k ≥ 1");
    let report = naive.conformance(&game, &vec![0; n], &cfg);
    match report.witness() {
        Some(w) => println!("naive mediator: VIOLATED — {w}"),
        None => println!("naive mediator: unexpectedly resilient?"),
    }

    let fixed = Scenario::mediator(catalog::counterexample_minfo(n))
        .players(n)
        .tolerance(k, 0)
        .wills(vec![bot; n])
        .default_actions(vec![bot; n])
        .build()
        .expect("n − k ≥ 1");
    let report = fixed.conformance(&game, &vec![0; n], &cfg);
    match &report.verdict {
        ConformanceVerdict::Resilient {
            max_gain_hi,
            max_harm_hi,
        } => println!(
            "min-info mediator: ε-k-resilient within the statistical bound \
             (max gain ≤ {max_gain_hi:.4}, max harm ≤ {max_harm_hi:.4}, \
             {} strategies × {} seeds)",
            report.cells.len(),
            report.seeds_per_kind
        ),
        v => println!("min-info mediator: unexpected verdict {v:?}"),
    }
}
