//! Integration: implementation checking — the cheap-talk game induces the
//! same outcome distributions as the mediator game over the scheduler
//! battery (§2's definition, estimated).

use mediator_talk::circuits::catalog;
use mediator_talk::field::Fp;
use mediator_talk::prelude::{compare_run_sets, Scenario};
use mediator_talk::sim::{SchedulerKind, TerminationKind};

#[test]
fn majority_cheap_talk_implements_the_mediator_exactly_on_unanimous_inputs() {
    let n = 5;
    let kinds = SchedulerKind::battery(n);
    let inputs = vec![vec![Fp::ONE]; n];
    let ct = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(inputs.clone())
        .max_steps(20_000_000)
        .build()
        .expect("5 > 4")
        .battery(kinds.clone())
        .seeds(0..8)
        .run_batch();
    let md = Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(inputs)
        .build()
        .expect("n − k − t ≥ 1")
        .battery(kinds)
        .seeds(0..8)
        .run_batch();
    // Scheduler-proofness (Corollary 6.3): under every kind of the
    // battery, every cheap-talk run ends quiescent with everyone playing
    // the majority — no deadlock, no default move.
    for r in ct.runs() {
        let at = (&r.kind, r.seed);
        assert_eq!(r.outcome.termination, TerminationKind::Quiescent, "{at:?}");
        assert_eq!(r.outcome.moves, vec![Some(1); n], "{at:?}");
    }
    let rep = compare_run_sets(&ct, &md);
    // Unanimous inputs ⇒ both games are point masses on (1,...,1).
    assert_eq!(rep.distance, 0.0, "exact implementation on this input");
    assert!(rep.eps_implements(0.0));
    assert_eq!(rep.kinds, 7);
    assert_eq!(rep.samples, 8);
}

#[test]
fn coin_mediator_distribution_is_a_fair_coin_in_both_games() {
    let n = 5;
    let circuit = catalog::counterexample_minfo(n);
    let samples = 40u64;
    let ct = Scenario::cheap_talk(circuit.clone())
        .players(n)
        .tolerance(1, 0)
        .max_steps(20_000_000)
        .build()
        .expect("5 > 4")
        .seeds(0..samples)
        .run_batch()
        .pooled();
    let md = Scenario::mediator(circuit)
        .players(n)
        .tolerance(1, 0)
        .build()
        .expect("n − k − t ≥ 1")
        .seeds(0..samples)
        .run_batch()
        .pooled();
    // Support is exactly {all-0, all-1} on both sides.
    assert_eq!(ct.support_len(), 2, "cheap talk support: {ct:?}");
    assert_eq!(md.support_len(), 2);
    // Both near-fair; allow generous sampling noise at 60 samples.
    for d in [&ct, &md] {
        let p1 = d.prob(&vec![1; n]);
        assert!((p1 - 0.5).abs() < 0.25, "biased coin: {p1}");
    }
}

#[test]
fn mediated_and_cheap_talk_message_counts_differ_by_orders_of_magnitude() {
    // The price of removing the trusted party, quantified.
    let n = 5;
    let inputs = vec![vec![Fp::ONE]; n];
    let ct = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(inputs.clone())
        .max_steps(20_000_000)
        .build()
        .expect("5 > 4")
        .run_with(&SchedulerKind::Random, 1);
    let md = Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(inputs)
        .build()
        .expect("n − k − t ≥ 1")
        .run_with(&SchedulerKind::Random, 1);
    assert!(
        md.messages_sent <= 2 * (n as u64) + 2,
        "mediator game is O(n): {}",
        md.messages_sent
    );
    assert!(
        ct.messages_sent > 10 * md.messages_sent,
        "cheap talk costs real messages: {} vs {}",
        ct.messages_sent,
        md.messages_sent
    );
}
