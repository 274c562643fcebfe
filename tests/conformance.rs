//! Integration: the equilibrium conformance harness (adversary plane).
//!
//! Two directions, both demanded by the paper's theorems:
//!
//! * at paper-valid `(n, k, t)` the generated coalition-strategy battery
//!   must find **no** deviation gaining more than ε — the harness reports
//!   ε-k-resilience with confidence intervals;
//! * below the bounds (the §6.4 configuration: `n = 7 ≤ 4k + 4t = 8`
//!   violates Theorem 4.1's threshold, and the naive two-round mediator is
//!   exactly the construction the paper shows insufficient there) the
//!   harness must *find* the profitable deviation and hand back a concrete,
//!   replayable witness.

mod common;

use mediator_talk::core::adversary::generated_battery;
use mediator_talk::games::library;
use mediator_talk::prelude::*;

const BOT: u64 = library::BOTTOM as u64;

fn naive_counterexample_plan(n: usize, k: usize) -> MediatorPlan {
    Scenario::mediator(catalog::counterexample_naive(n))
        .players(n)
        .tolerance(k, 0)
        .naive_split()
        .wills(vec![BOT; n])
        .default_actions(vec![BOT; n])
        .build()
        .expect("n − k ≥ 1")
}

/// Theorem 4.1 cheap talk at `k = 1`, unanimous inputs 1.
fn cheap_talk_41_plan(n: usize) -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n > 4")
}

fn min_info_plan(n: usize, k: usize) -> MediatorPlan {
    Scenario::mediator(catalog::counterexample_minfo(n))
        .players(n)
        .tolerance(k, 0)
        .wills(vec![BOT; n])
        .default_actions(vec![BOT; n])
        .build()
        .expect("n − k ≥ 1")
}

#[test]
fn cheap_talk_at_valid_n_is_eps_k_resilient() {
    // Theorem 4.1 working point: n = 5 > 4k + 4t = 4. The generated
    // strategy battery (message-level drops, delays, equivocation,
    // selective silence, aborts, input/opening lies, refusals) must not
    // let any singleton coalition gain more than ε in the BA game, under
    // Random, Fifo or Lifo.
    let n = 5;
    let game = library::byzantine_agreement_game(n);
    let plan = cheap_talk_41_plan(n);
    let report = plan.conformance(
        &game,
        &vec![1usize; n],
        &Conformance::new(0.05, 1, 0)
            .battery(vec![
                SchedulerKind::Random,
                SchedulerKind::Fifo,
                SchedulerKind::Lifo,
            ])
            .seeds(6),
    );
    assert!(
        report.is_resilient(),
        "expected resilient, got {:?}",
        report.verdict
    );
    // The baseline carries intervals: unanimous honest play pays exactly 1.
    for ci in &report.baseline {
        assert!((ci.mean - 1.0).abs() < 1e-9);
        assert!(ci.width() < 1e-9, "honest play is deterministic here");
    }
    // Every generated strategy ran for every singleton coalition.
    assert_eq!(report.cells.len(), 11 * n, "the sweep's cells");
    assert!(report.max_gain() <= 0.05);
    // Only `silent` and `refuse-move` withhold the deviator's own move, so
    // only they may cost the honest players (the BA game pays everyone 0
    // without unanimity). Harm from any other cell is an honest player
    // left without its move: a stall, not a payoff.
    for c in &report.cells {
        if !["silent", "refuse-move"].contains(&c.strategy.as_str()) {
            assert_eq!(c.harm.hi, 0.0, "{} by {:?} harms", c.strategy, c.coalition);
        }
    }
    match report.verdict {
        ConformanceVerdict::Resilient {
            max_gain_hi,
            max_harm_hi,
        } => {
            assert!(max_gain_hi <= 0.05, "gain bound {max_gain_hi}");
            // Not-moving deviations DO harm in the BA game (unanimity
            // breaks); the bound records it rather than hiding it.
            assert!(max_harm_hi >= 0.0);
        }
        ref v => panic!("unexpected verdict {v:?}"),
    }
}

#[test]
fn input_free_circuits_sweep_without_an_input_lie() {
    // The §6.4 circuits take no private input. The battery's input lie
    // once hard-coded one element and killed these sweeps at the engine's
    // arity assert; with nothing to lie about it is left out, and the
    // rest of the battery runs through Theorem 4.1 at n = 7, k = 1.
    let n = 7;
    let (game, _, _) = library::counterexample_game(n);
    for circuit in [
        catalog::counterexample_minfo(n),
        catalog::counterexample_naive(n),
    ] {
        let plan = Scenario::cheap_talk(circuit)
            .players(n)
            .tolerance(1, 0)
            .build()
            .expect("7 > 4");
        let report = plan.conformance(
            &game,
            &vec![0; n],
            &Conformance::new(0.05, 1, 0)
                .battery(vec![SchedulerKind::Random])
                .seeds(2)
                .coalitions(vec![vec![3]]),
        );
        let names: Vec<&str> = report.cells.iter().map(|c| c.strategy.as_str()).collect();
        assert_eq!(names.len(), 10, "{names:?}");
        assert!(!names.contains(&"lie-input"));
    }
}

#[test]
fn selective_silence_never_stalls_theorem_4_1() {
    // The battery's `selective-silence`: the deviator says nothing at all
    // to the first two players outside its coalition, so its AVSS rows
    // reach only f + 1 = 2 honest players. Those confirm them on 2f + 1
    // echoes; were that a reason for READY, they would complete, the core
    // could admit the dealer, and the two outsiders — who can never decode
    // their rows — would wait for shares forever. Under the `n − f` READY
    // rule nobody completes that dealing, the core leaves it out, and every
    // honest player plays the unanimous 1.
    let n = 5;
    let plan = cheap_talk_41_plan(n);
    for deviator in 0..n {
        let (name, members) = generated_battery(&[1; 5], &[deviator])
            .into_iter()
            .find(|(name, _)| name == "selective-silence")
            .expect("the battery has the deviation");
        let plan = members
            .into_iter()
            .try_fold(plan.clone(), |p, (m, b)| p.with_deviant(m, b))
            .expect("a valid deviant");
        for seed in 0..200 {
            let out = plan.run_with(&SchedulerKind::Random, seed);
            let label = format!("{name} by {deviator}, seed {seed}");
            assert_eq!(out.termination, TerminationKind::Quiescent, "{label}");
            for p in (0..n).filter(|&p| p != deviator) {
                assert_eq!(out.moves[p], Some(1), "player {p}: {label}");
            }
        }
    }
}

#[test]
fn one_crash_never_stalls_theorem_4_1() {
    // A deviator that crashes after `s` sends, for every `s` up to past
    // its dealing. Under Lifo an agreement instance's whole first round
    // can reach a player before that instance's dealer's AVSS completes
    // there; the round must complete when the player finally votes, since
    // the crashed player's missing `Done` leaves the termination gadget
    // one short.
    let n = 5;
    let plan = cheap_talk_41_plan(n);
    for deviator in 0..n {
        for sends in 0..160 {
            let (_, crash) = Deviation::named("crash").abort_at(sends).build();
            let plan = plan
                .clone()
                .with_deviant(deviator, crash)
                .expect("a valid deviant");
            for kind in [
                SchedulerKind::Random,
                SchedulerKind::Fifo,
                SchedulerKind::Lifo,
            ] {
                let out = plan.run_with(&kind, 0);
                let label = format!("crash after {sends} by {deviator}, {kind:?}");
                assert_eq!(out.termination, TerminationKind::Quiescent, "{label}");
                for p in (0..n).filter(|&p| p != deviator) {
                    assert_eq!(out.moves[p], Some(1), "player {p}: {label}");
                }
            }
        }
    }
}

#[test]
fn naive_mediator_below_threshold_yields_a_generated_witness() {
    // §6.4 at n = 7, k = 2 (n ≤ 4k: below Theorem 4.1's bound). The
    // harness generates the collusion-rule battery and must rediscover the
    // paper's attack: the opposite-parity pair {0, 1} deadlocking when the
    // combined leak bit is 0.
    let n = 7;
    let (game, _, k) = library::counterexample_game(n);
    assert_eq!(k, 2);
    assert!(n <= 4 * k, "the configuration is sub-threshold for 4.1");
    let plan = naive_counterexample_plan(n, k);
    let report = plan.conformance(
        &game,
        &vec![0usize; n],
        &Conformance::new(0.01, k, 0)
            .battery(vec![SchedulerKind::Random])
            .seeds(48)
            .coalitions(vec![vec![0], vec![0, 1]])
            .deadlock_action(BOT),
    );
    let w = report
        .witness()
        .expect("a profitable deviation must be found");
    assert_eq!(w.strategy, "deadlock-if-bit=0", "the paper's rule");
    assert_eq!(w.coalition, vec![0, 1], "the opposite-parity pair");
    // The paper's margin: +0.05 in expectation (0.1 on the b = 0 half).
    assert!(
        w.gain.mean > 0.02 && w.gain.mean < 0.08,
        "gain {:?}",
        w.gain
    );
    assert!(w.gain.lo > 0.01, "statistically above ε: {:?}", w.gain);
    // The witness replays: its grid cell shows the coalition turning the
    // all-zeros outcome into the all-⊥ punishment outcome.
    assert_eq!(w.deviant_profile, vec![library::BOTTOM; n]);
    assert_eq!(w.baseline_profile, vec![0; n]);
    // Replay the witness run for real: same scheduler kind, same seed.
    let replayed = plan.run_with(&w.kind, w.seed);
    let honest_profile: Vec<usize> = replayed.resolve_ah(&vec![BOT; n + 1])[..n]
        .iter()
        .map(|&a| a as usize)
        .collect();
    assert_eq!(honest_profile, w.baseline_profile);
}

#[test]
fn min_info_mediator_passes_the_same_sweep() {
    // The paper's fix: the minimally-informative mediator leaks nothing
    // before STOP, so the identical generated sweep finds no profit.
    let n = 7;
    let (game, _, k) = library::counterexample_game(n);
    let plan = min_info_plan(n, k);
    let report = plan.conformance(
        &game,
        &vec![0usize; n],
        &Conformance::new(0.01, k, 0)
            .battery(vec![SchedulerKind::Random])
            .seeds(48)
            .coalitions(vec![vec![0], vec![0, 1]])
            .deadlock_action(BOT),
    );
    assert!(
        report.is_resilient(),
        "min-info mediator must be resilient, got {:?}",
        report.verdict
    );
    assert!(report.max_gain() <= 1e-9, "no strategy profits");
}

#[test]
fn conformance_report_renders_json() {
    let n = 7;
    let (game, _, k) = library::counterexample_game(n);
    let plan = naive_counterexample_plan(n, k);
    let mut report = plan.conformance(
        &game,
        &vec![0usize; n],
        &Conformance::new(0.01, k, 0)
            .battery(vec![SchedulerKind::Random])
            .seeds(16)
            .coalitions(vec![vec![0, 1]])
            .deadlock_action(BOT),
    );
    let json = report.to_json();
    assert!(json.contains("\"verdict\""));
    assert!(json.contains("\"violated\""));
    assert!(json.contains("deadlock-if-bit=0"));
    assert!(json.contains("\"baseline\""));
    assert!(json.contains("\"cells\""));
    common::assert_strict_json(&json);

    // A strategy name is free text: quotes, backslashes and control
    // characters in it must not break the artifact.
    let hostile = "say \"x\\y\"\nthen\tstall";
    report.cells[0].strategy = hostile.to_string();
    let ConformanceVerdict::Violated(w) = &mut report.verdict else {
        panic!("the naive mediator is violated");
    };
    w.strategy = hostile.to_string();
    let json = report.to_json();
    assert!(json.contains(r#"say \"x\\y\"\u000athen\u0009stall"#));
    common::assert_strict_json(&json);
}

/// The report carries every float exactly (`f64::to_bits` hex beside the
/// six-decimal value), so two reports with equal JSON are bit-identical —
/// the property the sharded-sweep parity suites lean on.
#[test]
fn conformance_json_carries_exact_floats() {
    let n = 5;
    let resilient = cheap_talk_41_plan(n).conformance(
        &library::byzantine_agreement_game(n),
        &vec![1usize; n],
        &Conformance::new(0.05, 1, 0)
            .battery(vec![SchedulerKind::Random])
            .seeds(2),
    );
    assert!(resilient.is_resilient(), "{:?}", resilient.verdict);
    let n = 7;
    let (game, _, k) = library::counterexample_game(n);
    let violated = naive_counterexample_plan(n, k).conformance(
        &game,
        &vec![0usize; n],
        &Conformance::new(0.01, k, 0)
            .battery(vec![SchedulerKind::Random])
            .seeds(16)
            .coalitions(vec![vec![0, 1]])
            .deadlock_action(BOT),
    );
    assert!(violated.witness().is_some(), "{:?}", violated.verdict);
    for report in [&resilient, &violated] {
        let json = report.to_json();
        let exact = |x: f64| format!("0x{:016x}", x.to_bits());
        assert!(json.contains(&exact(report.cells[0].gain.hi)), "{json}");
        for b in &report.baseline {
            assert!(json.contains(&exact(b.mean)), "{json}");
        }
        common::assert_strict_json(&json);
    }
}
