//! Integration: the §6.4 counterexample, exact payoff structure — both the
//! hand-built coalition (pinning the paper's numbers) and the *generated*
//! rediscovery of the same attack by the conformance harness.

use mediator_talk::circuits::catalog;
use mediator_talk::core::adversary::{Conformance, GossipColluder};
use mediator_talk::core::scenario::Scenario;
use mediator_talk::games::{library, punishment, solution, Strategy};
use mediator_talk::sim::SchedulerKind;

const BOT: u64 = library::BOTTOM as u64;

fn run(n: usize, naive: bool, collude: bool, seed: u64) -> Vec<usize> {
    let (_, _, k) = library::counterexample_game(n);
    let circuit = if naive {
        catalog::counterexample_naive(n)
    } else {
        catalog::counterexample_minfo(n)
    };
    let mut game = Scenario::mediator(circuit)
        .players(n)
        .tolerance(k, 0)
        .wills(vec![BOT; n]);
    if naive {
        game = game.naive_split();
    }
    if collude {
        game = game
            .deviant(0, move || Box::new(GossipColluder::counterexample(n, 1)))
            .deviant(1, move || Box::new(GossipColluder::counterexample(n, 0)));
    }
    let plan = game.build().expect("n − k ≥ 1");
    let out = plan.run_with(&SchedulerKind::Random, seed);
    out.resolve_ah(&vec![BOT; n + 1])[..n]
        .iter()
        .map(|&a| a as usize)
        .collect()
}

#[test]
fn bottom_is_a_k_punishment_with_margin_0_4() {
    let (game, mediated, k) = library::counterexample_game(7);
    let value = library::dist_utilities(&game, &[0; 7], &mediated)[0];
    assert!((value - 1.5).abs() < 1e-12);
    let rho: Vec<Strategy> = (0..7)
        .map(|_| Strategy::pure(1, 3, library::BOTTOM))
        .collect();
    assert!(punishment::is_m_punishment(&game, &rho, &[value; 7], k));
    let margin = punishment::punishment_margin(&game, &rho, &[value; 7], k);
    assert!((margin - 0.4).abs() < 1e-9);
    // Game-layer sanity: no coalition of k gains on all-zeros one-shot play.
    let zeros: Vec<Strategy> = (0..7).map(|_| Strategy::pure(1, 3, 0)).collect();
    assert_eq!(solution::best_coalition_gain(&game, &zeros, k), 0.0);
}

#[test]
fn honest_naive_play_is_unanimous_coin() {
    let n = 7;
    let (game, _, _) = library::counterexample_game(n);
    for seed in 0..10 {
        let actions = run(n, true, false, seed);
        assert!(actions.iter().all(|&a| a == actions[0]), "unanimous");
        assert!(actions[0] == 0 || actions[0] == 1);
        let u = game.utilities(&vec![0; n], &actions)[0];
        assert!(u == 1.0 || u == 2.0);
    }
}

#[test]
fn colluders_profit_exactly_when_b_is_zero_under_naive_mediator() {
    let n = 7;
    let (game, _, _) = library::counterexample_game(n);
    let mut profited = 0;
    let mut cooperated = 0;
    let runs = 60;
    for seed in 0..runs {
        let base = run(n, true, false, seed);
        let dev = run(n, true, true, seed);
        let u_base = game.utilities(&vec![0; n], &base)[0];
        let u_dev = game.utilities(&vec![0; n], &dev)[0];
        if base[0] == 0 {
            // b = 0: the coalition deadlocks; everyone lands on ⊥ (1.1 > 1).
            assert_eq!(dev, vec![library::BOTTOM; n], "seed {seed}");
            assert!(u_dev > u_base, "seed {seed}: {u_dev} vs {u_base}");
            profited += 1;
        } else {
            // b = 1: the coalition cooperates; payoff 2 as honest.
            assert_eq!(dev, vec![1; n], "seed {seed}");
            assert_eq!(u_dev, u_base);
            cooperated += 1;
        }
    }
    assert!(profited > 0 && cooperated > 0, "both coin sides exercised");
}

#[test]
fn conformance_harness_rediscovers_the_hand_built_attack() {
    // The hand-built colluders above pin the paper's numbers; this test
    // shows the attack is no longer privileged knowledge: the conformance
    // harness *generates* the same coalition strategy from the collusion-
    // rule battery and finds the same profit, with a confidence interval
    // and a replayable witness run attached.
    let n = 7;
    let (game, _, k) = library::counterexample_game(n);
    let plan = Scenario::mediator(catalog::counterexample_naive(n))
        .players(n)
        .tolerance(k, 0)
        .naive_split()
        .wills(vec![BOT; n])
        .default_actions(vec![BOT; n])
        .build()
        .expect("n − k ≥ 1");
    let report = plan.conformance(
        &game,
        &vec![0usize; n],
        &Conformance::new(0.01, k, 0)
            .battery(vec![SchedulerKind::Random])
            .seeds(60)
            .coalitions(vec![vec![0, 1]])
            .deadlock_action(BOT),
    );
    let w = report
        .witness()
        .expect("the generated sweep finds the attack");
    assert_eq!(w.strategy, "deadlock-if-bit=0");
    assert_eq!(w.coalition, vec![0, 1]);
    // Cross-check the generated gain against the hand-built coalition on
    // the same seed grid (the §6.4 margin: +0.05 in expectation).
    let mut hand_gain = 0.0;
    for seed in 0..60 {
        let base = run(n, true, false, seed);
        let dev = run(n, true, true, seed);
        hand_gain += game.utilities(&vec![0; n], &dev)[0] - game.utilities(&vec![0; n], &base)[0];
    }
    hand_gain /= 60.0;
    assert!(
        (w.gain.mean - hand_gain).abs() < 1e-9,
        "generated {} vs hand-built {hand_gain}",
        w.gain.mean
    );
}

#[test]
fn min_info_mediator_removes_the_profit() {
    let n = 7;
    let (game, _, _) = library::counterexample_game(n);
    for seed in 0..30 {
        let base = run(n, false, false, seed);
        let dev = run(n, false, true, seed);
        // The colluders never learn b before STOP: they behave like honest
        // players and the outcome coincides with the baseline.
        assert_eq!(base, dev, "seed {seed}");
        let u = game.utilities(&vec![0; n], &dev)[0];
        assert!(u == 1.0 || u == 2.0);
    }
}
