//! Integration: the resilience thresholds of Theorems 4.1–4.5, end to end.

use mediator_talk::core::scenario::CheapTalk;
use mediator_talk::prelude::*;

/// The all-ones majority workload at `(n, k, t)`, regime still open.
fn majority(n: usize, k: usize, t: usize) -> CheapTalk {
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(k, t)
        .inputs(vec![vec![Fp::ONE]; n])
}

#[test]
fn theorem_4_1_exact_threshold_accepted_and_below_rejected() {
    for f in 1..=2usize {
        // n = 4f + 1 accepted, by the builder and by the engine under it...
        let plan = majority(4 * f + 1, f, 0).build().expect("n = 4f + 1");
        assert_eq!(plan.spec().f(), f);
        plan.spec()
            .mpc_config()
            .validate(plan.spec().circuit.inputs_per_player());
        // ... n = 4f rejected by the builder with the typed threshold...
        let err = majority(4 * f, f, 0).build().expect_err("n = 4f");
        assert_eq!(
            err,
            ScenarioError::Threshold {
                theorem: Theorem::Robust41,
                n: 4 * f,
                k: f,
                t: 0
            }
        );
        // ... and, past the explicit hatch, by the engine itself (the OEC
        // liveness bound fails).
        let low = majority(4 * f, f, 0)
            .allow_sub_threshold()
            .build()
            .expect("the hatch waives the theorem check");
        let res = std::panic::catch_unwind(|| {
            low.spec()
                .mpc_config()
                .validate(low.spec().circuit.inputs_per_player())
        });
        assert!(res.is_err(), "n = 4f must be rejected (f = {f})");
    }
}

#[test]
fn theorem_4_1_tolerates_f_mixed_faults_at_threshold() {
    // n = 4f+1 with f = k+t = 2: one silent + one lying player.
    let n = 9;
    let silent = Behavior {
        silent: true,
        ..Behavior::default()
    };
    let liar = Behavior {
        lie_in_opens: true,
        ..Behavior::default()
    };
    let out = majority(n, 1, 1)
        .deviant(0, silent)
        .deviant(1, liar)
        .max_steps(20_000_000)
        .build()
        .expect("9 > 8")
        .run_with(&SchedulerKind::Random, 5);
    for p in 2..n {
        assert_eq!(out.moves[p], Some(1), "player {p}");
    }
}

#[test]
fn theorem_4_2_threshold_n_3f_plus_1_runs() {
    let n = 4; // f = 1
    let out = majority(n, 0, 1)
        .epsilon(2)
        .build()
        .expect("4 > 3")
        .run_with(&SchedulerKind::Random, 9);
    assert_eq!(out.resolve_default(&vec![0; n]), vec![1; n]);
}

#[test]
fn theorem_4_4_crash_cannot_split_honest_players() {
    let n = 6;
    let plan = majority(n, 1, 0).wills(vec![5; n]).build().expect("6 > 3");
    for seed in 0..8u64 {
        let crash = Behavior {
            crash_after_sends: Some(25 + 10 * seed),
            ..Behavior::default()
        };
        let out = plan
            .clone()
            .with_deviant(2, crash)
            .run_with(&SchedulerKind::Random, seed);
        let honest: Vec<bool> = (0..n)
            .filter(|&p| p != 2)
            .map(|p| out.moves[p].is_some())
            .collect();
        assert!(
            honest.iter().all(|&b| b) || honest.iter().all(|&b| !b),
            "cotermination violated at seed {seed}: {honest:?}"
        );
    }
}

#[test]
fn theorem_4_5_runs_at_2k_3t_plus_1() {
    let (k, t) = (1usize, 1usize);
    let n = 2 * k + 3 * t + 1; // 6
    let out = majority(n, k, t)
        .epsilon(2)
        .wills(vec![5; n])
        .build()
        .expect("6 > 5")
        .run_with(&SchedulerKind::Random, 11);
    let moves = out.resolve_default(&vec![0; n]);
    assert_eq!(moves, vec![1; n]);
}

#[test]
fn combined_adversary_deviator_plus_colluding_scheduler() {
    // Proposition 6.2: the malicious players and the environment may be
    // treated as one coordinated adversary. Pair every deviation in the
    // battery with the scheduler that most favours it (starving the honest
    // player the deviator targets): the robust protocol must still deliver
    // the right outcome to everyone who moves.
    let n = 5;
    let plan = majority(n, 1, 0)
        .max_steps(20_000_000)
        .build()
        .expect("5 > 4");
    for (deviator, victim) in [(0usize, 1usize), (2, 3)] {
        for behavior in [
            Behavior {
                silent: true,
                ..Behavior::default()
            },
            Behavior {
                lie_in_opens: true,
                ..Behavior::default()
            },
        ] {
            let kind = SchedulerKind::TargetedDelay(vec![victim]);
            let out = plan
                .clone()
                .with_deviant(deviator, behavior)
                .run_with(&kind, 13);
            for p in 0..n {
                if p != deviator {
                    assert_eq!(
                        out.moves[p],
                        Some(1),
                        "player {p} (deviator {deviator}, starved {victim})"
                    );
                }
            }
        }
    }
}

#[test]
fn adversarial_schedulers_do_not_change_the_robust_outcome() {
    let n = 5;
    let plan = majority(n, 1, 0)
        .max_steps(20_000_000)
        .build()
        .expect("5 > 4");
    for kind in SchedulerKind::battery(n) {
        let out = plan.run_with(&kind, 3);
        assert_eq!(
            out.resolve_default(&vec![0; n]),
            vec![1; n],
            "scheduler {kind:?}"
        );
    }
}
