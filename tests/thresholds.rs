//! Integration: the resilience thresholds of Theorems 4.1–4.5, end to end.

use mediator_talk::circuits::catalog;
use mediator_talk::core::deviations::Behavior;
use mediator_talk::core::{CheapTalkPlan, CheapTalkSpec};
use mediator_talk::field::Fp;
use mediator_talk::sim::SchedulerKind;

fn ones(n: usize) -> Vec<Vec<Fp>> {
    vec![vec![Fp::ONE]; n]
}

#[test]
fn theorem_4_1_exact_threshold_accepted_and_below_rejected() {
    for f in 1..=2usize {
        // n = 4f + 1 accepted...
        let spec = CheapTalkSpec::theorem_4_1(
            4 * f + 1,
            f,
            0,
            catalog::majority_circuit(4 * f + 1),
            vec![vec![Fp::ZERO]; 4 * f + 1],
            vec![0; 4 * f + 1],
        );
        assert_eq!(spec.f(), f);
        spec.mpc_config().validate(spec.circuit.inputs_per_player());
        // ... n = 4f rejected (the OEC liveness bound fails).
        let spec_low = CheapTalkSpec::theorem_4_1(
            4 * f,
            f,
            0,
            catalog::majority_circuit(4 * f),
            vec![vec![Fp::ZERO]; 4 * f],
            vec![0; 4 * f],
        );
        let res = std::panic::catch_unwind(|| {
            spec_low
                .mpc_config()
                .validate(spec_low.circuit.inputs_per_player())
        });
        assert!(res.is_err(), "n = 4f must be rejected (f = {f})");
    }
}

#[test]
fn theorem_4_1_tolerates_f_mixed_faults_at_threshold() {
    // n = 4f+1 with f = k+t = 2: one silent + one lying player.
    let n = 9;
    let spec = CheapTalkSpec::theorem_4_1(
        n,
        1,
        1,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![0; n],
    );
    let silent = Behavior {
        silent: true,
        ..Behavior::default()
    };
    let liar = Behavior {
        lie_in_opens: true,
        ..Behavior::default()
    };
    let out = CheapTalkPlan::from_spec(spec, ones(n))
        .with_deviant(0, silent)
        .with_deviant(1, liar)
        .max_steps(20_000_000)
        .run_with(&SchedulerKind::Random, 5);
    for p in 2..n {
        assert_eq!(out.moves[p], Some(1), "player {p}");
    }
}

#[test]
fn theorem_4_2_threshold_n_3f_plus_1_runs() {
    let n = 4; // f = 1
    let spec = CheapTalkSpec::theorem_4_2(
        n,
        0,
        1,
        2,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![0; n],
    );
    let out = CheapTalkPlan::from_spec(spec, ones(n)).run_with(&SchedulerKind::Random, 9);
    assert_eq!(out.resolve_default(&vec![0; n]), vec![1; n]);
}

#[test]
fn theorem_4_4_crash_cannot_split_honest_players() {
    let n = 6;
    let spec = CheapTalkSpec::theorem_4_4(
        n,
        1,
        0,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![5; n],
        vec![0; n],
    );
    let plan = CheapTalkPlan::from_spec(spec, ones(n));
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
    let spec = CheapTalkSpec::theorem_4_5(
        n,
        k,
        t,
        2,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![5; n],
        vec![0; n],
    );
    let out = CheapTalkPlan::from_spec(spec, ones(n)).run_with(&SchedulerKind::Random, 11);
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
    let spec = CheapTalkSpec::theorem_4_1(
        n,
        1,
        0,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![0; n],
    );
    let plan = CheapTalkPlan::from_spec(spec, ones(n)).max_steps(20_000_000);
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
    let spec = CheapTalkSpec::theorem_4_1(
        n,
        1,
        0,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
        vec![0; n],
    );
    let plan = CheapTalkPlan::from_spec(spec, ones(n)).max_steps(20_000_000);
    for kind in SchedulerKind::battery(n) {
        let out = plan.run_with(&kind, 3);
        assert_eq!(
            out.resolve_default(&vec![0; n]),
            vec![1; n],
            "scheduler {kind:?}"
        );
    }
}
