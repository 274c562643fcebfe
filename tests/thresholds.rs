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

fn silent() -> Behavior {
    Deviation::named("silent").silent().build().1
}

fn liar() -> Behavior {
    Deviation::named("liar").lie_in_opens().build().1
}

fn crash_after(sends: u64) -> Behavior {
    Deviation::named("crash").crash_after(sends).build().1
}

/// Cotermination: the honest players (everyone but `deviant`) all moved or
/// none did.
fn assert_all_or_none(out: &Outcome, n: usize, deviant: usize, label: &str) {
    let moved: Vec<bool> = (0..n)
        .filter(|&p| p != deviant)
        .map(|p| out.moves[p].is_some())
        .collect();
    assert!(
        moved.iter().all(|&b| b) || moved.iter().all(|&b| !b),
        "cotermination violated at {label}: {moved:?}"
    );
}

#[test]
fn theorem_4_1_tolerates_f_mixed_faults_at_threshold() {
    // n = 4f + 1 and 4f + 3 with f = k + t deviators: all silent, all lying
    // in their openings, and at f = 2 one of each — the honest players
    // still play the majority.
    for (n, k, t) in [(5, 0, 1), (7, 1, 0), (7, 0, 1), (9, 1, 1), (11, 1, 1)] {
        let f = k + t;
        let mut mixes = vec![vec![silent(); f], vec![liar(); f]];
        if f == 2 {
            mixes.push(vec![silent(), liar()]);
        }
        for faults in mixes {
            let mut scenario = majority(n, k, t).max_steps(20_000_000);
            for (p, behavior) in faults.iter().enumerate() {
                scenario = scenario.deviant(p, behavior.clone());
            }
            let plan = scenario.build().expect("n > 4k + 4t");
            for seed in 0..8 {
                let out = plan.run_with(&SchedulerKind::Random, seed);
                for p in f..n {
                    assert_eq!(out.moves[p], Some(1), "player {p}, n = {n}, {faults:?}");
                }
            }
        }
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

    for (n, k, t) in [(4, 0, 1), (7, 1, 1)] {
        let plan = majority(n, k, t).epsilon(3).build().expect("n = 3f + 1");
        for seed in 0..8 {
            // An active lie is detected, never accepted: an honest player
            // moves the true value or falls back to its default 0.
            let lied = plan
                .clone()
                .with_deviant(0, liar())
                .expect("a valid deviant")
                .run_with(&SchedulerKind::Random, seed);
            for p in 1..n {
                assert!(
                    matches!(lied.moves[p], None | Some(0) | Some(1)),
                    "n = {n} seed {seed}: player {p} accepted {:?}",
                    lied.moves[p]
                );
            }
            let muted = plan
                .clone()
                .with_deviant(0, silent())
                .expect("a valid deviant")
                .run_with(&SchedulerKind::Random, seed);
            if k >= t {
                // The margin covers one silent player.
                for p in 1..n {
                    assert_eq!(muted.moves[p], Some(1), "n = {n} seed {seed}");
                }
            } else {
                // DESIGN §3 (ROADMAP item 6(c)): with k < t the degree-2f
                // openings need all n points, so a silent player stalls
                // them. Detect-and-abort gives no output here — nobody
                // moves — but the run still ends on its own.
                assert_eq!(muted.moves[1..n], vec![None; n - 1], "seed {seed}");
                assert_eq!(muted.termination, TerminationKind::Deadlock);
            }
        }
    }
}

#[test]
fn theorem_4_4_crash_cannot_split_honest_players() {
    for (n, k, t) in [(6, 1, 0), (5, 1, 0), (9, 1, 1)] {
        let plan = majority(n, k, t)
            .wills(vec![5; n])
            .build()
            .expect("n > 3k + 4t");
        for seed in 0..8u64 {
            let out = plan
                .clone()
                .with_deviant(2, crash_after(25 + 10 * seed))
                .expect("a valid deviant")
                .run_with(&SchedulerKind::Random, seed);
            assert_all_or_none(&out, n, 2, &format!("n = {n} seed {seed}"));
        }
    }
}

#[test]
fn theorem_4_5_runs_at_2k_3t_plus_1() {
    for (n, k, t) in [(6, 1, 1), (4, 0, 1)] {
        let plan = majority(n, k, t)
            .epsilon(2)
            .wills(vec![5; n])
            .build()
            .expect("n = 2k + 3t + 1");
        let out = plan.run_with(&SchedulerKind::Random, 11);
        assert_eq!(out.resolve_default(&vec![0; n]), vec![1; n]);
        for seed in 0..8u64 {
            let out = plan
                .clone()
                .with_deviant(0, crash_after(30))
                .expect("a valid deviant")
                .run_with(&SchedulerKind::Random, seed);
            assert_all_or_none(&out, n, 0, &format!("n = {n} seed {seed}"));
        }
    }
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
        for behavior in [silent(), liar()] {
            let kind = SchedulerKind::TargetedDelay(vec![victim]);
            let out = plan
                .clone()
                .with_deviant(deviator, behavior)
                .expect("a valid deviant")
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
