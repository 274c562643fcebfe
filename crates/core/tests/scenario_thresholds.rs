//! Property tests: the `Scenario` builder accepts exactly the `(n, k, t)`
//! triples satisfying each theorem's resilience bound — 4.1: `n > 4k+4t`,
//! 4.2: `n > 3k+3t`, 4.4: `n > 3k+4t`, 4.5: `n > 2k+3t` — and returns the
//! typed [`ScenarioError::Threshold`] (never a panic) otherwise. The
//! `allow_sub_threshold()` escape hatch waives exactly the theorem check
//! (the frontier atlas builds its below-boundary cells through it) while
//! `k + t < n` stays enforced. What a hatch-built plan does when *run* is
//! pinned per theorem at the end: the ε engines carry their own, weaker
//! bound and run to a typed `TerminationKind`; the robust engine's bound
//! *is* Theorem 4.1's, so 4.1 and 4.4 plans are refused by the engine's
//! own assertion — the hatch waives the builder's check, nothing below it.
//! A deviant whose input lie has the wrong arity is refused the same way,
//! with a typed error before any engine starts. Last, one table runs both
//! game families through every rejection their builders share and pins
//! the same [`ScenarioError`] from each.

use mediator_circuits::catalog;
use mediator_core::deviations::{Behavior, SilentProcess};
use mediator_core::scenario::{CheapTalkPlan, Scenario, ScenarioError, Theorem};
use mediator_field::Fp;
use mediator_mpc::Mode;
use mediator_sim::{SchedulerKind, TerminationKind};
use proptest::prelude::*;

/// Builds a majority-circuit cheap-talk scenario (all-ones votes) in the
/// given regime. `hatch` engages `allow_sub_threshold()`.
fn build_with(
    theorem: Theorem,
    n: usize,
    k: usize,
    t: usize,
    hatch: bool,
) -> Result<CheapTalkPlan, ScenarioError> {
    let mut builder = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(k, t)
        .inputs(vec![vec![Fp::ONE]; n]);
    builder = match theorem {
        Theorem::Robust41 => builder,
        Theorem::Epsilon42 => builder.epsilon(2),
        Theorem::Punishment44 => builder.wills(vec![5; n]),
        Theorem::EpsilonPunishment45 => builder.epsilon(2).wills(vec![5; n]),
    };
    if hatch {
        builder = builder.allow_sub_threshold();
    }
    assert_eq!(builder.selected_theorem(), theorem);
    builder.build()
}

/// The builder verdict alone.
fn try_build_with(
    theorem: Theorem,
    n: usize,
    k: usize,
    t: usize,
    hatch: bool,
) -> Result<(), ScenarioError> {
    build_with(theorem, n, k, t, hatch).map(|_| ())
}

fn try_build(theorem: Theorem, n: usize, k: usize, t: usize) -> Result<(), ScenarioError> {
    try_build_with(theorem, n, k, t, false)
}

/// The oracle each proptest checks the builder against.
fn bound_of(theorem: Theorem, k: usize, t: usize) -> usize {
    match theorem {
        Theorem::Robust41 => 4 * k + 4 * t,
        Theorem::Epsilon42 => 3 * k + 3 * t,
        Theorem::Punishment44 => 3 * k + 4 * t,
        Theorem::EpsilonPunishment45 => 2 * k + 3 * t,
    }
}

fn assert_exact_threshold(theorem: Theorem, n: usize, k: usize, t: usize) {
    let verdict = try_build(theorem, n, k, t);
    if n > bound_of(theorem, k, t) {
        assert!(
            verdict.is_ok(),
            "{theorem} must accept n = {n}, k = {k}, t = {t}: {verdict:?}"
        );
    } else {
        match verdict {
            Err(ScenarioError::Threshold {
                theorem: reported,
                n: rn,
                k: rk,
                t: rt,
            }) => {
                assert_eq!((reported, rn, rk, rt), (theorem, n, k, t));
            }
            other => panic!("{theorem} must reject n = {n}, k = {k}, t = {t}: {other:?}"),
        }
    }
}

proptest! {
    #[test]
    fn theorem_4_1_accepts_exactly_n_above_4k_4t(n in 1usize..28, k in 0usize..4, t in 0usize..4) {
        assert_exact_threshold(Theorem::Robust41, n, k, t);
    }

    #[test]
    fn theorem_4_2_accepts_exactly_n_above_3k_3t(n in 1usize..28, k in 0usize..4, t in 0usize..4) {
        assert_exact_threshold(Theorem::Epsilon42, n, k, t);
    }

    #[test]
    fn theorem_4_4_accepts_exactly_n_above_3k_4t(n in 1usize..28, k in 0usize..4, t in 0usize..4) {
        assert_exact_threshold(Theorem::Punishment44, n, k, t);
    }

    #[test]
    fn theorem_4_5_accepts_exactly_n_above_2k_3t(n in 1usize..28, k in 0usize..4, t in 0usize..4) {
        assert_exact_threshold(Theorem::EpsilonPunishment45, n, k, t);
    }

    #[test]
    fn rejections_carry_the_least_admissible_n(k in 0usize..5, t in 0usize..5) {
        // At exactly the bound the builder rejects and reports the fix.
        for theorem in [
            Theorem::Robust41,
            Theorem::Epsilon42,
            Theorem::Punishment44,
            Theorem::EpsilonPunishment45,
        ] {
            let bound = bound_of(theorem, k, t);
            if bound == 0 {
                continue; // k = t = 0: every n ≥ 1 is admissible
            }
            let err = try_build(theorem, bound, k, t).expect_err("n = bound violates n > bound");
            prop_assert_eq!(err.required_n(), Some(bound + 1));
            // One more player satisfies the theorem.
            prop_assert!(try_build(theorem, bound + 1, k, t).is_ok());
        }
    }

    #[test]
    fn the_escape_hatch_waives_exactly_the_theorem_check(
        n in 1usize..20,
        k in 0usize..4,
        t in 0usize..4,
    ) {
        // With `allow_sub_threshold()` the build verdict depends only on
        // the basic sanity bound: a sharing degree of k + t needs strictly
        // more than k + t evaluation points, theorem or no theorem.
        for theorem in [
            Theorem::Robust41,
            Theorem::Epsilon42,
            Theorem::Punishment44,
            Theorem::EpsilonPunishment45,
        ] {
            let verdict = try_build_with(theorem, n, k, t, true);
            if k + t < n {
                prop_assert!(
                    verdict.is_ok(),
                    "hatch must build {theorem} at n = {n}, k = {k}, t = {t}: {verdict:?}"
                );
            } else {
                prop_assert_eq!(
                    verdict,
                    Err(ScenarioError::ToleranceTooLarge { n, k, t }),
                    "hatch must still reject k + t ≥ n"
                );
            }
        }
    }
}

#[test]
fn the_sec64_point_is_rejected_strictly_and_built_by_the_hatch() {
    // The §6.4 frontier cell: n = 7 ≤ 4k + 4t = 8 under Theorem 4.1. The
    // strict builder names the least admissible n; the hatch constructs
    // the very same point for the atlas's below-boundary experiments.
    let err = try_build(Theorem::Robust41, 7, 2, 0).expect_err("7 ≤ 8");
    assert_eq!(err.required_n(), Some(9));
    assert!(try_build_with(Theorem::Robust41, 7, 2, 0, true).is_ok());
}

#[test]
fn the_hatch_is_a_no_op_above_the_boundary() {
    // Admitted points build identically with or without the hatch.
    assert!(try_build(Theorem::Robust41, 9, 2, 0).is_ok());
    assert!(try_build_with(Theorem::Robust41, 9, 2, 0, true).is_ok());
}

/// Runs a hatch-built plan at a point its theorem rejects.
fn run_sub_threshold(theorem: Theorem, n: usize, k: usize, t: usize) -> mediator_sim::Outcome {
    assert!(!theorem.admits(n, k, t), "the point must be sub-threshold");
    build_with(theorem, n, k, t, true)
        .expect("the hatch builds it")
        .run_with(&SchedulerKind::Random, 1)
}

#[test]
#[should_panic(expected = "robust MPC requires n > 4f")]
fn a_hatch_built_4_1_plan_is_refused_by_the_robust_engine() {
    run_sub_threshold(Theorem::Robust41, 4, 1, 0);
}

#[test]
fn a_hatch_built_4_2_plan_runs_to_quiescence_when_nobody_deviates() {
    // n = 6 = 3k: the ε engine only needs n > f + 2 = 4, and with no
    // deviator to exploit the missing margin everyone decodes the majority.
    let out = run_sub_threshold(Theorem::Epsilon42, 6, 2, 0);
    assert_eq!(out.termination, TerminationKind::Quiescent);
    assert_eq!(out.moves, vec![Some(1); 6]);
}

#[test]
#[should_panic(expected = "robust MPC requires n > 4f")]
fn a_hatch_built_4_4_plan_is_refused_by_the_robust_engine() {
    run_sub_threshold(Theorem::Punishment44, 3, 1, 0);
}

#[test]
fn a_hatch_built_4_5_plan_ends_typed_and_coterminated() {
    // n = 5 = 2k + 3t: whatever the detection layer decides, the run must
    // end — not spin out its budget — and end all-or-none.
    let out = run_sub_threshold(Theorem::EpsilonPunishment45, 5, 1, 1);
    assert_ne!(out.termination, TerminationKind::BudgetExhausted);
    let moved = out.moves.iter().filter(|m| m.is_some()).count();
    assert!(moved == 0 || moved == 5, "mixed ending: {:?}", out.moves);
}

#[test]
fn a_wrong_arity_input_lie_is_refused_before_any_engine_starts() {
    // The §6.4 circuit takes no private input, so a one-element lie
    // would trip the engine's arity assert at the first run.
    let lie = |len| Behavior {
        input_override: Some(vec![Fp::ONE; len]),
        ..Behavior::default()
    };
    let err = Scenario::cheap_talk(catalog::counterexample_minfo(7))
        .players(7)
        .tolerance(1, 0)
        .deviant(3, lie(1))
        .build()
        .expect_err("a lie longer than the player's inputs");
    assert_eq!(
        err,
        ScenarioError::ArityMismatch {
            what: "deviant input",
            expected: 0,
            got: 1
        }
    );
    // The built plan checks the same way, and the right length passes.
    let plan = build_with(Theorem::Robust41, 5, 1, 0, false).expect("5 > 4");
    assert_eq!(
        plan.clone().with_deviant(2, lie(3)).err(),
        Some(ScenarioError::ArityMismatch {
            what: "deviant input",
            expected: 1,
            got: 3
        })
    );
    assert!(plan.clone().with_deviant(2, lie(1)).is_ok());
    assert_eq!(
        plan.with_deviant(5, Behavior::default()).err(),
        Some(ScenarioError::PlayerOutOfRange {
            what: "deviant",
            player: 5,
            n: 5
        })
    );
}

// ---------------------------------------------------------------------------
// The shared builder validation: one table, both game families
// ---------------------------------------------------------------------------

const N: usize = 5;

/// One misconfiguration of a well-formed `n = 5` majority scenario, which
/// both builders reject through the same validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Misstep {
    NoPlayers,
    CircuitPlayers,
    DefaultsLength,
    DefaultArity,
    InputsLength,
    InputOutOfRange,
    InputArity,
    DeviantOutOfRange,
}

impl Misstep {
    const ALL: [Misstep; 8] = [
        Misstep::NoPlayers,
        Misstep::CircuitPlayers,
        Misstep::DefaultsLength,
        Misstep::DefaultArity,
        Misstep::InputsLength,
        Misstep::InputOutOfRange,
        Misstep::InputArity,
        Misstep::DeviantOutOfRange,
    ];

    fn circuit(self) -> mediator_circuits::Circuit {
        let players = if self == Misstep::CircuitPlayers {
            N + 1
        } else {
            N
        };
        catalog::majority_circuit(players)
    }

    fn expected(self) -> ScenarioError {
        let arity = |what, expected, got| ScenarioError::ArityMismatch {
            what,
            expected,
            got,
        };
        match self {
            Misstep::NoPlayers => ScenarioError::NoPlayers,
            Misstep::CircuitPlayers => arity("circuit players", N, N + 1),
            Misstep::DefaultsLength => arity("default inputs", N, N - 1),
            Misstep::DefaultArity => arity("default input arity", 1, 2),
            Misstep::InputsLength => arity("inputs", N, N - 1),
            Misstep::InputOutOfRange => ScenarioError::PlayerOutOfRange {
                what: "input",
                player: N + 2,
                n: N,
            },
            Misstep::InputArity => arity("player input arity", 1, 2),
            Misstep::DeviantOutOfRange => ScenarioError::PlayerOutOfRange {
                what: "deviant",
                player: N + 2,
                n: N,
            },
        }
    }
}

/// Applies `step` to a fresh builder of either family (the two builders
/// share these setter names) and returns the build verdict.
macro_rules! misconfigured {
    ($builder:expr, $step:expr, $deviant:expr) => {{
        let step: Misstep = $step;
        let mut b = $builder.tolerance(1, 0).inputs(vec![vec![Fp::ONE]; N]);
        if step != Misstep::NoPlayers {
            b = b.players(N);
        }
        match step {
            Misstep::DefaultsLength => b = b.default_inputs(vec![vec![Fp::ZERO]; N - 1]),
            Misstep::DefaultArity => b = b.default_inputs(vec![vec![Fp::ZERO; 2]; N]),
            Misstep::InputsLength => b = b.inputs(vec![vec![Fp::ONE]; N - 1]),
            Misstep::InputOutOfRange => b = b.input(N + 2, vec![Fp::ONE]),
            Misstep::InputArity => b = b.input(0, vec![Fp::ONE; 2]),
            Misstep::DeviantOutOfRange => b = b.deviant(N + 2, $deviant),
            Misstep::NoPlayers | Misstep::CircuitPlayers => {}
        }
        b.build().map(|_| ())
    }};
}

#[test]
fn both_families_reject_each_shared_misstep_with_the_same_error() {
    for step in Misstep::ALL {
        let cheap_talk = misconfigured!(
            Scenario::cheap_talk(step.circuit()),
            step,
            Behavior::default()
        );
        let mediator = misconfigured!(Scenario::mediator(step.circuit()), step, || {
            Box::new(SilentProcess)
        });
        assert_eq!(cheap_talk, Err(step.expected()), "cheap talk, {step:?}");
        assert_eq!(mediator, Err(step.expected()), "mediator, {step:?}");
    }
}

#[test]
fn a_default_of_the_wrong_arity_is_refused_at_build_not_in_the_engine() {
    // Defaults that do not fit the circuit used to build fine and panic
    // at the first run: in the MPC engine's configuration for cheap talk,
    // in the circuit evaluator for the mediator, even when every player's
    // own input matched the defaults.
    let two = || vec![vec![Fp::ZERO; 2]; N];
    let expected = Err(Misstep::DefaultArity.expected());
    let cheap_talk = Scenario::cheap_talk(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .default_inputs(two())
        .build();
    assert_eq!(cheap_talk.map(|_| ()), expected);
    let mediator = Scenario::mediator(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE; 2]; N])
        .default_inputs(two())
        .build();
    assert_eq!(mediator.map(|_| ()), expected);
}

#[test]
fn a_built_plan_of_either_family_refuses_an_out_of_range_deviant() {
    let out_of_range = Some(Misstep::DeviantOutOfRange.expected());
    let cheap_talk = build_with(Theorem::Robust41, N, 1, 0, false).expect("5 > 4");
    assert_eq!(
        cheap_talk.with_deviant(N + 2, Behavior::default()).err(),
        out_of_range
    );
    let mediator = Scenario::mediator(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .build()
        .expect("k + t < n");
    assert!(mediator
        .clone()
        .with_deviant(N - 1, || Box::new(SilentProcess))
        .is_ok());
    assert_eq!(
        mediator
            .with_deviant(N + 2, || Box::new(SilentProcess))
            .err(),
        out_of_range
    );
}

// ---------------------------------------------------------------------------
// The cheap-talk knobs, as the engine configuration carries them
// ---------------------------------------------------------------------------

#[test]
fn each_cheap_talk_knob_reaches_the_engine_config() {
    // `(n, k, t, ε-mode t)`: the ε engine decodes against
    // `t.max(1).min(f.max(1))` lying players, so `t = 0` still asks for
    // one and `f = 0` caps it there; the robust engine corrects `t = f`.
    let points = [(5, 1, 0, 1), (9, 1, 1, 1), (9, 0, 2, 2), (3, 0, 0, 1)];
    for (row, &(n, k, t, eps_t)) in points.iter().enumerate() {
        for kappa in [None, Some(3)] {
            for wills in [false, true] {
                let coin_seed = 0xC0FFEE + row as u64;
                let defaults: Vec<Vec<Fp>> = (0..n).map(|p| vec![Fp::new(p as u64 % 2)]).collect();
                let mut builder = Scenario::cheap_talk(catalog::majority_circuit(n))
                    .players(n)
                    .tolerance(k, t)
                    .coin_seed(coin_seed)
                    .default_inputs(defaults.clone());
                if let Some(kappa) = kappa {
                    builder = builder.epsilon(kappa);
                }
                if wills {
                    builder = builder.wills(vec![4; n]);
                }
                let theorem = match (kappa.is_some(), wills) {
                    (false, false) => Theorem::Robust41,
                    (true, false) => Theorem::Epsilon42,
                    (false, true) => Theorem::Punishment44,
                    (true, true) => Theorem::EpsilonPunishment45,
                };
                let case = format!("n = {n}, k = {k}, t = {t}, κ = {kappa:?}, wills = {wills}");
                assert_eq!(builder.selected_theorem(), theorem, "{case}");
                let plan = builder.build().unwrap_or_else(|e| panic!("{case}: {e}"));
                let spec = plan.spec();
                let mpc = spec.mpc_config();
                let (mode, engine_t) = match kappa {
                    None => (Mode::Robust, k + t),
                    Some(kappa) => (Mode::Epsilon { kappa }, eps_t),
                };
                assert_eq!(mpc.mode, mode, "{case}");
                assert_eq!(mpc.n, n, "{case}");
                assert_eq!(mpc.f, k + t, "{case}");
                assert_eq!(mpc.t, engine_t, "{case}");
                assert_eq!(mpc.coin_seed, coin_seed, "{case}");
                assert_eq!(mpc.defaults, defaults, "{case}");
                assert_eq!(spec.punishment, wills.then(|| vec![4; n]), "{case}");
            }
        }
    }
}

#[test]
fn an_epsilon_engine_without_a_check_is_refused_at_build() {
    // `.epsilon(0)` asks the ε engine for zero cut-and-choose checks per
    // dealer, which it cannot run: the builder refuses it instead of
    // handing out a plan that panics at its first run.
    for wills in [false, true] {
        let mut builder = Scenario::cheap_talk(catalog::majority_circuit(5))
            .players(5)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; 5])
            .epsilon(0);
        if wills {
            builder = builder.wills(vec![5; 5]);
        }
        assert_eq!(
            builder.build().map(|_| ()),
            Err(ScenarioError::NoCutAndChooseCheck),
            "wills = {wills}"
        );
    }
}
