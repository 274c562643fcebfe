//! Parity suite: every way of reaching a run produces the **byte-identical**
//! `Outcome` for a fixed `(scheduler, seed)` pair — pinned through
//! `Outcome::fingerprint()`, which hashes the full message pattern, moves,
//! wills, halted flags, counters and termination.
//!
//! Pins: hand-built spec (`from_spec`) vs the validated `Scenario` builder
//! for the cheap-talk plan, the mediator plan and `run_relaxed`;
//! session-vs-closed-loop; batch-vs-individual and thread-count invariance
//! of `run_batch`; `Machines::run` vs a stepped `Machines::session`.

use mediator_talk::core::deviations::SilentProcess;
use mediator_talk::prelude::*;

const N: usize = 5;
const SEEDS: std::ops::Range<u64> = 0..3;

fn ct_inputs() -> Vec<Vec<Fp>> {
    [1u64, 0, 1, 1, 0]
        .iter()
        .map(|&v| vec![Fp::new(v)])
        .collect()
}

fn ct_plan(behaviors: &[(usize, Behavior)]) -> CheapTalkPlan {
    let mut b = Scenario::cheap_talk(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(ct_inputs())
        .max_steps(2_000_000);
    for (p, beh) in behaviors {
        b = b.deviant(*p, beh.clone());
    }
    b.build().expect("5 > 4")
}

fn ct_spec() -> CheapTalkSpec {
    CheapTalkSpec::theorem_4_1(
        N,
        1,
        0,
        catalog::majority_circuit(N),
        vec![vec![Fp::ZERO]; N],
        vec![0; N],
    )
}

fn assert_same_runs(
    what: &str,
    kinds: Vec<SchedulerKind>,
    a: impl Fn(&SchedulerKind, u64) -> Outcome,
    b: impl Fn(&SchedulerKind, u64) -> Outcome,
) {
    for kind in kinds {
        for seed in SEEDS {
            assert_eq!(
                a(&kind, seed).fingerprint(),
                b(&kind, seed).fingerprint(),
                "{what}: {kind:?} seed {seed}"
            );
        }
    }
}

#[test]
fn cheap_talk_from_spec_matches_builder_across_battery() {
    let spec_plan = CheapTalkPlan::from_spec(ct_spec(), ct_inputs()).max_steps(2_000_000);
    let built = ct_plan(&[]);
    assert_same_runs(
        "honest",
        SchedulerKind::battery(N),
        |k, s| spec_plan.run_with(k, s),
        |k, s| built.run_with(k, s),
    );
    // One more input: a deviant registered on the plan vs on the builder.
    let liar = Behavior {
        lie_in_opens: true,
        ..Behavior::default()
    };
    let spec_plan = spec_plan.with_deviant(2, liar.clone());
    let built = ct_plan(&[(2, liar)]);
    assert_same_runs(
        "opening liar",
        vec![SchedulerKind::Random, SchedulerKind::Lifo],
        |k, s| spec_plan.run_with(k, s),
        |k, s| built.run_with(k, s),
    );
}

fn med_plan() -> MediatorPlan {
    Scenario::mediator(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .max_steps(100_000)
        .build()
        .expect("n − k − t ≥ 1")
}

fn med_spec_plan(wills: Option<Vec<u64>>) -> MediatorPlan {
    let mut spec = MediatorGameSpec::standard(
        N,
        1,
        0,
        catalog::majority_circuit(N),
        vec![vec![Fp::ZERO]; N],
    );
    spec.wills = wills;
    MediatorPlan::from_spec(spec, vec![vec![Fp::ONE]; N]).max_steps(100_000)
}

#[test]
fn mediator_from_spec_matches_builder_across_battery() {
    let (spec_plan, built) = (med_spec_plan(None), med_plan());
    assert_same_runs(
        "honest",
        SchedulerKind::battery(N),
        |k, s| spec_plan.run_with(k, s),
        |k, s| built.run_with(k, s),
    );
    // One more input: a deviant process registered on the plan vs on the
    // builder.
    let spec_plan = spec_plan.with_deviant(2, || Box::new(SilentProcess));
    let built = Scenario::mediator(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .deviant(2, || Box::new(SilentProcess))
        .max_steps(100_000)
        .build()
        .expect("n − k − t ≥ 1");
    assert_same_runs(
        "silent player",
        vec![SchedulerKind::Random],
        |k, s| spec_plan.run_with(k, s),
        |k, s| built.run_with(k, s),
    );
}

#[test]
fn relaxed_from_spec_matches_builder() {
    let spec_plan = med_spec_plan(Some(vec![7; N]));
    let built = Scenario::mediator(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .wills(vec![7; N])
        .max_steps(100_000)
        .build()
        .expect("n − k − t ≥ 1");
    let drop_after = N as u64 + 1;
    for seed in SEEDS {
        let (a, b) = (
            spec_plan.run_relaxed(drop_after, seed),
            built.run_relaxed(drop_after, seed),
        );
        assert!(a.trace.dropped_count() > 0, "the blackout must bite");
        assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed}");
    }
}

#[test]
fn session_matches_closed_loop_for_both_game_kinds() {
    let plan = ct_plan(&[]);
    for kind in [SchedulerKind::Random, SchedulerKind::Fifo] {
        let closed = plan.run_with(&kind, 1);
        let open = plan.session_with(&kind, 1).finish();
        assert_eq!(
            open.fingerprint(),
            closed.fingerprint(),
            "cheap talk {kind:?}"
        );
    }
    let plan = med_plan();
    for kind in [SchedulerKind::Random, SchedulerKind::Lifo] {
        let closed = plan.run_with(&kind, 1);
        let open = plan.session_with(&kind, 1).finish();
        assert_eq!(
            open.fingerprint(),
            closed.fingerprint(),
            "mediator {kind:?}"
        );
    }
}

#[test]
fn batch_matches_individual_runs_and_is_thread_invariant() {
    let plan = ct_plan(&[]);
    let kinds = vec![SchedulerKind::Random, SchedulerKind::Lifo];
    let sequential = plan
        .battery(kinds.clone())
        .seeds(SEEDS)
        .threads(1)
        .run_batch();
    let parallel = plan
        .battery(kinds.clone())
        .seeds(SEEDS)
        .threads(4)
        .run_batch();
    assert_eq!(sequential.len(), kinds.len() * SEEDS.count());
    for (s, p) in sequential.runs().iter().zip(parallel.runs()) {
        assert_eq!(s.kind, p.kind);
        assert_eq!(s.seed, p.seed);
        assert_eq!(
            s.outcome.fingerprint(),
            p.outcome.fingerprint(),
            "{:?} seed {}",
            s.kind,
            s.seed
        );
        let individual = plan.run_with(&s.kind, s.seed);
        assert_eq!(
            s.outcome.fingerprint(),
            individual.fingerprint(),
            "batch cell must equal a lone run ({:?} seed {})",
            s.kind,
            s.seed
        );
    }
}

#[test]
fn machines_run_matches_stepped_session() {
    use mediator_talk::bcast::RbcPeer;
    use mediator_talk::sim::Machines;
    let mk = || -> Vec<RbcPeer<u64>> {
        (0..4)
            .map(|me| RbcPeer::new(4, 1, 0, me, (me == 0).then_some(42)))
            .collect()
    };
    for seed in SEEDS {
        let (closed, closed_out) =
            Machines::new(mk()).run(SchedulerKind::Random.build().as_mut(), seed, 100_000);
        // The steppable variant drains to the same outcome.
        let (session, outputs) =
            Machines::new(mk()).session(SchedulerKind::Random.build(), seed, 100_000);
        let stepped = session.finish();
        assert_eq!(closed.fingerprint(), stepped.fingerprint(), "seed {seed}");
        assert_eq!(outputs.take(), closed_out);
    }
}
