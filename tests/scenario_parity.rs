//! Parity suite: every way of reaching a run produces the **byte-identical**
//! `Outcome` for a fixed `(scheduler, seed)` pair — pinned through
//! `Outcome::fingerprint()`, which hashes the full message pattern, moves,
//! wills, halted flags, counters and termination.
//!
//! Pins: session-vs-closed-loop; `run_relaxed` with a blackout that never
//! begins vs the closed loop under `Random`; batch-vs-individual and
//! thread-count invariance of `run_batch`; `Machines::run` vs a stepped
//! `Machines::session`. (There is one way to construct a plan — the
//! `Scenario` builder — so there is no construction fork to pin.)

use mediator_talk::prelude::*;

const N: usize = 5;
const SEEDS: std::ops::Range<u64> = 0..3;

fn ct_inputs() -> Vec<Vec<Fp>> {
    [1u64, 0, 1, 1, 0]
        .iter()
        .map(|&v| vec![Fp::new(v)])
        .collect()
}

fn ct_plan() -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(ct_inputs())
        .max_steps(2_000_000)
        .build()
        .expect("5 > 4")
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

#[test]
fn relaxed_run_without_a_blackout_matches_the_random_closed_loop() {
    // A relaxed scheduler picks like `Random` until its blackout begins, so
    // one that never begins must be the closed loop under `Random`, byte
    // for byte; one that does begin must actually withhold the STOP batch.
    let plan = Scenario::mediator(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .wills(vec![7; N])
        .max_steps(100_000)
        .build()
        .expect("n − k − t ≥ 1");
    for seed in SEEDS {
        let never = plan.run_relaxed(u64::MAX, seed);
        let closed = plan.run_with(&SchedulerKind::Random, seed);
        assert_eq!(never.fingerprint(), closed.fingerprint(), "seed {seed}");
        let blackout = plan.run_relaxed(N as u64 + 1, seed);
        assert!(blackout.trace.dropped_count() > 0, "the blackout must bite");
        assert_ne!(blackout.fingerprint(), closed.fingerprint(), "seed {seed}");
    }
}

#[test]
fn session_matches_closed_loop_for_both_game_kinds() {
    let plan = ct_plan();
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
    let plan = ct_plan();
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
    use mediator_talk::sim::sansio::Machines;
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
