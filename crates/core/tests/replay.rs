//! Scenario-level deterministic replay: a recorded run's trace, fed back as
//! a [`SchedulerKind::Replay`] script, re-enacts the run byte-for-byte.
//!
//! The sim crate pins replay at the `World` level; these tests pin the
//! `Scenario` seam the trace store drives — the plan rebuilds the exact
//! processes (honest players, deviant cells, relaxed mediator blackouts)
//! from its own configuration, so `(plan, seed, script)` is a complete
//! run recipe.

use mediator_circuits::catalog;
use mediator_core::adversary::Conformance;
use mediator_core::scenario::{GameFamily, Scenario};
use mediator_field::Fp;
use mediator_sim::{Outcome, ReplayScript, SchedulerKind};

fn assert_replayed(recorded: &Outcome, replayed: &Outcome, label: &str) {
    assert_eq!(
        replayed.trace.events(),
        recorded.trace.events(),
        "trace: {label}"
    );
    assert_eq!(replayed.moves, recorded.moves, "moves: {label}");
    assert_eq!(replayed.wills, recorded.wills, "wills: {label}");
    assert_eq!(replayed.halted, recorded.halted, "halted: {label}");
    assert_eq!(
        replayed.termination, recorded.termination,
        "termination: {label}"
    );
}

fn mediator_plan(n: usize) -> mediator_core::scenario::MediatorPlan {
    Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs((0..n).map(|i| vec![Fp::new((i % 2) as u64)]).collect())
        .build()
        .expect("threshold satisfied")
}

#[test]
fn mediator_plan_replays_battery_exactly() {
    let n = 5;
    let plan = mediator_plan(n);
    for kind in SchedulerKind::battery(n + 1) {
        for seed in 0..32 {
            let recorded = plan.run_with(&kind, seed);
            let script = ReplayScript::new(recorded.trace.events().iter().collect());
            let replayed = plan.run_with(&SchedulerKind::Replay(script), seed);
            assert_replayed(&recorded, &replayed, &format!("{kind:?} seed {seed}"));
        }
    }
}

#[test]
fn relaxed_mediator_recording_replays() {
    // A relaxed recording carries `Dropped` events; replay re-enables the
    // drop capability from the script itself (no plan change needed).
    let n = 5;
    let plan = mediator_plan(n);
    for seed in 0..32 {
        let recorded = plan.run_relaxed(6, seed);
        let script = ReplayScript::new(recorded.trace.events().iter().collect());
        assert!(
            script.has_drops(),
            "blackout produced no drops (seed {seed})"
        );
        let replayed = plan.run_with(&SchedulerKind::Replay(script), seed);
        assert_replayed(&recorded, &replayed, &format!("relaxed seed {seed}"));
    }
}

#[test]
fn mediator_deviant_cells_replay() {
    // The witness path: a deviant cell rebuilt by
    // `GameFamily::deviant_cells` replays its own recording — what `experiments -- --replay` does with
    // a stored witness recipe.
    let n = 5;
    let plan = mediator_plan(n);
    let coalition = vec![0usize];
    let cfg = Conformance::new(0.0, 1, 0).deadlock_action(0);
    for (strategy, cell) in GameFamily::deviant_cells(&plan, &coalition, &cfg) {
        for seed in 0..4 {
            let recorded = cell.run_with(&SchedulerKind::Random, seed);
            let script = ReplayScript::new(recorded.trace.events().iter().collect());
            let replayed = cell.run_with(&SchedulerKind::Replay(script), seed);
            assert_replayed(&recorded, &replayed, &format!("{strategy} seed {seed}"));
        }
    }
}

#[test]
fn cheap_talk_plan_replays_spot_checks() {
    // Cheap-talk runs move thousands of messages; a couple of cells pin the
    // plan seam (the sim suite covers the scheduler battery exhaustively).
    let n = 5;
    let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("threshold satisfied");
    for kind in [SchedulerKind::Random, SchedulerKind::Lifo] {
        for seed in 0..2 {
            let recorded = plan.run_with(&kind, seed);
            let script = ReplayScript::new(recorded.trace.events().iter().collect());
            let replayed = plan.run_with(&SchedulerKind::Replay(script), seed);
            assert_replayed(&recorded, &replayed, &format!("{kind:?} seed {seed}"));
        }
    }
}

#[test]
fn cheap_talk_deviant_cell_replays() {
    let n = 5;
    let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("threshold satisfied");
    let cells = GameFamily::deviant_cells(&plan, &[0], &Conformance::new(0.0, 1, 0));
    let (strategy, cell) = cells
        .iter()
        .find(|(name, _)| name == "silent")
        .expect("generated battery contains the silent strategy");
    let recorded = cell.run_with(&SchedulerKind::Random, 1);
    let script = ReplayScript::new(recorded.trace.events().iter().collect());
    let replayed = cell.run_with(&SchedulerKind::Replay(script), 1);
    assert_replayed(&recorded, &replayed, strategy);
}

#[test]
fn session_replay_matches_run_replay() {
    // The steppable session drives the identical replay: `session_with`
    // applies the same replay tuning as `run_with`.
    let n = 5;
    let plan = mediator_plan(n);
    let recorded = plan.run_with(&SchedulerKind::Lifo, 7);
    let script = ReplayScript::new(recorded.trace.events().iter().collect());
    let session = plan.session_with(&SchedulerKind::Replay(script), 7);
    let replayed = session.finish();
    assert_replayed(&recorded, &replayed, "session replay");
}
