//! Golden trace-equality suite for the **top-level sessions**: cheap-talk
//! games (Theorem 4.1 robust and Theorem 4.4 wills+barrier) and mediator
//! games (standard and §6.4 naive), pinning the scheduler-visible message
//! pattern of every battery member across 32 seeds — plus five single runs
//! of Theorem 4.1 at `n = 13, k = 3`, where a run is ~22k steps over a
//! plane of ~3k pending events.
//!
//! The protocol substrates have had this safety net since PR 2
//! (`crates/broadcast/tests/trace_golden.rs`,
//! `crates/vss/tests/trace_golden.rs`); the game-level worlds — the ones
//! the conformance harness and every experiment actually run — did not.
//! Any change to the event plane, the MPC engine's send order, the player
//! state machines, or the mediator's round structure shows up here as a
//! fingerprint divergence.
//!
//! Regeneration (after an *intentional* trace change): run the ignored
//! `print_golden_tables` test and paste its output over the constants:
//!
//! ```sh
//! cargo test --release --test trace_golden -- --ignored --nocapture
//! ```

use mediator_talk::prelude::*;

const SEEDS: u64 = 32;

fn cheap_talk_41_plan_at(n: usize, k: usize) -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(k, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n > 4k")
}

fn cheap_talk_41_plan() -> CheapTalkPlan {
    cheap_talk_41_plan_at(5, 1)
}

/// The `sim_n13` working point: every `k = 3` cell sits at `n ≥ 13`, where
/// a run is ~22k steps over a plane that peaks at ~3k pending events, and
/// Lifo's fairness rule (2 000 steps) picks over half of its deliveries.
fn cheap_talk_41_n13_plan() -> CheapTalkPlan {
    cheap_talk_41_plan_at(13, 3)
}

fn cheap_talk_44_plan() -> CheapTalkPlan {
    let n = 6;
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .wills(vec![5; n])
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("6 > 3k + 4t = 3")
}

fn mediator_standard_plan() -> MediatorPlan {
    let n = 5;
    Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n − k − t ≥ 1")
}

fn mediator_naive_plan() -> MediatorPlan {
    let n = 7;
    Scenario::mediator(catalog::counterexample_naive(n))
        .players(n)
        .tolerance(2, 0)
        .naive_split()
        .wills(vec![2; n])
        .build()
        .expect("n − k − t ≥ 1")
}

/// Battery × seed fingerprint table for one runnable plan.
fn battery_hash(n: usize, run: impl Fn(&SchedulerKind, u64) -> Outcome) -> Vec<(String, u64)> {
    SchedulerKind::battery(n)
        .iter()
        .map(|kind| {
            let mut h = 0u64;
            for seed in 0..SEEDS {
                h = h.rotate_left(1).wrapping_add(run(kind, seed).fingerprint());
            }
            (format!("{kind:?}"), h)
        })
        .collect()
}

fn assert_matches(name: &str, golden: &[(&str, u64)], got: &[(String, u64)]) {
    assert_eq!(golden.len(), got.len(), "{name}: battery size changed");
    for ((gk, gh), (k, h)) in golden.iter().zip(got) {
        assert_eq!(gk, k, "{name}: scheduler battery order changed");
        assert_eq!(
            *gh, *h,
            "{name}/{k}: message pattern diverged from the pinned session trace"
        );
    }
}

/// Golden values captured from the PR 4 runtime (the PR 2/3 event plane:
/// top-level sessions were bit-identical across those PRs, verified by the
/// scenario parity suite); the two cheap-talk tables were re-captured at
/// PR 21, when `majority_circuit(5)` went from 24 multiplications to 4 and
/// every evaluation schedule shortened with it. The `Partition` row of the
/// 4.4 table was re-derived when the world's starvation backstop went (it
/// fired there after the heal), at the parent commit with the backstop
/// lifted.
const GOLDEN_CHEAP_TALK_41: &[(&str, u64)] = &[
    ("Random", 0xf17a259374a33863),
    ("Fifo", 0xeda0e553b771bbc1),
    ("Lifo", 0x93578e68eea87197),
    ("TargetedDelay([0])", 0x165bbf3249a19ec7),
    ("TargetedDelay([1])", 0xd1a7fd1c7a0c1698),
    ("TargetedDelay([2])", 0xddf6ee2a0735e4ba),
    (
        "Partition { group: [0, 1], heal_after: 200 }",
        0x948fa66af90a617c,
    ),
];

const GOLDEN_CHEAP_TALK_44: &[(&str, u64)] = &[
    ("Random", 0x68471f74849f8867),
    ("Fifo", 0xa6c41abfd94be544),
    ("Lifo", 0x0131d49ce9e16f86),
    ("TargetedDelay([0])", 0x93ddbfdc950e5a13),
    ("TargetedDelay([1])", 0x12a0f9d4765f4fbe),
    ("TargetedDelay([2])", 0xbb651a09fb74bc2d),
    (
        "Partition { group: [0, 1, 2], heal_after: 200 }",
        0x9281c774de657ae8,
    ),
];

const GOLDEN_MEDIATOR_STANDARD: &[(&str, u64)] = &[
    ("Random", 0xd516401252bcda23),
    ("Fifo", 0xe32fce76a4d031c9),
    ("Lifo", 0x984f3b85666eb3f2),
    ("TargetedDelay([0])", 0xeb84befe3ad21745),
    ("TargetedDelay([1])", 0xecdd65ebd28f9f77),
    ("TargetedDelay([2])", 0xdbf0a57e40645c36),
    (
        "Partition { group: [0, 1], heal_after: 200 }",
        0xb5018dfa19910f54,
    ),
];

const GOLDEN_MEDIATOR_NAIVE: &[(&str, u64)] = &[
    ("Random", 0xa3288448aa7171dd),
    ("Fifo", 0x388bbd2e218a876d),
    ("Lifo", 0x16022a1cfbc4f993),
    ("TargetedDelay([0])", 0xac7a417ae8661e54),
    ("TargetedDelay([1])", 0xd506b90bc6ef0d1b),
    ("TargetedDelay([2])", 0xb5f54da54dcfae4a),
    (
        "Partition { group: [0, 1, 2], heal_after: 200 }",
        0xc1f5d789dcaaa8f8,
    ),
];

#[test]
fn cheap_talk_41_traces_match_pinned_sessions() {
    let plan = cheap_talk_41_plan();
    let got = battery_hash(5, |kind, seed| plan.run_with(kind, seed));
    assert_matches("cheap_talk_41", GOLDEN_CHEAP_TALK_41, &got);
}

/// Per-run `(scheduler, seed, fingerprint)` at `n = 13, k = 3`: Lifo
/// captured at PR 21 (`majority_circuit(13)`: 12 multiplications, not 168),
/// Random and Fifo re-derived when the world's starvation backstop went —
/// at the parent commit with the backstop lifted (it had picked 59% of
/// Random's deliveries and 64% of Fifo's). A battery × 32-seed table would
/// take a minute here; five runs are ~113k steps.
const GOLDEN_CHEAP_TALK_41_N13: [(SchedulerKind, u64, u64); 5] = [
    (SchedulerKind::Random, 0, 0xff0f4383579a0c59),
    (SchedulerKind::Random, 1, 0x3b2b74b4c6371979),
    (SchedulerKind::Random, 2, 0xb19aa07a1b5cae55),
    (SchedulerKind::Fifo, 0, 0x598fe54e04c777e4),
    (SchedulerKind::Lifo, 0, 0x41a8d37f59779007),
];

/// The arithmetic of the PR 21 schedule change. Compiling `lookup` on a
/// power basis took `majority_circuit` from `n² − 1` multiplications to
/// `n − 1`; each one is a masked opening of `n²` messages, and nothing
/// before evaluation (dealing, ACS) moved. So at `n = 5` a Random run sends
/// exactly `(old − new)·n²` fewer messages than against the PR 20 runtime.
/// The `n = 13` arm, whose schedule moved again when the world's starvation
/// backstop went, pins `messages_sent` (derived at that PR's parent with
/// the backstop lifted).
#[test]
fn power_basis_lookup_removed_exactly_its_openings() {
    for n in [5, 13] {
        let muls = catalog::majority_circuit(n).mul_count();
        assert_eq!(muls, n - 1, "n = {n}");
    }
    // Random seeds 0–2: the PR 20 runtime's `messages_sent` at n = 5 less
    // the removed openings, and the pinned counts at n = 13.
    let removed = (24 - 4) * 25;
    let n5 = [1940 - removed, 1915 - removed, 1910 - removed];
    let n13 = [22_347, 22_373, 22_334];
    for (plan, sent) in [(cheap_talk_41_plan(), n5), (cheap_talk_41_n13_plan(), n13)] {
        for (seed, want) in sent.into_iter().enumerate() {
            let outcome = plan.run_with(&SchedulerKind::Random, seed as u64);
            assert_eq!(
                outcome.messages_sent,
                want,
                "n = {}, seed {seed}",
                plan.spec().n
            );
        }
    }
}

#[test]
fn cheap_talk_41_n13_runs_match_pinned_fingerprints() {
    let plan = cheap_talk_41_n13_plan();
    for (kind, seed, golden) in GOLDEN_CHEAP_TALK_41_N13 {
        let outcome = plan.run_with(&kind, seed);
        assert_eq!(
            outcome.fingerprint(),
            golden,
            "cheap_talk_41_n13/{kind:?}/{seed}: message pattern diverged from the pinned run"
        );
        // Unanimous votes: every schedule ends with everyone playing 1.
        assert_eq!(
            outcome.termination,
            TerminationKind::Quiescent,
            "{kind:?}/{seed}"
        );
        assert_eq!(outcome.moves, vec![Some(1); 13], "{kind:?}/{seed}");
    }
}

#[test]
fn cheap_talk_44_traces_match_pinned_sessions() {
    let plan = cheap_talk_44_plan();
    let got = battery_hash(6, |kind, seed| plan.run_with(kind, seed));
    assert_matches("cheap_talk_44", GOLDEN_CHEAP_TALK_44, &got);
}

#[test]
fn mediator_standard_traces_match_pinned_sessions() {
    let plan = mediator_standard_plan();
    let got = battery_hash(5, |kind, seed| plan.run_with(kind, seed));
    assert_matches("mediator_standard", GOLDEN_MEDIATOR_STANDARD, &got);
}

#[test]
fn mediator_naive_traces_match_pinned_sessions() {
    let plan = mediator_naive_plan();
    let got = battery_hash(7, |kind, seed| plan.run_with(kind, seed));
    assert_matches("mediator_naive", GOLDEN_MEDIATOR_NAIVE, &got);
}

/// Regeneration helper: prints the tables to paste above.
#[test]
#[ignore = "golden-value regeneration helper"]
fn print_golden_tables() {
    let tables: Vec<(&str, Vec<(String, u64)>)> = vec![
        ("GOLDEN_CHEAP_TALK_41", {
            let plan = cheap_talk_41_plan();
            battery_hash(5, |kind, seed| plan.run_with(kind, seed))
        }),
        ("GOLDEN_CHEAP_TALK_44", {
            let plan = cheap_talk_44_plan();
            battery_hash(6, |kind, seed| plan.run_with(kind, seed))
        }),
        ("GOLDEN_MEDIATOR_STANDARD", {
            let plan = mediator_standard_plan();
            battery_hash(5, |kind, seed| plan.run_with(kind, seed))
        }),
        ("GOLDEN_MEDIATOR_NAIVE", {
            let plan = mediator_naive_plan();
            battery_hash(7, |kind, seed| plan.run_with(kind, seed))
        }),
    ];
    for (name, got) in tables {
        println!("const {name}: &[(&str, u64)] = &[");
        for (k, h) in got {
            println!("    (\"{k}\", {h:#018x}),");
        }
        println!("];");
    }
    let plan = cheap_talk_41_n13_plan();
    let rows = GOLDEN_CHEAP_TALK_41_N13.len();
    println!("const GOLDEN_CHEAP_TALK_41_N13: [(SchedulerKind, u64, u64); {rows}] = [");
    for (kind, seed, _) in GOLDEN_CHEAP_TALK_41_N13 {
        let h = plan.run_with(&kind, seed).fingerprint();
        println!("    (SchedulerKind::{kind:?}, {seed}, {h:#018x}),");
    }
    println!("];");
}
