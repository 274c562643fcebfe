//! Golden trace-equality suite: pins the `World` event plane to the seed
//! semantics.
//!
//! Lemma 6.8 reasons about *message patterns* — the environment-visible
//! `(s,i,j,k)/(d,i,j,k)` event sequences. The indexed event plane (see
//! `mediator_sim::world`) must reproduce them **byte for byte**: the same
//! scheduler choices at every step, the same `Outcome` counters, the same
//! traces. This suite hashes the full pattern + outcome of RBC and ABA
//! worlds across the whole `SchedulerKind::battery` × 32 seeds and compares
//! against constants captured from the pre-refactor implementation.
//!
//! To regenerate after an *intentional* semantic change, run
//! `cargo test -p mediator-bcast --test trace_golden -- --ignored --nocapture`
//! and paste the printed tables.

use mediator_bcast::{AbaPeer, RbcPeer};
use mediator_bcast::{AbaState, IdealCoin};
use mediator_sim::sansio::Machines;
use mediator_sim::{Outcome, SchedulerKind};

/// The single-sourced run fingerprint (see [`Outcome::fingerprint`]).
fn outcome_hash(out: &Outcome) -> u64 {
    out.fingerprint()
}

const SEEDS: u64 = 32;

fn run_rbc(kind: &SchedulerKind, seed: u64) -> Outcome {
    let machines: Vec<RbcPeer<u64>> = (0..4)
        .map(|me| RbcPeer::new(4, 1, 0, me, (me == 0).then_some(42)))
        .collect();
    Machines::new(machines)
        .run(kind.build().as_mut(), seed, 200_000)
        .0
}

fn run_aba(kind: &SchedulerKind, seed: u64) -> Outcome {
    let machines: Vec<AbaPeer> = (0..4)
        .map(|i| {
            AbaPeer::new(
                AbaState::new(4, 1, 0, Box::new(IdealCoin::new(9))),
                i % 2 == 0,
            )
        })
        .collect();
    Machines::new(machines)
        .run(kind.build().as_mut(), seed, 500_000)
        .0
}

/// Folds the per-seed outcome hashes of one scheduler kind into one value.
fn battery_hash(run: impl Fn(&SchedulerKind, u64) -> Outcome) -> Vec<(String, u64)> {
    SchedulerKind::battery(4)
        .iter()
        .map(|kind| {
            let mut h = 0u64;
            for seed in 0..SEEDS {
                h = h
                    .rotate_left(1)
                    .wrapping_add(outcome_hash(&run(kind, seed)));
            }
            (format!("{kind:?}"), h)
        })
        .collect()
}

/// Golden values captured from the pre-event-plane-refactor seed (PR 1).
const GOLDEN_RBC: &[(&str, u64)] = &[
    ("Random", 0x92776b952105af7f),
    ("Fifo", 0xe59bcef817d9ebf7),
    ("Lifo", 0x27fddd4fa30bcb53),
    ("TargetedDelay([0])", 0xc76d97cc7e0c39d0),
    ("TargetedDelay([1])", 0xf34681fa916ca726),
    ("TargetedDelay([2])", 0xa576f082d5322dbf),
    (
        "Partition { group: [0, 1], heal_after: 200 }",
        0x3ad343ff737c6a42,
    ),
];

/// Re-captured when agreement took fixed coins for rounds 1–2 and stopped
/// proposing once decided: the instance runs mixed votes, so its rounds and
/// their messages moved; the event plane did not.
const GOLDEN_ABA: &[(&str, u64)] = &[
    ("Random", 0x0d1e40c921893fc7),
    ("Fifo", 0x5fb7d97f28692681),
    ("Lifo", 0xde43af9eb44462aa),
    ("TargetedDelay([0])", 0x4ceff3a1e65f1c0d),
    ("TargetedDelay([1])", 0x794767ecd550b8d0),
    ("TargetedDelay([2])", 0x8c3530722f1d672e),
    (
        "Partition { group: [0, 1], heal_after: 200 }",
        0x87e70fc5e5d04723,
    ),
];

fn check(golden: &[(&str, u64)], got: &[(String, u64)], what: &str) {
    assert_eq!(golden.len(), got.len(), "{what}: battery size changed");
    for ((gk, gh), (k, h)) in golden.iter().zip(got) {
        assert_eq!(gk, k, "{what}: scheduler battery order changed");
        assert_eq!(
            *gh, *h,
            "{what}/{k}: message pattern diverged from the seed event plane \
             (Lemma 6.8 semantics must survive byte-for-byte)"
        );
    }
}

#[test]
fn rbc_traces_match_seed_event_plane() {
    check(GOLDEN_RBC, &battery_hash(run_rbc), "rbc");
}

#[test]
fn aba_traces_match_seed_event_plane() {
    check(GOLDEN_ABA, &battery_hash(run_aba), "aba");
}

/// Regeneration helper: prints the tables to paste above.
#[test]
#[ignore = "golden-value regeneration helper"]
fn print_golden_tables() {
    for (name, table) in [
        ("GOLDEN_RBC", battery_hash(run_rbc)),
        ("GOLDEN_ABA", battery_hash(run_aba)),
    ] {
        println!("const {name}: &[(&str, u64)] = &[");
        for (k, h) in table {
            println!("    (\"{k}\", {h:#018x}),");
        }
        println!("];");
    }
}
