//! Golden trace-equality suite for AVSS worlds: pins the `World` event
//! plane to the seed semantics (the sharing-layer companion of
//! `crates/broadcast/tests/trace_golden.rs` — see there for the rationale
//! and the regeneration workflow).

use mediator_field::Fp;
use mediator_sim::sansio::Machines;
use mediator_sim::{Outcome, SchedulerKind};
use mediator_vss::AvssPeer;

/// The single-sourced run fingerprint (see [`Outcome::fingerprint`]).
fn outcome_hash(out: &Outcome) -> u64 {
    out.fingerprint()
}

const SEEDS: u64 = 32;

fn run_avss(kind: &SchedulerKind, seed: u64) -> Outcome {
    let secrets = vec![Fp::new(17), Fp::new(99)];
    let machines: Vec<AvssPeer> = (0..5)
        .map(|me| AvssPeer::new(5, 1, 0, me, (me == 0).then(|| secrets.clone())))
        .collect();
    Machines::new(machines)
        .run(kind.build().as_mut(), seed, 500_000)
        .0
}

fn battery_hash() -> Vec<(String, u64)> {
    SchedulerKind::battery(5)
        .iter()
        .map(|kind| {
            let mut h = 0u64;
            for seed in 0..SEEDS {
                h = h
                    .rotate_left(1)
                    .wrapping_add(outcome_hash(&run_avss(kind, seed)));
            }
            (format!("{kind:?}"), h)
        })
        .collect()
}

/// Golden values captured from the pre-event-plane-refactor seed,
/// re-captured when READY moved from `2f + 1` confirming echoes to BCG's
/// `n − f` agreeing echoes or `f + 1` READY (an honest dealing sends the
/// same messages, at other times).
const GOLDEN_AVSS: &[(&str, u64)] = &[
    ("Random", 0x83b706ed87e41d94),
    ("Fifo", 0x09e8e6c69617aa3a),
    ("Lifo", 0xd8027c4eb0a6a7d2),
    ("TargetedDelay([0])", 0x2baf17c7cade5266),
    ("TargetedDelay([1])", 0x4ad07ff8c82e6a19),
    ("TargetedDelay([2])", 0xcc055fb20dbf71a5),
    (
        "Partition { group: [0, 1], heal_after: 200 }",
        0x09254b060c07f121,
    ),
];

#[test]
fn avss_traces_match_seed_event_plane() {
    let got = battery_hash();
    assert_eq!(GOLDEN_AVSS.len(), got.len(), "battery size changed");
    for ((gk, gh), (k, h)) in GOLDEN_AVSS.iter().zip(&got) {
        assert_eq!(gk, k, "scheduler battery order changed");
        assert_eq!(
            *gh, *h,
            "avss/{k}: message pattern diverged from the seed event plane"
        );
    }
}

/// Regeneration helper: prints the table to paste above.
#[test]
#[ignore = "golden-value regeneration helper"]
fn print_golden_table() {
    println!("const GOLDEN_AVSS: &[(&str, u64)] = &[");
    for (k, h) in battery_hash() {
        println!("    (\"{k}\", {h:#018x}),");
    }
    println!("];");
}
