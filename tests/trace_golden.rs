//! Golden trace-equality suite for the **top-level sessions**: cheap-talk
//! games (Theorem 4.1 robust and Theorem 4.4 wills+barrier) and mediator
//! games (standard and §6.4 naive), pinning the scheduler-visible message
//! pattern of every battery member across 32 seeds — plus five single runs
//! of Theorem 4.1 at `n = 13, k = 3`, where a run is ~13k steps — and
//! the deviant sessions of one coalition's conformance sweep in each game
//! family.
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
/// a run is ~13k steps.
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

/// Seeds per scheduler kind in the deviant tables: a unit's row folds
/// `battery × DEVIANT_SEEDS` runs.
const DEVIANT_SEEDS: u64 = 4;

/// One fingerprint per unit of the conformance sweep of coalition `[0]`
/// (the honest baseline first, then every generated strategy), each over
/// the plan's scheduler battery × [`DEVIANT_SEEDS`] seeds. The rows run
/// every deviation primitive through the player that carries it.
fn deviant_hash<F: GameFamily>(plan: &Plan<F>) -> Vec<(String, u64)> {
    use mediator_talk::core::adversary::{sweep_unit_plan, sweep_units};
    let cfg = Conformance::new(0.0, 1, 0)
        .coalitions(vec![vec![0]])
        .seeds(DEVIANT_SEEDS);
    let battery = SchedulerKind::battery(plan.players());
    sweep_units(plan, &cfg)
        .iter()
        .map(|unit| {
            let cell = sweep_unit_plan(plan, unit, &cfg).expect("a generated unit");
            let mut h = 0u64;
            for kind in &battery {
                for seed in 0..DEVIANT_SEEDS {
                    h = h
                        .rotate_left(1)
                        .wrapping_add(cell.run_with(kind, seed).fingerprint());
                }
            }
            let name = unit.strategy.clone().unwrap_or_else(|| "honest".into());
            (name, h)
        })
        .collect()
}

fn assert_matches(name: &str, golden: &[(&str, u64)], got: &[(String, u64)]) {
    assert_eq!(golden.len(), got.len(), "{name}: the table's rows changed");
    for ((gk, gh), (k, h)) in golden.iter().zip(got) {
        assert_eq!(gk, k, "{name}: the table's row order changed");
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
/// every evaluation schedule shortened with it. Both were re-captured
/// again when core agreement took fixed coins for rounds 1–2 and stopped
/// proposing once decided, and AVSS READY moved to the `n − f` rule: the
/// ACS under every run changed its rounds and messages. And once more when
/// an agreement instance started completing the rounds it already held: a
/// player that had a whole round before its vote now finishes it on the
/// vote, not on the instance's next message. Every row that moved kept its
/// terminations and moves.
const GOLDEN_CHEAP_TALK_41: &[(&str, u64)] = &[
    ("Random", 0x82abeb6a0bd8f5e9),
    ("Fifo", 0x614a610b1eb59ef5),
    ("Lifo", 0x16ddcbb269b2368e),
    ("TargetedDelay([0])", 0x22dfd7cbd9bf2773),
    ("TargetedDelay([1])", 0x6d692b3be53fe923),
    ("TargetedDelay([2])", 0x5125f181759b28cd),
    (
        "Partition { group: [0, 1], heal_after: 200 }",
        0x100ecf1a126dc0bf,
    ),
];

const GOLDEN_CHEAP_TALK_44: &[(&str, u64)] = &[
    ("Random", 0x8a04ca7fee490c7a),
    ("Fifo", 0x2725c8697f7f2a41),
    ("Lifo", 0xa22a67e73b9475ce),
    ("TargetedDelay([0])", 0x0fe476202581825e),
    ("TargetedDelay([1])", 0xbea4747a6a762455),
    ("TargetedDelay([2])", 0x9c42f8c30215f3ef),
    (
        "Partition { group: [0, 1, 2], heal_after: 200 }",
        0xfa6f0951d5d12b1d,
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

/// Deviant sessions, captured before the mediator game's tactic wrapper
/// and the cheap-talk player's crash and lie switches became one tactic
/// path: Theorem 4.1 at `n = 5` (the generated cheap-talk battery) and the
/// §6.4 naive mediator game at `n = 7` (the gossip cells, `drop-acks`,
/// `delay-input`). Rows with equal values differ only in payloads, which
/// a fingerprint does not read (`lie-opens` and `corrupt-opens-late`), cut
/// the same sends (`crash-mid` and `drop-phase2`), or change nothing the
/// plan does not already do (`lie-input` claims the all-ones input the
/// plan gives; `pool-then-cooperate` has no partner to pool with).
const GOLDEN_CHEAP_TALK_41_DEVIANT: &[(&str, u64)] = &[
    ("honest", 0xfd8a39dd3e6f10a9),
    ("silent", 0xe7f6b258de7426da),
    ("crash-mid", 0xaa99460e92f1a8cf),
    ("lie-input", 0xfd8a39dd3e6f10a9),
    ("lie-opens", 0x2e34d6a465ca5f69),
    ("refuse-move", 0xc4c64e901aa455cb),
    ("drop-phase2", 0xaa99460e92f1a8cf),
    ("abort-at-round", 0xba8913333752aead),
    ("delay-until-phase", 0x83da3ad2d2e6e882),
    ("corrupt-opens-late", 0x2e34d6a465ca5f69),
    ("selective-silence", 0x0faca420ac2aa7e5),
    ("equivocate", 0x819590ccf19b5a66),
];

const GOLDEN_MEDIATOR_NAIVE_DEVIANT: &[(&str, u64)] = &[
    ("honest", 0x7cc4ce1e536ba1c0),
    ("deadlock-if-bit=0", 0x75a91407d22089f4),
    ("deadlock-if-bit=1", 0xec8dedf9ed08343a),
    ("always-deadlock", 0xe57233e36b2c358e),
    ("pool-then-cooperate", 0x7cc4ce1e536ba1c0),
    ("drop-acks", 0x8793856ca984c6d6),
    ("delay-input", 0x0c1fe889b2d8c60b),
];

#[test]
fn cheap_talk_41_deviant_traces_match_pinned_sessions() {
    let got = deviant_hash(&cheap_talk_41_plan());
    assert_matches("cheap_talk_41_deviant", GOLDEN_CHEAP_TALK_41_DEVIANT, &got);
}

#[test]
fn mediator_naive_deviant_traces_match_pinned_sessions() {
    let got = deviant_hash(&mediator_naive_plan());
    assert_matches(
        "mediator_naive_deviant",
        GOLDEN_MEDIATOR_NAIVE_DEVIANT,
        &got,
    );
}

#[test]
fn cheap_talk_41_traces_match_pinned_sessions() {
    let plan = cheap_talk_41_plan();
    let got = battery_hash(5, |kind, seed| plan.run_with(kind, seed));
    assert_matches("cheap_talk_41", GOLDEN_CHEAP_TALK_41, &got);
}

/// Per-run `(scheduler, seed, fingerprint)` at `n = 13, k = 3`, captured
/// when core agreement took fixed coins for rounds 1–2 and stopped
/// proposing once decided (every vote is 1: each instance now decides in
/// round 1, and a run sends ~13.4k messages, down from ~22.3k). A battery ×
/// 32-seed table would take a minute here; five runs are ~67k steps.
const GOLDEN_CHEAP_TALK_41_N13: [(SchedulerKind, u64, u64); 5] = [
    (SchedulerKind::Random, 0, 0x38cd8991d69ddf8a),
    (SchedulerKind::Random, 1, 0x8840de35de4654d2),
    (SchedulerKind::Random, 2, 0xd104285613784149),
    (SchedulerKind::Fifo, 0, 0x1993d5623d06bf24),
    (SchedulerKind::Lifo, 0, 0xcf4c6c27b9cbc538),
];

/// The arithmetic of the PR 21 schedule change. Compiling `lookup` on a
/// power basis took `majority_circuit` from `n² − 1` multiplications to
/// `n − 1`, each one a masked opening of `n²` messages. When core agreement
/// stays at its floor, every message of an all-honest Random run is
/// accounted for in closed form, so the openings are exactly the
/// `(n − 1)·n²` the power basis leaves:
///
/// * AVSS: `n²` `Rows`, `n³` `Echo`, `n³` `Ready`;
/// * core agreement: `3n³`, each player's `BVal`, `Aux` and `Done` in each
///   of the `n` instances, all decided in round 1 on the fixed coin 1;
/// * one opening per multiplication, and `n²` output shares.
///
/// That is 775 messages at `n = 5` and 13 351 at `n = 13` on the seeds
/// checked here, 0–2. Agreement is not at its floor on every seed:
/// `all_honest_message_counts_by_seed_are_pinned` pins how often it leaves
/// it, and why.
#[test]
fn power_basis_lookup_removed_exactly_its_openings() {
    for (plan, n) in [(cheap_talk_41_plan(), 5u64), (cheap_talk_41_n13_plan(), 13)] {
        let muls = catalog::majority_circuit(n as usize).mul_count() as u64;
        assert_eq!(muls, n - 1, "n = {n}");
        let (avss, core) = (n * n + 2 * n.pow(3), 3 * n.pow(3));
        let want = avss + core + muls * n * n + n * n;
        for seed in 0..3 {
            let outcome = plan.run_with(&SchedulerKind::Random, seed);
            assert_eq!(outcome.messages_sent, want, "n = {n}, seed {seed}");
        }
    }
}

/// How far the closed form above holds, measured: Random seeds 0–199 at
/// `n = 5` send these totals, and seeds 0–39 at `n = 13` all send
/// 13 351. At `n = 5` two agreement rules move a run off its floor of
/// `3n³` (the delivery tally in `tests/message_tally.rs` pins one seed of
/// each):
///
/// * **vote zero** (775 → 780): when `n − f` instances have decided 1, ACS
///   votes 0 in every instance the player has not started yet, one extra
///   `BVal` broadcast (seed 8);
/// * **halt on `2f + 1` `Done`** (775 → 770): a player whose instance
///   halts before its `BVal` count reaches `2f + 1` never sends its `Aux`
///   (seed 5).
///
/// The two outliers stack them: seed 191 (795) delivers four `BVal(0)`
/// broadcasts in one instance, and seed 85 (905) runs an instance to
/// round 3.
///
/// A change to the engine's traffic moves a row here.
#[test]
fn all_honest_message_counts_by_seed_are_pinned() {
    let plan = cheap_talk_41_plan();
    let mut sent = std::collections::BTreeMap::new();
    for seed in 0..200 {
        *sent
            .entry(plan.run_with(&SchedulerKind::Random, seed).messages_sent)
            .or_insert(0) += 1;
    }
    let histogram: Vec<(u64, u32)> = sent.into_iter().collect();
    assert_eq!(
        histogram,
        [(770, 10), (775, 172), (780, 16), (795, 1), (905, 1)]
    );
    let plan = cheap_talk_41_n13_plan();
    for seed in 0..40 {
        let outcome = plan.run_with(&SchedulerKind::Random, seed);
        assert_eq!(outcome.messages_sent, 13_351, "n = 13, seed {seed}");
    }
}

/// The `O(nNc)` bound in the circuit size `c`, exactly:
/// `work_circuit(5, 2, d)` grows by two multiplications a layer, and each
/// one costs one masked opening of `n²` messages whatever agreement did,
/// so a seed's `messages − n²·multiplications` is one value at every
/// depth. The value itself is the seed's dealing, agreement and output
/// traffic (675 at the floor; seed 5 and seeds 8, 11 are the two rules
/// above).
#[test]
fn each_multiplication_costs_exactly_one_opening() {
    let n = 5;
    let opening = (n * n) as u64;
    for (seed, rest) in [(0, 675), (1, 675), (2, 675), (5, 670), (8, 680), (11, 680)] {
        for depth in [1, 2, 4, 8, 16] {
            let circuit = catalog::work_circuit(n, 2, depth);
            let muls = circuit.mul_count() as u64;
            assert_eq!(muls, 2 * depth as u64);
            let outcome = Scenario::cheap_talk(circuit)
                .players(n)
                .tolerance(1, 0)
                .inputs(vec![vec![Fp::ONE]; n])
                .build()
                .expect("5 > 4")
                .run_with(&SchedulerKind::Random, seed);
            assert_eq!(
                outcome.messages_sent - opening * muls,
                rest,
                "seed {seed}, depth {depth}"
            );
        }
    }
}

#[test]
fn an_n13_message_pattern_costs_at_most_five_bytes_an_event() {
    // The `sim_n13` working point: 13 351 messages sent, 26 606 events.
    // The trace keeps them in codec bytes — a tag, two one-byte ids and
    // a per-pair `k` that rarely needs a second byte — not 32-byte enums.
    let out = cheap_talk_41_n13_plan().run_with(&SchedulerKind::Random, 1);
    assert_eq!(out.messages_sent, 13_351);
    let events = out.trace.events();
    assert_eq!(events.len(), 26_606);
    assert!(
        events.as_bytes().len() <= 5 * events.len(),
        "{} bytes for {} events",
        events.as_bytes().len(),
        events.len()
    );
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
        (
            "GOLDEN_CHEAP_TALK_41_DEVIANT",
            deviant_hash(&cheap_talk_41_plan()),
        ),
        (
            "GOLDEN_MEDIATOR_NAIVE_DEVIANT",
            deviant_hash(&mediator_naive_plan()),
        ),
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
