//! The game-level message tally: every `CtMsg` a Theorem 4.1 run delivers,
//! by kind, read by a counting wrapper around each `CheapTalkPlayer`. The
//! `World` is not touched and nothing reaches the trace — the wrapped run's
//! fingerprint is checked against the plan's own run — so the pinned table
//! is a reading of the engine, and a later change to its message count
//! shows up here as a row that moved.
//!
//! One more column, `to_halted`: `Core` deliveries that reach an agreement
//! instance whose receiver has already halted it (the `2f + 1`-`Done`
//! gadget fired). The wrapper replays that rule from the `Done` messages it
//! forwards; the instance itself ignores such traffic.
//!
//! Regeneration (after an *intentional* change to the engine's traffic),
//! which also prints the seeds 0–99 mean at `n = 13`:
//!
//! ```sh
//! cargo test --release --test message_tally -- --ignored --nocapture
//! ```

use mediator_talk::bcast::AbaMsg;
use mediator_talk::core::cheap_talk::{CheapTalkPlayer, CtMsg};
use mediator_talk::mpc::MpcMsg;
use mediator_talk::prelude::*;
use mediator_talk::sim::{Ctx, Process, ProcessId, World};
use mediator_talk::vss::{AvssMsg, DetectMsg};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Message kinds in column order; `to_halted` follows them.
const KINDS: [&str; 12] = [
    "Rows", "Echo", "Ready", "Deal", "DOpen", "Accuse", "BVal", "Aux", "Done", "Open", "Output",
    "Finished",
];
const TO_HALTED: usize = KINDS.len();
const COLS: usize = KINDS.len() + 1;

type Row = [u64; COLS];

/// `(n, k, Random seed)` → deliveries per kind in [`KINDS`] order, then
/// `to_halted`. Re-pinned when core agreement took fixed coins for rounds
/// 1–2 and stopped proposing once decided: on seeds 0–2 every vote is 1,
/// so each instance decides in round 1 and `BVal = Aux = Done = n³`, the
/// floor of three broadcasts per (player, instance); at `n = 13`
/// `to_halted` fell from ~3 436 to ~1 450 and the `Open` counts moved with
/// the schedule. Seeds 5 and 8 at `n = 5` are the two rules that leave the
/// floor (`tests/trace_golden.rs` pins how often): on seed 5 player 4's
/// own instance halts on `2f + 1` `Done` before it sends `Aux` (`Aux`
/// 120); on seed 8 player 2 votes 0 in instance 1, which it had not
/// started when `n − f` instances decided 1 (`BVal` 130: one `BVal(0)`
/// broadcast, below the `f + 1` relay threshold).
#[rustfmt::skip]
const PINNED: [(usize, usize, u64, Row); 8] = [
    (5, 1, 0, [25, 125, 125, 0, 0, 0, 125, 125, 125, 97, 16, 0, 79]),
    (5, 1, 1, [25, 125, 125, 0, 0, 0, 125, 125, 125, 93, 15, 0, 76]),
    (5, 1, 2, [25, 125, 125, 0, 0, 0, 125, 125, 125, 98, 16, 0, 80]),
    (5, 1, 5, [25, 125, 125, 0, 0, 0, 125, 120, 124, 97, 15, 0, 79]),
    (5, 1, 8, [25, 125, 125, 0, 0, 0, 130, 125, 124, 98, 15, 0, 72]),
    (13, 3, 0, [169, 2197, 2197, 0, 0, 0, 2197, 2197, 2197, 1999, 93, 0, 1467]),
    (13, 3, 1, [169, 2197, 2197, 0, 0, 0, 2197, 2197, 2197, 1997, 91, 0, 1469]),
    (13, 3, 2, [169, 2197, 2197, 0, 0, 0, 2197, 2197, 2197, 2000, 92, 0, 1445]),
];

fn kind(msg: &CtMsg) -> usize {
    match msg {
        CtMsg::Mpc(MpcMsg::Avss { inner, .. }) => match inner {
            AvssMsg::Rows { .. } => 0,
            AvssMsg::Echo(_) => 1,
            AvssMsg::Ready => 2,
        },
        CtMsg::Mpc(MpcMsg::Detect { inner, .. }) => match inner {
            DetectMsg::Deal { .. } => 3,
            DetectMsg::Open { .. } => 4,
            DetectMsg::Accuse => 5,
        },
        CtMsg::Mpc(MpcMsg::Core { inner, .. }) => match inner {
            AbaMsg::BVal { .. } => 6,
            AbaMsg::Aux { .. } => 7,
            AbaMsg::Done { .. } => 8,
        },
        CtMsg::Mpc(MpcMsg::Open { .. }) => 9,
        CtMsg::Mpc(MpcMsg::Output { .. }) => 10,
        CtMsg::Finished => 11,
    }
}

/// A `CheapTalkPlayer` that counts what it is handed before handling it.
struct Counting {
    inner: CheapTalkPlayer,
    /// Per agreement instance, the distinct senders of `Done { v }`.
    done_from: Vec<[BTreeSet<ProcessId>; 2]>,
    /// `2f + 1`: the `Done` count that halts an instance.
    halt_at: usize,
    tally: Rc<RefCell<Row>>,
}

impl Process<CtMsg> for Counting {
    fn on_start(&mut self, ctx: &mut Ctx<CtMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, src: ProcessId, msg: CtMsg, ctx: &mut Ctx<CtMsg>) {
        {
            let mut tally = self.tally.borrow_mut();
            tally[kind(&msg)] += 1;
            if let CtMsg::Mpc(MpcMsg::Core { dealer, inner }) = &msg {
                let done = &mut self.done_from[*dealer];
                if done.iter().any(|s| s.len() >= self.halt_at) {
                    tally[TO_HALTED] += 1;
                } else if let AbaMsg::Done { v } = inner {
                    done[*v as usize].insert(src);
                }
            }
        }
        self.inner.on_message(src, msg, ctx);
    }
}

fn plan(n: usize, k: usize) -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(k, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n > 4k")
}

/// One Random run of `plan` with every player counted.
fn tally(plan: &CheapTalkPlan, seed: u64) -> Row {
    let spec = plan.spec();
    let n = plan.players();
    let tally = Rc::new(RefCell::new([0; COLS]));
    let procs: Vec<Box<dyn Process<CtMsg>>> = (0..n)
        .map(|p| {
            Box::new(Counting {
                inner: CheapTalkPlayer::honest(spec.clone(), p, plan.inputs()[p].clone()),
                done_from: vec![Default::default(); n],
                halt_at: 2 * spec.f() + 1,
                tally: Rc::clone(&tally),
            }) as Box<dyn Process<CtMsg>>
        })
        .collect();
    let out = World::new(procs, seed).run(SchedulerKind::Random.build().as_mut(), 8_000_000);
    let plain = plan.run_with(&SchedulerKind::Random, seed);
    assert_eq!(
        out.fingerprint(),
        plain.fingerprint(),
        "counting must not perturb the run (n = {n}, seed {seed})"
    );
    assert_eq!(out.termination, TerminationKind::Quiescent);
    let row = *tally.borrow();
    assert_eq!(
        row[..KINDS.len()].iter().sum::<u64>(),
        out.messages_delivered
    );
    row
}

#[test]
fn delivered_messages_by_kind_are_pinned() {
    for (n, k, seed, want) in PINNED {
        assert_eq!(
            tally(&plan(n, k), seed),
            want,
            "n = {n}, k = {k}, seed {seed}"
        );
    }
}

#[test]
#[ignore = "prints the pinned table and the n = 13 seeds 0–99 mean"]
fn print_tally_table() {
    println!("// {KINDS:?}, to_halted");
    for (n, k, seed, _) in PINNED {
        println!("({n}, {k}, {seed}, {:?}),", tally(&plan(n, k), seed));
    }
    let (plan13, seeds) = (plan(13, 3), 100u64);
    let mut sum = [0u64; COLS];
    for seed in 0..seeds {
        for (s, c) in sum.iter_mut().zip(tally(&plan13, seed)) {
            *s += c;
        }
    }
    let names = KINDS.iter().copied().chain(["to_halted"]);
    for (name, s) in names.zip(sum) {
        println!(
            "n = 13 seeds 0..{seeds} mean {name}: {:.1}",
            s as f64 / seeds as f64
        );
    }
}
