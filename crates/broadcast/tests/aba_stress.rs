//! The agreement rules under stress: fixed coins 1 and 0 in rounds 1 and
//! 2, and no proactive `BVal` from a player whose coin rule has fired.
//!
//! * A grid of `n ∈ {4, 7, 10, 13}` at `t = ⌊(n − 1)/3⌋`, the whole
//!   scheduler battery, silent, contrarian and splitting byzantines on `t`
//!   seats, and unanimous or mixed honest inputs: every honest player
//!   decides, all decide alike, and a unanimous honest input is the
//!   decision.
//! * The floors, exact under every battery scheduler: an all-honest
//!   instance with every vote 1 costs each player at most 3 broadcasts
//!   (`BVal`, `Aux`, `Done` in round 1), and one with every vote 0 at most
//!   5 (round 1 misses the coin 1, round 2 meets the coin 0).
//! * A byzantine flood of votes in a few thousand distinct rounds leaves
//!   the honest decisions as they were.

use mediator_bcast::{AbaMsg, AbaPeer, AbaState, IdealCoin};
use mediator_sim::sansio::{Behavior, Machines};
use mediator_sim::trace::TraceEvent;
use mediator_sim::{Outcome, SchedulerKind, TerminationKind};

/// What the byzantine seats — the last ones — do. They answer honest
/// players only, and talk only to them: two byzantines answering each
/// other would flood the plane forever and test nothing.
#[derive(Debug, Clone, Copy)]
enum Byzantine {
    /// Nothing.
    Silent,
    /// Answers every `BVal` with `BVal` and `Aux` for the other value.
    Contrarian,
    /// Answers every `BVal` with `BVal`, `Aux` and `Done` for 0 to even
    /// players and for 1 to odd ones.
    Split,
    /// Answers player 0's round-1 `BVal` with `BVal` and `Aux` for 0 in
    /// 3 000 distinct rounds, highest first: a third of them past the
    /// livelock guard's 10 000, the rest below it.
    Flood,
}

impl Byzantine {
    /// The behaviour when players `0..honest` are the honest ones.
    fn behavior(self, honest: usize) -> Behavior<AbaMsg> {
        match self {
            Byzantine::Silent => Box::new(|_, _, _| Vec::new()),
            Byzantine::Contrarian => Box::new(move |_, from, msg| match *msg {
                AbaMsg::BVal { round, v } if from < honest => (0..honest)
                    .flat_map(|p| {
                        [
                            (p, AbaMsg::BVal { round, v: !v }),
                            (p, AbaMsg::Aux { round, v: !v }),
                        ]
                    })
                    .collect(),
                _ => Vec::new(),
            }),
            Byzantine::Split => Box::new(move |_, from, msg| match *msg {
                AbaMsg::BVal { round, .. } if from < honest => (0..honest)
                    .flat_map(|p| {
                        let v = p % 2 == 1;
                        [
                            (p, AbaMsg::BVal { round, v }),
                            (p, AbaMsg::Aux { round, v }),
                            (p, AbaMsg::Done { v }),
                        ]
                    })
                    .collect(),
                _ => Vec::new(),
            }),
            Byzantine::Flood => Box::new(move |_, from, msg| match *msg {
                AbaMsg::BVal { round: 1, .. } if from == 0 => (0..honest)
                    .flat_map(|p| {
                        (0..3_000).flat_map(move |i| {
                            let (round, v) = (11_000 - i, false);
                            [
                                (p, AbaMsg::BVal { round, v }),
                                (p, AbaMsg::Aux { round, v }),
                            ]
                        })
                    })
                    .collect(),
                _ => Vec::new(),
            }),
        }
    }
}

/// One instance: honest players vote `inputs`, the last `byz.0` seats play
/// `byz.1`. Returns the outcome and the decisions.
fn run(
    t: usize,
    inputs: &[bool],
    byz: Option<(usize, Byzantine)>,
    kind: &SchedulerKind,
    seed: u64,
) -> (Outcome, Vec<Option<bool>>) {
    let n = inputs.len();
    let peers = inputs
        .iter()
        .map(|&v| AbaPeer::new(AbaState::new(n, t, 0, Box::new(IdealCoin::new(seed))), v))
        .collect();
    let mut run = Machines::new(peers);
    if let Some((seats, how)) = byz {
        for p in n - seats..n {
            run = run.byzantine(p, how.behavior(n - seats));
        }
    }
    run.run(kind.build().as_mut(), seed, 5_000_000)
}

#[test]
fn agreement_validity_and_termination_hold_across_the_grid() {
    for n in [4usize, 7, 10, 13] {
        let t = (n - 1) / 3;
        let honest = n - t;
        let input_sets: [(&str, Vec<bool>); 3] = [
            ("all 1", vec![true; n]),
            ("all 0", vec![false; n]),
            ("mixed", (0..n).map(|i| i % 2 == 0).collect()),
        ];
        let adversaries = [
            None,
            Some((t, Byzantine::Silent)),
            Some((t, Byzantine::Contrarian)),
            Some((t, Byzantine::Split)),
        ];
        for kind in SchedulerKind::battery(n) {
            for (label, inputs) in &input_sets {
                for byz in adversaries {
                    let seed = n as u64;
                    let ctx = format!("n = {n}, {kind:?}, {label}, {byz:?}");
                    let (outcome, decisions) = run(t, inputs, byz, &kind, seed);
                    assert_ne!(
                        outcome.termination,
                        TerminationKind::BudgetExhausted,
                        "{ctx}"
                    );
                    let seats = if byz.is_some() { honest } else { n };
                    let first = decisions[0].unwrap_or_else(|| panic!("undecided: {ctx}"));
                    for (p, d) in decisions[..seats].iter().enumerate() {
                        assert_eq!(*d, Some(first), "agreement, player {p}: {ctx}");
                    }
                    if inputs[..seats].iter().all(|&v| v == inputs[0]) {
                        assert_eq!(first, inputs[0], "validity: {ctx}");
                    }
                }
            }
        }
    }
}

/// Broadcasts per player: every agreement message goes to all `n`
/// players, the sender included, so a player's self-addressed sends count
/// its broadcasts.
fn broadcasts(outcome: &Outcome, n: usize) -> Vec<usize> {
    let mut per = vec![0; n];
    for e in outcome.trace.events().iter() {
        if let TraceEvent::Sent { src, dst, .. } = e {
            per[src] += usize::from(src == dst);
        }
    }
    per
}

#[test]
fn unanimous_instances_cost_at_most_three_and_five_broadcasts_per_player() {
    for n in [4usize, 7, 13] {
        let t = (n - 1) / 3;
        for kind in SchedulerKind::battery(n) {
            for seed in 0..4 {
                for (v, floor) in [(true, 3), (false, 5)] {
                    let (outcome, decisions) = run(t, &vec![v; n], None, &kind, seed);
                    let ctx = format!("n = {n}, {kind:?}, seed {seed}, all {}", v as u8);
                    assert_eq!(outcome.termination, TerminationKind::Quiescent, "{ctx}");
                    assert_eq!(decisions, vec![Some(v); n], "{ctx}");
                    let per = broadcasts(&outcome, n);
                    assert!(per.iter().all(|&b| b <= floor), "{ctx}: {per:?}");
                    assert_eq!(
                        outcome.messages_sent,
                        (per.iter().sum::<usize>() * n) as u64
                    );
                }
            }
        }
    }
}

#[test]
fn a_flood_of_distinct_rounds_leaves_the_decisions_alone() {
    // Lifo delivers the flood ahead of the honest votes sent after it. The
    // schedulers that scan the plane per pick are too slow at the flood's
    // 18 000 pending messages to run here.
    for kind in [SchedulerKind::Random, SchedulerKind::Lifo] {
        for seed in 0..3 {
            for v in [true, false] {
                let flood = Some((1, Byzantine::Flood));
                let (_, decisions) = run(1, &[v; 4], flood, &kind, seed);
                assert_eq!(decisions[..3], [Some(v); 3], "{kind:?} seed {seed}");
            }
        }
    }
}
