//! Failure injection for the agreement substrate: byzantine dealers,
//! forged votes, and flooding — the attacks the `t < n/3` thresholds are
//! priced against.
//!
//! These suites run under the full `mediator-sim` `World` through the
//! shared sans-IO adapter, so every attack is exercised against the
//! adversarial schedulers of `SchedulerKind::battery(n)`, not just
//! uniform-random delivery. Byzantine players are [`ByzantineProcess`]es:
//! reactive behaviour closures plus, for equivocating dealers, a deviant
//! kickoff.

use mediator_bcast::driver::{AbaPeer, RbcPeer};
use mediator_bcast::{AbaMsg, AbaState, IdealCoin, RbcMsg};
use mediator_sim::sansio::{Behavior, ByzantineProcess, Machines, Outgoing};
use mediator_sim::SchedulerKind;

fn no_op<M: 'static>() -> Behavior<M> {
    Box::new(|_, _, _| Vec::new())
}

fn rbc_peers(n: usize, t: usize, dealer: usize, value: u64) -> Vec<RbcPeer<u64>> {
    (0..n)
        .map(|me| RbcPeer::new(n, t, dealer, me, (me == dealer).then_some(value)))
        .collect()
}

#[test]
fn rbc_flooded_ready_for_fake_value_does_not_deliver() {
    // A single byzantine player (t=1, n=4) sends Ready(FAKE) to everyone;
    // delivery needs 2t+1 = 3 distinct Ready senders, and honest players
    // never echo a value without the echo quorum: nobody delivers FAKE.
    let n = 4;
    let behavior: Behavior<RbcMsg<u64>> = Box::new(|me, _from, _msg| {
        (0..4)
            .filter(|&p| p != me)
            .map(|p| (p, RbcMsg::Ready(666)))
            .collect()
    });
    for kind in SchedulerKind::battery(n) {
        for seed in 0..4 {
            let (_, delivered) = Machines::new(rbc_peers(n, 1, 0, 42))
                .byzantine(3, behavior.clone_box())
                .run(kind.build().as_mut(), seed, 200_000);
            for (i, d) in delivered.iter().enumerate() {
                if i != 3 {
                    assert_eq!(
                        *d,
                        Some(42),
                        "player {i} must deliver the real value ({kind:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn rbc_byzantine_dealer_equivocation_never_splits_honest_players() {
    // The dealer sends different Inits to different halves across many
    // schedules; whatever honest players deliver, they deliver the SAME
    // value (agreement), possibly nothing.
    let n = 7;
    let t = 2;
    for kind in SchedulerKind::battery(n) {
        for seed in 0..8 {
            // All players are receivers; the byzantine "dealer" (6) plays an
            // equivocating kickoff instead of its honest machine (whose
            // placeholder value is discarded with the machine).
            let machines: Vec<RbcPeer<u64>> = (0..n)
                .map(|me| RbcPeer::new(n, t, 6, me, (me == 6).then_some(0)))
                .collect();
            let kickoff: Vec<(usize, RbcMsg<u64>)> = (0..3)
                .map(|p| (p, RbcMsg::Init(1)))
                .chain((3..6).map(|p| (p, RbcMsg::Init(2))))
                .collect();
            let byz = ByzantineProcess::new(no_op()).with_kickoff(kickoff);
            let (_, delivered) =
                Machines::new(machines)
                    .byzantine(6, byz)
                    .run(kind.build().as_mut(), seed, 200_000);
            let vals: Vec<u64> = delivered[..6].iter().flatten().copied().collect();
            assert!(
                vals.windows(2).all(|w| w[0] == w[1]),
                "{kind:?} seed {seed}: honest players split: {delivered:?}"
            );
        }
    }
}

#[test]
fn aba_forged_done_below_quorum_does_not_decide() {
    // t Done(v) messages (here t=2 from one equivocating byz via two ids is
    // impossible — senders are deduplicated — so a single byz contributes
    // one) never reach the t+1 adoption threshold by themselves.
    let n = 7;
    let t = 2;
    let mut s = AbaState::new(n, t, 0, Box::new(IdealCoin::new(0)));
    let mut out: Vec<Outgoing<AbaMsg>> = Vec::new();
    s.start(true, &mut out);
    let d1 = s.on_message(5, AbaMsg::Done { v: false }, &mut out);
    let d2 = s.on_message(5, AbaMsg::Done { v: false }, &mut out); // duplicate sender
    assert!(d1.is_none() && d2.is_none());
    assert_eq!(s.decided(), None, "one forger cannot reach t+1 = 3");
}

#[test]
fn aba_byzantine_cannot_inject_a_value_no_honest_proposed() {
    // All honest input true; two byzantine players (n=7, t=2) flood BVal
    // and Aux for false. Acceptance of false needs 2t+1 = 5 BVal senders —
    // impossible with 2 liars and no honest relay.
    let n = 7;
    let t = 2;
    let behavior: Behavior<AbaMsg> = Box::new(|me, from, msg| match *msg {
        // React only to honest traffic: responding to the other byzantine's
        // floods would model an infinite mailbox loop, not an attack.
        AbaMsg::BVal { round, .. } if from < 5 => (0..5)
            .filter(|&p| p != me)
            .flat_map(|p| {
                vec![
                    (p, AbaMsg::BVal { round, v: false }),
                    (p, AbaMsg::Aux { round, v: false }),
                ]
            })
            .collect(),
        _ => Vec::new(),
    });
    for kind in SchedulerKind::battery(n) {
        for seed in 0..4 {
            let machines: Vec<AbaPeer> = (0..n)
                .map(|_| AbaPeer::new(AbaState::new(n, t, 0, Box::new(IdealCoin::new(3))), true))
                .collect();
            let (_, decisions) = Machines::new(machines)
                .byzantine(5, behavior.clone_box())
                .byzantine(6, behavior.clone_box())
                .run(kind.build().as_mut(), seed, 1_000_000);
            for (i, d) in decisions.iter().enumerate().take(5) {
                assert_eq!(
                    *d,
                    Some(true),
                    "validity violated at player {i}, {kind:?} seed {seed}"
                );
            }
        }
    }
}
