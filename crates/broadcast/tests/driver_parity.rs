//! What the broadcast protocols decide, under every scheduler family.
//!
//! For every seed (64 proptest cases) each protocol runs once per
//! [`SchedulerKind`] in the battery under the `World` via the shared
//! sans-IO adapter, and its decision is checked against the dealt inputs:
//!
//! * **RBC** with an honest dealer: the decision (the delivered value) is
//!   schedule-independent, so every honest player must output the dealt
//!   value under every scheduler.
//! * **ABA** with unanimous inputs: validity forces the decision, so every
//!   player decides the common input under every scheduler.
//!
//! The common subset's guarantees are asserted where it runs, on the core
//! `MpcEngine` fixes (`mediator_mpc::engine` tests).

use mediator_bcast::driver::{AbaPeer, RbcPeer};
use mediator_bcast::{AbaState, IdealCoin};
use mediator_sim::sansio::Machines;
use mediator_sim::SchedulerKind;
use proptest::prelude::*;

const N: usize = 4;
const T: usize = 1;

/// Every scheduler family the simulator ships.
fn battery() -> Vec<SchedulerKind> {
    SchedulerKind::battery(N)
}

fn rbc_under_world(value: u64, kind: &SchedulerKind, seed: u64) -> Vec<Option<u64>> {
    let machines: Vec<RbcPeer<u64>> = (0..N)
        .map(|me| RbcPeer::new(N, T, 0, me, (me == 0).then_some(value)))
        .collect();
    Machines::new(machines)
        .run(kind.build().as_mut(), seed, 500_000)
        .1
}

fn aba_under_world(input: bool, kind: &SchedulerKind, seed: u64) -> Vec<Option<bool>> {
    let machines: Vec<AbaPeer> = (0..N)
        .map(|_| AbaPeer::new(AbaState::new(N, T, 0, Box::new(IdealCoin::new(99))), input))
        .collect();
    Machines::new(machines)
        .run(kind.build().as_mut(), seed, 1_000_000)
        .1
}

proptest! {
    #[test]
    fn rbc_delivers_the_dealt_value_under_every_scheduler(value in any::<u64>(), seed in any::<u64>()) {
        for kind in battery() {
            let world = rbc_under_world(value, &kind, seed);
            prop_assert_eq!(&world, &vec![Some(value); N], "scheduler {:?}", kind);
        }
    }

    #[test]
    fn aba_validity_forces_the_decision_under_every_scheduler(input in any::<bool>(), seed in any::<u64>()) {
        for kind in battery() {
            let world = aba_under_world(input, &kind, seed);
            prop_assert_eq!(&world, &vec![Some(input); N], "scheduler {:?}", kind);
        }
    }
}
