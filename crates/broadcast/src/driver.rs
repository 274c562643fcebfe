//! [`SansIo`] drivers for the broadcast-layer state machines.
//!
//! Each peer bundles one player's state machine with the input it
//! contributes at start, so the generic
//! [`SansIoProcess`](mediator_sim::sansio::SansIoProcess) adapter (or the
//! [`Machines`](mediator_sim::sansio::Machines) runner) can drive
//! it inside a full `World` — under every scheduler, with traces and
//! behaviour-closure failure injection.
//!
//! Termination discipline (`is_done`): a peer only reports done when its
//! protocol's own rule says it is safe to stop participating — RBC after
//! delivery (its Echo/Ready contribution is already on the wire, and Ready
//! amplification carries any late peer over the line), ABA when the Bracha
//! `2t+1`-Done gadget fires (stopping earlier could strand peers below the
//! `n − t` quorum of a still-running round).

use crate::aba::{AbaMsg, AbaState};
use crate::rbc::{RbcMsg, RbcState};
use mediator_sim::sansio::{Outgoing, SansIo};
use rand::rngs::StdRng;

/// One player in one reliable-broadcast instance. The dealer carries the
/// value to broadcast; everyone else is purely reactive.
#[derive(Debug, Clone)]
pub struct RbcPeer<V> {
    state: RbcState<V>,
    input: Option<V>,
}

impl<V: Clone + Ord> RbcPeer<V> {
    /// Creates the peer for `me`; `value` must be `Some` iff `me == dealer`.
    pub fn new(n: usize, t: usize, dealer: usize, me: usize, value: Option<V>) -> Self {
        assert_eq!(
            value.is_some(),
            me == dealer,
            "exactly the dealer supplies a value"
        );
        RbcPeer {
            state: RbcState::new(n, t, dealer),
            input: value,
        }
    }
}

impl<V: Clone + Ord> SansIo for RbcPeer<V> {
    type Msg = RbcMsg<V>;
    type Output = V;

    fn on_start(&mut self, _rng: &mut StdRng, out: &mut Vec<Outgoing<RbcMsg<V>>>) {
        if let Some(v) = self.input.take() {
            self.state.start(v, out);
        }
    }

    fn on_message(
        &mut self,
        from: usize,
        msg: RbcMsg<V>,
        _rng: &mut StdRng,
        out: &mut Vec<Outgoing<RbcMsg<V>>>,
    ) -> Option<V> {
        self.state.on_message(from, msg, out)
    }

    fn is_done(&self) -> bool {
        self.state.is_delivered()
    }
}

/// One player in one binary-agreement instance, carrying its input vote.
#[derive(Debug, Clone)]
pub struct AbaPeer {
    state: AbaState,
    input: Option<bool>,
}

impl AbaPeer {
    /// Creates the peer around a pre-built [`AbaState`] (the coin source is
    /// the caller's choice) and the player's input vote.
    pub fn new(state: AbaState, input: bool) -> Self {
        AbaPeer {
            state,
            input: Some(input),
        }
    }
}

impl SansIo for AbaPeer {
    type Msg = AbaMsg;
    type Output = bool;

    fn on_start(&mut self, _rng: &mut StdRng, out: &mut Vec<Outgoing<AbaMsg>>) {
        if let Some(v) = self.input.take() {
            self.state.start(v, out);
        }
    }

    fn on_message(
        &mut self,
        from: usize,
        msg: AbaMsg,
        _rng: &mut StdRng,
        out: &mut Vec<Outgoing<AbaMsg>>,
    ) -> Option<bool> {
        self.state.on_message(from, msg, out)
    }

    fn is_done(&self) -> bool {
        self.state.is_halted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::IdealCoin;
    use mediator_sim::sansio::Machines;
    use mediator_sim::{SchedulerKind, TerminationKind};

    fn schedulers() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Random,
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
            SchedulerKind::TargetedDelay(vec![0]),
        ]
    }

    #[test]
    fn rbc_under_world_delivers_for_all_schedulers() {
        for kind in schedulers() {
            for seed in 0..4 {
                let machines: Vec<RbcPeer<u64>> = (0..4)
                    .map(|me| RbcPeer::new(4, 1, 0, me, (me == 0).then_some(42)))
                    .collect();
                let (outcome, outputs) =
                    Machines::new(machines).run(kind.build().as_mut(), seed, 200_000);
                assert_eq!(outcome.termination, TerminationKind::Quiescent, "{kind:?}");
                for (i, o) in outputs.iter().enumerate() {
                    assert_eq!(*o, Some(42), "player {i} under {kind:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn rbc_broadcasts_shared_payloads_without_deep_copies() {
        use mediator_sim::sansio::Payload;
        // A Vec<Fp>-sized value: instantiating V = Payload<…> makes every
        // Echo/Ready broadcast a refcount bump instead of a vector clone.
        let value: Payload<Vec<u64>> = Payload::new((0..256).collect());
        for seed in 0..3 {
            let machines: Vec<RbcPeer<Payload<Vec<u64>>>> = (0..4)
                .map(|me| RbcPeer::new(4, 1, 0, me, (me == 0).then(|| value.clone())))
                .collect();
            let (outcome, outputs) =
                Machines::new(machines).run(SchedulerKind::Random.build().as_mut(), seed, 200_000);
            assert_eq!(outcome.termination, TerminationKind::Quiescent);
            for o in outputs.iter() {
                assert_eq!(o.as_ref(), Some(&value), "seed {seed}");
            }
        }
    }

    #[test]
    fn aba_under_world_agrees_for_all_schedulers() {
        for kind in schedulers() {
            for seed in 0..4 {
                let machines: Vec<AbaPeer> = (0..4)
                    .map(|_| {
                        AbaPeer::new(AbaState::new(4, 1, 0, Box::new(IdealCoin::new(9))), true)
                    })
                    .collect();
                let (_, outputs) =
                    Machines::new(machines).run(kind.build().as_mut(), seed, 500_000);
                for (i, o) in outputs.iter().enumerate() {
                    assert_eq!(*o, Some(true), "player {i} under {kind:?} seed {seed}");
                }
            }
        }
    }
}
