//! [`SansIo`] driver for the AVSS state machine.
//!
//! AVSS messages are per-recipient (each player gets its own row
//! polynomial), so the machine speaks its own [`AvssOut`] destination shape;
//! this driver translates to the shared [`Outgoing`] vocabulary and bundles
//! the dealer's secrets so the whole sharing — dealing included — runs
//! under the full `mediator-sim` `World` via
//! [`SansIoProcess`](mediator_sim::sansio::SansIoProcess) or
//! [`Machines`](mediator_sim::sansio::Machines).

use crate::avss::{self, AvssDest, AvssMsg, AvssOut, AvssState};
use crate::shamir::Share;
use mediator_field::Fp;
use mediator_sim::sansio::{Outgoing, SansIo};
use rand::rngs::StdRng;

/// Converts the AVSS-native destination to the shared one.
impl From<AvssDest> for mediator_sim::sansio::Dest {
    fn from(d: AvssDest) -> Self {
        match d {
            AvssDest::One(i) => mediator_sim::sansio::Dest::One(i),
            AvssDest::All => mediator_sim::sansio::Dest::All,
        }
    }
}

fn convert(batch: Vec<AvssOut>) -> Vec<Outgoing<AvssMsg>> {
    batch
        .into_iter()
        .map(|(dest, msg)| Outgoing {
            dest: dest.into(),
            msg,
        })
        .collect()
}

/// One player in one AVSS instance. The dealer carries the secrets to share
/// and emits the per-player `Rows` messages on start (randomness drawn from
/// the runtime's process-local generator, so dealing is reproducible under
/// every scheduler).
#[derive(Debug, Clone)]
pub struct AvssPeer {
    state: AvssState,
    n: usize,
    f: usize,
    me: usize,
    secrets: Option<Vec<Fp>>,
}

impl AvssPeer {
    /// Creates the peer for `me`; `secrets` must be `Some` iff `me == dealer`.
    pub fn new(n: usize, f: usize, dealer: usize, me: usize, secrets: Option<Vec<Fp>>) -> Self {
        assert_eq!(
            secrets.is_some(),
            me == dealer,
            "exactly the dealer supplies secrets"
        );
        AvssPeer {
            state: AvssState::new(n, f, dealer),
            n,
            f,
            me,
            secrets,
        }
    }
}

impl SansIo for AvssPeer {
    type Msg = AvssMsg;
    type Output = Vec<Share>;

    fn on_start(&mut self, rng: &mut StdRng) -> Vec<Outgoing<AvssMsg>> {
        match self.secrets.take() {
            Some(secrets) => avss::deal(&secrets, self.n, self.f, rng)
                .into_iter()
                .enumerate()
                .map(|(i, rows)| Outgoing::to(i, rows))
                .collect(),
            None => Vec::new(),
        }
    }

    fn on_message(
        &mut self,
        from: usize,
        msg: AvssMsg,
        _rng: &mut StdRng,
    ) -> (Vec<Outgoing<AvssMsg>>, Option<Vec<Share>>) {
        let (batch, done) = self.state.on_message(from, msg);
        let index = self.me;
        let shares = self.state.shares().filter(|_| done);
        let shares = shares.map(|vals| vals.iter().map(|&value| Share { index, value }).collect());
        (convert(batch), shares)
    }

    /// A completed AVSS player produces no further messages (its echoes and
    /// READY are already on the wire), so halting it is behaviourally
    /// equivalent to keeping it.
    fn is_done(&self) -> bool {
        self.state.is_completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::OecState;
    use mediator_sim::sansio::Machines;
    use mediator_sim::{SchedulerKind, TerminationKind};

    fn peers(n: usize, f: usize, dealer: usize, secrets: &[u64]) -> Vec<AvssPeer> {
        let fps: Vec<Fp> = secrets.iter().map(|&s| Fp::new(s)).collect();
        (0..n)
            .map(|me| AvssPeer::new(n, f, dealer, me, (me == dealer).then(|| fps.clone())))
            .collect()
    }

    #[test]
    fn avss_under_world_completes_with_consistent_shares() {
        for kind in [
            SchedulerKind::Random,
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
            SchedulerKind::TargetedDelay(vec![1]),
        ] {
            for seed in 0..3 {
                let (n, f) = (5, 1);
                let (outcome, outputs) = Machines::new(peers(n, f, 0, &[17, 99])).run(
                    kind.build().as_mut(),
                    seed,
                    500_000,
                );
                assert_eq!(outcome.termination, TerminationKind::Quiescent, "{kind:?}");
                // Every player completed with one share per secret; the
                // shares reconstruct the dealt secrets.
                for (s, &expect) in [17u64, 99].iter().enumerate() {
                    let mut oec = OecState::new(f, f);
                    for o in outputs.iter() {
                        let sh = o.as_ref().expect("completed")[s];
                        if oec.secret().is_none() {
                            oec.add_share(sh.index, sh.value);
                        }
                    }
                    assert_eq!(
                        oec.secret(),
                        Some(Fp::new(expect)),
                        "secret {s} under {kind:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn avss_tolerates_silent_byzantine_player() {
        let (n, f) = (5, 1);
        let silent: mediator_sim::Behavior<AvssMsg> = Box::new(|_, _, _| Vec::new());
        let (_, outputs) = Machines::new(peers(n, f, 0, &[23]))
            .byzantine(3, silent)
            .run(SchedulerKind::Random.build().as_mut(), 1, 500_000);
        for (i, o) in outputs.iter().enumerate() {
            if i != 3 {
                assert!(o.is_some(), "honest player {i} completes");
            }
        }
    }
}
