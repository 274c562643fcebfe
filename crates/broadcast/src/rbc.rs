//! Bracha reliable broadcast (`t < n/3`).
//!
//! Guarantees, for `n > 3t` with at most `t` byzantine players:
//!
//! * **Validity** — if the dealer is honest and broadcasts `v`, every honest
//!   player eventually delivers `v`.
//! * **Agreement** — if any honest player delivers `v`, every honest player
//!   eventually delivers `v` (even with a byzantine dealer).
//! * **Integrity** — honest players deliver at most once.
//!
//! The classic echo/ready structure: the dealer sends `Init(v)`; players
//! echo; `⌈(n+t+1)/2⌉` echoes (or `t+1` readies) trigger `Ready(v)`;
//! `2t+1` readies deliver.

use mediator_sim::sansio::Outgoing;
use mediator_sim::PartySet;
use serde::{Deserialize, Serialize};

/// Reliable-broadcast wire messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RbcMsg<V> {
    /// Dealer's initial value.
    Init(V),
    /// Echo of the dealer's value.
    Echo(V),
    /// Ready to deliver.
    Ready(V),
}

/// One player's state in one reliable-broadcast instance.
///
/// Drive with [`RbcState::start`] (dealer only) and [`RbcState::on_message`];
/// both append the messages to send to the caller's outbox, and the latter
/// returns `Some(value)` exactly once, when the instance delivers.
#[derive(Debug, Clone)]
pub struct RbcState<V> {
    n: usize,
    t: usize,
    dealer: usize,
    echoed: bool,
    ready_sent: bool,
    delivered: bool,
    /// Echo senders per value (values collapse via Ord).
    echoes: Vec<(V, PartySet)>,
    readies: Vec<(V, PartySet)>,
}

impl<V: Clone + Ord> RbcState<V> {
    /// Creates the state for one instance with the given `dealer`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` and `dealer < n`.
    pub fn new(n: usize, t: usize, dealer: usize) -> Self {
        assert!(n > 3 * t, "Bracha RBC requires n > 3t (n={n}, t={t})");
        assert!(dealer < n);
        RbcState {
            n,
            t,
            dealer,
            echoed: false,
            ready_sent: false,
            delivered: false,
            echoes: Vec::new(),
            readies: Vec::new(),
        }
    }

    /// Echo threshold `⌈(n+t+1)/2⌉`.
    fn echo_threshold(&self) -> usize {
        (self.n + self.t) / 2 + 1
    }

    /// Dealer's kick-off: broadcast `Init(v)`.
    pub fn start(&mut self, value: V, out: &mut Vec<Outgoing<RbcMsg<V>>>) {
        out.push(Outgoing::all(RbcMsg::Init(value)));
    }

    /// Processes a message from `from`, appending what it sends to `out`;
    /// returns the delivered value, if delivery happens now. A sender id
    /// `≥ n` names no player and is ignored.
    pub fn on_message(
        &mut self,
        from: usize,
        msg: RbcMsg<V>,
        out: &mut Vec<Outgoing<RbcMsg<V>>>,
    ) -> Option<V> {
        let mut delivered = None;
        if from >= self.n {
            return delivered;
        }
        match msg {
            RbcMsg::Init(v) => {
                // Only the dealer's first Init counts.
                if from == self.dealer && !self.echoed {
                    self.echoed = true;
                    out.push(Outgoing::all(RbcMsg::Echo(v)));
                }
            }
            RbcMsg::Echo(v) => {
                let count = insert_vote(&mut self.echoes, &v, from);
                if count >= self.echo_threshold() && !self.ready_sent {
                    self.ready_sent = true;
                    out.push(Outgoing::all(RbcMsg::Ready(v)));
                }
            }
            RbcMsg::Ready(v) => {
                let count = insert_vote(&mut self.readies, &v, from);
                if count > self.t && !self.ready_sent {
                    self.ready_sent = true;
                    out.push(Outgoing::all(RbcMsg::Ready(v.clone())));
                }
                if count > 2 * self.t && !self.delivered {
                    self.delivered = true;
                    delivered = Some(v);
                }
            }
        }
        delivered
    }

    /// Whether this instance has delivered.
    pub fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// The dealer of this instance.
    pub fn dealer(&self) -> usize {
        self.dealer
    }
}

/// Records a vote; returns the number of distinct voters for this value.
fn insert_vote<V: Clone + Ord>(votes: &mut Vec<(V, PartySet)>, v: &V, from: usize) -> usize {
    if let Some((_, set)) = votes.iter_mut().find(|(val, _)| val == v) {
        set.insert(from);
        set.len()
    } else {
        let mut set = PartySet::new();
        set.insert(from);
        votes.push((v.clone(), set));
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RbcPeer;
    use mediator_sim::sansio::{Behavior, ByzantineProcess, Machines};
    use mediator_sim::{Outcome, SchedulerKind};

    type Out = Vec<Outgoing<RbcMsg<u64>>>;

    /// Delivers one message; returns what `s` sent and the delivery.
    fn deliver(s: &mut RbcState<u64>, from: usize, msg: RbcMsg<u64>) -> (Out, Option<u64>) {
        let mut out = Vec::new();
        let delivered = s.on_message(from, msg, &mut out);
        (out, delivered)
    }

    fn no_op() -> Behavior<RbcMsg<u64>> {
        Box::new(|_, _, _| Vec::new())
    }

    /// Runs one RBC instance (dealer value 42) under `kind`, with the
    /// players in `byz` replaced by byzantine processes. Returns the world
    /// outcome and the delivered value per player (`None` for byzantine).
    fn run_rbc(
        n: usize,
        t: usize,
        dealer: usize,
        byz: Vec<(usize, ByzantineProcess<RbcMsg<u64>>)>,
        kind: &SchedulerKind,
        seed: u64,
    ) -> (Outcome, Vec<Option<u64>>) {
        let peers = (0..n)
            .map(|me| RbcPeer::new(n, t, dealer, me, (me == dealer).then_some(42)))
            .collect();
        let mut run = Machines::new(peers);
        for (p, b) in byz {
            run = run.byzantine(p, b);
        }
        run.run(kind.build().as_mut(), seed, 200_000)
    }

    #[test]
    fn honest_dealer_everyone_delivers() {
        for kind in SchedulerKind::battery(4) {
            for seed in 0..5 {
                let (_, delivered) = run_rbc(4, 1, 0, Vec::new(), &kind, seed);
                assert_eq!(delivered, vec![Some(42); 4], "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn silent_byzantine_player_does_not_block() {
        for kind in SchedulerKind::battery(4) {
            for seed in 0..5 {
                let (_, delivered) = run_rbc(4, 1, 0, vec![(3, no_op().into())], &kind, seed);
                assert_eq!(delivered[..3], [Some(42); 3], "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn equivocating_echoer_cannot_split() {
        // Byzantine player 3 echoes a different value to everyone, but with
        // n=4, t=1 the echo threshold is 3: one liar cannot reach it for a
        // fake value, and the true value still gathers 3 echoes.
        let behavior: Behavior<RbcMsg<u64>> = Box::new(|_me, _from, msg| match msg {
            RbcMsg::Init(_) => (0..4).map(|p| (p, RbcMsg::Echo(999))).collect(),
            _ => Vec::new(),
        });
        for kind in SchedulerKind::battery(4) {
            for seed in 0..5 {
                let byz = vec![(3, behavior.clone_box().into())];
                let (_, delivered) = run_rbc(4, 1, 0, byz, &kind, seed);
                assert_eq!(delivered[..3], [Some(42); 3], "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn byzantine_dealer_split_brain_succeeds_at_n_3t() {
        // Sharpness: with n = 3t (n=3, t=1) the echo threshold is 3 ...
        // RbcState::new rejects it. This documents the boundary.
        let r = std::panic::catch_unwind(|| RbcState::<u64>::new(3, 1, 0));
        assert!(r.is_err(), "n = 3t must be rejected");
    }

    #[test]
    fn agreement_with_equivocating_dealer() {
        // Byzantine dealer sends Init(1) to {0,1} and Init(2) to {2}. With
        // n=4,t=1 honest players may deliver nothing, but they must never
        // deliver *different* values.
        let kickoff = vec![
            (0, RbcMsg::Init(1)),
            (1, RbcMsg::Init(1)),
            (2, RbcMsg::Init(2)),
        ];
        for kind in SchedulerKind::battery(4) {
            for seed in 0..10 {
                let dealer = ByzantineProcess::new(no_op()).with_kickoff(kickoff.clone());
                let (_, delivered) = run_rbc(4, 1, 3, vec![(3, dealer)], &kind, seed);
                let vals: Vec<u64> = delivered.iter().flatten().copied().collect();
                assert!(
                    vals.windows(2).all(|w| w[0] == w[1]),
                    "{kind:?} seed {seed}: {vals:?}"
                );
            }
        }
    }

    #[test]
    fn ready_amplification_delivers_late_starter() {
        // Even a player that missed all echoes delivers from 2t+1 readies.
        let n = 4;
        let mut s: RbcState<u64> = RbcState::new(n, 1, 0);
        let (_out, d) = deliver(&mut s, 1, RbcMsg::Ready(7));
        assert!(d.is_none());
        let (out, d) = deliver(&mut s, 2, RbcMsg::Ready(7));
        // t+1 = 2 readies: relays Ready itself.
        assert!(out.iter().any(|o| matches!(o.msg, RbcMsg::Ready(7))));
        assert!(d.is_none());
        let (_, d) = deliver(&mut s, 3, RbcMsg::Ready(7));
        // 2t+1 = 3 readies: delivers.
        assert_eq!(d, Some(7));
        assert!(s.is_delivered());
    }

    #[test]
    fn duplicate_votes_do_not_double_count() {
        let n = 4;
        let mut s: RbcState<u64> = RbcState::new(n, 1, 0);
        for _ in 0..10 {
            let (_, d) = deliver(&mut s, 1, RbcMsg::Ready(7));
            assert!(d.is_none(), "one voter repeated must never reach 2t+1");
        }
    }

    #[test]
    fn phantom_senders_never_make_a_quorum() {
        // Ids n, n+1, … name no player: 2t+1 of their readies (and echoes
        // past the echo threshold) neither relay nor deliver.
        let n = 4;
        let mut s: RbcState<u64> = RbcState::new(n, 1, 0);
        for from in n..2 * n {
            assert_eq!(deliver(&mut s, from, RbcMsg::Echo(7)), (Vec::new(), None));
            assert_eq!(deliver(&mut s, from, RbcMsg::Ready(7)), (Vec::new(), None));
        }
        assert!(!s.is_delivered());
    }

    #[test]
    fn message_complexity_is_quadratic() {
        // n players: 1 init broadcast + ≤ n echo broadcasts + ≤ n ready
        // broadcasts → O(n^2) point-to-point messages sent; and every one of
        // the n players needs 2t+1 readies delivered before it can deliver
        // (peers halt on delivery, so later traffic to them is not counted).
        let (n, t) = (7, 2);
        for kind in SchedulerKind::battery(n) {
            let (outcome, delivered) = run_rbc(n, t, 0, Vec::new(), &kind, 0);
            assert_eq!(delivered, vec![Some(42); n], "{kind:?}");
            let (sent, recv) = (outcome.messages_sent, outcome.messages_delivered);
            assert!(sent <= ((1 + 2 * n) * n) as u64, "{kind:?}: sent={sent}");
            assert!(recv >= (n * (2 * t + 1)) as u64, "{kind:?}: recv={recv}");
        }
    }
}
