//! Randomized binary Byzantine agreement (`t < n/3`).
//!
//! Structure (Mostéfaoui–Moumen–Raynal): each round runs a *binary-value
//! broadcast* (`BVal` with `t+1`-relay and `2t+1`-acceptance) to filter out
//! values proposed only by byzantine players, then an `Aux` exchange to
//! collect `n − t` opinions over the accepted values, then a common coin.
//! A singleton opinion set `{v}` sets the estimate to `v` and decides when
//! `v` equals the coin; otherwise the estimate becomes the coin.
//!
//! Two rules keep an instance at its floor of three broadcasts per player
//! (`BVal`, `Aux`, `Done`) when the votes are unanimous:
//!
//! * **Fixed coins for rounds 1–2.** Round 1 flips the constant 1 and
//!   round 2 the constant 0; the [`CoinSource`] is consulted from round 3
//!   on. Safety asks only that the coin be common, and a constant is, so
//!   unanimous 1 decides in round 1 and unanimous 0 in round 2.
//! * **A decided player stops proposing.** Once the coin rule fires here,
//!   every honest player enters the next round with the decided value as
//!   its estimate, so this player sends no proactive `BVal` in any later
//!   round. It still relays `BVal` at `t + 1`, sends `Aux` and `Done`, so
//!   a round that still has `t + 1` undecided honest proposers runs as
//!   before, and otherwise `t + 1` honest `Done` halt everyone.
//!
//! Guarantees with `n > 3t`:
//!
//! * **Validity** — the decision is some honest player's input.
//! * **Agreement** — no two honest players decide differently.
//! * **Termination** — with probability 1 (expected O(1) rounds with a
//!   common coin).
//!
//! A Bracha-style `Done` gadget (relay at `t+1`, halt at `2t+1`) lets
//! processes stop participating.
//!
//! Every vote set is a [`PartySet`] bitset, and a sender id `≥ n` names no
//! player: its message is ignored, so no quorum can be made of phantoms.

use crate::coin::CoinSource;
use mediator_sim::sansio::Outgoing;
use mediator_sim::PartySet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Agreement wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbaMsg {
    /// Binary-value broadcast vote for `v` in `round`.
    BVal { round: u64, v: bool },
    /// Opinion carrying an accepted value in `round`.
    Aux { round: u64, v: bool },
    /// Decision announcement (termination gadget).
    Done { v: bool },
}

/// A lone instance's stream is untagged: the tag names the one instance
/// its peer runs, so [`AbaPeer`](crate::AbaPeer) drops it.
impl From<(usize, AbaMsg)> for AbaMsg {
    fn from((_, msg): (usize, AbaMsg)) -> Self {
        msg
    }
}

#[derive(Debug, Clone, Default)]
struct RoundState {
    bval_recv: [PartySet; 2],
    bval_sent: [bool; 2],
    bin_values: [bool; 2],
    aux_recv: [PartySet; 2],
    aux_sent: bool,
    completed: bool,
}

/// Livelock guard: [`AbaState::on_message`] panics past this round.
const MAX_ROUNDS: u64 = 10_000;

/// The coin of `round`: the constants 1 and 0 in rounds 1 and 2, `coin`'s
/// flip from round 3 on.
fn round_coin(coin: &mut dyn CoinSource, instance: u64, round: u64) -> bool {
    match round {
        1 => true,
        2 => false,
        _ => coin.flip(instance, round),
    }
}

/// One player's state in one binary-agreement instance.
#[derive(Debug, Clone)]
pub struct AbaState {
    n: usize,
    t: usize,
    instance: u64,
    coin: Box<dyn CoinSource>,
    est: bool,
    round: u64,
    rounds: BTreeMap<u64, RoundState>,
    decided: Option<bool>,
    /// The coin rule fired here: no proactive `BVal` from now on.
    quiet: bool,
    done_sent: bool,
    done_recv: [PartySet; 2],
    halted: bool,
    started: bool,
}

impl AbaState {
    /// Creates the state for one instance.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t`.
    pub fn new(n: usize, t: usize, instance: u64, coin: Box<dyn CoinSource>) -> Self {
        assert!(n > 3 * t, "ABA requires n > 3t (n={n}, t={t})");
        AbaState {
            n,
            t,
            instance,
            coin,
            est: false,
            round: 0,
            rounds: BTreeMap::new(),
            decided: None,
            quiet: false,
            done_sent: false,
            done_recv: Default::default(),
            halted: false,
            started: false,
        }
    }

    /// Begins the instance with the player's input vote, then completes
    /// every round the votes already held allow: an adversarial schedule
    /// can deliver a whole round before the player starts, and no later
    /// message need come to re-test it. A decision reached here shows in
    /// [`AbaState::decided`]. Messages are appended to `out`, tagged with
    /// this instance's id.
    pub fn start<M: From<(usize, AbaMsg)>>(&mut self, input: bool, out: &mut Vec<Outgoing<M>>) {
        assert!(!self.started, "ABA instance started twice");
        self.started = true;
        self.est = input;
        self.round = 1;
        self.send_bval(1, input, out);
        self.try_complete_rounds(out);
    }

    /// The decision, if reached.
    pub fn decided(&self) -> Option<bool> {
        self.decided
    }

    /// Whether the termination gadget has fired (safe to stop routing).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether [`AbaState::start`] has been called.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Broadcasts `msg`, tagged with this instance's id.
    fn broadcast<M: From<(usize, AbaMsg)>>(&self, msg: AbaMsg, out: &mut Vec<Outgoing<M>>) {
        out.push(Outgoing::all(M::from((self.instance as usize, msg))));
    }

    fn send_bval<M: From<(usize, AbaMsg)>>(
        &mut self,
        round: u64,
        v: bool,
        out: &mut Vec<Outgoing<M>>,
    ) {
        let rs = self.rounds.entry(round).or_default();
        if !rs.bval_sent[v as usize] {
            rs.bval_sent[v as usize] = true;
            self.broadcast(AbaMsg::BVal { round, v }, out);
        }
    }

    /// Processes a message, appending what it sends to `out` (tagged with
    /// this instance's id); returns the decision if it is reached *now*
    /// (reported once). A sender id `≥ n` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if the instance exceeds 10 000 rounds (livelock guard for
    /// adversarial-scheduler experiments; never reached under fair
    /// schedulers).
    pub fn on_message<M: From<(usize, AbaMsg)>>(
        &mut self,
        from: usize,
        msg: AbaMsg,
        out: &mut Vec<Outgoing<M>>,
    ) -> Option<bool> {
        if self.halted || from >= self.n {
            return None;
        }
        let decided_before = self.decided;
        match msg {
            AbaMsg::BVal { round, v } => {
                let t = self.t;
                let rs = self.rounds.entry(round).or_default();
                rs.bval_recv[v as usize].insert(from);
                let count = rs.bval_recv[v as usize].len();
                if count > t {
                    self.send_bval(round, v, out);
                }
                let rs = self.rounds.entry(round).or_default();
                if count > 2 * t && !rs.bin_values[v as usize] {
                    rs.bin_values[v as usize] = true;
                    if !rs.aux_sent {
                        rs.aux_sent = true;
                        self.broadcast(AbaMsg::Aux { round, v }, out);
                    }
                }
            }
            AbaMsg::Aux { round, v } => {
                let rs = self.rounds.entry(round).or_default();
                rs.aux_recv[v as usize].insert(from);
            }
            AbaMsg::Done { v } => {
                self.done_recv[v as usize].insert(from);
                let count = self.done_recv[v as usize].len();
                if count > self.t && !self.done_sent {
                    // Adopt and announce: at least one honest player decided v.
                    self.decided = Some(v);
                    self.done_sent = true;
                    self.broadcast(AbaMsg::Done { v }, out);
                }
                if count > 2 * self.t {
                    self.decided = Some(v);
                    self.halted = true;
                }
            }
        }
        if self.started {
            self.try_complete_rounds(out);
        }
        match (decided_before, self.decided) {
            (None, Some(v)) => Some(v),
            _ => None,
        }
    }

    /// Advances the current round as long as its completion condition holds.
    fn try_complete_rounds<M: From<(usize, AbaMsg)>>(&mut self, out: &mut Vec<Outgoing<M>>) {
        loop {
            if self.halted {
                return;
            }
            assert!(
                self.round < MAX_ROUNDS,
                "ABA livelock: exceeded {MAX_ROUNDS} rounds"
            );
            let round = self.round;
            let t = self.t;
            let n = self.n;
            let rs = self.rounds.entry(round).or_default();
            if rs.completed {
                return; // shouldn't happen; defensive
            }
            // Completion: ≥ n−t AUX senders whose values are accepted.
            let vals = [0, 1].map(|v| rs.bin_values[v] && !rs.aux_recv[v].is_empty());
            let senders = match vals {
                [true, true] => rs.aux_recv[0].union_len(&rs.aux_recv[1]),
                [true, false] => rs.aux_recv[0].len(),
                [false, true] => rs.aux_recv[1].len(),
                [false, false] => return,
            };
            if senders < n - t {
                return;
            }
            rs.completed = true;
            let c = round_coin(self.coin.as_mut(), self.instance, round);
            if vals != [true, true] {
                // One accepted value, and `vals[1]` says whether it is `true`.
                let v = vals[1];
                self.est = v;
                if v == c {
                    self.quiet = true;
                    if self.decided.is_none() {
                        self.decided = Some(v);
                        if !self.done_sent {
                            self.done_sent = true;
                            self.broadcast(AbaMsg::Done { v }, out);
                        }
                    }
                }
            } else {
                self.est = c;
            }
            // Enter the next round, proposing only while undecided here.
            self.round += 1;
            if !self.quiet {
                let (r, e) = (self.round, self.est);
                self.send_bval(r, e, out);
            }
            // Messages for the next round may already be buffered; loop to
            // re-evaluate its completion with no new input.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::IdealCoin;
    use crate::driver::AbaPeer;
    use mediator_sim::sansio::{Behavior, Machines};
    use mediator_sim::SchedulerKind;

    /// Runs one ABA instance under `kind`, with the players in `byz`
    /// replaced by their behaviours; returns the decisions.
    fn run_aba(
        n: usize,
        t: usize,
        inputs: &[bool],
        byz: Vec<(usize, Behavior<AbaMsg>)>,
        kind: &SchedulerKind,
        seed: u64,
    ) -> Vec<Option<bool>> {
        let peers = (0..n)
            .map(|i| {
                AbaPeer::new(
                    AbaState::new(n, t, 0, Box::new(IdealCoin::new(99))),
                    inputs[i],
                )
            })
            .collect();
        let mut run = Machines::new(peers);
        for (p, b) in byz {
            run = run.byzantine(p, b);
        }
        run.run(kind.build().as_mut(), seed, 2_000_000).1
    }

    fn no_op() -> Behavior<AbaMsg> {
        Box::new(|_, _, _| Vec::new())
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        for kind in SchedulerKind::battery(4) {
            for seed in 0..5 {
                for v in [false, true] {
                    let d = run_aba(4, 1, &[v; 4], vec![], &kind, seed);
                    assert_eq!(d, vec![Some(v); 4], "{kind:?} seed {seed} v {v}");
                }
            }
        }
    }

    #[test]
    fn mixed_inputs_agree_on_something_valid() {
        let inputs = [true, false, true, false, true, false, true];
        for kind in SchedulerKind::battery(7) {
            for seed in 0..10 {
                let d = run_aba(7, 2, &inputs, vec![], &kind, seed);
                let first = d[0].expect("decided");
                for di in &d {
                    assert_eq!(*di, Some(first), "agreement, {kind:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn tolerates_silent_byzantine() {
        for kind in SchedulerKind::battery(4) {
            for seed in 0..5 {
                let byz = vec![(2, no_op())];
                let d = run_aba(4, 1, &[true; 4], byz, &kind, seed);
                for (i, di) in d.iter().enumerate() {
                    if i != 2 {
                        assert_eq!(*di, Some(true), "{kind:?} seed {seed} player {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn tolerates_contrarian_byzantine_votes() {
        // Byzantine player floods BVal/Aux votes for the opposite value.
        // (It must not message itself: self-deliveries re-trigger the
        // behaviour and model a mailbox loop, not a protocol attack.)
        let behavior: Behavior<AbaMsg> = Box::new(|me, _from, msg| match *msg {
            AbaMsg::BVal { round, v } => (0..4)
                .filter(|&p| p != me)
                .flat_map(|p| {
                    vec![
                        (p, AbaMsg::BVal { round, v: !v }),
                        (p, AbaMsg::Aux { round, v: !v }),
                    ]
                })
                .collect(),
            _ => Vec::new(),
        });
        for kind in SchedulerKind::battery(4) {
            for seed in 0..10 {
                let byz = vec![(3, behavior.clone_box())];
                let d = run_aba(4, 1, &[true; 4], byz, &kind, seed);
                // Validity: all honest had input true; one byzantine cannot
                // get false accepted (needs 2t+1 = 3 BVal senders).
                for (i, di) in d.iter().enumerate() {
                    if i != 3 {
                        assert_eq!(*di, Some(true), "{kind:?} seed {seed} player {i}");
                    }
                }
            }
        }
    }

    type Out = Vec<Outgoing<AbaMsg>>;

    /// Delivers one message; returns what `s` sent and the fresh decision.
    fn deliver(s: &mut AbaState, from: usize, msg: AbaMsg) -> (Out, Option<bool>) {
        let mut out = Vec::new();
        let decided = s.on_message(from, msg, &mut out);
        (out, decided)
    }

    /// Starts `s` with `v`; returns what it sent.
    fn start(s: &mut AbaState, v: bool) -> Out {
        let mut out = Vec::new();
        s.start(v, &mut out);
        out
    }

    /// A coin source that must not be asked.
    #[derive(Debug, Clone)]
    struct NoCoin;

    impl CoinSource for NoCoin {
        fn flip(&mut self, _instance: u64, round: u64) -> bool {
            panic!("coin source consulted in round {round}")
        }
        fn clone_box(&self) -> Box<dyn CoinSource> {
            Box::new(NoCoin)
        }
    }

    /// Delivers `BVal { round, v }` and then `Aux { round, v }` from players
    /// `0..3` to `s`; returns everything `s` sent.
    fn unanimous_round(s: &mut AbaState, round: u64, v: bool) -> Vec<AbaMsg> {
        let bvals = (0..3).map(|from| (from, AbaMsg::BVal { round, v }));
        let auxes = (0..3).map(|from| (from, AbaMsg::Aux { round, v }));
        bvals
            .chain(auxes)
            .flat_map(|(from, m)| deliver(s, from, m).0)
            .map(|o| o.msg)
            .collect()
    }

    #[test]
    fn unanimous_zero_decides_in_round_two_on_fixed_coins_then_only_relays() {
        let (n, t) = (4, 1);
        let mut s = AbaState::new(n, t, 0, Box::new(NoCoin));
        let _ = start(&mut s, false);
        // Round 1 flips 1: `{0}` misses it and proposes 0 again in round 2.
        let sent = unanimous_round(&mut s, 1, false);
        assert_eq!(
            sent,
            [
                AbaMsg::Aux { round: 1, v: false },
                AbaMsg::BVal { round: 2, v: false }
            ]
        );
        assert_eq!(s.decided(), None);
        // Round 2 flips 0: decide and announce, and propose nothing for 3.
        let sent = unanimous_round(&mut s, 2, false);
        assert_eq!(
            sent,
            [
                AbaMsg::Aux { round: 2, v: false },
                AbaMsg::Done { v: false }
            ]
        );
        assert_eq!(s.decided(), Some(false));
        // A round someone else still runs: relayed at t + 1, voted at 2t + 1.
        let relay = deliver(&mut s, 0, AbaMsg::BVal { round: 3, v: false }).0;
        assert!(relay.is_empty(), "one proposer is not t + 1");
        let relay = deliver(&mut s, 1, AbaMsg::BVal { round: 3, v: false }).0;
        assert_eq!(relay, [Outgoing::all(AbaMsg::BVal { round: 3, v: false })]);
    }

    #[test]
    fn unanimous_one_decides_in_round_one_on_the_fixed_coin() {
        let mut s = AbaState::new(4, 1, 0, Box::new(NoCoin));
        assert_eq!(
            start(&mut s, true),
            [Outgoing::all(AbaMsg::BVal { round: 1, v: true })]
        );
        let sent = unanimous_round(&mut s, 1, true);
        assert_eq!(
            sent,
            [AbaMsg::Aux { round: 1, v: true }, AbaMsg::Done { v: true }]
        );
        assert_eq!(s.decided(), Some(true));
    }

    #[test]
    fn a_round_delivered_before_start_completes_at_start() {
        // n − t `BVal` and `Aux` for 1 arrive before the player starts: it
        // relays, votes `Aux`, but cannot complete an unstarted round. No
        // further message is owed to it, so `start` must decide.
        let mut s = AbaState::new(4, 1, 0, Box::new(NoCoin));
        let sent = unanimous_round(&mut s, 1, true);
        assert_eq!(
            sent,
            [
                AbaMsg::BVal { round: 1, v: true },
                AbaMsg::Aux { round: 1, v: true }
            ]
        );
        assert_eq!(s.decided(), None);
        assert_eq!(
            start(&mut s, true),
            [Outgoing::all(AbaMsg::Done { v: true })]
        );
        assert_eq!(s.decided(), Some(true));
    }

    #[test]
    fn done_gadget_halts_states() {
        let n = 4;
        let mut s = AbaState::new(n, 1, 0, Box::new(IdealCoin::new(0)));
        let _ = start(&mut s, true);
        // 2t+1 = 3 Done(v) messages halt even a fresh state.
        let (_, d1) = deliver(&mut s, 0, AbaMsg::Done { v: false });
        assert!(d1.is_none());
        let (out2, d2) = deliver(&mut s, 1, AbaMsg::Done { v: false });
        // t+1 = 2: adopt and announce.
        assert_eq!(d2, Some(false));
        assert!(out2
            .iter()
            .any(|o| matches!(o.msg, AbaMsg::Done { v: false })));
        let (_, _) = deliver(&mut s, 2, AbaMsg::Done { v: false });
        assert!(s.is_halted());
        assert_eq!(s.decided(), Some(false));
    }

    #[test]
    fn phantom_senders_never_make_a_quorum() {
        // Ids n, n+1, … name no player: counted, t+1 phantom Done would make
        // a fresh state adopt v and 2t+1 would halt it. Neither they nor a
        // full round of phantom BVal / Aux may move anything.
        let n = 4;
        let mut s = AbaState::new(n, 1, 0, Box::new(IdealCoin::new(0)));
        for from in n..2 * n {
            assert_eq!(
                deliver(&mut s, from, AbaMsg::Done { v: false }),
                (vec![], None)
            );
        }
        assert!(!s.is_halted() && s.decided().is_none());
        let _ = start(&mut s, true);
        for from in n..2 * n {
            for msg in [
                AbaMsg::BVal { round: 1, v: false },
                AbaMsg::Aux { round: 1, v: false },
            ] {
                assert_eq!(deliver(&mut s, from, msg), (vec![], None));
            }
        }
        assert!(!s.is_halted() && s.decided().is_none());
        // Real senders still count.
        for from in 0..2 {
            deliver(&mut s, from, AbaMsg::Done { v: false });
        }
        assert_eq!(s.decided(), Some(false));
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn rejects_insufficient_n() {
        let _ = AbaState::new(3, 1, 0, Box::new(IdealCoin::new(0)));
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn rejects_double_start() {
        let mut s = AbaState::new(4, 1, 0, Box::new(IdealCoin::new(0)));
        let _ = start(&mut s, true);
        let _ = start(&mut s, false);
    }
}
