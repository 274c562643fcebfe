//! BKR agreement on a common subset (ACS): the rule that fixes the MPC
//! input core.
//!
//! `n` binary-agreement instances decide *whose* dealing enters the core,
//! instance `j` deciding player `j`. The rule is value-agnostic — the
//! dealings themselves are the caller's:
//!
//! * start instance `j` with 1 when `j`'s dealing completes locally, or with
//!   0 when it is rejected ([`Acs::vote`]);
//! * once `n − f` instances have decided 1, start every unstarted instance
//!   with 0;
//! * fix the core as the decided-1 set once all `n` instances have decided.
//!
//! Guarantees with `n > 3t`, when every honest player votes by its dealing:
//!
//! * every honest player fixes the **same** core (ABA agreement);
//! * `|core| ≥ n − f`: an honest player votes 0 only once `n − f`
//!   instances decided 1 at it, and those decide 1 everywhere;
//! * every member's dealing completed at some honest player (ABA validity:
//!   deciding 1 means an honest player voted 1), so a dealing protocol with
//!   a completeness guarantee (AVSS) completes it at every honest player.
//!
//! This is what makes "wait for `n − f` inputs" *consistent* in the
//! asynchronous MPC input phase: without it, different honest players would
//! proceed with different input sets.

use crate::aba::{AbaMsg, AbaState};
use crate::coin::CoinSource;
use mediator_sim::sansio::Outgoing;

/// One player's common-subset rule over `n` binary agreements. Each
/// instance appends its messages straight to the caller's outbox, tagged
/// as `(instance, msg)` and converted into the caller's wire type through
/// `From`.
///
/// Agreement runs at threshold `t` while the vote-zero rule waits for
/// `n − f` ones, and the two are different numbers in the MPC engine's
/// ε mode. There `f = k + t` players may withhold their dealings, so the
/// core cannot wait for more than `n − f` ones without stalling; but the
/// configuration guarantees only `n > 3t` (Theorem 4.5 runs at
/// `n > 2k + 3t`, where `n > 3f` can fail), so agreement must run at `t`.
/// In robust mode `t = f` and the two coincide.
#[derive(Debug, Clone)]
pub struct Acs {
    aba: Vec<AbaState>,
    decisions: Vec<Option<bool>>,
    /// Decided-1 instances after which the rest are voted 0: `n − f`.
    quorum: usize,
    voted_zero: bool,
    core: Option<Vec<usize>>,
}

impl Acs {
    /// Creates the `n` instances at agreement threshold `t`, instance `j`
    /// with id `j` and its own clone of `coin`; the vote-zero rule fires at
    /// `n − f` ones.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` and `f < n`.
    pub fn new(n: usize, t: usize, f: usize, coin: &dyn CoinSource) -> Self {
        assert!(f < n, "ACS waits for n − f ≥ 1 ones (n={n}, f={f})");
        Acs {
            aba: (0..n)
                .map(|j| AbaState::new(n, t, j as u64, coin.clone_box()))
                .collect(),
            decisions: vec![None; n],
            quorum: n - f,
            voted_zero: false,
            core: None,
        }
    }

    /// Starts `instance` with `v` — 1 when that player's dealing completed
    /// here, 0 when it was rejected. An instance already started (a dealing
    /// completing after the vote-zero rule fired) sends nothing. The start
    /// can itself decide, on votes that arrived first; that decision counts
    /// toward the vote-zero and core rules like any other.
    pub fn vote<M: From<(usize, AbaMsg)>>(
        &mut self,
        instance: usize,
        v: bool,
        out: &mut Vec<Outgoing<M>>,
    ) {
        if !self.aba[instance].is_started() {
            self.aba[instance].start(v, out);
            if self.decisions[instance].is_none() {
                if let Some(d) = self.aba[instance].decided() {
                    self.decide(instance, d, out);
                }
            }
        }
    }

    /// Processes `msg` of `instance` from `from`: emits the instance's batch,
    /// then, when its decision is the `n − f`-th 1, the vote-zero starts in
    /// instance order. An `instance ≥ n` is dropped, and a sender `≥ n` is
    /// ignored by the instance itself.
    pub fn on_message<M: From<(usize, AbaMsg)>>(
        &mut self,
        from: usize,
        instance: usize,
        msg: AbaMsg,
        out: &mut Vec<Outgoing<M>>,
    ) {
        let Some(aba) = self.aba.get_mut(instance) else {
            return;
        };
        if let Some(d) = aba.on_message(from, msg, out) {
            self.decide(instance, d, out);
        }
    }

    /// The core (the decided-1 instances, ascending) once every instance has
    /// decided.
    pub fn core(&self) -> Option<&[usize]> {
        self.core.as_deref()
    }

    /// Records `instance`'s decision, then applies the vote-zero and core
    /// rules.
    fn decide<M: From<(usize, AbaMsg)>>(
        &mut self,
        instance: usize,
        d: bool,
        out: &mut Vec<Outgoing<M>>,
    ) {
        self.decisions[instance] = Some(d);
        self.maybe_vote_zero(out);
        self.maybe_fix_core();
    }

    fn maybe_vote_zero<M: From<(usize, AbaMsg)>>(&mut self, out: &mut Vec<Outgoing<M>>) {
        if self.voted_zero {
            return;
        }
        let ones = self.decisions.iter().filter(|d| **d == Some(true)).count();
        if ones < self.quorum {
            return;
        }
        self.voted_zero = true;
        for j in 0..self.aba.len() {
            self.vote(j, false, out);
        }
    }

    fn maybe_fix_core(&mut self) {
        if self.core.is_some() || self.decisions.iter().any(|d| d.is_none()) {
            return;
        }
        let members = (0..self.decisions.len())
            .filter(|&j| self.decisions[j] == Some(true))
            .collect();
        self.core = Some(members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::IdealCoin;

    type Out = Vec<Outgoing<(usize, AbaMsg)>>;

    /// Feeds `t + 1` `Done { v }` for `instance` from senders `0..=t`: the
    /// instance adopts `v`, whether or not it was started.
    fn decide(acs: &mut Acs, t: usize, instance: usize, v: bool) -> Out {
        let mut out = Vec::new();
        for from in 0..=t {
            acs.on_message(from, instance, AbaMsg::Done { v }, &mut out);
        }
        out
    }

    fn bval(instance: usize, v: bool) -> Outgoing<(usize, AbaMsg)> {
        Outgoing::all((instance, AbaMsg::BVal { round: 1, v }))
    }

    #[test]
    fn vote_zero_fires_exactly_at_n_minus_f_ones() {
        // (7, 1, 3) is the ε-mode shape: agreement at t, ones at n − f.
        for (n, t, f) in [(4, 1, 1), (7, 2, 2), (7, 1, 3)] {
            let mut acs = Acs::new(n, t, f, &IdealCoin::new(3));
            for j in 0..n - f {
                let mut out = Vec::new();
                acs.vote(j, true, &mut out);
                assert_eq!(out, vec![bval(j, true)]);
                let out = decide(&mut acs, t, j, true);
                let done = Outgoing::all((j, AbaMsg::Done { v: true }));
                if j + 1 < n - f {
                    assert_eq!(out, vec![done], "(n, t, f) = {:?}", (n, t, f));
                } else {
                    let zeros = (n - f..n).map(|k| bval(k, false));
                    let want: Out = std::iter::once(done).chain(zeros).collect();
                    assert_eq!(out, want, "(n, t, f) = {:?}", (n, t, f));
                }
            }
            assert_eq!(acs.core(), None, "the voted-zero instances are undecided");
            for j in n - f..n {
                decide(&mut acs, t, j, false);
            }
            assert_eq!(acs.core(), Some(&(0..n - f).collect::<Vec<_>>()[..]));
        }
    }

    #[test]
    fn a_decision_reached_at_start_counts_toward_vote_zero_and_the_core() {
        // Instance 2's whole first round arrives before its dealing
        // completes (agreement traffic overtaking AVSS, as under Lifo), so
        // its start decides. That third 1 must fire vote-zero, and with
        // every instance decided, fix the core: no later message is owed.
        let (n, t) = (4, 1);
        let mut acs = Acs::new(n, t, 1, &IdealCoin::new(3));
        let mut out: Out = Vec::new();
        for j in [0, 1] {
            acs.vote(j, true, &mut out);
            decide(&mut acs, t, j, true);
        }
        decide(&mut acs, t, 3, false);
        for msg in [
            AbaMsg::BVal { round: 1, v: true },
            AbaMsg::Aux { round: 1, v: true },
        ] {
            for from in 0..n - t {
                acs.on_message(from, 2, msg, &mut out);
            }
        }
        assert_eq!(acs.core(), None);
        let mut out: Out = Vec::new();
        acs.vote(2, true, &mut out);
        let done = Outgoing::all((2, AbaMsg::Done { v: true }));
        assert_eq!(out, vec![done, bval(3, false)]);
        assert_eq!(acs.core(), Some(&[0, 1, 2][..]));
    }

    #[test]
    fn a_dealing_after_vote_zero_sends_nothing() {
        let mut acs = Acs::new(4, 1, 1, &IdealCoin::new(3));
        for j in 0..3 {
            decide(&mut acs, 1, j, true);
        }
        let mut out: Out = Vec::new();
        acs.vote(3, true, &mut out);
        assert!(out.is_empty(), "instance 3 already started with 0");
    }

    #[test]
    fn an_instance_past_n_is_dropped() {
        let mut acs = Acs::new(4, 1, 1, &IdealCoin::new(3));
        let mut out: Out = Vec::new();
        for from in 0..4 {
            let bval = AbaMsg::BVal { round: 1, v: true };
            acs.on_message(from, 4, bval, &mut out);
            acs.on_message(from, 4, AbaMsg::Done { v: true }, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(acs.core(), None);
    }

    #[test]
    fn a_sender_past_n_is_ignored() {
        // t + 1 `Done` from phantom ids would otherwise make instance 0
        // adopt a value nobody decided.
        let mut acs = Acs::new(4, 1, 1, &IdealCoin::new(3));
        let mut out: Out = Vec::new();
        for from in 4..8 {
            acs.on_message(from, 0, AbaMsg::Done { v: true }, &mut out);
        }
        assert!(out.is_empty());
        let out = decide(&mut acs, 1, 0, true);
        assert_eq!(out, vec![Outgoing::all((0, AbaMsg::Done { v: true }))]);
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn rejects_insufficient_n() {
        let _ = Acs::new(6, 2, 2, &IdealCoin::new(0));
    }
}
