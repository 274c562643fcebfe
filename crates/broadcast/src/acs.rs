//! BKR agreement on a common subset (ACS).
//!
//! Every player reliably-broadcasts a value; `n` binary-agreement instances
//! then decide *whose* broadcasts make it into the common subset. Honest
//! players vote 1 for instance `j` when they deliver `j`'s broadcast, and
//! vote 0 on all not-yet-started instances once `n − t` instances have
//! decided 1. Guarantees for `n > 3t`:
//!
//! * all honest players output the **same** subset `S` with `|S| ≥ n − t`;
//! * for every `j ∈ S`, all honest players hold `j`'s broadcast value
//!   (ABA validity: deciding 1 means some honest voted 1, which means it
//!   delivered the broadcast, which by RBC agreement everyone then does);
//! * every honest player's own value is a candidate (if the player is
//!   scheduled fairly its broadcast completes and its instance gets 1-votes).
//!
//! This is the mechanism that makes "wait for n−t inputs" *consistent* in
//! the asynchronous MPC input phase — without it, different honest players
//! would proceed with different input sets.

use crate::aba::{AbaMsg, AbaState};
use crate::coin::{CoinSource, IdealCoin};
use crate::rbc::{RbcMsg, RbcState};
use mediator_sim::sansio::{map_batch, Outgoing};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// ACS wire messages: instance-tagged sub-protocol messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcsMsg<V> {
    /// A reliable-broadcast message of `dealer`'s instance.
    Rbc {
        /// Whose broadcast this belongs to.
        dealer: usize,
        /// The inner RBC message.
        inner: RbcMsg<V>,
    },
    /// A binary-agreement message of instance `instance`.
    Aba {
        /// Which party's membership is being decided.
        instance: usize,
        /// The inner ABA message.
        inner: AbaMsg,
    },
}

/// One step's result: outgoing messages plus the final common subset, if it
/// is emitted now (exactly once per player), as a map `party → value`.
pub type AcsStep<V> = (Vec<Outgoing<AcsMsg<V>>>, Option<BTreeMap<usize, V>>);

/// One player's state in an agreement-on-common-subset execution.
#[derive(Debug, Clone)]
pub struct AcsState<V> {
    n: usize,
    t: usize,
    me: usize,
    rbc: Vec<RbcState<V>>,
    aba: Vec<AbaState>,
    values: Vec<Option<V>>,
    decisions: Vec<Option<bool>>,
    voted_zero: bool,
    output_emitted: bool,
}

impl<V: Clone + Ord> AcsState<V> {
    /// Creates the state for player `me`; all agreement instances share the
    /// ideal coin seeded with `coin_seed`.
    pub fn new(n: usize, t: usize, me: usize, coin_seed: u64) -> Self {
        Self::with_coin(n, t, me, &IdealCoin::new(coin_seed))
    }

    /// As [`AcsState::new`] with an explicit coin source.
    pub fn with_coin(n: usize, t: usize, me: usize, coin: &dyn CoinSource) -> Self {
        assert!(n > 3 * t, "ACS requires n > 3t (n={n}, t={t})");
        AcsState {
            n,
            t,
            me,
            rbc: (0..n).map(|d| RbcState::new(n, t, d)).collect(),
            aba: (0..n)
                .map(|j| AbaState::new(n, t, j as u64, coin.clone_box()))
                .collect(),
            values: vec![None; n],
            decisions: vec![None; n],
            voted_zero: false,
            output_emitted: false,
        }
    }

    /// Starts by broadcasting this player's `value`.
    pub fn start(&mut self, value: V) -> Vec<Outgoing<AcsMsg<V>>> {
        let me = self.me;
        let batch = self.rbc[me].start(value);
        map_batch(batch, |inner| AcsMsg::Rbc { dealer: me, inner })
    }

    /// The delivered broadcast value of party `j`, if known.
    pub fn value_of(&self, j: usize) -> Option<&V> {
        self.values[j].as_ref()
    }

    /// Processes a message; returns outgoing messages plus the final common
    /// subset (emitted exactly once) as a map `party → value`.
    pub fn on_message(&mut self, from: usize, msg: AcsMsg<V>) -> AcsStep<V> {
        let mut out = Vec::new();
        match msg {
            AcsMsg::Rbc { dealer, inner } => {
                if dealer >= self.n {
                    return (out, None); // malformed tag: drop
                }
                let (batch, delivered) = self.rbc[dealer].on_message(from, inner);
                out.extend(map_batch(batch, |inner| AcsMsg::Rbc { dealer, inner }));
                if let Some(v) = delivered {
                    self.values[dealer] = Some(v);
                    if !self.aba[dealer].is_started() {
                        let batch = self.aba[dealer].start(true);
                        out.extend(map_batch(batch, |inner| AcsMsg::Aba {
                            instance: dealer,
                            inner,
                        }));
                    }
                }
            }
            AcsMsg::Aba { instance, inner } => {
                if instance >= self.n {
                    return (out, None);
                }
                let (batch, decided) = self.aba[instance].on_message(from, inner);
                out.extend(map_batch(batch, |inner| AcsMsg::Aba { instance, inner }));
                if let Some(d) = decided {
                    self.decisions[instance] = Some(d);
                    self.maybe_vote_zero(&mut out);
                }
            }
        }
        let output = self.try_output();
        (out, output)
    }

    /// Once n−t instances decided 1, vote 0 everywhere we haven't voted.
    fn maybe_vote_zero(&mut self, out: &mut Vec<Outgoing<AcsMsg<V>>>) {
        if self.voted_zero {
            return;
        }
        let ones = self.decisions.iter().filter(|d| **d == Some(true)).count();
        if ones < self.n - self.t {
            return;
        }
        self.voted_zero = true;
        for j in 0..self.n {
            if !self.aba[j].is_started() {
                let batch = self.aba[j].start(false);
                out.extend(map_batch(batch, |inner| AcsMsg::Aba { instance: j, inner }));
            }
        }
    }

    /// Whether this player has output its subset **and** every constituent
    /// agreement instance has halted via its termination gadget — the point
    /// at which it is safe to stop routing messages to this player without
    /// endangering peers still below quorum (the `SansIo::is_done` rule for
    /// [`AcsPeer`](crate::driver::AcsPeer)).
    pub fn is_finished(&self) -> bool {
        self.output_emitted && self.aba.iter().all(|a| a.is_halted())
    }

    /// Output when every instance has decided and every member's value is
    /// delivered.
    fn try_output(&mut self) -> Option<BTreeMap<usize, V>> {
        if self.output_emitted {
            return None;
        }
        if self.decisions.iter().any(|d| d.is_none()) {
            return None;
        }
        let mut subset = BTreeMap::new();
        for j in 0..self.n {
            if self.decisions[j] == Some(true) {
                match &self.values[j] {
                    Some(v) => {
                        subset.insert(j, v.clone());
                    }
                    None => return None, // value still in flight
                }
            }
        }
        self.output_emitted = true;
        Some(subset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::AcsPeer;
    use mediator_sim::sansio::{Behavior, Machines};
    use mediator_sim::SchedulerKind;

    /// Runs one ACS execution (player `i` contributes `100 + i`) under
    /// `kind` with the players in `byz` silent; returns (outputs,
    /// deliveries).
    fn run_acs(
        n: usize,
        t: usize,
        byz: &[usize],
        kind: &SchedulerKind,
        seed: u64,
    ) -> (Vec<Option<BTreeMap<usize, u64>>>, u64) {
        let peers = (0..n)
            .map(|i| AcsPeer::new(n, t, i, 7, 100 + i as u64))
            .collect();
        let mut run = Machines::new(peers);
        for &p in byz {
            let silent: Behavior<AcsMsg<u64>> = Box::new(|_, _, _| Vec::new());
            run = run.byzantine(p, silent);
        }
        let (outcome, outputs) = run.run(kind.build().as_mut(), seed, 2_000_000);
        (outputs, outcome.messages_delivered)
    }

    #[test]
    fn all_honest_agree_on_full_subset() {
        for kind in SchedulerKind::battery(4) {
            for seed in 0..5 {
                let (outputs, _) = run_acs(4, 1, &[], &kind, seed);
                let first = outputs[0].clone().expect("output");
                assert!(first.len() >= 3, "|S| ≥ n−t");
                for o in &outputs {
                    assert_eq!(o.as_ref(), Some(&first), "{kind:?} seed {seed}");
                }
                for (&j, &v) in &first {
                    assert_eq!(v, 100 + j as u64);
                }
            }
        }
    }

    #[test]
    fn silent_party_is_excluded_but_acs_completes() {
        for kind in SchedulerKind::battery(4) {
            for seed in 0..5 {
                let (outputs, _) = run_acs(4, 1, &[2], &kind, seed);
                let first = outputs[0].clone().expect("output despite silent party");
                assert!(first.len() >= 3);
                assert!(
                    !first.contains_key(&2),
                    "silent party cannot be in S (no RBC)"
                );
                for (i, o) in outputs.iter().enumerate() {
                    if i != 2 {
                        assert_eq!(o.as_ref(), Some(&first), "{kind:?} seed {seed} player {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn subset_size_lower_bound_holds_across_seeds() {
        for kind in SchedulerKind::battery(7) {
            for seed in 0..10 {
                let (outputs, _) = run_acs(7, 2, &[5, 6], &kind, seed);
                let s = outputs[0].clone().expect("output");
                assert!(s.len() >= 5, "{kind:?}: n−t = 5, got {}", s.len());
            }
        }
    }

    #[test]
    fn values_of_members_are_held_by_everyone() {
        let n = 5;
        for kind in SchedulerKind::battery(n) {
            for seed in 0..5 {
                let (outputs, _) = run_acs(n, 1, &[], &kind, seed);
                let s = outputs[0].clone().unwrap();
                for o in outputs.iter().flatten() {
                    for &j in s.keys() {
                        assert!(o.contains_key(&j));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn rejects_insufficient_n() {
        let _ = AcsState::<u64>::new(6, 2, 0, 0);
    }

    #[test]
    fn message_complexity_reported() {
        // ACS = n RBCs + n ABAs: O(n^3)-ish point-to-point messages. This
        // records the measurement the E5 experiment scales.
        let (_, delivered4) = run_acs(4, 1, &[], &SchedulerKind::Random, 0);
        let (_, delivered7) = run_acs(7, 2, &[], &SchedulerKind::Random, 0);
        assert!(delivered7 > delivered4);
    }
}
