//! `AbaState` counts its votes in `PartySet` bitsets and tests round
//! completion with one `union_len`. This suite keeps the state it replaced —
//! `BTreeSet<usize>` vote sets, a union rebuilt on every message — as a
//! test-tree oracle, and holds the two to the same outgoing batch, decision
//! and halting status after every message: over random streams (duplicate
//! and contradictory votes, far-future rounds, `Done` floods, `start`
//! before, amid or after the traffic) and over whole honest executions.
//! The oracle carries the same agreement rules — fixed coins 1 and 0 in
//! rounds 1 and 2, no proactive `BVal` once the coin rule has fired, rounds
//! completed at `start` on the votes already held — so the comparison is of
//! the data structures, message by message. The one rule it predates is
//! the round guard: a `BVal` / `Aux` naming round 0 or a round past the
//! livelock bound is dropped. Such a vote is checked to leave the new
//! state silent and unchanged, and is kept from the oracle.

use mediator_bcast::{AbaMsg, AbaState, CoinSource, IdealCoin};
use mediator_sim::sansio::{Dest, Outgoing};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The pre-bitset `AbaState`, verbatim but for its name, its doc comments,
/// the two agreement rules and the start rule (its livelock bound is still
/// the field it was).
mod oracle {
    use super::*;

    #[derive(Debug, Clone, Default)]
    struct RoundState {
        bval_recv: [BTreeSet<usize>; 2],
        bval_sent: [bool; 2],
        bin_values: [bool; 2],
        aux_recv: [BTreeSet<usize>; 2],
        aux_sent: bool,
        completed: bool,
    }

    #[derive(Debug, Clone)]
    pub struct OracleAba {
        n: usize,
        t: usize,
        instance: u64,
        coin: Box<dyn CoinSource>,
        est: bool,
        round: u64,
        rounds: BTreeMap<u64, RoundState>,
        decided: Option<bool>,
        quiet: bool,
        done_sent: bool,
        done_recv: [BTreeSet<usize>; 2],
        halted: bool,
        started: bool,
        max_rounds: u64,
    }

    impl OracleAba {
        pub fn new(n: usize, t: usize, instance: u64, coin: Box<dyn CoinSource>) -> Self {
            assert!(n > 3 * t, "ABA requires n > 3t (n={n}, t={t})");
            OracleAba {
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
                done_recv: [BTreeSet::new(), BTreeSet::new()],
                halted: false,
                started: false,
                max_rounds: 10_000,
            }
        }

        pub fn start(&mut self, input: bool) -> Vec<Outgoing<AbaMsg>> {
            assert!(!self.started, "ABA instance started twice");
            self.started = true;
            self.est = input;
            self.round = 1;
            let mut out = Vec::new();
            self.send_bval(1, input, &mut out);
            self.try_complete_rounds(&mut out);
            out
        }

        pub fn decided(&self) -> Option<bool> {
            self.decided
        }

        pub fn is_halted(&self) -> bool {
            self.halted
        }

        pub fn is_started(&self) -> bool {
            self.started
        }

        fn send_bval(&mut self, round: u64, v: bool, out: &mut Vec<Outgoing<AbaMsg>>) {
            let rs = self.rounds.entry(round).or_default();
            if !rs.bval_sent[v as usize] {
                rs.bval_sent[v as usize] = true;
                out.push(Outgoing::all(AbaMsg::BVal { round, v }));
            }
        }

        pub fn on_message(
            &mut self,
            from: usize,
            msg: AbaMsg,
        ) -> (Vec<Outgoing<AbaMsg>>, Option<bool>) {
            let mut out = Vec::new();
            if self.halted {
                return (out, None);
            }
            let decided_before = self.decided;
            match msg {
                AbaMsg::BVal { round, v } => {
                    let t = self.t;
                    let rs = self.rounds.entry(round).or_default();
                    rs.bval_recv[v as usize].insert(from);
                    let count = rs.bval_recv[v as usize].len();
                    if count > t {
                        self.send_bval(round, v, &mut out);
                    }
                    let rs = self.rounds.entry(round).or_default();
                    if count > 2 * t && !rs.bin_values[v as usize] {
                        rs.bin_values[v as usize] = true;
                        if !rs.aux_sent {
                            rs.aux_sent = true;
                            out.push(Outgoing::all(AbaMsg::Aux { round, v }));
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
                        self.decided = Some(v);
                        self.done_sent = true;
                        out.push(Outgoing::all(AbaMsg::Done { v }));
                    }
                    if count > 2 * self.t {
                        self.decided = Some(v);
                        self.halted = true;
                    }
                }
            }
            if self.started {
                self.try_complete_rounds(&mut out);
            }
            let newly = match (decided_before, self.decided) {
                (None, Some(v)) => Some(v),
                _ => None,
            };
            (out, newly)
        }

        fn try_complete_rounds(&mut self, out: &mut Vec<Outgoing<AbaMsg>>) {
            loop {
                if self.halted {
                    return;
                }
                assert!(
                    self.round < self.max_rounds,
                    "ABA livelock: exceeded {} rounds",
                    self.max_rounds
                );
                let round = self.round;
                let t = self.t;
                let n = self.n;
                let rs = self.rounds.entry(round).or_default();
                if rs.completed {
                    return;
                }
                let mut senders: BTreeSet<usize> = BTreeSet::new();
                let mut vals: Vec<bool> = Vec::new();
                for v in [false, true] {
                    if rs.bin_values[v as usize] && !rs.aux_recv[v as usize].is_empty() {
                        senders.extend(rs.aux_recv[v as usize].iter());
                        vals.push(v);
                    }
                }
                if senders.len() < n - t || vals.is_empty() {
                    return;
                }
                rs.completed = true;
                let c = match round {
                    1 => true,
                    2 => false,
                    _ => self.coin.flip(self.instance, round),
                };
                if vals.len() == 1 {
                    let v = vals[0];
                    self.est = v;
                    if v == c {
                        self.quiet = true;
                        if self.decided.is_none() {
                            self.decided = Some(v);
                            if !self.done_sent {
                                self.done_sent = true;
                                out.push(Outgoing::all(AbaMsg::Done { v }));
                            }
                        }
                    }
                } else {
                    self.est = c;
                }
                self.round += 1;
                if !self.quiet {
                    let (r, e) = (self.round, self.est);
                    self.send_bval(r, e, out);
                }
            }
        }
    }
}

use oracle::OracleAba;

/// The last round a vote may name: the livelock bound, 10 000 rounds.
const ROUND_GUARD: u64 = 10_000;

/// One player's new state and its oracle, fed in lockstep.
struct Pair {
    new: AbaState,
    old: OracleAba,
}

impl Pair {
    fn new(n: usize, t: usize, instance: u64, coin: impl CoinSource + Clone + 'static) -> Self {
        Pair {
            new: AbaState::new(n, t, instance, Box::new(coin.clone())),
            old: OracleAba::new(n, t, instance, Box::new(coin)),
        }
    }

    fn start(&mut self, input: bool, ctx: &str) -> Vec<Outgoing<AbaMsg>> {
        let mut out = Vec::new();
        self.new.start(input, &mut out);
        assert_eq!(out, self.old.start(input), "start: {ctx}");
        self.same_status(ctx);
        out
    }

    fn deliver(&mut self, from: usize, msg: AbaMsg, ctx: &str) -> Vec<Outgoing<AbaMsg>> {
        let mut out = Vec::new();
        let decided = self.new.on_message(from, msg, &mut out);
        let got = (out, decided);
        if let AbaMsg::BVal { round, .. } | AbaMsg::Aux { round, .. } = msg {
            if !(1..=ROUND_GUARD).contains(&round) {
                assert_eq!(
                    got,
                    (vec![], None),
                    "{from} → {msg:?} past the guard: {ctx}"
                );
                self.same_status(ctx);
                return got.0;
            }
        }
        assert_eq!(
            got,
            self.old.on_message(from, msg),
            "{from} → {msg:?}: {ctx}"
        );
        self.same_status(ctx);
        got.0
    }

    fn same_status(&self, ctx: &str) {
        assert_eq!(self.new.decided(), self.old.decided(), "decided: {ctx}");
        assert_eq!(self.new.is_halted(), self.old.is_halted(), "halted: {ctx}");
        assert_eq!(
            self.new.is_started(),
            self.old.is_started(),
            "started: {ctx}"
        );
    }
}

/// Decodes one random word into a message from a sender in `0..n`: mostly
/// rounds 1–3 (where completions happen), some later rounds and some far in
/// the future; `Done` drawn with weight `done_bias / 8`, and `v = true` with
/// weight `lean / 4` — a stream leaning to one value completes rounds on a
/// single accepted value, a balanced one on both.
fn message(x: u64, n: usize, done_bias: u64, lean: u64) -> (usize, AbaMsg) {
    let from = (x % n as u64) as usize;
    let v = (x >> 16) % 4 < lean;
    let round = match (x >> 20) % 16 {
        0 => 1_000_000 + (x >> 40) % 4,
        r @ 1..=12 => 1 + (r - 1) / 4,
        _ => 4 + (x >> 24) % 4,
    };
    let msg = match (x >> 8) % 8 {
        k if k < done_bias => AbaMsg::Done { v },
        k if k % 2 == 0 => AbaMsg::BVal { round, v },
        _ => AbaMsg::Aux { round, v },
    };
    (from, msg)
}

proptest! {
    #[test]
    fn bitset_state_matches_the_btreeset_oracle_on_random_streams(
        n in 1usize..14,
        t_word in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..400),
        start_at in 0usize..=420,
        input in any::<bool>(),
        coin_seed in any::<u64>(),
        done_bias in 0u64..5,
        lean in 0u64..=4,
    ) {
        let t = (t_word % ((n as u64 - 1) / 3 + 1)) as usize;
        let mut pair = Pair::new(n, t, 3, IdealCoin::new(coin_seed));
        let ctx = format!("n={n} t={t}");
        for (i, &x) in words.iter().enumerate() {
            if i == start_at {
                pair.start(input, &ctx);
            }
            let (from, msg) = message(x, n, done_bias, lean);
            pair.deliver(from, msg, &ctx);
        }
        if start_at >= words.len() && start_at <= words.len() + 1 {
            pair.start(input, &ctx);
            pair.deliver(0, AbaMsg::Aux { round: 1, v: input }, &ctx);
        }
    }
}

proptest! {
    /// The random streams again, with the far-future rounds moved astride
    /// the guard (9 998–10 001), so votes for sparse rounds the table
    /// keeps are compared with the oracle next to votes it drops.
    #[test]
    fn bitset_state_matches_the_oracle_astride_the_round_guard(
        n in 1usize..14,
        t_word in any::<u64>(),
        words in proptest::collection::vec(any::<u64>(), 0..400),
        start_at in 0usize..=420,
        input in any::<bool>(),
        coin_seed in any::<u64>(),
        done_bias in 0u64..5,
        lean in 0u64..=4,
    ) {
        let t = (t_word % ((n as u64 - 1) / 3 + 1)) as usize;
        let mut pair = Pair::new(n, t, 3, IdealCoin::new(coin_seed));
        let ctx = format!("n={n} t={t}");
        for (i, &x) in words.iter().enumerate() {
            if i == start_at {
                pair.start(input, &ctx);
            }
            let (from, msg) = match message(x, n, done_bias, lean) {
                (from, AbaMsg::BVal { round, v }) if round >= 1_000_000 => {
                    (from, AbaMsg::BVal { round: round - 1_000_000 + 9_998, v })
                }
                (from, AbaMsg::Aux { round, v }) if round >= 1_000_000 => {
                    (from, AbaMsg::Aux { round: round - 1_000_000 + 9_998, v })
                }
                other => other,
            };
            pair.deliver(from, msg, &ctx);
        }
    }
}

/// Whole executions: `n` players, each a (new, oracle) pair, under a seeded
/// uniformly random delivery order until nothing is in flight. Every
/// delivery must agree, so the runs go through every round structure an
/// honest execution reaches.
#[test]
fn bitset_state_matches_the_oracle_over_whole_executions() {
    for (n, t) in [(1usize, 0usize), (4, 1), (7, 2), (13, 3), (13, 4)] {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut players: Vec<Pair> = (0..n)
                .map(|_| Pair::new(n, t, 7, IdealCoin::new(seed)))
                .collect();
            let ctx = format!("n={n} t={t} seed={seed}");
            let mut queue: Vec<(usize, usize, AbaMsg)> = Vec::new();
            let post = |queue: &mut Vec<(usize, usize, AbaMsg)>, from, out: Vec<Outgoing<_>>| {
                for o in out {
                    match o.dest {
                        Dest::One(d) => queue.push((from, d, o.msg)),
                        Dest::All => queue.extend((0..n).map(|d| (from, d, o.msg))),
                    }
                }
            };
            for (i, p) in players.iter_mut().enumerate() {
                let out = p.start(rng.gen(), &ctx);
                post(&mut queue, i, out);
            }
            let mut steps = 0u64;
            while !queue.is_empty() {
                steps += 1;
                assert!(steps < 5_000_000, "runaway execution: {ctx}");
                let (from, to, msg) = queue.swap_remove(rng.gen_range(0..queue.len()));
                let out = players[to].deliver(from, msg, &ctx);
                post(&mut queue, to, out);
            }
            let first = players[0].new.decided();
            assert!(first.is_some(), "undecided: {ctx}");
            for p in &players {
                assert_eq!(p.new.decided(), first, "agreement: {ctx}");
            }
        }
    }
}
