//! Mediator games: the underlying game extended with a trusted mediator.
//!
//! The mediator is an extra simulated process (id `n`) whose strategy is an
//! arithmetic circuit, speaking the **canonical form** of §2: player `i`
//! sends `(i, 0, x_i)`; the mediator answers each round `r` with a message
//! that the player acks with `(i, r, x_i)`; the final message carries
//! `STOP` plus the action to play. The mediator waits for `n − k − t`
//! complete input sets before computing (a player that never shows up must
//! not block the game — the same rule the cheap-talk core agreement
//! enforces).
//!
//! Two mediator shapes matter for the experiments:
//!
//! * the **standard** one-round mediator (inputs → STOP(action));
//! * the §6.4 **naive** two-round mediator: round 1 privately sends the
//!   leak `a + b·i (mod 2)` and waits for *all* `n` acks — the design flaw
//!   the counterexample exploits — and only then STOPs with the action.
//!
//! `extra_rounds` inserts content-free rounds for the Lemma 6.8
//! message-count experiments.

use crate::adversary::{Scheduled, TacticState};
use mediator_circuits::Circuit;
use mediator_field::Fp;
use mediator_sim::{Action, Ctx, Process, ProcessId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Wire messages of a mediator game.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MedMsg {
    /// Player → mediator: `(i, round, x_i)` of the canonical form.
    Input {
        /// The round being acked (0 = initial).
        round: u64,
        /// The player's (re-sent) input.
        value: Vec<Fp>,
    },
    /// Mediator → player: a non-STOP round, possibly carrying a payload
    /// (the §6.4 leak rides here).
    Round {
        /// Round number (1-based).
        round: u64,
        /// Private payload for the recipient.
        payload: Vec<Fp>,
    },
    /// Mediator → player: STOP with the action to play.
    Stop {
        /// The recommended/computed action.
        action: Action,
    },
    /// Deviator-to-deviator gossip (honest players never send this; the
    /// model explicitly allows bad players to talk to each other).
    Gossip {
        /// Arbitrary payload.
        payload: Vec<Fp>,
    },
}

/// Specification of a mediator game execution.
#[derive(Debug, Clone)]
pub struct MediatorGameSpec {
    /// Number of players (the mediator is process `n`).
    pub n: usize,
    /// Rational-coalition bound.
    pub k: usize,
    /// Malicious bound.
    pub t: usize,
    /// The mediator's circuit (one output wire per player = its action;
    /// for the naive §6.4 mediator the output packs `2·leak + action`).
    pub circuit: Arc<Circuit>,
    /// Default inputs for players whose input never arrives.
    pub defaults: Vec<Vec<Fp>>,
    /// §6.4 naive shape: split the output into a round-1 leak (high bits)
    /// and a STOP action (low bit), and wait for *all* n acks in between.
    pub naive_split: bool,
    /// Content-free extra rounds before STOP (Lemma 6.8 experiments).
    pub extra_rounds: u64,
    /// Wills (Aumann–Hart): action each honest player leaves in its will.
    pub wills: Option<Vec<Action>>,
    /// Fallback actions (one per player) for resolving players that never
    /// moved and left no will — the default moves `M_i`.
    pub default_actions: Vec<Action>,
}

impl MediatorGameSpec {
    /// How many complete inputs the mediator waits for.
    pub fn wait_for(&self) -> usize {
        if self.naive_split {
            self.n // the naive design flaw: waits for everyone
        } else {
            self.n - self.k - self.t
        }
    }
}

/// The trusted mediator process (id `n`).
pub struct CircuitMediator {
    spec: MediatorGameSpec,
    inputs: BTreeMap<usize, Vec<Fp>>,
    computed: Option<Vec<Action>>, // per-player actions
    leaks: Option<Vec<Fp>>,
    round: u64,
    round_sent: u64,
    acks: BTreeMap<u64, usize>,
    stopped: bool,
}

impl CircuitMediator {
    /// Creates the mediator for `spec`.
    pub fn new(spec: MediatorGameSpec) -> Self {
        CircuitMediator {
            spec,
            inputs: BTreeMap::new(),
            computed: None,
            leaks: None,
            round: 0,
            round_sent: 0,
            acks: BTreeMap::new(),
            stopped: false,
        }
    }

    fn n(&self) -> usize {
        self.spec.n
    }

    fn try_advance(&mut self, ctx: &mut Ctx<MedMsg>) {
        if self.stopped {
            return;
        }
        // Phase 1: gather inputs.
        if self.computed.is_none() {
            if self.inputs.len() < self.spec.wait_for() {
                return;
            }
            let inputs: Vec<Vec<Fp>> = (0..self.n())
                .map(|p| {
                    self.inputs
                        .get(&p)
                        .cloned()
                        .unwrap_or_else(|| self.spec.defaults[p].clone())
                })
                .collect();
            let eval = self.spec.circuit.eval(&inputs, ctx.rng());
            let (actions, leaks) = if self.spec.naive_split {
                let mut acts = Vec::with_capacity(self.n());
                let mut lks = Vec::with_capacity(self.n());
                for p in 0..self.n() {
                    let packed = eval.outputs[p][0].as_u64();
                    acts.push(packed & 1);
                    lks.push(Fp::new(packed >> 1));
                }
                (acts, Some(lks))
            } else {
                (
                    (0..self.n()).map(|p| eval.outputs[p][0].as_u64()).collect(),
                    None,
                )
            };
            self.computed = Some(actions);
            self.leaks = leaks;
        }
        // Phase 2: intermediate rounds, each gated on a quorum of acks.
        let total_rounds = self.spec.extra_rounds + u64::from(self.spec.naive_split);
        loop {
            if self.round < total_rounds {
                let r = self.round + 1;
                if self.round_sent < r {
                    for p in 0..self.n() {
                        let payload = if self.spec.naive_split && r == 1 {
                            vec![self.leaks.as_ref().expect("leaks computed")[p]]
                        } else {
                            Vec::new()
                        };
                        ctx.send(p, MedMsg::Round { round: r, payload });
                    }
                    self.round_sent = r;
                }
                if self.acks.get(&r).copied().unwrap_or(0) >= self.round_quorum() {
                    self.round += 1;
                    continue;
                }
                return; // waiting for acks
            }
            // STOP.
            self.stopped = true;
            let actions = self.computed.as_ref().expect("computed");
            for (p, &action) in actions.iter().enumerate() {
                ctx.send(p, MedMsg::Stop { action });
            }
            ctx.halt();
            return;
        }
    }

    fn round_quorum(&self) -> usize {
        self.spec.wait_for()
    }
}

/// Honest canonical-form player in the mediator game. Its sends go through
/// a [`TacticState`], empty unless [`HonestMedPlayer::with_tactics`] gives
/// it message-level deviations.
pub struct HonestMedPlayer {
    /// The player's private input.
    pub input: Vec<Fp>,
    /// Will to leave at start (Aumann–Hart), if any.
    pub will: Option<Action>,
    mediator: ProcessId,
    tactics: TacticState<MedMsg>,
}

impl HonestMedPlayer {
    /// Creates a canonical honest player for a game with `n` players.
    pub fn new(n: usize, input: Vec<Fp>, will: Option<Action>) -> Self {
        HonestMedPlayer {
            input,
            will,
            mediator: n,
            tactics: TacticState::new(Vec::new()),
        }
    }

    /// The same player, sending through the tactic schedule `steps`.
    pub fn with_tactics(mut self, steps: Vec<Scheduled>) -> Self {
        self.tactics = TacticState::new(steps);
        self
    }

    fn send_input(&mut self, round: u64, ctx: &mut Ctx<MedMsg>) {
        let value = self.input.clone();
        self.tactics
            .send(self.mediator, MedMsg::Input { round, value }, ctx);
    }
}

impl Process<MedMsg> for HonestMedPlayer {
    fn on_start(&mut self, ctx: &mut Ctx<MedMsg>) {
        if let Some(w) = self.will {
            ctx.set_will(w);
        }
        self.send_input(0, ctx);
    }

    fn on_message(&mut self, src: ProcessId, msg: MedMsg, ctx: &mut Ctx<MedMsg>) {
        self.tactics.release(ctx);
        if src != self.mediator {
            return; // honest players ignore non-mediator chatter
        }
        match msg {
            MedMsg::Round { round, .. } => self.send_input(round, ctx),
            MedMsg::Stop { action } => {
                ctx.make_move(action);
                ctx.halt();
            }
            MedMsg::Input { .. } | MedMsg::Gossip { .. } => {}
        }
    }
}

impl Process<MedMsg> for CircuitMediator {
    fn on_start(&mut self, ctx: &mut Ctx<MedMsg>) {
        self.try_advance(ctx);
    }

    fn on_message(&mut self, src: ProcessId, msg: MedMsg, ctx: &mut Ctx<MedMsg>) {
        if let MedMsg::Input { round, value } = msg {
            if src < self.n() {
                if round == 0 {
                    if value.len() == self.spec.defaults[src].len() {
                        self.inputs.entry(src).or_insert(value);
                    }
                } else {
                    *self.acks.entry(round).or_insert(0) += 1;
                }
            }
        }
        self.try_advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviations::SilentProcess;
    use crate::scenario::{MediatorGame, Scenario};
    use mediator_circuits::catalog;
    use mediator_sim::{SchedulerKind, TraceEvent};

    fn majority(n: usize, bits: &[u64]) -> MediatorGame {
        Scenario::mediator(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(bits.iter().map(|&b| vec![Fp::new(b)]).collect())
    }

    #[test]
    fn honest_majority_game_everyone_plays_majority() {
        let n = 5;
        // The mediator waits for n−k−t = 4 inputs and defaults the last to
        // 0, and *which* input arrives late depends on the scheduler (that
        // is the point of the asynchronous model). These inputs give
        // majority 1 for every 4-subset, so the outcome is scheduler-proof.
        let plan = majority(n, &[1, 1, 1, 1, 0]).build().expect("n − k ≥ 1");
        for kind in SchedulerKind::battery(n) {
            let out = plan.run_with(&kind, 7);
            // The world has n+1 processes (the mediator never moves).
            let moves = out.resolve_default(&vec![9; n + 1]);
            assert_eq!(moves[..n], vec![1; n][..], "{kind:?}");
        }
    }

    #[test]
    fn mediator_does_not_wait_for_missing_players() {
        // One player silent: mediator waits for n−k−t = 4 inputs, fills the
        // default, and everyone else still moves.
        let n = 5;
        let out = majority(n, &[1; 5])
            .deviant(2, || Box::new(SilentProcess))
            .build()
            .expect("n − k ≥ 1")
            .run_with(&SchedulerKind::Random, 11);
        for (p, m) in out.moves.iter().enumerate() {
            if p != 2 && p < n {
                assert_eq!(*m, Some(1), "player {p}");
            }
        }
        assert_eq!(out.moves[2], None);
    }

    #[test]
    fn naive_split_mediator_sends_leak_then_stop() {
        let n = 4;
        let out = Scenario::mediator(catalog::counterexample_naive(n))
            .players(n)
            .tolerance(1, 0)
            .naive_split()
            .build()
            .expect("n − k ≥ 1")
            .run_with(&SchedulerKind::Random, 3);
        // All honest: everyone eventually moves the same bit b.
        let moves = out.moves[..n].to_vec();
        let b = moves[0].expect("moved");
        assert!(b == 0 || b == 1);
        for m in &moves {
            assert_eq!(*m, Some(b));
        }
        // And a leak round happened before STOP: 2 mediator messages per
        // player (Round + Stop).
        let mediator_sent = out
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Sent { src, .. } if *src == n))
            .count();
        assert!(mediator_sent >= 2 * n);
    }

    #[test]
    fn relaxed_scheduler_drops_stop_batch_and_wills_fire() {
        // Lemma 6.10: a relaxed scheduler deadlocks a canonical mediator
        // game exactly by withholding an entire mediator batch; the
        // all-or-none rule means no honest player moves, and the AH wills
        // (punishments) apply uniformly — the hypothesis Proposition 6.9
        // uses to price deadlocks at the punishment payoff.
        // Let the players' inputs through, then drop everything the
        // mediator sends (its STOP batch) — wherever in the next three
        // deliveries the blackout starts.
        for n in [4usize, 5] {
            let plan = majority(n, &vec![1; n])
                .wills(vec![7; n])
                .build()
                .expect("n − k ≥ 1");
            for (blackout, seed) in (n as u64 + 1..=n as u64 + 3).zip(3..) {
                let out = plan.run_relaxed(blackout, seed);
                assert!(
                    out.trace.dropped_count() > 0,
                    "mediator batch must be dropped"
                );
                // Nobody moved; everyone's will fires — all-or-none, never
                // a mix.
                for p in 0..n {
                    assert_eq!(out.moves[p], None, "player {p} cannot move without STOP");
                }
                let resolved = out.resolve_ah(&vec![0; n + 1]);
                assert_eq!(&resolved[..n], &vec![7; n][..]);
            }
        }
    }

    #[test]
    fn relaxed_scheduler_with_late_drop_changes_nothing() {
        // If the blackout starts after the STOP batch was delivered, the
        // run is indistinguishable from a non-relaxed one (the paper's
        // "deadlock iff no STOP delivered" characterization).
        let n = 4;
        let out = majority(n, &[1; 4])
            .build()
            .expect("n − k ≥ 1")
            .run_relaxed(10_000, 3);
        for p in 0..n {
            assert_eq!(out.moves[p], Some(1));
        }
    }

    #[test]
    fn wills_are_left_when_configured() {
        let n = 4;
        // Mediator never gets enough inputs: wait_for = n−k−t = 3, so
        // silence everyone except player 0.
        let mut game = majority(n, &[1; 4]).wills(vec![7; n]);
        for p in 1..n {
            game = game.deviant(p, || Box::new(SilentProcess));
        }
        let out = game
            .build()
            .expect("n − k ≥ 1")
            .run_with(&SchedulerKind::Random, 5);
        // Player 0 deadlocks; AH resolution plays its will.
        assert_eq!(out.moves[0], None);
        let resolved = out.resolve_ah(&vec![0; n + 1]);
        assert_eq!(resolved[0], 7);
    }
}
