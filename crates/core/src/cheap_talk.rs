//! Cheap-talk games: the mediator replaced by asynchronous MPC.
//!
//! `CheapTalkPlayer` embeds the MPC engine into a `mediator-sim` process by
//! driving [`MpcEngine`] — the same [`mediator_sim::sansio::SansIo`] machine
//! the protocol test suites run — through the shared `route_batch` fan-out,
//! adding only the game-level machinery on top: deviations, wills, the
//! cotermination barrier, and abort-to-default resolution.
//! The four theorem parameterizations:
//!
//! | Theorem | `Mode` | threshold | extras |
//! |---------|--------|-----------|--------|
//! | 4.1 | `Robust` | `n > 4(k+t)` | none |
//! | 4.2 | `Epsilon{κ}` | `n > 3(k+t)` | ε-detection, abort → default move |
//! | 4.4 | `Robust` + `punishment` | `n > 3k+4t` | wills carry the punishment; cotermination barrier |
//! | 4.5 | `Epsilon{κ}` + `punishment` | `n > 2k+3t` | both |
//!
//! The mode is [`mediator_mpc::Mode`] in [`CheapTalkSpec::mpc_config`].
//!
//! Infinite-play semantics: with `punishment = Some(ρ)` the player writes
//! `ρ_i` into its will at start (the Aumann–Hart executor plays it on
//! deadlock); without wills, the caller resolves un-moved players with the
//! game's default moves (`Outcome::resolve_default`).
//!
//! The cotermination barrier (Definition 5.3): after decoding its action, a
//! player broadcasts `Finished` and only moves once `n − (k+t)` players have
//! done so — so either all honest players move, or none do (and every will
//! fires), never a harmful mix.

use crate::adversary::TacticState;
use crate::deviations::Behavior;
use mediator_circuits::Circuit;
use mediator_field::Fp;
use mediator_mpc::{MpcConfig, MpcEngine, MpcEvent, MpcMsg};
use mediator_sim::sansio::{route_batch, Outgoing, SansIo};
use mediator_sim::{Action, Ctx, PartySet, Process, ProcessId};
use std::sync::Arc;

/// Wire messages of the cheap-talk game.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtMsg {
    /// An MPC engine message.
    Mpc(MpcMsg),
    /// Cotermination barrier vote: "I have my action".
    Finished,
}

// Every pending event on the `World`'s plane holds one `CtMsg` inline, so
// its size is paid per send. Boxing the rarely sent ε-mode dealing took it
// from 56 bytes to 32, and this keeps it near there (one word of slack).
const _: () = assert!(std::mem::size_of::<CtMsg>() <= 40);

/// Specification of a cheap-talk execution.
///
/// One per plan, shared by every run and player behind an `Arc`.
#[derive(Debug, Clone)]
pub struct CheapTalkSpec {
    /// Rational-coalition bound.
    pub k: usize,
    /// Malicious bound.
    pub t: usize,
    /// The mediator circuit being simulated.
    pub circuit: Arc<Circuit>,
    /// Punishment actions for the wills (Theorems 4.4/4.5), which also
    /// switch on the t-cotermination barrier; `None` = no wills and no
    /// barrier (Theorems 4.1/4.2).
    pub punishment: Option<Vec<Action>>,
    /// Default moves (`M_i`) used when the engine aborts without wills.
    pub default_actions: Vec<Action>,
    /// The engine configuration: player count, mode, shared setup seed
    /// (ABA coins, detection challenges) and default inputs for excluded
    /// players.
    pub(crate) mpc: Arc<MpcConfig>,
}

impl CheapTalkSpec {
    /// The deviation budget `f = k + t`.
    pub fn f(&self) -> usize {
        self.k + self.t
    }

    /// The engine configuration every engine of this spec shares.
    pub fn mpc_config(&self) -> &Arc<MpcConfig> {
        &self.mpc
    }
}

/// One cheap-talk player: the honest strategy, with optional parameterized
/// deviations ([`Behavior`]) so experiments can reuse the honest machinery.
pub struct CheapTalkPlayer {
    spec: Arc<CheapTalkSpec>,
    me: usize,
    input: Vec<Fp>,
    engine: Option<MpcEngine>,
    /// The engine's outbox, drained after every call and reused.
    outbox: Vec<Outgoing<MpcMsg>>,
    behavior: Behavior,
    tactics: TacticState<CtMsg>,
    action: Option<Action>,
    moved: bool,
    finished: PartySet,
}

impl CheapTalkPlayer {
    /// An honest player.
    pub fn honest(spec: impl Into<Arc<CheapTalkSpec>>, me: usize, input: Vec<Fp>) -> Self {
        CheapTalkPlayer::with_behavior(spec, me, input, Behavior::default())
    }

    /// A player with deviations switched on.
    pub fn with_behavior(
        spec: impl Into<Arc<CheapTalkSpec>>,
        me: usize,
        input: Vec<Fp>,
        mut behavior: Behavior,
    ) -> Self {
        let tactics = TacticState::new(std::mem::take(&mut behavior.tactics));
        CheapTalkPlayer {
            spec: spec.into(),
            me,
            input,
            engine: None,
            outbox: Vec::new(),
            behavior,
            tactics,
            action: None,
            moved: false,
            finished: PartySet::new(),
        }
    }

    /// Sends what the engine left in the outbox.
    fn deliver_out(&mut self, ctx: &mut Ctx<CtMsg>) {
        // Broadcast fan-out goes through the shared sans-IO routing, with
        // this player's tactic schedule as the send path (every
        // message-level deviation lives there). The outbox goes back
        // empty, keeping its capacity.
        let n = self.spec.mpc.n;
        let mut batch = std::mem::take(&mut self.outbox);
        route_batch(n, batch.drain(..), |d, m| {
            self.tactics.send(d, CtMsg::Mpc(m), ctx)
        });
        self.outbox = batch;
    }

    fn handle_event(&mut self, ev: MpcEvent, ctx: &mut Ctx<CtMsg>) {
        match ev {
            MpcEvent::Done(outputs) => {
                let action = outputs.first().map(|v| v.as_u64()).unwrap_or(0);
                self.action = Some(action);
                if self.behavior.refuse_to_move {
                    // Rational deadlock play: never move, keep (or set) the
                    // deviant will.
                    ctx.halt();
                    return;
                }
                if self.spec.punishment.is_some() {
                    for d in 0..self.spec.mpc.n {
                        self.tactics.send(d, CtMsg::Finished, ctx);
                    }
                    self.try_finish(ctx);
                } else {
                    self.moved = true;
                    ctx.make_move(action);
                    ctx.halt();
                }
            }
            MpcEvent::Aborted => {
                if self.spec.punishment.is_some() {
                    // The will (punishment) handles it: halt without moving.
                    ctx.halt();
                } else {
                    ctx.make_move(self.spec.default_actions[self.me]);
                    ctx.halt();
                }
            }
        }
    }

    fn try_finish(&mut self, ctx: &mut Ctx<CtMsg>) {
        let (Some(action), false) = (self.action, self.moved) else {
            return;
        };
        let quorum = self.spec.mpc.n - self.spec.f();
        if self.finished.len() >= quorum {
            self.moved = true;
            ctx.make_move(action);
            ctx.halt();
        }
    }
}

impl Process<CtMsg> for CheapTalkPlayer {
    fn on_start(&mut self, ctx: &mut Ctx<CtMsg>) {
        if let Some(p) = &self.spec.punishment {
            ctx.set_will(p[self.me]);
        }
        if let Some(w) = self.behavior.will_override {
            ctx.set_will(w);
        }
        if self.behavior.silent {
            ctx.halt();
            return;
        }
        let input = self
            .behavior
            .input_override
            .clone()
            .unwrap_or_else(|| self.input.clone());
        let mut engine = MpcEngine::new(
            Arc::clone(self.spec.mpc_config()),
            self.spec.circuit.clone(),
            self.me,
            input,
        );
        engine.on_start(ctx.std_rng(), &mut self.outbox);
        self.engine = Some(engine);
        self.deliver_out(ctx);
    }

    fn on_message(&mut self, src: ProcessId, msg: CtMsg, ctx: &mut Ctx<CtMsg>) {
        self.tactics.release(ctx);
        match msg {
            CtMsg::Mpc(m) => {
                let Some(engine) = self.engine.as_mut() else {
                    return;
                };
                let ev = engine.on_message(src, m, ctx.std_rng(), &mut self.outbox);
                self.deliver_out(ctx);
                if let Some(ev) = ev {
                    self.handle_event(ev, ctx);
                }
            }
            CtMsg::Finished => {
                if src < self.spec.mpc.n {
                    self.finished.insert(src);
                }
                self.try_finish(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Deviation, OPEN_LIE_OFFSET};
    use crate::scenario::{CheapTalk, Scenario};
    use mediator_circuits::catalog;
    use mediator_sim::SchedulerKind;

    fn majority(n: usize, k: usize, t: usize, bits: &[u64]) -> CheapTalk {
        Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(k, t)
            .inputs(bits.iter().map(|&b| vec![Fp::new(b)]).collect())
            .max_steps(2_000_000)
    }

    #[test]
    fn honest_cheap_talk_computes_majority() {
        let n = 5; // k=1, t=0: n > 4 ✓
        let out = majority(n, 1, 0, &[1, 0, 1, 1, 0])
            .build()
            .expect("5 > 4")
            .run_with(&SchedulerKind::Random, 42);
        let moves = out.resolve_default(&vec![9; n]);
        assert_eq!(moves, vec![1; n]);
    }

    #[test]
    fn silent_deviator_does_not_block_robust_protocol() {
        let n = 5;
        let deviation = Behavior {
            silent: true,
            ..Behavior::default()
        };
        let out = majority(n, 1, 0, &[1; 5])
            .deviant(3, deviation)
            .build()
            .expect("5 > 4")
            .run_with(&SchedulerKind::Random, 7);
        for (p, m) in out.moves.iter().enumerate() {
            if p != 3 {
                assert_eq!(*m, Some(1), "player {p}");
            }
        }
    }

    #[test]
    fn opening_liar_is_corrected() {
        let n = 5;
        let (_, deviation) = Deviation::named("lie")
            .corrupt_opens(0, OPEN_LIE_OFFSET)
            .build();
        let out = majority(n, 1, 0, &[0, 0, 1, 0, 1])
            .deviant(2, deviation)
            .max_steps(4_000_000)
            .build()
            .expect("5 > 4")
            .run_with(&SchedulerKind::Random, 13);
        // Honest majority of (0,0,1,0,1) = 0 — the liar's input still counts
        // (it dealt honestly) but its opening lies must be corrected.
        for (p, m) in out.moves.iter().enumerate() {
            if p != 2 {
                assert_eq!(*m, Some(0), "player {p}");
            }
        }
    }

    #[test]
    fn barrier_gives_cotermination_under_crash() {
        // Theorem 4.4 machinery: punishment wills + barrier. One player
        // crashes mid-protocol; either everyone (honest) moves or nobody
        // does — never a mix.
        let n = 6; // k=1, t=0: n > 3k+4t = 3 ✓ (and > 4f for the engine)
        let plan = majority(n, 1, 0, &[1; 6])
            .wills(vec![5; n]) // punishment action
            .build()
            .expect("6 > 3");
        for seed in 0..5 {
            let (_, deviation) = Deviation::named("crash").abort_at(40).build();
            let out = plan
                .clone()
                .with_deviant(1, deviation)
                .expect("player 1 of 6")
                .run_with(&SchedulerKind::Random, seed);
            let honest_moved: Vec<bool> = (0..n)
                .filter(|&p| p != 1)
                .map(|p| out.moves[p].is_some())
                .collect();
            let all = honest_moved.iter().all(|&b| b);
            let none = honest_moved.iter().all(|&b| !b);
            assert!(
                all || none,
                "cotermination violated, seed {seed}: {honest_moved:?}"
            );
            if none {
                // Wills fire: everyone "plays" the punishment.
                let resolved = out.resolve_ah(&vec![9; n]);
                for (p, a) in resolved.iter().enumerate() {
                    if p != 1 {
                        assert_eq!(*a, 5, "punishment in will, player {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn refuse_to_move_triggers_wills_of_nobody_else_with_barrier_quorum() {
        // A single refusing player cannot stop the others: quorum is n−f.
        let n = 6;
        let deviation = Behavior {
            refuse_to_move: true,
            ..Behavior::default()
        };
        let out = majority(n, 1, 0, &[1; 6])
            .wills(vec![5; n])
            .deviant(0, deviation)
            .build()
            .expect("6 > 3")
            .run_with(&SchedulerKind::Random, 3);
        for p in 1..n {
            assert_eq!(out.moves[p], Some(1), "player {p} must still move");
        }
    }

    #[test]
    fn epsilon_variant_honest_run() {
        let n = 4; // k=0, t=1: n > 3 ✓
        let out = majority(n, 0, 1, &[1, 1, 1, 0])
            .epsilon(2)
            .build()
            .expect("4 > 3")
            .run_with(&SchedulerKind::Random, 23);
        let moves = out.resolve_default(&vec![9; n]);
        assert_eq!(moves, vec![1; n]);
    }

    #[test]
    fn player_that_fixes_the_core_and_finishes_on_one_delivery_still_moves() {
        // A multiplication-free circuit evaluates locally, so under targeted
        // delay a player can fix the core and finish on the same delivery;
        // the engine reports its `Done` on that delivery.
        let n = 5;
        let plan = Scenario::cheap_talk(catalog::sum_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs((1..=n as u64).map(|v| vec![Fp::new(v)]).collect())
            .build()
            .expect("5 > 4");
        for victim in 0..3 {
            for seed in 0..4 {
                let out = plan.run_with(&SchedulerKind::TargetedDelay(vec![victim]), seed);
                assert!(
                    out.moves.iter().all(Option::is_some),
                    "victim {victim} seed {seed}: {:?}",
                    out.moves
                );
            }
        }
    }

    #[test]
    fn input_override_changes_the_outcome() {
        // A lying input is *allowed* by the model (it is the player's own
        // input); verify the machinery wires it through.
        let n = 5;
        let deviation = Behavior {
            input_override: Some(vec![Fp::ONE]),
            ..Behavior::default()
        };
        let out = majority(n, 1, 0, &[1, 1, 0, 0, 0])
            .deviant(2, deviation)
            .build()
            .expect("5 > 4")
            .run_with(&SchedulerKind::Random, 31);
        // With the override the inputs become (1,1,1,0,0): majority 1.
        let moves = out.resolve_default(&vec![9; n]);
        assert_eq!(moves, vec![1; n]);
    }
}
