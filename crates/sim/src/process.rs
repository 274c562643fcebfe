//! The protocol state-machine trait and the effect-collection context.

use rand::rngs::StdRng;
use rand::Rng;

/// Identifies a process in a [`World`](crate::World).
///
/// In mediator games the convention is: players are `0..n` and the mediator
/// is process `n` (the paper writes the mediator as "player 0"; an index at
/// the end keeps player ids stable across games with and without a mediator).
pub type ProcessId = usize;

/// A move in the underlying game, encoded as a small integer.
pub type Action = u64;

/// A protocol participant: an event-driven state machine.
///
/// Implementations receive a start signal exactly once (the paper: "when a
/// player is first scheduled, it gets a signal that the game has started")
/// and then one callback per delivered message. All effects — sending,
/// moving in the underlying game, writing a will, halting — go through
/// [`Ctx`].
pub trait Process<M> {
    /// Called exactly once, when the environment first schedules the process.
    fn on_start(&mut self, ctx: &mut Ctx<M>);

    /// Called when a message from `src` is delivered.
    fn on_message(&mut self, src: ProcessId, msg: M, ctx: &mut Ctx<M>);
}

/// Effect collector handed to [`Process`] callbacks.
///
/// A `Ctx` is live for a single activation; the [`World`](crate::World)
/// drains its effects after the callback returns.
pub struct Ctx<'a, M> {
    me: ProcessId,
    step: u64,
    outbox: Vec<(ProcessId, M)>,
    made_move: Option<Action>,
    will: Option<Action>,
    halted: bool,
    rng: &'a mut StdRng,
}

impl<'a, M> Ctx<'a, M> {
    /// `outbox` is a recycled buffer from the embedding world (must be
    /// empty): activations are frequent and the buffer's capacity is the
    /// point — one growth curve per run instead of one per activation.
    pub(crate) fn new(
        me: ProcessId,
        step: u64,
        rng: &'a mut StdRng,
        outbox: Vec<(ProcessId, M)>,
    ) -> Self {
        debug_assert!(outbox.is_empty());
        Ctx {
            me,
            step,
            outbox,
            made_move: None,
            will: None,
            halted: false,
            rng,
        }
    }

    /// The id of the process being activated.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The global step counter (number of events dispatched so far).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Queues a message to `dst`. Messages queued in one activation form a
    /// *batch*: a relaxed scheduler must drop all of them or none (§5).
    pub fn send(&mut self, dst: ProcessId, msg: M) {
        self.outbox.push((dst, msg));
    }

    /// Makes the process's (single) move in the underlying game. Later calls
    /// in the same or subsequent activations are ignored — the game tree
    /// allows at most one move per player (§2).
    pub fn make_move(&mut self, action: Action) {
        if self.made_move.is_none() {
            self.made_move = Some(action);
        }
    }

    /// Writes the process's *will*: the move to be carried out by its
    /// executor if the cheap-talk phase never ends (the Aumann–Hart
    /// approach). Overwrites any previous will.
    pub fn set_will(&mut self, action: Action) {
        self.will = Some(action);
    }

    /// Stops the process: no further messages will be delivered to it.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Process-local randomness (seeded deterministically by the world).
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut *self.rng
    }

    /// The same process-local generator, as its concrete type — the shape
    /// the [`SansIo`](crate::sansio::SansIo) driving contract passes to
    /// state machines.
    pub fn std_rng(&mut self) -> &mut StdRng {
        self.rng
    }

    pub(crate) fn finish(self) -> Effects<M> {
        Effects {
            outbox: self.outbox,
            made_move: self.made_move,
            will: self.will,
            halted: self.halted,
        }
    }
}

/// Drained effects of one activation.
pub(crate) struct Effects<M> {
    pub outbox: Vec<(ProcessId, M)>,
    pub made_move: Option<Action>,
    pub will: Option<Action>,
    pub halted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_collects_sends_in_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Ctx<&str> = Ctx::new(3, 9, &mut rng, Vec::new());
        ctx.send(1, "a");
        ctx.send(2, "b");
        assert_eq!(ctx.me(), 3);
        assert_eq!(ctx.step(), 9);
        let eff = ctx.finish();
        assert_eq!(eff.outbox, vec![(1, "a"), (2, "b")]);
        assert!(!eff.halted);
    }

    #[test]
    fn first_move_wins() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Ctx<()> = Ctx::new(0, 0, &mut rng, Vec::new());
        ctx.make_move(5);
        ctx.make_move(9);
        assert_eq!(ctx.finish().made_move, Some(5));
    }

    #[test]
    fn will_can_be_overwritten() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Ctx<()> = Ctx::new(0, 0, &mut rng, Vec::new());
        ctx.set_will(7);
        ctx.set_will(8);
        assert_eq!(ctx.finish().will, Some(8));
    }
}
