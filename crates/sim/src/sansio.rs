//! The shared sans-IO driving contract.
//!
//! Every protocol substrate in this workspace — reliable broadcast, binary
//! agreement, common subset, AVSS, the MPC engine — is written *sans IO*: a
//! pure state machine that consumes `(from, msg)` events and returns batches
//! of [`Outgoing`] messages. This module is the one home for the glue that
//! turns such a machine into something the [`World`] can drive:
//!
//! * [`Dest`] / [`Outgoing`] — the outgoing-message shapes;
//! * [`route_batch`] — the single implementation of broadcast expansion;
//! * [`SansIo`] — the trait a driveable state machine implements;
//! * [`SansIoProcess`] — the generic adapter that wraps any [`SansIo`]
//!   machine as a [`Process`], so the full [`World`] — all schedulers,
//!   traces, failure injection — can drive it;
//! * [`Behavior`] / [`ByzantineProcess`] — byzantine players as processes;
//! * [`Machines`] — the runner the protocol test suites and benches drive
//!   their substrates through (honest machines + byzantine behaviours + a
//!   scheduler in, an [`Outcome`] and per-player outputs out).
//!
//! See DESIGN.md §1 for the runtime diagram.

use crate::process::{Action, Ctx, Process, ProcessId};
use crate::scheduler::Scheduler;
use crate::session::Session;
use crate::world::{Outcome, World};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A shared message payload: `Arc` with value semantics.
///
/// [`route_batch`] expands a [`Dest::All`] batch by *cloning* the message
/// once per destination — for a `Vec<Fp>`-bearing payload that used to be
/// `n` deep copies per broadcast. Wrapping the heavy part of a message in
/// `Payload` turns each of those clones into a refcount bump; the receiving
/// state machine reads through `Deref` or takes ownership with
/// [`Payload::into_inner`] (free when it holds the last reference, e.g.
/// point-to-point messages). Comparisons forward to the payload value with
/// a pointer-equality fast path, so wire types keep deriving
/// `PartialEq`/`Ord` and broadcast copies compare equal in O(1). The
/// comparison impls require `T: Eq`/`T: Ord` (not merely the partial
/// forms): reflexivity is what makes the pointer fast path sound, and
/// every wire payload is an `Eq` type anyway.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Payload<T>(Arc<T>);

impl<T> Payload<T> {
    /// Wraps a value for shared fan-out.
    pub fn new(value: T) -> Self {
        Payload(Arc::new(value))
    }

    /// Takes the value back out: free if this is the last reference
    /// (point-to-point delivery), one clone otherwise.
    pub fn into_inner(self) -> T
    where
        T: Clone,
    {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| (*arc).clone())
    }
}

impl<T> Clone for Payload<T> {
    fn clone(&self) -> Self {
        Payload(Arc::clone(&self.0))
    }
}

impl<T> std::ops::Deref for Payload<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> From<T> for Payload<T> {
    fn from(value: T) -> Self {
        Payload::new(value)
    }
}

impl<T: Eq> PartialEq for Payload<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl<T: Eq> Eq for Payload<T> {}

impl<T: Ord> PartialOrd for Payload<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Payload<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl<T: std::hash::Hash> std::hash::Hash for Payload<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// Where an outgoing message goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dest {
    /// Point-to-point to one process.
    One(usize),
    /// To every process, **including the sender** (a process "receiving" its
    /// own broadcast keeps the state machines uniform; the embedding layer
    /// may shortcut the self-copy).
    All,
}

/// An outgoing message from a sans-IO state machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outgoing<M> {
    /// Destination.
    pub dest: Dest,
    /// Payload.
    pub msg: M,
}

impl<M> Outgoing<M> {
    /// Convenience constructor for a broadcast.
    pub fn all(msg: M) -> Self {
        Outgoing {
            dest: Dest::All,
            msg,
        }
    }

    /// Convenience constructor for a point-to-point message.
    pub fn to(dst: usize, msg: M) -> Self {
        Outgoing {
            dest: Dest::One(dst),
            msg,
        }
    }

    /// Maps the payload, keeping the destination (used to wrap sub-protocol
    /// messages with instance tags).
    pub fn map<N>(self, f: impl FnOnce(M) -> N) -> Outgoing<N> {
        Outgoing {
            dest: self.dest,
            msg: f(self.msg),
        }
    }
}

/// Expands a batch into point-to-point sends: the one shared implementation
/// of broadcast fan-out, used by the [`SansIoProcess`] adapter and the
/// cheap-talk embedding alike.
pub fn route_batch<M: Clone>(n: usize, batch: Vec<Outgoing<M>>, mut send: impl FnMut(usize, M)) {
    for o in batch {
        match o.dest {
            Dest::One(dst) => send(dst, o.msg),
            Dest::All => {
                for dst in 0..n {
                    send(dst, o.msg.clone());
                }
            }
        }
    }
}

/// Byzantine behaviour: `(me, from, msg) -> messages to inject`. Under a
/// [`World`] the behaviour runs inside a [`ByzantineProcess`].
pub trait BehaviorFn<M>: Fn(usize, usize, &M) -> Vec<(usize, M)> {
    /// Clones the behaviour into a fresh box (for reuse across seeds).
    fn clone_box(&self) -> Behavior<M>;
}

impl<M, F> BehaviorFn<M> for F
where
    F: Fn(usize, usize, &M) -> Vec<(usize, M)> + Clone + 'static,
{
    fn clone_box(&self) -> Behavior<M> {
        Box::new(self.clone())
    }
}

/// Boxed byzantine behaviour.
pub type Behavior<M> = Box<dyn BehaviorFn<M>>;

/// A driveable sans-IO protocol state machine.
///
/// Implementations hold whatever start-time input the protocol needs (a
/// dealer's value, an agreement vote, an MPC input vector) and surface the
/// protocol's terminal result through [`SansIo::on_message`]'s second return
/// slot. The `rng` handed in is the *process-local* deterministic generator
/// of the embedding runtime, so a machine's randomness is reproducible under
/// every scheduler.
pub trait SansIo {
    /// Wire message type.
    type Msg: Clone;
    /// Terminal (or notable intermediate) output type.
    type Output;

    /// Called exactly once when the runtime first schedules this player;
    /// returns the kick-off batch (empty for purely reactive players).
    fn on_start(&mut self, rng: &mut StdRng) -> Vec<Outgoing<Self::Msg>>;

    /// Handles one delivered message; returns messages to send plus the
    /// output if one is produced *now*.
    fn on_message(
        &mut self,
        from: usize,
        msg: Self::Msg,
        rng: &mut StdRng,
    ) -> (Vec<Outgoing<Self::Msg>>, Option<Self::Output>);

    /// Whether the machine has finished participating. Once true, the
    /// adapter halts the process: the runtime stops delivering to it.
    ///
    /// Implementations must only report `true` when the protocol's own
    /// termination rule says it is safe to stop (e.g. ABA's `2t+1`-Done
    /// gadget), otherwise early halting can strand peers below quorum.
    fn is_done(&self) -> bool {
        false
    }
}

/// Shared, cloneable per-player output store for a [`World`] run.
///
/// The [`World`] owns its processes, so output produced inside an adapter
/// has to flow out through a shared handle; `World` is single-threaded, so
/// an `Rc<RefCell<…>>` is exactly right.
#[derive(Debug)]
pub struct RunOutputs<T> {
    slots: Rc<RefCell<Vec<Option<T>>>>,
}

impl<T> Clone for RunOutputs<T> {
    fn clone(&self) -> Self {
        RunOutputs {
            slots: Rc::clone(&self.slots),
        }
    }
}

impl<T> RunOutputs<T> {
    /// Creates an empty store with one slot per player.
    pub fn new(n: usize) -> Self {
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || None);
        RunOutputs {
            slots: Rc::new(RefCell::new(v)),
        }
    }

    /// Records player `i`'s output (later outputs overwrite earlier ones, so
    /// the slot ends on the most recent — for terminal-event machines, the
    /// terminal — output).
    pub fn record(&self, i: usize, value: T) {
        self.slots.borrow_mut()[i] = Some(value);
    }

    /// Extracts all outputs, consuming the store's current contents.
    pub fn take(&self) -> Vec<Option<T>> {
        std::mem::take(&mut *self.slots.borrow_mut())
    }
}

/// Converts a machine output into the process's move in the underlying game
/// (see [`SansIoProcess::with_move`]).
pub type MoveMap<O> = Box<dyn Fn(&O) -> Action>;

/// The generic adapter: wraps any [`SansIo`] machine as a [`Process`], so
/// the full `World` — every scheduler, traces, failure injection — can
/// drive it.
pub struct SansIoProcess<S: SansIo> {
    machine: S,
    n: usize,
    outputs: RunOutputs<S::Output>,
    to_action: Option<MoveMap<S::Output>>,
}

impl<S: SansIo> SansIoProcess<S> {
    /// Wraps `machine` for a world of `n` players, reporting outputs into
    /// `outputs`.
    pub fn new(machine: S, n: usize, outputs: RunOutputs<S::Output>) -> Self {
        SansIoProcess {
            machine,
            n,
            outputs,
            to_action: None,
        }
    }

    /// Additionally converts each output into a game move via `f` (so a
    /// substrate decision can double as the process's move in the underlying
    /// game, e.g. for outcome-resolution experiments).
    pub fn with_move(mut self, f: impl Fn(&S::Output) -> Action + 'static) -> Self {
        self.to_action = Some(Box::new(f));
        self
    }

    fn emit(&mut self, batch: Vec<Outgoing<S::Msg>>, ctx: &mut Ctx<S::Msg>) {
        route_batch(self.n, batch, |dst, msg| ctx.send(dst, msg));
    }
}

impl<S: SansIo> Process<S::Msg> for SansIoProcess<S> {
    fn on_start(&mut self, ctx: &mut Ctx<S::Msg>) {
        let batch = self.machine.on_start(ctx.std_rng());
        self.emit(batch, ctx);
        if self.machine.is_done() {
            ctx.halt();
        }
    }

    fn on_message(&mut self, src: ProcessId, msg: S::Msg, ctx: &mut Ctx<S::Msg>) {
        let (batch, output) = self.machine.on_message(src, msg, ctx.std_rng());
        self.emit(batch, ctx);
        if let Some(out) = output {
            if let Some(f) = &self.to_action {
                ctx.make_move(f(&out));
            }
            self.outputs.record(ctx.me(), out);
        }
        if self.machine.is_done() {
            ctx.halt();
        }
    }
}

/// A byzantine player as a process: every delivered message is fed to the
/// behaviour closure and the returned messages are injected into the world
/// (self-addressed injections arrive back as fresh deliveries). An optional
/// *kickoff* batch models actively deviant starts — an equivocating dealer,
/// forged first votes — sent when the environment first schedules the
/// player.
pub struct ByzantineProcess<M> {
    behavior: Behavior<M>,
    kickoff: Vec<(usize, M)>,
}

impl<M> ByzantineProcess<M> {
    /// Creates a byzantine process following `behavior`.
    pub fn new(behavior: Behavior<M>) -> Self {
        ByzantineProcess {
            behavior,
            kickoff: Vec::new(),
        }
    }

    /// Messages this player injects at start (e.g. an equivocating dealing).
    pub fn with_kickoff(mut self, kickoff: Vec<(usize, M)>) -> Self {
        self.kickoff = kickoff;
        self
    }
}

impl<M> From<Behavior<M>> for ByzantineProcess<M> {
    fn from(behavior: Behavior<M>) -> Self {
        ByzantineProcess::new(behavior)
    }
}

impl<M> Process<M> for ByzantineProcess<M> {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        for (dst, m) in self.kickoff.drain(..) {
            ctx.send(dst, m);
        }
    }

    fn on_message(&mut self, src: ProcessId, msg: M, ctx: &mut Ctx<M>) {
        for (dst, m) in (self.behavior)(ctx.me(), src, &msg) {
            ctx.send(dst, m);
        }
    }
}

/// Builder over a set of sans-IO machines: the scenario-style entry the
/// protocol test suites and benches drive their substrates through.
///
/// One machine per player id; [`Machines::byzantine`] replaces a player's
/// machine with a behaviour (pass a [`Behavior`] for a purely reactive
/// adversary or a [`ByzantineProcess`] for one with a deviant kickoff).
/// [`Machines::run`] is the closed loop; [`Machines::session`] opens the
/// same run as a steppable [`Session`].
pub struct Machines<S: SansIo> {
    machines: Vec<S>,
    behaviors: Vec<Option<ByzantineProcess<S::Msg>>>,
}

impl<S> Machines<S>
where
    S: SansIo + 'static,
    S::Msg: 'static,
    S::Output: 'static,
{
    /// Starts a run over one machine per player.
    pub fn new(machines: Vec<S>) -> Self {
        let n = machines.len();
        Machines {
            machines,
            behaviors: (0..n).map(|_| None).collect(),
        }
    }

    /// Replaces player `p`'s machine with a byzantine behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a player.
    pub fn byzantine(mut self, p: usize, b: impl Into<ByzantineProcess<S::Msg>>) -> Self {
        assert!(p < self.machines.len(), "byzantine player {p} out of range");
        self.behaviors[p] = Some(b.into());
        self
    }

    fn into_world(self, seed: u64) -> (World<S::Msg>, RunOutputs<S::Output>) {
        let n = self.machines.len();
        let outputs: RunOutputs<S::Output> = RunOutputs::new(n);
        let procs: Vec<Box<dyn Process<S::Msg>>> = self
            .machines
            .into_iter()
            .zip(self.behaviors)
            .map(|(m, b)| match b {
                Some(byzantine) => Box::new(byzantine) as Box<dyn Process<S::Msg>>,
                None => Box::new(SansIoProcess::new(m, n, outputs.clone())),
            })
            .collect();
        (World::new(procs, seed), outputs)
    }

    /// Runs to completion, returning the world [`Outcome`] plus each
    /// player's recorded output (`None` for byzantine players and players
    /// that never produced one).
    pub fn run(
        self,
        scheduler: &mut dyn Scheduler,
        seed: u64,
        max_steps: u64,
    ) -> (Outcome, Vec<Option<S::Output>>) {
        let (mut world, outputs) = self.into_world(seed);
        let outcome = world.run(scheduler, max_steps);
        (outcome, outputs.take())
    }

    /// Opens the same run as a steppable [`Session`]. Outputs accumulate in
    /// the returned [`RunOutputs`] store as the session is stepped.
    pub fn session(
        self,
        scheduler: Box<dyn Scheduler>,
        seed: u64,
        max_steps: u64,
    ) -> (Session<S::Msg>, RunOutputs<S::Output>) {
        let (world, outputs) = self.into_world(seed);
        (Session::new(world, scheduler, max_steps), outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FifoScheduler, LifoScheduler, RandomScheduler, FAIRNESS_BOUND};
    use crate::world::TerminationKind;

    /// A toy sans-IO machine: the leader broadcasts a token; everyone
    /// outputs the first token they see and is done.
    struct Echo {
        token: Option<u32>,
        seen: Option<u32>,
    }

    impl SansIo for Echo {
        type Msg = u32;
        type Output = u32;

        fn on_start(&mut self, _rng: &mut StdRng) -> Vec<Outgoing<u32>> {
            match self.token.take() {
                Some(t) => vec![Outgoing::all(t)],
                None => Vec::new(),
            }
        }

        fn on_message(
            &mut self,
            _from: usize,
            msg: u32,
            _rng: &mut StdRng,
        ) -> (Vec<Outgoing<u32>>, Option<u32>) {
            if self.seen.is_none() {
                self.seen = Some(msg);
                (Vec::new(), Some(msg))
            } else {
                (Vec::new(), None)
            }
        }

        fn is_done(&self) -> bool {
            self.seen.is_some()
        }
    }

    fn echo_machines(n: usize, leader: usize, token: u32) -> Vec<Echo> {
        (0..n)
            .map(|me| Echo {
                token: (me == leader).then_some(token),
                seen: None,
            })
            .collect()
    }

    #[test]
    fn adapter_drives_machines_to_quiescence() {
        for seed in 0..5 {
            let (outcome, outputs) = Machines::new(echo_machines(4, 0, 99)).run(
                &mut RandomScheduler::new(),
                seed,
                100_000,
            );
            assert_eq!(outcome.termination, TerminationKind::Quiescent);
            for o in &outputs {
                assert_eq!(*o, Some(99));
            }
        }
    }

    #[test]
    fn adapter_parity_across_schedulers() {
        let run = |sched: &mut dyn Scheduler| {
            Machines::new(echo_machines(3, 1, 7))
                .run(sched, 3, 100_000)
                .1
        };
        assert_eq!(run(&mut RandomScheduler::new()), run(&mut FifoScheduler));
        assert_eq!(run(&mut FifoScheduler), run(&mut LifoScheduler));
    }

    #[test]
    fn byzantine_behavior_replaces_machine() {
        // Player 1 is byzantine: it forwards a corrupted token to player 2.
        let behavior: Behavior<u32> = Box::new(|_me, _from, msg| vec![(2, msg * 2)]);
        let (_, outputs) = Machines::new(echo_machines(3, 0, 21))
            .byzantine(1, behavior)
            .run(&mut FifoScheduler, 0, 100_000);
        assert_eq!(outputs[0], Some(21));
        assert_eq!(outputs[1], None, "byzantine players record no output");
        // Player 2 sees either the real token first or the corrupted relay,
        // FIFO order: leader's broadcast (to 0,1,2) precedes the relay.
        assert_eq!(outputs[2], Some(21));
    }

    #[test]
    fn byzantine_kickoff_is_sent_at_start() {
        // The leader's machine (token 21) is replaced by an equivocating
        // start: its honest broadcast never happens, the kickoff does.
        let silent: Behavior<u32> = Box::new(|_, _, _| Vec::new());
        let byz = ByzantineProcess::new(silent).with_kickoff(vec![(1, 5), (2, 6)]);
        let (outcome, outputs) = Machines::new(echo_machines(3, 0, 21))
            .byzantine(0, byz)
            .run(&mut FifoScheduler, 0, 100_000);
        assert_eq!(outputs, vec![None, Some(5), Some(6)]);
        assert_eq!(outcome.messages_sent, 2);
        // Byzantine processes never halt: the drained plane is a deadlock.
        assert_eq!(outcome.termination, TerminationKind::Deadlock);
    }

    #[test]
    fn lifo_fairness_bound_ends_a_byzantine_starvation() {
        // Byzantine player 2 pings itself forever and LIFO always prefers
        // the fresh ping, so everyone else only moves once the leader's
        // broadcast outlives the scheduler's fairness bound.
        let run = |budget| {
            let pinger: Behavior<u32> = Box::new(|me, _, msg| vec![(me, *msg)]);
            let pinger = ByzantineProcess::new(pinger).with_kickoff(vec![(2, 0)]);
            let (outcome, outputs) = Machines::new(echo_machines(3, 0, 9))
                .byzantine(2, pinger)
                .run(&mut LifoScheduler, 0, budget);
            assert_eq!(outcome.termination, TerminationKind::BudgetExhausted);
            outputs
        };
        assert_eq!(run(500), vec![None; 3]);
        // The start signals wait out one bound, the broadcast a second.
        assert_eq!(run(2 * FAIRNESS_BOUND + 100), vec![Some(9), Some(9), None]);
    }

    #[test]
    fn with_move_maps_outputs_to_game_moves() {
        let n = 3;
        let outputs = RunOutputs::new(n);
        let procs: Vec<Box<dyn Process<u32>>> = echo_machines(n, 0, 6)
            .into_iter()
            .map(|m| {
                Box::new(SansIoProcess::new(m, n, outputs.clone()).with_move(|&v| v as Action + 1))
                    as Box<dyn Process<u32>>
            })
            .collect();
        let mut world = World::new(procs, 5);
        let outcome = world.run(&mut RandomScheduler::new(), 100_000);
        assert_eq!(outcome.moves, vec![Some(7); n]);
    }

    #[test]
    fn route_batch_expands_broadcasts() {
        let mut sent = Vec::new();
        route_batch(3, vec![Outgoing::all(1u8), Outgoing::to(2, 9u8)], |d, m| {
            sent.push((d, m))
        });
        assert_eq!(sent, vec![(0, 1), (1, 1), (2, 1), (2, 9)]);
    }

    #[test]
    fn map_preserves_destination() {
        let o = Outgoing::to(3, 7u32).map(|v| v + 1);
        assert_eq!(o.dest, Dest::One(3));
        assert_eq!(o.msg, 8);
    }
}
