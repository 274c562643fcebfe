//! A steppable handle over a running [`World`].
//!
//! [`World::run`] is a closed loop: processes in, [`Outcome`] out. A
//! [`Session`] opens that loop without changing its semantics — the same
//! `start → pick → dispatch` core executes, but the caller decides *when*
//! each step happens and may look at (or add to) the pending plane between
//! steps. Driving a session to completion and calling [`Session::finish`]
//! produces byte-for-byte the `Outcome` the closed loop would have
//! produced for the same `(processes, scheduler, seed)` triple; the
//! parity suites pin this.
//!
//! The session is the seam a network backend attaches to (see the
//! `mediator-net` crate's `Service`): a transport pump calls
//! [`Session::drain_outbox`] to carry freshly-sent messages onto real I/O,
//! [`Session::inject`] as frames arrive, and [`Session::step`] as its
//! event loop turns, with the scheduler reduced to a policy over
//! locally-pending events.

#![warn(missing_docs)]

use crate::process::{Action, ProcessId};
use crate::scheduler::{PendingView, Scheduler};
use crate::world::{Envelope, Outcome, TerminationKind, World};

/// What one [`Session::step`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// An event was dispatched (or dropped); the run continues.
    Running,
    /// The run has terminated; further `step` calls return the same status.
    Done(TerminationKind),
}

impl SessionStatus {
    /// `true` once the run has terminated.
    pub fn is_done(&self) -> bool {
        matches!(self, SessionStatus::Done(_))
    }
}

/// What [`Session::inject`] did with the message — the indicator a
/// transport pump branches on: an injection that entered the plane
/// ([`Injected::progressed`]) warrants an immediate [`Session::step`] to
/// deliver it, while a no-op must *not* be stepped (stepping an empty
/// plane would record a premature termination).
#[must_use = "the pump must distinguish progress from no-ops (see Injected::progressed)"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// The run was live; the message joined the pending plane.
    Absorbed,
    /// The run had quiesced or deadlocked; this injection re-opened it —
    /// the next [`Session::step`] re-evaluates termination against the
    /// refreshed plane.
    Reopened,
    /// The destination has already halted: the send is counted and traced
    /// (the environment saw it), but nothing entered the plane, and a
    /// terminated session stays terminated.
    DeadOnArrival,
    /// The step budget is exhausted. [`TerminationKind::BudgetExhausted`]
    /// is final — the budget does not replenish, so the message can never
    /// be delivered.
    Spent,
}

impl Injected {
    /// `true` when the message entered the plane (the run can progress).
    pub fn progressed(self) -> bool {
        matches!(self, Injected::Absorbed | Injected::Reopened)
    }
}

/// What a [`Session`] needs next — the question a readiness-driven pump
/// (an event loop interleaving many sessions on one thread) asks instead
/// of blocking: a session that wants [`SessionWants::Step`] has local
/// work and should be driven now; one that wants [`SessionWants::Network`]
/// can make no progress until a message is injected, so the loop parks it
/// and moves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionWants {
    /// Locally-pending events exist: [`Session::step`] (or
    /// [`Session::pump_ready`]) will make progress without new input.
    Step,
    /// The plane is empty and the run is live: only [`Session::inject`]
    /// can create work. (Whether that means "waiting on the wire" or
    /// "quiesced" is the transport's in-flight accounting to decide — the
    /// session cannot see the network.)
    Network,
    /// The run has terminated; only [`Session::finish`] remains.
    Finished,
}

/// A non-consuming driver over a [`World`]: `step` one event at a time,
/// inspect `pending`, `inject` external messages, drain the outbox onto a
/// transport, then `finish` into the ordinary [`Outcome`].
pub struct Session<M> {
    world: World<M>,
    scheduler: Box<dyn Scheduler>,
    max_steps: u64,
    done: Option<TerminationKind>,
    id: Option<u64>,
}

impl<M> Session<M> {
    /// Opens a session: queues the start signals and hands control to the
    /// caller. `max_steps` is the same livelock guard [`World::run`] takes.
    pub fn new(mut world: World<M>, scheduler: Box<dyn Scheduler>, max_steps: u64) -> Self {
        world.start();
        Session {
            world,
            scheduler,
            max_steps,
            done: None,
            id: None,
        }
    }

    /// Tags the session with the stable identifier a multi-session service
    /// routes frames by (`(session-id, player-id)` addressing).
    pub fn with_session_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// The routing identifier, if one was assigned.
    pub fn session_id(&self) -> Option<u64> {
        self.id
    }

    /// Dispatches the scheduler's pick. Returns [`SessionStatus::Done`] once
    /// the run has terminated; calling `step` again after that is a no-op.
    pub fn step(&mut self) -> SessionStatus {
        if let Some(t) = self.done {
            return SessionStatus::Done(t);
        }
        match self
            .world
            .step_once(self.scheduler.as_mut(), self.max_steps)
        {
            Some(t) => {
                self.done = Some(t);
                SessionStatus::Done(t)
            }
            None => SessionStatus::Running,
        }
    }

    /// Steps up to `n` events, stopping early on termination.
    pub fn step_n(&mut self, n: u64) -> SessionStatus {
        for _ in 0..n {
            if let SessionStatus::Done(t) = self.step() {
                return SessionStatus::Done(t);
            }
        }
        if let Some(t) = self.done {
            SessionStatus::Done(t)
        } else {
            SessionStatus::Running
        }
    }

    /// Steps until the run terminates.
    pub fn run_to_completion(&mut self) -> TerminationKind {
        loop {
            if let SessionStatus::Done(t) = self.step() {
                return t;
            }
        }
    }

    /// The scheduler-visible pending events, in plane order.
    pub fn pending(&self) -> &[PendingView] {
        self.world.pending()
    }

    /// Events dispatched so far.
    pub fn steps(&self) -> u64 {
        self.world.steps()
    }

    /// Moves made so far (indexed by process id).
    pub fn moves(&self) -> &[Option<Action>] {
        self.world.moves()
    }

    /// The termination, once reached.
    pub fn termination(&self) -> Option<TerminationKind> {
        self.done
    }

    /// Injects an external message from `src` to `dst` (see
    /// [`World::inject`]) and reports what happened as a typed
    /// [`Injected`] indicator. If the session had quiesced or deadlocked
    /// and the message actually entered the plane, the injection re-opens
    /// the run ([`Injected::Reopened`]) — the next [`Session::step`]
    /// re-evaluates termination against the refreshed plane. A
    /// [`TerminationKind::BudgetExhausted`] verdict is final
    /// ([`Injected::Spent`]): the step budget does not replenish.
    pub fn inject(&mut self, src: ProcessId, dst: ProcessId, msg: M) -> Injected {
        let entered = self.world.inject(src, dst, msg);
        match self.done {
            Some(TerminationKind::BudgetExhausted) => Injected::Spent,
            _ if !entered => Injected::DeadOnArrival,
            Some(TerminationKind::Quiescent) | Some(TerminationKind::Deadlock) => {
                self.done = None;
                Injected::Reopened
            }
            None => Injected::Absorbed,
        }
    }

    /// Removes every in-flight *message* from the pending plane (start
    /// signals stay put), yielding the envelopes in plane order — the
    /// non-consuming outbox drain a transport pump calls between steps:
    /// drained messages travel over real I/O and re-enter the run at
    /// arrival via [`Session::inject`] (collect first to inject while
    /// draining: the iterator borrows the world's buffer). See
    /// [`World::drain_messages`] for the buffer and the re-sequencing (the
    /// wire hop makes each message a fresh one-message batch, so the
    /// networked trace is one more delivery order in the adversary sense).
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Envelope<M>> {
        self.world.drain_messages()
    }

    /// Read access to the underlying world.
    pub fn world(&self) -> &World<M> {
        &self.world
    }

    /// What the session needs next (see [`SessionWants`]) — the
    /// non-blocking poll an event loop drives scheduling decisions with.
    pub fn wants(&self) -> SessionWants {
        if self.done.is_some() {
            SessionWants::Finished
        } else if self.world.pending().is_empty() {
            SessionWants::Network
        } else {
            SessionWants::Step
        }
    }

    /// One non-blocking unit of local work: steps once if (and only if)
    /// events are pending, reporting whether anything was dispatched. A
    /// readiness loop calls this in its run queue instead of [`Session::
    /// step`] because stepping an *empty* plane is not a no-op — it
    /// records a termination verdict, which must wait until the
    /// transport's in-flight accounting agrees the run is over.
    pub fn pump_ready(&mut self) -> bool {
        if self.done.is_some() || self.world.pending().is_empty() {
            return false;
        }
        self.step();
        true
    }

    /// Drives the remaining steps (if any) and returns the run's
    /// [`Outcome`] — exactly what [`World::run`] would have returned.
    pub fn finish(mut self) -> Outcome {
        let t = self.run_to_completion();
        self.world.take_outcome(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Ctx, Process};
    use crate::scheduler::{FifoScheduler, RandomScheduler, SchedulerKind};

    /// Echoes the first message it receives as its move.
    struct Echoer {
        n: usize,
        leader: bool,
    }

    impl Process<u64> for Echoer {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if self.leader {
                for d in 0..self.n {
                    ctx.send(d, 40 + d as u64);
                }
            }
        }
        fn on_message(&mut self, _src: usize, msg: u64, ctx: &mut Ctx<u64>) {
            ctx.make_move(msg);
            ctx.halt();
        }
    }

    fn echo_world(n: usize, seed: u64) -> World<u64> {
        let procs: Vec<Box<dyn Process<u64>>> = (0..n)
            .map(|p| Box::new(Echoer { n, leader: p == 0 }) as Box<dyn Process<u64>>)
            .collect();
        World::new(procs, seed)
    }

    #[test]
    fn stepped_session_matches_closed_loop_run() {
        for kind in [
            SchedulerKind::Random,
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
        ] {
            let closed = {
                let mut w = echo_world(4, 9);
                w.run(kind.build().as_mut(), 10_000)
            };
            let mut session = Session::new(echo_world(4, 9), kind.build(), 10_000);
            let mut steps = 0u64;
            while !session.step().is_done() {
                steps += 1;
            }
            assert_eq!(steps, closed.steps, "{kind:?}");
            let open = session.finish();
            assert_eq!(open.fingerprint(), closed.fingerprint(), "{kind:?}");
        }
    }

    #[test]
    fn pending_is_visible_between_steps() {
        let mut session = Session::new(echo_world(3, 1), Box::new(FifoScheduler), 10_000);
        // Before any step: one start signal per process.
        assert_eq!(session.pending().len(), 3);
        assert!(session.pending().iter().all(|v| v.src.is_none()));
        // FIFO dispatches process 0's start first: its broadcast lands.
        session.step();
        assert_eq!(
            session
                .pending()
                .iter()
                .filter(|v| v.src == Some(0))
                .count(),
            3
        );
        assert_eq!(session.run_to_completion(), TerminationKind::Quiescent);
        assert_eq!(session.moves(), &[Some(40), Some(41), Some(42)]);
    }

    #[test]
    fn inject_reopens_a_deadlocked_session() {
        /// Waits forever for a message; moves on receipt.
        struct Waiter;
        impl Process<u64> for Waiter {
            fn on_start(&mut self, _ctx: &mut Ctx<u64>) {}
            fn on_message(&mut self, _src: usize, msg: u64, ctx: &mut Ctx<u64>) {
                ctx.make_move(msg);
                ctx.halt();
            }
        }
        let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(Waiter), Box::new(Waiter)];
        let mut session = Session::new(
            World::new(procs, 3),
            Box::new(RandomScheduler::new()),
            10_000,
        );
        assert_eq!(
            session.run_to_completion(),
            TerminationKind::Deadlock,
            "nobody ever sends"
        );
        // The external world delivers: the session comes back to life, and
        // the injection says so in its type.
        assert_eq!(session.inject(0, 1, 77), Injected::Reopened);
        assert_eq!(session.step(), SessionStatus::Running);
        assert_eq!(session.moves()[1], Some(77));
        let out = session.finish();
        assert_eq!(out.moves[1], Some(77));
        assert_eq!(out.messages_sent, 1);
    }

    #[test]
    fn inject_indicator_distinguishes_every_case() {
        struct Waiter;
        impl Process<u64> for Waiter {
            fn on_start(&mut self, _ctx: &mut Ctx<u64>) {}
            fn on_message(&mut self, _src: usize, msg: u64, ctx: &mut Ctx<u64>) {
                ctx.make_move(msg);
                ctx.halt();
            }
        }
        let procs: Vec<Box<dyn Process<u64>>> =
            vec![Box::new(Waiter), Box::new(Waiter), Box::new(Waiter)];
        let mut session = Session::new(World::new(procs, 1), Box::new(FifoScheduler), 10_000);
        // Live run: an injection is plain absorption.
        assert_eq!(session.inject(0, 1, 5), Injected::Absorbed);
        assert_eq!(
            session.run_to_completion(),
            TerminationKind::Deadlock,
            "players 0 and 2 still wait"
        );
        // Player 1 halted on its move: dead on arrival, session stays done.
        assert_eq!(session.inject(0, 1, 6), Injected::DeadOnArrival);
        assert_eq!(
            session.step(),
            SessionStatus::Done(TerminationKind::Deadlock)
        );
        // Player 2 is live: the same injection re-opens the run.
        assert_eq!(session.inject(0, 2, 7), Injected::Reopened);
        assert_eq!(session.step(), SessionStatus::Running);
        assert_eq!(session.moves()[2], Some(7));
    }

    #[test]
    fn inject_into_exhausted_budget_is_spent() {
        /// Ping-pongs forever.
        struct PingPong;
        impl Process<u64> for PingPong {
            fn on_start(&mut self, ctx: &mut Ctx<u64>) {
                ctx.send(1 - ctx.me(), 0);
            }
            fn on_message(&mut self, src: usize, m: u64, ctx: &mut Ctx<u64>) {
                ctx.send(src, m + 1);
            }
        }
        let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(PingPong), Box::new(PingPong)];
        let mut session = Session::new(World::new(procs, 2), Box::new(FifoScheduler), 50);
        assert_eq!(
            session.run_to_completion(),
            TerminationKind::BudgetExhausted
        );
        assert_eq!(session.inject(0, 1, 9), Injected::Spent);
        assert_eq!(
            session.step(),
            SessionStatus::Done(TerminationKind::BudgetExhausted),
            "the verdict is final"
        );
    }

    #[test]
    fn drain_outbox_extracts_messages_but_not_start_signals() {
        let mut session = Session::new(echo_world(3, 4), Box::new(FifoScheduler), 10_000);
        // Nothing sent yet: only the three start signals are pending.
        assert!(session.drain_outbox().as_slice().is_empty());
        assert_eq!(session.pending().len(), 3);
        // The leader's start broadcasts to everyone; drain it off the plane.
        session.step();
        let drained: Vec<_> = session.drain_outbox().collect();
        assert_eq!(drained.len(), 3);
        for (d, env) in drained.iter().enumerate() {
            assert_eq!((env.src, env.dst, env.msg), (0, d, 40 + d as u64));
        }
        // The two remaining start signals survived the drain, in order.
        assert_eq!(session.pending().len(), 2);
        assert!(session.pending().iter().all(|v| v.src.is_none()));
        // Re-delivering the drained messages by hand completes the run with
        // the same moves the in-process schedule produces.
        for env in drained {
            assert_eq!(
                session.inject(env.src, env.dst, env.msg),
                Injected::Absorbed
            );
        }
        assert_eq!(session.run_to_completion(), TerminationKind::Quiescent);
        assert_eq!(session.moves(), &[Some(40), Some(41), Some(42)]);
    }

    #[test]
    fn a_dropped_drain_drops_its_rest_and_the_next_starts_empty() {
        let flooder = |_| {
            Box::new(Flooder {
                n: 3,
                quota: 9,
                received: 0,
            }) as Box<dyn Process<u64>>
        };
        let world = World::new((0..3).map(flooder).collect(), 4);
        let mut session = Session::new(world, Box::new(FifoScheduler), 10_000);
        let starts = |s: &Session<u64>| -> Vec<_> {
            s.pending()
                .iter()
                .filter(|v| v.src.is_none())
                .map(|v| v.dst)
                .collect()
        };
        // One start runs: six sends to each of its two peers. Read five.
        session.step();
        let before = starts(&session);
        let mut drain = session.drain_outbox();
        assert_eq!(drain.by_ref().take(5).count(), 5);
        drop(drain);
        // The other seven are gone; the start signals kept their order.
        assert_eq!(session.pending().len(), 2);
        assert_eq!(starts(&session), before);
        assert!(session.drain_outbox().as_slice().is_empty());
        // The next start's twelve sends, and nothing older, fill the next.
        session.step();
        let ran = before.iter().find(|&&p| starts(&session) != [p]);
        let p = *ran.expect("one start left");
        let peers = (0..3).filter(|&d| d != p).flat_map(|d| [(p, d); 6]);
        assert!(session.drain_outbox().map(|e| (e.src, e.dst)).eq(peers));
    }

    /// Floods every peer on start, relays each message onward while its
    /// hop count lasts, halts after `quota` receipts (so later traffic to
    /// it is purged or dead on arrival).
    struct Flooder {
        n: usize,
        quota: usize,
        received: usize,
    }

    impl Process<u64> for Flooder {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            let me = ctx.me();
            for d in (0..self.n).filter(|&d| d != me) {
                for _ in 0..6 {
                    ctx.send(d, 2);
                }
            }
        }
        fn on_message(&mut self, src: usize, hops: u64, ctx: &mut Ctx<u64>) {
            self.received += 1;
            if hops > 0 {
                ctx.send((src + self.received) % self.n, hops - 1);
            }
            if self.received == self.quota {
                ctx.make_move(self.received as u64);
                ctx.halt();
            }
        }
    }

    /// One flood world, driven the way a transport pump drives a session —
    /// steps, outbox drains and re-injections interleaved by a seeded
    /// schedule of its own. Returns a hash of every drained envelope in
    /// drain order, and the outcome.
    fn drive_interleaved(kind: &SchedulerKind, seed: u64) -> (u64, Outcome) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 8;
        let (quota, received) = (100, 0);
        let flooder = |_| Box::new(Flooder { n, quota, received }) as Box<dyn Process<u64>>;
        let world = World::new((0..n).map(flooder).collect(), seed);
        let mut session = Session::new(world, kind.build(), 100_000);
        let mut pump = StdRng::seed_from_u64(seed ^ 0x5e55_10f1);
        let mut wire = std::collections::VecDeque::new();
        let mut drained_hash = 0xcbf2_9ce4_8422_2325u64;
        while !(wire.is_empty() && session.wants() == SessionWants::Network) {
            match pump.gen_range(0..100) {
                0..=79 => {
                    session.pump_ready();
                }
                80..=82 => {
                    let starts_of = |s: &Session<u64>| -> Vec<usize> {
                        let starts = s.pending().iter().filter(|v| v.src.is_none());
                        starts.map(|v| v.dst).collect()
                    };
                    let starts = starts_of(&session);
                    for env in session.drain_outbox() {
                        for word in [env.src as u64, env.dst as u64, env.msg] {
                            drained_hash =
                                (drained_hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                        }
                        wire.push_back(env);
                    }
                    // Only the start signals are left, in their old order.
                    assert_eq!(session.pending().len(), starts.len());
                    assert_eq!(starts_of(&session), starts);
                }
                _ => {
                    for env in wire.drain(..pump.gen_range(0..40).min(wire.len())) {
                        let _ = session.inject(env.src, env.dst, env.msg);
                    }
                }
            }
        }
        let stats = session.world().stats();
        assert!(
            stats.pending_high_water > 128,
            "{kind:?} seed {seed} must run on a large plane: {stats:?}"
        );
        (drained_hash, session.finish())
    }

    /// `(drained-envelope hash, Outcome::fingerprint)` per seed, derived at
    /// the commit before the world's starvation backstop went, with it
    /// lifted for Random and at the 2 000 steps Lifo now enforces itself.
    const INTERLEAVED_RANDOM: [(u64, u64); 6] = [
        (0xb2bf50ffc6f37081, 0x8530040b70e809f5),
        (0x61f348deac7659a5, 0xbc550f225eba2cd4),
        (0x2debde70956de628, 0x8554a5e33fe3b035),
        (0xea70c2d169de8e93, 0x8d0f64a0be6d6cf0),
        (0x2699264a7136cb8d, 0x13a430243e83348c),
        (0x37b7323e9137a8be, 0x7c7750eaa1714be0),
    ];
    const INTERLEAVED_LIFO: [(u64, u64); 6] = [
        (0x011dcd13cb98be10, 0xbd33554ec7b08c8b),
        (0x5c78b9070037d092, 0x3f9e37e0617d0433),
        (0x1765925ed39037ee, 0x1b3c43255f813efd),
        (0x5d5aaff6feaf4576, 0xc95b4f44cc7c48ba),
        (0xc5fce17a210c5314, 0xffe99424a03f05ff),
        (0xc2fb8e7b58d31b40, 0x256828b09dff6629),
    ];

    #[test]
    fn interleaved_drain_inject_step_matches_the_pinned_runs() {
        for (kind, golden) in [
            (SchedulerKind::Random, INTERLEAVED_RANDOM),
            (SchedulerKind::Lifo, INTERLEAVED_LIFO),
        ] {
            let got: Vec<(u64, u64)> = (0..golden.len() as u64)
                .map(|seed| {
                    let (drained, out) = drive_interleaved(&kind, seed);
                    (drained, out.fingerprint())
                })
                .collect();
            assert_eq!(got, golden, "{kind:?}: got {got:#018x?}");
        }
    }

    #[test]
    fn session_id_plumbs_through() {
        let session = Session::new(echo_world(2, 0), Box::new(FifoScheduler), 100);
        assert_eq!(session.session_id(), None);
        let session = session.with_session_id(77);
        assert_eq!(session.session_id(), Some(77));
    }

    #[test]
    fn wants_and_pump_ready_track_the_plane() {
        let mut session = Session::new(echo_world(2, 5), Box::new(FifoScheduler), 10_000);
        // Start signals are pending local work.
        assert_eq!(session.wants(), SessionWants::Step);
        while session.pump_ready() {
            let drained: Vec<_> = session.drain_outbox().collect();
            drained.into_iter().for_each(|env| {
                let _ = session.inject(env.src, env.dst, env.msg);
            });
        }
        // pump_ready refuses to step an empty-or-done plane: with every
        // message re-injected and dispatched the session now waits for its
        // driver to agree nothing is in flight...
        assert_eq!(session.wants(), SessionWants::Network);
        assert!(!session.pump_ready());
        // ...and the driver's quiescence step records the verdict.
        assert!(session.step().is_done());
        assert_eq!(session.wants(), SessionWants::Finished);
        assert!(!session.pump_ready());

        // A session whose traffic is stranded on the wire wants Network.
        let mut stranded = Session::new(echo_world(2, 5), Box::new(FifoScheduler), 10_000);
        while stranded.pump_ready() {
            drop(stranded.drain_outbox()); // swallow: frames "in flight"
        }
        if stranded.wants() == SessionWants::Network {
            assert!(!stranded.pump_ready(), "empty plane must not be stepped");
        }
    }

    #[test]
    fn step_n_stops_at_termination() {
        let mut session = Session::new(echo_world(2, 5), Box::new(FifoScheduler), 10_000);
        let status = session.step_n(1_000);
        assert!(status.is_done());
        assert_eq!(session.termination(), Some(TerminationKind::Quiescent));
        // Further steps are no-ops with the same verdict.
        assert_eq!(session.step(), status);
    }
}
