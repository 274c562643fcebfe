//! The deterministic event loop, built on an **indexed event plane**.
//!
//! The seed implementation kept one flat `Vec<Pending<M>>` and, on *every*
//! step, rebuilt the scheduler-visible [`PendingView`] array and re-scanned
//! the whole pending set for events addressed to halted processes — O(P)
//! work per step, O(steps·P) per run. The event plane replaces that with
//! two parallel dense arrays maintained *incrementally*:
//!
//! * `views:  Vec<PendingView>` — the scheduler-visible index, pushed on
//!   send and `swap_remove`d on dispatch/drop. Handed to schedulers as a
//!   slice with **exactly** the element order the seed implementation
//!   produced, so every scheduler makes byte-for-byte the same choices
//!   (the trace-golden suites pin this).
//! * `stores: Vec<Stored<M>>` — the payloads, in lockstep with `views`:
//!   the pop addressed by a scheduler index is one O(1) `swap_remove`
//!   keyed by the event's stable position, never a shifting `Vec::remove`.
//!
//! Two invariants make the per-step purge unnecessary:
//!
//! 1. when a process halts, its pending events are removed *at that
//!    moment* (one order-preserving compaction per halt, not per step);
//! 2. a message sent to an already-halted process is counted and traced as
//!    sent but never enters the plane (the seed queued it and purged it
//!    before the next pick — observationally identical).
//!
//! Every pick is the scheduler's: the world keeps no starvation backstop.
//! Eventual delivery is the scheduler's contract (see
//! [`crate::scheduler`]), so the plane is exactly the two arrays.

use crate::process::{Action, Ctx, Process, ProcessId};
use crate::scheduler::{PendingView, SchedChoice, Scheduler};
use crate::trace::{Trace, TraceEvent, TraceMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminationKind {
    /// Every process halted (or every pending event was consumed) and all
    /// processes that wanted to move have moved.
    Quiescent,
    /// No pending events remain but some live process never halted — the
    /// run deadlocked (possible only with relaxed schedulers or buggy
    /// protocols).
    Deadlock,
    /// The step budget ran out with events still pending (livelock guard).
    BudgetExhausted,
}

/// The result of running a [`World`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// The move each process made in the underlying game, if any.
    pub moves: Vec<Option<Action>>,
    /// The will each process left, if any (the Aumann–Hart approach).
    pub wills: Vec<Option<Action>>,
    /// Which processes halted.
    pub halted: Vec<bool>,
    /// Messages sent during the run.
    pub messages_sent: u64,
    /// Messages delivered during the run.
    pub messages_delivered: u64,
    /// Steps (events dispatched).
    pub steps: u64,
    /// How the run ended.
    pub termination: TerminationKind,
    /// The full message pattern.
    pub trace: Trace,
}

impl Outcome {
    /// Resolves final moves for the **default-move approach**: a process
    /// that never moved is assigned `defaults[i]` (the paper's `M_i(t)`).
    pub fn resolve_default(&self, defaults: &[Action]) -> Vec<Action> {
        self.moves
            .iter()
            .enumerate()
            .map(|(i, m)| m.unwrap_or(defaults[i]))
            .collect()
    }

    /// Resolves final moves for the **AH (wills) approach**: a process that
    /// never moved plays its will if it wrote one, else `fallback[i]`.
    /// (The paper's strategies always write a will before any deadlock can
    /// occur; the fallback covers ill-formed strategies.)
    pub fn resolve_ah(&self, fallback: &[Action]) -> Vec<Action> {
        self.moves
            .iter()
            .zip(&self.wills)
            .enumerate()
            .map(|(i, (m, w))| m.or(*w).unwrap_or(fallback[i]))
            .collect()
    }

    /// A stable FNV-1a fingerprint of the run: the full message pattern
    /// (Lemma 6.8 notation) plus moves, wills, halted flags, counters and
    /// termination. Any change to the scheduler-visible semantics flips
    /// it — this is what the trace-golden suites pin across refactors, so
    /// the summary format is single-sourced here.
    pub fn fingerprint(&self) -> u64 {
        let summary = format!(
            "{}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}",
            self.trace.to_pattern_string(),
            self.moves,
            self.wills,
            self.halted,
            self.messages_sent,
            self.messages_delivered,
            self.steps,
            self.termination,
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in summary.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Payload storage for one pending event (the metadata lives in the
/// parallel [`PendingView`]).
enum Stored<M> {
    Start,
    Msg(M),
}

/// One in-flight message extracted from the pending plane by
/// [`World::drain_messages`]: the addressing a transport needs, with the
/// plane metadata (batch, per-pair `k`, global seq) stripped — a drained
/// message re-enters the run as a fresh one-message batch via
/// [`World::inject`], so the old sequencing would be stale anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The sending process.
    pub src: ProcessId,
    /// The addressed process.
    pub dst: ProcessId,
    /// The payload.
    pub msg: M,
}

/// Event-plane counters of one [`World`], read through [`World::stats`].
/// Observability only: nothing here is written into the [`Trace`] or the
/// [`Outcome`], so fingerprints, goldens and stored traces cannot see it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// The largest number of events ever pending at once.
    pub pending_high_water: u64,
}

/// A deterministic asynchronous world: processes plus in-flight events.
///
/// Determinism: one master seed derives one RNG per process and one for the
/// scheduler; two runs with the same processes, scheduler, and seed produce
/// identical traces.
pub struct World<M> {
    procs: Vec<Box<dyn Process<M>>>,
    // The indexed event plane (see the module docs): two dense arrays in
    // lockstep.
    views: Vec<PendingView>,
    stores: Vec<Stored<M>>,
    stats: WorldStats,
    outbox_pool: Vec<(ProcessId, M)>, // recycled activation outbox
    drained: Vec<Envelope<M>>,        // recycled `drain_messages` buffer
    started: Vec<bool>,
    halted: Vec<bool>,
    moves: Vec<Option<Action>>,
    wills: Vec<Option<Action>>,
    proc_rngs: Vec<StdRng>,
    sched_rng: StdRng,
    pair_seq: Vec<u64>, // (src*n_total + dst) -> next k
    next_seq: u64,
    next_batch: u64,
    steps: u64,
    sent: u64,
    delivered: u64,
    trace: Trace,
    allow_drop: bool,
    ran: bool,
}

impl<M> World<M> {
    /// Creates a world over the given processes with a master seed.
    pub fn new(procs: Vec<Box<dyn Process<M>>>, seed: u64) -> Self {
        let n = procs.len();
        let proc_rngs = (0..n)
            .map(|i| {
                StdRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64),
                )
            })
            .collect();
        World {
            procs,
            views: Vec::new(),
            stores: Vec::new(),
            stats: WorldStats::default(),
            outbox_pool: Vec::new(),
            drained: Vec::new(),
            started: vec![false; n],
            halted: vec![false; n],
            moves: vec![None; n],
            wills: vec![None; n],
            proc_rngs,
            sched_rng: StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF_CAFE_F00D),
            pair_seq: vec![0; n * n],
            next_seq: 0,
            next_batch: 0,
            steps: 0,
            sent: 0,
            delivered: 0,
            trace: Trace::new(),
            allow_drop: false,
            ran: false,
        }
    }

    /// Permits [`SchedChoice::Drop`] (relaxed-scheduler semantics, §5).
    /// Dropping one message drops its entire batch (all-or-none rule).
    pub fn allow_drops(&mut self) -> &mut Self {
        self.allow_drop = true;
        self
    }

    /// Selects whether the [`Trace`] keeps the event stream or only its
    /// counters (see [`TraceMode`]). The default keeps every event, at
    /// about four bytes each; [`TraceMode::Off`] is for runs that never
    /// read the pattern.
    ///
    /// Must be configured before [`World::run`].
    pub fn set_trace_mode(&mut self, mode: TraceMode) -> &mut Self {
        debug_assert!(!self.ran, "trace mode must be set before run()");
        self.trace = Trace::with_mode(mode);
        self
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Returns `true` if the world has no processes.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Runs to quiescence, deadlock, or the step budget; consumes the
    /// schedule produced by `scheduler`.
    ///
    /// A world runs once: the returned [`Outcome`] takes ownership of the
    /// per-process results instead of cloning them. For incremental driving
    /// (step-by-step inspection, external message injection) use
    /// [`World::start`] / [`World::step_once`] / [`World::take_outcome`] —
    /// or the [`Session`](crate::session::Session) handle that packages
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if called a second time on the same world (or after
    /// [`World::start`]).
    pub fn run(&mut self, scheduler: &mut dyn Scheduler, max_steps: u64) -> Outcome {
        assert!(
            !self.ran,
            "World::run called twice; build a fresh World per run"
        );
        self.start();
        let termination = loop {
            if let Some(t) = self.step_once(scheduler, max_steps) {
                break t;
            }
        };
        self.take_outcome(termination)
    }

    /// Queues the start signals (the paper: each player receives a signal
    /// that the game has started when first scheduled) and marks the world
    /// as running. Idempotent; called implicitly by [`World::run`] and by
    /// [`Session::new`](crate::session::Session::new).
    pub fn start(&mut self) {
        if self.ran {
            return;
        }
        self.ran = true;
        let n = self.procs.len();
        for p in 0..n {
            self.push_event(
                PendingView {
                    src: None,
                    dst: p,
                    k: 0,
                    seq: 0,
                    batch: 0,
                    born: 0,
                },
                Stored::Start,
            );
        }
    }

    /// Executes one scheduler step: termination check, pick, dispatch.
    ///
    /// Returns `None` while the run continues, `Some(kind)` the moment it
    /// terminates (the event plane is drained, or `max_steps` is reached).
    /// This is the steppable core `run` loops over — a driver calling it
    /// directly sees exactly the run `run` would have produced, one event
    /// at a time. Call [`World::start`] first.
    pub fn step_once(
        &mut self,
        scheduler: &mut dyn Scheduler,
        max_steps: u64,
    ) -> Option<TerminationKind> {
        debug_assert!(self.ran, "call World::start() before step_once()");
        // Plane invariant (replaces the seed's per-step purge): no event
        // addressed to a halted process is ever pending — halting
        // compacts the plane, and later sends to halted processes are
        // counted but never enqueued.
        if self.views.is_empty() {
            let all_done = self.halted.iter().all(|&h| h);
            return Some(if all_done {
                TerminationKind::Quiescent
            } else {
                TerminationKind::Deadlock
            });
        }
        if self.steps >= max_steps {
            return Some(TerminationKind::BudgetExhausted);
        }

        let choice = self.pick(scheduler);
        match choice {
            SchedChoice::Deliver(i) => self.dispatch(i),
            SchedChoice::Drop(i) => {
                if self.allow_drop {
                    self.drop_batch(i);
                } else {
                    // Ordinary games: dropping is not available; deliver
                    // instead so a buggy scheduler cannot violate the
                    // model.
                    self.dispatch(i);
                }
            }
        }
        self.steps += 1;
        None
    }

    /// Takes the run's results out of the world. Intended for steppable
    /// drivers that reached a termination via [`World::step_once`];
    /// [`World::run`] calls it internally. The world is spent afterwards.
    pub fn take_outcome(&mut self, termination: TerminationKind) -> Outcome {
        Outcome {
            moves: std::mem::take(&mut self.moves),
            wills: std::mem::take(&mut self.wills),
            halted: std::mem::take(&mut self.halted),
            messages_sent: self.sent,
            messages_delivered: self.delivered,
            steps: self.steps,
            termination,
            trace: std::mem::take(&mut self.trace),
        }
    }

    /// The scheduler-visible pending events, in plane order (the same slice
    /// handed to [`Scheduler::next`]).
    pub fn pending(&self) -> &[PendingView] {
        &self.views
    }

    /// The global step counter (events dispatched so far).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The moves made so far (indexed by process id).
    pub fn moves(&self) -> &[Option<Action>] {
        &self.moves
    }

    /// The message pattern recorded so far — live read access for drivers
    /// that track replay progress or persist traces incrementally (the
    /// completed trace also travels in [`Outcome::trace`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The event-plane counters so far (see [`WorldStats`]).
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// Injects a message from `src` to `dst` as if `src` had sent it in an
    /// activation of its own — the seam an external (network/async) backend
    /// attaches to. The event is traced, counted, and sequenced exactly
    /// like an internal send (`World::enqueue_send` is the one shared
    /// implementation); it forms a one-message batch.
    ///
    /// Returns `true` if the message entered the pending plane, `false` if
    /// `dst` had already halted (the send is counted and traced, but it is
    /// dead on arrival — the same rule internal sends follow).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a process of this world.
    pub fn inject(&mut self, src: ProcessId, dst: ProcessId, msg: M) -> bool {
        assert!(src < self.procs.len(), "inject from unknown process {src}");
        let batch = self.next_batch;
        self.next_batch += 1;
        let planned = !self.halted[dst];
        self.enqueue_send(src, dst, msg, batch);
        planned
    }

    /// Removes every *message* event from the pending plane (start signals
    /// stay put), yielding the drained envelopes in plane order and
    /// preserving the relative order of what remains. The plane is
    /// compacted in place and the envelopes move into a buffer the world
    /// reuses, so a drain allocates only past the widest burst yet; the
    /// iterator drops what it has not yielded, and each drain starts empty.
    ///
    /// This is the outbox of a networked run: a transport backend drains
    /// the messages the processes just sent, carries them over real I/O,
    /// and re-delivers each one later via [`World::inject`]. The drained
    /// events' plane metadata (batch, per-pair `k`, seq) is dropped — the
    /// wire hop re-sequences each message as a fresh one-message batch, so
    /// a networked trace differs from the in-process trace of the same
    /// seed in exactly the way a different scheduler's would.
    pub fn drain_messages(&mut self) -> std::vec::Drain<'_, Envelope<M>> {
        self.drained.clear();
        let mut kept = 0;
        for r in 0..self.views.len() {
            let view = self.views[r];
            // Every slot is left holding `Start`, which is what the kept
            // prefix must hold anyway.
            match std::mem::replace(&mut self.stores[r], Stored::Start) {
                Stored::Start => {
                    self.views[kept] = view;
                    kept += 1;
                }
                Stored::Msg(msg) => self.drained.push(Envelope {
                    src: view.src.expect("message event has a source"),
                    dst: view.dst,
                    msg,
                }),
            }
        }
        self.views.truncate(kept);
        self.stores.truncate(kept);
        self.drained.drain(..)
    }

    /// The one send-sequencing protocol: per-pair `k`, global `seq`, Sent
    /// trace event, counter — shared by activation outboxes
    /// (`apply_effects`) and external injection (`inject`) so the two can
    /// never drift apart.
    fn enqueue_send(&mut self, src: ProcessId, dst: ProcessId, payload: M, batch: u64) {
        let n = self.procs.len();
        assert!(dst < n, "send to unknown process {dst}");
        let slot = src * n + dst;
        self.pair_seq[slot] += 1;
        let k = self.pair_seq[slot];
        self.trace.push(TraceEvent::Sent { src, dst, k });
        self.sent += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        // A send to a halted process is observable (Sent event, counter)
        // but dead on arrival: the seed queued it and purged it before
        // the next scheduler pick, so it never entered any view.
        if !self.halted[dst] {
            self.push_event(
                PendingView {
                    src: Some(src),
                    dst,
                    k,
                    seq,
                    batch,
                    born: self.steps,
                },
                Stored::Msg(payload),
            );
        }
    }

    /// Queues one event on the plane.
    fn push_event(&mut self, view: PendingView, store: Stored<M>) {
        self.views.push(view);
        self.stores.push(store);
        let high_water = &mut self.stats.pending_high_water;
        *high_water = (*high_water).max(self.views.len() as u64);
    }

    /// Removes the event at dense index `i`, returning its view + payload.
    fn pop_event(&mut self, i: usize) -> (PendingView, Stored<M>) {
        (self.views.swap_remove(i), self.stores.swap_remove(i))
    }

    fn pick(&mut self, scheduler: &mut dyn Scheduler) -> SchedChoice {
        let c = scheduler.next(&self.views, self.steps, &mut self.sched_rng);
        let idx = match c {
            SchedChoice::Deliver(i) | SchedChoice::Drop(i) => i,
        };
        assert!(
            idx < self.views.len(),
            "scheduler returned out-of-range index"
        );
        c
    }

    fn dispatch(&mut self, i: usize) {
        let (view, store) = self.pop_event(i);
        match store {
            Stored::Start => self.start_if_needed(view.dst),
            Stored::Msg(payload) => {
                let src = view.src.expect("message event has a source");
                let dst = view.dst;
                // The paper: a player gets its start signal when *first
                // scheduled*, whether by an external signal or by a
                // game-related message. Deliver the start before the message.
                self.start_if_needed(dst);
                if self.halted[dst] {
                    return; // halted during on_start; message discarded
                }
                self.trace.push(TraceEvent::Delivered {
                    src,
                    dst,
                    k: view.k,
                });
                self.delivered += 1;
                let buf = std::mem::take(&mut self.outbox_pool);
                let mut ctx = Ctx::new(dst, self.steps, &mut self.proc_rngs[dst], buf);
                self.procs[dst].on_message(src, payload, &mut ctx);
                let effects = ctx.finish();
                self.apply_effects(dst, effects);
            }
        }
    }

    fn start_if_needed(&mut self, pid: ProcessId) {
        if self.started[pid] {
            return;
        }
        self.started[pid] = true;
        self.trace.push(TraceEvent::Started { p: pid });
        let buf = std::mem::take(&mut self.outbox_pool);
        let mut ctx = Ctx::new(pid, self.steps, &mut self.proc_rngs[pid], buf);
        self.procs[pid].on_start(&mut ctx);
        let effects = ctx.finish();
        self.apply_effects(pid, effects);
    }

    fn apply_effects(&mut self, pid: ProcessId, mut effects: crate::process::Effects<M>) {
        let batch = self.next_batch;
        self.next_batch += 1;
        for (dst, payload) in effects.outbox.drain(..) {
            self.enqueue_send(pid, dst, payload, batch);
        }
        // Recycle the drained activation outbox (capacity is the point).
        self.outbox_pool = effects.outbox;
        if let Some(a) = effects.made_move {
            if self.moves[pid].is_none() {
                self.moves[pid] = Some(a);
            }
        }
        if effects.will.is_some() {
            self.wills[pid] = effects.will;
        }
        if effects.halted && !self.halted[pid] {
            self.halted[pid] = true;
            self.purge_for(pid);
        }
    }

    /// Removes every pending event addressed to `pid` (its start signal
    /// included), preserving the relative order of everything kept — the
    /// same order the seed's per-step `retain` produced. One pass per halt
    /// instead of one per step.
    fn purge_for(&mut self, pid: ProcessId) {
        let len = self.views.len();
        let mut w = 0;
        for r in 0..len {
            if self.views[r].dst != pid {
                if w != r {
                    self.views.swap(w, r);
                    self.stores.swap(w, r);
                }
                w += 1;
            }
        }
        self.views.truncate(w);
        self.stores.truncate(w);
    }

    fn drop_batch(&mut self, i: usize) {
        if self.views[i].src.is_none() {
            // Start signals cannot be dropped: the game always starts.
            self.dispatch(i);
            return;
        }
        let batch = self.views[i].batch;
        // Emit the batch's `Dropped` events in send (`seq`) order: the trace
        // stays a pure function of the content-level schedule, independent of
        // the plane's `swap_remove` layout. (Deterministic replay relies on
        // this — the layout depends on trace-silent steps a recording cannot
        // show, so a layout-dependent emission order would not replay.)
        let mut members: Vec<usize> = (0..self.views.len())
            .filter(|&j| self.views[j].src.is_some() && self.views[j].batch == batch)
            .collect();
        members.sort_unstable_by_key(|&j| self.views[j].seq);
        for &j in &members {
            let v = self.views[j];
            self.trace.push(TraceEvent::Dropped {
                src: v.src.expect("checked"),
                dst: v.dst,
                k: v.k,
            });
        }
        // Remove back-to-front so `swap_remove` never disturbs a member
        // that is still waiting to be removed.
        members.sort_unstable_by(|a, b| b.cmp(a));
        for &j in &members {
            let _ = self.pop_event(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{
        FifoScheduler, LifoScheduler, RandomScheduler, RelaxedScheduler, FAIRNESS_BOUND,
    };

    /// Sends `fanout` messages to everyone on start; echoes once on receipt;
    /// moves with the number of messages received after `quota` receipts.
    struct Chatter {
        n: usize,
        fanout: usize,
        quota: usize,
        received: usize,
    }

    impl Process<u32> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            for d in 0..self.n {
                if d != ctx.me() {
                    for _ in 0..self.fanout {
                        ctx.send(d, 1);
                    }
                }
            }
        }
        fn on_message(&mut self, _src: ProcessId, _msg: u32, ctx: &mut Ctx<u32>) {
            self.received += 1;
            if self.received == self.quota {
                ctx.make_move(self.received as Action);
                ctx.halt();
            }
        }
    }

    fn chatter_world(n: usize, fanout: usize, quota: usize, seed: u64) -> World<u32> {
        let procs: Vec<Box<dyn Process<u32>>> = (0..n)
            .map(|_| {
                Box::new(Chatter {
                    n,
                    fanout,
                    quota,
                    received: 0,
                }) as Box<dyn Process<u32>>
            })
            .collect();
        World::new(procs, seed)
    }

    #[test]
    fn all_processes_receive_quota_and_move() {
        let mut w = chatter_world(4, 2, 3, 1);
        let out = w.run(&mut RandomScheduler::new(), 100_000);
        assert_eq!(out.termination, TerminationKind::Quiescent);
        for m in &out.moves {
            assert_eq!(*m, Some(3));
        }
        assert_eq!(out.messages_sent, 4 * 3 * 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut w = chatter_world(5, 1, 2, seed);
            w.run(&mut RandomScheduler::new(), 100_000)
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a.trace.events(), b.trace.events());
        let c = run(100);
        // Different seed ⇒ (almost surely) different schedule.
        assert_ne!(a.trace.events(), c.trace.events());
    }

    #[test]
    fn fifo_and_lifo_schedules_differ() {
        let mut w1 = chatter_world(3, 2, 2, 7);
        let mut w2 = chatter_world(3, 2, 2, 7);
        let o1 = w1.run(&mut FifoScheduler, 100_000);
        let o2 = w2.run(&mut LifoScheduler, 100_000);
        assert_ne!(o1.trace.events(), o2.trace.events());
        // But both terminate with the same moves — scheduler-proofness of
        // this trivial protocol.
        assert_eq!(o1.moves, o2.moves);
    }

    #[test]
    fn deadlock_detected_when_waiting_forever() {
        /// Waits for a message that never comes.
        struct Waiter;
        impl Process<u32> for Waiter {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.set_will(13);
            }
            fn on_message(&mut self, _src: ProcessId, _m: u32, _ctx: &mut Ctx<u32>) {}
        }
        let mut w: World<u32> = World::new(vec![Box::new(Waiter)], 0);
        let out = w.run(&mut RandomScheduler::new(), 1000);
        assert_eq!(out.termination, TerminationKind::Deadlock);
        assert_eq!(out.moves[0], None);
        // AH approach: the will fires.
        assert_eq!(out.resolve_ah(&[0]), vec![13]);
        // Default-move approach: the default fires.
        assert_eq!(out.resolve_default(&[7]), vec![7]);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        /// Two processes ping-pong forever.
        struct PingPong;
        impl Process<u32> for PingPong {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                let peer = 1 - ctx.me();
                ctx.send(peer, 0);
            }
            fn on_message(&mut self, src: ProcessId, m: u32, ctx: &mut Ctx<u32>) {
                ctx.send(src, m + 1);
            }
        }
        let mut w: World<u32> = World::new(vec![Box::new(PingPong), Box::new(PingPong)], 3);
        let out = w.run(&mut RandomScheduler::new(), 500);
        assert_eq!(out.termination, TerminationKind::BudgetExhausted);
        assert_eq!(out.steps, 500);
    }

    #[test]
    fn relaxed_scheduler_can_cause_deadlock_but_batches_drop_atomically() {
        /// Process 0 sends one batch of two messages to 1 and 2; they move on
        /// receipt.
        struct Sender;
        impl Process<u32> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                if ctx.me() == 0 {
                    ctx.send(1, 10);
                    ctx.send(2, 20);
                    ctx.make_move(0);
                    ctx.halt();
                }
            }
            fn on_message(&mut self, _src: ProcessId, m: u32, ctx: &mut Ctx<u32>) {
                ctx.make_move(m as Action);
                ctx.halt();
            }
        }
        let procs: Vec<Box<dyn Process<u32>>> =
            vec![Box::new(Sender), Box::new(Sender), Box::new(Sender)];
        let mut w = World::new(procs, 11);
        w.allow_drops();
        let out = w.run(&mut RelaxedScheduler::new(vec![0], 0), 10_000);
        // The whole batch was dropped: receivers never move — and crucially
        // NOT only one of them (all-or-none, Lemma 6.10's hypothesis).
        assert_eq!(out.trace.dropped_count(), 2);
        assert_eq!(out.moves[1], None);
        assert_eq!(out.moves[2], None);
        assert_eq!(out.termination, TerminationKind::Deadlock);
    }

    #[test]
    fn drops_ignored_without_relaxed_semantics() {
        struct Sender;
        impl Process<u32> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                if ctx.me() == 0 {
                    ctx.send(1, 10);
                    ctx.halt();
                }
            }
            fn on_message(&mut self, _src: ProcessId, m: u32, ctx: &mut Ctx<u32>) {
                ctx.make_move(m as Action);
                ctx.halt();
            }
        }
        let procs: Vec<Box<dyn Process<u32>>> = vec![Box::new(Sender), Box::new(Sender)];
        let mut w = World::new(procs, 11);
        // No allow_drops(): the Drop choice degrades to Deliver.
        let out = w.run(&mut RelaxedScheduler::new(vec![0], 0), 10_000);
        assert_eq!(out.moves[1], Some(10));
        assert_eq!(out.trace.dropped_count(), 0);
    }

    #[test]
    fn lifo_delivers_a_starved_message_past_the_fairness_bound() {
        // LIFO + a self-feeding process would starve the other message
        // forever; the scheduler's fairness rule delivers it the first step
        // its age exceeds the bound.
        struct SelfFeeder {
            count: u64,
        }
        impl Process<u32> for SelfFeeder {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                // LIFO starts the last of the equal-seq start signals (1's)
                // first, so these two sends are born at step 1.
                if ctx.me() == 0 {
                    ctx.send(1, 42); // the message LIFO will starve...
                    ctx.send(0, 0); // ...under this younger self-message loop
                }
            }
            fn on_message(&mut self, _src: ProcessId, m: u32, ctx: &mut Ctx<u32>) {
                if ctx.me() == 0 {
                    self.count += 1;
                    if self.count < 2 * FAIRNESS_BOUND {
                        ctx.send(0, m);
                    } else {
                        ctx.make_move(0);
                        ctx.halt();
                    }
                } else {
                    ctx.make_move(ctx.step() as Action);
                    ctx.halt();
                }
            }
        }
        let procs: Vec<Box<dyn Process<u32>>> = vec![
            Box::new(SelfFeeder { count: 0 }),
            Box::new(SelfFeeder { count: 0 }),
        ];
        let mut w = World::new(procs, 5);
        let out = w.run(&mut LifoScheduler, 100_000);
        assert_eq!(out.termination, TerminationKind::Quiescent);
        assert_eq!(
            out.moves[1],
            Some((1 + FAIRNESS_BOUND + 1) as Action),
            "the starved message arrives the step its age passes the bound"
        );
        assert_eq!(w.stats().pending_high_water, 2);
    }

    #[test]
    fn messages_to_halted_processes_are_discarded() {
        struct OneShot;
        impl Process<u32> for OneShot {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                if ctx.me() == 0 {
                    ctx.send(1, 1);
                    ctx.send(1, 2);
                    ctx.halt();
                }
            }
            fn on_message(&mut self, _src: ProcessId, m: u32, ctx: &mut Ctx<u32>) {
                ctx.make_move(m as Action);
                ctx.halt(); // halt after first message; second must be purged
            }
        }
        let procs: Vec<Box<dyn Process<u32>>> = vec![Box::new(OneShot), Box::new(OneShot)];
        let mut w = World::new(procs, 2);
        let out = w.run(&mut FifoScheduler, 10_000);
        assert_eq!(out.termination, TerminationKind::Quiescent);
        assert_eq!(out.moves[1], Some(1));
        assert_eq!(out.messages_delivered, 1);
    }

    #[test]
    fn sends_to_already_halted_processes_count_but_never_enqueue() {
        // Player 1 halts immediately; player 0's later burst to it is traced
        // as sent (the environment sees the sends) but nothing is pending,
        // so the run is quiescent with zero deliveries to 1.
        struct LateSender;
        impl Process<u32> for LateSender {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                if ctx.me() == 1 {
                    ctx.halt();
                } else {
                    ctx.send(0, 7); // self-nudge to get a second activation
                }
            }
            fn on_message(&mut self, _src: ProcessId, _m: u32, ctx: &mut Ctx<u32>) {
                ctx.send(1, 1);
                ctx.send(1, 2);
                ctx.halt();
            }
        }
        let procs: Vec<Box<dyn Process<u32>>> = vec![Box::new(LateSender), Box::new(LateSender)];
        let mut w = World::new(procs, 4);
        let out = w.run(&mut FifoScheduler, 10_000);
        assert_eq!(out.termination, TerminationKind::Quiescent);
        assert_eq!(out.messages_sent, 3, "self-nudge + two dead-on-arrival");
        assert_eq!(out.messages_delivered, 1, "only the self-nudge");
        let sent_by_0 = out
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Sent { src: 0, .. }))
            .count();
        assert_eq!(sent_by_0, 3);
    }

    #[test]
    fn per_pair_sequence_numbers_count_up() {
        struct Burst;
        impl Process<u32> for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                if ctx.me() == 0 {
                    ctx.send(1, 0);
                    ctx.send(1, 0);
                    ctx.send(1, 0);
                    ctx.halt();
                }
            }
            fn on_message(&mut self, _src: ProcessId, _m: u32, _ctx: &mut Ctx<u32>) {}
        }
        let procs: Vec<Box<dyn Process<u32>>> = vec![Box::new(Burst), Box::new(Burst)];
        let mut w = World::new(procs, 2);
        let out = w.run(&mut FifoScheduler, 100);
        let ks: Vec<u64> = out
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sent { src: 0, dst: 1, k } => Some(k),
                _ => None,
            })
            .collect();
        assert_eq!(ks, vec![1, 2, 3]);
    }

    #[test]
    fn trace_modes_agree_on_counters() {
        let full = {
            let mut w = chatter_world(4, 2, 3, 9);
            w.run(&mut RandomScheduler::new(), 100_000)
        };
        let off = {
            let mut w = chatter_world(4, 2, 3, 9);
            w.set_trace_mode(TraceMode::Off);
            w.run(&mut RandomScheduler::new(), 100_000)
        };
        // Identical runs (same seed, same scheduler choices): counters and
        // outcomes agree; only event retention differs.
        assert_eq!(full.moves, off.moves);
        assert_eq!(full.messages_sent, off.messages_sent);
        assert_eq!(full.trace.sent_count(), off.trace.sent_count());
        assert_eq!(full.trace.delivered_count(), off.trace.delivered_count());
        assert!(off.trace.events().is_empty());
        assert_eq!(off.trace.wrapped(), full.trace.events().len() as u64);
    }
}

/// Differential suite: the indexed event plane versus an executable
/// re-implementation of the seed's flat-vector loop ("spec world"). Both
/// drive the same process types with the same RNG derivations; every trace
/// and outcome must match across the scheduler battery — the in-crate
/// counterpart of the protocol-level golden suites in `mediator-bcast` and
/// `mediator-vss`.
#[cfg(test)]
mod spec_parity {
    use super::*;
    use crate::scheduler::{RelaxedScheduler, SchedulerKind};

    /// The seed implementation, verbatim semantics: flat pending vector,
    /// per-step halted purge, per-step view rebuild, swap_remove dispatch.
    struct SpecWorld<M> {
        procs: Vec<Box<dyn Process<M>>>,
        pending: Vec<(PendingView, Stored<M>)>,
        started: Vec<bool>,
        halted: Vec<bool>,
        moves: Vec<Option<Action>>,
        wills: Vec<Option<Action>>,
        proc_rngs: Vec<StdRng>,
        sched_rng: StdRng,
        pair_seq: Vec<u64>,
        next_seq: u64,
        next_batch: u64,
        steps: u64,
        sent: u64,
        delivered: u64,
        trace: Trace,
        allow_drop: bool,
    }

    impl<M> SpecWorld<M> {
        fn new(procs: Vec<Box<dyn Process<M>>>, seed: u64) -> Self {
            let n = procs.len();
            let proc_rngs = (0..n)
                .map(|i| {
                    StdRng::seed_from_u64(
                        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(i as u64),
                    )
                })
                .collect();
            SpecWorld {
                procs,
                pending: Vec::new(),
                started: vec![false; n],
                halted: vec![false; n],
                moves: vec![None; n],
                wills: vec![None; n],
                proc_rngs,
                sched_rng: StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF_CAFE_F00D),
                pair_seq: vec![0; n * n],
                next_seq: 0,
                next_batch: 0,
                steps: 0,
                sent: 0,
                delivered: 0,
                trace: Trace::new(),
                allow_drop: false,
            }
        }

        fn run(&mut self, scheduler: &mut dyn Scheduler, max_steps: u64) -> Outcome {
            let n = self.procs.len();
            for p in 0..n {
                self.pending.push((
                    PendingView {
                        src: None,
                        dst: p,
                        k: 0,
                        seq: 0,
                        batch: 0,
                        born: 0,
                    },
                    Stored::Start,
                ));
            }
            let termination = loop {
                let halted = &self.halted;
                self.pending.retain(|(v, _)| !halted[v.dst]);
                if self.pending.is_empty() {
                    break if self.halted.iter().all(|&h| h) {
                        TerminationKind::Quiescent
                    } else {
                        TerminationKind::Deadlock
                    };
                }
                if self.steps >= max_steps {
                    break TerminationKind::BudgetExhausted;
                }
                // Per-step view rebuild, as the seed did.
                let views: Vec<PendingView> = self.pending.iter().map(|(v, _)| *v).collect();
                match scheduler.next(&views, self.steps, &mut self.sched_rng) {
                    SchedChoice::Deliver(i) => self.dispatch(i),
                    SchedChoice::Drop(i) => {
                        if self.allow_drop {
                            self.drop_batch(i);
                        } else {
                            self.dispatch(i);
                        }
                    }
                }
                self.steps += 1;
            };
            Outcome {
                moves: std::mem::take(&mut self.moves),
                wills: std::mem::take(&mut self.wills),
                halted: std::mem::take(&mut self.halted),
                messages_sent: self.sent,
                messages_delivered: self.delivered,
                steps: self.steps,
                termination,
                trace: std::mem::take(&mut self.trace),
            }
        }

        fn dispatch(&mut self, i: usize) {
            let (view, store) = self.pending.swap_remove(i);
            match store {
                Stored::Start => self.start_if_needed(view.dst),
                Stored::Msg(payload) => {
                    let src = view.src.expect("msg");
                    let dst = view.dst;
                    self.start_if_needed(dst);
                    if self.halted[dst] {
                        return;
                    }
                    self.trace.push(TraceEvent::Delivered {
                        src,
                        dst,
                        k: view.k,
                    });
                    self.delivered += 1;
                    let mut ctx = Ctx::new(dst, self.steps, &mut self.proc_rngs[dst], Vec::new());
                    self.procs[dst].on_message(src, payload, &mut ctx);
                    let effects = ctx.finish();
                    self.apply_effects(dst, effects);
                }
            }
        }

        fn start_if_needed(&mut self, pid: ProcessId) {
            if self.started[pid] {
                return;
            }
            self.started[pid] = true;
            self.trace.push(TraceEvent::Started { p: pid });
            let mut ctx = Ctx::new(pid, self.steps, &mut self.proc_rngs[pid], Vec::new());
            self.procs[pid].on_start(&mut ctx);
            let effects = ctx.finish();
            self.apply_effects(pid, effects);
        }

        fn apply_effects(&mut self, pid: ProcessId, effects: crate::process::Effects<M>) {
            let n = self.procs.len();
            let batch = self.next_batch;
            self.next_batch += 1;
            for (dst, payload) in effects.outbox {
                let slot = pid * n + dst;
                self.pair_seq[slot] += 1;
                let k = self.pair_seq[slot];
                self.trace.push(TraceEvent::Sent { src: pid, dst, k });
                self.sent += 1;
                self.pending.push((
                    PendingView {
                        src: Some(pid),
                        dst,
                        k,
                        seq: self.next_seq,
                        batch,
                        born: self.steps,
                    },
                    Stored::Msg(payload),
                ));
                self.next_seq += 1;
            }
            if let Some(a) = effects.made_move {
                if self.moves[pid].is_none() {
                    self.moves[pid] = Some(a);
                }
            }
            if effects.will.is_some() {
                self.wills[pid] = effects.will;
            }
            if effects.halted {
                self.halted[pid] = true;
            }
        }

        fn drop_batch(&mut self, i: usize) {
            if self.pending[i].0.src.is_none() {
                self.dispatch(i);
                return;
            }
            let batch = self.pending[i].0.batch;
            // Mirrors the plane world: `Dropped` events in send order.
            let mut members: Vec<usize> = (0..self.pending.len())
                .filter(|&j| self.pending[j].0.src.is_some() && self.pending[j].0.batch == batch)
                .collect();
            members.sort_unstable_by_key(|&j| self.pending[j].0.seq);
            for &j in &members {
                let v = self.pending[j].0;
                self.trace.push(TraceEvent::Dropped {
                    src: v.src.expect("msg"),
                    dst: v.dst,
                    k: v.k,
                });
            }
            members.sort_unstable_by(|a, b| b.cmp(a));
            for &j in &members {
                self.pending.swap_remove(j);
            }
        }
    }

    /// A process mix exercising every plane transition: fan-out sends,
    /// mid-run halts (purges), self-messages (LIFO starvation), batched
    /// sends (drop candidates).
    struct Mixer {
        n: usize,
        received: usize,
    }

    impl Process<u32> for Mixer {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            for d in 0..self.n {
                if d != ctx.me() {
                    ctx.send(d, 1);
                }
            }
            if ctx.me() == 0 {
                ctx.send(0, 0); // self-feeder
            }
            ctx.set_will(ctx.me() as Action);
        }
        fn on_message(&mut self, src: ProcessId, m: u32, ctx: &mut Ctx<u32>) {
            self.received += 1;
            if src == ctx.me() && m < 40 {
                ctx.send(ctx.me(), m + 1);
            }
            if self.received == self.n {
                ctx.make_move(self.received as Action);
                ctx.halt();
            } else if self.received < 3 {
                ctx.send(src, 1); // echo once or twice
            }
        }
    }

    fn mixers(n: usize) -> Vec<Box<dyn Process<u32>>> {
        (0..n)
            .map(|_| Box::new(Mixer { n, received: 0 }) as Box<dyn Process<u32>>)
            .collect()
    }

    /// Runs the plane world and the spec world over the same processes,
    /// scheduler and seed and demands the same trace and outcome; returns
    /// the plane's counters so a test can check which regime it covered.
    fn assert_same_run(
        sched: impl Fn() -> Box<dyn Scheduler>,
        name: &str,
        seed: u64,
        drops: bool,
        mk: impl Fn() -> Vec<Box<dyn Process<u32>>>,
    ) -> WorldStats {
        let (plane, stats) = {
            let mut w = World::new(mk(), seed);
            if drops {
                w.allow_drops();
            }
            let out = w.run(sched().as_mut(), 50_000);
            (out, w.stats())
        };
        let spec = {
            let mut w = SpecWorld::new(mk(), seed);
            w.allow_drop = drops;
            w.run(sched().as_mut(), 50_000)
        };
        let label = format!("{name} seed {seed} drops {drops}");
        assert_eq!(plane.trace.events(), spec.trace.events(), "trace: {label}");
        assert_eq!(plane.moves, spec.moves, "moves: {label}");
        assert_eq!(plane.wills, spec.wills, "wills: {label}");
        assert_eq!(plane.halted, spec.halted, "halted: {label}");
        assert_eq!(plane.messages_sent, spec.messages_sent, "sent: {label}");
        assert_eq!(
            plane.messages_delivered, spec.messages_delivered,
            "delivered: {label}"
        );
        assert_eq!(plane.steps, spec.steps, "steps: {label}");
        assert_eq!(plane.termination, spec.termination, "termination: {label}");
        stats
    }

    #[test]
    fn plane_matches_spec_across_battery_and_seeds() {
        for kind in SchedulerKind::battery(5) {
            for seed in 0..32 {
                let name = format!("{kind:?}");
                assert_same_run(|| kind.build(), &name, seed, false, || mixers(5));
            }
        }
    }

    fn relaxed() -> Box<dyn Scheduler> {
        Box::new(RelaxedScheduler::new(vec![0], 6))
    }

    #[test]
    fn plane_matches_spec_under_relaxed_drops() {
        for seed in 0..32 {
            assert_same_run(relaxed, "relaxed", seed, true, || mixers(4));
        }
    }

    /// `mixers(24)` keeps several hundred events pending — a plane of
    /// hundreds of slots, where `mixers(4)` never holds more than a few
    /// dozen — and player 0, fed by its self-loop, halts (and purges) while
    /// it is full.
    #[test]
    fn plane_matches_spec_on_large_planes() {
        for kind in SchedulerKind::battery(24) {
            let name = format!("{kind:?}");
            for seed in 0..16 {
                let stats = assert_same_run(|| kind.build(), &name, seed, false, || mixers(24));
                assert!(
                    stats.pending_high_water > 256,
                    "{name} seed {seed}: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn plane_matches_spec_under_relaxed_drops_on_large_planes() {
        // Batch drops (back-to-front multi-pops) on the same large plane.
        for seed in 0..16 {
            let stats = assert_same_run(relaxed, "relaxed", seed, true, || mixers(24));
            assert!(stats.pending_high_water > 256, "seed {seed}: {stats:?}");
        }
    }

    /// Replays `recorded` in a fresh world and pins the full outcome —
    /// byte-identical trace included — against the recording.
    fn assert_replay_matches(
        recorded: &Outcome,
        seed: u64,
        label: &str,
        mk: impl Fn() -> Vec<Box<dyn Process<u32>>>,
    ) {
        use crate::scheduler::{ReplayScheduler, ReplayScript};
        let script = ReplayScript::new(recorded.trace.events().iter().collect());
        let mut w = World::new(mk(), seed);
        if script.has_drops() {
            w.allow_drops();
        }
        let replayed = w.run(&mut ReplayScheduler::new(script), 50_000);
        assert_eq!(
            replayed.trace.events(),
            recorded.trace.events(),
            "trace: {label}"
        );
        assert_eq!(replayed.moves, recorded.moves, "moves: {label}");
        assert_eq!(replayed.wills, recorded.wills, "wills: {label}");
        assert_eq!(replayed.halted, recorded.halted, "halted: {label}");
        // Step counts may differ by the trace-silent steps of the recording:
        // a message that started its destination leaves a stale start signal
        // behind, which the original run consumed in a step the trace cannot
        // show. Replay re-enacts only recorded events, so it either spends a
        // matching step on the leftover at script exhaustion or purges it
        // when the destination halts — never more steps than the recording,
        // and at most one silent step short per process.
        let n = recorded.halted.len() as u64;
        assert!(
            replayed.steps <= recorded.steps && recorded.steps - replayed.steps <= n,
            "steps: {label}: replay {} vs recorded {} (n = {n})",
            replayed.steps,
            recorded.steps
        );
        assert_eq!(
            replayed.termination, recorded.termination,
            "termination: {label}"
        );
    }

    #[test]
    fn replay_reproduces_battery_runs_exactly() {
        for kind in SchedulerKind::battery(5) {
            for seed in 0..32 {
                let recorded = {
                    let mut w = World::new(mixers(5), seed);
                    w.run(kind.build().as_mut(), 50_000)
                };
                let label = format!("{kind:?} seed {seed}");
                assert_replay_matches(&recorded, seed, &label, || mixers(5));
            }
        }
    }

    #[test]
    fn replay_reproduces_relaxed_drop_runs() {
        for seed in 0..32 {
            let recorded = {
                let mut w = World::new(mixers(4), seed);
                w.allow_drops();
                w.run(&mut RelaxedScheduler::new(vec![0], 6), 50_000)
            };
            assert_replay_matches(&recorded, seed, &format!("relaxed seed {seed}"), || {
                mixers(4)
            });
        }
    }
}
