//! The reactor: one thread, every connection, every hosted session.
//!
//! A single readiness loop owns all of it. Nothing below is reachable from
//! another thread, so nothing below is locked:
//!
//! * **Connections** are read one [`READ_CHUNK`] at a time into the loop's
//!   one read buffer, where each complete frame is acted on before the next
//!   read (so frames that came before a hangup are delivered); a connection
//!   keeps only a partial frame, which waits for its bytes (a stalled peer
//!   blocks no one). Its out-buffer is written at half a chunk and when a
//!   pass over the runnable sessions ends; a transport that pushes back is
//!   polled for writability.
//! * **Sessions** run as state machines ([`SessionSm`]): an inbound event
//!   is applied on arrival, and the ship → step → deliver → quiesce →
//!   vanish → block loop specified on [`SessionSm::run`] runs when a pass
//!   reaches the session, returning where a blocking design would wait;
//!   timeouts are timer entries.
//! * **Timers** live in a lazily-revalidated heap: idle deadlines are
//!   *updated* in place as events arrive and only re-pushed when a stale
//!   entry fires, so a session's thousands of frames cost one heap entry,
//!   not thousands. A finished session's entries are dropped once they
//!   outnumber the live ones, so the heap holds live sessions, not the
//!   last timeout's worth of hosted ones.
//! * **Commands** from [`Service`](crate::Service) callers arrive over a
//!   channel whose receiving end lives here. The session table (`sms`) is
//!   the only registry: a `Host` command for a live id is answered
//!   `SessionIdTaken` through the same result channel an outcome would
//!   use. Commands are drained each time `wait` returns, *before* that
//!   wake-up's I/O is dispatched, so a frame a client sent after `host`
//!   returned finds its session; an `Attach` that still overtakes its
//!   `Host` command (both landed inside one read) is parked, and the
//!   drain-then-sweep at the top of the next iteration resolves it before
//!   any grace timer can fire.
//!
//! The single-threaded interleaving is not a compromise — it is the
//! paper's §2 asynchronous model made literal: one adversarial scheduler
//! (the loop's dispatch order) choosing which session advances next,
//! constrained only by eventual delivery. See DESIGN.md §9.

use crate::auth::{PairKey, TamperKind};
use crate::frame::{
    peek_auth_session, seal_in_place, Frame, NetError, OutcomeSummary, RejectReason, SessionId,
    MAC_LEN, PREFIX_LEN,
};
use crate::readiness::{
    ConnIo, Event, Interest, NbListener, Poller, TryRead, TryWrite, Waker, ACCEPT_TOKEN,
};
use crate::service::{broadcast, ship, FlightState, Inbound, ServiceConfig};
use crate::transport::{FrameBuf, READ_CHUNK};
use crate::wire::Wire;
use mediator_sim::{Outcome, RunMeta, Session, SessionStatus, TraceSink};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token `Service` callers wake the reactor's command channel with.
/// (Connections are woken under their slab slot.)
pub(crate) const CMD_TOKEN: usize = usize::MAX - 1;

/// How long a draining reactor keeps trying to flush final frames to
/// peers that have stopped reading before giving up and exiting.
const DRAIN_FLUSH_CAP: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Reactor-hosted session state machine
// ---------------------------------------------------------------------------

/// One hosted session as a state machine: the routing table, the wire
/// accounting and the [`Session`] itself. Inbound events are applied on
/// arrival ([`SessionSm::enqueue`]); [`SessionSm::run`] advances the
/// session once per pass that finds it runnable.
struct SessionSm<M: Wire + Send> {
    sid: SessionId,
    /// World size: how many players must attach before the run starts.
    expected: usize,
    /// What the host knew about the run — handed to the [`TraceSink`]
    /// alongside the outcome. Plan-hosted sessions carry their `(kind,
    /// seed)` cell; closure-hosted sessions carry the routing id alone.
    meta: RunMeta,
    /// Per player, the connection attached as its relay.
    routes: Vec<Option<Route>>,
    session: Option<Session<M>>,
    flight: FlightState<M>,
    /// While the attach barrier is up, which world processes have a
    /// relay; `None` once the pump loop proper runs.
    attaching: Option<Vec<bool>>,
    result: Sender<Result<Outcome, NetError>>,
    sink: Option<Arc<dyn TraceSink>>,
    /// Rolls forward on every absorbed event; the heap entry is lazily
    /// revalidated against it.
    idle_deadline: Option<Instant>,
    idle_queued: bool,
    /// The session's id sits in the run queue.
    queued: bool,
}

impl<M: Wire + Send> SessionSm<M> {
    fn new(
        sid: SessionId,
        expected: usize,
        meta: RunMeta,
        session: Session<M>,
        result: Sender<Result<Outcome, NetError>>,
        cfg: &ServiceConfig,
    ) -> Self {
        SessionSm {
            sid,
            expected,
            meta,
            routes: vec![None; expected],
            session: Some(session),
            flight: FlightState::new(sid, expected, cfg.auth),
            attaching: Some(vec![false; expected]),
            result,
            sink: cfg.sink.clone(),
            idle_deadline: None,
            idle_queued: false,
            queued: false,
        }
    }

    /// Applies an inbound event (to the attach table while the barrier is
    /// up, through [`FlightState::absorb`] after it) and queues the session
    /// to run (once, however many events arrive before it runs). Every
    /// event restarts an armed idle window, to `idle`.
    fn enqueue(&mut self, ev: Inbound<M>, idle: Instant, runnable: &mut Vec<SessionId>) {
        match (&mut self.attaching, ev) {
            (Some(has), Inbound::Attached { player }) => has[player] = true,
            (Some(has), Inbound::PeerGone { player }) => has[player] = false,
            // Before the barrier falls nothing has been shipped, so an
            // early frame is a peer improvising: it is held, and delivered
            // in order.
            (_, ev) => self.flight.absorb(ev),
        }
        if self.idle_deadline.is_some() {
            self.idle_deadline = Some(idle);
        }
        if !self.queued {
            self.queued = true;
            runnable.push(self.sid);
        }
    }

    /// Claims `player`'s route for `route`, reporting the reject reason if
    /// the claim is impossible. Shared by the direct-attach and
    /// parked-attach paths so they cannot drift.
    fn claim(&mut self, player: usize, route: Route) -> Option<RejectReason> {
        match self.routes.get_mut(player) {
            None => Some(RejectReason::PlayerOutOfRange),
            Some(Some(_)) => Some(RejectReason::PlayerTaken),
            Some(vacant) => {
                *vacant = Some(route);
                None
            }
        }
    }

    /// True iff `player`'s frames currently go to `route`.
    fn routed_to(&self, player: usize, route: Route) -> bool {
        self.routes.get(player) == Some(&Some(route))
    }

    /// Finishes the session, handing the outcome to the configured sink —
    /// the single recording site, so a session is recorded exactly once
    /// no matter which arm of `run` ended it.
    fn finish_now(&mut self) -> Outcome {
        let session = self.session.take().expect("session present until finish");
        let outcome = session.finish();
        if let Some(sink) = &self.sink {
            sink.record(&self.meta, &outcome);
        }
        outcome
    }

    /// Runs until the session either blocks on the network (`None`) or
    /// reaches its result. First the tampering verdict and the attach
    /// barrier, then the numbered loop below — ship, step, deliver,
    /// quiesce, vanish, block — which is the specification of a networked
    /// run: the session's own termination verdict is trusted only at step
    /// 4, when the plane, the delivery buffer and the wire are all empty.
    /// Events arrive only between runs, so both checks hold for the whole
    /// loop.
    fn run(&mut self, conns: &mut Conns) -> Option<Result<Outcome, NetError>> {
        // A tampering verdict (parse-layer event or replay detection)
        // aborts the session with its typed owner.
        if let Some((conn, kind)) = self.flight.violation {
            return Some(Err(NetError::AuthFailure {
                session: self.sid,
                conn,
                kind,
            }));
        }
        // Attach barrier: every world process needs a relay before the
        // first message leaves the plane. (The attach-timeout timer owns
        // the deadline; blocking here is just "wait for more events".)
        if let Some(has) = &self.attaching {
            if has.contains(&false) {
                return None;
            }
            self.attaching = None;
        }
        loop {
            let session = self.session.as_mut().expect("session present until finish");
            // 1. Ship every freshly-sent message onto its network leg.
            for env in session.drain_outbox() {
                if let Err(e) = ship(&self.routes, conns, self.sid, env, &mut self.flight) {
                    return Some(Err(e));
                }
            }
            // 2. Dispatch local events (start signals stay on the plane).
            if session.pump_ready() {
                if session.wants() == mediator_sim::SessionWants::Finished {
                    // Mid-run Done can only be the budget guard:
                    // termination with events pending is
                    // BudgetExhausted by construction.
                    return Some(Ok(self.finish_now()));
                }
                continue;
            }
            // 3. Deliver the oldest held frame: arrival order.
            if let Some(env) = self.flight.held.pop_front() {
                if session.inject(env.src, env.dst, env.msg).progressed()
                    && session.step().is_done()
                {
                    return Some(Ok(self.finish_now())); // budget guard
                }
                continue;
            }
            // 4. Quiescence: plane drained, buffer empty, wire empty — the
            //    session's own verdict is now trustworthy.
            if self.flight.in_flight == 0 {
                return Some(match session.step() {
                    SessionStatus::Done(_) => Ok(self.finish_now()),
                    SessionStatus::Running => unreachable!("empty plane must terminate"),
                });
            }
            // 5. Traffic is in flight. A vanished relay is fatal only if
            //    its player still owes frames (otherwise a replacement may
            //    yet attach, and sends to it will fail loudly at `ship`).
            if let Some(player) = self.flight.fatal_gone() {
                return Some(Err(NetError::PeerVanished {
                    session: self.sid,
                    player,
                }));
            }
            // 6. Blocked for the network: the caller arms the idle timer,
            //    and the next event for this session re-enters at the top.
            return None;
        }
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

struct Conn {
    /// Stable reactor-assigned id (slots are recycled; ids are not) —
    /// names the culprit connection in [`NetError::AuthFailure`].
    id: u64,
    io: ConnIo,
    fd: Option<i32>,
    /// Encoded frames the transport has not taken yet; `out[..sent]` is
    /// already written. Appending never blocks on the network —
    /// backpressure is the buffer growing, which for this protocol is
    /// bounded by the sessions' own in-flight accounting.
    out: Vec<u8>,
    sent: usize,
    /// Unparsed inbound bytes (a partial frame lives here until complete).
    rbuf: FrameBuf,
    /// `(session, player)` routes this connection claimed.
    claimed: Vec<(SessionId, usize)>,
    /// The last write was pushed back (TCP: poll for writability) or
    /// failed (the pass's flush kills the connection): no mid-pass write.
    want_write: bool,
}

impl Conn {
    fn queue<M: Wire>(&mut self, frame: &Frame<M>) {
        frame.encode_framed(&mut self.out);
    }

    fn pending(&self) -> bool {
        self.sent < self.out.len()
    }

    /// Writes the out-buffer until it is empty or the transport pushes
    /// back (then `want_write` asks the loop to poll for writability).
    /// `false` means the connection died.
    fn flush(&mut self) -> bool {
        while self.pending() {
            match self.io.try_write(&self.out[self.sent..]) {
                TryWrite::Wrote(n) => self.sent += n,
                TryWrite::WouldBlock => {
                    self.want_write = true;
                    return true;
                }
                TryWrite::Err(_) => return false,
            }
        }
        self.out.clear();
        self.sent = 0;
        self.want_write = false;
        true
    }
}

/// Where a player's frames go: a slab slot plus the id of the connection
/// that claimed it, so a slot recycled by a later connection never
/// inherits the route.
pub(crate) type Route = (usize, u64);

/// The connection slab and the slots holding output no flush has tried
/// to write yet.
pub(crate) struct Conns {
    slab: Vec<Option<Conn>>,
    dirty: Vec<usize>,
}

impl Conns {
    fn live(&mut self, (slot, id): Route) -> Option<&mut Conn> {
        self.slab.get_mut(slot)?.as_mut().filter(|c| c.id == id)
    }

    /// Appends `frame` to the routed connection's out-buffer; the loop
    /// flushes it at the end of the current pass, and a buffer holding
    /// half a [`READ_CHUNK`] is written at once. With a `key`, the frame
    /// (encoded with a zero MAC) is sealed over the bytes just queued, so
    /// it is encoded once. Fails once the connection is gone — the signal
    /// `ship` turns into `PeerVanished`.
    pub(crate) fn send<M: Wire>(
        &mut self,
        route: Route,
        frame: &Frame<M>,
        key: Option<&PairKey>,
    ) -> Result<(), NetError> {
        let conn = self.live(route).ok_or(NetError::Disconnected)?;
        // A buffer with bytes pending is either queued for this pass's
        // flush already or waiting on writability.
        let newly_dirty = !conn.pending();
        let start = conn.out.len();
        conn.queue(frame);
        if let Some(key) = key {
            seal_in_place(&mut conn.out[start + PREFIX_LEN..], key);
        }
        // Written at half a chunk, so frames under half a chunk never grow
        // it past one; a push-back or failed write waits for the pass's end.
        if conn.out.len() >= READ_CHUNK / 2 && !conn.want_write && !conn.flush() {
            conn.want_write = true;
        }
        if newly_dirty {
            self.dirty.push(route.0);
        }
        Ok(())
    }
}

/// An `Attach` for a not-yet-hosted session, parked for the grace window
/// (the host/connect race smoother). The parked list is swept after every
/// command drain (wakeup-driven), and the grace timer rejects only if the
/// session truly never appeared.
struct Parked {
    session: SessionId,
    player: usize,
    conn: Route,
}

// ---------------------------------------------------------------------------
// Commands (caller thread → reactor)
// ---------------------------------------------------------------------------

/// What `Service` asks the reactor to do.
pub(crate) enum Command<M: Wire + Send> {
    /// Open and drive a session of `processes` players under `id`, unless
    /// that id is live. `open` runs on the reactor thread, so worlds need
    /// not be `Send`-friendly beyond the closure itself.
    Host {
        id: SessionId,
        processes: usize,
        meta: RunMeta,
        open: Box<dyn FnOnce() -> Session<M> + Send>,
        result: Sender<Result<Outcome, NetError>>,
    },
    /// Stop accepting; exit once every session has resolved and every
    /// final frame is flushed.
    Drain,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    /// A parked attach's grace window closed.
    AttachGrace {
        conn: Route,
        session: SessionId,
        player: usize,
    },
    /// A hosted session's attach barrier deadline.
    Attach { session: SessionId },
    /// A blocked session's idle deadline (lazily revalidated).
    Idle { session: SessionId },
}

// ---------------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------------

pub(crate) struct Reactor<M: Wire + Send + 'static> {
    cfg: ServiceConfig,
    listener: Box<dyn NbListener>,
    listener_fd: Option<i32>,
    poller: Poller,
    waker: Arc<Waker>,
    commands: Receiver<Command<M>>,
    conns: Conns,
    sms: HashMap<SessionId, SessionSm<M>>,
    parked: Vec<Parked>,
    timers: BinaryHeap<Reverse<(Instant, Timer)>>,
    draining: bool,
    drain_deadline: Option<Instant>,
    /// Every connection is read into this one buffer; see `conn_readable`.
    chunk: Vec<u8>,
    next_conn_id: u64,
    /// The loop's clock: read at the top of each iteration and again
    /// when `wait` returns, so one reading serves the timer pass and one
    /// serves every frame of every burst the wake-up delivers.
    now: Instant,
}

impl<M: Wire + Send + 'static> Reactor<M> {
    pub(crate) fn new(
        cfg: ServiceConfig,
        listener: Box<dyn NbListener>,
        poller: Poller,
        commands: Receiver<Command<M>>,
    ) -> Self {
        let waker = poller.waker();
        Reactor {
            cfg,
            listener,
            listener_fd: None,
            poller,
            waker,
            commands,
            conns: Conns {
                slab: Vec::new(),
                dirty: Vec::new(),
            },
            sms: HashMap::new(),
            parked: Vec::new(),
            timers: BinaryHeap::new(),
            draining: false,
            drain_deadline: None,
            chunk: vec![0u8; READ_CHUNK],
            next_conn_id: 0,
            now: Instant::now(),
        }
    }

    pub(crate) fn run(mut self) {
        self.listener_fd = self.listener.register(&self.waker);
        let mut events: Vec<Event> = Vec::new();
        let mut notified: Vec<usize> = Vec::new();
        let mut interests: Vec<Interest> = Vec::new();
        // The run queue: each session at most once (`SessionSm::queued`),
        // emptied by every `advance`.
        let mut runnable: Vec<SessionId> = Vec::new();

        loop {
            self.now = Instant::now();
            // Commands, then parked attaches, then timers: an attach
            // parked by the previous wake-up meets its session here
            // before its grace timer gets a chance to fire.
            self.process_commands(&mut runnable);
            self.sweep_parked(&mut runnable);
            self.fire_timers();
            self.advance(&mut runnable);

            if self.draining && self.sms.is_empty() {
                let flushed = self.conns.slab.iter().flatten().all(|c| !c.pending());
                let gave_up = self
                    .drain_deadline
                    .map(|d| Instant::now() >= d)
                    .unwrap_or(false);
                if flushed || gave_up {
                    break;
                }
            }

            interests.clear();
            if let Some(fd) = self.listener_fd {
                if !self.draining {
                    interests.push(Interest {
                        token: ACCEPT_TOKEN,
                        fd,
                        read: true,
                        write: false,
                    });
                }
            }
            for (slot, conn) in self.conns.slab.iter().enumerate() {
                if let Some(conn) = conn {
                    if let Some(fd) = conn.fd {
                        interests.push(Interest {
                            token: slot,
                            fd,
                            read: true,
                            write: conn.want_write,
                        });
                    }
                }
            }
            let timeout = self.next_deadline().map(|d| {
                d.saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1))
            });

            self.poller
                .wait(&interests, timeout, &mut events, &mut notified);
            self.now = Instant::now();
            // Before any I/O of this wake-up: whatever a caller hosted
            // before its client wrote is registered before the write is
            // read.
            self.process_commands(&mut runnable);

            for ev in events.drain(..) {
                if ev.token == ACCEPT_TOKEN {
                    self.accept_ready();
                    continue;
                }
                if ev.readable {
                    self.conn_readable(ev.token, &mut runnable);
                }
                if ev.writable {
                    self.conn_flush(ev.token, &mut runnable);
                }
            }
            for token in notified.drain(..) {
                match token {
                    ACCEPT_TOKEN => self.accept_ready(),
                    CMD_TOKEN => {} // drained when `wait` returned
                    slot => self.conn_readable(slot, &mut runnable),
                }
            }
            self.advance(&mut runnable);
        }
    }

    // -- commands -----------------------------------------------------------

    fn process_commands(&mut self, runnable: &mut Vec<SessionId>) {
        while let Ok(cmd) = self.commands.try_recv() {
            match cmd {
                Command::Host {
                    id,
                    processes,
                    meta,
                    open,
                    result,
                } => {
                    // Re-hosting a live id would orphan the running
                    // session's routes.
                    if self.sms.contains_key(&id) {
                        let _ = result.send(Err(NetError::SessionIdTaken { session: id }));
                        continue;
                    }
                    let mut sm = SessionSm::new(id, processes, meta, open(), result, &self.cfg);
                    self.timers.push(Reverse((
                        Instant::now() + self.cfg.attach_timeout,
                        Timer::Attach { session: id },
                    )));
                    sm.queued = true;
                    self.sms.insert(id, sm);
                    runnable.push(id);
                }
                Command::Drain => {
                    self.draining = true;
                    self.drain_deadline = Some(Instant::now() + DRAIN_FLUSH_CAP);
                    self.listener.close();
                    self.listener_fd = None;
                }
            }
        }
    }

    /// Re-tries parked attaches against the session table, so a session
    /// hosted mid-grace attaches on the wake-up its `Host` command caused
    /// instead of after a poll interval.
    fn sweep_parked(&mut self, runnable: &mut Vec<SessionId>) {
        let mut i = 0;
        while i < self.parked.len() {
            if self.sms.contains_key(&self.parked[i].session) {
                let p = self.parked.swap_remove(i);
                self.attach_player(p.session, p.player, p.conn, runnable);
            } else {
                i += 1;
            }
        }
    }

    // -- timers -------------------------------------------------------------

    fn next_deadline(&self) -> Option<Instant> {
        self.timers.peek().map(|Reverse((d, _))| *d)
    }

    fn fire_timers(&mut self) {
        let now = self.now;
        while let Some(Reverse((deadline, _))) = self.timers.peek() {
            if *deadline > now {
                break;
            }
            let Reverse((_, timer)) = self.timers.pop().expect("peeked");
            match timer {
                Timer::AttachGrace {
                    conn,
                    session,
                    player,
                } => {
                    let Some(i) = self
                        .parked
                        .iter()
                        .position(|p| p.conn == conn && p.session == session && p.player == player)
                    else {
                        continue; // already swept
                    };
                    // Still parked after this iteration's sweep: the
                    // session never appeared.
                    self.parked.swap_remove(i);
                    let _ = self.conns.send::<M>(
                        conn,
                        &Frame::Reject {
                            session,
                            reason: RejectReason::UnknownSession,
                        },
                        None,
                    );
                }
                Timer::Attach { session } => {
                    let still_attaching = self.sms.get(&session).and_then(|sm| {
                        let has = sm.attaching.as_ref()?;
                        Some((has.iter().filter(|&&a| a).count(), sm.expected))
                    });
                    if let Some((attached, expected)) = still_attaching {
                        self.finish_session(
                            session,
                            Err(NetError::AttachTimeout {
                                session,
                                attached,
                                expected,
                            }),
                        );
                    }
                }
                Timer::Idle { session } => {
                    let verdict = match self.sms.get_mut(&session) {
                        Some(sm) => match sm.idle_deadline {
                            Some(d) if d <= now => Some(sm.flight.in_flight),
                            Some(d) => {
                                // Stale: events pushed the deadline out.
                                self.timers.push(Reverse((d, Timer::Idle { session })));
                                None
                            }
                            None => {
                                sm.idle_queued = false;
                                None
                            }
                        },
                        None => None,
                    };
                    if let Some(in_flight) = verdict {
                        self.finish_session(
                            session,
                            Err(NetError::IdleTimeout { session, in_flight }),
                        );
                    }
                }
            }
        }
    }

    // -- session driving ----------------------------------------------------

    /// Runs every runnable session until it blocks or finishes, then
    /// flushes the out-buffers that pass wrote to. A failed flush kills
    /// its connection, which can make sessions runnable again (their relay
    /// is gone), so repeat until a pass leaves nothing to run.
    fn advance(&mut self, runnable: &mut Vec<SessionId>) {
        loop {
            // Running a session queues nothing; only the flush below can.
            for &sid in runnable.iter() {
                let Some(sm) = self.sms.get_mut(&sid) else {
                    continue;
                };
                sm.queued = false;
                match sm.run(&mut self.conns) {
                    Some(result) => self.finish_session(sid, result),
                    // Blocked. Arm (or roll) the idle deadline only in the
                    // running phase — attach has its own timer.
                    None if sm.attaching.is_none() => {
                        let d = Instant::now() + self.cfg.idle_timeout;
                        sm.idle_deadline = Some(d);
                        if !sm.idle_queued {
                            sm.idle_queued = true;
                            self.timers.push(Reverse((d, Timer::Idle { session: sid })));
                        }
                    }
                    None => {}
                }
            }
            runnable.clear();
            while let Some(slot) = self.conns.dirty.pop() {
                self.conn_flush(slot, runnable);
            }
            if runnable.is_empty() {
                break;
            }
        }
    }

    fn finish_session(&mut self, sid: SessionId, result: Result<Outcome, NetError>) {
        // Out of the table first: frames for a finished session are dead.
        let Some(sm) = self.sms.remove(&sid) else {
            return;
        };
        let frame = match &result {
            Ok(outcome) => Frame::Outcome {
                session: sid,
                summary: OutcomeSummary::from(outcome),
            },
            // A failed session will never yield an outcome: tell the
            // relays so none of them blocks forever.
            Err(_) => Frame::Abort { session: sid },
        };
        broadcast::<M>(&sm.routes, &mut self.conns, &frame);
        let _ = sm.result.send(result);
        // A finished session's attach and idle entries would wait out
        // their deadlines in the heap, so memory would grow with sessions
        // per second: drop them once they outnumber the live ones.
        if self.timers.len() > 4 * self.sms.len() + self.parked.len() + 64 {
            let sms = &self.sms;
            self.timers.retain(|Reverse((_, timer))| match timer {
                Timer::Attach { session } | Timer::Idle { session } => sms.contains_key(session),
                Timer::AttachGrace { .. } => true,
            });
        }
    }

    /// Queues an inbound event on its session, if that session is live.
    fn deliver(&mut self, sid: SessionId, ev: Inbound<M>, runnable: &mut Vec<SessionId>) {
        if let Some(sm) = self.sms.get_mut(&sid) {
            sm.enqueue(ev, self.now + self.cfg.idle_timeout, runnable);
        }
    }

    // -- accept / read / write ----------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.try_accept() {
                Ok(Some(io)) => self.add_conn(io),
                Ok(None) => break,
                Err(_) => {
                    self.listener_fd = None;
                    break;
                }
            }
        }
    }

    fn add_conn(&mut self, mut io: ConnIo) {
        let slab = &mut self.conns.slab;
        let slot = slab.iter().position(|c| c.is_none()).unwrap_or_else(|| {
            slab.push(None);
            slab.len() - 1
        });
        let fd = io.register(&self.waker, slot);
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        slab[slot] = Some(Conn {
            id,
            io,
            fd,
            out: Vec::new(),
            sent: 0,
            rbuf: FrameBuf::new(),
            claimed: Vec::new(),
            want_write: false,
        });
    }

    fn conn_readable(&mut self, slot: usize, runnable: &mut Vec<SessionId>) {
        let Some(mut conn) = self.conns.slab.get_mut(slot).and_then(|c| c.take()) else {
            return;
        };
        // See the module docs; the slow-loris test pins that a partial
        // frame stalls only its own connection. Both buffers are held
        // apart so the connection can queue answers while a body is read.
        let mut chunk = std::mem::take(&mut self.chunk);
        let mut rbuf = std::mem::take(&mut conn.rbuf);
        let mut dead = false;
        while !dead {
            let mut bytes = match conn.io.try_read(&mut chunk) {
                TryRead::Data(n) => &chunk[..n],
                TryRead::WouldBlock => break,
                TryRead::Eof | TryRead::Err(_) => {
                    dead = true;
                    break;
                }
            };
            let full = bytes.len() == READ_CHUNK;
            while !dead {
                let body = match rbuf.next_frame_from(&mut bytes) {
                    Ok(Some(framed)) => &framed[PREFIX_LEN..],
                    Ok(None) => break,
                    // An oversized announcement is corruption or hostility:
                    // cut the connection before buffering the claimed body.
                    Err(_) => {
                        dead = true;
                        break;
                    }
                };
                match Frame::<M>::decode_body(body) {
                    Ok(frame) => self.process_frame(&mut conn, slot, frame, body, runnable),
                    Err(_) => {
                        // Undecodable bytes. On an authenticated service a
                        // damaged frame that still names its session aborts
                        // that session alone (the relay is Byzantine, but
                        // its other sessions stay live); structurally
                        // anonymous garbage still kills the connection.
                        match self.cfg.auth.and_then(|_| peek_auth_session(body)) {
                            Some(session) => {
                                self.tampered(&mut conn, session, TamperKind::Truncated, runnable)
                            }
                            None => dead = true,
                        }
                    }
                }
            }
            if !full {
                break;
            }
        }
        self.chunk = chunk;
        conn.rbuf = rbuf;
        // Rejects the frames above earned go out with this wake-up.
        if !dead && conn.pending() {
            dead = !conn.flush();
        }
        if dead {
            self.kill_conn(slot, conn, runnable);
        } else {
            self.conns.slab[slot] = Some(conn);
        }
    }

    /// A tampering verdict for `session` on `conn`: tell the offending
    /// connection (typed `Reject`), then hand the violation to the
    /// session, which aborts with [`NetError::AuthFailure`]. The
    /// connection itself survives — its other sessions are unharmed.
    fn tampered(
        &mut self,
        conn: &mut Conn,
        session: SessionId,
        kind: TamperKind,
        runnable: &mut Vec<SessionId>,
    ) {
        conn.queue::<M>(&Frame::Reject {
            session,
            reason: RejectReason::TamperDetected,
        });
        self.deliver(
            session,
            Inbound::Tampered {
                conn: conn.id,
                kind,
            },
            runnable,
        );
    }

    /// Acts on one decoded frame; `body` is the bytes it was decoded from.
    fn process_frame(
        &mut self,
        conn: &mut Conn,
        slot: usize,
        frame: Frame<M>,
        body: &[u8],
        runnable: &mut Vec<SessionId>,
    ) {
        let route = (slot, conn.id);
        match frame {
            Frame::Attach { session, player } => match self.sms.get_mut(&session) {
                Some(sm) => match sm.claim(player, route) {
                    None => {
                        conn.claimed.push((session, player));
                        self.deliver(session, Inbound::Attached { player }, runnable);
                    }
                    Some(reason) => conn.queue::<M>(&Frame::Reject { session, reason }),
                },
                None => {
                    // Park for the grace window (the host/connect race).
                    self.parked.push(Parked {
                        session,
                        player,
                        conn: route,
                    });
                    self.timers.push(Reverse((
                        Instant::now() + self.cfg.attach_grace,
                        Timer::AttachGrace {
                            conn: route,
                            session,
                            player,
                        },
                    )));
                }
            },
            Frame::Msg {
                session,
                src,
                dst,
                msg,
                auth,
            } => {
                // One table lookup serves authentication, the range check
                // and queueing.
                let mut sm = self.sms.get_mut(&session);
                // Only `Msg` frames carry MACs: control frames either
                // originate here or precede any routing (a forged `Attach`
                // can only lose the race to the honest relay). A stripped
                // trailer is a downgrade. A session that finished or never
                // existed has no keys: the master key judges its frames,
                // so a forgery still earns its `Reject`.
                if let Some(master) = &self.cfg.auth {
                    let keys = sm.as_mut().and_then(|sm| sm.flight.auth.as_mut());
                    let authentic = auth.is_some_and(|tag| {
                        let prefix = &body[..body.len() - MAC_LEN];
                        match keys {
                            Some(keys) => keys.pair(src, dst).verify(prefix, tag.mac),
                            None => master.verify_msg(session, src, dst, prefix, tag.mac),
                        }
                        .is_authentic()
                    });
                    if !authentic {
                        let kind = match auth {
                            Some(_) => TamperKind::BadMac,
                            None => TamperKind::Downgrade,
                        };
                        return self.tampered(conn, session, kind, runnable);
                    }
                }
                // An authentic frame for an unknown session is a late echo
                // for a run that already finished: dead, by design.
                let Some(sm) = sm else {
                    return;
                };
                // Range-check before delivery: a hostile-but-well-formed
                // frame must never panic a hosted session.
                if src >= sm.expected || dst >= sm.expected {
                    conn.queue::<M>(&Frame::Reject {
                        session,
                        reason: RejectReason::PlayerOutOfRange,
                    });
                    return;
                }
                let ev = Inbound::Msg {
                    src,
                    dst,
                    msg,
                    // Only `dst`'s own relay can complete a shipped
                    // frame's network leg (see `Inbound::Msg`).
                    returned: sm.routed_to(dst, route),
                    seq: auth.map(|tag| tag.seq),
                    conn: conn.id,
                };
                sm.enqueue(ev, self.now + self.cfg.idle_timeout, runnable);
            }
            // `Outcome`/`Reject`/`Abort` only travel service → client;
            // shard lease frames belong to the shard coordinator plane,
            // not a session service. All are dead on arrival here.
            Frame::Outcome { .. }
            | Frame::Reject { .. }
            | Frame::Abort { .. }
            | Frame::ShardRequest { .. }
            | Frame::ShardGrant { .. }
            | Frame::ShardResult { .. }
            | Frame::ShardWitness { .. }
            | Frame::ShardDrain => {}
        }
    }

    /// Attaches `player` on a conn referenced by route (the parked-attach
    /// path, where the conn sits in the slab).
    fn attach_player(
        &mut self,
        sid: SessionId,
        player: usize,
        route: Route,
        runnable: &mut Vec<SessionId>,
    ) {
        let (Some(sm), Some(conn)) = (self.sms.get_mut(&sid), self.conns.live(route)) else {
            return; // the conn died while parked
        };
        match sm.claim(player, route) {
            None => {
                conn.claimed.push((sid, player));
                self.deliver(sid, Inbound::Attached { player }, runnable);
            }
            Some(reason) => {
                let _ = self.conns.send::<M>(
                    route,
                    &Frame::Reject {
                        session: sid,
                        reason,
                    },
                    None,
                );
            }
        }
    }

    fn conn_flush(&mut self, slot: usize, runnable: &mut Vec<SessionId>) {
        let Some(mut conn) = self.conns.slab.get_mut(slot).and_then(|c| c.take()) else {
            return;
        };
        if conn.flush() {
            self.conns.slab[slot] = Some(conn);
        } else {
            self.kill_conn(slot, conn, runnable);
        }
    }

    /// Tears a connection down: releases the routes it still holds
    /// (sessions then see `PeerVanished` at `ship`), tells each affected
    /// session its relay is gone, and frees the slot.
    fn kill_conn(&mut self, slot: usize, conn: Conn, runnable: &mut Vec<SessionId>) {
        let route = (slot, conn.id);
        for &(sid, player) in &conn.claimed {
            let Some(sm) = self.sms.get_mut(&sid) else {
                continue;
            };
            if sm.routed_to(player, route) {
                sm.routes[player] = None;
                self.deliver(sid, Inbound::PeerGone { player }, runnable);
            }
        }
        self.parked.retain(|p| p.conn != route);
        self.conns.slab[slot] = None;
    }
}
