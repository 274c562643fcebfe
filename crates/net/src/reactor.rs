//! The reactor: one thread, every connection, every hosted session.
//!
//! PR 5's service spent one reader thread per connection plus one pump
//! thread per session (~130 OS threads at 64 sessions, with wakeup and
//! handoff dominating the profile). The reactor replaces all of it with a
//! single readiness loop:
//!
//! * **Connections** own a read buffer (incremental frame parsing — a
//!   partial frame simply waits for more bytes, so a stalled peer cannot
//!   block anyone else) and a shared write buffer ([`ConnOut`]) that any
//!   thread may append frames to; the loop flushes it when the transport
//!   signals writable.
//! * **Sessions** run as state machines ([`SessionSm`]) executing exactly
//!   the threaded pump's ship → step → deliver → quiesce loop, but
//!   returning to the loop instead of blocking; timeouts become timer
//!   entries instead of `recv_timeout` calls.
//! * **Timers** live in a lazily-revalidated heap: idle deadlines are
//!   *updated* in place as events arrive and only re-pushed when a stale
//!   entry fires, so a session's thousands of frames cost one heap entry,
//!   not thousands.
//!
//! The single-threaded interleaving is not a compromise — it is the
//! paper's §2 asynchronous model made literal: one adversarial scheduler
//! (the loop's dispatch order) choosing which session advances next,
//! constrained only by eventual delivery. See DESIGN.md §9.

use crate::auth::TamperKind;
use crate::frame::{
    peek_auth_session, Frame, NetError, OutcomeSummary, RejectReason, SessionId, PREFIX_LEN,
};
use crate::readiness::{
    ConnIo, Event, Interest, NbListener, Poller, TryRead, TryWrite, Waker, ACCEPT_TOKEN,
};
use crate::service::{broadcast, finish_recorded, DeliveryOrder, ServiceConfig};
use crate::service::{ship, Driver, FlightState, Inbound, SessionEntry, Shared};
use crate::transport::FrameBuf;
use crate::wire::Wire;
use mediator_sim::{Outcome, Session, SessionStatus, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token the reactor's command queue (and registry changes) wake.
pub(crate) const CMD_TOKEN: usize = usize::MAX - 1;

/// How long a draining reactor keeps trying to flush final frames to
/// peers that have stopped reading before giving up and exiting.
const DRAIN_FLUSH_CAP: Duration = Duration::from_secs(5);

fn read_token(slot: usize) -> usize {
    slot * 2
}
fn write_token(slot: usize) -> usize {
    slot * 2 + 1
}

// ---------------------------------------------------------------------------
// Shared outbound buffer
// ---------------------------------------------------------------------------

struct OutBuf {
    bytes: Vec<u8>,
    sent: usize,
    closed: bool,
}

/// A connection's outbound side, shareable across threads: threaded pumps
/// and the reactor's own session machines append length-prefixed frames;
/// the reactor flushes when the transport can take them. Appending never
/// blocks on the network — backpressure is the buffer growing, which for
/// this protocol is bounded by the sessions' own in-flight accounting.
pub(crate) struct ConnOut {
    buf: Mutex<OutBuf>,
    waker: Arc<Waker>,
    token: usize,
}

impl ConnOut {
    fn new(waker: Arc<Waker>, token: usize) -> Self {
        ConnOut {
            buf: Mutex::new(OutBuf {
                bytes: Vec::new(),
                sent: 0,
                closed: false,
            }),
            waker,
            token,
        }
    }

    /// Encodes `frame` (length prefix included) into the buffer and wakes
    /// the reactor to flush. Fails once the connection is gone — exactly
    /// the signal `ship` turns into `PeerVanished`.
    pub(crate) fn send_frame<M: Wire>(&self, frame: &Frame<M>) -> Result<(), NetError> {
        {
            let mut b = self.buf.lock().expect("conn out poisoned");
            if b.closed {
                return Err(NetError::Disconnected);
            }
            frame.encode_framed(&mut b.bytes);
        }
        self.waker.wake(self.token);
        Ok(())
    }

    fn close(&self) {
        let mut b = self.buf.lock().expect("conn out poisoned");
        b.closed = true;
        b.bytes.clear();
        b.sent = 0;
    }

    fn is_idle(&self) -> bool {
        let b = self.buf.lock().expect("conn out poisoned");
        b.closed || b.sent == b.bytes.len()
    }
}

// ---------------------------------------------------------------------------
// Reactor-hosted session state machine
// ---------------------------------------------------------------------------

enum SmPhase {
    /// Waiting for every world process to have a relay.
    Attaching {
        attached: Vec<bool>,
        nattached: usize,
    },
    /// The pump loop proper.
    Running,
}

/// One hosted session as a state machine: the exact ship / step / deliver
/// / quiesce loop of the threaded `pump`, with every blocking receive
/// replaced by "return to the loop and wait for events".
pub(crate) struct SessionSm<M: Wire + Send> {
    sid: SessionId,
    entry: Arc<SessionEntry<M>>,
    session: Option<Session<M>>,
    flight: FlightState<M>,
    depth: usize,
    rng: Option<StdRng>,
    phase: SmPhase,
    queue: VecDeque<Inbound<M>>,
    result: Sender<Result<Outcome, NetError>>,
    /// The service-wide outcome recorder, cloned out of the config so the
    /// finish site needs no reach back into shared state.
    sink: Option<Arc<dyn TraceSink>>,
    /// Rolls forward on every absorbed event; the heap entry is lazily
    /// revalidated against it.
    idle_deadline: Option<Instant>,
    idle_queued: bool,
}

impl<M: Wire + Send> SessionSm<M> {
    fn new(
        sid: SessionId,
        session: Session<M>,
        entry: Arc<SessionEntry<M>>,
        result: Sender<Result<Outcome, NetError>>,
        cfg: &ServiceConfig,
    ) -> Self {
        let expected = entry.expected;
        let (depth, rng) = match cfg.delivery {
            DeliveryOrder::Arrival => (0usize, None),
            DeliveryOrder::Shuffled { seed, depth } => {
                (depth, Some(StdRng::seed_from_u64(seed ^ sid)))
            }
        };
        SessionSm {
            sid,
            entry,
            session: Some(session),
            flight: FlightState::new(expected, cfg.auth),
            depth,
            rng,
            phase: SmPhase::Attaching {
                attached: vec![false; expected],
                nattached: 0,
            },
            queue: VecDeque::new(),
            result,
            sink: cfg.sink.clone(),
            idle_deadline: None,
            idle_queued: false,
        }
    }

    fn finish_now(&mut self) -> Outcome {
        let session = self.session.take().expect("session present until finish");
        finish_recorded(session, self.sink.as_ref(), &self.entry.meta)
    }

    /// Runs until the session either blocks on the network (`None`) or
    /// reaches its result. Mirrors the threaded `pump` arm for arm; the
    /// parity and differential suites pin the correspondence.
    fn run(&mut self) -> Option<Result<Outcome, NetError>> {
        let expected = self.entry.expected;
        // Attach barrier: every world process needs a relay before the
        // first message leaves the plane. (The attach-timeout timer owns
        // the deadline; blocking here is just "wait for more events".)
        if let SmPhase::Attaching {
            attached,
            nattached,
        } = &mut self.phase
        {
            while let Some(ev) = self.queue.pop_front() {
                match ev {
                    Inbound::Attached { player } => {
                        if !attached[player] {
                            attached[player] = true;
                            *nattached += 1;
                        }
                    }
                    Inbound::PeerGone { player } => {
                        if attached[player] {
                            attached[player] = false;
                            *nattached -= 1;
                        }
                    }
                    // Nothing has been shipped yet, so any early frame is
                    // a peer improvising; hold it — it will be delivered
                    // in order.
                    ev @ (Inbound::Msg { .. } | Inbound::Tampered { .. }) => self.flight.absorb(ev),
                }
            }
            if let Some((conn, kind)) = self.flight.violation {
                return Some(Err(NetError::AuthFailure {
                    session: self.sid,
                    conn,
                    kind,
                }));
            }
            if *nattached != expected {
                return None;
            }
            self.phase = SmPhase::Running;
        }
        loop {
            // 0. A tampering verdict (parse-layer event or replay
            //    detection) aborts the session with its typed owner.
            if let Some((conn, kind)) = self.flight.violation {
                return Some(Err(NetError::AuthFailure {
                    session: self.sid,
                    conn,
                    kind,
                }));
            }
            let session = self.session.as_mut().expect("session present until finish");
            // 1. Ship every freshly-sent message onto its network leg.
            for env in session.drain_outbox() {
                if let Err(e) = ship(&self.entry, self.sid, env, &mut self.flight) {
                    return Some(Err(e));
                }
            }
            // 2. Dispatch local events (start signals stay on the plane).
            if session.pump_ready() {
                if session.wants() == mediator_sim::SessionWants::Finished {
                    // Mid-run Done can only be the budget guard.
                    return Some(Ok(self.finish_now()));
                }
                continue;
            }
            // 3. Absorb everything the network has already handed back.
            while let Some(ev) = self.queue.pop_front() {
                self.flight.absorb(ev);
            }
            if let Some((conn, kind)) = self.flight.violation {
                return Some(Err(NetError::AuthFailure {
                    session: self.sid,
                    conn,
                    kind,
                }));
            }
            // 4. Deliver one held frame — immediately under Arrival order,
            //    through the shuffle buffer otherwise (force-drained once
            //    nothing is left in flight, so the policy is always live).
            if !self.flight.held.is_empty()
                && (self.flight.held.len() > self.depth || self.flight.in_flight == 0)
            {
                let env = self.flight.release(self.rng.as_mut());
                if session.inject(env.src, env.dst, env.msg).progressed()
                    && session.step().is_done()
                {
                    return Some(Ok(self.finish_now())); // budget guard
                }
                continue;
            }
            // 5. Quiescence: plane drained, buffer empty, wire empty.
            if self.flight.in_flight == 0 {
                debug_assert!(self.flight.held.is_empty());
                return Some(match session.step() {
                    SessionStatus::Done(_) => Ok(self.finish_now()),
                    SessionStatus::Running => unreachable!("empty plane must terminate"),
                });
            }
            // 6. Traffic is in flight. A vanished relay is fatal only if
            //    its player still owes frames.
            if let Some(player) = self.flight.fatal_gone() {
                return Some(Err(NetError::PeerVanished {
                    session: self.sid,
                    player,
                }));
            }
            // 7. Blocked for the network: the caller arms the idle timer.
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
    out: Arc<ConnOut>,
    /// Unparsed inbound bytes (a partial frame lives here until complete).
    rbuf: FrameBuf,
    /// `(session, player)` routes this connection claimed.
    claimed: Vec<(SessionId, usize)>,
    /// TCP only: the last flush hit `WouldBlock`; poll for writability.
    want_write: bool,
}

/// An `Attach` for a not-yet-hosted session, parked for the grace window
/// (the host/connect race smoother). Replaces PR 5's 5 ms sleep-poll: the
/// parked list is swept on every host registration (wakeup-driven), and
/// the grace timer rejects only if the session truly never appeared.
struct Parked {
    session: SessionId,
    player: usize,
    conn: usize,
}

// ---------------------------------------------------------------------------
// Commands (caller thread → reactor)
// ---------------------------------------------------------------------------

/// What `Service` asks the reactor to do.
pub(crate) enum Command<M: Wire + Send> {
    /// Open and drive a session on the reactor (the entry is already in
    /// the shared registry; `open` runs on the reactor thread, so worlds
    /// need not be `Send`-friendly beyond the closure itself).
    Host {
        id: SessionId,
        entry: Arc<SessionEntry<M>>,
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
        conn: usize,
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
    shared: Arc<Shared<M>>,
    listener: Box<dyn NbListener>,
    listener_fd: Option<i32>,
    poller: Poller,
    waker: Arc<Waker>,
    commands: Arc<Mutex<VecDeque<Command<M>>>>,
    conns: Vec<Option<Conn>>,
    sms: HashMap<SessionId, SessionSm<M>>,
    /// Events for sessions registered but whose `Host` command has not
    /// been processed yet (the registry insert happens on the caller's
    /// thread, so an attach can beat the command here).
    staged: HashMap<SessionId, Vec<Inbound<M>>>,
    parked: Vec<Parked>,
    timers: BinaryHeap<Reverse<(Instant, Timer)>>,
    draining: bool,
    drain_deadline: Option<Instant>,
    scratch: Vec<u8>,
    next_conn_id: u64,
    /// The loop's clock: read at the top of each iteration and again
    /// when `wait` returns, so one reading serves the timer pass and one
    /// serves every frame of every burst the wake-up delivers.
    now: Instant,
}

impl<M: Wire + Send + 'static> Reactor<M> {
    pub(crate) fn new(
        shared: Arc<Shared<M>>,
        listener: Box<dyn NbListener>,
        poller: Poller,
        commands: Arc<Mutex<VecDeque<Command<M>>>>,
    ) -> Self {
        let waker = poller.waker();
        Reactor {
            shared,
            listener,
            listener_fd: None,
            poller,
            waker,
            commands,
            conns: Vec::new(),
            sms: HashMap::new(),
            staged: HashMap::new(),
            parked: Vec::new(),
            timers: BinaryHeap::new(),
            draining: false,
            drain_deadline: None,
            scratch: vec![0u8; 64 * 1024],
            next_conn_id: 0,
            now: Instant::now(),
        }
    }

    pub(crate) fn run(mut self) {
        self.listener_fd = self.listener.register(&self.waker);
        let mut events: Vec<Event> = Vec::new();
        let mut notified: Vec<usize> = Vec::new();
        let mut interests: Vec<Interest> = Vec::new();
        let mut runnable: HashSet<SessionId> = HashSet::new();

        loop {
            runnable.clear();
            self.now = Instant::now();
            self.process_commands(&mut runnable);
            self.sweep_parked(&mut runnable);
            self.fire_timers(&mut runnable);
            self.advance(&mut runnable);

            if self.draining && self.sms.is_empty() && self.quiet() {
                let flushed = self
                    .conns
                    .iter()
                    .flatten()
                    .all(|c| c.out.is_idle() && !c.want_write);
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
            for (slot, conn) in self.conns.iter().enumerate() {
                if let Some(conn) = conn {
                    if let Some(fd) = conn.fd {
                        interests.push(Interest {
                            token: read_token(slot),
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

            for ev in events.drain(..) {
                if ev.token == ACCEPT_TOKEN {
                    self.accept_ready(&mut runnable);
                    continue;
                }
                let slot = ev.token / 2;
                if ev.readable {
                    self.conn_readable(slot, &mut runnable);
                }
                if ev.writable {
                    self.conn_flush(slot, &mut runnable);
                }
            }
            for token in notified.drain(..) {
                match token {
                    ACCEPT_TOKEN => self.accept_ready(&mut runnable),
                    CMD_TOKEN => {} // commands drain at the top of the loop
                    t if t % 2 == 0 => self.conn_readable(t / 2, &mut runnable),
                    t => self.conn_flush(t / 2, &mut runnable),
                }
            }
            self.advance(&mut runnable);
        }
    }

    /// True when no threaded pump is still running (they hold the final
    /// frames the drain must flush).
    fn quiet(&self) -> bool {
        self.shared.live_pumps.load(Ordering::Acquire) == 0
            && self
                .shared
                .sessions
                .lock()
                .expect("sessions poisoned")
                .is_empty()
    }

    // -- commands / registry ------------------------------------------------

    fn process_commands(&mut self, runnable: &mut HashSet<SessionId>) {
        loop {
            let cmd = self.commands.lock().expect("commands poisoned").pop_front();
            match cmd {
                Some(Command::Host {
                    id,
                    entry,
                    open,
                    result,
                }) => {
                    let session = open().with_session_id(id);
                    let mut sm = SessionSm::new(id, session, entry, result, &self.shared.cfg);
                    if let Some(evs) = self.staged.remove(&id) {
                        sm.queue.extend(evs);
                    }
                    self.timers.push(Reverse((
                        Instant::now() + self.shared.cfg.attach_timeout,
                        Timer::Attach { session: id },
                    )));
                    self.sms.insert(id, sm);
                    runnable.insert(id);
                }
                Some(Command::Drain) => {
                    self.draining = true;
                    self.drain_deadline = Some(Instant::now() + DRAIN_FLUSH_CAP);
                    self.listener.close();
                    self.listener_fd = None;
                }
                None => break,
            }
        }
    }

    /// Re-tries parked attaches against the registry — woken by every
    /// `host` call, so a session registered mid-grace attaches immediately
    /// instead of after a poll interval.
    fn sweep_parked(&mut self, runnable: &mut HashSet<SessionId>) {
        let mut i = 0;
        while i < self.parked.len() {
            let sid = self.parked[i].session;
            if let Some(entry) = self.shared.lookup(sid) {
                let p = self.parked.swap_remove(i);
                self.attach_player(&entry, p.session, p.player, p.conn, runnable);
            } else {
                i += 1;
            }
        }
    }

    // -- timers -------------------------------------------------------------

    fn next_deadline(&self) -> Option<Instant> {
        self.timers.peek().map(|Reverse((d, _))| *d)
    }

    fn fire_timers(&mut self, runnable: &mut HashSet<SessionId>) {
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
                    let p = self.parked.swap_remove(i);
                    match self.shared.lookup(session) {
                        Some(entry) => {
                            self.attach_player(&entry, session, p.player, p.conn, runnable)
                        }
                        None => {
                            if let Some(conn) = self.conns.get(conn).and_then(|c| c.as_ref()) {
                                let _ = conn.out.send_frame::<M>(&Frame::Reject {
                                    session,
                                    reason: RejectReason::UnknownSession,
                                });
                            }
                        }
                    }
                }
                Timer::Attach { session } => {
                    let attach_failed = match self.sms.get(&session) {
                        Some(sm) => match &sm.phase {
                            SmPhase::Attaching { nattached, .. } => Some(*nattached),
                            SmPhase::Running => None,
                        },
                        None => None,
                    };
                    if let Some(attached) = attach_failed {
                        let expected = self
                            .sms
                            .get(&session)
                            .map(|sm| sm.entry.expected)
                            .unwrap_or(0);
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

    fn advance(&mut self, runnable: &mut HashSet<SessionId>) {
        if runnable.is_empty() {
            return;
        }
        let ids: Vec<SessionId> = runnable.drain().collect();
        for sid in ids {
            let outcome = match self.sms.get_mut(&sid) {
                Some(sm) => {
                    let outcome = sm.run();
                    if outcome.is_none() {
                        // Blocked. Arm (or roll) the idle deadline only in
                        // the running phase — attach has its own timer.
                        if matches!(sm.phase, SmPhase::Running) {
                            let d = Instant::now() + self.shared.cfg.idle_timeout;
                            sm.idle_deadline = Some(d);
                            if !sm.idle_queued {
                                sm.idle_queued = true;
                                self.timers.push(Reverse((d, Timer::Idle { session: sid })));
                            }
                        }
                    }
                    outcome
                }
                None => None,
            };
            if let Some(result) = outcome {
                self.finish_session(sid, result);
            }
        }
    }

    fn finish_session(&mut self, sid: SessionId, result: Result<Outcome, NetError>) {
        let Some(sm) = self.sms.remove(&sid) else {
            return;
        };
        // Unregister first: frames for a finished session are dead.
        // Identity-guarded — only this session's own entry may be removed.
        {
            let mut sessions = self.shared.sessions.lock().expect("sessions poisoned");
            if sessions
                .get(&sid)
                .map(|e| Arc::ptr_eq(e, &sm.entry))
                .unwrap_or(false)
            {
                sessions.remove(&sid);
            }
        }
        match &result {
            Ok(outcome) => broadcast(
                &sm.entry,
                &Frame::Outcome {
                    session: sid,
                    summary: OutcomeSummary::from(outcome),
                },
            ),
            // A failed session will never yield an outcome: tell the
            // relays so none of them blocks forever.
            Err(_) => broadcast(&sm.entry, &Frame::Abort { session: sid }),
        }
        let _ = sm.result.send(result);
        self.staged.remove(&sid);
    }

    /// Routes an inbound event to whatever drives the session.
    fn deliver(
        &mut self,
        entry: &SessionEntry<M>,
        sid: SessionId,
        ev: Inbound<M>,
        runnable: &mut HashSet<SessionId>,
    ) {
        match &entry.driver {
            Driver::Threaded(tx) => {
                let _ = tx.send(ev);
            }
            Driver::Reactor => {
                if let Some(sm) = self.sms.get_mut(&sid) {
                    sm.queue.push_back(ev);
                    // Every absorbed event restarts the idle window, the
                    // way `recv_timeout` restarted per received event.
                    if sm.idle_deadline.is_some() {
                        sm.idle_deadline = Some(self.now + self.shared.cfg.idle_timeout);
                    }
                    runnable.insert(sid);
                } else {
                    self.staged.entry(sid).or_default().push(ev);
                }
            }
        }
    }

    // -- accept / read / write ----------------------------------------------

    fn accept_ready(&mut self, _runnable: &mut HashSet<SessionId>) {
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
        let slot = self
            .conns
            .iter()
            .position(|c| c.is_none())
            .unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
        let fd = io.register(&self.waker, read_token(slot));
        let out = Arc::new(ConnOut::new(Arc::clone(&self.waker), write_token(slot)));
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.conns[slot] = Some(Conn {
            id,
            io,
            fd,
            out,
            rbuf: FrameBuf::new(),
            claimed: Vec::new(),
            want_write: false,
        });
    }

    fn conn_readable(&mut self, slot: usize, runnable: &mut HashSet<SessionId>) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(|c| c.take()) else {
            return;
        };
        let mut dead = false;
        loop {
            match conn.io.try_read(&mut self.scratch) {
                TryRead::Data(n) => {
                    conn.rbuf.extend(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        break;
                    }
                }
                TryRead::WouldBlock => break,
                TryRead::Eof | TryRead::Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        // Parse every complete frame; a trailing partial frame stays
        // buffered until its bytes arrive (one slow peer stalls only
        // itself — the slow-loris test pins this).
        while !dead {
            let body = match conn.rbuf.next_frame() {
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
                Ok(frame) => match self.vet_frame(&frame, body) {
                    None => self.process_frame(&mut conn, slot, frame, runnable),
                    Some(kind) => {
                        let session = match &frame {
                            Frame::Msg { session, .. } => *session,
                            _ => unreachable!("only Msg frames are vetted"),
                        };
                        self.tampered(&conn, session, kind, runnable);
                    }
                },
                Err(_) => {
                    // Undecodable bytes. On an authenticated service a
                    // damaged frame that still names its session aborts
                    // that session alone (the relay is Byzantine, but
                    // its other sessions stay live); structurally
                    // anonymous garbage still kills the connection.
                    match self.shared.cfg.auth.and_then(|_| peek_auth_session(body)) {
                        Some(session) => {
                            self.tampered(&conn, session, TamperKind::Truncated, runnable)
                        }
                        None => dead = true,
                    }
                }
            }
        }
        if dead {
            self.kill_conn(slot, conn, runnable);
        } else {
            self.conns[slot] = Some(conn);
        }
    }

    /// Authenticates a decoded frame against the service key, if one is
    /// configured. `None` = pass; `Some(kind)` = a violation to scope to
    /// the frame's session. Only `Msg` frames carry MACs: control frames
    /// either originate here (`Outcome`/`Reject`/`Abort` are ignored
    /// inbound) or precede any routing (`Attach` — a forged attach can
    /// only lose the race to the honest relay and collect a `Reject`).
    fn vet_frame(&self, frame: &Frame<M>, body: &[u8]) -> Option<TamperKind> {
        let key = self.shared.cfg.auth.as_ref()?;
        let Frame::Msg {
            session,
            src,
            dst,
            auth,
            ..
        } = frame
        else {
            return None;
        };
        match auth {
            Some(tag) => {
                let prefix = &body[..body.len() - 8];
                if key
                    .verify_msg(*session, *src, *dst, prefix, tag.mac)
                    .is_authentic()
                {
                    None
                } else {
                    Some(TamperKind::BadMac)
                }
            }
            // Downgrade rejection: an authenticated service refuses
            // version-1 `Msg` frames — stripping the MAC is a tamper.
            None => Some(TamperKind::Downgrade),
        }
    }

    /// A tampering verdict for `session` on `conn`: tell the offending
    /// connection (typed `Reject`), then hand the violation to whatever
    /// drives the session, which aborts it with [`NetError::AuthFailure`].
    /// The connection itself survives — its other sessions are unharmed.
    fn tampered(
        &mut self,
        conn: &Conn,
        session: SessionId,
        kind: TamperKind,
        runnable: &mut HashSet<SessionId>,
    ) {
        let _ = conn.out.send_frame::<M>(&Frame::Reject {
            session,
            reason: RejectReason::TamperDetected,
        });
        if let Some(entry) = self.shared.lookup(session) {
            self.deliver(
                &entry,
                session,
                Inbound::Tampered {
                    conn: conn.id,
                    kind,
                },
                runnable,
            );
        }
    }

    fn process_frame(
        &mut self,
        conn: &mut Conn,
        slot: usize,
        frame: Frame<M>,
        runnable: &mut HashSet<SessionId>,
    ) {
        match frame {
            Frame::Attach { session, player } => match self.shared.lookup(session) {
                Some(entry) => {
                    match claim_route(&entry, player, &conn.out) {
                        None => {
                            conn.claimed.push((session, player));
                            self.deliver(&entry, session, Inbound::Attached { player }, runnable);
                        }
                        Some(reason) => {
                            let _ = conn.out.send_frame::<M>(&Frame::Reject { session, reason });
                        }
                    };
                }
                None => {
                    // Park for the grace window (the host/connect race).
                    self.parked.push(Parked {
                        session,
                        player,
                        conn: slot,
                    });
                    self.timers.push(Reverse((
                        Instant::now() + self.shared.cfg.attach_grace,
                        Timer::AttachGrace {
                            conn: slot,
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
                // A frame for an unknown session is a late echo for a run
                // that already finished: dead, by design.
                if let Some(entry) = self.shared.lookup(session) {
                    // Range-check before delivery: a hostile-but-well-
                    // formed frame must never panic a hosted session.
                    if src >= entry.expected || dst >= entry.expected {
                        let _ = conn.out.send_frame::<M>(&Frame::Reject {
                            session,
                            reason: RejectReason::PlayerOutOfRange,
                        });
                    } else {
                        // Only `dst`'s own relay can complete a shipped
                        // frame's network leg (see `Inbound::Msg`).
                        let returned = entry
                            .routes
                            .lock()
                            .expect("routes poisoned")
                            .get(&dst)
                            .map(|r| Arc::ptr_eq(r, &conn.out))
                            .unwrap_or(false);
                        self.deliver(
                            &entry,
                            session,
                            Inbound::Msg {
                                src,
                                dst,
                                msg,
                                returned,
                                seq: auth.map(|tag| tag.seq),
                                conn: conn.id,
                            },
                            runnable,
                        );
                    }
                }
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

    /// Attaches `player` on a conn referenced by slot (the parked-attach
    /// path, where the conn sits in the slab).
    fn attach_player(
        &mut self,
        entry: &Arc<SessionEntry<M>>,
        sid: SessionId,
        player: usize,
        slot: usize,
        runnable: &mut HashSet<SessionId>,
    ) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return; // the conn died while parked
        };
        match claim_route(entry, player, &conn.out) {
            None => {
                conn.claimed.push((sid, player));
                self.deliver(entry, sid, Inbound::Attached { player }, runnable);
            }
            Some(reason) => {
                let _ = conn.out.send_frame::<M>(&Frame::Reject {
                    session: sid,
                    reason,
                });
            }
        }
    }

    fn conn_flush(&mut self, slot: usize, runnable: &mut HashSet<SessionId>) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(|c| c.take()) else {
            return;
        };
        let mut dead = false;
        {
            let mut b = conn.out.buf.lock().expect("conn out poisoned");
            while b.sent < b.bytes.len() {
                match conn.io.try_write(&b.bytes[b.sent..]) {
                    TryWrite::Wrote(n) => b.sent += n,
                    TryWrite::WouldBlock => break,
                    TryWrite::Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if b.sent == b.bytes.len() {
                b.bytes.clear();
                b.sent = 0;
                conn.want_write = false;
            } else if !dead {
                conn.want_write = true;
            }
        }
        if dead {
            self.kill_conn(slot, conn, runnable);
        } else {
            self.conns[slot] = Some(conn);
        }
    }

    /// Tears a connection down: closes the shared out-buffer (pumps then
    /// see `PeerVanished` at `ship`), releases claimed routes, and tells
    /// each affected session its relay is gone.
    fn kill_conn(&mut self, slot: usize, mut conn: Conn, runnable: &mut HashSet<SessionId>) {
        conn.out.close();
        for (sid, player) in std::mem::take(&mut conn.claimed) {
            if let Some(entry) = self.shared.lookup(sid) {
                let mine = {
                    let mut routes = entry.routes.lock().expect("routes poisoned");
                    let mine = routes
                        .get(&player)
                        .map(|r| Arc::ptr_eq(r, &conn.out))
                        .unwrap_or(false);
                    if mine {
                        routes.remove(&player);
                    }
                    mine
                };
                if mine {
                    self.deliver(&entry, sid, Inbound::PeerGone { player }, runnable);
                }
            }
        }
        self.parked.retain(|p| p.conn != slot);
        self.conns[slot] = None;
    }
}

/// Claims `(player → out)` in the entry's route table, reporting the
/// reject reason if the claim is impossible. Shared by the direct-attach
/// and parked-attach paths so they cannot drift.
fn claim_route<M>(
    entry: &SessionEntry<M>,
    player: usize,
    out: &Arc<ConnOut>,
) -> Option<RejectReason> {
    if player >= entry.expected {
        return Some(RejectReason::PlayerOutOfRange);
    }
    let mut routes = entry.routes.lock().expect("routes poisoned");
    match routes.entry(player) {
        std::collections::hash_map::Entry::Vacant(v) => {
            v.insert(Arc::clone(out));
            None
        }
        std::collections::hash_map::Entry::Occupied(_) => Some(RejectReason::PlayerTaken),
    }
}
