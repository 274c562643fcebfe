//! The multi-session service runtime over the [`Session`] seam.
//!
//! A [`Service`] accepts connections on an [`NbListener`] and hosts any
//! number of concurrent [`Session`]s — all of it driven by **one reactor
//! thread** (see the `reactor` module):
//!
//! ```text
//!             ┌────────────────────── Service ─────────────────────────┐
//!   accept ──▶│            one reactor thread (readiness loop):        │
//!             │  conn read buffers ──frames──▶ per-session event queue │
//!             │                                       │                │
//!             │  session state machines:              ▼                │
//!             │    drain_outbox ──▶ conn write buffers (flushed when   │
//!             │    inbound Msg  ──▶ inject + step      writable)       │
//!             │    plane empty ∧ nothing in flight ──▶ finish()        │
//!             └────────────────────────────────────────────────────────┘
//! ```
//!
//! **The network is the scheduler.** In-process, a scheduler picks which
//! pending event is delivered next. Networked, every sent message is
//! drained off the plane, shipped to the relay connection attached for its
//! destination, and re-injected when the wire hands it back — so delivery
//! order is whatever order the network returns frames in (TCP interleaving
//! across connections, the reactor's dispatch order, or the service's own
//! [`DeliveryOrder::Shuffled`] buffer). That is *exactly* an adversarial
//! scheduler in the paper's §2 model: a message-pattern-visible adversary
//! choosing delivery order, constrained to eventual delivery. The paper's
//! theorems therefore transfer: a networked run yields the same outcome
//! *kinds* as the in-process runs — not the same byte-identical trace,
//! which no theorem promises (see DESIGN.md §9 and the parity suite).
//!
//! Quiescence detection is the pump's half of the bargain: the session has
//! terminated only when the local plane is drained **and** no shipped
//! frame is still on the wire (`in_flight == 0`) **and** the delivery
//! buffer is empty. Only then is the [`Session`]'s own termination verdict
//! (quiescent / deadlocked / budget-exhausted) trustworthy.
//!
//! [`Service::host`] drives the session on the reactor; the PR 5
//! thread-per-session engine survives as [`Service::host_threaded`], kept
//! deliberately so the differential suite can run the same plans through
//! both drivers and pin outcome-kind and failure-owner agreement.

use crate::auth::{AuthKey, AuthTag, TamperKind};
use crate::client::Client;
use crate::frame::{Frame, NetError, OutcomeSummary, SessionId};
use crate::reactor::{Command, ConnOut, Reactor, CMD_TOKEN};
use crate::readiness::{NbListener, Poller, Waker};
use crate::transport::{ConnPair, MemTransport, TcpTransport};
use crate::wire::Wire;
use mediator_core::scenario::SessionPlan;
use mediator_sim::SchedulerKind;
use mediator_sim::{Envelope, Outcome, RunMeta, Session, SessionStatus, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How a session pump turns frame arrivals into deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOrder {
    /// Deliver in arrival order (the network's own interleaving — already
    /// a nondeterministic schedule across connections).
    Arrival,
    /// Hold up to `depth` arrived frames and release them in seeded-random
    /// order — the paper's adversarial scheduler made literal, layered on
    /// top of whatever reordering the transport itself produced. Always
    /// live: the buffer force-drains whenever nothing is left in flight.
    Shuffled {
        /// RNG seed (XORed with the session id, so concurrent sessions
        /// shuffle independently).
        seed: u64,
        /// Maximum frames held back at once.
        depth: usize,
    },
}

/// Tunables for a [`Service`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// How long a pump waits for in-flight frames before declaring the
    /// network dead ([`NetError::IdleTimeout`]).
    pub idle_timeout: Duration,
    /// How long a hosted session waits for all players to attach.
    pub attach_timeout: Duration,
    /// How long an `Attach` naming a not-yet-hosted session is parked
    /// before rejecting (smooths the host/connect race; wakeup-driven,
    /// so a host arriving mid-grace attaches immediately).
    pub attach_grace: Duration,
    /// The pump's delivery policy.
    pub delivery: DeliveryOrder,
    /// When set, every shipped `Msg` frame is sealed with a per-pair MAC
    /// under this master key and verified on return (see the `auth`
    /// module): tampered, replayed, stripped, or truncated frames abort
    /// the affected session with [`NetError::AuthFailure`] instead of
    /// corrupting the run. `None` (the default) trusts relays, as the
    /// plane did before authenticated frames existed.
    pub auth: Option<AuthKey>,
    /// When set, every session that reaches an [`Outcome`] is handed to
    /// this sink exactly once, by whichever driver completed it (the
    /// reactor thread or a pump thread — sinks must be `Sync`). Failed
    /// sessions produce no outcome and are not recorded. Plan-hosted
    /// sessions ([`Service::host_plan`]) record their `(kind, seed)` cell
    /// so a store-backed sink can replay them; closure-hosted sessions
    /// record routing metadata only.
    pub sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("idle_timeout", &self.idle_timeout)
            .field("attach_timeout", &self.attach_timeout)
            .field("attach_grace", &self.attach_grace)
            .field("delivery", &self.delivery)
            .field("auth", &self.auth)
            .field("sink", &self.sink.as_ref().map(|_| "dyn TraceSink"))
            .finish()
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            idle_timeout: Duration::from_secs(30),
            attach_timeout: Duration::from_secs(30),
            attach_grace: Duration::from_secs(5),
            delivery: DeliveryOrder::Arrival,
            auth: None,
            sink: None,
        }
    }
}

impl ServiceConfig {
    /// This config with authenticated frames enabled under `key`.
    pub fn with_auth(mut self, key: AuthKey) -> Self {
        self.auth = Some(key);
        self
    }

    /// This config recording every completed session's outcome to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// What the reactor feeds a session driver.
pub(crate) enum Inbound<M> {
    /// A relay attached for `player`.
    Attached { player: usize },
    /// A frame arrived for `dst`. `returned` is true iff it came in on
    /// the connection attached as `dst`'s relay — only such a frame
    /// completes a shipped frame's network leg; anything else is an
    /// improvised (byzantine-network) injection that must not touch the
    /// in-flight accounting, or quiescence could be forged.
    Msg {
        src: usize,
        dst: usize,
        msg: M,
        returned: bool,
        /// The authenticated sequence number, when the frame carried a
        /// verified MAC. The in-flight accounting checks it off against
        /// the outstanding set: a consumed number is a replay.
        seq: Option<u64>,
        /// Reactor-assigned id of the connection the frame arrived on
        /// (names the culprit in [`NetError::AuthFailure`]).
        conn: u64,
    },
    /// The relay for `player` disconnected.
    PeerGone { player: usize },
    /// The parse layer caught tampering on an authenticated frame for
    /// this session (bad MAC, stripped trailer, or truncated body). The
    /// driver turns it into [`NetError::AuthFailure`] — session-fatal,
    /// connection-preserving.
    Tampered { conn: u64, kind: TamperKind },
}

/// What drives a hosted session: the reactor's state machine, or a
/// dedicated pump thread (the PR 5 engine, kept for differential runs).
pub(crate) enum Driver<M> {
    Threaded(Sender<Inbound<M>>),
    Reactor,
}

/// Per-hosted-session routing state, shared between the reactor (which
/// fills it as relays attach) and whatever drives the session (which
/// ships through it).
pub(crate) struct SessionEntry<M> {
    pub(crate) driver: Driver<M>,
    pub(crate) routes: Mutex<HashMap<usize, Arc<ConnOut>>>,
    pub(crate) expected: usize,
    /// What the driver knew about the run at host time — handed to the
    /// configured [`TraceSink`] alongside the outcome. Plan-hosted
    /// sessions carry their `(kind, seed)` cell; closure-hosted sessions
    /// carry the routing id alone.
    pub(crate) meta: RunMeta,
}

pub(crate) struct Shared<M> {
    pub(crate) sessions: Mutex<HashMap<SessionId, Arc<SessionEntry<M>>>>,
    pub(crate) cfg: ServiceConfig,
    /// Threaded pumps still running (the reactor drains only once this
    /// hits zero *and* their final frames are flushed).
    pub(crate) live_pumps: AtomicUsize,
}

impl<M> Shared<M> {
    pub(crate) fn lookup(&self, id: SessionId) -> Option<Arc<SessionEntry<M>>> {
        self.sessions
            .lock()
            .expect("sessions poisoned")
            .get(&id)
            .cloned()
    }
}

/// A ticket for a hosted session's result.
pub struct SessionHandle {
    id: SessionId,
    rx: Receiver<Result<Outcome, NetError>>,
}

impl SessionHandle {
    /// The hosted session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Blocks until the session finishes and yields the networked
    /// [`Outcome`] (or the transport failure that ended the run).
    pub fn outcome(self) -> Result<Outcome, NetError> {
        self.rx.recv().unwrap_or(Err(NetError::ServiceGone))
    }
}

/// A networked multi-session runtime: one reactor thread servicing every
/// connection and every hosted session (thousands of concurrent sessions
/// on one core — see the `service_*` BENCH entries).
pub struct Service<M: Wire + Send + 'static> {
    shared: Arc<Shared<M>>,
    commands: Arc<Mutex<VecDeque<Command<M>>>>,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
}

impl<M: Wire + Send + 'static> Service<M> {
    /// Starts a service over `listener` with default tunables.
    pub fn start(listener: Box<dyn NbListener>) -> Self {
        Self::with_config(listener, ServiceConfig::default())
    }

    /// Starts a service with explicit tunables.
    pub fn with_config(listener: Box<dyn NbListener>, cfg: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            sessions: Mutex::new(HashMap::new()),
            cfg,
            live_pumps: AtomicUsize::new(0),
        });
        let commands: Arc<Mutex<VecDeque<Command<M>>>> = Arc::new(Mutex::new(VecDeque::new()));
        let poller = Poller::new().expect("reactor poller");
        let waker = poller.waker();
        // The `Reactor` is built *inside* the thread: hosted `Session`s
        // (and the processes within) are created and consumed there, so
        // they never cross a thread boundary and need not be `Send`.
        let reactor_shared = Arc::clone(&shared);
        let reactor_commands = Arc::clone(&commands);
        let handle = thread::Builder::new()
            .name("mediator-reactor".into())
            .spawn(move || Reactor::new(reactor_shared, listener, poller, reactor_commands).run())
            .expect("spawn reactor");
        Service {
            shared,
            commands,
            waker,
            reactor: Some(handle),
        }
    }

    /// Hosts a session under `id`, driven by the reactor's event loop (no
    /// dedicated thread). `open` runs *on the reactor thread* (processes
    /// need not be `Send` — the same rule the batch runner follows), which
    /// is why the world size (`processes`) travels separately: routing
    /// must know how many players have to attach before the run starts.
    /// Returns immediately; the session waits for all `processes` relays,
    /// runs the networked game, and delivers the result through the
    /// [`SessionHandle`].
    pub fn host(
        &self,
        id: SessionId,
        processes: usize,
        open: impl FnOnce() -> Session<M> + Send + 'static,
    ) -> SessionHandle {
        self.host_with_meta(id, processes, open, RunMeta::bare(id))
    }

    fn host_with_meta(
        &self,
        id: SessionId,
        processes: usize,
        open: impl FnOnce() -> Session<M> + Send + 'static,
        meta: RunMeta,
    ) -> SessionHandle {
        let (result_tx, result_rx) = mpsc::channel();
        let entry = Arc::new(SessionEntry {
            driver: Driver::Reactor,
            routes: Mutex::new(HashMap::new()),
            expected: processes,
            meta,
        });
        if !self.register(id, &entry, &result_tx) {
            return SessionHandle { id, rx: result_rx };
        }
        self.commands
            .lock()
            .expect("commands poisoned")
            .push_back(Command::Host {
                id,
                entry,
                open: Box::new(open),
                result: result_tx,
            });
        self.waker.wake(CMD_TOKEN);
        SessionHandle { id, rx: result_rx }
    }

    /// Hosts a session on a dedicated pump thread — the PR 5 engine,
    /// kept so the differential suite can pin reactor/threaded agreement
    /// on outcome kinds and failure owners. Same contract as
    /// [`Service::host`].
    pub fn host_threaded(
        &self,
        id: SessionId,
        processes: usize,
        open: impl FnOnce() -> Session<M> + Send + 'static,
    ) -> SessionHandle {
        self.host_threaded_with_meta(id, processes, open, RunMeta::bare(id))
    }

    fn host_threaded_with_meta(
        &self,
        id: SessionId,
        processes: usize,
        open: impl FnOnce() -> Session<M> + Send + 'static,
        meta: RunMeta,
    ) -> SessionHandle {
        let (result_tx, result_rx) = mpsc::channel();
        let (inbox_tx, inbox_rx) = mpsc::channel();
        let entry = Arc::new(SessionEntry {
            driver: Driver::Threaded(inbox_tx),
            routes: Mutex::new(HashMap::new()),
            expected: processes,
            meta,
        });
        if !self.register(id, &entry, &result_tx) {
            return SessionHandle { id, rx: result_rx };
        }
        self.shared.live_pumps.fetch_add(1, Ordering::AcqRel);
        let shared = Arc::clone(&self.shared);
        let waker = Arc::clone(&self.waker);
        thread::spawn(move || {
            let cfg = shared.cfg.clone();
            let result = pump(id, open().with_session_id(id), &entry, inbox_rx, &cfg);
            // Unregister first: frames for a finished session are dead.
            // Guarded by identity (belt to the duplicate-id braces in
            // `register`): only this pump's own entry may be removed.
            {
                let mut sessions = shared.sessions.lock().expect("sessions poisoned");
                if sessions
                    .get(&id)
                    .map(|e| Arc::ptr_eq(e, &entry))
                    .unwrap_or(false)
                {
                    sessions.remove(&id);
                }
            }
            match &result {
                Ok(outcome) => {
                    broadcast(
                        &entry,
                        &Frame::Outcome {
                            session: id,
                            summary: OutcomeSummary::from(outcome),
                        },
                    );
                }
                // A failed session will never yield an outcome: tell the
                // relays so none of them blocks forever.
                Err(_) => broadcast(&entry, &Frame::Abort { session: id }),
            }
            let _ = result_tx.send(result);
            // The decrement is last: the reactor must not drain while
            // this pump's final frames are still unqueued.
            shared.live_pumps.fetch_sub(1, Ordering::AcqRel);
            waker.wake(CMD_TOKEN);
        });
        // Wake the reactor so attaches parked for this id resolve now.
        self.waker.wake(CMD_TOKEN);
        SessionHandle { id, rx: result_rx }
    }

    /// Registers `entry` under `id`, refusing to clobber a live session
    /// (re-registering an id would orphan the running driver's routes).
    /// Wakes the reactor so parked attaches for `id` resolve immediately.
    fn register(
        &self,
        id: SessionId,
        entry: &Arc<SessionEntry<M>>,
        result_tx: &Sender<Result<Outcome, NetError>>,
    ) -> bool {
        let mut sessions = self.shared.sessions.lock().expect("sessions poisoned");
        if sessions.contains_key(&id) {
            let _ = result_tx.send(Err(NetError::SessionIdTaken { session: id }));
            return false;
        }
        sessions.insert(id, Arc::clone(entry));
        true
    }

    /// Hosts one `(scheduler, seed)` cell of `plan` under `id` — the
    /// networked mirror of `plan.session_with(kind, seed)`.
    pub fn host_plan<P>(
        &self,
        id: SessionId,
        plan: &P,
        kind: SchedulerKind,
        seed: u64,
    ) -> SessionHandle
    where
        P: SessionPlan<Msg = M>,
    {
        let plan = plan.clone();
        let meta = RunMeta::cell(id, kind.clone(), seed);
        self.host_with_meta(
            id,
            plan.processes(),
            move || plan.open_session(&kind, seed),
            meta,
        )
    }

    /// [`Service::host_plan`] on the thread-per-session engine — the cell
    /// metadata travels with the session either way, so a store-backed
    /// sink records replayable headers under both drivers (the
    /// differential replay suite leans on this).
    pub fn host_plan_threaded<P>(
        &self,
        id: SessionId,
        plan: &P,
        kind: SchedulerKind,
        seed: u64,
    ) -> SessionHandle
    where
        P: SessionPlan<Msg = M>,
    {
        let plan = plan.clone();
        let meta = RunMeta::cell(id, kind.clone(), seed);
        self.host_threaded_with_meta(
            id,
            plan.processes(),
            move || plan.open_session(&kind, seed),
            meta,
        )
    }

    /// The batch entry: hosts every `(id, scheduler, seed)` cell of `plan`
    /// concurrently — all sessions live at once on the reactor, frames
    /// multiplexed by `(session-id, player-id)` — and blocks until every
    /// session has an outcome. All cells are registered before this call
    /// blocks, so relay clients may attach at any point (including before
    /// the call, thanks to the attach grace window).
    pub fn run_many<P>(
        &self,
        plan: &P,
        cells: impl IntoIterator<Item = (SessionId, SchedulerKind, u64)>,
    ) -> Vec<(SessionId, Result<Outcome, NetError>)>
    where
        P: SessionPlan<Msg = M>,
    {
        let handles: Vec<SessionHandle> = cells
            .into_iter()
            .map(|(id, kind, seed)| self.host_plan(id, plan, kind, seed))
            .collect();
        handles.into_iter().map(|h| (h.id(), h.outcome())).collect()
    }

    /// Stops accepting connections and waits for the reactor to drain:
    /// hosted sessions run to their outcomes and final frames are flushed
    /// before this returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.reactor.take() {
            self.commands
                .lock()
                .expect("commands poisoned")
                .push_back(Command::Drain);
            self.waker.wake(CMD_TOKEN);
            let _ = handle.join();
        }
    }
}

impl<M: Wire + Send + 'static> Drop for Service<M> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Ships one drained envelope to its destination's relay, recording it in
/// the flight accounting and — under an authenticated config — assigning
/// a fresh sequence number and sealing the frame's MAC. A missing route
/// or a dead connection is [`NetError::PeerVanished`] — the typed owner
/// the failure-mode suites assert on.
pub(crate) fn ship<M: Wire>(
    entry: &SessionEntry<M>,
    sid: SessionId,
    env: Envelope<M>,
    flight: &mut FlightState<M>,
) -> Result<(), NetError> {
    let dst = env.dst;
    flight.shipped(dst);
    let route = entry
        .routes
        .lock()
        .expect("routes poisoned")
        .get(&dst)
        .cloned()
        .ok_or(NetError::PeerVanished {
            session: sid,
            player: dst,
        })?;
    let auth = flight.auth.as_mut().map(|a| {
        let seq = a.next_seq;
        a.next_seq += 1;
        a.outstanding.insert(seq);
        AuthTag { seq, mac: [0; 8] }
    });
    let mut frame = Frame::Msg {
        session: sid,
        src: env.src,
        dst,
        msg: env.msg,
        auth,
    };
    if let Some(a) = &flight.auth {
        frame.seal(&a.key);
    }
    route
        .send_frame(&frame)
        .map_err(|_| NetError::PeerVanished {
            session: sid,
            player: dst,
        })
}

/// Sends `frame` once per distinct connection attached to the session (a
/// relay may serve several players of one session over one conn).
pub(crate) fn broadcast<M: Wire>(entry: &SessionEntry<M>, frame: &Frame<M>) {
    let routes: Vec<Arc<ConnOut>> = entry
        .routes
        .lock()
        .expect("routes poisoned")
        .values()
        .cloned()
        .collect();
    let mut announced: Vec<*const ConnOut> = Vec::new();
    for route in routes {
        let ptr = Arc::as_ptr(&route);
        if announced.contains(&ptr) {
            continue;
        }
        announced.push(ptr);
        let _ = route.send_frame(frame);
    }
}

/// The pump's wire-side bookkeeping: the delivery buffer, the shipped-but-
/// not-returned counts (total and per destination, kept in lockstep), and
/// the vanished-relay ledger. One `absorb` is the single place an inbound
/// event touches the accounting — the reactor state machine and the
/// threaded pump both call it, so they cannot drift apart.
pub(crate) struct FlightState<M> {
    pub(crate) held: VecDeque<Envelope<M>>,
    pub(crate) in_flight: u64,
    pub(crate) in_flight_by: Vec<u64>,
    pub(crate) gone: Vec<usize>,
    /// Authenticated-channel state, present iff the config carries a key.
    pub(crate) auth: Option<AuthState>,
    /// First tampering violation observed (parse-layer `Tampered` events
    /// and replay detection both land here); the driver turns it into
    /// [`NetError::AuthFailure`] at its next check.
    pub(crate) violation: Option<(u64, TamperKind)>,
}

/// Per-session sequencing state for authenticated frames: the next ship
/// sequence number, the numbers still on the wire, and the master key the
/// MACs derive from.
pub(crate) struct AuthState {
    pub(crate) key: AuthKey,
    pub(crate) next_seq: u64,
    pub(crate) outstanding: HashSet<u64>,
}

impl<M> FlightState<M> {
    pub(crate) fn new(expected: usize, auth: Option<AuthKey>) -> Self {
        FlightState {
            held: VecDeque::new(),
            in_flight: 0,
            in_flight_by: vec![0; expected],
            gone: Vec::new(),
            auth: auth.map(|key| AuthState {
                key,
                next_seq: 0,
                outstanding: HashSet::new(),
            }),
            violation: None,
        }
    }

    pub(crate) fn shipped(&mut self, dst: usize) {
        if let Some(slot) = self.in_flight_by.get_mut(dst) {
            *slot += 1;
            self.in_flight += 1;
        }
    }

    fn flag(&mut self, conn: u64, kind: TamperKind) {
        if self.violation.is_none() {
            self.violation = Some((conn, kind));
        }
    }

    pub(crate) fn absorb(&mut self, inbound: Inbound<M>) {
        match inbound {
            Inbound::Msg {
                src,
                dst,
                msg,
                returned,
                seq,
                conn,
            } => {
                match (&mut self.auth, seq) {
                    // Authenticated channel: the MAC was already verified
                    // at the parse layer; freshness is checked here, where
                    // the outstanding set lives. A consumed sequence
                    // number is a replay — flagged, not delivered.
                    (Some(a), Some(seq)) => {
                        if !a.outstanding.remove(&seq) {
                            self.flag(conn, TamperKind::Replayed);
                            return;
                        }
                        if returned {
                            if let Some(slot) = self.in_flight_by.get_mut(dst) {
                                if *slot > 0 {
                                    *slot -= 1;
                                    self.in_flight -= 1;
                                }
                            }
                        }
                        self.held.push_back(Envelope { src, dst, msg });
                    }
                    // An unauthenticated Msg reaching an authenticated
                    // driver: the parse layer rejects these, so this is
                    // defense in depth against a path drift.
                    (Some(_), None) => self.flag(conn, TamperKind::Downgrade),
                    // Plain channel. Decrement only for a frame that (a)
                    // came back on dst's own relay connection and (b) has
                    // a shipped frame to account against — an improvised
                    // frame (forged, or a stray client) is delivered but
                    // cannot fake quiescence.
                    (None, _) => {
                        if returned {
                            if let Some(slot) = self.in_flight_by.get_mut(dst) {
                                if *slot > 0 {
                                    *slot -= 1;
                                    self.in_flight -= 1;
                                }
                            }
                        }
                        self.held.push_back(Envelope { src, dst, msg });
                    }
                }
            }
            Inbound::Attached { player } => self.gone.retain(|&p| p != player),
            Inbound::PeerGone { player } => self.gone.push(player),
            Inbound::Tampered { conn, kind } => self.flag(conn, kind),
        }
    }

    /// Takes the next held frame to deliver: the oldest under arrival
    /// order (O(1) however deep a burst made the buffer), a seeded-random
    /// index under the shuffle policy — the survivors keep their order, so
    /// a seed picks the same frames it always did.
    pub(crate) fn release(&mut self, rng: Option<&mut StdRng>) -> Envelope<M> {
        match rng {
            Some(r) => self.held.remove(r.gen_range(0..self.held.len())),
            None => self.held.pop_front(),
        }
        .expect("release is only called on a non-empty buffer")
    }

    /// A vanished relay whose player still owes shipped frames, if any.
    pub(crate) fn fatal_gone(&self) -> Option<usize> {
        self.gone
            .iter()
            .copied()
            .find(|&p| self.in_flight_by.get(p).copied().unwrap_or(0) > 0)
    }
}

/// Finishes a networked session, handing the outcome to the configured
/// sink first — the single recording site for the threaded driver, so a
/// session cannot be recorded twice no matter which pump arm ended it.
pub(crate) fn finish_recorded<M>(
    session: Session<M>,
    sink: Option<&Arc<dyn TraceSink>>,
    meta: &RunMeta,
) -> Outcome {
    let outcome = session.finish();
    if let Some(sink) = sink {
        sink.record(meta, &outcome);
    }
    outcome
}

/// The thread-per-session engine ([`Service::host_threaded`]): barrier on
/// attaches, then the ship / deliver / quiesce loop described in the
/// module docs. The reactor's `SessionSm` mirrors this arm for arm — the
/// differential suite pins the correspondence.
fn pump<M: Wire + Send>(
    sid: SessionId,
    mut session: Session<M>,
    entry: &SessionEntry<M>,
    inbox: Receiver<Inbound<M>>,
    cfg: &ServiceConfig,
) -> Result<Outcome, NetError> {
    let expected = entry.expected;
    let mut flight: FlightState<M> = FlightState::new(expected, cfg.auth);
    let (depth, mut rng) = match cfg.delivery {
        DeliveryOrder::Arrival => (0usize, None),
        DeliveryOrder::Shuffled { seed, depth } => (depth, Some(StdRng::seed_from_u64(seed ^ sid))),
    };

    // Attach barrier: every world process needs a relay before the first
    // message leaves the plane.
    let mut attached = vec![false; expected];
    let mut nattached = 0usize;
    let deadline = Instant::now() + cfg.attach_timeout;
    while nattached < expected {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NetError::AttachTimeout {
                session: sid,
                attached: nattached,
                expected,
            });
        }
        match inbox.recv_timeout(left) {
            Ok(Inbound::Attached { player }) => {
                if !attached[player] {
                    attached[player] = true;
                    nattached += 1;
                }
            }
            Ok(Inbound::PeerGone { player }) => {
                if attached[player] {
                    attached[player] = false;
                    nattached -= 1;
                }
            }
            // Nothing has been shipped yet, so any early frame is a peer
            // improvising; hold it — it will be delivered in order.
            Ok(ev @ (Inbound::Msg { .. } | Inbound::Tampered { .. })) => {
                flight.absorb(ev);
                if let Some((conn, kind)) = flight.violation {
                    return Err(NetError::AuthFailure {
                        session: sid,
                        conn,
                        kind,
                    });
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                return Err(NetError::AttachTimeout {
                    session: sid,
                    attached: nattached,
                    expected,
                });
            }
            Err(RecvTimeoutError::Disconnected) => return Err(NetError::ServiceGone),
        }
    }

    loop {
        // 0. A tampering verdict (parse-layer event or replay detection)
        //    aborts the session with its typed owner before anything else.
        if let Some((conn, kind)) = flight.violation {
            return Err(NetError::AuthFailure {
                session: sid,
                conn,
                kind,
            });
        }
        // 1. Ship every freshly-sent message onto its network leg.
        for env in session.drain_outbox() {
            ship(entry, sid, env, &mut flight)?;
        }
        // 2. Dispatch local events (start signals stay on the plane).
        if !session.pending().is_empty() {
            if session.step().is_done() {
                // Mid-run Done can only be the budget guard: termination
                // with events pending is BudgetExhausted by construction.
                return Ok(finish_recorded(session, cfg.sink.as_ref(), &entry.meta));
            }
            continue;
        }
        // 3. Absorb everything the network has already handed back.
        loop {
            match inbox.try_recv() {
                Ok(inbound) => flight.absorb(inbound),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return Err(NetError::ServiceGone),
            }
        }
        if let Some((conn, kind)) = flight.violation {
            return Err(NetError::AuthFailure {
                session: sid,
                conn,
                kind,
            });
        }
        // 4. Deliver one held frame — immediately under Arrival order,
        //    through the shuffle buffer otherwise (force-drained once
        //    nothing is left in flight, so the policy is always live).
        if !flight.held.is_empty() && (flight.held.len() > depth || flight.in_flight == 0) {
            let env = flight.release(rng.as_mut());
            if session.inject(env.src, env.dst, env.msg).progressed() && session.step().is_done() {
                // Budget guard mid-delivery.
                return Ok(finish_recorded(session, cfg.sink.as_ref(), &entry.meta));
            }
            continue;
        }
        // 5. Quiescence: plane drained, buffer empty, wire empty — the
        //    session's own verdict is now trustworthy.
        if flight.in_flight == 0 {
            debug_assert!(flight.held.is_empty());
            return match session.step() {
                SessionStatus::Done(_) => {
                    Ok(finish_recorded(session, cfg.sink.as_ref(), &entry.meta))
                }
                SessionStatus::Running => unreachable!("empty plane must terminate"),
            };
        }
        // 6. Traffic is in flight. A vanished relay is fatal only if its
        //    player still owes us frames (otherwise a replacement may yet
        //    attach, and sends to it will fail loudly at `ship`).
        if let Some(player) = flight.fatal_gone() {
            return Err(NetError::PeerVanished {
                session: sid,
                player,
            });
        }
        // 7. Block for the network.
        match inbox.recv_timeout(cfg.idle_timeout) {
            Ok(inbound) => flight.absorb(inbound),
            Err(RecvTimeoutError::Timeout) => {
                return Err(NetError::IdleTimeout {
                    session: sid,
                    in_flight: flight.in_flight,
                });
            }
            Err(RecvTimeoutError::Disconnected) => return Err(NetError::ServiceGone),
        }
    }
}

// ---------------------------------------------------------------------------
// One-call loopback runs
// ---------------------------------------------------------------------------

/// Runs `plan`'s `(kind, seed)` cell end-to-end over the in-memory
/// transport: a fresh single-session service, one relay client per world
/// process, outcome back on the caller's thread.
pub fn run_over_mem<P>(
    plan: &P,
    kind: &SchedulerKind,
    seed: u64,
    cfg: ServiceConfig,
) -> Result<Outcome, NetError>
where
    P: SessionPlan,
    P::Msg: Wire,
{
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), cfg);
    run_session_with(plan, kind, seed, &service, || Ok(hub.connect()))
}

/// Runs `plan`'s `(kind, seed)` cell end-to-end over TCP loopback
/// (ephemeral port): real sockets, one relay connection per world process.
pub fn run_over_tcp<P>(
    plan: &P,
    kind: &SchedulerKind,
    seed: u64,
    cfg: ServiceConfig,
) -> Result<Outcome, NetError>
where
    P: SessionPlan,
    P::Msg: Wire,
{
    let transport = TcpTransport::bind_loopback()?;
    let addr = transport.addr();
    let service = Service::with_config(Box::new(transport), cfg);
    run_session_with(plan, kind, seed, &service, move || {
        TcpTransport::connect(addr)
    })
}

fn run_session_with<P, F>(
    plan: &P,
    kind: &SchedulerKind,
    seed: u64,
    service: &Service<P::Msg>,
    connect: F,
) -> Result<Outcome, NetError>
where
    P: SessionPlan,
    P::Msg: Wire,
    F: Fn() -> Result<ConnPair<P::Msg>, NetError> + Send + Sync,
{
    const SID: SessionId = 1;
    let handle = service.host_plan(SID, plan, kind.clone(), seed);
    let outcome = thread::scope(|scope| {
        let relays: Vec<_> = (0..plan.processes())
            .map(|player| {
                let connect = &connect;
                scope.spawn(move || -> Result<OutcomeSummary, NetError> {
                    let mut client = Client::from_pair(connect()?);
                    client.attach(SID, player)?;
                    client.relay()
                })
            })
            .collect();
        let outcome = handle.outcome();
        for relay in relays {
            // Relay results only matter when the hosted run itself failed
            // (they then carry the transport-side reason).
            let relay_result = relay.join().expect("relay panicked");
            if outcome.is_err() {
                relay_result?;
            }
        }
        outcome
    });
    outcome
}
