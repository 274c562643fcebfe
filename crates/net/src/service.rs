//! The multi-session service runtime over the [`Session`] seam.
//!
//! A [`Service`] accepts connections on an [`NbListener`] and hosts any
//! number of concurrent [`Session`]s — all of it driven by **one reactor
//! thread** (see the `reactor` module):
//!
//! ```text
//!             ┌────────────────────── Service ─────────────────────────┐
//!   accept ──▶│            one reactor thread (readiness loop):        │
//!             │  one read buffer (a chunk per read) ──frames──▶        │
//!             │  session delivery buffers ──▶ state machines:          │
//!             │    held Msg     ──▶ inject + step                      │
//!             │    drain_outbox ──▶ conn write buffers (written at     │
//!             │                     half a chunk and when a pass ends) │
//!             │    plane empty ∧ nothing in flight ──▶ finish()        │
//!             └────────────────────────────────────────────────────────┘
//! ```
//!
//! **The network is the scheduler.** In-process, a scheduler picks which
//! pending event is delivered next. Networked, every sent message is
//! drained off the plane, shipped to the relay connection attached for its
//! destination, and re-injected when the wire hands it back — so delivery
//! order is whatever order the network returns frames in (TCP interleaving
//! across connections, the reactor's dispatch order, a reordering relay;
//! the service keeps arrival order). That is *exactly* an adversarial
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
//! The caller's side of a [`Service`] is three things: a command sender, a
//! waker, and the reactor's join handle. Sessions, routes and connection
//! buffers all live on the reactor thread and are touched by nothing else;
//! [`Service::host`] only posts a command and hands back the channel the
//! result will arrive on. The reference a networked run is held to is the
//! in-process `World`: a recorded run replays through `replay_plan` to a
//! byte-identical trace (DESIGN.md §11).

use crate::auth::{AuthKey, AuthTag, PairKey, ReplayWindow, TamperKind};
use crate::client::Client;
use crate::frame::{encode_msg, Frame, NetError, OutcomeSummary, SessionId};
use crate::reactor::{Command, Conns, Reactor, Route, CMD_TOKEN};
use crate::readiness::{NbListener, Poller, Waker};
use crate::transport::{ConnPair, MemTransport, TcpTransport};
use crate::wire::Wire;
use mediator_core::scenario::{GameFamily, Plan};
use mediator_sim::SchedulerKind;
use mediator_sim::{Envelope, Outcome, RunMeta, Session, TraceSink};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

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
    /// When set, every shipped `Msg` frame is sealed with a per-pair MAC
    /// under this master key and verified on return (see the `auth`
    /// module): tampered, replayed, stripped, or truncated frames abort
    /// the affected session with [`NetError::AuthFailure`] instead of
    /// corrupting the run. `None` (the default) trusts relays, as the
    /// plane did before authenticated frames existed.
    pub auth: Option<AuthKey>,
    /// When set, every session that reaches an [`Outcome`] is handed to
    /// this sink exactly once, on the reactor thread. Failed sessions
    /// produce no outcome and are not recorded. Plan-hosted sessions
    /// ([`Service::host_plan`]) record their `(kind, seed)` cell so a
    /// store-backed sink can replay them; closure-hosted sessions record
    /// routing metadata only.
    ///
    /// A recording replays (`replay_plan`) only when the wire kept each
    /// `(src, dst)` pair's frames in order, as honest relays do. Through a
    /// relay that reorders, the trace cannot say which of a pair's
    /// emissions came back first, and replay reports a `Divergence`
    /// (DESIGN.md §11).
    pub sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("idle_timeout", &self.idle_timeout)
            .field("attach_timeout", &self.attach_timeout)
            .field("attach_grace", &self.attach_grace)
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

/// What the reactor feeds a hosted session's state machine.
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
        /// verified MAC. The in-flight accounting checks it off in the
        /// replay window: a consumed number is a replay.
        seq: Option<u64>,
        /// Reactor-assigned id of the connection the frame arrived on
        /// (names the culprit in [`NetError::AuthFailure`]).
        conn: u64,
    },
    /// The relay for `player` disconnected.
    PeerGone { player: usize },
    /// The parse layer caught tampering on an authenticated frame for
    /// this session (bad MAC, stripped trailer, or truncated body). The
    /// session machine turns it into [`NetError::AuthFailure`] —
    /// session-fatal, connection-preserving.
    Tampered { conn: u64, kind: TamperKind },
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
/// connection and every hosted session (a thousand concurrent sessions
/// on one core and one connection in `tests/reactor_smoke.rs`).
pub struct Service<M: Wire + Send + 'static> {
    commands: Sender<Command<M>>,
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
        // The reactor owns the receiving end: if it dies, queued commands
        // drop with it and later sends fail, so every pending and future
        // `outcome()` resolves to `ServiceGone` instead of waiting on a
        // queue nobody drains.
        let (commands, inbox) = mpsc::channel();
        let poller = Poller::new().expect("reactor poller");
        let waker = poller.waker();
        // The `Reactor` is built *inside* the thread: hosted `Session`s
        // (and the processes within) are created and consumed there, so
        // they never cross a thread boundary and need not be `Send`.
        let handle = thread::Builder::new()
            .name("mediator-reactor".into())
            .spawn(move || Reactor::new(cfg, listener, poller, inbox).run())
            .expect("spawn reactor");
        Service {
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
    /// [`SessionHandle`]. An `id` that is still live is refused with
    /// [`NetError::SessionIdTaken`] (and `open` never runs); a frame sent
    /// after this call returns finds the session.
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
        let (result, rx) = mpsc::channel();
        self.post(Command::Host {
            id,
            processes,
            meta,
            open: Box::new(open),
            result,
        });
        SessionHandle { id, rx }
    }

    /// Queues `cmd` and wakes the reactor. A dead reactor drops the
    /// command (and the result sender inside it) on the floor.
    fn post(&self, cmd: Command<M>) {
        if self.commands.send(cmd).is_ok() {
            self.waker.wake(CMD_TOKEN);
        }
    }

    /// Hosts one `(scheduler, seed)` cell of `plan` under `id` — the
    /// networked mirror of `plan.session_with(kind, seed)`. The cell
    /// travels with the session, so a store-backed sink records a
    /// replayable header.
    pub fn host_plan<F>(
        &self,
        id: SessionId,
        plan: &Plan<F>,
        kind: SchedulerKind,
        seed: u64,
    ) -> SessionHandle
    where
        F: GameFamily<Msg = M>,
    {
        let plan = plan.clone();
        let meta = RunMeta::cell(id, kind.clone(), seed);
        self.host_with_meta(
            id,
            plan.processes(),
            move || plan.session_with(&kind, seed),
            meta,
        )
    }

    /// Stops accepting connections and waits for the reactor to drain:
    /// hosted sessions run to their outcomes and final frames are flushed
    /// before this returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.reactor.take() {
            self.post(Command::Drain);
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
/// a fresh sequence number and sealing the frame's MAC over the bytes
/// queued for the wire. A missing route or a dead (or recycled)
/// connection is [`NetError::PeerVanished`] — the typed owner the
/// failure-mode suites assert on.
pub(crate) fn ship<M: Wire>(
    routes: &[Option<Route>],
    conns: &mut Conns,
    sid: SessionId,
    env: Envelope<M>,
    flight: &mut FlightState<M>,
) -> Result<(), NetError> {
    let dst = env.dst;
    flight.shipped(dst);
    let vanished = NetError::PeerVanished {
        session: sid,
        player: dst,
    };
    let Some(route) = routes.get(dst).copied().flatten() else {
        return Err(vanished);
    };
    let sealing = flight
        .auth
        .as_mut()
        .map(|a| (a.window.issue(), a.pair(env.src, dst)));
    let auth = sealing.map(|(seq, _)| AuthTag { seq, mac: [0; 8] });
    let body = |out: &mut Vec<u8>| encode_msg(out, sid, env.src, dst, auth, &env.msg);
    let key = sealing.as_ref().map(|(_, key)| key);
    conns.send(route, body, key).map_err(|_| vanished)
}

/// Sends `frame` once per distinct connection attached to the session (a
/// relay may serve several players of one session over one conn).
pub(crate) fn broadcast<M: Wire>(routes: &[Option<Route>], conns: &mut Conns, frame: &Frame<M>) {
    let mut announced: Vec<Route> = Vec::new();
    for route in routes.iter().flatten() {
        if !announced.contains(route) {
            announced.push(*route);
            let _ = conns.send(*route, |out| frame.encode_body(out), None);
        }
    }
}

/// The pump's wire-side bookkeeping: the delivery buffer, the shipped-but-
/// not-returned counts (total and per destination, kept in lockstep), and
/// the vanished-relay ledger. One `absorb` is the single place an inbound
/// event touches the accounting; the reactor calls it as each frame is
/// parsed.
pub(crate) struct FlightState<M> {
    /// The session's one delivery buffer: frames absorbed and not yet
    /// injected.
    pub(crate) held: VecDeque<Envelope<M>>,
    pub(crate) in_flight: u64,
    pub(crate) in_flight_by: Vec<u64>,
    pub(crate) gone: Vec<usize>,
    /// Authenticated-channel state, present iff the config carries a key.
    pub(crate) auth: Option<AuthState>,
    /// First tampering violation observed (parse-layer `Tampered` events
    /// and replay detection both land here); the session machine turns it
    /// into [`NetError::AuthFailure`] at its next check.
    pub(crate) violation: Option<(u64, TamperKind)>,
}

/// Per-session state for authenticated frames: the master key, each
/// directed channel's pair key (`n × n`, derived on the channel's first
/// frame), and the replay ledger of sequence numbers still on the wire.
pub(crate) struct AuthState {
    key: AuthKey,
    sid: SessionId,
    n: usize,
    pairs: Vec<Option<PairKey>>,
    window: ReplayWindow,
}

impl AuthState {
    /// The pair key for `src → dst` in this session. A hostile frame's
    /// out-of-range ids derive afresh and are never cached.
    pub(crate) fn pair(&mut self, src: usize, dst: usize) -> PairKey {
        let (key, sid) = (self.key, self.sid);
        if src >= self.n || dst >= self.n {
            return key.pair_key(sid, src, dst);
        }
        *self.pairs[src * self.n + dst].get_or_insert_with(|| key.pair_key(sid, src, dst))
    }
}

impl<M> FlightState<M> {
    pub(crate) fn new(sid: SessionId, expected: usize, auth: Option<AuthKey>) -> Self {
        FlightState {
            held: VecDeque::new(),
            in_flight: 0,
            in_flight_by: vec![0; expected],
            gone: Vec::new(),
            auth: auth.map(|key| AuthState {
                key,
                sid,
                n: expected,
                pairs: vec![None; expected * expected],
                window: ReplayWindow::default(),
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
                // Authenticated channel: the MAC was already verified at
                // the parse layer; freshness is checked here, where the
                // replay window lives. A consumed sequence number is a
                // replay — flagged, not delivered. An unauthenticated Msg
                // is a downgrade the parse layer already rejects: defense
                // in depth against a path drift.
                if let Some(a) = &mut self.auth {
                    match seq {
                        Some(seq) if a.window.retire(seq) => {}
                        Some(_) => return self.flag(conn, TamperKind::Replayed),
                        None => return self.flag(conn, TamperKind::Downgrade),
                    }
                }
                // Decrement only for a frame that (a) came back on dst's
                // own relay connection and (b) has a shipped frame to
                // account against — an improvised frame (forged, or a
                // stray client) is delivered but cannot fake quiescence.
                if returned {
                    if let Some(slot) = self.in_flight_by.get_mut(dst).filter(|s| **s > 0) {
                        *slot -= 1;
                        self.in_flight -= 1;
                    }
                }
                self.held.push_back(Envelope { src, dst, msg });
            }
            Inbound::Attached { player } => self.gone.retain(|&p| p != player),
            Inbound::PeerGone { player } => self.gone.push(player),
            Inbound::Tampered { conn, kind } => self.flag(conn, kind),
        }
    }

    /// A vanished relay whose player still owes shipped frames, if any.
    pub(crate) fn fatal_gone(&self) -> Option<usize> {
        self.gone
            .iter()
            .copied()
            .find(|&p| self.in_flight_by.get(p).copied().unwrap_or(0) > 0)
    }
}

// ---------------------------------------------------------------------------
// One-call loopback runs
// ---------------------------------------------------------------------------

/// Runs `plan`'s `(kind, seed)` cell end-to-end over the in-memory
/// transport: a fresh single-session service, one relay client per world
/// process, outcome back on the caller's thread.
pub fn run_over_mem<F>(
    plan: &Plan<F>,
    kind: &SchedulerKind,
    seed: u64,
    cfg: ServiceConfig,
) -> Result<Outcome, NetError>
where
    F: GameFamily,
    F::Msg: Wire,
{
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), cfg);
    run_session_with(plan, kind, seed, &service, || Ok(hub.connect()))
}

/// Runs `plan`'s `(kind, seed)` cell end-to-end over TCP loopback
/// (ephemeral port): real sockets, one relay connection per world process.
pub fn run_over_tcp<F>(
    plan: &Plan<F>,
    kind: &SchedulerKind,
    seed: u64,
    cfg: ServiceConfig,
) -> Result<Outcome, NetError>
where
    F: GameFamily,
    F::Msg: Wire,
{
    let transport = TcpTransport::bind_loopback()?;
    let addr = transport.addr();
    let service = Service::with_config(Box::new(transport), cfg);
    run_session_with(plan, kind, seed, &service, move || {
        TcpTransport::connect(addr)
    })
}

fn run_session_with<F, C>(
    plan: &Plan<F>,
    kind: &SchedulerKind,
    seed: u64,
    service: &Service<F::Msg>,
    connect: C,
) -> Result<Outcome, NetError>
where
    F: GameFamily,
    F::Msg: Wire,
    C: Fn() -> Result<ConnPair<F::Msg>, NetError> + Send + Sync,
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
