//! The sharding plane: one coordinator leasing conformance sweep units to
//! workers over the wire, with verdicts bit-identical to a local sweep.
//!
//! A [`Conformance`] sweep is embarrassingly parallel *if* the honest-
//! baseline pairing survives the split: every deviant cell's confidence
//! interval is paired run-by-run against the baseline grid (common random
//! numbers), so the unit of distribution must be a whole `(strategy,
//! coalition)` grid, never a slice of one. [`mediator_core::sweep_units`]
//! decomposes the sweep exactly that way, and workers ship back per-run
//! *resolved action profiles* — the portable integers utilities are a
//! deterministic function of — so [`mediator_core::render_sweep_report`]
//! on the coordinator reproduces the local float pipeline bit for bit.
//!
//! The protocol is pull-based and lease-oriented:
//!
//! 1. A worker sends [`Frame::ShardRequest`]; the coordinator answers with
//!    a [`Frame::ShardGrant`] lease on the next pending unit (or holds the
//!    request until one frees up).
//! 2. The worker runs the unit's whole grid and replies
//!    [`Frame::ShardResult`] — sealed under [`WIRE_VERSION_AUTH`] when the
//!    sweep runs authenticated — then requests again.
//! 3. A lease outlives its deadline, or its worker's connection drops:
//!    the coordinator reclaims the unit onto the queue (back of the FIFO)
//!    and records a typed owner — [`NetError::IdleTimeout`] for a lapsed
//!    lease, [`NetError::PeerVanished`] for a vanished worker. First
//!    result wins; late duplicates are discarded, never double-counted.
//! 4. When the grid is complete the coordinator renders the verdict. A
//!    `Violated` verdict triggers one more lease: the witness `(unit,
//!    run)` cell is re-enacted by a worker ([`Frame::ShardWitness`]),
//!    cross-checked against the verdict's deviant profile, and recorded
//!    to the worker's trace sink — sharded witnesses stay replayable.
//! 5. [`Frame::ShardDrain`] tells each worker the sweep is over.
//!
//! Liveness requires at least one live worker: the coordinator re-leases
//! reclaimed units forever rather than guessing a partial verdict.
//!
//! [`WIRE_VERSION_AUTH`]: crate::wire::WIRE_VERSION_AUTH

use crate::auth::{AuthKey, AuthTag, TamperKind};
use crate::frame::{Frame, NetError, RejectReason, SHARD_COORD};
use crate::tamper::TransportKind;
use crate::transport::{ConnPair, FramedRx, FramedTx, MemTransport, TcpTransport};
use mediator_core::scenario::{GameFamily, Plan};
use mediator_core::{
    render_sweep_report, run_sweep_cell, run_sweep_unit, sweep_units, Conformance,
    ConformanceReport, ConformanceVerdict, LeaseLedger, SweepUnit,
};
use mediator_games::BayesianGame;
use mediator_sim::{RunMeta, TraceSink};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The message type parameter shard connections carry. Shard frames never
/// embed a protocol message, so any [`crate::wire::Wire`] type would do;
/// pinning one keeps every coordinator/worker signature aligned.
pub type ShardFrame = Frame<u64>;

/// A deferred force-close for a worker connection (TCP socket shutdown;
/// `None` where dropping the sender half is teardown enough).
type Closer = Option<Box<dyn FnOnce() + Send>>;

/// How many times the witness re-enactment may disagree with the verdict's
/// recorded profile before the coordinator declares a determinism bug. One
/// disagreement is a hostile worker; the same disagreement from every
/// replacement worker means the grid itself is not reproducible.
const WITNESS_TRIES: usize = 3;

/// Knobs shared by the coordinator and its workers.
#[derive(Clone)]
pub struct ShardConfig {
    /// How long a leased unit may stay out before the coordinator
    /// reclaims and re-leases it ([`NetError::IdleTimeout`] owner).
    pub lease_deadline: Duration,
    /// When set, `ShardResult` frames travel sealed under
    /// [`crate::wire::WIRE_VERSION_AUTH`] and the coordinator rejects
    /// plain or forged results (typed [`NetError::AuthFailure`]).
    pub auth: Option<AuthKey>,
    /// Where a worker records the re-enacted witness cell's outcome, so a
    /// sharded `Violated` verdict replays like a local one.
    pub sink: Option<Arc<dyn TraceSink>>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            lease_deadline: Duration::from_secs(2),
            auth: None,
            sink: None,
        }
    }
}

impl ShardConfig {
    /// Sets the lease deadline.
    pub fn lease_deadline(mut self, deadline: Duration) -> Self {
        self.lease_deadline = deadline;
        self
    }

    /// Authenticates `ShardResult` frames under `key`.
    pub fn auth(mut self, key: AuthKey) -> Self {
        self.auth = Some(key);
        self
    }

    /// Records re-enacted witness cells to `sink`.
    pub fn sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// What the coordinator saw while the sweep ran: every typed failure it
/// absorbed, and the lease-ledger accounting that proves no cell was
/// double-counted.
#[derive(Debug, Default)]
pub struct ShardLog {
    /// Typed failures absorbed without changing the verdict: vanished
    /// workers ([`NetError::PeerVanished`]), lapsed leases
    /// ([`NetError::IdleTimeout`]), tampered or malformed results
    /// ([`NetError::AuthFailure`] / [`NetError::Rejected`]).
    pub failures: Vec<NetError>,
    /// Units reclaimed and re-leased (expiry + vanish).
    pub releases: usize,
    /// Late or duplicate results discarded after a first result won.
    pub discarded: usize,
    /// Grid units the sweep decomposed into (baseline included; the
    /// witness re-enactment lease is not counted).
    pub units: usize,
    /// Distinct worker ids that requested leases.
    pub workers: usize,
    /// True when a `Violated` verdict's witness cell was re-enacted by a
    /// worker and matched the verdict's recorded profile.
    pub witness_reenacted: bool,
}

/// Where the coordinator listens for worker connections.
pub enum ShardListener {
    /// An in-memory hub ([`MemTransport`]); workers dial with
    /// [`worker_mem`].
    Mem(MemTransport),
    /// A loopback TCP listener; workers dial [`ShardListener::addr`].
    Tcp {
        /// The bound listener.
        listener: TcpListener,
        /// Its bound address.
        addr: SocketAddr,
        /// Set on unblock: the next accepted connection is the
        /// coordinator's own wake-up dial, not a worker.
        stop: Arc<AtomicBool>,
    },
}

impl ShardListener {
    /// Listens on an in-memory hub.
    pub fn mem(hub: &MemTransport) -> Self {
        ShardListener::Mem(hub.clone())
    }

    /// Binds a fresh loopback TCP listener on an ephemeral port.
    pub fn tcp() -> Result<Self, NetError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        Ok(ShardListener::Tcp {
            listener,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The TCP address workers should dial (`None` for the mem hub).
    pub fn addr(&self) -> Option<SocketAddr> {
        match self {
            ShardListener::Mem(_) => None,
            ShardListener::Tcp { addr, .. } => Some(*addr),
        }
    }

    /// Blocks for the next worker connection; `None` once unblocked. The
    /// second element force-closes the connection from the coordinator
    /// side (needed for TCP, where dropping one stream clone does not
    /// shut the socket down).
    fn accept(&self) -> Option<(ConnPair<u64>, Closer)> {
        match self {
            ShardListener::Mem(hub) => {
                let (w, r) = hub.accept()?;
                let conn: ConnPair<u64> = (FramedTx::new(w), FramedRx::new(r));
                // Mem pipes close a direction when its writer drops, so
                // dropping the registered tx half is teardown enough.
                Some((conn, None))
            }
            ShardListener::Tcp { listener, stop, .. } => {
                let (stream, _) = listener.accept().ok()?;
                if stop.load(Ordering::SeqCst) {
                    return None;
                }
                let _ = stream.set_nodelay(true);
                let read = stream.try_clone().ok()?;
                let closer = stream.try_clone().ok().map(|s| {
                    Box::new(move || {
                        let _ = s.shutdown(std::net::Shutdown::Both);
                    }) as Box<dyn FnOnce() + Send>
                });
                let conn: ConnPair<u64> = (FramedTx::new(stream), FramedRx::new(read));
                Some((conn, closer))
            }
        }
    }

    /// Wakes a blocked [`ShardListener::accept`] so the accept loop can
    /// exit: closes the mem hub, or self-dials the TCP listener after
    /// raising the stop flag.
    fn unblock(&self) {
        match self {
            ShardListener::Mem(hub) => hub.close(),
            ShardListener::Tcp { addr, stop, .. } => {
                stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(*addr);
            }
        }
    }
}

/// The sweep's phase: leasing grid units, re-enacting the witness cell,
/// or telling workers to drain.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Grid,
    Witness,
    Drain,
}

/// The lease the witness re-enactment travels under: which sweep unit and
/// flat run index to re-run, and the profile the verdict recorded for it.
struct WitnessLease {
    unit: usize,
    run: usize,
    expect: Vec<usize>,
    tries: usize,
}

/// One live connection's coordinator-side send half plus its force-closer,
/// registered so drain can reach workers that are *not* holding a pending
/// request (a muted worker never requests again, yet still deserves the
/// drain frame — and its handler must not pin the coordinator's scope).
struct ConnSlot {
    tx: Option<FramedTx<u64>>,
    close: Closer,
}

impl ConnSlot {
    /// Best-effort send; a send after teardown (or on a dead pipe) is
    /// surfaced by the connection's next recv instead.
    fn send(&mut self, frame: &ShardFrame) {
        if let Some(tx) = self.tx.as_mut() {
            let _ = tx.send(frame);
        }
    }
}

/// Everything the connection handlers share under one lock.
struct CoordState {
    ledger: LeaseLedger,
    profiles: Vec<Option<Vec<Vec<usize>>>>,
    phase: Phase,
    witness: Option<WitnessLease>,
    witness_ok: bool,
    failures: Vec<NetError>,
    workers: BTreeSet<u64>,
    /// Next acceptable `AuthTag::seq` per worker (strictly monotonic; a
    /// lower sequence number is a replay).
    seqs: BTreeMap<u64, u64>,
}

/// The coordinator's shared context: locked state, the wake-up Condvar,
/// and the immutable sweep geometry handlers validate results against.
struct Coord<'a> {
    state: Mutex<CoordState>,
    cvar: Condvar,
    conns: Mutex<Vec<Arc<Mutex<ConnSlot>>>>,
    units: &'a [SweepUnit],
    grid_units: usize,
    runs_per_unit: usize,
    players: usize,
    start: Instant,
    deadline: u64,
    auth: Option<&'a AuthKey>,
}

impl Coord<'_> {
    /// Milliseconds since the sweep started — the lease ledger's clock.
    fn now(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// The ledger id of the witness re-enactment lease (one past the
    /// grid).
    fn witness_id(&self) -> u64 {
        self.grid_units as u64
    }

    /// Records a refused result and reclaims the offending worker's
    /// leases back onto the queue (nothing is lost to a bad result — the
    /// unit is simply re-leased).
    fn refuse(&self, st: &mut CoordState, worker: Option<u64>, err: NetError) {
        st.failures.push(err);
        if let Some(w) = worker {
            let _ = st.ledger.vanish(w);
        }
        self.cvar.notify_all();
    }

    /// Builds the grant frame for a ledger id: a whole-grid lease for a
    /// grid unit, the single-run re-enactment lease for the witness id.
    fn grant_frame(&self, st: &CoordState, id: u64) -> ShardFrame {
        if (id as usize) < self.grid_units {
            let u = &self.units[id as usize];
            Frame::ShardGrant {
                unit: id,
                strategy: u.strategy.clone(),
                coalition: u.coalition.clone(),
                run: None,
            }
        } else {
            let w = st
                .witness
                .as_ref()
                .expect("the witness id is only enqueued with a witness lease");
            let u = &self.units[w.unit];
            Frame::ShardGrant {
                unit: w.unit as u64,
                strategy: u.strategy.clone(),
                coalition: u.coalition.clone(),
                run: Some(w.run as u64),
            }
        }
    }

    /// One connection's handler: hold requests until a grant (or drain)
    /// is available, settle results against the ledger, and reclaim the
    /// worker's leases when the connection dies.
    fn handle(&self, slot: Arc<Mutex<ConnSlot>>, mut rx: FramedRx<u64>, conn: u64) {
        let mut me: Option<u64> = None;
        loop {
            match rx.recv() {
                Ok(Frame::ShardRequest { worker }) => {
                    me = Some(worker);
                    let frame = {
                        let mut st = self.state.lock().expect("coordinator state poisoned");
                        st.workers.insert(worker);
                        loop {
                            if st.phase == Phase::Drain {
                                break Frame::ShardDrain;
                            }
                            if let Some(id) = st.ledger.grant(worker, self.now(), self.deadline) {
                                break self.grant_frame(&st, id);
                            }
                            st = self.cvar.wait(st).expect("coordinator state poisoned");
                        }
                    };
                    // A failed send is not handled here: the next recv on
                    // this connection errors and the vanish path reclaims
                    // whatever lease the grant carried.
                    slot.lock().expect("conn slot poisoned").send(&frame);
                }
                Ok(Frame::ShardResult {
                    unit,
                    worker,
                    profiles,
                    auth,
                }) => {
                    let mut st = self.state.lock().expect("coordinator state poisoned");
                    if let Some(key) = self.auth {
                        match auth {
                            // An auth-configured sweep refuses plain
                            // results: accepting one would let a relay
                            // strip the trailer and forge a verdict.
                            None => {
                                self.refuse(
                                    &mut st,
                                    Some(worker),
                                    NetError::AuthFailure {
                                        session: unit,
                                        conn,
                                        kind: TamperKind::Downgrade,
                                    },
                                );
                                continue;
                            }
                            Some(tag) => {
                                let mut body = Vec::with_capacity(64);
                                Frame::<u64>::ShardResult {
                                    unit,
                                    worker,
                                    profiles: profiles.clone(),
                                    auth: Some(tag),
                                }
                                .encode_body(&mut body);
                                let prefix = &body[..body.len() - 8];
                                if !key
                                    .verify_msg(unit, worker as usize, SHARD_COORD, prefix, tag.mac)
                                    .is_authentic()
                                {
                                    self.refuse(
                                        &mut st,
                                        Some(worker),
                                        NetError::AuthFailure {
                                            session: unit,
                                            conn,
                                            kind: TamperKind::BadMac,
                                        },
                                    );
                                    continue;
                                }
                                let expected = st.seqs.entry(worker).or_insert(0);
                                if tag.seq < *expected {
                                    self.refuse(
                                        &mut st,
                                        Some(worker),
                                        NetError::AuthFailure {
                                            session: unit,
                                            conn,
                                            kind: TamperKind::Replayed,
                                        },
                                    );
                                    continue;
                                }
                                *expected = tag.seq + 1;
                            }
                        }
                    }
                    let shape_ok = (unit as usize) < self.grid_units
                        && profiles.len() == self.runs_per_unit
                        && profiles.iter().all(|p| p.len() == self.players);
                    if !shape_ok {
                        self.refuse(
                            &mut st,
                            Some(worker),
                            NetError::Rejected {
                                session: unit,
                                reason: RejectReason::TamperDetected,
                            },
                        );
                        continue;
                    }
                    // First result wins; `complete` refuses late
                    // duplicates (ledger `discarded`), so a re-leased
                    // unit can never be double-counted.
                    if st.ledger.complete(unit) {
                        st.profiles[unit as usize] = Some(profiles);
                        self.cvar.notify_all();
                    }
                }
                Ok(Frame::ShardWitness { unit, run, profile }) => {
                    let mut st = self.state.lock().expect("coordinator state poisoned");
                    let verdict = match &st.witness {
                        Some(w) if unit as usize == w.unit && run as usize == w.run => {
                            Some(profile == w.expect)
                        }
                        _ => None,
                    };
                    match verdict {
                        Some(true) => {
                            if st.ledger.complete(self.witness_id()) {
                                st.witness_ok = true;
                                self.cvar.notify_all();
                            }
                        }
                        Some(false) => {
                            let w = st.witness.as_mut().expect("checked above");
                            w.tries += 1;
                            if w.tries >= WITNESS_TRIES {
                                panic!(
                                    "witness re-enactment diverged {WITNESS_TRIES} times: \
                                     unit {unit} run {run} is not reproducible — the grid \
                                     determinism the verdict rests on is broken"
                                );
                            }
                            // One divergence is a hostile worker, not a
                            // determinism bug: refuse it and re-lease the
                            // cell to someone else.
                            self.refuse(
                                &mut st,
                                me,
                                NetError::Rejected {
                                    session: unit,
                                    reason: RejectReason::TamperDetected,
                                },
                            );
                        }
                        // A witness nobody asked for; count it discarded.
                        None => st.discard(),
                    }
                }
                // Request/grant/drain never travel worker → coordinator
                // in well-formed traffic; tolerate strays.
                Ok(_) => {}
                Err(_) => {
                    // Connection gone (orderly after drain, or a crash).
                    // Reclaim anything the worker still held; each
                    // reclaimed unit gets a typed vanish owner.
                    let mut st = self.state.lock().expect("coordinator state poisoned");
                    if let Some(w) = me {
                        let reclaims = st.ledger.vanish(w);
                        if !reclaims.is_empty() {
                            for r in reclaims {
                                st.failures.push(NetError::PeerVanished {
                                    session: r.unit(),
                                    player: w as usize,
                                });
                            }
                            self.cvar.notify_all();
                        }
                    }
                    return;
                }
            }
        }
    }

    /// The main loop: expire lapsed leases, render the report once the
    /// grid completes, run the witness phase, then flip to drain.
    fn drive(&self, game: &BayesianGame, types: &[usize], conf: &Conformance) -> ConformanceReport {
        let mut report: Option<ConformanceReport> = None;
        loop {
            let mut st = self.state.lock().expect("coordinator state poisoned");
            let now = self.now();
            let lapsed = st.ledger.expire(now);
            if !lapsed.is_empty() {
                for r in lapsed {
                    st.failures.push(NetError::IdleTimeout {
                        session: r.unit(),
                        in_flight: 1,
                    });
                }
                self.cvar.notify_all();
            }
            match st.phase {
                Phase::Grid => {
                    if st.profiles.iter().all(|p| p.is_some()) {
                        let profiles: Vec<Vec<Vec<usize>>> = st
                            .profiles
                            .iter()
                            .map(|p| p.clone().expect("all some"))
                            .collect();
                        let rep = render_sweep_report(game, types, conf, self.units, &profiles);
                        if let ConformanceVerdict::Violated(w) = &rep.verdict {
                            st.witness = Some(WitnessLease {
                                unit: w.unit,
                                run: w.run,
                                expect: w.deviant_profile.clone(),
                                tries: 0,
                            });
                            st.ledger.enqueue(self.witness_id());
                            st.phase = Phase::Witness;
                        } else {
                            st.phase = Phase::Drain;
                        }
                        report = Some(rep);
                        self.cvar.notify_all();
                    }
                }
                Phase::Witness => {
                    if st.witness_ok {
                        st.phase = Phase::Drain;
                        self.cvar.notify_all();
                    }
                }
                Phase::Drain => {}
            }
            if st.phase == Phase::Drain {
                return report.expect("drain is only reached after the report renders");
            }
            // Sleep until the earliest lease could lapse; completions
            // notify the Condvar, so the timeout only bounds expiry
            // latency.
            let wait = st
                .ledger
                .next_due()
                .map(|due| due.saturating_sub(now))
                .unwrap_or(1000)
                .clamp(1, 1000);
            let _ = self
                .cvar
                .wait_timeout(st, Duration::from_millis(wait))
                .expect("coordinator state poisoned");
        }
    }
}

impl CoordState {
    /// Counts a stray frame nobody asked for (same accounting bucket as
    /// the ledger's late-duplicate results).
    fn discard(&mut self) {
        self.ledger.discarded += 1;
    }
}

/// Runs a sharded conformance sweep as its coordinator: decomposes the
/// sweep into leasable units, serves workers arriving on `listener`, and
/// renders the verdict from their results.
///
/// The returned report is **bit-identical** to
/// `conf`'s local sweep of the same `(plan, game, types)` — the same
/// profiles flow through the same float pipeline — regardless of worker
/// count, scheduling, or how many leases were reclaimed along the way.
/// The [`ShardLog`] carries the typed failures and release/discard
/// accounting.
pub fn coordinate<F: GameFamily>(
    listener: &ShardListener,
    plan: &Plan<F>,
    game: &BayesianGame,
    types: &[usize],
    conf: &Conformance,
    cfg: &ShardConfig,
) -> (ConformanceReport, ShardLog) {
    let units = sweep_units(plan, conf);
    let grid_units = units.len();
    let runs_per_unit =
        conf.resolved_battery(plan.players()).len() * conf.seeds_per_kind() as usize;
    let mut ledger = LeaseLedger::new();
    for id in 0..grid_units as u64 {
        ledger.enqueue(id);
    }
    let coord = Coord {
        state: Mutex::new(CoordState {
            ledger,
            profiles: vec![None; grid_units],
            phase: Phase::Grid,
            witness: None,
            witness_ok: false,
            failures: Vec::new(),
            workers: BTreeSet::new(),
            seqs: BTreeMap::new(),
        }),
        cvar: Condvar::new(),
        conns: Mutex::new(Vec::new()),
        units: &units,
        grid_units,
        runs_per_unit,
        players: plan.players(),
        start: Instant::now(),
        deadline: cfg.lease_deadline.as_millis().max(1) as u64,
        auth: cfg.auth.as_ref(),
    };
    let report = std::thread::scope(|s| {
        let coord = &coord;
        s.spawn(move || {
            let mut conn = 0u64;
            while let Some(((tx, rx), close)) = listener.accept() {
                conn += 1;
                let slot = Arc::new(Mutex::new(ConnSlot {
                    tx: Some(tx),
                    close,
                }));
                coord
                    .conns
                    .lock()
                    .expect("conn registry poisoned")
                    .push(Arc::clone(&slot));
                s.spawn(move || coord.handle(slot, rx, conn));
            }
        });
        let report = coord.drive(game, types, conf);
        // Drain reached: wake the accept loop, then broadcast the drain
        // frame on every live connection and tear it down from this side
        // — a worker that stopped requesting (muted, hostile, wedged)
        // still hears the drain, and its handler cannot pin the scope.
        listener.unblock();
        for slot in coord
            .conns
            .lock()
            .expect("conn registry poisoned")
            .drain(..)
        {
            let mut slot = slot.lock().expect("conn slot poisoned");
            slot.send(&Frame::ShardDrain);
            slot.tx = None;
            if let Some(close) = slot.close.take() {
                close();
            }
        }
        report
    });
    let st = coord
        .state
        .into_inner()
        .expect("coordinator state poisoned");
    let log = ShardLog {
        failures: st.failures,
        releases: st.ledger.releases,
        discarded: st.ledger.discarded,
        units: grid_units,
        workers: st.workers.len(),
        witness_reenacted: st.witness_ok,
    };
    (report, log)
}

/// The worker side: request leases, run granted units (whole grids or
/// single witness cells), ship results, and return the number of leases
/// served once drained.
pub fn run_worker<F: GameFamily>(
    mut tx: FramedTx<u64>,
    mut rx: FramedRx<u64>,
    worker: u64,
    plan: &Plan<F>,
    conf: &Conformance,
    cfg: &ShardConfig,
) -> Result<u64, NetError> {
    let mut served = 0u64;
    let mut seq = 0u64;
    tx.send(&Frame::ShardRequest { worker })?;
    loop {
        match rx.recv()? {
            Frame::ShardGrant {
                unit,
                strategy,
                coalition,
                run,
            } => {
                let recipe = SweepUnit {
                    strategy,
                    coalition,
                };
                // A grant naming a strategy this plan cannot generate is
                // a coordinator/worker version mismatch (or a hostile
                // coordinator): refuse with a typed error, never panic on
                // wire input.
                let unknown = NetError::Rejected {
                    session: unit,
                    reason: RejectReason::UnknownSession,
                };
                match run {
                    None => {
                        let profiles = run_sweep_unit(plan, &recipe, conf).ok_or(unknown)?;
                        let mut frame = Frame::ShardResult {
                            unit,
                            worker,
                            profiles,
                            auth: cfg.auth.as_ref().map(|_| AuthTag { seq, mac: [0; 8] }),
                        };
                        if let Some(key) = &cfg.auth {
                            frame.seal(key);
                            seq += 1;
                        }
                        tx.send(&frame)?;
                    }
                    Some(r) => {
                        let (kind, seed, outcome, profile) =
                            run_sweep_cell(plan, &recipe, conf, r as usize).ok_or(unknown)?;
                        // Record before replying: the witness trace must
                        // be durable by the time the coordinator counts
                        // the re-enactment as done.
                        if let Some(sink) = &cfg.sink {
                            sink.record(&RunMeta::cell(unit, kind, seed), &outcome);
                        }
                        tx.send(&Frame::ShardWitness {
                            unit,
                            run: r,
                            profile,
                        })?;
                    }
                }
                served += 1;
                tx.send(&Frame::ShardRequest { worker })?;
            }
            Frame::ShardDrain => return Ok(served),
            // Anything else never travels coordinator → worker in
            // well-formed traffic; tolerate strays.
            _ => {}
        }
    }
}

/// Dials the coordinator's in-memory hub and serves as worker `worker`.
pub fn worker_mem<F: GameFamily>(
    hub: &MemTransport,
    worker: u64,
    plan: &Plan<F>,
    conf: &Conformance,
    cfg: &ShardConfig,
) -> Result<u64, NetError> {
    let (tx, rx) = hub.connect::<u64>();
    run_worker(tx, rx, worker, plan, conf, cfg)
}

/// Dials the coordinator's TCP listener and serves as worker `worker`.
fn worker_tcp<F: GameFamily>(
    addr: SocketAddr,
    worker: u64,
    plan: &Plan<F>,
    conf: &Conformance,
    cfg: &ShardConfig,
) -> Result<u64, NetError> {
    let (tx, rx) = TcpTransport::connect::<u64>(addr)?;
    run_worker(tx, rx, worker, plan, conf, cfg)
}

/// The one-call sharded sweep: `Conformance::sharded(...)` spawns `n`
/// in-process workers over the chosen transport and coordinates them,
/// returning the (bit-identical) report plus the shard log.
pub trait ShardedSweep {
    /// Runs this conformance sweep sharded over `n` workers.
    fn sharded<F: GameFamily>(
        &self,
        plan: &Plan<F>,
        game: &BayesianGame,
        types: &[usize],
        n: usize,
        transport: TransportKind,
        cfg: &ShardConfig,
    ) -> (ConformanceReport, ShardLog);
}

impl ShardedSweep for Conformance {
    fn sharded<F: GameFamily>(
        &self,
        plan: &Plan<F>,
        game: &BayesianGame,
        types: &[usize],
        n: usize,
        transport: TransportKind,
        cfg: &ShardConfig,
    ) -> (ConformanceReport, ShardLog) {
        assert!(n >= 1, "a sharded sweep needs at least one worker");
        match transport {
            TransportKind::Mem => {
                let hub = MemTransport::new();
                let listener = ShardListener::mem(&hub);
                std::thread::scope(|s| {
                    for w in 0..n {
                        let hub = hub.clone();
                        s.spawn(move || {
                            // Worker-side failures surface coordinator-
                            // side as typed ShardLog entries.
                            let _ = worker_mem(&hub, w as u64, plan, self, cfg);
                        });
                    }
                    coordinate(&listener, plan, game, types, self, cfg)
                })
            }
            TransportKind::Tcp => {
                let listener = ShardListener::tcp().expect("loopback bind");
                let addr = listener.addr().expect("tcp listener has an address");
                std::thread::scope(|s| {
                    for w in 0..n {
                        s.spawn(move || {
                            let _ = worker_tcp(addr, w as u64, plan, self, cfg);
                        });
                    }
                    coordinate(&listener, plan, game, types, self, cfg)
                })
            }
        }
    }
}
