//! The Byzantine-relay battery: wire-level tampering as an injectable
//! fault.
//!
//! PR 4's adversary plane deviates *processes* — a Byzantine player lies
//! in its openings, equivocates, goes silent. This module deviates the
//! **network**: its relay mirrors the content-blind `bulk_relay`
//! (one raw byte stream, many sessions, echo every `Msg`) but applies
//! [`WireTactic`]s to the frames of one *target session*, scheduled over
//! frame-counter [`Window`]s — the same combinator grammar the adversary
//! DSL uses for send-counter windows, pointed at the transport.
//!
//! The battery exists to demonstrate both halves of the channel
//! assumption (DESIGN.md §10):
//!
//! * **Without authentication** a rewriting relay flips cheap-talk
//!   outcomes at paper-valid `n` — the paper's theorems assume reliable
//!   private channels, and a hostile relay violates exactly that.
//! * **With authentication** ([`ServiceConfig::auth`]) every
//!   content-changing tactic is detected at the frame it touches: the
//!   target session aborts with a typed
//!   [`crate::NetError::AuthFailure`], and honest
//!   sessions multiplexed on the *same* hostile connection complete
//!   unaffected.
//!
//! Reorder and delay are deliberately *not* detectable: they are delivery
//! orders the asynchronous model already allows (any schedule is legal),
//! so an authenticated run under them must complete with an unchanged
//! outcome kind — the battery's negative control. Selective drop is
//! detectable by nobody (a withheld frame looks like a slow network) and
//! surfaces as the usual `IdleTimeout` in both modes.
//!
//! [`ServiceConfig::auth`]: crate::ServiceConfig
//! [`Window`]: mediator_core::adversary::Window

use crate::frame::{Frame, NetError, OutcomeSummary, RejectReason, SessionId, PREFIX_LEN};
use crate::service::{Service, ServiceConfig};
use crate::transport::{FrameBuf, MemTransport, TcpTransport};
use crate::wire::{CodecError, Reader, Wire, WIRE_VERSION, WIRE_VERSION_AUTH};
use mediator_core::adversary::{TamperableMsg, Window};
use mediator_core::scenario::{GameFamily, Plan};
use mediator_sim::{Outcome, SchedulerKind};
use std::collections::HashSet;
use std::io::{Read, Write};

/// One wire-level deviation, applied to a target-session `Msg` frame
/// whose per-session arrival index falls in the tactic's [`Window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireTactic {
    /// Swallow the frame (selective drop): undetectable by any MAC,
    /// surfaces as `IdleTimeout` — the model's "slow network" twin.
    Drop,
    /// Hold the frame until the target counter reaches `release_at`,
    /// then echo it late. Scheduler-legal: must not flip outcomes.
    Delay {
        /// Target-session frame index at which the held frame is freed.
        release_at: u64,
    },
    /// Buffer up to `depth` frames and echo them in reverse order.
    /// Scheduler-legal: must not flip outcomes, with or without MACs.
    Reorder {
        /// Frames buffered before the reversed flush.
        depth: usize,
    },
    /// Echo the frame twice. The duplicate replays an already-consumed
    /// sequence number — detected as `Replayed` under authentication;
    /// combined with a later [`WireTactic::Drop`] window it is the
    /// classic splice attack (substitute a stale message for a fresh
    /// one) that flips outcomes on plain channels.
    Replay,
    /// Decode the frame, apply the protocol-aware corruption
    /// ([`TamperableMsg::corrupt`] — the adversary plane's lie-in-the-
    /// openings primitive), re-encode, echo. The attack the paper's
    /// private-channel assumption exists to exclude.
    Rewrite {
        /// Additive field offset handed to [`TamperableMsg::corrupt`].
        offset: u64,
    },
    /// Decode the frame and rotate its destination header to the next
    /// player, re-encode, echo — a routing lie rather than a payload lie.
    Redirect,
    /// Echo the frame with `cut` trailing bytes removed (length prefix
    /// rewritten to match): stream damage rather than a content lie.
    Truncate {
        /// Bytes removed from the end of the frame body.
        cut: usize,
    },
    /// Decode an authenticated frame and re-encode it *without* its MAC
    /// trailer — the downgrade attack. Meaningless on plain channels;
    /// detected as `Downgrade` on authenticated ones.
    Strip,
}

/// Which sessions the tampering relay attacks, and how: tactics are tried
/// in order against each target-session frame's arrival index, first
/// matching window wins. Frames of other sessions are echoed verbatim —
/// the honest-neighbor contrast is the point of the paired suite.
#[derive(Debug, Clone)]
pub struct TamperPlan {
    /// The session whose frames are tampered with.
    pub target: SessionId,
    /// `(window, tactic)` pairs over the target's frame counter.
    pub tactics: Vec<(Window, WireTactic)>,
}

impl TamperPlan {
    /// A plan against `target` with no tactics (echoes everything).
    pub fn against(target: SessionId) -> Self {
        TamperPlan {
            target,
            tactics: Vec::new(),
        }
    }

    /// Adds a tactic over `window` (builder style).
    pub fn tactic(mut self, window: Window, tactic: WireTactic) -> Self {
        self.tactics.push((window, tactic));
        self
    }
}

/// What a tampering relay saw: the outcomes and aborts it collected, the
/// typed rejections the service sent it, and how many frames it touched.
#[derive(Debug, Clone)]
pub struct TamperReport {
    /// Sessions that announced an outcome, with their summaries.
    pub outcomes: Vec<(SessionId, OutcomeSummary)>,
    /// Sessions the service aborted (the expected fate of a tampered
    /// session on an authenticated service).
    pub aborted: Vec<SessionId>,
    /// Typed `Reject`s received — `TamperDetected` is the service
    /// telling this relay it was caught.
    pub rejections: Vec<(SessionId, RejectReason)>,
    /// Frames a tactic touched (dropped, held, duplicated, or mutated).
    pub tampered: u64,
}

/// A multi-session relay that misbehaves: attaches every `(session,
/// player)` pair, echoes frames like `bulk_relay`, but runs `plan`'s
/// tactics against the target session's frames. Returns once `expected`
/// sessions have resolved (outcome *or* abort — a tampered session's
/// abort is a resolution here, not an error, because observing the
/// paired fates is the battery's job).
fn tamper_relay<M, R, W>(
    mut rx: R,
    mut tx: W,
    attaches: &[(SessionId, usize)],
    expected: usize,
    plan: &TamperPlan,
) -> Result<TamperReport, NetError>
where
    M: Wire + TamperableMsg,
    R: Read,
    W: Write,
{
    // World size of the target session (for Redirect's rotation).
    let players = attaches
        .iter()
        .filter(|(sid, _)| *sid == plan.target)
        .map(|&(_, p)| p + 1)
        .max()
        .unwrap_or(1);

    let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    for &(session, player) in attaches {
        let start = wbuf.len();
        wbuf.extend_from_slice(&[0u8; 4]);
        wbuf.push(WIRE_VERSION);
        wbuf.push(0);
        session.encode(&mut wbuf);
        player.encode(&mut wbuf);
        let len = (wbuf.len() - start - 4) as u32;
        wbuf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }
    tx.write_all(&wbuf)?;
    tx.flush()?;
    wbuf.clear();

    let mut report = TamperReport {
        outcomes: Vec::new(),
        aborted: Vec::new(),
        rejections: Vec::new(),
        tampered: 0,
    };
    let mut resolved: HashSet<SessionId> = HashSet::new();
    let mut counter: u64 = 0;
    // Frames held by Delay (release index) and Reorder (flush buffer).
    let mut delayed: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut reorder: Vec<Vec<u8>> = Vec::new();

    let mut inbound = FrameBuf::new();
    loop {
        inbound.read_from(&mut rx)?;

        while let Some(framed) = inbound.next_frame()? {
            let body = &framed[PREFIX_LEN..];
            if body.len() < 2 {
                return Err(CodecError::Truncated.into());
            }
            if body[0] != WIRE_VERSION && body[0] != WIRE_VERSION_AUTH {
                return Err(CodecError::UnknownVersion(body[0]).into());
            }
            match body[1] {
                1 => {
                    // Session id sits at byte 2 in both wire versions.
                    let session = Reader::new(&body[2..]).varint()?;
                    if session != plan.target {
                        wbuf.extend_from_slice(framed);
                    } else {
                        let i = counter;
                        counter += 1;
                        let tactic = plan
                            .tactics
                            .iter()
                            .find(|(w, _)| w.contains(i))
                            .map(|&(_, t)| t);
                        // A non-reorder frame flushes any reorder buffer
                        // first (the window closed), reversed.
                        if !matches!(tactic, Some(WireTactic::Reorder { .. })) {
                            for held in reorder.drain(..).rev() {
                                wbuf.extend_from_slice(&held);
                            }
                        }
                        match tactic {
                            None => wbuf.extend_from_slice(framed),
                            Some(WireTactic::Drop) => report.tampered += 1,
                            Some(WireTactic::Delay { release_at }) => {
                                report.tampered += 1;
                                delayed.push((release_at, framed.to_vec()));
                            }
                            Some(WireTactic::Reorder { depth }) => {
                                report.tampered += 1;
                                reorder.push(framed.to_vec());
                                if reorder.len() >= depth {
                                    for held in reorder.drain(..).rev() {
                                        wbuf.extend_from_slice(&held);
                                    }
                                }
                            }
                            Some(WireTactic::Replay) => {
                                report.tampered += 1;
                                wbuf.extend_from_slice(framed);
                                wbuf.extend_from_slice(framed);
                            }
                            Some(WireTactic::Rewrite { offset }) => {
                                report.tampered += 1;
                                let frame = Frame::<M>::decode_body(body)?;
                                if let Frame::Msg {
                                    session,
                                    src,
                                    dst,
                                    msg,
                                    auth,
                                } = frame
                                {
                                    Frame::Msg {
                                        session,
                                        src,
                                        dst,
                                        msg: msg.corrupt(offset),
                                        auth,
                                    }
                                    .encode_framed(&mut wbuf);
                                }
                            }
                            Some(WireTactic::Redirect) => {
                                report.tampered += 1;
                                let frame = Frame::<M>::decode_body(body)?;
                                if let Frame::Msg {
                                    session,
                                    src,
                                    dst,
                                    msg,
                                    auth,
                                } = frame
                                {
                                    Frame::Msg {
                                        session,
                                        src,
                                        dst: (dst + 1) % players,
                                        msg,
                                        auth,
                                    }
                                    .encode_framed(&mut wbuf);
                                }
                            }
                            Some(WireTactic::Truncate { cut }) => {
                                report.tampered += 1;
                                let keep = body.len().saturating_sub(cut).max(2);
                                let start = wbuf.len();
                                wbuf.extend_from_slice(&(keep as u32).to_le_bytes());
                                wbuf.extend_from_slice(&body[..keep]);
                                debug_assert_eq!(wbuf.len() - start, 4 + keep);
                            }
                            Some(WireTactic::Strip) => {
                                report.tampered += 1;
                                let frame = Frame::<M>::decode_body(body)?;
                                if let Frame::Msg {
                                    session,
                                    src,
                                    dst,
                                    msg,
                                    ..
                                } = frame
                                {
                                    Frame::Msg {
                                        session,
                                        src,
                                        dst,
                                        msg,
                                        auth: None,
                                    }
                                    .encode_framed(&mut wbuf);
                                }
                            }
                        }
                        // Free any delayed frames whose release index has
                        // arrived.
                        let due = counter;
                        let mut j = 0;
                        while j < delayed.len() {
                            if delayed[j].0 <= due {
                                let (_, bytes) = delayed.swap_remove(j);
                                wbuf.extend_from_slice(&bytes);
                            } else {
                                j += 1;
                            }
                        }
                    }
                }
                2 => {
                    let mut r = Reader::new(&body[2..]);
                    let session = u64::decode(&mut r)?;
                    let summary = OutcomeSummary::decode(&mut r)?;
                    r.finish()?;
                    report.outcomes.push((session, summary));
                    resolved.insert(session);
                    if session == plan.target {
                        delayed.clear();
                        reorder.clear();
                    }
                }
                3 => {
                    let mut r = Reader::new(&body[2..]);
                    let session = u64::decode(&mut r)?;
                    let reason = RejectReason::decode(&mut r)?;
                    r.finish()?;
                    report.rejections.push((session, reason));
                }
                4 => {
                    let mut r = Reader::new(&body[2..]);
                    let session = u64::decode(&mut r)?;
                    r.finish()?;
                    report.aborted.push(session);
                    resolved.insert(session);
                    if session == plan.target {
                        delayed.clear();
                        reorder.clear();
                    }
                }
                0 => {}
                tag => return Err(CodecError::UnknownTag { what: "Frame", tag }.into()),
            }
        }
        if !wbuf.is_empty() {
            tx.write_all(&wbuf)?;
            tx.flush()?;
            wbuf.clear();
        }
        if resolved.len() >= expected {
            return Ok(report);
        }
    }
}

// ---------------------------------------------------------------------------
// The paired-run harness
// ---------------------------------------------------------------------------

/// Which transport a paired tamper run crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory duplex pipes through a [`MemTransport`] hub.
    Mem,
    /// Real sockets over TCP loopback (ephemeral port).
    Tcp,
}

/// The session id [`run_tampered_pair`] tampers with.
pub const TARGET_SID: SessionId = 1;
/// The honest session multiplexed on the same hostile connection.
pub const HONEST_SID: SessionId = 2;

/// What a paired run produced: the tampered target's fate, the honest
/// neighbor's fate, and the relay's own report.
#[derive(Debug)]
pub struct TamperedPair {
    /// The tampered session's result as the host saw it.
    pub target: Result<Outcome, NetError>,
    /// The honest session's result — the blast-radius probe: under
    /// authentication it must complete untouched.
    pub honest: Result<Outcome, NetError>,
    /// The tampering relay's own view.
    pub relay: Result<TamperReport, NetError>,
}

/// Runs the canonical paired cell: two sessions of `plan` (ids
/// [`TARGET_SID`] and [`HONEST_SID`]) hosted on one service, every player
/// of both relayed over **one** tampering connection that attacks
/// only the target. The contrast between `target` and `honest` fates —
/// across transports and `cfg.auth` — is the paired conformance suite's
/// entire subject.
pub fn run_tampered_pair<F>(
    plan: &Plan<F>,
    transport: TransportKind,
    cfg: ServiceConfig,
    tamper: TamperPlan,
    kind: SchedulerKind,
    seed: u64,
) -> TamperedPair
where
    F: GameFamily,
    F::Msg: Wire + TamperableMsg,
{
    let n = plan.processes();
    let attaches: Vec<(SessionId, usize)> = [TARGET_SID, HONEST_SID]
        .into_iter()
        .flat_map(|sid| (0..n).map(move |p| (sid, p)))
        .collect();

    let host = |service: &Service<F::Msg>, sid: SessionId| {
        let plan = plan.clone();
        let k = kind.clone();
        service.host(sid, n, move || plan.session_with(&k, seed))
    };

    match transport {
        TransportKind::Mem => {
            let hub = MemTransport::new();
            let service = Service::with_config(Box::new(hub.listener()), cfg);
            let target = host(&service, TARGET_SID);
            let honest = host(&service, HONEST_SID);
            let (tx, rx) = hub.connect_raw();
            let relay = std::thread::spawn(move || {
                tamper_relay::<F::Msg, _, _>(rx, tx, &attaches, 2, &tamper)
            });
            let pair = TamperedPair {
                target: target.outcome(),
                honest: honest.outcome(),
                relay: relay.join().expect("tamper relay panicked"),
            };
            service.shutdown();
            pair
        }
        TransportKind::Tcp => {
            let listener = TcpTransport::bind_loopback().expect("bind loopback");
            let addr = listener.addr();
            let service = Service::with_config(Box::new(listener), cfg);
            let target = host(&service, TARGET_SID);
            let honest = host(&service, HONEST_SID);
            let relay = std::thread::spawn(move || {
                let sock = std::net::TcpStream::connect(addr)?;
                sock.set_nodelay(true).ok();
                let rx = sock.try_clone()?;
                tamper_relay::<F::Msg, _, _>(rx, sock, &attaches, 2, &tamper)
            });
            let pair = TamperedPair {
                target: target.outcome(),
                honest: honest.outcome(),
                relay: relay.join().expect("tamper relay panicked"),
            };
            service.shutdown();
            pair
        }
    }
}
