//! The Byzantine-relay battery: wire-level tampering as an injectable
//! fault.
//!
//! PR 4's adversary plane deviates *processes* — a Byzantine player lies
//! in its openings, equivocates, goes silent. This module deviates the
//! **network**: its relay runs the content-blind loop every relay shares
//! (one raw byte stream, many sessions, echo every `Msg`) with
//! [`WireTactic`]s as its hook for the frames of one *target session*,
//! scheduled over frame-counter [`Window`]s — the same combinator grammar
//! the adversary DSL uses for send-counter windows, pointed at the
//! transport.
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

use crate::client::{relay_loop, Relayed};
use crate::frame::{
    decode_msg, encode_msg, msg_session, put_framed, Frame, NetError, OutcomeSummary, RejectReason,
    SessionId, PREFIX_LEN,
};
use crate::readiness::NbListener;
use crate::service::{Service, ServiceConfig};
use crate::transport::{FrameBuf, MemTransport, TcpTransport};
use crate::wire::Wire;
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

/// A multi-session relay that misbehaves: the [`bulk_relay`] loop, with
/// `plan`'s tactics as its hook for the target session's `Msg` frames.
/// Returns once `expected` sessions have resolved (outcome *or* abort — a
/// tampered session's abort is a resolution here, not an error, because
/// observing the paired fates is the battery's job).
///
/// [`bulk_relay`]: crate::bulk_relay
fn tamper_relay<M, R, W>(
    rx: R,
    tx: W,
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

    relay_loop::<M, _, _>(rx, FrameBuf::new(), tx, attaches, expected, |frame, out| {
        let framed = match frame {
            Relayed::Msg(framed) => framed,
            Relayed::Control(control) => {
                let session = match control {
                    Frame::Outcome { session, summary } => {
                        report.outcomes.push((session, summary));
                        session
                    }
                    Frame::Abort { session } => {
                        report.aborted.push(session);
                        session
                    }
                    Frame::Reject { session, reason } => {
                        report.rejections.push((session, reason));
                        return Ok(false);
                    }
                    _ => return Ok(false),
                };
                if session == plan.target {
                    delayed.clear();
                    reorder.clear();
                }
                return Ok(resolved.insert(session));
            }
        };
        let body = &framed[PREFIX_LEN..];
        if msg_session(body)? != plan.target {
            out.extend_from_slice(framed);
            return Ok(false);
        }
        let i = counter;
        counter += 1;
        let tactic = plan
            .tactics
            .iter()
            .find(|(w, _)| w.contains(i))
            .map(|&(_, t)| t);
        // A non-reorder frame flushes any reorder buffer first (the
        // window closed), reversed.
        if !matches!(tactic, Some(WireTactic::Reorder { .. })) {
            for held in reorder.drain(..).rev() {
                out.extend_from_slice(&held);
            }
        }
        if tactic.is_some() {
            report.tampered += 1;
        }
        match tactic {
            None => out.extend_from_slice(framed),
            Some(WireTactic::Drop) => {}
            Some(WireTactic::Delay { release_at }) => delayed.push((release_at, framed.to_vec())),
            Some(WireTactic::Reorder { depth }) => {
                reorder.push(framed.to_vec());
                if reorder.len() >= depth {
                    for held in reorder.drain(..).rev() {
                        out.extend_from_slice(&held);
                    }
                }
            }
            Some(WireTactic::Replay) => {
                out.extend_from_slice(framed);
                out.extend_from_slice(framed);
            }
            Some(WireTactic::Truncate { cut }) => {
                let keep = body.len().saturating_sub(cut).max(2);
                out.extend_from_slice(&(keep as u32).to_le_bytes());
                out.extend_from_slice(&body[..keep]);
            }
            // The content lies: decode, edit one field, re-encode.
            Some(
                edit @ (WireTactic::Rewrite { .. } | WireTactic::Redirect | WireTactic::Strip),
            ) => {
                let (session, src, mut dst, mut auth, mut msg) = decode_msg::<M>(body)?;
                match edit {
                    WireTactic::Rewrite { offset } => msg = msg.corrupt(offset),
                    WireTactic::Redirect => dst = (dst + 1) % players,
                    _ => auth = None,
                }
                put_framed(out, |out| encode_msg(out, session, src, dst, auth, &msg));
            }
        }
        // Free any delayed frames whose release index has arrived.
        let mut j = 0;
        while j < delayed.len() {
            if delayed[j].0 <= counter {
                let (_, bytes) = delayed.swap_remove(j);
                out.extend_from_slice(&bytes);
            } else {
                j += 1;
            }
        }
        Ok(false)
    })?;
    Ok(report)
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

    // The relay dials the hub, or the loopback address when there is one.
    let hub = MemTransport::new();
    let (listener, addr): (Box<dyn NbListener>, _) = match transport {
        TransportKind::Mem => (Box::new(hub.listener()), None),
        TransportKind::Tcp => {
            let tcp = TcpTransport::bind_loopback().expect("bind loopback");
            let addr = tcp.addr();
            (Box::new(tcp), Some(addr))
        }
    };
    let service = Service::with_config(listener, cfg);
    let target = host(&service, TARGET_SID);
    let honest = host(&service, HONEST_SID);
    let relay = std::thread::spawn(move || {
        let (rx, tx): (Box<dyn Read>, Box<dyn Write>) = match addr {
            None => {
                let (tx, rx) = hub.connect_raw();
                (Box::new(rx), Box::new(tx))
            }
            Some(addr) => {
                let sock = std::net::TcpStream::connect(addr)?;
                sock.set_nodelay(true).ok();
                (Box::new(sock.try_clone()?), Box::new(sock))
            }
        };
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
