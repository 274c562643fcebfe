//! Frames: the unit the transport plane moves.
//!
//! A frame travels length-prefixed on the byte stream:
//!
//! ```text
//! ┌───────────────┬─────────────┬──────────┬─────────────────────────┐
//! │ len: u32 LE   │ version: u8 │ kind: u8 │ payload (kind-specific) │
//! └───────────────┴─────────────┴──────────┴─────────────────────────┘
//!                 └──────────────── len bytes ──────────────────────┘
//! ```
//!
//! `len` counts the body (version byte included, itself excluded) and is
//! capped at [`MAX_FRAME_LEN`]; a larger announcement is rejected before
//! any read is attempted ([`CodecError::LengthOverrun`]). The version byte
//! is checked before the kind tag, so a decoder never misparses a frame
//! from a future format. Kind tags and payload layouts are tabulated in
//! DESIGN.md §9.

use crate::auth::{AuthKey, AuthTag, PairKey, TamperKind};
use crate::wire::{CodecError, Reader, Wire, WIRE_VERSION, WIRE_VERSION_AUTH};
use mediator_sim::{Outcome, TerminationKind};
use std::fmt;

/// Routing identifier of one hosted session.
pub type SessionId = u64;

/// A frame body cannot exceed 16 MiB. Protocol messages are a few KiB at
/// the largest (AVSS coefficient rows); anything bigger is a corrupted or
/// hostile length prefix and is rejected without allocating.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// Bytes of the `len u32 LE` prefix in front of every frame body.
pub const PREFIX_LEN: usize = 4;

/// One unit of transport-plane traffic, generic over the protocol message
/// type `M` (cheap-talk or mediator-game messages).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<M> {
    /// Client → service: claim `(session, player)`. A connection may
    /// attach any number of players (one relay per player or one relay
    /// for all of them — both are delivery orders the model allows).
    Attach {
        /// The session being joined.
        session: SessionId,
        /// The world process this connection will relay for.
        player: usize,
    },
    /// A protocol message in flight. Service → client: the message left
    /// `src`'s outbox and is now on the network leg toward `dst`.
    /// Client → service: the network leg completed; deliver to `dst`.
    Msg {
        /// The session the message belongs to.
        session: SessionId,
        /// Sending process.
        src: usize,
        /// Addressed process.
        dst: usize,
        /// The protocol payload.
        msg: M,
        /// The authentication trailer, present iff the frame travels
        /// under [`WIRE_VERSION_AUTH`]. Relays echo it verbatim (the
        /// decode → re-encode round trip is byte-identical); only the
        /// service can mint or verify it.
        auth: Option<AuthTag>,
    },
    /// Service → clients: the hosted session terminated; here is the
    /// result. Sent once per attached connection.
    Outcome {
        /// The finished session.
        session: SessionId,
        /// The run's result, minus the trace.
        summary: OutcomeSummary,
    },
    /// Service → client: a frame was refused (the connection stays up).
    Reject {
        /// The session the refused frame named.
        session: SessionId,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// Service → clients: the hosted session failed (attach timeout, a
    /// vanished relay, idle timeout) and will never produce an outcome —
    /// relays should stop waiting.
    Abort {
        /// The failed session.
        session: SessionId,
    },
    /// Worker → coordinator: ready for a lease. Sent once on connect and
    /// again after each result, so the coordinator paces grants to worker
    /// capacity (pull, not push).
    ShardRequest {
        /// Self-assigned worker id (unique per connection by convention;
        /// the coordinator keys leases on it for vanish reclaim).
        worker: u64,
    },
    /// Coordinator → worker: a lease on one sweep unit. The worker
    /// rebuilds the unit's plan from the `(strategy, coalition)` recipe —
    /// plans themselves never travel.
    ShardGrant {
        /// The leased unit id (index in `sweep_units` order).
        unit: u64,
        /// Generated strategy name; `None` leases the honest baseline.
        strategy: Option<String>,
        /// The deviating coalition (empty for the baseline).
        coalition: Vec<usize>,
        /// `None` leases the unit's whole grid (answer: `ShardResult`);
        /// `Some(r)` leases the single flat run `r` — the witness
        /// re-enactment path (answer: `ShardWitness`).
        run: Option<u64>,
    },
    /// Worker → coordinator: one completed unit's grid, as per-run
    /// resolved action profiles in kind-major, seed-minor order. The only
    /// shard frame that can travel authenticated ([`WIRE_VERSION_AUTH`]):
    /// its integrity decides a scientific verdict, where the lease
    /// control frames only pace work.
    ShardResult {
        /// The completed unit.
        unit: u64,
        /// The worker that ran it.
        worker: u64,
        /// Resolved action profile of every run in the unit's grid.
        profiles: Vec<Vec<usize>>,
        /// The authentication trailer, present iff the frame travels
        /// under [`WIRE_VERSION_AUTH`].
        auth: Option<AuthTag>,
    },
    /// Worker → coordinator: the re-enacted witness cell's resolved
    /// profile (reply to a single-run grant).
    ShardWitness {
        /// The unit the witness run belongs to.
        unit: u64,
        /// The flat run index re-enacted.
        run: u64,
        /// The run's resolved action profile.
        profile: Vec<usize>,
    },
    /// Coordinator → worker: the sweep is complete; drain and disconnect.
    ShardDrain,
}

/// Why the service refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No session with that id is hosted (or it already finished).
    UnknownSession,
    /// Another connection already relays for that player.
    PlayerTaken,
    /// The player id is outside the session's world.
    PlayerOutOfRange,
    /// The frame failed authentication (bad MAC, stripped trailer,
    /// replayed sequence number, or truncated trailer). Sent to the
    /// offending connection before the session aborts, so a tampering
    /// relay learns it was caught, with a typed reason.
    TamperDetected,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnknownSession => write!(f, "unknown session"),
            RejectReason::PlayerTaken => write!(f, "player already attached"),
            RejectReason::PlayerOutOfRange => write!(f, "player out of range"),
            RejectReason::TamperDetected => write!(f, "frame failed authentication"),
        }
    }
}

/// Everything in an [`Outcome`] except the trace: what the service
/// announces to attached clients when a session terminates. (The trace
/// stays server-side — it can be arbitrarily large, and the networked
/// trace is one delivery order among many anyway; see DESIGN.md §9.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeSummary {
    /// How the run ended.
    pub termination: TerminationKind,
    /// The move each process made, if any.
    pub moves: Vec<Option<u64>>,
    /// The will each process left, if any.
    pub wills: Vec<Option<u64>>,
    /// Which processes halted.
    pub halted: Vec<bool>,
    /// Messages sent during the run, as [`Outcome::messages_sent`] counts.
    pub messages_sent: u64,
    /// Messages delivered during the run.
    pub messages_delivered: u64,
    /// Events dispatched.
    pub steps: u64,
}

impl From<&Outcome> for OutcomeSummary {
    fn from(out: &Outcome) -> Self {
        OutcomeSummary {
            termination: out.termination,
            moves: out.moves.clone(),
            wills: out.wills.clone(),
            halted: out.halted.clone(),
            messages_sent: out.messages_sent,
            messages_delivered: out.messages_delivered,
            steps: out.steps,
        }
    }
}

impl Wire for OutcomeSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.termination.encode(out);
        self.moves.encode(out);
        self.wills.encode(out);
        self.halted.encode(out);
        self.messages_sent.encode(out);
        self.messages_delivered.encode(out);
        self.steps.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OutcomeSummary {
            termination: Wire::decode(r)?,
            moves: Wire::decode(r)?,
            wills: Wire::decode(r)?,
            halted: Wire::decode(r)?,
            messages_sent: Wire::decode(r)?,
            messages_delivered: Wire::decode(r)?,
            steps: Wire::decode(r)?,
        })
    }
}

impl Wire for RejectReason {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            RejectReason::UnknownSession => 0,
            RejectReason::PlayerTaken => 1,
            RejectReason::PlayerOutOfRange => 2,
            RejectReason::TamperDetected => 3,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(RejectReason::UnknownSession),
            1 => Ok(RejectReason::PlayerTaken),
            2 => Ok(RejectReason::PlayerOutOfRange),
            3 => Ok(RejectReason::TamperDetected),
            tag => Err(CodecError::UnknownTag {
                what: "RejectReason",
                tag,
            }),
        }
    }
}

impl<M: Wire> Frame<M> {
    /// Appends the frame as it travels: `len u32 LE`, then the body.
    pub fn encode_framed(&self, out: &mut Vec<u8>) {
        put_framed(out, |out| self.encode_body(out));
    }

    /// Encodes the frame *body* (version byte + kind + payload) — the
    /// length prefix is [`Frame::encode_framed`]'s job. A `Msg` goes
    /// through the one `Msg` encoder the service ships with.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        // `ShardResult` follows `encode_msg`'s trailer discipline:
        // [2][kind=7][unit][worker][seq][profiles][mac: 8 raw bytes].
        let auth = match self {
            Frame::Msg {
                session,
                src,
                dst,
                msg,
                auth,
            } => return encode_msg(out, *session, *src, *dst, *auth, msg),
            Frame::ShardResult { auth, .. } => auth.as_ref(),
            _ => None,
        };
        let seq = |out: &mut Vec<u8>| auth.iter().for_each(|tag| tag.seq.encode(out));
        out.push(auth.map_or(WIRE_VERSION, |_| WIRE_VERSION_AUTH));
        match self {
            Frame::Attach { session, player } => {
                out.push(0);
                session.encode(out);
                player.encode(out);
            }
            Frame::Msg { .. } => unreachable!("written by `encode_msg` above"),
            Frame::Outcome { session, summary } => {
                out.push(2);
                session.encode(out);
                summary.encode(out);
            }
            Frame::Reject { session, reason } => {
                out.push(3);
                session.encode(out);
                reason.encode(out);
            }
            Frame::Abort { session } => {
                out.push(4);
                session.encode(out);
            }
            Frame::ShardRequest { worker } => {
                out.push(5);
                worker.encode(out);
            }
            Frame::ShardGrant {
                unit,
                strategy,
                coalition,
                run,
            } => {
                out.push(6);
                unit.encode(out);
                strategy.encode(out);
                coalition.encode(out);
                run.encode(out);
            }
            Frame::ShardResult {
                unit,
                worker,
                profiles,
                auth: _,
            } => {
                out.push(7);
                unit.encode(out);
                worker.encode(out);
                seq(out);
                profiles.encode(out);
            }
            Frame::ShardWitness { unit, run, profile } => {
                out.push(8);
                unit.encode(out);
                run.encode(out);
                profile.encode(out);
            }
            Frame::ShardDrain => out.push(9),
        }
        if let Some(tag) = auth {
            out.extend_from_slice(&tag.mac);
        }
    }

    /// Decodes one frame body (as framed by `read_frame`): checks the
    /// version byte, then the kind tag, and insists the body is fully
    /// consumed.
    pub fn decode_body(body: &[u8]) -> Result<Self, CodecError> {
        if is_msg(body) {
            let (session, src, dst, auth, msg) = decode_msg(body)?;
            return Ok(Frame::Msg {
                session,
                src,
                dst,
                msg,
                auth,
            });
        }
        let mut r = Reader::new(body);
        let authed = match r.u8()? {
            WIRE_VERSION => false,
            WIRE_VERSION_AUTH => true,
            version => return Err(CodecError::UnknownVersion(version)),
        };
        // Authenticated layout: exactly `Msg` (read above) and
        // `ShardResult` travel under it — any other kind byte is malformed.
        // The tag's sequence number sits before the payload, its MAC after.
        let tag = r.u8()?;
        if authed && tag != 7 {
            return Err(CodecError::UnknownTag { what: "Frame", tag });
        }
        let seq = |r: &mut Reader<'_>| match authed {
            true => u64::decode(r).map(|seq| Some(AuthTag { seq, mac: [0; 8] })),
            false => Ok(None),
        };
        let mut frame = match tag {
            0 => Frame::Attach {
                session: Wire::decode(&mut r)?,
                player: Wire::decode(&mut r)?,
            },
            2 => Frame::Outcome {
                session: Wire::decode(&mut r)?,
                summary: Wire::decode(&mut r)?,
            },
            3 => Frame::Reject {
                session: Wire::decode(&mut r)?,
                reason: Wire::decode(&mut r)?,
            },
            4 => Frame::Abort {
                session: Wire::decode(&mut r)?,
            },
            5 => Frame::ShardRequest {
                worker: Wire::decode(&mut r)?,
            },
            6 => Frame::ShardGrant {
                unit: Wire::decode(&mut r)?,
                strategy: Wire::decode(&mut r)?,
                coalition: Wire::decode(&mut r)?,
                run: Wire::decode(&mut r)?,
            },
            7 => Frame::ShardResult {
                unit: Wire::decode(&mut r)?,
                worker: Wire::decode(&mut r)?,
                auth: seq(&mut r)?,
                profiles: Wire::decode(&mut r)?,
            },
            8 => Frame::ShardWitness {
                unit: Wire::decode(&mut r)?,
                run: Wire::decode(&mut r)?,
                profile: Wire::decode(&mut r)?,
            },
            9 => Frame::ShardDrain,
            tag => return Err(CodecError::UnknownTag { what: "Frame", tag }),
        };
        if let Some(tag) = frame.auth_mut() {
            tag.mac = r.bytes(8)?.try_into().expect("8 bytes");
        }
        r.finish()?;
        Ok(frame)
    }

    /// Seals an authenticable frame under `key`: encodes the
    /// authenticated body into a scratch buffer, seals it there
    /// (`seal_in_place`), and copies the tag into the frame. `Msg` MACs
    /// under its `(session, src, dst)` domain; `ShardResult` under
    /// `(unit, worker, SHARD_COORD)` — the
    /// differing kind byte inside the MAC'd prefix keeps the two domains
    /// disjoint even on colliding ids. The frame must already carry an
    /// [`AuthTag`] (the ship path assigns the sequence number); no-op for
    /// any other frame.
    pub fn seal(&mut self, key: &AuthKey) {
        let domain = match self {
            Frame::Msg {
                session, src, dst, ..
            } => (*session, *src, *dst),
            Frame::ShardResult { unit, worker, .. } => (*unit, *worker as usize, SHARD_COORD),
            _ => return,
        };
        let mut body = Vec::with_capacity(64);
        self.encode_body(&mut body);
        if body.first() != Some(&WIRE_VERSION_AUTH) {
            return; // no trailer to seal
        }
        let mac = seal_in_place(&mut body, &key.pair_key(domain.0, domain.1, domain.2));
        if let Some(tag) = self.auth_mut() {
            tag.mac = mac;
        }
    }

    /// The tag of an authenticated frame.
    fn auth_mut(&mut self) -> Option<&mut AuthTag> {
        match self {
            Frame::Msg { auth, .. } | Frame::ShardResult { auth, .. } => auth.as_mut(),
            _ => None,
        }
    }
}

/// Appends `len u32 LE`, then the body `body` writes: the one framer every
/// sender shares (blocking halves, the reactor's out-buffers, the tamper
/// battery), so a burst of frames is one contiguous buffer and one `write`.
pub(crate) fn put_framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; PREFIX_LEN]);
    body(out);
    let len = (out.len() - start - PREFIX_LEN) as u32;
    debug_assert!(len <= MAX_FRAME_LEN);
    out[start..start + PREFIX_LEN].copy_from_slice(&len.to_le_bytes());
}

/// The one `Msg` encoder, which [`Frame::encode_body`], the service's ship
/// path and the tamper battery share, so shipping builds no [`Frame`]. A
/// `Msg` carrying an [`AuthTag`] encodes under [`WIRE_VERSION_AUTH`]:
///
/// ```text
/// [2][kind=1][session][src][dst][seq][msg][mac: 8 raw bytes]
/// ```
///
/// so the layout is a strict extension of version 1 (kind stays at byte
/// 1, session at byte 2 — content-blind relays parse both the same way)
/// and a decode → re-encode round trip is byte-identical, which is what
/// lets typed relays echo authenticated frames without holding any key.
/// `ship` passes a zero MAC and seals the bytes it queued.
pub(crate) fn encode_msg<M: Wire>(
    out: &mut Vec<u8>,
    session: SessionId,
    src: usize,
    dst: usize,
    auth: Option<AuthTag>,
    msg: &M,
) {
    out.extend_from_slice(&[auth.map_or(WIRE_VERSION, |_| WIRE_VERSION_AUTH), 1]);
    session.encode(out);
    src.encode(out);
    dst.encode(out);
    auth.iter().for_each(|tag| tag.seq.encode(out));
    msg.encode(out);
    auth.iter().for_each(|tag| out.extend_from_slice(&tag.mac));
}

/// The one `Msg` decoder, over a body that passed [`is_msg`]:
/// [`Frame::decode_body`], the reactor and the tamper battery read a `Msg`
/// through it, so the reactor builds no [`Frame`] per frame.
pub(crate) fn decode_msg<M: Wire>(
    body: &[u8],
) -> Result<(SessionId, usize, usize, Option<AuthTag>, M), CodecError> {
    let mut r = Reader::new(body);
    let authed = r.bytes(2)? == [WIRE_VERSION_AUTH, 1];
    let session = u64::decode(&mut r)?;
    let (src, dst) = (usize::decode(&mut r)?, usize::decode(&mut r)?);
    let seq = authed.then(|| u64::decode(&mut r)).transpose()?;
    let msg = M::decode(&mut r)?;
    let auth = match seq {
        Some(seq) => Some(AuthTag {
            seq,
            mac: r.bytes(MAC_LEN)?.try_into().expect("MAC_LEN bytes"),
        }),
        None => None,
    };
    r.finish()?;
    Ok((session, src, dst, auth, msg))
}

/// Bytes of the MAC trailer every authenticated body ends with.
pub(crate) const MAC_LEN: usize = 8;

/// The one sealing step: MACs an authenticated body's prefix (everything
/// before the trailer) under `key` and writes the tag into the trailer.
/// The service runs it on the bytes it has just queued for the wire;
/// [`Frame::seal`] on a scratch encoding.
pub(crate) fn seal_in_place(body: &mut [u8], key: &PairKey) -> [u8; 8] {
    let (prefix, trailer) = body.split_at_mut(body.len() - MAC_LEN);
    let mac = key.mac(prefix);
    trailer.copy_from_slice(&mac);
    mac
}

/// The `dst` slot of a [`Frame::ShardResult`] MAC domain: shard results
/// always address the coordinator, which has no player id — this sentinel
/// stands in for it.
pub const SHARD_COORD: usize = usize::MAX;

/// Whether a frame body is a `Msg`, under either wire version: the one
/// question a relay asks before echoing a frame's bytes unread. Both
/// layouts keep the kind at byte 1, so a relay stays content-blind whether
/// or not frames carry MAC trailers.
pub(crate) fn is_msg(body: &[u8]) -> bool {
    matches!(body, [WIRE_VERSION | WIRE_VERSION_AUTH, 1, ..])
}

/// The session id of a `Msg` body ([`is_msg`]), read without decoding the
/// rest: it sits at byte 2 in both wire versions.
pub(crate) fn msg_session(body: &[u8]) -> Result<SessionId, CodecError> {
    Ok(Reader::new(&body[2..]).varint()?)
}

/// Extracts the session id from an authenticated `Msg` body without fully
/// decoding it — the scoping probe for damaged frames. A truncated
/// authenticated frame usually still has its intact header (version, kind,
/// session come first), so the reactor can abort *that session* with a
/// typed [`NetError::AuthFailure`] instead of killing the connection and
/// every honest session multiplexed on it.
pub(crate) fn peek_auth_session(body: &[u8]) -> Option<SessionId> {
    matches!(body, [WIRE_VERSION_AUTH, 1, ..])
        .then(|| msg_session(body).ok())
        .flatten()
}

/// Every way the transport plane can fail, as one typed error. `PartialEq`
/// so tests can assert exact failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The byte stream carried something the codec rejects.
    Codec(CodecError),
    /// The peer closed the stream at a frame boundary (orderly shutdown).
    Closed,
    /// The stream ended mid-frame: the connection dropped while a frame
    /// was in transit.
    Disconnected,
    /// An underlying I/O failure.
    Io(std::io::ErrorKind),
    /// The service refused a frame this endpoint sent.
    Rejected {
        /// The session named in the refused frame.
        session: SessionId,
        /// The service's reason.
        reason: RejectReason,
    },
    /// An authenticated session detected relay tampering: a frame failed
    /// its MAC check, arrived with the trailer stripped, replayed a
    /// consumed sequence number, or was cut short. The session aborts
    /// with this typed verdict; other sessions on the same connection
    /// are unaffected (the tamper is session-scoped, not connection-
    /// fatal — graceful degradation under a Byzantine relay).
    AuthFailure {
        /// The session whose channel was tampered with.
        session: SessionId,
        /// The reactor-assigned id of the offending connection.
        conn: u64,
        /// What the authentication layer caught.
        kind: TamperKind,
    },
    /// A relay connection vanished while its player still had traffic in
    /// flight — the networked run can no longer make progress.
    PeerVanished {
        /// The stalled session.
        session: SessionId,
        /// The player whose relay is gone.
        player: usize,
    },
    /// The session pump waited longer than the configured idle timeout
    /// for in-flight frames that never returned.
    IdleTimeout {
        /// The stalled session.
        session: SessionId,
        /// Frames shipped but never returned.
        in_flight: u64,
    },
    /// Not every player attached within the configured window.
    AttachTimeout {
        /// The session that never filled up.
        session: SessionId,
        /// Players attached when the window closed.
        attached: usize,
        /// Players the session's world needs.
        expected: usize,
    },
    /// The service announced that the hosted session failed and will
    /// never produce an outcome.
    Aborted {
        /// The failed session.
        session: SessionId,
    },
    /// `Service::host` refused the id: a session with it is still live
    /// (re-registering would orphan the running pump's routing).
    SessionIdTaken {
        /// The contested id.
        session: SessionId,
    },
    /// The service (or its pump) went away before producing an outcome.
    ServiceGone,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "codec: {e}"),
            NetError::Closed => write!(f, "peer closed the stream"),
            NetError::Disconnected => write!(f, "connection dropped mid-frame"),
            NetError::Io(kind) => write!(f, "i/o error: {kind:?}"),
            NetError::Rejected { session, reason } => {
                write!(
                    f,
                    "service rejected a frame for session {session}: {reason}"
                )
            }
            NetError::AuthFailure {
                session,
                conn,
                kind,
            } => write!(
                f,
                "session {session}: tampering detected on connection {conn}: {kind}"
            ),
            NetError::PeerVanished { session, player } => write!(
                f,
                "relay for session {session} player {player} vanished with traffic in flight"
            ),
            NetError::IdleTimeout { session, in_flight } => write!(
                f,
                "session {session} idle-timed out with {in_flight} frames in flight"
            ),
            NetError::AttachTimeout {
                session,
                attached,
                expected,
            } => write!(
                f,
                "session {session}: only {attached}/{expected} players attached in time"
            ),
            NetError::Aborted { session } => {
                write!(f, "service aborted session {session} without an outcome")
            }
            NetError::SessionIdTaken { session } => {
                write!(f, "session id {session} is already hosted and still live")
            }
            NetError::ServiceGone => write!(f, "service went away before the outcome"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.kind())
    }
}
