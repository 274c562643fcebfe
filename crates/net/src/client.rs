//! The client side of the transport plane: attach, relay, collect.
//!
//! A networked player endpoint is deliberately thin: the player's *state
//! machine* lives in the service-hosted [`Session`] (the sans-IO core
//! never moved), so the client's job is the **network leg** — every
//! message addressed to its players arrives as a `Msg` frame and is
//! relayed back to complete delivery. The interval between the service
//! shipping a frame and the relay returning it *is* the message's time in
//! transit; with one connection per player, the interleaving of those
//! round trips across connections is the delivery order the hosted run
//! observes.
//!
//! Every relay here is content-blind: [`Client::relay`], [`bulk_relay`]
//! and the tamper battery's relay all run `relay_loop`, which echoes a
//! `Msg` frame as the bytes it arrived in and decodes only control
//! frames. Only the service reads protocol messages.
//!
//! [`Session`]: mediator_sim::Session

use crate::frame::{is_msg, Frame, NetError, OutcomeSummary, SessionId, PREFIX_LEN};
use crate::transport::{ConnPair, FrameBuf, FramedRx, FramedTx, MemTransport, TcpTransport};
use crate::wire::Wire;
use std::io::{Read, Write};
use std::net::SocketAddr;

/// A framed client connection to a [`Service`](crate::Service).
pub struct Client<M> {
    tx: FramedTx<M>,
    rx: FramedRx<M>,
}

impl<M: Wire> Client<M> {
    /// Wraps an established connection.
    pub fn from_pair((tx, rx): ConnPair<M>) -> Self {
        Client { tx, rx }
    }

    /// Dials a TCP service.
    pub fn tcp(addr: SocketAddr) -> Result<Self, NetError> {
        Ok(Client::from_pair(TcpTransport::connect(addr)?))
    }

    /// Connects through an in-memory hub.
    pub fn mem(hub: &MemTransport) -> Self {
        Client::from_pair(hub.connect())
    }

    /// Claims `(session, player)`: every message the hosted session sends
    /// to `player` will be routed to this connection. One connection may
    /// attach several players (of the same session) before relaying.
    ///
    /// Fire-and-forget: the service answers only on failure, and the
    /// `Reject` surfaces as [`NetError::Rejected`] from [`Client::relay`].
    pub fn attach(&mut self, session: SessionId, player: usize) -> Result<(), NetError> {
        self.tx.send(&Frame::Attach { session, player })
    }

    /// The relay: echoes every `Msg` frame back to the service as the
    /// bytes it arrived in (completing each message's network leg) until
    /// the service announces the session's end, then returns the outcome
    /// summary. This is [`bulk_relay`] over this connection, frames an
    /// earlier [`Client::recv`] left buffered included.
    pub fn relay(self) -> Result<OutcomeSummary, NetError> {
        let Client { tx, rx } = self;
        let mut outcomes = echo_relay(rx.source, rx.buf, tx.sink, &[], 1)?;
        Ok(outcomes.pop().expect("one outcome resolves the relay").1)
    }

    /// Receives one frame (for hand-rolled clients and tests).
    pub fn recv(&mut self) -> Result<Frame<M>, NetError> {
        self.rx.recv()
    }

    /// Sends one frame (for hand-rolled clients and tests).
    pub fn send(&mut self, frame: &Frame<M>) -> Result<(), NetError> {
        self.tx.send(frame)
    }
}

/// A multi-session relay over one raw byte stream, blind to the message
/// type: attaches every `(session, player)` in `attaches`, then echoes
/// `Msg` frames **without decoding them** — the length prefix and body
/// bytes bounce back verbatim, which is the relay's "content-blind
/// network leg" role made literal (only the service reads protocol
/// messages; the network never needs to). Returns once `expected`
/// sessions have announced outcomes; a `Reject` or `Abort` ends it with
/// the matching error.
///
/// This is the client the multi-thousand-session benches run: one
/// connection, one thread, relaying for every player of every session, so
/// client-side thread count stays O(1) while the service hosts thousands
/// of concurrent sessions.
pub fn bulk_relay<R: Read, W: Write>(
    rx: R,
    tx: W,
    attaches: &[(SessionId, usize)],
    expected: usize,
) -> Result<Vec<(SessionId, OutcomeSummary)>, NetError> {
    echo_relay(rx, FrameBuf::new(), tx, attaches, expected)
}

/// [`bulk_relay`] over a stream whose first bytes are already in
/// `inbound`.
fn echo_relay<R: Read, W: Write>(
    rx: R,
    inbound: FrameBuf,
    tx: W,
    attaches: &[(SessionId, usize)],
    expected: usize,
) -> Result<Vec<(SessionId, OutcomeSummary)>, NetError> {
    let mut outcomes: Vec<(SessionId, OutcomeSummary)> = Vec::with_capacity(expected);
    // `Msg` frames pass as bytes, so no message is ever decoded: `u64`
    // stands in for the message type, as on the shard plane.
    relay_loop::<u64, _, _>(
        rx,
        inbound,
        tx,
        attaches,
        expected,
        |frame, out| match frame {
            // The network leg: bounce the frame back, bytes and all.
            Relayed::Msg(framed) => {
                out.extend_from_slice(framed);
                Ok(false)
            }
            Relayed::Control(Frame::Outcome { session, summary }) => {
                outcomes.push((session, summary));
                Ok(true)
            }
            Relayed::Control(Frame::Reject { session, reason }) => {
                Err(NetError::Rejected { session, reason })
            }
            Relayed::Control(Frame::Abort { session }) => Err(NetError::Aborted { session }),
            // `Attach` never travels service → client, and shard lease frames
            // never reach a session relay; tolerate both.
            Relayed::Control(_) => Ok(false),
        },
    )?;
    Ok(outcomes)
}

/// One inbound frame as [`relay_loop`] hands it to its hook: a `Msg` in
/// its wire bytes, length prefix included (echoing one never needs its
/// content), or a decoded control frame.
pub(crate) enum Relayed<'a, M> {
    /// A `Msg` frame as it travelled.
    Msg(&'a [u8]),
    /// Any other frame, decoded.
    Control(Frame<M>),
}

/// The one relay loop, behind [`Client::relay`], [`bulk_relay`] and the
/// tamper battery's relay: queues an `Attach` for every `(session,
/// player)`, then hands each inbound frame — those already in `inbound`
/// first — to `hook`, which appends what to echo to the out-buffer and
/// says whether the frame resolved a session. Returns at the frame that
/// resolves the `expected`-th session, or at the first error.
///
/// Echoes leave in one write per read burst, the moment the next frame
/// would have to come off the stream, so the relay never blocks holding a
/// frame its peer waits for (returning frames in bursts is one more
/// delivery order the §2 scheduler was always free to pick, DESIGN.md
/// §9). Echoes queued when the relay returns still go out, best effort: a
/// verdict in hand outranks a write to a closing peer.
pub(crate) fn relay_loop<M: Wire, R: Read, W: Write>(
    mut rx: R,
    mut inbound: FrameBuf,
    mut tx: W,
    attaches: &[(SessionId, usize)],
    expected: usize,
    mut hook: impl FnMut(Relayed<'_, M>, &mut Vec<u8>) -> Result<bool, NetError>,
) -> Result<(), NetError> {
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    for &(session, player) in attaches {
        Frame::<M>::Attach { session, player }.encode_framed(&mut wbuf);
    }
    let mut relay = || -> Result<(), NetError> {
        let mut resolved = 0;
        loop {
            let Some(framed) = inbound.next_frame()? else {
                write_out(&mut tx, &mut wbuf)?;
                inbound.read_from(&mut rx)?;
                continue;
            };
            let body = &framed[PREFIX_LEN..];
            let frame = if is_msg(body) {
                Relayed::Msg(framed)
            } else {
                Relayed::Control(Frame::decode_body(body)?)
            };
            resolved += usize::from(hook(frame, &mut wbuf)?);
            if resolved >= expected {
                return Ok(());
            }
        }
    };
    let end = relay();
    let _ = write_out(&mut tx, &mut wbuf);
    end
}

/// Writes and flushes what `wbuf` holds, then empties it: after a failed
/// write the stream stands at an unknown offset, so nothing is kept to
/// retry.
fn write_out<W: Write>(tx: &mut W, wbuf: &mut Vec<u8>) -> Result<(), NetError> {
    if wbuf.is_empty() {
        return Ok(());
    }
    let written = tx.write_all(wbuf).and_then(|()| tx.flush());
    wbuf.clear();
    Ok(written?)
}
