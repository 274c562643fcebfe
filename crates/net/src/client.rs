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
//! [`Session`]: mediator_sim::Session

use crate::frame::{is_msg, Frame, NetError, OutcomeSummary, SessionId, PREFIX_LEN};
use crate::transport::{ConnPair, FrameBuf, FrameRx, FrameTx, MemTransport, TcpTransport};
use crate::wire::Wire;
use std::io::{Read, Write};
use std::net::SocketAddr;

/// A framed client connection to a [`Service`](crate::Service).
pub struct Client<M> {
    tx: Box<dyn FrameTx<M>>,
    rx: Box<dyn FrameRx<M>>,
}

impl<M: Wire + 'static> Client<M> {
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

    /// The relay loop: echoes every `Msg` frame back to the service
    /// (completing each message's network leg) until the service announces
    /// the session's end, then returns the outcome summary.
    ///
    /// Echoes are burst-granular: they queue while complete frames remain
    /// buffered from the last read and leave in **one write** the moment
    /// the next frame would have to come off the stream — so the relay
    /// never blocks holding a frame its peer is waiting for, and a burst
    /// of k frames costs one read and one write instead of 2k of each.
    /// Returning frames in bursts is one more delivery order the §2
    /// scheduler was always free to pick (DESIGN.md §9).
    pub fn relay(mut self) -> Result<OutcomeSummary, NetError> {
        let end = loop {
            if !self.rx.has_frame() {
                self.tx.flush()?;
            }
            match self.rx.recv()? {
                frame @ Frame::Msg { .. } => self.tx.queue(&frame),
                Frame::Outcome { summary, .. } => break Ok(summary),
                Frame::Reject { session, reason } => {
                    break Err(NetError::Rejected { session, reason })
                }
                Frame::Abort { session } => break Err(NetError::Aborted { session }),
                // `Attach` never travels service → client, and shard
                // lease frames never reach a session relay; tolerate.
                Frame::Attach { .. }
                | Frame::ShardRequest { .. }
                | Frame::ShardGrant { .. }
                | Frame::ShardResult { .. }
                | Frame::ShardWitness { .. }
                | Frame::ShardDrain => {}
            }
        };
        // Echoes that shared a burst with the closing frame belong to
        // other sessions on this connection; they still go out, but the
        // verdict already in hand outranks a write to a closing peer.
        let _ = self.tx.flush();
        end
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
/// sessions have announced outcomes.
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
    let mut outcomes: Vec<(SessionId, OutcomeSummary)> = Vec::with_capacity(expected);
    // `Msg` frames pass as bytes, so no message is ever decoded: `u64`
    // stands in for the message type, as on the shard plane.
    relay_loop::<u64, _, _>(rx, tx, attaches, expected, |frame, out| match frame {
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
        // never reach a session relay; tolerate both, as `Client::relay`
        // does.
        Relayed::Control(_) => Ok(false),
    })?;
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

/// The one relay loop behind [`bulk_relay`] and the tamper battery's
/// relay: attaches every `(session, player)`, then hands each inbound
/// frame to `hook`, which appends what to echo to the out-buffer and says
/// whether the frame resolved a session. Returns once `expected` sessions
/// have resolved.
pub(crate) fn relay_loop<M: Wire, R: Read, W: Write>(
    mut rx: R,
    mut tx: W,
    attaches: &[(SessionId, usize)],
    expected: usize,
    mut hook: impl FnMut(Relayed<'_, M>, &mut Vec<u8>) -> Result<bool, NetError>,
) -> Result<(), NetError> {
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    for &(session, player) in attaches {
        Frame::<M>::Attach { session, player }.encode_framed(&mut wbuf);
    }
    tx.write_all(&wbuf)?;
    tx.flush()?;
    wbuf.clear();

    let mut resolved = 0;
    let mut inbound = FrameBuf::new();
    loop {
        inbound.read_from(&mut rx)?;
        while let Some(framed) = inbound.next_frame()? {
            let body = &framed[PREFIX_LEN..];
            let frame = if is_msg(body) {
                Relayed::Msg(framed)
            } else {
                Relayed::Control(Frame::decode_body(body)?)
            };
            resolved += usize::from(hook(frame, &mut wbuf)?);
        }
        if !wbuf.is_empty() {
            // One write + flush per read burst: echo batching is most of
            // the bulk relay's syscall win over per-frame clients.
            tx.write_all(&wbuf)?;
            tx.flush()?;
            wbuf.clear();
        }
        if resolved >= expected {
            return Ok(());
        }
    }
}
