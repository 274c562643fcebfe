//! Transport backends: real byte streams under the frame codec.
//!
//! Both backends speak the *same* framing code over `std::io::Read`/
//! `Write`, so every codec property (length cap, version check, typed
//! truncation errors) holds identically on each. Framing is
//! burst-granular: [`FrameBuf`] is the one length-prefix splitter (it
//! takes whatever a read returned and yields every complete frame), and
//! a [`FramedTx`] writes prefix and body in one `write` (DESIGN.md §9,
//! "Burst-granular framing").
//!
//! * **In-memory duplex pipes** ([`MemTransport`]) — a [`pipe`] is a
//!   `Mutex<VecDeque<u8>>` + condvar with hangup-aware ends; a connection
//!   is two pipes crossed. Used by tests and the multi-session benches:
//!   the full service stack runs, minus the kernel.
//! * **TCP loopback** ([`TcpTransport`]) — `std::net` sockets. Binds
//!   port 0 (ephemeral) so suites are sandbox/CI-safe; `TCP_NODELAY` is
//!   set because protocol frames are small and latency-bound.
//!
//! Two seams come out of here. Clients use the blocking framed halves
//! [`FramedTx`]/[`FramedRx`], one struct per direction over a boxed
//! stream of either backend. The service side is readiness-based: both
//! backends implement [`NbListener`], handing the reactor raw
//! non-blocking [`ConnIo`] endpoints — TCP via `poll(2)` on the socket
//! fd, memory pipes via a watcher hook ([`PipeReader::watch`]) that
//! wakes the reactor when bytes or a hangup arrive.

use crate::frame::{Frame, NetError, MAX_FRAME_LEN, PREFIX_LEN};
use crate::readiness::{ConnIo, NbListener, TryRead, Waker, ACCEPT_TOKEN};
use crate::wire::{CodecError, Wire};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};

/// A connection, split into its two independently-owned halves.
pub type ConnPair<M> = (FramedTx<M>, FramedRx<M>);

// ---------------------------------------------------------------------------
// Framing over any byte stream
// ---------------------------------------------------------------------------

/// How much room a [`FrameBuf`] offers each blocking read, and the size of
/// the reactor's read buffer (protocol frames are tens of bytes).
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// The length on the wire (prefix included) the frame at the front of
/// `bytes` announces, once its prefix is there. Over [`MAX_FRAME_LEN`] it
/// is refused before the body is buffered: corruption or hostility.
fn announced(bytes: &[u8]) -> Result<Option<usize>, CodecError> {
    let Some(prefix) = bytes.first_chunk::<PREFIX_LEN>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME_LEN {
        return Err(CodecError::LengthOverrun {
            announced: u64::from(len),
            remaining: MAX_FRAME_LEN as usize,
        });
    }
    Ok(Some(PREFIX_LEN + len as usize))
}

/// The one length-prefix splitter: a rolling inbound buffer that takes
/// whatever the stream hands over — a byte, half a prefix, a hundred
/// frames — and yields each complete frame in order. Blocking readers
/// ([`FramedRx`] and the one relay loop behind every relay) fill it with
/// [`FrameBuf::read_from`]; the reactor parses its reads in place and
/// keeps only a partial frame here (`FrameBuf::next_frame_from`).
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Always fully initialised; `head..tail` holds the unconsumed bytes,
    /// `tail..` is room for the next read.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameBuf {
    /// An empty buffer (allocates on first fill).
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// `n` writable bytes after `tail`, reclaiming the consumed prefix
    /// before growing.
    fn room(&mut self, n: usize) -> &mut [u8] {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        if self.buf.len() - self.tail < n {
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            if self.buf.len() - self.tail < n {
                self.buf.reserve_exact(self.tail + n - self.buf.len());
                self.buf.resize(self.tail + n, 0);
            }
        }
        &mut self.buf[self.tail..self.tail + n]
    }

    /// Appends bytes a caller already read.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.room(bytes.len()).copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// The next complete frame of the stream whose unread bytes are this
    /// buffer's, then `bytes` (a read parsed in place): only a partial
    /// frame is copied in, and `None` leaves `bytes` used up.
    pub(crate) fn next_frame_from<'s, 'b: 's>(
        &'s mut self,
        bytes: &mut &'b [u8],
    ) -> Result<Option<&'s [u8]>, CodecError> {
        if self.is_empty() {
            if let Some(total) = announced(bytes)?.filter(|&total| bytes.len() >= total) {
                let (framed, rest) = bytes.split_at(total);
                *bytes = rest;
                return Ok(Some(framed));
            }
            self.extend(std::mem::take(bytes));
            return Ok(None);
        }
        // Its prefix first, then the rest of the length it announces.
        for _ in 0..2 {
            let held = self.tail - self.head;
            let want = announced(&self.buf[self.head..self.tail])?.unwrap_or(PREFIX_LEN);
            let (lacked, rest) = bytes.split_at(want.saturating_sub(held).min(bytes.len()));
            self.extend(lacked);
            *bytes = rest;
        }
        self.next_frame()
    }

    /// One blocking read of whatever `source` has. End of stream is
    /// [`NetError::Closed`] at a frame boundary and
    /// [`NetError::Disconnected`] inside a frame; a peer that vanished
    /// abruptly (process death, RST) surfaces as reset/aborted, the same
    /// "dropped mid-stream" condition as a silent EOF.
    pub fn read_from<R: Read>(&mut self, source: &mut R) -> Result<(), NetError> {
        loop {
            match source.read(self.room(READ_CHUNK)) {
                Ok(0) => break,
                Ok(n) => {
                    self.tail += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(if self.is_empty() {
            NetError::Closed
        } else {
            NetError::Disconnected
        })
    }

    /// True when no unconsumed byte is buffered: the stream stands at a
    /// frame boundary.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Length on the wire (prefix included) of the next frame, once all
    /// of it is buffered (see [`announced`]).
    fn ready(&self) -> Result<Option<usize>, CodecError> {
        let held = &self.buf[self.head..self.tail];
        Ok(announced(held)?.filter(|&total| held.len() >= total))
    }

    /// Consumes the next complete frame and returns it as it travelled:
    /// the body is `[PREFIX_LEN..]`, and a content-blind relay echoes the
    /// whole slice. `None` means the frame's tail has not arrived yet —
    /// the partial bytes stay buffered.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, CodecError> {
        Ok(self.ready()?.map(|total| {
            let start = self.head;
            self.head += total;
            &self.buf[start..self.head]
        }))
    }
}

/// The sending half of a framed connection: each frame, prefix and body,
/// leaves in one `write`.
pub struct FramedTx<M> {
    pub(crate) sink: Box<dyn Write + Send>,
    /// One encoded frame, prefix and body contiguous.
    buf: Vec<u8>,
    msg: PhantomData<fn() -> M>,
}

impl<M: Wire> FramedTx<M> {
    /// Wraps a byte sink.
    pub fn new(sink: impl Write + Send + 'static) -> Self {
        FramedTx {
            sink: Box::new(sink),
            buf: Vec::new(),
            msg: PhantomData,
        }
    }

    /// Sends one frame: it is on the wire when this returns.
    pub fn send(&mut self, frame: &Frame<M>) -> Result<(), NetError> {
        self.buf.clear();
        frame.encode_framed(&mut self.buf);
        self.sink.write_all(&self.buf)?;
        self.sink.flush()?;
        Ok(())
    }
}

/// The receiving half of a framed connection.
pub struct FramedRx<M> {
    pub(crate) source: Box<dyn Read + Send>,
    /// Bytes read but not yet handed out: a [`Client`](crate::Client)
    /// passes them on to its relay with the stream.
    pub(crate) buf: FrameBuf,
    msg: PhantomData<fn() -> M>,
}

impl<M: Wire> FramedRx<M> {
    /// Wraps a byte source.
    pub fn new(source: impl Read + Send + 'static) -> Self {
        FramedRx {
            source: Box::new(source),
            buf: FrameBuf::new(),
            msg: PhantomData,
        }
    }

    /// Blocks for the next frame. [`NetError::Closed`] means the peer
    /// shut down cleanly at a frame boundary; [`NetError::Disconnected`]
    /// means the stream died mid-frame.
    pub fn recv(&mut self) -> Result<Frame<M>, NetError> {
        loop {
            if let Some(framed) = self.buf.next_frame()? {
                return Ok(Frame::decode_body(&framed[PREFIX_LEN..])?);
            }
            self.buf.read_from(&mut self.source)?;
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory byte pipes
// ---------------------------------------------------------------------------

struct PipeState {
    buf: VecDeque<u8>,
    tx_alive: bool,
    rx_alive: bool,
    /// Readiness hook for the reactor: woken when bytes arrive *or* the
    /// writer hangs up, so a half-closed pipe surfaces as a readable EOF
    /// (→ `PeerVanished`) instead of an eternal `WouldBlock` spin.
    watcher: Option<(Arc<Waker>, usize)>,
}

type PipeShared = Arc<(Mutex<PipeState>, Condvar)>;

/// Copies up to `out.len()` bytes out of the deque in at most two
/// `copy_from_slice` calls (the deque's two contiguous halves) — the
/// per-byte `pop_front` loop this replaces dominated mem-transport
/// profiles at thousands of sessions.
fn drain_into(buf: &mut VecDeque<u8>, out: &mut [u8]) -> usize {
    let n = out.len().min(buf.len());
    let (front, back) = buf.as_slices();
    if n <= front.len() {
        out[..n].copy_from_slice(&front[..n]);
    } else {
        out[..front.len()].copy_from_slice(front);
        out[front.len()..n].copy_from_slice(&back[..n - front.len()]);
    }
    buf.drain(..n);
    n
}

/// The writing end of an in-memory byte pipe.
pub struct PipeWriter(PipeShared);

/// The reading end of an in-memory byte pipe.
pub struct PipeReader(PipeShared);

/// A unidirectional in-memory byte pipe. Writes never block (the buffer
/// is unbounded); reads block until bytes or hangup. Dropping the writer
/// EOFs the reader; dropping the reader makes writes fail with
/// `BrokenPipe` — the same observable semantics a socket pair gives the
/// framing layer.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let shared: PipeShared = Arc::new((
        Mutex::new(PipeState {
            buf: VecDeque::new(),
            tx_alive: true,
            rx_alive: true,
            watcher: None,
        }),
        Condvar::new(),
    ));
    (PipeWriter(Arc::clone(&shared)), PipeReader(shared))
}

/// A bidirectional in-memory connection: two pipes crossed. Returns the
/// two endpoints, each a `(writer, reader)` pair.
#[allow(clippy::type_complexity)]
pub fn duplex() -> ((PipeWriter, PipeReader), (PipeWriter, PipeReader)) {
    let (a_tx, b_rx) = pipe();
    let (b_tx, a_rx) = pipe();
    ((a_tx, a_rx), (b_tx, b_rx))
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let (lock, cvar) = &*self.0;
        let watcher;
        {
            let mut state = lock.lock().expect("pipe poisoned");
            if !state.rx_alive {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "pipe reader dropped",
                ));
            }
            state.buf.extend(data);
            cvar.notify_all();
            watcher = state.watcher.clone();
        }
        // Wake outside the pipe lock: the waker takes its own lock, and
        // holding both invites ordering trouble for no benefit.
        if let Some((waker, token)) = watcher {
            waker.wake(token);
        }
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.0;
        let watcher = if let Ok(mut state) = lock.lock() {
            state.tx_alive = false;
            cvar.notify_all();
            state.watcher.clone()
        } else {
            None
        };
        // Hangup is a readable event: the reader's next try_read reports
        // Eof, which the reactor maps to PeerVanished.
        if let Some((waker, token)) = watcher {
            waker.wake(token);
        }
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let (lock, cvar) = &*self.0;
        let mut state = lock.lock().expect("pipe poisoned");
        while state.buf.is_empty() && state.tx_alive {
            state = cvar.wait(state).expect("pipe poisoned");
        }
        if state.buf.is_empty() {
            return Ok(0); // hangup: EOF
        }
        Ok(drain_into(&mut state.buf, out))
    }
}

impl PipeReader {
    /// Hooks readiness delivery: `waker` is signalled with `token`
    /// whenever bytes arrive or the writer hangs up. Fires immediately
    /// if either condition already holds, so registration cannot lose a
    /// wakeup that raced the connect.
    pub fn watch(&self, waker: Arc<Waker>, token: usize) {
        let (lock, _) = &*self.0;
        let fire = {
            let mut state = lock.lock().expect("pipe poisoned");
            let fire = !state.buf.is_empty() || !state.tx_alive;
            state.watcher = Some((waker.clone(), token));
            fire
        };
        if fire {
            waker.wake(token);
        }
    }

    /// Non-blocking read. The half-closed distinction matters: an empty
    /// pipe whose writer is alive is [`TryRead::WouldBlock`] (readiness
    /// will signal), an empty pipe whose writer is gone is
    /// [`TryRead::Eof`] (nothing will ever signal again).
    pub fn try_read(&mut self, out: &mut [u8]) -> TryRead {
        let (lock, _) = &*self.0;
        let mut state = lock.lock().expect("pipe poisoned");
        if state.buf.is_empty() {
            if state.tx_alive {
                TryRead::WouldBlock
            } else {
                TryRead::Eof
            }
        } else {
            TryRead::Data(drain_into(&mut state.buf, out))
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.0;
        if let Ok(mut state) = lock.lock() {
            state.rx_alive = false;
            cvar.notify_all();
        }
    }
}

/// The in-memory transport: a connection hub whose `connect` side hands
/// out client endpoints and whose [`NbListener`] side accepts the
/// matching server endpoints. The whole service stack — framing included
/// — runs exactly as over TCP, minus the kernel.
pub struct MemTransport {
    inner: Arc<(Mutex<HubState>, Condvar)>,
}

struct HubState {
    queue: VecDeque<(PipeWriter, PipeReader)>,
    open: bool,
    /// Accept-readiness hook: woken with [`ACCEPT_TOKEN`] on each dial.
    watcher: Option<Arc<Waker>>,
}

impl Default for MemTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl MemTransport {
    /// A fresh hub.
    pub fn new() -> Self {
        MemTransport {
            inner: Arc::new((
                Mutex::new(HubState {
                    queue: VecDeque::new(),
                    open: true,
                    watcher: None,
                }),
                Condvar::new(),
            )),
        }
    }

    /// Connects, returning the raw byte-level endpoint (tests use this to
    /// write malformed bytes straight at the service). Connecting to a
    /// closed hub fails fast the way TCP refuses a dead port: the server
    /// halves are dropped on the spot, so the endpoint's first read sees
    /// EOF ([`NetError::Closed`] through the framing) instead of blocking
    /// forever on a queue nobody will ever accept from.
    pub fn connect_raw(&self) -> (PipeWriter, PipeReader) {
        let (client, server) = duplex();
        let (lock, cvar) = &*self.inner;
        let watcher;
        {
            let mut hub = lock.lock().expect("hub poisoned");
            if hub.open {
                hub.queue.push_back(server);
                cvar.notify_all();
                watcher = hub.watcher.clone();
            } else {
                watcher = None;
            }
        }
        if let Some(waker) = watcher {
            waker.wake(ACCEPT_TOKEN);
        }
        client
    }

    /// Connects, returning framed halves for protocol use.
    pub fn connect<M: Wire>(&self) -> ConnPair<M> {
        let (tx, rx) = self.connect_raw();
        (FramedTx::new(tx), FramedRx::new(rx))
    }

    /// The accepting side (hand it to `Service::start`).
    pub fn listener(&self) -> MemListener {
        MemListener {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Blocking accept: parks until a dial arrives, returning the raw
    /// server endpoint, or `None` once the hub is [`Self::close`]d with
    /// an empty backlog. The thread-per-connection shard coordinator uses
    /// this — the readiness-based [`MemListener`] stays the reactor's.
    pub fn accept(&self) -> Option<(PipeWriter, PipeReader)> {
        let (lock, cvar) = &*self.inner;
        let mut hub = lock.lock().expect("hub poisoned");
        loop {
            if let Some(pair) = hub.queue.pop_front() {
                return Some(pair);
            }
            if !hub.open {
                return None;
            }
            hub = cvar.wait(hub).expect("hub poisoned");
        }
    }

    /// Closes the hub: blocked [`Self::accept`] calls return `None`,
    /// queued-but-unaccepted dials see EOF, and new dials fail fast.
    pub fn close(&self) {
        let (lock, cvar) = &*self.inner;
        if let Ok(mut hub) = lock.lock() {
            hub.open = false;
            hub.queue.clear();
            hub.watcher = None;
            cvar.notify_all();
        }
    }
}

/// Cloning a hub clones the handle, not the hub: both ends dial and
/// accept the same queue (how the shard coordinator and its in-process
/// workers share one transport).
impl Clone for MemTransport {
    fn clone(&self) -> Self {
        MemTransport {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The [`NbListener`] over a [`MemTransport`] hub.
pub struct MemListener {
    inner: Arc<(Mutex<HubState>, Condvar)>,
}

impl NbListener for MemListener {
    fn register(&mut self, waker: &Arc<Waker>) -> Option<i32> {
        let (lock, _) = &*self.inner;
        let backlog = {
            let mut hub = lock.lock().expect("hub poisoned");
            hub.watcher = Some(Arc::clone(waker));
            !hub.queue.is_empty()
        };
        if backlog {
            // Dials that landed before registration must not be lost.
            waker.wake(ACCEPT_TOKEN);
        }
        None
    }

    fn try_accept(&mut self) -> Result<Option<ConnIo>, NetError> {
        let (lock, _) = &*self.inner;
        let mut hub = lock.lock().expect("hub poisoned");
        match hub.queue.pop_front() {
            Some((tx, rx)) => Ok(Some(ConnIo::Mem { rx, tx })),
            None if hub.open => Ok(None),
            None => Err(NetError::Closed),
        }
    }

    fn close(&mut self) {
        let (lock, cvar) = &*self.inner;
        if let Ok(mut hub) = lock.lock() {
            hub.open = false;
            // Endpoints queued but never accepted would leave their
            // connectors blocked forever: drop them so the peers see
            // EOF immediately.
            hub.queue.clear();
            hub.watcher = None;
            cvar.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// TCP loopback
// ---------------------------------------------------------------------------

/// The TCP transport: binds an ephemeral loopback port (`127.0.0.1:0` —
/// never a fixed number, so parallel test runs and sandboxed CI cannot
/// collide). The accept side is non-blocking: the reactor polls the
/// listener fd and drains the backlog when it signals.
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Binds `127.0.0.1:0`.
    pub fn bind_loopback() -> Result<Self, NetError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }

    /// The bound address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Dials `addr`, returning framed halves (the stream is split with
    /// `try_clone`; `TCP_NODELAY` is set on both).
    pub fn connect<M: Wire>(addr: SocketAddr) -> Result<ConnPair<M>, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok((FramedTx::new(stream), FramedRx::new(reader)))
    }
}

impl NbListener for TcpTransport {
    fn register(&mut self, waker: &Arc<Waker>) -> Option<i32> {
        self.listener.register(waker)
    }

    fn try_accept(&mut self) -> Result<Option<ConnIo>, NetError> {
        self.listener.try_accept()
    }

    fn close(&mut self) {
        self.listener.close();
    }
}
