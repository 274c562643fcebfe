//! Readiness plumbing for the reactor: a hand-rolled `poll(2)` wrapper,
//! a wake-up primitive that bridges fd-based and notify-based sources,
//! and the non-blocking listener seam the reactor (the private engine
//! behind [`Service`](crate::Service)) accepts connections through.
//!
//! The repo builds with no crates.io access, so there is no `mio` to
//! lean on. The fd side is a direct FFI binding to `poll(2)` plus a
//! self-pipe (the classic trick: notify-based sources wake a sleeping
//! `poll` by writing one byte to a pipe the poller always watches). The
//! notify side is a token queue guarded by a mutex: in-memory transports
//! have no fd, so their pipes push a token and wake whichever wait the
//! reactor is parked in. When the reactor has **no** fd sources at all —
//! the pure `MemTransport` configuration the multi-thousand-session
//! benches run — the waker skips the kernel entirely and parks on a
//! condvar instead, so a frame arriving costs one atomic load on the
//! fast path and never a syscall.
//!
//! Wake-ups are deduplicated at two levels: a token already queued is
//! not queued twice, and the self-pipe/condvar is only signalled when
//! the reactor is actually asleep (an atomic state flag, swapped to
//! "awake" by the first waker so concurrent wakers don't pile up
//! syscalls).

use crate::frame::NetError;
use crate::transport::{PipeReader, PipeWriter};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Token a [`Waker`] associates with the accept side of a listener.
pub(crate) const ACCEPT_TOKEN: usize = usize::MAX;

// ---------------------------------------------------------------------------
// poll(2), via FFI (unix only: see the crate root)
// ---------------------------------------------------------------------------

pub(crate) mod sys {
    //! The minimal libc surface the reactor needs, declared by hand: the
    //! container has no `libc` crate, but every Rust std binary already
    //! links the C library, so direct `extern "C"` bindings resolve.

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        /// File descriptor to watch.
        pub fd: i32,
        /// Requested events (`POLLIN` / `POLLOUT`).
        pub events: i16,
        /// Returned events.
        pub revents: i16,
    }

    /// Data may be read without blocking.
    pub const POLLIN: i16 = 0x001;
    /// Data may be written without blocking.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition (always checked, never requested).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (always checked, never requested).
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    }

    pub const F_GETFL: i32 = 3;
    pub const F_SETFL: i32 = 4;
    pub const O_NONBLOCK: i32 = 0o4000;

    /// Marks `fd` non-blocking (best effort; the self-pipe must never
    /// block the reactor or a waker).
    pub fn set_nonblocking(fd: i32) {
        // SAFETY: fcntl on an owned, open fd with valid constants.
        unsafe {
            let flags = fcntl(fd, F_GETFL, 0);
            if flags >= 0 {
                let _ = fcntl(fd, F_SETFL, flags | O_NONBLOCK);
            }
        }
    }
}

/// What the reactor is currently doing, from a waker's point of view.
const AWAKE: u8 = 0;
const PARKED_CONDVAR: u8 = 1;
const PARKED_POLL: u8 = 2;

struct WakerState {
    /// Tokens signalled ready since the reactor last drained them.
    ready: Vec<usize>,
}

/// The reactor's wake-up handle: notify-based readiness sources (memory
/// pipes, `Service::host` callers) push a token and nudge whichever wait
/// the reactor is parked in. Shared via
/// `Arc` between the poller, the service handle, and every pipe watcher.
pub struct Waker {
    state: Mutex<WakerState>,
    cvar: Condvar,
    /// One of [`AWAKE`] / [`PARKED_CONDVAR`] / [`PARKED_POLL`]. The first
    /// waker swaps it back to [`AWAKE`] so only one wake signal is paid
    /// per sleep cycle.
    park: AtomicU8,
    /// Write end of the self-pipe, used to interrupt `poll(2)`.
    pipe_wr: i32,
}

impl Waker {
    /// Marks `token` ready and wakes the reactor if it is parked.
    pub fn wake(&self, token: usize) {
        {
            let mut st = self.state.lock().expect("waker poisoned");
            if !st.ready.contains(&token) {
                st.ready.push(token);
            }
        }
        match self.park.swap(AWAKE, Ordering::AcqRel) {
            PARKED_CONDVAR => self.cvar.notify_all(),
            PARKED_POLL => {
                // SAFETY: pipe_wr is an owned, open, non-blocking fd for
                // the lifetime of the Waker (closed only in Drop, which
                // cannot race a `wake` holding the same Arc).
                unsafe {
                    let byte = 1u8;
                    let _ = sys::write(self.pipe_wr, &byte, 1);
                }
            }
            _ => {}
        }
    }

    /// Drains every token signalled since the last call.
    pub fn take_ready(&self, out: &mut Vec<usize>) {
        let mut st = self.state.lock().expect("waker poisoned");
        out.append(&mut st.ready);
    }

    /// True if any token is queued (used to skip sleeping entirely).
    pub fn has_ready(&self) -> bool {
        !self.state.lock().expect("waker poisoned").ready.is_empty()
    }
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// The token the source was registered under.
    pub token: usize,
    /// Readable (or hung up / errored — the read will surface it).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// An fd-based readiness interest for one [`Poller::wait`] call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interest {
    /// Token to report events under.
    pub token: usize,
    /// The fd to watch.
    pub fd: i32,
    /// Watch for readability.
    pub read: bool,
    /// Watch for writability.
    pub write: bool,
}

/// The reactor's wait primitive: `poll(2)` over fd interests plus the
/// [`Waker`] token queue, degrading to a pure condvar park when no fd
/// sources exist (the in-memory transport configuration).
pub(crate) struct Poller {
    waker: Arc<Waker>,
    /// Read end of the self-pipe.
    pipe_rd: i32,
    fds: Vec<sys::PollFd>,
}

impl Poller {
    /// Builds a poller and its waker, self-pipe included.
    pub fn new() -> Result<Self, NetError> {
        let mut fds = [0i32; 2];
        // SAFETY: pipe(2) with a valid out-array of two fds.
        let rc = unsafe { sys::pipe(fds.as_mut_ptr()) };
        if rc != 0 {
            return Err(NetError::Io(std::io::ErrorKind::Other));
        }
        sys::set_nonblocking(fds[0]);
        sys::set_nonblocking(fds[1]);
        Ok(Poller {
            waker: Arc::new(Waker {
                state: Mutex::new(WakerState { ready: Vec::new() }),
                cvar: Condvar::new(),
                park: AtomicU8::new(AWAKE),
                pipe_wr: fds[1],
            }),
            pipe_rd: fds[0],
            fds: Vec::new(),
        })
    }

    /// The waker notify-based sources signal through.
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Waits for readiness on `interests` (fd sources) or the waker
    /// queue (notify sources), whichever fires first, up to `timeout`.
    /// Fd events land in `events`; notify tokens in `notified`. Returns
    /// immediately when a token is already queued.
    pub fn wait(
        &mut self,
        interests: &[Interest],
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
        notified: &mut Vec<usize>,
    ) {
        events.clear();
        notified.clear();

        // Tokens queued while we were working: don't sleep at all, but
        // still sweep the fds (timeout zero) so neither source starves.
        let pending = self.waker.has_ready();
        let timeout = if pending {
            Some(Duration::ZERO)
        } else {
            timeout
        };

        if interests.is_empty() {
            self.park_condvar(timeout, notified);
            return;
        }

        self.park_poll(interests, timeout, events, notified);
    }

    fn park_condvar(&self, timeout: Option<Duration>, notified: &mut Vec<usize>) {
        let mut st = self.waker.state.lock().expect("waker poisoned");
        if st.ready.is_empty() {
            self.waker.park.store(PARKED_CONDVAR, Ordering::Release);
            // Re-check under the lock: a waker that pushed before we set
            // the flag left the queue non-empty; one that pushes after
            // will see the flag and notify.
            let deadline = timeout.unwrap_or(Duration::from_secs(3600));
            let mut remaining = deadline;
            let start = std::time::Instant::now();
            while st.ready.is_empty() {
                let (guard, res) = self
                    .waker
                    .cvar
                    .wait_timeout(st, remaining)
                    .expect("waker poisoned");
                st = guard;
                if res.timed_out() {
                    break;
                }
                match deadline.checked_sub(start.elapsed()) {
                    Some(left) if !left.is_zero() => remaining = left,
                    _ => break,
                }
            }
            self.waker.park.store(AWAKE, Ordering::Release);
        }
        notified.append(&mut st.ready);
    }

    fn park_poll(
        &mut self,
        interests: &[Interest],
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
        notified: &mut Vec<usize>,
    ) {
        self.fds.clear();
        self.fds.push(sys::PollFd {
            fd: self.pipe_rd,
            events: sys::POLLIN,
            revents: 0,
        });
        for it in interests {
            let mut ev = 0i16;
            if it.read {
                ev |= sys::POLLIN;
            }
            if it.write {
                ev |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd {
                fd: it.fd,
                events: ev,
                revents: 0,
            });
        }
        self.waker.park.store(PARKED_POLL, Ordering::Release);
        if self.waker.has_ready() {
            // A token slipped in before the flag was visible: don't sleep.
            self.waker.park.store(AWAKE, Ordering::Release);
        }
        let timeout_ms = if self.waker.park.load(Ordering::Acquire) == AWAKE {
            0 // A token is already queued: poll once without sleeping.
        } else {
            match timeout {
                None => -1,
                Some(d) => i32::try_from(d.as_millis().min(3_600_000)).unwrap_or(i32::MAX),
            }
        };
        // SAFETY: fds points at an owned, correctly-sized pollfd array.
        let rc = unsafe { sys::poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout_ms) };
        self.waker.park.store(AWAKE, Ordering::Release);
        if rc > 0 {
            if self.fds[0].revents != 0 {
                // Drain the self-pipe completely (it is non-blocking).
                let mut sink = [0u8; 64];
                // SAFETY: owned open fd, valid buffer.
                while unsafe { sys::read(self.pipe_rd, sink.as_mut_ptr(), sink.len()) } > 0 {}
            }
            for (pfd, it) in self.fds[1..].iter().zip(interests) {
                let re = pfd.revents;
                if re == 0 {
                    continue;
                }
                events.push(Event {
                    token: it.token,
                    // HUP/ERR surface as readability: the next read
                    // reports EOF or the error, which is the teardown
                    // signal the reactor wants.
                    readable: re & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
                    writable: re & (sys::POLLOUT | sys::POLLERR) != 0,
                });
            }
        }
        self.waker.take_ready(notified);
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: both fds are owned by this poller/waker pair and closed
        // exactly once; the waker's Arc cannot outlive the reactor that
        // owns the poller in this crate's usage, and a late `wake` on a
        // closed fd is harmless (EBADF is ignored).
        unsafe {
            let _ = sys::close(self.pipe_rd);
            let _ = sys::close(self.waker.pipe_wr);
        }
    }
}

// ---------------------------------------------------------------------------
// Non-blocking connections and listeners
// ---------------------------------------------------------------------------

/// What one non-blocking read attempt observed.
#[derive(Debug)]
pub enum TryRead {
    /// `n` bytes were copied out.
    Data(usize),
    /// Nothing available now; readiness will signal.
    WouldBlock,
    /// The peer hung up cleanly (no more bytes, ever).
    Eof,
    /// The stream died.
    Err(NetError),
}

/// What one non-blocking write attempt observed.
#[derive(Debug)]
pub enum TryWrite {
    /// `n` bytes were accepted.
    Wrote(usize),
    /// The sink is full; writability will signal.
    WouldBlock,
    /// The stream died.
    Err(NetError),
}

/// A raw byte-level connection the reactor drives: either a non-blocking
/// TCP stream (fd-polled) or an in-memory pipe pair (notify-based via
/// the pipe watcher shim). The reactor owns the framing on top.
pub enum ConnIo {
    /// A non-blocking `std::net` TCP stream.
    Tcp(TcpStream),
    /// An in-memory duplex endpoint.
    Mem {
        /// Inbound bytes (watched for readiness).
        rx: PipeReader,
        /// Outbound bytes (never blocks; unbounded).
        tx: PipeWriter,
    },
}

impl ConnIo {
    /// Registers readiness delivery: fd-based sources return their fd for
    /// the poll set; notify-based sources hook `waker`/`token` and return
    /// `None`.
    pub fn register(&mut self, waker: &Arc<Waker>, token: usize) -> Option<i32> {
        match self {
            ConnIo::Tcp(stream) => {
                let _ = stream.set_nonblocking(true);
                Some(stream.as_raw_fd())
            }
            ConnIo::Mem { rx, .. } => {
                rx.watch(Arc::clone(waker), token);
                None
            }
        }
    }

    /// Non-blocking read into `buf`.
    pub fn try_read(&mut self, buf: &mut [u8]) -> TryRead {
        match self {
            ConnIo::Tcp(stream) => loop {
                match stream.read(buf) {
                    Ok(0) => return TryRead::Eof,
                    Ok(n) => return TryRead::Data(n),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return TryRead::WouldBlock
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::ConnectionReset
                                | std::io::ErrorKind::ConnectionAborted
                                | std::io::ErrorKind::BrokenPipe
                                | std::io::ErrorKind::UnexpectedEof
                        ) =>
                    {
                        return TryRead::Eof
                    }
                    Err(e) => return TryRead::Err(e.into()),
                }
            },
            ConnIo::Mem { rx, .. } => rx.try_read(buf),
        }
    }

    /// Non-blocking write of `buf`.
    pub fn try_write(&mut self, buf: &[u8]) -> TryWrite {
        match self {
            ConnIo::Tcp(stream) => loop {
                match stream.write(buf) {
                    Ok(n) => return TryWrite::Wrote(n),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return TryWrite::WouldBlock
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return TryWrite::Err(e.into()),
                }
            },
            ConnIo::Mem { tx, .. } => match tx.write(buf) {
                Ok(n) => TryWrite::Wrote(n),
                Err(e) => TryWrite::Err(e.into()),
            },
        }
    }
}

/// The accept seam the reactor polls: a backend that can hand over raw
/// non-blocking connections as they arrive. Replaces the PR 5 blocking
/// `Listener` (whose dedicated accept thread the reactor absorbed).
pub trait NbListener: Send {
    /// Registers accept-readiness delivery under the accept token;
    /// fd-based listeners return their fd for the poll set.
    fn register(&mut self, waker: &Arc<Waker>) -> Option<i32>;

    /// Accepts one pending connection, or `None` when the backlog is
    /// empty right now.
    fn try_accept(&mut self) -> Result<Option<ConnIo>, NetError>;

    /// Stops accepting: subsequent dials are refused the way a dead TCP
    /// port refuses them (idempotent).
    fn close(&mut self);
}

impl NbListener for TcpListener {
    fn register(&mut self, _waker: &Arc<Waker>) -> Option<i32> {
        let _ = self.set_nonblocking(true);
        Some(self.as_raw_fd())
    }

    fn try_accept(&mut self) -> Result<Option<ConnIo>, NetError> {
        loop {
            match self.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(Some(ConnIo::Tcp(stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // A peer that vanished between SYN and accept is not an
                // accept-loop failure.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn close(&mut self) {
        // Nothing to do eagerly: the listener socket closes when the
        // reactor drops it, which refuses later dials at the OS level.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn waker_tokens_are_deduplicated_and_drained() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        waker.wake(3);
        waker.wake(3);
        waker.wake(7);
        let mut out = Vec::new();
        waker.take_ready(&mut out);
        assert_eq!(out, vec![3, 7]);
        waker.take_ready(&mut out);
        assert_eq!(out, vec![3, 7], "drained queue appends nothing");
    }

    #[test]
    fn condvar_park_wakes_on_notify() {
        let mut poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake(5);
        });
        let (mut events, mut notified) = (Vec::new(), Vec::new());
        let start = Instant::now();
        poller.wait(
            &[],
            Some(Duration::from_secs(5)),
            &mut events,
            &mut notified,
        );
        assert!(start.elapsed() < Duration::from_secs(4), "woke early");
        assert_eq!(notified, vec![5]);
        t.join().expect("waker thread");
    }

    #[test]
    fn condvar_park_times_out() {
        let mut poller = Poller::new().expect("poller");
        let (mut events, mut notified) = (Vec::new(), Vec::new());
        let start = Instant::now();
        poller.wait(
            &[],
            Some(Duration::from_millis(30)),
            &mut events,
            &mut notified,
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert!(notified.is_empty());
    }

    #[test]
    fn poll_park_sees_fd_readiness_and_waker_interrupt() {
        use std::io::Write as _;
        // A real TCP socketpair gives us an fd with controllable
        // readability.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("dial");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("poller");
        let interests = [Interest {
            token: 9,
            fd: server.as_raw_fd(),
            read: true,
            write: false,
        }];
        let (mut events, mut notified) = (Vec::new(), Vec::new());

        // Nothing readable yet: times out.
        poller.wait(
            &interests,
            Some(Duration::from_millis(20)),
            &mut events,
            &mut notified,
        );
        assert!(events.is_empty());

        // Bytes arrive: poll reports the token readable.
        client.write_all(b"x").expect("write");
        poller.wait(
            &interests,
            Some(Duration::from_secs(5)),
            &mut events,
            &mut notified,
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 9);
        assert!(events[0].readable);

        // A waker interrupts a poll park even with no fd activity.
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake(11);
        });
        // Drain the byte first so the fd is quiet.
        let mut sink = [0u8; 8];
        let mut server_rd = &server;
        let _ = std::io::Read::read(&mut server_rd, &mut sink);
        let start = Instant::now();
        poller.wait(
            &interests,
            Some(Duration::from_secs(5)),
            &mut events,
            &mut notified,
        );
        assert!(start.elapsed() < Duration::from_secs(4));
        assert_eq!(notified, vec![11]);
        t.join().expect("waker thread");
    }
}
