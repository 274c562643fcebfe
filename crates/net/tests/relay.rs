//! The relay loop's write-before-block invariant and its end rule, what
//! hand-rolled clients keep, and how the service's reactor reads a burst.
//!
//! Every relay — [`Client::relay`], [`bulk_relay`] and the tamper
//! battery's — runs one loop, `relay_loop`, which queues its echoes and
//! writes them once per read burst. That is only sound if it never blocks
//! on the stream while an echo is still queued: a peer that sends frame
//! k+1 only after echo k came back would otherwise wait forever, and so
//! would the relay. The lock-step peer below is exactly that peer, on
//! both backends, and it guards the loop through [`Client::relay`]. The
//! loop echoes a `Msg` as the bytes it arrived in, so a payload the
//! client's message type cannot decode still goes back; an echo write
//! that fails once every expected outcome is in hand does not cost the
//! outcomes; and frames an earlier [`Client::recv`] left buffered are the
//! first the relay sees. [`Client::attach`], [`Client::send`] and
//! [`Client::recv`] stay immediate: nothing a hand-rolled client sends is
//! ever left queued.
//!
//! The reactor reads every connection into one 64 KiB buffer of its own,
//! a chunk at a time, and acts on every complete frame of a chunk before
//! it reads the next; a connection keeps only a trailing partial frame.
//! The last two tests pin what that keeps: a relay burst of several
//! chunks comes back intact, a connection that delivered whole chunks
//! holds none of them, and frames that arrive together with a hangup are
//! delivered before the connection is torn down. The buffer sizes are
//! read from a global allocator that records the largest byte buffer
//! (an allocation of alignment 1) made on a reactor thread after it asked
//! to be watched, so the reactor's own read buffer is not among them.

use mediator_core::cheap_talk::CtMsg;
use mediator_net::frame::PREFIX_LEN;
use mediator_net::transport::FrameBuf;
use mediator_net::{
    bulk_relay, duplex, Client, ConnPair, Frame, FramedRx, FramedTx, MemTransport, NetError,
    OutcomeSummary, RejectReason, Service, ServiceConfig, TryRead,
};
use mediator_sim::{Ctx, Process, SchedulerKind, Session, TerminationKind, TraceMode, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const LOCK_STEPS: u64 = 300;

fn summary() -> OutcomeSummary {
    OutcomeSummary {
        termination: TerminationKind::Quiescent,
        moves: vec![Some(1), Some(1)],
        wills: vec![None, None],
        halted: vec![true, true],
        messages_sent: LOCK_STEPS,
        messages_delivered: LOCK_STEPS,
        steps: 2 * LOCK_STEPS,
    }
}

fn step_frame(k: u64) -> Frame<CtMsg> {
    Frame::Msg {
        session: 9,
        src: (k % 2) as usize,
        dst: ((k + 1) % 2) as usize,
        msg: CtMsg::Finished,
        auth: None,
    }
}

/// The scripted peer: frame k+1 leaves only after echo k arrived.
fn lock_step_peer((mut tx, mut rx): ConnPair<CtMsg>) -> Result<(), NetError> {
    for k in 0..LOCK_STEPS {
        tx.send(&step_frame(k))?;
        assert_eq!(rx.recv()?, step_frame(k), "echo {k}");
    }
    tx.send(&Frame::Outcome {
        session: 9,
        summary: summary(),
    })
}

/// Runs `relay` against the lock-step peer; a relay that blocked with an
/// echo still queued shows as a timeout here, not as a hung suite.
fn assert_relay_terminates(peer: ConnPair<CtMsg>, relay: ConnPair<CtMsg>, backend: &str) {
    let peer = thread::spawn(move || lock_step_peer(peer));
    let (done, wait) = mpsc::channel();
    thread::spawn(move || {
        let _ = done.send(Client::from_pair(relay).relay());
    });
    let got = wait
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{backend}: relay blocked holding an echo"));
    assert_eq!(got.expect("outcome"), summary(), "{backend}");
    peer.join()
        .expect("peer thread")
        .unwrap_or_else(|e| panic!("{backend}: peer failed: {e}"));
}

fn framed<W, R>(w: W, r: R) -> ConnPair<CtMsg>
where
    W: Write + Send + 'static,
    R: std::io::Read + Send + 'static,
{
    (FramedTx::new(w), FramedRx::new(r))
}

#[test]
fn lock_step_peer_terminates_over_mem_duplex() {
    let ((a_tx, a_rx), (b_tx, b_rx)) = duplex();
    assert_relay_terminates(framed(a_tx, a_rx), framed(b_tx, b_rx), "mem");
}

#[test]
fn lock_step_peer_terminates_over_tcp_loopback() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind 127.0.0.1:0");
    let dialed = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    for stream in [&dialed, &accepted] {
        stream.set_nodelay(true).expect("nodelay");
    }
    let halves = |s: TcpStream| framed(s.try_clone().expect("clone"), s);
    assert_relay_terminates(halves(accepted), halves(dialed), "tcp");
}

#[test]
fn attach_and_send_are_on_the_wire_when_they_return() {
    let ((a_tx, a_rx), (_b_tx, mut b_rx)) = duplex();
    let mut client: Client<CtMsg> = Client::from_pair(framed(a_tx, a_rx));
    let mut wire = vec![0u8; 256];

    client.attach(9, 1).expect("attach");
    let mut expect = Vec::new();
    Frame::<CtMsg>::Attach {
        session: 9,
        player: 1,
    }
    .encode_framed(&mut expect);
    // A non-blocking read: the bytes are there already, or the attach
    // was only queued.
    match b_rx.try_read(&mut wire) {
        TryRead::Data(n) => assert_eq!(&wire[..n], &expect[..]),
        other => panic!("attach returned with nothing on the wire: {other:?}"),
    }

    client.send(&step_frame(0)).expect("send");
    expect.clear();
    step_frame(0).encode_framed(&mut expect);
    match b_rx.try_read(&mut wire) {
        TryRead::Data(n) => assert_eq!(&wire[..n], &expect[..]),
        other => panic!("send returned with nothing on the wire: {other:?}"),
    }
}

#[test]
fn recv_hands_out_a_burst_one_frame_at_a_time() {
    // Three frames land in one write; a hand-rolled client still sees
    // them one `recv` each, and the close after them is a clean one.
    let ((a_tx, a_rx), (mut b_tx, _b_rx)) = duplex();
    let mut client: Client<CtMsg> = Client::from_pair(framed(a_tx, a_rx));
    let mut burst = Vec::new();
    for k in 0..3 {
        step_frame(k).encode_framed(&mut burst);
    }
    b_tx.write_all(&burst).expect("burst");
    drop(b_tx);
    for k in 0..3 {
        assert_eq!(client.recv().expect("frame"), step_frame(k));
    }
    assert_eq!(client.recv().unwrap_err(), NetError::Closed);
}

/// A session-9 `Msg` frame whose `u64` payload is no `CtMsg`: a relay
/// that decoded it as one would fail here.
fn undecodable_msg() -> Vec<u8> {
    let mut bytes = Vec::new();
    Frame::<u64>::Msg {
        session: 9,
        src: 0,
        dst: 1,
        msg: 9,
        auth: None,
    }
    .encode_framed(&mut bytes);
    assert!(Frame::<CtMsg>::decode_body(&bytes[PREFIX_LEN..]).is_err());
    bytes
}

fn outcome_frame() -> Vec<u8> {
    let mut bytes = Vec::new();
    Frame::<CtMsg>::Outcome {
        session: 9,
        summary: summary(),
    }
    .encode_framed(&mut bytes);
    bytes
}

#[test]
fn relay_echoes_a_msg_it_cannot_decode_byte_for_byte() {
    let ((a_tx, a_rx), (mut b_tx, mut b_rx)) = duplex();
    let client: Client<CtMsg> = Client::from_pair(framed(a_tx, a_rx));
    let msg = undecodable_msg();
    b_tx.write_all(&[msg.clone(), outcome_frame()].concat())
        .expect("burst");
    assert_eq!(client.relay().expect("outcome"), summary());
    // The client is gone, so its end of the pipe is closed.
    let mut echoed = Vec::new();
    b_rx.read_to_end(&mut echoed).expect("echoes");
    assert_eq!(echoed, msg);
}

/// A byte sink that takes `ok` writes, then fails every one after.
struct BreaksAfter {
    ok: usize,
}

impl Write for BreaksAfter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if self.ok == 0 {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        self.ok -= 1;
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn bulk_relay_keeps_its_outcomes_when_the_last_echo_write_fails() {
    // The attach goes out; the echo that shares a burst with the outcome
    // meets a peer that has hung up, and the outcome in hand still wins.
    let stream = [undecodable_msg(), outcome_frame()].concat();
    let got = bulk_relay(&stream[..], BreaksAfter { ok: 1 }, &[(9, 0)], 1);
    assert_eq!(got.expect("outcomes"), [(9, summary())]);
}

#[test]
fn relay_takes_over_the_frames_recv_left_buffered() {
    // One burst: a `Reject` the hand-rolled client reads itself, then
    // `Msg`s and the outcome, already off the stream when `relay` starts.
    let ((a_tx, a_rx), (mut b_tx, mut b_rx)) = duplex();
    let mut client: Client<CtMsg> = Client::from_pair(framed(a_tx, a_rx));
    let reject = Frame::<CtMsg>::Reject {
        session: 8,
        reason: RejectReason::UnknownSession,
    };
    let mut burst = Vec::new();
    reject.encode_framed(&mut burst);
    let mut msgs = Vec::new();
    for k in 0..3 {
        step_frame(k).encode_framed(&mut msgs);
    }
    burst.extend_from_slice(&msgs);
    burst.extend(outcome_frame());
    b_tx.write_all(&burst).expect("burst");
    assert_eq!(client.recv().expect("reject"), reject);
    assert_eq!(client.relay().expect("outcome"), summary());
    let mut echoed = Vec::new();
    b_rx.read_to_end(&mut echoed).expect("echoes");
    assert_eq!(echoed, msgs);
}

// ---------------------------------------------------------------------------
// The reactor's read path
// ---------------------------------------------------------------------------

/// What the reactor reads per `read`: `READ_CHUNK` in `transport.rs`.
const READ_CHUNK: usize = 64 * 1024;

struct LargestByteBuffer;

thread_local! {
    /// Set on a reactor thread by its session's `open` closure: the
    /// counter its byte buffers are measured into.
    static WATCH: Cell<Option<&'static AtomicUsize>> = const { Cell::new(None) };
}

fn note(layout: Layout, size: usize) {
    if layout.align() == 1 {
        // `try_with`: the allocator also runs while thread-locals are torn
        // down.
        if let Ok(Some(largest)) = WATCH.try_with(Cell::get) {
            largest.fetch_max(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; the watch is a
// thread-local `Cell` and the counter an atomic, and neither allocates.
unsafe impl GlobalAlloc for LargestByteBuffer {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout, layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout, layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout, new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestByteBuffer = LargestByteBuffer;

const SID: u64 = 7;

/// Hosts a two-player session of `procs` whose reactor thread measures
/// its byte buffers into `largest`. The trace is off: its event log is a
/// byte buffer too, and would grow with the burst.
fn host_watched(
    service: &Service<u64>,
    procs: impl FnOnce() -> Vec<Box<dyn Process<u64>>> + Send + 'static,
    largest: &'static AtomicUsize,
) -> mediator_net::SessionHandle {
    service.host(SID, 2, move || {
        WATCH.with(|w| w.set(Some(largest)));
        let mut world = World::new(procs(), 1);
        world.set_trace_mode(TraceMode::Off);
        Session::new(world, SchedulerKind::Fifo.build(), 1_000_000)
    })
}

/// A raw relay connection that has attached both players of [`SID`].
fn attach_both(hub: &MemTransport) -> (impl Write, FrameBuf, impl std::io::Read) {
    let (mut tx, rx) = hub.connect_raw();
    let mut attach = Vec::new();
    for player in 0..2 {
        Frame::<u64>::Attach {
            session: SID,
            player,
        }
        .encode_framed(&mut attach);
    }
    tx.write_all(&attach).expect("attach");
    (tx, FrameBuf::new(), rx)
}

fn msg_frame(src: usize, dst: usize, msg: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    Frame::Msg {
        session: SID,
        src,
        dst,
        msg,
        auth: None,
    }
    .encode_framed(&mut bytes);
    bytes
}

/// Messages in the round-tripped burst: 223 488 bytes of frames, three
/// and a half chunks.
const BURST: u64 = 20_000;

/// How many of them player 0 sends per activation: at most 24 000 bytes
/// of frames, so nothing the service writes reaches a chunk.
const BATCH: u64 = 2_000;

/// Player 0: sends `0..BURST` to player 1, a batch per activation, with
/// a token to itself between batches; halts after the last.
#[derive(Default)]
struct Burster {
    sent: u64,
}

impl Burster {
    fn batch(&mut self, ctx: &mut Ctx<u64>) {
        let end = self.sent + BATCH;
        (self.sent..end).for_each(|k| ctx.send(1, k));
        self.sent = end;
        if end == BURST {
            ctx.halt();
        } else {
            ctx.send(0, end);
        }
    }
}

impl Process<u64> for Burster {
    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        self.batch(ctx);
    }
    fn on_message(&mut self, _src: usize, _token: u64, ctx: &mut Ctx<u64>) {
        self.batch(ctx);
    }
}

/// Player 1: once the whole burst is in, moves how many of its messages
/// arrived in order, and halts.
#[derive(Default)]
struct InOrder {
    received: u64,
    next: u64,
}

impl Process<u64> for InOrder {
    fn on_start(&mut self, _ctx: &mut Ctx<u64>) {}
    fn on_message(&mut self, _src: usize, k: u64, ctx: &mut Ctx<u64>) {
        self.received += 1;
        self.next += u64::from(k == self.next);
        if self.received == BURST {
            ctx.make_move(self.next);
            ctx.halt();
        }
    }
}

#[test]
fn a_relay_burst_of_several_chunks_round_trips_intact() {
    static LARGEST: AtomicUsize = AtomicUsize::new(0);
    let hub = MemTransport::new();
    let service: Service<u64> = Service::start(Box::new(hub.listener()));
    let procs = || -> Vec<Box<dyn Process<u64>>> {
        vec![Box::new(Burster::default()), Box::new(InOrder::default())]
    };
    let handle = host_watched(&service, procs, &LARGEST);
    // The relay echoes player 0's tokens at once and holds the burst
    // until all of it is in, then writes it back in one write.
    let (mut tx, mut inbound, mut rx) = attach_both(&hub);
    let relay = thread::spawn(move || -> Result<(), NetError> {
        let (mut echoes, mut held) = (Vec::new(), 0);
        loop {
            inbound.read_from(&mut rx)?;
            while let Some(framed) = inbound.next_frame()? {
                match Frame::<u64>::decode_body(&framed[PREFIX_LEN..])? {
                    Frame::Msg { dst: 0, .. } => tx.write_all(framed)?,
                    Frame::Msg { .. } => {
                        echoes.extend_from_slice(framed);
                        held += 1;
                        if held == BURST {
                            assert!(echoes.len() > 3 * READ_CHUNK, "{} bytes", echoes.len());
                            tx.write_all(&echoes)?;
                        }
                    }
                    Frame::Outcome { .. } => return Ok(()),
                    other => panic!("relay got {other:?}"),
                }
            }
        }
    });
    let out = handle.outcome().expect("the session completes");
    relay.join().expect("relay thread").expect("relay");
    assert_eq!(out.termination, TerminationKind::Quiescent);
    assert_eq!(out.moves, [None, Some(BURST)], "every message, in order");
    // Nothing the service writes reaches a chunk, and the connection
    // keeps a partial frame at most, so no byte buffer reaches one chunk
    // plus a frame. One that took the whole burst would be 256 KiB.
    let largest = LARGEST.load(Ordering::Relaxed);
    let longest = msg_frame(0, 1, BURST).len();
    assert!(
        largest <= READ_CHUNK + longest,
        "largest byte buffer {largest}"
    );
    service.shutdown();
}

/// The burst's filler value; the first message player 0 sends instead
/// holds player 1's attention until player 1 reports.
const HOLD: u64 = 0;

/// Player 0: sends [`HOLD`] on start; moves whatever player 1 reports.
struct Holder;

impl Process<u64> for Holder {
    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        ctx.send(1, HOLD);
    }
    fn on_message(&mut self, _src: usize, report: u64, ctx: &mut Ctx<u64>) {
        ctx.make_move(report);
        ctx.halt();
    }
}

/// Player 1: reports to player 0 once `expect` filler messages have
/// arrived; moves its count and halts when [`HOLD`] arrives.
struct Tally {
    expect: u64,
    count: u64,
}

impl Process<u64> for Tally {
    fn on_start(&mut self, _ctx: &mut Ctx<u64>) {}
    fn on_message(&mut self, _src: usize, msg: u64, ctx: &mut Ctx<u64>) {
        if msg == HOLD {
            ctx.make_move(self.count);
            ctx.halt();
            return;
        }
        self.count += 1;
        if self.count == self.expect {
            ctx.send(0, self.count);
        }
    }
}

#[test]
fn frames_that_arrive_with_a_hangup_are_delivered_first() {
    static LARGEST: AtomicUsize = AtomicUsize::new(0);
    // Exactly three chunks of filler frames, one and two varint bytes of
    // payload: every read of the burst is a full chunk, and the hangup is
    // what the read after the third finds.
    let (short, long) = (msg_frame(0, 1, 1), msg_frame(0, 1, 200));
    assert_eq!(long.len(), short.len() + 1);
    let total = 3 * READ_CHUNK;
    let (frames, longs) = (total / short.len(), total % short.len());
    let mut burst = long.repeat(longs);
    burst.extend(short.repeat(frames - longs));
    assert_eq!(burst.len(), total);

    let hub = MemTransport::new();
    let cfg = ServiceConfig {
        idle_timeout: Duration::from_secs(10),
        ..ServiceConfig::default()
    };
    let service: Service<u64> = Service::with_config(Box::new(hub.listener()), cfg);
    let expect = frames as u64;
    let procs = move || -> Vec<Box<dyn Process<u64>>> {
        vec![Box::new(Holder), Box::new(Tally { expect, count: 0 })]
    };
    let handle = host_watched(&service, procs, &LARGEST);
    // The relay holds `HOLD`, and echoes it with player 1's report: the
    // session stays live, and ends only if the whole burst got through.
    let (mut tx, mut inbound, mut rx) = attach_both(&hub);
    let (running, wait_running) = mpsc::channel();
    let relay = thread::spawn(move || -> Result<(), NetError> {
        let mut held = Vec::new();
        loop {
            inbound.read_from(&mut rx)?;
            while let Some(framed) = inbound.next_frame()? {
                match Frame::<u64>::decode_body(&framed[PREFIX_LEN..])? {
                    Frame::Msg { dst: 1, .. } => {
                        held.extend_from_slice(framed);
                        let _ = running.send(());
                    }
                    Frame::Msg { dst: 0, .. } => {
                        held.extend_from_slice(framed);
                        tx.write_all(&held)?;
                    }
                    Frame::Outcome { .. } => return Ok(()),
                    other => panic!("relay got {other:?}"),
                }
            }
        }
    });
    wait_running.recv().expect("the session ships HOLD");
    // A second connection writes the burst and hangs up at once.
    let (mut tx, rx) = hub.connect_raw();
    tx.write_all(&burst).expect("burst");
    drop((tx, rx));

    let out = handle.outcome().expect("the burst was delivered");
    relay.join().expect("relay thread").expect("relay");
    assert_eq!(out.termination, TerminationKind::Quiescent);
    assert_eq!(out.moves, [Some(expect), Some(expect)]);
    // Nothing large goes out here, and the connection that delivered
    // three full chunks kept none of them: every byte buffer is small.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 1024, "largest byte buffer {largest}");
    service.shutdown();
}
