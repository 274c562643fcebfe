//! The typed relay's flush-before-block invariant, and what hand-rolled
//! clients keep.
//!
//! [`Client::relay`] queues its echoes and writes them once per read
//! burst. That is only sound if it never blocks on the stream while an
//! echo is still queued: a peer that sends frame k+1 only after echo k
//! came back would otherwise wait forever, and so would the relay. The
//! lock-step peer below is exactly that peer, on both backends.
//! [`Client::attach`], [`Client::send`] and [`Client::recv`] stay
//! immediate: nothing a hand-rolled client sends is ever left queued.

use mediator_core::cheap_talk::CtMsg;
use mediator_net::{
    duplex, Client, ConnPair, Frame, FramedRx, FramedTx, NetError, OutcomeSummary, TryRead,
};
use mediator_sim::TerminationKind;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
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
    (Box::new(FramedTx::new(w)), Box::new(FramedRx::new(r)))
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
