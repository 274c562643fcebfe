//! Codec conformance: fuzz-style round-trip properties over the protocol
//! message enums, plus the malformed-input edge cases — truncated frames,
//! unknown version bytes, oversized length prefixes, unknown tags, and
//! mid-stream connection drops — each surfacing a *typed* error (never a
//! panic) on **both** transport backends, which share the framing code by
//! construction.

use mediator_bcast::AbaMsg;
use mediator_core::cheap_talk::CtMsg;
use mediator_core::MedMsg;
use mediator_field::Fp;
use mediator_mpc::MpcMsg;
use mediator_net::frame::PREFIX_LEN;
use mediator_net::readiness::NbListener;
use mediator_net::transport::FrameBuf;
use mediator_net::{
    AuthKey, AuthTag, Client, CodecError, Frame, FrameRx as _, FrameTx as _, FramedRx, FramedTx,
    MemTransport, NetError, OutcomeSummary, TamperKind, TcpTransport, Wire, MAX_FRAME_LEN,
    WIRE_VERSION, WIRE_VERSION_AUTH,
};
use mediator_sim::{Payload, TerminationKind};
use mediator_vss::detect::Dealing;
use mediator_vss::{AvssMsg, DetectMsg};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Random message generators (the shim has no prop_oneof; hand-rolled)
// ---------------------------------------------------------------------------

fn arb_fp(rng: &mut StdRng) -> Fp {
    Fp::new(rng.gen())
}

fn fp_vec(rng: &mut StdRng, max: usize) -> Vec<Fp> {
    let len = rng.gen_range(0..=max);
    (0..len).map(|_| arb_fp(rng)).collect()
}

fn arb_aba(rng: &mut StdRng) -> AbaMsg {
    match rng.gen_range(0..3) {
        0 => AbaMsg::BVal {
            round: rng.gen_range(0..1000u64),
            v: rng.gen(),
        },
        1 => AbaMsg::Aux {
            round: rng.gen_range(0..1000u64),
            v: rng.gen(),
        },
        _ => AbaMsg::Done { v: rng.gen() },
    }
}

fn arb_avss(rng: &mut StdRng) -> AvssMsg {
    match rng.gen_range(0..3) {
        0 => {
            // Uniform rows: a ragged frame decodes padded (see
            // `a_ragged_rows_frame_decodes_to_zero_padded_rows`).
            let (rows, width) = (rng.gen_range(0..4usize), rng.gen_range(0..=5usize));
            let rows: Vec<Vec<Fp>> = (0..rows)
                .map(|_| (0..width).map(|_| arb_fp(rng)).collect())
                .collect();
            AvssMsg::rows(&rows)
        }
        1 => AvssMsg::Echo(fp_vec(rng, 6).into()),
        _ => AvssMsg::Ready,
    }
}

fn arb_detect(rng: &mut StdRng) -> DetectMsg {
    match rng.gen_range(0..3) {
        0 => DetectMsg::Deal(Box::new(Dealing {
            shares: fp_vec(rng, 5),
            blinds: fp_vec(rng, 5),
        })),
        1 => DetectMsg::Open {
            points: Payload::new(fp_vec(rng, 6)),
        },
        _ => DetectMsg::Accuse,
    }
}

fn arb_mpc(rng: &mut StdRng) -> MpcMsg {
    match rng.gen_range(0..5) {
        0 => MpcMsg::Avss {
            dealer: rng.gen_range(0..32usize),
            inner: arb_avss(rng),
        },
        1 => MpcMsg::Detect {
            dealer: rng.gen_range(0..32usize),
            inner: arb_detect(rng),
        },
        2 => MpcMsg::Core {
            dealer: rng.gen_range(0..32usize),
            inner: arb_aba(rng),
        },
        3 => MpcMsg::Open {
            id: rng.gen(),
            value: arb_fp(rng),
        },
        _ => MpcMsg::Output {
            idx: rng.gen_range(0..64usize),
            value: arb_fp(rng),
        },
    }
}

fn arb_ct(rng: &mut StdRng) -> CtMsg {
    if rng.gen_range(0..8u32) == 0 {
        CtMsg::Finished
    } else {
        CtMsg::Mpc(arb_mpc(rng))
    }
}

fn arb_med(rng: &mut StdRng) -> MedMsg {
    match rng.gen_range(0..4) {
        0 => MedMsg::Input {
            round: rng.gen_range(0..100u64),
            value: fp_vec(rng, 4),
        },
        1 => MedMsg::Round {
            round: rng.gen_range(0..100u64),
            payload: fp_vec(rng, 4),
        },
        2 => MedMsg::Stop { action: rng.gen() },
        _ => MedMsg::Gossip {
            payload: fp_vec(rng, 4),
        },
    }
}

/// Wraps a generator function as a shim `Strategy`.
struct Gen<T>(fn(&mut StdRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (self.0)(rng)
    }
}

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = value.to_bytes();
    let back = T::from_bytes(&bytes).expect("round trip decodes");
    assert_eq!(&back, value);
}

proptest! {
    #[test]
    fn ct_msg_round_trips(msg in Gen(arb_ct)) {
        roundtrip(&msg);
    }

    #[test]
    fn med_msg_round_trips(msg in Gen(arb_med)) {
        roundtrip(&msg);
    }

    #[test]
    fn frames_round_trip(msg in Gen(arb_ct), session in 0u64..1000, src in 0usize..16, dst in 0usize..16) {
        let frames = [
            Frame::Attach { session, player: src },
            Frame::Msg { session, src, dst, msg, auth: None },
            Frame::Outcome {
                session,
                summary: OutcomeSummary {
                    termination: TerminationKind::Quiescent,
                    moves: vec![Some(1), None, Some(3)],
                    wills: vec![None, Some(9), None],
                    halted: vec![true, false, true],
                    messages_sent: 17,
                    messages_delivered: 12,
                    steps: 40,
                },
            },
            Frame::Abort { session },
        ];
        for frame in frames {
            let mut body = Vec::new();
            frame.encode_body(&mut body);
            let back = Frame::<CtMsg>::decode_body(&body).expect("frame decodes");
            prop_assert_eq!(back, frame);
        }
    }

    #[test]
    fn truncated_messages_error_not_panic(msg in Gen(arb_ct)) {
        // Every strict prefix of a valid encoding must decode to a typed
        // error — truncation can never panic or succeed (no encoding of a
        // CtMsg is a prefix of another: tags and lengths come first).
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(CtMsg::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

/// `Frame::Msg` carrying `inner` of dealer 0 in session 7, encoded.
fn avss_frame_body(src: usize, dst: usize, inner: AvssMsg) -> Vec<u8> {
    let msg = CtMsg::Mpc(MpcMsg::Avss { dealer: 0, inner });
    let frame = Frame::Msg {
        session: 7,
        src,
        dst,
        msg,
        auth: None,
    };
    let mut body = Vec::new();
    frame.encode_body(&mut body);
    body
}

#[test]
fn honest_avss_frames_keep_their_bytes() {
    // A dealing at n = 5, f = 1 and the echo it causes: a row block and an
    // echo are views of shared buffers in memory, and on the wire they are
    // the bytes the owned `Vec` forms encoded to (pinned from that code).
    let secrets = [Fp::new(11), Fp::new(22), Fp::new(33)];
    let rows = mediator_vss::avss::deal(&secrets, 5, 1, &mut StdRng::seed_from_u64(2026));
    let mut out: Vec<mediator_sim::Outgoing<AvssMsg>> = Vec::new();
    mediator_vss::AvssState::new(5, 1, 0).on_message(0, rows[1].clone(), &mut out);
    let echo = out[2].msg.clone();
    let rows_frame: &[u8] = &[
        1, 1, 7, 0, 1, 0, 0, 0, 0, 3, 2, 185, 238, 156, 195, 179, 152, 248, 207, 26, 231, 149, 252,
        227, 200, 158, 246, 220, 7, 2, 177, 171, 184, 247, 172, 182, 173, 210, 17, 215, 217, 147,
        167, 245, 161, 244, 159, 19, 2, 197, 198, 238, 135, 220, 165, 219, 187, 15, 204, 173, 224,
        240, 164, 223, 227, 168, 28,
    ];
    let echo_frame: &[u8] = &[
        1, 1, 7, 1, 2, 0, 0, 0, 1, 3, 239, 175, 145, 239, 141, 244, 218, 230, 17, 184, 184, 243,
        236, 140, 156, 138, 178, 11, 172, 207, 143, 218, 202, 195, 134, 182, 4,
    ];
    for (body, pinned, msg) in [
        (avss_frame_body(0, 1, rows[1].clone()), rows_frame, &rows[1]),
        (avss_frame_body(1, 2, echo.clone()), echo_frame, &echo),
    ] {
        assert_eq!(body, pinned);
        let Frame::Msg {
            msg: CtMsg::Mpc(MpcMsg::Avss { inner, .. }),
            ..
        } = Frame::<CtMsg>::decode_body(&body).expect("pinned frame decodes")
        else {
            panic!("not an AVSS message frame")
        };
        assert_eq!(&inner, msg);
    }
}

#[test]
fn a_ragged_rows_frame_decodes_to_zero_padded_rows() {
    // What a hostile dealer may put on the wire: rows of different
    // lengths. They decode padded with zeros to the widest row — the rows
    // a receiver pads to anyway.
    let (a, b, c) = (Fp::new(5), Fp::new(6), Fp::new(7));
    let ragged: Vec<Vec<Fp>> = vec![vec![a], vec![], vec![b, c]];
    let mut bytes = vec![0, 3];
    for row in &ragged {
        bytes.push(row.len() as u8);
        bytes.extend(row.iter().map(|x| x.as_u64() as u8));
    }
    let decoded = AvssMsg::from_bytes(&bytes).expect("a ragged frame decodes");
    let padded = [vec![a, Fp::ZERO], vec![Fp::ZERO; 2], vec![b, c]];
    assert_eq!(decoded, AvssMsg::rows(&padded));
    assert_eq!(decoded, AvssMsg::rows(&ragged));
    // Padding never outgrows the frame: one long row among many empty
    // ones would, and is refused before anything is allocated.
    let mut wide = vec![0, 40];
    wide.extend([0; 39]);
    wide.push(5);
    wide.extend([1u8; 5]);
    assert!(matches!(
        AvssMsg::from_bytes(&wide),
        Err(CodecError::LengthOverrun { announced: 200, .. })
    ));
}

// ---------------------------------------------------------------------------
// Burst-granular framing: one splitter, any chunking, one write per burst
// ---------------------------------------------------------------------------

/// A byte source that hands its stream over in scripted chunks: read `i`
/// returns at most `cuts[i % cuts.len()]` bytes, then EOF.
struct Chunked {
    bytes: Vec<u8>,
    at: usize,
    cuts: Vec<usize>,
    /// `read` calls so far (shared, so a test can watch a moved source).
    reads: Arc<AtomicUsize>,
}

impl Chunked {
    fn new(bytes: &[u8], cuts: &[usize]) -> Self {
        Chunked {
            bytes: bytes.to_vec(),
            at: 0,
            cuts: cuts.to_vec(),
            reads: Arc::default(),
        }
    }
}

impl std::io::Read for Chunked {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let cut = self.cuts[self.reads.fetch_add(1, Ordering::SeqCst) % self.cuts.len()];
        let n = cut.min(out.len()).min(self.bytes.len() - self.at);
        out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// The fixed split patterns every malformed-input case also runs under:
/// a one-byte dribble, cuts that land inside the prefix and inside the
/// body, and the whole stream in one read.
const SPLITS: [&[usize]; 5] = [&[1], &[2], &[3, 1, 5], &[7, 64], &[usize::MAX]];

/// `stream` ends in a malformed or cut-short frame: under every split
/// the frames before it decode and the same typed error follows.
fn assert_under_splits(stream: &[u8], expect: &NetError) {
    for cuts in SPLITS {
        let mut rx = FramedRx::new(Chunked::new(stream, cuts));
        let got: Result<Frame<CtMsg>, NetError> = rx.recv();
        assert_eq!(got.unwrap_err(), *expect, "split {cuts:?}");
    }
}

fn arb_frame(rng: &mut StdRng) -> Frame<CtMsg> {
    let session = rng.gen_range(0..1000u64);
    match rng.gen_range(0..4) {
        0 => Frame::Attach {
            session,
            player: rng.gen_range(0..16usize),
        },
        1 => Frame::Abort { session },
        _ => Frame::Msg {
            session,
            src: rng.gen_range(0..16usize),
            dst: rng.gen_range(0..16usize),
            msg: arb_ct(rng),
            auth: None,
        },
    }
}

/// A valid multi-frame stream plus a random way to cut it up: dribble,
/// small cuts that split prefixes and bodies, or many frames per read.
fn arb_split_stream(rng: &mut StdRng) -> (Vec<Frame<CtMsg>>, Vec<usize>) {
    let frames: Vec<_> = (0..rng.gen_range(1..24)).map(|_| arb_frame(rng)).collect();
    let widest = match rng.gen_range(0..3) {
        0 => 1,
        1 => 9,
        _ => 4096,
    };
    let cuts = (0..rng.gen_range(1..8))
        .map(|_| rng.gen_range(1..=widest))
        .collect();
    (frames, cuts)
}

proptest! {
    #[test]
    fn frames_survive_arbitrary_chunk_splits(case in Gen(arb_split_stream)) {
        let (frames, cuts) = case;
        let mut stream = Vec::new();
        for frame in &frames {
            frame.encode_framed(&mut stream);
        }

        // Through the blocking half: same frames, then a clean close.
        let mut rx = FramedRx::new(Chunked::new(&stream, &cuts));
        for frame in &frames {
            prop_assert_eq!(&rx.recv().expect("frame survives the split"), frame);
        }
        let end: Result<Frame<CtMsg>, NetError> = rx.recv();
        prop_assert_eq!(end.unwrap_err(), NetError::Closed);

        // Through the splitter itself, pushed chunk by chunk (the
        // reactor's way in): the wire bytes come back frame for frame.
        let mut buf = FrameBuf::new();
        let mut seen = Vec::new();
        let mut source = Chunked::new(&stream, &cuts);
        let mut chunk = vec![0u8; 4096];
        loop {
            let n = std::io::Read::read(&mut source, &mut chunk).expect("scripted read");
            if n == 0 {
                break;
            }
            buf.extend(&chunk[..n]);
            while let Some(framed) = buf.next_frame().expect("valid stream") {
                seen.push(Frame::<CtMsg>::decode_body(&framed[PREFIX_LEN..]).expect("decodes"));
            }
        }
        prop_assert!(buf.is_empty(), "nothing left over");
        prop_assert_eq!(seen, frames);
    }
}

#[test]
fn frames_before_a_malformed_one_still_arrive_under_every_split() {
    // Two good frames, then an oversized announcement: the good frames
    // are delivered first and the refusal follows, however the stream is
    // cut — and the refused body is never waited for.
    let good = [
        Frame::<CtMsg>::Attach {
            session: 3,
            player: 1,
        },
        Frame::Abort { session: 3 },
    ];
    let mut stream = Vec::new();
    for frame in &good {
        frame.encode_framed(&mut stream);
    }
    stream.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    for cuts in SPLITS {
        let mut rx = FramedRx::new(Chunked::new(&stream, cuts));
        for frame in &good {
            assert_eq!(&rx.recv().expect("good frame"), frame, "split {cuts:?}");
        }
        let got: Result<Frame<CtMsg>, NetError> = rx.recv();
        assert_eq!(
            got.unwrap_err(),
            NetError::Codec(CodecError::LengthOverrun {
                announced: u64::from(MAX_FRAME_LEN) + 1,
                remaining: MAX_FRAME_LEN as usize,
            }),
            "split {cuts:?}"
        );
    }
}

/// A byte sink that counts `write` calls and keeps what was written.
#[derive(Clone, Default)]
struct CountingSink {
    writes: Arc<AtomicUsize>,
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl CountingSink {
    fn writes(&self) -> usize {
        self.writes.load(Ordering::SeqCst)
    }
}

impl std::io::Write for CountingSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.writes.fetch_add(1, Ordering::SeqCst);
        self.bytes.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn send_is_one_write_per_frame() {
    let sink = CountingSink::default();
    let mut tx = FramedTx::new(sink.clone());
    let mut rng = proptest::test_rng("send_is_one_write_per_frame");
    let mut expect = Vec::new();
    for sent in 1..=32 {
        let frame = arb_frame(&mut rng);
        tx.send(&frame).expect("send");
        frame.encode_framed(&mut expect);
        assert_eq!(sink.writes(), sent, "prefix and body leave in one write");
    }
    assert_eq!(*sink.bytes.lock().unwrap(), expect);
}

#[test]
fn relay_writes_at_most_once_per_read_burst() {
    // A session's worth of `Msg` frames, then the outcome, arriving in
    // bursts of every shape: the relay echoes every `Msg` byte for byte,
    // in order, and never writes more often than it reads.
    let mut rng = proptest::test_rng("relay_writes_at_most_once_per_read_burst");
    let mut stream = Vec::new();
    let mut echoes = Vec::new();
    for _ in 0..200 {
        let frame = Frame::Msg {
            session: 5,
            src: rng.gen_range(0..5usize),
            dst: rng.gen_range(0..5usize),
            msg: arb_ct(&mut rng),
            auth: None,
        };
        frame.encode_framed(&mut stream);
        frame.encode_framed(&mut echoes);
    }
    let summary = OutcomeSummary {
        termination: TerminationKind::Quiescent,
        moves: vec![Some(1); 5],
        wills: vec![None; 5],
        halted: vec![true; 5],
        messages_sent: 200,
        messages_delivered: 200,
        steps: 400,
    };
    Frame::<CtMsg>::Outcome {
        session: 5,
        summary: summary.clone(),
    }
    .encode_framed(&mut stream);

    for cuts in [
        &[1usize][..],
        &[5, 3],
        &[40, 7, 300],
        &[4096],
        &[usize::MAX],
    ] {
        let sink = CountingSink::default();
        let source = Chunked::new(&stream, cuts);
        let reads = Arc::clone(&source.reads);
        let client: Client<CtMsg> = Client::from_pair((
            Box::new(FramedTx::new(sink.clone())),
            Box::new(FramedRx::new(source)),
        ));
        assert_eq!(client.relay().expect("outcome"), summary, "split {cuts:?}");
        assert_eq!(*sink.bytes.lock().unwrap(), echoes, "split {cuts:?}");
        let reads = reads.load(Ordering::SeqCst);
        assert!(
            sink.writes() <= reads,
            "split {cuts:?}: {} writes for {reads} reads",
            sink.writes()
        );
    }
    // The whole session in one read is one write.
    let sink = CountingSink::default();
    let client: Client<CtMsg> = Client::from_pair((
        Box::new(FramedTx::new(sink.clone())),
        Box::new(FramedRx::new(Chunked::new(&stream, &[usize::MAX]))),
    ));
    client.relay().expect("outcome");
    assert_eq!(sink.writes(), 1);
}

// ---------------------------------------------------------------------------
// Frame-level edge cases over BOTH transport backends
// ---------------------------------------------------------------------------

/// Runs `spray` against a fresh framed connection on each backend and
/// asserts the receiving side surfaces `expect`.
fn assert_both_backends(spray: fn(&mut dyn std::io::Write), expect: &NetError) {
    // The same bytes under every chunk split: what the splitter says may
    // not depend on how the stream was cut up.
    let mut stream = Vec::new();
    spray(&mut stream);
    assert_under_splits(&stream, expect);

    // In-memory pipe.
    let (mut raw_tx, raw_rx) = mediator_net::pipe();
    spray(&mut raw_tx);
    drop(raw_tx);
    let mut rx: FramedRx<_> = FramedRx::new(raw_rx);
    let got: Result<Frame<CtMsg>, NetError> = rx.recv();
    assert_eq!(got.unwrap_err(), *expect, "mem backend");

    // TCP loopback (ephemeral port: sandbox/CI-safe).
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind 127.0.0.1:0");
    let addr = listener.local_addr().expect("local addr");
    let client = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        spray(&mut stream);
        // Drop: closes the socket, ending the stream where the spray ended.
    });
    let (stream, _) = listener.accept().expect("accept");
    let mut rx: FramedRx<_> = FramedRx::new(stream);
    let got: Result<Frame<CtMsg>, NetError> = rx.recv();
    assert_eq!(got.unwrap_err(), *expect, "tcp backend");
    client.join().expect("client thread");
}

#[test]
fn truncated_frame_is_a_typed_error_on_both_backends() {
    // A frame announcing 100 body bytes, stream dropped after 3.
    assert_both_backends(
        |w| {
            w.write_all(&100u32.to_le_bytes()).unwrap();
            w.write_all(&[WIRE_VERSION, 1, 7]).unwrap();
        },
        &NetError::Disconnected,
    );
}

#[test]
fn mid_prefix_drop_is_a_typed_error_on_both_backends() {
    // The stream dies inside the 4-byte length prefix itself.
    assert_both_backends(
        |w| {
            w.write_all(&[9u8, 0]).unwrap();
        },
        &NetError::Disconnected,
    );
}

#[test]
fn clean_close_at_frame_boundary_is_closed_on_both_backends() {
    assert_both_backends(|_| {}, &NetError::Closed);
}

#[test]
fn unknown_version_byte_is_a_typed_error_on_both_backends() {
    assert_both_backends(
        |w| {
            let body = [99u8, 1]; // version 99
            w.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            w.write_all(&body).unwrap();
        },
        &NetError::Codec(CodecError::UnknownVersion(99)),
    );
}

#[test]
fn oversized_length_prefix_is_rejected_before_reading_on_both_backends() {
    assert_both_backends(
        |w| {
            w.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
            // No body at all: the announcement alone must be refused.
        },
        &NetError::Codec(CodecError::LengthOverrun {
            announced: u64::from(MAX_FRAME_LEN) + 1,
            remaining: MAX_FRAME_LEN as usize,
        }),
    );
}

#[test]
fn unknown_frame_tag_is_a_typed_error_on_both_backends() {
    assert_both_backends(
        |w| {
            let body = [WIRE_VERSION, 200u8];
            w.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            w.write_all(&body).unwrap();
        },
        &NetError::Codec(CodecError::UnknownTag {
            what: "Frame",
            tag: 200,
        }),
    );
}

#[test]
fn trailing_garbage_inside_a_frame_is_a_typed_error_on_both_backends() {
    assert_both_backends(
        |w| {
            let mut body = Vec::new();
            Frame::<CtMsg>::Abort { session: 3 }.encode_body(&mut body);
            body.push(0xAB); // one byte the decoder must refuse to ignore
            w.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            w.write_all(&body).unwrap();
        },
        &NetError::Codec(CodecError::TrailingBytes { extra: 1 }),
    );
}

#[test]
fn connecting_to_a_closed_mem_hub_fails_fast() {
    // TCP refuses a dead port; the mem hub must not park the connector on
    // a queue nobody will ever accept from.
    let hub = MemTransport::new();
    let mut listener = hub.listener();
    NbListener::close(&mut listener);
    let (_tx, mut rx) = hub.connect::<CtMsg>();
    assert_eq!(rx.recv().unwrap_err(), NetError::Closed);
}

#[test]
fn frames_survive_both_backends_intact() {
    // A positive control for the shared framing: one frame each way over
    // the in-memory hub and over a real socket pair.
    let frame = Frame::Msg {
        session: 9,
        src: 1,
        dst: 4,
        msg: CtMsg::Finished,
        auth: None,
    };

    let hub = MemTransport::new();
    let mut listener = hub.listener();
    let (mut client_tx, _client_rx) = hub.connect::<CtMsg>();
    client_tx.send(&frame).expect("send over mem");
    let (_srv_tx, mut srv_rx) = accept_framed::<CtMsg>(&mut listener);
    assert_eq!(srv_rx.recv().expect("frame over mem"), frame);

    let mut transport = TcpTransport::bind_loopback().expect("bind");
    let addr = transport.addr();
    let sent = frame.clone();
    let client = std::thread::spawn(move || {
        let (mut tx, _rx) = TcpTransport::connect::<CtMsg>(addr).expect("connect");
        tx.send(&sent).expect("send over tcp");
    });
    let (_tx, mut rx) = accept_framed::<CtMsg>(&mut transport);
    assert_eq!(rx.recv().expect("frame over tcp"), frame);
    client.join().expect("client thread");
}

// ---------------------------------------------------------------------------
// Authenticated-frame negative paths (WIRE_VERSION_AUTH) over BOTH backends
// ---------------------------------------------------------------------------

/// A sealed v2 `Msg` frame: session 7, player 0 → 1, an `Open` carrying
/// `value`, MAC computed under `key`.
fn sealed_msg(key: &AuthKey, seq: u64, value: u64) -> Frame<CtMsg> {
    let mut frame = Frame::Msg {
        session: 7,
        src: 0,
        dst: 1,
        msg: CtMsg::Mpc(MpcMsg::Open {
            id: 42,
            value: Fp::new(value),
        }),
        auth: Some(AuthTag { seq, mac: [0; 8] }),
    };
    frame.seal(key);
    frame
}

/// Like [`assert_both_backends`] but for raw pre-built bytes (the sprays
/// here are crafted mutations of sealed frames, not fn-pointer friendly).
fn spray_bytes_both_backends(body: &[u8], expect: &NetError) {
    let framed = |body: &[u8]| {
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(body);
        bytes
    };

    assert_under_splits(&framed(body), expect);

    let (mut raw_tx, raw_rx) = mediator_net::pipe();
    std::io::Write::write_all(&mut raw_tx, &framed(body)).unwrap();
    drop(raw_tx);
    let mut rx: FramedRx<_> = FramedRx::new(raw_rx);
    let got: Result<Frame<CtMsg>, NetError> = rx.recv();
    assert_eq!(got.unwrap_err(), *expect, "mem backend");

    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind 127.0.0.1:0");
    let addr = listener.local_addr().expect("local addr");
    let bytes = framed(body);
    let client = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        std::io::Write::write_all(&mut stream, &bytes).unwrap();
    });
    let (stream, _) = listener.accept().expect("accept");
    let mut rx: FramedRx<_> = FramedRx::new(stream);
    let got: Result<Frame<CtMsg>, NetError> = rx.recv();
    assert_eq!(got.unwrap_err(), *expect, "tcp backend");
    client.join().expect("client thread");
}

#[test]
fn truncated_mac_trailer_is_a_typed_error_on_both_backends() {
    // A v2 frame with half its MAC cut off: the decoder demands all 8
    // trailer bytes and surfaces `Truncated` — never a short-MAC compare.
    let key = AuthKey::from_seed(11);
    let mut body = Vec::new();
    sealed_msg(&key, 0, 2).encode_body(&mut body);
    body.truncate(body.len() - 4);
    spray_bytes_both_backends(&body, &NetError::Codec(CodecError::Truncated));
}

#[test]
fn flipped_version_byte_is_a_typed_error_on_both_backends() {
    // One bit of stream damage in the version byte of a sealed frame.
    let key = AuthKey::from_seed(11);
    let mut body = Vec::new();
    sealed_msg(&key, 0, 2).encode_body(&mut body);
    let flipped = body[0] ^ 0x04;
    body[0] = flipped;
    spray_bytes_both_backends(&body, &NetError::Codec(CodecError::UnknownVersion(flipped)));
}

#[test]
fn auth_version_carries_only_msg_frames_on_both_backends() {
    // Control frames never travel v2 (they originate at the endpoint that
    // judges them): a v2 body with a non-Msg kind byte is malformed.
    let key = AuthKey::from_seed(11);
    let mut body = Vec::new();
    sealed_msg(&key, 0, 2).encode_body(&mut body);
    assert_eq!(body[0], WIRE_VERSION_AUTH);
    body[1] = 4; // Abort's kind byte — legal in v1, not under v2
    spray_bytes_both_backends(
        &body,
        &NetError::Codec(CodecError::UnknownTag {
            what: "Frame",
            tag: 4,
        }),
    );
}

#[test]
fn bit_flipped_payload_fails_mac_verification_on_both_backends() {
    // A payload mutation that keeps the frame *well-formed* (value 2 → 3
    // with the original MAC spliced in): the codec accepts it — MACs are
    // opaque bytes to the framing layer — and verification must be the
    // layer that catches it. Both backends deliver the frame intact; the
    // stale MAC fails against the mutated body on both.
    let key = AuthKey::from_seed(11);
    let genuine = sealed_msg(&key, 3, 2);
    let Frame::Msg {
        auth: Some(tag), ..
    } = &genuine
    else {
        panic!("sealed_msg builds a Msg");
    };
    let forged = match sealed_msg(&key, 3, 3) {
        Frame::Msg {
            session,
            src,
            dst,
            msg,
            ..
        } => Frame::Msg {
            session,
            src,
            dst,
            msg,
            auth: Some(*tag), // genuine MAC, mutated payload
        },
        _ => unreachable!(),
    };

    let verify = |frame: &Frame<CtMsg>| {
        let mut body = Vec::new();
        frame.encode_body(&mut body);
        let Frame::Msg {
            session,
            src,
            dst,
            auth: Some(tag),
            ..
        } = frame
        else {
            panic!("Msg expected");
        };
        key.verify_msg(*session, *src, *dst, &body[..body.len() - 8], tag.mac)
            .is_authentic()
    };
    assert!(verify(&genuine), "control: the untouched frame verifies");
    assert!(!verify(&forged), "one flipped payload value must be Forged");

    // Over the wire on both backends: arrives decodable, still Forged.
    let (raw_tx, raw_rx) = mediator_net::pipe();
    let mut tx = mediator_net::FramedTx::new(raw_tx);
    mediator_net::FrameTx::send(&mut tx, &forged).expect("send over mem");
    let mut rx: FramedRx<_> = FramedRx::new(raw_rx);
    let got: Frame<CtMsg> = rx.recv().expect("forged frame decodes at the codec layer");
    assert!(!verify(&got), "mem backend: Forged after the wire hop");

    let mut transport = TcpTransport::bind_loopback().expect("bind");
    let addr = transport.addr();
    let sent = forged.clone();
    let client = std::thread::spawn(move || {
        let (mut tx, _rx) = TcpTransport::connect::<CtMsg>(addr).expect("connect");
        tx.send(&sent).expect("send over tcp");
    });
    let (_tx, mut rx) = accept_framed::<CtMsg>(&mut transport);
    let got = rx.recv().expect("forged frame decodes at the codec layer");
    assert!(!verify(&got), "tcp backend: Forged after the wire hop");
    client.join().expect("client thread");
}

#[test]
fn replayed_frame_aborts_the_session_with_the_typed_owner_on_both_backends() {
    // End-to-end freshness: a relay that echoes one frame *twice* against
    // an authenticated service. The duplicate carries a valid MAC — only
    // the consumed sequence number betrays it — and the session dies with
    // the typed `Replayed` owner on both transports.
    use mediator_circuits::catalog;
    use mediator_core::scenario::Scenario;
    use mediator_net::{Client, DeliveryOrder, Service, ServiceConfig};
    use mediator_sim::SchedulerKind;

    let n = 5;
    let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n = 5 > 4k+4t = 4");
    let cfg = ServiceConfig {
        idle_timeout: std::time::Duration::from_secs(5),
        attach_timeout: std::time::Duration::from_secs(10),
        attach_grace: std::time::Duration::from_millis(100),
        delivery: DeliveryOrder::Arrival,
        ..ServiceConfig::default()
    }
    .with_auth(AuthKey::from_seed(0xabad1dea));

    for tcp in [false, true] {
        let hub = MemTransport::new();
        let (service, mut client): (Service<CtMsg>, Client<CtMsg>) = if tcp {
            let listener = TcpTransport::bind_loopback().expect("bind");
            let addr = listener.addr();
            let service = Service::with_config(Box::new(listener), cfg.clone());
            (service, Client::tcp(addr).expect("dial"))
        } else {
            let service = Service::with_config(Box::new(hub.listener()), cfg.clone());
            (service, Client::mem(&hub))
        };
        let handle = service.host_plan(7, &plan, SchedulerKind::Fifo, 0);
        for player in 0..n {
            client.attach(7, player).expect("attach");
        }
        let mut duplicated = false;
        while let Ok(frame @ Frame::Msg { .. }) = client.recv() {
            if client.send(&frame).is_err() {
                break; // service already aborted the session
            }
            if !duplicated {
                duplicated = true;
                let _ = client.send(&frame); // the replay
            }
        }
        assert!(duplicated, "tcp={tcp}: relay replayed a frame");
        match handle.outcome() {
            Err(NetError::AuthFailure { session, kind, .. }) => {
                assert_eq!(session, 7, "tcp={tcp}");
                assert_eq!(kind, TamperKind::Replayed, "tcp={tcp}");
            }
            other => panic!("tcp={tcp}: expected Replayed AuthFailure, got {other:?}"),
        }
        service.shutdown();
    }
}

/// Spin-waits one connection out of a non-blocking listener and hands it
/// back as blocking framed halves (test convenience only — the service's
/// reactor consumes the readiness-based form).
fn accept_framed<M: mediator_net::Wire + 'static>(
    listener: &mut dyn NbListener,
) -> mediator_net::ConnPair<M> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match listener.try_accept().expect("listener open") {
            Some(io) => return io.into_framed().expect("framed"),
            None => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "no connection arrived"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
}

#[test]
fn a_rows_frame_whose_first_row_is_widest_decodes_padded() {
    // The first row fixes the width the frame decodes into; later rows may
    // be shorter, and decode zero-padded as a ragged frame would.
    let (a, b, c) = (Fp::new(5), Fp::new(6), Fp::new(7));
    let ragged: Vec<Vec<Fp>> = vec![vec![b, c], vec![a], vec![]];
    let mut bytes = vec![0, 3];
    for row in &ragged {
        bytes.push(row.len() as u8);
        bytes.extend(row.iter().map(|x| x.as_u64() as u8));
    }
    let decoded = AvssMsg::from_bytes(&bytes).expect("a ragged frame decodes");
    assert_eq!(decoded, AvssMsg::rows(&ragged));
    // A truncated or overlong frame fails as it does on the general path.
    assert_eq!(
        AvssMsg::from_bytes(&bytes[..bytes.len() - 1]),
        Err(CodecError::Truncated)
    );
    bytes.push(0);
    assert_eq!(
        AvssMsg::from_bytes(&bytes),
        Err(CodecError::TrailingBytes { extra: 1 })
    );
}
