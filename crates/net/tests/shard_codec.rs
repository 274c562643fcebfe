//! Codec conformance for the shard lease frames (tags 5–9): fuzz-style
//! round trips, then the malformed-input battery — truncation at every
//! cut, unknown tags, oversized payload claims, invalid UTF-8 strategy
//! names, and the v2 grammar pin (exactly `Msg` and `ShardResult` travel
//! authenticated) — each a *typed* error, never a panic, on **both**
//! transport backends.

use mediator_net::{
    AuthKey, AuthTag, CodecError, Frame, FramedRx, NetError, Wire, MAX_FRAME_LEN, SHARD_COORD,
    WIRE_VERSION, WIRE_VERSION_AUTH,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

type ShardFrame = Frame<u64>;

// ---------------------------------------------------------------------------
// Random shard-frame generators (the shim has no prop_oneof; hand-rolled)
// ---------------------------------------------------------------------------

fn arb_strategy(rng: &mut StdRng) -> Option<String> {
    match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some(String::new()),
        _ => {
            let len = rng.gen_range(1..24usize);
            Some(
                (0..len)
                    .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                    .collect(),
            )
        }
    }
}

fn arb_coalition(rng: &mut StdRng) -> Vec<usize> {
    let len = rng.gen_range(0..5usize);
    (0..len).map(|_| rng.gen_range(0..32usize)).collect()
}

fn arb_profiles(rng: &mut StdRng) -> Vec<Vec<usize>> {
    let runs = rng.gen_range(0..6usize);
    let players = rng.gen_range(1..8usize);
    (0..runs)
        .map(|_| (0..players).map(|_| rng.gen_range(0..64usize)).collect())
        .collect()
}

fn arb_shard_frame(rng: &mut StdRng) -> ShardFrame {
    match rng.gen_range(0..5u32) {
        0 => Frame::ShardRequest { worker: rng.gen() },
        1 => Frame::ShardGrant {
            unit: rng.gen_range(0..10_000u64),
            strategy: arb_strategy(rng),
            coalition: arb_coalition(rng),
            run: if rng.gen() {
                Some(rng.gen_range(0..1000u64))
            } else {
                None
            },
        },
        2 => Frame::ShardResult {
            unit: rng.gen_range(0..10_000u64),
            worker: rng.gen_range(0..64u64),
            profiles: arb_profiles(rng),
            auth: None,
        },
        3 => Frame::ShardWitness {
            unit: rng.gen_range(0..10_000u64),
            run: rng.gen_range(0..1000u64),
            profile: (0..rng.gen_range(1..8usize))
                .map(|_| rng.gen_range(0..64))
                .collect(),
        },
        _ => Frame::ShardDrain,
    }
}

struct Gen<T>(fn(&mut StdRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (self.0)(rng)
    }
}

proptest! {
    #[test]
    fn shard_frames_round_trip(frame in Gen(arb_shard_frame)) {
        let mut body = Vec::new();
        frame.encode_body(&mut body);
        prop_assert_eq!(body[0], WIRE_VERSION, "plain shard frames travel v1");
        let back = ShardFrame::decode_body(&body).expect("frame decodes");
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn sealed_shard_results_round_trip_and_verify(
        unit in 0u64..10_000,
        worker in 0u64..64,
        seq in 0u64..1_000_000,
    ) {
        let key = AuthKey::from_seed(0xBADC_0FFE);
        let mut frame = Frame::<u64>::ShardResult {
            unit,
            worker,
            profiles: vec![vec![1, 2, 3], vec![4, 5, 6]],
            auth: Some(AuthTag { seq, mac: [0; 8] }),
        };
        frame.seal(&key);
        let mut body = Vec::new();
        frame.encode_body(&mut body);
        prop_assert_eq!(body[0], WIRE_VERSION_AUTH, "sealed results travel v2");
        prop_assert_eq!(body[1], 7u8, "the v2 shard grammar is tag 7");
        // The trailer verifies under the shard MAC domain…
        let (tag, prefix) = match &frame {
            Frame::ShardResult { auth: Some(tag), .. } => (*tag, &body[..body.len() - 8]),
            _ => unreachable!(),
        };
        prop_assert!(key
            .verify_msg(unit, worker as usize, SHARD_COORD, prefix, tag.mac)
            .is_authentic());
        // …and the frame round-trips trailer included.
        let back = ShardFrame::decode_body(&body).expect("sealed result decodes");
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn truncated_shard_frames_error_not_panic(frame in Gen(arb_shard_frame)) {
        // Every strict prefix of a valid shard frame body must decode to
        // a typed error: lease bookkeeping can never panic on a cut.
        let mut body = Vec::new();
        frame.encode_body(&mut body);
        for cut in 0..body.len() {
            prop_assert!(ShardFrame::decode_body(&body[..cut]).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed shard frames over BOTH transport backends
// ---------------------------------------------------------------------------

/// Sprays a pre-built frame body (length prefix added here) at a fresh
/// framed connection on each backend and asserts the typed error.
fn spray_bytes_both_backends(body: &[u8], expect: &NetError) {
    let framed = |body: &[u8]| {
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(body);
        bytes
    };

    // In-memory pipe.
    let (mut raw_tx, raw_rx) = mediator_net::pipe();
    std::io::Write::write_all(&mut raw_tx, &framed(body)).unwrap();
    drop(raw_tx);
    let mut rx: FramedRx<_> = FramedRx::new(raw_rx);
    let got: Result<ShardFrame, NetError> = rx.recv();
    assert_eq!(got.unwrap_err(), *expect, "mem backend");

    // TCP loopback (ephemeral port: sandbox/CI-safe).
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind 127.0.0.1:0");
    let addr = listener.local_addr().expect("local addr");
    let bytes = framed(body);
    let client = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        std::io::Write::write_all(&mut stream, &bytes).unwrap();
    });
    let (stream, _) = listener.accept().expect("accept");
    let mut rx: FramedRx<_> = FramedRx::new(stream);
    let got: Result<ShardFrame, NetError> = rx.recv();
    assert_eq!(got.unwrap_err(), *expect, "tcp backend");
    client.join().expect("client thread");
}

#[test]
fn unknown_shard_tag_is_rejected_on_both_backends() {
    // Tag 10 is one past the shard grammar.
    spray_bytes_both_backends(
        &[WIRE_VERSION, 10],
        &CodecError::UnknownTag {
            what: "Frame",
            tag: 10,
        }
        .into(),
    );
}

#[test]
fn shard_request_cut_inside_the_worker_id_is_truncated() {
    // `[1][5]` announces a ShardRequest and ends before the worker id.
    spray_bytes_both_backends(&[WIRE_VERSION, 5], &CodecError::Truncated.into());
}

#[test]
fn oversized_profile_claim_is_a_length_overrun() {
    // A ShardResult whose profiles vector *claims* 2^20 runs in a 5-byte
    // body: the codec's length guard refuses before allocating anything.
    let mut body = vec![WIRE_VERSION, 7];
    0u64.encode(&mut body); // unit
    3u64.encode(&mut body); // worker
                            // Varint 2^20 as the profiles length claim, with nothing after it.
    (1u64 << 20).encode(&mut body);
    let announced = 1u64 << 20;
    spray_bytes_both_backends(
        &body,
        &CodecError::LengthOverrun {
            announced,
            remaining: 0,
        }
        .into(),
    );
}

#[test]
fn oversized_frame_prefix_is_refused_before_reading_the_lease() {
    // The transport-level guard: a length prefix past MAX_FRAME_LEN is
    // refused before any shard payload is read, on both backends.
    let overrun = MAX_FRAME_LEN + 1;
    let spray = move |w: &mut dyn std::io::Write| {
        w.write_all(&overrun.to_le_bytes()).unwrap();
        w.write_all(&[WIRE_VERSION, 6]).unwrap();
    };
    let expect: NetError = CodecError::LengthOverrun {
        announced: u64::from(overrun),
        remaining: MAX_FRAME_LEN as usize,
    }
    .into();

    let (mut raw_tx, raw_rx) = mediator_net::pipe();
    spray(&mut raw_tx);
    drop(raw_tx);
    let mut rx: FramedRx<_> = FramedRx::new(raw_rx);
    let got: Result<ShardFrame, NetError> = rx.recv();
    assert_eq!(got.unwrap_err(), expect, "mem backend");

    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let client = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        spray(&mut stream);
    });
    let (stream, _) = listener.accept().expect("accept");
    let mut rx: FramedRx<_> = FramedRx::new(stream);
    let got: Result<ShardFrame, NetError> = rx.recv();
    assert_eq!(got.unwrap_err(), expect, "tcp backend");
    client.join().expect("client thread");
}

#[test]
fn invalid_utf8_strategy_name_is_a_bad_string() {
    // A ShardGrant whose strategy-name bytes are not UTF-8: `[1][6]`,
    // unit 0, Some(2-byte string) = 0xFF 0xFE, which String decoding
    // must refuse with the typed BadString (never a lossy conversion —
    // strategy names key the deviant-cell lookup).
    let mut body = vec![WIRE_VERSION, 6];
    0u64.encode(&mut body); // unit
    body.push(1); // Option tag: Some
    2u64.encode(&mut body); // string byte length
    body.extend_from_slice(&[0xFF, 0xFE]); // not UTF-8
    spray_bytes_both_backends(&body, &CodecError::BadString.into());
}

#[test]
fn v2_grammar_admits_only_msg_and_shard_result() {
    // The versioned grammar pin: under WIRE_VERSION_AUTH exactly two
    // kinds travel — Msg (tag 1) and ShardResult (tag 7). Every other
    // tag under v2 is an unknown-tag error even though it is perfectly
    // valid under v1 — lease control frames never carry MACs, so a v2
    // claim on one is itself malformed.
    for tag in [0u8, 2, 3, 4, 5, 6, 8, 9] {
        spray_bytes_both_backends(
            &[WIRE_VERSION_AUTH, tag],
            &CodecError::UnknownTag { what: "Frame", tag }.into(),
        );
    }
}

#[test]
fn truncated_mac_trailer_on_a_sealed_result_is_truncated() {
    // Seal a result, then cut the body inside the 8-byte MAC trailer.
    let key = AuthKey::from_seed(7);
    let mut frame = Frame::<u64>::ShardResult {
        unit: 3,
        worker: 1,
        profiles: vec![vec![0, 1]],
        auth: Some(AuthTag {
            seq: 0,
            mac: [0; 8],
        }),
    };
    frame.seal(&key);
    let mut body = Vec::new();
    frame.encode_body(&mut body);
    body.truncate(body.len() - 3);
    spray_bytes_both_backends(&body, &CodecError::Truncated.into());
}

#[test]
fn bit_flipped_sealed_result_fails_its_mac_check() {
    // A relay flipping one profile byte in a sealed result invalidates
    // the MAC: the frame still *decodes* (the codec is integrity-blind),
    // but verification under the shard domain must refuse it.
    let key = AuthKey::from_seed(99);
    let mut frame = Frame::<u64>::ShardResult {
        unit: 11,
        worker: 2,
        profiles: vec![vec![5, 6, 7]],
        auth: Some(AuthTag {
            seq: 4,
            mac: [0; 8],
        }),
    };
    frame.seal(&key);
    let mut body = Vec::new();
    frame.encode_body(&mut body);
    // Flip the last profile value byte (7 → 6): still a valid encoding,
    // so the decode succeeds while the MAC check must not.
    let flip = body.len() - 9;
    body[flip] ^= 0x01;
    let back = ShardFrame::decode_body(&body).expect("tampered frame still decodes");
    match back {
        Frame::ShardResult {
            unit,
            worker,
            auth: Some(tag),
            ..
        } => {
            let prefix = &body[..body.len() - 8];
            assert!(
                !key.verify_msg(unit, worker as usize, SHARD_COORD, prefix, tag.mac)
                    .is_authentic(),
                "flipped byte must break the MAC"
            );
        }
        other => panic!("decoded to {other:?}"),
    }
}
