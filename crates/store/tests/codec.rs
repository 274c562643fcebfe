//! Store-codec conformance: fuzz-style round-trip properties over every
//! value type that lands in a trace-log file, plus the malformed-input
//! battery — truncation, unknown tags, corrupted CRCs, and torn final
//! records — each surfacing a *typed* [`StoreError`], never a panic — and
//! the record checksum held to its bitwise definition. The
//! structure mirrors the transport plane's codec suite
//! (`crates/net/tests/codec.rs`): the two formats share conventions but
//! not code, so each needs its own pin.

use mediator_sim::{ReplayScript, SchedulerKind, TerminationKind, TraceEvent};
use mediator_store::codec::{put_varint, Reader, StoreCodec};
use mediator_store::format::{
    crc32, put_preamble, put_record, scan, RecordKind, FRAME_LEN, PREAMBLE_LEN,
};
use mediator_store::{OutcomeRecord, PlanKind, RunHeader, StoreError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

// ---------------------------------------------------------------------------
// Random value generators (the shim has no prop_oneof; hand-rolled)
// ---------------------------------------------------------------------------

fn arb_event(rng: &mut StdRng) -> TraceEvent {
    let src = rng.gen_range(0..32usize);
    let dst = rng.gen_range(0..32usize);
    let k = rng.gen_range(0..1_000u64);
    match rng.gen_range(0..4) {
        0 => TraceEvent::Started { p: src },
        1 => TraceEvent::Sent { src, dst, k },
        2 => TraceEvent::Delivered { src, dst, k },
        _ => TraceEvent::Dropped { src, dst, k },
    }
}

fn event_vec(rng: &mut StdRng, max: usize) -> Vec<TraceEvent> {
    let len = rng.gen_range(0..=max);
    (0..len).map(|_| arb_event(rng)).collect()
}

fn arb_kind(rng: &mut StdRng) -> SchedulerKind {
    match rng.gen_range(0..6) {
        0 => SchedulerKind::Random,
        1 => SchedulerKind::Fifo,
        2 => SchedulerKind::Lifo,
        3 => {
            let len = rng.gen_range(0..4usize);
            SchedulerKind::TargetedDelay((0..len).map(|_| rng.gen_range(0..8usize)).collect())
        }
        4 => {
            let len = rng.gen_range(0..4usize);
            SchedulerKind::Partition {
                group: (0..len).map(|_| rng.gen_range(0..8usize)).collect(),
                heal_after: rng.gen_range(0..500u64),
            }
        }
        _ => SchedulerKind::Replay(ReplayScript::new(event_vec(rng, 6))),
    }
}

fn arb_plan_kind(rng: &mut StdRng) -> PlanKind {
    match rng.gen_range(0..3) {
        0 => PlanKind::CheapTalk,
        1 => PlanKind::Mediator,
        _ => PlanKind::Other,
    }
}

fn arb_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

fn arb_header(rng: &mut StdRng) -> RunHeader {
    let meta_len = rng.gen_range(0..4usize);
    RunHeader {
        session: rng.gen(),
        seed: rng.gen(),
        kind: if rng.gen() { Some(arb_kind(rng)) } else { None },
        plan: arb_plan_kind(rng),
        n: rng.gen_range(0..64),
        k: rng.gen_range(0..8),
        t: rng.gen_range(0..8),
        partial: rng.gen(),
        networked: rng.gen(),
        meta: (0..meta_len)
            .map(|_| (arb_string(rng), arb_string(rng)))
            .collect(),
    }
}

fn arb_termination(rng: &mut StdRng) -> TerminationKind {
    match rng.gen_range(0..3) {
        0 => TerminationKind::Quiescent,
        1 => TerminationKind::Deadlock,
        _ => TerminationKind::BudgetExhausted,
    }
}

fn arb_outcome_record(rng: &mut StdRng) -> OutcomeRecord {
    let n = rng.gen_range(1..8usize);
    OutcomeRecord {
        moves: (0..n)
            .map(|_| if rng.gen() { Some(rng.gen()) } else { None })
            .collect(),
        wills: (0..n)
            .map(|_| if rng.gen() { Some(rng.gen()) } else { None })
            .collect(),
        halted: (0..n).map(|_| rng.gen()).collect(),
        messages_sent: rng.gen_range(0..10_000),
        messages_delivered: rng.gen_range(0..10_000),
        steps: rng.gen_range(0..20_000),
        termination: arb_termination(rng),
        event_count: rng.gen_range(0..20_000),
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

fn roundtrip<T: StoreCodec + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = value.to_bytes();
    let back = T::from_bytes(&bytes).expect("round trip decodes");
    assert_eq!(&back, value);
}

proptest! {
    #[test]
    fn trace_events_round_trip(e in Gen(arb_event)) {
        roundtrip(&e);
    }

    #[test]
    fn scheduler_kinds_round_trip(kind in Gen(arb_kind)) {
        // `SchedulerKind` has no `Debug`-independent equality quirk: the
        // Replay variant compares by script contents.
        let bytes = kind.to_bytes();
        let back = SchedulerKind::from_bytes(&bytes).expect("round trip decodes");
        prop_assert_eq!(back, kind);
    }

    #[test]
    fn run_headers_round_trip(h in Gen(arb_header)) {
        roundtrip(&h);
    }

    #[test]
    fn outcome_records_round_trip(o in Gen(arb_outcome_record)) {
        roundtrip(&o);
    }

    #[test]
    fn truncated_headers_error_not_panic(h in Gen(arb_header)) {
        // Every strict prefix of a valid encoding must decode to a typed
        // error — truncation can never panic or succeed (tags and lengths
        // lead every field).
        let bytes = h.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(RunHeader::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn framed_records_survive_a_scan(h in Gen(arb_header), o in Gen(arb_outcome_record)) {
        let mut buf = Vec::new();
        put_preamble(&mut buf);
        put_record(&mut buf, RecordKind::Header, &h.to_bytes());
        put_record(&mut buf, RecordKind::Outcome, &o.to_bytes());
        let records = scan(&buf).expect("well-formed log scans");
        prop_assert_eq!(records.len(), 2);
        let payload = |i: usize| {
            let r = records[i];
            &buf[r.payload_offset as usize..r.payload_offset as usize + r.payload_len]
        };
        prop_assert_eq!(RunHeader::from_bytes(payload(0)).expect("header decodes"), h);
        prop_assert_eq!(OutcomeRecord::from_bytes(payload(1)).expect("outcome decodes"), o);
    }

    #[test]
    fn any_single_bit_flip_in_a_record_is_caught(h in Gen(arb_header), byte in Gen(|rng: &mut StdRng| rng.gen::<u64>())) {
        // Flip one bit anywhere in the record *body* (past the frame): the
        // scan must fail — BadCrc for a payload flip; a flip in the frame
        // itself surfaces as whatever the damaged length implies, but
        // never a silent success with different bytes.
        let mut buf = Vec::new();
        put_preamble(&mut buf);
        put_record(&mut buf, RecordKind::Header, &h.to_bytes());
        let body_start = PREAMBLE_LEN as usize + FRAME_LEN;
        let i = body_start + (byte as usize % (buf.len() - body_start));
        let bit = 1u8 << (byte % 8);
        buf[i] ^= bit;
        prop_assert_eq!(
            scan(&buf),
            Err(StoreError::BadCrc { offset: PREAMBLE_LEN })
        );
    }

    #[test]
    fn torn_final_record_is_typed_at_its_offset(h in Gen(arb_header), o in Gen(arb_outcome_record), cut in Gen(|rng: &mut StdRng| rng.gen::<u64>())) {
        // A complete run followed by an interrupted append: the scan must
        // report a TornTail at the torn record's frame offset, whatever
        // prefix of it made it to the log.
        let mut buf = Vec::new();
        put_preamble(&mut buf);
        put_record(&mut buf, RecordKind::Header, &h.to_bytes());
        put_record(&mut buf, RecordKind::Outcome, &o.to_bytes());
        let tear_at = buf.len() as u64;
        put_record(&mut buf, RecordKind::Header, &h.to_bytes());
        let keep = tear_at as usize + 1 + (cut as usize % (buf.len() - tear_at as usize - 1));
        buf.truncate(keep);
        prop_assert_eq!(scan(&buf), Err(StoreError::TornTail { offset: tear_at }));
    }
}

// ---------------------------------------------------------------------------
// Deterministic malformed-input edge cases
// ---------------------------------------------------------------------------

#[test]
fn unknown_tags_are_typed_per_type() {
    assert_eq!(
        TraceEvent::from_bytes(&[9]),
        Err(StoreError::UnknownTag {
            what: "TraceEvent",
            tag: 9
        })
    );
    assert_eq!(
        SchedulerKind::from_bytes(&[6]),
        Err(StoreError::UnknownTag {
            what: "SchedulerKind",
            tag: 6
        })
    );
    assert_eq!(
        PlanKind::from_bytes(&[3]),
        Err(StoreError::UnknownTag {
            what: "PlanKind",
            tag: 3
        })
    );
    assert_eq!(
        TerminationKind::from_bytes(&[7]),
        Err(StoreError::UnknownTag {
            what: "TerminationKind",
            tag: 7
        })
    );
}

#[test]
fn unknown_record_kind_fails_the_scan() {
    let mut buf = Vec::new();
    put_preamble(&mut buf);
    // A structurally valid frame around an unknown kind byte: length and
    // CRC check out, so the failure must be the tag, not the framing.
    let body = [9u8, 1, 2, 3];
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&body).to_le_bytes());
    buf.extend_from_slice(&body);
    assert_eq!(
        scan(&buf),
        Err(StoreError::UnknownTag {
            what: "RecordKind",
            tag: 9
        })
    );
}

#[test]
fn zero_length_record_is_a_torn_tail_not_a_loop() {
    let mut buf = Vec::new();
    put_preamble(&mut buf);
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        scan(&buf),
        Err(StoreError::TornTail {
            offset: PREAMBLE_LEN
        })
    );
}

#[test]
fn trailing_garbage_after_a_value_is_rejected() {
    let mut bytes = PlanKind::CheapTalk.to_bytes();
    bytes.push(0xAB);
    assert_eq!(
        PlanKind::from_bytes(&bytes),
        Err(StoreError::TrailingBytes { extra: 1 })
    );
}

#[test]
fn overlong_varint_is_rejected() {
    // Eleven continuation bytes: no u64 needs more than ten.
    let mut buf = vec![0x80u8; 10];
    buf.push(0x00);
    assert_eq!(u64::from_bytes(&buf), Err(StoreError::VarintOverflow));
    // The strict tenth byte: anything above 0x01 loses bits.
    let mut buf = vec![0x80u8; 9];
    buf.push(0x02);
    assert_eq!(u64::from_bytes(&buf), Err(StoreError::VarintOverflow));
}

#[test]
fn varint_encodings_are_canonical_under_round_trip() {
    let mut rng: StdRng = rand::SeedableRng::seed_from_u64(7);
    for _ in 0..256 {
        let v: u64 = rng.gen();
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint(), Ok(v));
        r.finish().unwrap();
    }
}

// ---------------------------------------------------------------------------
// The CRC32 kernel against its bitwise definition
// ---------------------------------------------------------------------------

/// CRC32 one bit at a time (reflected IEEE polynomial): the definition the
/// slicing-by-8 kernel must reproduce on every input.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[test]
fn crc32_matches_the_bitwise_definition_at_every_length_and_offset() {
    // The classic check value for the IEEE polynomial.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    let bytes: Vec<u8> = (0..72u32).map(|i| (i * 37 + 11) as u8).collect();
    // Every length 0–64, so the 8-byte words and the byte tail meet at
    // every split, over eight shifted contents.
    for start in 0..8 {
        for len in 0..=64 {
            let slice = &bytes[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bitwise(slice),
                "start {start}, len {len}"
            );
        }
    }
}

#[test]
fn crc32_matches_the_bitwise_definition_on_random_buffers() {
    let mut rng: StdRng = rand::SeedableRng::seed_from_u64(32);
    for _ in 0..200 {
        let len = rng.gen_range(0..4096usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "len {len}");
    }
}
