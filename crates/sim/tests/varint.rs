//! The word-at-a-time LEB128 reader against the byte loop it replaced.
//!
//! `Reader::varint` reads up to nine bytes with one 8-byte load and one
//! byte, and falls back to a byte loop for a 10th byte or a short tail.
//! The reference below is that byte loop, kept verbatim: for every input
//! both must give the same value, leave the cursor at the same position,
//! and fail with the same error.

use mediator_sim::bytes::{put_varint, ByteError, Reader};

/// The reference: byte-at-a-time LEB128 over `buf` from `pos`. Returns the
/// result and the position after it (advanced past every byte read, as
/// the cursor's `u8` does, also on error).
fn reference(buf: &[u8], mut pos: usize) -> (Result<u64, ByteError>, usize) {
    let mut value: u64 = 0;
    for i in 0..10 {
        let Some(&b) = buf.get(pos) else {
            return (Err(ByteError::Truncated), pos);
        };
        pos += 1;
        if i == 9 && b > 0x01 {
            return (Err(ByteError::VarintOverflow), pos);
        }
        value |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            return (Ok(value), pos);
        }
    }
    (Err(ByteError::VarintOverflow), pos)
}

/// Reads one varint at `pos` through the cursor and through the
/// reference, and insists they agree on value, position and error.
fn agree(buf: &[u8], pos: usize) -> Result<u64, ByteError> {
    let mut r = Reader::new(buf);
    r.bytes(pos).expect("pos is inside the buffer");
    let got = r.varint();
    let (want, want_pos) = reference(buf, pos);
    assert_eq!(got, want, "value at {pos} of {buf:02x?}");
    assert_eq!(
        buf.len() - r.remaining(),
        want_pos,
        "position after {pos} of {buf:02x?}"
    );
    got
}

/// `v`'s shortest encoding.
fn encode(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, v);
    out
}

/// Checks `enc` at the front of a buffer, behind `pad` bytes, and with
/// `tail` bytes after it — so every encoding is read both from a full
/// word and from a tail shorter than one — then every truncation of it.
fn agree_everywhere(enc: &[u8]) {
    for pad in [0usize, 1, 7] {
        for tail in [0usize, 1, 7, 8, 16] {
            let mut buf = vec![0x55; pad];
            buf.extend_from_slice(enc);
            buf.extend(std::iter::repeat_n(0xAA, tail));
            let _ = agree(&buf, pad); // agreeing is the check
        }
        // Nine or fewer bytes, every one a continuation: the buffer ends
        // before the value does.
        for cut in 0..enc.len().min(10) {
            let mut buf = vec![0x55; pad];
            buf.extend_from_slice(&enc[..cut]);
            assert_eq!(agree(&buf, pad), Err(ByteError::Truncated), "cut {cut}");
        }
    }
}

#[test]
fn varint_round_trips_at_the_boundaries() {
    for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
        let buf = encode(v);
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint(), Ok(v));
        r.finish().unwrap();
    }
}

#[test]
fn eleven_byte_varint_overflows() {
    let buf = [0xFFu8; 11];
    assert_eq!(Reader::new(&buf).varint(), Err(ByteError::VarintOverflow));
}

#[test]
fn varint_tenth_byte_overflow_bits_are_rejected_not_truncated() {
    // 9 continuation bytes put the 10th byte's contribution at bit 63:
    // only 0x00 / 0x01 still fit a u64. 0x40 would silently vanish under
    // a truncating decoder — it must error instead.
    let mut bad = vec![0x80u8; 9];
    bad.push(0x40);
    assert_eq!(Reader::new(&bad).varint(), Err(ByteError::VarintOverflow));
    // The one legal 10-byte encoding: the top bit itself.
    let mut top = vec![0x80u8; 9];
    top.push(0x01);
    assert_eq!(Reader::new(&top).varint(), Ok(1u64 << 63));
}

#[test]
fn a_truncated_varint_is_typed() {
    assert_eq!(Reader::new(&[0x80]).varint(), Err(ByteError::Truncated));
}

#[test]
fn every_length_from_one_to_ten_bytes() {
    for len in 1..=10u32 {
        let shortest = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
        let longest = if len == 10 {
            u64::MAX
        } else {
            (1u64 << (7 * len)) - 1
        };
        for v in [shortest, shortest + 1, longest - 1, longest] {
            let enc = encode(v);
            assert_eq!(enc.len(), len as usize, "{v:#x}");
            agree_everywhere(&enc);
            assert_eq!(agree(&enc, 0), Ok(v));
        }
    }
}

#[test]
fn every_seven_bit_boundary_plus_and_minus_one() {
    for k in 1..=9u32 {
        let edge = 1u64 << (7 * k);
        for v in [edge - 1, edge, edge + 1] {
            agree_everywhere(&encode(v));
        }
    }
    for v in [u64::MAX - 1, u64::MAX, 1 << 63, (1 << 61) - 2] {
        agree_everywhere(&encode(v));
    }
}

#[test]
fn overlong_encodings_are_accepted_as_before() {
    // `v` padded with zero groups out to `len` bytes, for every length the
    // format allows: the reader has always accepted these.
    for v in [0u64, 1, 0x7F, 0x3FFF] {
        let short = encode(v).len();
        for len in short + 1..=10 {
            let mut enc = encode(v);
            *enc.last_mut().expect("one byte at least") |= 0x80;
            enc.resize(len - 1, 0x80);
            enc.push(0x00);
            agree_everywhere(&enc);
            assert_eq!(agree(&enc, 0), Ok(v), "{v:#x} in {len} bytes");
        }
    }
}

#[test]
fn a_tenth_byte_above_one_overflows() {
    for tenth in 0u8..=0xFF {
        let mut enc = vec![0xFF; 9];
        enc.push(tenth);
        enc.extend_from_slice(&[0; 8]);
        let got = agree(&enc, 0);
        match tenth {
            0x00 => assert_eq!(got, Ok(u64::MAX >> 1)),
            0x01 => assert_eq!(got, Ok(u64::MAX)),
            _ => assert_eq!(got, Err(ByteError::VarintOverflow), "{tenth:#x}"),
        }
        agree_everywhere(&enc[..10]);
    }
    // Ten continuation bytes, an eleventh never read.
    agree_everywhere(&[0x80; 11]);
}

#[test]
fn every_position_of_random_buffers() {
    // Bytes biased toward the continuation bit, so long varints, tenth
    // bytes and truncations are all common.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..20_000 {
        let len = (next() % 24) as usize;
        let buf: Vec<u8> = (0..len)
            .map(|_| {
                let r = next();
                let b = r as u8 & 0x7F;
                if r >> 32 & 3 == 0 {
                    b
                } else {
                    b | 0x80
                }
            })
            .collect();
        for pos in 0..=len {
            let _ = agree(&buf, pos); // agreeing is the check
        }
    }
}

#[test]
fn a_run_of_varints_reads_back_through_the_end_of_the_buffer() {
    // Field-element-sized values back to back: the last few sit in a tail
    // shorter than a word.
    let values: Vec<u64> = (0..40u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 64))
        .collect();
    let mut buf = Vec::new();
    for &v in &values {
        put_varint(&mut buf, v);
    }
    let mut r = Reader::new(&buf);
    for &v in &values {
        let pos = buf.len() - r.remaining();
        assert_eq!(agree(&buf, pos), Ok(v));
        assert_eq!(r.varint(), Ok(v));
    }
    r.finish().expect("every byte consumed");
}
