//! The append-only file format: a magic preamble followed by CRC-framed
//! records.
//!
//! ```text
//! file    := "MTRC" version:u8 record*
//! record  := len:u32le crc:u32le body          (len = |body|, crc = crc32(body))
//! body    := kind:u8 payload
//! kind    := 0 Header | 1 EventsChunk | 2 Outcome
//! run     := Header EventsChunk* Outcome       (the grammar `scan` enforces)
//! ```
//!
//! The framing is what makes an append-only log crash-safe to read back:
//!
//! * an interrupted append leaves fewer bytes than the final record's
//!   `len` announces — detected as a [`StoreError::TornTail`] at that
//!   record's offset (the expected crash signature, distinct from
//!   corruption);
//! * a bit flipped in place fails the record's CRC32 — detected as
//!   [`StoreError::BadCrc`];
//! * everything inside a record is still decoded strictly by the
//!   [`codec`](crate::codec) layer, so framing and content corruption
//!   surface as distinct typed errors.

use crate::codec::{Reader, StoreCodec, StoreError};
use mediator_sim::TraceEvent;

/// The four-byte file magic.
pub const MAGIC: &[u8; 4] = b"MTRC";

/// The store-format version, written immediately after the magic.
pub const STORE_VERSION: u8 = 1;

/// Byte length of the file preamble (magic + version).
pub const PREAMBLE_LEN: u64 = 5;

/// Byte length of a record frame (length + CRC) preceding each body.
pub const FRAME_LEN: usize = 8;

/// Record kinds (the `kind` byte of every record body).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A [`crate::codec::RunHeader`] — opens a run.
    Header,
    /// A batch of trace events (varint count, then that many events).
    EventsChunk,
    /// A [`crate::codec::OutcomeRecord`] — closes a run.
    Outcome,
}

impl RecordKind {
    pub(crate) fn from_tag(tag: u8) -> Result<Self, StoreError> {
        match tag {
            0 => Ok(RecordKind::Header),
            1 => Ok(RecordKind::EventsChunk),
            2 => Ok(RecordKind::Outcome),
            tag => Err(StoreError::UnknownTag {
                what: "RecordKind",
                tag,
            }),
        }
    }

    fn tag(self) -> u8 {
        match self {
            RecordKind::Header => 0,
            RecordKind::EventsChunk => 1,
            RecordKind::Outcome => 2,
        }
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected) over `bytes` — the same
/// checksum gzip and PNG use. Every record is check-summed when it is
/// recorded, opened, loaded and compacted, so the kernel is
/// slicing-by-8: eight table lookups per eight bytes.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(CRC_INIT, bytes)
}

/// The running state a CRC32 starts from; the checksum is the final
/// state's complement.
pub(crate) const CRC_INIT: u32 = !0;

/// `CRC_TABLES[0][b]` is the state change byte `b` causes;
/// `CRC_TABLES[k][b]` is that change carried through `k` more zero bytes,
/// so eight bytes fold in at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Folds `bytes` into a running CRC32 state, so a record can be
/// check-summed piece by piece.
pub(crate) fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let [a, b, c, d] = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        crc = t[7][usize::from(a)]
            ^ t[6][usize::from(b)]
            ^ t[5][usize::from(c)]
            ^ t[4][usize::from(d)]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    crc
}

/// Appends the file preamble (magic + version) to `out`.
pub fn put_preamble(out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.push(STORE_VERSION);
}

/// Checks a buffer's preamble, returning the offset of the first record.
pub fn check_preamble(bytes: &[u8]) -> Result<u64, StoreError> {
    if bytes.len() < PREAMBLE_LEN as usize {
        if bytes.len() < MAGIC.len() {
            if bytes == &MAGIC[..bytes.len()] && !bytes.is_empty() {
                return Err(StoreError::Truncated);
            }
            return Err(if bytes.is_empty() {
                StoreError::Truncated
            } else {
                StoreError::BadMagic
            });
        }
        return Err(StoreError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    if bytes[4] != STORE_VERSION {
        return Err(StoreError::UnknownVersion(bytes[4]));
    }
    Ok(PREAMBLE_LEN)
}

/// Appends one framed record (`len`, `crc`, `kind`, payload) to `out`.
pub fn put_record(out: &mut Vec<u8>, kind: RecordKind, payload: &[u8]) {
    let body_len = payload.len() + 1;
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    // CRC over the body: compute incrementally to avoid a copy.
    let crc = crc32_update(crc32_update(CRC_INIT, &[kind.tag()]), payload);
    out.extend_from_slice(&(!crc).to_le_bytes());
    out.push(kind.tag());
    out.extend_from_slice(payload);
}

/// Decodes a chunk payload back into its events.
pub fn decode_events_chunk(payload: &[u8]) -> Result<Vec<TraceEvent>, StoreError> {
    let mut r = Reader::new(payload);
    let count = r.length()?;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        events.push(TraceEvent::decode(&mut r)?);
    }
    r.finish()?;
    Ok(events)
}

/// One framed record located in a scanned buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord {
    /// Byte offset of the record's frame (its `len` field).
    pub offset: u64,
    /// The record kind.
    pub kind: RecordKind,
    /// Byte offset of the payload (after frame + kind byte).
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Walks every record in `bytes` (which must start with a valid
/// preamble), verifying each frame's length and CRC. Returns the records
/// in file order; the first malformed frame aborts the scan with its
/// typed error — a short tail is [`StoreError::TornTail`], an in-place
/// corruption [`StoreError::BadCrc`].
pub fn scan(bytes: &[u8]) -> Result<Vec<RawRecord>, StoreError> {
    let mut pos = check_preamble(bytes)? as usize;
    let mut records = Vec::new();
    while pos < bytes.len() {
        let offset = pos as u64;
        if bytes.len() - pos < FRAME_LEN {
            return Err(StoreError::TornTail { offset });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        pos += FRAME_LEN;
        if len == 0 || bytes.len() - pos < len {
            return Err(StoreError::TornTail { offset });
        }
        let body = &bytes[pos..pos + len];
        if crc32(body) != crc {
            return Err(StoreError::BadCrc { offset });
        }
        let kind = RecordKind::from_tag(body[0])?;
        records.push(RawRecord {
            offset,
            kind,
            payload_offset: (pos + 1) as u64,
            payload_len: len - 1,
        });
        pos += len;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_record_crc_matches_whole_body() {
        let mut out = Vec::new();
        put_record(&mut out, RecordKind::Outcome, &[1, 2, 3]);
        let crc = u32::from_le_bytes(out[4..8].try_into().unwrap());
        assert_eq!(crc, crc32(&out[8..]));
    }

    #[test]
    fn scan_round_trips_records() {
        let mut buf = Vec::new();
        put_preamble(&mut buf);
        put_record(&mut buf, RecordKind::Header, b"hh");
        put_record(&mut buf, RecordKind::EventsChunk, b"ee");
        put_record(&mut buf, RecordKind::Outcome, b"oo");
        let records = scan(&buf).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, RecordKind::Header);
        assert_eq!(records[1].kind, RecordKind::EventsChunk);
        assert_eq!(records[2].kind, RecordKind::Outcome);
        let r = records[1];
        assert_eq!(
            &buf[r.payload_offset as usize..r.payload_offset as usize + r.payload_len],
            b"ee"
        );
    }

    #[test]
    fn torn_tail_is_detected_at_its_offset() {
        let mut buf = Vec::new();
        put_preamble(&mut buf);
        put_record(&mut buf, RecordKind::Header, b"hh");
        let tear_at = buf.len() as u64;
        put_record(
            &mut buf,
            RecordKind::Outcome,
            b"a long payload torn mid-write",
        );
        buf.truncate(buf.len() - 5);
        assert_eq!(scan(&buf), Err(StoreError::TornTail { offset: tear_at }));
    }

    #[test]
    fn bit_flip_is_a_crc_failure_not_a_torn_tail() {
        let mut buf = Vec::new();
        put_preamble(&mut buf);
        put_record(&mut buf, RecordKind::Header, b"payload");
        let offset = PREAMBLE_LEN;
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert_eq!(scan(&buf), Err(StoreError::BadCrc { offset }));
    }

    #[test]
    fn preamble_is_checked_strictly() {
        assert_eq!(scan(b"XTRC\x01"), Err(StoreError::BadMagic));
        assert_eq!(scan(b"MTRC\x09"), Err(StoreError::UnknownVersion(9)));
        assert_eq!(scan(b"MTR"), Err(StoreError::Truncated));
    }

    #[test]
    fn events_chunk_round_trips() {
        let events = vec![
            TraceEvent::Started { p: 0 },
            TraceEvent::Sent {
                src: 0,
                dst: 1,
                k: 1,
            },
        ];
        let mut payload = vec![events.len() as u8];
        for e in &events {
            e.encode(&mut payload);
        }
        assert_eq!(decode_events_chunk(&payload).unwrap(), events);
    }
}
