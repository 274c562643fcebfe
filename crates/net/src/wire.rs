//! The versioned wire codec: a compact, hand-rolled binary encoding.
//!
//! The build container carries no crates.io registry, so there is no serde
//! derive to lean on; instead every wire type implements [`Wire`] by hand
//! against two tiny primitives (the cursor and LEB128 themselves live in
//! [`mediator_sim::bytes`], shared with the trace-store codec; the trait,
//! the tag tables and the version bytes below are this format's own):
//!
//! * **varint** — unsigned LEB128 (7 data bits per byte, continuation in
//!   the high bit). Every integer on the wire — lengths, ids, rounds,
//!   field elements — is a varint: protocol traffic is dominated by small
//!   numbers, and a `GF(2^61−1)` element fits 9 bytes worst-case against
//!   a meaningful saving on the common small values.
//! * **tag byte** — every enum writes one `u8` discriminant. The tag
//!   tables are pinned in DESIGN.md §9; adding a variant appends a tag
//!   (and bumps [`WIRE_VERSION`] only for incompatible changes).
//!
//! Decoding is strict: unknown tags, truncated buffers, lengths that
//! exceed the remaining bytes, and trailing garbage all surface a typed
//! [`CodecError`] — never a panic, never a silent best-effort value. The
//! round-trip property suite (`tests/codec.rs`) pins `decode(encode(x)) ==
//! x` across randomly generated protocol messages.

use mediator_field::Fp;
use mediator_sim::bytes::ByteError;
use std::fmt;

pub use mediator_sim::bytes::{put_varint, Reader};

/// The wire-format version, written as the first byte of every frame body.
/// Decoders reject anything else with [`CodecError::UnknownVersion`] —
/// except [`WIRE_VERSION_AUTH`], the authenticated `Msg` layout.
pub const WIRE_VERSION: u8 = 1;

/// The authenticated wire-format version: a frame whose body ends in a
/// per-session sequence number and an 8-byte SipHash-2-4 MAC (see the
/// `auth` module). Exactly two frame kinds travel under this version —
/// `Msg` (session traffic) and `ShardResult` (sweep results, whose
/// integrity decides a scientific verdict). Control frames
/// (`Attach`/`Outcome`/`Reject`/`Abort`) and the other shard lease frames
/// originate at the endpoint that also judges them, so they stay on
/// [`WIRE_VERSION`]. A receiver running with authentication enabled
/// rejects the version-1 form of an authenticable frame (downgrade
/// rejection): stripping the MAC is itself a detected tamper.
pub const WIRE_VERSION_AUTH: u8 = 2;

/// A typed decode failure. Every malformed input maps to one of these —
/// the codec never panics on attacker-controlled bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    Truncated,
    /// The frame body announced a version this decoder does not speak.
    UnknownVersion(u8),
    /// An enum tag byte outside the known range. `what` names the type.
    UnknownTag {
        /// The type whose tag table was violated.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A varint ran past 10 bytes (no `u64` needs more).
    VarintOverflow,
    /// A length field exceeds the bytes actually available — either a
    /// corrupted stream or a hostile allocation-amplification attempt;
    /// both are rejected before any allocation happens.
    LengthOverrun {
        /// The announced element count.
        announced: u64,
        /// The bytes remaining in the buffer.
        remaining: usize,
    },
    /// Decoding finished with unconsumed bytes left over.
    TrailingBytes {
        /// How many bytes were never consumed.
        extra: usize,
    },
    /// A length-prefixed string whose bytes are not valid UTF-8. Strategy
    /// names travel the shard lease frames as strings; a hostile byte
    /// sequence must not reach `String` unchecked.
    BadString,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer ended before the value did"),
            CodecError::UnknownVersion(v) => {
                write!(f, "unknown wire version {v} (speaking {WIRE_VERSION})")
            }
            CodecError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::LengthOverrun {
                announced,
                remaining,
            } => write!(
                f,
                "length {announced} exceeds the {remaining} bytes remaining"
            ),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the value")
            }
            CodecError::BadString => write!(f, "string bytes are not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<ByteError> for CodecError {
    fn from(e: ByteError) -> Self {
        match e {
            ByteError::Truncated => CodecError::Truncated,
            ByteError::UnknownTag { what, tag } => CodecError::UnknownTag { what, tag },
            ByteError::VarintOverflow => CodecError::VarintOverflow,
            ByteError::LengthOverrun {
                announced,
                remaining,
            } => CodecError::LengthOverrun {
                announced,
                remaining,
            },
            ByteError::TrailingBytes { extra } => CodecError::TrailingBytes { extra },
        }
    }
}

/// So a bare cursor read can `?` straight into the transport's error, as
/// it could when the cursor spoke [`CodecError`] itself.
impl From<ByteError> for crate::frame::NetError {
    fn from(e: ByteError) -> Self {
        CodecError::from(e).into()
    }
}

/// A type with a binary wire form. Implementations must round-trip:
/// `decode(encode(x)) == x` (pinned by the codec property suite).
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a buffer that must contain exactly one value.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.varint()?)
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // No silent truncation on 32-bit targets: a value that does not
        // fit `usize` must error, or two distinct encodings would alias
        // (and slip past downstream range checks).
        usize::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.boolean()?)
    }
}

/// A field element travels as the varint of its canonical representative
/// (`< 2^61 − 1`); [`Fp::new`] re-canonicalises on decode, so a
/// non-canonical residue on the wire still yields a valid element rather
/// than an error — the field is closed under reduction.
impl Wire for Fp {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.as_u64());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Fp::new(r.varint()?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.length()?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

/// A string travels as a varint byte length followed by its UTF-8 bytes
/// (the same shape as `Vec<u8>`, with validity enforced on decode). Used
/// by the shard lease frames for generated strategy names.
impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.length()?;
        let bytes = r.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadString)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::UnknownTag {
                what: "Option",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol messages (tag tables pinned in DESIGN.md §9)
// ---------------------------------------------------------------------------

/// A shared-fanout payload travels by value; decode re-wraps it (the
/// refcount is a process-local optimisation, not a wire concept).
impl<T: Wire + Clone> Wire for mediator_sim::Payload<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mediator_sim::Payload::new(T::decode(r)?))
    }
}

impl Wire for mediator_bcast::AbaMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use mediator_bcast::AbaMsg::*;
        match self {
            BVal { round, v } => {
                out.push(0);
                round.encode(out);
                v.encode(out);
            }
            Aux { round, v } => {
                out.push(1);
                round.encode(out);
                v.encode(out);
            }
            Done { v } => {
                out.push(2);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use mediator_bcast::AbaMsg::*;
        match r.u8()? {
            0 => Ok(BVal {
                round: u64::decode(r)?,
                v: bool::decode(r)?,
            }),
            1 => Ok(Aux {
                round: u64::decode(r)?,
                v: bool::decode(r)?,
            }),
            2 => Ok(Done {
                v: bool::decode(r)?,
            }),
            tag => Err(CodecError::UnknownTag {
                what: "AbaMsg",
                tag,
            }),
        }
    }
}

impl Wire for mediator_vss::AvssMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use mediator_vss::AvssMsg::*;
        match self {
            Rows(rows) => {
                out.push(0);
                rows.encode(out);
            }
            Echo(points) => {
                out.push(1);
                points.encode(out);
            }
            Ready => out.push(2),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use mediator_vss::AvssMsg::*;
        match r.u8()? {
            0 => Ok(Rows(Wire::decode(r)?)),
            1 => Ok(Echo(Wire::decode(r)?)),
            2 => Ok(Ready),
            tag => Err(CodecError::UnknownTag {
                what: "AvssMsg",
                tag,
            }),
        }
    }
}

impl Wire for mediator_vss::DetectMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use mediator_vss::DetectMsg::*;
        match self {
            Deal(d) => {
                out.push(0);
                d.shares.encode(out);
                d.blinds.encode(out);
            }
            Open { points } => {
                out.push(1);
                points.encode(out);
            }
            Accuse => out.push(2),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use mediator_vss::DetectMsg::*;
        match r.u8()? {
            0 => Ok(Deal(Box::new(mediator_vss::detect::Dealing {
                shares: Wire::decode(r)?,
                blinds: Wire::decode(r)?,
            }))),
            1 => Ok(Open {
                points: Wire::decode(r)?,
            }),
            2 => Ok(Accuse),
            tag => Err(CodecError::UnknownTag {
                what: "DetectMsg",
                tag,
            }),
        }
    }
}

impl Wire for mediator_mpc::MpcMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use mediator_mpc::MpcMsg::*;
        match self {
            Avss { dealer, inner } => {
                out.push(0);
                dealer.encode(out);
                inner.encode(out);
            }
            Detect { dealer, inner } => {
                out.push(1);
                dealer.encode(out);
                inner.encode(out);
            }
            Core { dealer, inner } => {
                out.push(2);
                dealer.encode(out);
                inner.encode(out);
            }
            Open { id, value } => {
                out.push(3);
                id.encode(out);
                value.encode(out);
            }
            Output { idx, value } => {
                out.push(4);
                idx.encode(out);
                value.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use mediator_mpc::MpcMsg::*;
        match r.u8()? {
            0 => Ok(Avss {
                dealer: Wire::decode(r)?,
                inner: Wire::decode(r)?,
            }),
            1 => Ok(Detect {
                dealer: Wire::decode(r)?,
                inner: Wire::decode(r)?,
            }),
            2 => Ok(Core {
                dealer: Wire::decode(r)?,
                inner: Wire::decode(r)?,
            }),
            3 => Ok(Open {
                id: Wire::decode(r)?,
                value: Wire::decode(r)?,
            }),
            4 => Ok(Output {
                idx: Wire::decode(r)?,
                value: Wire::decode(r)?,
            }),
            tag => Err(CodecError::UnknownTag {
                what: "MpcMsg",
                tag,
            }),
        }
    }
}

impl Wire for mediator_core::cheap_talk::CtMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use mediator_core::cheap_talk::CtMsg::*;
        match self {
            Mpc(inner) => {
                out.push(0);
                inner.encode(out);
            }
            Finished => out.push(1),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use mediator_core::cheap_talk::CtMsg::*;
        match r.u8()? {
            0 => Ok(Mpc(Wire::decode(r)?)),
            1 => Ok(Finished),
            tag => Err(CodecError::UnknownTag { what: "CtMsg", tag }),
        }
    }
}

impl Wire for mediator_core::MedMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use mediator_core::MedMsg::*;
        match self {
            Input { round, value } => {
                out.push(0);
                round.encode(out);
                value.encode(out);
            }
            Round { round, payload } => {
                out.push(1);
                round.encode(out);
                payload.encode(out);
            }
            Stop { action } => {
                out.push(2);
                action.encode(out);
            }
            Gossip { payload } => {
                out.push(3);
                payload.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use mediator_core::MedMsg::*;
        match r.u8()? {
            0 => Ok(Input {
                round: Wire::decode(r)?,
                value: Wire::decode(r)?,
            }),
            1 => Ok(Round {
                round: Wire::decode(r)?,
                payload: Wire::decode(r)?,
            }),
            2 => Ok(Stop {
                action: Wire::decode(r)?,
            }),
            3 => Ok(Gossip {
                payload: Wire::decode(r)?,
            }),
            tag => Err(CodecError::UnknownTag {
                what: "MedMsg",
                tag,
            }),
        }
    }
}

impl Wire for mediator_sim::TerminationKind {
    fn encode(&self, out: &mut Vec<u8>) {
        use mediator_sim::TerminationKind::*;
        out.push(match self {
            Quiescent => 0,
            Deadlock => 1,
            BudgetExhausted => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use mediator_sim::TerminationKind::*;
        match r.u8()? {
            0 => Ok(Quiescent),
            1 => Ok(Deadlock),
            2 => Ok(BudgetExhausted),
            tag => Err(CodecError::UnknownTag {
                what: "TerminationKind",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_byte_error_maps_to_the_same_named_codec_error() {
        // The cursor's own boundary cases are tested once, in
        // `mediator_sim::bytes`; this format only owes the lift.
        let pairs = [
            (ByteError::Truncated, CodecError::Truncated),
            (
                ByteError::UnknownTag {
                    what: "bool",
                    tag: 2,
                },
                CodecError::UnknownTag {
                    what: "bool",
                    tag: 2,
                },
            ),
            (ByteError::VarintOverflow, CodecError::VarintOverflow),
            (
                ByteError::LengthOverrun {
                    announced: 9,
                    remaining: 1,
                },
                CodecError::LengthOverrun {
                    announced: 9,
                    remaining: 1,
                },
            ),
            (
                ByteError::TrailingBytes { extra: 3 },
                CodecError::TrailingBytes { extra: 3 },
            ),
        ];
        for (byte, codec) in pairs {
            assert_eq!(CodecError::from(byte), codec);
            assert_eq!(
                crate::frame::NetError::from(byte),
                crate::frame::NetError::Codec(codec)
            );
        }
    }

    #[test]
    fn hostile_length_cannot_drive_allocation() {
        // A Vec<u64> announcing 2^40 elements in a 3-byte buffer.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        let err = Vec::<u64>::from_bytes(&buf).unwrap_err();
        assert!(matches!(err, CodecError::LengthOverrun { announced, .. } if announced == 1 << 40));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = 7u64.to_bytes();
        buf.push(0);
        assert_eq!(
            u64::from_bytes(&buf),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn fp_decodes_to_canonical_form() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX); // non-canonical residue
        let fp = Fp::from_bytes(&buf).unwrap();
        assert_eq!(fp, Fp::new(u64::MAX));
    }
}
