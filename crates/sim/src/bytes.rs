//! The byte kernel under both hand-rolled binary formats: a bounds-checked
//! cursor and unsigned LEB128.
//!
//! `mediator-net`'s wire codec and `mediator-store`'s trace-log codec are
//! separate *formats* — their own traits, tag tables and version bytes,
//! evolving independently — read and written through this one set of
//! primitives. Decoding is strict: every malformed input maps to a typed
//! [`ByteError`], never a panic and never a silent best-effort value; each
//! format lifts it into its own error (`CodecError`, `StoreError`) variant
//! for variant.

use std::fmt;

/// A typed byte-level decode failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteError {
    /// The buffer ended before the value did.
    Truncated,
    /// A tag byte outside the known range. `what` names the type.
    UnknownTag {
        /// The type whose tag table was violated.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A varint claimed more than 64 bits.
    VarintOverflow,
    /// A length field exceeds the bytes actually available — corruption or
    /// a hostile allocation-amplification attempt; rejected before any
    /// allocation happens.
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
}

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteError::Truncated => write!(f, "buffer ended before the value did"),
            ByteError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            ByteError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            ByteError::LengthOverrun {
                announced,
                remaining,
            } => write!(
                f,
                "length {announced} exceeds the {remaining} bytes remaining"
            ),
            ByteError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the value")
            }
        }
    }
}

impl std::error::Error for ByteError {}

/// A bounds-checked cursor over a received byte buffer. A clone reads on
/// from the same position, independently.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ByteError> {
        let b = *self.buf.get(self.pos).ok_or(ByteError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint. Strict: the 10th byte may only
    /// carry the single bit that still fits in a `u64` (9 × 7 = 63 bits
    /// precede it) — an encoding claiming more than 64 bits is rejected,
    /// never silently truncated, so no two accepted byte strings decode
    /// to the same value by bit loss.
    ///
    /// A word at a time: one 8-byte load, whose 7-bit groups pair into
    /// 14-bit lanes, then 28, then one, covers lengths 1–8, and one more
    /// byte a field element's 9. A 10th byte, or fewer than 8 bytes left,
    /// takes the byte loop, which also owns every error.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, ByteError> {
        if let Some(word) = self.buf.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            let stops = !word & 0x8080_8080_8080_8080;
            // Up to the first byte without a continuation bit, or all 8.
            let x = word & (stops ^ stops.wrapping_sub(1)) & 0x7f7f_7f7f_7f7f_7f7f;
            let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
            let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
            let value = (x & 0x0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
            if stops != 0 {
                self.pos += (stops.trailing_zeros() as usize + 1) / 8;
                return Ok(value);
            }
            if let Some(&last) = self.buf.get(self.pos + 8).filter(|&&b| b < 0x80) {
                self.pos += 9;
                return Ok(value | (u64::from(last) << 56));
            }
        }
        let mut value: u64 = 0;
        for i in 0..10 {
            let b = self.u8()?;
            if i == 9 && b > 0x01 {
                return Err(ByteError::VarintOverflow);
            }
            value |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(ByteError::VarintOverflow)
    }

    /// Reads a `bool` (strict: only 0 and 1 are valid).
    #[inline]
    pub fn boolean(&mut self) -> Result<bool, ByteError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ByteError::UnknownTag { what: "bool", tag }),
        }
    }

    /// Reads a collection length and vets it against the bytes actually
    /// remaining (each element needs at least one byte), so a hostile
    /// length can never drive an allocation.
    #[inline]
    pub fn length(&mut self) -> Result<usize, ByteError> {
        let announced = self.varint()?;
        if announced > self.remaining() as u64 {
            return Err(ByteError::LengthOverrun {
                announced,
                remaining: self.remaining(),
            });
        }
        Ok(announced as usize)
    }

    /// Reads exactly `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        if self.remaining() < n {
            return Err(ByteError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Asserts the buffer is fully consumed.
    #[inline]
    pub fn finish(self) -> Result<(), ByteError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ByteError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

/// Appends an unsigned LEB128 varint to `out`.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The varint's own cases live in `tests/varint.rs`, against the
    // byte loop it replaced.
    #[test]
    fn truncated_reads_are_typed() {
        assert_eq!(Reader::new(&[]).u8(), Err(ByteError::Truncated));
        assert_eq!(Reader::new(&[1, 2]).bytes(3), Err(ByteError::Truncated));
    }

    #[test]
    fn boolean_accepts_only_zero_and_one() {
        assert_eq!(Reader::new(&[0]).boolean(), Ok(false));
        assert_eq!(Reader::new(&[1]).boolean(), Ok(true));
        assert_eq!(
            Reader::new(&[2]).boolean(),
            Err(ByteError::UnknownTag {
                what: "bool",
                tag: 2
            })
        );
    }

    #[test]
    fn hostile_length_cannot_drive_allocation() {
        // 2^40 elements announced in a buffer with two bytes left.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        buf.extend_from_slice(&[0, 0]);
        assert_eq!(
            Reader::new(&buf).length(),
            Err(ByteError::LengthOverrun {
                announced: 1 << 40,
                remaining: 2
            })
        );
        // A length the buffer can back is accepted.
        assert_eq!(Reader::new(&[2, 9, 9]).length(), Ok(2));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = Reader::new(&[7, 0]);
        assert_eq!(r.varint(), Ok(7));
        assert_eq!(r.finish(), Err(ByteError::TrailingBytes { extra: 1 }));
    }
}
