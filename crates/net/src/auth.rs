//! Authenticated frames: per-pair keyed MACs over the wire format.
//!
//! The paper's model assumes **reliable private channels** between every
//! pair of processes. The transport plane up to PR 6 only half-honored
//! that: relays are content-blind by *convention*, but the codec is public
//! and nothing stops a hostile relay from decoding, rewriting, and
//! re-encoding a frame (the `tamper` module makes that attack a one-line
//! battery entry). This module makes the assumption real.
//!
//! **Construction.** The build container has no crates.io, so the PRF is a
//! hand-rolled SipHash-2-4 — the standard short-input keyed hash designed
//! exactly for this job (64-bit MAC, 128-bit key, 2 compression + 4
//! finalization rounds). The implementation below is checked against the
//! reference vectors from the SipHash paper (`siphash24_reference_vectors`).
//!
//! **Key schedule.** The service holds one 128-bit master [`AuthKey`].
//! Each authenticated `Msg` frame is MACed under a *pair key* derived from
//! `(session, src, dst)` by two domain-separated SipHash invocations of
//! the master key — so every directed channel of every session has its own
//! key, the paper's "private channel per pair" made literal. A hosted
//! session derives each of its pair keys once, on the channel's first
//! frame, and keeps them in an `n × n` table: sealing and verifying a
//! frame then cost one SipHash each. [`AuthKey::verify_msg`] derives per
//! call (shard results, frames for a session that is gone) through the
//! same MAC and compare. Relays never see any key: the service MACs a
//! frame when it ships and verifies when the echo returns, so the relay's
//! content-blind contract is now *enforced* rather than assumed — any
//! decode/rewrite/re-encode round trip that changes a byte (payload,
//! header, or the sequence number) fails verification.
//!
//! **What the MAC covers.** Everything: the version byte, kind tag,
//! session, src, dst, the per-session sequence number, and the payload —
//! i.e. the whole frame body minus the trailing 8 MAC bytes. The sequence
//! number (fresh per shipped frame, checked off on return) turns the MAC
//! into replay protection as well; see [`TamperKind::Replayed`].
//!
//! What a MAC *cannot* do: prove delivery. A relay that silently drops a
//! frame is indistinguishable from a slow network, and surfaces as the
//! same [`IdleTimeout`](crate::NetError::IdleTimeout) it always did —
//! detection of *withholding* is the accountability layer's job, not the
//! channel's (DESIGN.md §10).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A 128-bit master key for a service's authenticated channels.
///
/// Hold one per service (pass it in [`ServiceConfig::auth`]); per-pair
/// keys are derived from it internally. Relays and clients never need it.
///
/// [`ServiceConfig::auth`]: crate::ServiceConfig
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AuthKey {
    k0: u64,
    k1: u64,
}

impl fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "AuthKey(..)")
    }
}

impl AuthKey {
    /// Builds a key from 16 raw bytes (little-endian halves).
    pub fn new(bytes: [u8; 16]) -> Self {
        AuthKey {
            k0: u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            k1: u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }

    /// Deterministically expands a seed into a key (tests and benches;
    /// real deployments should inject 16 random bytes via [`AuthKey::new`]).
    pub fn from_seed(seed: u64) -> Self {
        AuthKey {
            k0: siphash24(seed, !seed, b"mediator-auth-k0"),
            k1: siphash24(!seed, seed, b"mediator-auth-k1"),
        }
    }

    /// The pair key for directed channel `(session, src, dst)`: two
    /// domain-separated PRF calls on the master key.
    pub(crate) fn pair_key(&self, session: u64, src: usize, dst: usize) -> PairKey {
        PAIR_KEYS_DERIVED.fetch_add(1, Ordering::Relaxed);
        let mut input = [0u8; 25];
        input[0..8].copy_from_slice(&session.to_le_bytes());
        input[8..16].copy_from_slice(&(src as u64).to_le_bytes());
        input[16..24].copy_from_slice(&(dst as u64).to_le_bytes());
        input[24] = 0;
        let k0 = siphash24(self.k0, self.k1, &input);
        input[24] = 1;
        let k1 = siphash24(self.k0, self.k1, &input);
        PairKey { k0, k1 }
    }

    /// Verifies a received MAC in constant time over the tag bytes.
    #[must_use = "an unchecked verdict defeats the authentication layer"]
    pub fn verify_msg(
        &self,
        session: u64,
        src: usize,
        dst: usize,
        prefix: &[u8],
        mac: [u8; 8],
    ) -> AuthVerdict {
        self.pair_key(session, src, dst).verify(prefix, mac)
    }
}

static PAIR_KEYS_DERIVED: AtomicU64 = AtomicU64::new(0);

/// How many pair keys this process has derived so far, over every
/// [`AuthKey`]: the count that shows a hosted session derives each of its
/// channel keys once rather than once per frame.
pub fn pair_keys_derived() -> u64 {
    PAIR_KEYS_DERIVED.load(Ordering::Relaxed)
}

/// The key of one directed channel. Every MAC the crate computes or
/// checks goes through [`PairKey::mac`] and [`PairKey::verify`].
#[derive(Clone, Copy)]
pub(crate) struct PairKey {
    k0: u64,
    k1: u64,
}

impl PairKey {
    /// The SipHash-2-4 tag of `prefix` (little-endian).
    pub(crate) fn mac(&self, prefix: &[u8]) -> [u8; 8] {
        siphash24(self.k0, self.k1, prefix).to_le_bytes()
    }

    /// Checks `mac` against `prefix` in constant time over the tag bytes.
    pub(crate) fn verify(&self, prefix: &[u8], mac: [u8; 8]) -> AuthVerdict {
        let expect = self.mac(prefix);
        let diff = expect.iter().zip(&mac).fold(0, |d, (a, b)| d | (a ^ b));
        if diff == 0 {
            AuthVerdict::Authentic
        } else {
            AuthVerdict::Forged
        }
    }
}

/// The replay ledger of one authenticated session: one bit per sequence
/// number, from the oldest still on the wire to the next one to issue. A
/// number below the window was consumed and one past it never issued:
/// both are replays, exactly as for a set of outstanding numbers.
#[derive(Debug, Default)]
pub struct ReplayWindow {
    next: u64,
    /// `words[0]` covers the numbers from `64 * first_word`.
    first_word: u64,
    words: VecDeque<u64>,
}

impl ReplayWindow {
    /// Issues the next sequence number and marks it outstanding.
    pub fn issue(&mut self) -> u64 {
        let seq = self.next;
        self.next += 1;
        if self.words.is_empty() {
            self.first_word = seq / 64;
        }
        if seq / 64 - self.first_word == self.words.len() as u64 {
            self.words.push_back(0);
        }
        *self.words.back_mut().expect("the newest word") |= 1 << (seq % 64);
        seq
    }

    /// Checks `seq` off. `false` is a replay: the number was consumed
    /// already, or never issued.
    pub fn retire(&mut self, seq: u64) -> bool {
        let slot = (seq / 64)
            .checked_sub(self.first_word)
            .and_then(|w| self.words.get_mut(usize::try_from(w).ok()?));
        let bit = 1u64 << (seq % 64);
        match slot {
            Some(word) if *word & bit != 0 => *word &= !bit,
            _ => return false,
        }
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.first_word += 1;
        }
        true
    }

    /// Sequence numbers issued and not yet checked off.
    pub fn outstanding(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// True once every issued number has been checked off: the window
    /// holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// The outcome of a MAC check. `#[must_use]`: dropping a verdict on the
/// floor silently accepts forged traffic, so the compiler flags it.
#[must_use = "an unchecked verdict defeats the authentication layer"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthVerdict {
    /// The MAC matches: the frame is byte-identical to one this service
    /// sealed for this channel.
    Authentic,
    /// The MAC does not match: some byte changed in transit.
    Forged,
}

impl AuthVerdict {
    /// True for [`AuthVerdict::Authentic`].
    pub fn is_authentic(self) -> bool {
        matches!(self, AuthVerdict::Authentic)
    }
}

/// The authentication trailer an authenticated `Msg` frame carries: the
/// per-session sequence number assigned at ship time, and the SipHash-2-4
/// MAC over the rest of the frame body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthTag {
    /// Ship-time sequence number, unique per session. Checked off on
    /// return: a sequence number seen twice is a replay.
    pub seq: u64,
    /// SipHash-2-4 output (little-endian) under the channel's pair key.
    pub mac: [u8; 8],
}

/// How an authenticated session detected relay tampering — the typed
/// payload of [`NetError::AuthFailure`](crate::NetError::AuthFailure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperKind {
    /// A `Msg` frame arrived without an authentication trailer on a
    /// service that requires one: a relay stripped the MAC (the classic
    /// downgrade attack) or an unauthenticated peer is improvising.
    Downgrade,
    /// The MAC check failed: payload, routing header, or sequence number
    /// was rewritten in transit.
    BadMac,
    /// A valid frame arrived whose sequence number was already consumed:
    /// a replayed (or duplicated) echo.
    Replayed,
    /// An authenticated frame's body was cut short (the MAC trailer or
    /// payload is missing bytes).
    Truncated,
}

impl fmt::Display for TamperKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperKind::Downgrade => write!(f, "authentication trailer stripped (downgrade)"),
            TamperKind::BadMac => write!(f, "MAC verification failed"),
            TamperKind::Replayed => write!(f, "sequence number replayed"),
            TamperKind::Truncated => write!(f, "authenticated frame truncated"),
        }
    }
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 (64-bit output), straight from the paper: 2 compression
/// rounds per 8-byte word, 4 finalization rounds, length byte folded into
/// the final word.
fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }
    let tail = chunks.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= m;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first rows of the reference vector table from the SipHash
    /// paper (key `00 01 .. 0f`, message `[]`, `[0]`, `[0,1]`, …), output
    /// bytes little-endian.
    #[test]
    fn siphash24_reference_vectors() {
        const VECTORS: [[u8; 8]; 8] = [
            [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72],
            [0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74],
            [0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d],
            [0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85],
            [0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf],
            [0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18],
            [0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb],
            [0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab],
        ];
        let key: Vec<u8> = (0u8..16).collect();
        let k0 = u64::from_le_bytes(key[..8].try_into().unwrap());
        let k1 = u64::from_le_bytes(key[8..].try_into().unwrap());
        let msg: Vec<u8> = (0u8..8).collect();
        for (len, expect) in VECTORS.iter().enumerate() {
            assert_eq!(
                siphash24(k0, k1, &msg[..len]),
                u64::from_le_bytes(*expect),
                "vector {len}"
            );
        }
    }

    /// The MAC of `prefix` on channel `(session, src, dst)`, derived per call.
    fn msg_mac(key: &AuthKey, session: u64, src: usize, dst: usize, prefix: &[u8]) -> [u8; 8] {
        key.pair_key(session, src, dst).mac(prefix)
    }

    #[test]
    fn pair_keys_separate_channels() {
        let master = AuthKey::from_seed(7);
        let body = b"same bytes";
        let a = msg_mac(&master, 1, 0, 1, body);
        let b = msg_mac(&master, 1, 1, 0, body);
        let c = msg_mac(&master, 2, 0, 1, body);
        assert_ne!(a, b, "direction must separate keys");
        assert_ne!(a, c, "session must separate keys");
        assert!(master.verify_msg(1, 0, 1, body, a).is_authentic());
        assert!(!master.verify_msg(1, 0, 1, b"other bytes", a).is_authentic());
    }

    #[test]
    fn single_bit_flip_fails_verification() {
        let master = AuthKey::from_seed(42);
        let body: Vec<u8> = (0..64).collect();
        let mac = msg_mac(&master, 9, 2, 3, &body);
        for byte in 0..body.len() {
            let mut flipped = body.clone();
            flipped[byte] ^= 1;
            assert!(
                !master.verify_msg(9, 2, 3, &flipped, mac).is_authentic(),
                "flip at byte {byte} must be detected"
            );
        }
    }
}
