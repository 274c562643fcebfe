//! The trace-log codec: compact hand-rolled binary encodings for every
//! value that lands in a store file.
//!
//! The conventions mirror the transport plane's wire codec
//! (`mediator-net`'s `wire` module): unsigned LEB128 varints for every
//! integer, one `u8` tag per enum, and strict decoding — unknown tags,
//! truncated buffers, hostile lengths, and trailing garbage all surface a
//! typed [`StoreError`], never a panic and never a silent best-effort
//! value. The two share the byte primitives ([`mediator_sim::bytes`]: the
//! cursor and LEB128) and nothing else: a trace log outlives any one
//! process, so its *format* — the [`StoreCodec`] impls, the tag tables and
//! the version byte — must not drift when the transport's does. The two
//! evolve (and version) independently.

use mediator_sim::bytes::ByteError;
use mediator_sim::trace::{put_event, read_event};
use mediator_sim::{ReplayScript, SchedulerKind, TerminationKind, TraceEvent};
use std::fmt;

pub use mediator_sim::bytes::{put_varint, Reader};

/// A typed store-format failure. Everything malformed — a truncated file,
/// a corrupted record, an unknown tag — maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The buffer ended before the value did.
    Truncated,
    /// The file does not start with the `MTRC` magic.
    BadMagic,
    /// The file announces a format version this reader does not speak.
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
    /// A string field held bytes that are not valid UTF-8.
    BadString,
    /// A record's CRC32 does not match its payload: the record at this
    /// byte offset was corrupted in place.
    BadCrc {
        /// Byte offset of the corrupt record's frame.
        offset: u64,
    },
    /// The file ends mid-record: an interrupted append left a torn tail
    /// at this byte offset. (Unlike [`StoreError::BadCrc`] this is the
    /// *expected* crash signature of an append-only log.)
    TornTail {
        /// Byte offset where the torn record begins.
        offset: u64,
    },
    /// A structurally complete record appeared where the run grammar does
    /// not allow it (e.g. an events chunk before any run header).
    UnexpectedRecord {
        /// Byte offset of the out-of-place record.
        offset: u64,
        /// Its record-kind byte.
        kind: u8,
    },
    /// The backing file failed with this I/O error kind.
    Io(std::io::ErrorKind),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated => write!(f, "buffer ended before the value did"),
            StoreError::BadMagic => write!(f, "not a trace store (missing MTRC magic)"),
            StoreError::UnknownVersion(v) => {
                write!(f, "unknown store version {v}")
            }
            StoreError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            StoreError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            StoreError::LengthOverrun {
                announced,
                remaining,
            } => write!(
                f,
                "length {announced} exceeds the {remaining} bytes remaining"
            ),
            StoreError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the value")
            }
            StoreError::BadString => write!(f, "string field is not valid UTF-8"),
            StoreError::BadCrc { offset } => {
                write!(f, "record at byte {offset} fails its CRC32")
            }
            StoreError::TornTail { offset } => {
                write!(f, "file ends mid-record at byte {offset} (torn tail)")
            }
            StoreError::UnexpectedRecord { offset, kind } => {
                write!(
                    f,
                    "record kind {kind} at byte {offset} violates the run grammar"
                )
            }
            StoreError::Io(kind) => write!(f, "backing store I/O failure: {kind:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.kind())
    }
}

impl From<ByteError> for StoreError {
    fn from(e: ByteError) -> Self {
        match e {
            ByteError::Truncated => StoreError::Truncated,
            ByteError::UnknownTag { what, tag } => StoreError::UnknownTag { what, tag },
            ByteError::VarintOverflow => StoreError::VarintOverflow,
            ByteError::LengthOverrun {
                announced,
                remaining,
            } => StoreError::LengthOverrun {
                announced,
                remaining,
            },
            ByteError::TrailingBytes { extra } => StoreError::TrailingBytes { extra },
        }
    }
}

/// A type with a store-file binary form. Implementations must round-trip:
/// `decode(encode(x)) == x` (pinned by the codec property suite).
pub trait StoreCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a buffer that must contain exactly one value.
    fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

impl StoreCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(r.varint()?)
    }
}

impl StoreCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        usize::try_from(r.varint()?).map_err(|_| StoreError::VarintOverflow)
    }
}

impl StoreCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(r.boolean()?)
    }
}

impl StoreCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let len = r.length()?;
        let raw = r.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| StoreError::BadString)
    }
}

impl<T: StoreCodec> StoreCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let len = r.length()?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: StoreCodec> StoreCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(StoreError::UnknownTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<A: StoreCodec, B: StoreCodec> StoreCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---------------------------------------------------------------------------
// Trace-log value types (tag tables pinned in DESIGN.md §11)
// ---------------------------------------------------------------------------

/// The event encoding is `mediator_sim::trace`'s: a run's trace already
/// holds these bytes, and `TraceStore::record` copies them as they are.
impl StoreCodec for TraceEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        put_event(out, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(read_event(r)?)
    }
}

impl StoreCodec for TerminationKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            TerminationKind::Quiescent => 0,
            TerminationKind::Deadlock => 1,
            TerminationKind::BudgetExhausted => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(TerminationKind::Quiescent),
            1 => Ok(TerminationKind::Deadlock),
            2 => Ok(TerminationKind::BudgetExhausted),
            tag => Err(StoreError::UnknownTag {
                what: "TerminationKind",
                tag,
            }),
        }
    }
}

/// A replay scheduler kind never *needs* persisting (a stored run carries
/// its original scheduler), but the encoding is total so a header is
/// always writable: the script rides along as its event list.
impl StoreCodec for SchedulerKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SchedulerKind::Random => out.push(0),
            SchedulerKind::Fifo => out.push(1),
            SchedulerKind::Lifo => out.push(2),
            SchedulerKind::TargetedDelay(victims) => {
                out.push(3);
                victims.encode(out);
            }
            SchedulerKind::Partition { group, heal_after } => {
                out.push(4);
                group.encode(out);
                heal_after.encode(out);
            }
            SchedulerKind::Replay(script) => {
                out.push(5);
                script.events().to_vec().encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(SchedulerKind::Random),
            1 => Ok(SchedulerKind::Fifo),
            2 => Ok(SchedulerKind::Lifo),
            3 => Ok(SchedulerKind::TargetedDelay(Vec::decode(r)?)),
            4 => Ok(SchedulerKind::Partition {
                group: Vec::decode(r)?,
                heal_after: u64::decode(r)?,
            }),
            5 => Ok(SchedulerKind::Replay(ReplayScript::new(Vec::decode(r)?))),
            tag => Err(StoreError::UnknownTag {
                what: "SchedulerKind",
                tag,
            }),
        }
    }
}

/// Which scenario family produced a stored run — what a replayer needs to
/// know before it can rebuild the plan from the header's recipe metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// A [`mediator_core::scenario::CheapTalkPlan`] run.
    CheapTalk,
    /// A [`mediator_core::scenario::MediatorPlan`] run.
    Mediator,
    /// Anything else (a raw `World`, a protocol substrate, a test rig);
    /// replayable only by a caller that knows how to rebuild it.
    Other,
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanKind::CheapTalk => write!(f, "cheap-talk"),
            PlanKind::Mediator => write!(f, "mediator"),
            PlanKind::Other => write!(f, "other"),
        }
    }
}

impl StoreCodec for PlanKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            PlanKind::CheapTalk => 0,
            PlanKind::Mediator => 1,
            PlanKind::Other => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(PlanKind::CheapTalk),
            1 => Ok(PlanKind::Mediator),
            2 => Ok(PlanKind::Other),
            tag => Err(StoreError::UnknownTag {
                what: "PlanKind",
                tag,
            }),
        }
    }
}

/// The run header: everything needed to rebuild and re-drive the recorded
/// world, written as the first record of every stored run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHeader {
    /// The session id the run was hosted under (0 for bare runs).
    pub session: u64,
    /// The deterministic seed the world was built from.
    pub seed: u64,
    /// The scheduler kind that drove the recorded run, when known.
    pub kind: Option<SchedulerKind>,
    /// The scenario family (drives witness-recipe reconstruction).
    pub plan: PlanKind,
    /// Game players.
    pub n: u64,
    /// Coalition-size tolerance `k`.
    pub k: u64,
    /// Malicious tolerance `t`.
    pub t: u64,
    /// `true` when the recorded trace is incomplete (a counters-only
    /// capture); replay refuses such runs with a typed error.
    pub partial: bool,
    /// `true` when the run went through a transport (each logical message
    /// appears as two `Sent` events: emission and wire re-injection), so
    /// replay must drive the networked re-enactment loop.
    pub networked: bool,
    /// Free-form recipe metadata (witness entry name, deviant strategy,
    /// coalition, deadlock action, …) — the key-value contract between
    /// whoever recorded the run and whoever replays it.
    pub meta: Vec<(String, String)>,
}

impl RunHeader {
    /// A minimal header for a bare (non-scenario) run.
    pub fn bare(session: u64, seed: u64) -> Self {
        RunHeader {
            session,
            seed,
            kind: None,
            plan: PlanKind::Other,
            n: 0,
            k: 0,
            t: 0,
            partial: false,
            networked: false,
            meta: Vec::new(),
        }
    }

    /// Looks up a recipe metadata value by key.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl StoreCodec for RunHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.session.encode(out);
        self.seed.encode(out);
        self.kind.encode(out);
        self.plan.encode(out);
        self.n.encode(out);
        self.k.encode(out);
        self.t.encode(out);
        self.partial.encode(out);
        self.networked.encode(out);
        self.meta.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(RunHeader {
            session: u64::decode(r)?,
            seed: u64::decode(r)?,
            kind: Option::decode(r)?,
            plan: PlanKind::decode(r)?,
            n: u64::decode(r)?,
            k: u64::decode(r)?,
            t: u64::decode(r)?,
            partial: bool::decode(r)?,
            networked: bool::decode(r)?,
            meta: Vec::decode(r)?,
        })
    }
}

/// The stored final verdict of a run: the [`mediator_sim::Outcome`] minus
/// its trace (the trace lives in the events chunks, which retention may
/// evict — the outcome record survives compaction unconditionally).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeRecord {
    /// The move each process made, if any.
    pub moves: Vec<Option<u64>>,
    /// The will each process left, if any.
    pub wills: Vec<Option<u64>>,
    /// Which processes halted.
    pub halted: Vec<bool>,
    /// Messages sent during the run.
    pub messages_sent: u64,
    /// Messages delivered during the run.
    pub messages_delivered: u64,
    /// Events dispatched.
    pub steps: u64,
    /// How the run ended.
    pub termination: TerminationKind,
    /// How many trace events the run's chunks held at write time — the
    /// yardstick that tells an evicted body apart from an empty one.
    pub event_count: u64,
}

impl OutcomeRecord {
    /// Captures the storable projection of an outcome. `event_count` is
    /// the number of events actually retained by the trace (none for a
    /// counters-only capture).
    pub fn capture(outcome: &mediator_sim::Outcome) -> Self {
        OutcomeRecord {
            moves: outcome.moves.clone(),
            wills: outcome.wills.clone(),
            halted: outcome.halted.clone(),
            messages_sent: outcome.messages_sent,
            messages_delivered: outcome.messages_delivered,
            steps: outcome.steps,
            termination: outcome.termination,
            event_count: outcome.trace.events().len() as u64,
        }
    }
}

impl StoreCodec for OutcomeRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.moves.encode(out);
        self.wills.encode(out);
        self.halted.encode(out);
        self.messages_sent.encode(out);
        self.messages_delivered.encode(out);
        self.steps.encode(out);
        self.termination.encode(out);
        self.event_count.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(OutcomeRecord {
            moves: Vec::decode(r)?,
            wills: Vec::decode(r)?,
            halted: Vec::decode(r)?,
            messages_sent: u64::decode(r)?,
            messages_delivered: u64::decode(r)?,
            steps: u64::decode(r)?,
            termination: TerminationKind::decode(r)?,
            event_count: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_byte_error_maps_to_the_same_named_store_error() {
        // The cursor's own boundary cases are tested once, in
        // `mediator_sim::bytes`; this format only owes the lift.
        let pairs = [
            (ByteError::Truncated, StoreError::Truncated),
            (
                ByteError::UnknownTag {
                    what: "bool",
                    tag: 2,
                },
                StoreError::UnknownTag {
                    what: "bool",
                    tag: 2,
                },
            ),
            (ByteError::VarintOverflow, StoreError::VarintOverflow),
            (
                ByteError::LengthOverrun {
                    announced: 9,
                    remaining: 1,
                },
                StoreError::LengthOverrun {
                    announced: 9,
                    remaining: 1,
                },
            ),
            (
                ByteError::TrailingBytes { extra: 3 },
                StoreError::TrailingBytes { extra: 3 },
            ),
        ];
        for (byte, store) in pairs {
            assert_eq!(StoreError::from(byte), store);
        }
    }

    #[test]
    fn hostile_length_cannot_drive_allocation() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        let err = Vec::<u64>::from_bytes(&buf).unwrap_err();
        assert!(matches!(err, StoreError::LengthOverrun { announced, .. } if announced == 1 << 40));
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(String::from_bytes(&buf), Err(StoreError::BadString));
    }

    #[test]
    fn header_meta_lookup_finds_values() {
        let mut h = RunHeader::bare(7, 3);
        h.meta.push(("entry".into(), "frontier-cell".into()));
        assert_eq!(h.meta_value("entry"), Some("frontier-cell"));
        assert_eq!(h.meta_value("absent"), None);
    }

    #[test]
    fn trace_event_tags_round_trip() {
        let events = [
            TraceEvent::Started { p: 3 },
            TraceEvent::Sent {
                src: 1,
                dst: 2,
                k: 9,
            },
            TraceEvent::Delivered {
                src: 1,
                dst: 2,
                k: 9,
            },
            TraceEvent::Dropped {
                src: 0,
                dst: 4,
                k: 1,
            },
        ];
        for e in events {
            assert_eq!(TraceEvent::from_bytes(&e.to_bytes()), Ok(e));
        }
    }
}
