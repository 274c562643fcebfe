//! Message patterns: the environment-visible view of a run.
//!
//! Lemma 6.8 of the paper defines a *message pattern* as the sequence of
//! events `(s, i, j, k)` ("the `k`-th message from `i` to `j` was sent") and
//! `(d, i, j, k)` ("... was delivered"), with contents hidden. Schedulers in
//! this crate see exactly this information, and [`Trace`] records it for the
//! whole run so that experiments can count messages and reconstruct
//! scheduler-equivalence classes.
//!
//! A trace keeps its events in their codec bytes, not as [`TraceEvent`]
//! values: a tag byte, then unsigned LEB128 `p`, or `src`, `dst` and `k`
//! ([`put_event`] / [`read_event`]). That is about four bytes an event
//! instead of 32, and it is the encoding `mediator-store` writes into its
//! event chunks, so recording a run copies these bytes instead of
//! re-encoding them. [`Trace::events`] decodes while iterating.
//!
//! [`TraceMode`] chooses whether the events are kept at all:
//! [`TraceMode::Full`] (the default — every event, what the trace-equality
//! suites compare) or [`TraceMode::Off`] (counters only, for runs that
//! never read the pattern). The event counters are maintained in both
//! modes, so [`Trace::sent_count`] and friends are exact — and O(1) —
//! however much of the event stream is kept.

use crate::bytes::{put_varint, ByteError, Reader};
use crate::process::ProcessId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One environment-visible event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Process `p` received its start signal.
    Started { p: ProcessId },
    /// The `k`-th message from `src` to `dst` was sent (paper: `(s,i,j,k)`).
    Sent {
        src: ProcessId,
        dst: ProcessId,
        k: u64,
    },
    /// The `k`-th message from `src` to `dst` was delivered (paper: `(d,i,j,k)`).
    Delivered {
        src: ProcessId,
        dst: ProcessId,
        k: u64,
    },
    /// The `k`-th message from `src` to `dst` was dropped by a relaxed scheduler.
    Dropped {
        src: ProcessId,
        dst: ProcessId,
        k: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Started { p } => write!(f, "(start,{p})"),
            TraceEvent::Sent { src, dst, k } => write!(f, "(s,{src},{dst},{k})"),
            TraceEvent::Delivered { src, dst, k } => write!(f, "(d,{src},{dst},{k})"),
            TraceEvent::Dropped { src, dst, k } => write!(f, "(x,{src},{dst},{k})"),
        }
    }
}

/// The tag of [`TraceEvent::Started`], the one event with a single field.
const TAG_STARTED: u8 = 0;

/// Appends `e`'s codec bytes to `out`: the tag (`0` started, `1` sent,
/// `2` delivered, `3` dropped) followed by LEB128 `p`, or `src`, `dst`
/// and `k`. The tag table is the store format's (DESIGN.md §11).
#[inline]
pub fn put_event(out: &mut Vec<u8>, e: &TraceEvent) {
    let (tag, src, dst, k) = match *e {
        TraceEvent::Started { p } => {
            out.push(TAG_STARTED);
            put_varint(out, p as u64);
            return;
        }
        TraceEvent::Sent { src, dst, k } => (1, src, dst, k),
        TraceEvent::Delivered { src, dst, k } => (2, src, dst, k),
        TraceEvent::Dropped { src, dst, k } => (3, src, dst, k),
    };
    out.push(tag);
    put_varint(out, src as u64);
    put_varint(out, dst as u64);
    put_varint(out, k);
}

/// Reads one event written by [`put_event`]. Strict: an unknown tag, a
/// truncated field or a process id beyond `usize` is a typed error.
pub fn read_event(r: &mut Reader<'_>) -> Result<TraceEvent, ByteError> {
    fn id(r: &mut Reader<'_>) -> Result<ProcessId, ByteError> {
        usize::try_from(r.varint()?).map_err(|_| ByteError::VarintOverflow)
    }
    let message: fn(ProcessId, ProcessId, u64) -> TraceEvent = match r.u8()? {
        TAG_STARTED => return Ok(TraceEvent::Started { p: id(r)? }),
        1 => |src, dst, k| TraceEvent::Sent { src, dst, k },
        2 => |src, dst, k| TraceEvent::Delivered { src, dst, k },
        3 => |src, dst, k| TraceEvent::Dropped { src, dst, k },
        tag => {
            return Err(ByteError::UnknownTag {
                what: "TraceEvent",
                tag,
            })
        }
    };
    Ok(message(id(r)?, id(r)?, r.varint()?))
}

/// Whether a [`Trace`] keeps its events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TraceMode {
    /// Record every event (the default; required by pattern-equality tests).
    #[default]
    Full,
    /// Keep no events; counters stay exact.
    Off,
}

/// The message pattern of a run: retained events plus exact counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// The retained events, back to back in [`put_event`] bytes.
    bytes: Vec<u8>,
    mode: TraceMode,
    started: u64,
    sent: u64,
    delivered: u64,
    dropped: u64,
}

impl Trace {
    /// Creates an empty full-recording trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with the given retention mode.
    pub fn with_mode(mode: TraceMode) -> Self {
        Trace {
            mode,
            ..Trace::default()
        }
    }

    /// Appends an event. Traces are plain data; building them by hand is
    /// useful for testing pattern-classification tooling.
    #[inline]
    pub fn push(&mut self, e: TraceEvent) {
        match e {
            TraceEvent::Started { .. } => self.started += 1,
            TraceEvent::Sent { .. } => self.sent += 1,
            TraceEvent::Delivered { .. } => self.delivered += 1,
            TraceEvent::Dropped { .. } => self.dropped += 1,
        }
        if self.mode == TraceMode::Full {
            put_event(&mut self.bytes, &e);
        }
    }

    /// The retained events: the complete pattern in dispatch order in
    /// [`TraceMode::Full`], nothing in [`TraceMode::Off`].
    pub fn events(&self) -> Events<'_> {
        let kept = self.mode == TraceMode::Full;
        Events {
            bytes: &self.bytes,
            len: if kept { self.recorded() as usize } else { 0 },
        }
    }

    /// Number of messages sent (exact in every mode).
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Number of messages delivered (exact in every mode).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Number of messages dropped by a relaxed scheduler (exact in every
    /// mode).
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Number of start signals delivered (exact in every mode).
    pub fn started_count(&self) -> u64 {
        self.started
    }

    fn recorded(&self) -> u64 {
        self.started + self.sent + self.delivered + self.dropped
    }

    /// Events recorded but **not retained**: zero in [`TraceMode::Full`],
    /// everything in [`TraceMode::Off`].
    ///
    /// A nonzero value means the retained stream is *partial* — a trace
    /// store must mark such a recording accordingly, and deterministic
    /// replay must refuse it (there is no script to re-enact).
    pub fn wrapped(&self) -> u64 {
        self.recorded() - self.events().len() as u64
    }

    /// Renders the retained pattern in the paper's tuple notation.
    pub fn to_pattern_string(&self) -> String {
        let parts: Vec<String> = self.events().iter().map(|e| e.to_string()).collect();
        parts.join(", ")
    }
}

/// A read-only view of a [`Trace`]'s retained events that decodes while
/// iterating. Its length is known without decoding.
#[derive(Clone, Copy)]
pub struct Events<'a> {
    bytes: &'a [u8],
    len: usize,
}

impl<'a> Events<'a> {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no event is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The events in dispatch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceEvent> + 'a {
        let mut reader = Reader::new(self.bytes);
        (0..self.len).map(move |_| read_event(&mut reader).expect("a trace holds put_event bytes"))
    }

    /// The events' codec bytes, back to back ([`put_event`]).
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Splits the events into runs of at most `per` (≥ 1) events, each as
    /// `(count, bytes)`. The cuts fall on event boundaries, found by
    /// skipping varints; no event is decoded.
    pub fn byte_chunks(&self, per: usize) -> impl Iterator<Item = (usize, &'a [u8])> + 'a {
        let (bytes, len, mut at) = (self.bytes, self.len, 0);
        (0..len).step_by(per).map(move |first| {
            let (count, start) = (per.min(len - first), at);
            for _ in 0..count {
                at = event_end(bytes, at);
            }
            (count, &bytes[start..at])
        })
    }
}

/// The offset just past the event whose tag is at `at`: one varint
/// follows a start tag, three any other, each ending at a byte below 0x80.
fn event_end(bytes: &[u8], mut at: usize) -> usize {
    for _ in 0..if bytes[at] == TAG_STARTED { 1 } else { 3 } {
        at += 1 + bytes[at + 1..]
            .iter()
            .position(|b| b & 0x80 == 0)
            .expect("a whole event");
    }
    at + 1
}

impl fmt::Debug for Events<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Two views are equal when they hold the same events. The encoding is
/// canonical (minimal LEB128), so that is a byte comparison.
impl PartialEq for Events<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes == other.bytes
    }
}

impl PartialEq<Events<'_>> for Vec<TraceEvent> {
    fn eq(&self, other: &Events<'_>) -> bool {
        self.len() == other.len && self.iter().copied().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_rendering() {
        let mut t = Trace::new();
        t.push(TraceEvent::Started { p: 0 });
        for (src, dst, k) in [(0, 3, 1), (1, 0, 1), (0, 3, 2)] {
            t.push(TraceEvent::Sent { src, dst, k });
        }
        let (src, dst, k) = (0, 3, 2);
        t.push(TraceEvent::Delivered { src, dst, k });
        assert_eq!(t.sent_count(), 3);
        assert_eq!(t.delivered_count(), 1);
        assert_eq!(t.dropped_count(), 0);
        assert_eq!(t.events().len(), 5);
        // This is the example pattern from the proof of Lemma 6.8.
        assert_eq!(
            t.to_pattern_string(),
            "(start,0), (s,0,3,1), (s,1,0,1), (s,0,3,2), (d,0,3,2)"
        );
        // Small ids and counters cost one byte each: 2 + 4 × 4 bytes.
        assert_eq!(t.events().as_bytes().len(), 18);
    }

    #[test]
    fn off_mode_records_nothing_but_counts_everything() {
        let mut t = Trace::with_mode(TraceMode::Off);
        t.push(TraceEvent::Started { p: 2 });
        let (src, dst, k) = (1, 2, 1);
        t.push(TraceEvent::Dropped { src, dst, k });
        assert!(t.events().is_empty());
        assert!(t.events().as_bytes().is_empty());
        assert_eq!(t.started_count(), 1);
        assert_eq!(t.dropped_count(), 1);
        assert_eq!(t.wrapped(), 2, "off mode retains nothing");
        assert_eq!(t.to_pattern_string(), "");
    }
}
