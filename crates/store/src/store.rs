//! The append-only trace store: runs in, indexed runs out, bounded
//! retention via oldest-first body eviction.
//!
//! A [`TraceStore`] sits on a [`Backend`] — a byte log with append,
//! positional read, and whole-log rewrite. [`MemBackend`] keeps the log in
//! a `Vec<u8>` (tests, ephemeral capture); [`FileBackend`] persists it via
//! `std::fs` with an atomic rename on rewrite, so a crash mid-compaction
//! leaves either the old log or the new one, never a hybrid.
//!
//! Each recorded run is written as one append — header record, events
//! chunks, outcome record — so the only crash signature a reader can meet
//! is a torn *tail*, which [`TraceStore::open`] reports as the typed
//! [`StoreError::TornTail`]. Retention ([`TraceStore::compact`]) evicts
//! the *event bodies* of the oldest runs until the log fits a byte
//! budget; headers and outcomes survive unconditionally, so the index —
//! who ran, under what seed, to what verdict — is never lost, and an
//! evicted run is distinguishable from an empty one by its outcome's
//! retained event count.

use crate::codec::{put_varint, OutcomeRecord, Reader, RunHeader, StoreCodec, StoreError};
use crate::format::{
    self, crc32_update, decode_events_chunk, put_record, RawRecord, RecordKind, CRC_INIT,
};
use mediator_sim::{Outcome, SchedulerKind, TraceEvent};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Events per chunk record: big enough to amortise framing (9 bytes per
/// record), small enough that streaming iteration touches one chunk at a
/// time.
pub const EVENTS_PER_CHUNK: usize = 1024;

/// How much of the log [`TraceStore::open`] holds at a time while it
/// rebuilds the index: the walk reads the log window by window, so
/// reopening costs this much memory however long the log has grown. No
/// single [`Backend::read`] of the walk asks for more.
pub const INDEX_WINDOW: usize = 64 * 1024;

/// Where a [`TraceStore`] keeps its bytes.
pub trait Backend: Send {
    /// Current log length in bytes.
    fn len(&self) -> u64;

    /// `true` when the log holds no bytes at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Reads exactly `len` bytes starting at `offset`.
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError>;

    /// Replaces the whole log with `bytes` (compaction). Must be atomic
    /// with respect to crashes where the medium allows it.
    fn rewrite(&mut self, bytes: &[u8]) -> Result<(), StoreError>;
}

/// An in-memory byte log.
#[derive(Debug, Default)]
pub struct MemBackend {
    buf: Vec<u8>,
}

impl MemBackend {
    /// An empty in-memory log.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// A log pre-seeded with `bytes` (reopen-after-crash tests).
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        MemBackend { buf }
    }
}

impl Backend for MemBackend {
    fn len(&self) -> u64 {
        self.buf.len() as u64
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        let start = offset as usize;
        let end = start.checked_add(len).ok_or(StoreError::Truncated)?;
        self.buf
            .get(start..end)
            .map(<[u8]>::to_vec)
            .ok_or(StoreError::Truncated)
    }

    fn rewrite(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.buf = bytes.to_vec();
        Ok(())
    }
}

/// A `std::fs`-backed byte log. Reads share the handle behind a mutex
/// (seek + read under the lock), appends go through the same handle at
/// the tracked tail, and rewrite writes a `.compact` sibling then renames
/// it over the log — the close-to-atomic replacement `std::fs` offers.
#[derive(Debug)]
pub struct FileBackend {
    file: Mutex<File>,
    path: PathBuf,
    len: u64,
}

impl FileBackend {
    /// Creates (truncating) a fresh log at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileBackend {
            file: Mutex::new(file),
            path,
            len: 0,
        })
    }

    /// Opens the existing log at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(FileBackend {
            file: Mutex::new(file),
            path,
            len,
        })
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Backend for FileBackend {
    fn len(&self) -> u64 {
        self.len
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut file = self.file.lock().expect("file poisoned");
        file.seek(SeekFrom::Start(self.len))?;
        file.write_all(bytes)?;
        file.flush()?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        let mut file = self.file.lock().expect("file poisoned");
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn rewrite(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("compact");
        {
            let mut out = File::create(&tmp)?;
            out.write_all(bytes)?;
            out.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file = Mutex::new(file);
        self.len = bytes.len() as u64;
        Ok(())
    }
}

/// Index handle for a stored run (position in file order).
pub type RunId = usize;

/// One indexed run: its decoded header and outcome (always in memory —
/// they survive compaction) plus the location of its event chunks on the
/// backend (possibly evicted).
/// `(payload_offset, payload_len, events_in_chunk)` for one retained chunk.
type ChunkSpan = (u64, usize, u64);

#[derive(Debug)]
struct RunEntry {
    header: RunHeader,
    outcome: OutcomeRecord,
    chunks: Vec<ChunkSpan>,
}

impl RunEntry {
    fn retained_events(&self) -> u64 {
        self.chunks.iter().map(|&(_, _, c)| c).sum()
    }
}

/// Everything a replayer needs from one stored run, fully materialised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRun {
    /// The run header.
    pub header: RunHeader,
    /// The retained trace events (complete iff `!evicted` and
    /// `!header.partial`).
    pub events: Vec<TraceEvent>,
    /// The stored final verdict.
    pub outcome: OutcomeRecord,
    /// `true` when retention evicted some or all of the event body.
    pub evicted: bool,
}

/// The append-only run log. See the module docs for the retention and
/// crash-safety contract.
pub struct TraceStore {
    backend: Box<dyn Backend>,
    runs: Vec<RunEntry>,
}

impl TraceStore {
    /// A fresh store over an in-memory backend.
    pub fn in_memory() -> Self {
        TraceStore::with_backend(Box::new(MemBackend::new())).expect("empty mem store is valid")
    }

    /// Creates a fresh file-backed store at `path` (truncating).
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        TraceStore::with_backend(Box::new(FileBackend::create(path)?))
    }

    /// Opens the existing store at `path`, scanning and CRC-checking every
    /// record to rebuild the index. A torn tail or corrupt record surfaces
    /// as its typed error.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        TraceStore::with_backend(Box::new(FileBackend::open(path)?))
    }

    /// Wraps an arbitrary backend, writing the preamble if the log is
    /// empty and indexing it otherwise.
    pub fn with_backend(mut backend: Box<dyn Backend>) -> Result<Self, StoreError> {
        if backend.is_empty() {
            let mut preamble = Vec::new();
            format::put_preamble(&mut preamble);
            backend.append(&preamble)?;
            return Ok(TraceStore {
                backend,
                runs: Vec::new(),
            });
        }
        let runs = index_log(backend.as_ref())?;
        Ok(TraceStore { backend, runs })
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` when no runs are stored.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.backend.len()
    }

    /// Records one finished run: header, event chunks, outcome — written
    /// as a single append so a crash can only tear the log's tail, never
    /// interleave half a run with the next. The header's `partial` flag is
    /// derived from the trace itself (a counters-only capture is
    /// stored, but marked — replay will refuse it).
    pub fn record(
        &mut self,
        mut header: RunHeader,
        outcome: &Outcome,
    ) -> Result<RunId, StoreError> {
        header.partial = outcome.trace.wrapped() > 0;
        let events = outcome.trace.events();
        let mut buf = Vec::with_capacity(events.as_bytes().len());
        put_record(&mut buf, RecordKind::Header, &header.to_bytes());
        // A chunk is a varint count and a copy of the trace's own bytes
        // for that many events: the trace holds the store's encoding.
        let mut chunk = Vec::new();
        for (count, bytes) in events.byte_chunks(EVENTS_PER_CHUNK.max(1)) {
            chunk.clear();
            put_varint(&mut chunk, count as u64);
            chunk.extend_from_slice(bytes);
            put_record(&mut buf, RecordKind::EventsChunk, &chunk);
        }
        let record = OutcomeRecord::capture(outcome);
        put_record(&mut buf, RecordKind::Outcome, &record.to_bytes());

        // Chunk payload offsets are relative to the append position.
        let base = self.backend.len();
        self.backend.append(&buf)?;
        let appended = scan_appended(&buf, base)?;
        self.runs.push(RunEntry {
            header,
            outcome: record,
            chunks: appended,
        });
        Ok(self.runs.len() - 1)
    }

    /// The header of run `id`.
    pub fn header(&self, id: RunId) -> &RunHeader {
        &self.runs[id].header
    }

    /// The stored outcome of run `id`.
    pub fn outcome(&self, id: RunId) -> &OutcomeRecord {
        &self.runs[id].outcome
    }

    /// `true` when retention evicted part of run `id`'s event body.
    pub fn evicted(&self, id: RunId) -> bool {
        self.runs[id].retained_events() < self.runs[id].outcome.event_count
    }

    /// All run ids in file (i.e. recording) order.
    pub fn ids(&self) -> impl Iterator<Item = RunId> {
        0..self.runs.len()
    }

    /// The most recently recorded run whose header matches `(session,
    /// seed)`, if any.
    pub fn find(&self, session: u64, seed: u64) -> Option<RunId> {
        (0..self.runs.len())
            .rev()
            .find(|&i| self.runs[i].header.session == session && self.runs[i].header.seed == seed)
    }

    /// The most recent run matching `(session, seed)` recorded under the
    /// given scheduler kind.
    pub fn find_cell(&self, session: u64, seed: u64, kind: &SchedulerKind) -> Option<RunId> {
        (0..self.runs.len()).rev().find(|&i| {
            let h = &self.runs[i].header;
            h.session == session && h.seed == seed && h.kind.as_ref() == Some(kind)
        })
    }

    /// Streams run `id`'s retained events chunk by chunk off the backend
    /// (one chunk resident at a time).
    pub fn events(&self, id: RunId) -> EventsIter<'_> {
        EventsIter {
            store: self,
            chunks: &self.runs[id].chunks,
            next_chunk: 0,
            buffered: Vec::new(),
            buffered_at: 0,
        }
    }

    /// Materialises run `id` for replay.
    pub fn load(&self, id: RunId) -> Result<StoredRun, StoreError> {
        let mut events = Vec::with_capacity(self.runs[id].retained_events() as usize);
        for e in self.events(id) {
            events.push(e?);
        }
        Ok(StoredRun {
            header: self.runs[id].header.clone(),
            events,
            outcome: self.runs[id].outcome.clone(),
            evicted: self.evicted(id),
        })
    }

    /// Bounded retention: while the log exceeds `budget` bytes, evicts the
    /// event bodies of the oldest runs (headers and outcomes are kept
    /// unconditionally), then rewrites the log in one pass. Returns how
    /// many runs lost their bodies. The log may still exceed the budget
    /// if headers + outcomes alone do: the index is never sacrificed.
    pub fn compact(&mut self, budget: u64) -> Result<usize, StoreError> {
        let mut size = self.backend.len();
        let mut evict = vec![false; self.runs.len()];
        let mut evicted = 0usize;
        for (i, run) in self.runs.iter().enumerate() {
            if size <= budget {
                break;
            }
            let body: u64 = run
                .chunks
                .iter()
                .map(|&(_, len, _)| (format::FRAME_LEN + 1 + len) as u64)
                .sum();
            if body > 0 {
                evict[i] = true;
                evicted += 1;
                size -= body;
            }
        }
        if evicted == 0 {
            return Ok(0);
        }
        let mut buf = Vec::new();
        format::put_preamble(&mut buf);
        for (i, run) in self.runs.iter().enumerate() {
            put_record(&mut buf, RecordKind::Header, &run.header.to_bytes());
            if !evict[i] {
                for &(offset, len, _) in &run.chunks {
                    let payload = self.backend.read(offset, len)?;
                    put_record(&mut buf, RecordKind::EventsChunk, &payload);
                }
            }
            put_record(&mut buf, RecordKind::Outcome, &run.outcome.to_bytes());
        }
        self.backend.rewrite(&buf)?;
        self.runs = index_log(self.backend.as_ref())?;
        Ok(evicted)
    }
}

/// The `Header EventsChunk* Outcome` grammar, fed one record at a time.
#[derive(Default)]
struct RunGrammar {
    runs: Vec<RunEntry>,
    open: Option<(RunHeader, Vec<ChunkSpan>)>,
}

impl RunGrammar {
    /// Takes the next record. `payload` is the record's whole payload
    /// for a header or an outcome, and at least the leading count varint
    /// for an events chunk.
    fn push(&mut self, rec: RawRecord, payload: &[u8]) -> Result<(), StoreError> {
        let unexpected = |kind| StoreError::UnexpectedRecord {
            offset: rec.offset,
            kind,
        };
        match rec.kind {
            RecordKind::Header => {
                if self.open.is_some() {
                    return Err(unexpected(0));
                }
                self.open = Some((RunHeader::from_bytes(payload)?, Vec::new()));
            }
            RecordKind::EventsChunk => {
                let (_, chunks) = self.open.as_mut().ok_or(unexpected(1))?;
                let count = chunk_event_count(payload)?;
                chunks.push((rec.payload_offset, rec.payload_len, count));
            }
            RecordKind::Outcome => {
                let (header, chunks) = self.open.take().ok_or(unexpected(2))?;
                self.runs.push(RunEntry {
                    header,
                    outcome: OutcomeRecord::from_bytes(payload)?,
                    chunks,
                });
            }
        }
        Ok(())
    }

    /// The indexed runs, once the log ended at `end`.
    fn finish(self, end: u64) -> Result<Vec<RunEntry>, StoreError> {
        if self.open.is_some() {
            // A header without its outcome cannot happen through `record`
            // (one append per run); treat it as a torn tail at EOF.
            return Err(StoreError::TornTail { offset: end });
        }
        Ok(self.runs)
    }
}

/// The longest encoding a varint may have: all the index reads of an
/// events chunk is its leading count.
const MAX_VARINT_LEN: usize = 10;

/// At most [`INDEX_WINDOW`] bytes of the log, re-read where a request
/// straddles the window's edge.
struct LogWindow<'a> {
    backend: &'a dyn Backend,
    end: u64,
    start: u64,
    bytes: Vec<u8>,
}

impl LogWindow<'_> {
    /// The `n` log bytes at `at`. The caller has checked that the log
    /// holds them and that `n` fits the window.
    fn slice(&mut self, at: u64, n: usize) -> Result<&[u8], StoreError> {
        debug_assert!(n <= INDEX_WINDOW && at + n as u64 <= self.end);
        let held = self.start + self.bytes.len() as u64;
        if at < self.start || at + n as u64 > held {
            let len = (self.end - at).min(INDEX_WINDOW as u64) as usize;
            self.bytes = self.backend.read(at, len)?;
            self.start = at;
        }
        let off = (at - self.start) as usize;
        Ok(&self.bytes[off..off + n])
    }
}

/// Rebuilds the run index by walking the log's records through a bounded
/// window: every frame's length and CRC is verified and the run grammar
/// enforced exactly as [`format::scan`] plus a pass over its records
/// would, without the log ever being in memory at once. Framing errors
/// outrank grammar and payload errors wherever in the log they sit, as
/// they do when the whole log is scanned first.
fn index_log(backend: &dyn Backend) -> Result<Vec<RunEntry>, StoreError> {
    let end = backend.len();
    let mut log = LogWindow {
        backend,
        end,
        start: 0,
        bytes: Vec::new(),
    };
    let preamble = log.slice(0, end.min(format::PREAMBLE_LEN) as usize)?;
    let mut pos = format::check_preamble(preamble)?;
    let mut grammar = RunGrammar::default();
    let mut deferred: Option<StoreError> = None;
    let mut kept: Vec<u8> = Vec::new();
    while pos < end {
        let offset = pos;
        if end - pos < format::FRAME_LEN as u64 {
            return Err(StoreError::TornTail { offset });
        }
        let frame = log.slice(pos, format::FRAME_LEN)?;
        let len = u64::from(u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")));
        let crc = u32::from_le_bytes(frame[4..].try_into().expect("4 bytes"));
        pos += format::FRAME_LEN as u64;
        if len == 0 || end - pos < len {
            return Err(StoreError::TornTail { offset });
        }
        // The body, a window at a time: all of it is check-summed, and
        // only what the index decodes is kept — the whole payload of a
        // header or an outcome, the count varint of an events chunk.
        let tag = log.slice(pos, 1)?[0];
        let kind = RecordKind::from_tag(tag);
        let want = match kind {
            Ok(RecordKind::EventsChunk) => MAX_VARINT_LEN,
            Ok(RecordKind::Header | RecordKind::Outcome) => usize::MAX,
            Err(_) => 0,
        };
        kept.clear();
        let mut state = crc32_update(CRC_INIT, &[tag]);
        let mut at = pos + 1;
        while at < pos + len {
            let n = (pos + len - at).min(INDEX_WINDOW as u64) as usize;
            let piece = log.slice(at, n)?;
            state = crc32_update(state, piece);
            let keep = piece.len().min(want - kept.len());
            kept.extend_from_slice(&piece[..keep]);
            at += n as u64;
        }
        if !state != crc {
            return Err(StoreError::BadCrc { offset });
        }
        let rec = RawRecord {
            offset,
            kind: kind?,
            payload_offset: pos + 1,
            payload_len: len as usize - 1,
        };
        if deferred.is_none() {
            deferred = grammar.push(rec, &kept).err();
        }
        pos += len;
    }
    match deferred {
        Some(e) => Err(e),
        None => grammar.finish(end),
    }
}

/// Indexes the chunk locations of a freshly appended run buffer, shifting
/// offsets by the append position.
fn scan_appended(buf: &[u8], base: u64) -> Result<Vec<(u64, usize, u64)>, StoreError> {
    // `buf` has no preamble; prepend offsets manually by walking frames.
    let mut pos = 0usize;
    let mut chunks = Vec::new();
    while pos < buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let body = pos + format::FRAME_LEN;
        if buf[body] == 1 {
            let payload = &buf[body + 1..body + len];
            chunks.push((
                base + (body + 1) as u64,
                len - 1,
                chunk_event_count(payload)?,
            ));
        }
        pos = body + len;
    }
    Ok(chunks)
}

/// Reads just the event count off a chunk payload.
fn chunk_event_count(payload: &[u8]) -> Result<u64, StoreError> {
    Ok(Reader::new(payload).varint()?)
}

/// Streaming iterator over one run's retained events: decodes one chunk
/// at a time from the backend.
pub struct EventsIter<'a> {
    store: &'a TraceStore,
    chunks: &'a [(u64, usize, u64)],
    next_chunk: usize,
    buffered: Vec<TraceEvent>,
    buffered_at: usize,
}

impl Iterator for EventsIter<'_> {
    type Item = Result<TraceEvent, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.buffered_at < self.buffered.len() {
                let e = self.buffered[self.buffered_at];
                self.buffered_at += 1;
                return Some(Ok(e));
            }
            let &(offset, len, _) = self.chunks.get(self.next_chunk)?;
            self.next_chunk += 1;
            let payload = match self.store.backend.read(offset, len) {
                Ok(p) => p,
                Err(e) => return Some(Err(e)),
            };
            match decode_events_chunk(&payload) {
                Ok(events) => {
                    self.buffered = events;
                    self.buffered_at = 0;
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::PlanKind;
    use mediator_sim::{Ctx, Process, ProcessId, SchedulerKind, World};

    /// A tiny deterministic world: p0 broadcasts, everyone echoes once.
    struct Echo {
        n: usize,
    }

    impl Process<u64> for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            if ctx.me() == 0 {
                for d in 0..self.n {
                    ctx.send(d, d as u64);
                }
            }
        }
        fn on_message(&mut self, _src: ProcessId, msg: u64, ctx: &mut Ctx<u64>) {
            ctx.make_move(msg);
            ctx.halt();
        }
    }

    fn run_echo(n: usize, seed: u64) -> Outcome {
        let procs: Vec<Box<dyn Process<u64>>> = (0..n)
            .map(|_| Box::new(Echo { n }) as Box<dyn Process<u64>>)
            .collect();
        let mut world = World::new(procs, seed);
        world.run(SchedulerKind::Fifo.build().as_mut(), 10_000)
    }

    fn header(session: u64, seed: u64) -> RunHeader {
        let mut h = RunHeader::bare(session, seed);
        h.kind = Some(SchedulerKind::Fifo);
        h.plan = PlanKind::Other;
        h
    }

    #[test]
    fn record_and_load_round_trip() {
        let mut store = TraceStore::in_memory();
        let outcome = run_echo(3, 5);
        let id = store.record(header(1, 5), &outcome).unwrap();
        let run = store.load(id).unwrap();
        assert_eq!(run.events, outcome.trace.events());
        assert_eq!(run.outcome.steps, outcome.steps);
        assert_eq!(run.outcome.termination, outcome.termination);
        assert!(!run.evicted);
        assert!(!run.header.partial);
    }

    #[test]
    fn find_returns_most_recent_match() {
        let mut store = TraceStore::in_memory();
        let a = store.record(header(1, 5), &run_echo(3, 5)).unwrap();
        let b = store.record(header(1, 5), &run_echo(3, 5)).unwrap();
        assert_ne!(a, b);
        assert_eq!(store.find(1, 5), Some(b));
        assert_eq!(store.find(2, 5), None);
        assert_eq!(store.find_cell(1, 5, &SchedulerKind::Fifo), Some(b));
        assert_eq!(store.find_cell(1, 5, &SchedulerKind::Lifo), None);
    }

    #[test]
    fn compaction_keeps_headers_and_outcomes() {
        let mut store = TraceStore::in_memory();
        for s in 0..8 {
            store.record(header(s, s), &run_echo(4, s)).unwrap();
        }
        let before = store.bytes();
        let evicted = store.compact(before / 2).unwrap();
        assert!(evicted > 0, "a halved budget must evict something");
        assert!(store.bytes() < before);
        assert_eq!(store.len(), 8, "every run survives compaction");
        // Oldest-first: run 0 evicted, and its outcome still readable.
        assert!(store.evicted(0));
        assert_eq!(store.outcome(0).termination, run_echo(4, 0).termination);
        // The newest run's body survives when the budget allows.
        let last = store.len() - 1;
        if !store.evicted(last) {
            let run = store.load(last).unwrap();
            assert_eq!(run.events.len() as u64, run.outcome.event_count);
        }
    }

    #[test]
    fn file_backend_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("mediator-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.mtrc");
        let outcome = run_echo(3, 9);
        {
            let mut store = TraceStore::create(&path).unwrap();
            store.record(header(42, 9), &outcome).unwrap();
        }
        let store = TraceStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        let id = store.find(42, 9).expect("run indexed after reopen");
        assert_eq!(store.load(id).unwrap().events, outcome.trace.events());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_file_tail_is_typed_on_open() {
        let dir = std::env::temp_dir().join(format!("mediator-store-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.mtrc");
        {
            let mut store = TraceStore::create(&path).unwrap();
            store.record(header(1, 1), &run_echo(3, 1)).unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        match TraceStore::open(&path) {
            Err(StoreError::TornTail { .. }) => {}
            Err(other) => panic!("expected TornTail, got {other:?}"),
            Ok(_) => panic!("expected TornTail, got a store"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_iteration_matches_load() {
        let mut store = TraceStore::in_memory();
        let outcome = run_echo(5, 2);
        let id = store.record(header(1, 2), &outcome).unwrap();
        let streamed: Result<Vec<_>, _> = store.events(id).collect();
        assert_eq!(streamed.unwrap(), outcome.trace.events());
    }
}
