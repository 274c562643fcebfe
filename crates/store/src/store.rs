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
//! budget; headers and outcomes survive unconditionally in the log, so
//! who ran, under what seed, to what verdict is never lost, and an
//! evicted run is distinguishable from an empty one by its outcome's
//! recorded event count.
//!
//! The index in memory holds the *locations* of those records, not the
//! records: one fixed-size entry per run (session, seed, the log offsets
//! of its header and outcome records, its recorded and retained event
//! counts), 48 bytes that own no heap memory. [`TraceStore::header`],
//! [`TraceStore::outcome`] and [`TraceStore::load`] decode from the log
//! when asked, so a store's memory does not grow with the sessions it has
//! recorded beyond those bytes.

use crate::codec::{put_varint, OutcomeRecord, Reader, RunHeader, StoreCodec, StoreError};
use crate::format::{
    self, crc32_update, decode_events_chunk, put_record_with, RawRecord, RecordKind, CRC_INIT,
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

/// One indexed run: where its records sit in the log, and what `find` and
/// `evicted` need without reading them. It owns no heap memory, so a
/// recorded run costs the index these 48 bytes; its header and outcome
/// are decoded from the log when asked for.
#[derive(Debug, Clone, Copy)]
struct RunEntry {
    session: u64,
    seed: u64,
    /// Frame offset of the run's header record. Its events chunks follow
    /// it, up to the outcome record.
    header_at: u64,
    /// Frame offset of the run's outcome record, the run's last.
    outcome_at: u64,
    /// Events the run recorded: its outcome's `event_count`.
    recorded: u64,
    /// Events its retained chunks hold.
    retained: u64,
}

const _: () = assert!(std::mem::size_of::<RunEntry>() <= 48);

impl RunEntry {
    fn evicted(&self) -> bool {
        self.retained < self.recorded
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
        put_record_with(&mut buf, RecordKind::Header, |out| header.encode(out));
        // A chunk is a varint count and a copy of the trace's own bytes
        // for that many events: the trace holds the store's encoding.
        for (count, bytes) in events.byte_chunks(EVENTS_PER_CHUNK) {
            put_record_with(&mut buf, RecordKind::EventsChunk, |out| {
                put_varint(out, count as u64);
                out.extend_from_slice(bytes);
            });
        }
        let base = self.backend.len();
        let outcome_at = base + buf.len() as u64;
        put_record_with(&mut buf, RecordKind::Outcome, |out| {
            OutcomeRecord::encode_outcome(outcome, out)
        });
        self.backend.append(&buf)?;
        let events = events.len() as u64;
        self.runs.push(RunEntry {
            session: header.session,
            seed: header.seed,
            header_at: base,
            outcome_at,
            recorded: events,
            retained: events,
        });
        Ok(self.runs.len() - 1)
    }

    /// The header of run `id`, read from the log.
    pub fn header(&self, id: RunId) -> Result<RunHeader, StoreError> {
        let e = self.entry(id)?;
        let bytes = self.read_span(e.header_at, self.record_end(e.header_at, e.outcome_at)?)?;
        RunHeader::from_bytes(first_record(&bytes, e.header_at, RecordKind::Header)?)
    }

    /// The stored outcome of run `id`, read from the log.
    pub fn outcome(&self, id: RunId) -> Result<OutcomeRecord, StoreError> {
        let at = self.entry(id)?.outcome_at;
        let bytes = self.read_span(at, self.run_end(id))?;
        OutcomeRecord::from_bytes(first_record(&bytes, at, RecordKind::Outcome)?)
    }

    /// `true` when retention evicted part of run `id`'s event body.
    pub fn evicted(&self, id: RunId) -> Result<bool, StoreError> {
        Ok(self.entry(id)?.evicted())
    }

    /// All run ids in file (i.e. recording) order.
    pub fn ids(&self) -> impl Iterator<Item = RunId> {
        0..self.runs.len()
    }

    /// The most recently recorded run whose header matches `(session,
    /// seed)`, if any.
    pub fn find(&self, session: u64, seed: u64) -> Option<RunId> {
        self.runs
            .iter()
            .rposition(|e| e.session == session && e.seed == seed)
    }

    /// The most recent run matching `(session, seed)` recorded under the
    /// given scheduler kind. Only the headers of runs matching `(session,
    /// seed)` are read.
    pub fn find_cell(
        &self,
        session: u64,
        seed: u64,
        kind: &SchedulerKind,
    ) -> Result<Option<RunId>, StoreError> {
        for (id, e) in self.runs.iter().enumerate().rev() {
            if e.session == session
                && e.seed == seed
                && self.header(id)?.kind.as_ref() == Some(kind)
            {
                return Ok(Some(id));
            }
        }
        Ok(None)
    }

    /// Streams run `id`'s retained events chunk by chunk off the backend
    /// (one chunk resident at a time). An unknown `id` yields its error
    /// once.
    pub fn events(&self, id: RunId) -> EventsIter<'_> {
        let span = self.entry(id).and_then(|e| match e.retained {
            0 => Ok((e.outcome_at, e.outcome_at)),
            _ => Ok((self.record_end(e.header_at, e.outcome_at)?, e.outcome_at)),
        });
        let ((at, end), error) = match span {
            Ok(span) => (span, None),
            Err(e) => ((0, 0), Some(e)),
        };
        EventsIter {
            store: self,
            at,
            end,
            error,
            buffered: Vec::new(),
            buffered_at: 0,
        }
    }

    /// Materialises run `id` for replay, from one read of its records.
    pub fn load(&self, id: RunId) -> Result<StoredRun, StoreError> {
        let entry = *self.entry(id)?;
        let bytes = self.read_span(entry.header_at, self.run_end(id))?;
        let (body, outcome) = bytes.split_at((entry.outcome_at - entry.header_at) as usize);
        let mut records = format::walk(body, entry.header_at);
        let header = RunHeader::from_bytes(next_record(&mut records, RecordKind::Header)?)?;
        // A chunk's count is bounded by its bytes; the entry's sum of them
        // is not, in a log crafted to pass its CRCs.
        let mut events = Vec::with_capacity(entry.retained.min(body.len() as u64) as usize);
        while records.remaining() > 0 {
            decode_events_chunk(
                next_record(&mut records, RecordKind::EventsChunk)?,
                &mut events,
            )?;
        }
        Ok(StoredRun {
            header,
            events,
            outcome: OutcomeRecord::from_bytes(first_record(
                outcome,
                entry.outcome_at,
                RecordKind::Outcome,
            )?)?,
            evicted: entry.evicted(),
        })
    }

    /// Bounded retention: while the log exceeds `budget` bytes, evicts the
    /// event bodies of the oldest runs (headers and outcomes are kept
    /// unconditionally), then rewrites the log in one pass, copying every
    /// kept record's bytes from the old log. Returns how many runs lost
    /// their bodies. The log may still exceed the budget if headers +
    /// outcomes alone do: the index is never sacrificed.
    pub fn compact(&mut self, budget: u64) -> Result<usize, StoreError> {
        let mut size = self.backend.len();
        // Where each evicted run's header record ends.
        let mut evict: Vec<Option<u64>> = vec![None; self.runs.len()];
        for (i, run) in self.runs.iter().enumerate() {
            if size <= budget {
                break;
            }
            let header_end = self.record_end(run.header_at, run.outcome_at)?;
            let body = run.outcome_at - header_end;
            if body > 0 {
                evict[i] = Some(header_end);
                size -= body;
            }
        }
        let evicted = evict.iter().flatten().count();
        if evicted == 0 {
            return Ok(0);
        }
        // Every copied record is CRC-checked first: a record damaged since
        // `open` fails here, before the rewrite could give it a home.
        let mut buf = Vec::new();
        format::put_preamble(&mut buf);
        let mut copy = |from: u64, to: u64| -> Result<(), StoreError> {
            let bytes = self.read_span(from, to)?;
            for record in format::walk(&bytes, from) {
                record?;
            }
            buf.extend_from_slice(&bytes);
            Ok(())
        };
        for (i, run) in self.runs.iter().enumerate() {
            let end = self.run_end(i);
            match evict[i] {
                Some(header_end) => {
                    copy(run.header_at, header_end)?;
                    copy(run.outcome_at, end)?;
                }
                None => copy(run.header_at, end)?,
            }
        }
        self.backend.rewrite(&buf)?;
        self.runs = index_log(self.backend.as_ref())?;
        Ok(evicted)
    }

    fn entry(&self, id: RunId) -> Result<&RunEntry, StoreError> {
        self.runs.get(id).ok_or(StoreError::UnknownRun {
            id,
            runs: self.runs.len(),
        })
    }

    /// Where run `id`'s records end: at the next run's header, or the log's
    /// end.
    fn run_end(&self, id: RunId) -> u64 {
        self.runs
            .get(id + 1)
            .map_or(self.backend.len(), |next| next.header_at)
    }

    /// Where the record whose frame starts at `at` ends, from its frame.
    /// A record that reaches past `limit`, the end of what open indexed
    /// there, was damaged since.
    fn record_end(&self, at: u64, limit: u64) -> Result<u64, StoreError> {
        let frame = self.backend.read(at, format::FRAME_LEN)?;
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
        let end = at + format::FRAME_LEN as u64 + u64::from(len);
        if end > limit {
            return Err(StoreError::BadCrc { offset: at });
        }
        Ok(end)
    }

    /// The log bytes `[from, to)`.
    fn read_span(&self, from: u64, to: u64) -> Result<Vec<u8>, StoreError> {
        let len = usize::try_from(to - from).map_err(|_| StoreError::Truncated)?;
        self.backend.read(from, len)
    }
}

/// The payload of the next record of `records`, which must be a `kind`
/// record.
fn next_record<'a>(
    records: &mut format::Walk<'a>,
    kind: RecordKind,
) -> Result<&'a [u8], StoreError> {
    match records.next().transpose()? {
        Some((rec, payload)) if rec.kind == kind => Ok(payload),
        Some((rec, _)) => Err(StoreError::UnexpectedRecord {
            offset: rec.offset,
            kind: rec.kind.tag(),
        }),
        None => Err(StoreError::Truncated),
    }
}

/// The payload of the `kind` record at the front of `bytes`, the log
/// bytes from offset `at` on.
fn first_record(bytes: &[u8], at: u64, kind: RecordKind) -> Result<&[u8], StoreError> {
    next_record(&mut format::walk(bytes, at), kind)
}

/// The `Header EventsChunk* Outcome` grammar, fed one record at a time.
#[derive(Default)]
struct RunGrammar {
    runs: Vec<RunEntry>,
    open: Option<RunEntry>,
}

impl RunGrammar {
    /// Takes the next record. `payload` is the record's whole payload
    /// for a header or an outcome, and at least the leading count varint
    /// for an events chunk. Headers and outcomes are decoded in full, so a
    /// malformed one fails here, but only the entry is kept.
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
                let header = RunHeader::from_bytes(payload)?;
                self.open = Some(RunEntry {
                    session: header.session,
                    seed: header.seed,
                    header_at: rec.offset,
                    outcome_at: 0,
                    recorded: 0,
                    retained: 0,
                });
            }
            RecordKind::EventsChunk => {
                let run = self.open.as_mut().ok_or(unexpected(1))?;
                let count = Reader::new(payload).varint()?;
                run.retained = run.retained.saturating_add(count);
            }
            RecordKind::Outcome => {
                let mut run = self.open.take().ok_or(unexpected(2))?;
                run.outcome_at = rec.offset;
                run.recorded = OutcomeRecord::from_bytes(payload)?.event_count;
                self.runs.push(run);
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

/// Streaming iterator over one run's retained events: decodes one chunk
/// at a time from the backend. After an error it yields nothing more.
pub struct EventsIter<'a> {
    store: &'a TraceStore,
    /// Frame offset of the next chunk record.
    at: u64,
    /// The run's outcome record, where its chunks end.
    end: u64,
    error: Option<StoreError>,
    buffered: Vec<TraceEvent>,
    buffered_at: usize,
}

impl EventsIter<'_> {
    /// Reads and decodes the chunk at `self.at` into the buffer.
    fn fill(&mut self) -> Result<(), StoreError> {
        let store = self.store;
        let next = store.record_end(self.at, self.end)?;
        let bytes = store.read_span(self.at, next)?;
        let payload = first_record(&bytes, self.at, RecordKind::EventsChunk)?;
        self.buffered.clear();
        self.buffered_at = 0;
        decode_events_chunk(payload, &mut self.buffered)?;
        self.at = next;
        Ok(())
    }
}

impl Iterator for EventsIter<'_> {
    type Item = Result<TraceEvent, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.error.take() {
                // Nothing of a chunk that failed to decode is yielded.
                self.at = self.end;
                self.buffered.clear();
                return Some(Err(e));
            }
            if let Some(&e) = self.buffered.get(self.buffered_at) {
                self.buffered_at += 1;
                return Some(Ok(e));
            }
            if self.at >= self.end {
                return None;
            }
            self.error = self.fill().err();
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
        assert_eq!(store.find_cell(1, 5, &SchedulerKind::Fifo), Ok(Some(b)));
        assert_eq!(store.find_cell(1, 5, &SchedulerKind::Lifo), Ok(None));
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
        assert_eq!(store.evicted(0), Ok(true));
        assert_eq!(
            store.outcome(0).unwrap().termination,
            run_echo(4, 0).termination
        );
        // The newest run's body survives when the budget allows.
        let last = store.len() - 1;
        if !store.evicted(last).unwrap() {
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
