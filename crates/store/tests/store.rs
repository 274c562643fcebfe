//! Bounded retention at sweep scale: the acceptance criterion of the
//! store subsystem. A 64-session conformance-style sweep is recorded in
//! full, the log is compacted under a byte cap, and every header and
//! outcome must survive — the index of who ran, under which seed, to
//! which verdict is never sacrificed; only event *bodies* are evicted,
//! oldest first, and an evicted run is typed when replay asks for it.

use mediator_sim::{Ctx, Process, ProcessId, SchedulerKind, World};
use mediator_store::{stored_script, ReplayError, StoreError, TraceStore};

const SESSIONS: u64 = 64;

/// A small deterministic world with enough traffic that event bodies
/// dominate the log: every process greets every other, replies to each
/// greeting, and moves on its first reply.
struct Gossip {
    n: usize,
    done: bool,
}

impl Process<u64> for Gossip {
    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        let me = ctx.me();
        for dst in 0..self.n {
            if dst != me {
                ctx.send(dst, me as u64);
            }
        }
    }
    fn on_message(&mut self, src: ProcessId, msg: u64, ctx: &mut Ctx<u64>) {
        if msg < self.n as u64 {
            ctx.send(src, self.n as u64 + msg);
        } else if !self.done {
            self.done = true;
            ctx.make_move(msg);
        }
    }
}

fn run_gossip(n: usize, seed: u64) -> mediator_sim::Outcome {
    let procs: Vec<Box<dyn Process<u64>>> = (0..n)
        .map(|_| Box::new(Gossip { n, done: false }) as Box<dyn Process<u64>>)
        .collect();
    World::new(procs, seed).run(SchedulerKind::Random.build().as_mut(), 100_000)
}

fn sweep_store() -> (TraceStore, Vec<mediator_sim::Outcome>) {
    let mut store = TraceStore::in_memory();
    let mut outcomes = Vec::new();
    for session in 0..SESSIONS {
        let outcome = run_gossip(6, session);
        let mut header = mediator_store::RunHeader::bare(session, session);
        header.kind = Some(SchedulerKind::Random);
        store.record(header, &outcome).expect("record");
        outcomes.push(outcome);
    }
    (store, outcomes)
}

#[test]
fn sixty_four_session_sweep_survives_a_byte_cap() {
    let (mut store, outcomes) = sweep_store();
    assert_eq!(store.len() as u64, SESSIONS);
    let before = store.bytes();

    // Cap the log at a quarter of its natural size.
    let budget = before / 4;
    let evicted = store.compact(budget).expect("compaction");
    assert!(evicted > 0, "a quartered budget must evict bodies");
    assert!(
        store.bytes() <= budget,
        "log fits the cap ({} > {budget})",
        store.bytes()
    );

    // The index is intact: every session's header and outcome survive,
    // with the exact verdict the run produced.
    assert_eq!(store.len() as u64, SESSIONS, "no run was dropped");
    for session in 0..SESSIONS {
        let id = store
            .find(session, session)
            .unwrap_or_else(|| panic!("session {session} lost its header"));
        let header = store.header(id);
        assert_eq!(header.kind, Some(SchedulerKind::Random));
        let stored = store.outcome(id);
        let original = &outcomes[session as usize];
        assert_eq!(stored.termination, original.termination);
        assert_eq!(stored.moves, original.moves);
        assert_eq!(stored.steps, original.steps);
        assert_eq!(
            stored.event_count,
            original.trace.events().len() as u64,
            "the recorded event count survives even when the body does not"
        );
    }

    // Eviction is oldest-first: the evicted prefix is contiguous.
    let first_kept = store
        .ids()
        .position(|id| !store.evicted(id))
        .unwrap_or(SESSIONS as usize);
    for id in store.ids() {
        assert_eq!(
            store.evicted(id),
            id < first_kept,
            "run {id}: eviction must be a contiguous oldest-first prefix"
        );
    }
    assert!(first_kept > 0, "something was evicted");
    assert!(
        (first_kept as u64) < SESSIONS,
        "a quarter budget keeps the newest bodies"
    );

    // Evicted runs refuse replay with the typed error; surviving runs
    // still hand back their full script.
    let old = store.load(0).expect("evicted run still loads");
    assert!(matches!(
        stored_script(&old),
        Err(ReplayError::Evicted { have: 0, .. })
    ));
    let fresh_id = store.len() - 1;
    let fresh = store.load(fresh_id).expect("fresh run loads");
    let script = stored_script(&fresh).expect("surviving body replays");
    assert_eq!(
        script.events().to_vec(),
        outcomes[fresh_id].trace.events(),
        "the surviving body is byte-identical to the recording"
    );
}

#[test]
fn compaction_is_idempotent_and_monotone() {
    let (mut store, _) = sweep_store();
    let budget = store.bytes() / 4;
    store.compact(budget).expect("first compaction");
    let after_first = store.bytes();
    let evicted_again = store.compact(budget).expect("second compaction");
    assert_eq!(evicted_again, 0, "a fitting log evicts nothing");
    assert_eq!(store.bytes(), after_first, "no rewrite when nothing evicts");

    // A tighter cap evicts more but can never drop below the index floor.
    store.compact(0).expect("evict every body");
    for id in store.ids().collect::<Vec<_>>() {
        assert!(store.evicted(id) || store.outcome(id).event_count == 0);
    }
    assert_eq!(store.len() as u64, SESSIONS);
}

#[test]
fn capped_file_store_reopens_with_its_index_intact() {
    let dir = std::env::temp_dir().join(format!("mediator-store-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.mtrc");
    {
        let mut store = TraceStore::create(&path).expect("create");
        for session in 0..SESSIONS {
            let mut header = mediator_store::RunHeader::bare(session, session);
            header.kind = Some(SchedulerKind::Random);
            store
                .record(header, &run_gossip(5, session))
                .expect("record");
        }
        let budget = store.bytes() / 4;
        store.compact(budget).expect("compact");
    }
    let store = TraceStore::open(&path).expect("reopen after compaction");
    assert_eq!(store.len() as u64, SESSIONS);
    for session in 0..SESSIONS {
        assert!(store.find(session, session).is_some());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn zero_budget_never_loses_a_verdict() {
    let (mut store, outcomes) = sweep_store();
    store.compact(0).expect("evict everything");
    for session in 0..SESSIONS {
        let id = store.find(session, session).expect("indexed");
        assert_eq!(
            store.outcome(id).termination,
            outcomes[session as usize].termination
        );
        match stored_script(&store.load(id).expect("loads")) {
            Err(ReplayError::Evicted { have: 0, want }) => {
                assert_eq!(want, outcomes[session as usize].trace.events().len() as u64);
            }
            other => panic!("expected Evicted, got {other:?}"),
        }
    }
    // And the emptied-out log still scans clean: no torn state.
    let err_free: Result<Vec<_>, StoreError> = store.events(0).collect();
    assert_eq!(err_free.unwrap(), Vec::new());
}

// ---------------------------------------------------------------------------
// The bounded-window index walk behind `TraceStore::open`
// ---------------------------------------------------------------------------

use mediator_store::format::{scan, PREAMBLE_LEN};
use mediator_store::{Backend, MemBackend, RunHeader, INDEX_WINDOW};
use std::sync::{Arc, Mutex};

/// A backend whose bytes and `read` calls the test can look at from
/// outside the store that owns it.
#[derive(Clone, Default)]
struct SharedLog {
    bytes: Arc<Mutex<Vec<u8>>>,
    reads: Arc<Mutex<Vec<(u64, usize)>>>,
}

impl SharedLog {
    fn holding(bytes: Vec<u8>) -> Self {
        SharedLog {
            bytes: Arc::new(Mutex::new(bytes)),
            reads: Arc::default(),
        }
    }
}

impl Backend for SharedLog {
    fn len(&self) -> u64 {
        self.bytes.lock().unwrap().len() as u64
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.bytes.lock().unwrap().extend_from_slice(bytes);
        Ok(())
    }
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        self.reads.lock().unwrap().push((offset, len));
        let bytes = self.bytes.lock().unwrap();
        bytes
            .get(offset as usize..offset as usize + len)
            .map(<[u8]>::to_vec)
            .ok_or(StoreError::Truncated)
    }
    fn rewrite(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        *self.bytes.lock().unwrap() = bytes.to_vec();
        Ok(())
    }
}

/// A header whose `meta` pads the record to a chosen size, so runs can be
/// steered onto (and far across) window edges.
fn padded_header(session: u64, pad: usize) -> RunHeader {
    let mut header = RunHeader::bare(session, session);
    header.kind = Some(SchedulerKind::Random);
    header.meta = vec![("pad".into(), "x".repeat(pad))];
    header
}

fn open_error(bytes: Vec<u8>) -> Option<StoreError> {
    TraceStore::with_backend(Box::new(MemBackend::from_bytes(bytes))).err()
}

#[test]
fn a_log_many_windows_long_reopens_to_the_index_that_recorded_it() {
    // Runs of uneven size — one header alone is wider than two windows —
    // so window edges fall inside headers, chunks and outcomes alike.
    let log = SharedLog::default();
    let mut recorded = TraceStore::with_backend(Box::new(log.clone())).expect("fresh store");
    let mut session = 0u64;
    while (log.len() as usize) < 8 * INDEX_WINDOW {
        let pad = match session {
            40 => 2 * INDEX_WINDOW + 17,
            s => (s as usize * 37) % 900,
        };
        recorded
            .record(padded_header(session, pad), &run_gossip(9, session))
            .expect("record");
        session += 1;
    }
    let bytes = log.bytes.lock().unwrap().clone();

    let probe = SharedLog::holding(bytes.clone());
    let reopened = TraceStore::with_backend(Box::new(probe.clone())).expect("reopen");
    let walk = std::mem::take(&mut *probe.reads.lock().unwrap());

    // The walk never held more than a window, and it took many.
    assert!(walk.iter().all(|&(_, len)| len <= INDEX_WINDOW));
    assert!(walk.len() > 6);
    // Every window but the last ends inside a record (a record the walk
    // then re-read from its start): the edges were straddled, not dodged.
    let records = scan(&bytes).expect("pristine log scans");
    for &(offset, len) in &walk {
        let edge = offset + len as u64;
        if edge < bytes.len() as u64 {
            assert!(
                records
                    .iter()
                    .any(|r| r.offset < edge && edge < r.payload_offset + r.payload_len as u64),
                "window edge {edge} fell between records"
            );
        }
    }

    // Same index as the store that wrote the log, run for run.
    assert_eq!(reopened.len(), recorded.len());
    for id in reopened.ids() {
        assert_eq!(reopened.header(id), recorded.header(id));
        assert_eq!(reopened.outcome(id), recorded.outcome(id));
        assert_eq!(reopened.evicted(id), recorded.evicted(id));
        assert_eq!(
            reopened.load(id).expect("load"),
            recorded.load(id).expect("load")
        );
    }
}

/// A log a little over one window long whose last run starts just short
/// of the first window's edge, so every cut and flip below lands where
/// the walk has to cross windows.
fn edge_log() -> (Vec<u8>, usize) {
    let log = SharedLog::default();
    let mut store = TraceStore::with_backend(Box::new(log.clone())).expect("fresh store");
    let mut session = 0;
    while (log.len() as usize) < INDEX_WINDOW - 4096 {
        store
            .record(padded_header(session, 0), &run_gossip(6, session))
            .expect("record");
        session += 1;
    }
    let fill = INDEX_WINDOW - 200 - log.len() as usize;
    store
        .record(padded_header(session, fill), &run_gossip(2, session))
        .expect("filler");
    let last_run = log.len() as usize;
    assert!(last_run < INDEX_WINDOW && last_run > INDEX_WINDOW - 200);
    store
        .record(padded_header(session + 1, 0), &run_gossip(6, session + 1))
        .expect("last run");
    let bytes = log.bytes.lock().unwrap().clone();
    assert!(bytes.len() > INDEX_WINDOW);
    (bytes, last_run)
}

#[test]
fn truncating_the_last_run_at_every_byte_matches_scan() {
    let (bytes, last_run) = edge_log();
    assert_eq!(open_error(bytes[..last_run].to_vec()), None);
    for cut in last_run + 1..bytes.len() {
        // Where the frames still scan, the cut fell between records of
        // the open run: a torn tail at the end of the log.
        let expect = match scan(&bytes[..cut]) {
            Err(e) => e,
            Ok(_) => StoreError::TornTail { offset: cut as u64 },
        };
        assert_eq!(
            open_error(bytes[..cut].to_vec()),
            Some(expect),
            "cut at {cut}"
        );
    }
    assert_eq!(open_error(bytes), None);
}

#[test]
fn one_flipped_byte_per_record_matches_scan() {
    let (bytes, _) = edge_log();
    let records = scan(&bytes).expect("pristine log scans");
    assert!(records.len() > 30);
    for (i, rec) in records.iter().enumerate() {
        // Walk the flip through the record: length, CRC, kind, payload.
        let span = (rec.payload_offset - rec.offset) as usize + rec.payload_len;
        let at = rec.offset as usize + (i * 5) % span;
        let mut damaged = bytes.clone();
        damaged[at] ^= 0x10;
        let expect = scan(&damaged).expect_err("a flipped byte never scans");
        assert_eq!(open_error(damaged), Some(expect), "record {i}, byte {at}");
    }
    // And in the preamble, where there is no record to blame.
    for at in 0..PREAMBLE_LEN as usize {
        let mut damaged = bytes.clone();
        damaged[at] ^= 0x10;
        let expect = scan(&damaged).expect_err("a damaged preamble never scans");
        assert_eq!(open_error(damaged), Some(expect), "preamble byte {at}");
    }
}

#[test]
fn a_framing_error_outranks_an_earlier_grammar_error() {
    use mediator_store::format::{put_preamble, put_record, RecordKind};
    // An events chunk with no header open is a grammar error at the first
    // record — unless the log is also torn further on: scanning the whole
    // log first always reported the tear, and the one-pass walk still does.
    let mut log = Vec::new();
    put_preamble(&mut log);
    put_record(&mut log, RecordKind::EventsChunk, &[0]);
    assert_eq!(
        open_error(log.clone()),
        Some(StoreError::UnexpectedRecord {
            offset: PREAMBLE_LEN,
            kind: 1
        })
    );
    let tear_at = log.len() as u64;
    put_record(&mut log, RecordKind::Outcome, b"cut short by a crash");
    log.truncate(log.len() - 3);
    assert_eq!(
        open_error(log),
        Some(StoreError::TornTail { offset: tear_at })
    );
}

// ---------------------------------------------------------------------------
// The recorded bytes of one fixed run
// ---------------------------------------------------------------------------

/// A backend that keeps what each append wrote, so a test can hash the
/// exact bytes one `record` call produced.
struct Appends(std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>);

impl mediator_store::Backend for Appends {
    fn len(&self) -> u64 {
        self.0.lock().unwrap().iter().map(|a| a.len() as u64).sum()
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.0.lock().unwrap().push(bytes.to_vec());
        Ok(())
    }
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        let log = self.0.lock().unwrap().concat();
        let start = offset as usize;
        log.get(start..start + len)
            .map(<[u8]>::to_vec)
            .ok_or(StoreError::Truncated)
    }
    fn rewrite(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        *self.0.lock().unwrap() = vec![bytes.to_vec()];
        Ok(())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn one_recorded_theorem_4_1_run_is_byte_pinned() {
    use mediator_core::scenario::Scenario;
    use mediator_field::Fp;
    // One all-honest Theorem 4.1 run at n = 5: 1 542 events, so the body
    // spans two 1 024-event chunks. The hash covers the header, every
    // events chunk and the outcome exactly as `record` appends them, so a
    // change to the trace encoding, the chunking or the framing moves it.
    // The value was taken when chunks were still encoded event by event
    // from `TraceEvent`s: `.mtrc` files stay byte-identical.
    let n = 5;
    let outcome = Scenario::cheap_talk(mediator_circuits::catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n = 5 > 4k")
        .run_with(&SchedulerKind::Random, 7);
    let appends = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut store =
        TraceStore::with_backend(Box::new(Appends(appends.clone()))).expect("empty log opens");
    let mut header = mediator_store::RunHeader::bare(3, 7);
    header.kind = Some(SchedulerKind::Random);
    store.record(header, &outcome).expect("record");
    let appends = appends.lock().unwrap();
    let run = appends.last().expect("record appends once");
    assert_eq!(outcome.trace.events().len(), 1542);
    assert_eq!((run.len(), fnv1a(run)), (6_241, 0x39a8_c1cf_2b10_30e4));
}
