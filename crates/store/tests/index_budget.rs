//! Index memory budget of a file-backed store: what a recorded run keeps
//! in RAM once its append is on disk.
//!
//! The index holds one fixed-size entry per run — session, seed, the log
//! offsets of its header and outcome records, its recorded and retained
//! event counts — and reads headers and outcomes back from the log when
//! asked. A store that kept each run's decoded header, outcome and chunk
//! list instead held about 600 bytes per run.
//!
//! Live heap bytes are counted by a global allocator whose counter is
//! thread-local, so only this test's thread is measured. This file holds
//! one test, so its binary has no other test allocating alongside.

use mediator_circuits::catalog::majority_circuit;
use mediator_core::scenario::Scenario;
use mediator_field::Fp;
use mediator_sim::SchedulerKind;
use mediator_store::{PlanKind, RunHeader, TraceStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` whose access does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap bytes `f` leaves live on this thread, per `runs`, and its
/// result.
fn bytes_per_run<R>(runs: usize, f: impl FnOnce() -> R) -> (f64, R) {
    let before = LIVE.with(Cell::get);
    let result = f();
    let grown = LIVE.with(Cell::get) - before;
    (grown as f64 / runs as f64, result)
}

const RUNS: usize = 1_000;

/// The most heap a recorded run may keep: a 48-byte entry, plus what
/// `Vec` doubling leaves spare.
const BUDGET: f64 = 64.0;

#[test]
fn a_recorded_run_costs_the_index_one_fixed_size_entry() {
    // Four outcomes of the n = 5 Theorem 4.1 majority plan, recorded in
    // turn under a thousand sessions, the way a service's sink records
    // its hosted sessions.
    let n = 5;
    let plan = Scenario::cheap_talk(majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n = 5 > 4k");
    let outcomes: Vec<_> = (0..4)
        .map(|seed| plan.run_with(&SchedulerKind::Random, seed))
        .collect();
    let header = |session: usize| {
        let seed = (session % outcomes.len()) as u64;
        let mut h = RunHeader::bare(session as u64 + 1, seed);
        h.kind = Some(SchedulerKind::Random);
        h.plan = PlanKind::CheapTalk;
        (h.n, h.k) = (n as u64, 1);
        h
    };

    let dir = std::env::temp_dir().join(format!("mediator-index-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("budget.mtrc");
    let mut store = TraceStore::create(&path).expect("create");
    let (recorded, ()) = bytes_per_run(RUNS, || {
        for session in 0..RUNS {
            let seed = session % outcomes.len();
            store
                .record(header(session), &outcomes[seed])
                .expect("record");
        }
    });
    println!("index: {recorded:.1} bytes per run after record ({RUNS} runs)");
    drop(store);

    let (reopened, store) = bytes_per_run(RUNS, || TraceStore::open(&path).expect("reopen"));
    println!("index: {reopened:.1} bytes per run after open ({RUNS} runs)");

    // What the index no longer holds, the log still answers.
    assert_eq!(store.len(), RUNS);
    for session in [0, RUNS / 2, RUNS - 1] {
        let id = store.find(session as u64 + 1, (session % 4) as u64);
        assert_eq!(id, Some(session));
        assert_eq!(store.header(session), Ok(header(session)));
        let outcome = &outcomes[session % 4];
        let stored = store.load(session).expect("load");
        assert_eq!(stored.outcome.moves, outcome.moves);
        assert_eq!(stored.events, outcome.trace.events());
    }
    drop(store);
    std::fs::remove_file(&path).unwrap();

    for (phase, per_run) in [("record", recorded), ("open", reopened)] {
        assert!(
            per_run <= BUDGET,
            "{phase}: {per_run:.1} heap bytes per run, budget {BUDGET}"
        );
    }
}
