//! Memory budget of hosted sessions: sixteen concurrent n = 5 Theorem 4.1
//! majority sessions on one reactor over `MemTransport`, relayed by
//! `bulk_relay` over one connection (the benchmark's `svc_many_mem` unit).
//!
//! A hosted session should cost its protocol state, not its bursts: each
//! agreement instance keeps its rounds in one small table, a session's
//! inbound frames wait in one delivery buffer, the outbox drain reuses
//! the world's buffer, and the reactor reads every connection through
//! one 64 KiB buffer and writes a connection's out-buffer at half that.
//!
//! Counted by a global allocator with atomic counters: `alloc`,
//! `alloc_zeroed` and `realloc` each count as one trip through the
//! allocator, on every thread — the reactor, the relay and the caller.
//! The heap is counted by the thread that allocated it (each block
//! carries a tag in front, so a block freed on another thread is still
//! taken off the right count). The budgeted peak is the most heap the
//! reactor thread holds at once outside byte buffers: sessions, worlds,
//! protocol state, delivery buffers and routing. Byte buffers (read and
//! write buffers, the in-memory pipes, the relay's) are left out because
//! their size follows how far the relay thread lags the reactor, which
//! the host's scheduler decides; the all-thread peak is printed beside
//! it. A first batch warms the service up; the peaks restart at the
//! second, which is measured. This file holds one test, so its binary has
//! no other test allocating alongside.
//!
//! Each budget is the figure measured when it was set plus at most 5%. A
//! change that lowers the figures should lower the budgets with it.

use mediator_circuits::catalog::majority_circuit;
use mediator_core::scenario::Scenario;
use mediator_field::Fp;
use mediator_net::{bulk_relay, MemTransport, Service};
use mediator_sim::{SchedulerKind, TerminationKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::thread;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Live heap: all threads, and the reactor thread's outside byte buffers.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static REACTOR_LIVE: AtomicI64 = AtomicI64::new(0);
static REACTOR_PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Cleared on the test's own threads; so set only on the reactor.
    static REACTOR: Cell<bool> = const { Cell::new(true) };
}

/// The tag in front of each block: whether it counts as the reactor's.
/// At least 16 bytes, and the block's alignment, so the block stays
/// aligned.
fn tagged(layout: Layout, size: usize) -> (Layout, usize) {
    let pad = layout.align().max(16);
    let outer = Layout::from_size_align(size + pad, pad).expect("layout");
    (outer, pad)
}

fn count(reactor: bool, bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if reactor {
        let live = REACTOR_LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        REACTOR_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: each block is `System`'s, `pad` bytes longer in front; the
// tag lives in those bytes, and the caller's pointer is `pad` past the
// block's start, which keeps the caller's alignment. The counters are
// atomics and the thread-local a `Cell`, and none of them allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // `try_with`: the allocator also runs while thread-locals are
        // torn down.
        let reactor = layout.align() > 1 && REACTOR.try_with(Cell::get).unwrap_or(false);
        let (outer, pad) = tagged(layout, layout.size());
        let block = unsafe { System.alloc(outer) };
        if block.is_null() {
            return block;
        }
        unsafe { block.cast::<bool>().write(reactor) };
        count(reactor, layout.size() as i64);
        unsafe { block.add(pad) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let (outer, pad) = tagged(layout, layout.size());
        let block = unsafe { System.realloc(ptr.sub(pad), outer, new_size + pad) };
        if block.is_null() {
            return block;
        }
        let reactor = unsafe { block.cast::<bool>().read() };
        count(reactor, new_size as i64 - layout.size() as i64);
        unsafe { block.add(pad) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let (outer, pad) = tagged(layout, layout.size());
        let block = unsafe { ptr.sub(pad) };
        count(
            unsafe { block.cast::<bool>().read() },
            -(layout.size() as i64),
        );
        unsafe { System.dealloc(block, outer) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SESSIONS: u64 = 16;

/// The most allocations one hosted session may make (all threads). When
/// set, a session made 530–531; with a read buffer filled a whole burst
/// at a time, a per-session event queue and a `Vec` per outbox drain it
/// had made 686.
const ALLOCATIONS_BUDGET: u64 = 558;

/// The most heap the reactor thread may hold at once outside byte
/// buffers, in bytes: the service's tables and sixteen sessions in
/// flight. When set, the peak was 1.05–1.073 MB with the host idle and
/// with six busy loops on its two cores; with every agreement round in
/// a `BTreeMap` leaf and a per-session event queue it was 1.81 MB.
const REACTOR_PEAK_BUDGET: i64 = 1_126_000;

#[test]
fn a_hosted_session_costs_its_protocol_state_not_its_bursts() {
    REACTOR.with(|r| r.set(false));
    let base = LIVE.load(Ordering::Relaxed);
    let n = 5;
    let plan = Scenario::cheap_talk(majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n > 4k");
    let hub = MemTransport::new();
    let service = Service::start(Box::new(hub.listener()));
    let mut measured = (0, 0, 0);
    for batch in 0..2 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        REACTOR_PEAK.store(REACTOR_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        let sids = 1 + batch * SESSIONS..1 + (batch + 1) * SESSIONS;
        let handles: Vec<_> = sids
            .clone()
            .map(|sid| service.host_plan(sid, &plan, SchedulerKind::Random, sid))
            .collect();
        let attaches: Vec<(u64, usize)> =
            sids.flat_map(|sid| (0..n).map(move |p| (sid, p))).collect();
        let (tx, rx) = hub.connect_raw();
        let relay = thread::spawn(move || {
            REACTOR.with(|r| r.set(false));
            bulk_relay(rx, tx, &attaches, SESSIONS as usize)
        });
        for handle in handles {
            let out = handle.outcome().expect("hosted session");
            assert_eq!(out.termination, TerminationKind::Quiescent);
            assert_eq!(out.moves, vec![Some(1); n]);
        }
        let summaries = relay.join().expect("relay thread").expect("relay");
        assert_eq!(summaries.len(), SESSIONS as usize);
        measured = (
            (ALLOCATIONS.load(Ordering::Relaxed) - before) / SESSIONS,
            REACTOR_PEAK.load(Ordering::Relaxed),
            PEAK.load(Ordering::Relaxed) - base,
        );
    }
    service.shutdown();
    let (allocations, reactor_peak, peak) = measured;
    let mb = |bytes: i64| bytes as f64 / 1e6;
    println!("allocations per hosted session: {allocations} (budget {ALLOCATIONS_BUDGET})");
    println!(
        "peak live heap on the reactor thread outside byte buffers, {SESSIONS} hosted sessions: \
         {:.3} MB (budget {:.3} MB)",
        mb(reactor_peak),
        mb(REACTOR_PEAK_BUDGET)
    );
    println!(
        "peak live heap, all threads, with the plan and the service: {:.3} MB (not budgeted: \
         byte buffers follow relay lag)",
        mb(peak)
    );
    assert!(
        allocations <= ALLOCATIONS_BUDGET,
        "{allocations} allocations per session"
    );
    assert!(
        reactor_peak <= REACTOR_PEAK_BUDGET,
        "reactor peak live heap {reactor_peak} bytes"
    );
}
