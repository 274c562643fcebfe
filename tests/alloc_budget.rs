//! Allocation ratchet for the in-process run: heap allocations per
//! `plan.run_with` on the benchmark's two plans (Theorem 4.1 majority,
//! all-ones inputs, `SchedulerKind::Random`).
//!
//! A run should allocate per protocol instance — a dealing, an echo
//! matrix, an opening's reconstruction — not per delivered message: every
//! sans-IO machine appends to an outbox its caller reuses, and a dealing or
//! echo matrix is one buffer its messages view. Counted here with a
//! counting global allocator whose counter is thread-local, so only this
//! test's thread is measured; `alloc`, `alloc_zeroed` and `realloc` each
//! count as one trip through the allocator. This file holds one test, so
//! its binary has no other test allocating alongside.
//!
//! Each budget is the count measured when it was set plus at most 5%. A change
//! that lowers the counts should lower the budgets with it.

use mediator_talk::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` whose access does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn a_run_allocates_per_protocol_instance_not_per_message() {
    // (n, k, most allocations one run may make). When the budgets were set
    // a run made at most 406 (n = 5, 775 messages) and 2 140 (n = 13,
    // 13 351 messages); at about one allocation per message it had made
    // 1 450 and 13 780.
    for (n, k, budget) in [(5, 1, 426), (13, 3, 2_247)] {
        let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(k, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("n > 4k");
        for seed in 0..4 {
            let (count, out) = allocations(|| plan.run_with(&SchedulerKind::Random, seed));
            assert_eq!(
                out.termination,
                TerminationKind::Quiescent,
                "n = {n}, seed {seed}"
            );
            assert_eq!(out.moves, vec![Some(1); n], "n = {n}, seed {seed}");
            println!("n = {n}, seed {seed}: {count} allocations");
            assert!(
                count <= budget,
                "n = {n}, seed {seed}: {count} allocations, budget {budget}"
            );
        }
    }
}
