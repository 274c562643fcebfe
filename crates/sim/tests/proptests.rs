//! Property-based tests for the simulator: determinism, conservation laws,
//! and trace well-formedness under arbitrary seeds and scheduler choices.

use mediator_sim::bytes::Reader;
use mediator_sim::trace::read_event;
use mediator_sim::{
    Ctx, FifoScheduler, LifoScheduler, Process, ProcessId, RandomScheduler, Scheduler, Trace,
    TraceEvent, TraceMode, World,
};
use proptest::prelude::*;

/// A parameterized gossip protocol: each process forwards a counter to a
/// pseudo-random peer until it hits zero.
struct Gossip {
    n: usize,
    hops: u32,
}

impl Process<u32> for Gossip {
    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        if ctx.me() == 0 {
            let peer = 1 % self.n;
            ctx.send(peer, self.hops);
        }
    }
    fn on_message(&mut self, _src: ProcessId, hops: u32, ctx: &mut Ctx<u32>) {
        if hops == 0 {
            ctx.make_move(u64::from(hops));
            ctx.halt();
        } else {
            let peer = (ctx.me() + hops as usize) % self.n;
            ctx.send(peer, hops - 1);
        }
    }
}

/// A value anywhere in `u64`: `x` shifted right by its own low six bits,
/// so one-byte, mid-size and full-width values (and `u64::MAX` itself)
/// all turn up.
fn spread(x: u64) -> u64 {
    if x & 63 == 63 {
        u64::MAX
    } else {
        x >> (x & 63)
    }
}

/// Four random words as one event of any kind, ids spanning `usize`.
fn event_from(w: &[u64]) -> TraceEvent {
    let (src, dst, k) = (spread(w[1]) as usize, spread(w[2]) as usize, spread(w[3]));
    match w[0] % 4 {
        0 => TraceEvent::Started { p: src },
        1 => TraceEvent::Sent { src, dst, k },
        2 => TraceEvent::Delivered { src, dst, k },
        _ => TraceEvent::Dropped { src, dst, k },
    }
}

fn gossip_world(n: usize, hops: u32, seed: u64) -> World<u32> {
    let procs: Vec<Box<dyn Process<u32>>> = (0..n)
        .map(|_| Box::new(Gossip { n, hops }) as Box<dyn Process<u32>>)
        .collect();
    World::new(procs, seed)
}

proptest! {
    /// Same seed + same scheduler = identical trace (full determinism).
    #[test]
    fn runs_are_reproducible(n in 2usize..6, hops in 0u32..20, seed in any::<u64>()) {
        let mut w1 = gossip_world(n, hops, seed);
        let mut w2 = gossip_world(n, hops, seed);
        let o1 = w1.run(&mut RandomScheduler::new(), 100_000);
        let o2 = w2.run(&mut RandomScheduler::new(), 100_000);
        prop_assert_eq!(o1.trace.events(), o2.trace.events());
        prop_assert_eq!(o1.moves, o2.moves);
        prop_assert_eq!(o1.steps, o2.steps);
    }

    /// Messages delivered never exceed messages sent, and with non-dropping
    /// schedulers the run ends with everything delivered or discarded at a
    /// halted process.
    #[test]
    fn message_conservation(n in 2usize..6, hops in 0u32..20, seed in any::<u64>()) {
        let mut w = gossip_world(n, hops, seed);
        let out = w.run(&mut RandomScheduler::new(), 100_000);
        prop_assert!(out.messages_delivered <= out.messages_sent);
        prop_assert_eq!(out.trace.sent_count(), out.messages_sent);
        prop_assert_eq!(out.trace.delivered_count(), out.messages_delivered);
    }

    /// Per-pair sequence numbers in the trace are consecutive from 1.
    #[test]
    fn per_pair_sequence_numbers_are_consecutive(n in 2usize..5, hops in 1u32..15, seed in any::<u64>()) {
        let mut w = gossip_world(n, hops, seed);
        let out = w.run(&mut FifoScheduler, 100_000);
        let mut counters = std::collections::BTreeMap::new();
        for e in out.trace.events().iter() {
            if let TraceEvent::Sent { src, dst, k } = e {
                let c = counters.entry((src, dst)).or_insert(0u64);
                *c += 1;
                prop_assert_eq!(k, *c, "non-consecutive k for {:?}", (src, dst));
            }
        }
    }

    /// The same protocol terminates under every built-in scheduler.
    #[test]
    fn termination_is_scheduler_independent(n in 2usize..5, hops in 0u32..15, seed in any::<u64>()) {
        for mk in [
            || Box::new(RandomScheduler::new()) as Box<dyn Scheduler>,
            || Box::new(FifoScheduler) as Box<dyn Scheduler>,
            || Box::new(LifoScheduler) as Box<dyn Scheduler>,
        ] {
            let mut w = gossip_world(n, hops, seed);
            let out = w.run(mk().as_mut(), 100_000);
            // The chain has hops+1 messages: someone eventually moves.
            prop_assert!(out.moves.iter().any(|m| m.is_some()));
        }
    }

    /// Any event sequence reads back identical through `events()`: the
    /// byte encoding is lossless for every id and counter, and the view's
    /// length is the counters' sum. Byte chunks cut on event boundaries.
    /// `Off` keeps nothing and counts exactly.
    #[test]
    fn traces_read_back_every_event(
        words in proptest::collection::vec(any::<u64>(), 0..400),
        per in 1usize..40,
    ) {
        let events: Vec<TraceEvent> = words.chunks_exact(4).map(event_from).collect();
        let mut full = Trace::new();
        let mut off = Trace::with_mode(TraceMode::Off);
        for &e in &events {
            full.push(e);
            off.push(e);
        }
        prop_assert_eq!(events.clone(), full.events());
        prop_assert_eq!(full.events().iter().len(), events.len());
        let mut rechunked = Vec::new();
        for (count, bytes) in full.events().byte_chunks(per) {
            prop_assert!(count <= per);
            let mut r = Reader::new(bytes);
            rechunked.extend((0..count).map(|_| read_event(&mut r).unwrap()));
            prop_assert_eq!(r.remaining(), 0);
        }
        prop_assert_eq!(rechunked, events.clone());
        let counted = |t: &Trace| {
            t.started_count() + t.sent_count() + t.delivered_count() + t.dropped_count()
        };
        prop_assert_eq!(full.events().len() as u64, counted(&full));
        prop_assert_eq!(full.wrapped(), 0);
        let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
        prop_assert_eq!(off.started_count(), count(|e| matches!(e, TraceEvent::Started { .. })));
        prop_assert_eq!(off.sent_count(), count(|e| matches!(e, TraceEvent::Sent { .. })));
        prop_assert_eq!(off.delivered_count(), count(|e| matches!(e, TraceEvent::Delivered { .. })));
        prop_assert_eq!(off.dropped_count(), count(|e| matches!(e, TraceEvent::Dropped { .. })));
        prop_assert!(off.events().is_empty());
        prop_assert!(off.events().as_bytes().is_empty());
        prop_assert_eq!(off.wrapped(), events.len() as u64);
    }
}
