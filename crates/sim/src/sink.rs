//! The recording seam: where completed runs hand their traces to a store.
//!
//! The simulator produces an [`Outcome`] (with the full message pattern in
//! [`Outcome::trace`]) and forgets it; anything durable — a trace store, a
//! metrics pipeline — attaches *behind* this trait so neither the `World`
//! nor the networked service runtime needs to know what persistence looks
//! like. The `mediator-net` drivers call [`TraceSink::record`] exactly once
//! per completed session, and `mediator-store` implements the trait over
//! its append-only trace log.

use crate::scheduler::SchedulerKind;
use crate::world::Outcome;

/// What the driver knew about a completed run: the routing id it hosted the
/// session under, and — when the session came from a plan — the scheduler
/// kind and seed of the cell, which is exactly what deterministic replay
/// needs to re-open the same world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The session's routing identifier.
    pub session: u64,
    /// Scheduler kind of the run, when the driver knows it (plan-hosted
    /// sessions do; hand-opened sessions may not).
    pub kind: Option<SchedulerKind>,
    /// Seed of the run, when the driver knows it.
    pub seed: Option<u64>,
}

impl RunMeta {
    /// Meta for a bare session: routing id only.
    pub fn bare(session: u64) -> Self {
        RunMeta {
            session,
            kind: None,
            seed: None,
        }
    }

    /// Meta for a plan-hosted `(kind, seed)` cell.
    pub fn cell(session: u64, kind: SchedulerKind, seed: u64) -> Self {
        RunMeta {
            session,
            kind: Some(kind),
            seed: Some(seed),
        }
    }
}

/// A recorder of completed runs. Implementations must tolerate concurrent
/// calls (sharded sweep workers record witness runs from their own
/// threads) and should not panic: recording is an observer, and a failing
/// sink must not take the run down with it.
pub trait TraceSink: Send + Sync {
    /// Records one completed run.
    fn record(&self, meta: &RunMeta, outcome: &Outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Ctx, Process};
    use crate::scheduler::FifoScheduler;
    use crate::world::World;
    use std::sync::Mutex;

    struct Mover;
    impl Process<u64> for Mover {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            ctx.make_move(1);
            ctx.halt();
        }
        fn on_message(&mut self, _src: usize, _msg: u64, _ctx: &mut Ctx<u64>) {}
    }

    struct Collecting(Mutex<Vec<(RunMeta, u64)>>);
    impl TraceSink for Collecting {
        fn record(&self, meta: &RunMeta, outcome: &Outcome) {
            self.0
                .lock()
                .unwrap()
                .push((meta.clone(), outcome.trace.events().len() as u64));
        }
    }

    #[test]
    fn sink_receives_meta_and_outcome() {
        let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(Mover)];
        let outcome = World::new(procs, 0).run(&mut FifoScheduler, 100);
        let sink = Collecting(Mutex::new(Vec::new()));
        sink.record(&RunMeta::cell(7, SchedulerKind::Fifo, 3), &outcome);
        sink.record(&RunMeta::bare(8), &outcome);
        let got = sink.0.lock().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.session, 7);
        assert_eq!(got[0].0.kind, Some(SchedulerKind::Fifo));
        assert_eq!(got[0].0.seed, Some(3));
        assert_eq!(got[1].0, RunMeta::bare(8));
        assert!(got[0].1 > 0, "the outcome carries its trace");
    }
}
