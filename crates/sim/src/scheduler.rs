//! Environment strategies (schedulers).
//!
//! A scheduler picks, at every step, which pending event to dispatch next.
//! It sees only environment-visible metadata ([`PendingView`]) — never
//! message contents — mirroring the paper's assumption that the environment
//! cannot read messages (§6.1). Ordinary schedulers must eventually deliver
//! everything, and fairness is each scheduler's own job: Random is fair with
//! probability 1, Fifo is oldest-first, Partition turns Random after a
//! finite heal, and the two that could starve an event forever — Lifo and
//! TargetedDelay — first deliver the lowest plane index whose age exceeds
//! `FAIRNESS_BOUND`, the model's bounded-delay assumption. The
//! [`World`](crate::World) has no backstop of its own. Relaxed schedulers
//! (allowed only in mediator games, §5) may instead [`SchedChoice::Drop`]
//! events, subject to the all-or-none batch rule, which the `World`
//! enforces by dropping whole batches.
//!
//! Performance note: every field of a [`PendingView`] is fixed at the
//! moment the event is queued, so the `World` maintains the view array
//! *incrementally* (push on send, `swap_remove` on dispatch) instead of
//! rebuilding it each step. An event's age is therefore derived — the view
//! stores its birth step and [`Scheduler::next`] receives the current step
//! counter (`now`); call [`PendingView::age`] to recover it.

use crate::process::ProcessId;
use crate::trace::TraceEvent;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The model's bounded-delay assumption, in steps: an event pending for more
/// than this long is delivered next by the schedulers that could otherwise
/// starve it (Lifo, TargetedDelay). LIFO would spin agreement rounds on fresh
/// traffic forever; the bound turns that livelock into a near-linear run
/// without forbidding any finite reordering.
pub(crate) const FAIRNESS_BOUND: u64 = 2_000;

/// Environment-visible metadata of one pending event. All fields are
/// immutable for the lifetime of the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingView {
    /// `None` for a start signal, `Some(src)` for a message.
    pub src: Option<ProcessId>,
    /// Destination process.
    pub dst: ProcessId,
    /// Per-(src,dst) sequence number (the `k` of the message pattern).
    pub k: u64,
    /// Global send sequence (FIFO order key).
    pub seq: u64,
    /// Batch id: events emitted in the same activation share it.
    pub batch: u64,
    /// Step at which the event entered the pending set (0 for start
    /// signals: the game "begins" before the first step).
    pub born: u64,
}

impl PendingView {
    /// Steps this event has been pending as of step `now`.
    pub fn age(&self, now: u64) -> u64 {
        now.saturating_sub(self.born)
    }
}

/// A scheduler's decision for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedChoice {
    /// Dispatch the pending event at this index.
    Deliver(usize),
    /// Drop the pending event at this index (and its whole batch).
    /// Only honored by worlds running with relaxed semantics.
    Drop(usize),
}

/// An environment strategy: selects the next pending event.
///
/// Implementations must return an index `< pending.len()`; `pending` is
/// never empty when `next` is called. `now` is the world's step counter
/// (so age-sensitive policies can compute [`PendingView::age`]).
pub trait Scheduler {
    /// Chooses the next event to dispatch or drop.
    fn next(&mut self, pending: &[PendingView], now: u64, rng: &mut StdRng) -> SchedChoice;

    /// A human-readable name for reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }
}

/// Convenient tagged family of the built-in schedulers, so experiment
/// batteries can be described by data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Uniformly random among pending events (fair almost surely).
    Random,
    /// Oldest send first.
    Fifo,
    /// Newest send first (maximally reordering), except that an event older
    /// than the fairness bound goes first.
    Lifo,
    /// Starves messages to/from the given victims while anything else is
    /// pending, except that an event older than the fairness bound goes
    /// first.
    TargetedDelay(Vec<ProcessId>),
    /// Partitions the processes into two groups and withholds all
    /// cross-partition traffic for the given number of steps, then heals
    /// (eventual delivery preserved).
    Partition {
        /// One side of the partition (the rest is the other side).
        group: Vec<ProcessId>,
        /// Steps before the partition heals.
        heal_after: u64,
    },
    /// Forces the dispatch order of a previously recorded run (see
    /// [`ReplayScheduler`]). Built from a stored trace; never part of
    /// [`SchedulerKind::battery`].
    Replay(ReplayScript),
}

impl SchedulerKind {
    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Random => Box::new(RandomScheduler::new()),
            SchedulerKind::Fifo => Box::new(FifoScheduler),
            SchedulerKind::Lifo => Box::new(LifoScheduler),
            SchedulerKind::TargetedDelay(v) => Box::new(TargetedDelayScheduler::new(v.clone())),
            SchedulerKind::Partition { group, heal_after } => {
                Box::new(PartitionScheduler::new(group.clone(), *heal_after))
            }
            SchedulerKind::Replay(script) => Box::new(ReplayScheduler::new(script.clone())),
        }
    }

    /// A small battery of schedulers covering the qualitatively different
    /// environment behaviours, used by implementation-checking experiments.
    pub fn battery(n: usize) -> Vec<SchedulerKind> {
        let mut v = vec![
            SchedulerKind::Random,
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
        ];
        for p in 0..n.min(3) {
            v.push(SchedulerKind::TargetedDelay(vec![p]));
        }
        if n >= 2 {
            v.push(SchedulerKind::Partition {
                group: (0..n / 2).collect(),
                heal_after: 200,
            });
        }
        v
    }
}

/// The recorded message pattern a [`ReplayScheduler`] re-enacts: the full
/// [`TraceEvent`] stream of a completed run, shared cheaply (batteries open
/// many sessions from one recording).
#[derive(Clone, PartialEq, Eq)]
pub struct ReplayScript {
    events: Arc<Vec<TraceEvent>>,
}

impl ReplayScript {
    /// Wraps a recorded event stream.
    pub fn new(events: Vec<TraceEvent>) -> Self {
        ReplayScript {
            events: Arc::new(events),
        }
    }

    /// The recorded events, in dispatch order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` for an empty recording.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether the recording contains relaxed-scheduler drops (a replaying
    /// world must then run with drops allowed).
    pub fn has_drops(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TraceEvent::Dropped { .. }))
    }
}

impl fmt::Debug for ReplayScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Scripts run to millions of events; printing them would swamp any
        // assertion diff that mentions a SchedulerKind.
        write!(f, "ReplayScript({} events)", self.events.len())
    }
}

/// Forces the dispatch order of a recorded run (deterministic replay).
///
/// The scheduler walks the script and, at each step, picks the pending view
/// the next recorded event names: a `Started { p }` entry delivers `p`'s
/// start signal, a `Delivered` entry the matching `(src, dst, k)` message,
/// and a `Dropped` entry issues the matching [`SchedChoice::Drop`] (skipping
/// the whole batch's worth of recorded drop events, since the world extends
/// the drop to the batch). `Sent` entries are activation side effects — the
/// world re-emits them on its own — and are skipped.
///
/// One recorded shape needs care: a message dispatched to a *not-yet-started*
/// process makes the original world run `on_start` and `on_message` in a
/// single step — the script shows `Started { p }`, the `on_start` sends, and
/// then the delivery — leaving the stale start signal to be consumed by a
/// later, trace-silent step. The scheduler detects this shape by lookahead
/// and re-enacts the *combined* step (dispatching the message, which starts
/// `p` on the way), so the pending plane keeps the exact `swap_remove`
/// layout of the recording; that layout is observable through the emission
/// order of relaxed batch drops. The stale start signal is then consumed at
/// script exhaustion or purged when `p` halts, exactly as in the original.
///
/// On script exhaustion or a pick the plane cannot satisfy (a diverged
/// replay), the scheduler falls back to delivering the front of the plane:
/// the `Scheduler` trait is infallible, and divergence is surfaced by the
/// trace comparison the replay harness performs afterwards.
#[derive(Debug, Clone)]
pub struct ReplayScheduler {
    script: ReplayScript,
    cursor: usize,
}

impl ReplayScheduler {
    /// Creates a scheduler re-enacting `script` from the beginning.
    pub fn new(script: ReplayScript) -> Self {
        ReplayScheduler { script, cursor: 0 }
    }

    /// Script position: recorded events consumed so far.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

impl Scheduler for ReplayScheduler {
    fn next(&mut self, pending: &[PendingView], _now: u64, _rng: &mut StdRng) -> SchedChoice {
        loop {
            let Some(ev) = self.script.events().get(self.cursor).copied() else {
                // Exhausted: consume leftovers (stale start signals) in
                // plane order.
                return SchedChoice::Deliver(0);
            };
            match ev {
                TraceEvent::Sent { .. } => {
                    // Activation side effect, re-emitted by the world.
                    self.cursor += 1;
                }
                TraceEvent::Started { p } => {
                    // Lookahead: when the recording dispatched a message to a
                    // not-yet-started process, the world emitted `Started` +
                    // the `on_start` sends + `Delivered` in ONE combined step,
                    // leaving the stale start signal in the plane. Replaying
                    // that as an explicit start pick would remove the start
                    // view at the wrong moment and permute the plane relative
                    // to the recording (`swap_remove` layout), which the
                    // emission order of later batch drops exposes. Whenever
                    // the script shape allows the combined reading — the next
                    // non-`Sent` entry delivers to `p` and that message is
                    // pending — prefer it: the re-enacted step emits the same
                    // events and keeps the plane in lockstep.
                    let mut ahead = self.cursor + 1;
                    while matches!(
                        self.script.events().get(ahead),
                        Some(TraceEvent::Sent { .. })
                    ) {
                        ahead += 1;
                    }
                    if let Some(TraceEvent::Delivered { src, dst, k }) =
                        self.script.events().get(ahead).copied()
                    {
                        if dst == p {
                            if let Some(i) = pending
                                .iter()
                                .position(|v| v.src == Some(src) && v.dst == dst && v.k == k)
                            {
                                self.cursor = ahead + 1;
                                return SchedChoice::Deliver(i);
                            }
                        }
                    }
                    self.cursor += 1;
                    let pick = pending.iter().position(|v| v.src.is_none() && v.dst == p);
                    return SchedChoice::Deliver(pick.unwrap_or(0));
                }
                TraceEvent::Delivered { src, dst, k } => {
                    self.cursor += 1;
                    let pick = pending
                        .iter()
                        .position(|v| v.src == Some(src) && v.dst == dst && v.k == k);
                    return SchedChoice::Deliver(pick.unwrap_or(0));
                }
                TraceEvent::Dropped { src, dst, k } => {
                    let pick = pending
                        .iter()
                        .position(|v| v.src == Some(src) && v.dst == dst && v.k == k);
                    match pick {
                        Some(i) => {
                            // The world drops the whole batch and records
                            // one Dropped event per member, in plane order —
                            // exactly the events we skip here.
                            let b = pending[i].batch;
                            let members = pending
                                .iter()
                                .filter(|v| v.src.is_some() && v.batch == b)
                                .count();
                            self.cursor += members;
                            return SchedChoice::Drop(i);
                        }
                        None => {
                            self.cursor += 1;
                            return SchedChoice::Deliver(0);
                        }
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// Withholds cross-partition messages until the partition heals at step
/// `heal_after` of the world's clock, then behaves like the random
/// scheduler. Models the classic "split then merge" network incident while
/// remaining a legal (eventually-fair) environment.
#[derive(Debug, Clone)]
pub(crate) struct PartitionScheduler {
    group: Vec<ProcessId>,
    heal_after: u64,
}

impl PartitionScheduler {
    /// Creates a scheduler partitioning `group` from everyone else for
    /// `heal_after` steps.
    pub(crate) fn new(group: Vec<ProcessId>, heal_after: u64) -> Self {
        PartitionScheduler { group, heal_after }
    }

    fn crosses(&self, v: &PendingView) -> bool {
        match v.src {
            None => false, // start signals always go through
            Some(src) => self.group.contains(&src) != self.group.contains(&v.dst),
        }
    }
}

impl Scheduler for PartitionScheduler {
    fn next(&mut self, pending: &[PendingView], now: u64, rng: &mut StdRng) -> SchedChoice {
        if now >= self.heal_after {
            return SchedChoice::Deliver(rng.gen_range(0..pending.len()));
        }
        let within: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, v)| !self.crosses(v))
            .map(|(i, _)| i)
            .collect();
        let pool: Vec<usize> = if within.is_empty() {
            (0..pending.len()).collect()
        } else {
            within
        };
        SchedChoice::Deliver(pool[rng.gen_range(0..pool.len())])
    }
    fn name(&self) -> &'static str {
        "partition"
    }
}

/// Picks uniformly at random among pending events. With probability 1 every
/// message is eventually delivered, so this is a *fair* environment.
#[derive(Debug, Clone, Default)]
pub struct RandomScheduler;

impl RandomScheduler {
    /// Creates a random scheduler.
    pub fn new() -> Self {
        RandomScheduler
    }
}

impl Scheduler for RandomScheduler {
    fn next(&mut self, pending: &[PendingView], _now: u64, rng: &mut StdRng) -> SchedChoice {
        SchedChoice::Deliver(rng.gen_range(0..pending.len()))
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

/// Delivers the oldest send first (a synchronous-looking environment).
#[derive(Debug, Clone, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn next(&mut self, pending: &[PendingView], _now: u64, _rng: &mut StdRng) -> SchedChoice {
        let i = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| v.seq)
            .map(|(i, _)| i)
            .expect("pending non-empty");
        SchedChoice::Deliver(i)
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Delivers the newest send first — an adversarial reordering environment —
/// unless some event is older than `FAIRNESS_BOUND`: then the lowest such
/// plane index goes first, so nothing starves.
#[derive(Debug, Clone, Default)]
pub struct LifoScheduler;

impl Scheduler for LifoScheduler {
    fn next(&mut self, pending: &[PendingView], now: u64, _rng: &mut StdRng) -> SchedChoice {
        let mut newest = 0;
        for (i, v) in pending.iter().enumerate() {
            if v.age(now) > FAIRNESS_BOUND {
                return SchedChoice::Deliver(i);
            }
            // `>=`: the last of equal seqs (start signals all carry 0).
            if v.seq >= pending[newest].seq {
                newest = i;
            }
        }
        SchedChoice::Deliver(newest)
    }
    fn name(&self) -> &'static str {
        "lifo"
    }
}

/// Starves the victims: any event to or from a victim process waits as long
/// as a non-victim event is pending — or until it is older than
/// `FAIRNESS_BOUND`, when the lowest such plane index goes first. That
/// keeps it technically fair, matching the paper's requirement that all
/// messages are eventually delivered.
#[derive(Debug, Clone)]
pub(crate) struct TargetedDelayScheduler {
    victims: Vec<ProcessId>,
}

impl TargetedDelayScheduler {
    /// Creates a scheduler that starves `victims`.
    pub(crate) fn new(victims: Vec<ProcessId>) -> Self {
        TargetedDelayScheduler { victims }
    }

    fn involves_victim(&self, v: &PendingView) -> bool {
        self.victims.contains(&v.dst) || v.src.is_some_and(|s| self.victims.contains(&s))
    }
}

impl Scheduler for TargetedDelayScheduler {
    fn next(&mut self, pending: &[PendingView], now: u64, rng: &mut StdRng) -> SchedChoice {
        let mut non_victim = Vec::new();
        for (i, v) in pending.iter().enumerate() {
            if v.age(now) > FAIRNESS_BOUND {
                return SchedChoice::Deliver(i);
            }
            if !self.involves_victim(v) {
                non_victim.push(i);
            }
        }
        let pool: Vec<usize> = if non_victim.is_empty() {
            (0..pending.len()).collect()
        } else {
            non_victim
        };
        SchedChoice::Deliver(pool[rng.gen_range(0..pool.len())])
    }
    fn name(&self) -> &'static str {
        "targeted-delay"
    }
}

/// A relaxed scheduler (§5): wraps an inner policy and drops messages from
/// the given sources once `drop_after` deliveries have happened. The `World`
/// extends every drop to the message's entire batch, enforcing the paper's
/// "all messages sent by the mediator at the same step are delivered or none
/// are" constraint.
#[derive(Debug, Clone)]
pub struct RelaxedScheduler {
    /// Sources whose messages are dropped (typically the mediator).
    pub drop_from: Vec<ProcessId>,
    /// Deliveries to allow before the blackout begins.
    pub drop_after: u64,
    delivered: u64,
}

impl RelaxedScheduler {
    /// Drops every message from `drop_from` after `drop_after` deliveries.
    pub fn new(drop_from: Vec<ProcessId>, drop_after: u64) -> Self {
        RelaxedScheduler {
            drop_from,
            drop_after,
            delivered: 0,
        }
    }
}

impl Scheduler for RelaxedScheduler {
    fn next(&mut self, pending: &[PendingView], _now: u64, rng: &mut StdRng) -> SchedChoice {
        if self.delivered >= self.drop_after {
            if let Some((i, _)) = pending
                .iter()
                .enumerate()
                .find(|(_, v)| v.src.is_some_and(|s| self.drop_from.contains(&s)))
            {
                return SchedChoice::Drop(i);
            }
        }
        self.delivered += 1;
        SchedChoice::Deliver(rng.gen_range(0..pending.len()))
    }
    fn name(&self) -> &'static str {
        "relaxed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn views() -> Vec<PendingView> {
        vec![
            PendingView {
                src: None,
                dst: 0,
                k: 0,
                seq: 0,
                batch: 0,
                born: 0,
            },
            PendingView {
                src: Some(1),
                dst: 2,
                k: 1,
                seq: 3,
                batch: 1,
                born: 3,
            },
            PendingView {
                src: Some(2),
                dst: 1,
                k: 1,
                seq: 7,
                batch: 2,
                born: 5,
            },
        ]
    }

    #[test]
    fn age_is_derived_from_birth_step() {
        let v = views();
        assert_eq!(v[0].age(5), 5);
        assert_eq!(v[1].age(5), 2);
        assert_eq!(v[2].age(5), 0);
        // `now` never runs behind `born`, but saturation keeps it total.
        assert_eq!(v[2].age(0), 0);
    }

    #[test]
    fn fifo_picks_lowest_seq() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            FifoScheduler.next(&views(), 5, &mut rng),
            SchedChoice::Deliver(0)
        );
    }

    #[test]
    fn lifo_picks_highest_seq() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            LifoScheduler.next(&views(), 5, &mut rng),
            SchedChoice::Deliver(2)
        );
    }

    /// `views()` at a step where its first two views (born 0 and 3) are over
    /// age and the third (born 5) is not.
    const LATE: u64 = FAIRNESS_BOUND + 4;

    #[test]
    fn lifo_and_targeted_delay_deliver_the_lowest_over_age_index_first() {
        let mut stale: [Box<dyn Scheduler>; 2] = [
            Box::new(LifoScheduler),
            Box::new(TargetedDelayScheduler::new(vec![0])),
        ];
        for s in &mut stale {
            let mut rng = StdRng::seed_from_u64(0);
            // Their own picks would be 2 (newest) and 1 or 2 (victim 0's
            // start avoided); the rule wins, and the RNG is left untouched.
            assert_eq!(s.next(&views(), LATE, &mut rng), SchedChoice::Deliver(0));
            assert_eq!(rng, StdRng::seed_from_u64(0), "{}", s.name());
        }
    }

    #[test]
    fn other_schedulers_ignore_age() {
        let reborn: Vec<PendingView> = views()
            .into_iter()
            .map(|v| PendingView { born: LATE, ..v })
            .collect();
        let mut fair: [Box<dyn Scheduler>; 4] = [
            Box::new(RandomScheduler::new()),
            Box::new(FifoScheduler),
            Box::new(PartitionScheduler::new(vec![1], LATE + 1)),
            Box::new(PartitionScheduler::new(vec![1], LATE)),
        ];
        for s in &mut fair {
            for seed in 0..8 {
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let aged = s.next(&views(), LATE, &mut r1);
                assert_eq!(aged, s.next(&reborn, LATE, &mut r2), "{}", s.name());
                assert_eq!(r1, r2, "{}", s.name());
            }
        }
    }

    #[test]
    fn random_is_deterministic_given_seed() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let mut s = RandomScheduler::new();
        for _ in 0..20 {
            assert_eq!(s.next(&views(), 0, &mut r1), s.next(&views(), 0, &mut r2));
        }
    }

    #[test]
    fn targeted_delay_avoids_victims() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = TargetedDelayScheduler::new(vec![2]);
        for _ in 0..20 {
            // Events 1 (dst=2) and 2 (src=2) involve the victim; only event 0
            // is selectable.
            assert_eq!(s.next(&views(), 0, &mut rng), SchedChoice::Deliver(0));
        }
    }

    #[test]
    fn targeted_delay_falls_back_when_only_victim_events_remain() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = TargetedDelayScheduler::new(vec![0, 1, 2]);
        let c = s.next(&views(), 0, &mut rng);
        assert!(matches!(c, SchedChoice::Deliver(_)));
    }

    #[test]
    fn relaxed_drops_after_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = RelaxedScheduler::new(vec![1], 0);
        // Event 1 has src=1: must be dropped.
        assert_eq!(s.next(&views(), 0, &mut rng), SchedChoice::Drop(1));
    }

    #[test]
    fn battery_contains_core_families() {
        let b = SchedulerKind::battery(5);
        assert!(b.contains(&SchedulerKind::Random));
        assert!(b.contains(&SchedulerKind::Fifo));
        assert!(b.contains(&SchedulerKind::Lifo));
        assert!(b
            .iter()
            .any(|k| matches!(k, SchedulerKind::TargetedDelay(_))));
        assert!(b
            .iter()
            .any(|k| matches!(k, SchedulerKind::Partition { .. })));
        for k in &b {
            let _ = k.build();
        }
    }

    #[test]
    fn replay_scheduler_follows_script_and_skips_sent_entries() {
        let mut rng = StdRng::seed_from_u64(0);
        // Script: start 0 was dispatched, then (after an intervening Sent
        // side effect) message (1→2, k=1) was delivered.
        let script = ReplayScript::new(vec![
            TraceEvent::Started { p: 0 },
            TraceEvent::Sent {
                src: 1,
                dst: 2,
                k: 1,
            },
            TraceEvent::Delivered {
                src: 1,
                dst: 2,
                k: 1,
            },
        ]);
        assert!(!script.has_drops());
        let mut s = ReplayScheduler::new(script);
        // views(): [start→0, msg 1→2 k=1, msg 2→1 k=1].
        assert_eq!(s.next(&views(), 0, &mut rng), SchedChoice::Deliver(0));
        assert_eq!(s.next(&views(), 1, &mut rng), SchedChoice::Deliver(1));
        // Exhausted: falls back to the plane front.
        assert_eq!(s.next(&views(), 2, &mut rng), SchedChoice::Deliver(0));
    }

    #[test]
    fn replay_scheduler_drop_skips_whole_batch() {
        let mut rng = StdRng::seed_from_u64(0);
        let batch = |src: ProcessId, dst: ProcessId, k: u64, seq: u64| PendingView {
            src: Some(src),
            dst,
            k,
            seq,
            batch: 9,
            born: 0,
        };
        let pending = vec![batch(5, 0, 1, 0), batch(5, 1, 1, 1), batch(5, 2, 1, 2)];
        let script = ReplayScript::new(vec![
            TraceEvent::Dropped {
                src: 5,
                dst: 0,
                k: 1,
            },
            TraceEvent::Dropped {
                src: 5,
                dst: 1,
                k: 1,
            },
            TraceEvent::Dropped {
                src: 5,
                dst: 2,
                k: 1,
            },
        ]);
        assert!(script.has_drops());
        let mut s = ReplayScheduler::new(script);
        assert_eq!(s.next(&pending, 0, &mut rng), SchedChoice::Drop(0));
        // All three recorded drop events were consumed by the one choice.
        assert_eq!(s.cursor(), 3);
    }

    #[test]
    fn replay_kind_builds_and_debug_is_compact() {
        let script = ReplayScript::new(vec![TraceEvent::Started { p: 0 }; 1000]);
        let kind = SchedulerKind::Replay(script);
        let _ = kind.build();
        assert_eq!(format!("{kind:?}"), "Replay(ReplayScript(1000 events))");
    }

    #[test]
    fn partition_blocks_cross_traffic_until_heal() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = PartitionScheduler::new(vec![0, 1], 100);
        // Pending: one within-group (0→1), one cross (0→2).
        let within = PendingView {
            src: Some(0),
            dst: 1,
            k: 1,
            seq: 0,
            batch: 0,
            born: 0,
        };
        let cross = PendingView {
            src: Some(0),
            dst: 2,
            k: 1,
            seq: 1,
            batch: 0,
            born: 0,
        };
        for _ in 0..50 {
            assert_eq!(
                s.next(&[within, cross], 0, &mut rng),
                SchedChoice::Deliver(0),
                "cross-partition message must wait"
            );
        }
        // Only cross traffic pending: the scheduler must not deadlock the
        // model — it falls back to delivering it.
        let c = s.next(&[cross], 0, &mut rng);
        assert_eq!(c, SchedChoice::Deliver(0));
        // The heal is read off the world's clock: from step `heal_after`
        // on, anything goes — the same pick Random makes.
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        for now in 100..150 {
            assert_eq!(
                s.next(&[within, cross], now, &mut r1),
                RandomScheduler.next(&[within, cross], now, &mut r2)
            );
        }
    }
}
