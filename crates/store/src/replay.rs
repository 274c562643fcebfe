//! Deterministic replay of stored runs.
//!
//! A stored run is a complete recipe: the header names the plan family,
//! seed and scheduler; the event chunks hold the content-level schedule;
//! the outcome record pins what the run produced. Replay rebuilds the
//! world from the *plan* (the processes are reconstructed from
//! configuration, not stored — the world is deterministic given `(plan,
//! seed)`), forces the recorded dispatch order through
//! [`SchedulerKind::Replay`], and then checks the re-enactment against
//! the recording: the re-recorded trace must be byte-identical and the
//! stored outcome fields must match.
//!
//! Two driving modes, chosen by [`RunHeader::networked`](crate::RunHeader#structfield.networked):
//!
//! * **In-process** ([`replay_run`]): the recorded world delivered its own
//!   sends; `plan.run_with(Replay(script), seed)` re-enacts it directly.
//! * **Networked** ([`replay_networked_session`]): the recording came from
//!   a transport pump, so every logical message appears twice — once when
//!   the process sent it (emission) and once when the wire handed it back
//!   ([`Session::inject`] re-sequences it as a fresh `Sent`). The replay
//!   driver re-enacts that loop *in process*: drained envelopes park in
//!   per-`(src, dst)` FIFO queues (the per-pair ordering both transports
//!   guarantee), and the script tells the driver at each boundary whether
//!   the next event is an injection (a `Sent` at the boundary — emission
//!   `Sent`s only ever appear mid-step) or a scheduler step.

use crate::codec::StoreError;
use crate::store::StoredRun;
use mediator_core::scenario::{GameFamily, Plan};
use mediator_sim::{Outcome, ReplayScript, SchedulerKind, Session, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Why a stored run could not be replayed (or did not reproduce).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The recording is marked partial (its trace kept only counters):
    /// there is no script, so the run cannot be re-enacted.
    PartialTrace,
    /// Retention evicted part of the event body; only `have` of the
    /// `want` recorded events remain.
    Evicted {
        /// Events still retained.
        have: u64,
        /// Events the run originally recorded.
        want: u64,
    },
    /// A networked replay needed the next wire message for `(src, dst)`
    /// but the re-enacted processes never sent it — the rebuilt plan does
    /// not match the recording.
    MissingMessage {
        /// The sender of the missing message.
        src: usize,
        /// Its addressee.
        dst: usize,
    },
    /// The re-enactment stopped producing the recorded events at this
    /// script position.
    Divergence {
        /// Index into the recorded event stream.
        at: usize,
    },
    /// The re-enactment ran to completion but `what` differed from the
    /// stored value.
    Mismatch {
        /// The outcome field that disagreed.
        what: &'static str,
    },
    /// The run's header carries no usable witness recipe: metadata `key`
    /// is missing or malformed, or (for `entry`) names no known base plan.
    /// Every run a `StoreSink` recorded is one of these.
    NoRecipe {
        /// The first metadata key that could not be used.
        key: &'static str,
    },
    /// The recipe names a strategy the base plan's deviation battery does
    /// not generate for the recipe's coalition (a stale or hand-edited
    /// store).
    UnknownStrategy {
        /// The strategy name the recipe carries.
        strategy: String,
    },
    /// The store itself failed while materialising the run.
    Store(StoreError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::PartialTrace => {
                write!(f, "recording is partial (the trace kept only counters)")
            }
            ReplayError::Evicted { have, want } => {
                write!(
                    f,
                    "event body evicted by retention ({have}/{want} events remain)"
                )
            }
            ReplayError::MissingMessage { src, dst } => {
                write!(
                    f,
                    "re-enactment never produced the next {src}->{dst} message"
                )
            }
            ReplayError::Divergence { at } => {
                write!(f, "re-enactment diverged from the recording at event {at}")
            }
            ReplayError::Mismatch { what } => {
                write!(f, "replayed outcome disagrees with the recording on {what}")
            }
            ReplayError::NoRecipe { key } => {
                write!(f, "no witness recipe in the header (`{key}` unusable)")
            }
            ReplayError::UnknownStrategy { strategy } => {
                write!(f, "no generated strategy '{strategy}' for the coalition")
            }
            ReplayError::Store(e) => write!(f, "store failure: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<StoreError> for ReplayError {
    fn from(e: StoreError) -> Self {
        ReplayError::Store(e)
    }
}

/// What a successful replay established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events re-enacted (equals the recording's retained event count).
    pub events: usize,
    /// Steps the replay took. May undercut the recording by up to one
    /// trace-silent step per process (see the sim crate's replay
    /// documentation); never exceeds it.
    pub steps: u64,
    /// The reproduced termination kind.
    pub termination: mediator_sim::TerminationKind,
}

/// Builds the replay script for a stored run, refusing recordings whose
/// event stream is incomplete — a partial (ring-wrapped) capture or a
/// retention-evicted body can only mis-replay, so both are typed errors.
pub fn stored_script(run: &StoredRun) -> Result<ReplayScript, ReplayError> {
    if run.header.partial {
        return Err(ReplayError::PartialTrace);
    }
    let have = run.events.len() as u64;
    if run.evicted || have < run.outcome.event_count {
        return Err(ReplayError::Evicted {
            have,
            want: run.outcome.event_count,
        });
    }
    Ok(ReplayScript::new(run.events.clone()))
}

/// Checks a replayed outcome against the recording: byte-identical trace,
/// equal moves/wills/halted sets, equal message counters, and the same
/// termination kind. (Step counts are *not* compared: replay merges the
/// recording's trace-silent steps — the sim crate pins the exact law.)
fn check(run: &StoredRun, replayed: &Outcome) -> Result<ReplayReport, ReplayError> {
    if run.events != replayed.trace.events() {
        let at = replayed
            .trace
            .events()
            .iter()
            .zip(&run.events)
            .position(|(a, b)| a != *b)
            .unwrap_or_else(|| replayed.trace.events().len().min(run.events.len()));
        return Err(ReplayError::Divergence { at });
    }
    let stored = &run.outcome;
    if replayed.moves != stored.moves {
        return Err(ReplayError::Mismatch { what: "moves" });
    }
    if replayed.wills != stored.wills {
        return Err(ReplayError::Mismatch { what: "wills" });
    }
    if replayed.halted != stored.halted {
        return Err(ReplayError::Mismatch { what: "halted" });
    }
    if replayed.messages_sent != stored.messages_sent {
        return Err(ReplayError::Mismatch {
            what: "messages_sent",
        });
    }
    if replayed.messages_delivered != stored.messages_delivered {
        return Err(ReplayError::Mismatch {
            what: "messages_delivered",
        });
    }
    if replayed.termination != stored.termination {
        return Err(ReplayError::Mismatch {
            what: "termination",
        });
    }
    Ok(ReplayReport {
        events: run.events.len(),
        steps: replayed.steps,
        termination: replayed.termination,
    })
}

/// Replays a stored run through an arbitrary executor — the seam for
/// callers whose run recipe is not a scenario [`Plan`] (a bare world, a
/// protocol substrate). `exec` receives the replay scheduler kind and the
/// recorded seed and must rebuild and run the same world the recording
/// came from.
pub fn replay_run(
    run: &StoredRun,
    exec: impl FnOnce(&SchedulerKind, u64) -> Outcome,
) -> Result<ReplayReport, ReplayError> {
    let script = stored_script(run)?;
    let replayed = exec(&SchedulerKind::Replay(script), run.header.seed);
    check(run, &replayed)
}

/// Replays a stored run against the plan that produced it, dispatching on
/// [`RunHeader::networked`](crate::codec::RunHeader::networked): bare
/// recordings run the closed loop, networked recordings re-enact the
/// transport pump in process.
pub fn replay_plan<F: GameFamily>(
    plan: &Plan<F>,
    run: &StoredRun,
) -> Result<ReplayReport, ReplayError> {
    let script = stored_script(run)?;
    let kind = SchedulerKind::Replay(script);
    if run.header.networked {
        let session = plan.session_with(&kind, run.header.seed);
        let replayed = replay_networked_session(session, &run.events)?;
        check(run, &replayed)
    } else {
        let replayed = plan.session_with(&kind, run.header.seed).finish();
        check(run, &replayed)
    }
}

/// Re-enacts a networked recording on a bare [`Session`] (which must have
/// been opened with the run's [`SchedulerKind::Replay`] script and seed).
///
/// The driver mirrors the service pump without a transport: freshly sent
/// envelopes drain into per-`(src, dst)` FIFO queues instead of sockets,
/// and the recorded script decides, at every boundary between world
/// steps, which of the pump's two actions happened next:
///
/// * the next recorded event is a `Sent` — only an injection can open
///   with one (a process's own emissions are recorded *mid*-step, atomically
///   with the `Started`/`Delivered` that triggered them), so the driver
///   pops that pair's queue and re-injects;
/// * anything else — the pump stepped the world; the replay scheduler
///   picks the recorded event from the plane.
///
/// The drain happens right **after** a step, never after an inject: the
/// pump delivers every injected message before its next ship pass
/// ([`Session::drain_outbox`] would otherwise pull it straight back out
/// of the plane), so what the wire carried is exactly the messages each
/// step emitted.
pub fn replay_networked_session<M>(
    mut session: Session<M>,
    script: &[TraceEvent],
) -> Result<Outcome, ReplayError> {
    let mut queues: HashMap<(usize, usize), VecDeque<M>> = HashMap::new();
    loop {
        let at = session.world().trace().events().len();
        if at >= script.len() {
            break;
        }
        match script[at] {
            TraceEvent::Sent { src, dst, .. } => {
                let msg = queues
                    .get_mut(&(src, dst))
                    .and_then(VecDeque::pop_front)
                    .ok_or(ReplayError::MissingMessage { src, dst })?;
                // The indicator does not matter for replay: a send to a
                // halted destination is still counted and traced, exactly
                // as the recording shows it.
                let _ = session.inject(src, dst, msg);
            }
            _ => {
                if !session.pump_ready() {
                    return Err(ReplayError::Divergence { at });
                }
                for env in session.drain_outbox() {
                    queues
                        .entry((env.src, env.dst))
                        .or_default()
                        .push_back(env.msg);
                }
            }
        }
        if session.world().trace().events().len() == at {
            return Err(ReplayError::Divergence { at });
        }
    }
    Ok(session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{PlanKind, RunHeader};
    use crate::store::TraceStore;
    use mediator_sim::{Ctx, Process, ProcessId, TraceMode, World};

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

    fn echo_world(n: usize, seed: u64) -> World<u64> {
        let procs: Vec<Box<dyn Process<u64>>> = (0..n)
            .map(|_| Box::new(Echo { n }) as Box<dyn Process<u64>>)
            .collect();
        World::new(procs, seed)
    }

    #[test]
    fn bare_world_recording_replays_through_exec() {
        let mut store = TraceStore::in_memory();
        let outcome = echo_world(4, 11).run(SchedulerKind::Random.build().as_mut(), 10_000);
        let id = store
            .record(RunHeader::bare(3, 11), &outcome)
            .expect("record");
        let run = store.load(id).unwrap();
        let report = replay_run(&run, |kind, seed| {
            echo_world(4, seed).run(kind.build().as_mut(), 10_000)
        })
        .expect("replay reproduces");
        assert_eq!(report.events, outcome.trace.events().len());
        assert_eq!(report.termination, outcome.termination);
    }

    #[test]
    fn partial_recording_is_refused() {
        let mut store = TraceStore::in_memory();
        let mut world = echo_world(5, 2);
        world.set_trace_mode(TraceMode::Off);
        let outcome = world.run(SchedulerKind::Fifo.build().as_mut(), 10_000);
        assert!(
            outcome.trace.wrapped() > 0,
            "a counters-only capture is partial"
        );
        let id = store.record(RunHeader::bare(1, 2), &outcome).unwrap();
        assert!(store.header(id).partial, "stored marked partial");
        let run = store.load(id).unwrap();
        assert_eq!(stored_script(&run), Err(ReplayError::PartialTrace));
    }

    #[test]
    fn evicted_recording_is_refused() {
        let mut store = TraceStore::in_memory();
        let outcome = echo_world(5, 3).run(SchedulerKind::Fifo.build().as_mut(), 10_000);
        let id = store.record(RunHeader::bare(1, 3), &outcome).unwrap();
        store.compact(0).expect("evict everything");
        let run = store.load(id).unwrap();
        assert!(run.evicted);
        match stored_script(&run) {
            Err(ReplayError::Evicted { have: 0, want }) => {
                assert_eq!(want, outcome.trace.events().len() as u64);
            }
            other => panic!("expected Evicted, got {other:?}"),
        }
    }

    #[test]
    fn wrong_seed_is_a_divergence_or_mismatch() {
        let mut store = TraceStore::in_memory();
        let outcome = echo_world(4, 7).run(SchedulerKind::Random.build().as_mut(), 10_000);
        let id = store.record(RunHeader::bare(1, 7), &outcome).unwrap();
        let run = store.load(id).unwrap();
        // Re-enact with a *different* world size: the trace cannot match.
        let err = replay_run(&run, |kind, seed| {
            echo_world(3, seed).run(kind.build().as_mut(), 10_000)
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                ReplayError::Divergence { .. } | ReplayError::Mismatch { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn plan_kind_display_names_are_stable() {
        assert_eq!(PlanKind::CheapTalk.to_string(), "cheap-talk");
        assert_eq!(PlanKind::Mediator.to_string(), "mediator");
        assert_eq!(PlanKind::Other.to_string(), "other");
    }
}
