//! Replay determinism, end to end: record a run into the store, re-open
//! it from bytes, and drive it again — the re-recorded trace must be
//! byte-identical and the outcome must match field for field.
//!
//! Two recording planes are covered. **In-process** runs replay through
//! the `Replay` scheduler (`replay_plan` with `networked: false`).
//! **Networked** runs — recorded through [`StoreSink`] wired into the
//! service via [`ServiceConfig::with_sink`] — replay *without a
//! transport*: the stored script disambiguates injections from emissions
//! at step boundaries (DESIGN.md §11), so the same session logic re-runs
//! in-process and must land on the same bytes. That replay is the
//! oracle a networked run is held to: several `(scheduler, seed)` cells
//! over the in-memory hub, plus TCP loopback, feed the same assertion.

use std::sync::Arc;

use mediator_circuits::catalog;
use mediator_core::cheap_talk::CtMsg;
use mediator_core::scenario::{CheapTalkPlan, GameFamily, MediatorPlan, Plan, Scenario};
use mediator_field::Fp;
use mediator_net::{
    Client, MemTransport, RunMeta, Service, ServiceConfig, TcpTransport, TraceSink,
};
use mediator_sim::{Ctx, Process, ProcessId, SchedulerKind, TerminationKind, TraceMode, World};
use mediator_store::{
    replay_plan, stored_script, HeaderTemplate, PlanKind, ReplayError, StoreSink, StoredRun,
    TraceStore,
};
use std::time::Duration;

fn majority_plan(n: usize) -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n = 5 > 4k+4t = 4")
}

fn mediator_plan(n: usize) -> MediatorPlan {
    Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs((0..n).map(|i| vec![Fp::new((i % 2) as u64)]).collect())
        .build()
        .expect("tolerance fine")
}

fn template(plan: PlanKind, n: usize, networked: bool) -> HeaderTemplate {
    HeaderTemplate {
        plan: Some(plan),
        n: n as u64,
        k: 1,
        t: 0,
        networked,
        ..HeaderTemplate::default()
    }
}

// ---------------------------------------------------------------------------
// In-process: record through the sink, replay through the Replay scheduler
// ---------------------------------------------------------------------------

/// Records one in-process cell through [`StoreSink`] and returns the
/// stored run — the same round trip a conformance sweep performs.
fn record_in_process<F: GameFamily>(
    plan: &Plan<F>,
    plan_kind: PlanKind,
    kind: SchedulerKind,
    seed: u64,
) -> StoredRun {
    let sink = StoreSink::with_template(
        TraceStore::in_memory(),
        template(plan_kind, plan.processes(), false),
    );
    let outcome = plan.session_with(&kind, seed).finish();
    sink.record(&RunMeta::cell(0, kind.clone(), seed), &outcome);
    assert!(sink.take_error().is_none(), "sink append failed");
    let store = sink.into_store();
    let id = store
        .find_cell(0, seed, &kind)
        .expect("headers read")
        .expect("cell indexed");
    store.load(id).expect("stored run loads")
}

#[test]
fn cheap_talk_replays_byte_identically_in_process() {
    let plan = majority_plan(5);
    for (kind, seed) in [
        (SchedulerKind::Random, 3u64),
        (SchedulerKind::Fifo, 0),
        (SchedulerKind::Lifo, 1),
    ] {
        let run = record_in_process(&plan, PlanKind::CheapTalk, kind.clone(), seed);
        assert_eq!(run.header.plan, PlanKind::CheapTalk);
        assert!(!run.header.networked);
        let report = replay_plan(&plan, &run)
            .unwrap_or_else(|e| panic!("{kind:?} seed {seed}: replay diverged: {e:?}"));
        assert_eq!(report.events as u64, run.outcome.event_count);
        assert_eq!(report.termination, run.outcome.termination);
    }
}

#[test]
fn mediator_game_replays_byte_identically_in_process() {
    let plan = mediator_plan(5);
    let run = record_in_process(&plan, PlanKind::Mediator, SchedulerKind::Random, 7);
    assert_eq!(run.header.plan, PlanKind::Mediator);
    let report = replay_plan(&plan, &run).expect("mediator replay diverged");
    assert_eq!(report.termination, run.outcome.termination);
}

#[test]
fn replaying_against_the_wrong_plan_is_a_typed_error_not_a_silent_pass() {
    // Record a 5-player all-ones majority run, replay it against the
    // same circuit with all-zero inputs. The protocol is content-blind,
    // so the traffic *pattern* replays — but the outcome the session
    // reaches differs from the stored record, and the check must say so.
    let run = record_in_process(
        &majority_plan(5),
        PlanKind::CheapTalk,
        SchedulerKind::Fifo,
        0,
    );
    let other = Scenario::cheap_talk(catalog::majority_circuit(5))
        .players(5)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ZERO]; 5])
        .build()
        .expect("same shape, different inputs");
    assert!(
        replay_plan(&other, &run).is_err(),
        "a foreign plan cannot reproduce the recorded outcome"
    );
}

// ---------------------------------------------------------------------------
// Networked: both transports, no transport on replay
// ---------------------------------------------------------------------------

fn recording_cfg(sink: Arc<dyn TraceSink>) -> ServiceConfig {
    ServiceConfig {
        idle_timeout: Duration::from_secs(5),
        attach_timeout: Duration::from_millis(400),
        attach_grace: Duration::from_millis(100),
        ..ServiceConfig::default()
    }
    .with_sink(sink)
}

/// Hosts one cheap-talk cell on a live service with a [`StoreSink`]
/// attached, waits for the outcome, and returns the stored run alongside
/// what the service reported — the two views the replay must reconcile.
fn record_networked_mem(
    plan: &CheapTalkPlan,
    kind: SchedulerKind,
    seed: u64,
) -> (StoredRun, mediator_sim::Outcome) {
    let n = plan.processes();
    let sink = Arc::new(StoreSink::with_template(
        TraceStore::in_memory(),
        template(PlanKind::CheapTalk, n, true),
    ));
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), recording_cfg(sink.clone()));
    const SID: u64 = 42;
    let handle = service.host_plan(SID, plan, kind.clone(), seed);
    let relays: Vec<_> = (0..n)
        .map(|player| {
            let mut client = Client::<CtMsg>::mem(&hub);
            std::thread::spawn(move || {
                client.attach(SID, player).expect("attach");
                client.relay().expect("relay")
            })
        })
        .collect();
    let outcome = handle.outcome().expect("networked run completes");
    for relay in relays {
        relay.join().expect("relay thread");
    }
    service.shutdown();

    assert!(sink.take_error().is_none(), "sink append failed");
    let run = sink
        .with_store(|store| {
            let id = store
                .find_cell(SID, seed, &kind)
                .expect("headers read")
                .expect("recorded cell indexed by (session, seed, kind)");
            store.load(id)
        })
        .expect("stored run loads");
    (run, outcome)
}

#[test]
fn networked_recordings_replay_without_a_transport() {
    // The in-process `World` is the reference: whatever delivery order
    // the wire produced for a cell, the stored script must re-drive the
    // same session logic — no hub, no sockets — to the same bytes, and
    // the outcome must agree in kind with the plain in-process run.
    let plan = majority_plan(5);
    let cells = std::iter::once((SchedulerKind::Fifo, 0u64))
        .chain((0..6).map(|seed| (SchedulerKind::Random, seed)));
    for (kind, seed) in cells {
        let label = format!("{kind:?}/{seed}");
        let (run, outcome) = record_networked_mem(&plan, kind.clone(), seed);
        assert!(run.header.networked, "{label}: template stamped");
        assert_eq!(run.header.n, 5);
        // The stored script is exactly what the live session traced.
        assert_eq!(
            run.events,
            outcome.trace.events(),
            "{label}: stored body matches the live trace"
        );
        let report = replay_plan(&plan, &run)
            .unwrap_or_else(|e| panic!("{label}: networked replay diverged: {e:?}"));
        assert_eq!(report.termination, outcome.termination, "{label}");
        assert_eq!(report.events as u64, run.outcome.event_count, "{label}");

        let local = plan.run_with(&kind, seed);
        assert_eq!(outcome.termination, local.termination, "{label}: kind");
        assert_eq!(
            outcome.resolve_default(&[0; 5]),
            local.resolve_default(&[0; 5]),
            "{label}: resolved profile"
        );
    }
}

#[test]
fn tcp_recordings_replay_without_a_transport() {
    let n = 5;
    let plan = majority_plan(n);
    let sink = Arc::new(StoreSink::with_template(
        TraceStore::in_memory(),
        template(PlanKind::CheapTalk, n, true),
    ));
    let transport = TcpTransport::bind_loopback().expect("bind");
    let addr = transport.addr();
    let service = Service::with_config(Box::new(transport), recording_cfg(sink.clone()));
    const SID: u64 = 7;
    let handle = service.host_plan(SID, &plan, SchedulerKind::Fifo, 0);
    let relays: Vec<_> = (0..n)
        .map(|player| {
            std::thread::spawn(move || {
                let mut client = Client::<CtMsg>::tcp(addr).expect("connect");
                client.attach(SID, player).expect("attach");
                client.relay().expect("relay")
            })
        })
        .collect();
    let outcome = handle.outcome().expect("tcp run completes");
    for relay in relays {
        relay.join().expect("relay thread");
    }
    service.shutdown();

    assert!(sink.take_error().is_none());
    let run = sink
        .with_store(|store| {
            let id = store
                .find_cell(SID, 0, &SchedulerKind::Fifo)
                .expect("headers read")
                .expect("indexed");
            store.load(id)
        })
        .expect("stored run loads");
    assert_eq!(run.events, outcome.trace.events());
    let report = replay_plan(&plan, &run).expect("tcp recording replays in-process");
    assert_eq!(report.termination, outcome.termination);
    assert_eq!(report.termination, TerminationKind::Quiescent);
}

#[test]
fn mediator_game_records_and_replays_over_the_wire() {
    // The mediator itself (process n) holds a relay too; its STOP batch
    // crosses the wire and must come back out of the stored script.
    let n = 5;
    let plan = mediator_plan(n);
    let processes = plan.processes();
    let sink = Arc::new(StoreSink::with_template(
        TraceStore::in_memory(),
        template(PlanKind::Mediator, processes, true),
    ));
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), recording_cfg(sink.clone()));
    const SID: u64 = 9;
    let handle = service.host_plan(SID, &plan, SchedulerKind::Random, 2);
    let relays: Vec<_> = (0..processes)
        .map(|player| {
            let mut client = Client::<mediator_core::MedMsg>::mem(&hub);
            std::thread::spawn(move || {
                client.attach(SID, player).expect("attach");
                client.relay().expect("relay")
            })
        })
        .collect();
    let outcome = handle.outcome().expect("mediator run completes");
    for relay in relays {
        relay.join().expect("relay thread");
    }
    service.shutdown();

    assert!(sink.take_error().is_none());
    let run = sink
        .with_store(|store| {
            let id = store
                .find_cell(SID, 2, &SchedulerKind::Random)
                .expect("headers read")
                .expect("indexed");
            store.load(id)
        })
        .expect("stored run loads");
    assert_eq!(run.header.plan, PlanKind::Mediator);
    let report = replay_plan(&plan, &run).expect("mediator recording replays");
    assert_eq!(report.termination, outcome.termination);
}

// ---------------------------------------------------------------------------
// Refusals: partial traces and evicted bodies stay typed
// ---------------------------------------------------------------------------

#[test]
fn ring_mode_recordings_are_marked_partial_and_refuse_replay() {
    // A ring-buffered trace wraps: the sink stamps the run partial at
    // record time, and `replay_plan` refuses it before opening a session.
    struct Chatter {
        n: usize,
    }
    impl Process<u64> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            let me = ctx.me();
            for dst in 0..self.n {
                if dst != me {
                    ctx.send(dst, me as u64);
                }
            }
        }
        fn on_message(&mut self, _src: ProcessId, msg: u64, ctx: &mut Ctx<u64>) {
            ctx.make_move(msg);
        }
    }
    let n = 5;
    let procs: Vec<Box<dyn Process<u64>>> = (0..n)
        .map(|_| Box::new(Chatter { n }) as Box<dyn Process<u64>>)
        .collect();
    let mut world = World::new(procs, 0);
    world.set_trace_mode(TraceMode::Off);
    let outcome = world.run(SchedulerKind::Fifo.build().as_mut(), 10_000);
    assert!(
        outcome.trace.wrapped() > 0,
        "a counters-only trace is partial"
    );

    let sink = StoreSink::with_template(
        TraceStore::in_memory(),
        template(PlanKind::CheapTalk, n, false),
    );
    sink.record(&RunMeta::cell(0, SchedulerKind::Fifo, 0), &outcome);
    assert!(sink.take_error().is_none());
    let store = sink.into_store();
    let run = store.load(0).expect("partial run still loads");
    assert!(run.header.partial, "wrapped trace stored as partial");
    assert!(matches!(
        stored_script(&run),
        Err(ReplayError::PartialTrace)
    ));
    assert!(matches!(
        replay_plan(&majority_plan(n), &run),
        Err(ReplayError::PartialTrace)
    ));
}
