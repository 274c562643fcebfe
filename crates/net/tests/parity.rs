//! Session-vs-network parity, and the service runtime's failure modes.
//!
//! **What parity means here.** The network backend delivers messages in
//! whatever order the wire returns them; that is a *delivery order* in the
//! paper's adversary-scheduler sense, not the same schedule the in-process
//! scheduler drew. Theorem 4.1 promises the protocol implements the
//! mediator under **every** scheduler, so the right assertion is
//! **outcome-kind agreement** — same termination kind, same resolved
//! action profile — never byte-identical traces (which differ by design:
//! the wire hop re-sequences every message). DESIGN.md §9 spells out the
//! distinction; these tests pin it.

use mediator_circuits::catalog;
use mediator_core::cheap_talk::CtMsg;
use mediator_core::mediator::MedMsg;
use mediator_core::scenario::{CheapTalkPlan, MediatorPlan, Scenario};
use mediator_field::Fp;
use mediator_net::{
    run_over_mem, run_over_tcp, Client, Frame, MemTransport, NetError, RejectReason, Service,
    ServiceConfig,
};
use mediator_sim::{Ctx, Outcome, Process, SchedulerKind, Session, TerminationKind, World};
use std::sync::mpsc;
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
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("tolerance fine")
}

/// Outcome-kind agreement: termination kind and resolved profile.
fn assert_outcome_parity(local: &Outcome, networked: &Outcome, players: usize, label: &str) {
    assert_eq!(
        networked.termination, local.termination,
        "{label}: termination kind"
    );
    let defaults = vec![0; local.moves.len()];
    assert_eq!(
        networked.resolve_default(&defaults)[..players],
        local.resolve_default(&defaults)[..players],
        "{label}: resolved action profile"
    );
}

#[test]
fn cheap_talk_over_mem_matches_in_process_outcome_kinds() {
    let n = 5;
    let plan = majority_plan(n);
    for seed in 0..3 {
        let local = plan.run_with(&SchedulerKind::Random, seed);
        assert_eq!(local.termination, TerminationKind::Quiescent);
        let networked = run_over_mem(
            &plan,
            &SchedulerKind::Random,
            seed,
            ServiceConfig::default(),
        )
        .expect("networked run completes");
        assert_outcome_parity(&local, &networked, n, &format!("mem seed {seed}"));
        // The networked run moved every protocol message over the wire.
        assert!(networked.messages_sent >= local.messages_sent);
    }
}

/// A hosted session counts each protocol message twice in
/// `Outcome::messages_sent`: once when a process sends it and once when
/// its returned frame is injected (`Session::inject` is a send on the
/// plane). One relay connection echoing every frame in arrival order
/// returns them first in, first out, so the count is the Fifo schedule's
/// exactly: 775 shipped frames, 1 550 sends.
#[test]
fn a_hosted_session_counts_each_message_at_its_send_and_at_its_return() {
    let n = 5;
    let plan = majority_plan(n);
    let local = plan.run_with(&SchedulerKind::Fifo, 0);
    let hub = MemTransport::new();
    let service = Service::start(Box::new(hub.listener()));
    let handle = service.host_plan(1, &plan, SchedulerKind::Fifo, 0);
    let mut relay = Client::<CtMsg>::mem(&hub);
    for player in 0..n {
        relay.attach(1, player).expect("attach");
    }
    let mut shipped = 0u64;
    loop {
        match relay.recv().expect("the service answers") {
            frame @ Frame::Msg { .. } => {
                shipped += 1;
                relay.send(&frame).expect("echo");
            }
            Frame::Outcome { .. } => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let networked = handle.outcome().expect("hosted run completes");
    service.shutdown();
    assert_eq!((shipped, local.messages_sent), (775, 775), "the floor");
    assert_eq!(networked.messages_sent, 1_550, "2 × 775");
    assert_eq!(networked.messages_delivered, local.messages_delivered);
}

#[test]
fn cheap_talk_over_tcp_matches_in_process_outcome_kinds() {
    let n = 5;
    let plan = majority_plan(n);
    for seed in [0u64, 9] {
        let local = plan.run_with(&SchedulerKind::Fifo, seed);
        let networked = run_over_tcp(&plan, &SchedulerKind::Fifo, seed, ServiceConfig::default())
            .expect("tcp loopback run completes");
        assert_outcome_parity(&local, &networked, n, &format!("tcp seed {seed}"));
    }
}

#[test]
fn mediator_game_over_mem_matches_in_process_outcome_kinds() {
    // The mediator itself (process n) gets a relay too: its STOP batch
    // travels the wire like any player message.
    let n = 5;
    let plan = mediator_plan(n);
    for seed in 0..3 {
        let local = plan.run_with(&SchedulerKind::Random, seed);
        let networked = run_over_mem(
            &plan,
            &SchedulerKind::Random,
            seed,
            ServiceConfig::default(),
        )
        .expect("networked mediator game completes");
        assert_outcome_parity(&local, &networked, n, &format!("mediator seed {seed}"));
    }
}

#[test]
fn budget_exhaustion_travels_the_wire() {
    // A starved step budget terminates the networked run with the same
    // kind the in-process run reports.
    let plan = Scenario::cheap_talk(catalog::majority_circuit(5))
        .players(5)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; 5])
        .max_steps(40)
        .build()
        .expect("n = 5 > 4k+4t = 4");
    let local = plan.run_with(&SchedulerKind::Fifo, 1);
    assert_eq!(local.termination, TerminationKind::BudgetExhausted);
    let networked = run_over_mem(&plan, &SchedulerKind::Fifo, 1, ServiceConfig::default())
        .expect("networked run still yields an outcome");
    assert_eq!(networked.termination, TerminationKind::BudgetExhausted);
}

#[test]
fn concurrent_hosted_sessions_reach_the_same_profile() {
    let n = 5;
    let sessions = 8u64;
    let plan = majority_plan(n);
    let hub = MemTransport::new();
    let service = Service::start(Box::new(hub.listener()));

    // Relays connect first; the attach grace window absorbs the race with
    // the host loop.
    let relays: Vec<_> = (0..sessions)
        .flat_map(|sid| (0..n).map(move |player| (sid, player)))
        .map(|(sid, player)| {
            let mut client = Client::<CtMsg>::mem(&hub);
            std::thread::spawn(move || {
                client.attach(sid, player).expect("attach");
                client.relay().expect("relay")
            })
        })
        .collect();

    // Every cell is hosted before any outcome is awaited, so all of them
    // are live on the reactor at once.
    let handles: Vec<_> = (0..sessions)
        .map(|sid| service.host_plan(sid, &plan, SchedulerKind::Random, sid))
        .collect();
    let local = plan.run_with(&SchedulerKind::Random, 0);
    for handle in handles {
        let sid = handle.id();
        let outcome = handle
            .outcome()
            .unwrap_or_else(|e| panic!("session {sid}: {e}"));
        assert_outcome_parity(&local, &outcome, n, &format!("session {sid}"));
    }
    for relay in relays {
        let summary = relay.join().expect("relay thread");
        assert_eq!(summary.termination, TerminationKind::Quiescent);
        assert_eq!(&summary.moves[..n], &vec![Some(1); n][..]);
    }
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Failure modes: every stall has a typed owner
// ---------------------------------------------------------------------------

fn quick_cfg() -> ServiceConfig {
    ServiceConfig {
        idle_timeout: Duration::from_secs(5),
        attach_timeout: Duration::from_millis(400),
        attach_grace: Duration::from_millis(100),
        ..ServiceConfig::default()
    }
}

#[test]
fn attaching_to_an_unknown_session_is_rejected() {
    let hub = MemTransport::new();
    let service = Service::<mediator_core::cheap_talk::CtMsg>::with_config(
        Box::new(hub.listener()),
        quick_cfg(),
    );
    let mut client = Client::<CtMsg>::mem(&hub);
    client.attach(404, 0).expect("send attach");
    assert_eq!(
        client.relay(),
        Err(NetError::Rejected {
            session: 404,
            reason: RejectReason::UnknownSession
        })
    );
    service.shutdown();
}

#[test]
fn double_attach_and_out_of_range_are_rejected() {
    let plan = majority_plan(5);
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), quick_cfg());
    let handle = service.host_plan(7, &plan, SchedulerKind::Fifo, 0);

    let mut first = Client::<CtMsg>::mem(&hub);
    first.attach(7, 0).expect("attach");
    let mut second = Client::<CtMsg>::mem(&hub);
    second.attach(7, 0).expect("attach");
    assert_eq!(
        second.relay(),
        Err(NetError::Rejected {
            session: 7,
            reason: RejectReason::PlayerTaken
        })
    );
    let mut ninth = Client::<CtMsg>::mem(&hub);
    ninth.attach(7, 9).expect("attach");
    assert_eq!(
        ninth.relay(),
        Err(NetError::Rejected {
            session: 7,
            reason: RejectReason::PlayerOutOfRange
        })
    );

    // Only one of five players ever attached: the pump gives up with a
    // typed attach timeout, and the attached relay is told via Abort.
    assert_eq!(
        handle.outcome().expect_err("attach barrier must time out"),
        NetError::AttachTimeout {
            session: 7,
            attached: 1,
            expected: 5
        }
    );
    assert_eq!(first.relay(), Err(NetError::Aborted { session: 7 }));
    service.shutdown();
}

#[test]
fn improvised_in_range_frames_cannot_fake_quiescence() {
    // A connection that never attached sends well-formed, in-range Msg
    // frames mid-run (honest mediator-game players ignore gossip, so the
    // injections are observationally inert). Before per-route `returned`
    // gating, each forged frame consumed a shipped frame's in-flight
    // slot and could terminate the run early with a forged-quiescent
    // outcome; now the accounting only trusts dst's own relay.
    let n = 5;
    let plan = mediator_plan(n);
    let hub = MemTransport::new();
    let service = Service::start(Box::new(hub.listener()));
    let handle = service.host_plan(21, &plan, SchedulerKind::Random, 1);

    let relays: Vec<_> = (0..plan.processes())
        .map(|player| {
            let mut client = Client::<MedMsg>::mem(&hub);
            std::thread::spawn(move || {
                client.attach(21, player).expect("attach");
                client.relay()
            })
        })
        .collect();
    let mut attacker = Client::<MedMsg>::mem(&hub);
    for _ in 0..32 {
        attacker
            .send(&Frame::Msg {
                session: 21,
                src: 1,
                dst: 3,
                msg: mediator_core::MedMsg::Gossip { payload: vec![] },
                auth: None,
            })
            .expect("forged frame accepted onto the wire");
    }
    drop(attacker);

    let outcome = handle.outcome().expect("run completes despite forgeries");
    let local = plan.run_with(&SchedulerKind::Random, 1);
    assert_outcome_parity(&local, &outcome, n, "forged gossip");
    for relay in relays {
        assert!(relay.join().expect("relay thread").is_ok());
    }
    service.shutdown();
}

#[test]
fn forged_out_of_range_msg_is_rejected_not_a_panic() {
    // A hostile-but-well-formed Msg frame naming a process outside the
    // session's world must bounce at the routing layer — reaching
    // World::inject would panic the pump and hang every relay.
    let plan = majority_plan(5);
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), quick_cfg());
    let handle = service.host_plan(5, &plan, SchedulerKind::Fifo, 0);

    let mut attacker = Client::<CtMsg>::mem(&hub);
    attacker
        .send(&Frame::Msg {
            session: 5,
            src: 999,
            dst: 0,
            msg: CtMsg::Finished,
            auth: None,
        })
        .expect("send forged frame");
    assert_eq!(
        attacker.relay(),
        Err(NetError::Rejected {
            session: 5,
            reason: RejectReason::PlayerOutOfRange
        })
    );
    // The pump survived the forgery: it fails for the mundane reason
    // (nobody attached), not by panicking into ServiceGone.
    assert_eq!(
        handle.outcome().expect_err("no players ever attached"),
        NetError::AttachTimeout {
            session: 5,
            attached: 0,
            expected: 5
        }
    );
    service.shutdown();
}

#[test]
fn duplicate_session_id_is_refused_without_clobbering_the_live_one() {
    let plan = majority_plan(5);
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), quick_cfg());
    let first = service.host_plan(11, &plan, SchedulerKind::Fifo, 0);
    let second = service.host_plan(11, &plan, SchedulerKind::Fifo, 1);
    assert_eq!(
        second.outcome().expect_err("id is taken"),
        NetError::SessionIdTaken { session: 11 }
    );
    // The live session's routing was not clobbered: it still accepts an
    // attach and then fails for its own mundane reason (barrier timeout),
    // not ServiceGone.
    let mut relay = Client::<CtMsg>::mem(&hub);
    relay.attach(11, 0).expect("attach to the live session");
    assert_eq!(
        first.outcome().expect_err("only one of five attached"),
        NetError::AttachTimeout {
            session: 11,
            attached: 1,
            expected: 5
        }
    );
    assert_eq!(relay.relay(), Err(NetError::Aborted { session: 11 }));
    service.shutdown();
}

/// A one-process world that moves and halts on its start signal: hosted
/// with `processes = 1` it runs to its outcome the moment its single relay
/// attaches, with no message ever crossing the wire.
fn solo_session() -> Session<CtMsg> {
    struct Solo;
    impl Process<CtMsg> for Solo {
        fn on_start(&mut self, ctx: &mut Ctx<CtMsg>) {
            ctx.make_move(1);
            ctx.halt();
        }
        fn on_message(&mut self, _src: usize, _msg: CtMsg, _ctx: &mut Ctx<CtMsg>) {}
    }
    let world = World::new(vec![Box::new(Solo) as Box<dyn Process<CtMsg>>], 0);
    Session::new(world, SchedulerKind::Fifo.build(), 1_000)
}

#[test]
fn an_attach_sent_after_host_returns_always_finds_the_session() {
    // The ordering `host` promises: once it has returned, the session is
    // there for any frame sent afterwards. With no grace window to hide
    // behind, an attach that lost a race with its own `Host` command
    // would be answered `Reject { UnknownSession }` at once.
    let hub = MemTransport::new();
    let service = Service::<CtMsg>::with_config(
        Box::new(hub.listener()),
        ServiceConfig {
            attach_grace: Duration::ZERO,
            ..quick_cfg()
        },
    );
    // One connection for every session, and a dead-on-arrival frame ahead
    // of each `host`, so the reactor is as likely as it can be made to be
    // in the middle of a wake-up — already past its command drain,
    // reading this very connection — when the command and attach land.
    let mut client = Client::<CtMsg>::mem(&hub);
    for id in 0..300u64 {
        client.send(&Frame::Abort { session: id }).expect("noise");
        let handle = service.host(id, 1, solo_session);
        client.attach(id, 0).expect("send attach");
        match client.recv().expect("an answer to the attach") {
            Frame::Outcome { session, .. } => assert_eq!(session, id),
            other => panic!("session {id}: attach answered with {other:?}"),
        }
        let outcome = handle.outcome().expect("solo session completes");
        assert_eq!(outcome.termination, TerminationKind::Quiescent);
    }
    service.shutdown();
}

#[test]
fn a_dead_reactor_answers_every_host_with_service_gone() {
    // `open` runs on the reactor thread, so a panicking `open` kills the
    // reactor. Commands queued behind it, and every command posted later,
    // must resolve to `ServiceGone` — not wait on a queue nobody drains.
    let hub = MemTransport::new();
    let service = Service::<CtMsg>::with_config(Box::new(hub.listener()), quick_cfg());
    let doomed = service.host(1, 5, || panic!("open() failed on the reactor thread"));
    let queued = service.host(2, 1, solo_session);
    assert_eq!(
        doomed.outcome().expect_err("the reactor died opening it"),
        NetError::ServiceGone
    );
    let late = service.host(3, 1, solo_session);

    // Bounded waits: before the command queue became a channel the
    // reactor owns, the first of these blocked forever.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(Some(queued.outcome().expect_err("queued behind the panic")));
        let _ = tx.send(Some(late.outcome().expect_err("posted to a dead reactor")));
        service.shutdown();
        let _ = tx.send(None);
    });
    let wait = Duration::from_secs(5);
    assert_eq!(
        rx.recv_timeout(wait),
        Ok(Some(NetError::ServiceGone)),
        "queued"
    );
    assert_eq!(
        rx.recv_timeout(wait),
        Ok(Some(NetError::ServiceGone)),
        "late"
    );
    assert_eq!(rx.recv_timeout(wait), Ok(None), "shutdown returns");
}

#[test]
fn vanishing_relay_with_traffic_in_flight_is_fatal_and_typed() {
    let plan = majority_plan(5);
    let hub = MemTransport::new();
    let service = Service::with_config(
        Box::new(hub.listener()),
        ServiceConfig {
            idle_timeout: Duration::from_secs(20),
            ..quick_cfg()
        },
    );
    let handle = service.host_plan(3, &plan, SchedulerKind::Random, 2);

    // Players 1..5 relay faithfully.
    let relays: Vec<_> = (1..5)
        .map(|player| {
            let mut client = Client::<CtMsg>::mem(&hub);
            std::thread::spawn(move || {
                client.attach(3, player).expect("attach");
                client.relay()
            })
        })
        .collect();
    // Player 0's relay swallows one message and dies: that frame is in
    // flight forever, so the pump must fail with the precise culprit.
    let mut defector = Client::<CtMsg>::mem(&hub);
    defector.attach(3, 0).expect("attach");
    loop {
        match defector.recv().expect("a frame for player 0") {
            Frame::Msg { .. } => break, // swallowed; now vanish
            _ => continue,
        }
    }
    drop(defector);

    assert_eq!(
        handle
            .outcome()
            .expect_err("a vanished relay must be fatal"),
        NetError::PeerVanished {
            session: 3,
            player: 0
        }
    );
    for relay in relays {
        assert_eq!(
            relay.join().expect("relay thread"),
            Err(NetError::Aborted { session: 3 })
        );
    }
    service.shutdown();
}
