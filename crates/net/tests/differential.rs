//! Differential suite: hosted sessions against literal expectations.
//!
//! A networked run is held to two references. Outcomes must agree in
//! *kind* with the in-process `plan.run_with(..)` — same termination,
//! same resolved profile — over both transports. And every abnormal end
//! must carry its exact typed owner: `AttachTimeout`, `PeerVanished`,
//! both `Rejected` reasons, and `AuthFailure { BadMac }`, each asserted
//! against a literal value with the relays' own view (`Aborted`,
//! `Rejected`) checked alongside. A slow-loris test closes the file: a
//! peer dribbling one byte at a time must stall nobody but itself. (The
//! byte-level reference — a recorded run replayed in-process to an
//! identical trace — lives in `crates/store/tests/replay.rs`.)

use mediator_circuits::catalog;
use mediator_core::cheap_talk::CtMsg;
use mediator_core::scenario::{CheapTalkPlan, Scenario};
use mediator_field::Fp;
use mediator_net::{
    Client, Frame, MemTransport, NetError, RejectReason, Service, ServiceConfig, SessionHandle,
    TcpTransport, Wire, WIRE_VERSION,
};
use mediator_sim::{Outcome, SchedulerKind, TerminationKind};
use std::time::Duration;

fn majority_plan(n: usize) -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n = 5 > 4k+4t = 4")
}

/// Hosts one plan cell through the closure entry (`Service::host`), so
/// the suite covers it next to the `host_plan` path the other suites use.
fn host(
    service: &Service<CtMsg>,
    id: u64,
    plan: &CheapTalkPlan,
    kind: SchedulerKind,
    seed: u64,
) -> SessionHandle {
    let plan = plan.clone();
    service.host(id, 5, move || plan.session_with(&kind, seed))
}

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

fn quick_cfg() -> ServiceConfig {
    ServiceConfig {
        idle_timeout: Duration::from_secs(5),
        attach_timeout: Duration::from_millis(400),
        attach_grace: Duration::from_millis(100),
        ..ServiceConfig::default()
    }
}

#[test]
fn concurrent_sessions_agree_with_in_process_outcomes_over_mem() {
    let n = 5;
    let plan = majority_plan(n);
    let hub = MemTransport::new();
    let service = Service::start(Box::new(hub.listener()));

    // Six sessions live at once on the one reactor, two per seed.
    let mut handles = Vec::new();
    for seed in 0..3u64 {
        for id in [seed, 100 + seed] {
            handles.push((seed, host(&service, id, &plan, SchedulerKind::Random, seed)));
        }
    }
    let relays: Vec<_> = handles
        .iter()
        .flat_map(|(_, h)| (0..n).map(move |player| (h.id(), player)))
        .map(|(sid, player)| {
            let mut client = Client::<CtMsg>::mem(&hub);
            std::thread::spawn(move || {
                client.attach(sid, player).expect("attach");
                client.relay().expect("relay")
            })
        })
        .collect();

    for (seed, handle) in handles {
        let label = format!("session {} (seed {seed})", handle.id());
        let local = plan.run_with(&SchedulerKind::Random, seed);
        let outcome = handle.outcome().expect("networked run completes");
        assert_outcome_parity(&local, &outcome, n, &label);
    }
    for relay in relays {
        let summary = relay.join().expect("relay thread");
        assert_eq!(summary.termination, TerminationKind::Quiescent);
    }
    service.shutdown();
}

#[test]
fn concurrent_sessions_agree_with_in_process_outcomes_over_tcp() {
    let n = 5;
    let plan = majority_plan(n);
    let transport = TcpTransport::bind_loopback().expect("bind");
    let addr = transport.addr();
    let service = Service::start(Box::new(transport));

    let first = host(&service, 1, &plan, SchedulerKind::Fifo, 0);
    let second = host(&service, 2, &plan, SchedulerKind::Fifo, 0);
    let relays: Vec<_> = [1u64, 2]
        .into_iter()
        .flat_map(|sid| (0..n).map(move |player| (sid, player)))
        .map(|(sid, player)| {
            std::thread::spawn(move || {
                let mut client = Client::<CtMsg>::tcp(addr).expect("connect");
                client.attach(sid, player).expect("attach");
                client.relay().expect("relay")
            })
        })
        .collect();

    let local = plan.run_with(&SchedulerKind::Fifo, 0);
    for (label, handle) in [("tcp session 1", first), ("tcp session 2", second)] {
        let outcome = handle.outcome().expect("networked run completes");
        assert_outcome_parity(&local, &outcome, n, label);
    }
    for relay in relays {
        relay.join().expect("relay thread");
    }
    service.shutdown();
}

#[test]
fn attach_timeout_names_how_many_attached() {
    let plan = majority_plan(5);
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), quick_cfg());
    let handle = host(&service, 8, &plan, SchedulerKind::Fifo, 0);

    // Exactly one of five players attaches: the barrier must fail with
    // its typed owner, and the attached relay must learn via Abort, not
    // a hang.
    let mut lone = Client::<CtMsg>::mem(&hub);
    lone.attach(8, 2).expect("attach");
    assert_eq!(
        handle.outcome().expect_err("attach barrier must time out"),
        NetError::AttachTimeout {
            session: 8,
            attached: 1,
            expected: 5
        }
    );
    assert_eq!(lone.relay(), Err(NetError::Aborted { session: 8 }));
    service.shutdown();
}

#[test]
fn vanishing_relay_names_the_player_that_owes_frames() {
    let plan = majority_plan(5);
    let hub = MemTransport::new();
    let service = Service::with_config(
        Box::new(hub.listener()),
        ServiceConfig {
            idle_timeout: Duration::from_secs(20),
            ..quick_cfg()
        },
    );
    let handle = host(&service, 3, &plan, SchedulerKind::Random, 2);

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
    // flight forever, so the session must name the culprit.
    let mut defector = Client::<CtMsg>::mem(&hub);
    defector.attach(3, 0).expect("attach");
    loop {
        match defector.recv().expect("a frame for player 0") {
            Frame::Msg { .. } => break,
            _ => continue,
        }
    }
    drop(defector);

    assert_eq!(
        handle.outcome().expect_err("a vanished relay is fatal"),
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

#[test]
fn slow_loris_partial_frames_stall_nobody() {
    // A peer dribbling an Attach frame one byte at a time across the
    // whole run: with per-connection incremental parsing the partial
    // frame just sits in that connection's read buffer. In a shared
    // event loop this test is load-bearing — one stalled peer must not
    // stall the loop.
    let n = 5;
    let plan = majority_plan(n);
    let transport = TcpTransport::bind_loopback().expect("bind");
    let addr = transport.addr();
    let service = Service::with_config(Box::new(transport), quick_cfg());
    let handle = service.host_plan(1, &plan, SchedulerKind::Fifo, 0);

    // The loris: a well-formed Attach for an unknown session, trickled.
    let loris = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let mut sock = std::net::TcpStream::connect(addr).expect("loris connect");
        let mut body = vec![WIRE_VERSION, 0u8];
        999u64.encode(&mut body);
        7usize.encode(&mut body);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        for byte in frame {
            sock.write_all(&[byte]).expect("dribble");
            sock.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The frame finally parsed: session 999 was never hosted, so
        // after the grace window the service answers with a typed Reject
        // on this same connection.
        let mut len = [0u8; 4];
        sock.read_exact(&mut len).expect("reject frame length");
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        sock.read_exact(&mut body).expect("reject frame body");
        assert_eq!(body[0], WIRE_VERSION);
        assert_eq!(body[1], 3, "tag must be Reject");
    });

    // Meanwhile the healthy session proceeds at full speed.
    let relays: Vec<_> = (0..n)
        .map(|player| {
            std::thread::spawn(move || {
                let mut client = Client::<CtMsg>::tcp(addr).expect("connect");
                client.attach(1, player).expect("attach");
                client.relay().expect("relay")
            })
        })
        .collect();
    let outcome = handle
        .outcome()
        .expect("healthy session unaffected by the loris");
    assert_eq!(outcome.termination, TerminationKind::Quiescent);
    for relay in relays {
        relay.join().expect("relay thread");
    }
    loris.join().expect("loris thread");
    service.shutdown();
}

#[test]
fn rejection_reasons_are_typed_and_leave_the_session_live() {
    let plan = majority_plan(5);
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), quick_cfg());
    let handle = host(&service, 7, &plan, SchedulerKind::Fifo, 0);

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
    assert_eq!(
        handle.outcome().expect_err("barrier times out"),
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
fn a_rewriting_relay_is_owned_by_auth_failure_bad_mac() {
    // MAC verification lives in the reactor's single parse site and
    // freshness in the session's flight state; a relay rewriting opening
    // values against an authenticated config must end the target with
    // exactly this typed verdict and leave its neighbor alone.
    use mediator_core::adversary::{Window, OPEN_LIE_OFFSET};
    use mediator_net::tamper::{
        run_tampered_pair, TamperPlan, TransportKind, WireTactic, TARGET_SID,
    };
    use mediator_net::{AuthKey, TamperKind};

    let plan = majority_plan(5);
    let pair = run_tampered_pair(
        &plan,
        TransportKind::Mem,
        quick_cfg().with_auth(AuthKey::from_seed(7)),
        TamperPlan::against(TARGET_SID).tactic(
            Window::all(),
            WireTactic::Rewrite {
                offset: OPEN_LIE_OFFSET,
            },
        ),
        SchedulerKind::Fifo,
        0,
    );
    match pair.target {
        Err(NetError::AuthFailure { session, kind, .. }) => {
            assert_eq!((session, kind), (TARGET_SID, TamperKind::BadMac))
        }
        other => panic!("expected AuthFailure, got {other:?}"),
    }
    assert!(pair.honest.is_ok(), "honest neighbor unaffected");
}
