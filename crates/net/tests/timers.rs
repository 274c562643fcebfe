//! The reactor's timer heap under session churn.
//!
//! Every hosted session leaves an attach entry and an idle entry in the
//! reactor's timer heap. Once the session finishes they are dead, and the
//! reactor drops them when they outnumber the live ones, so the heap does
//! not grow with sessions per second. Dropping must spare the entries of
//! sessions still running: a session that idles and one that never fills
//! its attach barrier must still end in their typed owners after the heap
//! was compacted around them.

use mediator_circuits::catalog;
use mediator_core::cheap_talk::CtMsg;
use mediator_core::scenario::{CheapTalkPlan, Scenario};
use mediator_field::Fp;
use mediator_net::{
    bulk_relay, Client, Frame, MemTransport, NetError, Service, ServiceConfig, SessionHandle,
};
use mediator_sim::SchedulerKind;
use std::sync::mpsc;
use std::time::Duration;

const N: usize = 5;

fn majority_plan() -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .build()
        .expect("n = 5 > 4k+4t = 4")
}

/// The session's result, or `None` if nothing ended it within `limit`.
fn outcome_within(handle: SessionHandle, limit: Duration) -> Option<Result<(), NetError>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(handle.outcome().map(drop)));
    rx.recv_timeout(limit).ok()
}

#[test]
fn timeouts_still_fire_after_the_heap_drops_finished_sessions() {
    let plan = majority_plan();
    let hub = MemTransport::new();
    let timeout = Duration::from_secs(3);
    let service = Service::with_config(
        Box::new(hub.listener()),
        ServiceConfig {
            idle_timeout: timeout,
            attach_timeout: timeout,
            attach_grace: Duration::from_millis(100),
            ..ServiceConfig::default()
        },
    );
    // Session 1 runs, but its relay never returns a frame: it must idle
    // out. Session 2 gets one of its five players: it must time out at
    // its attach barrier.
    let idler = service.host_plan(1, &plan, SchedulerKind::Fifo, 0);
    let mut silent = Client::<CtMsg>::mem(&hub);
    for player in 0..N {
        silent.attach(1, player).expect("attach");
    }
    while !matches!(silent.recv().expect("a shipped frame"), Frame::Msg { .. }) {}
    let lonely = service.host_plan(2, &plan, SchedulerKind::Fifo, 0);
    let mut lone = Client::<CtMsg>::mem(&hub);
    lone.attach(2, 0).expect("attach");

    // Meanwhile 48 sessions run to completion, leaving 96 dead entries:
    // enough for the heap to be compacted around the two live sessions.
    let churn: Vec<u64> = (100..148).collect();
    let handles: Vec<_> = churn
        .iter()
        .map(|&sid| service.host_plan(sid, &plan, SchedulerKind::Random, sid))
        .collect();
    let attaches: Vec<(u64, usize)> = churn
        .iter()
        .flat_map(|&sid| (0..N).map(move |p| (sid, p)))
        .collect();
    let (tx, rx) = hub.connect_raw();
    let done = bulk_relay(rx, tx, &attaches, churn.len()).expect("churn relay");
    assert_eq!(done.len(), churn.len());
    for handle in handles {
        handle.outcome().expect("churn session completes");
    }

    let limit = timeout * 4;
    let (idled, timed_out) = (outcome_within(idler, limit), outcome_within(lonely, limit));
    if idled.is_none() || timed_out.is_none() {
        // A session whose timer was lost never ends, and the service's
        // drain would wait for it forever.
        std::mem::forget(service);
        panic!("a live session's timer was lost");
    }
    assert!(matches!(
        idled,
        Some(Err(NetError::IdleTimeout { session: 1, .. }))
    ));
    assert_eq!(
        timed_out,
        Some(Err(NetError::AttachTimeout {
            session: 2,
            attached: 1,
            expected: N
        }))
    );
    drop((silent, lone));
    service.shutdown();
}
