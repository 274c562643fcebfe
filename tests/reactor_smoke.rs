//! Tier-1 smoke for the reactor service: many concurrent sessions on the
//! in-memory transport, every one of them driven by the single reactor
//! thread, with one `bulk_relay` connection carrying every player of
//! every session. Run at 128 and at 1024 sessions: these are echo
//! sessions (about 3k frames at the larger count), cheap in a debug
//! build, and the only place more than 128 sessions share one reactor in
//! tier-1. `benchmark/` prices the same shape with real cheap-talk
//! sessions, up to 256 in flight (`net.svc_sessions_per_s_c1` … `_c256`).

use mediator_talk::net::{bulk_relay, MemTransport, Service};
use mediator_talk::sim::{Ctx, Process, SchedulerKind, Session, TerminationKind, World};

/// A three-process echo clique: the leader opens with one message per
/// process; everyone answers the first message with a move and halts.
struct Echoer {
    n: usize,
    leader: bool,
}

impl Process<u64> for Echoer {
    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        if self.leader {
            for d in 0..self.n {
                ctx.send(d, 40 + d as u64);
            }
        }
    }
    fn on_message(&mut self, _src: usize, msg: u64, ctx: &mut Ctx<u64>) {
        ctx.make_move(msg);
        ctx.halt();
    }
}

fn echo_session(n: usize, seed: u64) -> Session<u64> {
    let procs: Vec<Box<dyn Process<u64>>> = (0..n)
        .map(|p| Box::new(Echoer { n, leader: p == 0 }) as Box<dyn Process<u64>>)
        .collect();
    Session::new(World::new(procs, seed), SchedulerKind::Fifo.build(), 10_000)
}

/// Hosts `sessions` echo sessions on one reactor and relays for all of
/// their players over one connection from one client thread.
fn reactor_hosts_on_one_thread(sessions: u64) {
    const N: usize = 3;

    let hub = MemTransport::new();
    let service = Service::<u64>::start(Box::new(hub.listener()));
    let handles: Vec<_> = (0..sessions)
        .map(|sid| service.host(sid, N, move || echo_session(N, sid)))
        .collect();

    let attaches: Vec<_> = (0..sessions)
        .flat_map(|sid| (0..N).map(move |player| (sid, player)))
        .collect();
    let (tx, rx) = hub.connect_raw();
    let relay = std::thread::spawn(move || {
        bulk_relay(rx, tx, &attaches, sessions as usize).expect("bulk relay")
    });

    for handle in handles {
        let sid = handle.id();
        let outcome = handle
            .outcome()
            .unwrap_or_else(|e| panic!("session {sid}: {e}"));
        assert_eq!(outcome.termination, TerminationKind::Quiescent);
        assert_eq!(
            outcome.moves,
            (0..N).map(|d| Some(40 + d as u64)).collect::<Vec<_>>(),
            "session {sid}: echoed moves"
        );
    }
    let summaries = relay.join().expect("relay thread");
    assert_eq!(summaries.len(), sessions as usize);
    assert!(summaries
        .iter()
        .all(|(_, s)| s.termination == TerminationKind::Quiescent));
    service.shutdown();
}

#[test]
fn reactor_hosts_128_sessions_on_one_thread() {
    reactor_hosts_on_one_thread(128);
}

#[test]
fn reactor_hosts_1024_sessions_on_one_thread() {
    reactor_hosts_on_one_thread(1024);
}
