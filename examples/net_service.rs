//! A cheap-talk game over real TCP sockets (DESIGN.md §9).
//!
//! The sans-IO state machines never notice: the service hosts the session,
//! drains its outbox onto the wire, and re-injects frames as the network
//! hands them back. Five relay clients — one real TCP connection per
//! player, on an ephemeral loopback port — *are* the network: the
//! interleaving of their round trips is the delivery order, which is
//! exactly an adversarial scheduler in the paper's §2 sense. Theorem 4.1
//! says the outcome doesn't care; this example watches that happen.
//!
//! Everything the service does — accepting these connections, parsing
//! frames, advancing the hosted session, flushing replies — runs on one
//! reactor thread; the closing act scales that thread to 256 concurrent
//! sessions fed by a single `bulk_relay` connection.
//!
//! ```sh
//! cargo run --example net_service
//! ```

use mediator_talk::core::CtMsg;
use mediator_talk::prelude::*;
use std::thread;

fn main() {
    let n = 5;
    let votes = [1u64, 0, 1, 1, 0];
    println!("player votes: {votes:?} (majority = 1)");

    let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0) // Theorem 4.1: n = 5 > 4k+4t = 4 ✓
        .inputs(votes.iter().map(|&b| vec![Fp::new(b)]).collect())
        .build()
        .expect("threshold satisfied");

    // Reference point: the same plan, in-process.
    let local = plan.run_with(&SchedulerKind::Random, 7);
    println!(
        "in-process run: {} messages, {} steps, profile {:?}",
        local.messages_sent,
        local.steps,
        local.resolve_default(&vec![0; n])
    );

    // The server side: a service on an ephemeral loopback port (always
    // port 0 — never a fixed number), hosting this plan as session 1.
    let transport = TcpTransport::bind_loopback().expect("bind 127.0.0.1:0");
    let addr = transport.addr();
    println!("service listening on {addr}");
    let service = Service::start(Box::new(transport));
    let handle = service.host_plan(1, &plan, SchedulerKind::Random, 7);

    // The client side: one TCP connection per player. Each relay completes
    // the network leg of every message addressed to its player.
    let relays: Vec<_> = (0..n)
        .map(|player| {
            thread::spawn(move || {
                let mut client = Client::<CtMsg>::tcp(addr).expect("dial service");
                client.attach(1, player).expect("attach");
                let summary = client.relay().expect("relay to completion");
                (player, summary)
            })
        })
        .collect();

    let outcome = handle.outcome().expect("networked run completes");
    println!(
        "networked run:  {} messages over TCP, {} steps, profile {:?} ({:?})",
        outcome.messages_sent,
        outcome.steps,
        outcome.resolve_default(&vec![0; n]),
        outcome.termination,
    );

    for relay in relays {
        let (player, summary) = relay.join().expect("relay thread");
        println!(
            "  relay for player {player}: saw termination {:?}, move {:?}",
            summary.termination, summary.moves[player]
        );
    }

    // Theorem 4.1 in action: the network reordered everything, the
    // outcome didn't budge.
    assert_eq!(
        outcome.resolve_default(&vec![0; n]),
        local.resolve_default(&vec![0; n]),
        "outcome-kind parity between wire and in-process runs"
    );
    println!("wire and in-process runs agree on the action profile ✓");

    service.shutdown();

    // The reactor at scale: 256 concurrent sessions of the same plan on
    // ONE service thread, with ONE bulk-relay connection (and one client
    // thread) carrying all 1280 players — content-blind byte echo, no
    // per-player sockets, no per-session threads.
    let sessions = 256u64;
    let hub = MemTransport::new();
    let service = Service::start(Box::new(hub.listener()));
    let handles: Vec<_> = (0..sessions)
        .map(|sid| service.host_plan(sid, &plan, SchedulerKind::Random, sid))
        .collect();
    let attaches: Vec<(u64, usize)> = (0..sessions)
        .flat_map(|sid| (0..n).map(move |p| (sid, p)))
        .collect();
    let (tx, rx) = hub.connect_raw();
    let relay = thread::spawn(move || {
        mediator_talk::net::bulk_relay(rx, tx, &attaches, sessions as usize).expect("bulk relay")
    });
    let started = std::time::Instant::now();
    for handle in handles {
        let sid = handle.id();
        let out = handle
            .outcome()
            .unwrap_or_else(|e| panic!("session {sid}: {e}"));
        assert_eq!(
            out.resolve_default(&vec![0; n]),
            local.resolve_default(&vec![0; n]),
            "session {sid}: outcome-kind parity at scale"
        );
    }
    let elapsed = started.elapsed();
    assert_eq!(relay.join().expect("relay thread").len(), sessions as usize);
    service.shutdown();
    println!(
        "reactor hosted {sessions} concurrent sessions on one thread in \
         {elapsed:.1?} ({:.2?}/session) ✓",
        elapsed / sessions as u32
    );
}
