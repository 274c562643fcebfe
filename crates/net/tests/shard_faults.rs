//! Fault injection against the sharding plane: killed workers, muted
//! workers, swallowed results, duplicate results. In every scenario the
//! coordinator must (a) absorb the fault under its **typed owner**
//! ([`NetError::PeerVanished`] / [`NetError::IdleTimeout`] /
//! ledger-discarded duplicates), (b) re-lease rather than lose the unit,
//! and (c) render a verdict **identical to the clean local sweep** — a
//! fault may cost wall-clock, never statistics.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use mediator_circuits::catalog;
use mediator_core::scenario::Scenario;
use mediator_core::{run_sweep_unit, sweep_units, Conformance, ConformanceReport, SweepUnit};
use mediator_field::Fp;
use mediator_games::library;
use mediator_net::shard::{ShardListener, ShardLog};
use mediator_net::{
    coordinate, duplex, run_worker, worker_mem, ConnPair, Frame, FramedRx, FramedTx, MemTransport,
    NetError, ShardConfig,
};
use mediator_sim::SchedulerKind;

/// The Theorem 4.1 resilient point (the repo's pinned cheap-talk sweep):
/// small enough that a debug-mode fault test finishes fast, pinned enough
/// that "the verdict did not change" means something.
fn thm41() -> (
    mediator_core::scenario::CheapTalkPlan,
    mediator_games::BayesianGame,
    Vec<usize>,
    Conformance,
) {
    let n = 5;
    let game = library::byzantine_agreement_game(n);
    let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("5 > 4");
    let conf = Conformance::new(0.05, 1, 0)
        .battery(vec![SchedulerKind::Random])
        .seeds(3)
        .coalitions(vec![vec![1], vec![3]]);
    (plan, game, vec![1usize; n], conf)
}

/// Faulted runs must not disturb the statistics: same rendered JSON, the
/// same report at full precision (`{:?}` prints every float exactly), same
/// per-cell sample counts (nothing double-counted, nothing dropped).
fn assert_verdict_unchanged(local: &ConformanceReport, faulted: &ConformanceReport) {
    assert_eq!(local.to_json(), faulted.to_json());
    assert_eq!(format!("{local:?}"), format!("{faulted:?}"));
    for (a, b) in local.baseline.iter().zip(&faulted.baseline) {
        assert_eq!(a.samples, b.samples, "baseline cells double-counted");
    }
    for (a, b) in local.cells.iter().zip(&faulted.cells) {
        assert_eq!(a.gain.samples, b.gain.samples, "sweep cells double-counted");
    }
}

/// Runs `coordinate` on its own thread against a mem hub, returning the
/// hub plus the coordinator's join handle.
#[allow(clippy::type_complexity)]
fn spawn_coordinator(
    cfg: ShardConfig,
) -> (
    MemTransport,
    thread::JoinHandle<(ConformanceReport, ShardLog)>,
) {
    let hub = MemTransport::new();
    let dial = hub.clone();
    let handle = thread::spawn(move || {
        let (plan, game, types, conf) = thm41();
        let listener = ShardListener::mem(&dial);
        coordinate(&listener, &plan, &game, &types, &conf, &cfg)
    });
    (hub, handle)
}

/// A hand-rolled defector: connects, requests one lease, reports the
/// granted unit id on `tell`, then misbehaves per `after`.
fn defect_one_lease(
    hub: &MemTransport,
    worker: u64,
    tell: mpsc::Sender<u64>,
    after: impl FnOnce(u64, ConnPair<u64>) + Send + 'static,
) -> thread::JoinHandle<()> {
    let hub = hub.clone();
    thread::spawn(move || {
        let (mut tx, mut rx) = hub.connect::<u64>();
        tx.send(&Frame::ShardRequest { worker }).expect("request");
        let unit = match rx.recv().expect("grant") {
            Frame::ShardGrant { unit, .. } => unit,
            other => panic!("expected a grant, got {other:?}"),
        };
        tell.send(unit).expect("report granted unit");
        after(unit, (tx, rx));
    })
}

#[test]
fn killed_worker_mid_lease_is_reclaimed_as_peer_vanished() {
    let (plan, game, types, conf) = thm41();
    let local = plan.conformance(&game, &types, &conf);
    let cfg = ShardConfig::default().lease_deadline(Duration::from_secs(60));
    let (hub, coordinator) = spawn_coordinator(cfg.clone());

    // The defector takes a lease first, then its connection dies.
    let (tell, told) = mpsc::channel();
    let killed = defect_one_lease(&hub, 42, tell, |_, conn| drop(conn));
    let unit = told.recv().expect("defector got a lease");
    killed.join().expect("defector exits");

    // An honest worker drains the rest (the reclaimed unit included).
    let honest = {
        let hub = hub.clone();
        let plan = plan.clone();
        let conf = conf.clone();
        let cfg = cfg.clone();
        thread::spawn(move || worker_mem(&hub, 1, &plan, &conf, &cfg))
    };
    let (report, log) = coordinator.join().expect("coordinator");
    let served = honest.join().expect("honest worker").expect("drained");

    assert_verdict_unchanged(&local, &report);
    assert!(
        log.failures.contains(&NetError::PeerVanished {
            session: unit,
            player: 42,
        }),
        "vanish owner missing: {:?}",
        log.failures
    );
    assert_eq!(log.releases, 1, "exactly the killed lease was re-leased");
    assert_eq!(log.discarded, 0);
    assert_eq!(served, log.units as u64, "honest worker re-ran the unit");
}

#[test]
fn muted_worker_lease_lapses_into_idle_timeout() {
    let (plan, game, types, conf) = thm41();
    let local = plan.conformance(&game, &types, &conf);
    // Short deadline: the muted lease must lapse quickly.
    let cfg = ShardConfig::default().lease_deadline(Duration::from_millis(150));
    let (hub, coordinator) = spawn_coordinator(cfg.clone());

    // The mute takes a lease and then holds the line silently until the
    // coordinator drains it.
    let (tell, told) = mpsc::channel();
    let mute = defect_one_lease(&hub, 7, tell, |_, (_tx, mut rx)| loop {
        match rx.recv() {
            Ok(Frame::ShardDrain) | Err(_) => return,
            Ok(_) => {}
        }
    });
    let unit = told.recv().expect("mute got a lease");

    let honest = {
        let hub = hub.clone();
        let plan = plan.clone();
        let conf = conf.clone();
        let cfg = cfg.clone();
        thread::spawn(move || worker_mem(&hub, 1, &plan, &conf, &cfg))
    };
    let (report, log) = coordinator.join().expect("coordinator");
    honest.join().expect("honest worker").expect("drained");
    mute.join().expect("mute exits on drain");

    assert_verdict_unchanged(&local, &report);
    assert!(
        log.failures.contains(&NetError::IdleTimeout {
            session: unit,
            in_flight: 1,
        }),
        "expiry owner missing: {:?}",
        log.failures
    );
    assert!(log.releases >= 1, "the lapsed lease was re-leased");
}

#[test]
fn duplicate_result_is_discarded_not_double_counted() {
    let (plan, game, types, conf) = thm41();
    let local = plan.conformance(&game, &types, &conf);
    let cfg = ShardConfig::default().lease_deadline(Duration::from_secs(60));
    let (hub, coordinator) = spawn_coordinator(cfg.clone());

    // The duplicator serves its one unit correctly — twice.
    let (tell, told) = mpsc::channel();
    let dup = {
        let plan = plan.clone();
        let conf = conf.clone();
        defect_one_lease(&hub, 9, tell, move |unit, (mut tx, mut rx)| {
            // Rebuild the unit recipe exactly as a worker would.
            let units = sweep_units(&plan, &conf);
            let recipe: &SweepUnit = &units[unit as usize];
            let profiles = run_sweep_unit(&plan, recipe, &conf).expect("known strategy");
            for _ in 0..2 {
                tx.send(&Frame::ShardResult {
                    unit,
                    worker: 9,
                    profiles: profiles.clone(),
                    auth: None,
                })
                .expect("send result");
            }
            // Stay polite afterwards: wait for the drain.
            loop {
                match rx.recv() {
                    Ok(Frame::ShardDrain) | Err(_) => return,
                    Ok(_) => {}
                }
            }
        })
    };
    told.recv().expect("duplicator got a lease");

    let honest = {
        let hub = hub.clone();
        let plan = plan.clone();
        let conf = conf.clone();
        let cfg = cfg.clone();
        thread::spawn(move || worker_mem(&hub, 1, &plan, &conf, &cfg))
    };
    let (report, log) = coordinator.join().expect("coordinator");
    honest.join().expect("honest worker").expect("drained");
    dup.join().expect("duplicator exits on drain");

    assert_verdict_unchanged(&local, &report);
    assert_eq!(log.discarded, 1, "the duplicate was discarded");
    assert_eq!(log.releases, 0, "nothing needed re-leasing");
    assert!(
        log.failures.is_empty(),
        "a duplicate is not a typed failure"
    );
}

#[test]
fn byte_proxy_swallowing_results_costs_time_not_statistics() {
    // The tamper-relay tactic pointed at the shard plane: a Byzantine
    // byte proxy sits between an honest worker and the coordinator and
    // swallows every `ShardResult` frame (kind byte 7 under either wire
    // version) while passing the rest verbatim. Every lease the proxied
    // worker serves lapses; the clean worker re-runs them all.
    let (plan, game, types, conf) = thm41();
    let local = plan.conformance(&game, &types, &conf);
    let cfg = ShardConfig::default().lease_deadline(Duration::from_millis(150));
    let (hub, coordinator) = spawn_coordinator(cfg.clone());

    // Build the proxied path: worker ⇄ duplex ⇄ proxy threads ⇄ hub.
    let (coord_w, coord_r) = hub.connect_raw();
    let ((wk_w, wk_r), (px_w, px_r)) = duplex();
    // Upstream leg (worker → coordinator): parse length-prefixed frames,
    // drop results, forward everything else byte-for-byte.
    thread::spawn(move || {
        use std::io::{Read, Write};
        let mut from = px_r;
        let mut to = coord_w;
        loop {
            let mut len4 = [0u8; 4];
            if from.read_exact(&mut len4).is_err() {
                return;
            }
            let len = u32::from_le_bytes(len4) as usize;
            let mut body = vec![0u8; len];
            if from.read_exact(&mut body).is_err() {
                return;
            }
            let is_result = body.len() >= 2 && body[1] == 7;
            if !is_result
                && (to.write_all(&len4).is_err()
                    || to.write_all(&body).is_err()
                    || to.flush().is_err())
            {
                return;
            }
        }
    });
    // Downstream leg (coordinator → worker): verbatim copy.
    thread::spawn(move || {
        let mut from = coord_r;
        let mut to = px_w;
        let _ = std::io::copy(&mut from, &mut to);
    });

    let proxied = {
        let plan = plan.clone();
        let conf = conf.clone();
        let cfg = cfg.clone();
        thread::spawn(move || {
            run_worker(
                FramedTx::new(wk_w),
                FramedRx::new(wk_r),
                66,
                &plan,
                &conf,
                &cfg,
            )
        })
    };
    let honest = {
        let hub = hub.clone();
        let plan = plan.clone();
        let conf = conf.clone();
        let cfg = cfg.clone();
        thread::spawn(move || worker_mem(&hub, 1, &plan, &conf, &cfg))
    };

    let (report, log) = coordinator.join().expect("coordinator");
    honest.join().expect("honest worker").expect("drained");
    // The proxied worker drains cleanly too — grants and the drain frame
    // travel downstream untouched.
    proxied.join().expect("proxied worker").expect("drained");

    assert_verdict_unchanged(&local, &report);
    assert!(
        log.failures
            .iter()
            .any(|f| matches!(f, NetError::IdleTimeout { in_flight: 1, .. })),
        "swallowed results must lapse as IdleTimeout: {:?}",
        log.failures
    );
    assert!(log.releases >= 1);
}
