//! Differential pin: a sharded conformance sweep must render verdicts
//! **bit-identical** to the local thread fan-out, on both transports.
//!
//! The two working points are the repo's pinned conformance scenarios:
//! Theorem 4.1's resilient point (cheap talk, n = 5 > 4k + 4t) and the
//! §6.4 sub-threshold violation (naive mediator, n = 7 ≤ 4k). For each,
//! every float the report carries — baseline CIs, per-cell gain/harm
//! intervals, the verdict's bounds — is compared by `f64::to_bits`, not
//! tolerance: workers ship resolved action profiles and the coordinator
//! re-runs the identical float pipeline, so nothing may drift.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use mediator_circuits::catalog;
use mediator_core::scenario::{GameFamily, MediatorPlan, Plan, Scenario};
use mediator_core::{
    sweep_unit_plan, sweep_units, Conformance, ConformanceReport, ConformanceVerdict, MedMsg,
};
use mediator_field::Fp;
use mediator_games::library;
use mediator_net::{
    Client, MemTransport, RunMeta, Service, ServiceConfig, ShardConfig, ShardedSweep, TraceSink,
    TransportKind,
};
use mediator_sim::{Outcome, SchedulerKind};

const BOT: u64 = library::BOTTOM as u64;

/// A generous deadline so debug-mode grid runs never lapse a lease: these
/// tests pin the *clean-path* differential; fault injection lives in
/// `shard_faults.rs`.
fn clean_cfg() -> ShardConfig {
    ShardConfig::default().lease_deadline(Duration::from_secs(60))
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Bit-level report equality: structure plus `to_bits` on every float.
fn assert_reports_identical(local: &ConformanceReport, sharded: &ConformanceReport) {
    assert_eq!(local.eps.to_bits(), sharded.eps.to_bits());
    assert_eq!(local.k, sharded.k);
    assert_eq!(local.t, sharded.t);
    assert_eq!(local.kinds, sharded.kinds);
    assert_eq!(local.seeds_per_kind, sharded.seeds_per_kind);
    assert_eq!(local.baseline.len(), sharded.baseline.len());
    for (a, b) in local.baseline.iter().zip(&sharded.baseline) {
        assert_eq!(bits(a.mean), bits(b.mean));
        assert_eq!(bits(a.lo), bits(b.lo));
        assert_eq!(bits(a.hi), bits(b.hi));
        assert_eq!(a.samples, b.samples);
    }
    assert_eq!(local.cells.len(), sharded.cells.len());
    for (a, b) in local.cells.iter().zip(&sharded.cells) {
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.coalition, b.coalition);
        assert_eq!(bits(a.gain.mean), bits(b.gain.mean));
        assert_eq!(bits(a.gain.lo), bits(b.gain.lo));
        assert_eq!(bits(a.gain.hi), bits(b.gain.hi));
        assert_eq!(bits(a.harm.mean), bits(b.harm.mean));
        assert_eq!(bits(a.harm.lo), bits(b.harm.lo));
        assert_eq!(bits(a.harm.hi), bits(b.harm.hi));
    }
    match (&local.verdict, &sharded.verdict) {
        (
            ConformanceVerdict::Resilient {
                max_gain_hi: g1,
                max_harm_hi: h1,
            },
            ConformanceVerdict::Resilient {
                max_gain_hi: g2,
                max_harm_hi: h2,
            },
        ) => {
            assert_eq!(bits(*g1), bits(*g2));
            assert_eq!(bits(*h1), bits(*h2));
        }
        (ConformanceVerdict::Violated(a), ConformanceVerdict::Violated(b)) => {
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(a.coalition, b.coalition);
            assert_eq!(a.kind, b.kind, "witness scheduler kind");
            assert_eq!(a.seed, b.seed, "witness seed");
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.run, b.run);
            assert_eq!(bits(a.gain.mean), bits(b.gain.mean));
            assert_eq!(bits(a.gain.lo), bits(b.gain.lo));
            assert_eq!(bits(a.gain.hi), bits(b.gain.hi));
            assert_eq!(a.baseline_profile, b.baseline_profile);
            assert_eq!(a.deviant_profile, b.deviant_profile);
        }
        (a, b) => panic!("verdicts diverged: local {a:?} vs sharded {b:?}"),
    }
    // Belt and braces: the rendered JSON artifacts match byte for byte,
    // and so does every field at full precision (`{:?}` prints each float
    // as the shortest decimal that round-trips, where the JSON keeps six
    // places).
    assert_eq!(local.to_json(), sharded.to_json());
    assert_eq!(format!("{local:?}"), format!("{sharded:?}"));
}

fn thm41_cheap_talk() -> (
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

fn sec64_naive_mediator() -> (
    MediatorPlan,
    mediator_games::BayesianGame,
    Vec<usize>,
    Conformance,
) {
    let n = 7;
    let (game, _, k) = library::counterexample_game(n);
    let plan = Scenario::mediator(catalog::counterexample_naive(n))
        .players(n)
        .tolerance(k, 0)
        .naive_split()
        .wills(vec![BOT; n])
        .default_actions(vec![BOT; n])
        .build()
        .expect("n − k ≥ 1");
    let conf = Conformance::new(0.01, k, 0)
        .battery(vec![SchedulerKind::Random])
        .seeds(16)
        .coalitions(vec![vec![0], vec![0, 1]])
        .deadlock_action(BOT);
    (plan, game, vec![0usize; n], conf)
}

#[test]
fn sharded_matches_local_on_the_resilient_point_mem() {
    let (plan, game, types, conf) = thm41_cheap_talk();
    let local = plan.conformance(&game, &types, &conf);
    assert!(local.is_resilient());
    let (sharded, log) = conf.sharded(&plan, &game, &types, 3, TransportKind::Mem, &clean_cfg());
    assert_reports_identical(&local, &sharded);
    assert!(log.failures.is_empty(), "clean run: {:?}", log.failures);
    assert_eq!(log.releases, 0);
    assert_eq!(log.discarded, 0);
    assert_eq!(log.units, sweep_units(&plan, &conf).len());
    assert!(!log.witness_reenacted, "resilient verdicts have no witness");
}

#[test]
fn sharded_matches_local_on_the_resilient_point_tcp() {
    let (plan, game, types, conf) = thm41_cheap_talk();
    let local = plan.conformance(&game, &types, &conf);
    let (sharded, log) = conf.sharded(&plan, &game, &types, 2, TransportKind::Tcp, &clean_cfg());
    assert_reports_identical(&local, &sharded);
    assert!(log.failures.is_empty(), "clean run: {:?}", log.failures);
    assert!(log.workers >= 1 && log.workers <= 2);
}

/// Captures every `(meta, outcome)` a worker records — the parity tests'
/// stand-in for the store-backed sink.
struct CaptureSink(Mutex<Vec<RunMeta>>);

impl TraceSink for CaptureSink {
    fn record(&self, meta: &RunMeta, _outcome: &Outcome) {
        self.0.lock().expect("sink poisoned").push(meta.clone());
    }
}

#[test]
fn sharded_matches_local_on_the_violation_mem() {
    let (plan, game, types, conf) = sec64_naive_mediator();
    let local = plan.conformance(&game, &types, &conf);
    let lw = local.witness().expect("§6.4 must violate").clone();
    let sink = Arc::new(CaptureSink(Mutex::new(Vec::new())));
    let cfg = clean_cfg().sink(sink.clone());
    let (sharded, log) = conf.sharded(&plan, &game, &types, 4, TransportKind::Mem, &cfg);
    assert_reports_identical(&local, &sharded);
    assert!(log.failures.is_empty(), "clean run: {:?}", log.failures);
    assert_eq!(log.releases, 0);
    assert_eq!(log.discarded, 0);
    assert!(log.witness_reenacted, "Violated verdicts re-enact");
    // The re-enacted witness cell landed in the sink, replayable by its
    // `(kind, seed)` exactly like a locally recorded run.
    let recorded = sink.0.lock().expect("sink poisoned").clone();
    assert_eq!(recorded.len(), 1, "exactly the witness cell is recorded");
    assert_eq!(recorded[0].kind, Some(lw.kind.clone()));
    assert_eq!(recorded[0].seed, Some(lw.seed));
    assert_eq!(recorded[0].session, lw.unit as u64);
}

#[test]
fn sharded_matches_local_on_the_violation_tcp() {
    let (plan, game, types, conf) = sec64_naive_mediator();
    let local = plan.conformance(&game, &types, &conf);
    let (sharded, log) = conf.sharded(&plan, &game, &types, 2, TransportKind::Tcp, &clean_cfg());
    assert_reports_identical(&local, &sharded);
    assert!(log.witness_reenacted);
    assert!(log.failures.is_empty(), "clean run: {:?}", log.failures);
}

#[test]
fn one_worker_shard_degenerates_to_local() {
    // The n = 1 boundary: a single worker serially draining every lease
    // is exactly the local sweep with extra frames.
    let (plan, game, types, conf) = thm41_cheap_talk();
    let local = plan.conformance(&game, &types, &conf);
    let (sharded, log) = conf.sharded(&plan, &game, &types, 1, TransportKind::Mem, &clean_cfg());
    assert_reports_identical(&local, &sharded);
    assert_eq!(log.workers, 1);
}

#[test]
fn witness_cell_reenacts_identically_as_a_networked_session() {
    // The §6.4 witness profile is schedule-invariant (the coalition
    // deadlocks, the mediator times out, everyone resolves to the ⊥
    // punishment), so hosting the witness cell as a *networked session* —
    // where the wire is the scheduler — must resolve to the profile the
    // sweep recorded. This ties the sharded verdict's witness back to the
    // service runtime it will be replayed on.
    let (plan, game, types, conf) = sec64_naive_mediator();
    let report = plan.conformance(&game, &types, &conf);
    let w = report.witness().expect("§6.4 must violate").clone();
    let units = sweep_units(&plan, &conf);
    let deviant = sweep_unit_plan(&plan, &units[w.unit], &conf)
        .expect("the witness unit names a generated strategy");
    let n = deviant.processes();
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), ServiceConfig::default());
    let sid = 1;
    let handle = {
        let deviant = deviant.clone();
        let kind = w.kind.clone();
        let seed = w.seed;
        service.host(sid, n, move || deviant.session_with(&kind, seed))
    };
    let outcome = std::thread::scope(|s| {
        for player in 0..n {
            let mut client: Client<MedMsg> = Client::mem(&hub);
            s.spawn(move || {
                client.attach(sid, player).expect("attach");
                let _ = client.relay();
            });
        }
        handle.outcome().expect("witness session completes")
    });
    service.shutdown();
    assert_eq!(
        deviant.resolve().profile(&outcome, deviant.players()),
        w.deviant_profile,
        "networked re-enactment matches the sweep's recorded witness"
    );
}

#[test]
fn a_grant_naming_a_non_player_is_refused_not_a_panic() {
    // A lease grant arrives from the wire, so its coalition is untrusted:
    // a member `>= n` must rebuild to `None` (the worker's `Rejected`),
    // never panic inside cell generation. Both families, every unit kind.
    fn check<F: GameFamily>(plan: &Plan<F>, conf: &Conformance) {
        let n = plan.players();
        for unit in sweep_units(plan, conf) {
            assert!(sweep_unit_plan(plan, &unit, conf).is_some());
            let mut hostile = unit.clone();
            hostile.coalition = vec![n];
            assert!(
                sweep_unit_plan(plan, &hostile, conf).is_none(),
                "{:?} with coalition [{n}] must be refused",
                unit.strategy
            );
        }
    }
    let (plan, _, _, conf) = thm41_cheap_talk();
    check(&plan, &conf);
    let (plan, _, _, conf) = sec64_naive_mediator();
    check(&plan, &conf);
}
