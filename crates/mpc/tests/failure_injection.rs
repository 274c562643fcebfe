//! Failure injection for the MPC engine: malformed dealings, forged
//! outputs, and the exclusion machinery.
//!
//! Runs under the full `mediator-sim` `World` through [`MpcDriver`] and the
//! shared sans-IO adapter, so every attack is exercised against real
//! adversarial schedulers. Byzantine dealings that used to be pre-seeded
//! into the legacy `Net` queue are now the byzantine player's kickoff
//! batch. Assertions are stated against the asynchronous guarantee (the
//! agreed core has ≥ n − f members, excluded inputs default), which holds
//! under *every* legal schedule, not just uniform-random delivery.

use mediator_circuits::catalog;
use mediator_field::Fp;
use mediator_mpc::{MpcConfig, MpcDriver, MpcEvent, MpcMsg};
use mediator_sim::sansio::{Behavior, ByzantineProcess, Machines};
use mediator_sim::SchedulerKind;
use mediator_vss::avss;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn no_op() -> Behavior<MpcMsg> {
    Box::new(|_, _, _| Vec::new())
}

fn schedulers() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Random,
        SchedulerKind::Lifo,
        SchedulerKind::TargetedDelay(vec![1]),
    ]
}

fn drivers(
    cfg: &MpcConfig,
    circuit: &Arc<mediator_circuits::Circuit>,
    inputs: &[Vec<Fp>],
) -> Vec<MpcDriver> {
    // One shared config allocation for all n drivers.
    let cfg = Arc::new(cfg.clone());
    (0..cfg.n)
        .map(|me| MpcDriver::new(Arc::clone(&cfg), circuit.clone(), me, inputs[me].clone()))
        .collect()
}

fn done_value(ev: &Option<MpcEvent>) -> Fp {
    match ev {
        Some(MpcEvent::Done(v)) => v[0],
        other => panic!("not done: {other:?}"),
    }
}

#[test]
fn wrong_arity_dealer_is_excluded_and_default_used() {
    // Byzantine dealer 4 hands out an AVSS sharing of the WRONG vector
    // length. Honest players complete the instance, notice the arity
    // mismatch, vote it out, and use the default input 0. The core then
    // contains every honest dealing that makes it in (≥ n − f members), so
    // at least 3 of the four honest 1-inputs count: majority 1 under every
    // scheduler.
    let n = 5;
    let f = 1;
    let cfg = MpcConfig::robust(n, f, 3, vec![vec![Fp::ZERO]; n]);
    let circuit = Arc::new(catalog::majority_circuit(n));
    let inputs: Vec<Vec<Fp>> = vec![vec![Fp::ONE]; n];
    for kind in schedulers() {
        for seed in 0..2 {
            // Craft a 1-coordinate dealing (the honest vector for the
            // majority circuit is longer: input + masks + pad).
            let mut rng = StdRng::seed_from_u64(1);
            let rows = avss::deal(&[Fp::new(9)], n, f, &mut rng);
            let kickoff: Vec<(usize, MpcMsg)> = rows
                .into_iter()
                .enumerate()
                .map(|(i, inner)| (i, MpcMsg::Avss { dealer: 4, inner }))
                .collect();
            let byz = ByzantineProcess::new(no_op()).with_kickoff(kickoff);
            let (_, outputs) = Machines::new(drivers(&cfg, &circuit, &inputs))
                .byzantine(4, byz)
                .run(kind.build().as_mut(), seed, 4_000_000);
            for (i, ev) in outputs.iter().enumerate().take(4) {
                assert_eq!(
                    done_value(ev),
                    Fp::ONE,
                    "player {i} under {kind:?} seed {seed}"
                );
            }
        }
    }
}

/// Runs the n = 5 majority on all-one inputs with byzantine player 4
/// sending only `attack(dealer, victim)` for every honest dealer and victim
/// — never dealing itself, so the core is the four honest dealings and the
/// majority is 1 — and requires every honest engine to finish with it.
fn honest_majority_survives(attack: impl Fn(usize, usize) -> Vec<MpcMsg>) {
    let (n, f, byz) = (5, 1, 4);
    let cfg = MpcConfig::robust(n, f, 41, vec![vec![Fp::ZERO]; n]);
    let circuit = Arc::new(catalog::majority_circuit(n));
    let inputs: Vec<Vec<Fp>> = vec![vec![Fp::ONE]; n];
    for kind in schedulers() {
        for seed in 0..3 {
            let kickoff: Vec<(usize, MpcMsg)> = (0..byz)
                .flat_map(|dealer| (0..byz).map(move |victim| (dealer, victim)))
                .flat_map(|(dealer, victim)| {
                    attack(dealer, victim).into_iter().map(move |m| (victim, m))
                })
                .collect();
            let (_, outputs) = Machines::new(drivers(&cfg, &circuit, &inputs))
                .byzantine(byz, ByzantineProcess::new(no_op()).with_kickoff(kickoff))
                .run(kind.build().as_mut(), seed, 4_000_000);
            for (i, ev) in outputs.iter().enumerate().take(byz) {
                assert_eq!(
                    done_value(ev),
                    Fp::ONE,
                    "player {i} under {kind:?} seed {seed}"
                );
            }
        }
    }
}

#[test]
fn rows_spoofed_for_honest_dealers_are_ignored() {
    // The byzantine player plants, at every honest player and for every
    // honest dealer's instance, rows of the right shape that the dealer
    // never dealt, plus one bad echo. A victim that took them would echo
    // garbage to itself and hold two bad points of five — one deviator
    // stalling an honest player of the robust engine.
    let circuit = catalog::majority_circuit(5);
    let arity = circuit.inputs_per_player()[0] + 2 * circuit.mul_count() + 1;
    honest_majority_survives(|dealer, victim| {
        let mut rng = StdRng::seed_from_u64((5 * dealer + victim) as u64);
        let junk: Vec<Fp> = (0..arity).map(|_| Fp::random(&mut rng)).collect();
        let planted = avss::deal(&junk, 5, 1, &mut rng).swap_remove(victim);
        [planted, avss::AvssMsg::Echo(junk.into())]
            .into_iter()
            .map(|inner| MpcMsg::Avss { dealer, inner })
            .collect()
    });
}

#[test]
fn one_element_echoes_do_not_blind_honest_players() {
    // A 1-element echo for every instance, sent before anything else: it
    // must not decide the instance's arity at a player whose rows are
    // still in flight, or the honest echoes arriving meanwhile are lost.
    honest_majority_survives(|dealer, _| {
        vec![MpcMsg::Avss {
            dealer,
            inner: avss::AvssMsg::Echo(vec![Fp::ONE].into()),
        }]
    });
}

#[test]
fn forged_private_outputs_are_corrected() {
    // Byzantine player 3 sends garbage Output points to player 0 for every
    // output index. OEC at player 0 corrects a single bad point. Honest
    // inputs are (0,0,1,_,1); with the byzantine defaulting to 0 and at
    // most one further honest input excluded by the schedule, ones never
    // exceed two of five: majority 0.
    let n = 5;
    let cfg = MpcConfig::robust(n, 1, 11, vec![vec![Fp::ZERO]; n]);
    let circuit = Arc::new(catalog::majority_circuit(n));
    let inputs: Vec<Vec<Fp>> = (0..n).map(|i| vec![Fp::new((i >= 2) as u64)]).collect();
    let behavior: Behavior<MpcMsg> = Box::new(|_me, _from, msg| match msg {
        // Whenever byz sees any Output traffic, it forges more junk.
        MpcMsg::Output { idx, .. } => {
            vec![(
                0usize,
                MpcMsg::Output {
                    idx: *idx,
                    value: Fp::new(31337),
                },
            )]
        }
        _ => Vec::new(),
    });
    for kind in schedulers() {
        for seed in 0..2 {
            let byz = ByzantineProcess::new(behavior.clone_box()).with_kickoff(vec![(
                0,
                MpcMsg::Output {
                    idx: 0,
                    value: Fp::new(31337),
                },
            )]);
            let (_, outputs) = Machines::new(drivers(&cfg, &circuit, &inputs))
                .byzantine(3, byz)
                .run(kind.build().as_mut(), seed, 4_000_000);
            for (i, ev) in outputs.iter().enumerate() {
                if i != 3 {
                    assert_eq!(
                        done_value(ev),
                        Fp::ZERO,
                        "player {i} under {kind:?} seed {seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn stale_open_ids_from_byzantine_are_harmless() {
    // Byzantine floods Open points for ids that were never (or not yet)
    // created; honest engines buffer bounded junk and finish correctly.
    let n = 5;
    let cfg = MpcConfig::robust(n, 1, 17, vec![vec![Fp::ZERO]; n]);
    let circuit = Arc::new(catalog::majority_circuit(n));
    let inputs: Vec<Vec<Fp>> = vec![vec![Fp::ONE]; n];
    for kind in schedulers() {
        let kickoff: Vec<(usize, MpcMsg)> = (0..n)
            .flat_map(|p| {
                (1000u64..1005).map(move |id| {
                    (
                        p,
                        MpcMsg::Open {
                            id,
                            value: Fp::new(5),
                        },
                    )
                })
            })
            .collect();
        let byz = ByzantineProcess::new(no_op()).with_kickoff(kickoff);
        let (_, outputs) = Machines::new(drivers(&cfg, &circuit, &inputs))
            .byzantine(2, byz)
            .run(kind.build().as_mut(), 19, 4_000_000);
        for (i, ev) in outputs.iter().enumerate() {
            if i != 2 {
                assert_eq!(done_value(ev), Fp::ONE, "player {i} under {kind:?}");
            }
        }
    }
}

#[test]
fn randomness_contributions_of_excluded_players_do_not_matter() {
    // Two different silent sets must both yield a *valid* common coin (the
    // rand gate sums only core contributions) — and honest players agree on
    // it within each run.
    let n = 5;
    let mut b = mediator_circuits::CircuitBuilder::new(n, &[0; 5]);
    let r = b.rand();
    b.output_all(r);
    let circuit = Arc::new(b.build());
    for silent in [0usize, 4] {
        let cfg = MpcConfig::robust(n, 1, 23, vec![vec![]; n]);
        let inputs: Vec<Vec<Fp>> = vec![vec![]; n];
        let (_, outputs) = Machines::new(drivers(&cfg, &circuit, &inputs))
            .byzantine(silent, no_op())
            .run(SchedulerKind::Random.build().as_mut(), 29, 4_000_000);
        let honest: Vec<usize> = (0..n).filter(|&p| p != silent).collect();
        let v = done_value(&outputs[honest[0]]);
        for &p in &honest {
            assert_eq!(done_value(&outputs[p]), v, "disagreement at {p}");
        }
    }
}

#[test]
fn epsilon_mode_wrong_arity_detect_dealer_is_excluded() {
    use mediator_vss::detect::deal_detectable;
    // The sum circuit has no multiplications: this isolates the exclusion
    // machinery from the ε-mode mul-opening liveness gap (a silent player
    // at n = 3f+1 stalls deg-2f openings — the documented BKR divergence;
    // see DESIGN.md). The core must be all three honest dealings (the fake
    // one is voted out), so the sum is 3 under every scheduler.
    let n = 4;
    let cfg = MpcConfig::epsilon(n, 1, 1, 2, 31, vec![vec![Fp::ZERO]; n]);
    let circuit = Arc::new(catalog::sum_circuit(n));
    let inputs: Vec<Vec<Fp>> = vec![vec![Fp::ONE]; n];
    for kind in schedulers() {
        let mut rng = StdRng::seed_from_u64(3);
        // 1-coordinate dealing where the honest vector is longer (sum
        // circuit honest vectors are input + dummy pad = 2 coordinates).
        let deals = deal_detectable(&[Fp::new(5)], n, 1, 2, &mut rng);
        let kickoff: Vec<(usize, MpcMsg)> = deals
            .into_iter()
            .enumerate()
            .map(|(i, inner)| (i, MpcMsg::Detect { dealer: 3, inner }))
            .collect();
        let byz = ByzantineProcess::new(no_op()).with_kickoff(kickoff);
        let (_, outputs) = Machines::new(drivers(&cfg, &circuit, &inputs))
            .byzantine(3, byz)
            .run(kind.build().as_mut(), 37, 4_000_000);
        for (i, ev) in outputs.iter().enumerate().take(3) {
            assert_eq!(done_value(ev), Fp::new(3), "player {i} under {kind:?}");
        }
    }
}
