//! Protocol-level benchmarks: one bench per theorem transform plus the
//! mediator-game baseline and the EGL curve (the timing companion to the
//! message-count tables E1–E5/E9 of the experiments binary).

use criterion::{criterion_group, criterion_main, Criterion};
use mediator_bench::{
    majority_spec_epsilon, majority_spec_punish, majority_spec_robust, ones_inputs, plan_for,
};
use mediator_circuits::catalog;
use mediator_core::egl;
use mediator_core::mediator::MediatorGameSpec;
use mediator_core::scenario::MediatorPlan;
use mediator_field::Fp;
use mediator_sim::SchedulerKind;

fn bench_mediator_game(c: &mut Criterion) {
    let mut g = c.benchmark_group("mediator-game");
    g.sample_size(20);
    let n = 5;
    let spec = MediatorGameSpec::standard(
        n,
        1,
        0,
        catalog::majority_circuit(n),
        vec![vec![Fp::ZERO]; n],
    );
    let plan = MediatorPlan::from_spec(spec, ones_inputs(n)).max_steps(200_000);
    g.bench_function("majority_n5", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            plan.run_with(&SchedulerKind::Random, seed)
        })
    });
    g.finish();
}

fn bench_cheap_talk(c: &mut Criterion) {
    let mut g = c.benchmark_group("cheap-talk");
    g.sample_size(10);
    let n = 5;
    let inputs = ones_inputs(n);

    let robust = majority_spec_robust(n, 1, 0);
    g.bench_function("thm4.1_robust_majority_n5", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            plan_for(&robust, &inputs).run_with(&SchedulerKind::Random, seed)
        })
    });

    let eps = majority_spec_epsilon(4, 0, 1, 2);
    let inputs4 = ones_inputs(4);
    g.bench_function("thm4.2_epsilon_majority_n4", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            plan_for(&eps, &inputs4).run_with(&SchedulerKind::Random, seed)
        })
    });

    let n6 = 6;
    let punish = majority_spec_punish(n6, 1, 0);
    let inputs6 = ones_inputs(n6);
    g.bench_function("thm4.4_punishment_majority_n6", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            plan_for(&punish, &inputs6).run_with(&SchedulerKind::Random, seed)
        })
    });
    g.finish();
}

fn bench_egl(c: &mut Criterion) {
    let mut g = c.benchmark_group("egl");
    for eps in [0.1f64, 0.01] {
        g.bench_function(format!("gradual_release_eps_{eps}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                egl::run_gradual_release(eps, None, seed)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mediator_game, bench_cheap_talk, bench_egl);
criterion_main!(benches);
