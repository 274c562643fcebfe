//! Protocol-level benchmarks: one bench per theorem transform plus the
//! mediator-game baseline and the EGL curve (the timing companion to the
//! message counts that `tests/trace_golden.rs` and `egl`'s unit tests pin).

use criterion::{criterion_group, criterion_main, Criterion};
use mediator_bench::ones_inputs;
use mediator_circuits::catalog;
use mediator_core::egl;
use mediator_core::scenario::{CheapTalk, Scenario};
use mediator_sim::SchedulerKind;

fn bench_mediator_game(c: &mut Criterion) {
    let mut g = c.benchmark_group("mediator-game");
    g.sample_size(20);
    let n = 5;
    let plan = Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(ones_inputs(n))
        .build()
        .expect("n − k − t ≥ 1");
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
    // The all-ones majority workload at (n, k, t), regime still open.
    let majority = |n: usize, k: usize, t: usize| -> CheapTalk {
        Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(k, t)
            .inputs(ones_inputs(n))
    };
    for (name, builder) in [
        ("thm4.1_robust_majority_n5", majority(5, 1, 0)),
        ("thm4.2_epsilon_majority_n4", majority(4, 0, 1).epsilon(2)),
        // Punishment action 3: out of the game's range on purpose.
        (
            "thm4.4_punishment_majority_n6",
            majority(6, 1, 0).wills(vec![3; 6]),
        ),
    ] {
        let plan = builder.build().expect("each point is above its threshold");
        g.bench_function(name, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                plan.run_with(&SchedulerKind::Random, seed)
            })
        });
    }
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
