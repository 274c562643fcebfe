//! Substrate microbenchmarks: field ops, share-subset interpolation,
//! Reed–Solomon robust decoding, reliable broadcast, binary agreement,
//! AVSS, one MPC multiplication, the `World` event plane with ~1k events
//! pending, the trace store's record checksum, and the hosted path's `Msg`
//! frame codec.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mediator_bcast::{AbaPeer, AbaState, IdealCoin, RbcPeer};
use mediator_bench::ones_inputs;
use mediator_circuits::catalog;
use mediator_core::cheap_talk::CtMsg;
use mediator_core::scenario::Scenario;
use mediator_field::{grid, rs, Fp, Poly};
use mediator_net::Frame;
use mediator_sim::sansio::{route_batch, Machines, Outgoing};
use mediator_sim::{Ctx, Process, ProcessId, RandomScheduler, SchedulerKind, TraceMode, World};
use mediator_store::format::crc32;
use mediator_vss::avss::{self, AvssMsg, AvssState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hint::black_box;

fn bench_field(c: &mut Criterion) {
    let mut g = c.benchmark_group("field");
    let mut rng = StdRng::seed_from_u64(1);
    let a = Fp::random(&mut rng);
    let b = Fp::random_nonzero(&mut rng);
    g.bench_function("mul", |bch| bch.iter(|| black_box(a) * black_box(b)));
    g.bench_function("inv", |bch| bch.iter(|| black_box(b).inv().unwrap()));
    let poly = Poly::random_with_secret(a, 8, &mut rng);
    g.bench_function("poly_eval_deg8", |bch| bch.iter(|| poly.eval(black_box(b))));
    // A degree-2f opening at the `sim_n13` working point: 7 of the 13 share
    // points, the subset a scheduler delivers first rather than a prefix.
    let points: Vec<(usize, Fp)> = [0usize, 2, 3, 6, 8, 9, 12]
        .iter()
        .map(|&i| (i, Fp::random(&mut rng)))
        .collect();
    let mut scratch = Vec::new();
    g.bench_function("interpolate_subset_n13", |bch| {
        bch.iter(|| grid::interpolate_indices(black_box(&points), &mut scratch)[0])
    });
    g.finish();
}

fn bench_rs(c: &mut Criterion) {
    let mut g = c.benchmark_group("reed-solomon");
    let mut rng = StdRng::seed_from_u64(2);
    for (deg, e, n) in [(2usize, 2usize, 9usize), (4, 4, 17)] {
        let p = Poly::random_with_secret(Fp::new(5), deg, &mut rng);
        let mut pts: Vec<(Fp, Fp)> = (1..=n as u64)
            .map(|i| (Fp::new(i), p.eval(Fp::new(i))))
            .collect();
        for pt in pts.iter_mut().take(e) {
            pt.1 += Fp::new(77);
        }
        g.bench_function(format!("decode_deg{deg}_e{e}_n{n}"), |bch| {
            bch.iter(|| rs::decode_robust(black_box(&pts), deg, e).unwrap())
        });
    }
    g.finish();
}

fn run_rbc(n: usize, t: usize, seed: u64) -> u64 {
    let peers: Vec<RbcPeer<u64>> = (0..n)
        .map(|me| RbcPeer::new(n, t, 0, me, (me == 0).then_some(42)))
        .collect();
    let (outcome, _) = Machines::new(peers).run(&mut RandomScheduler::new(), seed, 2_000_000);
    outcome.messages_delivered
}

fn run_aba(n: usize, t: usize, seed: u64) -> u64 {
    let peers: Vec<AbaPeer> = (0..n)
        .map(|i| {
            AbaPeer::new(
                AbaState::new(n, t, 0, Box::new(IdealCoin::new(9))),
                i % 2 == 0,
            )
        })
        .collect();
    let (outcome, _) = Machines::new(peers).run(&mut RandomScheduler::new(), seed, 2_000_000);
    outcome.messages_delivered
}

fn bench_agreement(c: &mut Criterion) {
    let mut g = c.benchmark_group("agreement");
    g.sample_size(20);
    g.bench_function("rbc_n7", |bch| {
        let mut seed = 0;
        bch.iter(|| {
            seed += 1;
            run_rbc(7, 2, seed)
        })
    });
    g.bench_function("aba_n7_f2", |bch| {
        let mut seed = 0;
        bch.iter(|| {
            seed += 1;
            run_aba(7, 2, seed)
        })
    });
    // One core-agreement instance at the `sim_n13` working point: a
    // Theorem 4.1 run at `n = 13, k = 3` holds 13 of them per player, and
    // their `BVal` / `Aux` / `Done` are half of its deliveries.
    g.bench_function("aba_n13_f3", |bch| {
        let mut seed = 0;
        bch.iter(|| {
            seed += 1;
            run_aba(13, 3, seed)
        })
    });
    g.finish();
}

/// One whole AVSS instance: `dealer` deals `secrets`, every `Rows` / `Echo`
/// / `Ready` is delivered first-in-first-out, all `n` players complete.
/// Returns the number of messages delivered.
fn run_avss_instance(n: usize, f: usize, dealer: usize, secrets: &[Fp], rng: &mut StdRng) -> u64 {
    let mut states: Vec<AvssState> = (0..n).map(|_| AvssState::new(n, f, dealer)).collect();
    let mut queue: VecDeque<(usize, usize, AvssMsg)> = avss::deal(secrets, n, f, rng)
        .into_iter()
        .enumerate()
        .map(|(to, rows)| (dealer, to, rows))
        .collect();
    let mut delivered = 0;
    let mut out: Vec<Outgoing<AvssMsg>> = Vec::new();
    while let Some((from, to, msg)) = queue.pop_front() {
        delivered += 1;
        states[to].on_message(from, msg, &mut out);
        route_batch(n, out.drain(..), |d, m| queue.push_back((to, d, m)));
    }
    assert!(states.iter().all(AvssState::is_completed));
    delivered
}

fn bench_avss(c: &mut Criterion) {
    let mut g = c.benchmark_group("avss");
    g.sample_size(20);
    g.bench_function("deal_n9_f2_vec8", |bch| {
        bch.iter_batched(
            || StdRng::seed_from_u64(3),
            |mut rng| {
                let secrets: Vec<Fp> = (0..8).map(|_| Fp::random(&mut rng)).collect();
                avss::deal(&secrets, 9, 2, &mut rng)
            },
            BatchSize::SmallInput,
        )
    });
    // A long dealing: 338 secrets is what the n = 13 majority circuit cost
    // per dealer (input + 2 × 168 masks + pad) while lookups compiled to one
    // indicator chain per row; on a power basis it is 26 (12 masked muls).
    g.bench_function("instance_n13_f3_vec338", |bch| {
        bch.iter_batched(
            || StdRng::seed_from_u64(4),
            |mut rng| {
                let secrets: Vec<Fp> = (0..338).map(|_| Fp::random(&mut rng)).collect();
                run_avss_instance(13, 3, 0, &secrets, &mut rng)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Floods its successor on start and passes every message on until its
/// hop count runs out: no protocol work, so a run is all event plane.
struct Relay {
    n: usize,
    fanout: usize,
    hops: u32,
}

impl Process<u32> for Relay {
    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        for _ in 0..self.fanout {
            ctx.send((ctx.me() + 1) % self.n, self.hops);
        }
    }
    fn on_message(&mut self, _src: ProcessId, hops: u32, ctx: &mut Ctx<u32>) {
        if hops > 0 {
            ctx.send((ctx.me() + 1) % self.n, hops - 1);
        }
    }
}

/// ~1k pending for 7k steps under uniformly random picks: the plane size
/// of the `sim_n13` regime (DESIGN §5).
fn relay_world() -> World<u32> {
    let (n, fanout, hops) = (8, 128, 6);
    let relays = (0..n).map(|_| Box::new(Relay { n, fanout, hops }) as Box<dyn Process<u32>>);
    let mut world = World::new(relays.collect(), 5);
    world.set_trace_mode(TraceMode::Off);
    world
}

fn bench_world(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.sample_size(20);
    // The bench is only worth its name while the plane really is large.
    let mut probe = relay_world();
    probe.run(&mut RandomScheduler::new(), u64::MAX);
    let stats = probe.stats();
    assert!(
        stats.pending_high_water >= 1000,
        "random_p1k left its regime: {stats:?}"
    );
    g.bench_function("random_p1k", |bch| {
        bch.iter_batched(
            relay_world,
            |mut world| world.run(&mut RandomScheduler::new(), u64::MAX).steps,
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// CRC32 over 64 KiB: the checksum every store record pays when it is
/// recorded, opened, loaded and compacted.
fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    let bytes: Vec<u8> = (0..64 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    g.bench_function("crc32_64k", |bch| bch.iter(|| crc32(black_box(&bytes))));
    g.finish();
}

/// Every `Msg` frame one `n = 5` Theorem 4.1 session ships, in ship
/// order: the session pumped in process, each drained message returned
/// first in, first out — the order one relay connection echoes them in.
fn shipped_msgs_n5() -> Vec<Frame<CtMsg>> {
    let plan = Scenario::cheap_talk(catalog::majority_circuit(5))
        .players(5)
        .tolerance(1, 0)
        .inputs(ones_inputs(5))
        .build()
        .expect("n = 5 > 4k + 4t = 4");
    let mut session = plan.session_with(&SchedulerKind::Random, 1);
    let mut wire = VecDeque::new();
    let mut frames = Vec::new();
    loop {
        wire.extend(session.drain_outbox());
        if session.pump_ready() {
            continue;
        }
        let Some(env) = wire.pop_front() else { break };
        frames.push(Frame::Msg {
            session: 1,
            src: env.src,
            dst: env.dst,
            msg: env.msg.clone(),
            auth: None,
        });
        if session.inject(env.src, env.dst, env.msg).progressed() {
            session.pump_ready();
        }
    }
    frames
}

/// The `Msg` frame codec the hosted path pays per frame, twice per
/// message (ship and return): encode, then decode, every frame of one
/// `n = 5` session (~0.8k frames, mostly 9-byte field-element varints).
fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net");
    let frames = shipped_msgs_n5();
    assert!(
        frames.len() >= 765,
        "{} frames: not a whole session",
        frames.len()
    );
    let mut body = Vec::with_capacity(1024);
    g.bench_function("msg_codec_n5", |bch| {
        bch.iter(|| {
            for frame in &frames {
                body.clear();
                frame.encode_body(&mut body);
                black_box(Frame::<CtMsg>::decode_body(black_box(&body)).expect("decodes"));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_field,
    bench_rs,
    bench_agreement,
    bench_avss,
    bench_world,
    bench_store,
    bench_net
);
criterion_main!(benches);
