//! The per-layer numbers: micro-probes around single public functions, the
//! ladder, and the figures derived from them.
//!
//! Every probe times calls from outside. Layer names are the crate names.
//! `*_n5` / `*_n13` are taken at the two `sim_*` working points
//! (n = 5, k = 1 and n = 13, k = 3), RS decode and OEC at `deg = e = k`.

use crate::inputs::{run_seed, Inputs};
use crate::ladder::{self, pump_session, Rung, Wire};
use crate::stats::{self, median};
use crate::svc::{Hosted, SvcConfig};
use crate::trace::Tracer;
use crate::workloads::{StoreRw, SweepSpec, STORE_REPLAYS, STORE_RUNS};
use mediator_bcast::RbcPeer;
use mediator_core::cheap_talk::CtMsg;
use mediator_field::{rs, Fp, Poly};
use mediator_net::{AuthKey, AuthTag, Frame, TransportKind};
use mediator_sim::sansio::Machines;
use mediator_sim::{RunMeta, SchedulerKind, TraceSink};
use mediator_store::{HeaderTemplate, PlanKind, StoreSink, TraceStore};
use mediator_vss::{avss, OecState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric and its unit, in the order they are printed.
/// `BENCHMARK.json` lists the same names; a unit test holds the two equal.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("field.rs_decode_n5_ns", "ns"),
    ("field.rs_decode_n13_ns", "ns"),
    ("field.interpolate_n5_ns", "ns"),
    ("field.interpolate_n13_ns", "ns"),
    ("vss.deal_n5_ns", "ns"),
    ("vss.deal_n13_ns", "ns"),
    ("vss.oec_n5_ns", "ns"),
    ("vss.oec_n13_ns", "ns"),
    ("broadcast.rbc_n5_us", "us"),
    ("broadcast.rbc_n13_us", "us"),
    ("broadcast.rbc_n13_msgs", "count"),
    ("mpc.msgs_per_run_n5", "count"),
    ("mpc.msgs_per_run_n13", "count"),
    ("sim.steps_per_run_n5", "count"),
    ("sim.steps_per_run_n13", "count"),
    ("sim.ns_per_step_n5", "ns"),
    ("sim.ns_per_step_n13", "ns"),
    ("sim.sched_random_ms_n5", "ms"),
    ("sim.sched_fifo_ms_n5", "ms"),
    ("sim.sched_lifo_ms_n5", "ms"),
    ("sim.sched_lifo_msgs_n5", "count"),
    ("sim.session_seam_ns_per_msg", "ns"),
    ("core.plan_build_us", "us"),
    ("core.session_open_us_n5", "us"),
    ("core.session_open_us_n13", "us"),
    ("core.sweep_ms_per_cell", "ms"),
    ("core.sweep_runs", "count"),
    ("core.batch_1t_runs_per_s", "1/s"),
    ("core.batch_mt_runs_per_s", "1/s"),
    ("core.batch_mt_speedup", "ratio"),
    ("net.encode_ns_per_frame", "ns"),
    ("net.decode_ns_per_frame", "ns"),
    ("net.bytes_per_frame", "bytes"),
    ("net.seal_ns_per_frame", "ns"),
    ("net.verify_ns_per_frame", "ns"),
    ("net.pipe_rt_ns_per_frame", "ns"),
    ("net.tcp_rt_us_per_frame", "us"),
    ("net.tcp_burst_ns_per_frame", "ns"),
    ("net.svc_sessions_per_s_c1", "1/s"),
    ("net.svc_sessions_per_s_c8", "1/s"),
    ("net.svc_sessions_per_s_c64", "1/s"),
    ("net.svc_sessions_per_s_c256", "1/s"),
    ("net.svc_cpu_ms_per_session_c64", "ms"),
    ("net.shard_w1_ms", "ms"),
    ("net.shard_w2_ms", "ms"),
    ("net.shard_tcp_w2_ms", "ms"),
    ("net.shard_units", "count"),
    ("net.shard_releases", "count"),
    ("store.record_us_per_run", "us"),
    ("store.record_ns_per_event", "ns"),
    ("store.bytes_per_event", "bytes"),
    ("store.open_us_per_run", "us"),
    ("store.load_us_per_run", "us"),
    ("store.replay_ms_per_run", "ms"),
    ("store.compact_ms", "ms"),
    ("store.sink_us_per_session", "us"),
    ("ladder.world_ms", "ms"),
    ("ladder.world_cpu_ms", "ms"),
    ("ladder.session_ms", "ms"),
    ("ladder.session_cpu_ms", "ms"),
    ("ladder.codec_ms", "ms"),
    ("ladder.codec_cpu_ms", "ms"),
    ("ladder.mac_ms", "ms"),
    ("ladder.mac_cpu_ms", "ms"),
    ("ladder.mem_bulk_ms", "ms"),
    ("ladder.mem_bulk_cpu_ms", "ms"),
    ("ladder.tcp_bulk_ms", "ms"),
    ("ladder.tcp_bulk_cpu_ms", "ms"),
    ("ladder.tcp_client_ms", "ms"),
    ("ladder.tcp_client_cpu_ms", "ms"),
    ("ladder.tcp_client_auth_ms", "ms"),
    ("ladder.tcp_client_auth_cpu_ms", "ms"),
    ("ladder.tcp_client_auth_sink_ms", "ms"),
    ("ladder.tcp_client_auth_sink_cpu_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("host.ref_ns", "ns"),
];

/// The counts that must repeat exactly for one seed: later issues may rest
/// a claim on them, and `--aa` asserts that they do repeat.
pub const EXACT_COUNTS: [&str; 9] = [
    "mpc.msgs_per_run_n5",
    "mpc.msgs_per_run_n13",
    "sim.steps_per_run_n5",
    "sim.steps_per_run_n13",
    "net.bytes_per_frame",
    "store.bytes_per_event",
    "core.sweep_runs",
    "net.shard_units",
    "net.shard_releases",
];

/// The `PER_LAYER` entry called `name`, for names put together at run time.
fn listed(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric"))
}

/// What the probes produced, plus the checks they made along the way.
#[derive(Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rungs: Vec<Rung>,
    /// The `mac` rung again, traced, and how many spans the tracer held
    /// before it: the rung's spans are the ones recorded after that.
    pub traced_mac: Option<(Rung, usize)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Adds checked operations counted elsewhere (a traced round, say).
    pub fn count(&mut self, attempted: u64, failed: u64, errors: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors);
    }

    /// Counts one checked measurement and, if it succeeded, keeps its value.
    fn measured(&mut self, name: &'static str, result: Result<f64, String>) {
        match result {
            Ok(value) => {
                self.check(name, Ok(()));
                self.set(name, value);
            }
            Err(e) => self.check(name, Err(e)),
        }
    }

    /// Counts one checked operation.
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// Median ns per call of `op`: batches of about a millisecond, for about
/// `budget`, at least five batches.
fn ns_per_call<T>(budget: Duration, mut op: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(op());
    let first = start.elapsed().as_nanos().max(1) as u64;
    let batch = (1_000_000 / first).clamp(1, 100_000);
    let mut samples = Vec::new();
    let begin = Instant::now();
    while samples.len() < 5 || begin.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(op());
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Median wall ms of `op` over `reps` calls, failing on the first error.
fn median_ms<T>(
    reps: usize,
    mut op: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = op()?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    Ok((median(&times), last.expect("at least one repetition")))
}

/// Runs every probe into `l`. `scale` stretches or shrinks the time each
/// one gets (1.0 is sized for a ten-second run); `tracer` receives the
/// spans of the traced ladder rung.
pub fn run(l: &mut Layers, seed: u64, scale: f64, dir: &Path, tracer: &mut Tracer) {
    let slice = Duration::from_secs_f64(0.05 * scale.clamp(0.1, 4.0));
    let reps = |base: usize| ((base as f64 * scale).round() as usize).max(2);
    let (n5, n13) = match (Inputs::n5(), Inputs::n13()) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return l.check("plan build", Err(e)),
    };

    kernels(l, slice);
    broadcast(l, seed, slice);
    sim_and_core(l, seed, slice, reps(3), &n5, &n13);
    let wire = codec(l, seed, slice, &n5);
    sockets(l, &wire, reps(2000));
    service_scaling(l, seed, dir, &n5, scale);
    sweeps(l, reps(3));
    store(l, seed, dir, reps(3));

    // The ladder, untraced for its numbers; then the `mac` rung — the
    // highest one the benchmark pumps itself — once more with tracing on.
    let sessions = ((64.0 * scale).round() as u64).clamp(8, 64);
    let seeds: Vec<u64> = (0..sessions).map(|i| run_seed(seed, 0x1add, i)).collect();
    let rungs = ladder::run(&n5, &seeds, dir, &mut Tracer::off());
    for rung in &rungs {
        let error = rung
            .first_error
            .iter()
            .map(|e| format!("ladder.{}: {e}", rung.name));
        l.count(rung.sessions, rung.failed, error);
        l.set(listed(&format!("ladder.{}_ms", rung.name)), rung.wall_ms);
        l.set(listed(&format!("ladder.{}_cpu_ms", rung.name)), rung.cpu_ms);
    }
    let (world, session, mac) = (&rungs[0], &rungs[1], &rungs[3]);
    l.set(
        "sim.session_seam_ns_per_msg",
        (session.wall_ms - world.wall_ms) * 1e6 / session.frames.max(1.0),
    );
    let first_span = tracer.spans().len();
    let traced = ladder::pumped_rung("mac", &n5, &seeds, Wire::CodecMac, tracer);
    l.set("trace.overhead_share", traced.wall_ms / mac.wall_ms - 1.0);
    l.traced_mac = Some((traced, first_span));
    l.rungs = rungs;
    l.set("host.ref_ns", crate::host::RefClock::start().sample());
}

/// `n` share points of a random degree-`deg` polynomial, the first
/// `errors` of them corrupted.
fn share_points(n: usize, deg: usize, errors: usize, rng: &mut StdRng) -> Vec<(Fp, Fp)> {
    let p = Poly::random_with_secret(Fp::new(5), deg, rng);
    (1..=n as u64)
        .map(|i| {
            let y = p.eval(Fp::new(i));
            let y = if (i as usize) <= errors {
                y + Fp::new(99)
            } else {
                y
            };
            (Fp::new(i), y)
        })
        .collect()
}

/// `field.*`, `vss.*`: the algebra kernels at `deg = e = k`.
fn kernels(l: &mut Layers, slice: Duration) {
    let mut rng = StdRng::seed_from_u64(5);
    for (n, k, decode, interpolate, deal, oec) in [
        (
            5usize,
            1usize,
            "field.rs_decode_n5_ns",
            "field.interpolate_n5_ns",
            "vss.deal_n5_ns",
            "vss.oec_n5_ns",
        ),
        (
            13,
            3,
            "field.rs_decode_n13_ns",
            "field.interpolate_n13_ns",
            "vss.deal_n13_ns",
            "vss.oec_n13_ns",
        ),
    ] {
        let corrupted = share_points(n, k, k, &mut rng);
        l.check(
            decode,
            rs::decode_robust(&corrupted, k, k)
                .map(|_| ())
                .map_err(|e| format!("{e:?}")),
        );
        l.set(
            decode,
            ns_per_call(slice, || rs::decode_robust(&corrupted, k, k)),
        );

        let clean = share_points(n, n - 1, 0, &mut rng);
        l.set(
            interpolate,
            ns_per_call(slice, || Poly::interpolate(&clean)),
        );

        let secrets = [Fp::new(1), Fp::new(2), Fp::new(3), Fp::new(4)];
        l.set(
            deal,
            ns_per_call(slice, || {
                let mut rng = StdRng::seed_from_u64(3);
                avss::deal(&secrets, n, k, &mut rng)
            }),
        );

        let reconstruct = || {
            let mut state = OecState::new(k, k);
            for (i, &(_, y)) in corrupted.iter().enumerate() {
                if state.add_share(i, y).is_some() {
                    break;
                }
            }
            state.secret()
        };
        l.check(
            oec,
            reconstruct()
                .map(|_| ())
                .ok_or_else(|| "no secret reconstructed".to_string()),
        );
        l.set(oec, ns_per_call(slice, reconstruct));
    }
}

/// `broadcast.*`: one reliable-broadcast instance through `Machines`.
fn broadcast(l: &mut Layers, seed: u64, slice: Duration) {
    let rbc = |n: usize, t: usize| {
        let machines: Vec<RbcPeer<u64>> = (0..n)
            .map(|me| RbcPeer::new(n, t, 0, me, (me == 0).then_some(42)))
            .collect();
        Machines::new(machines).run(
            SchedulerKind::Random.build().as_mut(),
            run_seed(seed, 0xb0ca, 0),
            2_000_000,
        )
    };
    for (n, t, name) in [
        (5, 1, "broadcast.rbc_n5_us"),
        (13, 3, "broadcast.rbc_n13_us"),
    ] {
        let (outcome, outputs) = rbc(n, t);
        let delivered = outputs.iter().all(|o| *o == Some(42));
        l.check(
            name,
            delivered
                .then_some(())
                .ok_or_else(|| format!("outputs {outputs:?}")),
        );
        l.set(name, ns_per_call(slice, || rbc(n, t)) / 1e3);
        if n == 13 {
            l.set("broadcast.rbc_n13_msgs", outcome.messages_sent as f64);
        }
    }
}

/// `mpc.*`, `sim.*`, `core.*` except the sweep figures.
fn sim_and_core(
    l: &mut Layers,
    seed: u64,
    slice: Duration,
    reps: usize,
    n5: &Inputs,
    n13: &Inputs,
) {
    for (inputs, runs, msgs, steps, ns_per_step) in [
        (
            n5,
            8u64,
            "mpc.msgs_per_run_n5",
            "sim.steps_per_run_n5",
            "sim.ns_per_step_n5",
        ),
        (
            n13,
            2,
            "mpc.msgs_per_run_n13",
            "sim.steps_per_run_n13",
            "sim.ns_per_step_n13",
        ),
    ] {
        let (mut sent, mut stepped, mut per_step) = (0u64, 0u64, Vec::new());
        for i in 0..runs {
            let t = Instant::now();
            let out = inputs
                .plan
                .run_with(&SchedulerKind::Random, run_seed(seed, 0x51b, i));
            per_step.push(t.elapsed().as_nanos() as f64 / out.steps.max(1) as f64);
            l.check(msgs, inputs.check(&out));
            sent += out.messages_sent;
            stepped += out.steps;
        }
        l.set(msgs, sent as f64 / runs as f64);
        l.set(steps, stepped as f64 / runs as f64);
        l.set(ns_per_step, median(&per_step));
    }

    let sched_seed = run_seed(seed, 0x5c4ed, 0);
    for (kind, name) in [
        (SchedulerKind::Random, "sim.sched_random_ms_n5"),
        (SchedulerKind::Fifo, "sim.sched_fifo_ms_n5"),
        (SchedulerKind::Lifo, "sim.sched_lifo_ms_n5"),
    ] {
        let out = n5.plan.run_with(&kind, sched_seed);
        l.check(name, n5.check(&out));
        l.set(
            name,
            ns_per_call(slice, || n5.plan.run_with(&kind, sched_seed)) / 1e6,
        );
        if kind == SchedulerKind::Lifo {
            l.set("sim.sched_lifo_msgs_n5", out.messages_sent as f64);
        }
    }

    l.set("core.plan_build_us", ns_per_call(slice, Inputs::n5) / 1e3);
    for (inputs, name) in [
        (n5, "core.session_open_us_n5"),
        (n13, "core.session_open_us_n13"),
    ] {
        let open = || inputs.plan.session_with(&SchedulerKind::Random, sched_seed);
        l.set(name, ns_per_call(slice, open) / 1e3);
    }

    // The batch runner over 64 seeds: sequential, then fanned across the
    // machine's hardware threads (two on the sandbox).
    let seeds: Vec<u64> = (0..64).map(|i| run_seed(seed, 0xba7c, i)).collect();
    let mut rates = [0.0; 2];
    for (rate, threads) in rates.iter_mut().zip([Some(1), None]) {
        let timed = median_ms(reps, || {
            let batch = n5.plan.seeds(seeds.iter().copied());
            let batch = match threads {
                Some(t) => batch.threads(t),
                None => batch,
            };
            Ok(batch.run_batch().len())
        });
        if let Ok((ms, len)) = timed {
            *rate = len as f64 / (ms / 1e3);
        }
    }
    l.set("core.batch_1t_runs_per_s", rates[0]);
    l.set("core.batch_mt_runs_per_s", rates[1]);
    l.set("core.batch_mt_speedup", rates[1] / rates[0]);
}

/// `net.*` codec and MAC figures over one session's real frames: every
/// envelope the session drains, as the service would ship it. Returns the
/// frames as wire bytes (length prefix + body) for the socket probes.
fn codec(l: &mut Layers, seed: u64, slice: Duration, n5: &Inputs) -> Vec<Vec<u8>> {
    let mut corpus: Vec<Frame<CtMsg>> = Vec::new();
    let pumped = pump_session(
        n5,
        run_seed(seed, 0xc0de, 0),
        Wire::Codec,
        None,
        Some(&mut corpus),
    );
    let count = match pumped {
        Ok((out, count)) => {
            l.check("codec corpus", n5.check(&out));
            count
        }
        Err(e) => {
            l.check("codec corpus", Err(e));
            return Vec::new();
        }
    };
    let frames = corpus.len() as f64;
    l.set("net.bytes_per_frame", count.bytes as f64 / frames);

    let mut body = Vec::with_capacity(256);
    let encode_all = || {
        for frame in &corpus {
            body.clear();
            frame.encode_body(&mut body);
        }
        body.len()
    };
    l.set(
        "net.encode_ns_per_frame",
        ns_per_call(slice, encode_all) / frames,
    );

    let bodies: Vec<Vec<u8>> = corpus
        .iter()
        .map(|f| {
            let mut b = Vec::new();
            f.encode_body(&mut b);
            b
        })
        .collect();
    let decode_all = || {
        bodies
            .iter()
            .filter(|b| Frame::<CtMsg>::decode_body(b).is_ok())
            .count()
    };
    l.check(
        "net.decode_ns_per_frame",
        (decode_all() == corpus.len())
            .then_some(())
            .ok_or_else(|| "a shipped frame does not decode".to_string()),
    );
    l.set(
        "net.decode_ns_per_frame",
        ns_per_call(slice, decode_all) / frames,
    );

    // The same frames as the authenticated service ships them.
    let key = AuthKey::from_seed(0xbe9c);
    let mut tagged: Vec<Frame<CtMsg>> = corpus
        .iter()
        .cloned()
        .zip(1u64..)
        .map(|(frame, seq)| match frame {
            Frame::Msg {
                session,
                src,
                dst,
                msg,
                ..
            } => Frame::Msg {
                session,
                src,
                dst,
                msg,
                auth: Some(AuthTag { seq, mac: [0; 8] }),
            },
            other => other,
        })
        .collect();
    let seal_all = || tagged.iter_mut().for_each(|f| f.seal(&key));
    l.set(
        "net.seal_ns_per_frame",
        ns_per_call(slice, seal_all) / frames,
    );

    let sealed: Vec<(u64, usize, usize, Vec<u8>)> = tagged
        .iter()
        .filter_map(|f| match f {
            Frame::Msg {
                session, src, dst, ..
            } => {
                let mut b = Vec::new();
                f.encode_body(&mut b);
                Some((*session, *src, *dst, b))
            }
            _ => None,
        })
        .collect();
    let verify_all = || {
        sealed
            .iter()
            .filter(|(session, src, dst, b)| {
                let (prefix, mac) = b.split_at(b.len() - 8);
                let mac: [u8; 8] = mac.try_into().expect("8-byte trailer");
                key.verify_msg(*session, *src, *dst, prefix, mac)
                    .is_authentic()
            })
            .count()
    };
    l.check(
        "net.verify_ns_per_frame",
        (verify_all() == corpus.len())
            .then_some(())
            .ok_or_else(|| "a sealed frame does not verify".to_string()),
    );
    l.set(
        "net.verify_ns_per_frame",
        ns_per_call(slice, verify_all) / frames,
    );

    // One frame through the in-memory pipe and back out.
    let wire: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| {
            let mut framed = (b.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(b);
            framed
        })
        .collect();
    let (mut tx, mut rx) = mediator_net::pipe();
    let mut back = vec![0u8; wire.iter().map(Vec::len).max().unwrap_or(0)];
    let pipe_all = || {
        for framed in &wire {
            tx.write_all(framed).expect("pipe write");
            rx.read_exact(&mut back[..framed.len()]).expect("pipe read");
        }
    };
    l.set(
        "net.pipe_rt_ns_per_frame",
        ns_per_call(slice, pipe_all) / frames,
    );
    wire
}

/// `net.tcp_*`: what the loopback socket itself charges for frames of the
/// session's sizes — against an echo thread of the benchmark's own, so no
/// repository code is on the path.
fn sockets(l: &mut Layers, wire: &[Vec<u8>], frames: usize) {
    let result = (|| -> Result<(f64, f64), String> {
        if wire.is_empty() {
            return Err("no frames to send".into());
        }
        let io = |e: std::io::Error| e.to_string();
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        std::thread::scope(|scope| {
            let echo = scope.spawn(move || -> std::io::Result<()> {
                let (mut conn, _) = listener.accept()?;
                conn.set_nodelay(true)?;
                let mut buf = vec![0u8; 64 * 1024];
                loop {
                    match conn.read(&mut buf)? {
                        0 => return Ok(()),
                        n => conn.write_all(&buf[..n])?,
                    }
                }
            });
            let timed = (|| -> std::io::Result<(f64, f64)> {
                let mut conn = TcpStream::connect(addr)?;
                conn.set_nodelay(true)?;
                let mut back = vec![0u8; 64 * 1024];
                // One frame in flight: write it, read it back.
                let mut rt = Vec::with_capacity(frames);
                for framed in wire.iter().cycle().take(frames) {
                    let t = Instant::now();
                    conn.write_all(framed)?;
                    conn.read_exact(&mut back[..framed.len()])?;
                    rt.push(t.elapsed().as_nanos() as f64);
                }
                // 64 frames per write, read back as one stream.
                let mut burst = Vec::new();
                for chunk in wire.chunks(64).cycle().take(frames / 64 + 1) {
                    let joined: Vec<u8> = chunk.concat();
                    let t = Instant::now();
                    conn.write_all(&joined)?;
                    let mut got = 0;
                    while got < joined.len() {
                        let want = (joined.len() - got).min(back.len());
                        conn.read_exact(&mut back[..want])?;
                        got += want;
                    }
                    burst.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
                }
                Ok((median(&rt) / 1e3, median(&burst)))
                // `conn` drops here: the echo thread reads 0 and returns.
            })();
            let echoed = echo.join().expect("echo thread panicked");
            timed.and_then(|t| echoed.map(|()| t)).map_err(io)
        })
    })();
    l.measured("net.tcp_rt_us_per_frame", result.clone().map(|r| r.0));
    l.measured("net.tcp_burst_ns_per_frame", result.map(|r| r.1));
}

/// `net.svc_*`: the `svc_many_mem` configuration at 1, 8, 64 and 256
/// sessions in flight.
fn service_scaling(l: &mut Layers, seed: u64, dir: &Path, n5: &Inputs, scale: f64) {
    let mut hosted = match Hosted::start(SvcConfig::MANY_MEM, dir) {
        Ok(h) => h,
        Err(e) => return l.check("net.svc_sessions_per_s", Err(e)),
    };
    for (in_flight, base_reps, name) in [
        (1usize, 48usize, "net.svc_sessions_per_s_c1"),
        (8, 8, "net.svc_sessions_per_s_c8"),
        (64, 3, "net.svc_sessions_per_s_c64"),
        (256, 1, "net.svc_sessions_per_s_c256"),
    ] {
        let reps = ((base_reps as f64 * scale).round() as usize).max(1);
        let mut rates = Vec::with_capacity(reps);
        let cpu_before = stats::process_cpu_s();
        for rep in 0..reps as u64 {
            let seeds: Vec<u64> = (0..in_flight as u64)
                .map(|i| run_seed(seed, 0x5ca1e + rep, i))
                .collect();
            let t = Instant::now();
            let out = hosted.batch(n5, &seeds, rep, &mut Tracer::off());
            rates.push(in_flight as f64 / t.elapsed().as_secs_f64());
            l.check(name, out.check(n5));
        }
        l.set(name, median(&rates));
        if in_flight == 64 {
            let cpu_s = stats::process_cpu_s() - cpu_before;
            l.set(
                "net.svc_cpu_ms_per_session_c64",
                cpu_s * 1e3 / (reps * in_flight) as f64,
            );
        }
    }
    if let Err((_, what)) = hosted.shutdown() {
        l.check("net.svc shutdown", Err(what));
    }
}

/// `core.sweep_*`, `net.shard_*`: the sweep of the `sweep_*` workloads,
/// local and through the lease plane.
fn sweeps(l: &mut Layers, reps: usize) {
    let spec = match SweepSpec::new() {
        Ok(s) => s,
        Err(e) => return l.check("sweep spec", Err(e)),
    };
    let off = &mut Tracer::off();
    let local = median_ms(reps, || spec.run(None, 0, off));
    let local_json = match local {
        Ok((ms, out)) => {
            l.check("core.sweep", Ok(()));
            l.set("core.sweep_ms_per_cell", ms / out.cells as f64);
            l.set("core.sweep_runs", out.runs as f64);
            out.json
        }
        Err(e) => return l.check("core.sweep", Err(e)),
    };
    for (workers, transport, name) in [
        (1, TransportKind::Mem, "net.shard_w1_ms"),
        (2, TransportKind::Mem, "net.shard_w2_ms"),
        (2, TransportKind::Tcp, "net.shard_tcp_w2_ms"),
    ] {
        let sharded = median_ms(reps, || spec.run(Some((workers, transport)), 0, off));
        let checked = sharded.and_then(|(ms, out)| {
            if out.json == local_json {
                Ok((ms, out))
            } else {
                Err("sharded report differs from the local report".to_string())
            }
        });
        if let (Ok((_, out)), "net.shard_w2_ms") = (&checked, name) {
            let (units, releases) = out.shard.unwrap_or_default();
            l.set("net.shard_units", units as f64);
            l.set("net.shard_releases", releases as f64);
        }
        l.measured(name, checked.map(|(ms, _)| ms));
    }
}

/// `store.*`: the phases of a `store_rw` cycle, compaction, and the sink.
fn store(l: &mut Layers, seed: u64, dir: &Path, reps: usize) {
    let rw = match StoreRw::new(dir, seed) {
        Ok(rw) => rw,
        Err(e) => return l.check("store set-up", Err(e)),
    };
    let (mut record, mut open, mut load, mut replay) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for rep in 0..reps as u64 {
        match rw.cycle(rep, &mut Tracer::off()) {
            Ok((_, t)) => {
                l.check("store cycle", Ok(()));
                record.push(t.record_ns as f64);
                open.push(t.open_ns as f64);
                load.push(t.load_ns as f64);
                replay.push(t.replay_ns as f64);
                last = Some(t);
            }
            Err(e) => l.check("store cycle", Err(e)),
        }
    }
    let Some(last) = last else { return };
    let runs = STORE_RUNS as f64;
    l.set("store.record_us_per_run", median(&record) / runs / 1e3);
    l.set(
        "store.record_ns_per_event",
        median(&record) / last.events as f64,
    );
    l.set(
        "store.bytes_per_event",
        last.file_bytes as f64 / last.events as f64,
    );
    l.set("store.open_us_per_run", median(&open) / runs / 1e3);
    l.set("store.load_us_per_run", median(&load) / runs / 1e3);
    l.set(
        "store.replay_ms_per_run",
        median(&replay) / STORE_REPLAYS as f64 / 1e6,
    );

    // Compaction of the cycle's file down to half its size.
    let compacted = (|| -> Result<f64, String> {
        let mut store = TraceStore::open(rw.path()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let evicted = store
            .compact(last.file_bytes / 2)
            .map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if evicted == 0 {
            return Err("compaction evicted nothing".into());
        }
        Ok(ms)
    })();
    l.measured("store.compact_ms", compacted);

    // What a service pays per finished session with a sink wired in.
    let sunk = (|| -> Result<f64, String> {
        let store = TraceStore::create(dir.join("probe-sink.mtrc")).map_err(|e| e.to_string())?;
        let template = HeaderTemplate {
            plan: Some(PlanKind::CheapTalk),
            n: 5,
            k: 1,
            ..HeaderTemplate::default()
        };
        let sink = StoreSink::with_template(store, template);
        let t = Instant::now();
        for (session, (seed, outcome)) in rw.outcomes().iter().enumerate() {
            let meta = RunMeta::cell(session as u64, SchedulerKind::Random, *seed);
            sink.record(&meta, outcome);
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / rw.outcomes().len() as f64;
        match sink.take_error() {
            Some(e) => Err(e.to_string()),
            None => Ok(us),
        }
    })();
    l.measured("store.sink_us_per_session", sunk);
}
