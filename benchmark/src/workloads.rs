//! The seven workloads: what one unit runs and how its output is checked.
//!
//! Each is a closed loop from one thread — the next unit starts when the
//! previous one's output has been checked — with at most two busy threads
//! and one connection (see `svc`). `BENCHMARK.json` records why each one
//! exists; the README says which layers it should and should not feel.

use crate::inputs::{run_seed, Inputs};
use crate::svc::{Hosted, SvcConfig};
use crate::trace::Tracer;
use mediator_core::adversary::Conformance;
use mediator_games::{library, BayesianGame};
use mediator_net::{ShardConfig, ShardedSweep, TransportKind};
use mediator_sim::{Outcome, SchedulerKind};
use mediator_store::{replay_plan, PlanKind, RunHeader, TraceStore};
use std::path::{Path, PathBuf};

pub const NAMES: [&str; 7] = [
    "sim_n5",
    "sim_n13",
    "svc_solo_tcp",
    "svc_many_mem",
    "sweep_local",
    "sweep_shard2",
    "store_rw",
];

/// What one successful unit accomplished.
pub struct UnitOut {
    /// Cheap-talk executions completed.
    pub runs: u64,
    /// `Outcome.messages_sent` over those executions.
    pub msgs: u64,
}

pub trait Workload {
    /// Units run before the timed window opens (about a tenth of a round).
    fn warmup_units(&self) -> u64;

    /// Runs unit `id` with scheduler seed `seed` and checks its output.
    /// `Err` is a failed unit: counted, and excluded from latency.
    fn unit(&mut self, seed: u64, id: u64, tracer: &mut Tracer) -> Result<UnitOut, String>;

    /// Tears the workload down. `Err((count, what))` reports output checks
    /// that can only be made once everything has stopped.
    fn finish(self: Box<Self>) -> Result<(), (u64, String)> {
        Ok(())
    }
}

/// Sets a workload up. `dir` is an empty scratch directory inside the
/// checkout; `seed` is the workload seed, for set-up that needs runs of its
/// own. `Err` means the workload could not start at all.
pub fn open(name: &str, dir: &Path, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim_n5" => Box::new(Sim {
            inputs: Inputs::n5()?,
            warmup: 100,
        }),
        "sim_n13" => Box::new(Sim {
            inputs: Inputs::n13()?,
            warmup: 4,
        }),
        "svc_solo_tcp" => Box::new(Svc::start(SvcConfig::SOLO_TCP, 1, 12, dir)?),
        "svc_many_mem" => Box::new(Svc::start(SvcConfig::MANY_MEM, MANY_MEM_SESSIONS, 3, dir)?),
        "sweep_local" => Box::new(Sweep::new(None)?),
        "sweep_shard2" => Box::new(Sweep::new(Some((2, TransportKind::Mem)))?),
        "store_rw" => Box::new(StoreRw::new(dir, seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

// ---------------------------------------------------------------------------
// sim_n5, sim_n13: one `plan.run_with`
// ---------------------------------------------------------------------------

struct Sim {
    inputs: Inputs,
    warmup: u64,
}

impl Workload for Sim {
    fn warmup_units(&self) -> u64 {
        self.warmup
    }

    fn unit(&mut self, seed: u64, id: u64, tracer: &mut Tracer) -> Result<UnitOut, String> {
        let out = tracer.span("core.run_with", id, |_| {
            self.inputs.plan.run_with(&SchedulerKind::Random, seed)
        });
        self.inputs.check(&out)?;
        Ok(UnitOut {
            runs: 1,
            msgs: out.messages_sent,
        })
    }
}

// ---------------------------------------------------------------------------
// svc_solo_tcp, svc_many_mem: hosted sessions on one long-lived service
// ---------------------------------------------------------------------------

/// Sessions in flight per `svc_many_mem` unit: enough that the reactor's
/// run queue always holds several runnable sessions, small enough that a
/// 100 ms block still holds several units.
pub const MANY_MEM_SESSIONS: usize = 16;

struct Svc {
    inputs: Inputs,
    hosted: Hosted,
    in_flight: usize,
    warmup: u64,
}

impl Svc {
    fn start(cfg: SvcConfig, in_flight: usize, warmup: u64, dir: &Path) -> Result<Self, String> {
        Ok(Svc {
            inputs: Inputs::n5()?,
            hosted: Hosted::start(cfg, dir)?,
            in_flight,
            warmup,
        })
    }
}

impl Workload for Svc {
    fn warmup_units(&self) -> u64 {
        self.warmup
    }

    fn unit(&mut self, seed: u64, id: u64, tracer: &mut Tracer) -> Result<UnitOut, String> {
        let seeds: Vec<u64> = (0..self.in_flight as u64)
            .map(|i| run_seed(seed, 0, i))
            .collect();
        let out = self.hosted.batch(&self.inputs, &seeds, id, tracer);
        out.check(&self.inputs)?;
        if let Some(e) = self.hosted.take_sink_error() {
            return Err(format!("sink: {e}"));
        }
        Ok(UnitOut {
            runs: seeds.len() as u64,
            msgs: out.messages(),
        })
    }

    fn finish(self: Box<Self>) -> Result<(), (u64, String)> {
        self.hosted.shutdown()
    }
}

// ---------------------------------------------------------------------------
// sweep_local, sweep_shard2: one conformance sweep
// ---------------------------------------------------------------------------

const SWEEP_SEEDS: u64 = 2;

/// The sweep both workloads (and the sweep probes) run: the byzantine-
/// agreement game at n = 5 against the Theorem 4.1 plan, ε = 0.05, k = 1,
/// Random scheduler, 2 seeds, coalitions `[1]` and `[3]` — 22 deviant
/// cells plus the honest baseline, 46 executions. (Two seeds, not the
/// issue's three: on the two-core sandbox that keeps a sweep under 40 ms,
/// so a 100 ms block holds more than one.)
pub struct SweepSpec {
    pub inputs: Inputs,
    pub game: BayesianGame,
    pub types: Vec<usize>,
    pub conf: Conformance,
}

/// What a checked sweep established.
pub struct SweepOut {
    /// Cheap-talk executions the report's sample counts add up to.
    pub runs: u64,
    pub cells: u64,
    pub json: String,
    /// Lease units and re-leases (sharded sweeps only).
    pub shard: Option<(usize, usize)>,
}

impl SweepSpec {
    pub fn new() -> Result<Self, String> {
        let inputs = Inputs::n5()?;
        Ok(SweepSpec {
            game: library::byzantine_agreement_game(inputs.n),
            types: vec![1; inputs.n],
            conf: Conformance::new(0.05, inputs.k, 0)
                .battery(vec![SchedulerKind::Random])
                .seeds(SWEEP_SEEDS)
                .coalitions(vec![vec![1], vec![3]]),
            inputs,
        })
    }

    /// Runs the sweep — locally, or sharded over `(workers, transport)`
    /// in-process workers — and checks that it certifies ε-resilience
    /// cleanly.
    pub fn run(
        &self,
        shard: Option<(usize, TransportKind)>,
        unit: u64,
        tracer: &mut Tracer,
    ) -> Result<SweepOut, String> {
        let (report, shard) = match shard {
            None => {
                let report = tracer.span("core.conformance", unit, |_| {
                    self.inputs
                        .plan
                        .conformance(&self.game, &self.types, &self.conf)
                });
                (report, None)
            }
            Some((workers, transport)) => {
                let (report, log) = tracer.span("net.sharded", unit, |_| {
                    self.conf.sharded(
                        &self.inputs.plan,
                        &self.game,
                        &self.types,
                        workers,
                        transport,
                        &ShardConfig::default(),
                    )
                });
                if let Some(failure) = log.failures.first() {
                    return Err(format!("shard log: {failure}"));
                }
                (report, Some((log.units, log.releases)))
            }
        };
        if !report.is_resilient() {
            return Err(format!("sweep verdict {:?}", report.verdict));
        }
        // Every cell and the honest baseline sample kinds × seeds runs.
        let per_grid = report.kinds as u64 * report.seeds_per_kind;
        Ok(SweepOut {
            runs: (report.cells.len() as u64 + 1) * per_grid,
            cells: report.cells.len() as u64,
            json: report.to_json(),
            shard,
        })
    }
}

struct Sweep {
    spec: SweepSpec,
    shard: Option<(usize, TransportKind)>,
    /// The local report every sharded report must equal byte for byte.
    local_json: String,
    /// Mean messages of an honest run over the sweep's seeds. A report
    /// carries no message counts, so `msgs_per_s` on the sweep workloads
    /// is executions × this figure: nominal, but it repeats exactly.
    msgs_per_run: f64,
}

impl Sweep {
    fn new(shard: Option<(usize, TransportKind)>) -> Result<Self, String> {
        let spec = SweepSpec::new()?;
        let local = spec.run(None, 0, &mut Tracer::off())?;
        let honest = spec
            .inputs
            .plan
            .seeds(0..spec.conf.seeds_per_kind())
            .run_batch();
        Ok(Sweep {
            msgs_per_run: honest.mean_messages(),
            local_json: local.json,
            shard,
            spec,
        })
    }
}

impl Workload for Sweep {
    fn warmup_units(&self) -> u64 {
        4
    }

    fn unit(&mut self, _seed: u64, id: u64, tracer: &mut Tracer) -> Result<UnitOut, String> {
        // The sweep's own grid fixes its seeds (0, 1): the workload seed
        // has nothing to derive here, and every unit is the same sweep.
        let out = self.spec.run(self.shard, id, tracer)?;
        if out.json != self.local_json {
            return Err("sweep report differs from the local report".into());
        }
        Ok(UnitOut {
            runs: out.runs,
            msgs: (out.runs as f64 * self.msgs_per_run).round() as u64,
        })
    }
}

// ---------------------------------------------------------------------------
// store_rw: record → drop → open → load → replay on a file-backed store
// ---------------------------------------------------------------------------

// Half the issue's sizing (128 / 64 / 16), for the same reason as the
// sweep's: a cycle stays near 30 ms on the sandbox.
pub const STORE_RUNS: usize = 64;
const STORE_OUTCOMES: usize = 32;
pub const STORE_REPLAYS: usize = 8;

/// Outcomes recorded once at set-up and cycled through every store cycle.
pub struct StoreRw {
    inputs: Inputs,
    outcomes: Vec<(u64, Outcome)>,
    path: PathBuf,
}

/// Per-phase wall times of one cycle, for the `store.*` probes.
#[derive(Default)]
pub struct CycleTimes {
    pub record_ns: u64,
    pub open_ns: u64,
    pub load_ns: u64,
    pub replay_ns: u64,
    pub events: u64,
    pub file_bytes: u64,
}

impl StoreRw {
    pub fn new(dir: &Path, seed: u64) -> Result<Self, String> {
        let inputs = Inputs::n5()?;
        let outcomes = (0..STORE_OUTCOMES as u64)
            .map(|i| {
                let seed = run_seed(seed, 0x5701, i);
                let out = inputs.plan.run_with(&SchedulerKind::Random, seed);
                inputs.check(&out).map(|()| (seed, out))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StoreRw {
            inputs,
            outcomes,
            path: dir.join("rw.mtrc"),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    fn header(&self, session: u64, seed: u64) -> RunHeader {
        let mut header = RunHeader::bare(session, seed);
        header.kind = Some(SchedulerKind::Random);
        header.plan = PlanKind::CheapTalk;
        header.n = self.inputs.n as u64;
        header.k = self.inputs.k as u64;
        header
    }

    /// One full cycle, every step checked.
    pub fn cycle(&self, id: u64, tracer: &mut Tracer) -> Result<(UnitOut, CycleTimes), String> {
        let mut times = CycleTimes::default();
        let clock = std::time::Instant::now;

        let start = clock();
        tracer.span("store.record", id, |_| -> Result<(), String> {
            let mut store = TraceStore::create(&self.path).map_err(|e| format!("create: {e}"))?;
            for i in 0..STORE_RUNS {
                let (seed, outcome) = &self.outcomes[i % STORE_OUTCOMES];
                store
                    .record(self.header(i as u64, *seed), outcome)
                    .map_err(|e| format!("record {i}: {e}"))?;
                times.events += outcome.trace.events().len() as u64;
            }
            Ok(()) // the store is dropped here: the file is all that is left
        })?;
        times.record_ns = start.elapsed().as_nanos() as u64;
        times.file_bytes = std::fs::metadata(&self.path)
            .map_err(|e| format!("stat: {e}"))?
            .len();

        let start = clock();
        let store = tracer.span("store.open", id, |_| {
            TraceStore::open(&self.path).map_err(|e| format!("open: {e}"))
        })?;
        times.open_ns = start.elapsed().as_nanos() as u64;
        if store.len() != STORE_RUNS {
            return Err(format!("reopened store holds {} runs", store.len()));
        }

        let start = clock();
        let runs = tracer.span("store.load", id, |_| {
            (0..STORE_RUNS)
                .map(|i| store.load(i).map_err(|e| format!("load {i}: {e}")))
                .collect::<Result<Vec<_>, _>>()
        })?;
        times.load_ns = start.elapsed().as_nanos() as u64;

        let start = clock();
        let mut msgs = 0;
        tracer.span("store.replay", id, |_| -> Result<(), String> {
            for i in (0..STORE_RUNS).step_by(STORE_RUNS / STORE_REPLAYS) {
                replay_plan(&self.inputs.plan, &runs[i]).map_err(|e| format!("replay {i}: {e}"))?;
                msgs += self.outcomes[i % STORE_OUTCOMES].1.messages_sent;
            }
            Ok(())
        })?;
        times.replay_ns = start.elapsed().as_nanos() as u64;

        let out = UnitOut {
            runs: STORE_RUNS as u64,
            msgs,
        };
        Ok((out, times))
    }

    /// The recorded outcomes, for the store probes.
    pub fn outcomes(&self) -> &[(u64, Outcome)] {
        &self.outcomes
    }
}

impl Workload for StoreRw {
    fn warmup_units(&self) -> u64 {
        4
    }

    fn unit(&mut self, _seed: u64, id: u64, tracer: &mut Tracer) -> Result<UnitOut, String> {
        // What is stored was drawn at set-up; a cycle has no seed to take.
        self.cycle(id, tracer).map(|(out, _)| out)
    }
}
