//! One measured round of one workload, and how rounds become metrics.
//!
//! A round is: set up, warm up (both count as `setup_s`), then run units
//! back to back until the round's time is up. The parent process runs each
//! round in a child of its own, so that the child's resident-set
//! high-water mark belongs to that workload alone, and so that set-up is
//! measured once per round — several times per run — with no state
//! carried over.

use crate::host;
use crate::inputs::run_seed;
use crate::json::{escape, Json};
use crate::stats::{self, median, percentile_sorted, supported_percentile};
use crate::trace::Tracer;
use crate::workloads;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A stretch of consecutive units within a round's timed window: the grain
/// at which the host's state is told apart (see [`QUIET_ONE_IN`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    pub wall_s: f64,
    /// Process CPU (all threads) over the block.
    pub cpu_s: f64,
    /// Executions completed and their messages, over successful units.
    pub runs: u64,
    pub msgs: u64,
    /// Latency of each successful unit.
    pub lat_ns: Vec<u64>,
}

impl Block {
    fn runs_per_s(&self) -> f64 {
        self.runs as f64 / self.wall_s
    }
}

/// A block closes at the first unit boundary at least this long after it
/// opened.
const BLOCK: Duration = Duration::from_millis(100);

/// Raw results of one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Units attempted in the timed window (plus warm-up units that
    /// failed, and checks that only `finish` can make).
    pub attempted: u64,
    pub failed: u64,
    pub blocks: Vec<Block>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// `host.ref_ns`: median of the samples taken between blocks.
    pub ref_ns: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

const MAX_ERRORS_KEPT: usize = 5;

impl Round {
    fn fail(&mut self, count: u64, what: String) {
        self.attempted += count;
        self.failed += count;
        if self.errors.len() < MAX_ERRORS_KEPT {
            self.errors.push(what);
        }
    }

    pub fn to_json(&self) -> String {
        let blocks: Vec<String> = self
            .blocks
            .iter()
            .map(|b| {
                let lat: Vec<String> = b.lat_ns.iter().map(u64::to_string).collect();
                format!(
                    "[{},{},{},{},[{}]]",
                    b.wall_s,
                    b.cpu_s,
                    b.runs,
                    b.msgs,
                    lat.join(",")
                )
            })
            .collect();
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"blocks\": [{}], \"setup_s\": {}, \
             \"peak_rss_mb\": {}, \"ref_ns\": {}, \"errors\": [{}]}}",
            self.attempted,
            self.failed,
            blocks.join(","),
            self.setup_s,
            self.peak_rss_mb,
            self.ref_ns,
            errors.join(",")
        )
    }

    pub fn from_json(line: &str) -> Result<Round, String> {
        let v = Json::parse(line)?;
        let list = |key: &str| v.get(key).map(Json::as_arr).unwrap_or(&[]);
        Ok(Round {
            attempted: v.num("attempted")? as u64,
            failed: v.num("failed")? as u64,
            blocks: list("blocks")
                .iter()
                .map(|b| {
                    let field = |i: usize| {
                        b.as_arr()
                            .get(i)
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("block field {i} missing"))
                    };
                    let lat = b.as_arr().get(4).ok_or("block latencies missing")?;
                    Ok(Block {
                        wall_s: field(0)?,
                        cpu_s: field(1)?,
                        runs: field(2)? as u64,
                        msgs: field(3)? as u64,
                        lat_ns: lat
                            .as_arr()
                            .iter()
                            .filter_map(Json::as_f64)
                            .map(|x| x as u64)
                            .collect(),
                    })
                })
                .collect::<Result<_, String>>()?,
            setup_s: v.num("setup_s")?,
            peak_rss_mb: v.num("peak_rss_mb")?,
            ref_ns: v.num("ref_ns")?,
            errors: list("errors")
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_owned)
                .collect(),
        })
    }
}

/// Where the benchmark may write: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    // `cargo run` exports the manifest directory at run time; the
    // compile-time value covers a binary started by hand.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    PathBuf::from(manifest).join("out")
}

/// An empty scratch directory that is removed again on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(label: &str) -> Result<Self, String> {
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs round `round` of workload `name`, timing units for `window`.
/// Never fails: a workload that cannot start is a round with one unit
/// attempted and one failed.
pub fn run_round(
    name: &str,
    seed: u64,
    round: u64,
    window: Duration,
    tracer: &mut Tracer,
) -> Round {
    let begin = Instant::now();
    let mut r = Round::default();
    let opened = ScratchDir::create(name)
        .and_then(|dir| workloads::open(name, &dir.0, seed).map(|w| (dir, w)));
    let (dir, mut workload) = match opened {
        Ok(pair) => pair,
        Err(e) => {
            r.fail(1, format!("cannot start: {e}"));
            r.setup_s = begin.elapsed().as_secs_f64();
            return r;
        }
    };

    // Stream 2r seeds the warm-up, 2r + 1 the timed window.
    for i in 0..workload.warmup_units() {
        if let Err(e) = workload.unit(run_seed(seed, 2 * round, i), i, &mut Tracer::off()) {
            r.fail(1, format!("warm-up unit {i}: {e}"));
        }
    }
    r.setup_s = begin.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut host_clock = host::RefClock::start();
    let mut host_refs = Vec::new();
    let mut id = 0u64;
    while start.elapsed() < window {
        let mut block = Block::default();
        let (block_start, cpu_before) = (Instant::now(), stats::process_cpu_s());
        while block_start.elapsed() < BLOCK {
            let unit_start = Instant::now();
            let unit_seed = run_seed(seed, 2 * round + 1, id);
            let out = tracer.span("unit", id, |t| workload.unit(unit_seed, id, t));
            let lat = unit_start.elapsed();
            match out {
                Ok(out) => {
                    r.attempted += 1;
                    block.runs += out.runs;
                    block.msgs += out.msgs;
                    block.lat_ns.push(lat.as_nanos() as u64);
                }
                Err(e) => r.fail(1, format!("unit {id}: {e}")),
            }
            id += 1;
        }
        block.wall_s = block_start.elapsed().as_secs_f64();
        block.cpu_s = stats::process_cpu_s() - cpu_before;
        r.blocks.push(block);
        // Between blocks, so the reference kernel's time is nobody's.
        host_refs.push(host_clock.sample());
    }
    r.ref_ns = median(&host_refs);

    if let Err((count, what)) = workload.finish() {
        r.fail(count, what);
    }
    drop(dir);
    r.peak_rss_mb = stats::peak_rss_mb();
    r
}

/// The timing metrics are read from the fastest one in this many of a
/// run's blocks: the quiet twentieth, about a second and a half of a
/// thirty-second run.
///
/// The benchmark runs on a few cores of a shared host, and what the
/// neighbours do shows: on identical code a two-second round of
/// `svc_many_mem` costs anything from 1.5 to 3.2 CPU-ms per execution, in
/// stretches of seconds to tens of seconds. Interference only ever slows
/// the program down, so the fast end of a run's blocks is the program and
/// the rest is the host. A median over all blocks reads whatever mix of
/// stretches the run met and repeats to 10–15%, however long the run; the
/// fastest twentieth of a thirty-second run repeats to 1–7% while the host
/// has quiet seconds to offer and to 7–13% when it has few (README,
/// "Noise").
pub const QUIET_ONE_IN: usize = 20;

/// The numbers one workload reports, from its rounds. Rates, cost and the
/// median latency come from the quiet blocks — the fastest one in
/// [`QUIET_ONE_IN`] of the blocks of all rounds, pooled; set-up and memory are medians
/// over rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub runs_per_s: f64,
    pub unit_p50_ms: f64,
    /// Median and tail over every successful unit: printed, not gated.
    pub unit_p50_all_ms: f64,
    pub unit_p95_ms: f64,
    /// The percentile `unit_p95_ms` was actually read at (95 with ≥ 200
    /// successful units; see `stats::supported_percentile`).
    pub tail_percentile: f64,
    pub cpu_ms_per_run: f64,
    pub msgs_per_s: f64,
    pub fail_share: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub units_ok: usize,
}

fn sorted_ms(lat_ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut ms: Vec<f64> = lat_ns.map(|ns| ns as f64 / 1e6).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are not NaN"));
    ms
}

pub fn aggregate(rounds: &[Round]) -> EndToEnd {
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        let values: Vec<f64> = rounds.iter().map(f).collect();
        median(&values)
    };
    // A block in which nothing completed is nobody's best; a run made of
    // such blocks reads 0 on every timing metric, never NaN.
    let mut blocks: Vec<&Block> = rounds
        .iter()
        .flat_map(|r| r.blocks.iter())
        .filter(|b| b.runs > 0)
        .collect();
    blocks.sort_by(|a, b| {
        b.runs_per_s()
            .partial_cmp(&a.runs_per_s())
            .expect("rates are not NaN")
    });
    let quiet = &blocks[..blocks.len().div_ceil(QUIET_ONE_IN)];
    let sum = |f: &dyn Fn(&Block) -> f64| -> f64 { quiet.iter().map(|b| f(b)).sum() };
    let per = |total: f64, of: f64| if of > 0.0 { total / of } else { 0.0 };
    let (wall_s, runs) = (sum(&|b| b.wall_s), sum(&|b| b.runs as f64));
    let quiet_ms = sorted_ms(quiet.iter().flat_map(|b| b.lat_ns.iter().copied()));

    let all_ms = sorted_ms(
        rounds
            .iter()
            .flat_map(|r| r.blocks.iter())
            .flat_map(|b| b.lat_ns.iter().copied()),
    );
    let tail_percentile = supported_percentile(all_ms.len(), 95.0);
    let percentile = |sorted: &[f64], p: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            percentile_sorted(sorted, p)
        }
    };
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    EndToEnd {
        runs_per_s: per(runs, wall_s),
        unit_p50_ms: percentile(&quiet_ms, 50.0),
        unit_p50_all_ms: percentile(&all_ms, 50.0),
        unit_p95_ms: percentile(&all_ms, tail_percentile),
        tail_percentile,
        cpu_ms_per_run: per(sum(&|b| b.cpu_s) * 1e3, runs),
        msgs_per_s: per(sum(&|b| b.msgs as f64), wall_s),
        fail_share: failed as f64 / attempted.max(1) as f64,
        peak_rss_mb: per_round(&|r| r.peak_rss_mb),
        setup_s: per_round(&|r| r.setup_s),
        attempted,
        failed,
        units_ok: all_ms.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round of one block per `(runs, wall_s, unit latencies in ms)`.
    fn round(blocks: &[(u64, f64, &[u64])]) -> Round {
        Round {
            attempted: blocks.iter().map(|b| b.2.len() as u64).sum(),
            blocks: blocks
                .iter()
                .map(|&(runs, wall_s, lat_ms)| Block {
                    wall_s,
                    cpu_s: wall_s / 2.0,
                    runs,
                    msgs: runs * 10,
                    lat_ns: lat_ms.iter().map(|ms| ms * 1_000_000).collect(),
                })
                .collect(),
            setup_s: 0.25,
            peak_rss_mb: 8.0,
            ref_ns: 1000.0,
            ..Round::default()
        }
    }

    #[test]
    fn round_survives_the_trip_through_json() {
        let mut r = round(&[(3, 1.5, &[1, 2, 3]), (4, 0.125, &[])]);
        r.fail(2, "unit 7: \"quoted\"\nline".into());
        assert_eq!(Round::from_json(&r.to_json()), Ok(r));
    }

    #[test]
    fn timing_comes_from_the_fastest_twentieth_of_the_blocks() {
        // Forty blocks over two rounds; the two fastest (200 and 150
        // runs/s) are the quiet twentieth, wherever they sit.
        let slow: (u64, f64, &[u64]) = (100, 2.0, &[20]);
        let mut first = vec![slow; 20];
        let mut second = vec![slow; 20];
        first[3] = (200, 1.0, &[4, 5, 6]);
        second[7] = (300, 2.0, &[7, 8]);
        let e = aggregate(&[round(&first), round(&second)]);
        assert_eq!(e.runs_per_s, 500.0 / 3.0);
        assert_eq!(e.msgs_per_s, 5000.0 / 3.0);
        assert_eq!(e.cpu_ms_per_run, 1500.0 / 500.0);
        assert_eq!(e.unit_p50_ms, 6.0);
        // What a user meets is every unit, slow stretches included.
        assert_eq!(e.units_ok, 43);
        assert_eq!(e.unit_p50_all_ms, 20.0);
        assert_eq!((e.tail_percentile, e.unit_p95_ms), (76.0, 20.0));
        assert_eq!((e.setup_s, e.peak_rss_mb, e.fail_share), (0.25, 8.0, 0.0));
        // Fewer than twenty blocks: the single fastest one.
        let e = aggregate(&[round(&[slow, (50, 0.1, &[3]), slow])]);
        assert_eq!((e.runs_per_s, e.unit_p50_ms), (500.0, 3.0));
    }

    #[test]
    fn failures_count_against_attempts_and_stay_out_of_latency() {
        let mut bad = round(&[]);
        bad.fail(1, "cannot start".into());
        let e = aggregate(&[bad]);
        assert_eq!((e.attempted, e.failed, e.fail_share), (1, 1, 1.0));
        assert_eq!(
            (e.runs_per_s, e.unit_p50_ms, e.cpu_ms_per_run),
            (0.0, 0.0, 0.0)
        );
        // A block whose every unit failed is nobody's best block.
        let mut empty = round(&[(0, 0.1, &[])]);
        empty.fail(3, "unit 0: wrong answer".into());
        let e = aggregate(&[empty]);
        assert_eq!(
            (e.runs_per_s, e.cpu_ms_per_run, e.fail_share),
            (0.0, 0.0, 1.0)
        );
    }
}
