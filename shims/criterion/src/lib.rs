//! Offline stand-in for `criterion`.
//!
//! Provides the subset of the criterion API the bench targets use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`Bencher::iter`]/[`Bencher::iter_batched`], [`criterion_group!`],
//! [`criterion_main!`] — backed by a plain wall-clock loop: warm up
//! briefly, time each iteration, report the **median** ns/iter (robust to
//! scheduler noise, unlike the mean). No plots or regression tracking; the
//! numbers are indicative, which is all an offline container can honestly
//! offer. The printed format is one line per benchmark:
//! `name ... <median> ns/iter (median of <iters> iters)`.
//!
//! Machine-readable output: set `CRITERION_SHIM_JSON=<path>` and every
//! benchmark appends one JSON line `{"name": …, "median_ns": …,
//! "iters": …}` to that file — what CI's `microbench-smoke` job uploads.

use std::time::{Duration, Instant};

/// How batched inputs are grouped per measurement (accepted, not tuned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration setup output.
    SmallInput,
    /// Large per-iteration setup output.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Timing loop handed to each benchmark closure.
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
    target: Duration,
    /// Per-iteration samples in ns (capped; enough for a stable median).
    samples: Vec<u64>,
}

/// Cap on retained per-iteration samples; past it, timing still accrues
/// into the totals but the median rests on the first window.
const MAX_SAMPLES: usize = 65_536;

impl Bencher {
    fn new(target: Duration) -> Self {
        Bencher {
            iters_done: 0,
            elapsed: Duration::ZERO,
            target,
            samples: Vec::new(),
        }
    }

    fn record(&mut self, took: Duration) {
        self.elapsed += took;
        self.iters_done += 1;
        if self.samples.len() < MAX_SAMPLES {
            self.samples
                .push(took.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    fn median_ns(&mut self) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mid = self.samples.len() / 2;
        let (_, m, _) = self.samples.select_nth_unstable(mid);
        Some(*m)
    }

    /// Times repeated calls of `routine` until the sampling budget is spent.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: one untimed call (fills caches, resolves lazy init).
        let _ = routine();
        loop {
            let start = Instant::now();
            let _ = std::hint::black_box(routine());
            self.record(start.elapsed());
            if self.elapsed >= self.target || self.iters_done >= 1_000_000 {
                break;
            }
        }
    }

    /// Times `routine` over fresh `setup` outputs, excluding setup time.
    pub fn iter_batched<S, O, Setup, Routine>(
        &mut self,
        mut setup: Setup,
        mut routine: Routine,
        _size: BatchSize,
    ) where
        Setup: FnMut() -> S,
        Routine: FnMut(S) -> O,
    {
        let _ = routine(setup());
        loop {
            let input = setup();
            let start = Instant::now();
            let _ = std::hint::black_box(routine(input));
            self.record(start.elapsed());
            if self.elapsed >= self.target || self.iters_done >= 1_000_000 {
                break;
            }
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's sampling budget is fixed.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        self.criterion.run_one(&full, f);
        self
    }

    /// Ends the group (printing happens per-benchmark; nothing to flush).
    pub fn finish(&mut self) {}
}

/// The benchmark harness handle.
pub struct Criterion {
    per_bench: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep whole-suite runtime modest: the shim is for smoke-detection
        // and rough comparisons, not publication-grade statistics.
        let ms = std::env::var("CRITERION_SHIM_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200u64);
        Criterion {
            per_bench: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Creates a harness with the default sampling budget.
    pub fn new() -> Self {
        Criterion::default()
    }

    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let id = id.into();
        self.run_one(&id, f);
        self
    }

    fn run_one<F: FnOnce(&mut Bencher)>(&mut self, name: &str, f: F) {
        let mut b = Bencher::new(self.per_bench);
        f(&mut b);
        let Some(median) = b.median_ns() else {
            println!("{name} ... no iterations run");
            return;
        };
        println!(
            "{name} ... {median} ns/iter (median of {} iters)",
            b.iters_done
        );
        if let Ok(path) = std::env::var("CRITERION_SHIM_JSON") {
            if let Err(e) = append_json_line(&path, name, median, b.iters_done) {
                eprintln!("criterion shim: cannot write {path}: {e}");
            }
        }
    }
}

/// Appends one machine-readable result line to `path` (JSON lines format).
fn append_json_line(path: &str, name: &str, median_ns: u64, iters: u64) -> std::io::Result<()> {
    use std::io::Write as _;
    let escaped: String = name
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{{\"name\": \"{escaped}\", \"median_ns\": {median_ns}, \"iters\": {iters}}}"
    )
}

/// Re-export so benches can `use criterion::black_box`.
pub use std::hint::black_box;

/// Bundles benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_runs_and_reports() {
        let mut c = Criterion {
            per_bench: Duration::from_millis(5),
        };
        let mut count = 0u64;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        assert!(count > 1);
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut c = Criterion {
            per_bench: Duration::from_millis(5),
        };
        let mut setups = 0u64;
        let mut g = c.benchmark_group("g");
        g.sample_size(10).bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 16]
                },
                |v| v.len(),
                BatchSize::SmallInput,
            )
        });
        g.finish();
        assert!(setups > 1);
    }
}
