//! The repo benchmark: `BENCHMARK.json` at the repository root names this
//! program, its workloads and its metrics. See `README.md` beside it.
//!
//! ```text
//! mediator-benchmark                          every workload, then the traced pass
//! mediator-benchmark --aa                     the same twice; exits 1 if the two disagree
//! mediator-benchmark --workload W --trace 0   one workload's end-to-end metrics (driver form)
//! mediator-benchmark --workload W --trace 1   the per-layer metrics (driver form)
//!     --seed N      workload seed (default 0)
//!     --seconds S   measured seconds per workload (default: BENCHMARK.json's run_seconds)
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod inputs;
mod json;
mod ladder;
mod probes;
mod round;
mod spec;
mod stats;
mod svc;
mod trace;
mod workloads;

use probes::Layers;
use round::{aggregate, EndToEnd, Round};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use trace::Tracer;

/// Rounds per workload per run. Each measures set-up and peak memory once,
/// so `setup_s` and `peak_rss_mb` are medians of five.
const ROUNDS: u64 = 5;
/// A round whose `host.ref_ns` is further than this from the invocation's
/// median ran on a host in an unusual state and is run again …
const DRIFT_TOLERANCE: f64 = 0.05;
/// … at most three times in a full run. The driver form re-runs nothing:
/// its time is capped, and the quiet twentieth already leaves a slow
/// round's blocks out.
const MAX_RETRIES: usize = 3;
/// Share of `--seconds` the traced round of a workload runs for.
const TRACED_ROUND_SHARE: f64 = 0.15;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    /// Internal: run this one round in-process and print it as JSON.
    child_round: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: spec::run_seconds(),
        trace: false,
        aa: false,
        child_round: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match workloads::NAMES.iter().find(|n| **n == name) {
                    Some(known) => Some(*known),
                    None if name == "all" => None,
                    None => {
                        return Err(format!(
                            "unknown workload '{name}' (have: {}, all)",
                            workloads::NAMES.join(", ")
                        ))
                    }
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--aa" => args.aa = true,
            "--child-round" => {
                args.child_round = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--child-round: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mediator-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let window = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    match (args.workload, args.child_round) {
        (Some(w), Some(r)) => {
            let round = round::run_round(w, args.seed, r, window, &mut Tracer::off());
            println!("{}", round.to_json());
            ExitCode::SUCCESS
        }
        (Some(w), None) if args.trace => driver_traced(w, &args),
        (Some(w), None) => driver_end_to_end(w, &args),
        (None, _) => full_run(&args),
    }
}

// ---------------------------------------------------------------------------
// Rounds in child processes, and the drift guard
// ---------------------------------------------------------------------------

/// Runs one round in a child process of its own and reads its result.
fn child_round(workload: &str, seed: u64, round: u64, seconds: f64) -> Round {
    let spawn = || -> Result<Round, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = Command::new(exe)
            .args(["--workload", workload, "--child-round", &round.to_string()])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().ok_or("child printed nothing")?;
        if !out.status.success() {
            return Err(format!("child exited with {}", out.status));
        }
        Round::from_json(line)
    };
    spawn().unwrap_or_else(|e| Round {
        attempted: 1,
        failed: 1,
        errors: vec![format!("round {round} child: {e}")],
        ..Round::default()
    })
}

/// One workload's rounds within an invocation.
struct Measured {
    workload: &'static str,
    rounds: Vec<Round>,
}

/// Runs `ROUNDS` rounds of each workload, interleaved — round 0 of every
/// workload, then round 1 of every workload, … — so that slow drift of the
/// host lands on every workload alike, then re-runs the rounds the drift
/// guard singles out, worst first, at most `max_retries` of them. Returns
/// the re-runs made.
fn measure(
    names: &[&'static str],
    seed: u64,
    seconds: f64,
    max_retries: usize,
) -> (Vec<Measured>, Vec<String>) {
    let mut all: Vec<Measured> = names
        .iter()
        .map(|&workload| Measured {
            workload,
            rounds: Vec::new(),
        })
        .collect();
    for round in 0..ROUNDS {
        for m in &mut all {
            m.rounds.push(child_round(m.workload, seed, round, seconds));
        }
    }
    let mut retries = Vec::new();
    for _ in 0..max_retries {
        // Every round that reported a reference time, as (workload index,
        // round index), lined up with `refs`.
        let index: Vec<(usize, usize)> = all
            .iter()
            .enumerate()
            .flat_map(|(w, m)| (0..m.rounds.len()).map(move |r| (w, r)))
            .filter(|&(w, r)| all[w].rounds[r].ref_ns > 0.0)
            .collect();
        let refs: Vec<f64> = index
            .iter()
            .map(|&(w, r)| all[w].rounds[r].ref_ns)
            .collect();
        let Some((worst, mid)) = host::worst_drift(&refs, DRIFT_TOLERANCE) else {
            break;
        };
        let (w, r) = index[worst];
        retries.push(format!(
            "{} round {r}: host.ref_ns {:.0} vs invocation median {mid:.0} ({:+.1}%), re-run",
            all[w].workload,
            refs[worst],
            (refs[worst] / mid - 1.0) * 100.0
        ));
        all[w].rounds[r] = child_round(all[w].workload, seed, r as u64, seconds);
    }
    (all, retries)
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn print_fingerprint() {
    for (key, value) in host::fingerprint() {
        println!("host.{key:<8} {value}");
    }
}

fn print_end_to_end(rows: &[(&str, EndToEnd)]) {
    println!(
        "\n{:<13} {:>11} {:>11} {:>11} {:>11} {:>14} {:>12} {:>10} {:>11} {:>8} {:>6}",
        "workload",
        "runs_per_s",
        "unit_p50_ms",
        "p50_all_ms",
        "unit_p95_ms",
        "cpu_ms_per_run",
        "msgs_per_s",
        "fail_share",
        "peak_rss_mb",
        "setup_s",
        "units"
    );
    println!(
        "{:<13} {:>11} {:>11} {:>11} {:>11} {:>14} {:>12} {:>10} {:>11} {:>8} {:>6}",
        "", "1/s", "ms", "ms", "ms", "ms", "1/s", "ratio", "MB", "s", "count"
    );
    for (name, e) in rows {
        println!(
            "{:<13} {:>11.1} {:>11.3} {:>11.3} {:>11.3} {:>14.4} {:>12.0} {:>10.4} {:>11.1} {:>8.3} {:>6}",
            name,
            e.runs_per_s,
            e.unit_p50_ms,
            e.unit_p50_all_ms,
            e.unit_p95_ms,
            e.cpu_ms_per_run,
            e.msgs_per_s,
            e.fail_share,
            e.peak_rss_mb,
            e.setup_s,
            e.units_ok
        );
        if e.tail_percentile < 95.0 {
            println!(
                "{:<13} note: {} units support p{:.0} only; unit_p95_ms reads that percentile",
                "", e.units_ok, e.tail_percentile
            );
        }
    }
}

fn print_failures(workload: &str, rounds: &[Round]) {
    for (i, r) in rounds.iter().enumerate() {
        for e in &r.errors {
            println!("FAILED {workload} round {i}: {e}");
        }
    }
}

fn print_layers(layers: &Layers) {
    println!("\nper-layer metrics");
    for (name, unit) in probes::PER_LAYER {
        match layers.values.get(name) {
            Some(v) => println!("  {name:<38} {v:>16.3} {unit}"),
            None => println!("  {name:<38} {:>16} {unit}", "missing"),
        }
    }
    for e in &layers.errors {
        println!("FAILED probe {e}");
    }
}

/// The stacked ladder table: what each rung adds to the one above it.
fn print_ladder(layers: &Layers, tracer: &Tracer) {
    if layers.rungs.is_empty() {
        return;
    }
    println!(
        "\nladder (n = 5, one session in flight, {} sessions per rung)",
        layers.rungs[0].sessions
    );
    println!(
        "  {:<22} {:>9} {:>9} {:>12} {:>9} {:>9} {:>10}",
        "rung", "wall_ms", "cpu_ms", "+ns", "+%", "frames", "bytes"
    );
    let mut above: Option<f64> = None;
    for r in &layers.rungs {
        let (delta, pct) = match above {
            Some(a) if a > 0.0 => (
                format!("{:+.0}", (r.wall_ms - a) * 1e6),
                format!("{:+.1}", (r.wall_ms / a - 1.0) * 100.0),
            ),
            _ => ("-".into(), "-".into()),
        };
        // Only the rungs the benchmark pumps itself can see their wire.
        let seen = |x: f64| {
            if x > 0.0 {
                format!("{x:.0}")
            } else {
                "-".into()
            }
        };
        println!(
            "  {:<22} {:>9.3} {:>9.3} {:>12} {:>9} {:>9} {:>10}",
            r.name,
            r.wall_ms,
            r.cpu_ms,
            delta,
            pct,
            seen(r.frames),
            seen(r.bytes)
        );
        above = Some(r.wall_ms);
    }
    // The traced `mac` rung, layer by layer: self time per session.
    let Some((traced, first_span)) = &layers.traced_mac else {
        return;
    };
    let rows = tracer.summary_from(*first_span);
    let Some(root) = rows.iter().find(|r| r.name == "mac") else {
        return;
    };
    let sessions = root.spans.max(1) as f64;
    println!(
        "\nladder.mac traced ({:.3} ms/session traced, {:.0} frames, {:.0} bytes per session)",
        traced.wall_ms, traced.frames, traced.bytes
    );
    println!(
        "  {:<22} {:>12} {:>8} {:>12} {:>10}",
        "layer", "self_ns", "% rung", "calls", "ns/call"
    );
    let rung_ns = root.total_ns as f64 / sessions;
    for row in &rows {
        let self_ns = row.self_ns as f64 / sessions;
        let calls = row.calls as f64 / sessions;
        let label = if row.name == "mac" {
            "(pump loop + tracing)"
        } else {
            row.name
        };
        println!(
            "  {:<22} {:>12.0} {:>8.1} {:>12.0} {:>10.0}",
            label,
            self_ns,
            self_ns / rung_ns * 100.0,
            calls,
            if row.name == "mac" {
                0.0
            } else {
                self_ns / calls.max(1.0)
            }
        );
    }
}

/// Per-name span totals of a traced workload round.
fn print_span_summary(workload: &str, tracer: &Tracer, first_span: usize) {
    let rows = tracer.summary_from(first_span);
    let Some(units) = rows.iter().find(|r| r.name == "unit").map(|r| r.spans) else {
        return;
    };
    println!("\ntraced round of {workload} ({units} units): per unit");
    println!(
        "  {:<22} {:>14} {:>14} {:>10}",
        "span", "total_ns", "self_ns", "spans"
    );
    for row in rows {
        println!(
            "  {:<22} {:>14.0} {:>14.0} {:>10.2}",
            format!("{}{}", "  ".repeat(row.depth), row.name),
            row.total_ns as f64 / units as f64,
            row.self_ns as f64 / units as f64,
            row.spans as f64 / units as f64
        );
    }
}

// ---------------------------------------------------------------------------
// The result line
// ---------------------------------------------------------------------------

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn end_to_end_metrics(e: &EndToEnd) -> Vec<(&'static str, f64, &'static str)> {
    let values = [
        e.runs_per_s,
        e.unit_p50_ms,
        e.cpu_ms_per_run,
        e.msgs_per_s,
        1.0 - e.fail_share,
        e.peak_rss_mb,
        e.setup_s,
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

fn layer_metrics(layers: &Layers) -> (Vec<(&'static str, f64, &'static str)>, usize) {
    let mut missing = 0;
    let metrics = probes::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layers.values.get(name).copied().unwrap_or_else(|| {
                missing += 1;
                0.0
            });
            (name, value, unit)
        })
        .collect();
    (metrics, missing)
}

// ---------------------------------------------------------------------------
// Driver form: one workload per invocation
// ---------------------------------------------------------------------------

fn driver_end_to_end(workload: &'static str, args: &Args) -> ExitCode {
    print_fingerprint();
    let (measured, _) = measure(&[workload], args.seed, args.seconds, 0);
    let m = &measured[0];
    print_failures(m.workload, &m.rounds);
    let e = aggregate(&m.rounds);
    print_end_to_end(&[(m.workload, e.clone())]);
    println!(
        "{}",
        result_line(
            e.failed == 0,
            e.attempted,
            e.failed,
            &end_to_end_metrics(&e)
        )
    );
    ExitCode::SUCCESS
}

/// The traced pass: a shortened traced round of each workload in `names`,
/// then the probes and the ladder. Writes `out/trace.json`.
fn traced_pass(names: &[&'static str], args: &Args) -> Layers {
    let mut tracer = Tracer::on();
    let mut layers = Layers::default();
    let window = Duration::from_secs_f64(args.seconds * TRACED_ROUND_SHARE);
    for &workload in names {
        let first_span = tracer.spans().len();
        // Round index `ROUNDS`: seeds no untraced round has used.
        let r = round::run_round(workload, args.seed, ROUNDS, window, &mut tracer);
        layers.count(
            r.attempted,
            r.failed,
            r.errors.iter().map(|e| format!("traced {workload}: {e}")),
        );
        print_span_summary(workload, &tracer, first_span);
    }
    match round::ScratchDir::create("probes") {
        Ok(dir) => probes::run(
            &mut layers,
            args.seed,
            args.seconds / 10.0,
            &dir.0,
            &mut tracer,
        ),
        Err(e) => layers.count(1, 1, [format!("probes cannot start: {e}")]),
    }
    print_layers(&layers);
    print_ladder(&layers, &tracer);
    let path = round::out_dir().join("trace.json");
    match std::fs::create_dir_all(round::out_dir())
        .and_then(|()| std::fs::write(&path, tracer.to_json()))
    {
        Ok(()) => println!(
            "\nwrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("\ncould not write {}: {e}", path.display()),
    }
    layers
}

fn driver_traced(workload: &'static str, args: &Args) -> ExitCode {
    print_fingerprint();
    let layers = traced_pass(&[workload], args);
    let (metrics, missing) = layer_metrics(&layers);
    let correct = layers.failed == 0 && missing == 0;
    println!(
        "{}",
        result_line(correct, layers.attempted, layers.failed, &metrics)
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Full run: every workload, then the traced pass; `--aa` does it twice
// ---------------------------------------------------------------------------

struct FullSet {
    rows: Vec<(&'static str, EndToEnd)>,
    layers: Layers,
}

impl FullSet {
    /// Checked operations attempted and failed, end-to-end and traced.
    fn totals(&self) -> (u64, u64) {
        let sum = |f: fn(&EndToEnd) -> u64| self.rows.iter().map(|(_, e)| f(e)).sum::<u64>();
        (
            sum(|e| e.attempted) + self.layers.attempted,
            sum(|e| e.failed) + self.layers.failed,
        )
    }
}

fn full_set(args: &Args, label: &str) -> FullSet {
    println!(
        "\n=== set {label}: {} workloads x {ROUNDS} interleaved rounds, seed {} ===",
        workloads::NAMES.len(),
        args.seed
    );
    let (measured, retries) = measure(&workloads::NAMES, args.seed, args.seconds, MAX_RETRIES);
    for line in &retries {
        println!("drift guard: {line}");
    }
    println!(
        "drift guard: {} of at most {MAX_RETRIES} re-runs used",
        retries.len()
    );
    let rows: Vec<(&'static str, EndToEnd)> = measured
        .iter()
        .map(|m| {
            print_failures(m.workload, &m.rounds);
            (m.workload, aggregate(&m.rounds))
        })
        .collect();
    print_end_to_end(&rows);
    let layers = traced_pass(&workloads::NAMES, args);
    FullSet { rows, layers }
}

fn full_run(args: &Args) -> ExitCode {
    print_fingerprint();
    let a = full_set(args, "A");
    let (mut attempted, mut failed) = a.totals();
    let mut breaches = 0;
    if args.aa {
        let b = full_set(args, "B");
        attempted += b.totals().0;
        failed += b.totals().1;
        breaches = compare_sets(&a, &b);
    }
    // Per-workload numbers are in the tables above; the result line of a
    // full run carries set A's per-layer metrics.
    let (metrics, missing) = layer_metrics(&a.layers);
    let correct = failed == 0 && missing == 0 && breaches == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A/A: both medians and the relative gap of every gated (metric, workload)
/// pair against its bound, and the exact counts. Returns the breaches.
fn compare_sets(a: &FullSet, b: &FullSet) -> usize {
    let bounds = spec::bounds();
    let mut breaches = 0;
    println!("\n=== A/A: set B against set A ===");
    println!(
        "  {:<13} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for ((workload, ea), (_, eb)) in a.rows.iter().zip(&b.rows) {
        for ((name, va, _), (_, vb, _)) in end_to_end_metrics(ea)
            .into_iter()
            .zip(end_to_end_metrics(eb))
        {
            let Some(bound) = bounds.iter().find(|m| m.name == name) else {
                continue;
            };
            // How much worse B is than A, as a share of A, in the metric's
            // own direction; negative means B read better.
            let worse = if va == 0.0 {
                0.0
            } else if bound.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            // A/A is symmetric: either set reading worse than the other by
            // more than the bound is a disagreement.
            let breach = worse.abs() > bound.bound;
            breaches += breach as usize;
            println!(
                "  {:<13} {:<15} {:>14.4} {:>14.4} {:>+8.1}% {:>7}  {}",
                workload,
                name,
                va,
                vb,
                worse * 100.0,
                format!("{}%", bound.bound * 100.0),
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    for name in probes::EXACT_COUNTS {
        let (va, vb) = (a.layers.values.get(name), b.layers.values.get(name));
        let same = va.is_some() && va == vb;
        breaches += !same as usize;
        println!(
            "  {:<13} {:<29} {:>14} {:>14}  {}",
            "exact count",
            name,
            va.map_or("missing".into(), |v| v.to_string()),
            vb.map_or("missing".into(), |v| v.to_string()),
            if same { "identical" } else { "BREACH" }
        );
    }
    println!("A/A: {breaches} breach(es)");
    breaches
}
