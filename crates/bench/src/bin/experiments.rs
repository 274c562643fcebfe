//! The experiment harness: the tables no test suite certifies (E5, E6,
//! E8–E10) and the artifact modes (`--frontier`, `--replay`). DESIGN.md §4
//! maps every claim of the paper to the experiment or the suite that
//! carries it.
//!
//! ```sh
//! cargo run -p mediator-bench --release --bin experiments            # all tables
//! cargo run -p mediator-bench --release --bin experiments -- --e6   # one
//! ```

use mediator_bench::*;
use mediator_circuits::catalog;
use mediator_core::egl;
use mediator_core::frontier::companion_plan;
use mediator_core::implement::compare_run_sets;
use mediator_core::min_info;
use mediator_core::report::{f4, Table};
use mediator_core::scenario::Scenario;
use mediator_sim::covert::{CovertDecoder, CovertSender};
use mediator_sim::{Process, SchedulerKind, TerminationKind, World};
use mediator_store::{
    record_witness, replay_witness, PlanKind, ReplayError, RunHeader, StoredRun, TraceStore,
    WitnessRecipe,
};
use std::path::Path;

/// The command line, parsed once: the `--fast` modifier and the valued
/// options, each given as `--x v` or `--x=v`.
#[derive(Debug, Default, PartialEq)]
struct Options {
    fast: bool,
    /// `--shard N`: also run the sweep over N in-process mem workers and
    /// assert the rendered artifact byte-identical to the local fan-out.
    shard: Option<usize>,
    out: Option<String>,
    witness_out: Option<String>,
    replay: Option<String>,
}

impl Options {
    /// Seeds per scheduler kind of the sampling tables.
    fn samples(&self) -> usize {
        if self.fast {
            20
        } else {
            60
        }
    }
}

/// One thing the binary can do. The table below is the single source of
/// the usage text, the selection and the dispatch.
struct Command {
    flag: &'static str,
    /// The valued options the command reads, `(option, metavariable)`:
    /// none for a table experiment; a command that reads any is an
    /// artifact mode — it runs alone, and exits nonzero when its check
    /// fails (see the doc comment of the function it calls).
    takes: &'static [(&'static str, &'static str)],
    run: fn(&Options),
}

impl Command {
    fn is_table(&self) -> bool {
        self.takes.is_empty()
    }
}

const SWEEP_OPTIONS: &[(&str, &str)] = &[
    ("--shard", "N"),
    ("--out", "FILE"),
    ("--witness-out", "FILE"),
];

/// In the order a table run executes them.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { flag: "--e5", takes: &[], run: |_| e5_message_scaling() },
    Command { flag: "--e6", takes: &[], run: |o| e6_implementation(o.samples()) },
    Command { flag: "--e8", takes: &[], run: |_| e8_min_info() },
    Command { flag: "--e9", takes: &[], run: |_| e9_egl() },
    Command { flag: "--e10", takes: &[], run: |o| e10_scheduler_collusion(o.samples()) },
    Command { flag: "--frontier", takes: SWEEP_OPTIONS, run: frontier_atlas },
    Command { flag: "--replay", takes: &[("--replay", "FILE")], run: replay_store },
];

fn tables() -> impl Iterator<Item = &'static Command> {
    COMMANDS.iter().filter(|c| c.is_table())
}

fn usage() -> String {
    let tables: Vec<&str> = tables().map(|c| c.flag).collect();
    let mut text = format!("usage: experiments [--all | {}]", tables.join(" "));
    for c in COMMANDS.iter().filter(|c| !c.is_table()) {
        text.push_str(&format!("\n       experiments {}", c.flag));
        for (option, value) in c.takes {
            // A command whose own flag takes the value spells it bare.
            if *option == c.flag {
                text.push_str(&format!(" {value}"));
            } else {
                text.push_str(&format!(" [{option} {value}]"));
            }
        }
    }
    text + "\n       (--fast cuts the sample counts of any of the above)"
}

/// The commands `args` select and the options they run under, or what is
/// wrong with the line. No selection means every table; an artifact mode
/// runs alone; a valued option needs a usable value and a selected
/// command that reads it.
fn parse(args: &[String]) -> Result<(Vec<&'static Command>, Options), String> {
    let mut opts = Options::default();
    let mut picked: Vec<&'static Command> = Vec::new();
    let mut given: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            given.push(name);
            inline
                .or_else(|| args.next().map(String::as_str))
                .filter(|v| !v.is_empty())
                .map(str::to_string)
                .ok_or(format!("`{name}` needs a value"))
        };
        let command = COMMANDS.iter().find(|c| c.flag == name);
        match (name, inline) {
            ("--fast", None) => opts.fast = true,
            ("--all", None) => picked.extend(tables()),
            ("--out", _) => opts.out = Some(value()?),
            ("--witness-out", _) => opts.witness_out = Some(value()?),
            ("--shard", _) => match value()?.parse() {
                Ok(workers) if workers > 0 => opts.shard = Some(workers),
                _ => return Err("`--shard` takes a worker count ≥ 1".to_string()),
            },
            ("--replay", _) => {
                opts.replay = Some(value()?);
                picked.extend(command);
            }
            (_, None) if command.is_some() => picked.extend(command),
            _ => return Err(format!("unrecognised argument `{arg}`")),
        }
    }
    if picked.is_empty() {
        picked.extend(tables());
    }
    if picked.len() > 1 {
        if let Some(mode) = picked.iter().find(|c| !c.is_table()) {
            return Err(format!("`{}` runs alone", mode.flag));
        }
    }
    for option in given {
        let reads = |c: &&Command| c.takes.iter().any(|(o, _)| *o == option);
        if let Some(deaf) = picked.iter().find(|c| !reads(c)) {
            return Err(format!("`{option}` does not apply to `{}`", deaf.flag));
        }
    }
    Ok((picked, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (commands, opts) = parse(&args).unwrap_or_else(|problem| {
        eprintln!("experiments: {problem}\n{}", usage());
        std::process::exit(2);
    });
    if commands[0].is_table() {
        println!("# mediator-talk experiment harness");
        println!("# paper: Implementing Mediators with Asynchronous Cheap Talk (PODC 2019)");
    }
    for command in commands {
        (command.run)(&opts);
    }
}

/// `--frontier` — the lower-bound frontier atlas (DESIGN.md §13): run the
/// grid, machine-check it against the theorem predicates, persist every
/// `Violated` cell's witness run with its typed rebuild recipe, and write
/// the deterministic `FRONTIER.json`. With `--shard N` the grid
/// additionally runs over the PR 9 coordinator/worker plane and the
/// artifact is asserted byte-identical to the local fan-out.
fn frontier_atlas(opts: &Options) {
    use mediator_core::frontier::{run_frontier_local, FrontierSpec, BOT};
    let out = opts.out.as_deref().unwrap_or("FRONTIER.json");
    let witness_out = opts
        .witness_out
        .as_deref()
        .unwrap_or("FRONTIER-WITNESS.mtrc");

    let spec = if opts.fast {
        FrontierSpec::fast()
    } else {
        FrontierSpec::full()
    };
    println!(
        "# frontier atlas: '{}' grid, {} cells",
        spec.name,
        spec.cells().len()
    );
    let atlas = run_frontier_local(&spec);

    let mut t = Table::new(
        "Frontier atlas — empirical classification vs theorem predicate",
        &["cell", "bound", "admits", "experiment", "class", "max gain"],
    );
    for r in &atlas.results {
        t.row(vec![
            r.cell.key(),
            format!("n > {}", r.cell.bound()),
            r.cell.admits().to_string(),
            r.experiment.to_string(),
            r.class.name().to_string(),
            r.max_gain.map(f4).unwrap_or_else(|| "-".to_string()),
        ]);
    }
    println!("{t}");
    let (res, vio, inc) = atlas.counts();
    println!("resilient {res} / violated {vio} / inconclusive {inc}");

    // The machine check: the empirical boundary must coincide with the
    // theorem predicate on every cell.
    if let Err(mismatches) = atlas.check() {
        for m in &mismatches {
            eprintln!("MISMATCH: {m}");
        }
        eprintln!(
            "{} cell(s) contradict the theorem predicate",
            mismatches.len()
        );
        std::process::exit(1);
    }
    println!("machine check: empirical boundary == theorem predicate on all cells");

    // The sharded differential: the whole grid over the coordinator/
    // worker plane must render the identical artifact, byte for byte.
    if let Some(workers) = opts.shard {
        use mediator_net::{run_frontier_sharded, ShardConfig, TransportKind};
        let cfg = ShardConfig::default().lease_deadline(std::time::Duration::from_secs(60));
        let (sharded, log) = run_frontier_sharded(&spec, workers, TransportKind::Mem, &cfg);
        assert_eq!(
            atlas.to_json(),
            sharded.to_json(),
            "sharded atlas ({workers} workers) diverged from the local fan-out"
        );
        println!(
            "sharded differential ({} workers, mem): byte-identical artifact, \
             {} units leased, {} witnesses re-enacted, {} failures",
            workers,
            log.units(),
            log.witnesses_reenacted(),
            log.failures()
        );
    }

    std::fs::write(out, atlas.to_json()).expect("write FRONTIER.json");
    println!("wrote {out}");

    // Persist every Violated cell's witness as a replayable trace, over
    // the companion plan at the cell's coordinates.
    let mut wstore = TraceStore::create(Path::new(witness_out)).expect("create witness store");
    let mut stored = 0u64;
    for r in atlas.violated() {
        let w = r.witness.as_ref().expect("violated cells carry witnesses");
        let recipe = WitnessRecipe {
            cell: (r.cell.theorem.name().to_string(), r.cell.key()),
            strategy: w.strategy.clone(),
            coalition: w.coalition.clone(),
            deadlock: BOT,
        };
        let header = RunHeader {
            kind: Some(w.kind.clone()),
            plan: PlanKind::Mediator,
            n: r.cell.n as u64,
            k: r.cell.k as u64,
            t: r.cell.t as u64,
            ..RunHeader::bare(stored, w.seed)
        };
        let plan = companion_plan(r.cell.n, r.cell.k, r.cell.t);
        record_witness(&mut wstore, header, &plan, &recipe).expect("record witness");
        stored += 1;
    }
    println!("stored {stored} witness trace(s) → {witness_out}");
    println!("reproduce: cargo run -p mediator-bench --bin experiments -- --replay {witness_out}");
}

/// Re-enacts one stored frontier witness over the §6.4 companion plan at
/// its header's coordinates; the line to print when it reproduced. A run
/// no recipe rebuilds — none in the header, another kind of entry, or
/// coordinates that build no plan — is [`ReplayError::NoRecipe`], not a
/// skip.
fn replay_stored(run: &StoredRun) -> Result<String, ReplayError> {
    let recipe = WitnessRecipe::from_header(&run.header)?;
    let h = &run.header;
    let (n, k, t) = (h.n as usize, h.k as usize, h.t as usize);
    if k + t >= n {
        return Err(ReplayError::NoRecipe { key: "entry" });
    }
    let report = replay_witness(&companion_plan(n, k, t), run)?;
    Ok(format!(
        "[{} / {} / coalition {:?} / {:?} seed {}]: reproduced byte-identically, {:?}",
        recipe.cell.1, recipe.strategy, recipe.coalition, h.kind, h.seed, report.termination
    ))
}

/// `(reproduced, failed, no recipe)` over the replay results of a store.
fn tally<T>(results: &[Result<T, ReplayError>]) -> (usize, usize, usize) {
    let reproduced = results.iter().filter(|r| r.is_ok()).count();
    let no_recipe = results
        .iter()
        .filter(|r| matches!(r, Err(ReplayError::NoRecipe { .. })))
        .count();
    let failed = results.len() - reproduced - no_recipe;
    (reproduced, failed, no_recipe)
}

/// `--replay <store>` — re-enacts every run persisted in a trace log
/// through [`replay_witness`] and checks each reproduces byte-identically.
/// Ends with the counts and exits nonzero unless at least one run
/// reproduced and none failed or lacked a recipe: an empty store, or one
/// of service sessions, reproduces nothing and must not pass.
fn replay_store(opts: &Options) {
    let path = opts
        .replay
        .as_deref()
        .expect("`--replay` parses with its value");
    let store = TraceStore::open(Path::new(path)).expect("open trace store");
    println!("# replaying {} stored run(s) from {path}", store.len());
    let mut results = Vec::new();
    for id in store.ids() {
        let result = replay_stored(&store.load(id).expect("stored run loads"));
        match &result {
            Ok(line) => println!("run {id} {line}"),
            Err(e) => println!("run {id}: NOT REPRODUCED: {e}"),
        }
        results.push(result);
    }
    let (reproduced, failed, no_recipe) = tally(&results);
    println!("reproduced {reproduced} / failed {failed} / no recipe {no_recipe}");
    if reproduced == 0 || failed + no_recipe > 0 {
        std::process::exit(1);
    }
}

/// E5 — the `O(nNc)` message bound: measured scaling of messages in the
/// player count `n` and the circuit size `c`, and the `c` the lookup compile
/// produces for `majority_circuit`.
fn e5_message_scaling() {
    // Every point of the sweep: Theorem 4.1 over `circuit`, all-ones inputs.
    let robust_plan = |circuit: mediator_circuits::Circuit, k: usize| {
        let n = circuit.num_players();
        Scenario::cheap_talk(circuit)
            .players(n)
            .tolerance(k, 0)
            .inputs(ones_inputs(n))
            .build()
            .expect("the sweep stays above n > 4k")
    };
    let mut t = Table::new(
        "E5 — message complexity scaling (robust cheap talk)",
        &["sweep", "x", "gates c", "messages", "fitted exponent"],
    );
    // Sweep n at fixed small circuit.
    let mut pts_n = Vec::new();
    for &n in &[5usize, 7, 9, 11] {
        let out = robust_plan(catalog::sum_circuit(n), 1).run_with(&SchedulerKind::Random, 5);
        pts_n.push((n as f64, out.messages_sent as f64));
        t.row(vec![
            "n".into(),
            n.to_string(),
            catalog::sum_circuit(n).size().to_string(),
            out.messages_sent.to_string(),
            "".into(),
        ]);
    }
    let slope_n = loglog_slope(&pts_n);
    t.row(vec![
        "n".into(),
        "slope".into(),
        "—".into(),
        "—".into(),
        f4(slope_n),
    ]);

    // Sweep c (mul gates) at fixed n. Total messages are base + α·muls, so
    // linearity shows in the *marginal* cost per added multiplication, not
    // in a raw log-log exponent (the dealing-phase intercept dominates).
    let n = 5;
    let mut pts_c = Vec::new();
    for &depth in &[1usize, 2, 4, 8, 16] {
        let circuit = catalog::work_circuit(n, 2, depth);
        let muls = circuit.mul_count();
        let out = robust_plan(circuit, 1).run_with(&SchedulerKind::Random, 5);
        pts_c.push((muls as f64, out.messages_sent as f64));
        t.row(vec![
            "c".into(),
            depth.to_string(),
            muls.to_string(),
            out.messages_sent.to_string(),
            "".into(),
        ]);
    }
    // Marginal messages per multiplication between consecutive sweep points:
    // constant ⇒ linear in c.
    let marginals: Vec<f64> = pts_c
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0))
        .collect();
    let spread = marginals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - marginals.iter().cloned().fold(f64::INFINITY, f64::min);
    t.row(vec![
        "c".into(),
        "marginal".into(),
        "msgs/mul".into(),
        format!(
            "{:?}",
            marginals.iter().map(|m| m.round()).collect::<Vec<_>>()
        ),
        format!("spread {spread:.1}"),
    ]);
    print!("{t}");

    // Sweep the catalog's lookup user at its own thresholds (n = 4k + 1):
    // `c` itself is what the compile chooses — n − 1 multiplications on a
    // power basis, where one indicator chain per row cost n² − 1.
    let mut lookup = Table::new(
        "E5 — lookup compile: majority_circuit(n) on a power basis",
        &["n", "gates", "multiplications", "depth", "messages"],
    );
    for &n in &[5usize, 9, 13] {
        let circuit = catalog::majority_circuit(n);
        let mut row: Vec<String> = [n, circuit.size(), circuit.mul_count(), circuit.depth()]
            .map(|v| v.to_string())
            .into();
        let out = robust_plan(circuit, (n - 1) / 4).run_with(&SchedulerKind::Random, 5);
        row.push(out.messages_sent.to_string());
        lookup.row(row);
    }
    print!("{lookup}");
    println!(
        "paper: O(nNc) — the marginal cost per multiplication is flat \
         ({marginals:.0?} msgs/mul: linear in c), and the n-sweep fits exponent {} \
         (the substrate's broadcasts cost n² per opening, so the measured n-exponent \
         sits above the paper's per-N·c accounting)",
        f4(slope_n)
    );
}

/// E6 — implementation distance: the sets of scheduler-induced outcome
/// distributions of the cheap-talk and mediator games.
fn e6_implementation(samples: usize) {
    let mut t = Table::new(
        "E6 — implementation distance over the scheduler battery",
        &[
            "game",
            "n",
            "kinds",
            "samples",
            "set distance",
            "weak distance",
        ],
    );
    // Majority with scheduler-proof inputs: both sides are point masses.
    // One RunSet per side per game — the battery × seed grids run on the
    // worker pool and arrive with their per-kind distributions built in.
    let n = 5;
    let kinds = SchedulerKind::battery(n);
    for (label, circuit) in [
        ("majority (unanimous)", catalog::majority_circuit(n)),
        ("coin (min-info §6.4)", catalog::counterexample_minfo(n)),
    ] {
        let ct_builder = Scenario::cheap_talk(circuit.clone())
            .players(n)
            .tolerance(1, 0);
        let md_builder = Scenario::mediator(circuit).players(n).tolerance(1, 0);
        let (ct_builder, md_builder) = if label.starts_with("majority") {
            (
                ct_builder.inputs(ones_inputs(n)),
                md_builder.inputs(ones_inputs(n)),
            )
        } else {
            (ct_builder, md_builder) // the coin circuit takes no inputs
        };
        let ct = ct_builder
            .build()
            .expect("5 > 4")
            .battery(kinds.clone())
            .seeds(0..samples as u64)
            .run_batch();
        let md = md_builder
            .build()
            .expect("n − k − t ≥ 1")
            .battery(kinds.clone())
            .seeds(0..samples as u64)
            .run_batch();
        let rep = compare_run_sets(&ct, &md);
        t.row(vec![
            label.into(),
            n.to_string(),
            rep.kinds.to_string(),
            rep.samples.to_string(),
            f4(rep.distance),
            f4(rep.weak_distance),
        ]);
    }
    print!("{t}");
    println!("(sampling noise at {samples} samples/kind is ≈ {:.3}; distances below that are statistical zeros)",
        2.0 / (samples as f64).sqrt());
}

/// E8 — Lemma 6.8: scheduler-class counting and the exact-vs-weak
/// implementation message gap.
fn e8_min_info() {
    let mut t = Table::new(
        "E8 — Lemma 6.8 minimally-informative mediator: scheduler classes and message costs",
        &[
            "r",
            "n",
            "log₂ classes",
            "min R",
            "msgs exact (2Rn)",
            "msgs weak (n)",
            "paper R bound (log₂)",
        ],
    );
    for &(r, n) in &[
        (1u64, 3u64),
        (1, 5),
        (2, 5),
        (4, 5),
        (8, 5),
        (16, 5),
        (4, 9),
    ] {
        let row = &min_info::min_info_table(&[(r, n)])[0];
        t.row(vec![
            r.to_string(),
            n.to_string(),
            format!("{:.1}", row.classes_log2),
            row.min_r.to_string(),
            row.full_messages.to_string(),
            row.weak_messages.to_string(),
            format!("{:.0}", min_info::paper_sufficient_rounds_log2(r, n)),
        ]);
    }
    print!("{t}");
    println!("paper: exact implementation costs 2^{{O(N log N)}} messages, weak costs O(n).");
}

/// E9 — EGL comparison: `Θ(1/ε)` messages for gradual release vs the flat
/// cost of the punishment-based cheap talk.
fn e9_egl() {
    let mut t = Table::new(
        "E9 — EGL gradual release (O(1/ε) msgs) vs punishment cheap talk (flat)",
        &["ε", "EGL messages", "punishment CT messages"],
    );
    // The punishment protocol's cost does not depend on ε: measure once.
    let n = 5;
    let out = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .wills(vec![3; n]) // punishment action, out of the game's range on purpose
        .inputs(ones_inputs(n))
        .build()
        .expect("5 > 3k+4t = 3")
        .run_with(&SchedulerKind::Random, 3);
    let flat = out.messages_sent;
    let mut pts = Vec::new();
    for &eps in &[0.1f64, 0.03, 0.01, 0.003, 0.001] {
        let (_, msgs) = egl::run_gradual_release(eps, None, 1);
        pts.push((1.0 / eps, msgs as f64));
        t.row(vec![format!("{eps}"), msgs.to_string(), flat.to_string()]);
    }
    print!("{t}");
    println!(
        "fitted EGL exponent in 1/ε: {} (paper: 1)",
        f4(loglog_slope(&pts))
    );
}

/// E10 — Propositions 6.1–6.3: players covertly signal the content-blind
/// scheduler; robust profiles are scheduler-proof.
fn e10_scheduler_collusion(samples: usize) {
    // Covert channel demo.
    let values = [3u64, 0, 7, 2];
    let procs: Vec<Box<dyn Process<u8>>> = values
        .iter()
        .map(|&v| Box::new(CovertSender::new(v)) as Box<dyn Process<u8>>)
        .collect();
    let mut world = World::new(procs, 9);
    let mut decoder = CovertDecoder::new(values.len());
    let out = world.run(&mut decoder, 100_000);
    println!("\n## E10 — scheduler collusion (Prop 6.1) & scheduler-proofness (Cor 6.3)\n");
    println!(
        "covert channel: players encoded {:?}; the content-blind scheduler decoded {:?} ({} messages, {:?})",
        values,
        decoder.decoded(),
        out.messages_sent,
        out.termination
    );
    assert_eq!(decoder.decoded(), &values);

    // Scheduler-proofness: expected moves of the robust protocol are
    // identical across scheduler kinds — one battery × seed batch, grouped
    // per kind.
    let n = 5;
    let set = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(ones_inputs(n))
        .build()
        .expect("5 > 4")
        .battery(SchedulerKind::battery(n))
        .seeds(0..samples as u64)
        .run_batch();
    let mut t = Table::new(
        "E10 — outcome by scheduler kind (robust cheap talk, unanimous inputs)",
        &["scheduler", "runs", "all played majority", "deadlocks"],
    );
    for (kind, runs) in set.by_kind() {
        let ok = runs
            .iter()
            .filter(|r| r.outcome.resolve_default(&vec![0; n]) == vec![1; n])
            .count();
        let deadlocks = runs
            .iter()
            .filter(|r| r.outcome.termination == TerminationKind::Deadlock)
            .count();
        t.row(vec![
            format!("{kind:?}"),
            samples.to_string(),
            format!("{ok}/{samples}"),
            deadlocks.to_string(),
        ]);
    }
    print!("{t}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<(Vec<&'static str>, Options), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(picked, opts)| (picked.iter().map(|c| c.flag).collect(), opts))
    }

    fn select(args: &[&str]) -> Result<Vec<&'static str>, String> {
        parsed(args).map(|(picked, _)| picked)
    }

    #[test]
    fn modifiers_and_options_are_not_selections() {
        let all: Vec<&str> = tables().map(|c| c.flag).collect();
        assert_eq!(all, ["--e5", "--e6", "--e8", "--e9", "--e10"]);
        assert_eq!(select(&[]), Ok(all.clone()));
        assert_eq!(select(&["--fast"]), Ok(all.clone()));
        assert_eq!(select(&["--fast", "--e9"]), Ok(vec!["--e9"]));
        assert_eq!(select(&["--fast", "--all"]), Ok(all));
        // A valued option swallows its value in both spellings.
        let (picked, opts) = parsed(&["--frontier", "--shard", "4", "--out=F.json"]).unwrap();
        assert_eq!(picked, ["--frontier"]);
        assert_eq!((opts.shard, opts.out.as_deref()), (Some(4), Some("F.json")));
        let (picked, opts) = parsed(&["--replay", "--e12"]).unwrap();
        assert_eq!(picked, ["--replay"]);
        assert_eq!(opts.replay.as_deref(), Some("--e12"));
    }

    #[test]
    fn unrecognised_arguments_are_reported() {
        let unknown = |arg: &str| Err(format!("unrecognised argument `{arg}`"));
        assert_eq!(select(&["--e12"]), unknown("--e12"));
        assert_eq!(select(&["--bench"]), unknown("--bench"));
        assert_eq!(select(&["--fast", "e9"]), unknown("e9"));
        assert_eq!(select(&["--e9=1"]), unknown("--e9=1"));
        // The modes whose claims the suites and the atlas certify are
        // gone, not aliased.
        for gone in [
            "--e1",
            "--e1b",
            "--e2",
            "--e3",
            "--e4",
            "--e7",
            "--tamper",
            "--conformance",
        ] {
            assert_eq!(select(&[gone]), unknown(gone));
        }
    }

    #[test]
    fn valued_options_need_a_usable_value_and_a_command_that_reads_them() {
        let problem = |args: &[&str]| select(args).unwrap_err();
        for option in ["--out", "--witness-out", "--shard", "--replay"] {
            let needs = format!("`{option}` needs a value");
            assert_eq!(problem(&["--frontier", "--fast", option]), needs);
            assert_eq!(problem(&["--frontier", &format!("{option}=")]), needs);
        }
        for workers in ["0", "x", "-1"] {
            let told = problem(&["--frontier", "--shard", workers]);
            assert!(told.starts_with("`--shard` takes"), "{told}");
        }
        // An artifact-only option on a table run; a mode in company.
        let deaf = "`--out` does not apply to `--e5`";
        assert_eq!(problem(&["--e5", "--out", "x.json"]), deaf);
        assert!(problem(&["--shard=2"]).contains("does not apply"));
        assert!(problem(&["--replay", "W.mtrc", "--out=x"]).contains("does not apply"));
        assert_eq!(problem(&["--frontier", "--e5"]), "`--frontier` runs alone");
        // Every flag and option the table declares is in the usage text.
        for c in COMMANDS {
            assert!(usage().contains(c.flag));
            for (option, value) in c.takes {
                assert!(usage().contains(&format!("{option} {value}")));
            }
        }
    }

    #[test]
    fn a_store_without_recipes_does_not_replay_vacuously() {
        // Three service-session records, as a `StoreSink` leaves them.
        let outcome = companion_plan(7, 2, 0).run_with(&SchedulerKind::Random, 0);
        let mut store = TraceStore::in_memory();
        for session in 0..3 {
            let header = RunHeader {
                meta: vec![("entry".to_string(), "svc-session".to_string())],
                ..RunHeader::bare(session, 0)
            };
            store.record(header, &outcome).unwrap();
        }
        let results: Vec<_> = store
            .ids()
            .map(|id| replay_stored(&store.load(id).unwrap()))
            .collect();
        assert_eq!(tally(&results), (0, 0, 3));
        // A full recipe under an entry the binary does not know, and a
        // frontier recipe whose header coordinates build no plan.
        let no_entry = ReplayError::NoRecipe { key: "entry" };
        let run = store.load(0).unwrap();
        let frontier = WitnessRecipe {
            cell: ("4.1".to_string(), "thm4.1-n7-k2-t0".to_string()),
            strategy: "deadlock-if-bit=0".to_string(),
            coalition: vec![0, 1],
            deadlock: 2,
        }
        .meta();
        let mut other = frontier.clone();
        other[0].1 = "svc-session".to_string();
        for (meta, n) in [(other, 7), (frontier, 0)] {
            let header = RunHeader {
                n,
                meta,
                ..run.header.clone()
            };
            let forged = StoredRun {
                header,
                ..run.clone()
            };
            assert_eq!(replay_stored(&forged), Err(no_entry.clone()));
        }
        // The arithmetic: failures and recipe-less runs are counted apart.
        let diverged = ReplayError::Divergence { at: 3 };
        assert_eq!(
            tally(&[Ok(()), Err(no_entry), Err(diverged), Ok(())]),
            (2, 1, 1)
        );
        assert_eq!(tally::<()>(&[]), (0, 0, 0));
    }
}
