//! The experiment harness: the lower-bound frontier atlas (`--frontier`)
//! and the replay of its stored witnesses (`--replay`). Every other claim
//! of the paper is asserted by a test suite; DESIGN.md §4 maps each claim
//! to the suite or atlas cell that certifies it.
//!
//! ```sh
//! cargo run -p mediator-bench --release --bin experiments -- --frontier --fast
//! cargo run -p mediator-bench --release --bin experiments -- --replay FRONTIER-WITNESS.mtrc
//! ```

use mediator_core::frontier::companion_plan;
use mediator_core::report::{f4, Table};
use mediator_store::{
    record_witness, replay_witness, PlanKind, ReplayError, RunHeader, StoredRun, TraceStore,
    WitnessRecipe,
};
use std::path::Path;

/// The command line, parsed once: the `--fast` modifier and the valued
/// options, each given as `--x v` or `--x=v`.
#[derive(Debug, Default, PartialEq)]
struct Options {
    /// Run the atlas's fast grid.
    fast: bool,
    /// `--shard N`: also run the sweep over N in-process mem workers and
    /// assert the rendered artifact byte-identical to the local fan-out.
    shard: Option<usize>,
    out: Option<String>,
    witness_out: Option<String>,
    replay: Option<String>,
}

/// One thing the binary can do. The table below is the single source of
/// the usage text, the selection and the dispatch. A command runs alone,
/// and exits nonzero when its check fails (see the doc comment of the
/// function it calls).
struct Command {
    flag: &'static str,
    /// The valued options the command reads, `(option, metavariable)`.
    takes: &'static [(&'static str, &'static str)],
    run: fn(&Options),
}

const SWEEP_OPTIONS: &[(&str, &str)] = &[
    ("--shard", "N"),
    ("--out", "FILE"),
    ("--witness-out", "FILE"),
];

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { flag: "--frontier", takes: SWEEP_OPTIONS, run: frontier_atlas },
    Command { flag: "--replay", takes: &[("--replay", "FILE")], run: replay_store },
];

fn usage() -> String {
    let mut text = String::from("usage:");
    for c in COMMANDS {
        text.push_str(&format!(" experiments {}", c.flag));
        for (option, value) in c.takes {
            // A command whose own flag takes the value spells it bare.
            if *option == c.flag {
                text.push_str(&format!(" {value}"));
            } else {
                text.push_str(&format!(" [{option} {value}]"));
            }
        }
        text.push_str("\n      ");
    }
    text + " (--fast runs the frontier's fast grid)"
}

/// The command `args` select and the options it runs under, or what is
/// wrong with the line. Exactly one command runs; a valued option needs a
/// usable value and must be one the command reads.
fn parse(args: &[String]) -> Result<(&'static Command, Options), String> {
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
    let command = match picked[..] {
        [] => return Err("no command given".to_string()),
        [command] => command,
        [first, ..] => return Err(format!("`{}` runs alone", first.flag)),
    };
    for option in given {
        if !command.takes.iter().any(|(o, _)| *o == option) {
            return Err(format!("`{option}` does not apply to `{}`", command.flag));
        }
    }
    Ok((command, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, opts) = parse(&args).unwrap_or_else(|problem| {
        eprintln!("experiments: {problem}\n{}", usage());
        std::process::exit(2);
    });
    (command.run)(&opts);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<(&'static str, Options), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|(command, opts)| (command.flag, opts))
    }

    fn select(args: &[&str]) -> Result<&'static str, String> {
        parsed(args).map(|(flag, _)| flag)
    }

    #[test]
    fn modifiers_and_options_are_not_selections() {
        let flags: Vec<&str> = COMMANDS.iter().map(|c| c.flag).collect();
        assert_eq!(flags, ["--frontier", "--replay"]);
        // Nothing to run is a usage error, not a default.
        let none = Err("no command given".to_string());
        assert_eq!(select(&[]), none);
        assert_eq!(select(&["--fast"]), none);
        assert_eq!(select(&["--fast", "--frontier"]), Ok("--frontier"));
        // A valued option swallows its value in both spellings.
        let (picked, opts) = parsed(&["--frontier", "--shard", "4", "--out=F.json"]).unwrap();
        assert_eq!(picked, "--frontier");
        assert_eq!((opts.shard, opts.out.as_deref()), (Some(4), Some("F.json")));
        let (picked, opts) = parsed(&["--replay", "--e12"]).unwrap();
        assert_eq!(picked, "--replay");
        assert_eq!(opts.replay.as_deref(), Some("--e12"));
    }

    #[test]
    fn unrecognised_arguments_are_reported() {
        let unknown = |arg: &str| Err(format!("unrecognised argument `{arg}`"));
        assert_eq!(select(&["--e12"]), unknown("--e12"));
        assert_eq!(select(&["--bench"]), unknown("--bench"));
        assert_eq!(select(&["--fast", "e9"]), unknown("e9"));
        assert_eq!(select(&["--frontier=1"]), unknown("--frontier=1"));
        // The modes and tables whose claims the suites and the atlas
        // certify are gone, not aliased.
        for gone in [
            "--e1",
            "--e1b",
            "--e2",
            "--e3",
            "--e4",
            "--e5",
            "--e6",
            "--e7",
            "--e8",
            "--e9",
            "--e10",
            "--all",
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
        // A frontier option on a replay; an option with no command; two
        // commands at once.
        let deaf = "`--out` does not apply to `--replay`";
        assert_eq!(problem(&["--replay", "W.mtrc", "--out=x"]), deaf);
        assert_eq!(problem(&["--shard=2"]), "no command given");
        let alone = "`--frontier` runs alone";
        assert_eq!(problem(&["--frontier", "--replay", "W.mtrc"]), alone);
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
        let outcome = companion_plan(7, 2, 0).run_with(&mediator_sim::SchedulerKind::Random, 0);
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
