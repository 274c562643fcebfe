//! The experiment harness: regenerates every quantitative claim of the
//! paper as a table (DESIGN.md §4 maps experiments to claims).
//!
//! ```sh
//! cargo run -p mediator-bench --release --bin experiments            # all
//! cargo run -p mediator-bench --release --bin experiments -- --e7   # one
//! ```

use mediator_bench::*;
use mediator_circuits::catalog;
use mediator_core::adversary::{sweep_unit_plan, Conformance, SweepPlan, SweepUnit};
use mediator_core::deviations::{Behavior, CounterexampleColluder, SilentProcess};
use mediator_core::egl;
use mediator_core::implement::compare_run_sets;
use mediator_core::min_info;
use mediator_core::report::{check, f4, json_escape, Table};
use mediator_core::scenario::{CheapTalkPlan, MediatorPlan, Scenario, SessionPlan};
use mediator_games::library;
use mediator_games::punishment;
use mediator_games::solution;
use mediator_sim::covert::{CovertDecoder, CovertSender};
use mediator_sim::{Process, SchedulerKind, TerminationKind, World};

/// The value of option `name`, given as `name=v` or as `name v`.
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .enumerate()
        .find_map(|(i, a)| match a.strip_prefix(name)? {
            "" => args.get(i + 1).map(String::as_str),
            rest => rest.strip_prefix('='),
        })
}

/// The table experiments, in the order `main` runs them.
const EXPERIMENTS: [&str; 11] = [
    "--e1", "--e1b", "--e2", "--e3", "--e4", "--e5", "--e6", "--e7", "--e8", "--e9", "--e10",
];

const USAGE: &str = "usage: experiments [--fast] [--all | --e1 --e1b --e2 … --e10]
       experiments --conformance | --frontier [--fast] [--shard N] [--out FILE] [--witness-out FILE]
       experiments --tamper [--out FILE]
       experiments --replay FILE";

/// Which table experiments `args` select, or the first argument that is
/// not recognised. Modifiers (`--fast`), the artifact modes and valued
/// options (with their values) select nothing; no selection means all.
fn selection(args: &[String]) -> Result<Vec<&'static str>, &str> {
    let mut picked = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let (name, inline_value) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        match name {
            "--all" => picked.extend(EXPERIMENTS),
            "--fast" | "--tamper" | "--frontier" | "--conformance" => {}
            "--out" | "--witness-out" | "--shard" | "--replay" => {
                if !inline_value {
                    args.next();
                }
            }
            _ => match EXPERIMENTS.iter().find(|e| **e == name) {
                Some(e) => picked.push(*e),
                None => return Err(arg),
            },
        }
    }
    if picked.is_empty() {
        picked.extend(EXPERIMENTS);
    }
    Ok(picked)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = selection(&args).unwrap_or_else(|unknown| {
        eprintln!("experiments: unrecognised argument `{unknown}`\n{USAGE}");
        std::process::exit(2);
    });
    let flag = |name: &str| args.iter().any(|a| a == name);
    let want = |name: &str| selected.contains(&name);
    let fast = flag("--fast");
    let samples = if fast { 20 } else { 60 };
    let out = opt(&args, "--out");
    let witness_out = opt(&args, "--witness-out");
    // `--shard N`: also run the sweep over N in-process mem workers and
    // assert the rendered artifact byte-identical to the local fan-out.
    let shard = || opt(&args, "--shard").map(|v| v.parse().expect("--shard takes a worker count"));

    // The artifact modes; each exits nonzero when its check fails (see the
    // doc comment of the function it calls).
    if flag("--tamper") {
        tamper_battery(out.unwrap_or("TAMPER.json"));
        return;
    }
    if flag("--frontier") {
        frontier_atlas(
            out.unwrap_or("FRONTIER.json"),
            witness_out.unwrap_or("FRONTIER-WITNESS.mtrc"),
            fast,
            shard(),
        );
        return;
    }
    if flag("--conformance") {
        conformance_battery(
            out.unwrap_or("CONFORMANCE.json"),
            witness_out.unwrap_or("WITNESS.mtrc"),
            fast,
            shard(),
        );
        return;
    }
    if let Some(path) = opt(&args, "--replay") {
        replay_store(path);
        return;
    }

    println!("# mediator-talk experiment harness");
    println!("# paper: Implementing Mediators with Asynchronous Cheap Talk (PODC 2019)");

    if want("--e1") {
        e1_thresholds_robust(samples);
    }
    if want("--e1") || want("--e1b") {
        e1b_conformance_cells(if fast { 10 } else { 30 });
    }
    if want("--e2") {
        e2_epsilon(samples);
    }
    if want("--e3") {
        e3_punishment(samples);
        e3b_relaxed_deadlock(samples);
    }
    if want("--e4") {
        e4_eps_punishment(samples);
    }
    if want("--e5") {
        e5_message_scaling();
    }
    if want("--e6") {
        e6_implementation(samples);
    }
    if want("--e7") {
        e7_counterexample(if fast { 100 } else { 400 });
    }
    if want("--e8") {
        e8_min_info();
    }
    if want("--e9") {
        e9_egl();
    }
    if want("--e10") {
        e10_scheduler_collusion(samples);
    }
}

/// `--tamper` — the Byzantine-relay smoke battery (DESIGN.md §10): each
/// wire tactic runs paired, once against a plain service (the attack must
/// *succeed* — the cheap-talk outcome diverges from the honest baseline)
/// and once against an authenticated one (the attack must *die* — typed
/// `AuthFailure`, honest neighbor session unaffected). Writes the verdict
/// rows to `out` as JSON and panics — failing CI — on any wrong cell.
fn tamper_battery(out: &str) {
    use mediator_core::adversary::{Window, OPEN_LIE_OFFSET};
    use mediator_net::tamper::{
        run_tampered_pair, TamperPlan, TamperedPair, TransportKind, WireTactic, TARGET_SID,
    };
    use mediator_net::{AuthKey, DeliveryOrder, NetError, ServiceConfig, TamperKind};
    use std::time::Duration;

    let n = 5;
    let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(ones_inputs(n))
        .build()
        .expect("n = 5 > 4k+4t = 4");
    let baseline = plan.run_with(&SchedulerKind::Fifo, 0);
    let base_profile = baseline.resolve_default(&vec![0; n]);
    let cfg = |auth: bool| {
        let base = ServiceConfig {
            idle_timeout: Duration::from_millis(1500),
            attach_timeout: Duration::from_secs(10),
            attach_grace: Duration::from_millis(100),
            delivery: DeliveryOrder::Arrival,
            ..ServiceConfig::default()
        };
        if auth {
            base.with_auth(AuthKey::from_seed(0xfeed))
        } else {
            base
        }
    };

    // (name, transport, plan): one cell per tactic, alternating transports.
    let cells: Vec<(&str, TransportKind, TamperPlan)> = vec![
        (
            "rewrite",
            TransportKind::Mem,
            TamperPlan::against(TARGET_SID).tactic(
                Window::all(),
                WireTactic::Rewrite {
                    offset: OPEN_LIE_OFFSET,
                },
            ),
        ),
        (
            "redirect",
            TransportKind::Tcp,
            TamperPlan::against(TARGET_SID).tactic(Window::all(), WireTactic::Redirect),
        ),
        (
            "replay-splice",
            TransportKind::Mem,
            TamperPlan::against(TARGET_SID)
                .tactic(Window::between(0, 10), WireTactic::Replay)
                .tactic(Window::between(10, 20), WireTactic::Drop),
        ),
        (
            "truncate",
            TransportKind::Tcp,
            TamperPlan::against(TARGET_SID)
                .tactic(Window::between(5, 6), WireTactic::Truncate { cut: 4 }),
        ),
        (
            "drop",
            TransportKind::Mem,
            TamperPlan::against(TARGET_SID).tactic(Window::between(5, 15), WireTactic::Drop),
        ),
    ];

    // How each plain-channel attack is expected to land, and which typed
    // verdict the authenticated run must produce. Drop is the documented
    // limitation: undetectable by MACs, owned by IdleTimeout in both modes.
    let describe = |pair: &TamperedPair| -> String {
        match &pair.target {
            Ok(o) if o.resolve_default(&vec![0; n]) != base_profile => {
                format!("silent corruption ({:?}, wrong profile)", o.termination)
            }
            Ok(o) => format!("{:?} (baseline profile)", o.termination),
            Err(e) => format!("{e:?}"),
        }
    };
    let mut rows: Vec<(String, String, String, bool, bool)> = Vec::new();
    let mut all_ok = true;
    for (name, transport, tp) in &cells {
        let plain = run_tampered_pair(
            &plan,
            *transport,
            cfg(false),
            tp.clone(),
            SchedulerKind::Fifo,
            0,
        );
        let authed = run_tampered_pair(
            &plan,
            *transport,
            cfg(true),
            tp.clone(),
            SchedulerKind::Fifo,
            0,
        );
        let attack_succeeded = match &plain.target {
            Ok(o) => o.resolve_default(&vec![0; n]) != base_profile,
            Err(_) => true,
        };
        let (detected, honest_ok) = match (*name, &authed.target) {
            ("drop", Err(NetError::IdleTimeout { .. })) => (true, authed.honest.is_ok()),
            (_, Err(NetError::AuthFailure { session, kind, .. })) => {
                let expect = match *name {
                    "rewrite" | "redirect" => TamperKind::BadMac,
                    "replay-splice" => TamperKind::Replayed,
                    "truncate" => TamperKind::Truncated,
                    _ => unreachable!("drop handled above"),
                };
                (
                    *session == TARGET_SID && *kind == expect,
                    authed.honest.is_ok(),
                )
            }
            _ => (false, authed.honest.is_ok()),
        };
        let pass = attack_succeeded && detected && honest_ok;
        all_ok &= pass;
        rows.push((
            format!("{name} ({transport:?})"),
            describe(&plain),
            describe(&authed),
            honest_ok,
            pass,
        ));
    }

    let mut t = Table::new(
        "Byzantine-relay battery: attack succeeds plain / dies authenticated",
        &[
            "tactic (cell)",
            "plain channel",
            "authenticated",
            "honest ok",
            "pass",
        ],
    );
    for (name, plain, authed, honest, pass) in &rows {
        t.row(vec![
            name.clone(),
            plain.clone(),
            authed.clone(),
            check(*honest),
            check(*pass),
        ]);
    }
    print!("{t}");

    let mut json = String::from("{\n  \"entries\": [\n");
    for (i, (name, plain, authed, honest, pass)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"plain\": \"{}\", \
             \"authenticated\": \"{}\", \"honest_unaffected\": {honest}, \
             \"pass\": {pass} }}{}\n",
            json_escape(name),
            json_escape(plain),
            json_escape(authed),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out, json).expect("write tamper JSON");
    println!("wrote {out}");
    assert!(
        all_ok,
        "tamper battery: at least one cell misbehaved (see table)"
    );
}

/// The Theorem 4.1 cheap-talk working point of the conformance battery
/// (n = 5 > 4k + 4t) — factored out so `--replay` can rebuild the exact
/// plan a stored witness names.
fn conformance_cheap_talk_plan() -> CheapTalkPlan {
    let n = 5;
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(ones_inputs(n))
        .build()
        .expect("5 > 4")
}

/// The §6.4 naive mediator of the conformance battery (n = 7, k = 2 —
/// below the 4.1 bound, so the harness must find the deviation).
fn conformance_naive_plan() -> MediatorPlan {
    let n = 7;
    let (_, _, k) = library::counterexample_game(n);
    let bot = library::BOTTOM as u64;
    Scenario::mediator(catalog::counterexample_naive(n))
        .players(n)
        .tolerance(k, 0)
        .naive_split()
        .wills(vec![bot; n])
        .resolve_defaults(vec![bot; n])
        .build()
        .expect("n − k ≥ 1")
}

/// The minimally-informative §6.4 fix of the conformance battery.
fn conformance_minfo_plan() -> MediatorPlan {
    let n = 7;
    let (_, _, k) = library::counterexample_game(n);
    let bot = library::BOTTOM as u64;
    Scenario::mediator(catalog::counterexample_minfo(n))
        .players(n)
        .tolerance(k, 0)
        .wills(vec![bot; n])
        .resolve_defaults(vec![bot; n])
        .build()
        .expect("n − k ≥ 1")
}

/// The cell a witness names — a generated deviation, or the honest plan
/// for `None` — rebuilt through the sweep's own `(strategy, coalition)`
/// lookup: the one place a strategy name that no battery generates (a
/// stale or hand-edited store) is diagnosed.
fn witness_cell<P: SweepPlan>(
    plan: &P,
    strategy: Option<&str>,
    coalition: &[usize],
    deadlock: Option<u64>,
) -> Result<P, String> {
    // Only the deadlock action of the configuration reaches cell
    // generation; the claim and the sampling plan play no part in it.
    let mut cfg = Conformance::new(0.0, coalition.len(), 0);
    if let Some(action) = deadlock {
        cfg = cfg.deadlock_action(action);
    }
    let unit = SweepUnit {
        strategy: strategy.map(str::to_string),
        coalition: coalition.to_vec(),
    };
    sweep_unit_plan(plan, &unit, &cfg).ok_or_else(|| {
        format!(
            "no generated strategy '{}' for coalition {coalition:?}",
            strategy.unwrap_or("honest")
        )
    })
}

/// Re-runs one conformance sweep sharded over `workers` in-process mem
/// workers and asserts the rendered report is **byte-identical** to the
/// already-computed local fan-out — the `--shard N` differential pin.
fn shard_check<P: SweepPlan>(
    name: &str,
    workers: usize,
    plan: &P,
    game: &mediator_games::BayesianGame,
    types: &[usize],
    conf: &Conformance,
    local: &mediator_core::adversary::ConformanceReport,
) {
    use mediator_net::{ShardConfig, ShardedSweep, TransportKind};
    let cfg = ShardConfig::default().lease_deadline(std::time::Duration::from_secs(60));
    let (sharded, log) = conf.sharded(plan, game, types, workers, TransportKind::Mem, &cfg);
    assert_eq!(
        local.to_json(),
        sharded.to_json(),
        "{name}: sharded sweep diverged from the local fan-out"
    );
    println!(
        "{name}: sharded over {workers} worker(s) — report identical to local \
         ({} units, {} re-leases, {} discarded)",
        log.units, log.releases, log.discarded
    );
}

/// `--conformance` — the statistical ε-resilience conformance battery:
/// the Theorem 4.1 cheap talk at a paper-valid working point (must be
/// resilient), the §6.4 naive mediator below the 4.1 bound (the harness
/// must *find* the profitable deviation), and the minimally-informative
/// fix (resilient again). Writes all three reports to `out` as JSON,
/// persists every Violated verdict's witness run as a replayable trace
/// in `witness_out` (one `experiments -- --replay <path>` from a rerun),
/// and panics — failing CI — on any unexpected verdict. With
/// `shard = Some(n)` every sweep also runs sharded over `n` workers and
/// must render byte-identically (see [`shard_check`]).
fn conformance_battery(out: &str, witness_out: &str, fast: bool, shard: Option<usize>) {
    let seeds = if fast { 16 } else { 48 };
    let ct_seeds = if fast { 3 } else { 6 };
    println!(
        "# conformance battery ({seeds} seeds/kind on mediator games, \
         {ct_seeds} on cheap talk) → {out}"
    );
    let mut entries: Vec<(&str, mediator_core::adversary::ConformanceReport)> = Vec::new();

    // Theorem 4.1 working point: n = 5 > 4k + 4t.
    let n = 5;
    let game = library::byzantine_agreement_game(n);
    let plan = conformance_cheap_talk_plan();
    let ct_conf = Conformance::new(0.05, 1, 0)
        .battery(if fast {
            vec![SchedulerKind::Random]
        } else {
            vec![
                SchedulerKind::Random,
                SchedulerKind::Fifo,
                SchedulerKind::Lifo,
            ]
        })
        .seeds(ct_seeds);
    let report = plan.conformance(&game, &vec![1usize; n], &ct_conf);
    assert!(
        report.is_resilient(),
        "Theorem 4.1 cheap talk must be resilient: {:?}",
        report.verdict
    );
    if let Some(w) = shard {
        shard_check(
            "cheap_talk_thm41_n5",
            w,
            &plan,
            &game,
            &vec![1usize; n],
            &ct_conf,
            &report,
        );
    }
    entries.push(("cheap_talk_thm41_n5", report));

    // §6.4: naive mediator at n = 7, k = 2 (n ≤ 4k — below the 4.1 bound).
    let n = 7;
    let (game, _, k) = library::counterexample_game(n);
    let bot = library::BOTTOM as u64;
    let cfg = Conformance::new(0.01, k, 0)
        .battery(vec![SchedulerKind::Random])
        .seeds(seeds)
        .coalitions(vec![vec![0], vec![0, 1]])
        .deadlock_action(bot);
    let naive = conformance_naive_plan();
    let report = naive.conformance(&game, &vec![0; n], &cfg);
    let witness = report
        .witness()
        .expect("the naive mediator's profitable deviation must be found")
        .clone();
    assert_eq!(witness.strategy, "deadlock-if-bit=0");
    if let Some(w) = shard {
        shard_check(
            "naive_mediator_sec6_4",
            w,
            &naive,
            &game,
            &vec![0; n],
            &cfg,
            &report,
        );
    }
    entries.push(("naive_mediator_sec6_4", report));

    let fixed = conformance_minfo_plan();
    let report = fixed.conformance(&game, &vec![0; n], &cfg);
    assert!(
        report.is_resilient(),
        "min-info mediator must be resilient: {:?}",
        report.verdict
    );
    if let Some(w) = shard {
        shard_check(
            "min_info_mediator_sec6_4",
            w,
            &fixed,
            &game,
            &vec![0; n],
            &cfg,
            &report,
        );
    }
    entries.push(("min_info_mediator_sec6_4", report));

    let mut t = Table::new(
        "Conformance verdicts",
        &["scenario", "cells", "verdict", "max gain"],
    );
    for (name, rep) in &entries {
        let verdict = if rep.is_resilient() {
            "ε-k-resilient".to_string()
        } else {
            format!(
                "VIOLATED ({})",
                rep.witness().expect("non-resilient").strategy
            )
        };
        t.row(vec![
            name.to_string(),
            rep.cells.len().to_string(),
            verdict,
            f4(rep.max_gain()),
        ]);
    }
    print!("{t}");
    println!("witness: {witness}");

    let mut json = String::from("{\n  \"entries\": [\n");
    for (i, (name, rep)) in entries.iter().enumerate() {
        let body: String = rep
            .to_json()
            .lines()
            .map(|l| format!("      {l}\n"))
            .collect();
        json.push_str(&format!(
            "    {{ \"name\": \"{name}\",\n      \"report\":\n{body}    }}{}\n",
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out, json).expect("write conformance JSON");
    println!("wrote {out}");

    // Persist every Violated verdict's witness run as a replayable trace:
    // the deviant cell is rebuilt from its (strategy, coalition) recipe,
    // re-run at the witnessing (scheduler, seed), and recorded with the
    // recipe in the header metadata so `--replay` needs nothing else.
    let mut wstore = mediator_store::TraceStore::create(std::path::Path::new(witness_out))
        .expect("create witness trace store");
    let mut stored = 0u64;
    for (i, (name, rep)) in entries.iter().enumerate() {
        let Some(w) = rep.witness() else { continue };
        let (plan_kind, outcome, n, k) = match *name {
            "cheap_talk_thm41_n5" => {
                let base = conformance_cheap_talk_plan();
                let cell = witness_cell(&base, Some(&w.strategy), &w.coalition, None)
                    .expect("the sweep's own witness");
                let out = cell.run_with(&w.kind, w.seed);
                (mediator_store::PlanKind::CheapTalk, out, 5u64, 1u64)
            }
            med @ ("naive_mediator_sec6_4" | "min_info_mediator_sec6_4") => {
                let base = if med == "naive_mediator_sec6_4" {
                    conformance_naive_plan()
                } else {
                    conformance_minfo_plan()
                };
                let cell = witness_cell(&base, Some(&w.strategy), &w.coalition, Some(bot))
                    .expect("the sweep's own witness");
                let out = cell.run_with(&w.kind, w.seed);
                (mediator_store::PlanKind::Mediator, out, 7u64, k as u64)
            }
            other => panic!("no witness recipe for conformance entry '{other}'"),
        };
        let coalition = w
            .coalition
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut header = mediator_store::RunHeader::bare(i as u64, w.seed);
        header.kind = Some(w.kind.clone());
        header.plan = plan_kind;
        header.n = n;
        header.k = k;
        header.meta = vec![
            ("entry".to_string(), name.to_string()),
            ("strategy".to_string(), w.strategy.clone()),
            ("coalition".to_string(), coalition),
            ("deadlock".to_string(), bot.to_string()),
        ];
        wstore.record(header, &outcome).expect("record witness");
        stored += 1;
    }
    if stored > 0 {
        println!("stored {stored} witness trace(s) → {witness_out}");
        println!(
            "reproduce: cargo run -p mediator-bench --bin experiments -- --replay {witness_out}"
        );
    }
}

/// `--frontier` — the lower-bound frontier atlas (DESIGN.md §13): run the
/// grid, machine-check it against the theorem predicates, persist every
/// `Violated` cell's witness run with its typed rebuild recipe, and write
/// the deterministic `FRONTIER.json`. With `--shard N` the grid
/// additionally runs over the PR 9 coordinator/worker plane and the
/// artifact is asserted byte-identical to the local fan-out.
fn frontier_atlas(out: &str, witness_out: &str, fast: bool, shard: Option<usize>) {
    use mediator_core::frontier::{companion_plan, run_frontier_local, FrontierSpec, BOT};
    use mediator_store::FrontierRecipe;

    let spec = if fast {
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
    if let Some(workers) = shard {
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

    // Persist every Violated cell's witness as a replayable trace: the
    // deviant companion plan is rebuilt from the cell coordinates and the
    // witness's (strategy, coalition) recipe, re-run at the witnessing
    // (scheduler, seed), and recorded under a typed FrontierRecipe header
    // so `--replay` needs nothing else.
    let mut wstore = mediator_store::TraceStore::create(std::path::Path::new(witness_out))
        .expect("create frontier witness store");
    let mut stored = 0u64;
    for (i, r) in atlas.violated().enumerate() {
        let w = r.witness.as_ref().expect("violated cells carry witnesses");
        let plan = companion_plan(r.cell.n, r.cell.k, r.cell.t);
        let cell = witness_cell(&plan, Some(&w.strategy), &w.coalition, Some(BOT))
            .expect("the sweep's own witness");
        let outcome = cell.run_with(&w.kind, w.seed);
        let recipe = FrontierRecipe {
            theorem: r.cell.theorem.name().to_string(),
            cell_key: r.cell.key(),
            strategy: w.strategy.clone(),
            coalition: w.coalition.clone(),
            deadlock: BOT,
        };
        let mut header = mediator_store::RunHeader::bare(i as u64, w.seed);
        header.kind = Some(w.kind.clone());
        header.plan = mediator_store::PlanKind::Mediator;
        header.n = r.cell.n as u64;
        header.k = r.cell.k as u64;
        header.t = r.cell.t as u64;
        header.meta = recipe.meta();
        wstore.record(header, &outcome).expect("record witness");
        stored += 1;
    }
    println!("stored {stored} witness trace(s) → {witness_out}");
    println!("reproduce: cargo run -p mediator-bench --bin experiments -- --replay {witness_out}");
}

/// `--replay <store>` — re-enacts every run persisted in a trace log and
/// checks each reproduces byte-identically: the header's metadata names
/// the conformance entry and the (strategy, coalition) recipe, the plan
/// is rebuilt from the same single-sourced deviant-cell tables the sweep
/// used, and [`mediator_store::replay_plan`] pins the re-recorded trace
/// against the stored one. Exits nonzero on any divergence.
fn replay_store(path: &str) {
    let store =
        mediator_store::TraceStore::open(std::path::Path::new(path)).expect("open trace store");
    println!("# replaying {} stored run(s) from {path}", store.len());
    let mut failures = 0usize;
    for id in store.ids().collect::<Vec<_>>() {
        let run = store.load(id).expect("stored run loads");
        let entry = run.header.meta_value("entry").unwrap_or("?").to_string();
        let strategy = run.header.meta_value("strategy").map(str::to_string);
        let coalition: Vec<usize> = run
            .header
            .meta_value("coalition")
            .map(|s| {
                s.split(',')
                    .filter(|p| !p.is_empty())
                    .map(|p| p.parse().expect("coalition member id"))
                    .collect()
            })
            .unwrap_or_default();
        let deadlock: Option<u64> = run
            .header
            .meta_value("deadlock")
            .and_then(|s| s.parse().ok());
        // Rebuild the recorded cell (the base plan itself when the header
        // names no strategy) and pin its re-enactment against the store.
        fn replay<P: SweepPlan + SessionPlan>(
            base: &P,
            strategy: Option<&str>,
            coalition: &[usize],
            deadlock: Option<u64>,
            run: &mediator_store::StoredRun,
        ) -> Result<TerminationKind, String> {
            let cell = witness_cell(base, strategy, coalition, deadlock)?;
            mediator_store::replay_plan(&cell, run)
                .map(|r| r.termination)
                .map_err(|e| format!("{e:?}"))
        }
        let named = strategy.as_deref();
        let result = match entry.as_str() {
            // (Cheap-talk cells do not read the deadlock action.)
            "cheap_talk_thm41_n5" => replay(
                &conformance_cheap_talk_plan(),
                named,
                &coalition,
                deadlock,
                &run,
            ),
            "naive_mediator_sec6_4" => {
                replay(&conformance_naive_plan(), named, &coalition, deadlock, &run)
            }
            "min_info_mediator_sec6_4" => {
                replay(&conformance_minfo_plan(), named, &coalition, deadlock, &run)
            }
            mediator_store::FrontierRecipe::ENTRY => {
                // A frontier-atlas witness: the header's typed recipe plus
                // its (n, k, t) fields rebuild the companion plan and its
                // deviant cell from scratch.
                let recipe = mediator_store::FrontierRecipe::from_header(&run.header)
                    .expect("frontier witnesses carry a well-formed recipe");
                let plan = mediator_core::frontier::companion_plan(
                    run.header.n as usize,
                    run.header.k as usize,
                    run.header.t as usize,
                );
                replay(
                    &plan,
                    Some(&recipe.strategy),
                    &recipe.coalition,
                    Some(recipe.deadlock),
                    &run,
                )
            }
            other => {
                println!("run {id}: no recipe for entry '{other}', skipped");
                continue;
            }
        };
        let strategy = strategy.as_deref().unwrap_or("honest");
        let cell = format!(
            "{entry} / {strategy} / coalition {coalition:?} / {:?} seed {}",
            run.header.kind, run.header.seed
        );
        match result {
            Ok(t) => println!("run {id} [{cell}]: reproduced byte-identically, {t:?}"),
            Err(e) => {
                failures += 1;
                println!("run {id} [{cell}]: REPLAY FAILED: {e}");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} stored run(s) failed to reproduce");
        std::process::exit(1);
    }
    println!("all runs reproduced");
}

/// E1 — Theorem 4.1: `n > 4k + 4t` suffices for full robustness; below it
/// the construction is rejected (the OEC liveness bound is unsatisfiable).
fn e1_thresholds_robust(samples: usize) {
    let mut t = Table::new(
        "E1 — Theorem 4.1 thresholds (robust cheap talk, majority mediator)",
        &[
            "k",
            "t",
            "n",
            "paper",
            "built?",
            "honest ok",
            "f silent ok",
            "f liars ok",
            "msgs/run",
        ],
    );
    for &(k, tt) in &[(1usize, 0usize), (0, 1), (1, 1)] {
        let f = k + tt;
        for n in [4 * f, 4 * f + 1, 4 * f + 3] {
            let paper = if n > 4 * f {
                "n > 4k+4t ✓"
            } else {
                "n ≤ 4k+4t ✗"
            };
            // The builder validates the Theorem 4.1 threshold at build
            // time; below 4f+1 decoding the degree-2f product openings
            // with f errors is information-theoretically impossible
            // anyway (see vss::reconstruct for the ambiguity witness).
            let built = Scenario::cheap_talk(catalog::majority_circuit(n))
                .players(n)
                .tolerance(k, tt)
                .inputs(ones_inputs(n))
                .build();
            let Ok(plan) = built else {
                t.row(vec![
                    k.to_string(),
                    tt.to_string(),
                    n.to_string(),
                    paper.into(),
                    check(false),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                ]);
                continue;
            };
            // Three seed-sweep batches: honest, f players silent, f
            // players lying in openings.
            let deviant_plan = |b: Behavior| {
                let mut p = plan.clone();
                for player in 0..f {
                    p = p.with_deviant(player, b.clone());
                }
                p
            };
            let honest = plan.seeds(0..samples as u64).run_batch();
            let honest_ok = honest
                .outcomes()
                .all(|out| out.resolve_default(&vec![0; n]) == vec![1; n]);
            let msgs: u64 = honest.outcomes().map(|o| o.messages_sent).sum();
            let silent_ok = deviant_plan(Behavior {
                silent: true,
                ..Behavior::default()
            })
            .seeds(0..samples as u64)
            .run_batch()
            .outcomes()
            .all(|out| (f..n).all(|p| out.moves[p] == Some(1)));
            let liar_ok = deviant_plan(Behavior {
                lie_in_opens: true,
                ..Behavior::default()
            })
            .seeds(0..samples as u64)
            .run_batch()
            .outcomes()
            .all(|out| (f..n).all(|p| out.moves[p] == Some(1)));
            t.row(vec![
                k.to_string(),
                tt.to_string(),
                n.to_string(),
                paper.into(),
                check(true),
                check(honest_ok),
                check(silent_ok),
                check(liar_ok),
                (msgs / samples as u64).to_string(),
            ]);
        }
    }
    print!("{t}");
}

/// E1b — the conformance cells for coalition {2} on the Byzantine-agreement
/// game: paired gain and harm intervals per generated strategy (Theorem
/// 4.1's "equilibrium survives the transform" claim, measured), next to
/// what the same deviation costs in the mediator game.
fn e1b_conformance_cells(seeds: u64) {
    let n = 5;
    let game = library::byzantine_agreement_game(n);
    let types = vec![1usize; n];
    let report = conformance_cheap_talk_plan().conformance(
        &game,
        &types,
        &Conformance::new(0.05, 1, 0)
            .battery(vec![SchedulerKind::Random])
            .seeds(seeds)
            .coalitions(vec![vec![2]]),
    );

    // Theorem 4.1's actual claim: the cheap talk matches the *mediator game*
    // under the same deviation. Compute the mediator-game honest harm for
    // the not-moving deviations (the deviator simply never moves there too,
    // and its default 0 breaks unanimity just as in the cheap-talk game).
    let med = Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(ones_inputs(n))
        .deviant(2, || Box::new(SilentProcess))
        .build()
        .expect("n − k − t ≥ 1")
        .seeds(0..seeds)
        .run_batch();
    let honest_sum: f64 = med
        .outcomes()
        .map(|out| game.utilities(&types, &med.profile(out))[0])
        .sum();
    let med_harm_not_moving = 1.0 - honest_sum / seeds as f64; // baseline honest utility is 1

    let ci = |c: &mediator_games::ConfidenceInterval| {
        format!("{} [{}, {}]", f4(c.mean), f4(c.lo), f4(c.hi))
    };
    let mut t = Table::new(
        "E1b — conformance cells on the robust cheap talk (BA game, coalition {2}; mean [95% CI], paired)",
        &[
            "deviation",
            "deviator gain",
            "honest harm (CT)",
            "honest harm (mediator game)",
            "note",
        ],
    );
    for cell in &report.cells {
        let (med_harm, note) = match cell.strategy.as_str() {
            "silent" | "refuse-move" => (
                f4(med_harm_not_moving),
                "not moving breaks unanimity — in both games equally",
            ),
            "crash-mid" => ("≤ same".to_string(), "tolerated: f = 1 crash is corrected"),
            "lie-opens" => (
                "n/a (no openings)".to_string(),
                "corrected by OEC: no gain, no harm",
            ),
            "lie-input" => ("0.0000".to_string(), "own input; unanimity keeps majority"),
            _ => (String::new(), "generated message-level strategy"),
        };
        t.row(vec![
            cell.strategy.clone(),
            ci(&cell.gain),
            ci(&cell.harm),
            med_harm,
            note.into(),
        ]);
    }
    print!("{t}");
    println!(
        "max deviator gain over the battery: {} — no message-level attack profits; \
         the only honest harm comes from the deviator not moving, which costs the \
         honest players exactly as much in the mediator game (implementation, not protocol weakness)",
        f4(report.max_gain()),
    );
}

/// E2 — Theorem 4.2: at `n > 3k + 3t` the ε-variant completes honest runs,
/// survives silence, and *detects* (rather than corrects) active lies;
/// the accepted-wrong-value rate stays ≤ ε.
fn e2_epsilon(samples: usize) {
    let mut t = Table::new(
        "E2 — Theorem 4.2 (ε cheap talk at n = 3f+1, majority mediator)",
        &[
            "k",
            "t",
            "n",
            "κ",
            "honest ok",
            "silent ok",
            "liar: abort/stall",
            "wrong accepted",
            "msgs/run",
        ],
    );
    for &(k, tt) in &[(0usize, 1usize), (1, 1)] {
        let f = k + tt;
        let n = 3 * f + 1;
        let kappa = 3;
        let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(k, tt)
            .epsilon(kappa)
            .inputs(ones_inputs(n))
            .build()
            .expect("n = 3f+1 > 3k+3t");
        let honest = plan.seeds(0..samples as u64).run_batch();
        let honest_ok = honest
            .outcomes()
            .all(|out| out.resolve_default(&vec![0; n]) == vec![1; n]);
        let msgs: u64 = honest.outcomes().map(|o| o.messages_sent).sum();
        let silent_ok = plan
            .clone()
            .with_deviant(
                0,
                Behavior {
                    silent: true,
                    ..Behavior::default()
                },
            )
            .seeds(0..samples as u64)
            .run_batch()
            .outcomes()
            .all(|out| (1..n).all(|p| out.moves[p] == Some(1)));
        let liar = plan
            .clone()
            .with_deviant(
                0,
                Behavior {
                    lie_in_opens: true,
                    ..Behavior::default()
                },
            )
            .seeds(0..samples as u64)
            .run_batch();
        let mut aborts = 0usize;
        let mut wrong = 0usize;
        for out in liar.outcomes() {
            // Every honest player either stalls/aborts to default (0) or
            // moves the true value; accepting a *wrong* value is the ε-event.
            for p in 1..n {
                match out.moves[p] {
                    Some(1) => {}
                    None | Some(0) => aborts += 1,
                    Some(_) => wrong += 1,
                }
            }
        }
        let silent_cell = if silent_ok {
            check(true)
        } else {
            "stalls*".to_string()
        };
        t.row(vec![
            k.to_string(),
            tt.to_string(),
            n.to_string(),
            kappa.to_string(),
            check(honest_ok),
            silent_cell,
            format!("{aborts}/{}", samples * (n - 1)),
            format!("{wrong} (ε ≈ 2^-61·κ)"),
            (msgs / samples as u64).to_string(),
        ]);
    }
    print!("{t}");
    println!(
        "*at n = 3f+1 with k < t, a silent player stalls the degree-2f mul openings \
         (they need deg+t+1 = n points): the BKR guaranteed-output-delivery gap, \
         substituted by detect-and-abort — see EXPERIMENTS.md. For k ≥ t the margin \
         covers it (the k=1,t=1 row survives silence)."
    );
}

/// E3 — Theorem 4.4: punishment wills + cotermination barrier at
/// `n > 3k + 4t`. Crashing players either leave everyone finishing or
/// everyone punished — never a mix; message count is bounded.
fn e3_punishment(samples: usize) {
    let mut t = Table::new(
        "E3 — Theorem 4.4 (punishment wills + cotermination, n > 3k+4t)",
        &[
            "k",
            "t",
            "n",
            "runs",
            "coterminated",
            "finish",
            "punish-all",
            "mixed",
            "msgs/run",
        ],
    );
    for &(k, tt) in &[(1usize, 0usize), (1, 1)] {
        let n = (3 * k + 4 * tt + 1).max(4 * (k + tt) + 1); // engine robustness also needs n > 4f
        let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(k, tt)
            .wills(vec![3; n]) // punishment action, out of the game's range on purpose
            .inputs(ones_inputs(n))
            .build()
            .expect("n > 3k+4t by construction");
        let (mut finish, mut punish, mut mixed) = (0usize, 0usize, 0usize);
        let mut msgs = 0u64;
        // The crash point varies with the seed, so this stays a per-seed
        // sweep of the plan rather than one fixed-deviant batch.
        for seed in 0..samples as u64 {
            let out = plan
                .clone()
                .with_deviant(
                    1,
                    Behavior {
                        crash_after_sends: Some(40 + seed % 40),
                        ..Behavior::default()
                    },
                )
                .run_with(&SchedulerKind::Random, seed);
            msgs += out.messages_sent;
            let honest: Vec<bool> = (0..n)
                .filter(|&p| p != 1)
                .map(|p| out.moves[p].is_some())
                .collect();
            if honest.iter().all(|&b| b) {
                finish += 1;
            } else if honest.iter().all(|&b| !b) {
                punish += 1;
            } else {
                mixed += 1;
            }
        }
        t.row(vec![
            k.to_string(),
            tt.to_string(),
            n.to_string(),
            samples.to_string(),
            check(mixed == 0),
            finish.to_string(),
            punish.to_string(),
            mixed.to_string(),
            (msgs / samples as u64).to_string(),
        ]);
    }
    print!("{t}");
}

/// E3b — the relaxed-scheduler deadlock machinery (Lemma 6.10 /
/// Proposition 6.9): withholding the mediator's STOP batch deadlocks the
/// canonical game uniformly and the punishment wills fire.
fn e3b_relaxed_deadlock(samples: usize) {
    let n = 5;
    let plan = Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .wills(vec![9; n])
        .inputs(ones_inputs(n))
        .build()
        .expect("n − k − t ≥ 1");
    let mut all_punished = 0usize;
    let mut all_finished = 0usize;
    let mut mixed = 0usize;
    for seed in 0..samples as u64 {
        let out = plan.run_relaxed(n as u64 + 1 + seed % 3, seed);
        let moved: Vec<bool> = (0..n).map(|p| out.moves[p].is_some()).collect();
        if moved.iter().all(|&b| b) {
            all_finished += 1;
        } else if moved.iter().all(|&b| !b) {
            all_punished += 1;
        } else {
            mixed += 1;
        }
    }
    println!("\n## E3b — relaxed scheduler (Lemma 6.10): mediator STOP batch withheld\n");
    println!(
        "{samples} runs: all-finished {all_finished}, all-punished {all_punished}, mixed {mixed} \
         (the all-or-none batch rule makes mixed = 0 — Definition 5.3's cotermination for free)"
    );
}

/// E4 — Theorem 4.5: ε + punishment at `n > 2k + 3t`.
fn e4_eps_punishment(samples: usize) {
    let mut t = Table::new(
        "E4 — Theorem 4.5 (ε + punishment, n > 2k+3t)",
        &["k", "t", "n", "honest ok", "crash→coterminated", "msgs/run"],
    );
    for &(k, tt) in &[(0usize, 1usize), (1, 1)] {
        let n = 2 * k + 3 * tt + 1;
        let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(k, tt)
            .epsilon(3)
            .wills(vec![3; n])
            .inputs(ones_inputs(n))
            .build()
            .expect("n = 2k+3t+1 > 2k+3t");
        let honest = plan.seeds(0..samples as u64).run_batch();
        let honest_ok = honest
            .outcomes()
            .all(|out| out.moves[..n].iter().all(|m| m == &Some(1)));
        let msgs: u64 = honest.outcomes().map(|o| o.messages_sent).sum();
        let cotermination = plan
            .clone()
            .with_deviant(
                0,
                Behavior {
                    crash_after_sends: Some(30),
                    ..Behavior::default()
                },
            )
            .seeds(0..samples as u64)
            .run_batch()
            .outcomes()
            .all(|out| {
                let honest: Vec<bool> = (1..n).map(|p| out.moves[p].is_some()).collect();
                honest.iter().all(|&b| b) || honest.iter().all(|&b| !b)
            });
        t.row(vec![
            k.to_string(),
            tt.to_string(),
            n.to_string(),
            check(honest_ok),
            check(cotermination),
            (msgs / samples as u64).to_string(),
        ]);
    }
    print!("{t}");
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

/// E7 — the §6.4 counterexample, numbers straight from the paper.
fn e7_counterexample(samples: u64) {
    let n = 7;
    let (game, mediated, k) = library::counterexample_game(n);
    let mut t = Table::new(
        format!("E7 — §6.4 counterexample (n = {n}, k = {k}), paper values: σ = 1.5, ⊥ = 1.1, naive deviation = 1.55"),
        &["mediator", "coalition", "coalition payoff", "paired gain", "paper"],
    );

    // Game-layer ground truth.
    let value = library::dist_utilities(&game, &vec![0; n], &mediated)[0];
    let rho: Vec<mediator_games::Strategy> = (0..n)
        .map(|_| mediator_games::Strategy::pure(1, 3, library::BOTTOM))
        .collect();
    let margin = punishment::punishment_margin(&game, &rho, &vec![value; n], k);
    println!(
        "\nground truth: mediated value = {value}; ⊥ is a {k}-punishment with margin {margin:.2}"
    );

    // Per-seed coalition utilities, so gains can be estimated *paired*
    // (common random numbers: the same coin sequence hits baseline and
    // deviation, cancelling the coin's sampling noise entirely).
    let run_variant = |naive: bool, collude: bool| -> Vec<f64> {
        let circuit = if naive {
            catalog::counterexample_naive(n)
        } else {
            catalog::counterexample_minfo(n)
        };
        let mut builder = Scenario::mediator(circuit)
            .players(n)
            .tolerance(k, 0)
            .wills(vec![library::BOTTOM as u64; n])
            .resolve_defaults(vec![library::BOTTOM as u64; n]);
        if naive {
            builder = builder.naive_split();
        }
        if collude {
            builder = builder
                .deviant(0, move || Box::new(CounterexampleColluder::new(n, 1)))
                .deviant(1, move || Box::new(CounterexampleColluder::new(n, 0)));
        }
        let set = builder
            .build()
            .expect("n − k ≥ 1")
            .seeds(0..samples)
            .run_batch();
        // AH resolution with mass-⊥ fallback comes built into the set.
        set.outcomes()
            .map(|out| {
                let actions = set.profile(out);
                game.utilities(&vec![0; n], &actions)[0]
            })
            .collect()
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let paired_gain =
        |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x - y).sum::<f64>() / a.len() as f64;

    let base_naive = run_variant(true, false);
    let dev_naive = run_variant(true, true);
    let base_mi = run_variant(false, false);
    let dev_mi = run_variant(false, true);
    t.row(vec![
        "naive".into(),
        "none".into(),
        f4(mean(&base_naive)),
        "0 (baseline)".into(),
        "1.5".into(),
    ]);
    t.row(vec![
        "naive".into(),
        "{0,1} deadlock-if-b=0".into(),
        f4(mean(&dev_naive)),
        f4(paired_gain(&dev_naive, &base_naive)),
        "1.55 (gain +0.05)".into(),
    ]);
    t.row(vec![
        "min-info".into(),
        "none".into(),
        f4(mean(&base_mi)),
        "0 (baseline)".into(),
        "1.5".into(),
    ]);
    t.row(vec![
        "min-info".into(),
        "{0,1} deadlock-if-b=0".into(),
        f4(mean(&dev_mi)),
        f4(paired_gain(&dev_mi, &base_mi)),
        "≤ 1.5 (gain 0)".into(),
    ]);
    print!("{t}");

    // Also verify the mediated play is k-resilient at the game layer when
    // modeled as the obvious one-shot profile (everyone plays the coin).
    let coop = solution::best_coalition_gain(
        &game,
        &(0..n)
            .map(|_| mediator_games::Strategy::pure(1, 3, 0))
            .collect::<Vec<_>>(),
        k,
    );
    println!(
        "(game-layer sanity: best coalition gain over all-zeros one-shot play = {})",
        f4(coop)
    );
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

    fn select(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        selection(&args).map_err(str::to_string)
    }

    #[test]
    fn modifiers_and_options_are_not_selections() {
        assert_eq!(select(&[]), Ok(EXPERIMENTS.to_vec()));
        assert_eq!(select(&["--fast"]), Ok(EXPERIMENTS.to_vec()));
        assert_eq!(select(&["--fast", "--e9"]), Ok(vec!["--e9"]));
        assert_eq!(select(&["--fast", "--all"]), Ok(EXPERIMENTS.to_vec()));
        // A valued option swallows its value in both spellings.
        let conformance = ["--conformance", "--shard", "4", "--out=C.json"];
        assert_eq!(select(&conformance), Ok(EXPERIMENTS.to_vec()));
        assert_eq!(select(&["--replay", "--e12"]), Ok(EXPERIMENTS.to_vec()));
    }

    #[test]
    fn unrecognised_arguments_are_reported() {
        assert_eq!(select(&["--e12"]), Err("--e12".into()));
        assert_eq!(select(&["--bench"]), Err("--bench".into()));
        assert_eq!(select(&["--fast", "e9"]), Err("e9".into()));
    }
}
