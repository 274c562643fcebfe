//! Integration: the lower-bound frontier atlas (DESIGN.md §13).
//!
//! The tiny grid covers both sides of the boundary with both experiment
//! kinds: the §6.4 cell (Theorem 4.1 at `n = 7 ≤ 4k = 8`, companion
//! attack) plus Theorem 4.5 at its bound (`n = 4`, a freshly discovered
//! sub-threshold violation) and one above it (`n = 5`, the ε+punishment
//! construction certified resilient). The atlas's machine check must find
//! the empirical classification identical to the theorem predicate, and
//! every `Violated` cell's witness must persist to the trace store and
//! re-enact byte-identically through `record_witness` / `replay_witness` —
//! the two functions `experiments -- --frontier` and `-- --replay` call.

mod common;

use mediator_talk::core::frontier::{companion_plan, run_frontier_local, CellClass, FrontierSpec};
use mediator_talk::prelude::*;
use mediator_talk::store::{record_witness, replay_witness};

#[test]
fn the_tiny_grid_matches_the_theorem_predicate_cell_for_cell() {
    let spec = FrontierSpec::tiny();
    let mut atlas = run_frontier_local(&spec);
    atlas
        .check()
        .unwrap_or_else(|m| panic!("atlas mismatches: {m:#?}"));
    let (resilient, violated, inconclusive) = atlas.counts();
    assert_eq!(
        (resilient, violated, inconclusive),
        (1, 2, 0),
        "tiny grid: one admitted cell, two sub-threshold cells"
    );

    // The §6.4 cell rediscovers the paper's attack verbatim: the
    // opposite-parity pair decodes the leaked bit and deadlocks on b = 0.
    let sec64 = atlas
        .results
        .iter()
        .find(|r| r.cell.key() == "thm4.1-n7-k2-t0")
        .expect("the §6.4 cell is on the tiny grid");
    assert_eq!(sec64.class, CellClass::Violated);
    assert_eq!(sec64.evidence.strict_build, "rejected(required_n=9)");
    assert_eq!(sec64.evidence.hatch_build, "ok");
    let w = sec64
        .witness
        .as_ref()
        .expect("violated cells carry witnesses");
    assert_eq!(w.strategy, "deadlock-if-bit=0");
    assert_eq!(w.coalition, vec![0, 1]);

    // The fresh Theorem 4.5 cell right on its bound (n = 4 ≤ 2k = 4)
    // violates through the same companion structure.
    let fresh = atlas
        .results
        .iter()
        .find(|r| r.cell.key() == "thm4.5-n4-k2-t0")
        .expect("the 4.5 bound cell is on the tiny grid");
    assert_eq!(fresh.class, CellClass::Violated);
    assert!(fresh.witness.is_some());

    // The admitted 4.5 cell (n = 5 > 4) certifies resilient through the
    // ε+punishment construction itself.
    let admitted = atlas
        .results
        .iter()
        .find(|r| r.cell.key() == "thm4.5-n5-k2-t0")
        .expect("the admitted 4.5 cell is on the tiny grid");
    assert_eq!(admitted.class, CellClass::Resilient);
    assert_eq!(admitted.evidence.strict_build, "ok");
    assert_eq!(admitted.experiment, "cheap-talk:eps+wills");

    // The artifact is deterministic and carries the machine check's
    // verdict.
    assert_eq!(atlas.to_json(), run_frontier_local(&spec).to_json());
    let json = atlas.to_json();
    assert!(json.contains("\"matches_theorem_predicate\": true"));
    common::assert_strict_json(&json);

    // Notes, build verdicts and strategy names are free text: quotes,
    // backslashes and control characters must not break the artifact.
    let hostile = "say \"x\\y\"\nthen\tstall";
    for r in &mut atlas.results {
        r.note = hostile.to_string();
        r.evidence.hatch_build = hostile.to_string();
        if let Some(w) = &mut r.witness {
            w.strategy = hostile.to_string();
        }
    }
    let json = atlas.to_json();
    assert!(json.contains(r#"say \"x\\y\"\u000athen\u0009stall"#));
    common::assert_strict_json(&json);
}

#[test]
fn every_violated_cell_persists_a_witness_that_replays_byte_identically() {
    let bot = library::BOTTOM as u64;
    let atlas = run_frontier_local(&FrontierSpec::tiny());
    let dir = std::env::temp_dir().join(format!("frontier-witness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tiny.mtrc");
    let _ = std::fs::remove_file(&path);

    // Persist through `record_witness` — the call `experiments --
    // --frontier` makes: each witness's deviant plan
    // is rebuilt from its (strategy, coalition) recipe, re-run at the
    // witnessing (scheduler, seed), and recorded under the recipe.
    let mut store = TraceStore::create(&path).expect("create store");
    let mut recorded = Vec::new();
    for (i, r) in atlas.violated().enumerate() {
        let w = r.witness.as_ref().expect("violated ⇒ witness");
        let recipe = WitnessRecipe {
            cell: (r.cell.theorem.name().to_string(), r.cell.key()),
            strategy: w.strategy.clone(),
            coalition: w.coalition.clone(),
            deadlock: bot,
        };
        let header = RunHeader {
            kind: Some(w.kind.clone()),
            plan: PlanKind::Mediator,
            n: r.cell.n as u64,
            k: r.cell.k as u64,
            t: r.cell.t as u64,
            ..RunHeader::bare(i as u64, w.seed)
        };
        let plan = companion_plan(r.cell.n, r.cell.k, r.cell.t);
        record_witness(&mut store, header, &plan, &recipe).expect("record witness");
        recorded.push(r.cell.key());
    }
    assert_eq!(
        recorded,
        vec!["thm4.1-n7-k2-t0", "thm4.5-n4-k2-t0"],
        "both violated cells persisted"
    );
    // Replay: reopen the store cold, rebuild each plan purely from the
    // persisted header, and demand a byte-identical re-enactment.
    let store = TraceStore::open(&path).expect("reopen store");
    assert_eq!(store.len(), 2);
    for id in store.ids() {
        let run = store.load(id).expect("stored run loads");
        let stored = WitnessRecipe::from_header(&run.header).expect("witnesses carry a recipe");
        assert!(recorded.contains(&stored.cell.1), "{stored:?}");
        let h = &run.header;
        let plan = companion_plan(h.n as usize, h.k as usize, h.t as usize);
        // `replay_witness` already asserts the re-recorded trace is
        // byte-identical; outcome equality on top: the re-enactment ends
        // the same way the witness run did (the deadlock collusion's runs
        // terminate by deadlock, not quiescence).
        let report = replay_witness(&plan, &run)
            .unwrap_or_else(|e| panic!("{stored:?} failed to replay: {e:?}"));
        assert_eq!(report.termination, run.outcome.termination);
        assert_eq!(report.termination, TerminationKind::Deadlock);
    }
    let _ = std::fs::remove_file(&path);
}

/// A hand-built atlas over the tiny spec: one violated cell with a
/// witness (and an escape-hatch verdict the machine check quotes back),
/// one skipped cell whose note is hostile free text. The bytes are the
/// `FRONTIER.json` layout the golden and the sharded differential pin.
#[test]
fn the_atlas_layout_is_pinned_byte_for_byte() {
    use mediator_talk::core::frontier::{cell_skipped, CellEvidence};
    use mediator_talk::games::stats::ConfidenceInterval;

    let gain = 0.1 + 0.2;
    let violated = CellResult {
        cell: FrontierCell {
            theorem: Theorem::Robust41,
            n: 7,
            k: 2,
            t: 0,
        },
        evidence: CellEvidence {
            strict_build: "rejected(required_n=9)".to_string(),
            hatch_build: "panicked: \"boom\"".to_string(),
        },
        experiment: "companion",
        class: CellClass::Violated,
        max_gain: Some(gain),
        sweep_cells: 12,
        note: String::new(),
        witness: Some(DeviationWitness {
            strategy: "deadlock-if-bit=0".to_string(),
            coalition: vec![0, 1],
            gain: ConfidenceInterval {
                mean: gain,
                lo: 0.25,
                hi: 0.35,
                samples: 16,
            },
            kind: SchedulerKind::Random,
            seed: 15,
            baseline_profile: vec![0; 7],
            deviant_profile: vec![2; 7],
            unit: 7,
            run: 15,
        }),
    };
    let skipped = cell_skipped(
        FrontierCell {
            theorem: Theorem::EpsilonPunishment45,
            n: 5,
            k: 2,
            t: 0,
        },
        CellEvidence {
            strict_build: "ok".to_string(),
            hatch_build: "-".to_string(),
        },
        "say \"x\\y\"\nthen\tstall\u{1}".to_string(),
    );
    let atlas = FrontierAtlas {
        spec: FrontierSpec::tiny(),
        results: vec![violated, skipped],
    };
    let expected = r#"{
  "spec": { "name": "tiny", "ct_seeds": 2, "med_seeds": 16, "eps_upper": { "val": 0.050000, "bits": "0x3fa999999999999a" }, "eps_lower": { "val": 0.010000, "bits": "0x3f847ae147ae147b" }, "kappa": 2, "inconclusive_budget": 0,
    "bands": [
      { "theorem": "4.1", "bound": "n > 4k + 4t", "k": [2, 2], "t": [0, 0], "offsets": [-1, -1] },
      { "theorem": "4.5", "bound": "n > 2k + 3t", "k": [2, 2], "t": [0, 0], "offsets": [0, 1] }
    ] },
  "cells": [
    { "key": "thm4.1-n7-k2-t0", "theorem": "4.1", "n": 7, "k": 2, "t": 0, "bound": 8, "admits": false,
      "strict_build": "rejected(required_n=9)", "hatch_build": "panicked: \"boom\"", "experiment": "companion",
      "class": "violated", "max_gain": { "val": 0.300000, "bits": "0x3fd3333333333334" }, "sweep_cells": 12, "note": "",
      "witness": { "strategy": "deadlock-if-bit=0", "coalition": [0, 1], "scheduler": "Random", "seed": 15, "unit": 7, "run": 15, "gain": { "val": 0.300000, "bits": "0x3fd3333333333334" }, "baseline_profile": [0, 0, 0, 0, 0, 0, 0], "deviant_profile": [2, 2, 2, 2, 2, 2, 2] } },
    { "key": "thm4.5-n5-k2-t0", "theorem": "4.5", "n": 5, "k": 2, "t": 0, "bound": 4, "admits": true,
      "strict_build": "ok", "hatch_build": "-", "experiment": "none",
      "class": "inconclusive", "max_gain": null, "sweep_cells": 0, "note": "say \"x\\y\"\u000athen\u0009stall\u0001",
      "witness": null }
  ],
  "summary": { "cells": 2, "resilient": 0, "violated": 1, "inconclusive": 1, "matches_theorem_predicate": false, "mismatches": ["thm4.1-n7-k2-t0: escape hatch failed to construct the cell: panicked: \"boom\"", "1 inconclusive cell(s) exceed the budget of 0"] }
}
"#;
    let json = atlas.to_json();
    assert_eq!(json, expected);
    common::assert_strict_json(&json);
}
