//! The lower-bound frontier atlas: a machine-checked map of where each
//! cheap-talk theorem holds and where it breaks.
//!
//! The paper's four theorems come with sharp thresholds — 4.1 `n > 4k+4t`,
//! 4.2 `n > 3k+3t`, 4.4 `n > 3k+4t`, 4.5 `n > 2k+3t` — and the companion
//! lower-bound papers (Abraham–Dolev–Halpern 2008; Geffner–Halpern 2021)
//! prove them tight. This module turns the conformance harness into a
//! cartographer of that fact: it enumerates an `(n, k, t)` grid straddling
//! each theorem's boundary and classifies every cell by *experiment*, not
//! by assertion.
//!
//! A cell's experiment depends on which side of the line it sits, mirroring
//! how tightness is actually proved:
//!
//! * **Above the boundary** (the theorem admits `(n, k, t)`) the cell runs
//!   the theorem's own construction — the cheap-talk plan in that regime
//!   over the Byzantine-agreement game — through the generated
//!   coalition-strategy battery. The upper bound is certified by the
//!   harness finding no deviation gaining more than ε:
//!   [`CellClass::Resilient`].
//! * **Below the boundary** the guarantee is void and the lower bound is
//!   certified the way lower bounds are: by exhibiting a concrete game and
//!   mediator where a coalition profits. The cell records that the strict
//!   [`Scenario`] builder *rejects* the point
//!   ([`ScenarioError::Threshold`]), that the typed
//!   [`CheapTalk::allow_sub_threshold`](crate::scenario::CheapTalk::allow_sub_threshold)
//!   escape hatch deliberately constructs it anyway, and then runs the
//!   §6.4 companion — the naive two-round mediator over the
//!   counterexample game, which generalizes to every `n ≥ 4` — until the
//!   harness rediscovers the paper's deadlock collusion:
//!   [`CellClass::Violated`], with a concrete replayable
//!   [`DeviationWitness`].
//!
//! The result renders as a deterministic `FRONTIER.json` artifact
//! ([`FrontierAtlas::to_json`]: the crate's one JSON writer in
//! [`crate::report`], which the conformance report shares — stable key
//! order, every float carried both as `{:.6}` and as its exact
//! `f64::to_bits` hex, witnesses rendered by one function), and
//! [`FrontierAtlas::check`] machine-checks that the empirical boundary
//! coincides with the theorem predicate cell for cell.
//!
//! Budgeting: each cell samples `seeds × battery` runs, so a verdict can
//! come back [`CellClass::Inconclusive`] when an interval straddles ε —
//! more seeds shrink the interval at linear cost. A spec carries an
//! explicit [`FrontierSpec::inconclusive_budget`]; the shipped grids spend
//! enough seeds per cell (and pair all comparisons with common random
//! numbers) that the budget is zero.

use mediator_circuits::catalog;
use mediator_field::Fp;
use mediator_games::library;
use mediator_games::BayesianGame;
use mediator_sim::SchedulerKind;

use crate::adversary::{Conformance, ConformanceReport, ConformanceVerdict, DeviationWitness};
use crate::report::{block, object};
use crate::scenario::{CheapTalkPlan, MediatorPlan, Scenario, ScenarioError, Theorem};

/// The ⊥ action of the §6.4 counterexample game, as the mediator's action
/// alphabet encodes it.
pub const BOT: u64 = library::BOTTOM as u64;

/// All four theorem regimes, in paper order — the canonical band order of
/// the shipped grids.
pub const ALL_THEOREMS: [Theorem; 4] = [
    Theorem::Robust41,
    Theorem::Epsilon42,
    Theorem::Punishment44,
    Theorem::EpsilonPunishment45,
];

// ---------------------------------------------------------------------------
// Grid grammar
// ---------------------------------------------------------------------------

/// One theorem's slice of the grid: inclusive `k` and `t` ranges, and an
/// inclusive range of *offsets* from the theorem's bound. A `(k, t, off)`
/// combination denotes the cell `n = B(k, t) + off`, so `off ≤ 0` is below
/// the boundary (the theorem requires `n > B`) and `off ≥ 1` above —
/// "straddling" is spelled directly in the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TheoremBand {
    /// The theorem regime this band maps.
    pub theorem: Theorem,
    /// Inclusive rational-coalition range.
    pub k: (usize, usize),
    /// Inclusive malicious range.
    pub t: (usize, usize),
    /// Inclusive offset range around the bound (`n = B(k, t) + offset`).
    pub offsets: (i64, i64),
}

impl TheoremBand {
    /// A band over the given inclusive ranges.
    ///
    /// # Panics
    ///
    /// Panics if any range is inverted.
    pub fn new(
        theorem: Theorem,
        k: (usize, usize),
        t: (usize, usize),
        offsets: (i64, i64),
    ) -> Self {
        assert!(k.0 <= k.1, "inverted k range {k:?}");
        assert!(t.0 <= t.1, "inverted t range {t:?}");
        assert!(offsets.0 <= offsets.1, "inverted offset range {offsets:?}");
        TheoremBand {
            theorem,
            k,
            t,
            offsets,
        }
    }

    /// Enumerates the band's cells in deterministic lexicographic
    /// `(k, t, offset)` order. A combination whose `B(k, t) + offset`
    /// falls below 1 player denotes no cell and is skipped; everything
    /// else appears exactly once.
    pub fn cells(&self) -> Vec<FrontierCell> {
        let mut out = Vec::new();
        for k in self.k.0..=self.k.1 {
            for t in self.t.0..=self.t.1 {
                for off in self.offsets.0..=self.offsets.1 {
                    let n = self.theorem.lower_bound(k, t) as i64 + off;
                    if n < 1 {
                        continue;
                    }
                    out.push(FrontierCell {
                        theorem: self.theorem,
                        n: n as usize,
                        k,
                        t,
                    });
                }
            }
        }
        out
    }
}

/// One grid cell: a theorem regime at a concrete `(n, k, t)` point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrontierCell {
    /// The theorem whose boundary this cell probes.
    pub theorem: Theorem,
    /// Player count.
    pub n: usize,
    /// Rational-coalition bound.
    pub k: usize,
    /// Malicious bound.
    pub t: usize,
}

impl FrontierCell {
    /// The theorem's strict bound `B(k, t)` at this cell's tolerances.
    pub fn bound(&self) -> usize {
        self.theorem.lower_bound(self.k, self.t)
    }

    /// The theorem predicate: whether the regime admits this `(n, k, t)`.
    pub fn admits(&self) -> bool {
        self.theorem.admits(self.n, self.k, self.t)
    }

    /// Stable identifier (`thm4.1-n7-k2-t0`) — the atlas JSON key and the
    /// witness store's per-cell session label.
    pub fn key(&self) -> String {
        format!(
            "thm{}-n{}-k{}-t{}",
            self.theorem.name(),
            self.n,
            self.k,
            self.t
        )
    }
}

/// A full grid specification: the bands plus the per-cell sampling budget.
///
/// The two seed knobs trade wall clock against `Inconclusive` risk: every
/// conformance interval shrinks as `1/√seeds`, and a cell is undecidable
/// exactly when some interval straddles ε. The binding case on admitted
/// cells is a timing-sensitive deviation (`abort-at-round` under the
/// random scheduler) that loses on some seeds and breaks even on others:
/// with exactly one losing seed out of `N`, the gain samples are one `−1`
/// among zeros and the interval's upper bound is `(z − 1)/N ≈ 0.96/N` —
/// so certifying `ε = 0.05` needs `N ≥ 20` cheap-talk seeds even though
/// the true gain is never positive. The shipped grids use 24. Companion
/// cells need `≥ 16` for the opposite reason: the §6.4 gain averages a
/// fair coin, so its interval needs the samples to clear `ε` from above.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSpec {
    /// Grid name, echoed in the artifact (`fast`, `full`, `tiny`).
    pub name: String,
    /// The per-theorem bands, in render order.
    pub bands: Vec<TheoremBand>,
    /// Seeds per scheduler kind on admitted (cheap-talk) cells.
    pub ct_seeds: u64,
    /// Seeds per scheduler kind on sub-threshold (companion) cells.
    pub med_seeds: u64,
    /// The ε bar certified on admitted cells.
    pub eps_upper: f64,
    /// The ε bar the companion attack must clear on sub-threshold cells.
    pub eps_lower: f64,
    /// Cut-and-choose checks per dealer for the ε-engine regimes.
    pub kappa: usize,
    /// How many `Inconclusive` cells [`FrontierAtlas::check`] tolerates.
    pub inconclusive_budget: usize,
}

impl FrontierSpec {
    /// The CI fast grid: every theorem at `k = 2, t = 0`, one to two cells
    /// on each side of its boundary (Theorem 4.5's band starts at its
    /// bound because the counterexample game needs `n ≥ 4`). 11 cells;
    /// regenerates in seconds in release mode and byte-matches the
    /// checked-in golden.
    pub fn fast() -> Self {
        FrontierSpec {
            name: "fast".to_string(),
            bands: vec![
                TheoremBand::new(Theorem::Robust41, (2, 2), (0, 0), (-1, 1)),
                TheoremBand::new(Theorem::Epsilon42, (2, 2), (0, 0), (-1, 1)),
                TheoremBand::new(Theorem::Punishment44, (2, 2), (0, 0), (-1, 1)),
                TheoremBand::new(Theorem::EpsilonPunishment45, (2, 2), (0, 0), (0, 1)),
            ],
            ct_seeds: 24,
            med_seeds: 16,
            eps_upper: 0.05,
            eps_lower: 0.01,
            kappa: 2,
            inconclusive_budget: 0,
        }
    }

    /// The wide grid (`--frontier` without `--fast`): `k ∈ {2, 3}` and a
    /// deeper sub-threshold shelf. Meant for the sharded plane.
    pub fn full() -> Self {
        FrontierSpec {
            name: "full".to_string(),
            bands: vec![
                TheoremBand::new(Theorem::Robust41, (2, 3), (0, 0), (-2, 1)),
                TheoremBand::new(Theorem::Epsilon42, (2, 3), (0, 0), (-2, 1)),
                TheoremBand::new(Theorem::Punishment44, (2, 3), (0, 0), (-2, 1)),
                TheoremBand::new(Theorem::EpsilonPunishment45, (2, 3), (0, 0), (0, 1)),
            ],
            ct_seeds: 24,
            med_seeds: 24,
            eps_upper: 0.05,
            eps_lower: 0.01,
            kappa: 2,
            inconclusive_budget: 0,
        }
    }

    /// A three-cell grid for debug-mode test suites: the §6.4 cell
    /// (Theorem 4.1 at `n = 7, k = 2`), plus Theorem 4.5 on both sides of
    /// its boundary (`n = 4` violated, `n = 5` resilient). Covers both
    /// experiment kinds and both classes at minimal wall clock.
    pub fn tiny() -> Self {
        FrontierSpec {
            name: "tiny".to_string(),
            bands: vec![
                TheoremBand::new(Theorem::Robust41, (2, 2), (0, 0), (-1, -1)),
                TheoremBand::new(Theorem::EpsilonPunishment45, (2, 2), (0, 0), (0, 1)),
            ],
            ct_seeds: 2,
            med_seeds: 16,
            eps_upper: 0.05,
            eps_lower: 0.01,
            kappa: 2,
            inconclusive_budget: 0,
        }
    }

    /// Enumerates the whole grid: bands in spec order, each band in its
    /// deterministic `(k, t, offset)` order.
    pub fn cells(&self) -> Vec<FrontierCell> {
        self.bands.iter().flat_map(TheoremBand::cells).collect()
    }
}

// ---------------------------------------------------------------------------
// Per-cell experiment construction
// ---------------------------------------------------------------------------

/// Build-time evidence recorded for every cell: what the strict builder
/// said, and what the escape hatch said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellEvidence {
    /// The strict builder's verdict: `"ok"` above the boundary,
    /// `"rejected(required_n=N)"` below it.
    pub strict_build: String,
    /// The [`allow_sub_threshold`](crate::scenario::CheapTalk::allow_sub_threshold)
    /// verdict: `"-"` above the boundary (the hatch is not engaged),
    /// `"ok"` when the sub-threshold plan constructs, otherwise the
    /// builder error.
    pub hatch_build: String,
}

/// The executable half of a prepared cell.
pub enum CellExperiment {
    /// Admitted cell: the regime's certification plan over the BA game.
    CheapTalk {
        /// The certification plan at the cell's `(n, k, t)` (see
        /// [`certification`] for the 4.4 engine substitution).
        plan: CheapTalkPlan,
        /// The engine label recorded in the artifact
        /// (`cheap-talk:robust`, `cheap-talk:eps`, …).
        label: &'static str,
        /// The Byzantine-agreement game scoring it.
        game: BayesianGame,
        /// Player types (initial bits).
        types: Vec<usize>,
        /// The sweep configuration.
        conf: Conformance,
    },
    /// Sub-threshold cell: the §6.4 companion (naive mediator over the
    /// counterexample game at this `n`).
    Companion {
        /// The naive two-round mediator plan.
        plan: MediatorPlan,
        /// The counterexample game.
        game: BayesianGame,
        /// Player types (complete information: all zero).
        types: Vec<usize>,
        /// The sweep configuration (deadlock collusion enabled).
        conf: Conformance,
    },
    /// No experiment applies (e.g. the companion needs `n ≥ 4` and a
    /// coalition of two): the cell can only come back `Inconclusive`.
    Undecidable {
        /// Why no experiment exists for this cell.
        reason: String,
    },
}

/// A cell with its build evidence and its experiment, ready to execute
/// locally ([`run_frontier_local`]) or over the sharded plane.
pub struct PreparedCell {
    /// The cell.
    pub cell: FrontierCell,
    /// Build-time evidence.
    pub evidence: CellEvidence,
    /// The runnable experiment.
    pub experiment: CellExperiment,
}

/// The theorem's own construction at a cell: the regime's cheap-talk plan
/// over the majority circuit with unanimous-one inputs. `hatch` engages
/// the sub-threshold escape hatch.
pub fn construction(
    cell: &FrontierCell,
    spec: &FrontierSpec,
    hatch: bool,
) -> Result<CheapTalkPlan, ScenarioError> {
    let n = cell.n;
    let mut b = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(cell.k, cell.t)
        .inputs(vec![vec![Fp::ONE]; n]);
    match cell.theorem {
        Theorem::Robust41 => {}
        Theorem::Epsilon42 => b = b.epsilon(spec.kappa),
        Theorem::Punishment44 => b = b.wills(vec![0; n]),
        Theorem::EpsilonPunishment45 => b = b.epsilon(spec.kappa).wills(vec![0; n]),
    }
    if hatch {
        b = b.allow_sub_threshold();
    }
    b.build()
}

/// The plan that *certifies* an admitted cell, plus its engine label for
/// the artifact.
///
/// For Theorems 4.1, 4.2 and 4.5 this is [`construction`] — the theorem's
/// own regime is runnable everywhere its predicate admits. Theorem 4.4 is
/// the exception in this reproduction: its engine reuses the robust MPC
/// core (which requires `n > 4(k + t)` at run time), strictly more than
/// 4.4's `n > 3k + 4t` bound, so admitted cells in the gap are certified
/// by the ε+punishment engine at the same `(n, k, t)` — the conformance
/// harness's verdict is statistical (ε-bounded) either way, and the cell
/// records which engine certified it.
pub fn certification(
    cell: &FrontierCell,
    spec: &FrontierSpec,
) -> (Result<CheapTalkPlan, ScenarioError>, &'static str) {
    let theorem = match cell.theorem {
        Theorem::Punishment44 if cell.n <= 4 * (cell.k + cell.t) => Theorem::EpsilonPunishment45,
        theorem => theorem,
    };
    let label = match theorem {
        Theorem::Robust41 => "cheap-talk:robust",
        Theorem::Epsilon42 => "cheap-talk:eps",
        Theorem::Punishment44 => "cheap-talk:robust+wills",
        Theorem::EpsilonPunishment45 => "cheap-talk:eps+wills",
    };
    let regime = FrontierCell { theorem, ..*cell };
    (construction(&regime, spec, false), label)
}

/// The §6.4 companion plan at `(n, k)`: the naive two-round mediator over
/// the counterexample circuit, wills and default actions all ⊥. Single
/// source for the sweep, the witness persistence recipe, and `--replay`.
pub fn companion_plan(n: usize, k: usize, t: usize) -> MediatorPlan {
    Scenario::mediator(catalog::counterexample_naive(n))
        .players(n)
        .tolerance(k, t)
        .naive_split()
        .wills(vec![BOT; n])
        .default_actions(vec![BOT; n])
        .build()
        .expect("companion cells guarantee k + t < n")
}

/// The coalitions every cell sweeps: a singleton (which must *not* profit
/// — no single player can decode the §6.4 leak) and the opposite-parity
/// pair `{0, 1}` (which below the boundary must).
fn cell_coalitions(k: usize) -> Vec<Vec<usize>> {
    if k >= 2 {
        vec![vec![0], vec![0, 1]]
    } else {
        vec![vec![0]]
    }
}

/// Builds a cell's evidence and experiment. Pure construction — no runs —
/// so the local and sharded executors prepare bit-identical work.
pub fn prepare_cell(cell: &FrontierCell, spec: &FrontierSpec) -> PreparedCell {
    if cell.admits() {
        // Evidence: the theorem's *own* construction must build strictly.
        let strict_build = match construction(cell, spec, false) {
            Ok(_) => "ok".to_string(),
            Err(e) => format!("error({e})"),
        };
        let evidence = CellEvidence {
            strict_build,
            hatch_build: "-".to_string(),
        };
        // Experiment: the regime's runnable certification plan.
        let experiment = match certification(cell, spec) {
            (Ok(plan), label) => {
                let game = library::byzantine_agreement_game(cell.n);
                let conf = Conformance::new(spec.eps_upper, cell.k, cell.t)
                    .battery(vec![SchedulerKind::Random])
                    .seeds(spec.ct_seeds)
                    .coalitions(cell_coalitions(cell.k));
                CellExperiment::CheapTalk {
                    plan,
                    label,
                    game,
                    types: vec![1usize; cell.n],
                    conf,
                }
            }
            (Err(e), _) => CellExperiment::Undecidable {
                reason: format!("admitted cell failed to build: {e}"),
            },
        };
        return PreparedCell {
            cell: *cell,
            evidence,
            experiment,
        };
    }

    // Sub-threshold: the strict builder must reject, the hatch must build.
    let strict_build = match construction(cell, spec, false) {
        Err(e @ ScenarioError::Threshold { .. }) => format!(
            "rejected(required_n={})",
            e.required_n().expect("threshold errors carry required_n")
        ),
        Err(e) => format!("error({e})"),
        Ok(_) => "unexpectedly-ok".to_string(),
    };
    let hatch_build = match construction(cell, spec, true) {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("error({e})"),
    };
    let evidence = CellEvidence {
        strict_build,
        hatch_build,
    };
    let experiment = if cell.n < 4 {
        CellExperiment::Undecidable {
            reason: "companion game needs n ≥ 4".to_string(),
        }
    } else if cell.k < 2 {
        CellExperiment::Undecidable {
            reason: "companion attack needs a coalition of two (k ≥ 2)".to_string(),
        }
    } else if cell.k + cell.t >= cell.n {
        CellExperiment::Undecidable {
            reason: "tolerance k + t ≥ n leaves no honest majority to mediate".to_string(),
        }
    } else {
        let (game, _, _) = library::counterexample_game(cell.n);
        let conf = Conformance::new(spec.eps_lower, cell.k, cell.t)
            .battery(vec![SchedulerKind::Random])
            .seeds(spec.med_seeds)
            .coalitions(cell_coalitions(cell.k))
            .deadlock_action(BOT);
        CellExperiment::Companion {
            plan: companion_plan(cell.n, cell.k, cell.t),
            game,
            types: vec![0usize; cell.n],
            conf,
        }
    };
    PreparedCell {
        cell: *cell,
        evidence,
        experiment,
    }
}

// ---------------------------------------------------------------------------
// Classification and the atlas
// ---------------------------------------------------------------------------

/// A cell's empirical classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// The sweep certified ε-k-resilience.
    Resilient,
    /// The sweep found a profitable deviation (witness attached).
    Violated,
    /// Undecided: an interval straddles ε, or no experiment applies.
    Inconclusive,
}

impl CellClass {
    /// Lower-case label used in the JSON artifact.
    pub fn name(self) -> &'static str {
        match self {
            CellClass::Resilient => "resilient",
            CellClass::Violated => "violated",
            CellClass::Inconclusive => "inconclusive",
        }
    }
}

/// One executed cell of the atlas.
pub struct CellResult {
    /// The cell.
    pub cell: FrontierCell,
    /// Build-time evidence.
    pub evidence: CellEvidence,
    /// Which experiment ran: `"cheap-talk"`, `"companion"`, or `"none"`.
    pub experiment: &'static str,
    /// The classification.
    pub class: CellClass,
    /// Largest gain point estimate across the sweep (absent when no
    /// experiment ran).
    pub max_gain: Option<f64>,
    /// Number of swept `(strategy × coalition)` cells.
    pub sweep_cells: usize,
    /// Diagnostic note (the inconclusive reason, or empty).
    pub note: String,
    /// The concrete replayable witness, for violated cells.
    pub witness: Option<DeviationWitness>,
}

/// Folds a conformance report into a cell result — the one classification
/// path both the local fan-out and the sharded plane go through, so
/// bit-identical reports yield byte-identical atlases.
pub fn cell_result(
    cell: FrontierCell,
    evidence: CellEvidence,
    experiment: &'static str,
    report: &ConformanceReport,
) -> CellResult {
    let (class, note, witness) = match &report.verdict {
        ConformanceVerdict::Resilient { .. } => (CellClass::Resilient, String::new(), None),
        ConformanceVerdict::Violated(w) => (CellClass::Violated, String::new(), Some(w.clone())),
        ConformanceVerdict::Inconclusive {
            strategy,
            coalition,
            ..
        } => (
            CellClass::Inconclusive,
            format!("interval straddles ε: '{strategy}' by {coalition:?}"),
            None,
        ),
    };
    CellResult {
        cell,
        evidence,
        experiment,
        class,
        max_gain: Some(report.max_gain()),
        sweep_cells: report.cells.len(),
        note,
        witness,
    }
}

/// A cell with no runnable experiment.
pub fn cell_skipped(cell: FrontierCell, evidence: CellEvidence, reason: String) -> CellResult {
    CellResult {
        cell,
        evidence,
        experiment: "none",
        class: CellClass::Inconclusive,
        max_gain: None,
        sweep_cells: 0,
        note: reason,
        witness: None,
    }
}

/// The rendered map: every cell's result under one spec.
pub struct FrontierAtlas {
    /// The grid specification that produced this atlas.
    pub spec: FrontierSpec,
    /// Per-cell results, in [`FrontierSpec::cells`] order.
    pub results: Vec<CellResult>,
}

impl FrontierAtlas {
    /// `(resilient, violated, inconclusive)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.results {
            match r.class {
                CellClass::Resilient => c.0 += 1,
                CellClass::Violated => c.1 += 1,
                CellClass::Inconclusive => c.2 += 1,
            }
        }
        c
    }

    /// The violated cells (each carries a witness).
    pub fn violated(&self) -> impl Iterator<Item = &CellResult> {
        self.results
            .iter()
            .filter(|r| r.class == CellClass::Violated)
    }

    /// Machine-checks that the empirical boundary coincides with the
    /// theorem predicate cell for cell:
    ///
    /// * an admitted cell must classify `Resilient` (its strict build must
    ///   have succeeded);
    /// * a sub-threshold cell must classify `Violated` with a witness, its
    ///   strict build must have been threshold-rejected, and the escape
    ///   hatch must have constructed it;
    /// * at most [`FrontierSpec::inconclusive_budget`] cells may be
    ///   `Inconclusive`.
    ///
    /// Returns every discrepancy, or `Ok(())` when the map matches.
    pub fn check(&self) -> Result<(), Vec<String>> {
        let mut mismatches = Vec::new();
        let mut inconclusive = 0usize;
        for r in &self.results {
            let key = r.cell.key();
            if r.cell.admits() {
                if r.evidence.strict_build != "ok" {
                    mismatches.push(format!(
                        "{key}: admitted cell failed the strict build: {}",
                        r.evidence.strict_build
                    ));
                }
                match r.class {
                    CellClass::Resilient => {}
                    CellClass::Violated => mismatches.push(format!(
                        "{key}: theorem admits the point but the sweep found a deviation: {}",
                        r.witness
                            .as_ref()
                            .map(|w| w.strategy.as_str())
                            .unwrap_or("?")
                    )),
                    CellClass::Inconclusive => inconclusive += 1,
                }
            } else {
                if !r.evidence.strict_build.starts_with("rejected") {
                    mismatches.push(format!(
                        "{key}: sub-threshold cell was not threshold-rejected: {}",
                        r.evidence.strict_build
                    ));
                }
                match r.class {
                    CellClass::Violated => {
                        if r.witness.is_none() {
                            mismatches.push(format!("{key}: violated cell carries no witness"));
                        }
                        if r.evidence.hatch_build != "ok" {
                            mismatches.push(format!(
                                "{key}: escape hatch failed to construct the cell: {}",
                                r.evidence.hatch_build
                            ));
                        }
                    }
                    CellClass::Resilient => mismatches.push(format!(
                        "{key}: below the boundary but the sweep certified resilience"
                    )),
                    CellClass::Inconclusive => inconclusive += 1,
                }
            }
        }
        if inconclusive > self.spec.inconclusive_budget {
            mismatches.push(format!(
                "{inconclusive} inconclusive cell(s) exceed the budget of {}",
                self.spec.inconclusive_budget
            ));
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches)
        }
    }

    /// Renders the atlas as the deterministic `FRONTIER.json` artifact
    /// through the crate's one JSON writer ([`crate::report`]): stable key
    /// order, every float carried both human-readably (`{:.6}`) and
    /// exactly (`f64::to_bits` hex) — the representation the sharded-vs-
    /// local differential diffs byte for byte.
    pub fn to_json(&self) -> String {
        let spec = &self.spec;
        let bands = spec.bands.iter().map(|b| {
            object!(0; "theorem": b.theorem.name(), "bound": b.theorem.bound(),
                "k": [b.k.0, b.k.1], "t": [b.t.0, b.t.1], "offsets": [b.offsets.0, b.offsets.1])
        });
        let cells = self.results.iter().map(|r| {
            object!(6;
                "key": r.cell.key(), "theorem": r.cell.theorem.name(), "n": r.cell.n,
                    "k": r.cell.k, "t": r.cell.t, "bound": r.cell.bound(), "admits": r.cell.admits();
                "strict_build": r.evidence.strict_build, "hatch_build": r.evidence.hatch_build,
                    "experiment": r.experiment;
                "class": r.class.name(), "max_gain": r.max_gain, "sweep_cells": r.sweep_cells,
                    "note": r.note;
                "witness": r.witness)
        });
        let (resilient, violated, inconclusive) = self.counts();
        let mismatches = self.check().err().unwrap_or_default();
        object!(document;
            "spec": object!(4;
                "name": spec.name, "ct_seeds": spec.ct_seeds, "med_seeds": spec.med_seeds,
                    "eps_upper": spec.eps_upper, "eps_lower": spec.eps_lower, "kappa": spec.kappa,
                    "inconclusive_budget": spec.inconclusive_budget;
                "bands": block(4, bands));
            "cells": block(2, cells);
            "summary": object!(0; "cells": self.results.len(), "resilient": resilient,
                "violated": violated, "inconclusive": inconclusive,
                "matches_theorem_predicate": mismatches.is_empty(), "mismatches": mismatches))
    }
}

/// Runs the whole grid locally: each cell's conformance sweep on the
/// in-process thread fan-out, in enumeration order. The sharded twin lives
/// in `mediator-net` (`run_frontier_sharded`) and must render an atlas
/// byte-identical to this one.
pub fn run_frontier_local(spec: &FrontierSpec) -> FrontierAtlas {
    let results = spec
        .cells()
        .iter()
        .map(|cell| {
            let prepared = prepare_cell(cell, spec);
            match prepared.experiment {
                CellExperiment::CheapTalk {
                    plan,
                    label,
                    game,
                    types,
                    conf,
                } => cell_result(
                    prepared.cell,
                    prepared.evidence,
                    label,
                    &plan.conformance(&game, &types, &conf),
                ),
                CellExperiment::Companion {
                    plan,
                    game,
                    types,
                    conf,
                } => cell_result(
                    prepared.cell,
                    prepared.evidence,
                    "companion",
                    &plan.conformance(&game, &types, &conf),
                ),
                CellExperiment::Undecidable { reason } => {
                    cell_skipped(prepared.cell, prepared.evidence, reason)
                }
            }
        })
        .collect();
    FrontierAtlas {
        spec: spec.clone(),
        results,
    }
}
