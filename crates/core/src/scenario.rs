//! The Scenario API: the builder-first experiment surface of the crate.
//!
//! The paper's claims are statements about *distributions of outcomes over
//! scheduler batteries and seeds*, so the entry surface is batch-native:
//! this module is the one way a cheap-talk or mediator game is configured,
//! validated and run.
//!
//! * **[`Scenario`] builders** — `Scenario::cheap_talk(circuit)` /
//!   `Scenario::mediator(circuit)` with fluent `.players(n)`,
//!   `.tolerance(k, t)`, `.input(i, …)`, `.deviant(i, …)`, `.wills(…)`,
//!   `.scheduler(…)` steps. `build()` selects the
//!   theorem regime from the configured machinery and **validates the
//!   threshold** (`n > 4k+4t` for Theorem 4.1, …), returning a typed
//!   [`ScenarioError`] instead of a downstream panic.
//! * **Batch execution plans** — `.battery(SchedulerKind::battery(n))
//!   .seeds(0..4000).run_batch()` fans the `(scheduler, seed)` grid across
//!   `std::thread` workers and returns a [`RunSet`] with built-in
//!   [`OutcomeDist`] aggregation per scheduler kind.
//! * **Steppable sessions** — `.session()` opens the identical run as a
//!   [`Session`]: `step()` one event at a time, inspect `pending()`,
//!   `inject(…)` external messages, `finish()` into the ordinary
//!   [`Outcome`]. This is the seam a future async/network backend attaches
//!   to.
//!
//! # Example
//!
//! ```
//! use mediator_core::scenario::Scenario;
//! use mediator_circuits::catalog;
//! use mediator_field::Fp;
//! use mediator_sim::SchedulerKind;
//!
//! let n = 5;
//! // Unanimous votes: the majority is scheduler-proof, so every battery
//! // member's outcome distribution is the same point mass.
//! let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
//!     .players(n)
//!     .tolerance(1, 0) // Theorem 4.1: n = 5 > 4k+4t = 4 ✓
//!     .inputs(vec![vec![Fp::ONE]; n])
//!     .build()
//!     .expect("threshold satisfied");
//! let set = plan
//!     .battery(SchedulerKind::battery(n))
//!     .seeds(0..4)
//!     .run_batch();
//! for dist in set.distributions() {
//!     assert!((dist.prob(&[1; 5]) - 1.0).abs() < 1e-12);
//! }
//! ```

use crate::cheap_talk::{CheapTalkPlayer, CheapTalkSpec, CtMsg, CtVariant};
use crate::deviations::Behavior;
use crate::mediator::{CircuitMediator, HonestMedPlayer, MedMsg, MediatorGameSpec};
use mediator_circuits::Circuit;
use mediator_field::Fp;
use mediator_games::dist::OutcomeDist;
use mediator_sim::{Action, Outcome, Process, RelaxedScheduler, SchedulerKind, Session, World};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn default_batch_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Tunes a world for deterministic replay when `kind` is
/// [`SchedulerKind::Replay`]: drops are allowed exactly when the recording
/// contains them (a relaxed recording replays its blackout; an ordinary
/// recording must not gain the ability to drop).
fn tune_world_for_replay<M>(world: &mut World<M>, kind: &SchedulerKind) {
    if let SchedulerKind::Replay(script) = kind {
        if script.has_drops() {
            world.allow_drops();
        }
    }
}

/// The four cheap-talk theorem regimes and their resilience thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Theorem {
    /// Theorem 4.1 — fully robust cheap talk: `n > 4k + 4t`.
    Robust41,
    /// Theorem 4.2 — ε cheap talk (detect-and-abort): `n > 3k + 3t`.
    Epsilon42,
    /// Theorem 4.4 — punishment wills + cotermination barrier:
    /// `n > 3k + 4t`.
    Punishment44,
    /// Theorem 4.5 — ε + punishment: `n > 2k + 3t`.
    EpsilonPunishment45,
}

impl Theorem {
    /// The strict lower bound `B(k, t)`: the regime requires `n > B`.
    pub fn lower_bound(self, k: usize, t: usize) -> usize {
        match self {
            Theorem::Robust41 => 4 * k + 4 * t,
            Theorem::Epsilon42 => 3 * k + 3 * t,
            Theorem::Punishment44 => 3 * k + 4 * t,
            Theorem::EpsilonPunishment45 => 2 * k + 3 * t,
        }
    }

    /// Whether `(n, k, t)` satisfies the theorem's threshold.
    pub fn admits(self, n: usize, k: usize, t: usize) -> bool {
        n > self.lower_bound(k, t)
    }

    /// The threshold inequality, as the paper writes it.
    pub fn bound(self) -> &'static str {
        match self {
            Theorem::Robust41 => "n > 4k + 4t",
            Theorem::Epsilon42 => "n > 3k + 3t",
            Theorem::Punishment44 => "n > 3k + 4t",
            Theorem::EpsilonPunishment45 => "n > 2k + 3t",
        }
    }

    /// The theorem's number in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Theorem::Robust41 => "4.1",
            Theorem::Epsilon42 => "4.2",
            Theorem::Punishment44 => "4.4",
            Theorem::EpsilonPunishment45 => "4.5",
        }
    }
}

impl fmt::Display for Theorem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Theorem {} ({})", self.name(), self.bound())
    }
}

/// A rejected scenario: a typed build-time diagnosis instead of a
/// downstream panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// `(n, k, t)` violates the selected theorem's resilience threshold.
    Threshold {
        /// The theorem regime the builder selected.
        theorem: Theorem,
        /// Configured player count.
        n: usize,
        /// Configured rational-coalition bound.
        k: usize,
        /// Configured malicious bound.
        t: usize,
    },
    /// `.players(…)` was never called (or was zero).
    NoPlayers,
    /// The mediator must be able to proceed from `n − k − t ≥ 1` inputs.
    ToleranceTooLarge {
        /// Configured player count.
        n: usize,
        /// Configured rational-coalition bound.
        k: usize,
        /// Configured malicious bound.
        t: usize,
    },
    /// A per-player argument referenced a player id `≥ n`.
    PlayerOutOfRange {
        /// Which builder step misfired.
        what: &'static str,
        /// The offending player id.
        player: usize,
        /// Configured player count.
        n: usize,
    },
    /// A vector argument had the wrong length.
    ArityMismatch {
        /// Which builder step misfired.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
}

impl ScenarioError {
    /// For [`ScenarioError::Threshold`]: the least `n` the regime admits.
    pub fn required_n(&self) -> Option<usize> {
        match self {
            ScenarioError::Threshold { theorem, k, t, .. } => Some(theorem.lower_bound(*k, *t) + 1),
            _ => None,
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Threshold { theorem, n, k, t } => write!(
                f,
                "{theorem} rejects n = {n} with k = {k}, t = {t}: need n ≥ {}",
                theorem.lower_bound(*k, *t) + 1
            ),
            ScenarioError::NoPlayers => write!(f, "scenario has no players: call .players(n)"),
            ScenarioError::ToleranceTooLarge { n, k, t } => write!(
                f,
                "mediator game needs n − k − t ≥ 1 inputs to proceed: n = {n}, k = {k}, t = {t}"
            ),
            ScenarioError::PlayerOutOfRange { what, player, n } => {
                write!(f, "{what}: player {player} out of range (n = {n})")
            }
            ScenarioError::ArityMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected length {expected}, got {got}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Entry point of the builder surface.
pub struct Scenario;

impl Scenario {
    /// Starts a cheap-talk scenario over `circuit` (the mediator being
    /// simulated). Configure with the fluent steps, then [`CheapTalk::build`].
    pub fn cheap_talk(circuit: Circuit) -> CheapTalk {
        CheapTalk {
            circuit,
            n: None,
            k: 0,
            t: 0,
            kappa: None,
            punishment: None,
            inputs_all: None,
            inputs_one: Vec::new(),
            behaviors: Vec::new(),
            defaults: None,
            default_actions: None,
            coin_seed: 0x5EED,
            scheduler: SchedulerKind::Random,
            seed: 0,
            max_steps: 8_000_000,
            allow_sub_threshold: false,
        }
    }

    /// Starts a mediator-game scenario over `circuit` (the trusted
    /// mediator's strategy). Configure, then [`MediatorGame::build`].
    pub fn mediator(circuit: Circuit) -> MediatorGame {
        MediatorGame {
            circuit,
            n: None,
            k: 0,
            t: 0,
            naive_split: false,
            extra_rounds: 0,
            wills: None,
            inputs_all: None,
            inputs_one: Vec::new(),
            deviants: Vec::new(),
            defaults: None,
            resolve_defaults: None,
            scheduler: SchedulerKind::Random,
            seed: 0,
            max_steps: 200_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Cheap talk
// ---------------------------------------------------------------------------

/// Builder for a cheap-talk scenario (Theorems 4.1/4.2/4.4/4.5).
///
/// The theorem regime is selected by the machinery you configure — the same
/// four combinations the paper proves:
///
/// | ε ([`CheapTalk::epsilon`]) | wills ([`CheapTalk::wills`]) | regime |
/// |---|---|---|
/// | no  | no  | [`Theorem::Robust41`] |
/// | yes | no  | [`Theorem::Epsilon42`] |
/// | no  | yes | [`Theorem::Punishment44`] (cotermination barrier on) |
/// | yes | yes | [`Theorem::EpsilonPunishment45`] |
#[derive(Clone)]
pub struct CheapTalk {
    circuit: Circuit,
    n: Option<usize>,
    k: usize,
    t: usize,
    kappa: Option<usize>,
    punishment: Option<Vec<Action>>,
    inputs_all: Option<Vec<Vec<Fp>>>,
    inputs_one: Vec<(usize, Vec<Fp>)>,
    behaviors: Vec<(usize, Behavior)>,
    defaults: Option<Vec<Vec<Fp>>>,
    default_actions: Option<Vec<Action>>,
    coin_seed: u64,
    scheduler: SchedulerKind,
    seed: u64,
    max_steps: u64,
    allow_sub_threshold: bool,
}

impl CheapTalk {
    /// Sets the number of players.
    pub fn players(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the tolerance pair: `k` rational deviators, `t` malicious
    /// players. The theorem threshold over `(n, k, t)` is validated by
    /// [`CheapTalk::build`].
    pub fn tolerance(mut self, k: usize, t: usize) -> Self {
        self.k = k;
        self.t = t;
        self
    }

    /// Selects the fully robust engine (the default): Theorem 4.1, or 4.4
    /// once wills are configured.
    pub fn robust(mut self) -> Self {
        self.kappa = None;
        self
    }

    /// Selects the ε engine with `kappa` cut-and-choose checks per dealer:
    /// Theorem 4.2, or 4.5 once wills are configured.
    pub fn epsilon(mut self, kappa: usize) -> Self {
        self.kappa = Some(kappa);
        self
    }

    /// Configures punishment wills (one action per player) and the
    /// cotermination barrier: Theorem 4.4, or 4.5 under the ε engine.
    pub fn wills(mut self, punishment: Vec<Action>) -> Self {
        self.punishment = Some(punishment);
        self
    }

    /// Sets player `i`'s private input (players not set fall back to the
    /// default inputs).
    pub fn input(mut self, i: usize, input: Vec<Fp>) -> Self {
        self.inputs_one.push((i, input));
        self
    }

    /// Sets every player's private input at once.
    pub fn inputs(mut self, inputs: Vec<Vec<Fp>>) -> Self {
        self.inputs_all = Some(inputs);
        self
    }

    /// Makes player `i` play the given parameterized deviation instead of
    /// the honest strategy.
    pub fn deviant(mut self, i: usize, behavior: Behavior) -> Self {
        self.behaviors.push((i, behavior));
        self
    }

    /// Overrides the default circuit inputs used for excluded players
    /// (zeroes of the circuit's per-player arity if not set).
    pub fn default_inputs(mut self, defaults: Vec<Vec<Fp>>) -> Self {
        self.defaults = Some(defaults);
        self
    }

    /// Overrides the default moves `M_i` played on abort without wills
    /// (all-zero if not set).
    pub fn default_actions(mut self, actions: Vec<Action>) -> Self {
        self.default_actions = Some(actions);
        self
    }

    /// Overrides the shared setup seed (ABA coins, detection challenges).
    pub fn coin_seed(mut self, seed: u64) -> Self {
        self.coin_seed = seed;
        self
    }

    /// Sets the scheduler used by single runs and sessions (batches carry
    /// their own battery). Defaults to [`SchedulerKind::Random`].
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Sets the seed used by single runs and sessions. Defaults to 0.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the step budget (livelock guard). Defaults to 8 000 000.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Disables the build-time theorem-threshold rejection, letting the
    /// plan be constructed at a sub-threshold `(n, k, t)` point — the
    /// typed escape hatch the frontier atlas
    /// ([`crate::frontier`]) uses to deliberately build cells *below*
    /// each theorem's boundary.
    ///
    /// The default stays strict: without this call, [`CheapTalk::build`]
    /// returns [`ScenarioError::Threshold`] for any `(n, k, t)` the
    /// selected theorem does not admit. With it, the threshold check is
    /// skipped — but the plan's guarantee is void below the boundary (the
    /// lower-bound papers prove *no* protocol can restore it), and the
    /// basic sanity check `k + t < n` is still enforced via
    /// [`ScenarioError::ToleranceTooLarge`]: below that, the machinery
    /// itself (sharing degree `k + t` among `n` points) is meaningless,
    /// not merely unprotected.
    ///
    /// The hatch waives this builder's check and nothing below it: the
    /// robust engine asserts its own `n > 4(k + t)` when a run starts, so
    /// a sub-threshold 4.1 / 4.4 plan can be built and inspected but
    /// panics if run; the ε engines' bound is weaker than 4.2's / 4.5's,
    /// so those plans mostly do run (`tests/scenario_thresholds.rs`).
    pub fn allow_sub_threshold(mut self) -> Self {
        self.allow_sub_threshold = true;
        self
    }

    /// The theorem regime the configured machinery selects.
    pub fn selected_theorem(&self) -> Theorem {
        match (self.kappa.is_some(), self.punishment.is_some()) {
            (false, false) => Theorem::Robust41,
            (true, false) => Theorem::Epsilon42,
            (false, true) => Theorem::Punishment44,
            (true, true) => Theorem::EpsilonPunishment45,
        }
    }

    /// Validates the scenario — the theorem threshold first — and produces
    /// the executable [`CheapTalkPlan`].
    pub fn build(self) -> Result<CheapTalkPlan, ScenarioError> {
        let n = self.n.filter(|&n| n > 0).ok_or(ScenarioError::NoPlayers)?;
        if self.circuit.num_players() != n {
            return Err(ScenarioError::ArityMismatch {
                what: "circuit players",
                expected: n,
                got: self.circuit.num_players(),
            });
        }
        let theorem = self.selected_theorem();
        if !theorem.admits(n, self.k, self.t) {
            if !self.allow_sub_threshold {
                return Err(ScenarioError::Threshold {
                    theorem,
                    n,
                    k: self.k,
                    t: self.t,
                });
            }
            // The hatch waives the theorem guarantee, not basic sense:
            // a sharing degree of k + t needs strictly more points.
            if self.k + self.t >= n {
                return Err(ScenarioError::ToleranceTooLarge {
                    n,
                    k: self.k,
                    t: self.t,
                });
            }
        }
        let arity = self.circuit.inputs_per_player().to_vec();
        let defaults = match self.defaults {
            Some(d) => {
                if d.len() != n {
                    return Err(ScenarioError::ArityMismatch {
                        what: "default inputs",
                        expected: n,
                        got: d.len(),
                    });
                }
                d
            }
            None => arity.iter().map(|&a| vec![Fp::ZERO; a]).collect(),
        };
        let default_actions = match self.default_actions {
            Some(a) if a.len() != n => {
                return Err(ScenarioError::ArityMismatch {
                    what: "default actions",
                    expected: n,
                    got: a.len(),
                });
            }
            Some(a) => a,
            None => vec![0; n],
        };
        if let Some(p) = &self.punishment {
            if p.len() != n {
                return Err(ScenarioError::ArityMismatch {
                    what: "wills",
                    expected: n,
                    got: p.len(),
                });
            }
        }
        let mut inputs = match self.inputs_all {
            Some(i) => {
                if i.len() != n {
                    return Err(ScenarioError::ArityMismatch {
                        what: "inputs",
                        expected: n,
                        got: i.len(),
                    });
                }
                i
            }
            None => defaults.clone(),
        };
        for (p, input) in self.inputs_one {
            if p >= n {
                return Err(ScenarioError::PlayerOutOfRange {
                    what: "input",
                    player: p,
                    n,
                });
            }
            inputs[p] = input;
        }
        for (p, input) in inputs.iter().enumerate() {
            if input.len() != arity[p] {
                return Err(ScenarioError::ArityMismatch {
                    what: "player input arity",
                    expected: arity[p],
                    got: input.len(),
                });
            }
        }
        let barrier = self.punishment.is_some();
        let spec = CheapTalkSpec {
            n,
            k: self.k,
            t: self.t,
            variant: match self.kappa {
                None => CtVariant::Robust,
                Some(kappa) => CtVariant::Epsilon { kappa },
            },
            circuit: Arc::new(self.circuit),
            coin_seed: self.coin_seed,
            defaults,
            punishment: self.punishment,
            default_actions,
            barrier,
        };
        let plan = CheapTalkPlan {
            spec,
            inputs,
            behaviors: BTreeMap::new(),
            scheduler: self.scheduler,
            seed: self.seed,
            max_steps: self.max_steps,
        };
        self.behaviors
            .into_iter()
            .try_fold(plan, |plan, (p, b)| plan.with_deviant(p, b))
    }
}

/// A validated, executable cheap-talk scenario.
///
/// Cloneable and `Sync`: one plan fans out across however many runs,
/// sessions, and worker threads the experiment needs.
#[derive(Debug, Clone)]
pub struct CheapTalkPlan {
    spec: CheapTalkSpec,
    inputs: Vec<Vec<Fp>>,
    behaviors: BTreeMap<usize, Behavior>,
    scheduler: SchedulerKind,
    seed: u64,
    max_steps: u64,
}

impl CheapTalkPlan {
    /// The validated spec.
    pub fn spec(&self) -> &CheapTalkSpec {
        &self.spec
    }

    /// The resolved per-player inputs.
    pub fn inputs(&self) -> &[Vec<Fp>] {
        &self.inputs
    }

    /// Adds (or replaces) one player's deviation. A player id `≥ n`, or an
    /// `input_override` whose length is not that player's input arity, is
    /// refused here, before any engine could start on it.
    pub fn with_deviant(mut self, p: usize, behavior: Behavior) -> Result<Self, ScenarioError> {
        let n = self.spec.n;
        let Some(&expected) = self.spec.circuit.inputs_per_player().get(p) else {
            return Err(ScenarioError::PlayerOutOfRange {
                what: "deviant",
                player: p,
                n,
            });
        };
        match &behavior.input_override {
            Some(lie) if lie.len() != expected => Err(ScenarioError::ArityMismatch {
                what: "deviant input",
                expected,
                got: lie.len(),
            }),
            _ => {
                self.behaviors.insert(p, behavior);
                Ok(self)
            }
        }
    }

    fn build_world(&self, seed: u64) -> World<CtMsg> {
        let n = self.spec.n;
        let procs: Vec<Box<dyn Process<CtMsg>>> = (0..n)
            .map(|p| {
                let b = self.behaviors.get(&p).cloned().unwrap_or_default();
                Box::new(CheapTalkPlayer::with_behavior(
                    self.spec.clone(),
                    p,
                    self.inputs[p].clone(),
                    b,
                )) as Box<dyn Process<CtMsg>>
            })
            .collect();
        World::new(procs, seed)
    }

    /// Runs once with the configured scheduler and seed.
    pub fn run(&self) -> Outcome {
        self.run_with(&self.scheduler, self.seed)
    }

    /// Runs once with an explicit scheduler kind and seed. A
    /// [`SchedulerKind::Replay`] kind re-enacts a recorded run: drops are
    /// enabled iff the script has them.
    pub fn run_with(&self, kind: &SchedulerKind, seed: u64) -> Outcome {
        let mut world = self.build_world(seed);
        tune_world_for_replay(&mut world, kind);
        let mut sched = kind.build();
        world.run(sched.as_mut(), self.max_steps)
    }

    /// Opens the configured run as a steppable [`Session`].
    pub fn session(&self) -> Session<CtMsg> {
        self.session_with(&self.scheduler, self.seed)
    }

    /// Opens a steppable [`Session`] with an explicit scheduler and seed.
    pub fn session_with(&self, kind: &SchedulerKind, seed: u64) -> Session<CtMsg> {
        let mut world = self.build_world(seed);
        tune_world_for_replay(&mut world, kind);
        Session::new(world, kind.build(), self.max_steps)
    }

    /// Starts a batch over the given scheduler battery (seeds default to
    /// the plan's single seed until [`Batch::seeds`] widens them).
    pub fn battery(&self, kinds: Vec<SchedulerKind>) -> Batch<CheapTalkPlan> {
        Batch::new(self.clone()).battery(kinds)
    }

    /// Starts a batch over the given seeds (scheduler battery defaults to
    /// the plan's single scheduler until [`Batch::battery`] widens it).
    pub fn seeds(&self, seeds: impl IntoIterator<Item = u64>) -> Batch<CheapTalkPlan> {
        Batch::new(self.clone()).seeds(seeds)
    }

    /// Runs the equilibrium conformance harness over this plan: every
    /// coalition of size ≤ `cfg.k` plays every generated adversary-plane
    /// strategy across the scheduler battery × seed grid, utilities are
    /// accounted with confidence intervals against the honest baseline
    /// under `game`/`types`, and the report's verdict states whether the
    /// plan is ε-k-resilient within the statistical bound — or exhibits a
    /// concrete witnessing deviation. See
    /// [`adversary`](crate::adversary) for the strategy grammar.
    pub fn conformance(
        &self,
        game: &mediator_games::BayesianGame,
        types: &[usize],
        cfg: &crate::adversary::Conformance,
    ) -> crate::adversary::ConformanceReport {
        crate::adversary::cheap_talk_conformance(self, game, types, cfg)
    }
}

impl BatchRun for CheapTalkPlan {
    fn run_one(&self, kind: &SchedulerKind, seed: u64) -> Outcome {
        self.run_with(kind, seed)
    }

    fn players(&self) -> usize {
        self.spec.n
    }

    fn default_scheduler(&self) -> SchedulerKind {
        self.scheduler.clone()
    }

    fn default_seed(&self) -> u64 {
        self.seed
    }

    fn resolve_mode(&self) -> Resolve {
        // The paper's two infinite-play semantics: wills (Aumann–Hart)
        // when the spec carries a punishment, default moves otherwise.
        if self.spec.punishment.is_some() {
            Resolve::Ah(self.spec.default_actions.clone())
        } else {
            Resolve::Default(self.spec.default_actions.clone())
        }
    }
}

// ---------------------------------------------------------------------------
// Mediator games
// ---------------------------------------------------------------------------

/// A deviant-process factory: batches need a fresh process per run, so
/// deviants are registered as closures rather than boxed instances.
pub type DeviantFactory = Arc<dyn Fn() -> Box<dyn Process<MedMsg>> + Send + Sync>;

/// Builder for a mediator-game scenario (the canonical form of §2,
/// including the §6.4 naive two-round shape).
#[derive(Clone)]
pub struct MediatorGame {
    circuit: Circuit,
    n: Option<usize>,
    k: usize,
    t: usize,
    naive_split: bool,
    extra_rounds: u64,
    wills: Option<Vec<Action>>,
    inputs_all: Option<Vec<Vec<Fp>>>,
    inputs_one: Vec<(usize, Vec<Fp>)>,
    deviants: Vec<(usize, DeviantFactory)>,
    defaults: Option<Vec<Vec<Fp>>>,
    resolve_defaults: Option<Vec<Action>>,
    scheduler: SchedulerKind,
    seed: u64,
    max_steps: u64,
}

impl MediatorGame {
    /// Sets the number of players (the mediator is process `n` on top).
    pub fn players(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the tolerance pair `(k, t)`; the mediator waits for
    /// `n − k − t` complete inputs before computing.
    pub fn tolerance(mut self, k: usize, t: usize) -> Self {
        self.k = k;
        self.t = t;
        self
    }

    /// Selects the §6.4 naive two-round shape: a private leak round that
    /// waits for *all* `n` acks before the STOP.
    pub fn naive_split(mut self) -> Self {
        self.naive_split = true;
        self
    }

    /// Inserts content-free rounds before STOP (Lemma 6.8 experiments).
    pub fn extra_rounds(mut self, rounds: u64) -> Self {
        self.extra_rounds = rounds;
        self
    }

    /// Configures the Aumann–Hart wills each honest player leaves at start.
    pub fn wills(mut self, wills: Vec<Action>) -> Self {
        self.wills = Some(wills);
        self
    }

    /// Sets player `i`'s private input.
    pub fn input(mut self, i: usize, input: Vec<Fp>) -> Self {
        self.inputs_one.push((i, input));
        self
    }

    /// Sets every player's private input at once.
    pub fn inputs(mut self, inputs: Vec<Vec<Fp>>) -> Self {
        self.inputs_all = Some(inputs);
        self
    }

    /// Replaces player `i` with a deviant process. The factory is invoked
    /// once per run, so batches get a fresh process each time.
    pub fn deviant(
        mut self,
        i: usize,
        factory: impl Fn() -> Box<dyn Process<MedMsg>> + Send + Sync + 'static,
    ) -> Self {
        self.deviants.push((i, Arc::new(factory)));
        self
    }

    /// Overrides the default inputs for players whose input never arrives
    /// (zeroes of the circuit's per-player arity if not set).
    pub fn default_inputs(mut self, defaults: Vec<Vec<Fp>>) -> Self {
        self.defaults = Some(defaults);
        self
    }

    /// Sets the fallback actions (one per player) used when a [`RunSet`]
    /// resolves outcomes of players that never moved and left no will.
    /// Defaults to all-zero.
    pub fn resolve_defaults(mut self, actions: Vec<Action>) -> Self {
        self.resolve_defaults = Some(actions);
        self
    }

    /// Sets the scheduler used by single runs and sessions.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Sets the seed used by single runs and sessions.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the step budget. Defaults to 200 000 (mediator games are
    /// O(n)-message affairs).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Validates the scenario and produces the executable [`MediatorPlan`].
    pub fn build(self) -> Result<MediatorPlan, ScenarioError> {
        let n = self.n.filter(|&n| n > 0).ok_or(ScenarioError::NoPlayers)?;
        if self.circuit.num_players() != n {
            return Err(ScenarioError::ArityMismatch {
                what: "circuit players",
                expected: n,
                got: self.circuit.num_players(),
            });
        }
        if self.k + self.t >= n {
            return Err(ScenarioError::ToleranceTooLarge {
                n,
                k: self.k,
                t: self.t,
            });
        }
        let arity = self.circuit.inputs_per_player().to_vec();
        let defaults = match self.defaults {
            Some(d) => {
                if d.len() != n {
                    return Err(ScenarioError::ArityMismatch {
                        what: "default inputs",
                        expected: n,
                        got: d.len(),
                    });
                }
                d
            }
            None => arity.iter().map(|&a| vec![Fp::ZERO; a]).collect(),
        };
        if let Some(w) = &self.wills {
            if w.len() != n {
                return Err(ScenarioError::ArityMismatch {
                    what: "wills",
                    expected: n,
                    got: w.len(),
                });
            }
        }
        let resolve_defaults = match self.resolve_defaults {
            Some(a) if a.len() != n => {
                return Err(ScenarioError::ArityMismatch {
                    what: "resolve defaults",
                    expected: n,
                    got: a.len(),
                });
            }
            Some(a) => a,
            None => vec![0; n],
        };
        let mut inputs = match self.inputs_all {
            Some(i) => {
                if i.len() != n {
                    return Err(ScenarioError::ArityMismatch {
                        what: "inputs",
                        expected: n,
                        got: i.len(),
                    });
                }
                i
            }
            None => defaults.clone(),
        };
        for (p, input) in self.inputs_one {
            if p >= n {
                return Err(ScenarioError::PlayerOutOfRange {
                    what: "input",
                    player: p,
                    n,
                });
            }
            inputs[p] = input;
        }
        // The mediator accepts an input iff its arity matches the player's
        // default (mediator.rs `on_message`): reject the mismatch here
        // instead of letting the input be silently ignored downstream.
        for (p, input) in inputs.iter().enumerate() {
            if input.len() != defaults[p].len() {
                return Err(ScenarioError::ArityMismatch {
                    what: "player input arity",
                    expected: defaults[p].len(),
                    got: input.len(),
                });
            }
        }
        if let Some(&(player, _)) = self.deviants.iter().find(|(p, _)| *p >= n) {
            return Err(ScenarioError::PlayerOutOfRange {
                what: "deviant",
                player,
                n,
            });
        }
        let spec = MediatorGameSpec {
            n,
            k: self.k,
            t: self.t,
            circuit: Arc::new(self.circuit),
            defaults,
            naive_split: self.naive_split,
            extra_rounds: self.extra_rounds,
            wills: self.wills,
        };
        Ok(MediatorPlan {
            spec,
            inputs,
            deviants: self.deviants.into_iter().collect(),
            resolve_defaults,
            scheduler: self.scheduler,
            seed: self.seed,
            max_steps: self.max_steps,
        })
    }
}

/// A validated, executable mediator-game scenario.
#[derive(Clone)]
pub struct MediatorPlan {
    spec: MediatorGameSpec,
    inputs: Vec<Vec<Fp>>,
    deviants: BTreeMap<usize, DeviantFactory>,
    resolve_defaults: Vec<Action>,
    scheduler: SchedulerKind,
    seed: u64,
    max_steps: u64,
}

impl fmt::Debug for MediatorPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MediatorPlan")
            .field("spec", &self.spec)
            .field("inputs", &self.inputs)
            .field("deviants", &self.deviants.keys().collect::<Vec<_>>())
            .field("resolve_defaults", &self.resolve_defaults)
            .field("scheduler", &self.scheduler)
            .field("seed", &self.seed)
            .field("max_steps", &self.max_steps)
            .finish()
    }
}

impl MediatorPlan {
    /// The validated spec.
    pub fn spec(&self) -> &MediatorGameSpec {
        &self.spec
    }

    /// The resolved per-player inputs.
    pub fn inputs(&self) -> &[Vec<Fp>] {
        &self.inputs
    }

    /// Adds (or replaces) player `i`'s deviant factory (see
    /// [`MediatorGame::deviant`]).
    pub fn with_deviant(
        mut self,
        i: usize,
        factory: impl Fn() -> Box<dyn Process<MedMsg>> + Send + Sync + 'static,
    ) -> Self {
        assert!(i < self.spec.n, "deviant {i} out of range");
        self.deviants.insert(i, Arc::new(factory));
        self
    }

    /// Assembles the `n + 1`-process world: each registered deviant's
    /// factory is invoked once, everyone else plays the honest canonical
    /// strategy with `inputs[p]`, and the mediator is process `n`.
    fn build_world(&self, seed: u64) -> World<MedMsg> {
        let n = self.spec.n;
        let mut procs: Vec<Box<dyn Process<MedMsg>>> = (0..n)
            .map(|p| match self.deviants.get(&p) {
                Some(factory) => factory(),
                None => {
                    let will = self.spec.wills.as_ref().map(|w| w[p]);
                    Box::new(HonestMedPlayer::new(n, self.inputs[p].clone(), will))
                }
            })
            .collect();
        procs.push(Box::new(CircuitMediator::new(self.spec.clone())));
        World::new(procs, seed)
    }

    /// Runs once with the configured scheduler and seed.
    pub fn run(&self) -> Outcome {
        self.run_with(&self.scheduler, self.seed)
    }

    /// Runs once with an explicit scheduler kind and seed.
    pub fn run_with(&self, kind: &SchedulerKind, seed: u64) -> Outcome {
        let mut world = self.build_world(seed);
        tune_world_for_replay(&mut world, kind);
        let mut sched = kind.build();
        world.run(sched.as_mut(), self.max_steps)
    }

    /// Runs once under a **relaxed scheduler** (§5): the mediator's
    /// messages are dropped — whole batches at a time, the all-or-none rule
    /// of Lemma 6.10 — after `drop_after` deliveries. This is the deadlock
    /// machinery of Propositions 6.9/6.11: with the mediator's STOP batch
    /// withheld, no honest player can move, and the wills (punishments)
    /// fire.
    pub fn run_relaxed(&self, drop_after: u64, seed: u64) -> Outcome {
        let mediator = self.spec.n;
        let mut world = self.build_world(seed);
        world.allow_drops();
        let mut sched = RelaxedScheduler::new(vec![mediator], drop_after);
        world.run(&mut sched, self.max_steps)
    }

    /// Opens the configured run as a steppable [`Session`].
    pub fn session(&self) -> Session<MedMsg> {
        self.session_with(&self.scheduler, self.seed)
    }

    /// Opens a steppable [`Session`] with an explicit scheduler and seed.
    pub fn session_with(&self, kind: &SchedulerKind, seed: u64) -> Session<MedMsg> {
        let mut world = self.build_world(seed);
        tune_world_for_replay(&mut world, kind);
        Session::new(world, kind.build(), self.max_steps)
    }

    /// Starts a batch over the given scheduler battery.
    pub fn battery(&self, kinds: Vec<SchedulerKind>) -> Batch<MediatorPlan> {
        Batch::new(self.clone()).battery(kinds)
    }

    /// Starts a batch over the given seeds.
    pub fn seeds(&self, seeds: impl IntoIterator<Item = u64>) -> Batch<MediatorPlan> {
        Batch::new(self.clone()).seeds(seeds)
    }

    /// Runs the equilibrium conformance harness over this mediator game:
    /// every coalition of size ≤ `cfg.k` is wired as a gossip clique under
    /// every generated collusion rule (plus message-level tamper
    /// strategies), and the report's verdict states ε-k-resilience within
    /// the statistical bound or a concrete witnessing deviation — the
    /// generated form of the §6.4 counterexample. See
    /// [`adversary`](crate::adversary).
    pub fn conformance(
        &self,
        game: &mediator_games::BayesianGame,
        types: &[usize],
        cfg: &crate::adversary::Conformance,
    ) -> crate::adversary::ConformanceReport {
        crate::adversary::mediator_conformance(self, game, types, cfg)
    }
}

impl BatchRun for MediatorPlan {
    fn run_one(&self, kind: &SchedulerKind, seed: u64) -> Outcome {
        self.run_with(kind, seed)
    }

    fn players(&self) -> usize {
        self.spec.n
    }

    fn default_scheduler(&self) -> SchedulerKind {
        self.scheduler.clone()
    }

    fn default_seed(&self) -> u64 {
        self.seed
    }

    fn resolve_mode(&self) -> Resolve {
        // The world has n+1 processes (the mediator never moves): pad the
        // per-player fallbacks with a zero for it.
        let mut fallback = self.resolve_defaults.clone();
        fallback.push(0);
        if self.spec.wills.is_some() {
            Resolve::Ah(fallback)
        } else {
            Resolve::Default(fallback)
        }
    }
}

// ---------------------------------------------------------------------------
// Batches and run sets
// ---------------------------------------------------------------------------

/// A plan that can open any `(scheduler, seed)` cell as a steppable
/// [`Session`] — the seam the transport plane attaches to. Implemented by
/// [`CheapTalkPlan`] and [`MediatorPlan`].
///
/// The `mediator-net` service runtime is generic over this trait: it calls
/// [`SessionPlan::open_session`] once per hosted game (inside the pump's
/// worker thread, because [`Process`]es need not be `Send` — the same rule
/// the batch runner follows) and uses [`SessionPlan::processes`] as the
/// number of `(session-id, player-id)` routes a networked run must attach
/// before pumping begins.
pub trait SessionPlan: Clone + Send + Sync + 'static {
    /// The message type the plan's processes exchange.
    type Msg: Send + 'static;

    /// Opens the `(kind, seed)` cell as a steppable [`Session`].
    fn open_session(&self, kind: &SchedulerKind, seed: u64) -> Session<Self::Msg>;

    /// Number of processes in the opened world — the game players plus,
    /// for mediator games, the mediator itself.
    fn processes(&self) -> usize;
}

impl SessionPlan for CheapTalkPlan {
    type Msg = CtMsg;

    fn open_session(&self, kind: &SchedulerKind, seed: u64) -> Session<CtMsg> {
        self.session_with(kind, seed)
    }

    fn processes(&self) -> usize {
        self.spec.n
    }
}

impl SessionPlan for MediatorPlan {
    type Msg = MedMsg;

    fn open_session(&self, kind: &SchedulerKind, seed: u64) -> Session<MedMsg> {
        self.session_with(kind, seed)
    }

    fn processes(&self) -> usize {
        // The mediator is process `n` on top of the n players.
        self.spec.n + 1
    }
}

/// A plan that can execute one `(scheduler, seed)` cell of a batch grid.
/// Implemented by [`CheapTalkPlan`] and [`MediatorPlan`].
pub trait BatchRun: Clone + Sync {
    /// Runs one cell.
    fn run_one(&self, kind: &SchedulerKind, seed: u64) -> Outcome;
    /// Number of game players (mediator excluded).
    fn players(&self) -> usize;
    /// The plan's configured single-run scheduler.
    fn default_scheduler(&self) -> SchedulerKind;
    /// The plan's configured single-run seed.
    fn default_seed(&self) -> u64;
    /// How the resulting [`RunSet`] resolves infinite play.
    fn resolve_mode(&self) -> Resolve;

    /// Starts a batch over this plan (the generic entry the conformance
    /// harness uses; the concrete plans also expose `.battery(…)` /
    /// `.seeds(…)` shortcuts).
    fn batch(&self) -> Batch<Self>
    where
        Self: Sized,
    {
        Batch::new(self.clone())
    }
}

/// A batch execution plan: a scheduler battery × a seed range, fanned
/// across worker threads by [`Batch::run_batch`].
pub struct Batch<P> {
    plan: P,
    kinds: Option<Vec<SchedulerKind>>,
    seeds: Option<Vec<u64>>,
    threads: Option<usize>,
}

impl<P: BatchRun> Batch<P> {
    fn new(plan: P) -> Self {
        Batch {
            plan,
            kinds: None,
            seeds: None,
            threads: None,
        }
    }

    /// Sets the scheduler battery (defaults to the plan's single
    /// scheduler).
    pub fn battery(mut self, kinds: Vec<SchedulerKind>) -> Self {
        self.kinds = Some(kinds);
        self
    }

    /// Sets the seeds (defaults to the plan's single seed).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = Some(seeds.into_iter().collect());
        self
    }

    /// Caps the worker threads (defaults to the machine's available
    /// parallelism; `1` forces a fully sequential batch).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Runs the whole grid and aggregates into a [`RunSet`].
    ///
    /// Each cell is an independent deterministic world, so the set is
    /// byte-identical whatever the thread count — the parity suite pins
    /// `threads(1)` against the default.
    ///
    /// # Panics
    ///
    /// Panics on an explicitly empty battery or seed list: a zero-cell
    /// grid would silently aggregate nothing (every distribution missing),
    /// which always indicates a mis-computed experiment range.
    pub fn run_batch(self) -> RunSet {
        let kinds = self
            .kinds
            .unwrap_or_else(|| vec![self.plan.default_scheduler()]);
        let seeds = self.seeds.unwrap_or_else(|| vec![self.plan.default_seed()]);
        assert!(!kinds.is_empty(), "run_batch: empty scheduler battery");
        assert!(!seeds.is_empty(), "run_batch: empty seed list");
        let threads = self.threads.unwrap_or_else(default_batch_threads);
        let jobs: Vec<(SchedulerKind, u64)> = kinds
            .iter()
            .flat_map(|k| seeds.iter().map(move |&s| (k.clone(), s)))
            .collect();
        let outcomes = run_grid(&jobs, threads, |kind, seed| self.plan.run_one(kind, seed));
        let runs = jobs
            .into_iter()
            .zip(outcomes)
            .map(|((kind, seed), outcome)| RunRecord {
                kind,
                seed,
                outcome,
            })
            .collect();
        RunSet {
            runs,
            kinds,
            seeds_per_kind: seeds.len(),
            players: self.plan.players(),
            resolve: self.plan.resolve_mode(),
        }
    }
}

/// Executes every job, in job order, across `threads` workers.
fn run_grid<F>(jobs: &[(SchedulerKind, u64)], threads: usize, run: F) -> Vec<Outcome>
where
    F: Fn(&SchedulerKind, u64) -> Outcome + Sync,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    if threads == 1 {
        return jobs.iter().map(|(k, s)| run(k, *s)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Outcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let (kind, seed) = &jobs[i];
                let outcome = run(kind, *seed);
                *slots[i].lock().expect("batch slot poisoned") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("batch slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// How a [`RunSet`] resolves players that never moved (the paper's two
/// infinite-play semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolve {
    /// Default-move approach: `M_i` fires.
    Default(Vec<Action>),
    /// Aumann–Hart approach: the will fires, then the fallback.
    Ah(Vec<Action>),
}

impl Resolve {
    /// Resolves one outcome into the first `players` action indices.
    pub fn profile(&self, outcome: &Outcome, players: usize) -> Vec<usize> {
        let resolved = match self {
            Resolve::Default(d) => outcome.resolve_default(d),
            Resolve::Ah(f) => outcome.resolve_ah(f),
        };
        resolved[..players].iter().map(|&a| a as usize).collect()
    }
}

/// One cell of a batch grid: which scheduler, which seed, what happened.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Scheduler family of this run.
    pub kind: SchedulerKind,
    /// Master seed of this run.
    pub seed: u64,
    /// The run's outcome.
    pub outcome: Outcome,
}

/// The aggregated result of [`Batch::run_batch`]: every outcome of the
/// `(scheduler, seed)` grid, in kind-major, seed-minor order, with
/// built-in [`OutcomeDist`] estimation per scheduler kind.
#[derive(Debug, Clone)]
pub struct RunSet {
    runs: Vec<RunRecord>,
    kinds: Vec<SchedulerKind>,
    seeds_per_kind: usize,
    players: usize,
    resolve: Resolve,
}

impl RunSet {
    /// All runs, kind-major then seed order.
    pub fn runs(&self) -> &[RunRecord] {
        &self.runs
    }

    /// Total number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` when no runs were executed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The scheduler battery, in distribution order.
    pub fn kinds(&self) -> &[SchedulerKind] {
        &self.kinds
    }

    /// Seeds sampled per scheduler kind.
    pub fn seeds_per_kind(&self) -> usize {
        self.seeds_per_kind
    }

    /// Number of game players in each resolved profile.
    pub fn players(&self) -> usize {
        self.players
    }

    /// Resolves one outcome with the set's infinite-play semantics.
    pub fn profile(&self, outcome: &Outcome) -> Vec<usize> {
        self.resolve.profile(outcome, self.players)
    }

    /// Iterates `(kind, runs-of-that-kind)` groups.
    pub fn by_kind(&self) -> impl Iterator<Item = (&SchedulerKind, &[RunRecord])> {
        self.kinds
            .iter()
            .zip(self.runs.chunks(self.seeds_per_kind.max(1)))
    }

    /// The estimated outcome distribution of each scheduler kind, in
    /// [`RunSet::kinds`] order — the objects §2's implementation
    /// definitions quantify over.
    pub fn distributions(&self) -> Vec<OutcomeDist> {
        self.by_kind()
            .map(|(_, chunk)| {
                OutcomeDist::from_samples(chunk.iter().map(|r| self.profile(&r.outcome)))
            })
            .collect()
    }

    /// The pooled distribution over every run of the set.
    pub fn pooled(&self) -> OutcomeDist {
        OutcomeDist::from_samples(self.runs.iter().map(|r| self.profile(&r.outcome)))
    }

    /// Iterates every outcome.
    pub fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.runs.iter().map(|r| &r.outcome)
    }

    /// Mean messages sent per run.
    pub fn mean_messages(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .map(|r| r.outcome.messages_sent as f64)
            .sum::<f64>()
            / self.runs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_circuits::catalog;
    use mediator_sim::TerminationKind;

    fn majority_plan(n: usize) -> CheapTalkPlan {
        Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("n = 5 > 4")
    }

    #[test]
    fn threshold_validation_is_typed() {
        let err = Scenario::cheap_talk(catalog::majority_circuit(4))
            .players(4)
            .tolerance(1, 0)
            .build()
            .expect_err("n = 4 = 4k+4t violates Theorem 4.1");
        assert_eq!(
            err,
            ScenarioError::Threshold {
                theorem: Theorem::Robust41,
                n: 4,
                k: 1,
                t: 0
            }
        );
        assert_eq!(err.required_n(), Some(5));
        // The same (n, k, t) is fine under the ε regime (n > 3).
        assert!(Scenario::cheap_talk(catalog::majority_circuit(4))
            .players(4)
            .tolerance(1, 0)
            .epsilon(2)
            .build()
            .is_ok());
    }

    #[test]
    fn theorem_selection_follows_machinery() {
        let b = Scenario::cheap_talk(catalog::majority_circuit(6)).players(6);
        assert_eq!(b.clone().selected_theorem(), Theorem::Robust41);
        assert_eq!(b.clone().epsilon(2).selected_theorem(), Theorem::Epsilon42);
        assert_eq!(
            b.clone().wills(vec![5; 6]).selected_theorem(),
            Theorem::Punishment44
        );
        assert_eq!(
            b.epsilon(2).wills(vec![5; 6]).selected_theorem(),
            Theorem::EpsilonPunishment45
        );
    }

    #[test]
    fn default_inputs_derive_from_circuit_arity() {
        let plan = majority_plan(5);
        assert_eq!(plan.inputs().len(), 5);
        let no_input = Scenario::cheap_talk(catalog::counterexample_minfo(5))
            .players(5)
            .tolerance(1, 0)
            .build()
            .expect("threshold fine");
        assert!(no_input.inputs().iter().all(Vec::is_empty));
    }

    #[test]
    fn arity_errors_are_reported() {
        let err = Scenario::cheap_talk(catalog::majority_circuit(5))
            .players(5)
            .tolerance(1, 0)
            .input(0, vec![Fp::ONE, Fp::ONE])
            .build()
            .expect_err("two inputs for a one-input player");
        assert!(matches!(
            err,
            ScenarioError::ArityMismatch {
                what: "player input arity",
                expected: 1,
                got: 2
            }
        ));
        let err = Scenario::cheap_talk(catalog::majority_circuit(5))
            .players(5)
            .tolerance(1, 0)
            .deviant(7, Behavior::default())
            .build()
            .expect_err("deviant out of range");
        assert!(matches!(
            err,
            ScenarioError::PlayerOutOfRange {
                what: "deviant",
                player: 7,
                n: 5
            }
        ));
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let plan = majority_plan(5);
        let sequential = plan.seeds(0..4).threads(1).run_batch();
        let parallel = plan.seeds(0..4).threads(4).run_batch();
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.runs().iter().zip(parallel.runs()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.outcome.fingerprint(), b.outcome.fingerprint());
        }
    }

    #[test]
    fn run_set_aggregates_distributions() {
        let plan = majority_plan(5);
        let set = plan
            .battery(vec![SchedulerKind::Random, SchedulerKind::Fifo])
            .seeds(0..3)
            .run_batch();
        assert_eq!(set.len(), 6);
        assert_eq!(set.seeds_per_kind(), 3);
        let dists = set.distributions();
        assert_eq!(dists.len(), 2);
        for d in &dists {
            assert!((d.prob(&[1; 5]) - 1.0).abs() < 1e-12, "unanimous majority");
        }
        assert!((set.pooled().prob(&[1; 5]) - 1.0).abs() < 1e-12);
        assert!(set.mean_messages() > 0.0);
    }

    #[test]
    fn session_is_steppable_and_matches_run() {
        let plan = majority_plan(5);
        let closed = plan.run_with(&SchedulerKind::Fifo, 3);
        let mut session = plan.session_with(&SchedulerKind::Fifo, 3);
        assert_eq!(session.pending().len(), 5, "five start signals");
        let mut stepped = 0u64;
        while !session.step().is_done() {
            stepped += 1;
        }
        assert_eq!(stepped, closed.steps);
        let open = session.finish();
        assert_eq!(open.fingerprint(), closed.fingerprint());
    }

    #[test]
    fn mediator_plan_runs_and_resolves() {
        let n = 5;
        let plan = Scenario::mediator(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("tolerance fine");
        let out = plan.run_with(&SchedulerKind::Random, 7);
        assert_eq!(out.termination, TerminationKind::Quiescent);
        let set = plan.seeds(0..3).threads(2).run_batch();
        assert!((set.pooled().prob(&[1; 5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn re_registering_a_mediator_deviant_replaces_the_first() {
        use crate::deviations::SilentProcess;
        let n = 4;
        let built = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let (first, second) = (built.clone(), built.clone());
        let plan = Scenario::mediator(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .deviant(2, move || {
                first[0].fetch_add(1, Ordering::Relaxed);
                Box::new(SilentProcess)
            })
            .build()
            .expect("tolerance fine")
            .with_deviant(2, move || {
                second[1].fetch_add(1, Ordering::Relaxed);
                Box::new(HonestMedPlayer::new(n, vec![Fp::ONE], None))
            });
        for seed in 0..2 {
            let out = plan.run_with(&SchedulerKind::Fifo, seed);
            assert_eq!(out.moves[2], Some(1), "the later (honest) one plays");
        }
        // The replaced factory never runs; the other once per run.
        let calls = [&built[0], &built[1]].map(|c| c.load(Ordering::Relaxed));
        assert_eq!(calls, [0, 2]);
    }

    #[test]
    fn mediator_input_arity_is_validated() {
        let err = Scenario::mediator(catalog::majority_circuit(5))
            .players(5)
            .tolerance(1, 0)
            .input(0, vec![Fp::ONE, Fp::ONE])
            .build()
            .expect_err("two inputs for a one-input player");
        assert!(matches!(
            err,
            ScenarioError::ArityMismatch {
                what: "player input arity",
                expected: 1,
                got: 2
            }
        ));
    }

    #[test]
    fn mediator_tolerance_is_validated() {
        let err = Scenario::mediator(catalog::majority_circuit(4))
            .players(4)
            .tolerance(2, 2)
            .build()
            .expect_err("k + t = n leaves no quorum");
        assert_eq!(err, ScenarioError::ToleranceTooLarge { n: 4, k: 2, t: 2 });
    }
}
