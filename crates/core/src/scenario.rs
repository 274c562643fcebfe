//! The Scenario API: the builder-first experiment surface of the crate.
//!
//! The paper's claims are statements about *distributions of outcomes over
//! scheduler batteries and seeds*, so the entry surface is batch-native:
//! this module is the one way a cheap-talk or mediator game is configured,
//! validated and run.
//!
//! * **One [`Builder`]** — `Scenario::cheap_talk(circuit)` /
//!   `Scenario::mediator(circuit)` start it; `.players(n)`,
//!   `.tolerance(k, t)`, `.input(i, …)`, `.wills(…)`, `.scheduler(…)` and
//!   the other shared steps are written once, beside each family's own
//!   (`.epsilon(κ)` / `.naive_split()`, `.deviant(i, …)`, `build()`).
//!   `build()` runs the family's tolerance check (the theorem
//!   **threshold**, or `k + t < n`), then one shared validation, returning
//!   a typed [`ScenarioError`] instead of a downstream panic.
//! * **One plan type** — both families build a [`Plan`]:
//!   [`CheapTalkPlan`] and [`MediatorPlan`] are its two instances, and
//!   [`GameFamily`] holds the little that differs (message and deviant
//!   types, world assembly, process count, infinite-play resolution,
//!   generated deviant cells). Runs, sessions, batches and conformance
//!   sweeps are written once.
//! * **Batch execution plans** — `.battery(SchedulerKind::battery(n))
//!   .seeds(0..4000).run_batch()` fans the `(scheduler, seed)` grid across
//!   `std::thread` workers and returns a [`RunSet`] with built-in
//!   [`OutcomeDist`] aggregation per scheduler kind.
//! * **Steppable sessions** — `.session()` opens the identical run as a
//!   [`Session`]: `step()` one event at a time, inspect `pending()`,
//!   `inject(…)` external messages, `finish()` into the ordinary
//!   [`Outcome`]. This is the seam the `mediator-net` service hosts and
//!   the trace store replays.
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

use crate::adversary::Conformance;
use crate::cheap_talk::{CheapTalkPlayer, CheapTalkSpec, CtMsg};
use crate::deviations::Behavior;
use crate::mediator::{CircuitMediator, HonestMedPlayer, MedMsg, MediatorGameSpec};
use mediator_circuits::Circuit;
use mediator_field::Fp;
use mediator_games::dist::OutcomeDist;
use mediator_mpc::MpcConfig;
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
    /// `.epsilon(0)`: the ε engine needs at least one cut-and-choose check
    /// per dealer.
    NoCutAndChooseCheck,
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
            ScenarioError::NoCutAndChooseCheck => write!(f, "epsilon(0): the ε engine needs κ ≥ 1"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Entry point of the builder surface.
pub struct Scenario;

impl Scenario {
    /// Starts a cheap-talk scenario over `circuit` (the mediator being
    /// simulated). Configure with the fluent steps, then [`Builder::build`].
    pub fn cheap_talk(circuit: Circuit) -> CheapTalk {
        Builder::new(
            circuit,
            8_000_000,
            CheapTalkKnobs {
                kappa: None,
                coin_seed: 0x5EED,
                allow_sub_threshold: false,
            },
        )
    }

    /// Starts a mediator-game scenario over `circuit` (the trusted
    /// mediator's strategy). Configure, then [`Builder::build`].
    pub fn mediator(circuit: Circuit) -> MediatorGame {
        Builder::new(
            circuit,
            200_000,
            MediatorKnobs {
                naive_split: false,
                extra_rounds: 0,
            },
        )
    }
}

// ---------------------------------------------------------------------------
// The builder: shared steps and validation
// ---------------------------------------------------------------------------

/// The one scenario builder: the game description both families share,
/// with its steps and validation written once, plus the family's own
/// [`GameFamily::Knobs`], steps and `build()`.
#[derive(Clone)]
pub struct Builder<F: GameFamily> {
    circuit: Circuit,
    n: Option<usize>,
    k: usize,
    t: usize,
    wills: Option<Vec<Action>>,
    inputs_all: Option<Vec<Vec<Fp>>>,
    inputs_one: Vec<(usize, Vec<Fp>)>,
    deviants: Vec<(usize, F::Deviant)>,
    defaults: Option<Vec<Vec<Fp>>>,
    default_actions: Option<Vec<Action>>,
    scheduler: SchedulerKind,
    seed: u64,
    max_steps: u64,
    knobs: F::Knobs,
}

/// Builder for a cheap-talk scenario (Theorems 4.1/4.2/4.4/4.5).
pub type CheapTalk = Builder<CheapTalkSpec>;

/// Builder for a mediator-game scenario (§2's canonical form, or §6.4's).
pub type MediatorGame = Builder<MediatorGameSpec>;

/// The cheap-talk builder's own settings: engine, coin seed and hatch.
#[derive(Clone, Copy)]
pub struct CheapTalkKnobs {
    kappa: Option<usize>,
    coin_seed: u64,
    allow_sub_threshold: bool,
}

/// The mediator-game builder's own settings: naive shape, extra rounds.
#[derive(Clone, Copy)]
pub struct MediatorKnobs {
    naive_split: bool,
    extra_rounds: u64,
}

/// What the shared validation hands a family to build its spec from.
struct Validated {
    n: usize,
    k: usize,
    t: usize,
    circuit: Arc<Circuit>,
    defaults: Vec<Vec<Fp>>,
    wills: Option<Vec<Action>>,
    default_actions: Vec<Action>,
}

fn check_len(what: &'static str, expected: usize, got: usize) -> Result<(), ScenarioError> {
    if expected == got {
        Ok(())
    } else {
        Err(ScenarioError::ArityMismatch {
            what,
            expected,
            got,
        })
    }
}

/// The mediator game's tolerance check, and the basic sense the cheap-talk
/// hatch keeps: a sharing degree of `k + t` needs strictly more points.
fn tolerance_fits(n: usize, k: usize, t: usize) -> Result<(), ScenarioError> {
    if k + t < n {
        Ok(())
    } else {
        Err(ScenarioError::ToleranceTooLarge { n, k, t })
    }
}

impl<F: GameFamily> Builder<F> {
    fn new(circuit: Circuit, max_steps: u64, knobs: F::Knobs) -> Self {
        Builder {
            circuit,
            n: None,
            k: 0,
            t: 0,
            wills: None,
            inputs_all: None,
            inputs_one: Vec::new(),
            deviants: Vec::new(),
            defaults: None,
            default_actions: None,
            scheduler: SchedulerKind::Random,
            seed: 0,
            max_steps,
            knobs,
        }
    }

    /// Sets the number of players (in a mediator game the mediator is
    /// process `n` on top).
    pub fn players(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the tolerance pair: `k` rational deviators, `t` malicious
    /// players. `build()` checks it: the theorem threshold over
    /// `(n, k, t)` in cheap talk, `k + t < n` in a mediator game (whose
    /// mediator waits for `n − k − t` complete inputs before computing).
    pub fn tolerance(mut self, k: usize, t: usize) -> Self {
        self.k = k;
        self.t = t;
        self
    }

    /// Configures the wills (one action per player) each honest player
    /// leaves at start. In cheap talk they carry the punishment and switch
    /// on the cotermination barrier: Theorem 4.4, or 4.5 under the ε
    /// engine. In a mediator game they are the Aumann–Hart wills.
    pub fn wills(mut self, wills: Vec<Action>) -> Self {
        self.wills = Some(wills);
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

    /// Overrides the default circuit inputs used for excluded players, or
    /// players whose input never arrives (zeroes of the circuit's
    /// per-player arity if not set).
    pub fn default_inputs(mut self, defaults: Vec<Vec<Fp>>) -> Self {
        self.defaults = Some(defaults);
        self
    }

    /// Overrides the default moves `M_i` (one per player, all-zero if not
    /// set): a cheap-talk player plays its own on abort without wills, and
    /// a [`RunSet`] resolves players that never moved and left no will
    /// with them.
    pub fn default_actions(mut self, actions: Vec<Action>) -> Self {
        self.default_actions = Some(actions);
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

    /// Sets the step budget (livelock guard). Defaults to 8 000 000 in
    /// cheap talk and 200 000 in a mediator game (an O(n)-message affair).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The one validation both families run, in order: `n`, the circuit's
    /// players, the family's `tolerance` check over `(n, k, t)`, default
    /// inputs (count and per-player arity), wills, default actions,
    /// inputs, per-player input arity, the family's `spec` from what
    /// passed, then each deviant through [`Plan`]'s own check.
    fn plan(
        self,
        tolerance: impl FnOnce(usize, usize, usize) -> Result<(), ScenarioError>,
        spec: impl FnOnce(Validated) -> Result<F, ScenarioError>,
    ) -> Result<Plan<F>, ScenarioError> {
        let n = self.n.filter(|&n| n > 0).ok_or(ScenarioError::NoPlayers)?;
        check_len("circuit players", n, self.circuit.num_players())?;
        tolerance(n, self.k, self.t)?;
        let arity = self.circuit.inputs_per_player().to_vec();
        let defaults = match self.defaults {
            Some(d) => {
                check_len("default inputs", n, d.len())?;
                for (default, &a) in d.iter().zip(&arity) {
                    check_len("default input arity", a, default.len())?;
                }
                d
            }
            None => arity.iter().map(|&a| vec![Fp::ZERO; a]).collect(),
        };
        if let Some(w) = &self.wills {
            check_len("wills", n, w.len())?;
        }
        let default_actions = match self.default_actions {
            Some(a) => {
                check_len("default actions", n, a.len())?;
                a
            }
            None => vec![0; n],
        };
        let mut inputs = match self.inputs_all {
            Some(i) => {
                check_len("inputs", n, i.len())?;
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
        for (input, &a) in inputs.iter().zip(&arity) {
            check_len("player input arity", a, input.len())?;
        }
        let plan = Plan {
            spec: Arc::new(spec(Validated {
                n,
                k: self.k,
                t: self.t,
                circuit: Arc::new(self.circuit),
                defaults,
                wills: self.wills,
                default_actions,
            })?),
            inputs,
            deviants: BTreeMap::new(),
            scheduler: self.scheduler,
            seed: self.seed,
            max_steps: self.max_steps,
        };
        self.deviants
            .into_iter()
            .try_fold(plan, |plan, (p, d)| plan.deviate(p, d))
    }
}

/// The cheap-talk steps. The theorem regime is selected by the machinery
/// you configure — the same four combinations the paper proves:
///
/// | ε ([`Builder::epsilon`]) | wills ([`Builder::wills`]) | regime |
/// |---|---|---|
/// | no  | no  | [`Theorem::Robust41`] |
/// | yes | no  | [`Theorem::Epsilon42`] |
/// | no  | yes | [`Theorem::Punishment44`] (cotermination barrier on) |
/// | yes | yes | [`Theorem::EpsilonPunishment45`] |
impl Builder<CheapTalkSpec> {
    /// Selects the fully robust engine (the default): Theorem 4.1, or 4.4
    /// once wills are configured.
    pub fn robust(mut self) -> Self {
        self.knobs.kappa = None;
        self
    }

    /// Selects the ε engine with `kappa` cut-and-choose checks per dealer:
    /// Theorem 4.2, or 4.5 once wills are configured. `kappa` must be at
    /// least 1 ([`ScenarioError::NoCutAndChooseCheck`]).
    pub fn epsilon(mut self, kappa: usize) -> Self {
        self.knobs.kappa = Some(kappa);
        self
    }

    /// Makes player `i` play the given parameterized deviation instead of
    /// the honest strategy.
    pub fn deviant(mut self, i: usize, behavior: Behavior) -> Self {
        self.deviants.push((i, behavior));
        self
    }

    /// Overrides the shared setup seed (ABA coins, detection challenges).
    pub fn coin_seed(mut self, seed: u64) -> Self {
        self.knobs.coin_seed = seed;
        self
    }

    /// Disables the build-time theorem-threshold rejection, letting the
    /// plan be constructed at a sub-threshold `(n, k, t)` point — the
    /// typed escape hatch the frontier atlas
    /// ([`crate::frontier`]) uses to deliberately build cells *below*
    /// each theorem's boundary.
    ///
    /// The default stays strict: without this call, [`Builder::build`]
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
        self.knobs.allow_sub_threshold = true;
        self
    }

    /// The theorem regime the configured machinery selects.
    pub fn selected_theorem(&self) -> Theorem {
        match (self.knobs.kappa.is_some(), self.wills.is_some()) {
            (false, false) => Theorem::Robust41,
            (true, false) => Theorem::Epsilon42,
            (false, true) => Theorem::Punishment44,
            (true, true) => Theorem::EpsilonPunishment45,
        }
    }

    /// Validates the scenario — the theorem threshold first, then the
    /// shared checks and the engine configuration — and produces the
    /// executable [`CheapTalkPlan`].
    pub fn build(self) -> Result<CheapTalkPlan, ScenarioError> {
        let theorem = self.selected_theorem();
        let knobs = self.knobs;
        let threshold = |n, k, t| {
            if theorem.admits(n, k, t) {
                Ok(())
            } else if knobs.allow_sub_threshold {
                tolerance_fits(n, k, t)
            } else {
                Err(ScenarioError::Threshold { theorem, n, k, t })
            }
        };
        self.plan(threshold, |v| {
            // One engine configuration per plan, shared by every engine.
            let f = v.k + v.t;
            let mpc = match knobs.kappa {
                None => MpcConfig::robust(v.n, f, knobs.coin_seed, v.defaults),
                Some(0) => return Err(ScenarioError::NoCutAndChooseCheck),
                Some(kappa) => {
                    let t = v.t.max(1).min(f.max(1));
                    MpcConfig::epsilon(v.n, f, t, kappa, knobs.coin_seed, v.defaults)
                }
            };
            Ok(CheapTalkSpec {
                k: v.k,
                t: v.t,
                circuit: v.circuit,
                punishment: v.wills,
                default_actions: v.default_actions,
                mpc: Arc::new(mpc),
            })
        })
    }
}

/// A deviant-process factory: batches need a fresh process per run, so
/// deviants are registered as closures rather than boxed instances.
pub type DeviantFactory = Arc<dyn Fn() -> Box<dyn Process<MedMsg>> + Send + Sync>;

/// The mediator-game steps.
impl Builder<MediatorGameSpec> {
    /// Selects the §6.4 naive two-round shape: a private leak round that
    /// waits for *all* `n` acks before the STOP.
    pub fn naive_split(mut self) -> Self {
        self.knobs.naive_split = true;
        self
    }

    /// Inserts content-free rounds before STOP (Lemma 6.8 experiments).
    pub fn extra_rounds(mut self, rounds: u64) -> Self {
        self.knobs.extra_rounds = rounds;
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

    /// Validates the scenario — `k + t < n` in place of a theorem
    /// threshold — and produces the executable [`MediatorPlan`].
    pub fn build(self) -> Result<MediatorPlan, ScenarioError> {
        let knobs = self.knobs;
        self.plan(tolerance_fits, |v| {
            Ok(MediatorGameSpec {
                n: v.n,
                k: v.k,
                t: v.t,
                circuit: v.circuit,
                defaults: v.defaults,
                naive_split: knobs.naive_split,
                extra_rounds: knobs.extra_rounds,
                wills: v.wills,
                default_actions: v.default_actions,
            })
        })
    }
}

// ---------------------------------------------------------------------------
// The two game families
// ---------------------------------------------------------------------------

/// What differs between the two game families a [`Plan`] runs: cheap talk
/// ([`CheapTalkSpec`]) and the mediator game ([`MediatorGameSpec`]).
/// Everything else — single runs, sessions, batches, conformance sweeps,
/// hosting over the wire, replay — is written once over this trait.
pub trait GameFamily: Clone + fmt::Debug + Send + Sync + 'static {
    /// The message type the family's processes exchange.
    type Msg: Send + 'static;
    /// How one deviating player is described: a [`Behavior`] the
    /// cheap-talk player runs, or a [`DeviantFactory`] whose process
    /// replaces the honest mediator-game player.
    type Deviant: Clone + Send + Sync + 'static;
    /// The family's own [`Builder`] settings, beside the shared game
    /// description.
    type Knobs: Clone;

    /// Number of game players.
    fn players(&self) -> usize;

    /// Number of processes in an opened world: the players, plus the
    /// mediator (process `n`) in a mediator game.
    fn processes(&self) -> usize;

    /// Assembles one run's world: honest players on `inputs`, except the
    /// players `deviants` names.
    fn world(
        self: &Arc<Self>,
        inputs: &[Vec<Fp>],
        deviants: &BTreeMap<usize, Self::Deviant>,
        seed: u64,
    ) -> World<Self::Msg>;

    /// How a [`RunSet`] resolves infinite play.
    fn resolve(&self) -> Resolve;

    /// Refuses a deviant for `player` (already known to be a player) that
    /// this family cannot run.
    fn check_deviant(&self, _player: usize, _deviant: &Self::Deviant) -> Result<(), ScenarioError> {
        Ok(())
    }

    /// The generated `(strategy name, deviant plan)` cells of the
    /// conformance sweep for `coalition` under `cfg`. Names are unique
    /// within one coalition: they are the portable half of a
    /// [`SweepUnit`](crate::adversary::SweepUnit)'s identity, which replay
    /// and the sharded sweep rebuild cells from.
    fn deviant_cells(
        plan: &Plan<Self>,
        coalition: &[usize],
        cfg: &Conformance,
    ) -> Vec<(String, Plan<Self>)>;
}

impl GameFamily for CheapTalkSpec {
    type Msg = CtMsg;
    type Deviant = Behavior;
    type Knobs = CheapTalkKnobs;

    fn players(&self) -> usize {
        self.mpc.n
    }

    fn processes(&self) -> usize {
        self.mpc.n
    }

    fn world(
        self: &Arc<Self>,
        inputs: &[Vec<Fp>],
        deviants: &BTreeMap<usize, Behavior>,
        seed: u64,
    ) -> World<CtMsg> {
        let procs: Vec<Box<dyn Process<CtMsg>>> = (0..self.mpc.n)
            .map(|p| {
                let b = deviants.get(&p).cloned().unwrap_or_default();
                Box::new(CheapTalkPlayer::with_behavior(
                    Arc::clone(self),
                    p,
                    inputs[p].clone(),
                    b,
                )) as Box<dyn Process<CtMsg>>
            })
            .collect();
        World::new(procs, seed)
    }

    fn resolve(&self) -> Resolve {
        // The paper's two infinite-play semantics: wills (Aumann–Hart)
        // when the spec carries a punishment, default moves otherwise.
        if self.punishment.is_some() {
            Resolve::Ah(self.default_actions.clone())
        } else {
            Resolve::Default(self.default_actions.clone())
        }
    }

    /// An `input_override` whose length is not the player's input arity is
    /// refused here, before any engine could start on it.
    fn check_deviant(&self, player: usize, behavior: &Behavior) -> Result<(), ScenarioError> {
        match &behavior.input_override {
            Some(lie) => check_len(
                "deviant input",
                self.circuit.inputs_per_player()[player],
                lie.len(),
            ),
            None => Ok(()),
        }
    }

    fn deviant_cells(
        plan: &CheapTalkPlan,
        coalition: &[usize],
        _cfg: &Conformance,
    ) -> Vec<(String, CheapTalkPlan)> {
        crate::adversary::cheap_talk_cells(plan, coalition)
    }
}

impl GameFamily for MediatorGameSpec {
    type Msg = MedMsg;
    type Deviant = DeviantFactory;
    type Knobs = MediatorKnobs;

    fn players(&self) -> usize {
        self.n
    }

    fn processes(&self) -> usize {
        self.n + 1
    }

    /// Each registered deviant's factory is invoked once, everyone else
    /// plays the honest canonical strategy, and the mediator is process
    /// `n`.
    fn world(
        self: &Arc<Self>,
        inputs: &[Vec<Fp>],
        deviants: &BTreeMap<usize, DeviantFactory>,
        seed: u64,
    ) -> World<MedMsg> {
        let n = self.n;
        let mut procs: Vec<Box<dyn Process<MedMsg>>> = (0..n)
            .map(|p| match deviants.get(&p) {
                Some(factory) => factory(),
                None => {
                    let will = self.wills.as_ref().map(|w| w[p]);
                    Box::new(HonestMedPlayer::new(n, inputs[p].clone(), will))
                }
            })
            .collect();
        procs.push(Box::new(CircuitMediator::new((**self).clone())));
        World::new(procs, seed)
    }

    fn resolve(&self) -> Resolve {
        // The world has n+1 processes (the mediator never moves): pad the
        // per-player fallbacks with a zero for it.
        let mut fallback = self.default_actions.clone();
        fallback.push(0);
        if self.wills.is_some() {
            Resolve::Ah(fallback)
        } else {
            Resolve::Default(fallback)
        }
    }

    fn deviant_cells(
        plan: &MediatorPlan,
        coalition: &[usize],
        cfg: &Conformance,
    ) -> Vec<(String, MediatorPlan)> {
        crate::adversary::mediator_cells(plan, coalition, cfg)
    }
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// A validated, executable scenario of either game family.
///
/// Cloneable and `Sync`: one plan fans out across however many runs,
/// sessions, and worker threads the experiment needs.
#[derive(Clone)]
pub struct Plan<F: GameFamily> {
    spec: Arc<F>,
    inputs: Vec<Vec<Fp>>,
    deviants: BTreeMap<usize, F::Deviant>,
    scheduler: SchedulerKind,
    seed: u64,
    max_steps: u64,
}

/// A validated, executable cheap-talk scenario.
pub type CheapTalkPlan = Plan<CheapTalkSpec>;

/// A validated, executable mediator-game scenario.
pub type MediatorPlan = Plan<MediatorGameSpec>;

impl<F: GameFamily> fmt::Debug for Plan<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("spec", &self.spec)
            .field("inputs", &self.inputs)
            .field("deviants", &self.deviants.keys().collect::<Vec<_>>())
            .field("scheduler", &self.scheduler)
            .field("seed", &self.seed)
            .field("max_steps", &self.max_steps)
            .finish()
    }
}

impl<F: GameFamily> Plan<F> {
    /// The validated spec.
    pub fn spec(&self) -> &F {
        &self.spec
    }

    /// The resolved per-player inputs.
    pub fn inputs(&self) -> &[Vec<Fp>] {
        &self.inputs
    }

    /// The scheduler single runs and sessions use.
    pub fn scheduler(&self) -> &SchedulerKind {
        &self.scheduler
    }

    /// Number of game players (the mediator excluded).
    pub fn players(&self) -> usize {
        self.spec.players()
    }

    /// Number of processes in an opened world — the players plus, for
    /// mediator games, the mediator: the `(session-id, player-id)` routes
    /// a networked run attaches before pumping begins.
    pub fn processes(&self) -> usize {
        self.spec.processes()
    }

    /// How a [`RunSet`] of this plan resolves infinite play.
    pub fn resolve(&self) -> Resolve {
        self.spec.resolve()
    }

    /// Adds (or replaces) one player's deviant, refusing a player id `≥ n`
    /// and whatever the family's own check refuses.
    fn deviate(mut self, player: usize, deviant: F::Deviant) -> Result<Self, ScenarioError> {
        let n = self.players();
        if player >= n {
            return Err(ScenarioError::PlayerOutOfRange {
                what: "deviant",
                player,
                n,
            });
        }
        self.spec.check_deviant(player, &deviant)?;
        self.deviants.insert(player, deviant);
        Ok(self)
    }

    /// The `(kind, seed)` cell's world. A [`SchedulerKind::Replay`] kind
    /// allows drops exactly when the recording contains them (a relaxed
    /// recording replays its blackout; an ordinary one must not gain the
    /// ability to drop).
    fn world(&self, kind: &SchedulerKind, seed: u64) -> World<F::Msg> {
        let mut world = self.spec.world(&self.inputs, &self.deviants, seed);
        if let SchedulerKind::Replay(script) = kind {
            if script.has_drops() {
                world.allow_drops();
            }
        }
        world
    }

    /// Runs once with the configured scheduler and seed.
    pub fn run(&self) -> Outcome {
        self.run_with(&self.scheduler, self.seed)
    }

    /// Runs once with an explicit scheduler kind and seed. A
    /// [`SchedulerKind::Replay`] kind re-enacts a recorded run.
    pub fn run_with(&self, kind: &SchedulerKind, seed: u64) -> Outcome {
        let mut world = self.world(kind, seed);
        let mut sched = kind.build();
        world.run(sched.as_mut(), self.max_steps)
    }

    /// Opens the configured run as a steppable [`Session`].
    pub fn session(&self) -> Session<F::Msg> {
        self.session_with(&self.scheduler, self.seed)
    }

    /// Opens a steppable [`Session`] with an explicit scheduler and seed —
    /// the seam the transport plane hosts and replay re-enacts.
    pub fn session_with(&self, kind: &SchedulerKind, seed: u64) -> Session<F::Msg> {
        Session::new(self.world(kind, seed), kind.build(), self.max_steps)
    }

    /// Starts a batch over this plan's single scheduler and seed until
    /// [`Batch::battery`] / [`Batch::seeds`] widen them.
    pub fn batch(&self) -> Batch<F> {
        Batch::new(self.clone())
    }

    /// Starts a batch over the given scheduler battery (seeds default to
    /// the plan's single seed until [`Batch::seeds`] widens them).
    pub fn battery(&self, kinds: Vec<SchedulerKind>) -> Batch<F> {
        self.batch().battery(kinds)
    }

    /// Starts a batch over the given seeds (scheduler battery defaults to
    /// the plan's single scheduler until [`Batch::battery`] widens it).
    pub fn seeds(&self, seeds: impl IntoIterator<Item = u64>) -> Batch<F> {
        self.batch().seeds(seeds)
    }

    /// Runs the equilibrium conformance harness over this plan: every
    /// coalition of size ≤ `cfg.k` plays every generated deviant cell of
    /// the family ([`GameFamily::deviant_cells`]: the strategy battery in
    /// cheap talk; gossip cliques under each collusion rule plus
    /// message-level tampering in the mediator game) across the scheduler
    /// battery × seed grid. Utilities are accounted with confidence
    /// intervals against the honest baseline under `game`/`types`, and the
    /// report's verdict states whether the plan is ε-k-resilient within
    /// the statistical bound — or exhibits a concrete witnessing
    /// deviation. See [`adversary`](crate::adversary) for the strategy
    /// grammar.
    pub fn conformance(
        &self,
        game: &mediator_games::BayesianGame,
        types: &[usize],
        cfg: &Conformance,
    ) -> crate::adversary::ConformanceReport {
        crate::adversary::sweep(self, game, types, cfg)
    }
}

impl CheapTalkPlan {
    /// Adds (or replaces) one player's deviation. A player id `≥ n`, or an
    /// `input_override` whose length is not that player's input arity, is
    /// refused here, before any engine could start on it.
    pub fn with_deviant(self, p: usize, behavior: Behavior) -> Result<Self, ScenarioError> {
        self.deviate(p, behavior)
    }
}

impl MediatorPlan {
    /// Adds (or replaces) player `i`'s deviant factory, as the mediator
    /// builder's `deviant` step does. A player id `≥ n` is refused.
    pub fn with_deviant(
        self,
        i: usize,
        factory: impl Fn() -> Box<dyn Process<MedMsg>> + Send + Sync + 'static,
    ) -> Result<Self, ScenarioError> {
        self.deviate(i, Arc::new(factory))
    }

    /// Runs once under a **relaxed scheduler** (§5): the mediator's
    /// messages are dropped — whole batches at a time, the all-or-none rule
    /// of Lemma 6.10 — after `drop_after` deliveries. This is the deadlock
    /// machinery of Propositions 6.9/6.11: with the mediator's STOP batch
    /// withheld, no honest player can move, and the wills (punishments)
    /// fire.
    pub fn run_relaxed(&self, drop_after: u64, seed: u64) -> Outcome {
        let mediator = self.spec.n;
        let mut world = self.spec.world(&self.inputs, &self.deviants, seed);
        world.allow_drops();
        let mut sched = RelaxedScheduler::new(vec![mediator], drop_after);
        world.run(&mut sched, self.max_steps)
    }
}

// ---------------------------------------------------------------------------
// Batches and run sets
// ---------------------------------------------------------------------------

/// A batch execution plan: a scheduler battery × a seed range, fanned
/// across worker threads by [`Batch::run_batch`].
pub struct Batch<F: GameFamily> {
    plan: Plan<F>,
    kinds: Option<Vec<SchedulerKind>>,
    seeds: Option<Vec<u64>>,
    threads: Option<usize>,
}

impl<F: GameFamily> Batch<F> {
    fn new(plan: Plan<F>) -> Self {
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
            .unwrap_or_else(|| vec![self.plan.scheduler.clone()]);
        let seeds = self.seeds.unwrap_or_else(|| vec![self.plan.seed]);
        assert!(!kinds.is_empty(), "run_batch: empty scheduler battery");
        assert!(!seeds.is_empty(), "run_batch: empty seed list");
        let threads = self.threads.unwrap_or_else(default_batch_threads);
        let jobs: Vec<(SchedulerKind, u64)> = kinds
            .iter()
            .flat_map(|k| seeds.iter().map(move |&s| (k.clone(), s)))
            .collect();
        let outcomes = run_grid(&jobs, threads, |kind, seed| self.plan.run_with(kind, seed));
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
            resolve: self.plan.resolve(),
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
            })
            .expect("player 2 of 4");
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
