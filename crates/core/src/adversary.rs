//! The adversary plane: composable coalition strategies and the
//! ε-resilience conformance harness.
//!
//! The paper's theorems quantify over *every* strategy a rational coalition
//! of size ≤ k might play alongside t malicious players; a fixed list of
//! hand-written deviations cannot witness that claim. This module replaces
//! the ad-hoc battery with three layers:
//!
//! 1. **Message-level primitives** ([`Primitive`]) — drop, delay-until-
//!    phase, equivocate, selective silence toward a victim set, abort-at-
//!    round — scheduled over send-index windows ([`Window`]) and composed
//!    per player by the [`Deviation`] combinator builder. Programs compile
//!    to a [`TacticState`], the one send path of both the cheap-talk player
//!    and the honest mediator-game player.
//! 2. **Coalition wiring** ([`GossipColluder`], generalizing the §6.4
//!    counterexample coalition, [`GossipColluder::counterexample`]) —
//!    members pool their private leaks over
//!    `Gossip` messages and act on the combined information via a
//!    [`CollusionRule`].
//! 3. **The conformance harness** ([`Conformance`] → [`ConformanceReport`])
//!    — sweeps generated coalition strategies × the scheduler battery ×
//!    seeds through the batch runner, accounts utilities with confidence
//!    intervals (common-random-number pairing against the honest baseline),
//!    and renders a verdict: ε-k-resilient within the statistical bound, or
//!    a concrete witnessing deviation ([`DeviationWitness`]) that replays
//!    from its `(scheduler, seed)` cell.
//!
//! "Phase" below means a window over the deviator's *own send counter*:
//! the asynchronous model has no global rounds, and a player's send index
//! is the only clock it controls. Early windows cover input dealing, late
//! windows the opening/output phase; [`Deviation::abort_at`] is the paper's
//! abort-at-round deviation expressed on that clock.

use crate::deviations::Behavior;
use crate::mediator::MedMsg;
use crate::report::{block, object, ToJson};
use crate::scenario::{CheapTalkPlan, GameFamily, MediatorPlan, Plan};
use mediator_field::Fp;
use mediator_games::solution::subsets_up_to;
use mediator_games::stats::{mean_ci, paired_gain_ci, ConfidenceInterval};
use mediator_games::BayesianGame;
use mediator_mpc::MpcMsg;
use mediator_sim::{Action, Ctx, Outcome, Process, ProcessId, SchedulerKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// ---------------------------------------------------------------------------
// Message-level primitives
// ---------------------------------------------------------------------------

/// The additive field offset the classic lie-in-openings deviation applies
/// (any nonzero value breaks the share; this one is the historical
/// constant the golden tests pinned).
pub const OPEN_LIE_OFFSET: u64 = 1_000_003;

/// A half-open window `[from, to)` over the deviator's own send counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First send index the window covers.
    pub from: u64,
    /// First send index past the window (`u64::MAX` = forever).
    pub to: u64,
}

impl Window {
    /// The whole execution.
    pub fn all() -> Self {
        Window {
            from: 0,
            to: u64::MAX,
        }
    }

    /// Everything from send `from` on.
    pub fn starting(from: u64) -> Self {
        Window { from, to: u64::MAX }
    }

    /// The window `[from, to)`.
    pub fn between(from: u64, to: u64) -> Self {
        assert!(from <= to, "window bounds out of order");
        Window { from, to }
    }

    /// Whether send index `i` falls inside the window.
    pub fn contains(&self, i: u64) -> bool {
        self.from <= i && i < self.to
    }
}

/// One message-level deviation primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Primitive {
    /// Drop every outgoing message in the window.
    Drop,
    /// Drop messages addressed to the victim set (selective silence: the
    /// deviator talks to everyone else normally).
    SilenceToward(BTreeSet<ProcessId>),
    /// Hold messages emitted in the window; release them once the send
    /// counter reaches `release_at` (delay-until-phase).
    Delay {
        /// Send index at which held messages are flushed.
        release_at: u64,
    },
    /// Corrupt opening/output values toward **everyone** (the classic
    /// lie-in-openings attack, windowed).
    CorruptOpens {
        /// Additive field offset applied to corrupted values.
        offset: u64,
    },
    /// Corrupt opening/output values only toward the victim set —
    /// equivocation: different recipients see different values.
    Equivocate {
        /// Recipients that get the corrupted values.
        victims: BTreeSet<ProcessId>,
        /// Additive field offset applied to corrupted values.
        offset: u64,
    },
    /// Permanently stop sending once the window opens (abort-at-round on
    /// the send-counter clock).
    Abort,
}

/// A primitive scheduled over a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled {
    /// When the primitive is active.
    pub window: Window,
    /// What it does.
    pub primitive: Primitive,
}

/// A message type the value-corruption primitives know how to tamper with.
///
/// Corruption models a deviator *lying about a protocol value it is
/// supposed to report*; messages with no such value pass through unchanged
/// (dropping them is what [`Primitive::Drop`] is for).
pub trait TamperableMsg: Sized {
    /// Applies an additive corruption to the message's reported values.
    fn corrupt(self, offset: u64) -> Self;
}

impl TamperableMsg for crate::cheap_talk::CtMsg {
    fn corrupt(self, offset: u64) -> Self {
        use crate::cheap_talk::CtMsg;
        match self {
            CtMsg::Mpc(MpcMsg::Open { id, value }) => CtMsg::Mpc(MpcMsg::Open {
                id,
                value: value + Fp::new(offset),
            }),
            CtMsg::Mpc(MpcMsg::Output { idx, value }) => CtMsg::Mpc(MpcMsg::Output {
                idx,
                value: value + Fp::new(offset),
            }),
            other => other,
        }
    }
}

impl TamperableMsg for MedMsg {
    fn corrupt(self, offset: u64) -> Self {
        match self {
            MedMsg::Input { round, value } => MedMsg::Input {
                round,
                value: value.into_iter().map(|v| v + Fp::new(offset)).collect(),
            },
            MedMsg::Gossip { payload } => MedMsg::Gossip {
                payload: payload.into_iter().map(|v| v + Fp::new(offset)).collect(),
            },
            other => other,
        }
    }
}

/// The compiled, stateful form of a tactic list, and the one send-side
/// tamper path: the cheap-talk player and the honest mediator-game player
/// both send through it. It counts the deviator's sends, applies every
/// active primitive in order, and keeps the messages a
/// [`Primitive::Delay`] holds until their release point.
///
/// Moves, wills and halts never pass through here: tampering is about the
/// *communication* strategy, and a deviation that changes the move is a
/// different [`Behavior`] switch. The environment stays content-blind
/// (§6.1); a held message is indistinguishable from a slow link, which is
/// why delaying is a legal strategy.
#[derive(Debug, Clone)]
pub struct TacticState<M> {
    steps: Vec<Scheduled>,
    sends: u64,
    aborted: bool,
    release_floor: Option<u64>,
    held: Vec<(ProcessId, M)>,
}

impl<M: TamperableMsg> TacticState<M> {
    /// Compiles a tactic list (empty: the honest player).
    pub fn new(steps: Vec<Scheduled>) -> Self {
        TacticState {
            steps,
            sends: 0,
            aborted: false,
            release_floor: None,
            held: Vec::new(),
        }
    }

    /// Sends one message through the active primitives: it goes out
    /// (possibly corrupted), is dropped, or is held.
    pub fn send(&mut self, dst: ProcessId, msg: M, ctx: &mut Ctx<M>) {
        // The honest player's path: one branch, no routing.
        if self.steps.is_empty() {
            ctx.send(dst, msg);
        } else if let Some(msg) = self.route(dst, msg) {
            ctx.send(dst, msg);
        }
    }

    /// Sends the held messages once the send counter has passed every
    /// pending release point. Players call it at the start of each
    /// activation; an aborted deviator never releases.
    pub fn release(&mut self, ctx: &mut Ctx<M>) {
        if self.held.is_empty() || !self.due() {
            return;
        }
        for (dst, msg) in self.held.drain(..) {
            ctx.send(dst, msg);
        }
    }

    /// The fate of one outgoing message: `Some` to send now, `None` when
    /// it was dropped or held. The window clock counts every attempt, so
    /// it does not depend on what earlier tampering did.
    fn route(&mut self, dst: ProcessId, msg: M) -> Option<M> {
        let i = self.sends;
        self.sends += 1;
        if self.aborted {
            return None;
        }
        let mut msg = msg;
        let mut hold = false;
        for s in &self.steps {
            if !s.window.contains(i) {
                continue;
            }
            match &s.primitive {
                Primitive::Abort => {
                    self.aborted = true;
                    return None;
                }
                Primitive::Drop => return None,
                Primitive::SilenceToward(victims) => {
                    if victims.contains(&dst) {
                        return None;
                    }
                }
                Primitive::Delay { release_at } => {
                    hold = true;
                    let floor = self.release_floor.get_or_insert(*release_at);
                    *floor = (*floor).max(*release_at);
                }
                Primitive::CorruptOpens { offset } => {
                    msg = msg.corrupt(*offset);
                }
                Primitive::Equivocate { victims, offset } => {
                    if victims.contains(&dst) {
                        msg = msg.corrupt(*offset);
                    }
                }
            }
        }
        if hold {
            self.held.push((dst, msg));
            return None;
        }
        Some(msg)
    }

    /// Whether the held messages are due (fires once per release point).
    fn due(&mut self) -> bool {
        match self.release_floor {
            Some(floor) if self.sends >= floor && !self.aborted => {
                self.release_floor = None;
                true
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// The combinator builder
// ---------------------------------------------------------------------------

/// Builder for one named deviation: player-level switches (silence, input
/// lies, refusing to move, will overrides) and message-level tactics
/// compose freely; `build()` yields the `(name, Behavior)` pair the
/// scenario surface consumes.
///
/// # Example
///
/// ```
/// use mediator_core::adversary::Deviation;
/// let (name, b) = Deviation::named("equivocate-then-abort")
///     .equivocate([1, 2], 40)
///     .abort_at(120)
///     .build();
/// assert_eq!(name, "equivocate-then-abort");
/// assert_eq!(b.tactics.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Deviation {
    name: String,
    behavior: Behavior,
}

impl Deviation {
    /// Starts an (initially honest) deviation with a report name.
    pub fn named(name: impl Into<String>) -> Self {
        Deviation {
            name: name.into(),
            behavior: Behavior::default(),
        }
    }

    /// Never participate at all.
    pub fn silent(mut self) -> Self {
        self.behavior.silent = true;
        self
    }

    /// Substitute `input` for the real private input (lie-about-input: the
    /// model allows it — it is the player's own input — but the coalition
    /// may still hope to profit from a coordinated lie).
    pub fn lie_about_input(mut self, input: Vec<Fp>) -> Self {
        self.behavior.input_override = Some(input);
        self
    }

    /// Decode the action but never move.
    pub fn refuse_to_move(mut self) -> Self {
        self.behavior.refuse_to_move = true;
        self
    }

    /// Write `will` instead of the honest will.
    pub fn will(mut self, will: Action) -> Self {
        self.behavior.will_override = Some(will);
        self
    }

    /// Schedules a raw tactic (the escape hatch for combinations the named
    /// combinators below do not cover).
    pub fn tactic(mut self, window: Window, primitive: Primitive) -> Self {
        self.behavior.tactics.push(Scheduled { window, primitive });
        self
    }

    /// Drop every outgoing message in `[from, to)`.
    pub fn drop_between(self, from: u64, to: u64) -> Self {
        self.tactic(Window::between(from, to), Primitive::Drop)
    }

    /// Permanently stop sending at send index `at`.
    pub fn abort_at(self, at: u64) -> Self {
        self.tactic(Window::starting(at), Primitive::Abort)
    }

    /// Drop messages to `victims` from send `from` on.
    pub fn silence_toward(self, victims: impl IntoIterator<Item = ProcessId>, from: u64) -> Self {
        self.tactic(
            Window::starting(from),
            Primitive::SilenceToward(victims.into_iter().collect()),
        )
    }

    /// Hold messages emitted in `[from, to)` until send `release_at`.
    pub fn delay(self, from: u64, to: u64, release_at: u64) -> Self {
        self.tactic(Window::between(from, to), Primitive::Delay { release_at })
    }

    /// Corrupt openings/outputs toward everyone from send `from` on.
    pub fn corrupt_opens(self, from: u64, offset: u64) -> Self {
        self.tactic(Window::starting(from), Primitive::CorruptOpens { offset })
    }

    /// Corrupt openings/outputs toward `victims` only (equivocation).
    pub fn equivocate(self, victims: impl IntoIterator<Item = ProcessId>, offset: u64) -> Self {
        self.tactic(
            Window::all(),
            Primitive::Equivocate {
                victims: victims.into_iter().collect(),
                offset,
            },
        )
    }

    /// The finished `(name, behavior)` pair.
    pub fn build(self) -> (String, Behavior) {
        (self.name, self.behavior)
    }
}

/// The generated deviation battery for a coalition inside a cheap-talk
/// game whose player `p` has `arity[p]` private inputs: the five legacy
/// deviations plus the message-level primitives, with victim sets drawn
/// from the players *outside* the coalition (silencing or equivocating
/// toward a fellow deviator tests nothing). This is the strategy space the
/// conformance harness sweeps.
///
/// Each strategy names every member's behavior. They are all the same
/// except under `lie-input`, where each member claims all ones at its own
/// arity; that strategy is left out when no member has an input to lie
/// about.
pub fn generated_battery(
    arity: &[usize],
    coalition: &[usize],
) -> Vec<(String, Vec<(ProcessId, Behavior)>)> {
    let outsiders: Vec<ProcessId> = (0..arity.len())
        .filter(|p| !coalition.contains(p))
        .collect();
    let victims: Vec<ProcessId> = outsiders.iter().copied().take(2).collect();
    let shared = |deviation: Deviation| {
        let (name, behavior) = deviation.build();
        let members = coalition.iter().map(|&m| (m, behavior.clone())).collect();
        (name, members)
    };
    let mut battery = vec![
        shared(Deviation::named("silent").silent()),
        shared(Deviation::named("crash-mid").abort_at(60)),
    ];
    if coalition.iter().any(|&m| arity[m] > 0) {
        let lie = |m: usize| Deviation::named("lie-input").lie_about_input(vec![Fp::ONE; arity[m]]);
        let members = coalition.iter().map(|&m| (m, lie(m).build().1));
        battery.push(("lie-input".to_string(), members.collect()));
    }
    battery.extend(
        [
            Deviation::named("lie-opens").corrupt_opens(0, OPEN_LIE_OFFSET),
            Deviation::named("refuse-move").refuse_to_move(),
            Deviation::named("drop-phase2").drop_between(60, u64::MAX),
            Deviation::named("abort-at-round").abort_at(90),
            Deviation::named("delay-until-phase").delay(0, 30, 90),
            Deviation::named("corrupt-opens-late").corrupt_opens(60, 7),
        ]
        .map(shared),
    );
    if !victims.is_empty() {
        battery.push(shared(
            Deviation::named("selective-silence").silence_toward(victims.clone(), 0),
        ));
        battery.push(shared(
            Deviation::named("equivocate").equivocate(victims, OPEN_LIE_OFFSET),
        ));
    }
    battery
}

// ---------------------------------------------------------------------------
// Coalition wiring (generalized §6.4 colluders)
// ---------------------------------------------------------------------------

/// What a colluding coalition does once it has pooled its members' private
/// round-1 leaks (combined by XOR, the §6.4 parity trick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollusionRule {
    /// Deadlock the mediator (never ack; leave `will` as the move) exactly
    /// when the combined leak bit equals `trigger`; cooperate otherwise.
    DeadlockOnBit {
        /// The combined-leak value that triggers the deadlock.
        trigger: u64,
        /// The will left behind when deadlocking.
        will: Action,
    },
    /// Deadlock unconditionally.
    AlwaysDeadlock {
        /// The will left behind.
        will: Action,
    },
    /// Pool the leaks but play along — the control arm that separates
    /// "information was available" from "information was profitable".
    AlwaysCooperate,
}

impl CollusionRule {
    /// A short name for report rows.
    pub fn name(&self) -> String {
        match self {
            CollusionRule::DeadlockOnBit { trigger, .. } => {
                format!("deadlock-if-bit={trigger}")
            }
            CollusionRule::AlwaysDeadlock { .. } => "always-deadlock".into(),
            CollusionRule::AlwaysCooperate => "pool-then-cooperate".into(),
        }
    }
}

/// The generalized §6.4 colluder: a mediator-game player that gossips its
/// private round-1 leak to every coalition partner, combines the pooled
/// leaks by XOR, and acts on a [`CollusionRule`]. With one partner of
/// opposite parity and `DeadlockOnBit { trigger: 0, will: ⊥ }` this *is*
/// the paper's counterexample coalition
/// ([`GossipColluder::counterexample`]); the conformance harness sweeps the
/// rule space instead of hard-coding that one point.
pub struct GossipColluder {
    n: usize,
    partners: Vec<ProcessId>,
    rule: CollusionRule,
    base_will: Action,
    input: Vec<Fp>,
    my_leak: Option<u64>,
    partner_leaks: BTreeMap<ProcessId, u64>,
    acked: bool,
}

impl GossipColluder {
    /// Creates a colluder for an `n`-player game whose gossip partners are
    /// `partners` (the rest of the coalition). `base_will` is the will
    /// written at start (the coalition's deadlock-preferred action).
    pub fn new(
        n: usize,
        partners: impl IntoIterator<Item = ProcessId>,
        rule: CollusionRule,
        base_will: Action,
    ) -> Self {
        GossipColluder {
            n,
            partners: partners.into_iter().collect(),
            rule,
            base_will,
            input: Vec::new(),
            my_leak: None,
            partner_leaks: BTreeMap::new(),
            acked: false,
        }
    }

    /// The §6.4 rational colluder whose one gossip partner is `partner`:
    /// paired with a player of opposite parity, it XORs the two round-1
    /// leaks to learn `b` early, then deadlocks the naive mediator when
    /// `b = 0` (preferring the 1.1 punishment payoff to the 1.0 all-zeros
    /// payoff) and cooperates when `b = 1` (payoff 2). ⊥ is its will from
    /// the start.
    pub fn counterexample(n: usize, partner: ProcessId) -> Self {
        let bottom = mediator_games::library::BOTTOM as Action;
        let rule = CollusionRule::DeadlockOnBit {
            trigger: 0,
            will: bottom,
        };
        GossipColluder::new(n, [partner], rule, bottom)
    }

    /// Sets the private input re-sent on acks (empty by default — the
    /// §6.4 coin circuit takes no inputs).
    pub fn with_input(mut self, input: Vec<Fp>) -> Self {
        self.input = input;
        self
    }

    fn mediator(&self) -> ProcessId {
        self.n
    }

    fn decide(&mut self, ctx: &mut Ctx<MedMsg>) {
        let Some(mine) = self.my_leak else {
            return;
        };
        if self.acked
            || self
                .partners
                .iter()
                .any(|p| !self.partner_leaks.contains_key(p))
        {
            return;
        }
        self.acked = true;
        let bit = self
            .partner_leaks
            .values()
            .fold(mine, |acc, leak| acc ^ leak);
        let deadlock_will = match self.rule {
            CollusionRule::DeadlockOnBit { trigger, will } if bit == trigger => Some(will),
            CollusionRule::AlwaysDeadlock { will } => Some(will),
            _ => None,
        };
        match deadlock_will {
            Some(will) => {
                // Never ack: the naive mediator waits for all n acks, so
                // the whole game deadlocks and every will fires.
                ctx.set_will(will);
                ctx.halt();
            }
            None => {
                ctx.send(
                    self.mediator(),
                    MedMsg::Input {
                        round: 1,
                        value: self.input.clone(),
                    },
                );
            }
        }
    }
}

impl Process<MedMsg> for GossipColluder {
    fn on_start(&mut self, ctx: &mut Ctx<MedMsg>) {
        ctx.set_will(self.base_will);
        ctx.send(
            self.mediator(),
            MedMsg::Input {
                round: 0,
                value: self.input.clone(),
            },
        );
    }

    fn on_message(&mut self, src: ProcessId, msg: MedMsg, ctx: &mut Ctx<MedMsg>) {
        match msg {
            MedMsg::Round { round: 1, payload } if src == self.mediator() => {
                let leak = payload.first().map(|v| v.as_u64()).unwrap_or(0);
                self.my_leak = Some(leak);
                for &p in &self.partners.clone() {
                    ctx.send(
                        p,
                        MedMsg::Gossip {
                            payload: vec![Fp::new(leak)],
                        },
                    );
                }
                self.decide(ctx);
            }
            MedMsg::Round { round, .. } if src == self.mediator() => {
                // Later (content-free) rounds: a colluder that has not
                // deadlocked acks them like an honest player, so
                // multi-round mediators (`extra_rounds`) keep advancing —
                // a deadlocked colluder is already halted and never
                // receives these.
                ctx.send(
                    self.mediator(),
                    MedMsg::Input {
                        round,
                        value: self.input.clone(),
                    },
                );
            }
            MedMsg::Gossip { payload } if self.partners.contains(&src) => {
                if let Some(leak) = payload.first().map(|v| v.as_u64()) {
                    self.partner_leaks.insert(src, leak);
                }
                self.decide(ctx);
            }
            MedMsg::Stop { action } if src == self.mediator() => {
                ctx.make_move(action);
                ctx.halt();
            }
            _ => {}
        }
    }
}

/// The generated collusion-rule battery for mediator-game conformance:
/// both deadlock triggers, the unconditional deadlock, and the pooled-but-
/// cooperative control arm. `will` is the coalition's deadlock-preferred
/// action (⊥ in the §6.4 game).
pub fn collusion_battery(will: Action) -> Vec<CollusionRule> {
    vec![
        CollusionRule::DeadlockOnBit { trigger: 0, will },
        CollusionRule::DeadlockOnBit { trigger: 1, will },
        CollusionRule::AlwaysDeadlock { will },
        CollusionRule::AlwaysCooperate,
    ]
}

// ---------------------------------------------------------------------------
// The conformance harness
// ---------------------------------------------------------------------------

/// Critical value of every conformance interval (1.96 ≈ 95%).
const Z: f64 = 1.96;

/// Configuration of a conformance sweep: the claim to check
/// (ε-k-resilience alongside t malicious players) and the sampling plan.
#[derive(Debug, Clone)]
pub struct Conformance {
    /// The ε bound being certified.
    pub eps: f64,
    /// Rational-coalition bound swept over.
    pub k: usize,
    /// Malicious bound (recorded in the report; the malicious players are
    /// whatever the plan itself configures).
    pub t: usize,
    battery: Option<Vec<SchedulerKind>>,
    seeds: u64,
    coalitions: Option<Vec<Vec<usize>>>,
    deadlock_action: Option<Action>,
}

impl Conformance {
    /// A conformance check of ε-k-resilience with `t` malicious players.
    /// Defaults: the plan's full scheduler battery, 16 seeds per kind,
    /// 95% intervals (`z = 1.96`), all coalitions of size ≤ k.
    pub fn new(eps: f64, k: usize, t: usize) -> Self {
        Conformance {
            eps,
            k,
            t,
            battery: None,
            seeds: 16,
            coalitions: None,
            deadlock_action: None,
        }
    }

    /// Overrides the scheduler battery.
    pub fn battery(mut self, kinds: Vec<SchedulerKind>) -> Self {
        self.battery = Some(kinds);
        self
    }

    /// Sets the seeds sampled per scheduler kind.
    pub fn seeds(mut self, seeds: u64) -> Self {
        assert!(seeds > 0, "conformance needs at least one seed");
        self.seeds = seeds;
        self
    }

    /// Restricts the swept coalitions (all subsets of size ≤ k otherwise).
    pub fn coalitions(mut self, coalitions: Vec<Vec<usize>>) -> Self {
        self.coalitions = Some(coalitions);
        self
    }

    /// Sets the action colluders leave in their wills when deadlocking
    /// (mediator-game sweeps only; defaults to the plan's will for the
    /// member, or 0).
    pub fn deadlock_action(mut self, action: Action) -> Self {
        self.deadlock_action = Some(action);
        self
    }

    fn resolve_coalitions(&self, n: usize) -> Vec<Vec<usize>> {
        self.coalitions
            .clone()
            .unwrap_or_else(|| subsets_up_to(n, self.k))
    }

    /// The resolved scheduler battery for an `n`-player plan, in grid
    /// order. A sweep's flat run index `r` decodes as
    /// `(battery[r / seeds], r % seeds)` with `seeds =`
    /// [`Self::seeds_per_kind`] — the decode the sharding plane's workers
    /// and witness re-enactment both rely on.
    pub fn resolved_battery(&self, n: usize) -> Vec<SchedulerKind> {
        self.battery
            .clone()
            .unwrap_or_else(|| SchedulerKind::battery(n))
    }

    /// Seeds sampled per scheduler kind.
    pub fn seeds_per_kind(&self) -> u64 {
        self.seeds
    }
}

// ---------------------------------------------------------------------------
// Sweep decomposition: leasable units and the shared render pipeline
// ---------------------------------------------------------------------------

/// One leasable work unit of a conformance sweep: the honest baseline
/// (`strategy: None`) or one generated `(strategy, coalition)` cell. Every
/// unit runs the *same* `battery × seeds` grid, so the paired
/// common-random-number comparison against the baseline happens at render
/// time by flat run index — a unit can execute on any worker without
/// breaking the pairing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepUnit {
    /// Generated strategy name, or `None` for the honest baseline.
    pub strategy: Option<String>,
    /// The deviating coalition (empty for the baseline).
    pub coalition: Vec<usize>,
}

/// Decomposes a sweep into its units: the honest baseline first (unit 0),
/// then every `(coalition × strategy)` cell in sweep order. Validates the
/// coalition set exactly like the local sweep.
///
/// # Panics
///
/// Panics on an empty coalition set, an empty coalition, or an
/// out-of-range member — a mis-specified experiment, never a data error.
pub fn sweep_units<F: GameFamily>(plan: &Plan<F>, cfg: &Conformance) -> Vec<SweepUnit> {
    let n = plan.players();
    let coalitions = cfg.resolve_coalitions(n);
    assert!(!coalitions.is_empty(), "conformance needs a coalition set");
    for c in &coalitions {
        assert!(!c.is_empty(), "conformance coalitions must be non-empty");
        assert!(
            c.iter().all(|&m| m < n),
            "coalition member out of range: {c:?} (n = {n})"
        );
    }
    let mut units = vec![SweepUnit {
        strategy: None,
        coalition: Vec::new(),
    }];
    for coalition in &coalitions {
        for (strategy, _) in F::deviant_cells(plan, coalition, cfg) {
            units.push(SweepUnit {
                strategy: Some(strategy),
                coalition: coalition.clone(),
            });
        }
    }
    units
}

/// Rebuilds the concrete plan of one unit from its `(strategy, coalition)`
/// recipe — `None` when the strategy name is not one this plan generates
/// or the coalition names a non-player (a hostile or stale lease grant,
/// surfaced as an error rather than a panic by the shard worker).
pub fn sweep_unit_plan<F: GameFamily>(
    plan: &Plan<F>,
    unit: &SweepUnit,
    cfg: &Conformance,
) -> Option<Plan<F>> {
    if unit.coalition.iter().any(|&m| m >= plan.players()) {
        return None;
    }
    match &unit.strategy {
        None => Some(plan.clone()),
        Some(name) => F::deviant_cells(plan, &unit.coalition, cfg)
            .into_iter()
            .find(|(s, _)| s == name)
            .map(|(_, p)| p),
    }
}

/// Executes one unit's whole grid and returns the per-run resolved action
/// profiles in grid (kind-major, seed-minor) order — the portable result a
/// shard worker ships back. Utilities, intervals, and the verdict are all
/// deterministic functions of these profiles, which is what makes sharded
/// verdicts bit-identical to local ones.
pub fn run_sweep_unit<F: GameFamily>(
    plan: &Plan<F>,
    unit: &SweepUnit,
    cfg: &Conformance,
) -> Option<Vec<Vec<usize>>> {
    let cell = sweep_unit_plan(plan, unit, cfg)?;
    let set = cell
        .batch()
        .battery(cfg.resolved_battery(plan.players()))
        .seeds(0..cfg.seeds_per_kind())
        .run_batch();
    Some(set.runs().iter().map(|r| set.profile(&r.outcome)).collect())
}

/// Re-executes a single `(unit, run)` cell: the witness re-enactment path.
/// Returns the decoded `(kind, seed)`, the raw outcome (for trace-sink
/// recording), and the resolved profile. `None` when the run index falls
/// outside the grid or the unit's strategy is unknown.
pub fn run_sweep_cell<F: GameFamily>(
    plan: &Plan<F>,
    unit: &SweepUnit,
    cfg: &Conformance,
    run: usize,
) -> Option<(SchedulerKind, u64, Outcome, Vec<usize>)> {
    let battery = cfg.resolved_battery(plan.players());
    let seeds = cfg.seeds_per_kind() as usize;
    let kind = battery.get(run / seeds)?.clone();
    let seed = (run % seeds) as u64;
    let cell = sweep_unit_plan(plan, unit, cfg)?;
    let outcome = cell.run_with(&kind, seed);
    let profile = cell.resolve().profile(&outcome, cell.players());
    Some((kind, seed, outcome, profile))
}

/// One swept cell: a coalition playing a generated strategy, accounted
/// against the honest baseline with paired confidence intervals.
#[derive(Debug, Clone)]
pub struct ConformanceCell {
    /// Generated strategy name.
    pub strategy: String,
    /// The deviating coalition.
    pub coalition: Vec<usize>,
    /// Sound interval for the *minimum* paired gain over the coalition
    /// (componentwise min of the member intervals). The resilience
    /// criterion needs **every** member to gain, so a violation requires
    /// this interval's `lo` past ε — i.e. every member's lower bound.
    pub gain: ConfidenceInterval,
    /// Per-member paired gains, aligned with `coalition`.
    pub member_gains: Vec<ConfidenceInterval>,
    /// Sound interval for the worst honest player's paired loss
    /// (componentwise max — the immunity side).
    pub harm: ConfidenceInterval,
}

/// A concrete, replayable violation: the strategy, the coalition, and one
/// `(scheduler, seed)` cell of the grid realizing the gain.
#[derive(Debug, Clone)]
pub struct DeviationWitness {
    /// Generated strategy name.
    pub strategy: String,
    /// The deviating coalition.
    pub coalition: Vec<usize>,
    /// Sound interval for the coalition's minimum member gain over the
    /// whole sweep (every member's gain lies above its `lo`).
    pub gain: ConfidenceInterval,
    /// Scheduler kind of the witnessing run.
    pub kind: SchedulerKind,
    /// Seed of the witnessing run.
    pub seed: u64,
    /// Resolved action profile of the honest run in the same grid cell.
    pub baseline_profile: Vec<usize>,
    /// Resolved action profile of the deviant run.
    pub deviant_profile: Vec<usize>,
    /// Index of the witnessing `(strategy, coalition)` unit in
    /// [`sweep_units`] order — the recipe the sharded coordinator leases
    /// back out to re-enact the witness cell.
    pub unit: usize,
    /// Flat run index of the witnessing cell within its unit's grid
    /// (kind-major, seed-minor; decodes via
    /// [`Conformance::resolved_battery`]).
    pub run: usize,
}

impl fmt::Display for DeviationWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coalition {:?} playing '{}' gains {:.4} (95% CI [{:.4}, {:.4}]); \
             witness run: {:?} seed {} turns {:?} into {:?}",
            self.coalition,
            self.strategy,
            self.gain.mean,
            self.gain.lo,
            self.gain.hi,
            self.kind,
            self.seed,
            self.baseline_profile,
            self.deviant_profile,
        )
    }
}

/// The harness's decision.
#[derive(Debug, Clone)]
pub enum ConformanceVerdict {
    /// No generated coalition strategy gains more than ε, up to the
    /// reported statistical bound.
    Resilient {
        /// Largest upper confidence bound on any cell's gain.
        max_gain_hi: f64,
        /// Largest upper confidence bound on any cell's honest harm.
        max_harm_hi: f64,
    },
    /// A strategy whose gain lower bound clears ε: a profitable deviation.
    Violated(DeviationWitness),
    /// Some cell's interval straddles ε — more seeds needed to decide.
    Inconclusive {
        /// The undecidable strategy.
        strategy: String,
        /// Its coalition.
        coalition: Vec<usize>,
        /// The straddling interval.
        gain: ConfidenceInterval,
    },
}

/// The result of a conformance sweep.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The ε bound checked.
    pub eps: f64,
    /// Coalition bound swept.
    pub k: usize,
    /// Malicious bound recorded.
    pub t: usize,
    /// Scheduler kinds swept.
    pub kinds: usize,
    /// Seeds per kind.
    pub seeds_per_kind: u64,
    /// Honest per-player expected utilities.
    pub baseline: Vec<ConfidenceInterval>,
    /// Every swept (strategy × coalition) cell.
    pub cells: Vec<ConformanceCell>,
    /// The decision.
    pub verdict: ConformanceVerdict,
}

impl ConformanceReport {
    /// Whether the sweep certified ε-k-resilience.
    pub fn is_resilient(&self) -> bool {
        matches!(self.verdict, ConformanceVerdict::Resilient { .. })
    }

    /// The witnessing deviation, if the sweep found one.
    pub fn witness(&self) -> Option<&DeviationWitness> {
        match &self.verdict {
            ConformanceVerdict::Violated(w) => Some(w),
            _ => None,
        }
    }

    /// The largest gain point estimate across the sweep.
    pub fn max_gain(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.gain.mean)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Renders the report as a JSON document through the crate's one JSON
    /// writer ([`crate::report`]), the form the sharded-sweep parity
    /// suites compare byte for byte. Every float carries its exact
    /// `f64::to_bits` hex, so equal text means bit-identical reports; a
    /// violated verdict's witness renders as in `FRONTIER.json`.
    pub fn to_json(&self) -> String {
        let verdict = match &self.verdict {
            ConformanceVerdict::Resilient {
                max_gain_hi,
                max_harm_hi,
            } => object!(0;
                "kind": "resilient", "max_gain_hi": max_gain_hi, "max_harm_hi": max_harm_hi),
            ConformanceVerdict::Violated(w) => {
                object!(0; "kind": "violated", "gain": w.gain, "witness": w)
            }
            ConformanceVerdict::Inconclusive {
                strategy,
                coalition,
                gain,
            } => object!(0;
                "kind": "inconclusive", "strategy": strategy, "coalition": coalition, "gain": gain),
        };
        let cells = self.cells.iter().map(|c| {
            object!(0; "strategy": c.strategy, "coalition": c.coalition, "gain": c.gain,
                "harm": c.harm)
        });
        object!(document;
            "eps": self.eps, "k": self.k, "t": self.t, "kinds": self.kinds,
                "seeds_per_kind": self.seeds_per_kind, "z": Z;
            "verdict": verdict;
            "baseline": self.baseline;
            "cells": block(2, cells))
    }
}

impl ToJson for ConfidenceInterval {
    fn json(&self) -> String {
        object!(0; "mean": self.mean, "lo": self.lo, "hi": self.hi, "samples": self.samples).0
    }
}

/// The one rendering of a witness, shared by the conformance report and
/// `FRONTIER.json`.
impl ToJson for DeviationWitness {
    fn json(&self) -> String {
        let scheduler = format!("{:?}", self.kind);
        object!(0; "strategy": self.strategy, "coalition": self.coalition, "scheduler": scheduler,
            "seed": self.seed, "unit": self.unit, "run": self.run, "gain": self.gain.mean,
            "baseline_profile": self.baseline_profile, "deviant_profile": self.deviant_profile)
        .0
    }
}

/// Componentwise minimum of several intervals: a sound (conservative)
/// interval for `min_i X_i` — the minimum lies below every `hi_i` and
/// above `min(lo_i)`.
fn interval_min(cis: &[ConfidenceInterval]) -> ConfidenceInterval {
    ConfidenceInterval {
        mean: cis.iter().map(|c| c.mean).fold(f64::INFINITY, f64::min),
        lo: cis.iter().map(|c| c.lo).fold(f64::INFINITY, f64::min),
        hi: cis.iter().map(|c| c.hi).fold(f64::INFINITY, f64::min),
        samples: cis.iter().map(|c| c.samples).min().unwrap_or(0),
    }
}

/// Componentwise maximum of several intervals (sound for `max_i X_i`).
fn interval_max(cis: &[ConfidenceInterval]) -> ConfidenceInterval {
    ConfidenceInterval {
        mean: cis.iter().map(|c| c.mean).fold(f64::NEG_INFINITY, f64::max),
        lo: cis.iter().map(|c| c.lo).fold(f64::NEG_INFINITY, f64::max),
        hi: cis.iter().map(|c| c.hi).fold(f64::NEG_INFINITY, f64::max),
        samples: cis.iter().map(|c| c.samples).min().unwrap_or(0),
    }
}

/// Per-run utility samples from resolved action profiles, indexed
/// `[player][run]` — the grid both sides of a paired comparison share.
/// Profiles (not outcomes) are the unit of exchange: they are what shard
/// workers ship back, and utilities are a pure function of them, so the
/// sharded and local pipelines compute bit-identical floats.
fn profile_utility_grid(
    profiles: &[Vec<usize>],
    game: &BayesianGame,
    types: &[usize],
) -> Vec<Vec<f64>> {
    let samples: Vec<(Vec<usize>, Vec<usize>)> = profiles
        .iter()
        .map(|p| (types.to_vec(), p.clone()))
        .collect();
    mediator_games::stats::utility_samples(game, &samples)
}

/// Renders a conformance report from the per-unit profile grids — the
/// single verdict pipeline shared by the local thread fan-out and the
/// sharded coordinator. `units` must be in [`sweep_units`] order (baseline
/// first); `profiles[i]` is unit `i`'s grid in kind-major, seed-minor run
/// order.
pub fn render_sweep_report(
    game: &BayesianGame,
    types: &[usize],
    cfg: &Conformance,
    units: &[SweepUnit],
    profiles: &[Vec<Vec<usize>>],
) -> ConformanceReport {
    let n = game.n();
    assert_eq!(types.len(), n, "type profile arity");
    assert_eq!(units.len(), profiles.len(), "one profile grid per unit");
    assert!(
        matches!(units.first(), Some(u) if u.strategy.is_none()),
        "unit 0 must be the honest baseline"
    );
    let battery = cfg.resolved_battery(n);

    let base_profiles = &profiles[0];
    let base_u = profile_utility_grid(base_profiles, game, types);
    let baseline: Vec<ConfidenceInterval> = base_u.iter().map(|xs| mean_ci(xs, Z)).collect();

    let mut cells = Vec::new();
    let mut witness: Option<DeviationWitness> = None;
    let mut inconclusive: Option<(String, Vec<usize>, ConfidenceInterval)> = None;
    let mut max_gain_hi = f64::NEG_INFINITY;
    let mut max_harm_hi = f64::NEG_INFINITY;

    for (uidx, (unit, dev_profiles)) in units.iter().zip(profiles).enumerate().skip(1) {
        let strategy = unit
            .strategy
            .clone()
            .expect("deviant units carry a strategy");
        let coalition = &unit.coalition;
        let dev_u = profile_utility_grid(dev_profiles, game, types);
        let runs = dev_profiles.len();
        assert_eq!(runs, base_profiles.len(), "paired grids must align");

        // Paired per-member gains: same (kind, seed) cell on each side.
        let member_gains: Vec<ConfidenceInterval> = coalition
            .iter()
            .map(|&m| paired_gain_ci(&dev_u[m], &base_u[m], Z))
            .collect();
        // The resilience criterion needs **every** member to gain, so
        // the cell's gain is the minimum over members — taken
        // componentwise, which is a sound interval for that minimum:
        // min(lo_m) bounds it below (a violation needs every member's
        // lower bound past ε) and min(hi_m) above (one member surely
        // ≤ ε kills the coalition's joint profit).
        let gain = interval_min(&member_gains);
        // Immunity side: the worst honest player's paired loss —
        // componentwise max over players, for the same reason.
        let honest_harms: Vec<ConfidenceInterval> = (0..n)
            .filter(|p| !coalition.contains(p))
            .map(|p| paired_gain_ci(&base_u[p], &dev_u[p], Z))
            .collect();
        let harm = if honest_harms.is_empty() {
            ConfidenceInterval::point(0.0, runs)
        } else {
            interval_max(&honest_harms)
        };

        max_gain_hi = max_gain_hi.max(gain.hi);
        max_harm_hi = max_harm_hi.max(harm.hi);

        if gain.lo > cfg.eps && witness.is_none() {
            // Locate the grid cell realizing the largest joint gain.
            let best = (0..runs)
                .max_by(|&a, &b| {
                    let ga = coalition
                        .iter()
                        .map(|&m| dev_u[m][a] - base_u[m][a])
                        .fold(f64::INFINITY, f64::min);
                    let gb = coalition
                        .iter()
                        .map(|&m| dev_u[m][b] - base_u[m][b])
                        .fold(f64::INFINITY, f64::min);
                    ga.partial_cmp(&gb).expect("finite utilities")
                })
                .expect("non-empty run set");
            let seeds = cfg.seeds as usize;
            witness = Some(DeviationWitness {
                strategy: strategy.clone(),
                coalition: coalition.clone(),
                gain,
                kind: battery[best / seeds].clone(),
                seed: (best % seeds) as u64,
                baseline_profile: base_profiles[best].clone(),
                deviant_profile: dev_profiles[best].clone(),
                unit: uidx,
                run: best,
            });
        } else if gain.hi > cfg.eps && gain.lo <= cfg.eps && inconclusive.is_none() {
            inconclusive = Some((strategy.clone(), coalition.clone(), gain));
        }

        cells.push(ConformanceCell {
            strategy,
            coalition: coalition.clone(),
            gain,
            member_gains,
            harm,
        });
    }

    let verdict = if let Some(w) = witness {
        ConformanceVerdict::Violated(w)
    } else if let Some((strategy, coalition, gain)) = inconclusive {
        ConformanceVerdict::Inconclusive {
            strategy,
            coalition,
            gain,
        }
    } else {
        ConformanceVerdict::Resilient {
            max_gain_hi,
            max_harm_hi,
        }
    };

    ConformanceReport {
        eps: cfg.eps,
        k: cfg.k,
        t: cfg.t,
        kinds: battery.len(),
        seeds_per_kind: cfg.seeds,
        baseline,
        cells,
        verdict,
    }
}

/// Shared sweep core: decomposes into [`sweep_units`], runs every unit's
/// grid through the local batch runner, and renders the verdict — the
/// exact pipeline the sharded coordinator replays with remote workers in
/// place of the local loop.
pub(crate) fn sweep<F: GameFamily>(
    plan: &Plan<F>,
    game: &BayesianGame,
    types: &[usize],
    cfg: &Conformance,
) -> ConformanceReport {
    let n = plan.players();
    assert_eq!(game.n(), n, "game and plan disagree on player count");
    assert_eq!(types.len(), game.n(), "type profile arity");
    let units = sweep_units(plan, cfg);
    let profiles: Vec<Vec<Vec<usize>>> = units
        .iter()
        .map(|u| run_sweep_unit(plan, u, cfg).expect("sweep_units only names existing cells"))
        .collect();
    render_sweep_report(game, types, cfg, &units, &profiles)
}

/// Every caller of the cell generators has checked the coalition against
/// the plan's players, and the battery's lies take the circuit's arity.
const MEMBERS_ARE_PLAYERS: &str = "the battery fits the plan's players and input arities";

/// The generated deviant cells of a cheap-talk plan for one coalition
/// ([`GameFamily::deviant_cells`]): every coalition member runs one
/// [`generated_battery`] strategy's behavior.
pub(crate) fn cheap_talk_cells(
    plan: &CheapTalkPlan,
    coalition: &[usize],
) -> Vec<(String, CheapTalkPlan)> {
    generated_battery(plan.spec().circuit.inputs_per_player(), coalition)
        .into_iter()
        .map(|(name, members)| {
            let p = members
                .into_iter()
                .try_fold(plan.clone(), |p, (m, behavior)| p.with_deviant(m, behavior))
                .expect(MEMBERS_ARE_PLAYERS);
            (name, p)
        })
        .collect()
}

/// The generated deviant cells of a mediator-game plan for one coalition
/// ([`GameFamily::deviant_cells`]): gossip-clique colluders under each
/// [`collusion_battery`] rule, re-bound to `cfg`'s deadlock action, plus
/// the honest player sending through a [`TacticState`].
pub(crate) fn mediator_cells(
    plan: &MediatorPlan,
    coalition: &[usize],
    cfg: &Conformance,
) -> Vec<(String, MediatorPlan)> {
    let n = plan.players();
    let wills = plan.spec().wills.clone();
    let inputs: Vec<Vec<Fp>> = plan.inputs().to_vec();
    let deadlock = cfg.deadlock_action;
    let mut cells: Vec<(String, MediatorPlan)> = Vec::new();
    let will_of = |m: usize| -> Action {
        deadlock
            .or_else(|| wills.as_ref().map(|w| w[m]))
            .unwrap_or(0)
    };
    // Gossip-clique colluders under each collusion rule. The battery
    // enumerates the rule *shapes*; the deadlock will is re-bound per
    // member (each member deadlocks with its own preferred action).
    for shape in collusion_battery(0) {
        let mut p = plan.clone();
        for &m in coalition {
            let partners: Vec<ProcessId> = coalition.iter().copied().filter(|&q| q != m).collect();
            let rule = match shape {
                CollusionRule::DeadlockOnBit { trigger, .. } => CollusionRule::DeadlockOnBit {
                    trigger,
                    will: will_of(m),
                },
                CollusionRule::AlwaysDeadlock { .. } => {
                    CollusionRule::AlwaysDeadlock { will: will_of(m) }
                }
                CollusionRule::AlwaysCooperate => CollusionRule::AlwaysCooperate,
            };
            let base_will = will_of(m);
            let input = inputs[m].clone();
            p = p
                .with_deviant(m, move || {
                    Box::new(
                        GossipColluder::new(n, partners.clone(), rule, base_will)
                            .with_input(input.clone()),
                    )
                })
                .expect(MEMBERS_ARE_PLAYERS);
        }
        cells.push((shape.name(), p));
    }
    // Message-level tampering of the honest strategy.
    for deviation in [
        Deviation::named("drop-acks").drop_between(1, u64::MAX),
        Deviation::named("delay-input").delay(0, 1, 2),
    ] {
        let (name, behavior) = deviation.build();
        let mut p = plan.clone();
        for &m in coalition {
            let input = inputs[m].clone();
            let will = wills.as_ref().map(|w| w[m]);
            let steps = behavior.tactics.clone();
            p = p
                .with_deviant(m, move || {
                    Box::new(
                        crate::mediator::HonestMedPlayer::new(n, input.clone(), will)
                            .with_tactics(steps.clone()),
                    )
                })
                .expect(MEMBERS_ARE_PLAYERS);
        }
        cells.push((name, p));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(v: u64) -> MedMsg {
        MedMsg::Input {
            round: 0,
            value: vec![Fp::new(v)],
        }
    }

    #[test]
    fn windows_contain_expected_indices() {
        assert!(Window::all().contains(0));
        assert!(Window::all().contains(u64::MAX - 1));
        assert!(!Window::starting(5).contains(4));
        assert!(Window::starting(5).contains(5));
        let w = Window::between(2, 4);
        assert!(!w.contains(1) && w.contains(2) && w.contains(3) && !w.contains(4));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn window_rejects_inverted_bounds() {
        Window::between(4, 2);
    }

    fn tactics(deviation: Deviation) -> TacticState<MedMsg> {
        TacticState::new(deviation.build().1.tactics)
    }

    #[test]
    fn tactic_state_drop_window() {
        let mut t = tactics(Deviation::named("d").drop_between(1, 3));
        assert!(t.route(0, msg(1)).is_some());
        assert!(t.route(0, msg(2)).is_none());
        assert!(t.route(0, msg(3)).is_none());
        assert!(t.route(0, msg(4)).is_some());
        assert!(t.held.is_empty(), "a drop holds nothing");
    }

    #[test]
    fn tactic_state_abort_is_permanent() {
        let mut t = tactics(Deviation::named("a").abort_at(2));
        assert!(t.route(0, msg(1)).is_some());
        assert!(t.route(0, msg(2)).is_some());
        for _ in 0..5 {
            assert!(t.route(0, msg(3)).is_none());
        }
    }

    #[test]
    fn tactic_state_selective_silence_and_equivocation() {
        let mut t = tactics(
            Deviation::named("s")
                .silence_toward([2], 0)
                .equivocate([1], 5),
        );
        // To 0: untouched. To 1: corrupted. To 2: dropped.
        match t.route(0, msg(10)) {
            Some(MedMsg::Input { value, .. }) => assert_eq!(value[0], Fp::new(10)),
            other => panic!("expected clean delivery, got {other:?}"),
        }
        match t.route(1, msg(10)) {
            Some(MedMsg::Input { value, .. }) => assert_eq!(value[0], Fp::new(15)),
            other => panic!("expected corrupted delivery, got {other:?}"),
        }
        assert!(t.route(2, msg(10)).is_none());
    }

    #[test]
    fn tactic_state_delay_holds_then_releases() {
        let mut t = tactics(Deviation::named("d").delay(0, 2, 4));
        assert!(t.route(0, msg(1)).is_none());
        assert!(t.route(0, msg(2)).is_none());
        assert_eq!(t.held.len(), 2);
        assert!(!t.due(), "send counter 2 < release 4");
        assert!(t.route(0, msg(3)).is_some());
        assert!(t.route(0, msg(4)).is_some());
        assert!(t.due(), "send counter reached release point");
        assert!(!t.due(), "release fires once");
    }

    #[test]
    fn an_aborted_deviator_never_releases() {
        let mut t = tactics(Deviation::named("d").delay(0, 1, 2).abort_at(2));
        assert!(t.route(0, msg(1)).is_none());
        assert!(t.route(0, msg(2)).is_some());
        assert!(t.route(0, msg(3)).is_none(), "aborted at send 2");
        assert_eq!(t.held.len(), 1);
        assert!(!t.due());
    }

    #[test]
    fn corrupt_only_touches_value_messages() {
        let stop = MedMsg::Stop { action: 3 };
        assert_eq!(stop.clone().corrupt(9), stop);
        let inp = msg(1).corrupt(9);
        match inp {
            MedMsg::Input { value, .. } => assert_eq!(value[0], Fp::new(10)),
            other => panic!("unexpected {other:?}"),
        }
        use crate::cheap_talk::CtMsg;
        let fin = CtMsg::Finished.corrupt(9);
        assert_eq!(fin, CtMsg::Finished);
        let open = CtMsg::Mpc(MpcMsg::Open {
            id: 4,
            value: Fp::new(1),
        })
        .corrupt(9);
        assert_eq!(
            open,
            CtMsg::Mpc(MpcMsg::Open {
                id: 4,
                value: Fp::new(10)
            })
        );
    }

    #[test]
    fn generated_battery_names_are_distinct_and_victims_exclude_coalition() {
        let battery = generated_battery(&[1; 5], &[1]);
        let names: BTreeSet<&str> = battery.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), battery.len(), "duplicate strategy names");
        for (name, members) in &battery {
            assert_eq!(members.iter().map(|m| m.0).collect::<Vec<_>>(), [1]);
            for s in &members[0].1.tactics {
                let victims = match &s.primitive {
                    Primitive::SilenceToward(v) => v.clone(),
                    Primitive::Equivocate { victims, .. } => victims.clone(),
                    _ => continue,
                };
                assert!(!victims.contains(&1), "{name}: coalition member victimized");
            }
        }
    }

    #[test]
    fn interval_min_requires_every_member_bound() {
        // One member's gain is certain (0.5), the other's straddles zero:
        // the coalition's min-gain interval must NOT clear ε — declaring a
        // violation on the certain member alone would contradict the
        // every-member-gains criterion.
        let certain = ConfidenceInterval {
            mean: 0.5,
            lo: 0.5,
            hi: 0.5,
            samples: 10,
        };
        let shaky = ConfidenceInterval {
            mean: 0.6,
            lo: -0.4,
            hi: 1.6,
            samples: 10,
        };
        let min = interval_min(&[certain, shaky]);
        assert_eq!(min.mean, 0.5);
        assert_eq!(min.lo, -0.4, "violation gated on every member's lo");
        assert_eq!(min.hi, 0.5, "one surely-bounded member caps the joint gain");
        let max = interval_max(&[certain, shaky]);
        assert_eq!((max.lo, max.hi), (0.5, 1.6));
    }

    #[test]
    fn cooperating_colluders_ack_multi_round_mediators() {
        // A naive mediator with an extra content-free round requires all n
        // acks for *every* round: cooperating colluders must ack rounds
        // past the leak round or even the control arm would deadlock the
        // game and the cooperate-vs-deadlock comparison would be vacuous.
        use mediator_circuits::catalog;
        let n = 4;
        let plan = crate::scenario::Scenario::mediator(catalog::counterexample_naive(n))
            .players(n)
            .tolerance(1, 0)
            .naive_split()
            .extra_rounds(1)
            .wills(vec![2; n])
            .deviant(0, move || {
                Box::new(GossipColluder::new(
                    n,
                    [1],
                    CollusionRule::AlwaysCooperate,
                    2,
                ))
            })
            .deviant(1, move || {
                Box::new(GossipColluder::new(
                    n,
                    [0],
                    CollusionRule::AlwaysCooperate,
                    2,
                ))
            })
            .build()
            .expect("n − k − t ≥ 1");
        for seed in 0..4 {
            let out = plan.run_with(&SchedulerKind::Random, seed);
            let moves: Vec<_> = out.moves[..n].to_vec();
            let b = moves[0].expect("cooperating colluder must reach STOP");
            assert!(b < 2, "coin bit");
            for (p, m) in moves.iter().enumerate() {
                assert_eq!(*m, Some(b), "player {p} seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn sweep_rejects_empty_coalitions() {
        use mediator_circuits::catalog;
        let n = 5;
        let game = mediator_games::library::byzantine_agreement_game(n);
        let plan = crate::scenario::Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("5 > 4");
        let _ = plan.conformance(
            &game,
            &vec![1; n],
            &Conformance::new(0.05, 1, 0).coalitions(vec![vec![]]),
        );
    }

    #[test]
    fn corrected_lies_neither_gain_nor_harm_in_the_ba_game() {
        // n = 5, k = 1 robust cheap talk playing the BA game, player 2
        // deviating. Silent / refusing deviations DO harm here (unanimity
        // breaks when the deviator does not move — a property of the game,
        // which the mediator game shares); the lies must not: openings are
        // corrected by OEC, and one flipped vote cannot move a unanimous
        // majority.
        use mediator_circuits::catalog;
        let n = 5;
        let game = mediator_games::library::byzantine_agreement_game(n);
        let plan = crate::scenario::Scenario::cheap_talk(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("5 > 4");
        let report = plan.conformance(
            &game,
            &vec![1; n],
            &Conformance::new(0.05, 1, 0)
                .battery(vec![SchedulerKind::Random])
                .seeds(4)
                .coalitions(vec![vec![2]]),
        );
        // The five classic deviations lead the generated battery.
        let names: Vec<&str> = report.cells.iter().map(|c| c.strategy.as_str()).collect();
        assert_eq!(
            names[..5],
            [
                "silent",
                "crash-mid",
                "lie-input",
                "lie-opens",
                "refuse-move"
            ]
        );
        for name in ["lie-opens", "lie-input"] {
            let cell = report.cells.iter().find(|c| c.strategy == name).unwrap();
            assert!(cell.gain.hi <= 1e-9, "{name} gains {:?}", cell.gain);
            assert!(cell.harm.hi <= 1e-9, "{name} harms {:?}", cell.harm);
        }
        let silent = &report.cells[0];
        assert!(silent.harm.lo > 0.5, "not moving breaks unanimity");
        // ... and costs the honest players exactly as much in the mediator
        // game: the harm is the game's, not the cheap talk's.
        let mediated = crate::scenario::Scenario::mediator(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .deviant(2, || Box::new(crate::deviations::SilentProcess))
            .build()
            .expect("n − k − t ≥ 1")
            .seeds(0..4)
            .run_batch();
        for out in mediated.outcomes() {
            let honest = game.utilities(&vec![1; n], &mediated.profile(out))[0];
            assert_eq!(1.0 - honest, silent.harm.mean);
        }
    }

    #[test]
    fn collusion_battery_covers_both_triggers_and_control() {
        let rules = collusion_battery(2);
        assert_eq!(rules.len(), 4);
        let names: BTreeSet<String> = rules.iter().map(CollusionRule::name).collect();
        assert!(names.contains("deadlock-if-bit=0"));
        assert!(names.contains("deadlock-if-bit=1"));
        assert!(names.contains("always-deadlock"));
        assert!(names.contains("pool-then-cooperate"));
    }
}
