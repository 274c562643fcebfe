//! The MPC engine state machine.

use crate::config::{Mode, MpcConfig};
use crate::msg::MpcMsg;
use mediator_bcast::{Acs, IdealCoin};
use mediator_circuits::{Circuit, Gate};
use mediator_field::Fp;
use mediator_sim::sansio::{Outgoing, SansIo};
use mediator_sim::PartySet;
use mediator_vss::avss::{self, AvssState};
use mediator_vss::detect::{deal_detectable, DetectState, Verdict};
use mediator_vss::OecState;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// How an engine's run ended: its one output to the embedding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcEvent {
    /// Finished; the player's private output values, in declaration order.
    Done(Vec<Fp>),
    /// ε-mode abort: cheating detected but not correctable.
    Aborted,
}

/// Where one engine is in the protocol. Phases only move forward, and
/// only [`MpcEngine::advance`] moves them.
#[derive(Debug)]
enum Phase {
    /// Dealing and core agreement, as one phase: each dealing is voted on
    /// as it completes here. Ends once the core is fixed and every member's
    /// dealing has a standing here.
    Agree,
    /// Evaluating the circuit over the agreed `core`: `pc` is the next
    /// gate, `pending` the interaction it is blocked on.
    Evaluate {
        core: Vec<usize>,
        pc: usize,
        pending: Option<PendingGate>,
    },
    /// Every gate evaluated and my output points sent: reconstructing the
    /// outputs I own.
    Output,
    /// Finished with my outputs, in declaration order.
    Done(Vec<Fp>),
    /// ε mode: an opening holds all `n` points and no candidate.
    Aborted,
}

/// What one dealer's dealing is worth here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Standing {
    /// Not complete here yet.
    Pending,
    /// Complete with the agreed arity: voted in, and my shares are read
    /// from it.
    Usable,
    /// ε mode: consistent, but my own share failed its check: voted in,
    /// and unusable here.
    ShareBad,
    /// Of the wrong arity, or (ε mode) from a detected bad dealer: voted
    /// out.
    Rejected,
}

/// The `n` dealers' sharing instances, of the mode's kind.
enum Sharings {
    /// Robust mode: one AVSS per dealer.
    Avss(Vec<AvssState>),
    /// ε mode: one detectable sharing per dealer.
    Detect(Vec<DetectState>),
}

/// One public opening in flight.
#[derive(Debug, Clone)]
struct OpenRec {
    oec: OecState,
    senders: PartySet,
    value: Option<Fp>,
}

/// The slot of one opening id the circuit can make.
#[derive(Debug, Clone)]
enum OpenSlot {
    /// Not reached here yet: the points that arrived first, at most one
    /// per sender.
    Early(Vec<(usize, Fp)>),
    /// Reached: the reconstruction in progress, or done.
    Open(OpenRec),
}

/// A multiplication in flight (masked public opening).
#[derive(Debug, Clone)]
struct MulRun {
    open_id: usize,
    r_share: Fp,
}

/// Stage of a RandBit gate's sub-protocol.
#[derive(Debug, Clone)]
enum RbStage {
    Idle,
    CheckMul { mul: MulRun, b_share: Fp },
    CheckValue { open_id: usize, b_share: Fp },
    FoldMul { mul: MulRun, b_share: Fp, acc: Fp },
}

/// Runtime state of one RandBit gate.
#[derive(Debug, Clone)]
struct RandBitRun {
    ordinal: usize,
    pos: usize,
    stage: RbStage,
    acc: Option<Fp>,
}

/// A blocked gate.
#[derive(Debug, Clone)]
enum PendingGate {
    Mul(MulRun),
    RandBit(RandBitRun),
}

/// One player's engine for one MPC execution, driven through [`SansIo`].
/// See the crate docs for the protocol description.
pub struct MpcEngine {
    cfg: Arc<MpcConfig>,
    circuit: Arc<Circuit>,
    me: usize,
    /// My circuit inputs, until `on_start` deals them.
    inputs: Vec<Fp>,
    // Per-circuit derived counts.
    /// Per gate, its place among the circuit's gates of its kind (`Rand`
    /// or `RandBit`); 0 for the other gates.
    ordinals: Vec<usize>,
    num_rand: usize,
    num_rb: usize,
    mask_budget: usize,
    phase: Phase,
    // Dealing and core agreement.
    sharings: Sharings,
    standing: Vec<Standing>,
    acs: Acs,
    /// Whether some core member's dealing is not usable here, fixed as
    /// evaluation starts: then I evaluate along without sending.
    tainted: bool,
    // Evaluation.
    /// Gate values, pushed in gate order.
    wires: Vec<Fp>,
    next_mask: usize,
    /// One slot per opening id the circuit can make, `0..next_open` reached.
    opens: Vec<OpenSlot>,
    next_open: usize,
    /// The output indices this player owns, ascending, each with its
    /// reconstruction.
    outputs: Vec<(usize, OecState)>,
}

impl MpcEngine {
    /// Creates the engine for player `me` contributing `inputs`. The
    /// configuration is shared: pass an `Arc<MpcConfig>` (or a plain
    /// `MpcConfig`, converted for you) so the n engines of one execution
    /// bump a refcount instead of deep-cloning the defaults table per
    /// player.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates its mode's thresholds
    /// (see [`MpcConfig::validate`]), or `inputs` is not of `me`'s arity.
    pub fn new(
        cfg: impl Into<Arc<MpcConfig>>,
        circuit: Arc<Circuit>,
        me: usize,
        inputs: Vec<Fp>,
    ) -> Self {
        let cfg: Arc<MpcConfig> = cfg.into();
        cfg.validate(circuit.inputs_per_player());
        let n = cfg.n;
        assert_eq!(n, circuit.num_players(), "config/circuit player mismatch");
        assert_eq!(
            inputs.len(),
            circuit.inputs_per_player()[me],
            "input arity mismatch"
        );
        let (mut num_rand, mut num_rb) = (0usize, 0usize);
        let ordinals = (circuit.gates().iter())
            .map(|g| {
                let count = match g {
                    Gate::Rand => &mut num_rand,
                    Gate::RandBit => &mut num_rb,
                    _ => return 0,
                };
                *count += 1;
                *count - 1
            })
            .collect();
        let mask_budget = circuit.mul_count() + 2 * n * num_rb;
        // A multiplication opens once; a RandBit opens at most three times
        // per core member (its bit check's product, the check's value and
        // the fold's product). No honest player opens an id past these.
        let max_opens = circuit.mul_count() + 3 * n * num_rb;
        // Robust mode validates t = f; ε mode agrees at t (see `Acs`).
        let acs = Acs::new(n, cfg.t, cfg.f, &IdealCoin::new(cfg.coin_seed));
        let sharings = match cfg.mode {
            Mode::Robust => Sharings::Avss((0..n).map(|d| AvssState::new(n, cfg.f, d)).collect()),
            Mode::Epsilon { kappa } => Sharings::Detect(
                (0..n)
                    .map(|d| DetectState::new(n, cfg.f, cfg.t, me, d, kappa, cfg.coin_seed))
                    .collect(),
            ),
        };
        let outputs = (circuit.outputs().iter().enumerate())
            .filter(|(_, &(p, _))| p == me)
            .map(|(idx, _)| (idx, OecState::new(cfg.f, cfg.t)))
            .collect();
        MpcEngine {
            cfg,
            me,
            inputs,
            ordinals,
            num_rand,
            num_rb,
            mask_budget,
            phase: Phase::Agree,
            sharings,
            standing: vec![Standing::Pending; n],
            acs,
            tainted: false,
            wires: Vec::with_capacity(circuit.gates().len()),
            next_mask: 0,
            opens: vec![OpenSlot::Early(Vec::new()); max_opens],
            next_open: 0,
            outputs,
            circuit,
        }
    }

    /// The agreed input core, once decided.
    pub fn core(&self) -> Option<&[usize]> {
        self.acs.core()
    }

    /// Number of coordinates each dealer shares: its inputs first, then its
    /// randomness contributions and masks. The final coordinate is a
    /// dummy pad so the dealing is never empty (a dealer with no inputs and
    /// a randomness-free circuit still needs a live AVSS/detect instance to
    /// be votable into the core).
    fn vec_len(&self, dealer: usize) -> usize {
        self.circuit.inputs_per_player()[dealer]
            + self.num_rand
            + self.num_rb
            + 2 * self.mask_budget
            + 1
    }

    fn rand_coord(&self, dealer: usize, g: usize) -> usize {
        self.circuit.inputs_per_player()[dealer] + g
    }
    fn rb_coord(&self, dealer: usize, g: usize) -> usize {
        self.circuit.inputs_per_player()[dealer] + self.num_rand + g
    }
    fn mask_coord(&self, dealer: usize, m: usize) -> usize {
        self.circuit.inputs_per_player()[dealer] + self.num_rand + self.num_rb + m
    }

    /// A point of opening `id` from `from`. An id the circuit can never
    /// open is dropped, and so is a second early point from one sender: a
    /// byzantine player can make an engine hold at most `n` early points
    /// per opening the circuit makes, however much it sends.
    fn on_open(&mut self, from: usize, id: u64, value: Fp) {
        let id = usize::try_from(id).unwrap_or(usize::MAX);
        let Some(slot) = self.opens.get_mut(id) else {
            return;
        };
        match slot {
            OpenSlot::Open(rec) => {
                rec.senders.insert(from);
                if rec.value.is_none() {
                    rec.value = rec.oec.add_share(from, value);
                }
            }
            OpenSlot::Early(points) => {
                if points.iter().all(|&(sender, _)| sender != from) {
                    points.push((from, value));
                }
            }
        }
    }

    /// The standing of `dealer`'s dealing, completed here with `len`
    /// shares: usable when that is the agreed arity, voted out otherwise.
    fn completed(&self, dealer: usize, len: usize) -> Standing {
        if len == self.vec_len(dealer) {
            Standing::Usable
        } else {
            Standing::Rejected
        }
    }

    /// Records `dealer`'s standing and votes it in or out of the core.
    fn judge(&mut self, dealer: usize, standing: Standing, out: &mut Vec<Outgoing<MpcMsg>>) {
        self.standing[dealer] = standing;
        self.acs.vote(dealer, standing != Standing::Rejected, out);
    }

    /// My shares of `dealer`'s dealing, when it is usable here.
    fn dealing(&self, dealer: usize) -> Option<&[Fp]> {
        if self.standing[dealer] != Standing::Usable {
            return None;
        }
        match &self.sharings {
            Sharings::Avss(avss) => avss[dealer].shares(),
            Sharings::Detect(detect) => detect[dealer].shares(),
        }
    }

    // ---- phases ----

    /// Moves through every phase whose exit condition holds now, and
    /// returns the run's end if this call reached it. The only place the
    /// phase changes. It runs only on a live engine, so an end met here
    /// was reached in this call.
    fn advance(&mut self, out: &mut Vec<Outgoing<MpcMsg>>) -> Option<MpcEvent> {
        loop {
            match &mut self.phase {
                Phase::Agree => {
                    let core = self.acs.core()?;
                    if core.iter().any(|&d| self.standing[d] == Standing::Pending) {
                        return None;
                    }
                    // A core member's dealing I cannot use (ε mode: my
                    // share failed its check, or I judged its dealer bad)
                    // leaves me no valid share of anything the core sums:
                    // I evaluate along, sending nothing. A dealing outside
                    // the core is never read.
                    self.tainted = core.iter().any(|&d| self.standing[d] != Standing::Usable);
                    self.phase = Phase::Evaluate {
                        core: core.to_vec(),
                        pc: 0,
                        pending: None,
                    };
                }
                Phase::Evaluate { core, pc, pending } => {
                    let (core, pc, pending) = (std::mem::take(core), *pc, pending.take());
                    self.phase = self.evaluate(core, pc, pending, out);
                    if let Phase::Evaluate { .. } = self.phase {
                        return None;
                    }
                }
                Phase::Output => {
                    if !self.outputs.iter().all(|(_, oec)| oec.secret().is_some()) {
                        return None;
                    }
                    let outputs = self.outputs.iter().filter_map(|(_, oec)| oec.secret());
                    self.phase = Phase::Done(outputs.collect());
                }
                Phase::Done(outputs) => return Some(MpcEvent::Done(outputs.clone())),
                Phase::Aborted => return Some(MpcEvent::Aborted),
            }
        }
    }

    /// Runs gates from `pc` until one blocks; once every gate has a value,
    /// sends my output points and moves to `Output`.
    fn evaluate(
        &mut self,
        core: Vec<usize>,
        mut pc: usize,
        mut pending: Option<PendingGate>,
        out: &mut Vec<Outgoing<MpcMsg>>,
    ) -> Phase {
        // Clone the circuit handle (refcount bump), not the gate list: this
        // runs once per delivered message.
        let circuit = Arc::clone(&self.circuit);
        while let Some(&gate) = circuit.gates().get(pc) {
            // A blocked gate resumes its own run; the gate decides only
            // what a fresh one does.
            let value = match (pending.take(), gate) {
                (Some(run), _) => self.poll(&core, run, out),
                (None, Gate::Mul(a, b)) => {
                    let mul = self.start_mul(&core, self.wires[a], self.wires[b], out);
                    self.poll(&core, PendingGate::Mul(mul), out)
                }
                (None, Gate::RandBit) => {
                    let run = RandBitRun {
                        ordinal: self.ordinals[pc],
                        pos: 0,
                        stage: RbStage::Idle,
                        acc: None,
                    };
                    self.poll(&core, PendingGate::RandBit(run), out)
                }
                (None, Gate::Input { player, index }) => Ok(if core.contains(&player) {
                    // Inputs are a dealing's first coordinates; a tainted
                    // player reads zeros.
                    self.dealing(player).map_or(Fp::ZERO, |s| s[index])
                } else {
                    // Excluded player: public default (a constant is a
                    // valid degree-0 sharing of itself).
                    self.cfg.defaults[player][index]
                }),
                (None, Gate::Const(c)) => Ok(c),
                (None, Gate::Add(a, b)) => Ok(self.wires[a] + self.wires[b]),
                (None, Gate::Sub(a, b)) => Ok(self.wires[a] - self.wires[b]),
                (None, Gate::MulConst(a, c)) => Ok(self.wires[a] * c),
                (None, Gate::Rand) => {
                    let g = self.ordinals[pc];
                    Ok(self.core_sum(&core, |d| self.rand_coord(d, g)))
                }
            };
            match value {
                Ok(value) => {
                    self.wires.push(value);
                    pc += 1;
                }
                Err(_) if self.stuck() => return Phase::Aborted,
                Err(run) => {
                    return Phase::Evaluate {
                        core,
                        pc,
                        pending: Some(run),
                    }
                }
            }
        }
        if !self.tainted {
            for (idx, &(p, w)) in self.circuit.outputs().iter().enumerate() {
                let value = self.wires[w];
                out.push(Outgoing::to(p, MpcMsg::Output { idx, value }));
            }
        }
        Phase::Output
    }

    /// Advances a blocked gate's run: its value once it has one, else the
    /// run, still blocked.
    fn poll(
        &mut self,
        core: &[usize],
        mut run: PendingGate,
        out: &mut Vec<Outgoing<MpcMsg>>,
    ) -> Result<Fp, PendingGate> {
        let value = match &mut run {
            PendingGate::Mul(mul) => self.poll_mul(mul),
            PendingGate::RandBit(rb) => self.run_randbit(core, rb, out),
        };
        value.ok_or(run)
    }

    /// My share of a sum-over-core coordinate accessor.
    fn core_sum(&self, core: &[usize], coord_of: impl Fn(usize) -> usize) -> Fp {
        // A dealing unusable here leaves me tainted, with garbage anyway;
        // zeros keep going.
        (core.iter())
            .filter_map(|&d| Some(self.dealing(d)?[coord_of(d)]))
            .sum()
    }

    fn mask_share(&mut self, core: &[usize]) -> Fp {
        let m = self.next_mask;
        assert!(m < 2 * self.mask_budget, "mask budget exhausted");
        self.next_mask += 1;
        self.core_sum(core, |d| self.mask_coord(d, m))
    }

    /// Registers a public opening of degree `deg` and broadcasts my point.
    fn open_value(&mut self, deg: usize, my_point: Fp, out: &mut Vec<Outgoing<MpcMsg>>) -> usize {
        let id = self.next_open;
        self.next_open += 1;
        let mut rec = OpenRec {
            oec: OecState::new(deg, self.cfg.t),
            senders: PartySet::new(),
            value: None,
        };
        let slot = &mut self.opens[id];
        if let OpenSlot::Early(points) = slot {
            for &(from, v) in points.iter() {
                rec.senders.insert(from);
                if rec.value.is_none() {
                    rec.value = rec.oec.add_share(from, v);
                }
            }
        }
        *slot = OpenSlot::Open(rec);
        if !self.tainted {
            out.push(Outgoing::all(MpcMsg::Open {
                id: id as u64,
                value: my_point,
            }));
        }
        id
    }

    /// ε mode: whether the last opening reached here holds all `n` points
    /// and no candidate — cheating detected. A blocked gate always waits
    /// on the last opening reached; every earlier one has its value.
    fn stuck(&self) -> bool {
        if let (Sharings::Detect(_), Some(id)) = (&self.sharings, self.next_open.checked_sub(1)) {
            if let OpenSlot::Open(rec) = &self.opens[id] {
                return rec.value.is_none() && rec.senders.len() == self.cfg.n;
            }
        }
        false
    }

    fn open_result(&self, id: usize) -> Option<Fp> {
        match self.opens.get(id) {
            Some(OpenSlot::Open(rec)) => rec.value,
            _ => None,
        }
    }

    /// Starts a masked multiplication of two degree-f shares.
    fn start_mul(
        &mut self,
        core: &[usize],
        a: Fp,
        b: Fp,
        out: &mut Vec<Outgoing<MpcMsg>>,
    ) -> MulRun {
        let r = self.mask_share(core);
        let rp = self.mask_share(core);
        let x = Fp::new(self.me as u64 + 1);
        let z = a * b + r + x.pow(self.cfg.f as u64) * rp;
        let open_id = self.open_value(2 * self.cfg.f, z, out);
        MulRun {
            open_id,
            r_share: r,
        }
    }

    /// My share of the product, once its masked opening has a value.
    fn poll_mul(&self, run: &MulRun) -> Option<Fp> {
        // z is public; z − ⟨r⟩ is a degree-f sharing of a·b.
        self.open_result(run.open_id).map(|z| z - run.r_share)
    }

    /// Advances a RandBit sub-protocol; returns its value when finished.
    ///
    /// For each core contributor (in sorted order): verify the contributed
    /// value is a bit by opening `b·(b−1)`, then XOR-fold the valid bits.
    fn run_randbit(
        &mut self,
        core: &[usize],
        run: &mut RandBitRun,
        out: &mut Vec<Outgoing<MpcMsg>>,
    ) -> Option<Fp> {
        loop {
            // Take the stage by value (leaving the cheap `Idle`) rather
            // than cloning it on every poll.
            match std::mem::replace(&mut run.stage, RbStage::Idle) {
                RbStage::Idle => {
                    let Some(&d) = core.get(run.pos) else {
                        // Fold finished; an (impossible in practice) empty
                        // valid set degrades to the constant 0.
                        return Some(run.acc.unwrap_or(Fp::ZERO));
                    };
                    let b =
                        (self.dealing(d)).map_or(Fp::ZERO, |s| s[self.rb_coord(d, run.ordinal)]);
                    // u = b·(b−1); share of (b−1) is b_share − 1.
                    let mul = self.start_mul(core, b, b - Fp::ONE, out);
                    run.stage = RbStage::CheckMul { mul, b_share: b };
                }
                RbStage::CheckMul { mul, b_share } => {
                    let Some(u_share) = self.poll_mul(&mul) else {
                        run.stage = RbStage::CheckMul { mul, b_share };
                        return None;
                    };
                    let open_id = self.open_value(self.cfg.f, u_share, out);
                    run.stage = RbStage::CheckValue { open_id, b_share };
                }
                RbStage::CheckValue { open_id, b_share } => {
                    let Some(u) = self.open_result(open_id) else {
                        run.stage = RbStage::CheckValue { open_id, b_share };
                        return None;
                    };
                    if !u.is_zero() {
                        // Not a bit: contributor discarded (publicly visible
                        // to everyone identically).
                        run.pos += 1;
                        continue;
                    }
                    match run.acc {
                        None => {
                            run.acc = Some(b_share);
                            run.pos += 1;
                        }
                        Some(acc) => {
                            let mul = self.start_mul(core, acc, b_share, out);
                            run.stage = RbStage::FoldMul { mul, b_share, acc };
                        }
                    }
                }
                RbStage::FoldMul { mul, b_share, acc } => {
                    let Some(ab) = self.poll_mul(&mul) else {
                        run.stage = RbStage::FoldMul { mul, b_share, acc };
                        return None;
                    };
                    // XOR: a + b − 2ab.
                    run.acc = Some(acc + b_share - ab - ab);
                    run.pos += 1;
                }
            }
        }
    }
}

impl SansIo for MpcEngine {
    type Msg = MpcMsg;
    type Output = MpcEvent;

    /// Kicks off the execution: deals my inputs and randomness
    /// contributions to everyone.
    fn on_start(&mut self, rng: &mut StdRng, out: &mut Vec<Outgoing<MpcMsg>>) {
        let mut vec = Vec::with_capacity(self.vec_len(self.me));
        vec.extend_from_slice(&std::mem::take(&mut self.inputs));
        for _ in 0..self.num_rand {
            vec.push(Fp::random(rng));
        }
        for _ in 0..self.num_rb {
            vec.push(if rng.gen() { Fp::ONE } else { Fp::ZERO });
        }
        for _ in 0..2 * self.mask_budget {
            vec.push(Fp::random(rng));
        }
        vec.push(Fp::random(rng)); // dummy pad (see vec_len)
        debug_assert_eq!(vec.len(), self.vec_len(self.me));
        let (me, n, f) = (self.me, self.cfg.n, self.cfg.f);
        match self.cfg.mode {
            Mode::Robust => {
                let rows = avss::deal(&vec, n, f, rng);
                out.extend(
                    rows.into_iter()
                        .enumerate()
                        .map(|(i, m)| Outgoing::to(i, (me, m).into())),
                );
            }
            Mode::Epsilon { kappa } => {
                let deals = deal_detectable(&vec, n, f, kappa, rng);
                out.extend(
                    deals
                        .into_iter()
                        .enumerate()
                        .map(|(i, m)| Outgoing::to(i, (me, m).into())),
                );
            }
        }
    }

    /// Processes one message, appending what it sends to `out`; returns
    /// the run's end when this message brought it. A sender id `≥ n` names
    /// no player and is ignored, so no opening or output can be decoded
    /// from phantom points.
    fn on_message(
        &mut self,
        from: usize,
        msg: MpcMsg,
        _rng: &mut StdRng,
        out: &mut Vec<Outgoing<MpcMsg>>,
    ) -> Option<MpcEvent> {
        if self.is_done() || from >= self.cfg.n {
            return None;
        }
        match msg {
            MpcMsg::Avss { dealer, inner } => {
                let Sharings::Avss(avss) = &mut self.sharings else {
                    return None;
                };
                let sharing = avss.get_mut(dealer)?;
                if sharing.on_message(from, inner, out) {
                    let len = sharing.shares().map_or(0, <[Fp]>::len);
                    self.judge(dealer, self.completed(dealer, len), out);
                }
            }
            MpcMsg::Detect { dealer, inner } => {
                let Sharings::Detect(detect) = &mut self.sharings else {
                    return None;
                };
                let sharing = detect.get_mut(dealer)?;
                let standing = match sharing.on_message(from, inner, out) {
                    Some(Verdict::Ok) => {
                        let len = sharing.shares().map_or(0, <[Fp]>::len);
                        self.completed(dealer, len)
                    }
                    // Globally fine, locally unusable: voted in, and read
                    // as zeros here.
                    Some(Verdict::MyShareBad) => Standing::ShareBad,
                    Some(Verdict::DealerBad) => Standing::Rejected,
                    None => return self.advance(out),
                };
                self.judge(dealer, standing, out);
            }
            MpcMsg::Core { dealer, inner } => self.acs.on_message(from, dealer, inner, out),
            MpcMsg::Open { id, value } => self.on_open(from, id, value),
            MpcMsg::Output { idx, value } => {
                if let Ok(at) = self.outputs.binary_search_by_key(&idx, |&(i, _)| i) {
                    self.outputs[at].1.add_share(from, value);
                }
            }
        }
        self.advance(out)
    }

    /// Done at either end: an ended engine sends nothing more, so halting
    /// it is behaviourally equivalent to keeping it. Every end comes after
    /// its core was fixed, that is after every agreement instance decided
    /// and sent its `Done`.
    fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done(_) | Phase::Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_circuits::{catalog, CircuitBuilder};
    use mediator_sim::sansio::{Behavior, ByzantineProcess, Dest, Machines};
    use mediator_sim::SchedulerKind;
    use rand::SeedableRng;

    /// Runs `n` engines under `kind`; `byz` players never start and behave
    /// per `behavior`. Returns each player's end and the deliveries.
    fn run_mpc(
        cfg: MpcConfig,
        circuit: Circuit,
        inputs: Vec<Vec<Fp>>,
        byz: &[usize],
        kind: &SchedulerKind,
        seed: u64,
        behavior: Behavior<MpcMsg>,
    ) -> (Vec<Option<MpcEvent>>, u64) {
        let circuit = Arc::new(circuit);
        let cfg = Arc::new(cfg); // shared by all n engines
        let engines = inputs
            .into_iter()
            .enumerate()
            .map(|(i, x)| MpcEngine::new(Arc::clone(&cfg), circuit.clone(), i, x))
            .collect();
        let mut run = Machines::new(engines);
        for &p in byz {
            run = run.byzantine(p, behavior.clone_box());
        }
        let (outcome, events) = run.run(kind.build().as_mut(), seed, 8_000_000);
        (events, outcome.messages_delivered)
    }

    fn no_op() -> Behavior<MpcMsg> {
        Box::new(|_, _, _| Vec::new())
    }

    fn outputs_of(ev: &Option<MpcEvent>) -> &[Fp] {
        match ev {
            Some(MpcEvent::Done(v)) => v,
            other => panic!("not done: {other:?}"),
        }
    }

    /// All players finished with the same single output; returns it.
    fn common_output(events: &[Option<MpcEvent>], ctx: &dyn std::fmt::Debug) -> Fp {
        let v = outputs_of(&events[0])[0];
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(outputs_of(ev), &[v], "player {i} disagrees under {ctx:?}");
        }
        v
    }

    /// What a probed engine reported after a delivery, once its core was
    /// fixed.
    struct Report {
        core: Vec<usize>,
        /// Per dealer, whether its dealing is usable here.
        usable: Vec<bool>,
        /// How the run ended, once it has.
        end: Option<MpcEvent>,
        /// The most early points it has held for one opening so far.
        most_held: usize,
    }

    /// An engine driven as the runtime drives it, reporting after every
    /// delivery once its core is fixed; the last report is its final
    /// state. It fails the run if
    /// the engine's progress ever goes back.
    struct Probe {
        engine: MpcEngine,
        progress: (u8, usize),
        most_held: usize,
    }

    impl Probe {
        fn new(engine: MpcEngine) -> Self {
            Probe {
                engine,
                progress: (0, 0),
                most_held: 0,
            }
        }
    }

    impl SansIo for Probe {
        type Msg = MpcMsg;
        type Output = Report;

        fn on_start(&mut self, rng: &mut StdRng, out: &mut Vec<Outgoing<MpcMsg>>) {
            self.engine.on_start(rng, out);
        }

        fn on_message(
            &mut self,
            from: usize,
            msg: MpcMsg,
            rng: &mut StdRng,
            out: &mut Vec<Outgoing<MpcMsg>>,
        ) -> Option<Report> {
            self.engine.on_message(from, msg, rng, out);
            let engine = &self.engine;
            // The phase's place in the order phases run in (the two ends
            // share the last), then the next gate.
            let progress = match engine.phase {
                Phase::Agree => (0, 0),
                Phase::Evaluate { pc, .. } => (1, pc),
                Phase::Output => (2, 0),
                Phase::Done(_) | Phase::Aborted => (3, 0),
            };
            assert!(
                progress >= self.progress,
                "player {} went back from {:?} to {progress:?}",
                engine.me,
                self.progress
            );
            self.progress = progress;
            let held = engine.opens.iter().map(|slot| match slot {
                OpenSlot::Early(points) => points.len(),
                OpenSlot::Open(_) => 0,
            });
            self.most_held = self.most_held.max(held.max().unwrap_or(0));
            Some(Report {
                core: engine.core()?.to_vec(),
                usable: (engine.standing.iter())
                    .map(|&s| s == Standing::Usable)
                    .collect(),
                end: match &engine.phase {
                    Phase::Done(outputs) => Some(MpcEvent::Done(outputs.clone())),
                    Phase::Aborted => Some(MpcEvent::Aborted),
                    _ => None,
                },
                most_held: self.most_held,
            })
        }

        fn is_done(&self) -> bool {
            self.engine.is_done()
        }
    }

    /// Runs `sum_circuit(n)` (player `i` inputs `i + 1`) with every player
    /// probed, the ones in `byz` replaced; returns each player's last report.
    fn run_probed(
        cfg: &MpcConfig,
        byz: Vec<(usize, ByzantineProcess<MpcMsg>)>,
        kind: &SchedulerKind,
        seed: u64,
    ) -> Vec<Option<Report>> {
        let cfg = Arc::new(cfg.clone());
        let circuit = Arc::new(catalog::sum_circuit(cfg.n));
        let probes = (0..cfg.n)
            .map(|i| {
                let inputs = vec![Fp::new(i as u64 + 1)];
                Probe::new(MpcEngine::new(
                    Arc::clone(&cfg),
                    Arc::clone(&circuit),
                    i,
                    inputs,
                ))
            })
            .collect();
        let mut run = Machines::new(probes);
        for (p, b) in byz {
            run = run.byzantine(p, b);
        }
        run.run(kind.build().as_mut(), seed, 8_000_000).1
    }

    /// The common-subset guarantees over the honest players (all but
    /// `byz`): one core, of at least `n − f` members, each with its dealing
    /// usable at every honest player. Returns the core.
    fn assert_core_guarantees(
        reports: &[Option<Report>],
        byz: &[usize],
        f: usize,
        ctx: &dyn std::fmt::Debug,
    ) -> Vec<usize> {
        let honest: Vec<usize> = (0..reports.len()).filter(|i| !byz.contains(i)).collect();
        let report = |i: usize| {
            reports[i]
                .as_ref()
                .unwrap_or_else(|| panic!("player {i} fixed no core under {ctx:?}"))
        };
        let core = report(honest[0]).core.clone();
        assert!(
            core.len() >= reports.len() - f,
            "|core| < n − f under {ctx:?}"
        );
        for &i in &honest {
            let r = report(i);
            assert_eq!(r.core, core, "player {i} under {ctx:?}");
            for &d in &core {
                assert!(r.usable[d], "member {d} unusable at {i} under {ctx:?}");
            }
        }
        core
    }

    #[test]
    fn the_core_is_common_and_complete_under_every_scheduler() {
        let zeros = |n| vec![vec![Fp::ZERO]; n];
        let cases = [
            (MpcConfig::robust(5, 1, 7, zeros(5)), vec![]),
            (MpcConfig::robust(5, 1, 7, zeros(5)), vec![4]),
            (MpcConfig::robust(9, 2, 7, zeros(9)), vec![]),
            (MpcConfig::robust(9, 2, 7, zeros(9)), vec![7, 8]),
            (MpcConfig::epsilon(4, 1, 1, 2, 31, zeros(4)), vec![]),
            (MpcConfig::epsilon(4, 1, 1, 2, 31, zeros(4)), vec![3]),
        ];
        for (cfg, silent) in cases {
            for kind in SchedulerKind::battery(cfg.n) {
                for seed in 0..2 {
                    let byz = silent.iter().map(|&p| (p, no_op().into())).collect();
                    let probes = run_probed(&cfg, byz, &kind, seed);
                    let ctx = (cfg.n, cfg.f, &silent, &kind, seed);
                    let core = assert_core_guarantees(&probes, &silent, cfg.f, &ctx);
                    assert!(!core.iter().any(|d| silent.contains(d)), "{ctx:?}");
                }
            }
        }
    }

    #[test]
    fn an_equivocating_dealer_is_consistent_or_excluded() {
        // Dealer 4 sends AVSS rows of two dealings (inputs 1 and 2, two
        // polynomials). Alone, with rows alternating, it completes nowhere.
        // Echoing as a holder of the first dealing, with only player 3 handed
        // the second, it can be admitted (player 3 then recovers its row from
        // the echoes) unless the schedule fixes the core first. Either way
        // the honest players fix one core and finish on one sum, which counts
        // exactly one of the two inputs if the dealer is a member.
        let (n, f) = (5, 1);
        let cfg = MpcConfig::robust(n, f, 7, vec![vec![Fp::ZERO]; n]);
        let circuit = Arc::new(catalog::sum_circuit(n));
        let len = MpcEngine::new(cfg.clone(), circuit, 4, vec![Fp::ZERO]).vec_len(4);
        let mut rng = StdRng::seed_from_u64(5);
        let rows = [1, 2].map(|x| avss::deal(&vec![Fp::new(x); len], n, f, &mut rng));
        let to_honest = |p: usize, inner: avss::AvssMsg| (p, MpcMsg::Avss { dealer: 4, inner });
        let mut echoes = Vec::new();
        AvssState::new(n, f, 4).on_message(4, rows[0][4].clone(), &mut echoes);
        let echoes = echoes.into_iter().filter_map(|o| match (o.dest, o.msg) {
            (Dest::One(p), MpcMsg::Avss { inner, .. }) if p < 4 => Some(to_honest(p, inner)),
            _ => None,
        });
        let alternating: Vec<_> = (0..4)
            .map(|p| to_honest(p, rows[p % 2][p].clone()))
            .collect();
        let echoing: Vec<_> = (0..4)
            .map(|p| to_honest(p, rows[usize::from(p == 3)][p].clone()))
            .chain(echoes)
            .collect();
        for (kickoff, may_admit) in [(alternating, false), (echoing, true)] {
            let mut admitted = 0;
            for kind in SchedulerKind::battery(n) {
                for seed in 0..3 {
                    let byz = ByzantineProcess::new(no_op()).with_kickoff(kickoff.clone());
                    let probes = run_probed(&cfg, vec![(4, byz)], &kind, seed);
                    let ctx = (may_admit, &kind, seed);
                    let core = assert_core_guarantees(&probes, &[4], f, &ctx);
                    let honest: u64 = core.iter().filter(|&&d| d < 4).map(|&d| d as u64 + 1).sum();
                    let sum = |x: u64| MpcEvent::Done(vec![Fp::new(honest + x)]);
                    let admissible = if core.contains(&4) {
                        assert!(may_admit, "admitted under {ctx:?}");
                        admitted += 1;
                        [sum(1), sum(2)]
                    } else {
                        [sum(0), sum(0)]
                    };
                    let end = |i: usize| probes[i].as_ref().and_then(|p| p.end.clone());
                    let first = end(0).expect("player 0 finished");
                    assert!(admissible.contains(&first), "{first:?} under {ctx:?}");
                    for i in 1..4 {
                        assert_eq!(end(i), Some(first.clone()), "player {i} under {ctx:?}");
                    }
                }
            }
            assert_eq!(admitted > 0, may_admit, "never admitted");
        }
    }

    // Asynchronous MPC fixes a core of ≥ n − f input providers: a scheduler
    // may starve one honest dealing past the core decision, and that input
    // then counts as its default. With every player honest the checkable
    // guarantee is agreement on f(inputs with ≤ f defaulted); once a
    // byzantine player is silent it *is* the excluded one and the output is
    // exact.

    #[test]
    fn sum_circuit_robust_no_faults() {
        let n = 5;
        let inputs: Vec<Vec<Fp>> = (1..=n as u64).map(|v| vec![Fp::new(v)]).collect();
        let admissible: Vec<Fp> = (0..=n as u64)
            .map(|excluded| Fp::new(15 - excluded))
            .collect();
        for kind in SchedulerKind::battery(n) {
            let cfg = MpcConfig::robust(n, 1, 7, vec![vec![Fp::ZERO]; n]);
            let circuit = catalog::sum_circuit(n);
            let (events, _) = run_mpc(cfg, circuit, inputs.clone(), &[], &kind, 3, no_op());
            let sum = common_output(&events, &kind);
            assert!(admissible.contains(&sum), "sum {sum} under {kind:?}");
        }
    }

    #[test]
    fn multiplication_is_correct_and_private_degree() {
        // (x0 + x1) * x2 for 5 players.
        let n = 5;
        let mut b = CircuitBuilder::new(n, &[1, 1, 1, 0, 0]);
        let x0 = b.input(0, 0);
        let x1 = b.input(1, 0);
        let x2 = b.input(2, 0);
        let s = b.add(x0, x1);
        let m = b.mul(s, x2);
        b.output_all(m);
        let circuit = b.build();
        let defaults: Vec<Vec<Fp>> = vec![vec![Fp::ZERO]; 3]
            .into_iter()
            .chain(vec![vec![], vec![]])
            .collect();
        let inputs = vec![
            vec![Fp::new(3)],
            vec![Fp::new(4)],
            vec![Fp::new(10)],
            vec![],
            vec![],
        ];
        // (3+4)·10, or with x0 / x1 / x2 defaulted to zero.
        let admissible = [70, 40, 30, 0].map(Fp::new);
        for kind in SchedulerKind::battery(n) {
            let cfg = MpcConfig::robust(n, 1, 7, defaults.clone());
            let (events, _) = run_mpc(cfg, circuit.clone(), inputs.clone(), &[], &kind, 5, no_op());
            let product = common_output(&events, &kind);
            assert!(admissible.contains(&product), "{product} under {kind:?}");
        }
    }

    #[test]
    fn majority_circuit_with_silent_byzantine() {
        // n=5, f=1: player 4 never participates. Its input defaults to 0.
        let n = 5;
        let inputs: Vec<Vec<Fp>> = vec![
            vec![Fp::ONE],
            vec![Fp::ONE],
            vec![Fp::ONE],
            vec![Fp::ZERO],
            vec![Fp::ONE], // never dealt
        ];
        for kind in SchedulerKind::battery(n) {
            let cfg = MpcConfig::robust(n, 1, 9, vec![vec![Fp::ZERO]; n]);
            let circuit = catalog::majority_circuit(n);
            let (events, _) = run_mpc(cfg, circuit, inputs.clone(), &[4], &kind, 11, no_op());
            // Inputs counted: 1,1,1,0 + default 0 → majority 1 (3 of 5).
            assert_eq!(common_output(&events[..4], &kind), Fp::ONE);
        }
    }

    #[test]
    fn majority_lookup_matches_eval_on_admissible_inputs() {
        // `majority_circuit` is a lookup compiled to one polynomial on a
        // shared power chain. Run it with every player honest, once on bits
        // and once with player 1 dealing 7 — the sum then leaves the table's
        // domain `0..=n`, where the polynomial still has exactly one value —
        // and hold the engines to the plain evaluator on every input set a
        // scheduler may fix (≤ f dealings defaulted to 0).
        for (n, f) in [(5usize, 1usize), (9, 2)] {
            let circuit = catalog::majority_circuit(n);
            let bits: Vec<Fp> = (0..n).map(|i| Fp::new((i % 3 != 0) as u64)).collect();
            let mut off_domain = bits.clone();
            off_domain[1] = Fp::new(7);
            for inputs in [bits, off_domain] {
                let admissible: Vec<Fp> = (0..1u32 << n)
                    .filter(|excluded| excluded.count_ones() as usize <= f)
                    .map(|excluded| {
                        let counted: Vec<Vec<Fp>> = (0..n)
                            .map(|i| {
                                vec![if excluded >> i & 1 == 1 {
                                    Fp::ZERO
                                } else {
                                    inputs[i]
                                }]
                            })
                            .collect();
                        circuit
                            .eval(&counted, &mut StdRng::seed_from_u64(0))
                            .outputs[0][0]
                    })
                    .collect();
                let inputs: Vec<Vec<Fp>> = inputs.iter().map(|&x| vec![x]).collect();
                for kind in SchedulerKind::battery(n) {
                    let cfg = MpcConfig::robust(n, f, 19, vec![vec![Fp::ZERO]; n]);
                    let (events, _) = run_mpc(
                        cfg,
                        circuit.clone(),
                        inputs.clone(),
                        &[],
                        &kind,
                        29,
                        no_op(),
                    );
                    let got = common_output(&events, &kind);
                    assert!(admissible.contains(&got), "n={n}: {got} under {kind:?}");
                }
            }
        }
    }

    #[test]
    fn rand_gate_yields_common_value() {
        let n = 5;
        let mut b = CircuitBuilder::new(n, &[0; 5]);
        let r = b.rand();
        b.output_all(r);
        let circuit = b.build();
        for kind in SchedulerKind::battery(n) {
            let cfg = MpcConfig::robust(n, 1, 13, vec![vec![]; n]);
            let (events, _) = run_mpc(
                cfg,
                circuit.clone(),
                vec![vec![]; n],
                &[],
                &kind,
                17,
                no_op(),
            );
            // All players see the same random value.
            common_output(&events, &kind);
        }
    }

    #[test]
    fn rand_bit_is_a_bit_and_common() {
        let n = 5;
        let mut b = CircuitBuilder::new(n, &[0; 5]);
        let r = b.rand_bit();
        b.output_all(r);
        let circuit = b.build();
        for kind in SchedulerKind::battery(n) {
            for seed in 0..4 {
                let cfg = MpcConfig::robust(n, 1, 13 + seed, vec![vec![]; n]);
                let (events, _) = run_mpc(
                    cfg,
                    circuit.clone(),
                    vec![vec![]; n],
                    &[],
                    &kind,
                    seed,
                    no_op(),
                );
                let v = common_output(&events, &kind);
                assert!(v == Fp::ZERO || v == Fp::ONE, "value {v} is not a bit");
            }
        }
    }

    #[test]
    fn lying_shareholder_is_corrected_in_robust_mode() {
        // Byzantine player 2 never deals (so it is excluded from the core
        // and its input defaults to 0) but lies in every opening: online
        // error correction must fix it. On seeing any Open broadcast it
        // sends a garbage point for the same id to everyone else (its only
        // lie channel).
        let n = 5;
        let inputs: Vec<Vec<Fp>> = (0..n).map(|v| vec![Fp::new(v as u64 % 2)]).collect();
        let behavior: Behavior<MpcMsg> = Box::new(|me, _from, msg| match msg {
            MpcMsg::Open { id, .. } => (0..5usize)
                .filter(|&p| p != me)
                .map(|p| {
                    (
                        p,
                        MpcMsg::Open {
                            id: *id,
                            value: Fp::new(999_999),
                        },
                    )
                })
                .collect(),
            _ => Vec::new(),
        });
        for kind in SchedulerKind::battery(n) {
            let cfg = MpcConfig::robust(n, 1, 21, vec![vec![Fp::ZERO]; n]);
            let circuit = catalog::majority_circuit(n);
            let (events, _) = run_mpc(
                cfg,
                circuit,
                inputs.clone(),
                &[2],
                &kind,
                23,
                behavior.clone_box(),
            );
            // Votes: 0,1,0(default),1,0 → majority 0.
            for (i, ev) in events.iter().enumerate() {
                if i != 2 {
                    assert_eq!(outputs_of(ev), &[Fp::ZERO], "player {i} under {kind:?}");
                }
            }
        }
    }

    #[test]
    fn epsilon_mode_honest_run_completes() {
        let n = 4; // n = 3f+1 with f=t=1
        let inputs: Vec<Vec<Fp>> = (1..=n as u64).map(|v| vec![Fp::new(v)]).collect();
        let admissible: Vec<Fp> = (0..=n as u64)
            .map(|excluded| Fp::new(10 - excluded))
            .collect();
        for kind in SchedulerKind::battery(n) {
            let cfg = MpcConfig::epsilon(n, 1, 1, 2, 31, vec![vec![Fp::ZERO]; n]);
            let circuit = catalog::sum_circuit(n);
            let (events, _) = run_mpc(cfg, circuit, inputs.clone(), &[], &kind, 37, no_op());
            let sum = common_output(&events, &kind);
            assert!(admissible.contains(&sum), "sum {sum} under {kind:?}");
        }
    }

    #[test]
    fn epsilon_mode_survives_silent_party() {
        let n = 4;
        let inputs: Vec<Vec<Fp>> = (1..=n as u64).map(|v| vec![Fp::new(v)]).collect();
        for kind in SchedulerKind::battery(n) {
            let cfg = MpcConfig::epsilon(n, 1, 1, 2, 41, vec![vec![Fp::ZERO]; n]);
            let circuit = catalog::sum_circuit(n);
            let (events, _) = run_mpc(cfg, circuit, inputs.clone(), &[3], &kind, 43, no_op());
            // Silent player excluded; default 0 used: 1+2+3+0 = 6.
            assert_eq!(common_output(&events[..3], &kind), Fp::new(6));
        }
    }

    #[test]
    fn epsilon_mode_liar_causes_abort_never_wrong_output() {
        // n = 4 = 3f+1 with f = t = 1: a mul opening needs all n points to
        // agree (deg + t + 1 = 4), so an active liar forces detection-abort
        // — but can never make an honest engine accept a wrong value. Every
        // honest engine ends, and says how: the abort is found when the
        // last point of the opening arrives, and is reported then.
        let n = 4;
        let mut b = CircuitBuilder::new(n, &[1, 1, 0, 0]);
        let x0 = b.input(0, 0);
        let x1 = b.input(1, 0);
        let m = b.mul(x0, x1);
        b.output_all(m);
        let circuit = b.build();
        let defaults = vec![vec![Fp::ZERO], vec![Fp::ZERO], vec![], vec![]];
        let inputs = vec![vec![Fp::new(6)], vec![Fp::new(7)], vec![], vec![]];
        // Player 3 injects a garbage point for every opening it observes.
        let behavior: Behavior<MpcMsg> = Box::new(|me, _from, msg| match msg {
            MpcMsg::Open { id, .. } => (0..4usize)
                .filter(|&p| p != me)
                .map(|p| {
                    (
                        p,
                        MpcMsg::Open {
                            id: *id,
                            value: Fp::new(13_371_337),
                        },
                    )
                })
                .collect(),
            _ => Vec::new(),
        });
        for kind in SchedulerKind::battery(n) {
            for seed in 0..5 {
                let cfg = MpcConfig::epsilon(n, 1, 1, 2, 61 + seed, defaults.clone());
                let (events, _) = run_mpc(
                    cfg,
                    circuit.clone(),
                    inputs.clone(),
                    &[3],
                    &kind,
                    seed,
                    behavior.clone_box(),
                );
                for (i, ev) in events.iter().enumerate().take(3) {
                    match ev {
                        Some(MpcEvent::Aborted) => {}
                        Some(MpcEvent::Done(v)) => {
                            assert_eq!(v, &[Fp::new(42)], "player {i} accepted a wrong value")
                        }
                        None => panic!("player {i} never ended under {kind:?} seed {seed}"),
                    }
                }
            }
        }
    }

    #[test]
    fn message_count_scales_with_circuit_size() {
        let n = 5;
        let mk = |depth| catalog::work_circuit(n, 2, depth);
        let inputs: Vec<Vec<Fp>> = (1..=n as u64).map(|v| vec![Fp::new(v)]).collect();
        let cfg = |seed| MpcConfig::robust(n, 1, seed, vec![vec![Fp::ZERO]; n]);
        let kind = SchedulerKind::Random;
        let (_, d1) = run_mpc(cfg(1), mk(1), inputs.clone(), &[], &kind, 1, no_op());
        let (_, d2) = run_mpc(cfg(1), mk(6), inputs, &[], &kind, 1, no_op());
        assert!(
            d2 > d1,
            "more multiplications must cost more messages: {d1} vs {d2}"
        );
    }

    #[test]
    fn phantom_openers_never_decide_an_opening() {
        // Ids n, n+1, … name no player: counted, points of one polynomial
        // from n of them would decode an opening nobody opened. (A circuit
        // with multiplications: the engine holds slots only for the
        // openings its circuit makes.)
        let n = 5;
        let cfg = MpcConfig::robust(n, 1, 7, vec![vec![Fp::ZERO]; n]);
        let circuit = Arc::new(catalog::majority_circuit(n));
        let mut engine = MpcEngine::new(cfg, circuit, 0, vec![Fp::ZERO]);
        let rng = &mut StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        let id = engine.open_value(1, Fp::new(42), &mut out);
        for from in n..2 * n {
            let open = MpcMsg::Open {
                id: id as u64,
                value: Fp::new(99),
            };
            let mut sent = Vec::new();
            assert_eq!(engine.on_message(from, open, rng, &mut sent), None);
            assert!(sent.is_empty());
        }
        let OpenSlot::Open(rec) = &engine.opens[id] else {
            panic!("opening {id} was reached")
        };
        assert!(rec.senders.is_empty() && rec.value.is_none());
        for from in 0..n {
            let open = MpcMsg::Open {
                id: id as u64,
                value: Fp::new(42),
            };
            engine.on_message(from, open, rng, &mut out);
        }
        assert_eq!(engine.open_result(id), Some(Fp::new(42)));
    }

    #[test]
    fn a_flood_of_early_opens_holds_at_most_n_points_per_opening() {
        // Byzantine player 4 opens with 10 000 points for ids the circuit
        // never opens and 1 000 copies of a point for id 0, dealt round the
        // honest players. Buffered as they came, they would grow an honest
        // engine by everything sent; bounded, each reachable id holds at
        // most one point per sender, and the run ends as it would anyway:
        // every honest input is 1, so the majority is 1 whoever is in the
        // core.
        let n = 5;
        let cfg = Arc::new(MpcConfig::robust(n, 1, 7, vec![vec![Fp::ZERO]; n]));
        let circuit = Arc::new(catalog::majority_circuit(n));
        let phantom = (0..10_000u64).map(|i| (1_000 + i * 7_919, Fp::new(i)));
        let repeats = (0..1_000).map(|_| (0, Fp::new(3)));
        let flood: Vec<(usize, MpcMsg)> = (phantom.chain(repeats).enumerate())
            .map(|(i, (id, value))| (i % 4, MpcMsg::Open { id, value }))
            .collect();
        for kind in SchedulerKind::battery(n) {
            let probes = (0..n)
                .map(|i| {
                    let engine =
                        MpcEngine::new(Arc::clone(&cfg), Arc::clone(&circuit), i, vec![Fp::ONE]);
                    Probe::new(engine)
                })
                .collect();
            let byz = ByzantineProcess::new(no_op()).with_kickoff(flood.clone());
            let run = Machines::new(probes).byzantine(4, byz);
            let (_, reports) = run.run(kind.build().as_mut(), 3, 8_000_000);
            for (i, report) in reports.iter().enumerate().take(4) {
                let report = report.as_ref().expect("core fixed");
                let most_held = report.most_held;
                assert!(most_held <= n, "player {i} held {most_held} under {kind:?}");
                assert_eq!(
                    report.end,
                    Some(MpcEvent::Done(vec![Fp::ONE])),
                    "player {i} under {kind:?}"
                );
            }
        }
    }

    #[test]
    fn outputs_are_private_to_their_owner() {
        // Player 0 gets x1 (player 1's input); nobody else declares outputs.
        // The test checks output *routing*: only player 0 finishes with a
        // value, and it is correct.
        let n = 5;
        let mut b = CircuitBuilder::new(n, &[0, 1, 0, 0, 0]);
        let x1 = b.input(1, 0);
        b.output(0, x1);
        let circuit = b.build();
        let mut defaults = vec![vec![]; n];
        defaults[1] = vec![Fp::ZERO];
        let mut inputs = vec![vec![]; n];
        inputs[1] = vec![Fp::new(777)];
        for kind in SchedulerKind::battery(n) {
            let cfg = MpcConfig::robust(n, 1, 51, defaults.clone());
            let (events, _) = run_mpc(
                cfg,
                circuit.clone(),
                inputs.clone(),
                &[],
                &kind,
                53,
                no_op(),
            );
            let got = outputs_of(&events[0]);
            // 777, or the default if player 1's dealing missed the core.
            assert!(
                got == [Fp::new(777)] || got == [Fp::ZERO],
                "{got:?} under {kind:?}"
            );
            for ev in events.iter().skip(1) {
                assert_eq!(outputs_of(ev), &[] as &[Fp]);
            }
        }
    }
}
