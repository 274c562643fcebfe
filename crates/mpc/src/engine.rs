//! The MPC engine state machine.

use crate::config::{Mode, MpcConfig};
use crate::msg::MpcMsg;
use mediator_bcast::{Acs, IdealCoin};
use mediator_circuits::{Circuit, Gate};
use mediator_field::Fp;
use mediator_sim::sansio::Outgoing;
use mediator_sim::PartySet;
use mediator_vss::avss::{self, AvssDest, AvssState};
use mediator_vss::detect::{deal_detectable, DetectState, Verdict};
use mediator_vss::OecState;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Externally visible engine status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcStatus {
    /// Still running.
    Running,
    /// Finished; the player's private output values, in declaration order.
    Done(Vec<Fp>),
    /// ε-mode abort: cheating detected but not correctable.
    Aborted,
}

/// Events surfaced to the embedding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcEvent {
    /// The input core was fixed (sorted member list).
    CoreDecided(Vec<usize>),
    /// The engine finished with the player's outputs.
    Done(Vec<Fp>),
    /// The engine aborted (ε-mode detection).
    Aborted,
}

/// One public opening in flight.
#[derive(Debug, Clone)]
struct OpenRec {
    oec: OecState,
    senders: PartySet,
    value: Option<Fp>,
}

/// A multiplication in flight (masked public opening).
#[derive(Debug, Clone)]
struct MulRun {
    open_id: u64,
    r_share: Fp,
    result: Option<Fp>,
}

/// Stage of a RandBit gate's sub-protocol.
#[derive(Debug, Clone)]
enum RbStage {
    Idle,
    CheckMul { mul: MulRun, b_share: Fp },
    CheckValue { open_id: u64, b_share: Fp },
    FoldMul { mul: MulRun, b_share: Fp, acc: Fp },
}

/// Runtime state of one RandBit gate.
#[derive(Debug, Clone)]
struct RandBitRun {
    ordinal: usize,
    pos: usize,
    stage: RbStage,
    acc: Option<Fp>,
    result: Option<Fp>,
}

/// A blocked gate.
#[derive(Debug, Clone)]
enum PendingGate {
    Mul(MulRun),
    RandBit(RandBitRun),
}

/// One player's engine for one MPC execution. See the crate docs for the
/// protocol description.
pub struct MpcEngine {
    cfg: Arc<MpcConfig>,
    circuit: Arc<Circuit>,
    me: usize,
    // Per-circuit derived counts.
    rand_ordinals: Vec<Option<usize>>,
    rb_ordinals: Vec<Option<usize>>,
    num_rand: usize,
    num_rb: usize,
    mask_budget: usize,
    // Dealing.
    avss: Vec<AvssState>,
    detect: Vec<DetectState>,
    dealer_shares: Vec<Option<Vec<Fp>>>,
    dealer_ok: Vec<Option<bool>>,
    tainted: bool,
    // Core agreement.
    acs: Acs,
    core_announced: bool,
    // Evaluation.
    started_eval: bool,
    wires: Vec<Option<Fp>>,
    pc: usize,
    pending: Option<PendingGate>,
    next_mask: usize,
    next_open: u64,
    opens: BTreeMap<u64, OpenRec>,
    buffered: BTreeMap<u64, Vec<(usize, Fp)>>,
    // Outputs.
    outputs_sent: bool,
    output_oec: BTreeMap<usize, OecState>,
    output_vals: BTreeMap<usize, Fp>,
    status: MpcStatus,
}

impl MpcEngine {
    /// Creates an engine for player `me`. The configuration is shared:
    /// pass an `Arc<MpcConfig>` (or a plain `MpcConfig`, converted for
    /// you) so the n engines of one execution bump a refcount instead of
    /// deep-cloning the defaults table per player.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates its mode's thresholds
    /// (see [`MpcConfig::validate`]).
    pub fn new(cfg: impl Into<Arc<MpcConfig>>, circuit: Arc<Circuit>, me: usize) -> Self {
        let cfg: Arc<MpcConfig> = cfg.into();
        cfg.validate(circuit.inputs_per_player());
        let n = cfg.n;
        assert_eq!(n, circuit.num_players(), "config/circuit player mismatch");
        let mut rand_ordinals = vec![None; circuit.gates().len()];
        let mut rb_ordinals = vec![None; circuit.gates().len()];
        let (mut num_rand, mut num_rb) = (0usize, 0usize);
        for (i, g) in circuit.gates().iter().enumerate() {
            match g {
                Gate::Rand => {
                    rand_ordinals[i] = Some(num_rand);
                    num_rand += 1;
                }
                Gate::RandBit => {
                    rb_ordinals[i] = Some(num_rb);
                    num_rb += 1;
                }
                _ => {}
            }
        }
        let mask_budget = circuit.mul_count() + 2 * n * num_rb;
        // Robust mode validates t = f; ε mode agrees at t (see `Acs`).
        let acs = Acs::new(n, cfg.t, cfg.f, &IdealCoin::new(cfg.coin_seed));
        let kappa = match cfg.mode {
            Mode::Epsilon { kappa } => kappa,
            Mode::Robust => 1,
        };
        let avss_states = match cfg.mode {
            Mode::Robust => (0..n).map(|d| AvssState::new(n, cfg.f, d)).collect(),
            Mode::Epsilon { .. } => Vec::new(),
        };
        let detect_states = match cfg.mode {
            Mode::Epsilon { .. } => (0..n)
                .map(|d| DetectState::new(n, cfg.f, cfg.t, me, d, kappa, cfg.coin_seed))
                .collect(),
            Mode::Robust => Vec::new(),
        };
        let mut output_oec = BTreeMap::new();
        for (idx, &(p, _)) in circuit.outputs().iter().enumerate() {
            if p == me {
                output_oec.insert(idx, OecState::new(cfg.f, cfg.t));
            }
        }
        MpcEngine {
            cfg,
            me,
            rand_ordinals,
            rb_ordinals,
            num_rand,
            num_rb,
            mask_budget,
            avss: avss_states,
            detect: detect_states,
            dealer_shares: vec![None; n],
            dealer_ok: vec![None; n],
            tainted: false,
            acs,
            core_announced: false,
            started_eval: false,
            wires: vec![None; circuit.gates().len()],
            pc: 0,
            pending: None,
            next_mask: 0,
            next_open: 0,
            opens: BTreeMap::new(),
            buffered: BTreeMap::new(),
            outputs_sent: false,
            output_oec,
            output_vals: BTreeMap::new(),
            status: MpcStatus::Running,
            circuit,
        }
    }

    /// The engine status.
    pub fn status(&self) -> &MpcStatus {
        &self.status
    }

    /// The agreed input core, once decided.
    pub fn core(&self) -> Option<&[usize]> {
        self.acs.core()
    }

    /// Number of coordinates each dealer shares. The final coordinate is a
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

    fn input_coord(&self, dealer: usize, idx: usize) -> usize {
        debug_assert!(idx < self.circuit.inputs_per_player()[dealer]);
        idx
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

    /// Kicks off the execution: deals this player's inputs and randomness
    /// contributions to everyone.
    pub fn start<R: Rng + ?Sized>(
        &mut self,
        my_inputs: &[Fp],
        rng: &mut R,
    ) -> Vec<Outgoing<MpcMsg>> {
        assert_eq!(
            my_inputs.len(),
            self.circuit.inputs_per_player()[self.me],
            "input arity mismatch"
        );
        let mut vec: Vec<Fp> = my_inputs.to_vec();
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
        let me = self.me;
        match self.cfg.mode {
            Mode::Robust => {
                let rows = avss::deal(&vec, self.cfg.n, self.cfg.f, rng);
                rows.into_iter()
                    .enumerate()
                    .map(|(i, inner)| Outgoing::to(i, MpcMsg::Avss { dealer: me, inner }))
                    .collect()
            }
            Mode::Epsilon { kappa } => {
                let deals = deal_detectable(&vec, self.cfg.n, self.cfg.f, kappa, rng);
                deals
                    .into_iter()
                    .enumerate()
                    .map(|(i, inner)| Outgoing::to(i, MpcMsg::Detect { dealer: me, inner }))
                    .collect()
            }
        }
    }

    /// Processes one message. Returns outgoing messages and at most one
    /// freshly-raised event. A sender id `≥ n` names no player and is
    /// ignored, so no opening or output can be decoded from phantom points.
    pub fn on_message(
        &mut self,
        from: usize,
        msg: MpcMsg,
    ) -> (Vec<Outgoing<MpcMsg>>, Option<MpcEvent>) {
        let mut out = Vec::new();
        if self.status != MpcStatus::Running || from >= self.cfg.n {
            return (out, None);
        }
        match msg {
            MpcMsg::Avss { dealer, inner } => {
                if dealer >= self.cfg.n || !matches!(self.cfg.mode, Mode::Robust) {
                    return (out, None);
                }
                let (batch, done) = self.avss[dealer].on_message(from, inner);
                for (dest, m) in batch {
                    let wrapped = MpcMsg::Avss { dealer, inner: m };
                    match dest {
                        AvssDest::One(d) => out.push(Outgoing::to(d, wrapped)),
                        AvssDest::All => out.push(Outgoing::all(wrapped)),
                    }
                }
                if done {
                    let shares = self.avss[dealer]
                        .shares()
                        .expect("completed AVSS has shares")
                        .to_vec();
                    self.accept_dealing(dealer, shares, &mut out);
                }
            }
            MpcMsg::Detect { dealer, inner } => {
                if dealer >= self.cfg.n || !matches!(self.cfg.mode, Mode::Epsilon { .. }) {
                    return (out, None);
                }
                let (batch, verdict) = self.detect[dealer].on_message(from, inner);
                for m in batch {
                    out.push(Outgoing::all(MpcMsg::Detect { dealer, inner: m }));
                }
                match verdict {
                    Some(Verdict::Ok) => {
                        let shares = self.detect[dealer]
                            .shares()
                            .expect("Ok verdict has shares")
                            .to_vec();
                        self.accept_dealing(dealer, shares, &mut out);
                    }
                    Some(Verdict::MyShareBad) => {
                        // Globally fine, locally unusable: participate
                        // silently.
                        self.tainted = true;
                        self.judge_dealing(dealer, true, &mut out);
                    }
                    Some(Verdict::DealerBad) => self.judge_dealing(dealer, false, &mut out),
                    None => {}
                }
            }
            MpcMsg::Core { dealer, inner } => self.acs.on_message(from, dealer, inner, &mut out),
            MpcMsg::Open { id, value } => {
                if let Some(rec) = self.opens.get_mut(&id) {
                    rec.senders.insert(from);
                    if rec.value.is_none() {
                        if let Some(v) = rec.oec.add_share(from, value) {
                            rec.value = Some(v);
                        }
                    }
                    self.check_open_abort(id);
                } else {
                    self.buffered.entry(id).or_default().push((from, value));
                }
            }
            MpcMsg::Output { idx, value } => {
                if let Some(oec) = self.output_oec.get_mut(&idx) {
                    if let Some(v) = oec.add_share(from, value) {
                        self.output_vals.insert(idx, v);
                    }
                }
            }
        }
        let event = self.pump(&mut out);
        (out, event)
    }

    /// A dealing that completed here: kept and voted into the core when it
    /// has the agreed arity, and otherwise its dealer is judged bad.
    fn accept_dealing(&mut self, dealer: usize, shares: Vec<Fp>, out: &mut Vec<Outgoing<MpcMsg>>) {
        let ok = shares.len() == self.vec_len(dealer);
        if ok {
            self.dealer_shares[dealer] = Some(shares);
        }
        self.judge_dealing(dealer, ok, out);
    }

    /// Records whether `dealer`'s dealing is usable and votes so on its core
    /// instance.
    fn judge_dealing(&mut self, dealer: usize, ok: bool, out: &mut Vec<Outgoing<MpcMsg>>) {
        self.dealer_ok[dealer] = Some(ok);
        self.acs.vote(dealer, ok, out);
    }

    // ---- evaluation ----

    /// Advances everything that can advance; returns at most one event. A
    /// terminal event (`Done` / `Aborted`) supersedes `CoreDecided` when
    /// one call reaches both — a starved player can fix the core and
    /// finish on the same delivery, and the embedding layer acts only on
    /// the terminal one.
    fn pump(&mut self, out: &mut Vec<Outgoing<MpcMsg>>) -> Option<MpcEvent> {
        if self.status != MpcStatus::Running {
            return None;
        }
        let core = self.acs.core()?;
        let mut event = None;
        if !self.core_announced {
            self.core_announced = true;
            event = Some(MpcEvent::CoreDecided(core.to_vec()));
        }
        if !self.started_eval {
            if core.iter().any(|&d| self.dealer_ok[d].is_none()) {
                return event;
            }
            // A core member locally marked bad (ε-mode divergence): we
            // cannot compute valid shares — participate silently.
            if core.iter().any(|&d| self.dealer_ok[d] == Some(false)) {
                self.tainted = true;
            }
            self.started_eval = true;
        }
        self.run_eval(out);
        self.maybe_finish(&mut event);
        if self.status == MpcStatus::Aborted {
            event = Some(MpcEvent::Aborted);
        }
        event
    }

    /// My share of a sum-over-core coordinate accessor.
    fn core_sum(&self, coord_of: impl Fn(usize) -> usize) -> Fp {
        let core = self.acs.core().expect("core fixed");
        let mut acc = Fp::ZERO;
        for &d in core {
            if let Some(shares) = &self.dealer_shares[d] {
                acc += shares[coord_of(d)];
            }
            // Tainted players have garbage anyway; zeros keep going.
        }
        acc
    }

    fn mask_share(&mut self) -> Fp {
        let m = self.next_mask;
        assert!(m < 2 * self.mask_budget, "mask budget exhausted");
        self.next_mask += 1;
        self.core_sum(|d| self.mask_coord(d, m))
    }

    /// Registers a public opening of degree `deg` and broadcasts my point.
    fn open_value(&mut self, deg: usize, my_point: Fp, out: &mut Vec<Outgoing<MpcMsg>>) -> u64 {
        let id = self.next_open;
        self.next_open += 1;
        let mut rec = OpenRec {
            oec: OecState::new(deg, self.cfg.t),
            senders: PartySet::new(),
            value: None,
        };
        if let Some(buf) = self.buffered.remove(&id) {
            for (from, v) in buf {
                rec.senders.insert(from);
                if rec.value.is_none() {
                    if let Some(val) = rec.oec.add_share(from, v) {
                        rec.value = Some(val);
                    }
                }
            }
        }
        self.opens.insert(id, rec);
        if !self.tainted {
            out.push(Outgoing::all(MpcMsg::Open {
                id,
                value: my_point,
            }));
        }
        self.check_open_abort(id);
        id
    }

    /// ε-mode: all `n` points received but no candidate → cheating detected.
    fn check_open_abort(&mut self, id: u64) {
        if !matches!(self.cfg.mode, Mode::Epsilon { .. }) {
            return;
        }
        if let Some(rec) = self.opens.get(&id) {
            if rec.value.is_none() && rec.senders.len() == self.cfg.n {
                self.status = MpcStatus::Aborted;
            }
        }
    }

    fn open_result(&self, id: u64) -> Option<Fp> {
        self.opens.get(&id).and_then(|r| r.value)
    }

    /// Starts a masked multiplication of two degree-f shares.
    fn start_mul(&mut self, a: Fp, b: Fp, out: &mut Vec<Outgoing<MpcMsg>>) -> MulRun {
        let r = self.mask_share();
        let rp = self.mask_share();
        let x = Fp::new(self.me as u64 + 1);
        let z = a * b + r + x.pow(self.cfg.f as u64) * rp;
        let id = self.open_value(2 * self.cfg.f, z, out);
        MulRun {
            open_id: id,
            r_share: r,
            result: None,
        }
    }

    fn poll_mul(&mut self, run: &mut MulRun) -> bool {
        if run.result.is_some() {
            return true;
        }
        if let Some(z) = self.open_result(run.open_id) {
            // z is public; z − ⟨r⟩ is a degree-f sharing of a·b.
            run.result = Some(z - run.r_share);
            true
        } else {
            false
        }
    }

    /// Runs gates until blocked or finished.
    fn run_eval(&mut self, out: &mut Vec<Outgoing<MpcMsg>>) {
        if !self.started_eval || self.status != MpcStatus::Running {
            return;
        }
        // Clone the circuit handle (refcount bump), not the gate list: this
        // runs once per delivered message.
        let circuit = Arc::clone(&self.circuit);
        let gates = circuit.gates();
        while self.pc < gates.len() {
            if self.status != MpcStatus::Running {
                return;
            }
            let pc = self.pc;
            let value = match gates[pc] {
                Gate::Input { player, index } => {
                    let core = self.acs.core().expect("core fixed");
                    if core.contains(&player) {
                        match &self.dealer_shares[player] {
                            Some(shares) => shares[self.input_coord(player, index)],
                            None => Fp::ZERO, // tainted path
                        }
                    } else {
                        // Excluded player: public default (a constant is a
                        // valid degree-0 sharing of itself).
                        self.cfg.defaults[player][index]
                    }
                }
                Gate::Const(c) => c,
                Gate::Add(a, b) => self.wire(a) + self.wire(b),
                Gate::Sub(a, b) => self.wire(a) - self.wire(b),
                Gate::MulConst(a, c) => self.wire(a) * c,
                Gate::Rand => {
                    let g = self.rand_ordinals[pc].expect("rand ordinal");
                    self.core_sum(|d| self.rand_coord(d, g))
                }
                Gate::Mul(a, b) => {
                    let mut run = match self.pending.take() {
                        Some(PendingGate::Mul(run)) => run,
                        Some(other) => {
                            // Can't happen: pending always matches pc's gate.
                            self.pending = Some(other);
                            unreachable!("pending mismatch at mul gate");
                        }
                        None => {
                            let (wa, wb) = (self.wire(a), self.wire(b));
                            self.start_mul(wa, wb, out)
                        }
                    };
                    if self.poll_mul(&mut run) {
                        run.result.expect("polled")
                    } else {
                        self.pending = Some(PendingGate::Mul(run));
                        return; // blocked
                    }
                }
                Gate::RandBit => {
                    let mut run = match self.pending.take() {
                        Some(PendingGate::RandBit(run)) => run,
                        Some(other) => {
                            self.pending = Some(other);
                            unreachable!("pending mismatch at randbit gate");
                        }
                        None => RandBitRun {
                            ordinal: self.rb_ordinals[pc].expect("rb ordinal"),
                            pos: 0,
                            stage: RbStage::Idle,
                            acc: None,
                            result: None,
                        },
                    };
                    if self.run_randbit(&mut run, out) {
                        run.result.expect("randbit finished")
                    } else {
                        self.pending = Some(PendingGate::RandBit(run));
                        return; // blocked
                    }
                }
            };
            self.wires[pc] = Some(value);
            self.pc += 1;
        }
        self.send_outputs(out);
    }

    fn wire(&self, w: usize) -> Fp {
        self.wires[w].expect("wire evaluated in topological order")
    }

    /// Advances a RandBit sub-protocol; returns `true` when finished.
    ///
    /// For each core contributor (in sorted order): verify the contributed
    /// value is a bit by opening `b·(b−1)`, then XOR-fold the valid bits.
    fn run_randbit(&mut self, run: &mut RandBitRun, out: &mut Vec<Outgoing<MpcMsg>>) -> bool {
        // Address the core by index instead of cloning the member list on
        // every call (this runs once per delivered message while a RandBit
        // gate is pending).
        let core_len = self.acs.core().expect("core fixed").len();
        loop {
            if self.status != MpcStatus::Running {
                return false;
            }
            // Take the stage by value (leaving the cheap `Idle`) rather
            // than cloning it on every poll.
            match std::mem::replace(&mut run.stage, RbStage::Idle) {
                RbStage::Idle => {
                    if run.pos >= core_len {
                        // Fold finished; an (impossible in practice) empty
                        // valid set degrades to the constant 0.
                        run.result = Some(run.acc.unwrap_or(Fp::ZERO));
                        return true;
                    }
                    let d = self.acs.core().expect("core fixed")[run.pos];
                    let b = match &self.dealer_shares[d] {
                        Some(shares) => shares[self.rb_coord(d, run.ordinal)],
                        None => Fp::ZERO,
                    };
                    // u = b·(b−1); share of (b−1) is b_share − 1.
                    let mul = self.start_mul(b, b - Fp::ONE, out);
                    run.stage = RbStage::CheckMul { mul, b_share: b };
                }
                RbStage::CheckMul { mut mul, b_share } => {
                    if !self.poll_mul(&mut mul) {
                        run.stage = RbStage::CheckMul { mul, b_share };
                        return false;
                    }
                    let u_share = mul.result.expect("polled");
                    let open_id = self.open_value(self.cfg.f, u_share, out);
                    run.stage = RbStage::CheckValue { open_id, b_share };
                }
                RbStage::CheckValue { open_id, b_share } => {
                    let Some(u) = self.open_result(open_id) else {
                        run.stage = RbStage::CheckValue { open_id, b_share };
                        return false;
                    };
                    if !u.is_zero() {
                        // Not a bit: contributor discarded (publicly visible
                        // to everyone identically).
                        run.pos += 1;
                        run.stage = RbStage::Idle;
                        continue;
                    }
                    match run.acc {
                        None => {
                            run.acc = Some(b_share);
                            run.pos += 1;
                            run.stage = RbStage::Idle;
                        }
                        Some(acc) => {
                            let mul = self.start_mul(acc, b_share, out);
                            run.stage = RbStage::FoldMul { mul, b_share, acc };
                        }
                    }
                }
                RbStage::FoldMul {
                    mut mul,
                    b_share,
                    acc,
                } => {
                    if !self.poll_mul(&mut mul) {
                        run.stage = RbStage::FoldMul { mul, b_share, acc };
                        return false;
                    }
                    let ab = mul.result.expect("polled");
                    // XOR: a + b − 2ab.
                    run.acc = Some(acc + b_share - ab - ab);
                    run.pos += 1;
                    run.stage = RbStage::Idle;
                }
            }
        }
    }

    fn send_outputs(&mut self, out: &mut Vec<Outgoing<MpcMsg>>) {
        if self.outputs_sent {
            return;
        }
        self.outputs_sent = true;
        if self.tainted {
            return; // silent participation
        }
        for (idx, &(p, w)) in self.circuit.outputs().iter().enumerate() {
            let value = self.wire(w);
            out.push(Outgoing::to(p, MpcMsg::Output { idx, value }));
        }
    }

    fn maybe_finish(&mut self, event: &mut Option<MpcEvent>) {
        if self.status != MpcStatus::Running || !self.outputs_sent {
            return;
        }
        if self.output_vals.len() == self.output_oec.len() {
            let vals: Vec<Fp> = self.output_vals.values().copied().collect();
            self.status = MpcStatus::Done(vals.clone());
            *event = Some(MpcEvent::Done(vals));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MpcDriver;
    use mediator_circuits::{catalog, CircuitBuilder};
    use mediator_sim::sansio::{Behavior, ByzantineProcess, Machines, SansIo};
    use mediator_sim::SchedulerKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `n` engines under `kind`; `byz` players never start and behave
    /// per `behavior`. Returns each player's last event and the deliveries.
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
        let drivers = inputs
            .into_iter()
            .enumerate()
            .map(|(i, x)| MpcDriver::new(Arc::clone(&cfg), circuit.clone(), i, x))
            .collect();
        let mut run = Machines::new(drivers);
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

    /// What a probed engine last reported: its core, whether each dealer's
    /// dealing completed here, and its status.
    struct Probe {
        core: Vec<usize>,
        completed: Vec<bool>,
        status: MpcStatus,
    }

    /// An engine driven like `MpcDriver`, reporting a [`Probe`] after every
    /// delivery once its core is fixed; the last one is its final state.
    struct CoreProbe {
        engine: MpcEngine,
        inputs: Option<Vec<Fp>>,
    }

    impl SansIo for CoreProbe {
        type Msg = MpcMsg;
        type Output = Probe;

        fn on_start(&mut self, rng: &mut StdRng) -> Vec<Outgoing<MpcMsg>> {
            let inputs = self.inputs.take().expect("started once");
            self.engine.start(&inputs, rng)
        }

        fn on_message(
            &mut self,
            from: usize,
            msg: MpcMsg,
            _rng: &mut StdRng,
        ) -> (Vec<Outgoing<MpcMsg>>, Option<Probe>) {
            let (out, _) = self.engine.on_message(from, msg);
            let probe = self.engine.core().map(|core| Probe {
                core: core.to_vec(),
                completed: self
                    .engine
                    .dealer_shares
                    .iter()
                    .map(Option::is_some)
                    .collect(),
                status: self.engine.status.clone(),
            });
            (out, probe)
        }

        fn is_done(&self) -> bool {
            self.engine.status != MpcStatus::Running
        }
    }

    /// Runs `sum_circuit(n)` (player `i` inputs `i + 1`) with every player
    /// probed, the ones in `byz` replaced; returns each player's last probe.
    fn run_probed(
        cfg: &MpcConfig,
        byz: Vec<(usize, ByzantineProcess<MpcMsg>)>,
        kind: &SchedulerKind,
        seed: u64,
    ) -> Vec<Option<Probe>> {
        let cfg = Arc::new(cfg.clone());
        let circuit = Arc::new(catalog::sum_circuit(cfg.n));
        let probes = (0..cfg.n)
            .map(|i| CoreProbe {
                engine: MpcEngine::new(Arc::clone(&cfg), Arc::clone(&circuit), i),
                inputs: Some(vec![Fp::new(i as u64 + 1)]),
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
    /// completed at every honest player. Returns the core.
    fn assert_core_guarantees(
        probes: &[Option<Probe>],
        byz: &[usize],
        f: usize,
        ctx: &dyn std::fmt::Debug,
    ) -> Vec<usize> {
        let honest: Vec<usize> = (0..probes.len()).filter(|i| !byz.contains(i)).collect();
        let probe = |i: usize| {
            probes[i]
                .as_ref()
                .unwrap_or_else(|| panic!("player {i} fixed no core under {ctx:?}"))
        };
        let core = probe(honest[0]).core.clone();
        assert!(
            core.len() >= probes.len() - f,
            "|core| < n − f under {ctx:?}"
        );
        for &i in &honest {
            let p = probe(i);
            assert_eq!(p.core, core, "player {i} under {ctx:?}");
            for &d in &core {
                assert!(p.completed[d], "member {d} incomplete at {i} under {ctx:?}");
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
        let len = MpcEngine::new(cfg.clone(), Arc::new(catalog::sum_circuit(n)), 4).vec_len(4);
        let mut rng = StdRng::seed_from_u64(5);
        let rows = [1, 2].map(|x| avss::deal(&vec![Fp::new(x); len], n, f, &mut rng));
        let to_honest = |p: usize, inner: avss::AvssMsg| (p, MpcMsg::Avss { dealer: 4, inner });
        let (echoes, _) = AvssState::new(n, f, 4).on_message(4, rows[0][4].clone());
        let echoes = echoes.into_iter().filter_map(|(dest, inner)| match dest {
            AvssDest::One(p) if p < 4 => Some(to_honest(p, inner)),
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
                    let sum = |x: u64| MpcStatus::Done(vec![Fp::new(honest + x)]);
                    let admissible = if core.contains(&4) {
                        assert!(may_admit, "admitted under {ctx:?}");
                        admitted += 1;
                        [sum(1), sum(2)]
                    } else {
                        [sum(0), sum(0)]
                    };
                    let status = |i: usize| probes[i].as_ref().map(|p| p.status.clone());
                    let first = status(0).expect("player 0 finished");
                    assert!(admissible.contains(&first), "{first:?} under {ctx:?}");
                    for i in 1..4 {
                        assert_eq!(status(i), Some(first.clone()), "player {i} under {ctx:?}");
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
        // — but can never make an honest engine accept a wrong value.
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
                    // Anything but Done is detected / stalled: safe.
                    if let Some(MpcEvent::Done(v)) = ev {
                        assert_eq!(v, &[Fp::new(42)], "player {i} accepted a wrong value");
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
        // from n of them would decode an opening nobody opened.
        let n = 5;
        let cfg = MpcConfig::robust(n, 1, 7, vec![vec![Fp::ZERO]; n]);
        let mut engine = MpcEngine::new(cfg, Arc::new(catalog::sum_circuit(n)), 0);
        let mut out = Vec::new();
        let id = engine.open_value(1, Fp::new(42), &mut out);
        for from in n..2 * n {
            let open = MpcMsg::Open {
                id,
                value: Fp::new(99),
            };
            assert_eq!(engine.on_message(from, open), (Vec::new(), None));
        }
        let rec = &engine.opens[&id];
        assert!(rec.senders.is_empty() && rec.value.is_none());
        for from in 0..n {
            let open = MpcMsg::Open {
                id,
                value: Fp::new(42),
            };
            engine.on_message(from, open);
        }
        assert_eq!(engine.open_result(id), Some(Fp::new(42)));
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
