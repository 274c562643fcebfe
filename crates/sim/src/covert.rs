//! The covert channel of Proposition 6.1: players communicating with a
//! content-blind scheduler.
//!
//! The paper's argument (§6.1): the environment cannot read messages, but it
//! *can* count them. A player signals the value `j ∈ {0..M}` by sending `j`
//! empty messages to itself immediately after the event it wants to report;
//! the scheduler decodes by counting self-deliveries. This module implements
//! both ends, and its unit tests certify that the adversary/scheduler pair
//! may be treated as a single coordinated entity — the premise of
//! Propositions 6.1, 6.2 and Corollary 6.3.

use crate::process::{Ctx, Process, ProcessId};
use crate::scheduler::{PendingView, SchedChoice, Scheduler};
use rand::rngs::StdRng;
use rand::Rng;

/// A player that covertly transmits `value` to the scheduler by sending
/// exactly `value` empty self-messages, then halts.
#[derive(Debug, Clone)]
pub struct CovertSender {
    /// The value to transmit (the number of self-messages).
    pub value: u64,
    sent: bool,
}

impl CovertSender {
    /// Creates a sender that signals `value`.
    pub fn new(value: u64) -> Self {
        CovertSender { value, sent: false }
    }
}

impl<M: Default> Process<M> for CovertSender {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        if !self.sent {
            self.sent = true;
            for _ in 0..self.value {
                ctx.send(ctx.me(), M::default());
            }
            if self.value == 0 {
                ctx.halt();
            }
        }
    }
    fn on_message(&mut self, src: ProcessId, _msg: M, ctx: &mut Ctx<M>) {
        // Count-down of our own self-messages; halt when all consumed.
        if src == ctx.me() {
            self.value -= 1;
            if self.value == 0 {
                ctx.halt();
            }
        }
    }
}

/// A scheduler that decodes the covert channel: it counts deliveries of
/// self-messages per process. After the run, [`CovertDecoder::decoded`]
/// yields what the environment "learned" despite never reading a payload.
#[derive(Debug, Clone)]
pub struct CovertDecoder {
    counts: Vec<u64>,
}

impl CovertDecoder {
    /// Creates a decoder for `n` processes.
    pub fn new(n: usize) -> Self {
        CovertDecoder { counts: vec![0; n] }
    }

    /// The decoded value for each process (self-message deliveries counted).
    pub fn decoded(&self) -> &[u64] {
        &self.counts
    }
}

impl Scheduler for CovertDecoder {
    fn next(&mut self, pending: &[PendingView], _now: u64, rng: &mut StdRng) -> SchedChoice {
        // Prefer self-messages so the count finishes early; otherwise random.
        if let Some((i, v)) = pending
            .iter()
            .enumerate()
            .find(|(_, v)| v.src == Some(v.dst))
        {
            self.counts[v.dst] += 1;
            return SchedChoice::Deliver(i);
        }
        SchedChoice::Deliver(rng.gen_range(0..pending.len()))
    }
    fn name(&self) -> &'static str {
        "covert-decoder"
    }
}

/// The reverse channel of §6.1: the *environment* signalling players.
///
/// The paper's construction: a deviator sends itself `(n+1)²` empty
/// messages; the environment encodes "player j₁ sent the k-th message to
/// j₂" by delivering exactly `(n+1)·j₁ + j₂` of them before the player's
/// next activation. Here we implement the primitive beneath that encoding:
/// the player sends itself a block of marker messages, and the scheduler
/// delivers a chosen *count* of them before releasing a fence message; the
/// count is the transmitted value.
#[derive(Debug, Clone)]
pub struct CovertReceiver {
    markers: u64,
    counted: u64,
    /// The value decoded from the environment (markers seen before fence).
    pub decoded: Option<u64>,
}

impl CovertReceiver {
    /// Creates a receiver that posts `markers` self-markers and a fence.
    pub fn new(markers: u64) -> Self {
        CovertReceiver {
            markers,
            counted: 0,
            decoded: None,
        }
    }
}

/// Marker/fence message alphabet for the reverse channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevMsg {
    /// A countable self-marker.
    Marker,
    /// The fence: decoding happens when this arrives.
    Fence,
}

impl Process<RevMsg> for CovertReceiver {
    fn on_start(&mut self, ctx: &mut Ctx<RevMsg>) {
        for _ in 0..self.markers {
            ctx.send(ctx.me(), RevMsg::Marker);
        }
        ctx.send(ctx.me(), RevMsg::Fence);
    }
    fn on_message(&mut self, _src: ProcessId, msg: RevMsg, ctx: &mut Ctx<RevMsg>) {
        match msg {
            RevMsg::Marker => self.counted += 1,
            RevMsg::Fence => {
                if self.decoded.is_none() {
                    self.decoded = Some(self.counted);
                    ctx.make_move(self.counted);
                }
                ctx.halt();
            }
        }
    }
}

/// A scheduler that transmits `value` to process 0 by delivering exactly
/// `value` markers before the fence.
#[derive(Debug, Clone)]
pub struct CovertSignaller {
    /// The value to transmit.
    pub value: u64,
    sent: u64,
}

impl CovertSignaller {
    /// Creates a signaller for `value`.
    pub fn new(value: u64) -> Self {
        CovertSignaller { value, sent: 0 }
    }
}

impl Scheduler for CovertSignaller {
    fn next(&mut self, pending: &[PendingView], _now: u64, rng: &mut StdRng) -> SchedChoice {
        // Deliver start signals first.
        if let Some((i, _)) = pending.iter().enumerate().find(|(_, v)| v.src.is_none()) {
            return SchedChoice::Deliver(i);
        }
        // Self-messages to 0 with the lowest seq are the markers (the fence
        // was sent last, so it has the highest per-pair seq).
        let mut self_msgs: Vec<(usize, u64)> = pending
            .iter()
            .enumerate()
            .filter(|(_, v)| v.src == Some(0) && v.dst == 0)
            .map(|(i, v)| (i, v.k))
            .collect();
        self_msgs.sort_by_key(|&(_, k)| k);
        if self.sent < self.value {
            if let Some(&(i, _)) = self_msgs.first() {
                self.sent += 1;
                return SchedChoice::Deliver(i);
            }
        } else if let Some(&(i, _)) = self_msgs.last() {
            // Release the fence (highest k); remaining markers come after.
            return SchedChoice::Deliver(i);
        }
        SchedChoice::Deliver(rng.gen_range(0..pending.len()))
    }
    fn name(&self) -> &'static str {
        "covert-signaller"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{TerminationKind, World};

    #[test]
    fn scheduler_decodes_player_values_without_reading_contents() {
        let values = [3u64, 0, 7];
        let procs: Vec<Box<dyn Process<u8>>> = values
            .iter()
            .map(|&v| Box::new(CovertSender::new(v)) as Box<dyn Process<u8>>)
            .collect();
        let mut world = World::new(procs, 42);
        let mut decoder = CovertDecoder::new(3);
        let out = world.run(&mut decoder, 10_000);
        assert_eq!(out.termination, TerminationKind::Quiescent);
        assert_eq!(decoder.decoded(), &values);
    }

    #[test]
    fn environment_signals_player_via_delivery_counts() {
        // The reverse direction of §6.1: the scheduler transmits a value to
        // a player by choosing how many of its self-markers to deliver
        // before the fence.
        for value in [0u64, 1, 5, 11] {
            let procs: Vec<Box<dyn Process<RevMsg>>> = vec![Box::new(CovertReceiver::new(16))];
            let mut world = World::new(procs, 3);
            let mut sig = CovertSignaller::new(value);
            let out = world.run(&mut sig, 10_000);
            assert_eq!(out.moves[0], Some(value), "value {value}");
        }
    }

    #[test]
    fn covert_channel_is_invisible_in_payloads() {
        // The trace records sends/deliveries but the scheduler API carries no
        // payloads — the information flow is purely structural.
        let procs: Vec<Box<dyn Process<u8>>> = vec![Box::new(CovertSender::new(5))];
        let mut world = World::new(procs, 1);
        let mut decoder = CovertDecoder::new(1);
        let out = world.run(&mut decoder, 1000);
        assert_eq!(out.messages_sent, 5);
        assert_eq!(decoder.decoded(), &[5]);
    }
}
