//! The Even–Goldreich–Lempel baseline: gradual release, `O(1/ε)` messages.
//!
//! The paper's §1 comparison: EGL-style protocols achieve fairness-style
//! guarantees with expected `O(1/ε)` messages, while a punishment strategy
//! gives a *bounded* message count independent of ε. This module implements
//! a two-party gradual-release coin agreement: the joint coin is the XOR of
//! `2m` locally-drawn bits revealed alternately; aborting after any prefix
//! leaves the other party with a coin whose bias the aborter controls by at
//! most `1/(2m)`. Choosing `m = ⌈1/(2ε)⌉` yields advantage ≤ ε with exactly
//! `2m = Θ(1/ε)` messages, against the flat cost of the punishment-based
//! cheap talk. The unit tests below certify the curve and the bound.

use mediator_sim::{Action, Ctx, Process, ProcessId, RandomScheduler, World};
use rand::Rng;

/// Number of messages the gradual-release protocol needs for advantage ε.
pub fn egl_message_count(eps: f64) -> u64 {
    assert!(eps > 0.0 && eps <= 1.0);
    2 * (1.0 / (2.0 * eps)).ceil() as u64
}

/// One gradual-release participant. Parties 0 and 1 alternate revealing one
/// bit; after `2m` reveals both output the XOR of everything.
pub struct GradualRelease {
    /// Total reveals (both parties combined).
    total: u64,
    seen: u64,
    acc: u64,
    /// Abort after revealing this many own bits (deviation knob).
    pub abort_after: Option<u64>,
    revealed: u64,
}

impl GradualRelease {
    /// Creates a participant for a `2m`-reveal exchange.
    pub fn new(total: u64) -> Self {
        GradualRelease {
            total,
            seen: 0,
            acc: 0,
            abort_after: None,
            revealed: 0,
        }
    }

    fn maybe_reveal(&mut self, ctx: &mut Ctx<u64>) {
        // Party 0 reveals on even counts, party 1 on odd.
        let my_turn = (self.seen % 2) as usize == ctx.me();
        if !my_turn || self.seen >= self.total {
            return;
        }
        if let Some(limit) = self.abort_after {
            if self.revealed >= limit {
                // Abort: output the current partial XOR.
                ctx.make_move(self.acc & 1);
                ctx.halt();
                return;
            }
        }
        let bit: bool = ctx.rng().gen();
        self.revealed += 1;
        self.absorb(bit as u64, ctx);
        let peer = 1 - ctx.me();
        ctx.send(peer, bit as u64);
    }

    fn absorb(&mut self, bit: u64, ctx: &mut Ctx<u64>) {
        self.acc ^= bit;
        self.seen += 1;
        // The current partial XOR is the coin an abort leaves us with —
        // kept in the will (Aumann–Hart executor semantics).
        ctx.set_will(self.acc & 1);
        if self.seen >= self.total {
            ctx.make_move(self.acc & 1);
            ctx.halt();
        }
    }
}

impl Process<u64> for GradualRelease {
    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        self.maybe_reveal(ctx);
    }
    fn on_message(&mut self, _src: ProcessId, bit: u64, ctx: &mut Ctx<u64>) {
        self.absorb(bit, ctx);
        self.maybe_reveal(ctx);
    }
}

/// Runs one exchange; returns `(coins, messages_sent)`. Coins are resolved
/// with the AH semantics: an aborted party's executor plays the partial
/// XOR from its will.
pub fn run_gradual_release(eps: f64, abort_after: Option<u64>, seed: u64) -> (Vec<Action>, u64) {
    let total = egl_message_count(eps);
    let mut a = GradualRelease::new(total);
    let b = GradualRelease::new(total);
    a.abort_after = abort_after;
    let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(a), Box::new(b)];
    let mut world = World::new(procs, seed);
    let out = world.run(&mut RandomScheduler::new(), 1_000_000);
    (out.resolve_ah(&[0, 0]), out.messages_sent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_count_scales_inversely_with_eps() {
        assert_eq!(egl_message_count(0.5), 2);
        assert_eq!(egl_message_count(0.1), 10);
        assert_eq!(egl_message_count(0.01), 100);
        assert_eq!(egl_message_count(0.001), 1000);
    }

    #[test]
    fn a_run_sends_exactly_the_counted_messages() {
        for (eps, msgs) in [
            (0.1, 10),
            (0.03, 34),
            (0.01, 100),
            (0.003, 334),
            (0.001, 1000),
        ] {
            assert_eq!(egl_message_count(eps), msgs);
            for seed in 0..3 {
                let (_, sent) = run_gradual_release(eps, None, seed);
                assert_eq!(sent, msgs, "ε = {eps}, seed {seed}");
            }
        }
    }

    #[test]
    fn honest_exchange_agrees_on_the_coin() {
        for seed in 0..10 {
            let (coins, msgs) = run_gradual_release(0.1, None, seed);
            assert_eq!(coins[0], coins[1], "seed {seed}");
            assert!(coins[0] == 0 || coins[0] == 1);
            assert_eq!(msgs, 10);
        }
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut ones = 0;
        let runs = 200;
        for seed in 0..runs {
            let (coins, _) = run_gradual_release(0.25, None, seed);
            ones += coins[0];
        }
        assert!((50..150).contains(&ones), "biased: {ones}/{runs}");
    }

    #[test]
    fn aborter_advantage_is_bounded_by_eps() {
        // Party 0 aborts after 1 reveal; party 1's executor plays the
        // partial XOR from its will. Over many runs party 1's coin stays
        // close to fair — the bias the aborter can induce is ≤ 1/(2m) = ε.
        let eps = 0.05f64;
        let runs = 400u64;
        let mut ones = 0u64;
        for seed in 0..runs {
            let (coins, _) = run_gradual_release(eps, Some(1), seed);
            ones += coins[1];
        }
        let freq = ones as f64 / runs as f64;
        // Sampling noise at 400 runs ≈ 0.025 (1σ); allow 3σ + ε.
        assert!((freq - 0.5).abs() < eps + 0.08, "freq {freq}");
    }
}
