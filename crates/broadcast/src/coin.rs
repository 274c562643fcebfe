//! Common-coin sources for randomized agreement.
//!
//! BCG obtain a common coin from verifiable secret sharing; re-deriving that
//! construction is orthogonal to the mediator results, so the coin here is
//! an **ideal setup coin**: a deterministic function of `(seed, instance,
//! round)` shared by all players (the substitution is recorded in DESIGN.md).
//! Agreement asks for it only from round 3 on: rounds 1 and 2 flip fixed
//! constants (see [`crate::aba`]).

use std::fmt::Debug;

/// A source of per-round coin flips for binary agreement.
pub trait CoinSource: Debug + Send {
    /// The coin for `(instance, round)`.
    fn flip(&mut self, instance: u64, round: u64) -> bool;
    /// Clones into a fresh box.
    fn clone_box(&self) -> Box<dyn CoinSource>;
}

impl Clone for Box<dyn CoinSource> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// An ideal common coin: every holder of the same seed sees the same flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealCoin {
    seed: u64,
}

impl IdealCoin {
    /// Creates a coin with the given shared setup seed.
    pub fn new(seed: u64) -> Self {
        IdealCoin { seed }
    }
}

/// SplitMix64 finalizer — a solid statistical mixer for a u64.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CoinSource for IdealCoin {
    fn flip(&mut self, instance: u64, round: u64) -> bool {
        let h = mix(self.seed ^ mix(instance ^ mix(round)));
        h & 1 == 1
    }
    fn clone_box(&self) -> Box<dyn CoinSource> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_coin_is_common_and_deterministic() {
        let mut a = IdealCoin::new(7);
        let mut b = IdealCoin::new(7);
        for inst in 0..10 {
            for round in 0..10 {
                assert_eq!(a.flip(inst, round), b.flip(inst, round));
            }
        }
    }

    #[test]
    fn ideal_coin_depends_on_all_inputs() {
        let mut a = IdealCoin::new(7);
        let mut b = IdealCoin::new(8);
        let flips_a: Vec<bool> = (0..64).map(|r| a.flip(0, r)).collect();
        let flips_b: Vec<bool> = (0..64).map(|r| b.flip(0, r)).collect();
        assert_ne!(flips_a, flips_b, "different seeds should diverge");
        // Roughly balanced.
        let ones = flips_a.iter().filter(|&&x| x).count();
        assert!((16..=48).contains(&ones), "biased coin: {ones}/64");
    }

    #[test]
    fn boxed_clone_works() {
        let c: Box<dyn CoinSource> = Box::new(IdealCoin::new(3));
        let mut c2 = c.clone();
        assert_eq!(c2.flip(1, 1), IdealCoin::new(3).flip(1, 1));
    }
}
