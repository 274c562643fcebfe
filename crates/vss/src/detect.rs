//! Cut-and-choose **detectable** sharing (`t < n/3`) — the ε-machinery.
//!
//! The robust AVSS needs `n > 4f`. Below that, Theorem 4.2 settles for
//! ε-implementation: cheating is *detected* (w.h.p.) rather than corrected.
//! The dealer Shamir-shares the secret vector `f_1..f_m` (degree `f`) and κ
//! random blinding polynomials `g_1..g_κ`; a public challenge derived from
//! the setup seed gives field coefficients `ρ_{k,c}`, and every player
//! publicly opens its point of `h_k = g_k + Σ_c ρ_{k,c}·f_c`. Each `h_k` is
//! uniformly random (the blinding), so nothing leaks.
//!
//! **Soundness.** Against a dealer that does not know the challenge, a
//! check misses an inconsistent dealing with probability at most `1/|F|`
//! (`|F| = 2^61 − 1`). The challenge comes from the setup seed, which every
//! player — a deviating dealer too — holds before dealing; a dealer that
//! uses it can blind any inconsistent dealing past every check, so against
//! such a dealer detection is not guaranteed (DESIGN.md §3).
//!
//! Verdicts are per-player:
//!
//! * [`Verdict::DealerBad`] — the opened `h_k` doesn't decode, or ≥ t+1
//!   players accuse: the dealer is disqualified (t liars cannot frame an
//!   honest dealer because decoding corrects t errors when `n > f + 3t`).
//! * [`Verdict::MyShareBad`] — `h_k` decoded but disagrees with *my* dealt
//!   share: a colluding dealer targeted me; I must not use this share.
//! * [`Verdict::Ok`] — consistent.
//!
//! Accusers and openers are counted in [`PartySet`]s, and a sender id `≥ n`
//! names no player: its messages are ignored.
//!
//! BKR close the remaining liveness gap (a disqualified-late dealer, aborts
//! forced by byzantine openers) with heavier machinery; this implementation
//! routes those events to the default/punishment path
//! (`tests/thresholds.rs` pins that a lie is never accepted).

use crate::reconstruct::OecState;
use mediator_field::{Fp, Poly};
use mediator_sim::sansio::{Outgoing, Payload};
use mediator_sim::PartySet;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What the dealer sends player `i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dealing {
    /// `f_c(x_i)` for each secret coordinate `c`.
    pub shares: Vec<Fp>,
    /// `g_k(x_i)` for each check `k`.
    pub blinds: Vec<Fp>,
}

/// Wire messages for one detectable-sharing instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectMsg {
    /// Dealer → player `i`: the dealt share vector and blinding shares.
    /// Boxed: a dealing is sent once per (dealer, player), and two inline
    /// vectors would set the size of every message the game carries.
    Deal(Box<Dealing>),
    /// Player broadcast: `h_k(x_i)` for every check (sent once, after Deal).
    /// The point vector is [`Payload`]-shared: the n-way broadcast fan-out
    /// bumps a refcount per recipient instead of copying the vector.
    Open {
        /// The opened points, one per check.
        points: Payload<Vec<Fp>>,
    },
    /// Accusation broadcast: my dealt share disagrees with the decoded `h`.
    Accuse,
}

/// Per-player verdict on the dealer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Sharing verified; shares usable.
    Ok,
    /// The dealer is provably or collectively bad; exclude it.
    DealerBad,
    /// The global check passed but my own share is wrong; I must treat my
    /// share as missing (and I have broadcast an accusation).
    MyShareBad,
}

/// The public challenge coefficient `ρ_{k,c}` for a dealer's instance.
pub fn challenge(seed: u64, dealer: usize, check: usize, coord: usize) -> Fp {
    // SplitMix-style mixing; public and identical at every player.
    let mut z = seed
        ^ (dealer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (check as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (coord as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Fp::new(z ^ (z >> 31))
}

/// Dealer-side: produce the `Deal` message for every player.
pub fn deal_detectable<R: Rng + ?Sized>(
    secrets: &[Fp],
    n: usize,
    f: usize,
    kappa: usize,
    rng: &mut R,
) -> Vec<DetectMsg> {
    let polys: Vec<Poly> = secrets
        .iter()
        .map(|&s| Poly::random_with_secret(s, f, rng))
        .collect();
    let blinds: Vec<Poly> = (0..kappa)
        .map(|_| Poly::random_with_secret(Fp::random(rng), f, rng))
        .collect();
    (0..n)
        .map(|i| {
            let xi = Fp::new(i as u64 + 1);
            DetectMsg::Deal(Box::new(Dealing {
                shares: polys.iter().map(|p| p.eval(xi)).collect(),
                blinds: blinds.iter().map(|g| g.eval(xi)).collect(),
            }))
        })
        .collect()
}

/// One player's state for one dealer's detectable sharing.
#[derive(Debug, Clone)]
pub struct DetectState {
    n: usize,
    /// Sharing degree, kept for introspection/debugging.
    #[allow(dead_code)]
    f: usize,
    t: usize,
    me: usize,
    dealer: usize,
    kappa: usize,
    seed: u64,
    my_shares: Option<Vec<Fp>>,
    my_blinds: Option<Vec<Fp>>,
    opened: bool,
    oec: Vec<OecState>,
    decoded: Vec<Option<Poly>>,
    accusers: PartySet,
    openers: PartySet,
    verdict: Option<Verdict>,
    accused_self: bool,
}

impl DetectState {
    /// Creates the state; `f` is the sharing degree (`k + t` in the paper),
    /// `t` the number of corrupted players to tolerate in decoding.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ f + 2t + 1` (the decode-liveness requirement).
    pub fn new(
        n: usize,
        f: usize,
        t: usize,
        me: usize,
        dealer: usize,
        kappa: usize,
        seed: u64,
    ) -> Self {
        assert!(
            n > f + 2 * t,
            "detectable sharing needs n ≥ f+2t+1 (n={n}, f={f}, t={t})"
        );
        DetectState {
            n,
            f,
            t,
            me,
            dealer,
            kappa,
            seed,
            my_shares: None,
            my_blinds: None,
            opened: false,
            oec: (0..kappa).map(|_| OecState::new(f, t)).collect(),
            decoded: vec![None; kappa],
            accusers: PartySet::new(),
            openers: PartySet::new(),
            verdict: None,
            accused_self: false,
        }
    }

    /// The verdict, once reached.
    pub fn verdict(&self) -> Option<Verdict> {
        self.verdict
    }

    /// The dealt shares — usable only with [`Verdict::Ok`].
    pub fn shares(&self) -> Option<&[Fp]> {
        self.my_shares.as_deref()
    }

    /// Handles a message, appending the broadcasts it sends to `out`, each
    /// tagged with this instance's dealer; returns the verdict when first
    /// reached. A sender id `≥ n` is ignored.
    pub fn on_message<M: From<(usize, DetectMsg)>>(
        &mut self,
        from: usize,
        msg: DetectMsg,
        out: &mut Vec<Outgoing<M>>,
    ) -> Option<Verdict> {
        if from >= self.n {
            return None;
        }
        let before = self.verdict;
        match msg {
            DetectMsg::Deal(dealing) => {
                if from == self.dealer
                    && self.my_shares.is_none()
                    && dealing.blinds.len() == self.kappa
                {
                    let Dealing { shares, blinds } = *dealing;
                    self.my_shares = Some(shares);
                    self.my_blinds = Some(blinds);
                    if !self.opened {
                        self.opened = true;
                        let points = Payload::new(self.my_open_points());
                        out.push(Outgoing::all(
                            (self.dealer, DetectMsg::Open { points }).into(),
                        ));
                    }
                }
            }
            DetectMsg::Open { points } => {
                if points.len() == self.kappa {
                    self.openers.insert(from);
                    for (k, &p) in points.iter().enumerate() {
                        if self.decoded[k].is_none() && self.oec[k].add_share(from, p).is_some() {
                            self.decoded[k] = self.oec[k].polynomial().cloned();
                        }
                    }
                    self.evaluate(out);
                }
            }
            DetectMsg::Accuse => {
                self.accusers.insert(from);
                self.evaluate(out);
            }
        }
        match (before, self.verdict) {
            (None, Some(v)) => Some(v),
            _ => None,
        }
    }

    fn my_open_points(&self) -> Vec<Fp> {
        let shares = self.my_shares.as_ref().expect("dealt");
        let blinds = self.my_blinds.as_ref().expect("dealt");
        (0..self.kappa)
            .map(|k| {
                let mut acc = blinds[k];
                for (c, &s) in shares.iter().enumerate() {
                    acc += challenge(self.seed, self.dealer, k, c) * s;
                }
                acc
            })
            .collect()
    }

    fn evaluate<M: From<(usize, DetectMsg)>>(&mut self, out: &mut Vec<Outgoing<M>>) {
        if self.verdict.is_some() {
            return;
        }
        // Dealer collectively bad: t+1 accusations (at least one honest).
        if self.accusers.len() > self.t {
            self.verdict = Some(Verdict::DealerBad);
            return;
        }
        // Check decode failures: if ≥ n−t players opened a check and OEC
        // still has no candidate after all points arrived, the openings are
        // not f-consistent — dealer bad. (Conservatively: all n opened.)
        if self.openers.len() == self.n {
            for k in 0..self.kappa {
                if self.decoded[k].is_none() {
                    self.verdict = Some(Verdict::DealerBad);
                    return;
                }
            }
        }
        // All checks decoded: verify own consistency.
        if self.decoded.iter().all(|d| d.is_some()) && self.my_shares.is_some() {
            let mine = self.my_open_points();
            let xi = Fp::new(self.me as u64 + 1);
            let consistent = (0..self.kappa)
                .all(|k| self.decoded[k].as_ref().expect("checked").eval(xi) == mine[k]);
            if consistent {
                self.verdict = Some(Verdict::Ok);
            } else {
                self.verdict = Some(Verdict::MyShareBad);
                if !self.accused_self {
                    self.accused_self = true;
                    out.push(Outgoing::all((self.dealer, DetectMsg::Accuse).into()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SEED: u64 = 424242;

    /// Drives one instance: `deals[i]` is what player i receives (allows
    /// corrupted deals); `liars` broadcast random open points.
    #[allow(clippy::too_many_arguments)]
    fn run(
        n: usize,
        f: usize,
        t: usize,
        dealer: usize,
        deals: Vec<DetectMsg>,
        liars: &[usize],
        kappa: usize,
        seed: u64,
    ) -> Vec<DetectState> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut states: Vec<DetectState> = (0..n)
            .map(|i| DetectState::new(n, f, t, i, dealer, kappa, SEED))
            .collect();
        let mut queue: Vec<(usize, usize, DetectMsg)> = Vec::new();
        for (i, d) in deals.into_iter().enumerate() {
            queue.push((dealer, i, d));
        }
        use rand::Rng;
        let mut guard = 0;
        while !queue.is_empty() {
            guard += 1;
            assert!(guard < 1_000_000);
            let i = rng.gen_range(0..queue.len());
            let (from, to, msg) = queue.swap_remove(i);
            let mut out: Vec<Outgoing<(usize, DetectMsg)>> = Vec::new();
            states[to].on_message(from, msg, &mut out);
            for Outgoing { msg: (_, m), .. } in out {
                // All DetectMsg replies are broadcasts.
                let m = if liars.contains(&to) {
                    match m {
                        DetectMsg::Open { points } => DetectMsg::Open {
                            points: Payload::new(
                                points.iter().map(|_| Fp::random(&mut rng)).collect(),
                            ),
                        },
                        other => other,
                    }
                } else {
                    m
                };
                for d in 0..n {
                    queue.push((to, d, m.clone()));
                }
            }
        }
        states
    }

    #[test]
    fn honest_dealer_everyone_ok() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 7;
        let (f, t) = (2, 2); // n ≥ f+2t+1 = 7 ✓
        let deals = deal_detectable(&[Fp::new(5), Fp::new(6)], n, f, 3, &mut rng);
        let states = run(n, f, t, 0, deals, &[], 3, 0);
        for s in &states {
            assert_eq!(s.verdict(), Some(Verdict::Ok));
        }
    }

    #[test]
    fn honest_dealer_survives_t_lying_openers() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 7;
        let (f, t) = (2, 2);
        let deals = deal_detectable(&[Fp::new(5)], n, f, 2, &mut rng);
        let states = run(n, f, t, 0, deals, &[5, 6], 2, 3);
        for (i, s) in states.iter().enumerate() {
            if ![5, 6].contains(&i) {
                assert_eq!(s.verdict(), Some(Verdict::Ok), "player {i}");
            }
        }
    }

    #[test]
    fn inconsistent_dealing_is_detected() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 7;
        let (f, t) = (2, 2);
        let mut deals = deal_detectable(&[Fp::new(5)], n, f, 2, &mut rng);
        // Corrupt three players' dealt shares: the share vector is no longer
        // degree-2 consistent.
        for d in deals.iter_mut().take(3) {
            if let DetectMsg::Deal(d) = d {
                d.shares[0] += Fp::new(1);
            }
        }
        let states = run(n, f, t, 0, deals, &[], 2, 7);
        // The combination h_k is inconsistent: decode either fails (DealerBad)
        // or decodes to a poly disagreeing with ≥ t+1 honest players, whose
        // accusations also yield DealerBad.
        let bad = states
            .iter()
            .filter(|s| s.verdict() == Some(Verdict::DealerBad))
            .count();
        assert!(bad >= n - 3, "dealer must be disqualified broadly: {bad}");
    }

    #[test]
    fn targeted_corruption_flags_my_share_bad() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 7;
        let (f, t) = (2, 2);
        let mut deals = deal_detectable(&[Fp::new(5)], n, f, 2, &mut rng);
        // Corrupt exactly one player's dealt share (≤ t targets: cannot be
        // pinned on the dealer by count alone).
        if let DetectMsg::Deal(d) = &mut deals[4] {
            d.shares[0] += Fp::new(99);
        }
        let states = run(n, f, t, 0, deals, &[], 2, 9);
        assert_eq!(states[4].verdict(), Some(Verdict::MyShareBad));
        // Others decode fine (the single bad opening is corrected by OEC) —
        // and see only 1 ≤ t accusations.
        for (i, s) in states.iter().enumerate() {
            if i != 4 {
                assert_eq!(s.verdict(), Some(Verdict::Ok), "player {i}");
            }
        }
    }

    #[test]
    fn phantom_accusers_and_openers_never_make_a_quorum() {
        // Ids n, n+1, … name no player. t+1 phantom accusations must not
        // disqualify the dealer, nor n phantom openers of garbage points
        // stand in for "everyone opened and nothing decodes".
        let (n, f, t) = (7, 2, 2);
        let mut s = DetectState::new(n, f, t, 0, 0, 1, SEED);
        let mut out: Vec<Outgoing<(usize, DetectMsg)>> = Vec::new();
        for from in n..2 * n {
            assert_eq!(s.on_message(from, DetectMsg::Accuse, &mut out), None);
            let points = Payload::new(vec![Fp::new(from as u64 * 7919)]);
            assert_eq!(
                s.on_message(from, DetectMsg::Open { points }, &mut out),
                None
            );
            assert!(out.is_empty());
        }
        assert_eq!(s.verdict(), None);
        for from in 0..=t {
            s.on_message(from, DetectMsg::Accuse, &mut out);
        }
        assert_eq!(s.verdict(), Some(Verdict::DealerBad), "t+1 real accusers");
    }

    #[test]
    fn challenge_is_public_and_stable() {
        assert_eq!(challenge(1, 2, 3, 4), challenge(1, 2, 3, 4));
        assert_ne!(challenge(1, 2, 3, 4), challenge(1, 2, 3, 5));
        assert_ne!(challenge(1, 2, 3, 4), challenge(2, 2, 3, 4));
    }

    #[test]
    #[should_panic(expected = "n ≥ f+2t+1")]
    fn rejects_undecodable_parameters() {
        let _ = DetectState::new(5, 2, 2, 0, 0, 1, SEED);
    }
}
