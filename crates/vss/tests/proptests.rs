//! Property-based tests for the sharing layer: privacy-degree arithmetic,
//! online error correction soundness under arbitrary adversarial order and
//! lie patterns, and the vector AVSS against its per-coordinate reference.

mod avss_reference;

use avss_reference::RefState;
use mediator_field::{rs, Fp};
use mediator_sim::sansio::{route_batch, Outgoing};
use mediator_vss::avss::{self, AvssMsg, AvssState};
use mediator_vss::shamir::{lagrange_at_zero, share_secret, Share};
use mediator_vss::OecState;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `vals` with a random non-empty subset of its coordinates changed.
fn bend_some(vals: &mut [Fp], rng: &mut StdRng) {
    let must = rng.gen_range(0..vals.len());
    for (c, v) in vals.iter_mut().enumerate() {
        if c == must || rng.gen_range(0..4) == 0 {
            *v += Fp::random_nonzero(rng);
        }
    }
}

/// What a hostile dealer might hand a player in place of its rows.
fn hostile_rows(rows: &[Vec<Fp>], f: usize, rng: &mut StdRng) -> Vec<Vec<Fp>> {
    let mut rows = rows.to_vec();
    match rng.gen_range(0..5) {
        // Every coordinate replaced.
        0 => rows
            .iter_mut()
            .for_each(|r| r.iter_mut().for_each(|c| *c = Fp::random(rng))),
        // Some coordinates replaced: the others still confirm as dealt.
        1 => {
            let must = rng.gen_range(0..rows.len());
            for (c, r) in rows.iter_mut().enumerate() {
                if c == must || rng.gen_range(0..3) == 0 {
                    bend_some(r, rng);
                }
            }
        }
        // Lower-degree and empty rows (legal: at most f + 1 coefficients).
        2 => rows
            .iter_mut()
            .for_each(|r| r.truncate(rng.gen_range(0..=f + 1))),
        // A different number of secrets.
        3 => rows.push(vec![Fp::random(rng); f + 1]),
        // Malformed: a row of too high a degree.
        _ => rows[0].push(Fp::ONE),
    }
    rows
}

/// What a byzantine player might send in place of one honest message;
/// `None` drops it.
fn hostile_msg(msg: AvssMsg, rng: &mut StdRng) -> Option<AvssMsg> {
    let AvssMsg::Echo(vals) = msg else {
        return (rng.gen_range(0..4) > 0).then_some(msg);
    };
    let mut vals = vals.to_vec();
    match rng.gen_range(0..6) {
        0 => return None,
        1 => bend_some(&mut vals, rng),
        2 => vals.iter_mut().for_each(|v| *v = Fp::random(rng)),
        3 => vals = vec![Fp::ONE],
        4 => vals.push(Fp::ZERO),
        _ => {}
    }
    Some(AvssMsg::Echo(vals.into()))
}

/// Runs one AVSS instance on the vector state and on the per-coordinate
/// reference side by side, under a seeded adversary — rows withheld,
/// replaced or planted by a non-dealer, up to `f + 1` players tampering
/// with everything they send, arbitrary delivery order — and checks that
/// both emit the same messages after every delivery and end with the same
/// shares. Returns how many players completed.
fn avss_matches_reference(n: usize, f: usize, k: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let dealer = rng.gen_range(0..n);
    let secrets: Vec<Fp> = (0..k).map(|_| Fp::random(&mut rng)).collect();
    let deal_seed = rng.gen::<u64>();
    let dealt = avss::deal(&secrets, n, f, &mut StdRng::seed_from_u64(deal_seed));
    let spec = avss_reference::deal(&secrets, n, f, &mut StdRng::seed_from_u64(deal_seed));
    assert_eq!(dealt, spec, "deal: same draws, same rows");

    let byzantine: Vec<usize> = (0..rng.gen_range(0..=f + 1))
        .map(|_| rng.gen_range(0..n))
        .collect();
    let mut pool: Vec<(usize, usize, AvssMsg)> = Vec::new();
    for (to, msg) in dealt.into_iter().enumerate() {
        let AvssMsg::Rows { rows, coeffs } = &msg else {
            unreachable!("deal returns rows")
        };
        let rows: Vec<Vec<Fp>> = avss::split_rows(*rows, coeffs)
            .expect("dealt rows split evenly")
            .map(<[Fp]>::to_vec)
            .collect();
        match rng.gen_range(0..6) {
            0 => {}
            1 => {
                let bad = hostile_rows(&rows, f, &mut rng);
                pool.push((dealer, to, AvssMsg::rows(&bad)));
            }
            _ => pool.push((dealer, to, msg)),
        }
    }
    for &b in byzantine.iter().filter(|&&b| b != dealer) {
        // Rows for this instance from someone who is not its dealer.
        let planted = avss::deal(&secrets, n, f, &mut rng);
        for (to, msg) in planted.into_iter().enumerate() {
            if rng.gen_range(0..2) == 0 {
                pool.push((b, to, msg));
            }
        }
    }

    let mut states: Vec<AvssState> = (0..n).map(|_| AvssState::new(n, f, dealer)).collect();
    let mut refs: Vec<RefState> = (0..n).map(|_| RefState::new(n, f, dealer)).collect();
    while !pool.is_empty() {
        let (from, to, msg) = pool.swap_remove(rng.gen_range(0..pool.len()));
        let mut out: Vec<Outgoing<AvssMsg>> = Vec::new();
        let done = states[to].on_message(from, msg.clone(), &mut out);
        let got = (out, done);
        let want = refs[to].on_message(from, msg);
        assert_eq!(got, want, "player {to} after a message from {from}");
        assert_eq!(states[to].shares().map(<[Fp]>::to_vec), refs[to].shares());
        route_batch(n, got.0, |d, m| {
            if !byzantine.contains(&to) {
                pool.push((to, d, m));
            } else if let Some(m) = hostile_msg(m, &mut rng) {
                pool.push((to, d, m));
            }
        });
    }
    for (s, r) in states.iter().zip(&refs) {
        assert_eq!(s.is_completed(), r.is_completed());
        assert_eq!(s.shares().map(<[Fp]>::to_vec), r.shares());
    }
    states.iter().filter(|s| s.is_completed()).count()
}

proptest! {
    #[test]
    fn share_then_reconstruct(secret in any::<u64>(), deg in 0usize..4, extra in 1usize..4, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = deg + extra;
        let (_, shares) = share_secret(Fp::new(secret), deg, n, &mut rng);
        let pts: Vec<(Fp, Fp)> = shares.iter().map(Share::point).collect();
        let p = rs::interpolate_exact(&pts, deg).unwrap();
        prop_assert_eq!(p.eval(Fp::ZERO), Fp::new(secret));
    }

    #[test]
    fn linear_combinations_of_sharings_share_the_combination(
        s1 in any::<u64>(), s2 in any::<u64>(), c in any::<u64>(), seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let deg = 2;
        let n = 6;
        let (_, a) = share_secret(Fp::new(s1), deg, n, &mut rng);
        let (_, b) = share_secret(Fp::new(s2), deg, n, &mut rng);
        let combo: Vec<Share> = a.iter().zip(&b).map(|(x, y)| Share {
            index: x.index,
            value: x.value + Fp::new(c) * y.value,
        }).collect();
        let pts: Vec<(Fp, Fp)> = combo.iter().map(Share::point).collect();
        let p = rs::interpolate_exact(&pts, deg).unwrap();
        prop_assert_eq!(p.eval(Fp::ZERO), Fp::new(s1) + Fp::new(c) * Fp::new(s2));
    }

    #[test]
    fn lagrange_weights_sum_reconstruction(secret in any::<u64>(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let deg = 2;
        let n = 7;
        let (_, shares) = share_secret(Fp::new(secret), deg, n, &mut rng);
        let holders = [1usize, 3, 4, 6];
        let mut acc = Fp::ZERO;
        for &j in &holders {
            acc += lagrange_at_zero(&holders, j) * shares[j].value;
        }
        prop_assert_eq!(acc, Fp::new(secret));
    }

    /// OEC soundness under arbitrary arrival order, arbitrary liar subset of
    /// size ≤ f and arbitrary lie values: any accepted value equals the true
    /// secret, and acceptance happens once all honest shares are in.
    #[test]
    fn oec_never_accepts_a_wrong_value(
        secret in any::<u64>(),
        order_seed in any::<u64>(),
        liar_mask in any::<u16>(),
        lie in 1u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let deg = 2usize;
        let f = 2usize;
        let n = deg + 2 * f + 1; // 7
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, shares) = share_secret(Fp::new(secret), deg, n, &mut rng);
        // Choose up to f liars from the mask.
        let liars: Vec<usize> = (0..n).filter(|i| (liar_mask >> i) & 1 == 1).take(f).collect();
        // Arbitrary arrival order.
        let mut order: Vec<usize> = (0..n).collect();
        let mut orng = StdRng::seed_from_u64(order_seed);
        use rand::Rng;
        for i in 0..n {
            let j = orng.gen_range(i..n);
            order.swap(i, j);
        }
        let mut oec = OecState::new(deg, f);
        for &i in &order {
            let v = if liars.contains(&i) { shares[i].value + Fp::new(lie) } else { shares[i].value };
            if let Some(got) = oec.add_share(i, v) {
                prop_assert_eq!(got, Fp::new(secret));
            }
        }
        prop_assert_eq!(oec.secret(), Some(Fp::new(secret)), "must terminate with all shares in");
    }

    /// The vector AVSS is the per-coordinate AVSS: same outgoing sequence
    /// after every message and same shares, hostile inputs included.
    #[test]
    fn vector_avss_matches_the_per_coordinate_reference(
        f in 0usize..=3, extra in 1usize..=4, k in 1usize..=40, seed in any::<u64>()
    ) {
        avss_matches_reference(4 * f + extra, f, k, seed);
    }

    /// Privacy-shaped property: any deg shares are consistent with every
    /// candidate secret (perfect secrecy of Shamir sharing).
    #[test]
    fn deg_shares_are_consistent_with_any_secret(
        secret in any::<u64>(), candidate in any::<u64>(), seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let deg = 3;
        let (_, shares) = share_secret(Fp::new(secret), deg, 8, &mut rng);
        // Take deg shares and a hypothetical secret: an interpolating
        // polynomial of degree ≤ deg always exists.
        let mut pts = vec![(Fp::ZERO, Fp::new(candidate))];
        pts.extend(shares.iter().take(deg).map(Share::point));
        let p = mediator_field::Poly::interpolate(&pts);
        prop_assert!(p.degree().map_or(0, |d| d) <= deg);
        prop_assert_eq!(p.eval(Fp::ZERO), Fp::new(candidate));
    }
}
