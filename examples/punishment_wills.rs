//! Punishment in the wills: the §6.4 counterexample, run end-to-end.
//!
//! The counterexample game has actions `{0, 1, ⊥}`: everyone playing `b`
//! (the mediator's coin) is worth 1.5 in expectation; mass-`⊥` is a
//! punishment worth 1.1. A **naive** mediator leaks `a + b·i (mod 2)` one
//! round before announcing `b` — and a rational pair of opposite parity
//! XORs its leaks, learns `b` early, and *deadlocks the game whenever
//! `b = 0`*, pocketing 1.1 instead of 1.0 (expected 1.55 > 1.5). The
//! minimally-informative mediator (Lemma 6.8) sends only the action, and
//! the same pair can no longer profit.
//!
//! Each variant is one `run_batch` seed sweep: the colluders are
//! registered as deviant *factories*, so every seed gets a fresh pair.
//!
//! ```sh
//! cargo run --release --example punishment_wills
//! ```

use mediator_talk::prelude::*;

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn run_variant(n: usize, naive: bool, collude: bool, samples: u64) -> (f64, f64) {
    let (game, _, k) = library::counterexample_game(n);
    let circuit = if naive {
        catalog::counterexample_naive(n)
    } else {
        catalog::counterexample_minfo(n)
    };
    let mut builder = Scenario::mediator(circuit)
        .players(n)
        .tolerance(k, 0)
        .wills(vec![library::BOTTOM as u64; n]) // ⊥ in every will
        .default_actions(vec![library::BOTTOM as u64; n]);
    if naive {
        builder = builder.naive_split();
    }
    if collude {
        // Players 0 and 1 have odd index difference: their leaks XOR
        // to b in the naive game.
        builder = builder
            .deviant(0, move || Box::new(GossipColluder::counterexample(n, 1)))
            .deviant(1, move || Box::new(GossipColluder::counterexample(n, 0)));
    }
    let set = builder
        .build()
        .expect("n − k ≥ 1")
        .seeds(0..samples)
        .run_batch();
    let (mut coalition_u, mut honest_u) = (Vec::new(), Vec::new());
    for out in set.outcomes() {
        // AH resolution with the ⊥ fallback is the set's built-in resolver.
        let actions = set.profile(out);
        let us = game.utilities(&vec![0; n], &actions);
        coalition_u.push((us[0] + us[1]) / 2.0);
        honest_u.push(us[n - 1]);
    }
    (mean(&coalition_u), mean(&honest_u))
}

fn main() {
    let n = 7;
    let samples = 300;
    let (_, mediated, k) = library::counterexample_game(n);
    let game = library::counterexample_game(n).0;
    let honest_value = library::dist_utilities(&game, &vec![0; n], &mediated)[0];
    println!("counterexample game, n = {n}, k = {k}");
    println!("equilibrium value (all follow the mediator): {honest_value}");
    println!("punishment value (mass ⊥): 1.1\n");

    let (base_naive, _) = run_variant(n, true, false, samples);
    println!("naive mediator, honest play:        coalition ≈ {base_naive:.3}");

    let (dev_naive, honest_naive) = run_variant(n, true, true, samples);
    println!(
        "naive mediator, colluding pair:     coalition ≈ {dev_naive:.3} (paper: 1.55), honest ≈ {honest_naive:.3}"
    );
    assert!(
        dev_naive > base_naive + 0.02,
        "the coalition must profit from the leak"
    );

    let (base_mi, _) = run_variant(n, false, false, samples);
    println!("min-info mediator, honest play:     coalition ≈ {base_mi:.3}");

    let (dev_mi, _) = run_variant(n, false, true, samples);
    println!("min-info mediator, colluding pair:  coalition ≈ {dev_mi:.3}");
    assert!(
        dev_mi <= base_mi + 0.05,
        "minimally-informative repair must remove the profit"
    );

    println!("\nLemma 6.8 in action: strip the mediator's unnecessary chatter and");
    println!("the deadlock-for-profit deviation disappears.");
}
