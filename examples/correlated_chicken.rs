//! Correlated equilibrium in chicken: the canonical reason mediators help.
//!
//! The mediator draws a joint recommendation — `(C,C)` half the time,
//! `(C,D)`/`(D,C)` a quarter each — and privately tells each player only
//! its own action. Obeying is an equilibrium worth 5.25 to each player,
//! strictly better than the symmetric mixed Nash (≈ 4.67); no uncorrelated
//! play achieves it. This example runs the mediator game as a 4000-seed
//! batch (one `run_batch` call — the seed loop and the distribution
//! aggregation live in the `RunSet`) and verifies the recommendation
//! distribution and the obedience incentives.
//!
//! ```sh
//! cargo run --release --example correlated_chicken
//! ```

use mediator_talk::games::correlated::correlated_violation;
use mediator_talk::prelude::*;

fn main() {
    let (game, reference) = library::chicken_correlated();
    println!("game: {} (0 = Dare, 1 = Chicken)", game.name());

    // Sample the mediated play: 4000 seeds, fanned across worker threads.
    let set = Scenario::mediator(catalog::chicken_mediator())
        .players(2)
        .build()
        .expect("no tolerance requested")
        .seeds(0..4000)
        .run_batch();
    let empirical = set.pooled();
    println!(
        "sampled {} runs, mean {:.1} messages each",
        set.len(),
        set.mean_messages()
    );

    println!("recommendation distribution (empirical vs designed):");
    for (profile, want) in [(vec![1, 1], 0.5), (vec![0, 1], 0.25), (vec![1, 0], 0.25)] {
        let got = empirical.prob(&profile);
        println!("  {profile:?}: {got:.3} vs {want:.3}");
        assert!((got - want).abs() < 0.05, "distribution off at {profile:?}");
    }
    assert_eq!(
        empirical.prob(&[0, 0]),
        0.0,
        "mutual Dare must never be recommended"
    );

    // Expected utility of obedience.
    let us = library::dist_utilities(&game, &[0, 0], &reference);
    println!("expected utilities under the mediator: {us:?} (mixed Nash gives ≈ 4.67)");
    assert!((us[0] - 5.25).abs() < 1e-9);

    // Incentives: a player told Dare knows the other chickens (7 > 6);
    // told Chicken, the posterior makes it indifferent (14/3 either way).
    assert!(
        correlated_violation(&game, &reference, 0.0).is_none(),
        "obedience must be a best response to every recommendation"
    );
    println!("obedience is a correlated equilibrium — and only a mediator can deal it");
}
