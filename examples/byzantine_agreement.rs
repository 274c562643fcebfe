//! Byzantine agreement as a game (the paper's introduction): with a
//! mediator the problem is trivial; the cheap-talk transform keeps it
//! solved when the mediator leaves — and tolerates malicious players.
//!
//! ```sh
//! cargo run --example byzantine_agreement
//! ```

use mediator_talk::prelude::*;

fn main() {
    let n = 5;
    let (k, t) = (0, 1); // one malicious player; n = 5 > 4t = 4 ✓
    let game = library::byzantine_agreement_game(n);
    println!("game: {}", game.name());

    let inputs_bits = [1u64, 1, 1, 0, 1];
    let inputs: Vec<Vec<Fp>> = inputs_bits.iter().map(|&b| vec![Fp::new(b)]).collect();
    println!("inputs: {inputs_bits:?}");

    // --- With the trusted mediator ---
    let med = Scenario::mediator(catalog::majority_circuit(n))
        .players(n)
        .tolerance(k, t)
        .inputs(inputs.clone())
        .seed(1)
        .max_steps(100_000)
        .build()
        .expect("n − k − t ≥ 1");
    let out = med.run();
    println!(
        "mediator game: moves {:?} with only {} messages",
        &out.moves[..n],
        out.messages_sent
    );

    // --- Without the mediator: cheap talk, one player actively lying ---
    let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(k, t)
        .inputs(inputs)
        .deviant(3, Deviation::named("liar").lie_in_opens().build().1)
        .seed(7)
        .max_steps(4_000_000)
        .build()
        .expect("n = 5 > 4k+4t = 4");
    let out = plan.run();
    let moves = out.resolve_default(&vec![0; n]);
    println!(
        "cheap talk with a lying player 3: moves {moves:?} using {} messages",
        out.messages_sent
    );

    // The honest players still agree on the honest majority: the lies were
    // *corrected* by online error correction, not just detected.
    let honest: Vec<u64> = (0..n).filter(|&p| p != 3).map(|p| moves[p]).collect();
    assert!(honest.iter().all(|&m| m == honest[0]));
    println!("agreement + validity hold despite the byzantine player");

    // Utility view: unanimous majority pays 1 to everyone in the game.
    let types: Vec<usize> = inputs_bits.iter().map(|&b| b as usize).collect();
    let actions: Vec<usize> = moves.iter().map(|&m| m as usize).collect();
    let us = game.utilities(&types, &actions);
    println!("utilities: {us:?}");
}
