//! [`SansIo`] driver for the MPC engine.
//!
//! [`MpcDriver`] bundles one player's [`MpcEngine`] with its private circuit
//! inputs, so the whole execution — dealing, core agreement, evaluation,
//! output reconstruction — runs under the full `mediator-sim` `World` via
//! [`SansIoProcess`](mediator_sim::sansio::SansIoProcess) or
//! [`Machines`](mediator_sim::sansio::Machines), with randomness
//! drawn from the runtime's process-local generator. The cheap-talk
//! embedding in `mediator-core` drives this same type, so the game layer
//! and the protocol test suites exercise one engine wrapping, not two.

use crate::config::MpcConfig;
use crate::engine::{MpcEngine, MpcEvent, MpcStatus};
use crate::msg::MpcMsg;
use mediator_circuits::Circuit;
use mediator_field::Fp;
use mediator_sim::sansio::{Outgoing, SansIo};
use rand::rngs::StdRng;
use std::sync::Arc;

/// One player's MPC engine plus its start-time inputs.
pub struct MpcDriver {
    engine: MpcEngine,
    inputs: Option<Vec<Fp>>,
}

impl MpcDriver {
    /// Creates the driver for player `me` contributing `inputs`. The
    /// configuration is shared — pass an `Arc<MpcConfig>` so the `n`
    /// drivers of one execution share a single allocation.
    pub fn new(
        cfg: impl Into<Arc<MpcConfig>>,
        circuit: Arc<Circuit>,
        me: usize,
        inputs: Vec<Fp>,
    ) -> Self {
        MpcDriver {
            engine: MpcEngine::new(cfg, circuit, me),
            inputs: Some(inputs),
        }
    }

    /// The wrapped engine's externally visible status.
    pub fn status(&self) -> &MpcStatus {
        self.engine.status()
    }

    /// The agreed input core, once decided.
    pub fn core(&self) -> Option<&[usize]> {
        self.engine.core()
    }
}

impl SansIo for MpcDriver {
    type Msg = MpcMsg;
    type Output = MpcEvent;

    fn on_start(&mut self, rng: &mut StdRng) -> Vec<Outgoing<MpcMsg>> {
        let inputs = self.inputs.take().expect("MPC driver started twice");
        self.engine.start(&inputs, rng)
    }

    fn on_message(
        &mut self,
        from: usize,
        msg: MpcMsg,
        _rng: &mut StdRng,
    ) -> (Vec<Outgoing<MpcMsg>>, Option<MpcEvent>) {
        self.engine.on_message(from, msg)
    }

    /// Done when the engine reached a terminal status (`Done`/`Aborted`); a
    /// terminal engine produces no further messages, so halting the process
    /// is behaviourally equivalent to keeping it.
    fn is_done(&self) -> bool {
        !matches!(self.engine.status(), MpcStatus::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_circuits::catalog;
    use mediator_sim::sansio::Machines;
    use mediator_sim::{Behavior, SchedulerKind};

    fn drivers(cfg: &MpcConfig, circuit: Circuit, inputs: &[Vec<Fp>]) -> Vec<MpcDriver> {
        let circuit = Arc::new(circuit);
        // One shared config allocation for all n drivers.
        let cfg = Arc::new(cfg.clone());
        (0..cfg.n)
            .map(|me| MpcDriver::new(Arc::clone(&cfg), circuit.clone(), me, inputs[me].clone()))
            .collect()
    }

    #[test]
    fn sum_circuit_under_world_for_adversarial_schedulers() {
        let n = 5;
        let cfg = MpcConfig::robust(n, 1, 7, vec![vec![Fp::ZERO]; n]);
        let inputs: Vec<Vec<Fp>> = (1..=n as u64).map(|v| vec![Fp::new(v)]).collect();
        // Asynchronous MPC fixes a core of >= n - f input providers; an
        // adversarial scheduler may legitimately starve one player's dealing
        // past the core decision, in which case its input defaults to zero.
        // The checkable guarantees: everyone finishes, everyone agrees, and
        // the sum matches the full total minus at most f excluded inputs.
        let admissible: Vec<Fp> = {
            let mut v = vec![Fp::new(15)];
            v.extend((1..=n as u64).map(|excluded| Fp::new(15 - excluded)));
            v
        };
        for kind in [
            SchedulerKind::Random,
            SchedulerKind::Lifo,
            SchedulerKind::TargetedDelay(vec![2]),
        ] {
            for seed in 0..2 {
                let (_, outputs) = Machines::new(drivers(&cfg, catalog::sum_circuit(n), &inputs))
                    .run(kind.build().as_mut(), seed, 4_000_000);
                let first = match outputs[0].as_ref() {
                    Some(MpcEvent::Done(v)) => v.clone(),
                    other => panic!("player 0 under {kind:?} seed {seed}: {other:?}"),
                };
                assert!(
                    admissible.contains(&first[0]),
                    "sum {:?} outside admissible core sums under {kind:?}",
                    first[0]
                );
                for (i, ev) in outputs.iter().enumerate() {
                    assert_eq!(
                        ev.as_ref(),
                        Some(&MpcEvent::Done(first.clone())),
                        "agreement: player {i} under {kind:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn silent_byzantine_player_does_not_block_world_run() {
        let n = 5;
        let cfg = MpcConfig::robust(n, 1, 9, vec![vec![Fp::ZERO]; n]);
        let inputs: Vec<Vec<Fp>> = (0..n as u64).map(|v| vec![Fp::new(v % 2)]).collect();
        let silent: Behavior<MpcMsg> = Box::new(|_, _, _| Vec::new());
        let (_, outputs) = Machines::new(drivers(&cfg, catalog::majority_circuit(n), &inputs))
            .byzantine(4, silent)
            .run(SchedulerKind::Random.build().as_mut(), 11, 4_000_000);
        for (i, ev) in outputs.iter().enumerate() {
            if i != 4 {
                let done = matches!(ev, Some(MpcEvent::Done(_)));
                assert!(done, "player {i}: {ev:?}");
            }
        }
    }
}
