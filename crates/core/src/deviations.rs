//! The deviation library: what a deviating player *is*.
//!
//! Solution concepts over *extended* games quantify over all strategies —
//! an infinite space. The paper's lower-bound companion exhibits specific
//! attacks; experiments here do the analogous thing: parameterized
//! deviations applied to the honest machinery. [`Behavior`] deviations
//! plug into [`CheapTalkPlayer`](crate::cheap_talk::CheapTalkPlayer); they
//! are built by the [`adversary`](crate::adversary) plane's combinator DSL
//! ([`Deviation`](crate::adversary::Deviation)), which also generates the
//! coalition-strategy batteries and owns the one harness that judges them
//! — gains for deviators (resilience) and harms for bystanders (immunity),
//! with paired intervals ([`Conformance`](crate::adversary::Conformance)).
//! The §6.4 colluders are mediator-game processes:
//! [`GossipColluder`](crate::adversary::GossipColluder) in general, and
//! [`GossipColluder::counterexample`](crate::adversary::GossipColluder::counterexample)
//! the paper's specific point in that space.

use crate::adversary::Scheduled;
use mediator_field::Fp;
use mediator_sim::{Action, Ctx, Process, ProcessId};

/// Parameterized deviations applied to the honest cheap-talk player:
/// player-level switches plus the message-level tactic schedule compiled
/// from the [`adversary`](crate::adversary) DSL.
#[derive(Debug, Clone, Default)]
pub struct Behavior {
    /// Never participate at all (crash at start).
    pub silent: bool,
    /// Substitute this input for the real one.
    pub input_override: Option<Vec<Fp>>,
    /// Decode the action but never move (force wills/deadlock).
    pub refuse_to_move: bool,
    /// Write this will instead of the honest one.
    pub will_override: Option<Action>,
    /// Message-level tactics (drop/delay/corrupt/equivocate/silence/abort
    /// windows; crashing and lying in openings are two of them), applied in
    /// the player's send path.
    pub tactics: Vec<Scheduled>,
}

/// A process that never does anything (generic silent deviator).
pub struct SilentProcess;

impl<M> Process<M> for SilentProcess {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        ctx.halt();
    }
    fn on_message(&mut self, _src: ProcessId, _msg: M, _ctx: &mut Ctx<M>) {}
}
