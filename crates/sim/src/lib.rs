//! A deterministic asynchronous message-passing simulator implementing the
//! environment model of Abraham–Dolev–Geffner–Halpern (PODC 2019), §2.
//!
//! In the paper's model, players alternate moves with an *environment*: the
//! environment picks which player moves next and which in-transit messages are
//! delivered to it. The environment cannot read message contents — it only
//! sees the *message pattern* (who sent what to whom, in which order). The
//! environment is constrained to eventually deliver every message and to
//! eventually schedule every live player, except for **relaxed schedulers**
//! (§5), which may withhold messages forever — subject to the all-or-none
//! rule for batches the mediator sent at the same step.
//!
//! This crate provides:
//!
//! * [`Process`] — the protocol state-machine trait (event-driven: `on_start`
//!   / `on_message`), with effects collected through [`Ctx`]: sending
//!   messages, making the (single) move in the underlying game, writing a
//!   *will* (the Aumann–Hart approach to infinite play), and halting.
//! * [`World`] — the deterministic event loop; produces an [`Outcome`] with
//!   the moves made, the wills, message counts, and a full [`Trace`] in the
//!   paper's `(s,i,j,k)/(d,i,j,k)` message-pattern notation.
//! * [`Scheduler`] implementations — fair random, FIFO, LIFO, targeted-delay
//!   adversaries, and the relaxed scheduler wrapper.
//! * [`sansio`] — the shared sans-IO driving contract ([`Outgoing`],
//!   [`Dest`](sansio::Dest), [`SansIo`](sansio::SansIo)) plus the generic
//!   [`SansIoProcess`](sansio::SansIoProcess) adapter and
//!   [`Machines`](sansio::Machines) runner that let any protocol state
//!   machine (reliable broadcast, agreement, AVSS, the MPC engine) run
//!   under the full `World` with every scheduler.
//! * [`Session`] — a steppable, non-consuming handle over a running
//!   [`World`]: `step` one event at a time, inspect the pending plane,
//!   `inject` external messages (the seam an async/network backend attaches
//!   to), `finish` into the ordinary [`Outcome`].
//! * [`covert`] — the Proposition 6.1 covert channel: players signalling
//!   values to the content-blind scheduler via counted self-messages.
//! * [`bytes`] — the byte kernel (bounds-checked cursor, strict LEB128)
//!   the wire codec and the trace-store codec both decode through.
//! * [`PartySet`] — the bitset of player ids every protocol state machine
//!   counts its quorums with.
//!
//! # Example
//!
//! ```
//! use mediator_sim::{Ctx, Process, ProcessId, RandomScheduler, World};
//!
//! struct Echoer;
//! impl Process<u64> for Echoer {
//!     fn on_start(&mut self, ctx: &mut Ctx<u64>) {
//!         if ctx.me() == 0 {
//!             ctx.send(1, 42);
//!         }
//!     }
//!     fn on_message(&mut self, _src: ProcessId, msg: u64, ctx: &mut Ctx<u64>) {
//!         ctx.make_move(msg);
//!         ctx.halt();
//!     }
//! }
//!
//! let mut world = World::new(vec![Box::new(Echoer), Box::new(Echoer)], 7);
//! let outcome = world.run(&mut RandomScheduler::new(), 10_000);
//! assert_eq!(outcome.moves[1], Some(42));
//! ```

pub mod bytes;
pub mod covert;
pub mod party_set;
pub mod process;
pub mod sansio;
pub mod scheduler;
pub mod session;
pub mod sink;
pub mod trace;
pub mod world;

pub use party_set::PartySet;
pub use process::{Action, Ctx, Process, ProcessId};
pub use sansio::{Behavior, Outgoing, Payload, View};
pub use scheduler::{
    FifoScheduler, LifoScheduler, RandomScheduler, RelaxedScheduler, ReplayScript, Scheduler,
    SchedulerKind,
};
pub use session::{Session, SessionStatus, SessionWants};
pub use sink::{RunMeta, TraceSink};
pub use trace::{Trace, TraceEvent, TraceMode};
pub use world::{Envelope, Outcome, TerminationKind, World};
