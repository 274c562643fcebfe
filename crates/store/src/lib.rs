//! Persistent trace store and deterministic replay.
//!
//! A run of the simulator is fully determined by `(plan, seed, schedule)`
//! — the paper's §2 model makes the schedule (the content-level message
//! pattern) the *only* free variable once processes and seeds are fixed.
//! This crate makes that fact operational: it persists the schedule and
//! verdict of interesting runs (a §6.4 attack found by the conformance
//! sweep, a networked differential cell) in a compact append-only log,
//! and re-enacts any stored run on demand, asserting the re-recorded
//! trace is byte-identical.
//!
//! Three layers:
//!
//! * [`codec`] + [`mod@format`] — the on-disk grammar: LEB128/tag-byte value
//!   encodings under CRC-framed records (`MTRC` magic, version byte), with
//!   typed [`StoreError`]s for every malformed shape, including the torn
//!   tail an interrupted append leaves.
//! * [`store`] — [`TraceStore`] over a [`Backend`] (in-memory or
//!   `std::fs`), with `(session, seed, kind)` lookup, streaming event
//!   iteration, and bounded retention: [`TraceStore::compact`] evicts the
//!   oldest event bodies but never a header or outcome.
//! * [`replay`] — [`replay_plan`] re-opens the world through the
//!   scenario plan's `session_with` seam with a [`mediator_sim::ReplayScheduler`]
//!   forcing the recorded dispatch order; networked recordings re-enact
//!   the transport pump in process. [`StoreSink`] plugs the store into
//!   anything emitting [`mediator_sim::TraceSink`] callbacks — notably the
//!   `mediator-net` service drivers and the conformance sweep, which is
//!   what turns a `Violated` witness into a file that
//!   `experiments -- --replay <path>` reproduces in one command.

#![warn(missing_docs)]

pub mod codec;
pub mod format;
pub mod recipe;
pub mod replay;
pub mod sink;
pub mod store;

pub use codec::{OutcomeRecord, PlanKind, RunHeader, StoreError};
pub use recipe::{record_witness, replay_witness, WitnessRecipe};
pub use replay::{
    replay_networked_session, replay_plan, replay_run, stored_script, ReplayError, ReplayReport,
};
pub use sink::{HeaderTemplate, StoreSink};
pub use store::{
    Backend, EventsIter, FileBackend, MemBackend, RunId, StoredRun, TraceStore, INDEX_WINDOW,
};
