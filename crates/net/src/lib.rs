//! The transport plane: the paper's asynchronous message-passing model
//! carried over real byte streams.
//!
//! Everything below PR 5 ran the protocols inside the in-process `World`
//! loop; this crate attaches the promised network backend to the
//! [`Session`](mediator_sim::Session) seam without moving a single state
//! machine:
//!
//! * [`wire`] — the versioned wire codec: length-prefixed frames, a
//!   compact hand-rolled binary encoding (varints + tag bytes; the build
//!   container has no serde derive to lean on), typed [`CodecError`]s for
//!   every malformed input.
//! * [`frame`] — the frame vocabulary (`Attach` / `Msg` / `Outcome` /
//!   `Reject` / `Abort`) and the one [`NetError`] every failure maps to.
//! * [`transport`] — two interchangeable backends under the same framing
//!   code: in-memory duplex pipes ([`MemTransport`]) and TCP loopback
//!   ([`TcpTransport`], always port 0 — sandbox/CI-safe).
//! * [`readiness`] — the reactor's event plumbing: a hand-rolled
//!   `poll(2)` wrapper (no `mio` in the container), a
//!   [`Waker`](readiness::Waker) bridging fd- and notify-based sources,
//!   and the [`NbListener`](readiness::NbListener) accept seam.
//! * [`service`] — the multi-session [`Service`] runtime: **one reactor
//!   thread** accepts connections, routes frames by `(session-id,
//!   player-id)`, drives every hosted session as a state machine over
//!   per-connection read/write buffers, detects quiescence, surfaces
//!   outcomes ([`Service::run_many`] drives thousands of sessions
//!   concurrently on one core). Sessions, routes and connection buffers
//!   are owned by that thread alone; callers hold a command sender.
//! * [`client`] — the thin relay endpoint ([`Client`]): the network leg
//!   of every message addressed to its players.
//! * [`auth`] — authenticated frames: per-pair keyed MACs (hand-rolled
//!   SipHash-2-4) sealing every shipped `Msg` under [`WIRE_VERSION_AUTH`],
//!   with sequence numbers for replay protection and downgrade rejection.
//!   Enable via [`ServiceConfig::auth`]; tampering surfaces as the typed
//!   [`NetError::AuthFailure`] and aborts only the tampered session.
//! * [`tamper`] — the Byzantine-relay battery: its relay is the
//!   content-blind [`bulk_relay`] loop with wire-level tactics (rewrite /
//!   replay / redirect / truncate / reorder / drop / delay / strip) over
//!   frame-counter windows as its hook for the target session's frames —
//!   the adversary plane's combinator style pointed at the transport
//!   (DESIGN.md §10). Reordering is the relay's job alone: the service
//!   delivers in arrival order.
//! * [`service`] also holds the plan entries: [`Service::host_plan`] hosts
//!   any scenario plan's `(scheduler, seed)` cell — the networked
//!   `.session_with(…)` — and [`run_over_tcp`] / [`run_over_mem`] do the
//!   whole loopback round trip in one call; [`Client::tcp`] /
//!   [`Client::mem`] dial a service with the plan's message type.
//! * [`shard`] — the conformance sharding plane: a coordinator leases
//!   sweep units (whole `(strategy, coalition)` grids, so honest-baseline
//!   pairing survives) to workers over mem or TCP, reclaims lapsed or
//!   orphaned leases with typed owners, re-enacts `Violated` witnesses,
//!   and renders verdicts **bit-identical** to a local sweep
//!   ([`ShardedSweep`], DESIGN.md §12).
//! * [`frontier`] — the lower-bound atlas over that plane:
//!   [`run_frontier_sharded`] executes every grid cell's sweep through the
//!   coordinator/worker machinery and must render a `FRONTIER.json`
//!   byte-identical to the local fan-out (DESIGN.md §13).
//!
//! **The network is an adversarial scheduler.** A networked run delivers
//! messages in whatever order the wire returns them — which is precisely a
//! §2 scheduler choice, so Theorem 4.1's guarantee transfers as *outcome-
//! kind* agreement with in-process runs, not byte-identical traces. See
//! the `service` module docs and DESIGN.md §9 for the argument, and the
//! parity suite (`tests/parity.rs`) for the pin.
//!
//! # Example: a cheap-talk game over TCP loopback
//!
//! ```
//! use mediator_circuits::catalog;
//! use mediator_core::scenario::Scenario;
//! use mediator_field::Fp;
//! use mediator_net::{run_over_tcp, ServiceConfig};
//! use mediator_sim::{SchedulerKind, TerminationKind};
//!
//! let n = 5;
//! let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
//!     .players(n)
//!     .tolerance(1, 0)
//!     .inputs(vec![vec![Fp::ONE]; n])
//!     .build()
//!     .expect("n = 5 > 4k+4t = 4");
//! // Real sockets: a service on an ephemeral loopback port, one relay
//! // connection per player, ~2k protocol messages over the wire.
//! let out = run_over_tcp(&plan, &SchedulerKind::Fifo, 7, ServiceConfig::default())
//!     .expect("networked run completes");
//! assert_eq!(out.termination, TerminationKind::Quiescent);
//! assert_eq!(out.resolve_default(&vec![0; n]), vec![1; n]);
//! ```

#![warn(missing_docs)]

pub mod auth;
pub mod client;
pub mod frame;
pub mod frontier;
mod reactor;
pub mod readiness;
pub mod service;
pub mod shard;
pub mod tamper;
pub mod transport;
pub mod wire;

pub use auth::{AuthKey, AuthTag, TamperKind};
pub use client::{bulk_relay, Client};
pub use frame::{Frame, NetError, OutcomeSummary, RejectReason, MAX_FRAME_LEN, SHARD_COORD};
pub use frontier::{run_frontier_sharded, FrontierShardLog};
pub use readiness::TryRead;
pub use service::{run_over_mem, run_over_tcp, Service, ServiceConfig, SessionHandle};
// Re-exported so sink-wiring callers need not name `mediator_sim` at all.
pub use mediator_sim::{RunMeta, TraceSink};
pub use shard::{coordinate, run_worker, worker_mem, ShardConfig, ShardedSweep};
pub use tamper::TransportKind;
pub use transport::{
    duplex, pipe, ConnPair, FrameRx, FrameTx, FramedRx, FramedTx, MemTransport, TcpTransport,
};
pub use wire::{CodecError, Wire, WIRE_VERSION, WIRE_VERSION_AUTH};
