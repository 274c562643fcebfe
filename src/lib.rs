//! `mediator-talk` — a full Rust reproduction of *"Implementing Mediators
//! with Asynchronous Cheap Talk"* (Abraham, Dolev, Geffner, Halpern;
//! PODC 2019, arXiv:1806.01214).
//!
//! A mediator makes hard coordination problems trivial; this system shows
//! *when and how `n` asynchronous players can simulate one with nothing but
//! cheap talk*, tolerating `k` rational deviators and `t` malicious players.
//! The facade re-exports the workspace crates:
//!
//! * [`field`] — `GF(2^61−1)`, polynomials, Reed–Solomon robust decoding;
//! * [`sim`] — the asynchronous environment/scheduler model of §2;
//! * [`games`] — Bayesian games and the (k,t)-robustness solution concepts;
//! * [`circuits`] — arithmetic-circuit mediators;
//! * [`bcast`] — reliable broadcast, binary agreement, common subset;
//! * [`vss`] — Shamir, online error correction, AVSS, detectable sharing;
//! * [`mpc`] — the robust (`n > 4f`) and ε (`n > 3f`) MPC engines;
//! * [`core`] — mediator games, the four cheap-talk transforms
//!   (Theorems 4.1/4.2/4.4/4.5), Lemma 6.8, the deviation library, the
//!   experiment machinery, and the lower-bound frontier atlas
//!   (DESIGN.md §13);
//! * [`net`] — the transport plane: versioned wire codec, in-memory and
//!   TCP-loopback transports, and the networked multi-session `Service`
//!   runtime over the `Session` seam (DESIGN.md §9);
//! * [`store`] — the persistent trace store: CRC-framed append-only run
//!   logs, budget-bounded compaction that never drops a verdict, and
//!   deterministic byte-identical replay of stored runs — including
//!   networked recordings, re-enacted without a transport (DESIGN.md §11).
//!
//! # Quickstart
//!
//! Experiments go through the [`prelude`]'s **Scenario API**: a validated
//! builder (`Scenario::cheap_talk(…)`, `Scenario::mediator(…)`), a
//! seed-sweep batch runner (`.battery(…).seeds(…).run_batch()` →
//! [`RunSet`](crate::prelude::RunSet)), and a steppable
//! [`Session`](crate::prelude::Session).
//!
//! ```
//! use mediator_talk::prelude::*;
//!
//! // Five players implement a majority-vote mediator with cheap talk,
//! // tolerating one rational deviator (Theorem 4.1: n = 5 > 4k+4t = 4 —
//! // the builder rejects anything below the threshold with a typed error).
//! let n = 5;
//! let plan = Scenario::cheap_talk(catalog::majority_circuit(n))
//!     .players(n)
//!     .tolerance(1, 0)
//!     .inputs([1u64, 0, 1, 1, 0].iter().map(|&b| vec![Fp::new(b)]).collect())
//!     .build()
//!     .expect("threshold satisfied");
//! let out = plan.run_with(&SchedulerKind::Random, 7);
//! assert_eq!(out.resolve_default(&vec![0; n]), vec![1; n]);
//!
//! // The same plan fans out to a scheduler battery × seed grid, with
//! // outcome distributions aggregated per scheduler kind:
//! let set = plan.battery(SchedulerKind::battery(n)).seeds(0..8).run_batch();
//! assert_eq!(set.len(), SchedulerKind::battery(n).len() * 8);
//! ```

pub use mediator_bcast as bcast;
pub use mediator_circuits as circuits;
pub use mediator_core as core;
pub use mediator_field as field;
pub use mediator_games as games;
pub use mediator_mpc as mpc;
pub use mediator_net as net;
pub use mediator_sim as sim;
pub use mediator_store as store;
pub use mediator_vss as vss;

/// The batteries-included import surface: the Scenario builders, their
/// plans/run sets, the steppable session, and the vocabulary types they
/// speak (circuits catalog, field elements, scheduler kinds, outcomes).
pub mod prelude {
    pub use mediator_circuits::{catalog, Circuit};
    pub use mediator_core::adversary::{
        Conformance, ConformanceReport, ConformanceVerdict, Deviation, DeviationWitness,
        GossipColluder,
    };
    pub use mediator_core::deviations::Behavior;
    pub use mediator_core::frontier::{
        run_frontier_local, CellClass, CellResult, FrontierAtlas, FrontierCell, FrontierSpec,
        TheoremBand,
    };
    pub use mediator_core::implement::{compare_run_sets, ImplementationReport};
    pub use mediator_core::scenario::{
        Batch, CheapTalkPlan, DeviantFactory, GameFamily, MediatorPlan, Plan, Resolve, RunRecord,
        RunSet, Scenario, ScenarioError, Theorem,
    };
    pub use mediator_field::Fp;
    pub use mediator_games::dist::OutcomeDist;
    pub use mediator_games::library;
    pub use mediator_net::{
        run_frontier_sharded, run_over_mem, run_over_tcp, Client, FrontierShardLog, MemTransport,
        NetError, OutcomeSummary, Service, ServiceConfig, SessionHandle, ShardConfig, ShardedSweep,
        TcpTransport, TransportKind,
    };
    pub use mediator_sim::{
        Outcome, RunMeta, SchedulerKind, Session, SessionStatus, TerminationKind, TraceSink,
    };
    pub use mediator_store::{
        replay_plan, HeaderTemplate, PlanKind, ReplayError, ReplayReport, RunHeader, StoreSink,
        StoredRun, TraceStore, WitnessRecipe,
    };
}
