//! Hosted sessions, as a client of the public `Service` API would run them.
//!
//! One long-lived [`Hosted`] service stands for one configuration — which
//! transport, which relay, MAC on or off, sink on or off — and is shared by
//! the two `svc_*` workloads, the upper five rungs of the ladder, and the
//! concurrency probes, so that "the `svc_solo_tcp` configuration" is one
//! value and not three copies.
//!
//! Load shape (the sandbox has two hardware threads): the reactor thread,
//! one relay thread, and the calling thread, which only blocks on outcomes.
//! One connection at a time.

use crate::inputs::Inputs;
use crate::trace::Tracer;
use mediator_core::cheap_talk::CtMsg;
use mediator_net::{
    bulk_relay, AuthKey, Client, MemTransport, OutcomeSummary, Service, ServiceConfig, TcpTransport,
};
use mediator_sim::{Outcome, SchedulerKind, TerminationKind};
use mediator_store::{HeaderTemplate, PlanKind, StoreSink, TraceStore};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Mem,
    Tcp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relay {
    /// `bulk_relay` over the raw byte stream: content-blind, one write per
    /// read burst.
    Bulk,
    /// The typed `Client`: decode, re-encode and write every frame.
    Typed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcConfig {
    pub transport: Transport,
    pub relay: Relay,
    pub auth: bool,
    pub sink: bool,
}

impl SvcConfig {
    /// The user-facing path: TCP loopback, typed client, MAC, recording.
    pub const SOLO_TCP: SvcConfig = SvcConfig {
        transport: Transport::Tcp,
        relay: Relay::Typed,
        auth: true,
        sink: true,
    };
    /// The throughput twin: no syscalls, no MAC, no recording.
    pub const MANY_MEM: SvcConfig = SvcConfig {
        transport: Transport::Mem,
        relay: Relay::Bulk,
        auth: false,
        sink: false,
    };
}

enum Dial {
    Mem(MemTransport),
    Tcp(SocketAddr),
}

struct SinkFile {
    sink: Arc<StoreSink>,
    path: PathBuf,
}

/// A running service plus what a client needs to reach it.
pub struct Hosted {
    cfg: SvcConfig,
    service: Service<CtMsg>,
    dial: Dial,
    sink: Option<SinkFile>,
    next_session: u64,
}

/// What one batch of concurrently hosted sessions produced.
pub struct BatchOut {
    pub outcomes: Vec<Result<Outcome, String>>,
    /// Outcome summaries the relay connection saw.
    pub summaries: usize,
}

impl BatchOut {
    /// The output oracle: every session passes the plan's check, and the
    /// relay was told about each of them.
    pub fn check(&self, inputs: &Inputs) -> Result<(), String> {
        for out in &self.outcomes {
            inputs.check(out.as_ref().map_err(Clone::clone)?)?;
        }
        if self.summaries != self.outcomes.len() {
            return Err(format!(
                "relay saw {} outcome summaries for {} sessions",
                self.summaries,
                self.outcomes.len()
            ));
        }
        Ok(())
    }

    pub fn messages(&self) -> u64 {
        self.outcomes
            .iter()
            .flatten()
            .map(|o| o.messages_sent)
            .sum()
    }
}

impl Hosted {
    /// Starts the service. `dir` receives the sink's `.mtrc` file when the
    /// configuration records.
    pub fn start(cfg: SvcConfig, dir: &Path) -> Result<Self, String> {
        let mut service_cfg = ServiceConfig::default();
        if cfg.auth {
            service_cfg = service_cfg.with_auth(AuthKey::from_seed(0xbe9c));
        }
        let sink = if cfg.sink {
            let path = dir.join("sink.mtrc");
            let store = TraceStore::create(&path).map_err(|e| format!("sink store: {e}"))?;
            let template = HeaderTemplate {
                plan: Some(PlanKind::CheapTalk),
                n: 5,
                k: 1,
                networked: true,
                ..HeaderTemplate::default()
            };
            let sink = Arc::new(StoreSink::with_template(store, template));
            service_cfg = service_cfg.with_sink(sink.clone());
            Some(SinkFile { sink, path })
        } else {
            None
        };
        let (service, dial) = match cfg.transport {
            Transport::Mem => {
                let hub = MemTransport::new();
                let service = Service::with_config(Box::new(hub.listener()), service_cfg);
                (service, Dial::Mem(hub))
            }
            Transport::Tcp => {
                let transport =
                    TcpTransport::bind_loopback().map_err(|e| format!("bind loopback: {e}"))?;
                let addr = transport.addr();
                let service = Service::with_config(Box::new(transport), service_cfg);
                (service, Dial::Tcp(addr))
            }
        };
        Ok(Hosted {
            cfg,
            service,
            dial,
            sink,
            next_session: 1,
        })
    }

    /// Hosts one session per seed, all in flight at once, relayed over one
    /// connection from one thread, and waits for every outcome.
    pub fn batch(
        &mut self,
        inputs: &Inputs,
        seeds: &[u64],
        unit: u64,
        tracer: &mut Tracer,
    ) -> BatchOut {
        let players = inputs.n;
        let first = self.next_session;
        self.next_session += seeds.len() as u64;
        let handles: Vec<_> = tracer.span("svc.host_plan", unit, |_| {
            seeds
                .iter()
                .zip(first..)
                .map(|(&seed, sid)| {
                    self.service
                        .host_plan(sid, &inputs.plan, SchedulerKind::Random, seed)
                })
                .collect()
        });
        let attaches: Vec<(u64, usize)> = (first..self.next_session)
            .flat_map(|sid| (0..players).map(move |p| (sid, p)))
            .collect();
        let (cfg, dial) = (self.cfg, &self.dial);
        std::thread::scope(|scope| {
            let relay = scope.spawn(move || {
                let start = Instant::now();
                let seen = relay_sessions(cfg, dial, &attaches, seeds.len());
                (seen, start, Instant::now())
            });
            let outcomes: Vec<Result<Outcome, String>> = tracer.span("svc.outcome", unit, |_| {
                handles
                    .into_iter()
                    .map(|h| h.outcome().map_err(|e| e.to_string()))
                    .collect()
            });
            let (seen, start, end) = relay.join().expect("relay thread panicked");
            tracer.record("svc.relay", unit, start, end);
            let mut out = BatchOut {
                outcomes,
                summaries: 0,
            };
            match seen {
                Ok(n) => out.summaries = n,
                // A relay failure with every outcome in hand still fails
                // the oracle, through the summary count.
                Err(e) => out.outcomes.push(Err(format!("relay: {e}"))),
            }
            out
        })
    }

    /// The first error the sink latched since the last call, if any.
    pub fn take_sink_error(&self) -> Option<String> {
        self.sink
            .as_ref()
            .and_then(|s| s.sink.take_error())
            .map(|e| e.to_string())
    }

    /// Drains the service and makes the one check that has to wait until
    /// everything has stopped: the sink's file, reopened, holds one record
    /// per session hosted. `Err((count, what))` is `count` failed checks.
    pub fn shutdown(self) -> Result<(), (u64, String)> {
        self.service.shutdown();
        let Some(SinkFile { sink, path }) = self.sink else {
            return Ok(());
        };
        drop(sink);
        let store = TraceStore::open(&path).map_err(|e| (1, format!("reopen sink: {e}")))?;
        let (hosted, recorded) = (self.next_session - 1, store.len() as u64);
        if recorded == hosted {
            Ok(())
        } else {
            Err((
                hosted.abs_diff(recorded),
                format!("sink holds {recorded} records for {hosted} sessions"),
            ))
        }
    }
}

/// The client side of one batch: dial, attach every `(session, player)`,
/// relay until `expected` sessions announced their outcome. Returns how
/// many outcome summaries arrived.
fn relay_sessions(
    cfg: SvcConfig,
    dial: &Dial,
    attaches: &[(u64, usize)],
    expected: usize,
) -> Result<usize, String> {
    let err = |e: mediator_net::NetError| e.to_string();
    match (cfg.relay, dial) {
        (Relay::Bulk, Dial::Mem(hub)) => {
            let (tx, rx) = hub.connect_raw();
            bulk_relay(rx, tx, attaches, expected)
                .map(|v| v.len())
                .map_err(err)
        }
        (Relay::Bulk, Dial::Tcp(addr)) => {
            let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let reader = stream.try_clone().map_err(|e| e.to_string())?;
            bulk_relay(reader, stream, attaches, expected)
                .map(|v| v.len())
                .map_err(err)
        }
        (Relay::Typed, dial) => {
            // The typed client's `relay()` returns at the first outcome,
            // so it serves exactly one session per connection.
            assert_eq!(expected, 1, "a typed client relays one session");
            let mut client: Client<CtMsg> = match dial {
                Dial::Mem(hub) => Client::mem(hub),
                Dial::Tcp(addr) => Client::tcp(*addr).map_err(err)?,
            };
            for &(session, player) in attaches {
                client.attach(session, player).map_err(err)?;
            }
            let summary: OutcomeSummary = client.relay().map_err(err)?;
            if summary.termination != TerminationKind::Quiescent {
                return Err(format!("relay saw {:?}", summary.termination));
            }
            Ok(1)
        }
    }
}
