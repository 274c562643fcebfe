//! The layer ladder: one fixed input, nine rungs, each adding one layer.
//!
//! | rung | adds |
//! |---|---|
//! | `world` | `plan.run_with`: the closed `World` loop |
//! | `session` | the `Session` seam, pumped by this file: drain the outbox, step, re-inject |
//! | `codec` | every drained envelope through `encode_body` → `decode_body` |
//! | `mac` | every frame sealed before encode and verified after decode |
//! | `mem_bulk` | a real `Service` on its reactor thread, `MemTransport`, `bulk_relay` |
//! | `tcp_bulk` | the same over TCP loopback: syscalls, one write per read burst |
//! | `tcp_client` | the typed `Client::relay`: one decode, encode and write per frame |
//! | `tcp_client_auth` | MAC on the service |
//! | `tcp_client_auth_sink` | recording to a file-backed store: the `svc_solo_tcp` configuration |
//!
//! Every rung runs the same sessions (n = 5, one session in flight), so the
//! difference between two neighbouring rungs prices the layer between
//! them. The in-process rungs are single-threaded and CPU-bound; from
//! `mem_bulk` up a session also waits for another thread, which is why
//! wall and CPU time are reported side by side.

use crate::inputs::Inputs;
use crate::stats::{self, median};
use crate::svc::{Hosted, Relay, SvcConfig, Transport};
use crate::trace::{timed, CallAcc, Tracer};
use mediator_core::cheap_talk::CtMsg;
use mediator_net::{AuthKey, AuthTag, Frame};
use mediator_sim::{Envelope, Outcome, SchedulerKind};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// What the benchmark's own pump puts between outbox and inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Envelopes pass straight through.
    None,
    Codec,
    CodecMac,
}

/// Per-layer time of one pumped session (traced runs only).
#[derive(Default)]
pub struct PumpAcc {
    pub open: CallAcc,
    pub drain: CallAcc,
    pub step: CallAcc,
    pub inject: CallAcc,
    pub seal: CallAcc,
    pub encode: CallAcc,
    pub decode: CallAcc,
    pub verify: CallAcc,
    pub finish: CallAcc,
}

/// Frames and bytes one pumped session put on its (in-memory) wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCount {
    pub frames: u64,
    pub bytes: u64,
}

const SESSION_ID: u64 = 1;

/// Drives one session the way the reactor does — ship everything the last
/// step sent, step while anything is locally pending, otherwise deliver
/// one frame off the wire — through public `Session` calls only.
///
/// `keep` receives every frame as shipped (the codec probes' corpus).
pub fn pump_session(
    inputs: &Inputs,
    seed: u64,
    wire: Wire,
    mut acc: Option<&mut PumpAcc>,
    mut keep: Option<&mut Vec<Frame<CtMsg>>>,
) -> Result<(Outcome, WireCount), String> {
    macro_rules! layer {
        ($field:ident, $call:expr) => {
            timed(acc.as_deref_mut().map(|a| &mut a.$field), || $call)
        };
    }
    let key = AuthKey::from_seed(0xbe9c);
    let mut session = layer!(open, inputs.plan.session_with(&SchedulerKind::Random, seed));
    let mut in_flight: VecDeque<Envelope<CtMsg>> = VecDeque::new();
    let mut count = WireCount::default();
    let mut body: Vec<u8> = Vec::with_capacity(256);
    let mut seq = 0u64;
    loop {
        for env in layer!(drain, session.drain_outbox()) {
            if wire == Wire::None {
                count.frames += 1;
                in_flight.push_back(env);
                continue;
            }
            let auth = (wire == Wire::CodecMac).then(|| {
                seq += 1;
                AuthTag { seq, mac: [0; 8] }
            });
            let mut frame = Frame::Msg {
                session: SESSION_ID,
                src: env.src,
                dst: env.dst,
                msg: env.msg,
                auth,
            };
            if wire == Wire::CodecMac {
                layer!(seal, frame.seal(&key));
            }
            body.clear();
            layer!(encode, frame.encode_body(&mut body));
            count.frames += 1;
            count.bytes += 4 + body.len() as u64; // length prefix + body
            if let Some(keep) = keep.as_deref_mut() {
                keep.push(frame);
            }
            let decoded = layer!(decode, Frame::<CtMsg>::decode_body(&body))
                .map_err(|e| format!("decode: {e}"))?;
            let Frame::Msg {
                session: sid,
                src,
                dst,
                msg,
                auth,
            } = decoded
            else {
                return Err("decoded frame is not a Msg".into());
            };
            if wire == Wire::CodecMac {
                let tag = auth.ok_or("decoded frame lost its MAC trailer")?;
                let prefix = &body[..body.len() - 8];
                let verdict = layer!(verify, key.verify_msg(sid, src, dst, prefix, tag.mac));
                if !verdict.is_authentic() {
                    return Err(format!("frame {seq} failed verification"));
                }
            }
            in_flight.push_back(Envelope { src, dst, msg });
        }
        if layer!(step, session.pump_ready()) {
            continue;
        }
        // Nothing locally pending: the wire delivers one frame. The
        // injected message is the only event on the plane, so the step
        // right after it is its delivery — the next drain must not see it.
        match in_flight.pop_front() {
            Some(env) => {
                let injected = layer!(inject, session.inject(env.src, env.dst, env.msg));
                if injected.progressed() {
                    layer!(step, session.pump_ready());
                }
            }
            None => break,
        }
    }
    let out = layer!(finish, session.finish());
    Ok((out, count))
}

/// One rung's result over the ladder's sessions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rung {
    pub name: &'static str,
    /// Median wall time of a session, ms.
    pub wall_ms: f64,
    /// Process CPU time per session, ms.
    pub cpu_ms: f64,
    /// Frames and bytes per session on the wire this rung has (0 where the
    /// rung has no wire the benchmark can see).
    pub frames: f64,
    pub bytes: f64,
    pub sessions: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// Runs `session` once per seed and summarises.
fn measure(
    name: &'static str,
    seeds: &[u64],
    tracer: &mut Tracer,
    mut session: impl FnMut(u64, u64, &mut Tracer) -> Result<WireCount, String>,
) -> Rung {
    let mut wall_ms = Vec::with_capacity(seeds.len());
    let (mut failed, mut first_error) = (0, None);
    let mut wire = WireCount::default();
    let cpu_before = stats::process_cpu_s();
    for (id, &seed) in seeds.iter().enumerate() {
        let start = Instant::now();
        let out = tracer.span(name, id as u64, |t| session(seed, id as u64, t));
        let elapsed = start.elapsed();
        match out {
            Ok(count) => {
                wall_ms.push(elapsed.as_secs_f64() * 1e3);
                wire.frames += count.frames;
                wire.bytes += count.bytes;
            }
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(e);
            }
        }
    }
    let cpu_s = stats::process_cpu_s() - cpu_before;
    let ok = wall_ms.len().max(1) as f64;
    Rung {
        name,
        wall_ms: if wall_ms.is_empty() {
            0.0
        } else {
            median(&wall_ms)
        },
        cpu_ms: cpu_s * 1e3 / seeds.len().max(1) as f64,
        frames: wire.frames as f64 / ok,
        bytes: wire.bytes as f64 / ok,
        sessions: seeds.len() as u64,
        failed,
        first_error,
    }
}

/// An in-process rung pumped by [`pump_session`]. When the tracer is on,
/// each session's per-layer time is recorded under its span.
pub fn pumped_rung(
    name: &'static str,
    inputs: &Inputs,
    seeds: &[u64],
    wire: Wire,
    tracer: &mut Tracer,
) -> Rung {
    measure(name, seeds, tracer, |seed, id, t| {
        let mut acc = t.enabled().then(PumpAcc::default);
        let (out, count) = pump_session(inputs, seed, wire, acc.as_mut(), None)?;
        inputs.check(&out)?;
        if let Some(acc) = acc {
            for (layer, calls) in [
                ("core.session_with", acc.open),
                ("sim.drain_outbox", acc.drain),
                ("sim.pump_ready", acc.step),
                ("sim.inject", acc.inject),
                ("net.seal", acc.seal),
                ("net.encode_body", acc.encode),
                ("net.decode_body", acc.decode),
                ("net.verify_msg", acc.verify),
                ("sim.finish", acc.finish),
            ] {
                t.record_acc(layer, id, calls);
            }
        }
        Ok(count)
    })
}

/// A rung hosted on a real `Service`, one session in flight.
fn hosted_rung(
    name: &'static str,
    cfg: SvcConfig,
    inputs: &Inputs,
    seeds: &[u64],
    dir: &Path,
    tracer: &mut Tracer,
) -> Rung {
    let mut hosted = match Hosted::start(cfg, dir) {
        Ok(h) => h,
        Err(e) => {
            return Rung {
                name,
                sessions: seeds.len() as u64,
                failed: seeds.len() as u64,
                first_error: Some(format!("cannot start: {e}")),
                ..Rung::default()
            }
        }
    };
    // Untimed first session: connects the loopback path and faults in the
    // reactor's buffers, as the workloads' warm-up does.
    let _ = hosted.batch(inputs, &seeds[..1], u64::MAX, &mut Tracer::off());
    let mut rung = measure(name, seeds, tracer, |seed, id, t| {
        let out = hosted.batch(inputs, &[seed], id, t);
        out.check(inputs)?;
        if let Some(e) = hosted.take_sink_error() {
            return Err(format!("sink: {e}"));
        }
        Ok(WireCount::default())
    });
    if let Err((count, what)) = hosted.shutdown() {
        rung.failed += count;
        rung.first_error.get_or_insert(what);
    }
    rung
}

/// All nine rungs over the same `seeds`.
pub fn run(inputs: &Inputs, seeds: &[u64], dir: &Path, tracer: &mut Tracer) -> Vec<Rung> {
    let svc = |transport, relay, auth, sink| SvcConfig {
        transport,
        relay,
        auth,
        sink,
    };
    let mut rungs = vec![
        measure("world", seeds, tracer, |seed, _, _| {
            let out = inputs.plan.run_with(&SchedulerKind::Random, seed);
            inputs.check(&out)?;
            Ok(WireCount::default())
        }),
        pumped_rung("session", inputs, seeds, Wire::None, tracer),
        pumped_rung("codec", inputs, seeds, Wire::Codec, tracer),
        pumped_rung("mac", inputs, seeds, Wire::CodecMac, tracer),
    ];
    for (name, cfg) in [
        ("mem_bulk", svc(Transport::Mem, Relay::Bulk, false, false)),
        ("tcp_bulk", svc(Transport::Tcp, Relay::Bulk, false, false)),
        (
            "tcp_client",
            svc(Transport::Tcp, Relay::Typed, false, false),
        ),
        (
            "tcp_client_auth",
            svc(Transport::Tcp, Relay::Typed, true, false),
        ),
        ("tcp_client_auth_sink", SvcConfig::SOLO_TCP),
    ] {
        rungs.push(hosted_rung(name, cfg, inputs, seeds, dir, tracer));
    }
    rungs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pump_variant_reaches_the_closed_loop_s_answer() {
        let inputs = Inputs::n5().unwrap();
        let closed = inputs.plan.run_with(&SchedulerKind::Random, 3);
        inputs.check(&closed).unwrap();
        let mut counts = Vec::new();
        for wire in [Wire::None, Wire::Codec, Wire::CodecMac] {
            let mut acc = PumpAcc::default();
            let mut corpus = Vec::new();
            let (out, count) =
                pump_session(&inputs, 3, wire, Some(&mut acc), Some(&mut corpus)).unwrap();
            inputs.check(&out).unwrap();
            assert!(count.frames > 0);
            assert!(acc.drain.calls > 0);
            assert_eq!(
                acc.encode.calls,
                if wire == Wire::None { 0 } else { count.frames }
            );
            assert_eq!(
                acc.verify.calls,
                if wire == Wire::CodecMac {
                    count.frames
                } else {
                    0
                }
            );
            assert_eq!(corpus.len() as u64, acc.encode.calls);
            counts.push(count);
        }
        // The wire hop is content-neutral: the same frames whatever wraps them,
        // and a MAC trailer plus sequence number only adds bytes.
        assert_eq!(counts[1].frames, counts[2].frames);
        assert!(counts[2].bytes > counts[1].bytes);
        // The pump is deterministic.
        let again = pump_session(&inputs, 3, Wire::Codec, None, None).unwrap().1;
        assert_eq!(again, counts[1]);
    }
}
