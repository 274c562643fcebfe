//! The sealed path against its derive-per-call reference.
//!
//! An authenticated service derives each of a session's pair keys once,
//! caches them, seals every shipped `Msg` in place over the bytes it just
//! queued, and verifies echoes under the same cache. This suite holds that
//! path to `msg_mac` below, which derives the pair key on every call from
//! the documented key schedule over std's SipHash-2-4:
//!
//! * every frame shipped, over both transports and across concurrent
//!   sessions, is byte-identical to `encode_framed` of the same frame
//!   sealed through `msg_mac`, and each session derives each pair key once;
//! * a cached key serves only its own session and direction;
//! * a session with no cache (finished, or never hosted) is judged against
//!   the master key: a forgery earns `Reject{TamperDetected}`, an authentic
//!   late echo is dropped silently.
//!
//! It closes with the replay window checked against a set model.

use mediator_circuits::catalog;
use mediator_core::cheap_talk::CtMsg;
use mediator_core::scenario::{CheapTalkPlan, Scenario};
use mediator_field::Fp;
use mediator_net::auth::{pair_keys_derived, ReplayWindow};
use mediator_net::transport::FrameBuf;
use mediator_net::{
    AuthKey, AuthTag, Client, Frame, MemTransport, NetError, RejectReason, Service, ServiceConfig,
    TamperKind, TcpTransport,
};
use mediator_sim::SchedulerKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use std::io::{Read, Write};
use std::sync::Mutex;
use std::time::Duration;

/// Pair-key derivations are counted process-wide, so the tests that
/// derive keys take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const N: usize = 5;

fn majority_plan() -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(N))
        .players(N)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; N])
        .build()
        .expect("n = 5 > 4k+4t = 4")
}

const SEED: u64 = 0x5ea1;

fn key() -> AuthKey {
    AuthKey::from_seed(SEED)
}

/// SipHash-2-4 as std implements it: the reference for the crate's own.
#[allow(deprecated)]
fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = std::hash::SipHasher::new_with_keys(k0, k1);
    h.write(data);
    h.finish()
}

/// The MAC of `prefix` on channel `(session, src, dst)` under `key()`,
/// derived per call: the master key as `AuthKey::from_seed` expands
/// `SEED`, the pair key as two PRF calls on `session ‖ src ‖ dst` (each
/// 8 bytes LE) and a domain byte 0, then 1.
fn msg_mac(session: u64, src: usize, dst: usize, prefix: &[u8]) -> [u8; 8] {
    let k0 = siphash24(SEED, !SEED, b"mediator-auth-k0");
    let k1 = siphash24(!SEED, SEED, b"mediator-auth-k1");
    let mut input = [0u8; 25];
    input[..8].copy_from_slice(&session.to_le_bytes());
    input[8..16].copy_from_slice(&(src as u64).to_le_bytes());
    input[16..24].copy_from_slice(&(dst as u64).to_le_bytes());
    let pair0 = siphash24(k0, k1, &input);
    input[24] = 1;
    let pair1 = siphash24(k0, k1, &input);
    siphash24(pair0, pair1, prefix).to_le_bytes()
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        idle_timeout: Duration::from_secs(10),
        attach_timeout: Duration::from_secs(10),
        attach_grace: Duration::from_millis(200),
        ..ServiceConfig::default()
    }
    .with_auth(key())
}

/// A content-blind echo relay over one raw byte stream for every player
/// of `sessions`, keeping a copy of each `Msg` frame as it travelled
/// (prefix and body). Returns the copies once every session has
/// announced its outcome.
fn recording_relay(mut rx: impl Read, mut tx: impl Write, sessions: &[u64]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for &session in sessions {
        for player in 0..N {
            Frame::<CtMsg>::Attach { session, player }.encode_framed(&mut out);
        }
    }
    let (mut seen, mut outcomes) = (Vec::new(), 0);
    let mut inbound = FrameBuf::new();
    while outcomes < sessions.len() {
        tx.write_all(&out).expect("echo");
        tx.flush().expect("flush");
        out.clear();
        inbound.read_from(&mut rx).expect("service stream");
        while let Some(framed) = inbound.next_frame().expect("framing") {
            // The kind byte: after the length prefix and the version.
            match framed[5] {
                1 => {
                    seen.push(framed.to_vec());
                    out.extend_from_slice(framed);
                }
                2 => outcomes += 1,
                kind => panic!("the service refused or aborted a session (kind {kind})"),
            }
        }
    }
    seen
}

/// Hosts three concurrent sessions on one authenticated service and relays
/// them through [`recording_relay`]; returns the shipped frames and how
/// many pair keys the service derived meanwhile.
fn host_and_record(tcp: bool) -> (Vec<Vec<u8>>, u64) {
    let plan = majority_plan();
    let sessions = [1u64, 2, 3];
    let hub = MemTransport::new();
    let (service, tcp_addr) = if tcp {
        let transport = TcpTransport::bind_loopback().expect("bind");
        let addr = transport.addr();
        (
            Service::<CtMsg>::with_config(Box::new(transport), cfg()),
            Some(addr),
        )
    } else {
        (Service::with_config(Box::new(hub.listener()), cfg()), None)
    };
    let before = pair_keys_derived();
    let handles: Vec<_> = sessions
        .iter()
        .map(|&sid| service.host_plan(sid, &plan, SchedulerKind::Random, sid))
        .collect();
    let frames = match tcp_addr {
        Some(addr) => {
            let stream = std::net::TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            recording_relay(stream.try_clone().expect("clone"), stream, &sessions)
        }
        None => {
            let (tx, rx) = hub.connect_raw();
            recording_relay(rx, tx, &sessions)
        }
    };
    for handle in handles {
        handle.outcome().expect("authenticated session completes");
    }
    let derived = pair_keys_derived() - before;
    service.shutdown();
    (frames, derived)
}

#[test]
fn every_shipped_frame_matches_the_derive_per_call_seal() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for tcp in [false, true] {
        let (frames, derived) = host_and_record(tcp);
        assert!(frames.len() > 1000, "tcp={tcp}: {} frames", frames.len());
        let mut channels = BTreeSet::new();
        for framed in &frames {
            let frame = Frame::<CtMsg>::decode_body(&framed[4..]).expect("shipped frames decode");
            let Frame::Msg {
                session,
                src,
                dst,
                auth: Some(_),
                ..
            } = frame
            else {
                panic!("tcp={tcp}: an authenticated service ships sealed Msg frames");
            };
            channels.insert((session, src, dst));
            let mut expect = Vec::new();
            sealed_as(&frame, session, (session, src, dst)).encode_framed(&mut expect);
            assert_eq!(framed, &expect, "tcp={tcp}: {session}: {src} → {dst}");
        }
        // Sealing and verifying both read the cache: one derivation per
        // channel a session used, none per frame.
        assert_eq!(derived, channels.len() as u64, "tcp={tcp}");
    }
}

/// `frame` (a sealed `Msg`) re-addressed to `session` and sealed through
/// the derive-per-call `msg_mac` under the key of
/// `(key_session, key_src, key_dst)`.
fn sealed_as(
    frame: &Frame<CtMsg>,
    session: u64,
    (key_session, key_src, key_dst): (u64, usize, usize),
) -> Frame<CtMsg> {
    let Frame::Msg {
        src,
        dst,
        msg,
        auth: Some(tag),
        ..
    } = frame.clone()
    else {
        panic!("a sealed Msg");
    };
    let mut sealed = Frame::Msg {
        session,
        src,
        dst,
        msg,
        auth: Some(AuthTag {
            seq: tag.seq,
            mac: [0; 8],
        }),
    };
    let mut body = Vec::new();
    sealed.encode_body(&mut body);
    let mac = msg_mac(key_session, key_src, key_dst, &body[..body.len() - 8]);
    if let Frame::Msg {
        auth: Some(tag), ..
    } = &mut sealed
    {
        tag.mac = mac;
    }
    sealed
}

#[test]
fn a_cached_key_serves_only_its_own_session_and_direction() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = majority_plan();
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), cfg());
    let first = service.host_plan(1, &plan, SchedulerKind::Fifo, 0);
    let second = service.host_plan(2, &plan, SchedulerKind::Fifo, 0);
    let mut client = Client::<CtMsg>::mem(&hub);
    for sid in [1, 2] {
        for player in 0..N {
            client.attach(sid, player).expect("attach");
        }
    }
    // Read, echoing nothing, until session 1 has shipped on some channel
    // in both directions — so it holds both keys of the pair.
    let mut channels = HashSet::new();
    let (a_to_b, a, b) = loop {
        if let frame @ Frame::Msg {
            session: 1,
            src,
            dst,
            ..
        } = client.recv().expect("a shipped frame")
        {
            if src != dst && channels.contains(&(dst, src)) {
                break (frame, src, dst);
            }
            channels.insert((src, dst));
        }
    };
    // Session 2's header on session 1's channel key: session 2 must not
    // find session 1's cached key.
    client
        .send(&sealed_as(&a_to_b, 2, (1, a, b)))
        .expect("send cross-session forgery");
    // Session 1's frame `a → b` under the key of `b → a`, which session 1
    // holds: the cache must not serve the reverse direction.
    client
        .send(&sealed_as(&a_to_b, 1, (1, b, a)))
        .expect("send reverse-direction forgery");
    // Nothing is echoed, so a forgery that passed would leave its session
    // to idle out instead.
    for handle in [second, first] {
        let sid = handle.id();
        match handle.outcome() {
            Err(NetError::AuthFailure { session, kind, .. }) => {
                assert_eq!((session, kind), (sid, TamperKind::BadMac))
            }
            other => panic!("session {sid}: expected BadMac, got {other:?}"),
        }
    }
    let mut rejected = Vec::new();
    while rejected.len() < 2 {
        if let Frame::Reject { session, reason } = client.recv().expect("the service answers") {
            assert_eq!(reason, RejectReason::TamperDetected);
            rejected.push(session);
        }
    }
    assert_eq!(rejected, [2, 1]);
    service.shutdown();
}

#[test]
fn a_session_with_no_keys_left_is_judged_against_the_master_key() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = majority_plan();
    let hub = MemTransport::new();
    let service = Service::with_config(Box::new(hub.listener()), cfg());
    let handle = service.host_plan(5, &plan, SchedulerKind::Fifo, 0);
    let mut client = Client::<CtMsg>::mem(&hub);
    for player in 0..N {
        client.attach(5, player).expect("attach");
    }
    // Relay the whole run, keeping the first frame.
    let mut kept = None;
    loop {
        match client.recv().expect("relay") {
            frame @ Frame::Msg { .. } => {
                client.send(&frame).expect("echo");
                kept.get_or_insert(frame);
            }
            Frame::Outcome { session: 5, .. } => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    handle.outcome().expect("the run completes");
    let late = kept.expect("the run shipped frames");
    let mut forged_late = late.clone();
    if let Frame::Msg {
        auth: Some(tag), ..
    } = &mut forged_late
    {
        tag.mac[0] ^= 1;
    }
    // Session 999 was never hosted: an authentic frame for it needs the
    // master key, which this test holds.
    let Frame::Msg { msg, .. } = late.clone() else {
        unreachable!()
    };
    let mut never = Frame::Msg {
        session: 999,
        src: 0,
        dst: 1,
        msg,
        auth: Some(AuthTag {
            seq: 0,
            mac: [0; 8],
        }),
    };
    never.seal(&key());
    let mut forged_never = never.clone();
    if let Frame::Msg {
        auth: Some(tag), ..
    } = &mut forged_never
    {
        tag.mac[7] ^= 0x80;
    }
    // Authentic frames are dropped silently, so the only answers are the
    // two forgeries' rejections, in order, and then the one an `Attach`
    // for an unknown session earns once its grace window closes.
    for frame in [&late, &forged_late, &never, &forged_never] {
        client.send(frame).expect("send");
    }
    client.attach(777, 0).expect("attach");
    for (session, reason) in [
        (5, RejectReason::TamperDetected),
        (999, RejectReason::TamperDetected),
        (777, RejectReason::UnknownSession),
    ] {
        assert_eq!(
            client.recv().expect("an answer"),
            Frame::Reject { session, reason }
        );
    }
    service.shutdown();
}

#[test]
fn replay_window_matches_a_set_model() {
    for seed in 0..32 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut window = ReplayWindow::default();
        let mut model: HashSet<u64> = HashSet::new();
        let mut issued = 0u64;
        for _ in 0..4_000 {
            let seq = match rng.gen_range(0..10) {
                0..=3 => {
                    let seq = window.issue();
                    assert_eq!(seq, issued, "seed {seed}: numbers issue in order");
                    issued += 1;
                    model.insert(seq);
                    continue;
                }
                // A return of anything issued so far: fresh or a
                // duplicate, recent or long ago.
                4..=6 if issued > 0 => issued - 1 - rng.gen_range(0..issued.min(300)),
                7 if issued > 0 => rng.gen_range(0..issued),
                // Never issued: the next number, just past it, far away.
                8 => issued + rng.gen_range(0..130),
                _ => rng.gen::<u64>() | (1 << 63),
            };
            assert_eq!(
                window.retire(seq),
                model.remove(&seq),
                "seed {seed}: seq {seq}"
            );
            assert_eq!(window.outstanding(), model.len() as u64, "seed {seed}");
        }
        let mut rest: Vec<u64> = model.drain().collect();
        while !rest.is_empty() {
            let seq = rest.swap_remove(rng.gen_range(0..rest.len()));
            assert!(window.retire(seq), "seed {seed}: {seq} was outstanding");
            assert!(!window.retire(seq), "seed {seed}: {seq} twice");
        }
        assert_eq!(window.outstanding(), 0);
        assert!(window.is_empty(), "seed {seed}: every frame returned");
    }
}
