//! The paired Byzantine-relay conformance suite (DESIGN.md §10).
//!
//! Every cell runs the same attack twice: once against a **plain**
//! service, where the tactic must *succeed* (the cheap-talk outcome kind
//! or resolved action profile diverges from the in-process baseline — the
//! paper's reliable-private-channel assumption, violated), and once
//! against an **authenticated** service, where the same bytes must be
//! *detected and neutralized*: the tampered session aborts with a typed
//! [`NetError::AuthFailure`] naming the tactic's [`TamperKind`], while an
//! honest session multiplexed on the *same hostile connection* completes
//! with baseline outcomes — graceful degradation, not connection murder.
//!
//! Reorder and delay are the negative controls: they are delivery orders
//! the asynchronous model already permits (Theorem 4.1 quantifies over
//! all of them), so they must complete *unflagged* with baseline
//! outcomes in both modes. Selective drop is the documented limitation:
//! no MAC detects a withheld frame, so both modes end in the pre-existing
//! `IdleTimeout` owner.

use mediator_circuits::catalog;
use mediator_core::adversary::{Window, OPEN_LIE_OFFSET};
use mediator_core::scenario::{CheapTalkPlan, Scenario};
use mediator_field::Fp;
use mediator_net::tamper::{
    run_tampered_pair, TamperPlan, TamperedPair, TransportKind, WireTactic, HONEST_SID, TARGET_SID,
};
use mediator_net::{AuthKey, NetError, RejectReason, ServiceConfig, TamperKind};
use mediator_sim::{Outcome, SchedulerKind, TerminationKind};
use std::time::Duration;

fn majority_plan(n: usize) -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n = 5 > 4k+4t = 4")
}

fn cfg(auth: bool) -> ServiceConfig {
    let base = ServiceConfig {
        idle_timeout: Duration::from_millis(1500),
        attach_timeout: Duration::from_secs(10),
        attach_grace: Duration::from_millis(100),
        ..ServiceConfig::default()
    };
    if auth {
        base.with_auth(AuthKey::from_seed(0xfeed))
    } else {
        base
    }
}

fn run(transport: TransportKind, auth: bool, tamper: TamperPlan) -> TamperedPair {
    run_tampered_pair(
        &majority_plan(5),
        transport,
        cfg(auth),
        tamper,
        SchedulerKind::Fifo,
        0,
    )
}

fn baseline() -> Outcome {
    let out = majority_plan(5).run_with(&SchedulerKind::Fifo, 0);
    assert_eq!(out.termination, TerminationKind::Quiescent);
    out
}

/// The honest neighbor on the hostile connection completed with baseline
/// outcomes — the graceful-degradation half of every assertion.
fn assert_honest_untouched(pair: &TamperedPair, label: &str) {
    let base = baseline();
    let honest = pair
        .honest
        .as_ref()
        .unwrap_or_else(|e| panic!("{label}: honest session failed: {e:?}"));
    assert_eq!(honest.termination, base.termination, "{label}: honest kind");
    assert_eq!(
        honest.resolve_default(&[0; 5]),
        base.resolve_default(&[0; 5]),
        "{label}: honest profile"
    );
}

/// The tampered session died with the typed verdict: `AuthFailure` naming
/// the target session and the expected tamper kind.
fn assert_detected(pair: &TamperedPair, expect: TamperKind, label: &str) {
    match &pair.target {
        Err(NetError::AuthFailure { session, kind, .. }) => {
            assert_eq!(*session, TARGET_SID, "{label}: failure names the target");
            assert_eq!(*kind, expect, "{label}: tamper kind");
        }
        other => panic!("{label}: expected AuthFailure({expect:?}), got {other:?}"),
    }
    assert_honest_untouched(pair, label);
    let report = pair
        .relay
        .as_ref()
        .unwrap_or_else(|e| panic!("{label}: relay errored: {e:?}"));
    assert!(
        report.aborted.contains(&TARGET_SID),
        "{label}: service aborted the tampered session toward the relay"
    );
    assert!(
        !report.aborted.contains(&HONEST_SID),
        "{label}: honest session not aborted"
    );
}

// ---------------------------------------------------------------------------
// Tactic 1 — rewrite: the canonical private-channel violation. Both
// transports, paired.
// ---------------------------------------------------------------------------

fn rewrite_plan() -> TamperPlan {
    TamperPlan::against(TARGET_SID).tactic(
        Window::all(),
        WireTactic::Rewrite {
            offset: OPEN_LIE_OFFSET,
        },
    )
}

#[test]
fn rewriting_relay_flips_cheap_talk_outcomes_on_plain_channels() {
    // Unauthenticated, on both transports: the relay corrupts opening
    // values in flight and the session *completes normally* with
    // a wrong action profile — the worst failure mode (silent corruption),
    // and exactly what the paper's channel assumption exists to exclude.
    let base = baseline();
    for transport in [TransportKind::Mem, TransportKind::Tcp] {
        let label = format!("rewrite plain {transport:?}");
        let pair = run(transport, false, rewrite_plan());
        let target = pair
            .target
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: target: {e:?}"));
        assert_ne!(
            target.resolve_default(&[0; 5]),
            base.resolve_default(&[0; 5]),
            "{label}: corrupted openings must flip the resolved profile"
        );
        assert_honest_untouched(&pair, &label);
        let report = pair.relay.as_ref().expect("relay completes");
        assert!(report.tampered > 0, "{label}: relay rewrote frames");
        assert!(
            report.rejections.is_empty(),
            "{label}: a plain service cannot detect the rewrite"
        );
    }
}

#[test]
fn rewriting_relay_is_detected_and_neutralized_under_auth() {
    // Authenticated, the same two cells: every rewritten frame fails its MAC,
    // the target aborts with the typed owner, the honest neighbor on the
    // same connection never notices.
    for transport in [TransportKind::Mem, TransportKind::Tcp] {
        let label = format!("rewrite auth {transport:?}");
        let pair = run(transport, true, rewrite_plan());
        assert_detected(&pair, TamperKind::BadMac, &label);
        let report = pair.relay.as_ref().expect("relay completes");
        assert!(
            report
                .rejections
                .iter()
                .any(|&(sid, reason)| sid == TARGET_SID && reason == RejectReason::TamperDetected),
            "{label}: service told the relay it was caught"
        );
    }
}

// ---------------------------------------------------------------------------
// Tactic 2 — redirect: a routing lie (dst header rotated). MACs bind the
// (session, src, dst) triple, so moving a frame between channels is as
// detectable as rewriting it.
// ---------------------------------------------------------------------------

fn redirect_plan() -> TamperPlan {
    TamperPlan::against(TARGET_SID).tactic(Window::all(), WireTactic::Redirect)
}

#[test]
fn redirecting_relay_deadlocks_plain_and_fails_the_mac_authenticated() {
    let pair = run(TransportKind::Mem, false, redirect_plan());
    let target = pair.target.as_ref().expect("plain run terminates");
    assert_eq!(
        target.termination,
        TerminationKind::Deadlock,
        "misrouted messages starve the protocol: outcome kind flips"
    );
    assert_honest_untouched(&pair, "redirect plain");

    let pair = run(TransportKind::Tcp, true, redirect_plan());
    assert_detected(&pair, TamperKind::BadMac, "redirect auth tcp");
}

// ---------------------------------------------------------------------------
// Tactic 3 — replay splice: duplicate early frames, drop later ones. The
// message *count* balances, so flight accounting can't see it — only
// per-frame sequence freshness can.
// ---------------------------------------------------------------------------

fn splice_plan() -> TamperPlan {
    TamperPlan::against(TARGET_SID)
        .tactic(Window::between(0, 10), WireTactic::Replay)
        .tactic(Window::between(10, 20), WireTactic::Drop)
}

#[test]
fn replay_splice_substitutes_messages_plain_and_is_caught_by_freshness() {
    let pair = run(TransportKind::Mem, false, splice_plan());
    let target = pair.target.as_ref().expect("plain run terminates");
    assert_eq!(
        target.termination,
        TerminationKind::Deadlock,
        "stale-for-fresh substitution breaks the protocol: outcome kind flips"
    );
    assert_honest_untouched(&pair, "splice plain");

    let pair = run(TransportKind::Mem, true, splice_plan());
    assert_detected(&pair, TamperKind::Replayed, "splice auth mem");
}

// ---------------------------------------------------------------------------
// Tactic 4 — truncate: stream damage. The blast-radius contrast: a plain
// service can only kill the whole connection (every session on it dies),
// an authenticated one scopes the damage to the tampered session.
// ---------------------------------------------------------------------------

fn truncate_plan() -> TamperPlan {
    TamperPlan::against(TARGET_SID).tactic(Window::between(5, 6), WireTactic::Truncate { cut: 4 })
}

#[test]
fn truncation_kills_the_connection_plain_but_only_the_session_authenticated() {
    // Plain (over TCP): the mangled frame is indistinguishable from
    // stream corruption — the service drops the connection, and *both*
    // sessions on it die with PeerVanished. Collateral damage.
    let pair = run(TransportKind::Tcp, false, truncate_plan());
    assert!(
        matches!(pair.target, Err(NetError::PeerVanished { session, .. }) if session == TARGET_SID),
        "plain truncation: target dies of connection loss, got {:?}",
        pair.target
    );
    assert!(
        matches!(pair.honest, Err(NetError::PeerVanished { session, .. }) if session == HONEST_SID),
        "plain truncation: the honest session is collateral damage, got {:?}",
        pair.honest
    );

    // Authenticated: the frame still names its session in the clear, so
    // the service can scope the verdict — target aborts, honest lives.
    let pair = run(TransportKind::Tcp, true, truncate_plan());
    assert_detected(&pair, TamperKind::Truncated, "truncate auth tcp");
}

// ---------------------------------------------------------------------------
// Tactic 5 — strip: the downgrade attack. Meaningless against a plain
// service (nothing to strip); fatal to attempt against an authenticated
// one (v1 Msg frames are rejected outright — downgrade rejection).
// ---------------------------------------------------------------------------

#[test]
fn stripping_the_mac_trailer_is_rejected_as_a_downgrade() {
    let plan = TamperPlan::against(TARGET_SID).tactic(Window::between(5, 6), WireTactic::Strip);

    // Plain frames carry no trailer: strip decodes and re-encodes the
    // same v1 bytes — the attack has no purchase and the run completes.
    let pair = run(TransportKind::Mem, false, plan.clone());
    let base = baseline();
    let target = pair.target.as_ref().expect("plain strip is a no-op");
    assert_eq!(target.termination, base.termination);

    let pair = run(TransportKind::Mem, true, plan);
    assert_detected(&pair, TamperKind::Downgrade, "strip auth mem");
}

// ---------------------------------------------------------------------------
// Documented limitation — selective drop. No MAC detects a frame that
// never arrives; withholding looks exactly like a slow network, so both
// modes surface the pre-existing IdleTimeout owner. (Detecting *silence*
// needs an accountability layer — acknowledgements or threshold
// progress certificates — out of scope for channel authentication.)
// ---------------------------------------------------------------------------

#[test]
fn selective_drop_is_undetectable_and_owned_by_idle_timeout_in_both_modes() {
    let plan = TamperPlan::against(TARGET_SID).tactic(Window::between(5, 15), WireTactic::Drop);
    for auth in [false, true] {
        let pair = run(TransportKind::Mem, auth, plan.clone());
        assert!(
            matches!(pair.target, Err(NetError::IdleTimeout { session, .. }) if session == TARGET_SID),
            "drop auth={auth}: withheld frames look like a slow network, got {:?}",
            pair.target
        );
        assert_honest_untouched(&pair, &format!("drop auth={auth}"));
        let report = pair.relay.as_ref().expect("relay completes");
        assert!(
            report.rejections.is_empty(),
            "drop auth={auth}: nothing to detect, nothing to reject"
        );
    }
}

// ---------------------------------------------------------------------------
// Negative controls — reorder and delay are delivery orders the
// asynchronous model already allows (Theorem 4.1 quantifies over every
// scheduler), so they must pass unflagged with baseline outcomes in both
// modes. MACs authenticate *content*, not *schedules*.
// ---------------------------------------------------------------------------

#[test]
fn reorder_and_delay_are_scheduler_legal_in_both_modes() {
    let base = baseline();
    let controls: [(&str, TamperPlan); 2] = [
        (
            "reorder",
            TamperPlan::against(TARGET_SID)
                .tactic(Window::between(0, 64), WireTactic::Reorder { depth: 4 }),
        ),
        (
            "delay",
            TamperPlan::against(TARGET_SID)
                .tactic(Window::between(3, 6), WireTactic::Delay { release_at: 12 }),
        ),
    ];
    for (name, plan) in &controls {
        for auth in [false, true] {
            let label = format!("{name} auth={auth}");
            let pair = run(TransportKind::Mem, auth, plan.clone());
            let target = pair
                .target
                .as_ref()
                .unwrap_or_else(|e| panic!("{label}: scheduler-legal tactic flagged: {e:?}"));
            assert_eq!(target.termination, base.termination, "{label}: kind");
            assert_eq!(
                target.resolve_default(&[0; 5]),
                base.resolve_default(&[0; 5]),
                "{label}: profile"
            );
            assert_honest_untouched(&pair, &label);
            let report = pair.relay.as_ref().expect("relay completes");
            assert!(report.tampered > 0, "{label}: the tactic did fire");
            assert!(
                report.rejections.is_empty() && report.aborted.is_empty(),
                "{label}: a legal delivery order must not be flagged"
            );
        }
    }
}
