//! Tier-1 smoke for the transport plane: the networked run agrees with
//! the in-process run on outcome kinds (the full suite lives in
//! `crates/net/tests/parity.rs`; see DESIGN.md §9 for why parity is
//! outcome-kind agreement rather than byte-identical traces).

use mediator_talk::prelude::*;

fn plan(n: usize) -> CheapTalkPlan {
    Scenario::cheap_talk(catalog::majority_circuit(n))
        .players(n)
        .tolerance(1, 0)
        .inputs(vec![vec![Fp::ONE]; n])
        .build()
        .expect("n = 5 > 4k+4t = 4")
}

#[test]
fn networked_run_agrees_with_in_process_run() {
    let n = 5;
    let plan = plan(n);
    let local = plan.run_with(&SchedulerKind::Random, 3);
    assert_eq!(local.termination, TerminationKind::Quiescent);

    let networked = run_over_mem(&plan, &SchedulerKind::Random, 3, ServiceConfig::default())
        .expect("networked run completes");
    assert_eq!(networked.termination, local.termination);
    assert_eq!(
        networked.resolve_default(&vec![0; n]),
        local.resolve_default(&vec![0; n]),
        "Theorem 4.1: delivery order (the network) cannot move the outcome"
    );
}

#[test]
fn tcp_loopback_run_agrees_with_in_process_run() {
    let n = 5;
    let plan = plan(n);
    let local = plan.run_with(&SchedulerKind::Fifo, 11);
    let networked = run_over_tcp(&plan, &SchedulerKind::Fifo, 11, ServiceConfig::default())
        .expect("tcp loopback run completes");
    assert_eq!(networked.termination, local.termination);
    assert_eq!(
        networked.resolve_default(&vec![0; n]),
        local.resolve_default(&vec![0; n])
    );
}
