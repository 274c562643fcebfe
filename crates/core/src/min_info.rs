//! Lemma 6.8: the minimally-informative mediator transform and its
//! scheduler-class counting.
//!
//! The transform `f(σ + σ_d)` makes the mediator reveal *only* the action
//! (plus round numbers): the repaired §6.4 circuit is
//! [`mediator_circuits::catalog::counterexample_minfo`], and the mediator
//! game shape (R content-free rounds then STOP) is what
//! [`MediatorGameSpec::extra_rounds`](crate::mediator::MediatorGameSpec)
//! provides. This module computes the paper's combinatorial quantities:
//!
//! * message patterns of length ≤ 4rn: at most `(4rn)·(4rn)!/(r!)^{2n}`;
//! * scheduler equivalence classes: at most `(2rn)·(4rn)·(4rn)!/(r!)^{2n}`;
//! * the least `R` with `(Rn)! ≥ classes` (the paper shows
//!   `R = (4rn)^{4rn}` always suffices);
//! * message costs: `2Rn` for exact implementation (the `2^{O(N log N)}`
//!   of Lemma 6.8) versus `n` for weak implementation.
//!
//! The counts overflow every machine integer almost at once, so they are
//! computed in `log₂`, through `ln Γ`.

use mediator_sim::{Trace, TraceEvent};
use std::collections::BTreeSet;

/// The `∼`-equivalence data of a run (proof of Lemma 6.8): the ordered
/// message pattern plus the set of messages left undelivered. Two
/// deterministic schedulers are equivalent iff they induce the same
/// pattern class against the fixed honest strategies.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternClass {
    /// Ordered environment-visible events, paper notation.
    pub events: Vec<String>,
    /// Messages sent but never delivered `(src, dst, k)`.
    pub undelivered: BTreeSet<(usize, usize, u64)>,
}

/// Extracts the pattern class of a recorded trace.
pub fn pattern_class(trace: &Trace) -> PatternClass {
    let mut sent = BTreeSet::new();
    let mut events = Vec::new();
    for e in trace.events().iter() {
        events.push(e.to_string());
        match e {
            TraceEvent::Sent { src, dst, k } => {
                sent.insert((src, dst, k));
            }
            TraceEvent::Delivered { src, dst, k } | TraceEvent::Dropped { src, dst, k } => {
                sent.remove(&(src, dst, k));
            }
            TraceEvent::Started { .. } => {}
        }
    }
    PatternClass {
        events,
        undelivered: sent,
    }
}

/// Counts the distinct pattern classes among a set of traces — the
/// empirical companion to [`log2_scheduler_classes`].
pub fn distinct_classes<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> usize {
    traces
        .into_iter()
        .map(pattern_class)
        .collect::<BTreeSet<_>>()
        .len()
}

/// ln Γ(x) by the Lanczos approximation (g=7, n=9), accurate to ~1e-13 —
/// enough for table-grade `log₂ n!`.
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.9999999999998099,
        676.5203681218851,
        -1259.1392167224028,
        771.3234287776531,
        -176.6150291621406,
        12.507343278686905,
        -0.13857109526572012,
        9.984369578019572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `log₂(m!)`.
pub fn log2_factorial(m: u64) -> f64 {
    ln_gamma(m as f64 + 1.0) / std::f64::consts::LN_2
}

/// `log₂` of the message-pattern count bound `(4rn)·(4rn)!/(r!)^{2n}`
/// (proof of Lemma 6.8).
pub fn log2_message_patterns(r: u64, n: u64) -> f64 {
    let m = 4 * r * n;
    (m as f64).log2() + log2_factorial(m) - 2.0 * n as f64 * log2_factorial(r)
}

/// `log₂` of the scheduler-equivalence-class bound
/// `(2rn)·(4rn)·(4rn)!/(r!)^{2n}`.
pub fn log2_scheduler_classes(r: u64, n: u64) -> f64 {
    (2.0 * r as f64 * n as f64).log2() + log2_message_patterns(r, n)
}

/// The least `R` with `(R·n)! ≥ classes(r, n)`, found by bisection on the
/// `log₂` estimates.
pub fn min_rounds(r: u64, n: u64) -> u64 {
    let target = log2_scheduler_classes(r, n);
    let mut lo = 1u64;
    let mut hi = 2u64;
    while log2_factorial(hi * n) < target {
        hi *= 2;
        if hi > 1 << 40 {
            break;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if log2_factorial(mid * n) >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Messages of the exact implementation: `2Rn` (Lemma 6.8's
/// `2^{O(N log N)}` with `N = rn`).
pub fn full_implementation_messages(r: u64, n: u64) -> u64 {
    2 * min_rounds(r, n) * n
}

/// Messages of the weak implementation: `n` (each player sends one input).
pub fn weak_implementation_messages(n: u64) -> u64 {
    n
}

/// The paper's closed-form sufficient round count `R = (4rn)^{4rn}`, in
/// `log₂` (it overflows everything else immediately).
pub fn paper_sufficient_rounds_log2(r: u64, n: u64) -> f64 {
    let m = 4 * r * n;
    m as f64 * (m as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `log₂(m!)` as the sum `Σ_{i≤m} log₂ i`: the independent reference
    /// the `ln Γ` route is checked against.
    fn log2_factorial_by_sum(m: u64) -> f64 {
        (1..=m).map(|i| (i as f64).log2()).sum()
    }

    #[test]
    fn log2_factorial_matches_exact() {
        for m in [1u64, 2, 5, 10, 20, 50, 100] {
            let exact = log2_factorial_by_sum(m);
            let approx = log2_factorial(m);
            assert!(
                (exact - approx).abs() < 1e-6 * exact.max(1.0),
                "m={m}: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn exact_and_stirling_class_counts_agree() {
        for (r, n) in [(1u64, 2u64), (1, 3), (2, 2), (2, 3)] {
            let m = 4 * r * n;
            let exact = ((2 * r * n * m) as f64).log2() + log2_factorial_by_sum(m)
                - 2.0 * n as f64 * log2_factorial_by_sum(r);
            let approx = log2_scheduler_classes(r, n);
            assert!(
                (exact - approx).abs() < 1e-3 * exact.max(1.0),
                "r={r} n={n}: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn min_rounds_is_minimal() {
        for (r, n) in [(1u64, 2u64), (1, 4), (2, 3)] {
            let big_r = min_rounds(r, n);
            let target = log2_scheduler_classes(r, n);
            assert!(log2_factorial(big_r * n) >= target);
            if big_r > 1 {
                assert!(log2_factorial((big_r - 1) * n) < target, "r={r} n={n}");
            }
        }
        // The least R over a grid of mediator rounds r and players n.
        let grid = [
            ((1, 3), 5),
            ((1, 5), 5),
            ((2, 5), 8),
            ((4, 5), 15),
            ((8, 5), 29),
            ((16, 5), 54),
            ((4, 9), 15),
        ];
        for ((r, n), big_r) in grid {
            assert_eq!(min_rounds(r, n), big_r, "r={r} n={n}");
        }
    }

    #[test]
    fn paper_bound_dominates_min_rounds() {
        for (r, n) in [(1u64, 2u64), (2, 3), (3, 4)] {
            let ours = (min_rounds(r, n) as f64).log2();
            let paper = paper_sufficient_rounds_log2(r, n);
            assert!(paper >= ours, "paper's R must be sufficient");
        }
    }

    #[test]
    fn full_vs_weak_gap_grows() {
        // Lemma 6.8's headline contrast: the exact implementation needs
        // enough rounds to cover every scheduler class (2Rn messages, with
        // the paper's crude sufficient R giving the 2^{O(N log N)} bound),
        // while the weak implementation sends n messages, full stop.
        let full: Vec<u64> = [1, 2, 4, 8]
            .map(|r| full_implementation_messages(r, 4))
            .into();
        assert!(full.windows(2).all(|w| w[1] > w[0]), "{full:?}");
        assert_eq!(weak_implementation_messages(4), 4);
        assert!(full[3] > 10 * weak_implementation_messages(4));
        // The paper's closed-form R is astronomically above the minimal R:
        // log2((4rn)^{4rn}) vs log2(min R).
        let paper = paper_sufficient_rounds_log2(8, 4);
        let ours = (min_rounds(8, 4) as f64).log2();
        assert!(paper > 100.0 * ours, "paper {paper} vs minimal {ours}");
    }

    #[test]
    fn pattern_classes_distinguish_schedulers_and_respect_determinism() {
        use crate::scenario::Scenario;
        use mediator_circuits::catalog;
        use mediator_field::Fp;
        use mediator_sim::SchedulerKind;

        let n = 4;
        let plan = Scenario::mediator(catalog::majority_circuit(n))
            .players(n)
            .tolerance(1, 0)
            .inputs(vec![vec![Fp::ONE]; n])
            .build()
            .expect("n − k ≥ 1");
        let run = |kind: &SchedulerKind, seed| plan.run_with(kind, seed).trace;
        // Determinism: same kind + seed → same class.
        let a = run(&SchedulerKind::Fifo, 7);
        let b = run(&SchedulerKind::Fifo, 7);
        assert_eq!(pattern_class(&a), pattern_class(&b));
        // FIFO and LIFO schedule the same protocol differently.
        let c = run(&SchedulerKind::Lifo, 7);
        assert_ne!(pattern_class(&a), pattern_class(&c));
        // Distinct classes over the battery are counted empirically.
        let traces: Vec<_> = SchedulerKind::battery(n)
            .iter()
            .map(|k| run(k, 7))
            .collect();
        let distinct = distinct_classes(traces.iter());
        assert!(distinct >= 2, "battery must exhibit multiple classes");
        // Undelivered messages in a quiescent run can only be ones addressed
        // to a process that had already halted (the world discards those —
        // here, late player inputs to the stopped mediator).
        for t in &traces {
            for &(_, dst, _) in &pattern_class(t).undelivered {
                assert_eq!(dst, n, "only the halted mediator may strand messages");
            }
        }
    }

    #[test]
    fn pattern_class_records_undelivered_messages() {
        use mediator_sim::{Trace, TraceEvent};
        let mut t = Trace::new();
        t.push(TraceEvent::Sent {
            src: 0,
            dst: 1,
            k: 1,
        });
        t.push(TraceEvent::Sent {
            src: 0,
            dst: 1,
            k: 2,
        });
        t.push(TraceEvent::Delivered {
            src: 0,
            dst: 1,
            k: 1,
        });
        let class = pattern_class(&t);
        assert_eq!(class.undelivered.len(), 1);
        assert!(class.undelivered.contains(&(0, 1, 2)));
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(5) = 24.
        assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-10);
        // Γ(0.5) = √π.
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }
}
