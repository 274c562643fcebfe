//! The per-coordinate AVSS this crate shipped before the vector rewrite,
//! kept as the oracle of the differential property in `proptests.rs`: `k`
//! independent scalar sharings, one Horner chain per value, one
//! [`OecState`] per coordinate, everything recomputed on every message.
//!
//! `deal`, `send_echoes` and `try_confirm` are that code unchanged. The
//! message handling carries the two robustness fixes the rewrite made, so
//! the two states are comparable on hostile inputs too: `Rows` count only
//! from the dealer, and an echo never decides the arity (the first echo per
//! sender is kept whatever its length; the arity is the `Rows` length when
//! held, otherwise the smallest length more than `2f` stored echoes share).
//! It also carries the same READY rule: vouch when the echoed rows agree
//! with `n − f` echoes in every coordinate, else after `f + 1` READY, and
//! complete holding the rows and `2f + 1` READY.

use mediator_field::{Fp, Poly};
use mediator_sim::sansio::Payload;
use mediator_vss::avss::{AvssDest, AvssMsg, AvssOut};
use mediator_vss::OecState;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

#[allow(clippy::needless_range_loop)] // symmetric matrix fill writes m[a][b] and m[b][a]
pub fn deal<R: Rng + ?Sized>(secrets: &[Fp], n: usize, f: usize, rng: &mut R) -> Vec<AvssMsg> {
    let per_secret: Vec<Vec<Vec<Fp>>> = secrets
        .iter()
        .map(|&s| {
            let mut m = vec![vec![Fp::ZERO; f + 1]; f + 1];
            for a in 0..=f {
                for b in a..=f {
                    let c = if a == 0 && b == 0 { s } else { Fp::random(rng) };
                    m[a][b] = c;
                    m[b][a] = c;
                }
            }
            m
        })
        .collect();
    (0..n)
        .map(|i| {
            let xi = Fp::new(i as u64 + 1);
            let rows: Vec<Vec<Fp>> = per_secret
                .iter()
                .map(|m| {
                    // f_i(y) = Σ_b (Σ_a m[a][b] x_i^a) y^b
                    (0..=f)
                        .map(|b| {
                            let mut acc = Fp::ZERO;
                            let mut xp = Fp::ONE;
                            for row in m.iter().take(f + 1) {
                                acc += row[b] * xp;
                                xp *= xi;
                            }
                            acc
                        })
                        .collect()
                })
                .collect();
            AvssMsg::Rows(Payload::new(rows))
        })
        .collect()
}

pub struct RefState {
    n: usize,
    f: usize,
    dealer: usize,
    own_rows: Option<Vec<Poly>>,
    confirmed_rows: Option<Vec<Poly>>,
    echoes: BTreeMap<usize, Vec<Fp>>,
    echo_sent: bool,
    ready_sent: bool,
    ready_recv: BTreeSet<usize>,
    completed: bool,
}

impl RefState {
    pub fn new(n: usize, f: usize, dealer: usize) -> Self {
        RefState {
            n,
            f,
            dealer,
            own_rows: None,
            confirmed_rows: None,
            echoes: BTreeMap::new(),
            echo_sent: false,
            ready_sent: false,
            ready_recv: BTreeSet::new(),
            completed: false,
        }
    }

    pub fn is_completed(&self) -> bool {
        self.completed
    }

    pub fn shares(&self) -> Option<Vec<Fp>> {
        if !self.completed {
            return None;
        }
        let rows = self.confirmed_rows.as_ref()?;
        Some(rows.iter().map(|r| r.eval(Fp::ZERO)).collect())
    }

    pub fn on_message(&mut self, from: usize, msg: AvssMsg) -> (Vec<AvssOut>, bool) {
        let mut out = Vec::new();
        if self.completed {
            return (out, false);
        }
        match msg {
            AvssMsg::Rows(rows) => {
                if from == self.dealer && self.own_rows.is_none() && self.valid_rows(&rows) {
                    self.own_rows = Some(
                        rows.into_inner()
                            .into_iter()
                            .map(Poly::from_coeffs)
                            .collect(),
                    );
                    self.send_echoes(&mut out);
                }
            }
            AvssMsg::Echo(vals) => {
                self.echoes.entry(from).or_insert(vals);
            }
            AvssMsg::Ready => {
                self.ready_recv.insert(from);
            }
        }
        self.progress(&mut out);
        let done = self.completed;
        (out, done)
    }

    fn valid_rows(&self, rows: &[Vec<Fp>]) -> bool {
        !rows.is_empty() && rows.iter().all(|r| r.len() <= self.f + 1)
    }

    fn arity(&self) -> Option<usize> {
        if let Some(rows) = &self.own_rows {
            return Some(rows.len());
        }
        let lens: Vec<usize> = self.echoes.values().map(Vec::len).collect();
        lens.iter()
            .copied()
            .filter(|l| lens.iter().filter(|m| *m == l).count() > 2 * self.f)
            .min()
    }

    fn send_echoes(&mut self, out: &mut Vec<AvssOut>) {
        if self.echo_sent {
            return;
        }
        if let Some(rows) = &self.own_rows {
            self.echo_sent = true;
            for j in 0..self.n {
                let xj = Fp::new(j as u64 + 1);
                let vals: Vec<Fp> = rows.iter().map(|r| r.eval(xj)).collect();
                out.push((AvssDest::One(j), AvssMsg::Echo(vals)));
            }
        }
    }

    fn progress(&mut self, out: &mut Vec<AvssOut>) {
        self.try_confirm();
        // Late recovery may enable our echoes (helping others finish).
        if self.own_rows.is_none() && self.confirmed_rows.is_some() {
            self.own_rows = self.confirmed_rows.clone();
            self.send_echoes(out);
        }
        if !self.ready_sent && (self.vouched() || self.ready_recv.len() > self.f) {
            self.ready_sent = true;
            out.push((AvssDest::All, AvssMsg::Ready));
        }
        if self.confirmed_rows.is_some() && self.ready_recv.len() > 2 * self.f {
            self.completed = true;
        }
    }

    /// Whether the echoed rows agree with `n − f` echoes in every
    /// coordinate.
    fn vouched(&self) -> bool {
        let Some(rows) = &self.own_rows else {
            return false;
        };
        let k = rows.len();
        rows.iter().enumerate().all(|(c, row)| {
            let agree = self
                .echoes
                .iter()
                .filter(|(&j, vals)| vals.len() == k && vals[c] == row.eval(Fp::new(j as u64 + 1)));
            agree.count() >= self.n - self.f
        })
    }

    /// Confirms rows coordinate-wise: own row if ≥ 2f+1 echoes agree, else
    /// the OEC-recovered row from the echoes addressed to us.
    fn try_confirm(&mut self) {
        if self.confirmed_rows.is_some() {
            return;
        }
        let Some(k) = self.arity() else { return };
        let mut confirmed: Vec<Poly> = Vec::with_capacity(k);
        for c in 0..k {
            // Own-row confirmation.
            if let Some(rows) = &self.own_rows {
                let row = &rows[c];
                let agree = self
                    .echoes
                    .iter()
                    .filter(|(&j, vals)| {
                        vals.len() == k && vals[c] == row.eval(Fp::new(j as u64 + 1))
                    })
                    .count();
                if agree > 2 * self.f {
                    confirmed.push(row.clone());
                    continue;
                }
            }
            // Echo-consensus recovery: the echoes sent to me are points of
            // my row (symmetry), decode with ≤ f corruptions, accept at
            // 2f+1 agreement.
            let mut oec = OecState::new(self.f, self.f);
            let mut rec = None;
            for (&j, vals) in &self.echoes {
                if vals.len() != k {
                    continue;
                }
                if oec.add_share(j, vals[c]).is_some() {
                    rec = oec.polynomial().cloned();
                    break;
                }
            }
            match rec {
                Some(p) => confirmed.push(p),
                None => return, // coordinate not confirmable yet
            }
        }
        self.confirmed_rows = Some(confirmed);
    }
}
