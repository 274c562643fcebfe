//! Asynchronous verifiable secret sharing (`t < n/4`) from symmetric
//! bivariate polynomials, shipping vectors of secrets per instance.
//!
//! The dealer samples, per secret, a random symmetric bivariate polynomial
//! `S(x, y)` of degree `f` in each variable with `S(0,0) = secret`, and
//! sends player `i` its *row* `f_i(y) = S(x_i, y)`. Players cross-check by
//! echoing evaluation points (`f_i(x_j) = f_j(x_i)` by symmetry), confirm
//! their row once `2f+1` echoes agree with it, recover a missing or
//! corrupted row by online error correction over the echoes addressed to
//! them, and run Bracha-style READY amplification to terminate. The final
//! share is `f_i(0)`, a point on the degree-`f` polynomial `S(x, 0)`.
//!
//! READY follows BCG's `n − f` rule: a player vouches for the dealing on
//! its own evidence only when the rows it echoed agree with `n − f` echoes
//! in every coordinate — at least `n − 2f ≥ 2f + 1` of them honest, enough
//! for every honest player to decode its row — and otherwise only after
//! `f + 1` READY. It completes holding its shares and `2f + 1` READY.
//! Confirming at `2f + 1` is not a reason to vouch: rows dealt to only
//! `f + 1` honest players confirm there, and nobody else could ever
//! recover theirs. A player echoes once per instance, its own rows or the
//! ones it recovered, and a late `Rows` after recovery is ignored.
//!
//! A dealing is a *vector* of `k` secrets (the MPC input phase ships a
//! player's inputs and every mask it contributes at once), and the state
//! treats it as one matrix problem, not `k` scalar sharings. On receiving
//! its rows a player computes the `n × k` **echo matrix**
//! `E[j][c] = f_c(x_j)` once, as dot products against the cached power
//! table of the share grid. Row `E[j]` is the echo it sends to `j` — and,
//! by the same symmetry, exactly what `j`'s echo must equal, so agreement
//! is counted with `k` comparisons per arriving echo and no field
//! multiplication. Rows that have to be decoded from the echoes are first
//! tried column-batched — one Lagrange basis over the first `f + 1` senders
//! applied to all `k` columns, checked against the next `f` — which is
//! [`OecState`]'s own first acceptance attempt; a column that fails it goes
//! through `OecState` unchanged, the one implementation of error
//! correction. Once the rows are confirmed and READY is sent only their
//! constant terms are kept: the echo evidence and `E` are released.
//!
//! Properties exercised by the tests (for `n > 4f`):
//!
//! * honest dealer → every honest player completes with consistent shares;
//! * a withheld row is recovered from echoes;
//! * a corrupted row is overridden by the echo consensus;
//! * a dealer that shares to too few players completes nowhere (so the ACS
//!   excludes it from the input core) — including one whose rows reach
//!   only `f + 1` honest players.

use crate::reconstruct::OecState;
use mediator_field::{grid, Fp};
use mediator_sim::sansio::Payload;
use mediator_sim::PartySet;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// AVSS wire messages (vector-valued: one entry per shared secret).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AvssMsg {
    /// Dealer → player: the player's row polynomial coefficients, one
    /// coefficient vector per secret. [`Payload`]-shared so re-routing or
    /// buffering a dealing never deep-copies the coefficient matrix.
    Rows(Payload<Vec<Vec<Fp>>>),
    /// Player `i` → player `j`: the evaluations `f_i(x_j)`, one per secret.
    Echo(Vec<Fp>),
    /// Bracha-style completion vote.
    Ready,
}

/// Outgoing message with explicit destination (AVSS rows are per-recipient,
/// so the generic broadcast-only plumbing does not fit).
pub type AvssOut = (AvssDest, AvssMsg);

/// Destination selector for [`AvssOut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvssDest {
    /// To one player.
    One(usize),
    /// To all players (including self).
    All,
}

/// Dealer-side sharing: builds the per-player row messages.
///
/// Returns one `Rows` message per player.
pub fn deal<R: Rng + ?Sized>(secrets: &[Fp], n: usize, f: usize, rng: &mut R) -> Vec<AvssMsg> {
    // One symmetric bivariate polynomial per secret, S(x,y) = Σ c_ab x^a y^b
    // with c_ab = c_ba: all the (f+1)×(f+1) coefficient matrices in one
    // flat buffer, drawn upper triangle first, row by row.
    let w = f + 1;
    let mut coeffs = vec![Fp::ZERO; secrets.len() * w * w];
    for (m, &s) in coeffs.chunks_exact_mut(w * w).zip(secrets) {
        for a in 0..w {
            for b in a..w {
                let c = if a == 0 && b == 0 { s } else { Fp::random(rng) };
                m[a * w + b] = c;
                m[b * w + a] = c;
            }
        }
    }
    // f_i(y) = Σ_b (Σ_a c_ab x_i^a) y^b, and by symmetry the inner sum is
    // matrix row b against the powers of x_i: player i's k·(f+1) row
    // coefficients are one matrix–vector product.
    let powers = grid::point_powers(n);
    let mut flat = vec![Fp::ZERO; secrets.len() * w];
    (0..n)
        .map(|i| {
            Fp::mat_vec(&coeffs, &powers[i * n..i * n + w], &mut flat);
            let rows = flat.chunks_exact(w).map(<[Fp]>::to_vec).collect();
            AvssMsg::Rows(Payload::new(rows))
        })
        .collect()
}

/// The echo matrix of `k` row polynomials, given row-major with `w`
/// low-to-high coefficients each: row-major `n × k`, `E[j·k + c] = f_c(x_j)`.
fn echo_matrix(rows: &[Fp], w: usize, n: usize) -> Vec<Fp> {
    let k = rows.len() / w;
    let powers = grid::point_powers(n);
    let mut e = vec![Fp::ZERO; n * k];
    for (j, ej) in e.chunks_exact_mut(k.max(1)).enumerate() {
        Fp::mat_vec(rows, &powers[j * n..j * n + w], ej);
    }
    e
}

/// The rows a player echoed — the dealer's `Rows`, or the rows it
/// recovered without them — reduced to what the rest of the instance reads.
#[derive(Debug, Clone)]
struct OwnRows {
    /// The rows' constant terms — the shares, should the rows be confirmed.
    consts: Vec<Fp>,
    /// The echo matrix of the rows: `expect[j·k..(j+1)·k]` is what was sent
    /// to `j` and what `j`'s echo has to equal.
    expect: Vec<Fp>,
    /// Per coordinate, how many stored echoes equal the expectation.
    agree: Vec<u32>,
}

impl OwnRows {
    /// Rows `rows` (row-major, `w` low-to-high coefficients each) with the
    /// stored `echoes` counted.
    fn new(rows: &[Fp], w: usize, n: usize, echoes: &[Option<Vec<Fp>>]) -> Self {
        let k = rows.len() / w;
        let mut own = OwnRows {
            consts: rows.iter().step_by(w).copied().collect(),
            expect: echo_matrix(rows, w, n),
            agree: vec![0; k],
        };
        for (j, vals) in echoes.iter().enumerate() {
            if let Some(vals) = vals {
                own.count(j, vals);
            }
        }
        own
    }

    /// Counts `vals`, the echo of player `from`, towards agreement.
    fn count(&mut self, from: usize, vals: &[Fp]) {
        let k = self.consts.len();
        if vals.len() != k {
            return;
        }
        let expect = &self.expect[from * k..(from + 1) * k];
        for ((a, v), e) in self.agree.iter_mut().zip(vals).zip(expect) {
            *a += u32::from(v == e);
        }
    }
}

/// What confirmation and READY are decided from; released once both are.
#[derive(Debug, Clone)]
struct Evidence {
    /// The first echo of each sender, whatever its length: an echo never
    /// decides the arity, it is only filtered by it.
    echoes: Vec<Option<Vec<Fp>>>,
    /// The rows echoed, once they are: held iff this player has echoed.
    own: Option<OwnRows>,
}

impl Evidence {
    /// The number of secrets in this dealing: the length of the own rows
    /// when held, otherwise the (smallest) length more than `2f` stored
    /// echoes share — at least `f + 1` honest players echoed it.
    fn arity(&self, f: usize) -> Option<usize> {
        if let Some(own) = &self.own {
            return Some(own.consts.len());
        }
        let lens = || self.echoes.iter().flatten().map(Vec::len);
        lens()
            .filter(|&l| lens().filter(|&m| m == l).count() > 2 * f)
            .min()
    }
}

/// One player's state in one AVSS instance.
#[derive(Debug, Clone)]
pub struct AvssState {
    n: usize,
    f: usize,
    dealer: usize,
    evidence: Option<Evidence>,
    /// Constant terms of the confirmed rows.
    shares: Option<Vec<Fp>>,
    ready_sent: bool,
    ready_recv: PartySet,
    completed: bool,
}

impl AvssState {
    /// Creates the receiving-side state for the instance dealt by `dealer`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 4f` (the AVSS threshold) and `dealer < n`.
    pub fn new(n: usize, f: usize, dealer: usize) -> Self {
        assert!(n > 4 * f, "AVSS requires n > 4f (n={n}, f={f})");
        assert!(dealer < n);
        AvssState {
            n,
            f,
            dealer,
            evidence: Some(Evidence {
                echoes: vec![None; n],
                own: None,
            }),
            shares: None,
            ready_sent: false,
            ready_recv: PartySet::new(),
            completed: false,
        }
    }

    /// Whether the instance completed (shares available).
    pub fn is_completed(&self) -> bool {
        self.completed
    }

    /// The share vector `f_me(0)`, one value per secret, once completed.
    pub fn shares(&self) -> Option<&[Fp]> {
        if !self.completed {
            return None;
        }
        self.shares.as_deref()
    }

    /// Processes a message from `from`. `Rows` count only from the dealer
    /// of this instance, and a sender id `≥ n` is ignored. Returns outgoing
    /// messages and `true` when the instance completes now.
    pub fn on_message(&mut self, from: usize, msg: AvssMsg) -> (Vec<AvssOut>, bool) {
        let mut out = Vec::new();
        if self.completed || from >= self.n {
            return (out, false);
        }
        match (msg, &mut self.evidence) {
            (AvssMsg::Rows(rows), Some(ev)) => {
                if from == self.dealer && ev.own.is_none() && valid_rows(&rows, self.f) {
                    let (k, w) = (rows.len(), self.f + 1);
                    let mut flat = vec![Fp::ZERO; k * w];
                    for (padded, r) in flat.chunks_exact_mut(w).zip(rows.iter()) {
                        padded[..r.len()].copy_from_slice(r);
                    }
                    let own = OwnRows::new(&flat, w, self.n, &ev.echoes);
                    send_echoes(&own.expect, k, self.n, &mut out);
                    ev.own = Some(own);
                }
            }
            (AvssMsg::Echo(vals), Some(ev)) => {
                if let Some(slot) = ev.echoes.get_mut(from).filter(|s| s.is_none()) {
                    if let Some(own) = &mut ev.own {
                        own.count(from, &vals);
                    }
                    *slot = Some(vals);
                }
            }
            // Confirmed and vouched for: nothing reads rows or echoes again.
            (AvssMsg::Rows(_) | AvssMsg::Echo(_), None) => {}
            (AvssMsg::Ready, _) => {
                self.ready_recv.insert(from);
            }
        }
        self.progress(&mut out);
        let done = self.completed;
        (out, done)
    }

    /// Attempts confirmation, READY, completion; releases the evidence once
    /// the shares are held and READY is sent.
    fn progress(&mut self, out: &mut Vec<AvssOut>) {
        if self.shares.is_none() {
            self.try_confirm(out);
        }
        if !self.ready_sent && (self.vouched() || self.ready_recv.len() > self.f) {
            self.ready_sent = true;
            out.push((AvssDest::All, AvssMsg::Ready));
        }
        if self.ready_sent && self.shares.is_some() {
            self.evidence = None;
            self.completed = self.ready_recv.len() > 2 * self.f;
        }
    }

    /// Whether the echoed rows agree with `n − f` echoes in every
    /// coordinate.
    fn vouched(&self) -> bool {
        let own = self.evidence.as_ref().and_then(|ev| ev.own.as_ref());
        own.is_some_and(|own| own.agree.iter().all(|&a| a as usize >= self.n - self.f))
    }

    /// Confirms rows coordinate-wise: the own row if ≥ 2f+1 echoes agree
    /// with it, else the row decoded from the echoes addressed to us. On
    /// success keeps the constant terms and, if nothing was echoed on
    /// receipt, echoes the recovered rows (helping others finish) and holds
    /// them as the rows READY is decided on.
    fn try_confirm(&mut self, out: &mut Vec<AvssOut>) {
        let (n, f, w) = (self.n, self.f, self.f + 1);
        let Some(ev) = &mut self.evidence else { return };
        let Some(k) = ev.arity(f) else { return };
        // Own-row agreement and decoding both rest on 2f+1 echoes of that
        // arity: count them before collecting any, so an echo that leaves
        // the count short allocates nothing.
        let of_arity = ev.echoes.iter().flatten().filter(|v| v.len() == k);
        if of_arity.count() <= 2 * f {
            return;
        }
        // The echoes of that arity, in sender order.
        let senders: Vec<(usize, &[Fp])> = ev
            .echoes
            .iter()
            .enumerate()
            .filter_map(|(j, vals)| Some((j, vals.as_deref().filter(|v| v.len() == k)?)))
            .collect();
        let (mut shares, open): (Vec<Fp>, Vec<usize>) = match &ev.own {
            Some(own) => (
                own.consts.clone(),
                (0..k).filter(|&c| own.agree[c] as usize <= 2 * f).collect(),
            ),
            None => (vec![Fp::ZERO; k], (0..k).collect()),
        };
        let Some(rows) = recover(&senders, f, n, &open) else {
            return;
        };
        for (&c, row) in open.iter().zip(rows.chunks_exact(w)) {
            shares[c] = row[0];
        }
        if ev.own.is_none() {
            let own = OwnRows::new(&rows, w, n, &ev.echoes);
            send_echoes(&own.expect, k, n, out);
            ev.own = Some(own);
        }
        self.shares = Some(shares);
    }
}

/// Decodes the row polynomials of the coordinates `cols` from the echoes
/// addressed to us — `senders`, at least `2f+1` in index order, each with one
/// value per coordinate: points of our rows, by symmetry — with up to `f` of them
/// corrupt, accepting at `2f+1` agreement. Returns them row-major, `f + 1`
/// low-to-high coefficients each, or `None` while some coordinate is not
/// decodable.
///
/// Every column is first tried against one shared plan: interpolate
/// through the first `f + 1` senders, check against the next `f`. That is
/// the first attempt [`OecState`] makes when fed in sender order, so a
/// column that passes has the polynomial `OecState` would return, and a
/// column that fails is handed to `OecState` from scratch.
fn recover(senders: &[(usize, &[Fp])], f: usize, n: usize, cols: &[usize]) -> Option<Vec<Fp>> {
    let w = f + 1;
    if cols.is_empty() {
        return Some(Vec::new());
    }
    let (through, witnesses) = senders[..2 * f + 1].split_at(w);
    let idxs: Vec<usize> = through.iter().map(|&(j, _)| j).collect();
    let basis = grid::lagrange_basis(&idxs);
    let powers = grid::point_powers(n);
    let mut rows = vec![Fp::ZERO; cols.len() * w];
    let mut ys = vec![Fp::ZERO; w];
    for (row, &c) in rows.chunks_exact_mut(w).zip(cols) {
        for (y, (_, vals)) in ys.iter_mut().zip(through) {
            *y = vals[c];
        }
        Fp::mat_vec(&basis, &ys, row);
        let clean = witnesses
            .iter()
            .all(|&(j, vals)| Fp::dot(row, &powers[j * n..j * n + w]) == vals[c]);
        if !clean {
            let mut oec = OecState::new(f, f);
            senders
                .iter()
                .find_map(|&(j, vals)| oec.add_share(j, vals[c]))?;
            let decoded = oec.polynomial().expect("accepted OEC holds its polynomial");
            row.fill(Fp::ZERO);
            row[..decoded.coeffs().len()].copy_from_slice(decoded.coeffs());
        }
    }
    Some(rows)
}

fn valid_rows(rows: &[Vec<Fp>], f: usize) -> bool {
    !rows.is_empty() && rows.iter().all(|r| r.len() <= f + 1)
}

/// Queues row `j` of the `n × k` echo matrix `e` for player `j`.
fn send_echoes(e: &[Fp], k: usize, n: usize, out: &mut Vec<AvssOut>) {
    out.extend((0..n).map(|j| {
        let vals = e[j * k..(j + 1) * k].to_vec();
        (AvssDest::One(j), AvssMsg::Echo(vals))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_field::rs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimal driver: routes AvssOut messages among `n` states; `drop_row`
    /// suppresses the dealer's Rows to those players; `corrupt_row` hands
    /// those players a garbage row instead.
    fn run(
        n: usize,
        f: usize,
        dealer: usize,
        secrets: &[Fp],
        drop_rows: &[usize],
        corrupt_rows: &[usize],
        seed: u64,
    ) -> Vec<AvssState> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut states: Vec<AvssState> = (0..n).map(|_| AvssState::new(n, f, dealer)).collect();
        let rows = deal(secrets, n, f, &mut rng);
        let mut queue: Vec<(usize, usize, AvssMsg)> = Vec::new();
        for (i, msg) in rows.into_iter().enumerate() {
            if drop_rows.contains(&i) {
                continue;
            }
            let msg = if corrupt_rows.contains(&i) {
                AvssMsg::Rows(Payload::new(
                    secrets
                        .iter()
                        .map(|_| vec![Fp::random(&mut rng); f + 1])
                        .collect(),
                ))
            } else {
                msg
            };
            queue.push((dealer, i, msg));
        }
        use rand::Rng;
        let mut guard = 0u64;
        while !queue.is_empty() {
            guard += 1;
            assert!(guard < 1_000_000, "AVSS test livelock");
            let i = rng.gen_range(0..queue.len());
            let (from, to, msg) = queue.swap_remove(i);
            let (out, _) = states[to].on_message(from, msg);
            for (dest, m) in out {
                match dest {
                    AvssDest::One(d) => queue.push((to, d, m)),
                    AvssDest::All => {
                        for d in 0..n {
                            queue.push((to, d, m.clone()));
                        }
                    }
                }
            }
        }
        states
    }

    fn check_consistent_shares(states: &[AvssState], f: usize, secrets: &[Fp]) {
        for (c, &secret) in secrets.iter().enumerate() {
            let pts: Vec<(Fp, Fp)> = states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_completed())
                .map(|(i, s)| (Fp::new(i as u64 + 1), s.shares().unwrap()[c]))
                .collect();
            assert!(pts.len() > f, "not enough completed players");
            let p = rs::interpolate_exact(&pts, f).expect("shares must be f-consistent");
            assert_eq!(p.eval(Fp::ZERO), secret, "coordinate {c}");
        }
    }

    #[test]
    fn honest_dealer_all_complete_consistently() {
        let secrets = [Fp::new(11), Fp::new(22), Fp::new(33)];
        for seed in 0..3 {
            let states = run(5, 1, 0, &secrets, &[], &[], seed);
            assert!(states.iter().all(|s| s.is_completed()), "seed {seed}");
            check_consistent_shares(&states, 1, &secrets);
        }
    }

    #[test]
    fn withheld_row_is_recovered_from_echoes() {
        let secrets = [Fp::new(5)];
        for seed in 0..3 {
            let states = run(5, 1, 0, &secrets, &[3], &[], seed);
            assert!(
                states[3].is_completed(),
                "player 3 must recover, seed {seed}"
            );
            check_consistent_shares(&states, 1, &secrets);
        }
    }

    #[test]
    fn corrupted_row_is_overridden_by_echo_consensus() {
        let secrets = [Fp::new(1234)];
        for seed in 0..3 {
            let states = run(5, 1, 0, &secrets, &[], &[2], seed);
            assert!(states[2].is_completed(), "seed {seed}");
            // Crucially the corrupted player's share lies on the same
            // polynomial as everyone else's.
            check_consistent_shares(&states, 1, &secrets);
        }
    }

    #[test]
    fn dealer_sharing_to_too_few_completes_nowhere() {
        let secrets = [Fp::new(9)];
        // Rows reach only 2 of 5 players: 2f+1 = 3 echo confirmations are
        // unreachable, so nobody confirms, nobody votes READY.
        let states = run(5, 1, 0, &secrets, &[2, 3, 4], &[], 0);
        assert!(states.iter().all(|s| !s.is_completed()));
    }

    #[test]
    fn larger_instance_with_two_faults() {
        let secrets = [Fp::new(7), Fp::new(8)];
        let states = run(9, 2, 4, &secrets, &[0], &[1], 11);
        assert!(states.iter().all(|s| s.is_completed()));
        check_consistent_shares(&states, 2, &secrets);
    }

    /// Delivers `queue` first-in-first-out; what a state sends over a link
    /// `cut(from, to)` is dropped.
    fn drain_fifo(
        states: &mut [AvssState],
        queue: &mut std::collections::VecDeque<(usize, usize, AvssMsg)>,
        cut: impl Fn(usize, usize) -> bool,
    ) {
        let n = states.len();
        while let Some((from, to, msg)) = queue.pop_front() {
            let (out, _) = states[to].on_message(from, msg);
            for (dest, m) in out {
                let dests = match dest {
                    AvssDest::One(d) => d..d + 1,
                    AvssDest::All => 0..n,
                };
                queue.extend(dests.filter(|&d| !cut(to, d)).map(|d| (to, d, m.clone())));
            }
        }
    }

    #[test]
    fn rows_reaching_only_f_plus_1_honest_players_complete_nowhere() {
        // Dealer 0 deals to itself and to 1, 2 — f + 1 honest players — and
        // says nothing at all to 3, 4. The holders confirm their rows on
        // 2f + 1 echoes, but vouching takes n − f = 4 and the outsiders can
        // never decode theirs from two honest echoes: were confirmation a
        // reason for READY, 1 and 2 would complete on the dealer's READY
        // and an ACS could admit a dealing 3 and 4 hold no share of.
        let (n, f, dealer) = (5, 1, 0);
        let mut rng = StdRng::seed_from_u64(13);
        let mut states: Vec<AvssState> = (0..n).map(|_| AvssState::new(n, f, dealer)).collect();
        let rows = deal(&[Fp::new(4), Fp::new(5)], n, f, &mut rng);
        let mut queue: std::collections::VecDeque<_> = rows
            .into_iter()
            .take(3)
            .enumerate()
            .map(|(i, m)| (dealer, i, m))
            .collect();
        let outsider = |to| to == 3 || to == 4;
        drain_fifo(&mut states, &mut queue, |from, to| {
            from == dealer && outsider(to)
        });
        for (i, s) in states.iter().enumerate() {
            assert!(!s.is_completed(), "player {i} completed");
            assert_eq!(s.shares.is_some(), !outsider(i), "player {i} confirmed");
            assert!(!s.ready_sent, "player {i} vouched");
        }
        // The dealer's READY alone is not f + 1: still nobody.
        for holder in &mut states[1..3] {
            assert_eq!(holder.on_message(dealer, AvssMsg::Ready), (vec![], false));
        }
    }

    #[test]
    fn a_late_rows_after_recovery_is_not_echoed_again() {
        let (n, f, dealer, me) = (5, 1, 0, 3);
        let mut rng = StdRng::seed_from_u64(14);
        let rows = deal(&[Fp::new(6)], n, f, &mut rng);
        let mut state = AvssState::new(n, f, dealer);
        let mut sent = Vec::new();
        for j in [0, 1, 2, 4] {
            let (mut out, _) = AvssState::new(n, f, dealer).on_message(dealer, rows[j].clone());
            let (_, echo) = out.swap_remove(me);
            sent.extend(state.on_message(j, echo).0);
        }
        // Recovered at the third echo and echoed; vouched at the fourth.
        assert_eq!(sent.len(), n + 1);
        assert_eq!(sent[n], (AvssDest::All, AvssMsg::Ready));
        assert!(state.shares.is_some());
        assert_eq!(state.on_message(dealer, rows[me].clone()), (vec![], false));
    }

    #[test]
    fn rows_from_a_non_dealer_are_ignored() {
        // Honest dealer 2; byzantine 1 plants rows for the instance at
        // player 0 before the real ones arrive, adds one bad echo, and is
        // silent otherwise. Taking the planted rows would leave player 0
        // echoing garbage to itself: two bad points of five, which a
        // degree-1 decoding can never get past.
        let (n, f, dealer, byz) = (5, 1, 2, 1);
        let secrets = [Fp::new(41), Fp::new(42)];
        let mut rng = StdRng::seed_from_u64(7);
        let mut states: Vec<AvssState> = (0..n).map(|_| AvssState::new(n, f, dealer)).collect();
        let planted = deal(&[Fp::new(1), Fp::new(2)], n, f, &mut rng).swap_remove(0);
        let mut queue = std::collections::VecDeque::from([
            (byz, 0, planted),
            (byz, 0, AvssMsg::Echo(vec![Fp::new(666), Fp::new(667)])),
        ]);
        let rows = deal(&secrets, n, f, &mut rng);
        queue.extend(rows.into_iter().enumerate().map(|(i, m)| (dealer, i, m)));
        drain_fifo(&mut states, &mut queue, |from, _| from == byz);
        for i in [0, 2, 3, 4] {
            assert!(states[i].is_completed(), "honest player {i}");
        }
        states.remove(byz);
        let honest: Vec<(Fp, Fp)> = [0u64, 2, 3, 4]
            .iter()
            .zip(&states)
            .map(|(&i, s)| (Fp::new(i + 1), s.shares().unwrap()[0]))
            .collect();
        let p = rs::interpolate_exact(&honest, f).expect("consistent shares");
        assert_eq!(p.eval(Fp::ZERO), secrets[0]);
    }

    #[test]
    fn a_wrong_length_echo_does_not_fix_the_arity() {
        // Byzantine 4 gets a 1-element echo to player 1 first; the honest
        // echoes arrive next, player 1's rows last. Were the arity read off
        // the first echo, every honest echo in between would be dropped
        // unseen and player 1 left with its own echo alone.
        let (n, f, dealer, byz) = (5, 1, 0, 4);
        let secrets = [Fp::new(5), Fp::new(6), Fp::new(7)];
        let mut rng = StdRng::seed_from_u64(8);
        let mut states: Vec<AvssState> = (0..n).map(|_| AvssState::new(n, f, dealer)).collect();
        let mut rows = deal(&secrets, n, f, &mut rng);
        let late = rows.remove(1);
        let mut queue = std::collections::VecDeque::from([(byz, 1, AvssMsg::Echo(vec![Fp::ONE]))]);
        queue.extend(
            [0, 2, 3, 4]
                .into_iter()
                .zip(rows)
                .map(|(i, m)| (dealer, i, m)),
        );
        drain_fifo(&mut states, &mut queue, |from, _| from == byz);
        queue.push_back((dealer, 1, late));
        drain_fifo(&mut states, &mut queue, |from, _| from == byz);
        for (i, s) in states.iter().enumerate().take(byz) {
            assert!(s.is_completed(), "honest player {i}");
        }
        check_consistent_shares(&states[..4], f, &secrets);
    }

    #[test]
    fn an_echo_corrupted_in_some_coordinates_costs_only_those_columns() {
        // Player 3 never gets its rows and decodes them from echoes; the
        // echo of sender 0 is wrong in coordinate 1 only. Coordinates 0 and
        // 2 pass the shared first attempt over senders {0, 1, 2}; coordinate
        // 1 needs a fourth point before error correction can accept, and
        // confirmation waits for it.
        let (n, f, dealer, me) = (5, 1, 4, 3);
        let secrets = [Fp::new(10), Fp::new(20), Fp::new(30)];
        let mut rng = StdRng::seed_from_u64(9);
        // What each sender j echoes to `me`: E_j[me].
        let echo_to_me: Vec<Vec<Fp>> = deal(&secrets, n, f, &mut rng)
            .into_iter()
            .map(|rows| {
                let mut s = AvssState::new(n, f, dealer);
                let (out, _) = s.on_message(dealer, rows);
                match &out[me] {
                    (AvssDest::One(d), AvssMsg::Echo(vals)) if *d == me => vals.clone(),
                    other => panic!("not an echo to {me}: {other:?}"),
                }
            })
            .collect();
        let mut state = AvssState::new(n, f, dealer);
        let mut bent = echo_to_me[0].clone();
        bent[1] += Fp::ONE;
        for (j, vals) in [(0, bent), (1, echo_to_me[1].clone())] {
            assert!(state.on_message(j, AvssMsg::Echo(vals)).0.is_empty());
        }
        let (out, _) = state.on_message(2, AvssMsg::Echo(echo_to_me[2].clone()));
        assert!(
            out.is_empty(),
            "coordinate 1 is not decodable from 3 points"
        );
        let (out, _) = state.on_message(4, AvssMsg::Echo(echo_to_me[4].clone()));
        // Recovered: echoes to everyone — and the echo to player `me` itself
        // is what an honest holder of the row sends. No READY yet: in
        // coordinate 1 the rows agree with 3 echoes, not n − f = 4.
        assert_eq!(out.len(), n);
        assert_eq!(
            out[me],
            (AvssDest::One(me), AvssMsg::Echo(echo_to_me[me].clone()))
        );
        // Its own echo is the fourth.
        let (out, _) = state.on_message(me, out[me].1.clone());
        assert_eq!(out, [(AvssDest::All, AvssMsg::Ready)]);
    }

    #[test]
    fn confirmation_releases_the_echo_evidence() {
        let (n, f, dealer) = (5, 1, 0);
        let secrets = [Fp::new(3), Fp::new(4)];
        let mut rng = StdRng::seed_from_u64(10);
        let mut rows = deal(&secrets, n, f, &mut rng);
        let mut holder = AvssState::new(n, f, dealer);
        let (echoes, _) = holder.on_message(dealer, rows.swap_remove(0));
        assert!(holder.evidence.as_ref().is_some_and(|ev| ev.own.is_some()));
        // Player 0's own echoes stand in for those of 1 and 2 here: only
        // the row E[j] sent *to* j is what j's echo must equal, so feed
        // each sender its expected vector.
        let mut echoes = echoes.into_iter().map(|(_, m)| m);
        for (j, m) in echoes.by_ref().enumerate().take(2 * f + 1) {
            assert!(holder.shares.is_none());
            holder.on_message(j, m);
        }
        // Confirmed, but READY waits for n − f agreeing echoes.
        assert!(holder.shares.is_some() && !holder.ready_sent);
        assert!(holder.evidence.is_some(), "still counting towards READY");
        let (out, _) = holder.on_message(2 * f + 1, echoes.next().unwrap());
        assert_eq!(out, [(AvssDest::All, AvssMsg::Ready)]);
        assert!(!holder.is_completed());
        assert!(holder.evidence.is_none(), "echoes and E are dropped");
        // A later echo is not stored either.
        holder.on_message(4, AvssMsg::Echo(vec![Fp::ONE, Fp::ONE]));
        assert!(holder.evidence.is_none());
        // And a whole honest run ends with no state holding evidence.
        for s in run(n, f, dealer, &secrets, &[3], &[], 1) {
            assert!(s.is_completed() && s.evidence.is_none());
        }
    }

    #[test]
    fn phantom_readies_never_complete() {
        // A confirmed holder needs 2f+1 READY votes; ids n, n+1, … name no
        // player and must not supply them.
        let (n, f, dealer) = (5, 1, 0);
        let mut rng = StdRng::seed_from_u64(12);
        let mut rows = deal(&[Fp::new(8)], n, f, &mut rng);
        let mut holder = AvssState::new(n, f, dealer);
        let (echoes, _) = holder.on_message(dealer, rows.swap_remove(0));
        for (j, (_, m)) in echoes.into_iter().enumerate().take(2 * f + 1) {
            holder.on_message(j, m);
        }
        assert!(holder.shares.is_some(), "confirmed");
        for from in n..2 * n {
            assert_eq!(holder.on_message(from, AvssMsg::Ready), (Vec::new(), false));
        }
        assert!(!holder.is_completed());
        for from in 0..2 * f {
            holder.on_message(from, AvssMsg::Ready);
        }
        assert!(!holder.is_completed(), "2f real readies are still short");
        assert!(holder.on_message(2 * f, AvssMsg::Ready).1);
    }

    #[test]
    #[should_panic(expected = "n > 4f")]
    fn rejects_insufficient_n() {
        let _ = AvssState::new(8, 2, 0);
    }

    #[test]
    fn shares_unavailable_before_completion() {
        let s = AvssState::new(5, 1, 0);
        assert!(!s.is_completed());
        assert!(s.shares().is_none());
    }
}
