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
use mediator_sim::sansio::{Outgoing, View};
use mediator_sim::PartySet;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// AVSS wire messages (vector-valued: one entry per shared secret).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AvssMsg {
    /// Dealer → player: the player's row polynomials, one per secret, as
    /// `rows` rows of equal length, row-major, low-to-high coefficients: a
    /// [`View`] of the dealing's one buffer.
    Rows {
        /// Number of rows: the number of secrets dealt.
        rows: u32,
        /// The `rows × width` coefficients.
        coeffs: View<Fp>,
    },
    /// Player `i` → player `j`: the evaluations `f_i(x_j)`, one per secret —
    /// row `j` of `i`'s echo matrix, a [`View`] of it.
    Echo(View<Fp>),
    /// Bracha-style completion vote.
    Ready,
}

impl AvssMsg {
    /// A `Rows` message from explicit rows, each zero-padded to the longest
    /// — what a ragged `Rows` frame decodes to. Padding changes no row
    /// polynomial.
    pub fn rows<R: AsRef<[Fp]>>(rows: &[R]) -> Self {
        let width = rows.iter().map(|r| r.as_ref().len()).max().unwrap_or(0);
        let mut coeffs = vec![Fp::ZERO; rows.len() * width];
        for (padded, r) in coeffs.chunks_exact_mut(width.max(1)).zip(rows) {
            padded[..r.as_ref().len()].copy_from_slice(r.as_ref());
        }
        AvssMsg::Rows {
            rows: u32::try_from(rows.len()).expect("row count fits u32"),
            coeffs: coeffs.into(),
        }
    }
}

/// A `Rows` block's rows: `rows` equal slices of `coeffs`, or `None` for a
/// block of no rows or one that does not split evenly.
pub fn split_rows(rows: u32, coeffs: &[Fp]) -> Option<impl Iterator<Item = &[Fp]>> {
    let k = rows as usize;
    let w = coeffs.len().checked_div(k)?;
    (k * w == coeffs.len()).then(|| (0..k).map(move |r| &coeffs[r * w..(r + 1) * w]))
}

/// A lone instance's stream is untagged: the tag names the dealer its
/// [`AvssPeer`](crate::AvssPeer) already shares for, so it is dropped.
impl From<(usize, AvssMsg)> for AvssMsg {
    fn from((_, msg): (usize, AvssMsg)) -> Self {
        msg
    }
}

/// A buffer of `len` zeros, filled by `fill`, in one allocation.
fn filled(len: usize, fill: impl FnOnce(&mut [Fp])) -> Arc<[Fp]> {
    let mut buf: Arc<[Fp]> = std::iter::repeat_n(Fp::ZERO, len).collect();
    fill(Arc::get_mut(&mut buf).expect("a fresh buffer is unshared"));
    buf
}

/// Dealer-side sharing: builds the per-player row messages.
///
/// Returns one `Rows` message per player, each a view of one shared
/// buffer of the whole dealing.
pub fn deal<R: Rng + ?Sized>(secrets: &[Fp], n: usize, f: usize, rng: &mut R) -> Vec<AvssMsg> {
    // One symmetric bivariate polynomial per secret, S(x,y) = Σ c_ab x^a y^b
    // with c_ab = c_ba: all the (f+1)×(f+1) coefficient matrices in one
    // flat buffer, drawn upper triangle first, row by row.
    let (k, w) = (secrets.len(), f + 1);
    let mut coeffs = vec![Fp::ZERO; k * w * w];
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
    // coefficients are one matrix–vector product, written straight into
    // its block of the dealing.
    let powers = grid::point_powers(n);
    let dealing = filled(n * k * w, |cells| {
        for i in 0..n {
            let block = &mut cells[i * k * w..(i + 1) * k * w];
            Fp::mat_vec(&coeffs, &powers[i * n..i * n + w], block);
        }
    });
    let rows = u32::try_from(k).expect("row count fits u32");
    View::split(dealing, n)
        .map(|coeffs| AvssMsg::Rows { rows, coeffs })
        .collect()
}

/// The echo matrix of `k` row polynomials, given row-major with `w`
/// low-to-high coefficients each: row-major `n × k`, `E[j·k + c] = f_c(x_j)`.
fn echo_matrix(rows: &[Fp], k: usize, w: usize, n: usize) -> Arc<[Fp]> {
    let powers = grid::point_powers(n);
    filled(n * k, |e| {
        for (j, ej) in e.chunks_exact_mut(k.max(1)).enumerate() {
            Fp::mat_vec(rows, &powers[j * n..j * n + w], ej);
        }
    })
}

/// The rows a player echoed — the dealer's `Rows`, or the rows it
/// recovered without them — reduced to what the rest of the instance reads.
#[derive(Debug, Clone)]
struct OwnRows {
    /// The rows' constant terms — the shares, should the rows be confirmed.
    consts: Vec<Fp>,
    /// The echo matrix of the rows: `expect[j·k..(j+1)·k]` is what was sent
    /// to `j` (as a view of this buffer) and what `j`'s echo has to equal.
    expect: Arc<[Fp]>,
    /// Per coordinate, how many stored echoes equal the expectation; its
    /// length is the arity `k`.
    agree: Vec<u32>,
}

impl OwnRows {
    /// The `k` rows `rows` (row-major, of at most `f + 1` low-to-high
    /// coefficients each) with the stored `echoes` counted.
    fn new(rows: &[Fp], k: usize, n: usize, echoes: &[Option<View<Fp>>]) -> Self {
        let w = rows.len() / k;
        let mut own = OwnRows {
            consts: (0..k)
                .map(|c| if w == 0 { Fp::ZERO } else { rows[c * w] })
                .collect(),
            expect: echo_matrix(rows, k, w, n),
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
        let k = self.agree.len();
        if vals.len() != k {
            return;
        }
        let expect = &self.expect[from * k..(from + 1) * k];
        for ((a, v), e) in self.agree.iter_mut().zip(vals).zip(expect) {
            *a += u32::from(v == e);
        }
    }

    /// Queues row `j` of the echo matrix, a view of it, for each player `j`.
    fn send_echoes<M: From<(usize, AvssMsg)>>(
        &self,
        dealer: usize,
        n: usize,
        out: &mut Vec<Outgoing<M>>,
    ) {
        let rows = View::split(Arc::clone(&self.expect), n);
        out.extend(
            rows.enumerate()
                .map(|(j, row)| Outgoing::to(j, M::from((dealer, AvssMsg::Echo(row))))),
        );
    }
}

/// What confirmation and READY are decided from; released once both are.
#[derive(Debug, Clone)]
struct Evidence {
    /// The first echo of each sender, whatever its length: an echo never
    /// decides the arity, it is only filtered by it.
    echoes: Vec<Option<View<Fp>>>,
    /// The rows echoed, once they are: held iff this player has echoed.
    own: Option<OwnRows>,
}

impl Evidence {
    /// The number of secrets in this dealing: the length of the own rows
    /// when held, otherwise the (smallest) length more than `2f` stored
    /// echoes share — at least `f + 1` honest players echoed it.
    fn arity(&self, f: usize) -> Option<usize> {
        if let Some(own) = &self.own {
            return Some(own.agree.len());
        }
        let lens = || self.echoes.iter().flatten().map(|v| v.len());
        lens()
            .filter(|&l| lens().filter(|&m| m == l).count() > 2 * f)
            .min()
    }

    /// The echoes of arity `k`, with their senders, in sender order.
    fn of_arity(&self, k: usize) -> impl Iterator<Item = (usize, &[Fp])> + Clone {
        self.echoes
            .iter()
            .enumerate()
            .filter_map(move |(j, vals)| Some((j, vals.as_deref().filter(|v| v.len() == k)?)))
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

    /// Processes a message from `from`, appending what it sends to `out`,
    /// each message tagged with this instance's dealer. `Rows` count only
    /// from the dealer of this instance, and a sender id `≥ n` is ignored.
    /// Returns `true` when the instance completes now.
    pub fn on_message<M: From<(usize, AvssMsg)>>(
        &mut self,
        from: usize,
        msg: AvssMsg,
        out: &mut Vec<Outgoing<M>>,
    ) -> bool {
        if self.completed || from >= self.n {
            return false;
        }
        match (msg, &mut self.evidence) {
            (AvssMsg::Rows { rows, coeffs }, Some(ev)) => {
                // Rows of at most f + 1 coefficients, of any arity but 0.
                let fits =
                    split_rows(rows, &coeffs).is_some_and(|mut r| r.all(|r| r.len() <= self.f + 1));
                if from == self.dealer && ev.own.is_none() && fits {
                    let own = OwnRows::new(&coeffs, rows as usize, self.n, &ev.echoes);
                    own.send_echoes(self.dealer, self.n, out);
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
            (AvssMsg::Rows { .. } | AvssMsg::Echo(_), None) => {}
            (AvssMsg::Ready, _) => {
                self.ready_recv.insert(from);
            }
        }
        self.progress(out);
        self.completed
    }

    /// Attempts confirmation, READY, completion; releases the evidence once
    /// the shares are held and READY is sent.
    fn progress<M: From<(usize, AvssMsg)>>(&mut self, out: &mut Vec<Outgoing<M>>) {
        if self.shares.is_none() {
            self.try_confirm(out);
        }
        if !self.ready_sent && (self.vouched() || self.ready_recv.len() > self.f) {
            self.ready_sent = true;
            out.push(Outgoing::all(M::from((self.dealer, AvssMsg::Ready))));
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
    fn try_confirm<M: From<(usize, AvssMsg)>>(&mut self, out: &mut Vec<Outgoing<M>>) {
        let (n, f, w) = (self.n, self.f, self.f + 1);
        let Some(ev) = &mut self.evidence else { return };
        let Some(k) = ev.arity(f) else { return };
        // Own-row agreement and decoding both rest on 2f+1 echoes of that
        // arity.
        if ev.of_arity(k).count() <= 2 * f {
            return;
        }
        let open: Vec<usize> = match &ev.own {
            Some(own) => (0..k).filter(|&c| own.agree[c] as usize <= 2 * f).collect(),
            None => (0..k).collect(),
        };
        let Some(rows) = recover(ev.of_arity(k), f, n, &open) else {
            return;
        };
        let mut shares = match &mut ev.own {
            // Nothing reads the constant terms once the shares are held.
            Some(own) => std::mem::take(&mut own.consts),
            None => vec![Fp::ZERO; k],
        };
        for (&c, row) in open.iter().zip(rows.chunks_exact(w)) {
            shares[c] = row[0];
        }
        if ev.own.is_none() {
            let own = OwnRows::new(&rows, k, n, &ev.echoes);
            own.send_echoes(self.dealer, n, out);
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
fn recover<'a>(
    senders: impl Iterator<Item = (usize, &'a [Fp])> + Clone,
    f: usize,
    n: usize,
    cols: &[usize],
) -> Option<Vec<Fp>> {
    let w = f + 1;
    if cols.is_empty() {
        return Some(Vec::new());
    }
    let through = senders.clone().take(w);
    let witnesses = senders.clone().skip(w).take(f);
    let idxs: Vec<usize> = through.clone().map(|(j, _)| j).collect();
    let basis = grid::lagrange_basis(&idxs);
    let powers = grid::point_powers(n);
    let mut rows = vec![Fp::ZERO; cols.len() * w];
    let mut ys = vec![Fp::ZERO; w];
    for (row, &c) in rows.chunks_exact_mut(w).zip(cols) {
        for (y, (_, vals)) in ys.iter_mut().zip(through.clone()) {
            *y = vals[c];
        }
        Fp::mat_vec(&basis, &ys, row);
        let clean = witnesses
            .clone()
            .all(|(j, vals)| Fp::dot(row, &powers[j * n..j * n + w]) == vals[c]);
        if !clean {
            let mut oec = OecState::new(f, f);
            senders
                .clone()
                .find_map(|(j, vals)| oec.add_share(j, vals[c]))?;
            let decoded = oec.polynomial().expect("accepted OEC holds its polynomial");
            row.fill(Fp::ZERO);
            row[..decoded.coeffs().len()].copy_from_slice(decoded.coeffs());
        }
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mediator_field::rs;
    use mediator_sim::sansio::{route_batch, Dest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Delivers one message; returns what `s` sent and whether it completed.
    fn deliver(s: &mut AvssState, from: usize, msg: AvssMsg) -> (Vec<Outgoing<AvssMsg>>, bool) {
        let mut out = Vec::new();
        let done = s.on_message(from, msg, &mut out);
        (out, done)
    }

    /// Minimal driver: routes the outgoing messages among `n` states; `drop_row`
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
                let garbage: Vec<Vec<Fp>> = secrets
                    .iter()
                    .map(|_| vec![Fp::random(&mut rng); f + 1])
                    .collect();
                AvssMsg::rows(&garbage)
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
            let (out, _) = deliver(&mut states[to], from, msg);
            route_batch(n, out, |d, m| queue.push((to, d, m)));
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
            let (out, _) = deliver(&mut states[to], from, msg);
            route_batch(n, out, |d, m| {
                if !cut(to, d) {
                    queue.push_back((to, d, m));
                }
            });
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
            assert_eq!(deliver(holder, dealer, AvssMsg::Ready), (vec![], false));
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
            let (mut out, _) = deliver(&mut AvssState::new(n, f, dealer), dealer, rows[j].clone());
            let echo = out.swap_remove(me).msg;
            sent.extend(deliver(&mut state, j, echo).0);
        }
        // Recovered at the third echo and echoed; vouched at the fourth.
        assert_eq!(sent.len(), n + 1);
        assert_eq!(sent[n], Outgoing::all(AvssMsg::Ready));
        assert!(state.shares.is_some());
        assert_eq!(
            deliver(&mut state, dealer, rows[me].clone()),
            (vec![], false)
        );
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
            (
                byz,
                0,
                AvssMsg::Echo(vec![Fp::new(666), Fp::new(667)].into()),
            ),
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
        let mut queue =
            std::collections::VecDeque::from([(byz, 1, AvssMsg::Echo(vec![Fp::ONE].into()))]);
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
                let (out, _) = deliver(&mut AvssState::new(n, f, dealer), dealer, rows);
                match &out[me] {
                    Outgoing {
                        dest: Dest::One(d),
                        msg: AvssMsg::Echo(vals),
                    } if *d == me => vals.to_vec(),
                    other => panic!("not an echo to {me}: {other:?}"),
                }
            })
            .collect();
        let mut state = AvssState::new(n, f, dealer);
        let mut bent = echo_to_me[0].clone();
        bent[1] += Fp::ONE;
        for (j, vals) in [(0, bent), (1, echo_to_me[1].clone())] {
            assert!(deliver(&mut state, j, AvssMsg::Echo(vals.into()))
                .0
                .is_empty());
        }
        let (out, _) = deliver(&mut state, 2, AvssMsg::Echo(echo_to_me[2].clone().into()));
        assert!(
            out.is_empty(),
            "coordinate 1 is not decodable from 3 points"
        );
        let (out, _) = deliver(&mut state, 4, AvssMsg::Echo(echo_to_me[4].clone().into()));
        // Recovered: echoes to everyone — and the echo to player `me` itself
        // is what an honest holder of the row sends. No READY yet: in
        // coordinate 1 the rows agree with 3 echoes, not n − f = 4.
        assert_eq!(out.len(), n);
        assert_eq!(
            out[me],
            Outgoing::to(me, AvssMsg::Echo(echo_to_me[me].clone().into()))
        );
        // Its own echo is the fourth.
        let (out, _) = deliver(&mut state, me, out[me].msg.clone());
        assert_eq!(out, [Outgoing::all(AvssMsg::Ready)]);
    }

    #[test]
    fn confirmation_releases_the_echo_evidence() {
        let (n, f, dealer) = (5, 1, 0);
        let secrets = [Fp::new(3), Fp::new(4)];
        let mut rng = StdRng::seed_from_u64(10);
        let mut rows = deal(&secrets, n, f, &mut rng);
        let mut holder = AvssState::new(n, f, dealer);
        let (echoes, _) = deliver(&mut holder, dealer, rows.swap_remove(0));
        assert!(holder.evidence.as_ref().is_some_and(|ev| ev.own.is_some()));
        // Player 0's own echoes stand in for those of 1 and 2 here: only
        // the row E[j] sent *to* j is what j's echo must equal, so feed
        // each sender its expected vector.
        let mut echoes = echoes.into_iter().map(|o| o.msg);
        for (j, m) in echoes.by_ref().enumerate().take(2 * f + 1) {
            assert!(holder.shares.is_none());
            deliver(&mut holder, j, m);
        }
        // Confirmed, but READY waits for n − f agreeing echoes.
        assert!(holder.shares.is_some() && !holder.ready_sent);
        assert!(holder.evidence.is_some(), "still counting towards READY");
        let (out, _) = deliver(&mut holder, 2 * f + 1, echoes.next().unwrap());
        assert_eq!(out, [Outgoing::all(AvssMsg::Ready)]);
        assert!(!holder.is_completed());
        assert!(holder.evidence.is_none(), "echoes and E are dropped");
        // A later echo is not stored either.
        deliver(&mut holder, 4, AvssMsg::Echo(vec![Fp::ONE, Fp::ONE].into()));
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
        let (echoes, _) = deliver(&mut holder, dealer, rows.swap_remove(0));
        for (j, o) in echoes.into_iter().enumerate().take(2 * f + 1) {
            deliver(&mut holder, j, o.msg);
        }
        assert!(holder.shares.is_some(), "confirmed");
        for from in n..2 * n {
            assert_eq!(
                deliver(&mut holder, from, AvssMsg::Ready),
                (Vec::new(), false)
            );
        }
        assert!(!holder.is_completed());
        for from in 0..2 * f {
            deliver(&mut holder, from, AvssMsg::Ready);
        }
        assert!(!holder.is_completed(), "2f real readies are still short");
        assert!(deliver(&mut holder, 2 * f, AvssMsg::Ready).1);
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
