//! Incremental circuit construction and arithmetic gadgets.

use crate::circuit::{Circuit, Gate, WireId};
use mediator_field::{Fp, Poly};

/// Builds a [`Circuit`] gate by gate.
///
/// The builder offers the raw gates plus gadgets for the boolean-flavoured
/// operations mediator circuits need (XOR, NOT, selection, equality against
/// a small domain, table lookup, majority). Gadget inputs are assumed to be
/// field elements in `{0, 1}` unless documented otherwise; every gadget is a
/// polynomial, so it has a definite value on any other input too.
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    num_players: usize,
    inputs_per_player: Vec<usize>,
    gates: Vec<Gate>,
    outputs: Vec<(usize, WireId)>,
}

impl CircuitBuilder {
    /// Starts a circuit for `num_players` players where player `p` provides
    /// `inputs[p]` private field elements.
    pub fn new(num_players: usize, inputs: &[usize]) -> Self {
        assert_eq!(inputs.len(), num_players);
        CircuitBuilder {
            num_players,
            inputs_per_player: inputs.to_vec(),
            gates: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn push(&mut self, g: Gate) -> WireId {
        self.gates.push(g);
        self.gates.len() - 1
    }

    /// References the `index`-th input of `player`.
    ///
    /// # Panics
    ///
    /// Panics if the input is out of the declared range.
    pub fn input(&mut self, player: usize, index: usize) -> WireId {
        assert!(player < self.num_players, "unknown player {player}");
        assert!(
            index < self.inputs_per_player[player],
            "player {player} has no input {index}"
        );
        self.push(Gate::Input { player, index })
    }

    /// A fresh uniformly-random field element.
    pub fn rand(&mut self) -> WireId {
        self.push(Gate::Rand)
    }

    /// A fresh fair random bit.
    pub fn rand_bit(&mut self) -> WireId {
        self.push(Gate::RandBit)
    }

    /// A constant.
    pub fn constant(&mut self, c: Fp) -> WireId {
        self.push(Gate::Const(c))
    }

    /// `a + b`.
    pub fn add(&mut self, a: WireId, b: WireId) -> WireId {
        self.check(a);
        self.check(b);
        self.push(Gate::Add(a, b))
    }

    /// `a − b`.
    pub fn sub(&mut self, a: WireId, b: WireId) -> WireId {
        self.check(a);
        self.check(b);
        self.push(Gate::Sub(a, b))
    }

    /// `a · b`.
    pub fn mul(&mut self, a: WireId, b: WireId) -> WireId {
        self.check(a);
        self.check(b);
        self.push(Gate::Mul(a, b))
    }

    /// `a · c` for a public constant `c`.
    pub fn mul_const(&mut self, a: WireId, c: Fp) -> WireId {
        self.check(a);
        self.push(Gate::MulConst(a, c))
    }

    fn check(&self, w: WireId) {
        assert!(w < self.gates.len(), "wire {w} does not exist yet");
    }

    /// Declares that `player` privately learns `wire`.
    pub fn output(&mut self, player: usize, wire: WireId) {
        assert!(player < self.num_players);
        self.check(wire);
        self.outputs.push((player, wire));
    }

    /// Declares `wire` as an output for every player (a public value).
    pub fn output_all(&mut self, wire: WireId) {
        for p in 0..self.num_players {
            self.output(p, wire);
        }
    }

    /// Finishes construction.
    pub fn build(self) -> Circuit {
        Circuit {
            num_players: self.num_players,
            inputs_per_player: self.inputs_per_player,
            gates: self.gates,
            outputs: self.outputs,
        }
    }

    // ---- gadgets (bit-valued wires unless stated otherwise) ----

    /// `a XOR b = a + b − 2ab` (1 multiplication).
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        let ab = self.mul(a, b);
        let two_ab = self.mul_const(ab, Fp::new(2));
        let s = self.add(a, b);
        self.sub(s, two_ab)
    }

    /// `NOT a = 1 − a`.
    pub fn not(&mut self, a: WireId) -> WireId {
        let one = self.constant(Fp::ONE);
        self.sub(one, a)
    }

    /// `a AND b = ab`.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        self.mul(a, b)
    }

    /// `a OR b = a + b − ab`.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        let ab = self.mul(a, b);
        let s = self.add(a, b);
        self.sub(s, ab)
    }

    /// `if bit then x else y` = `y + bit·(x − y)` (1 multiplication).
    pub fn select(&mut self, bit: WireId, x: WireId, y: WireId) -> WireId {
        let d = self.sub(x, y);
        let bd = self.mul(bit, d);
        self.add(y, bd)
    }

    /// Indicator `[x == c]` for `x` ranging over the small `domain`:
    /// the Lagrange basis polynomial `Π_{d≠c} (x−d)/(c−d)` (|domain|−2
    /// multiplications; a singleton domain is the constant 1). For a whole
    /// table use [`CircuitBuilder::lookup`], which shares one power chain
    /// across every indicator.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not in `domain` or `domain` repeats a point
    /// (compared as field elements).
    pub fn eq_const(&mut self, x: WireId, c: u64, domain: &[u64]) -> WireId {
        assert!(domain.contains(&c), "{c} not in domain");
        assert_distinct("eq_const", domain);
        let mut acc: Option<WireId> = None;
        let mut denom = Fp::ONE;
        for &d in domain {
            if d == c {
                continue;
            }
            let dc = self.constant(Fp::new(d));
            let term = self.sub(x, dc);
            acc = Some(match acc {
                None => term,
                Some(a) => self.mul(a, term),
            });
            denom *= Fp::new(c) - Fp::new(d);
        }
        match acc {
            None => self.constant(Fp::ONE), // singleton domain: always equal
            Some(a) => self.mul_const(a, denom.inv().expect("distinct domain points")),
        }
    }

    /// Evaluates the public polynomial `Σ coeffs[j]·x^j` (low-to-high) on
    /// the wire `x`.
    ///
    /// The powers `x², …, x^d` (`d` the actual degree: trailing zero
    /// coefficients are ignored) are built as `x^j = x^⌊j/2⌋ · x^⌈j/2⌉`, so
    /// a degree-`d` polynomial costs `d − 1` multiplications at depth
    /// `⌈log₂ d⌉`; the sum is `MulConst`/`Add` only and a zero coefficient
    /// emits no gate.
    pub fn poly_eval(&mut self, x: WireId, coeffs: &[Fp]) -> WireId {
        self.check(x);
        let len = coeffs
            .iter()
            .rposition(|c| !c.is_zero())
            .map_or(0, |d| d + 1);
        let coeffs = &coeffs[..len];
        // powers[j] = x^j for j ≥ 1; slot 0 is never read.
        let mut powers = vec![x; len];
        for j in 2..len {
            powers[j] = self.mul(powers[j / 2], powers[j - j / 2]);
        }
        let mut acc: Option<WireId> = None;
        for (j, &c) in coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            let term = match j {
                0 => self.constant(c),
                _ => self.mul_const(powers[j], c),
            };
            acc = Some(match acc {
                None => term,
                Some(a) => self.add(a, term),
            });
        }
        acc.unwrap_or_else(|| self.constant(Fp::ZERO))
    }

    /// Table lookup: `f(x)` where `x` ranges over `domain` and `f` is given
    /// by `values[i] = f(domain[i])`.
    ///
    /// The table is interpolated once (public coefficients) and evaluated
    /// with [`CircuitBuilder::poly_eval`]: a table of degree `e` costs
    /// `e − 1` multiplications whatever its domain size. This is the same
    /// polynomial as the indicator sum `Σ values[i]·[x == dᵢ]`, so the two
    /// agree on every field element, in `domain` or not. An empty table is
    /// the constant 0.
    ///
    /// # Panics
    ///
    /// Panics if `domain` and `values` differ in length or `domain` repeats
    /// a point (compared as field elements).
    pub fn lookup(&mut self, x: WireId, domain: &[u64], values: &[Fp]) -> WireId {
        assert_eq!(domain.len(), values.len());
        assert_distinct("lookup", domain);
        let points: Vec<(Fp, Fp)> = domain
            .iter()
            .zip(values)
            .map(|(&d, &v)| (Fp::new(d), v))
            .collect();
        self.poly_eval(x, Poly::interpolate(&points).coeffs())
    }

    /// Sum of a slice of wires.
    pub fn sum(&mut self, wires: &[WireId]) -> WireId {
        assert!(!wires.is_empty(), "sum of no wires");
        let mut acc = wires[0];
        for &w in &wires[1..] {
            acc = self.add(acc, w);
        }
        acc
    }

    /// Majority of bit wires, ties toward 0: `[Σ bits > n/2]` via a lookup
    /// over the sum's domain `0..=n` (at most `n − 1` multiplications).
    pub fn majority(&mut self, bits: &[WireId]) -> WireId {
        let n = bits.len();
        let s = self.sum(bits);
        let domain: Vec<u64> = (0..=n as u64).collect();
        let values: Vec<Fp> = (0..=n)
            .map(|ones| if 2 * ones > n { Fp::ONE } else { Fp::ZERO })
            .collect();
        self.lookup(s, &domain, &values)
    }
}

/// Rejects a `domain` that names the same field element twice (`u64`s that
/// differ may still reduce to one point), naming the gadget and the point.
fn assert_distinct(gadget: &str, domain: &[u64]) {
    let mut seen: Vec<Fp> = domain.iter().map(|&d| Fp::new(d)).collect();
    seen.sort_unstable();
    if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
        panic!("{gadget}: domain repeats the point {}", w[0].as_u64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eval1(c: &Circuit, inputs: &[Vec<Fp>]) -> Fp {
        let mut rng = StdRng::seed_from_u64(0);
        c.eval(inputs, &mut rng).outputs.concat()[0]
    }

    fn bit_circuit2(f: impl Fn(&mut CircuitBuilder, WireId, WireId) -> WireId) -> Circuit {
        let mut b = CircuitBuilder::new(1, &[2]);
        let x = b.input(0, 0);
        let y = b.input(0, 1);
        let z = f(&mut b, x, y);
        b.output(0, z);
        b.build()
    }

    #[test]
    fn xor_truth_table() {
        let c = bit_circuit2(|b, x, y| b.xor(x, y));
        for (x, y, z) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)] {
            assert_eq!(
                eval1(&c, &[vec![Fp::new(x), Fp::new(y)]]),
                Fp::new(z),
                "{x} xor {y}"
            );
        }
    }

    #[test]
    fn and_or_not_truth_tables() {
        let and = bit_circuit2(|b, x, y| b.and(x, y));
        let or = bit_circuit2(|b, x, y| b.or(x, y));
        for (x, y) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            assert_eq!(eval1(&and, &[vec![Fp::new(x), Fp::new(y)]]), Fp::new(x & y));
            assert_eq!(eval1(&or, &[vec![Fp::new(x), Fp::new(y)]]), Fp::new(x | y));
        }
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let nx = b.not(x);
        b.output(0, nx);
        let c = b.build();
        assert_eq!(eval1(&c, &[vec![Fp::ZERO]]), Fp::ONE);
        assert_eq!(eval1(&c, &[vec![Fp::ONE]]), Fp::ZERO);
    }

    #[test]
    fn select_picks_branch() {
        let mut b = CircuitBuilder::new(1, &[3]);
        let bit = b.input(0, 0);
        let x = b.input(0, 1);
        let y = b.input(0, 2);
        let s = b.select(bit, x, y);
        b.output(0, s);
        let c = b.build();
        assert_eq!(
            eval1(&c, &[vec![Fp::ONE, Fp::new(10), Fp::new(20)]]),
            Fp::new(10)
        );
        assert_eq!(
            eval1(&c, &[vec![Fp::ZERO, Fp::new(10), Fp::new(20)]]),
            Fp::new(20)
        );
    }

    #[test]
    fn eq_const_indicator() {
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let e = b.eq_const(x, 2, &[0, 1, 2, 3]);
        b.output(0, e);
        let c = b.build();
        for v in 0..4u64 {
            let expect = if v == 2 { Fp::ONE } else { Fp::ZERO };
            assert_eq!(eval1(&c, &[vec![Fp::new(v)]]), expect, "x={v}");
        }
    }

    #[test]
    fn lookup_table() {
        // f(x) = x^2 + 1 over domain {0,1,2,3}.
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let values: Vec<Fp> = (0..4u64).map(|v| Fp::new(v * v + 1)).collect();
        let y = b.lookup(x, &[0, 1, 2, 3], &values);
        b.output(0, y);
        let c = b.build();
        for v in 0..4u64 {
            assert_eq!(eval1(&c, &[vec![Fp::new(v)]]), Fp::new(v * v + 1));
        }
    }

    #[test]
    #[should_panic(expected = "eq_const: domain repeats the point 3")]
    fn eq_const_rejects_a_repeated_point() {
        // Before the check a repeated d ≠ c squared its factor silently.
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let _ = b.eq_const(x, 2, &[0, 3, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "eq_const: domain repeats the point 1")]
    fn eq_const_compares_points_as_field_elements() {
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let _ = b.eq_const(x, 0, &[0, 1, mediator_field::gf::MODULUS + 1]);
    }

    #[test]
    #[should_panic(expected = "lookup: domain repeats the point 1")]
    fn lookup_rejects_a_repeated_point() {
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let _ = b.lookup(x, &[0, 1, 1], &[Fp::ONE, Fp::ZERO, Fp::ZERO]);
    }

    #[test]
    fn lookup_over_empty_and_singleton_domains() {
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let empty = b.lookup(x, &[], &[]);
        let single = b.lookup(x, &[7], &[Fp::new(42)]);
        b.output(0, empty);
        b.output(0, single);
        let c = b.build();
        assert_eq!(c.mul_count(), 0);
        // Constants: 0 and 42 wherever x lands, in the domain or not.
        let mut rng = StdRng::seed_from_u64(0);
        for v in [0, 7, 99] {
            let out = c.eval(&[vec![Fp::new(v)]], &mut rng);
            assert_eq!(out.outputs[0], vec![Fp::ZERO, Fp::new(42)], "x={v}");
        }
    }

    #[test]
    fn poly_eval_costs_degree_minus_one_at_log_depth() {
        for d in 0..=16usize {
            let mut b = CircuitBuilder::new(1, &[1]);
            let x = b.input(0, 0);
            // 1 + 2x + … + (d+1)x^d, padded with zeros that must cost nothing.
            let mut coeffs: Vec<Fp> = (0..=d as u64).map(|j| Fp::new(j + 1)).collect();
            coeffs.extend([Fp::ZERO; 3]);
            let y = b.poly_eval(x, &coeffs);
            b.output(0, y);
            let c = b.build();
            assert_eq!(c.mul_count(), d.saturating_sub(1), "degree {d}");
            let log2_ceil = d.max(1).next_power_of_two().trailing_zeros() as usize;
            assert_eq!(c.depth(), log2_ceil, "degree {d}");
            let at = Fp::new(3);
            assert_eq!(eval1(&c, &[vec![at]]), Poly::from_coeffs(coeffs).eval(at));
        }
    }

    #[test]
    fn poly_eval_skips_zero_coefficients() {
        // 5x⁴: the power chain, one coefficient gate, and no gate for the
        // four zero terms below it.
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let before = b.gates.len();
        let coeffs = [Fp::ZERO, Fp::ZERO, Fp::ZERO, Fp::ZERO, Fp::new(5)];
        let y = b.poly_eval(x, &coeffs);
        assert_eq!(b.gates.len() - before, 3 + 1, "x², x³, x⁴ and 5·x⁴");
        b.output(0, y);
        assert_eq!(eval1(&b.build(), &[vec![Fp::new(2)]]), Fp::new(80));
    }

    #[test]
    fn majority_gadget() {
        for n in [1usize, 3, 4, 5] {
            let mut b = CircuitBuilder::new(1, &[n]);
            let bits: Vec<WireId> = (0..n).map(|i| b.input(0, i)).collect();
            let m = b.majority(&bits);
            b.output(0, m);
            let c = b.build();
            for mask in 0..(1u64 << n) {
                let input: Vec<Fp> = (0..n).map(|i| Fp::new((mask >> i) & 1)).collect();
                let ones = (0..n).filter(|i| (mask >> i) & 1 == 1).count();
                let expect = if 2 * ones > n { Fp::ONE } else { Fp::ZERO };
                assert_eq!(eval1(&c, &[input]), expect, "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_rejected() {
        let mut b = CircuitBuilder::new(1, &[1]);
        let x = b.input(0, 0);
        let _ = b.add(x, 99);
    }

    #[test]
    #[should_panic(expected = "has no input")]
    fn unknown_input_rejected() {
        let mut b = CircuitBuilder::new(1, &[1]);
        let _ = b.input(0, 5);
    }

    #[test]
    fn output_all_declares_for_everyone() {
        let mut b = CircuitBuilder::new(3, &[0, 0, 0]);
        let c1 = b.constant(Fp::new(9));
        b.output_all(c1);
        let c = b.build();
        let mut rng = StdRng::seed_from_u64(0);
        let out = c.eval(&[vec![], vec![], vec![]], &mut rng);
        for p in 0..3 {
            assert_eq!(out.outputs[p], vec![Fp::new(9)]);
        }
    }
}
