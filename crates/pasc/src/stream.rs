//! Streaming (LSB-first) bit arithmetic with O(1) state.
//!
//! The paper's primitives consume PASC outputs *bit by bit* because amoebots
//! have constant memory (Remark 16). These consumers implement exactly the
//! operations the primitives need: accumulation (for the harness), streaming
//! comparison, streaming subtraction with sign, and the one-bit-delayed
//! comparison against `⌊Q/2⌋` used by the centroid primitive (§3.4).

use std::cmp::Ordering;

/// Accumulates LSB-first bits into a `u64` (harness-side convenience; the
/// distributed algorithms themselves only use the streaming consumers below).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitAccumulator {
    value: u64,
    shift: u32,
}

impl BitAccumulator {
    /// A fresh accumulator with value 0.
    pub fn new() -> BitAccumulator {
        BitAccumulator::default()
    }

    /// Feeds the next bit (LSB first).
    pub fn feed(&mut self, bit: u8) {
        debug_assert!(bit <= 1);
        self.value |= (bit as u64) << self.shift;
        self.shift += 1;
    }

    /// The value accumulated so far.
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// Streaming comparison of two numbers fed LSB first: after all bits have
/// been fed (pad the shorter stream with zeros), [`StreamingCompare::result`]
/// is `a.cmp(&b)`. Needs O(1) state: the most recent differing bit wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingCompare {
    state: Option<Ordering>,
}

impl StreamingCompare {
    /// A fresh comparator (currently `Equal`).
    pub fn new() -> StreamingCompare {
        StreamingCompare::default()
    }

    /// Feeds the next bit pair `(a_i, b_i)`.
    pub fn feed(&mut self, a: u8, b: u8) {
        debug_assert!(a <= 1 && b <= 1);
        match a.cmp(&b) {
            Ordering::Equal => {}
            other => self.state = Some(other),
        }
    }

    /// The comparison result for the bits fed so far.
    pub fn result(&self) -> Ordering {
        self.state.unwrap_or(Ordering::Equal)
    }
}

/// Streaming subtraction `a - b` of two numbers fed LSB first, with borrow.
///
/// After the final bits (pad with zeros; feed at least until both numbers
/// are exhausted), the flags expose the information the primitives need:
/// `is_negative()` (final borrow pending), `is_zero()`, and via
/// [`StreamingSub::feed`]'s return value the bits of `a - b mod 2^k` for
/// chained consumers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingSub {
    borrow: bool,
    any_nonzero: bool,
}

impl StreamingSub {
    /// A fresh subtractor.
    pub fn new() -> StreamingSub {
        StreamingSub::default()
    }

    /// Feeds the next bit pair `(a_i, b_i)` and returns the difference bit.
    pub fn feed(&mut self, a: u8, b: u8) -> u8 {
        debug_assert!(a <= 1 && b <= 1);
        let lhs = a as i8 - b as i8 - self.borrow as i8;
        let (bit, borrow) = if lhs < 0 {
            (lhs + 2, true)
        } else {
            (lhs, false)
        };
        self.borrow = borrow;
        if bit != 0 {
            self.any_nonzero = true;
        }
        bit as u8
    }

    /// Whether `a < b` over the bits fed so far (pending borrow).
    pub fn is_negative(&self) -> bool {
        self.borrow
    }

    /// Whether `a - b == 0` over the bits fed so far.
    pub fn is_zero(&self) -> bool {
        !self.borrow && !self.any_nonzero
    }

    /// Whether `a - b > 0` over the bits fed so far.
    pub fn is_positive(&self) -> bool {
        !self.borrow && self.any_nonzero
    }
}

/// Compares a stream `x` against `⌊Q/2⌋` where `Q` arrives synchronously
/// with `x` but unshifted: bit `i` of `⌊Q/2⌋` is bit `i+1` of `Q`, so the
/// comparison runs one iteration behind (the centroid primitive's
/// `size_u(v) ≤ |Q|/2` test, §3.4). Call [`HalfCompare::le_half`] or
/// [`HalfCompare::lt_half`] after the final iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct HalfCompare {
    cmp: StreamingCompare,
    x_prev: Option<u8>,
    /// Remainder bit of Q (bit 0), needed to turn `x ≤ ⌊Q/2⌋` into the
    /// paper's `x ≤ Q/2` (exact halves only when Q is even).
    q_bit0: Option<u8>,
}

impl HalfCompare {
    /// A fresh comparator.
    pub fn new() -> HalfCompare {
        HalfCompare::default()
    }

    /// Feeds this iteration's bits `(x_i, q_i)`.
    pub fn feed(&mut self, x: u8, q: u8) {
        if self.q_bit0.is_none() {
            self.q_bit0 = Some(q);
        } else if let Some(xp) = self.x_prev {
            self.cmp.feed(xp, q);
        }
        if self.x_prev.is_none() {
            // x_0 must still be compared against q_1 next round; also keep it
            // for the first comparison pairing.
        }
        self.x_prev = Some(x);
        // Note: pairing is (x_{i-1}, q_i); the first q (q_0) is dropped as
        // the floor shift, handled by the q_bit0 branch above.
    }

    /// Completes the comparison (pads `Q` with a zero MSB) and returns
    /// whether `x ≤ Q/2` *exactly* in the rational sense: `x < ⌊Q/2⌋`, or
    /// `x == ⌊Q/2⌋` (which implies `x ≤ Q/2` whether or not Q is even).
    pub fn le_half(mut self) -> bool {
        if let Some(xp) = self.x_prev {
            self.cmp.feed(xp, 0);
        }
        self.cmp.result() != Ordering::Greater
    }

    /// Like [`HalfCompare::le_half`] but strict: `x < Q/2`, i.e.
    /// `x < ⌊Q/2⌋`, or `x == ⌊Q/2⌋` and Q odd.
    pub fn lt_half(mut self) -> bool {
        if let Some(xp) = self.x_prev {
            self.cmp.feed(xp, 0);
        }
        match self.cmp.result() {
            Ordering::Less => true,
            Ordering::Equal => self.q_bit0 == Some(1),
            Ordering::Greater => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(mut x: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push((x & 1) as u8);
            x >>= 1;
        }
        out
    }

    #[test]
    fn accumulator_round_trips() {
        for x in [0u64, 1, 2, 7, 100, 12345] {
            let mut acc = BitAccumulator::new();
            for b in bits_of(x, 20) {
                acc.feed(b);
            }
            assert_eq!(acc.value(), x);
        }
    }

    #[test]
    fn compare_matches_cmp() {
        for a in 0u64..32 {
            for b in 0u64..32 {
                let mut c = StreamingCompare::new();
                for (x, y) in bits_of(a, 8).into_iter().zip(bits_of(b, 8)) {
                    c.feed(x, y);
                }
                assert_eq!(c.result(), a.cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn subtraction_flags() {
        for a in 0u64..32 {
            for b in 0u64..32 {
                let mut s = StreamingSub::new();
                let mut diff_bits = Vec::new();
                for (x, y) in bits_of(a, 8).into_iter().zip(bits_of(b, 8)) {
                    diff_bits.push(s.feed(x, y));
                }
                assert_eq!(s.is_negative(), a < b, "{a} - {b}");
                assert_eq!(s.is_zero(), a == b);
                assert_eq!(s.is_positive(), a > b);
                if a >= b {
                    let mut acc = BitAccumulator::new();
                    for bit in diff_bits {
                        acc.feed(bit);
                    }
                    assert_eq!(acc.value(), a - b);
                }
            }
        }
    }

    #[test]
    fn chained_subtraction() {
        // (q - (a - b)) computed by chaining two subtractors, as used by the
        // centroid primitive for size_u(parent).
        for q in 0u64..16 {
            for a in 0u64..16 {
                for b in 0..=a.min(15) {
                    let mut inner = StreamingSub::new();
                    let mut outer = StreamingSub::new();
                    let mut acc = BitAccumulator::new();
                    for i in 0..8 {
                        let d = inner.feed(bits_of(a, 8)[i], bits_of(b, 8)[i]);
                        acc.feed(outer.feed(bits_of(q, 8)[i], d));
                    }
                    if q >= a - b {
                        assert_eq!(acc.value(), q - (a - b));
                        assert!(!outer.is_negative());
                    } else {
                        assert!(outer.is_negative());
                    }
                }
            }
        }
    }

    #[test]
    fn half_compare_matches_rational_comparison() {
        for q in 0u64..24 {
            for x in 0u64..24 {
                let xb = bits_of(x, 10);
                let qb = bits_of(q, 10);
                let mut hc = HalfCompare::new();
                for i in 0..10 {
                    hc.feed(xb[i], qb[i]);
                }
                let le = hc.le_half();
                // x ≤ q/2 over the rationals <=> 2x ≤ q <=> x ≤ ⌊q/2⌋.
                assert_eq!(le, 2 * x <= q, "x={x} q={q}");
                assert_eq!(le, x <= q / 2, "floor semantics x={x} q={q}");

                let mut hc = HalfCompare::new();
                for i in 0..10 {
                    hc.feed(xb[i], qb[i]);
                }
                assert_eq!(hc.lt_half(), 2 * x < q, "strict x={x} q={q}");
            }
        }
    }
}
