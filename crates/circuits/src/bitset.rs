//! A fixed-capacity packed bitset for the simulator's per-pin flags.
//!
//! The world keeps three boolean arrays indexed by global partition-set
//! id (beeps sent, beeps received, root marks). As `Vec<bool>` those cost
//! a byte per pin — 12 MB each for a 10^6-node world with `c = 2` — and
//! waste 7/8 of every cache line. Packed, they are 64 flags per word;
//! clearing stays O(set bits) because the world tracks dense lists of the
//! set indices and clears through them.

/// A fixed-size bitset; indices beyond the constructed capacity panic.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// A bitset with capacity for `bits` flags, all clear.
    pub fn new(bits: usize) -> BitSet {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// The packed word holding bits `64 * i .. 64 * i + 64` (bit `j` of
    /// the word is flag `64 * i + j`), for callers that combine several
    /// sets word by word.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Whether any bit at all is set (word-at-a-time scan; the
    /// `received_any`-style check over the whole set).
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Clears every bit in O(words). Cheaper than clearing through a
    /// dense index list when most of the set is populated (the global
    /// relabel resets its persistent root marks this way).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets bits `0..len` in O(words); bits at `len` and above are left
    /// as they are.
    pub fn set_first(&mut self, len: usize) {
        let full = len / 64;
        self.words[..full].fill(!0);
        if !len.is_multiple_of(64) {
            self.words[full] |= (1u64 << (len % 64)) - 1;
        }
    }

    /// Iterates the indices of the set bits in ascending order,
    /// word-at-a-time (each zero word costs one test, not 64).
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let rest = w & (w - 1); // drop the lowest set bit
                (rest != 0).then_some(rest)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Grows the capacity to `bits` flags, zero-filling the new tail.
    /// Shrinking is not supported: a smaller `bits` is a no-op (the extra
    /// words keep their contents), so existing flags are never lost.
    ///
    /// Word-boundary safe by construction: bits between the old capacity
    /// and the end of its last word were never settable, so they are
    /// already zero and the new capacity exposes them as cleared.
    pub fn grow(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// [`BitSet::grow`] under its set-container alias: makes sure at
    /// least `bits` flags are addressable, keeping every existing flag.
    pub fn ensure_len(&mut self, bits: usize) {
        self.grow(bits);
    }

    /// Whether any bit in `lo..hi` is set (word-at-a-time scan).
    pub fn any_in_range(&self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return false;
        }
        let (lw, hw) = (lo / 64, (hi - 1) / 64);
        let lo_mask = !0u64 << (lo % 64);
        let hi_mask = !0u64 >> (63 - (hi - 1) % 64);
        if lw == hw {
            return self.words[lw] & lo_mask & hi_mask != 0;
        }
        if self.words[lw] & lo_mask != 0 || self.words[hw] & hi_mask != 0 {
            return true;
        }
        self.words[lw + 1..hw].iter().any(|&w| w != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = BitSet::new(130);
        assert!(!b.get(0) && !b.get(129));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129) && !b.get(1));
        b.clear(64);
        assert!(!b.get(64) && b.get(0) && b.get(129));
    }

    #[test]
    fn set_first_stops_at_the_length() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mut b = BitSet::new(130);
            b.set_first(len);
            assert_eq!(b.ones().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn range_scan_word_boundaries() {
        let mut b = BitSet::new(256);
        assert!(!b.any_in_range(0, 256));
        assert!(!b.any_in_range(5, 5));
        b.set(63);
        assert!(b.any_in_range(0, 64));
        assert!(b.any_in_range(63, 64));
        assert!(!b.any_in_range(64, 256));
        b.clear(63);
        b.set(128);
        assert!(b.any_in_range(64, 129));
        assert!(b.any_in_range(128, 192));
        assert!(!b.any_in_range(0, 128));
        assert!(!b.any_in_range(129, 256));
        // Spanning several whole words.
        assert!(b.any_in_range(1, 255));
    }

    /// The whole-set word scan: empty, sparse, and bits in the last
    /// partial word (capacity not a multiple of 64).
    #[test]
    fn any_scans_words_including_the_last_partial_one() {
        let mut b = BitSet::new(130); // 3 words, last one 2 bits wide
        assert!(!b.any(), "fresh set is empty");
        b.set(129); // the very last representable bit
        assert!(b.any());
        b.clear(129);
        assert!(!b.any(), "cleared back to empty");
        b.set(64); // exactly on a word boundary
        assert!(b.any());
    }

    /// `clear_all` wipes every word, including a full last word and a
    /// partial one.
    #[test]
    fn clear_all_resets_every_word() {
        for bits in [64usize, 65, 130, 192] {
            let mut b = BitSet::new(bits);
            for i in [0, bits / 2, bits - 1] {
                b.set(i);
            }
            assert!(b.any());
            b.clear_all();
            assert!(!b.any(), "capacity {bits}: clear_all left bits behind");
            assert!(!b.any_in_range(0, bits));
        }
    }

    /// `ones` drains the set indices in ascending order across word
    /// boundaries, adjacent bits, and the last partial word.
    #[test]
    fn ones_iterates_across_word_boundaries() {
        let mut b = BitSet::new(200);
        assert_eq!(b.ones().count(), 0, "empty set yields nothing");
        // Boundary-straddling pattern: ends of words, starts of words,
        // adjacent pairs, and the last bit of the final partial word.
        let expected = [0usize, 1, 63, 64, 65, 127, 128, 191, 199];
        for &i in &expected {
            b.set(i);
        }
        let got: Vec<usize> = b.ones().collect();
        assert_eq!(got, expected);
        // Clearing through the drained list empties the set (the dirty-set
        // usage pattern: dense list drives the clears).
        for i in got {
            b.clear(i);
        }
        assert!(!b.any());
        assert_eq!(b.ones().count(), 0);
    }

    /// `grow` exposes new zero bits and keeps old ones, across word
    /// boundaries and mid-word growth (the dynamic-world growth path).
    #[test]
    fn grow_zero_fills_and_preserves() {
        let mut b = BitSet::new(70); // 2 words, last one partial
        b.set(0);
        b.set(69);
        // Mid-word growth: 70 -> 100 stays within the second word.
        b.grow(100);
        assert!(b.get(0) && b.get(69));
        for i in 70..100 {
            assert!(!b.get(i), "bit {i} must start clear");
        }
        b.set(99);
        // Word-boundary growth: 100 -> 128 -> 129 allocates a third word.
        b.grow(129);
        assert!(b.get(99));
        assert!(!b.get(128));
        b.set(128);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![0, 69, 99, 128]);
        // Shrinking is a no-op: nothing is lost.
        b.grow(1);
        assert!(b.get(128));
        // ensure_len is the same operation under its container alias.
        let mut c = BitSet::new(10);
        c.set(9);
        c.ensure_len(200);
        c.set(199);
        assert!(c.get(9) && c.get(199) && !c.get(100));
    }

    /// Growth of an empty/default bitset behaves like a fresh `new`.
    #[test]
    fn grow_from_empty() {
        let mut b = BitSet::default();
        assert!(!b.any());
        b.grow(65);
        assert!(!b.any());
        b.set(64);
        assert!(b.get(64) && !b.get(0));
        assert!(b.any_in_range(0, 65));
    }

    /// A word whose every bit is set drains all 64 indices (the
    /// lowest-bit-dropping successor must terminate).
    #[test]
    fn ones_handles_a_saturated_word() {
        let mut b = BitSet::new(96);
        for i in 0..64 {
            b.set(i);
        }
        let got: Vec<usize> = b.ones().collect();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }
}
