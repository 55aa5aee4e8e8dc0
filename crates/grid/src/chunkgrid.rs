//! Chunked cell stores for million-cell coordinate sets.
//!
//! The random generators used to track occupancy in a `HashSet<Coord>`:
//! 16 bytes per cell plus hashing on every membership test. At the sweep
//! scales this repo now targets (10^6-node structures) that is both a
//! memory blowup and a cache disaster. A [`ChunkGrid`] instead stores one
//! bit per cell in 16×16-cell chunks (32 bytes of payload each), keyed by
//! chunk coordinate — the same chunked-world idea game simulators use for
//! sparse infinite grids. Membership is two shifts and a mask once the
//! chunk is found, and the found chunk is cached so the hot pattern of the
//! generators (probe a cell and its six neighbors) usually pays for one
//! hash lookup, not seven.
//!
//! Iteration streams cells out chunk by chunk in a canonical order
//! (chunks sorted by `(r, q)`, row-major within a chunk), so consumers
//! get deterministic, mostly-sorted output without materializing any
//! intermediate set.
//!
//! A `CellMap` is the same chunking with one `u32` slot per cell instead
//! of one bit: the structure editor's map from cells to node ids, where a
//! lookup, an insertion and a removal each cost one hash lookup of the
//! cell's chunk, and a box is read one chunk at a time.

// spf-lint: allow-file(nondet-collections) — the chunk maps are keyed
// lookups only, except `ChunkGrid::iter()`/`into_sorted_vec()`, which
// sort the chunk keys first, so hash order never escapes.
use std::collections::HashMap;

use crate::coord::Coord;
use crate::structure::NONE;

/// Cells per chunk side; a chunk covers `CHUNK × CHUNK` cells.
const CHUNK: i32 = 16;
/// Cells per chunk.
const CELLS: usize = (CHUNK * CHUNK) as usize;
/// A chunk's bits as `u64` words, four rows per word.
const WORDS: usize = CELLS / 64;

/// A sparse, unbounded occupancy bitmap over the triangular grid's axial
/// coordinates, chunked 16×16.
#[derive(Debug, Clone, Default)]
pub struct ChunkGrid {
    chunks: HashMap<(i32, i32), [u64; WORDS]>,
    /// Key of the most recently touched chunk (one-entry lookup cache).
    cached_key: Option<(i32, i32)>,
    cached: [u64; WORDS],
    len: usize,
}

#[inline]
fn split(c: Coord) -> ((i32, i32), usize) {
    let cq = c.q.div_euclid(CHUNK);
    let cr = c.r.div_euclid(CHUNK);
    let lq = c.q.rem_euclid(CHUNK) as usize;
    let lr = c.r.rem_euclid(CHUNK) as usize;
    ((cq, cr), lr * CHUNK as usize + lq)
}

impl ChunkGrid {
    /// An empty grid.
    pub fn new() -> ChunkGrid {
        ChunkGrid::default()
    }

    /// Number of occupied cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no cell is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes the cached chunk back to the map (if any), emptying the
    /// cache slot.
    fn flush(&mut self) {
        if let Some(prev) = self.cached_key.take() {
            self.chunks.insert(prev, self.cached);
        }
    }

    /// Loads `key` into the cache (writing the previous chunk back),
    /// creating the chunk when `create` is set. Returns `false` — and
    /// crucially keeps the current chunk cached — if the chunk does not
    /// exist and `create` is off: the generators' hot pattern probes a
    /// cell's six neighbors, and a probe that misses into a never-touched
    /// chunk must not evict the hot chunk the other five probes hit.
    #[inline]
    fn load(&mut self, key: (i32, i32), create: bool) -> bool {
        if self.cached_key == Some(key) {
            return true;
        }
        // Note: if the cached chunk exists in the map too, that map copy
        // is stale — but `key != cached_key`, so this lookup never reads
        // the stale entry.
        match self.chunks.get(&key) {
            Some(words) => {
                let words = *words;
                self.flush();
                self.cached = words;
                self.cached_key = Some(key);
                true
            }
            None if create => {
                self.flush();
                self.cached = [0; WORDS];
                self.cached_key = Some(key);
                true
            }
            None => false,
        }
    }

    /// Inserts `c`; returns `true` if it was vacant.
    #[inline]
    pub fn insert(&mut self, c: Coord) -> bool {
        let (key, bit) = split(c);
        self.load(key, true);
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if self.cached[word] & mask != 0 {
            return false;
        }
        self.cached[word] |= mask;
        self.len += 1;
        true
    }

    /// Removes `c`; returns `true` if it was occupied. Emptied chunks are
    /// kept in the map (a churn workload that vacates a chunk usually
    /// re-fills it; iteration yields nothing from an empty chunk).
    #[inline]
    pub fn remove(&mut self, c: Coord) -> bool {
        let (key, bit) = split(c);
        if !self.load(key, false) {
            return false;
        }
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if self.cached[word] & mask == 0 {
            return false;
        }
        self.cached[word] &= !mask;
        self.len -= 1;
        true
    }

    /// The chunk key covering `c` — the granularity of the editor's
    /// scoped hole revalidation.
    #[inline]
    pub fn chunk_key(c: Coord) -> (i32, i32) {
        split(c).0
    }

    /// The cell span of chunk `key` as `(q_range, r_range)`, inclusive.
    pub fn chunk_span(
        key: (i32, i32),
    ) -> (std::ops::RangeInclusive<i32>, std::ops::RangeInclusive<i32>) {
        let (cq, cr) = key;
        (
            cq * CHUNK..=cq * CHUNK + (CHUNK - 1),
            cr * CHUNK..=cr * CHUNK + (CHUNK - 1),
        )
    }

    /// Whether `c` is occupied.
    #[inline]
    pub fn contains(&mut self, c: Coord) -> bool {
        let (key, bit) = split(c);
        if !self.load(key, false) {
            return false;
        }
        self.cached[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Streams every occupied cell, chunk by chunk: chunks in `(r, q)`
    /// order, cells row-major within each chunk. Deterministic for a given
    /// content regardless of insertion order.
    pub fn iter(&mut self) -> impl Iterator<Item = Coord> + '_ {
        self.flush();
        let mut keys: Vec<(i32, i32)> = self.chunks.keys().copied().collect();
        keys.sort_unstable_by_key(|&(cq, cr)| (cr, cq));
        let chunks = &self.chunks;
        keys.into_iter().flat_map(move |key| {
            let words = chunks[&key];
            (0..CELLS).filter_map(move |bit| {
                if words[bit / 64] & (1 << (bit % 64)) == 0 {
                    return None;
                }
                let (lq, lr) = (bit as i32 % CHUNK, bit as i32 / CHUNK);
                Some(Coord::new(key.0 * CHUNK + lq, key.1 * CHUNK + lr))
            })
        })
    }

    /// Drains the grid into a sorted coordinate vector.
    pub fn into_sorted_vec(mut self) -> Vec<Coord> {
        let mut out: Vec<Coord> = self.iter().collect();
        out.sort_unstable();
        out
    }
}

impl Extend<Coord> for ChunkGrid {
    fn extend<T: IntoIterator<Item = Coord>>(&mut self, iter: T) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl FromIterator<Coord> for ChunkGrid {
    fn from_iter<T: IntoIterator<Item = Coord>>(iter: T) -> ChunkGrid {
        let mut g = ChunkGrid::new();
        g.extend(iter);
        g
    }
}

/// A sparse, unbounded map from cells to `u32` values, chunked 16×16 like
/// [`ChunkGrid`]: one slot per cell, [`NONE`] where a cell is vacant, and
/// one allocation per chunk. Emptied chunks are kept, as in
/// [`ChunkGrid::remove`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CellMap {
    /// Chunk key -> the chunk's slots, numbered as `split` numbers cells.
    chunks: HashMap<(i32, i32), Box<[u32; CELLS]>>,
}

impl CellMap {
    /// The value at `c`, if the cell holds one.
    #[inline]
    pub(crate) fn get(&self, c: Coord) -> Option<u32> {
        let (key, at) = split(c);
        let value = self.chunks.get(&key)?[at];
        (value != NONE).then_some(value)
    }

    /// Sets the slot of `c` to `value` ([`NONE`] vacates it).
    pub(crate) fn set(&mut self, c: Coord, value: u32) {
        let (key, at) = split(c);
        self.chunks
            .entry(key)
            .or_insert_with(|| Box::new([NONE; CELLS]))[at] = value;
    }

    /// The cells holding a value inside the box `lo..=hi`, row by row
    /// within each chunk the box meets: one hash lookup per chunk, not
    /// per cell.
    pub(crate) fn cells_in(&self, lo: Coord, hi: Coord) -> impl Iterator<Item = Coord> + '_ {
        let ((kq0, kr0), (kq1, kr1)) = (split(lo).0, split(hi).0);
        (kr0..=kr1)
            .flat_map(move |kr| (kq0..=kq1).map(move |kq| (kq, kr)))
            .filter_map(|key| Some((key, self.chunks.get(&key)?)))
            .flat_map(move |((kq, kr), slots)| {
                let (q0, r0) = (kq * CHUNK, kr * CHUNK);
                (lo.r.max(r0)..=hi.r.min(r0 + CHUNK - 1)).flat_map(move |r| {
                    (lo.q.max(q0)..=hi.q.min(q0 + CHUNK - 1))
                        .filter(move |&q| slots[((r - r0) * CHUNK + q - q0) as usize] != NONE)
                        .map(move |q| Coord::new(q, r))
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut g = ChunkGrid::new();
        assert!(g.is_empty());
        assert!(g.insert(Coord::new(0, 0)));
        assert!(!g.insert(Coord::new(0, 0)));
        assert!(g.insert(Coord::new(-17, 33)));
        assert_eq!(g.len(), 2);
        assert!(g.contains(Coord::new(0, 0)));
        assert!(g.contains(Coord::new(-17, 33)));
        assert!(!g.contains(Coord::new(1, 0)));
        assert!(!g.contains(Coord::new(1000, -1000)));
    }

    #[test]
    fn negative_coordinates_round_trip() {
        let mut g = ChunkGrid::new();
        let cells = [
            Coord::new(-1, -1),
            Coord::new(-16, -16),
            Coord::new(-17, -17),
            Coord::new(15, -1),
            Coord::new(-1, 15),
        ];
        for &c in &cells {
            assert!(g.insert(c), "{c}");
        }
        for &c in &cells {
            assert!(g.contains(c), "{c}");
        }
        let mut got: Vec<Coord> = g.iter().collect();
        got.sort_unstable();
        let mut want = cells.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn iteration_matches_content_not_insertion_order() {
        let cells: Vec<Coord> = (0..40)
            .map(|i| Coord::new(i * 7 % 50, i * 13 % 50))
            .collect();
        let mut fwd: ChunkGrid = cells.iter().copied().collect();
        let mut rev: ChunkGrid = cells.iter().rev().copied().collect();
        let a: Vec<Coord> = fwd.iter().collect();
        let b: Vec<Coord> = rev.iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), fwd.len());
    }

    #[test]
    fn into_sorted_vec_is_sorted_and_complete() {
        let mut cells: Vec<Coord> = (0..200)
            .map(|i| Coord::new(i % 23 - 11, i / 23 - 4))
            .collect();
        let g: ChunkGrid = cells.iter().copied().collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(g.into_sorted_vec(), cells);
    }

    /// Scattered writes far apart force the one-entry chunk cache through
    /// all of its paths: cache hit (same chunk), cache swap with
    /// write-back (existing far chunk), cache fill (fresh far chunk), and
    /// the miss-without-eviction path (`contains` on a never-touched
    /// chunk must not evict the hot chunk).
    #[test]
    fn scattered_writes_exercise_the_chunk_cache() {
        let mut g = ChunkGrid::new();
        // Spray cells across chunks thousands of cells apart, twice over
        // (the second pass swaps every chunk back in from the map).
        let anchors = [
            Coord::new(0, 0),
            Coord::new(5_000, 0),
            Coord::new(-5_000, 3),
            Coord::new(7, 9_000),
            Coord::new(-4, -9_000),
            Coord::new(6_000, -6_000),
        ];
        for pass in 0..2 {
            for (i, &a) in anchors.iter().enumerate() {
                let c = Coord::new(a.q + pass, a.r + i as i32);
                assert!(g.insert(c), "{c} inserted once per pass");
                // Same-chunk probe: must hit the cache, not the map.
                assert!(g.contains(c));
                // A probe into a never-touched chunk must not evict the
                // hot chunk: the follow-up same-chunk probe still hits.
                assert!(!g.contains(Coord::new(a.q + 2_000_000, a.r)));
                assert!(g.contains(c));
            }
        }
        assert_eq!(g.len(), 2 * anchors.len());
        // Every cell from every pass survives the cache swapping.
        for pass in 0..2 {
            for (i, &a) in anchors.iter().enumerate() {
                assert!(g.contains(Coord::new(a.q + pass, a.r + i as i32)));
            }
        }
    }

    /// Remove round-trips across far-apart chunks: insert → remove
    /// restores vacancy and the length, including cells whose chunk has
    /// been written back to the map in between.
    #[test]
    fn remove_round_trips_across_chunks() {
        let mut g = ChunkGrid::new();
        let cells = [
            Coord::new(0, 0),
            Coord::new(15, 15), // same chunk as the origin
            Coord::new(16, 0),  // adjacent chunk
            Coord::new(-1, -1), // negative chunk
            Coord::new(3_000, -3_000),
        ];
        for &c in &cells {
            assert!(g.insert(c));
        }
        // Removing something never inserted (near and far) is a no-op.
        assert!(!g.remove(Coord::new(1, 0)));
        assert!(!g.remove(Coord::new(1_000_000, 0)));
        assert_eq!(g.len(), cells.len());
        for &c in &cells {
            assert!(g.remove(c), "{c}");
            assert!(!g.contains(c), "{c} still present after remove");
            assert!(!g.remove(c), "{c} removed twice");
        }
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
        // Re-inserting into the emptied (but retained) chunks works.
        for &c in &cells {
            assert!(g.insert(c));
        }
        assert_eq!(g.len(), cells.len());
    }

    #[test]
    fn chunk_key_and_span_agree() {
        for c in [
            Coord::new(0, 0),
            Coord::new(15, 15),
            Coord::new(16, -17),
            Coord::new(-1, -16),
            Coord::new(-33, 47),
        ] {
            let key = ChunkGrid::chunk_key(c);
            let (qs, rs) = ChunkGrid::chunk_span(key);
            assert!(
                qs.contains(&c.q) && rs.contains(&c.r),
                "{c} outside its chunk span"
            );
        }
    }

    #[test]
    fn large_dense_patch() {
        let mut g = ChunkGrid::new();
        for q in -100..100 {
            for r in -100..100 {
                assert!(g.insert(Coord::new(q, r)));
            }
        }
        assert_eq!(g.len(), 200 * 200);
        assert!(g.contains(Coord::new(-100, 99)));
        assert!(!g.contains(Coord::new(-101, 0)));
    }
}
