//! Workload shape generators.
//!
//! All generators return coordinate sets that form connected, hole-free
//! structures (verified by tests), matching the paper's standing assumption
//! (§1.1). The randomized generator grows blobs with a local rule that
//! preserves simple-connectivity.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

use crate::chunkgrid::ChunkGrid;
use crate::coord::{Coord, ALL_DIRECTIONS};
use crate::editor::single_arc;

/// A horizontal line of `n` amoebots: `(0,0) .. (n-1,0)`.
pub fn line(n: usize) -> Vec<Coord> {
    (0..n as i32).map(|q| Coord::new(q, 0)).collect()
}

/// An `a × b` parallelogram: `a` columns and `b` rows.
pub fn parallelogram(a: usize, b: usize) -> Vec<Coord> {
    let mut out = Vec::with_capacity(a * b);
    for r in 0..b as i32 {
        for q in 0..a as i32 {
            out.push(Coord::new(q, r));
        }
    }
    out
}

/// An upward triangle with `side` amoebots on each side.
pub fn triangle(side: usize) -> Vec<Coord> {
    let mut out = Vec::new();
    for r in 0..side as i32 {
        for q in 0..(side as i32 - r) {
            out.push(Coord::new(q, r));
        }
    }
    out
}

/// A hexagon of the given radius (`radius = 0` is a single amoebot,
/// `radius = 1` is 7 amoebots, generally `3r(r+1) + 1`).
pub fn hexagon(radius: usize) -> Vec<Coord> {
    let radius = radius as i32;
    let mut out = Vec::new();
    for q in -radius..=radius {
        for r in (-radius).max(-q - radius)..=radius.min(-q + radius) {
            out.push(Coord::new(q, r));
        }
    }
    out
}

/// A comb: a horizontal spine of length `width` with vertical teeth of length
/// `tooth_len` attached at every other spine cell. Combs maximize the gap
/// between structure distance and grid distance, stressing the portal
/// machinery and the propagation algorithm's second phase.
pub fn comb(width: usize, tooth_len: usize) -> Vec<Coord> {
    let mut out = Vec::new();
    for q in 0..width as i32 {
        out.push(Coord::new(q, 0));
        if q % 2 == 0 {
            for r in 1..=tooth_len as i32 {
                out.push(Coord::new(q, r));
            }
        }
    }
    out
}

/// A staircase of `steps` steps, each `step_len` long: alternating east and
/// south-east runs. Produces many distinct portals per axis.
pub fn staircase(steps: usize, step_len: usize) -> Vec<Coord> {
    let mut out = Vec::new();
    let mut cur = Coord::origin();
    out.push(cur);
    for s in 0..steps {
        let dir = if s % 2 == 0 {
            crate::coord::Direction::E
        } else {
            crate::coord::Direction::Se
        };
        for _ in 0..step_len {
            cur = cur.neighbor(dir);
            out.push(cur);
        }
    }
    out
}

/// An "L" shape: a `long × thick` horizontal arm and a `thick × long`
/// vertical arm sharing a corner.
pub fn l_shape(long: usize, thick: usize) -> Vec<Coord> {
    // BTreeSet, not HashSet: generators feed `AmoebotStructure::new`, which
    // assigns node ids in input order — the output order must be stable.
    let mut set = BTreeSet::new();
    for r in 0..thick as i32 {
        for q in 0..long as i32 {
            set.insert(Coord::new(q, r));
        }
    }
    for r in 0..long as i32 {
        for q in 0..thick as i32 {
            set.insert(Coord::new(q, r));
        }
    }
    set.into_iter().collect()
}

/// A random hole-free blob of exactly `n` amoebots grown from the origin.
///
/// Growth rule: a boundary cell may be added iff its occupied neighbors form
/// a single contiguous arc in the cyclic order of its six neighbors. Adding
/// such a cell can neither disconnect the complement nor enclose a pocket, so
/// the invariant "connected and hole-free" is preserved at every step; tests
/// verify this via [`crate::AmoebotStructure::is_hole_free`].
pub fn random_blob<R: Rng>(n: usize, rng: &mut R) -> Vec<Coord> {
    assert!(n >= 1, "blob must have at least one amoebot");
    // Chunked occupancy bitmap instead of a HashSet<Coord>: one bit per
    // cell, and the arc test probes a cell's six neighbors against the
    // cached chunk. This is what makes 10^6-cell blobs build in seconds.
    let mut occupied = ChunkGrid::new();
    occupied.insert(Coord::origin());
    let mut frontier: Vec<Coord> = Coord::origin().neighbors().to_vec();

    fn arc_ok(occupied: &mut ChunkGrid, c: Coord) -> bool {
        let mut mask = 0u8;
        for d in ALL_DIRECTIONS {
            if occupied.contains(c.neighbor(d)) {
                mask |= 1 << d.index();
            }
        }
        single_arc(mask)
    }

    while occupied.len() < n {
        // Pop a uniformly random frontier entry (O(1) amortized; entries
        // may be stale — occupied or currently not arc-addable — and are
        // simply dropped). The old implementation re-shuffled the whole
        // frontier per added cell, which is O(n * boundary).
        let pick = if frontier.is_empty() {
            None
        } else {
            let at = rng.gen_range(0..frontier.len());
            Some(frontier.swap_remove(at))
        };
        let pick = match pick {
            Some(c) if !occupied.contains(c) && arc_ok(&mut occupied, c) => c,
            Some(_) => continue, // stale entry; a live one is still queued
            None => {
                // A blob always has at least one addable boundary cell, but
                // it may have been popped while not yet addable. Refill the
                // frontier from a full boundary scan (rare; O(n)).
                let cells: Vec<Coord> = occupied.iter().collect();
                for c in cells {
                    for nb in c.neighbors() {
                        if !occupied.contains(nb) && arc_ok(&mut occupied, nb) {
                            frontier.push(nb);
                        }
                    }
                }
                frontier.sort_unstable();
                frontier.dedup();
                assert!(!frontier.is_empty(), "a blob boundary is never stuck");
                continue;
            }
        };
        occupied.insert(pick);
        for nb in pick.neighbors() {
            if !occupied.contains(nb) {
                frontier.push(nb);
            }
        }
    }
    occupied.into_sorted_vec()
}

/// A random subset of `k` distinct node indices out of `n`, for source /
/// destination selection in workloads.
pub fn random_subset<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k <= n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// A zigzag corridor: alternating east and north-east runs, `segments`
/// segments of length `len`. Thin, long diameter, many portals on every
/// axis — the adversarial case for O(diam) baselines.
pub fn zigzag(segments: usize, len: usize) -> Vec<Coord> {
    let mut out = vec![Coord::origin()];
    let mut cur = Coord::origin();
    for s in 0..segments {
        let dir = if s % 2 == 0 {
            crate::coord::Direction::E
        } else {
            crate::coord::Direction::Ne
        };
        for _ in 0..len {
            cur = cur.neighbor(dir);
            out.push(cur);
        }
    }
    out
}

/// A rectangular spiral of the given number of turns and arm thickness 1,
/// with spacing 2 between arms (hole-free by construction: the spiral is a
/// simple path thickened on the triangular grid).
pub fn spiral(turns: usize) -> Vec<Coord> {
    let mut out = BTreeSet::new();
    let mut cur = Coord::origin();
    out.insert(cur);
    let mut len = 2usize;
    let dirs = [
        crate::coord::Direction::E,
        crate::coord::Direction::Se,
        crate::coord::Direction::W,
        crate::coord::Direction::Nw,
    ];
    let mut di = 0;
    for _ in 0..2 * turns {
        for _ in 0..len {
            cur = cur.neighbor(dirs[di]);
            out.insert(cur);
        }
        di = (di + 1) % 4;
        len += 2;
    }
    out.into_iter().collect()
}

/// A "diamond with bites": a hexagon with every other boundary cell of the
/// northern edge removed — concave boundary, still hole-free. Stresses the
/// implicit-portal local rules and the propagation visibility analysis.
pub fn bitten_hexagon(radius: usize) -> Vec<Coord> {
    let mut cells: BTreeSet<Coord> = hexagon(radius).into_iter().collect();
    let r = radius as i32;
    let mut q = -r + 1;
    while q <= -1 {
        cells.remove(&Coord::new(q, -r));
        q += 2;
    }
    cells.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AmoebotStructure;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_sizes() {
        assert_eq!(line(5).len(), 5);
        assert_eq!(parallelogram(4, 3).len(), 12);
        assert_eq!(triangle(4).len(), 10);
        assert_eq!(hexagon(0).len(), 1);
        assert_eq!(hexagon(1).len(), 7);
        assert_eq!(hexagon(2).len(), 19);
        assert_eq!(staircase(3, 2).len(), 7);
    }

    #[test]
    fn all_shapes_connected_and_hole_free() {
        let shapes: Vec<Vec<Coord>> = vec![
            line(12),
            parallelogram(6, 4),
            triangle(6),
            hexagon(3),
            comb(9, 4),
            staircase(5, 3),
            l_shape(8, 2),
        ];
        for coords in shapes {
            let s = AmoebotStructure::new(coords).unwrap();
            assert!(s.is_hole_free());
        }
    }

    #[test]
    fn random_blobs_connected_and_hole_free() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1, 2, 5, 17, 60, 200] {
            let coords = random_blob(n, &mut rng);
            assert_eq!(coords.len(), n);
            let s = AmoebotStructure::new(coords).unwrap();
            assert!(s.is_hole_free(), "blob of size {n} has a hole");
        }
    }

    #[test]
    fn random_subset_properties() {
        let mut rng = StdRng::seed_from_u64(7);
        let sub = random_subset(100, 10, &mut rng);
        assert_eq!(sub.len(), 10);
        assert!(sub.windows(2).all(|w| w[0] < w[1]));
        assert!(sub.iter().all(|&i| i < 100));
    }
}
