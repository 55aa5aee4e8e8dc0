//! Seeded random workload generators for the scenario engine.
//!
//! Everything here is deterministic given the caller's RNG: the scenario
//! engine derives one RNG per scenario from a master seed, so batches are
//! reproducible end to end. Three structure families are provided —
//! organically grown blobs ([`shapes::random_blob`]), compositions of the
//! primitive shapes ([`random_shape_mix`]) and thin self-avoiding-ish
//! corridors ([`random_snake`]) — plus multi-source placement strategies
//! ([`random_placement`]). All structure generators guarantee the paper's
//! standing assumptions (§1.1): the returned coordinate set is connected
//! and hole-free (enforced, where the construction alone does not
//! guarantee it, by [`fill_holes`]).

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

use crate::chunkgrid::ChunkGrid;
use crate::coord::{Coord, Direction, ALL_DIRECTIONS};
use crate::shapes;
use crate::structure::{enclosed_cells, AmoebotStructure, NodeId};

/// Fills every hole of a coordinate set: unoccupied cells that are *not*
/// reachable from outside the bounding box become occupied. Connectivity is
/// preserved (filling cells can only add adjacencies), so a connected input
/// yields a connected, hole-free output.
pub fn fill_holes(coords: Vec<Coord>) -> Vec<Coord> {
    if coords.is_empty() {
        return coords;
    }
    fill_holes_grid(coords.into_iter().collect()).into_sorted_vec()
}

/// [`fill_holes`] over a chunked occupancy bitmap — the streaming form the
/// large generators use directly so no intermediate `HashSet` or
/// coordinate vector is materialized. The vacant cells the grid's one
/// complement flood finds enclosed in the bounding box are filled.
pub fn fill_holes_grid(mut occupied: ChunkGrid) -> ChunkGrid {
    if occupied.is_empty() {
        return occupied;
    }
    let cells: Vec<Coord> = occupied.iter().collect();
    let (mut lo, mut hi) = (cells[0], cells[0]);
    for c in &cells {
        lo = Coord::new(lo.q.min(c.q), lo.r.min(c.r));
        hi = Coord::new(hi.q.max(c.q), hi.r.max(c.r));
    }
    for c in enclosed_cells(lo, hi, cells) {
        occupied.insert(c);
    }
    occupied
}

/// A random composition of `pieces` primitive shapes (parallelograms,
/// hexagons, triangles and short corridors) of characteristic size `scale`,
/// each attached at a random cell of the union built so far. Overlapping
/// attachment keeps the union connected; [`fill_holes`] then restores
/// hole-freeness where two pieces enclose a pocket.
///
/// # Panics
///
/// Panics if `pieces == 0` or `scale < 2`.
pub fn random_shape_mix<R: Rng>(pieces: usize, scale: usize, rng: &mut R) -> Vec<Coord> {
    assert!(pieces >= 1, "need at least one piece");
    assert!(scale >= 2, "scale must be at least 2");
    let mut occupied = ChunkGrid::new();
    let mut cells: Vec<Coord> = Vec::new(); // insertion order, for anchor picks
    for _ in 0..pieces {
        let piece = random_piece(scale, rng);
        let anchor = if cells.is_empty() {
            Coord::origin()
        } else {
            *cells.choose(rng).expect("union is non-empty")
        };
        // Land a random cell of the piece on the anchor.
        let handle = *piece.choose(rng).expect("pieces are non-empty");
        let (dq, dr) = (anchor.q - handle.q, anchor.r - handle.r);
        for c in piece {
            let t = Coord::new(c.q + dq, c.r + dr);
            if occupied.insert(t) {
                cells.push(t);
            }
        }
    }
    drop(cells);
    fill_holes_grid(occupied).into_sorted_vec()
}

fn random_piece<R: Rng>(scale: usize, rng: &mut R) -> Vec<Coord> {
    match rng.gen_range(0..4u32) {
        0 => shapes::parallelogram(rng.gen_range(2..=scale), rng.gen_range(1..=scale)),
        1 => shapes::hexagon(rng.gen_range(1..=(scale / 2).max(1))),
        2 => shapes::triangle(rng.gen_range(2..=scale)),
        _ => shapes::line(rng.gen_range(2..=2 * scale)),
    }
}

/// A random thin corridor ("snake"): `segments` straight runs of `seg_len`
/// steps each, every run turning to a uniformly random direction other than
/// straight back. Self-crossings may enclose pockets, so the result is
/// passed through [`fill_holes`].
///
/// # Panics
///
/// Panics if `segments == 0` or `seg_len == 0`.
pub fn random_snake<R: Rng>(segments: usize, seg_len: usize, rng: &mut R) -> Vec<Coord> {
    assert!(
        segments >= 1 && seg_len >= 1,
        "snake must have positive extent"
    );
    let mut seen: ChunkGrid = [Coord::origin()].into_iter().collect();
    let mut cur = Coord::origin();
    let mut prev_dir: Option<Direction> = None;
    for _ in 0..segments {
        let dir = loop {
            let d = ALL_DIRECTIONS[rng.gen_range(0..ALL_DIRECTIONS.len())];
            if prev_dir != Some(d.opposite()) {
                break d;
            }
        };
        for _ in 0..seg_len {
            cur = cur.neighbor(dir);
            seen.insert(cur);
        }
        prev_dir = Some(dir);
    }
    fill_holes_grid(seen).into_sorted_vec()
}

/// How [`random_placement`] spreads `k` marked amoebots over a structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Uniformly random distinct nodes.
    Uniform,
    /// A tight group: the `k` nodes closest to a random center (BFS ball,
    /// ties broken by node id). Stresses the divide step, which must cope
    /// with all sources sharing a few portals.
    Clustered,
    /// Boundary-biased: drawn from the nodes with unoccupied neighbors
    /// (padded with uniform picks if the boundary is smaller than `k`).
    /// Sources far from the centroid maximize merge depth.
    Boundary,
}

/// All placement strategies, for seeded strategy picks.
pub const ALL_PLACEMENTS: [Placement; 3] = [
    Placement::Uniform,
    Placement::Clustered,
    Placement::Boundary,
];

/// Picks `k` distinct nodes of `structure` according to `placement`.
/// The result is sorted (deterministic given the RNG).
///
/// # Panics
///
/// Panics if `k == 0` or `k > structure.len()`.
pub fn random_placement<R: Rng>(
    structure: &AmoebotStructure,
    k: usize,
    placement: Placement,
    rng: &mut R,
) -> Vec<NodeId> {
    let n = structure.len();
    assert!(k >= 1, "placements must be non-empty");
    assert!(k <= n, "cannot place {k} marks on {n} amoebots");
    let mut picks: Vec<NodeId> = match placement {
        Placement::Uniform => shapes::random_subset(n, k, rng)
            .into_iter()
            .map(|i| NodeId(i as u32))
            .collect(),
        Placement::Clustered => {
            let center = NodeId(rng.gen_range(0..n as u32));
            let dist = structure.bfs_distances(&[center]);
            let mut order: Vec<NodeId> = structure.nodes().collect();
            order.sort_by_key(|v| (dist[v.index()], v.0));
            order.truncate(k);
            order
        }
        Placement::Boundary => {
            let mut boundary: Vec<NodeId> = structure
                .nodes()
                .filter(|&v| structure.degree(v) < 6)
                .collect();
            boundary.shuffle(rng);
            boundary.truncate(k);
            if boundary.len() < k {
                let have: BTreeSet<NodeId> = boundary.iter().copied().collect();
                let mut rest: Vec<NodeId> =
                    structure.nodes().filter(|v| !have.contains(v)).collect();
                rest.shuffle(rng);
                boundary.extend(rest.into_iter().take(k - boundary.len()));
            }
            boundary
        }
    };
    picks.sort_unstable();
    picks.dedup();
    debug_assert_eq!(picks.len(), k, "placements must be distinct");
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fill_holes_fills_a_ring() {
        let ring: Vec<Coord> = Coord::origin().neighbors().to_vec();
        let filled = fill_holes(ring);
        assert_eq!(filled.len(), 7);
        let s = AmoebotStructure::new(filled).unwrap();
        assert!(s.is_hole_free());
    }

    #[test]
    fn fill_holes_keeps_hole_free_sets_unchanged() {
        let coords = shapes::parallelogram(5, 3);
        let mut expect = coords.clone();
        expect.sort();
        assert_eq!(fill_holes(coords), expect);
    }

    #[test]
    fn shape_mixes_are_connected_and_hole_free() {
        let mut rng = StdRng::seed_from_u64(11);
        for pieces in [1usize, 2, 4, 7] {
            for scale in [2usize, 4, 6] {
                let coords = random_shape_mix(pieces, scale, &mut rng);
                let s = AmoebotStructure::new(coords).unwrap();
                assert!(s.is_hole_free(), "mix {pieces}x{scale} has a hole");
            }
        }
    }

    #[test]
    fn snakes_are_connected_and_hole_free() {
        let mut rng = StdRng::seed_from_u64(23);
        for segments in [1usize, 3, 8, 15] {
            let coords = random_snake(segments, 4, &mut rng);
            let s = AmoebotStructure::new(coords).unwrap();
            assert!(
                s.is_hole_free(),
                "snake with {segments} segments has a hole"
            );
        }
    }

    #[test]
    fn placements_are_distinct_sorted_and_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = AmoebotStructure::new(shapes::hexagon(4)).unwrap();
        for placement in ALL_PLACEMENTS {
            for k in [1usize, 3, 10, s.len()] {
                let picks = random_placement(&s, k, placement, &mut rng);
                assert_eq!(picks.len(), k, "{placement:?}");
                assert!(picks.windows(2).all(|w| w[0] < w[1]), "{placement:?}");
                assert!(picks.iter().all(|v| v.index() < s.len()), "{placement:?}");
            }
        }
    }

    #[test]
    fn clustered_placement_is_a_bfs_ball() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = AmoebotStructure::new(shapes::parallelogram(10, 6)).unwrap();
        let picks = random_placement(&s, 7, Placement::Clustered, &mut rng);
        // The picked set must be "ball-like": its BFS eccentricity from the
        // closest pick is far below the structure diameter.
        let dist = s.bfs_distances(&picks);
        let max_inside = picks
            .iter()
            .map(|v| dist[v.index()].unwrap())
            .max()
            .unwrap();
        assert_eq!(max_inside, 0, "all picks are sources of the ball");
        let s_ref = &s;
        let spread = picks
            .iter()
            .flat_map(|&a| {
                picks
                    .iter()
                    .map(move |&b| s_ref.coord(a).grid_distance(s_ref.coord(b)))
            })
            .max()
            .unwrap();
        assert!(spread <= 6, "cluster spread {spread} too wide");
    }

    #[test]
    fn boundary_placement_prefers_the_boundary() {
        let mut rng = StdRng::seed_from_u64(13);
        let s = AmoebotStructure::new(shapes::hexagon(4)).unwrap();
        let boundary_size = s.nodes().filter(|&v| s.degree(v) < 6).count();
        let picks = random_placement(&s, boundary_size, Placement::Boundary, &mut rng);
        assert!(picks.iter().all(|&v| s.degree(v) < 6));
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for seed in [0u64, 1, 42, 9999] {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(
                random_shape_mix(3, 4, &mut a),
                random_shape_mix(3, 4, &mut b)
            );
            assert_eq!(random_snake(5, 3, &mut a), random_snake(5, 3, &mut b));
            assert_eq!(
                shapes::random_blob(30, &mut a),
                shapes::random_blob(30, &mut b)
            );
        }
    }
}
