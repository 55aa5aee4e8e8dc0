//! Axial coordinates, directions and axes on the triangular grid.
//!
//! We use axial coordinates `(q, r)`: every node of the infinite triangular
//! grid `G_Δ` is identified with an integer pair. The six neighbors of
//! `(q, r)` and the directions pointing at them are
//!
//! ```text
//!        NW (0,-1)   NE (+1,-1)
//!   W (-1,0)    *        E (+1,0)
//!        SW (-1,+1)  SE (0,+1)
//! ```
//!
//! Following Figure 2e of the paper, edges parallel to E/W belong to the
//! **x-axis**, edges parallel to NW/SE to the **y-axis**, and edges parallel
//! to NE/SW to the **z-axis**.

use std::fmt;
use std::ops::{Add, Neg, Sub};

/// One of the six cardinal directions of the triangular grid.
///
/// All amoebots share this compass (the paper assumes common compass
/// orientation and chirality; see §1.1 and Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Direction {
    /// East, offset `(+1, 0)`.
    E = 0,
    /// North-east, offset `(+1, -1)`.
    Ne = 1,
    /// North-west, offset `(0, -1)`.
    Nw = 2,
    /// West, offset `(-1, 0)`.
    W = 3,
    /// South-west, offset `(-1, +1)`.
    Sw = 4,
    /// South-east, offset `(0, +1)`.
    Se = 5,
}

/// All six directions in counterclockwise order starting at [`Direction::E`].
pub const ALL_DIRECTIONS: [Direction; 6] = [
    Direction::E,
    Direction::Ne,
    Direction::Nw,
    Direction::W,
    Direction::Sw,
    Direction::Se,
];

impl Direction {
    /// Returns the direction with the given index (`0..6`), counterclockwise
    /// from east.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 6`.
    #[inline]
    pub fn from_index(index: usize) -> Direction {
        ALL_DIRECTIONS[index]
    }

    /// The index of this direction (`0..6`), counterclockwise from east.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The coordinate offset of one step in this direction.
    #[inline]
    pub fn offset(self) -> Coord {
        match self {
            Direction::E => Coord::new(1, 0),
            Direction::Ne => Coord::new(1, -1),
            Direction::Nw => Coord::new(0, -1),
            Direction::W => Coord::new(-1, 0),
            Direction::Sw => Coord::new(-1, 1),
            Direction::Se => Coord::new(0, 1),
        }
    }

    /// The opposite direction (rotation by 180 degrees).
    #[inline]
    pub fn opposite(self) -> Direction {
        Direction::from_index((self.index() + 3) % 6)
    }

    /// Rotates counterclockwise by `steps` sixths of a full turn.
    #[inline]
    pub fn rotated_ccw(self, steps: usize) -> Direction {
        Direction::from_index((self.index() + steps) % 6)
    }

    /// The axis this direction is parallel to (Figure 2e).
    #[inline]
    pub fn axis(self) -> Axis {
        match self {
            Direction::E | Direction::W => Axis::X,
            Direction::Nw | Direction::Se => Axis::Y,
            Direction::Ne | Direction::Sw => Axis::Z,
        }
    }

    /// Returns the direction of the offset `to - from`, if the two
    /// coordinates are adjacent.
    pub fn between(from: Coord, to: Coord) -> Option<Direction> {
        let d = to - from;
        ALL_DIRECTIONS.into_iter().find(|dir| dir.offset() == d)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::E => "E",
            Direction::Ne => "NE",
            Direction::Nw => "NW",
            Direction::W => "W",
            Direction::Sw => "SW",
            Direction::Se => "SE",
        };
        f.write_str(s)
    }
}

/// One of the three portal axes of the triangular grid (Definition 7 adapted
/// to triangular grids, Figure 2e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Axis {
    /// Parallel to E/W edges.
    X = 0,
    /// Parallel to NW/SE edges.
    Y = 1,
    /// Parallel to NE/SW edges.
    Z = 2,
}

/// All three axes.
pub const ALL_AXES: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

/// [`Axis::cross_sides`] per axis index. The side order matters: it picks
/// which side of a portal uses which dissemination link (§3.5), so the
/// table keeps the order of the derivation it replaces (scan `cb` then
/// `cf` over [`ALL_DIRECTIONS`]; pinned by a unit test).
const CROSS_SIDES: [[(Direction, Direction); 2]; 3] = [
    [
        (Direction::Nw, Direction::Ne),
        (Direction::Sw, Direction::Se),
    ],
    [(Direction::Ne, Direction::E), (Direction::W, Direction::Sw)],
    [(Direction::W, Direction::Nw), (Direction::Se, Direction::E)],
];

impl Axis {
    /// The axis with the given index (`0..3`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 3`.
    #[inline]
    pub fn from_index(index: usize) -> Axis {
        ALL_AXES[index]
    }

    /// The index of this axis (`0..3`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The canonical *positive* direction along this axis.
    ///
    /// Portals of this axis are ordered along this direction; the implicit
    /// portal graph's tie-breaking ("westernmost") is defined relative to it.
    #[inline]
    pub fn positive(self) -> Direction {
        match self {
            Axis::X => Direction::E,
            Axis::Y => Direction::Se,
            Axis::Z => Direction::Ne,
        }
    }

    /// The canonical *negative* direction along this axis (the "west" analog).
    #[inline]
    pub fn negative(self) -> Direction {
        self.positive().opposite()
    }

    /// The two directions parallel to this axis, `(positive, negative)`.
    #[inline]
    pub fn directions(self) -> (Direction, Direction) {
        (self.positive(), self.negative())
    }

    /// The four directions *not* parallel to this axis, grouped into the two
    /// sides of a portal line. Each side is reported as `(cb, cf)` where
    /// `cf.offset() - cb.offset() == positive().offset()` — i.e. `cb` is the
    /// "backward" cross direction and `cf` the "forward" one.
    ///
    /// For the x-axis this yields the paper's rule sides
    /// `(NW, NE)` (north) and `(SW, SE)` (south) (§2.3, Definition 12).
    #[inline]
    pub fn cross_sides(self) -> [(Direction, Direction); 2] {
        CROSS_SIDES[self.index()]
    }

    /// A scalar position of `c` *along* this axis: two coordinates on the same
    /// portal line share all but this scalar, and the scalar increases in the
    /// [`Axis::positive`] direction.
    #[inline]
    pub fn along(self, c: Coord) -> i32 {
        match self {
            Axis::X => c.q,
            Axis::Y => c.r,
            Axis::Z => c.q, // NE = (+1,-1): q increases along positive z
        }
    }

    /// A scalar identifying the portal *line* of `c` for this axis: two
    /// coordinates lie on the same (infinite) line of this axis iff the value
    /// is equal.
    #[inline]
    pub fn line_key(self, c: Coord) -> i32 {
        match self {
            Axis::X => c.r,
            Axis::Y => c.q,
            Axis::Z => c.q + c.r,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Axis::X => "x",
            Axis::Y => "y",
            Axis::Z => "z",
        };
        f.write_str(s)
    }
}

/// An axial coordinate on the infinite triangular grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Coord {
    /// Column (increases to the east).
    pub q: i32,
    /// Row (increases to the south-east).
    pub r: i32,
}

impl Coord {
    /// Creates a coordinate from its axial components.
    #[inline]
    pub const fn new(q: i32, r: i32) -> Coord {
        Coord { q, r }
    }

    /// The origin `(0, 0)`.
    #[inline]
    pub const fn origin() -> Coord {
        Coord { q: 0, r: 0 }
    }

    /// The neighbor one step in `dir`.
    #[inline]
    pub fn neighbor(self, dir: Direction) -> Coord {
        self + dir.offset()
    }

    /// All six neighbors, indexed by direction.
    #[inline]
    pub fn neighbors(self) -> [Coord; 6] {
        let mut out = [self; 6];
        for (i, d) in ALL_DIRECTIONS.into_iter().enumerate() {
            out[i] = self.neighbor(d);
        }
        out
    }

    /// Graph distance in the *infinite* grid `G_Δ` (not in the structure).
    ///
    /// This is the standard hexagonal distance
    /// `(|dq| + |dr| + |dq + dr|) / 2`.
    #[inline]
    pub fn grid_distance(self, other: Coord) -> u32 {
        let dq = (self.q - other.q).abs();
        let dr = (self.r - other.r).abs();
        let ds = (self.q + self.r - other.q - other.r).abs();
        ((dq + dr + ds) / 2) as u32
    }

    /// Whether `other` is one of the six neighbors of `self`.
    #[inline]
    pub fn is_adjacent(self, other: Coord) -> bool {
        self != other && self.grid_distance(other) == 1
    }
}

impl Add for Coord {
    type Output = Coord;
    #[inline]
    fn add(self, rhs: Coord) -> Coord {
        Coord::new(self.q + rhs.q, self.r + rhs.r)
    }
}

impl Sub for Coord {
    type Output = Coord;
    #[inline]
    fn sub(self, rhs: Coord) -> Coord {
        Coord::new(self.q - rhs.q, self.r - rhs.r)
    }
}

impl Neg for Coord {
    type Output = Coord;
    #[inline]
    fn neg(self) -> Coord {
        Coord::new(-self.q, -self.r)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.q, self.r)
    }
}

impl From<(i32, i32)> for Coord {
    fn from((q, r): (i32, i32)) -> Coord {
        Coord::new(q, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposites_cancel() {
        for d in ALL_DIRECTIONS {
            assert_eq!(d.offset() + d.opposite().offset(), Coord::origin());
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn direction_round_trip() {
        for d in ALL_DIRECTIONS {
            assert_eq!(Direction::from_index(d.index()), d);
            assert_eq!(
                Direction::between(Coord::origin(), Coord::origin().neighbor(d)),
                Some(d)
            );
        }
        assert_eq!(Direction::between(Coord::origin(), Coord::new(2, 0)), None);
    }

    #[test]
    fn axes_partition_directions() {
        let mut count = [0usize; 3];
        for d in ALL_DIRECTIONS {
            count[d.axis().index()] += 1;
        }
        assert_eq!(count, [2, 2, 2]);
        for ax in ALL_AXES {
            let (p, n) = ax.directions();
            assert_eq!(p.axis(), ax);
            assert_eq!(n.axis(), ax);
            assert_eq!(p.opposite(), n);
        }
    }

    #[test]
    fn cross_sides_satisfy_invariant() {
        for ax in ALL_AXES {
            for (cb, cf) in ax.cross_sides() {
                assert_ne!(cb.axis(), ax);
                assert_ne!(cf.axis(), ax);
                assert_eq!(cf.offset() - cb.offset(), ax.positive().offset());
            }
        }
    }

    /// The constant table equals the scan it replaced, order included.
    #[test]
    fn cross_sides_table_matches_the_derivation() {
        for ax in ALL_AXES {
            let a = ax.positive().offset();
            let mut derived = Vec::new();
            for cb in ALL_DIRECTIONS {
                if cb.axis() == ax {
                    continue;
                }
                for cf in ALL_DIRECTIONS {
                    if cf.axis() == ax || cf == cb {
                        continue;
                    }
                    if cf.offset() - cb.offset() == a {
                        derived.push((cb, cf));
                    }
                }
            }
            assert_eq!(ax.cross_sides().to_vec(), derived, "axis {ax}");
        }
    }

    #[test]
    fn x_axis_sides_match_paper() {
        let sides = Axis::X.cross_sides();
        // One side must be (NW, NE) and the other (SW, SE), in some order.
        assert!(sides.contains(&(Direction::Nw, Direction::Ne)));
        assert!(sides.contains(&(Direction::Sw, Direction::Se)));
    }

    #[test]
    fn line_keys_follow_portal_lines() {
        for ax in ALL_AXES {
            let c = Coord::new(3, -5);
            let (p, n) = ax.directions();
            assert_eq!(ax.line_key(c), ax.line_key(c.neighbor(p)));
            assert_eq!(ax.line_key(c), ax.line_key(c.neighbor(n)));
            assert!(ax.along(c.neighbor(p)) > ax.along(c));
            assert!(ax.along(c.neighbor(n)) < ax.along(c));
            // Stepping off the line changes the key.
            for d in ALL_DIRECTIONS {
                if d.axis() != ax {
                    assert_ne!(ax.line_key(c), ax.line_key(c.neighbor(d)));
                }
            }
        }
    }

    #[test]
    fn grid_distance_examples() {
        let o = Coord::origin();
        assert_eq!(o.grid_distance(o), 0);
        for d in ALL_DIRECTIONS {
            assert_eq!(o.grid_distance(o.neighbor(d)), 1);
        }
        assert_eq!(o.grid_distance(Coord::new(3, 0)), 3);
        assert_eq!(o.grid_distance(Coord::new(3, -3)), 3);
        assert_eq!(o.grid_distance(Coord::new(-2, 5)), 5);
        assert_eq!(o.grid_distance(Coord::new(2, 2)), 4);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let a = Coord::new(1, 1);
        for d in ALL_DIRECTIONS {
            let b = a.neighbor(d);
            assert!(a.is_adjacent(b));
            assert!(b.is_adjacent(a));
        }
        assert!(!a.is_adjacent(a));
    }
}
