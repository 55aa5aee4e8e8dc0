//! Connected, hole-free amoebot structures on the triangular grid.
//!
//! # Memory layout
//!
//! The structure is stored struct-of-arrays, sized for 10^6-node worlds:
//!
//! * `coords` — node id to coordinate, in construction order;
//! * `index` — `(coord, id)` pairs sorted by coordinate; [`node_at`] is a
//!   binary search over this flat array (no `HashMap`, no per-entry heap);
//! * `neighbors` — one flat `u32` per (node, direction) slot, `6n` total,
//!   with `NONE` marking vacant directions.
//!
//! [`node_at`]: AmoebotStructure::node_at

use std::fmt;

use crate::coord::{Axis, Coord, Direction, ALL_DIRECTIONS};

/// Vacant-slot sentinel of the flat neighbor table (an id would exceed
/// the `u32` id space before colliding with it).
const NONE: u32 = u32::MAX;

/// Identifier of an amoebot (equivalently: of the node it occupies) within an
/// [`AmoebotStructure`]. Identifiers are dense indices `0..n`.
///
/// Note that amoebots are *anonymous* in the model; identifiers exist only in
/// the simulator/validation layer and are never used by the distributed
/// algorithms to break symmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node (`0..n`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Errors raised when constructing an [`AmoebotStructure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureError {
    /// The coordinate set was empty.
    Empty,
    /// The induced graph `G_X` is not connected.
    Disconnected,
    /// The same coordinate appeared more than once.
    Duplicate(Coord),
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::Empty => write!(f, "amoebot structure must be non-empty"),
            StructureError::Disconnected => {
                write!(f, "induced graph of the amoebot structure is not connected")
            }
            StructureError::Duplicate(c) => {
                write!(f, "coordinate {c} occupied by more than one amoebot")
            }
        }
    }
}

impl std::error::Error for StructureError {}

/// A connected set of amoebots on the triangular grid (the structure `X` of
/// §1.1), with O(1) adjacency lookups.
///
/// Hole-freeness is *not* enforced by the constructor (some baselines work on
/// structures with holes) but can be checked with
/// [`AmoebotStructure::is_hole_free`]; the paper's algorithms require it.
#[derive(Debug, Clone)]
pub struct AmoebotStructure {
    coords: Vec<Coord>,
    /// `(coord, id)` sorted by coordinate; binary-searched by [`Self::node_at`].
    index: Vec<(Coord, u32)>,
    /// Flat direction-indexed neighbor ids: slot `6 * v + d.index()` is the
    /// neighbor of `v` towards `d`, or [`NONE`].
    neighbors: Vec<u32>,
}

impl AmoebotStructure {
    /// Builds a structure from a set of coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::Empty`] for an empty input,
    /// [`StructureError::Duplicate`] if a coordinate repeats, and
    /// [`StructureError::Disconnected`] if `G_X` is not connected.
    pub fn new(
        coords: impl IntoIterator<Item = Coord>,
    ) -> Result<AmoebotStructure, StructureError> {
        let coords: Vec<Coord> = coords.into_iter().collect();
        if coords.is_empty() {
            return Err(StructureError::Empty);
        }
        let mut index: Vec<(Coord, u32)> = coords
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        index.sort_unstable_by_key(|&(c, _)| c);
        for w in index.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(StructureError::Duplicate(w[0].0));
            }
        }
        let mut neighbors = vec![NONE; coords.len() * 6];
        for (i, &c) in coords.iter().enumerate() {
            for d in ALL_DIRECTIONS {
                let target = c.neighbor(d);
                if let Ok(at) = index.binary_search_by_key(&target, |&(c, _)| c) {
                    neighbors[i * 6 + d.index()] = index[at].1;
                }
            }
        }
        let s = AmoebotStructure {
            coords,
            index,
            neighbors,
        };
        if !s.is_connected() {
            return Err(StructureError::Disconnected);
        }
        Ok(s)
    }

    /// The structure as a sealed `SPFS` blob (kind `STRUCTURE`): the
    /// coordinate list in node-id order. Everything else (sorted index,
    /// neighbor table) is derived, so the blob is minimal and restore
    /// re-validates connectedness for free.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w =
            amoebot_telemetry::SnapshotWriter::new(amoebot_telemetry::wire::kind::STRUCTURE);
        w.varint(self.len() as u64);
        for c in &self.coords {
            w.signed(c.q as i64);
            w.signed(c.r as i64);
        }
        w.finish()
    }

    /// Restores a structure from [`AmoebotStructure::snapshot_bytes`]
    /// output, rejecting corruption and disconnected/duplicated inputs
    /// with an offset-carrying error.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
    ) -> Result<AmoebotStructure, amoebot_telemetry::WireError> {
        use amoebot_telemetry::{wire, SnapshotReader, WireError};
        let mut r = SnapshotReader::open(bytes, wire::kind::STRUCTURE)?;
        let n = r.len("structure size")?;
        let payload_start = r.offset();
        let mut coords = Vec::with_capacity(n);
        for _ in 0..n {
            let q = r.i32("structure coordinate")?;
            let rr = r.i32("structure coordinate")?;
            coords.push(Coord::new(q, rr));
        }
        r.finish()?;
        AmoebotStructure::new(coords).map_err(|_| WireError::BadValue {
            what: "structure coordinates",
            offset: payload_start,
        })
    }

    /// Number of amoebots `n = |X|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the structure is empty (never true for a constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// The coordinate occupied by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        self.coords[node.index()]
    }

    /// The node occupying `coord`, if any. A binary search over the flat
    /// sorted index (`O(log n)`, no hashing, no pointer chasing).
    #[inline]
    pub fn node_at(&self, coord: Coord) -> Option<NodeId> {
        self.index
            .binary_search_by_key(&coord, |&(c, _)| c)
            .ok()
            .map(|at| NodeId(self.index[at].1))
    }

    /// Whether `coord` is occupied.
    #[inline]
    pub fn occupied(&self, coord: Coord) -> bool {
        self.index.binary_search_by_key(&coord, |&(c, _)| c).is_ok()
    }

    /// The neighbor of `node` in direction `dir`, if occupied.
    #[inline]
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let id = self.neighbors[node.index() * 6 + dir.index()];
        (id != NONE).then_some(NodeId(id))
    }

    /// All occupied neighbors of `node` as `(direction, node)` pairs.
    pub fn neighbors_of(&self, node: NodeId) -> impl Iterator<Item = (Direction, NodeId)> + '_ {
        let base = node.index() * 6;
        ALL_DIRECTIONS.into_iter().filter_map(move |d| {
            let id = self.neighbors[base + d.index()];
            (id != NONE).then_some((d, NodeId(id)))
        })
    }

    /// Degree of `node` within `G_X`.
    pub fn degree(&self, node: NodeId) -> usize {
        let base = node.index() * 6;
        self.neighbors[base..base + 6]
            .iter()
            .filter(|&&id| id != NONE)
            .count()
    }

    /// Number of undirected edges of `G_X`.
    pub fn edge_count(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).sum::<usize>() / 2
    }

    /// The diameter of `G_X` (longest shortest path). `O(n^2)`; intended for
    /// validation and benchmark reporting, not for large structures.
    pub fn diameter(&self) -> u32 {
        let mut best = 0;
        for v in self.nodes() {
            let dist = self.bfs_distances(&[v]);
            for d in dist.into_iter().flatten() {
                best = best.max(d);
            }
        }
        best
    }

    fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (_, w) in self.neighbors_of(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.len()
    }

    /// Whether the structure has no holes, i.e. the complement `V_Δ \ X` is
    /// connected (§1.1).
    ///
    /// Checked by flood-filling the complement inside a bounding box extended
    /// by one ring: the complement is connected iff every unoccupied cell in
    /// the box is reachable from the box boundary.
    pub fn is_hole_free(&self) -> bool {
        let (min_q, max_q, min_r, max_r) = self.bounding_box();
        let (min_q, max_q, min_r, max_r) = (min_q - 1, max_q + 1, min_r - 1, max_r + 1);
        let w = (max_q - min_q + 1) as usize;
        let h = (max_r - min_r + 1) as usize;
        let idx = |c: Coord| -> usize { ((c.r - min_r) as usize) * w + (c.q - min_q) as usize };
        let in_box =
            |c: Coord| -> bool { c.q >= min_q && c.q <= max_q && c.r >= min_r && c.r <= max_r };

        let mut seen = vec![false; w * h];
        let mut stack = Vec::new();
        // Seed with the whole boundary ring (all unoccupied because the box
        // was extended by one).
        for q in min_q..=max_q {
            for r in [min_r, max_r] {
                let c = Coord::new(q, r);
                if !seen[idx(c)] {
                    seen[idx(c)] = true;
                    stack.push(c);
                }
            }
        }
        for r in min_r..=max_r {
            for q in [min_q, max_q] {
                let c = Coord::new(q, r);
                if !seen[idx(c)] {
                    seen[idx(c)] = true;
                    stack.push(c);
                }
            }
        }
        debug_assert!(stack.iter().all(|&c| !self.occupied(c)));
        while let Some(c) = stack.pop() {
            for nb in c.neighbors() {
                if in_box(nb) && !self.occupied(nb) && !seen[idx(nb)] {
                    seen[idx(nb)] = true;
                    stack.push(nb);
                }
            }
        }
        // Every unoccupied in-box cell must have been reached.
        for q in min_q..=max_q {
            for r in min_r..=max_r {
                let c = Coord::new(q, r);
                if !self.occupied(c) && !seen[idx(c)] {
                    return false;
                }
            }
        }
        true
    }

    /// The bounding box `(min_q, max_q, min_r, max_r)` of the structure.
    pub fn bounding_box(&self) -> (i32, i32, i32, i32) {
        let mut min_q = i32::MAX;
        let mut max_q = i32::MIN;
        let mut min_r = i32::MAX;
        let mut max_r = i32::MIN;
        for &c in &self.coords {
            min_q = min_q.min(c.q);
            max_q = max_q.max(c.q);
            min_r = min_r.min(c.r);
            max_r = max_r.max(c.r);
        }
        (min_q, max_q, min_r, max_r)
    }

    /// BFS distances from a set of sources; `None` for unreachable nodes
    /// (cannot happen on a connected structure with non-empty sources).
    pub fn bfs_distances(&self, sources: &[NodeId]) -> Vec<Option<u32>> {
        crate::bfs::multi_source_bfs(self, sources).0
    }

    /// Decomposes the structure into the portals of `axis` (Definition 7
    /// adapted to triangular grids).
    ///
    /// Returns `(portal_of, portals)` where `portal_of[v]` is the portal index
    /// of node `v` and `portals[p]` lists the member nodes of portal `p`
    /// ordered along [`Axis::positive`].
    pub fn portals(&self, axis: Axis) -> (Vec<u32>, Vec<Vec<NodeId>>) {
        let neg = axis.negative();
        let pos = axis.positive();
        let mut portal_of = vec![u32::MAX; self.len()];
        let mut portals = Vec::new();
        for v in self.nodes() {
            // Portal starts at nodes with no negative-direction neighbor.
            if self.neighbor(v, neg).is_some() {
                continue;
            }
            let p = portals.len() as u32;
            let mut members = Vec::new();
            let mut cur = Some(v);
            while let Some(u) = cur {
                portal_of[u.index()] = p;
                members.push(u);
                cur = self.neighbor(u, pos);
            }
            portals.push(members);
        }
        debug_assert!(portal_of.iter().all(|&p| p != u32::MAX));
        (portal_of, portals)
    }

    /// Whether the undirected edge from `v` towards `dir` belongs to the
    /// *implicit portal graph* of `axis` (Definition 12), using the paper's
    /// local rule:
    ///
    /// * edges parallel to the axis always belong to it;
    /// * the "backward" cross edge (e.g. NW for the x-axis north side) belongs
    ///   to it iff the node has no negative-axis ("west") neighbor;
    /// * the "forward" cross edge (e.g. NE) belongs to it iff the node has no
    ///   backward cross edge on that side.
    ///
    /// Returns `false` if there is no neighbor in `dir`.
    pub fn implicit_portal_edge(&self, v: NodeId, dir: Direction, axis: Axis) -> bool {
        if self.neighbor(v, dir).is_none() {
            return false;
        }
        if dir.axis() == axis {
            return true;
        }
        for (cb, cf) in axis.cross_sides() {
            if dir == cb {
                return self.neighbor(v, axis.negative()).is_none();
            }
            if dir == cf {
                return self.neighbor(v, cb).is_none();
            }
        }
        unreachable!("direction {dir} must be either parallel or a cross direction")
    }

    /// All undirected edges of the implicit portal graph of `axis`, as
    /// `(node, direction)` with each undirected edge reported from exactly one
    /// endpoint: axis-parallel edges from the negative ("west") endpoint,
    /// cross edges from the endpoint on the first [`Axis::cross_sides`] side.
    ///
    /// The membership rule itself ([`Self::implicit_portal_edge`]) is
    /// symmetric: it yields the same answer from either endpoint of an edge.
    pub fn implicit_portal_edges(&self, axis: Axis) -> Vec<(NodeId, Direction)> {
        let mut out = Vec::new();
        let (cb, cf) = axis.cross_sides()[0];
        for v in self.nodes() {
            // Axis-parallel edge, reported from the negative side.
            if self.neighbor(v, axis.positive()).is_some() {
                out.push((v, axis.positive()));
            }
            if self.implicit_portal_edge(v, cb, axis) {
                out.push((v, cb));
            }
            if self.implicit_portal_edge(v, cf, axis) {
                out.push((v, cf));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            AmoebotStructure::new(std::iter::empty()),
            Err(StructureError::Empty)
        ));
        let dup = AmoebotStructure::new([Coord::new(0, 0), Coord::new(0, 0)]);
        assert!(matches!(dup, Err(StructureError::Duplicate(_))));
        let disc = AmoebotStructure::new([Coord::new(0, 0), Coord::new(5, 5)]);
        assert!(matches!(disc, Err(StructureError::Disconnected)));
    }

    #[test]
    fn adjacency_and_degree() {
        let s = AmoebotStructure::new(shapes::parallelogram(3, 2)).unwrap();
        assert_eq!(s.len(), 6);
        let origin = s.node_at(Coord::new(0, 0)).unwrap();
        assert_eq!(s.degree(origin), 2); // E and SE neighbors
        let mid = s.node_at(Coord::new(1, 0)).unwrap();
        assert_eq!(s.degree(mid), 4); // E, W, SW, SE
        assert_eq!(s.neighbor(origin, Direction::E), Some(mid));
        assert_eq!(s.neighbor(mid, Direction::W), Some(origin));
        assert_eq!(s.neighbor(origin, Direction::W), None);
    }

    #[test]
    fn hole_detection() {
        // A hexagonal ring of 6 cells around an empty center has a hole.
        let center = Coord::origin();
        let ring: Vec<Coord> = center.neighbors().to_vec();
        let s = AmoebotStructure::new(ring.clone()).unwrap();
        assert!(!s.is_hole_free());
        // Filling the center removes the hole.
        let mut filled = ring;
        filled.push(center);
        let s = AmoebotStructure::new(filled).unwrap();
        assert!(s.is_hole_free());
    }

    #[test]
    fn solid_shapes_are_hole_free() {
        for s in [
            AmoebotStructure::new(shapes::parallelogram(7, 4)).unwrap(),
            AmoebotStructure::new(shapes::hexagon(3)).unwrap(),
            AmoebotStructure::new(shapes::triangle(5)).unwrap(),
            AmoebotStructure::new(shapes::line(17)).unwrap(),
        ] {
            assert!(s.is_hole_free());
        }
    }

    #[test]
    fn portal_decomposition_parallelogram() {
        // A 4x3 parallelogram has 3 x-portals (one per row) and 4 y-portals.
        let s = AmoebotStructure::new(shapes::parallelogram(4, 3)).unwrap();
        let (portal_of, portals) = s.portals(Axis::X);
        assert_eq!(portals.len(), 3);
        for members in &portals {
            assert_eq!(members.len(), 4);
            // Members share the line key and are ordered along +x.
            let key = Axis::X.line_key(s.coord(members[0]));
            for w in members.windows(2) {
                assert_eq!(Axis::X.line_key(s.coord(w[1])), key);
                assert!(Axis::X.along(s.coord(w[1])) > Axis::X.along(s.coord(w[0])));
            }
        }
        for v in s.nodes() {
            assert!(portals[portal_of[v.index()] as usize].contains(&v));
        }
        let (_, y_portals) = s.portals(Axis::Y);
        assert_eq!(y_portals.len(), 4);
    }

    #[test]
    fn implicit_portal_graph_is_spanning_tree() {
        for coords in [
            shapes::parallelogram(6, 5),
            shapes::hexagon(3),
            shapes::triangle(6),
        ] {
            let s = AmoebotStructure::new(coords).unwrap();
            for axis in crate::coord::ALL_AXES {
                let edges = s.implicit_portal_edges(axis);
                // A spanning tree has exactly n - 1 edges...
                assert_eq!(edges.len(), s.len() - 1, "axis {axis}");
                // ...and is connected.
                let mut adj = vec![Vec::new(); s.len()];
                for &(v, d) in &edges {
                    let w = s.neighbor(v, d).unwrap();
                    adj[v.index()].push(w);
                    adj[w.index()].push(v);
                }
                let mut seen = vec![false; s.len()];
                let mut stack = vec![NodeId(0)];
                seen[0] = true;
                let mut cnt = 1;
                while let Some(v) = stack.pop() {
                    for &w in &adj[v.index()] {
                        if !seen[w.index()] {
                            seen[w.index()] = true;
                            cnt += 1;
                            stack.push(w);
                        }
                    }
                }
                assert_eq!(cnt, s.len(), "axis {axis}");
            }
        }
    }

    #[test]
    fn diameter_of_line() {
        let s = AmoebotStructure::new(shapes::line(9)).unwrap();
        assert_eq!(s.diameter(), 8);
    }
}

#[cfg(test)]
mod extra_shape_tests {
    use super::*;
    use crate::shapes;

    #[test]
    fn adversarial_shapes_are_connected_and_hole_free() {
        for (name, coords) in [
            ("zigzag", shapes::zigzag(7, 4)),
            ("spiral", shapes::spiral(3)),
            ("bitten_hexagon", shapes::bitten_hexagon(4)),
        ] {
            let s = AmoebotStructure::new(coords).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(s.is_hole_free(), "{name} must be hole-free");
        }
    }

    #[test]
    fn zigzag_has_long_diameter() {
        let s = AmoebotStructure::new(shapes::zigzag(6, 5)).unwrap();
        // A thin zigzag's diameter is ~n.
        assert!(s.diameter() as usize >= s.len() / 2);
    }

    #[test]
    fn spiral_implicit_portal_trees_are_spanning() {
        let s = AmoebotStructure::new(shapes::spiral(3)).unwrap();
        for axis in crate::coord::ALL_AXES {
            let edges = s.implicit_portal_edges(axis);
            assert_eq!(edges.len(), s.len() - 1, "axis {axis}");
        }
    }

    #[test]
    fn structures_with_holes_break_lemma_9() {
        // §6 of the paper: the algorithms do not work on structures with
        // holes because Lemma 9 (portal graphs are trees) fails. Verify the
        // failure mode is real: a ring has one more portal-graph edge than
        // a tree allows.
        let center = Coord::origin();
        let mut ring: Vec<Coord> = center.neighbors().to_vec();
        ring.extend(
            center
                .neighbors()
                .iter()
                .flat_map(|c| c.neighbors())
                .filter(|c| *c != center && c.grid_distance(center) == 2),
        );
        let mut ring: Vec<Coord> = ring
            .into_iter()
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        ring.sort();
        let s = AmoebotStructure::new(ring).unwrap();
        assert!(!s.is_hole_free());
        // Count portal-graph edges for the x axis: a forest over p portals
        // would have p - 1; the hole forces at least p edges.
        let (portal_of, portals) = s.portals(crate::coord::Axis::X);
        let mut pairs = std::collections::HashSet::new();
        for v in s.nodes() {
            for (_, w) in s.neighbors_of(v) {
                let (a, b) = (portal_of[v.index()], portal_of[w.index()]);
                if a != b {
                    pairs.insert((a.min(b), a.max(b)));
                }
            }
        }
        assert!(
            pairs.len() >= portals.len(),
            "a hole must create a portal-graph cycle ({} edges, {} portals)",
            pairs.len(),
            portals.len()
        );
    }
}
