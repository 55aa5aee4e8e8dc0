//! Runtime structure mutation: insert and remove amoebots without
//! rebuilding the structure.
//!
//! [`AmoebotStructure`] is deliberately immutable — its sorted coordinate
//! index and flat neighbor table are built once and shared. A
//! [`StructureEditor`] keeps its cells in an *editable* form, sized for
//! churn workloads at the sweep scales of this repo:
//!
//! * one **cell map** from cells to node ids, with one `u32` slot per cell
//!   in the 16×16 chunks of [`ChunkGrid`]: a lookup, an insertion and a
//!   removal each cost one hash lookup of the cell's chunk, so index
//!   maintenance is O(1) per edit, and the scoped hole revalidation reads
//!   its box one chunk at a time;
//! * the **flat neighbor table** (6 `u32` slots per node) is edited in
//!   place, O(Δ) per edit with Δ ≤ 6;
//! * the editor remembers which chunks an edit touched, so hole-freeness
//!   can be revalidated *scoped to the edited chunks*
//!   ([`StructureEditor::revalidate_edited_chunks`]) instead of
//!   flood-filling the whole bounding box.
//!
//! Node ids are stable across edits: a removed node's id goes to a free
//! list and is recycled by a later insertion, so downstream pin/world
//! state (which is keyed by node id) can be reused instead of renumbered.
//!
//! # Invariants
//!
//! The cell map holds exactly the live cells, each with its id. Every
//! edit preserves the paper's standing assumptions (§1.1): the
//! structure stays **connected** and **hole-free**. Both are enforced by
//! the *local arc rule* — the occupied neighbors of the edited cell must
//! form exactly one contiguous arc around it:
//!
//! * inserting at such a cell cannot enclose a pocket of the complement
//!   (the vacant neighbors also form one arc, mutually adjacent, so any
//!   complement path through the cell reroutes around it), and attaching
//!   to at least one occupied neighbor keeps the structure connected;
//! * removing such a node keeps its neighbors mutually connected (cells
//!   in consecutive directions are themselves adjacent) and opens the
//!   vacated cell to the outside, so no hole appears. A node with all
//!   six neighbors occupied is *not* removable (the vacated cell would
//!   be a hole); a cell with all six neighbors occupied *is* insertable
//!   (it fills a pocket — which a hole-free structure cannot have, but
//!   the rule is safe either way).
//!
//! [`StructureEditor::can_insert`] / [`StructureEditor::can_remove`]
//! expose the rule; `insert` / `remove` panic when it is violated, so a
//! churn driver probes first and the structure can never leave the
//! algorithms' supported class. Insertions also stay inside the
//! coordinate band [`BAND`], the one a decoded editor's cells must lie in.

use std::collections::BTreeSet;

use amoebot_telemetry::wire::{SnapshotReader, SnapshotWriter, WireError};

use crate::chunkgrid::{CellMap, ChunkGrid};
use crate::coord::{Coord, Direction, ALL_DIRECTIONS};
use crate::structure::{connected, enclosed_cells, neighbor_table, AmoebotStructure, NodeId, NONE};

/// The coordinate band of an editor's cells: `|q|, |r| ≤ BAND`. Inside it,
/// every neighbor, sum, difference and grid distance of cells, every chunk
/// span and every flood margin the grid code forms stays inside `i32`
/// (`|dq| + |dr| + |ds|` of two cells is at most `8·BAND = 2^30`), and a
/// structure grown from the origin would need some 10^8 edits to reach it.
pub const BAND: i32 = 1 << 27;

/// Whether `c` lies in the coordinate band [`BAND`].
fn in_band(c: Coord) -> bool {
    (-BAND..=BAND).contains(&c.q) && (-BAND..=BAND).contains(&c.r)
}

/// The local arc rule (see the module docs) over a cell's occupied
/// neighbors, given as a 6-bit mask (bit `i` = direction index `i`): the
/// set bits form one contiguous arc in cyclic order, or the full ring.
/// A vacant cell that passes may join a hole-free structure; an occupied
/// one that passes short of the full ring may leave it.
pub(crate) fn single_arc(mask: u8) -> bool {
    let m = mask & 0x3F;
    // An arc starts at each set bit whose cyclic predecessor is clear;
    // the full ring has no start.
    let prev = ((m << 1) | (m >> 5)) & 0x3F;
    m == 0x3F || (m & !prev).count_ones() == 1
}

/// An editable amoebot structure: stable node ids, O(Δ)-amortized insert
/// and remove, scoped hole revalidation. See the module docs.
#[derive(Debug, Clone)]
pub struct StructureEditor {
    /// Node id -> coordinate (stale for dead ids).
    coords: Vec<Coord>,
    /// Node id -> liveness.
    alive: Vec<bool>,
    /// Recyclable ids of removed nodes.
    free: Vec<u32>,
    /// Dense list of the live ids (order arbitrary; supports O(1)
    /// uniform sampling by churn drivers).
    live_ids: Vec<u32>,
    /// Node id -> its position in `live_ids` (undefined for dead ids).
    live_pos: Vec<u32>,
    /// Flat neighbor table, 6 slots per id (same layout as
    /// [`AmoebotStructure`]).
    neighbors: Vec<u32>,
    /// Live cell -> its id.
    cells: CellMap,
    /// Chunk keys touched since the last revalidation.
    edited: BTreeSet<(i32, i32)>,
}

impl StructureEditor {
    /// Starts editing from a snapshot of `structure`: ids `0..n` map to
    /// the structure's node ids, whose neighbor table the editor copies.
    pub fn from_structure(structure: &AmoebotStructure) -> StructureEditor {
        let n = structure.len();
        StructureEditor::from_cells(
            structure.nodes().map(|v| structure.coord(v)).collect(),
            vec![true; n],
            Vec::new(),
            (0..n as u32).collect(),
            structure.neighbor_slots().to_vec(),
            BTreeSet::new(),
        )
    }

    /// The one constructor behind [`StructureEditor::from_structure`]
    /// and the snapshot decoder. It takes the editor's state (every id's
    /// coordinate and liveness, the free and live lists, which partition
    /// the ids, the live cells' neighbor table and the edited-chunk set)
    /// and derives the live positions and the cell map.
    fn from_cells(
        coords: Vec<Coord>,
        alive: Vec<bool>,
        free: Vec<u32>,
        live_ids: Vec<u32>,
        neighbors: Vec<u32>,
        edited: BTreeSet<(i32, i32)>,
    ) -> StructureEditor {
        let mut live_pos = vec![0u32; coords.len()];
        let mut cells = CellMap::default();
        for (pos, &id) in live_ids.iter().enumerate() {
            live_pos[id as usize] = pos as u32;
            cells.set(coords[id as usize], id);
        }
        StructureEditor {
            coords,
            alive,
            free,
            live_ids,
            live_pos,
            neighbors,
            cells,
            edited,
        }
    }

    /// Number of live amoebots.
    #[inline]
    pub fn len(&self) -> usize {
        self.live_ids.len()
    }

    /// Whether the structure has no live amoebots (never true: removal
    /// keeps at least one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_ids.is_empty()
    }

    /// Size of the id space (live + recyclable dead ids). Ids are always
    /// `< capacity()`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.coords.len()
    }

    /// Whether `v` currently occupies a cell.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive[v.index()]
    }

    /// The dense list of live ids (order arbitrary but deterministic for
    /// a given edit history) — the churn drivers' sampling pool.
    #[inline]
    pub fn live_ids(&self) -> &[u32] {
        &self.live_ids
    }

    /// The coordinate of live node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is dead or out of range.
    #[inline]
    pub fn coord(&self, v: NodeId) -> Coord {
        assert!(self.alive[v.index()], "node {v} was removed");
        self.coords[v.index()]
    }

    /// The live node at `coord`, if any.
    #[inline]
    pub fn node_at(&self, coord: Coord) -> Option<NodeId> {
        self.cells.get(coord).map(NodeId)
    }

    /// Whether `coord` is occupied by a live amoebot.
    #[inline]
    pub fn occupied(&self, coord: Coord) -> bool {
        self.node_at(coord).is_some()
    }

    /// The live neighbor of `v` towards `dir`, if occupied.
    #[inline]
    pub fn neighbor(&self, v: NodeId, dir: Direction) -> Option<NodeId> {
        let id = self.neighbors[v.index() * 6 + dir.index()];
        (id != NONE).then_some(NodeId(id))
    }

    /// All live neighbors of `v` as `(direction, node)` pairs.
    pub fn neighbors_of(&self, v: NodeId) -> impl Iterator<Item = (Direction, NodeId)> + '_ {
        let base = v.index() * 6;
        ALL_DIRECTIONS.into_iter().filter_map(move |d| {
            let id = self.neighbors[base + d.index()];
            (id != NONE).then_some((d, NodeId(id)))
        })
    }

    /// Degree of `v` within the live structure.
    pub fn degree(&self, v: NodeId) -> usize {
        let base = v.index() * 6;
        self.neighbors[base..base + 6]
            .iter()
            .filter(|&&id| id != NONE)
            .count()
    }

    /// The 6-bit mask of occupied neighbor cells around `c` (bit `i` =
    /// direction index `i`).
    fn occupied_mask_around(&self, c: Coord) -> u8 {
        let mut mask = 0u8;
        for d in ALL_DIRECTIONS {
            if self.occupied(c.neighbor(d)) {
                mask |= 1 << d.index();
            }
        }
        mask
    }

    /// Whether inserting at `coord` is legal: the cell lies in the band
    /// [`BAND`], is vacant, and its occupied neighbors form one contiguous
    /// arc (or the full ring), so connectivity and hole-freeness are
    /// preserved. See the module docs.
    pub fn can_insert(&self, coord: Coord) -> bool {
        in_band(coord) && !self.occupied(coord) && single_arc(self.occupied_mask_around(coord))
    }

    /// Whether removing `v` is legal: it is alive, not the last amoebot,
    /// and its occupied neighbors form one contiguous arc short of the
    /// full ring. See the module docs.
    pub fn can_remove(&self, v: NodeId) -> bool {
        if v.index() >= self.alive.len() || !self.alive[v.index()] || self.len() <= 1 {
            return false;
        }
        let mut mask = 0u8;
        for (d, _) in self.neighbors_of(v) {
            mask |= 1 << d.index();
        }
        mask != 0x3F && single_arc(mask)
    }

    /// Inserts an amoebot at `coord`, recycling a dead id if one exists.
    /// Returns the node id and the adjacencies it created, as
    /// `(direction, live neighbor)` pairs — exactly what a simulator
    /// layer needs to splice the corresponding edges.
    ///
    /// # Panics
    ///
    /// Panics if [`StructureEditor::can_insert`] is false for `coord`.
    pub fn insert(&mut self, coord: Coord) -> (NodeId, Vec<(Direction, NodeId)>) {
        assert!(
            self.can_insert(coord),
            "cell {coord} is not insertable (occupied, detached, or hole-creating)"
        );
        let id = match self.free.pop() {
            Some(id) => {
                self.coords[id as usize] = coord;
                self.alive[id as usize] = true;
                id
            }
            None => {
                let id = self.coords.len() as u32;
                self.coords.push(coord);
                self.alive.push(true);
                self.live_pos.push(0);
                self.neighbors.resize(self.neighbors.len() + 6, NONE);
                id
            }
        };
        self.live_pos[id as usize] = self.live_ids.len() as u32;
        self.live_ids.push(id);
        let mut links = Vec::new();
        for d in ALL_DIRECTIONS {
            if let Some(w) = self.node_at(coord.neighbor(d)) {
                self.neighbors[id as usize * 6 + d.index()] = w.0;
                self.neighbors[w.index() * 6 + d.opposite().index()] = id;
                links.push((d, w));
            } else {
                self.neighbors[id as usize * 6 + d.index()] = NONE;
            }
        }
        self.cells.set(coord, id);
        self.touch_chunks(coord);
        (NodeId(id), links)
    }

    /// Removes live node `v`, freeing its id for recycling.
    ///
    /// # Panics
    ///
    /// Panics if [`StructureEditor::can_remove`] is false for `v`.
    pub fn remove(&mut self, v: NodeId) {
        assert!(
            self.can_remove(v),
            "node {v} is not removable (dead, last amoebot, articulation cell, or hole-creating)"
        );
        let id = v.index();
        let coord = self.coords[id];
        for d in ALL_DIRECTIONS {
            let w = self.neighbors[id * 6 + d.index()];
            if w != NONE {
                self.neighbors[w as usize * 6 + d.opposite().index()] = NONE;
                self.neighbors[id * 6 + d.index()] = NONE;
            }
        }
        self.alive[id] = false;
        self.free.push(id as u32);
        // Swap-remove from the dense live list.
        let pos = self.live_pos[id] as usize;
        let last = *self.live_ids.last().expect("live list non-empty");
        self.live_ids.swap_remove(pos);
        if pos < self.live_ids.len() {
            self.live_pos[last as usize] = pos as u32;
        }
        self.cells.set(coord, NONE);
        self.touch_chunks(coord);
    }

    /// Records the chunks an edit at `c` may affect (its own plus the
    /// neighbors', distinct keys only — a cell in the chunk interior
    /// touches exactly one).
    fn touch_chunks(&mut self, c: Coord) {
        self.edited.insert(ChunkGrid::chunk_key(c));
        for d in ALL_DIRECTIONS {
            self.edited.insert(ChunkGrid::chunk_key(c.neighbor(d)));
        }
    }

    /// Revalidates hole-freeness **scoped to the edited chunks**: every
    /// vacant cell inside the chunks touched since the last call must
    /// reach the region's one-cell margin through vacant cells. A pocket
    /// fully enclosed inside the region is a definite hole (returns
    /// `false`); the check is sound but scoped — an enclosure stretching
    /// beyond the edited region is the full
    /// [`AmoebotStructure::is_hole_free`]'s job, which churn tests run on
    /// snapshots. Clears the edited-chunk set; returns `true` when no
    /// edits are pending.
    ///
    /// Cost is O(touched chunks): edits scattered across the structure
    /// are grouped into connected chunk clusters and each cluster floods
    /// its own bounding box, so two edits at opposite ends of a large
    /// structure cost two chunk-sized scans, not one structure-sized one.
    pub fn revalidate_edited_chunks(&mut self) -> bool {
        if self.edited.is_empty() {
            return true;
        }
        let mut pending = std::mem::take(&mut self.edited);
        let mut ok = true;
        while let Some(&seed) = pending.iter().next() {
            // Peel one 8-connected cluster of edited chunks off.
            let mut cluster = Vec::new();
            let mut stack = vec![seed];
            pending.remove(&seed);
            while let Some(key) = stack.pop() {
                cluster.push(key);
                for dq in -1..=1 {
                    for dr in -1..=1 {
                        let nb = (key.0 + dq, key.1 + dr);
                        if pending.remove(&nb) {
                            stack.push(nb);
                        }
                    }
                }
            }
            ok &= self.revalidate_cluster(&cluster);
        }
        ok
    }

    /// Whether the bounding box of one connected chunk cluster encloses
    /// no vacant cell ([`enclosed_cells`]): complement paths out of the
    /// box must cross its margin, so a vacant cell the margin's vacant
    /// cells cannot reach is an enclosed pocket — a hole. The box and its
    /// margin are read from the cell map one chunk at a time.
    fn revalidate_cluster(&self, cluster: &[(i32, i32)]) -> bool {
        let (mut lo, mut hi) = (
            Coord::new(i32::MAX, i32::MAX),
            Coord::new(i32::MIN, i32::MIN),
        );
        for &key in cluster {
            let (qs, rs) = ChunkGrid::chunk_span(key);
            lo = Coord::new(lo.q.min(*qs.start()), lo.r.min(*rs.start()));
            hi = Coord::new(hi.q.max(*qs.end()), hi.r.max(*rs.end()));
        }
        let margin = |c: Coord, by: i32| Coord::new(c.q.saturating_add(by), c.r.saturating_add(by));
        enclosed_cells(lo, hi, self.cells.cells_in(margin(lo, -1), margin(hi, 1))).is_empty()
    }

    /// Builds a dense [`AmoebotStructure`] snapshot of the live cells,
    /// plus the id map `old id -> dense id` (`None` for dead ids). Dense
    /// ids follow old-id order, so the map is monotone on live ids. O(n
    /// log n); this is the from-scratch rebuild the churn oracle
    /// cross-validates against.
    pub fn snapshot(&self) -> (AmoebotStructure, Vec<Option<NodeId>>) {
        let mut map = vec![None; self.capacity()];
        let mut coords = Vec::with_capacity(self.len());
        for (id, slot) in map.iter_mut().enumerate() {
            if self.alive[id] {
                *slot = Some(NodeId(coords.len() as u32));
                coords.push(self.coords[id]);
            }
        }
        let structure = AmoebotStructure::new(coords)
            .expect("editor invariants keep the structure connected and non-empty");
        (structure, map)
    }
}

// ---- The `SPFS` snapshot codec (see DESIGN.md §1g).
//
// The payload is the structure's state: every id's coordinate (dead ids
// included) and liveness, the free list (recycling order decides which
// ids future insertions get), the dense live list (its order drives
// churn sampling) and the edited-chunk set. Decode derives the neighbor
// table, checks the live cells, and builds the cell map through the
// constructor `from_structure` uses, so a restored editor is the same
// data structure as the one encoded, not only the same content.
impl StructureEditor {
    /// Writes the editor payload (no envelope) into `w`.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.varint(self.coords.len() as u64);
        for c in &self.coords {
            w.signed(c.q as i64);
            w.signed(c.r as i64);
        }
        for chunk in self.alive.chunks(8) {
            let mut byte = 0u8;
            for (i, &a) in chunk.iter().enumerate() {
                if a {
                    byte |= 1 << i;
                }
            }
            w.byte(byte);
        }
        w.varint(self.free.len() as u64);
        for &id in &self.free {
            w.varint(id as u64);
        }
        w.varint(self.live_ids.len() as u64);
        for &id in &self.live_ids {
            w.varint(id as u64);
        }
        w.varint(self.edited.len() as u64);
        for &(q, r) in &self.edited {
            w.signed(q as i64);
            w.signed(r as i64);
        }
    }

    /// Decodes an editor payload written by
    /// [`StructureEditor::encode_snapshot`]. O(bytes) plus the derived
    /// neighbor table and cell map over the live cells.
    ///
    /// The live cells must form a structure inside the band [`BAND`]: at
    /// least one, no two on one cell, connected, and `|q|, |r| ≤ BAND`,
    /// or decode fails with `editor cells`. The band keeps the grid code's
    /// coordinate arithmetic inside `i32` (a cell on the edge of the range
    /// would have a neighbor that wraps around to the far side), and the
    /// edited chunks must lie in the band's chunks and their neighbors.
    /// The cells are checked before the cell map is built, which costs a
    /// chunk of slots per cell for cells scattered one to a chunk.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<StructureEditor, WireError> {
        let capacity = r.len("editor capacity")?;
        let cells_offset = r.offset();
        let mut coords = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            let q = r.i32("editor coordinate")?;
            let rr = r.i32("editor coordinate")?;
            coords.push(Coord::new(q, rr));
        }
        let mut alive = Vec::with_capacity(capacity);
        for _ in 0..capacity.div_ceil(8) {
            let offset = r.offset();
            let byte = r.byte()?;
            for i in 0..8 {
                if alive.len() < capacity {
                    alive.push(byte & (1 << i) != 0);
                } else if byte & (1 << i) != 0 {
                    return Err(WireError::BadValue {
                        what: "editor liveness padding",
                        offset,
                    });
                }
            }
        }
        let free_count = r.len("editor free list")?;
        let mut free = Vec::with_capacity(free_count);
        let mut seen = vec![false; capacity];
        for _ in 0..free_count {
            let offset = r.offset();
            let id = r.u32("editor free id")?;
            if id as usize >= capacity || alive[id as usize] || seen[id as usize] {
                return Err(WireError::BadValue {
                    what: "editor free id",
                    offset,
                });
            }
            seen[id as usize] = true;
            free.push(id);
        }
        let live_count = r.len("editor live list")?;
        let mut live_ids = Vec::with_capacity(live_count);
        for _ in 0..live_count {
            let offset = r.offset();
            let id = r.u32("editor live id")?;
            if id as usize >= capacity || !alive[id as usize] || seen[id as usize] {
                return Err(WireError::BadValue {
                    what: "editor live id",
                    offset,
                });
            }
            seen[id as usize] = true;
            live_ids.push(id);
        }
        if !seen.iter().all(|&s| s) {
            return Err(WireError::BadValue {
                what: "editor id partition",
                offset: r.offset(),
            });
        }
        let edited_count = r.len("editor edited-chunk set")?;
        let mut edited = BTreeSet::new();
        let (lo, hi) = (
            ChunkGrid::chunk_key(Coord::new(-BAND - 1, -BAND - 1)),
            ChunkGrid::chunk_key(Coord::new(BAND + 1, BAND + 1)),
        );
        for _ in 0..edited_count {
            let offset = r.offset();
            let q = r.i32("editor edited chunk")?;
            let rr = r.i32("editor edited chunk")?;
            // Strictly ascending, the order the set encodes in: any other
            // order would decode to the same set and re-encode differently.
            if edited.last().is_some_and(|&last| (q, rr) <= last)
                || !(lo.0..=hi.0).contains(&q)
                || !(lo.1..=hi.1).contains(&rr)
            {
                return Err(WireError::BadValue {
                    what: "editor edited chunk",
                    offset,
                });
            }
            edited.insert((q, rr));
        }
        let mut index: Vec<(Coord, u32)> = live_ids
            .iter()
            .map(|&id| (coords[id as usize], id))
            .collect();
        index.sort_unstable_by_key(|&(c, _)| c);
        let neighbors = neighbor_table(&index, capacity);
        if live_ids.is_empty()
            || !index.iter().all(|&(c, _)| in_band(c))
            || index.windows(2).any(|pair| pair[0].0 == pair[1].0)
            || !connected(&neighbors, live_ids[0], live_ids.len())
        {
            return Err(WireError::BadValue {
                what: "editor cells",
                offset: cells_offset,
            });
        }
        Ok(StructureEditor::from_cells(
            coords, alive, free, live_ids, neighbors, edited,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    fn editor(coords: Vec<Coord>) -> StructureEditor {
        StructureEditor::from_structure(&AmoebotStructure::new(coords).unwrap())
    }

    #[test]
    fn lookups_match_the_source_structure() {
        let s = AmoebotStructure::new(shapes::hexagon(2)).unwrap();
        let e = StructureEditor::from_structure(&s);
        assert_eq!(e.len(), s.len());
        for v in s.nodes() {
            assert_eq!(e.coord(v), s.coord(v));
            assert_eq!(e.node_at(s.coord(v)), Some(v));
            assert_eq!(e.degree(v), s.degree(v));
            for d in crate::coord::ALL_DIRECTIONS {
                assert_eq!(e.neighbor(v, d), s.neighbor(v, d));
            }
        }
        assert_eq!(e.node_at(Coord::new(100, 100)), None);
    }

    #[test]
    fn arc_rule_examples() {
        // A line 0-1-2 along +x.
        let e = editor(shapes::line(3));
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        // Endpoints are removable, the middle is an articulation cell.
        assert!(e.can_remove(a));
        assert!(e.can_remove(c));
        assert!(!e.can_remove(b), "cutting the line must be rejected");
        // Cells adjacent to the line are insertable; detached cells not.
        assert!(e.can_insert(Coord::new(3, 0)));
        assert!(e.can_insert(Coord::new(0, 1)));
        assert!(!e.can_insert(Coord::new(5, 5)));
        assert!(!e.can_insert(Coord::new(0, 0)), "occupied cell");
        // A cell bridging the two ends of a C-shape would close a ring
        // around a vacant center: two arcs, rejected.
        let ring: Vec<Coord> = Coord::origin().neighbors().to_vec();
        let c5 = ring[5];
        let mut open = ring;
        open.remove(5);
        let e = editor(open);
        assert!(
            !e.can_insert(c5),
            "closing the ring would enclose the center"
        );
        // Filling the center first makes the closing cell legal.
        let mut e = e;
        let (center, links) = e.insert(Coord::origin());
        assert_eq!(links.len(), 5);
        assert!(e.is_alive(center));
        assert!(e.can_insert(c5), "no pocket once the center is filled");
    }

    #[test]
    fn insert_links_both_sides_and_remove_unlinks() {
        let mut e = editor(shapes::line(2));
        let (v, links) = e.insert(Coord::new(2, 0));
        assert_eq!(links, vec![(Direction::W, NodeId(1))]);
        assert_eq!(e.neighbor(NodeId(1), Direction::E), Some(v));
        assert_eq!(e.neighbor(v, Direction::W), Some(NodeId(1)));
        assert_eq!(e.len(), 3);
        e.remove(v);
        assert_eq!(e.len(), 2);
        assert!(!e.is_alive(v));
        assert_eq!(e.neighbor(NodeId(1), Direction::E), None);
        assert_eq!(e.node_at(Coord::new(2, 0)), None);
    }

    #[test]
    fn ids_are_recycled_and_coords_revalidated() {
        let mut e = editor(shapes::line(3));
        let old_coord = e.coord(NodeId(2));
        e.remove(NodeId(2));
        // The recycled id lands at a *different* coordinate; the old
        // coordinate must not resolve to it.
        let (v, _) = e.insert(Coord::new(0, 1));
        assert_eq!(v, NodeId(2));
        assert_eq!(e.capacity(), 3, "no id-space growth on recycling");
        assert_eq!(e.node_at(old_coord), None, "vacated cell resolved");
        assert_eq!(e.node_at(Coord::new(0, 1)), Some(v));
        assert_eq!(e.coord(v), Coord::new(0, 1));
    }

    #[test]
    fn grow_then_shrink_heavy_churn_stays_consistent() {
        // A line through 20 chunks, grown and then emptied again.
        let mut e = editor(shapes::line(4));
        let mut grown: Vec<NodeId> = Vec::new();
        for i in 0..300 {
            let (v, links) = e.insert(Coord::new(4 + i, 0));
            assert!(!links.is_empty());
            grown.push(v);
        }
        assert_eq!(e.len(), 304);
        for &v in grown.iter().rev() {
            assert!(e.can_remove(v));
            e.remove(v);
        }
        assert_eq!(e.len(), 4);
        let (s, map) = e.snapshot();
        assert_eq!(s.len(), 4);
        assert!(s.is_hole_free());
        for (id, &dense) in map.iter().take(4).enumerate() {
            assert_eq!(dense, Some(NodeId(id as u32)));
        }
        assert!(map[4..].iter().all(Option::is_none));
    }

    #[test]
    fn snapshot_maps_live_ids_densely() {
        let mut e = editor(shapes::parallelogram(4, 2));
        // Remove a boundary node in the middle of the id range.
        let victim = NodeId(3);
        assert!(e.can_remove(victim));
        e.remove(victim);
        let (s, map) = e.snapshot();
        assert_eq!(s.len(), 7);
        assert!(s.is_hole_free());
        assert_eq!(map[victim.index()], None);
        for (id, &dense) in map.iter().enumerate() {
            if let Some(dense) = dense {
                assert_eq!(s.coord(dense), e.coord(NodeId(id as u32)));
            }
        }
    }

    #[test]
    fn scoped_revalidation_accepts_legal_churn() {
        let mut e = editor(shapes::hexagon(2));
        assert!(e.revalidate_edited_chunks(), "no edits pending");
        let (v, _) = e.insert(Coord::new(3, 0));
        e.remove(v);
        assert!(e.revalidate_edited_chunks());
        // The set is consumed: a second call is trivially clean.
        assert!(e.revalidate_edited_chunks());
    }

    /// Edits scattered across far-apart chunks form separate clusters:
    /// each floods its own small box (a long thin structure would make a
    /// single shared bounding box structure-sized), and a pocket forced
    /// into *one* cluster is still caught while the other validates.
    #[test]
    fn scoped_revalidation_handles_scattered_clusters() {
        // A long line spanning many chunks; edit legally at both ends.
        let mut e = editor(shapes::line(200));
        let (a, _) = e.insert(Coord::new(-1, 0));
        let (b, _) = e.insert(Coord::new(200, 0));
        assert!(e.revalidate_edited_chunks(), "legal edits at both ends");
        e.remove(a);
        e.remove(b);
        assert!(e.revalidate_edited_chunks());
        // Force a pocket near the west end only: the far cluster passes,
        // the west cluster must still flag it.
        let ring: Vec<Coord> = Coord::new(0, -3).neighbors().to_vec();
        for &c in &ring {
            e.cells.set(c, 0);
            e.touch_chunks(c);
        }
        e.touch_chunks(Coord::new(199, 0)); // a second, clean far cluster
        assert!(
            !e.revalidate_edited_chunks(),
            "the enclosed pocket in the west cluster must be detected"
        );
    }

    /// Decode refuses edited chunks beyond the band's: two keys that
    /// straddle the end of the `i32` range would wrap a revalidation box
    /// around the whole range.
    #[test]
    fn decode_refuses_edited_chunks_beyond_the_band() {
        let mut e = editor(shapes::line(3));
        e.edited.extend([((1 << 27) - 1, 0), (1 << 27, 0)]);
        let mut w = SnapshotWriter::new(0);
        e.encode_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes, 0).unwrap();
        assert!(matches!(
            StructureEditor::decode_snapshot(&mut r),
            Err(WireError::BadValue {
                what: "editor edited chunk",
                ..
            })
        ));
    }

    /// White-box: force a pocket past the arc rule to prove the scoped
    /// flood fill actually detects enclosed vacancies.
    #[test]
    fn scoped_revalidation_detects_a_forced_pocket() {
        let ring: Vec<Coord> = Coord::origin().neighbors().to_vec();
        let mut open = ring.clone();
        open.remove(5);
        let mut e = editor(open);
        // Bypass `insert` (which would reject): splice the closing cell
        // straight into the cell map and mark its chunk edited.
        e.cells.set(ring[5], 0);
        e.touch_chunks(ring[5]);
        assert!(
            !e.revalidate_edited_chunks(),
            "the enclosed center must be reported as a hole"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::shapes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The full observable state of the editor's index + neighbor table,
    /// as seen through the public API.
    fn observable_state(e: &StructureEditor) -> Vec<(u32, Coord, [u32; 6])> {
        let mut out: Vec<(u32, Coord, [u32; 6])> = e
            .live_ids()
            .iter()
            .map(|&id| {
                let v = NodeId(id);
                let mut slots = [u32::MAX; 6];
                for (d, w) in e.neighbors_of(v) {
                    slots[d.index()] = w.0;
                }
                (id, e.coord(v), slots)
            })
            .collect();
        out.sort_unstable();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite: insert → remove round-trips restore the exact flat
        /// index and neighbor table, across random blobs, random attach
        /// points, and bursts long enough to cross merge thresholds.
        #[test]
        fn insert_remove_round_trip_restores_state(seed in 0u64..1000, n in 5usize..40, burst in 1usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            let mut e = StructureEditor::from_structure(&s);
            let before = observable_state(&e);
            let (snap_before, _) = e.snapshot();
            // A burst of boundary insertions...
            let mut inserted = Vec::new();
            let mut tries = 0;
            while inserted.len() < burst && tries < 200 {
                tries += 1;
                let &anchor = &e.live_ids()[rng.gen_range(0..e.len())];
                let d = crate::coord::ALL_DIRECTIONS[rng.gen_range(0..6)];
                let cell = e.coord(NodeId(anchor)).neighbor(d);
                if e.can_insert(cell) {
                    let (v, links) = e.insert(cell);
                    // Every reported link is mirrored on the peer side.
                    for (dir, w) in links {
                        prop_assert_eq!(e.neighbor(w, dir.opposite()), Some(v));
                    }
                    inserted.push(v);
                }
            }
            prop_assert!(!inserted.is_empty(), "no insertable cell found");
            prop_assert!(e.revalidate_edited_chunks());
            // ...then unwind it in reverse order (reverse order keeps
            // every step legal: each node re-exposes its predecessor).
            for &v in inserted.iter().rev() {
                prop_assert!(e.can_remove(v));
                e.remove(v);
            }
            prop_assert!(e.revalidate_edited_chunks());
            prop_assert_eq!(observable_state(&e), before);
            let (snap_after, _) = e.snapshot();
            prop_assert_eq!(snap_after.len(), snap_before.len());
            for v in snap_before.nodes() {
                prop_assert_eq!(snap_after.coord(v), snap_before.coord(v));
            }
            prop_assert!(snap_after.is_hole_free());
        }

        /// Random legal churn keeps every invariant: connected, hole-free
        /// snapshots whose adjacency equals the editor's table, and a cell
        /// map that answers every cell of the snapshot's box and margin as
        /// the snapshot does. Up to 160 events on up to 64 cells pass the
        /// `32 + 4·√n` edits at which a sorted index with an overlay would
        /// have merged.
        #[test]
        fn random_churn_preserves_invariants(seed in 0u64..1000, n in 4usize..64, events in 1usize..160) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            let mut e = StructureEditor::from_structure(&s);
            for _ in 0..events {
                if rng.gen_bool(0.5) {
                    let &anchor = &e.live_ids()[rng.gen_range(0..e.len())];
                    let d = crate::coord::ALL_DIRECTIONS[rng.gen_range(0..6)];
                    let cell = e.coord(NodeId(anchor)).neighbor(d);
                    if e.can_insert(cell) {
                        e.insert(cell);
                    }
                } else {
                    let &victim = &e.live_ids()[rng.gen_range(0..e.len())];
                    if e.can_remove(NodeId(victim)) {
                        e.remove(NodeId(victim));
                    }
                }
                prop_assert!(e.revalidate_edited_chunks());
            }
            let (snap, map) = e.snapshot();
            prop_assert!(snap.is_hole_free());
            prop_assert_eq!(snap.len(), e.len());
            for id in 0..e.capacity() {
                let v = NodeId(id as u32);
                match map[id] {
                    None => prop_assert!(!e.is_alive(v)),
                    Some(dense) => {
                        prop_assert_eq!(snap.coord(dense), e.coord(v));
                        for d in crate::coord::ALL_DIRECTIONS {
                            let via_editor = e.neighbor(v, d).map(|w| map[w.index()].unwrap());
                            prop_assert_eq!(snap.neighbor(dense, d), via_editor);
                        }
                    }
                }
            }
            let (min_q, max_q, min_r, max_r) = snap.bounding_box();
            for q in min_q - 1..=max_q + 1 {
                for r in min_r - 1..=max_r + 1 {
                    let c = Coord::new(q, r);
                    let via_editor = e.node_at(c).map(|v| map[v.index()].unwrap());
                    prop_assert_eq!(via_editor, snap.node_at(c), "cell {}", c);
                    prop_assert_eq!(e.occupied(c), snap.occupied(c), "cell {}", c);
                }
            }
        }
    }
}
