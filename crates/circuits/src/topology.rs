//! Port-labelled communication topologies.
//!
//! A [`Topology`] is the graph `G_X` (or an abstract tree, for the tree
//! primitives of §3 which are "not limited to the geometric variant") with a
//! local *port numbering*: each node refers to its incident edges by a port
//! index, and each edge knows the port it occupies on either endpoint. This
//! models the paper's assumption that "neighboring amoebots have a common
//! labeling of their incident external links" (§1.2).

use amoebot_grid::{AmoebotStructure, Direction, NodeId, ALL_DIRECTIONS};

/// A port index local to a node (`0..ports_len(v)`). For topologies derived
/// from an [`AmoebotStructure`], port `i` corresponds to
/// [`Direction::from_index`]`(i)` (some ports may be vacant).
pub type PortId = usize;

/// Decoders (trace replay, world snapshots) reject node port counts and
/// links-per-edge counts `c` above this as malformed: no generator in
/// this workspace builds nodes with more than 6 ports (the triangular
/// grid), and an absurd count would let one flipped varint byte allocate
/// unbounded memory.
pub(crate) const MAX_PORTS: u32 = 64;

/// Vacant-port sentinel in the flat slot arrays.
pub(crate) const NONE: u32 = u32::MAX;

/// An undirected, port-labelled multigraph-free topology.
///
/// Stored struct-of-arrays in CSR form: `offsets[v]..offsets[v + 1]`
/// delimits node `v`'s port slots in the flat `peer_node`/`peer_port`
/// arrays (vacant slots hold a sentinel). The old representation — a
/// `Vec` of per-node `Vec<Option<(usize, usize)>>` — cost one heap
/// allocation and ~170 bytes per node; a 10^6-node world now touches two
/// contiguous `u32` arrays instead.
#[derive(Debug, Clone)]
pub struct Topology {
    /// CSR row offsets: node `v` owns slots `offsets[v]..offsets[v + 1]`.
    pub(crate) offsets: Vec<u32>,
    /// Peer node id per slot ([`NONE`] = vacant).
    pub(crate) peer_node: Vec<u32>,
    /// Peer-side port per slot (undefined for vacant slots).
    pub(crate) peer_port: Vec<u32>,
    pub(crate) edge_count: usize,
}

impl Topology {
    /// Builds a topology from an undirected edge list over nodes `0..n`.
    /// Ports are assigned in order of appearance.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Topology {
        // Reject malformed inputs up front, before any CSR is built: a
        // self-loop or duplicate edge would otherwise produce a CSR whose
        // port mutuality silently breaks (two slots claiming the same
        // peer port).
        let mut degree = vec![0u32; n];
        let mut normalized: Vec<(usize, usize)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert!(u != v, "self-loop edge ({u}, {v}) is not allowed");
            normalized.push((u.min(v), u.max(v)));
            degree[u] += 1;
            degree[v] += 1;
        }
        normalized.sort_unstable();
        for w in normalized.windows(2) {
            assert!(
                w[0] != w[1],
                "duplicate edge ({}, {}) in edge list",
                w[0].0,
                w[0].1
            );
        }
        drop(normalized);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for &d in &degree {
            offsets.push(acc);
            acc += d;
        }
        offsets.push(acc);
        let mut filled = vec![0u32; n];
        let mut peer_node = vec![NONE; acc as usize];
        let mut peer_port = vec![NONE; acc as usize];
        for &(u, v) in edges {
            let pu = filled[u];
            let pv = filled[v];
            filled[u] += 1;
            filled[v] += 1;
            let su = (offsets[u] + pu) as usize;
            let sv = (offsets[v] + pv) as usize;
            peer_node[su] = v as u32;
            peer_port[su] = pv;
            peer_node[sv] = u as u32;
            peer_port[sv] = pu;
        }
        Topology {
            offsets,
            peer_node,
            peer_port,
            edge_count: edges.len(),
        }
    }

    /// Builds a topology in one pass from per-node port counts and an
    /// explicit port-to-port edge list — the bulk equivalent of
    /// [`Topology::push_node`] + [`Topology::connect`], used by trace
    /// replay to rebuild a recorded starting world without paying the
    /// incremental splice path per edge. Unlike the panicking
    /// constructors this validates untrusted input: out-of-range
    /// endpoints or ports, self-loops, occupied ports and duplicate
    /// node pairs are reported, not asserted.
    pub fn from_ports(
        node_ports: &[u32],
        edges: &[(u32, u32, u32, u32)],
    ) -> Result<Topology, String> {
        let n = node_ports.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc: u32 = 0;
        for &ports in node_ports {
            offsets.push(acc);
            acc = acc
                .checked_add(ports)
                .ok_or_else(|| "total port count overflows u32".to_string())?;
        }
        offsets.push(acc);
        let mut peer_node = vec![NONE; acc as usize];
        let mut peer_port = vec![NONE; acc as usize];
        for &(v, p, w, q) in edges {
            if v as usize >= n || w as usize >= n {
                return Err(format!("edge ({v}, {w}) endpoint out of range ({n} nodes)"));
            }
            if v == w {
                return Err(format!("self-loop edge at node {v}"));
            }
            if p >= node_ports[v as usize] || q >= node_ports[w as usize] {
                return Err(format!("edge ({v}:{p}, {w}:{q}) port out of range"));
            }
            let sv = (offsets[v as usize] + p) as usize;
            let sw = (offsets[w as usize] + q) as usize;
            if peer_node[sv] != NONE || peer_node[sw] != NONE {
                return Err(format!("edge ({v}:{p}, {w}:{q}) lands on an occupied port"));
            }
            // Parallel-edge check: scan v's already-filled slots for w.
            // Port counts are tiny (≤ 6 on the triangular grid), so this
            // beats collecting and sorting the full pair list.
            let (lo, hi) = (
                offsets[v as usize] as usize,
                offsets[v as usize + 1] as usize,
            );
            if peer_node[lo..hi].contains(&w) {
                return Err(format!("duplicate edge ({}, {})", v.min(w), v.max(w)));
            }
            peer_node[sv] = w;
            peer_port[sv] = q;
            peer_node[sw] = v;
            peer_port[sw] = p;
        }
        Ok(Topology {
            offsets,
            peer_node,
            peer_port,
            edge_count: edges.len(),
        })
    }

    /// Builds the topology of `G_X` with ports indexed by [`Direction`]:
    /// port `d.index()` of node `v` leads to the neighbor in direction `d`
    /// (vacant if unoccupied). Every node has exactly 6 port slots.
    pub fn from_structure(structure: &AmoebotStructure) -> Topology {
        Topology::from_neighbors(structure.len(), |v, d| structure.neighbor(v, d))
    }

    /// Nodes `0..n` with 6 port slots each: port `d` of `v` holds
    /// `neighbor(v, d)`, at its port `opposite(d)`. Over an editor's id
    /// space this is the topology a `DynamicWorld` keeps.
    pub fn from_neighbors(
        n: usize,
        neighbor: impl Fn(NodeId, Direction) -> Option<NodeId>,
    ) -> Topology {
        let offsets: Vec<u32> = (0..=n as u32).map(|v| v * 6).collect();
        let mut peer_node = vec![NONE; n * 6];
        let mut peer_port = vec![NONE; n * 6];
        let mut edge_count = 0;
        for v in (0..n as u32).map(NodeId) {
            for d in ALL_DIRECTIONS {
                if let Some(w) = neighbor(v, d) {
                    let slot = v.index() * 6 + d.index();
                    peer_node[slot] = w.0;
                    peer_port[slot] = d.opposite().index() as u32;
                    if v.index() < w.index() {
                        edge_count += 1;
                    }
                }
            }
        }
        Topology {
            offsets,
            peer_node,
            peer_port,
            edge_count,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the topology has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of port slots of `v` (vacant slots included).
    #[inline]
    pub fn ports_len(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The neighbor behind port `p` of `v` and the port the edge occupies on
    /// the neighbor's side, or `None` for a vacant slot.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for `v` — also in release builds: in
    /// the flat CSR arrays an unchecked out-of-range port would silently
    /// read a *different node's* slot (the pre-CSR nested-`Vec` layout
    /// panicked here too, via its inner indexing).
    #[inline]
    pub fn peer(&self, v: usize, p: PortId) -> Option<(usize, PortId)> {
        let count = self.ports_len(v);
        if p >= count {
            Self::port_out_of_range(v, p, count);
        }
        let slot = self.offsets[v] as usize + p;
        let w = self.peer_node[slot];
        (w != NONE).then(|| (w as usize, self.peer_port[slot] as usize))
    }

    /// Outlined panic for [`Topology::peer`]: keeps the formatting
    /// machinery out of the inlined hot path while the range check itself
    /// stays on.
    #[cold]
    #[inline(never)]
    fn port_out_of_range(v: usize, p: PortId, count: usize) -> ! {
        panic!("port {p} out of range for node {v} ({count} slots)");
    }

    /// Iterator over the occupied ports of `v` as `(port, neighbor, peer_port)`.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (PortId, usize, PortId)> + '_ {
        let start = self.offsets[v] as usize;
        let end = self.offsets[v + 1] as usize;
        (start..end).filter_map(move |slot| {
            let w = self.peer_node[slot];
            (w != NONE).then(|| (slot - start, w as usize, self.peer_port[slot] as usize))
        })
    }

    /// Degree of `v` (occupied ports).
    pub fn degree(&self, v: usize) -> usize {
        let start = self.offsets[v] as usize;
        let end = self.offsets[v + 1] as usize;
        self.peer_node[start..end]
            .iter()
            .filter(|&&w| w != NONE)
            .count()
    }

    /// The port of `v` that leads to `w`, if the two are adjacent.
    pub fn port_to(&self, v: usize, w: usize) -> Option<PortId> {
        self.neighbors(v)
            .find(|&(_, x, _)| x == w)
            .map(|(p, _, _)| p)
    }

    /// The grid direction of port `p` for structure-derived topologies.
    ///
    /// # Panics
    ///
    /// Panics if `p >= 6`.
    pub fn port_direction(p: PortId) -> Direction {
        Direction::from_index(p)
    }

    // ---- Incremental edits (dynamic structures).
    //
    // The CSR rows are fixed-width per node (every node of a
    // structure-derived topology owns 6 slots, vacant ones holding a
    // sentinel), so an edit never moves another node's row: appending a
    // node pushes one offset and `slots` sentinel entries, and wiring or
    // unwiring an edge writes exactly the two slots it occupies — the
    // O(Δ) splice the dynamic-structure subsystem builds on.

    /// Appends a node with `slots` vacant port slots and returns its id.
    pub fn push_node(&mut self, slots: usize) -> usize {
        let v = self.len();
        let end = *self.offsets.last().expect("offsets always non-empty");
        self.offsets.push(end + slots as u32);
        self.peer_node.resize(self.peer_node.len() + slots, NONE);
        self.peer_port.resize(self.peer_port.len() + slots, NONE);
        v
    }

    /// Wires an undirected edge into the vacant slots `(v, p)` and
    /// `(w, q)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or ports, on a self-loop, on a
    /// duplicate (parallel) edge — two vacant slots could otherwise wire
    /// a second `v`–`w` edge, which the model forbids — or if either
    /// slot is already occupied.
    pub fn connect(&mut self, v: usize, p: PortId, w: usize, q: PortId) {
        assert!(v != w, "self-loop edge ({v}, {w}) is not allowed");
        assert!(
            self.port_to(v, w).is_none(),
            "duplicate edge ({v}, {w}): the nodes are already adjacent"
        );
        let sv = self.slot(v, p);
        let sw = self.slot(w, q);
        assert!(
            self.peer_node[sv] == NONE,
            "port {p} of node {v} is already occupied"
        );
        assert!(
            self.peer_node[sw] == NONE,
            "port {q} of node {w} is already occupied"
        );
        self.peer_node[sv] = w as u32;
        self.peer_port[sv] = q as u32;
        self.peer_node[sw] = v as u32;
        self.peer_port[sw] = p as u32;
        self.edge_count += 1;
    }

    /// Unwires the edge behind port `p` of `v`, vacating both endpoint
    /// slots, and returns the peer `(w, q)` it occupied.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant or out of range.
    pub fn disconnect(&mut self, v: usize, p: PortId) -> (usize, PortId) {
        let (w, q) = self
            .peer(v, p)
            .unwrap_or_else(|| panic!("port {p} of node {v} carries no edge"));
        let sv = self.slot(v, p);
        let sw = self.slot(w, q);
        debug_assert_eq!(self.peer_node[sw], v as u32, "port tables out of sync");
        self.peer_node[sv] = NONE;
        self.peer_port[sv] = NONE;
        self.peer_node[sw] = NONE;
        self.peer_port[sw] = NONE;
        self.edge_count -= 1;
        (w, q)
    }

    /// The flat slot index of `(v, p)`, range-checked.
    #[inline]
    fn slot(&self, v: usize, p: PortId) -> usize {
        let count = self.ports_len(v);
        if p >= count {
            Self::port_out_of_range(v, p, count);
        }
        self.offsets[v] as usize + p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, Coord};

    #[test]
    fn edge_list_ports_are_mutual() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.degree(1), 3);
        for v in 0..4 {
            for (p, w, q) in t.neighbors(v) {
                assert_eq!(t.peer(w, q), Some((v, p)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate edge (0, 1)")]
    fn rejects_duplicate_edges() {
        Topology::from_edges(2, &[(0, 1), (1, 0)]);
    }

    /// Self-loops must be rejected by name before any CSR is built: an
    /// unchecked `(v, v)` edge would assign two ports of the same node to
    /// each other and break port mutuality.
    #[test]
    #[should_panic(expected = "self-loop edge (1, 1)")]
    fn rejects_self_loops() {
        Topology::from_edges(3, &[(0, 1), (1, 1)]);
    }

    /// Duplicate edges are rejected regardless of orientation or
    /// position in the list (the normalized sort catches both).
    #[test]
    #[should_panic(expected = "duplicate edge (1, 2)")]
    fn rejects_duplicate_edges_same_orientation() {
        Topology::from_edges(4, &[(1, 2), (0, 1), (1, 2)]);
    }

    /// The incremental splice: growing a structure-shaped topology node
    /// by node and edge by edge yields exactly `from_structure`'s CSR
    /// behavior, and disconnect restores vacancy.
    #[test]
    fn splice_grows_and_unwires_edges() {
        let s = AmoebotStructure::new(shapes::parallelogram(3, 2)).unwrap();
        let reference = Topology::from_structure(&s);
        // Rebuild it through the splice API.
        let mut t = Topology::from_edges(0, &[]);
        for _ in 0..s.len() {
            t.push_node(6);
        }
        for v in s.nodes() {
            for (d, w) in s.neighbors_of(v) {
                if v.index() < w.index() {
                    t.connect(v.index(), d.index(), w.index(), d.opposite().index());
                }
            }
        }
        assert_eq!(t.len(), reference.len());
        assert_eq!(t.edge_count(), reference.edge_count());
        for v in 0..t.len() {
            assert_eq!(t.ports_len(v), 6);
            for p in 0..6 {
                assert_eq!(t.peer(v, p), reference.peer(v, p), "node {v} port {p}");
            }
        }
        // Unwire one edge: both slots vacate, everything else unchanged.
        let (p, w, q) = t.neighbors(0).next().unwrap();
        assert_eq!(t.disconnect(0, p), (w, q));
        assert_eq!(t.peer(0, p), None);
        assert_eq!(t.peer(w, q), None);
        assert_eq!(t.edge_count(), reference.edge_count() - 1);
        // Rewire it: back to the reference.
        t.connect(0, p, w, q);
        assert_eq!(t.peer(0, p), reference.peer(0, p));
        assert_eq!(t.edge_count(), reference.edge_count());
    }

    #[test]
    #[should_panic(expected = "already adjacent")]
    fn splice_rejects_parallel_edges() {
        let mut t = Topology::from_edges(0, &[]);
        t.push_node(6);
        t.push_node(6);
        t.connect(0, 0, 1, 3);
        t.connect(0, 1, 1, 4);
    }

    #[test]
    #[should_panic(expected = "carries no edge")]
    fn disconnect_requires_an_edge() {
        let mut t = Topology::from_edges(2, &[(0, 1)]);
        // from_edges assigns dense ports; node 0 has exactly one slot, so
        // grow a vacant-slot node to exercise the vacant-disconnect panic.
        let v = t.push_node(6);
        t.disconnect(v, 2);
    }

    /// Out-of-range ports must panic in release builds too: in the flat
    /// CSR arrays an unchecked port would read a different node's slot.
    #[test]
    #[should_panic(expected = "port 1 out of range for node 0")]
    fn peer_bounds_check_holds_in_release() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let _ = t.peer(0, 1); // node 0 has exactly 1 port
    }

    #[test]
    fn structure_ports_follow_directions() {
        let s = AmoebotStructure::new(shapes::parallelogram(3, 2)).unwrap();
        let t = Topology::from_structure(&s);
        assert_eq!(t.edge_count(), s.edge_count());
        let v = s.node_at(Coord::new(1, 0)).unwrap();
        let e = s.node_at(Coord::new(2, 0)).unwrap();
        let p = Direction::E.index();
        assert_eq!(
            t.peer(v.index(), p),
            Some((e.index(), Direction::W.index()))
        );
        // Mutuality across the whole structure.
        for v in 0..t.len() {
            for (p, w, q) in t.neighbors(v) {
                assert_eq!(t.peer(w, q), Some((v, p)));
                assert_eq!(
                    Topology::port_direction(q),
                    Topology::port_direction(p).opposite()
                );
            }
        }
    }
}
