//! Port-labelled communication topologies.
//!
//! A [`Topology`] is the graph `G_X` (or an abstract tree, for the tree
//! primitives of §3 which are "not limited to the geometric variant") with a
//! local *port numbering*: each node refers to its incident edges by a port
//! index, and each edge knows the port it occupies on either endpoint. This
//! models the paper's assumption that "neighboring amoebots have a common
//! labeling of their incident external links" (§1.2).
//!
//! [`Topology::check_edge`] states that assumption as the edge rule:
//! an edge joins two distinct nodes at two vacant ports, and two nodes
//! share at most one edge. Every constructor and edit that takes edges
//! from its caller is built on it. [`Topology::from_ports`] reports a
//! violation, for untrusted input such as a trace header;
//! [`Topology::from_edges`] and [`Topology::connect`] panic with the same
//! message. [`Topology::from_structure`] and [`Topology::from_neighbors`]
//! read a neighbor table that holds the rule already.

use amoebot_grid::{AmoebotStructure, Direction, NodeId, ALL_DIRECTIONS};

/// A port index local to a node (`0..ports_len(v)`). For topologies derived
/// from an [`AmoebotStructure`], port `i` corresponds to
/// [`Direction::from_index`]`(i)` (some ports may be vacant).
pub type PortId = usize;

/// Decoders reject a count above this as malformed: trace replay checks
/// each node's port count and the links per edge `c`, and the world's
/// snapshot section checks `c`. No generator in this workspace builds
/// nodes with more than 6 ports (the triangular grid), and an absurd
/// count would let one flipped varint byte allocate unbounded memory.
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
    /// Ports are assigned in order of appearance: each edge takes the
    /// next port of both endpoints.
    ///
    /// # Panics
    ///
    /// Panics on an edge that breaks the edge rule
    /// ([`Topology::check_edge`]): an out-of-range endpoint, a self-loop
    /// or a duplicate edge. Also panics on more than `u32::MAX` port
    /// slots in total.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Topology {
        let mut ports = vec![0u32; n];
        for &(u, v) in edges {
            for x in [u, v] {
                if let Some(count) = ports.get_mut(x) {
                    *count += 1;
                }
            }
        }
        let mut topo = Topology::vacant(&ports).unwrap_or_else(|e| invalid_edge(e));
        // Reused as each node's next port.
        ports.fill(0);
        for &(u, v) in edges {
            let next = |x: usize| ports.get(x).map_or(0, |&port| port as usize);
            let (p, q) = (next(u), next(v));
            topo.check_edge(u, p, v, q)
                .unwrap_or_else(|e| invalid_edge(e));
            topo.wire(u, p, v, q);
            ports[u] += 1;
            ports[v] += 1;
        }
        topo
    }

    /// Builds a topology in one pass from per-node port counts and an
    /// explicit port-to-port edge list: the bulk equivalent of
    /// [`Topology::push_node`] + [`Topology::connect`], used by trace
    /// replay to rebuild a recorded starting world without paying the
    /// incremental splice path per edge. It validates untrusted input:
    /// the first edge that breaks the edge rule
    /// ([`Topology::check_edge`]) is reported, not asserted.
    pub fn from_ports(
        node_ports: &[u32],
        edges: &[(u32, u32, u32, u32)],
    ) -> Result<Topology, String> {
        let mut topo = Topology::vacant(node_ports)?;
        for &(v, p, w, q) in edges {
            let (v, p, w, q) = (v as usize, p as usize, w as usize, q as usize);
            topo.check_edge(v, p, w, q)?;
            topo.wire(v, p, w, q);
        }
        Ok(topo)
    }

    /// Nodes with `node_ports[v]` vacant port slots each and no edge.
    fn vacant(node_ports: &[u32]) -> Result<Topology, String> {
        let mut offsets = Vec::with_capacity(node_ports.len() + 1);
        let mut acc: u32 = 0;
        offsets.push(acc);
        for &ports in node_ports {
            acc = acc
                .checked_add(ports)
                .ok_or("total port count overflows u32")?;
            offsets.push(acc);
        }
        Ok(Topology {
            offsets,
            peer_node: vec![NONE; acc as usize],
            peer_port: vec![NONE; acc as usize],
            edge_count: 0,
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

    /// The edge rule, checked for an edge from port `p` of `v` to port
    /// `q` of `w`: both endpoints are in range, the edge is no self-loop,
    /// both ports are in range, both slots are vacant, and `v` and `w`
    /// share no edge yet. This is the model's common labelling of links
    /// (§1.2 of the paper): each edge occupies one port at either end,
    /// and two nodes share at most one edge. Returns the first
    /// violation, in that order, one message per kind.
    pub fn check_edge(&self, v: usize, p: PortId, w: usize, q: PortId) -> Result<(), String> {
        let n = self.len();
        if v >= n || w >= n {
            return Err(format!("edge ({v}, {w}) endpoint out of range ({n} nodes)"));
        }
        if v == w {
            return Err(format!("self-loop edge ({v}, {w}) is not allowed"));
        }
        let (v0, v1) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
        let (w0, w1) = (self.offsets[w] as usize, self.offsets[w + 1] as usize);
        for (x, port, count) in [(v, p, v1 - v0), (w, q, w1 - w0)] {
            if port >= count {
                return Err(format!(
                    "port {port} out of range for node {x} ({count} slots)"
                ));
            }
        }
        for (x, port, slot) in [(v, p, v0 + p), (w, q, w0 + q)] {
            if self.peer_node[slot] != NONE {
                return Err(format!("port {port} of node {x} is already occupied"));
            }
        }
        // Scan the row with fewer slots for the other endpoint, so that a
        // hub's edges cost their leaves' rows, not the hub's.
        let (row, other) = if v1 - v0 <= w1 - w0 {
            (v0..v1, w)
        } else {
            (w0..w1, v)
        };
        if self.peer_node[row].contains(&(other as u32)) {
            return Err(format!(
                "duplicate edge ({}, {}): the nodes are already adjacent",
                v.min(w),
                v.max(w)
            ));
        }
        Ok(())
    }

    /// Wires an undirected edge into the vacant slots `(v, p)` and
    /// `(w, q)`.
    ///
    /// # Panics
    ///
    /// Panics on an edge that breaks the edge rule
    /// ([`Topology::check_edge`]).
    pub fn connect(&mut self, v: usize, p: PortId, w: usize, q: PortId) {
        self.check_edge(v, p, w, q)
            .unwrap_or_else(|e| invalid_edge(e));
        self.wire(v, p, w, q);
    }

    /// Writes an edge that passed [`Topology::check_edge`] into its two
    /// slots.
    #[inline]
    fn wire(&mut self, v: usize, p: PortId, w: usize, q: PortId) {
        let sv = self.offsets[v] as usize + p;
        let sw = self.offsets[w] as usize + q;
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
        let sv = self.offsets[v] as usize + p;
        let sw = self.offsets[w] as usize + q;
        debug_assert_eq!(self.peer_node[sw], v as u32, "port tables out of sync");
        self.peer_node[sv] = NONE;
        self.peer_port[sv] = NONE;
        self.peer_node[sw] = NONE;
        self.peer_port[sw] = NONE;
        self.edge_count -= 1;
        (w, q)
    }
}

/// Raises an invalid edge (an edge-rule violation, or an edge list with
/// more slots than `u32` offsets address) for the constructors and edits
/// whose callers supply edges they built themselves
/// ([`Topology::from_edges`], [`Topology::connect`]), where it is a bug
/// in the caller, not bad input.
#[cold]
#[inline(never)]
fn invalid_edge(violation: String) -> ! {
    // spf-lint: allow(panic-surface) — the edge rule's panicking entry points, each documented under `# Panics`
    panic!("{violation}")
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

    /// Self-loops must be rejected by name before the edge is wired: an
    /// unchecked `(v, v)` edge would assign two ports of the same node to
    /// each other and break port mutuality.
    #[test]
    #[should_panic(expected = "self-loop edge (1, 1)")]
    fn rejects_self_loops() {
        Topology::from_edges(3, &[(0, 1), (1, 1)]);
    }

    /// Duplicate edges are rejected regardless of orientation or
    /// position in the list (the adjacency scan catches both).
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
