//! The editor–engine pair and the rebuild oracle.

use amoebot_circuits::{Topology, World};
use amoebot_grid::{AmoebotStructure, Coord, NodeId, StructureEditor, ALL_DIRECTIONS};
use amoebot_telemetry::{NullRecorder, Recorder};
use std::collections::BTreeMap;

/// A simulated world whose structure can churn at runtime.
///
/// The two halves share one id space: editor node ids *are* world node
/// ids. A removed amoebot leaves a tombstone on both sides (the editor
/// frees the id for recycling; the world keeps the node isolated with
/// singleton pins), and a later insertion reuses the tombstone — the
/// world only ever grows by genuinely new ids, so pin bases never
/// renumber and the engine's cached labeling survives every event.
#[derive(Debug, Clone)]
pub struct DynamicWorld {
    pub(crate) editor: StructureEditor,
    pub(crate) world: World,
}

impl DynamicWorld {
    /// Wraps `structure` (ids preserved) with `c` links per edge.
    pub fn new(structure: &AmoebotStructure, c: usize) -> DynamicWorld {
        DynamicWorld {
            editor: StructureEditor::from_structure(structure),
            world: World::new(Topology::from_structure(structure), c),
        }
    }

    /// Number of live amoebots.
    #[inline]
    pub fn len(&self) -> usize {
        self.editor.len()
    }

    /// Whether no amoebot is live (never true; removal keeps one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.editor.is_empty()
    }

    /// The geometry half (read-only: edits must go through
    /// [`DynamicWorld::insert`]/[`DynamicWorld::remove`] so the world
    /// stays in sync).
    #[inline]
    pub fn editor(&self) -> &StructureEditor {
        &self.editor
    }

    /// The simulator half, read-only.
    #[inline]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The simulator half, mutable — for pin configuration, beeps and
    /// ticks. Structure mutation must go through
    /// [`DynamicWorld::insert`]/[`DynamicWorld::remove`].
    #[inline]
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Both halves at once: the geometry read-only, the simulator
    /// mutable — for loops over [`StructureEditor::live_ids`] that read
    /// deliveries ([`World::received`] takes `&mut`) without copying
    /// the live list.
    #[inline]
    pub fn editor_and_world_mut(&mut self) -> (&StructureEditor, &mut World) {
        (&self.editor, &mut self.world)
    }

    /// Whether an amoebot may join at `coord` (vacant, attached,
    /// hole-safe — see [`StructureEditor::can_insert`]).
    #[inline]
    pub fn can_insert(&self, coord: Coord) -> bool {
        self.editor.can_insert(coord)
    }

    /// Whether `v` may leave (see [`StructureEditor::can_remove`]).
    #[inline]
    pub fn can_remove(&self, v: NodeId) -> bool {
        self.editor.can_remove(v)
    }

    /// An amoebot joins at `coord`: the editor splices the geometry, the
    /// world grows (or recycles a tombstone id) and wires the new edges
    /// through its dirty-pin machinery. The new node starts in the
    /// singleton pin configuration. O(Δ · c) amortized.
    ///
    /// # Panics
    ///
    /// Panics if [`DynamicWorld::can_insert`] is false for `coord`.
    pub fn insert(&mut self, coord: Coord) -> NodeId {
        self.insert_with(coord, &mut NullRecorder)
    }

    /// [`DynamicWorld::insert`] with the structure edits recorded
    /// (node append, if any, plus every spliced edge).
    pub fn insert_with<R: Recorder>(&mut self, coord: Coord, rec: &mut R) -> NodeId {
        let (v, links) = self.editor.insert(coord);
        if v.index() >= self.world.topology().len() {
            let appended = self.world.add_node_with(6, rec);
            debug_assert_eq!(appended, v.index(), "id spaces out of sync");
        }
        for (d, peer) in links {
            self.world.connect_with(
                v.index(),
                d.index(),
                peer.index(),
                d.opposite().index(),
                rec,
            );
        }
        v
    }

    /// Amoebot `v` leaves: the world severs its edges (dirtying exactly
    /// the circuits that ran through them) and the editor frees the id.
    /// O(Δ · c) amortized.
    ///
    /// # Panics
    ///
    /// Panics if [`DynamicWorld::can_remove`] is false for `v`.
    pub fn remove(&mut self, v: NodeId) {
        self.remove_with(v, &mut NullRecorder)
    }

    /// [`DynamicWorld::remove`] with the departure recorded.
    pub fn remove_with<R: Recorder>(&mut self, v: NodeId, rec: &mut R) {
        assert!(
            self.editor.can_remove(v),
            "node {v} is not removable from the structure"
        );
        self.world.isolate_with(v.index(), rec);
        self.editor.remove(v);
    }

    /// Scoped hole revalidation over the chunks churn has touched since
    /// the last call — defense in depth behind the per-edit arc rule
    /// (see [`StructureEditor::revalidate_edited_chunks`]). The churn
    /// scenario families run this after every event.
    pub fn revalidate_edited_chunks(&mut self) -> bool {
        self.editor.revalidate_edited_chunks()
    }

    /// From-scratch rebuild of the current state: a dense structure
    /// snapshot, a fresh world over it with the live nodes' pin
    /// configurations copied over, and the id map `old -> dense`. This is
    /// the oracle the differential suite compares against; it costs the
    /// O(n) the incremental path avoids.
    pub fn rebuild(&self) -> (AmoebotStructure, World, Vec<Option<NodeId>>) {
        let (structure, map) = self.editor.snapshot();
        let c = self.world.links_per_edge();
        let mut oracle = World::new(Topology::from_structure(&structure), c);
        for old in self.editor.live_ids() {
            let old = *old as usize;
            let dense = map[old].expect("live id maps to a dense id").index();
            for port in 0..6 {
                for link in 0..c {
                    oracle.set_pin(dense, port, link, self.world.pin_config(old, port, link));
                }
            }
        }
        (structure, oracle, map)
    }
}

/// Cross-validates the incrementally edited world against a from-scratch
/// rebuild: identical adjacency under the id map, identical circuit
/// partition up to relabeling (label-bijection over every live pin), and
/// identical beep delivery for a deterministic probe round. `Err` carries
/// a diagnostic naming the first divergence.
///
/// Mutates both worlds only through relabels and one probe tick of the
/// *oracle* (the incremental world's probe runs on a clone, so its round
/// counter and beep state are left untouched).
pub fn verify_against_rebuild(dw: &DynamicWorld) -> Result<(), String> {
    let (structure, mut oracle, map) = dw.rebuild();
    let c = dw.world.links_per_edge();
    let mut inc = dw.world.clone();

    // 1. Adjacency: editor, incremental topology and snapshot agree.
    for &old in dw.editor.live_ids() {
        let v = NodeId(old);
        let dense = map[old as usize].expect("live id maps densely");
        for d in ALL_DIRECTIONS {
            let via_editor = dw.editor.neighbor(v, d);
            let via_topo = inc
                .topology()
                .peer(old as usize, d.index())
                .map(|(w, _)| NodeId(w as u32));
            if via_editor != via_topo {
                return Err(format!(
                    "adjacency split-brain at {v} towards {d}: editor {via_editor:?}, topology {via_topo:?}"
                ));
            }
            let via_snapshot = structure.neighbor(dense, d);
            if via_editor.map(|w| map[w.index()]) != via_snapshot.map(Some) {
                return Err(format!(
                    "adjacency of {v} towards {d} disagrees with the rebuilt snapshot"
                ));
            }
        }
    }
    // Dead ids must be fully detached in the incremental topology.
    for old in 0..dw.editor.capacity() {
        if !dw.editor.is_alive(NodeId(old as u32)) && inc.topology().degree(old) != 0 {
            return Err(format!("dead node #{old} still has live edges"));
        }
    }

    // 2. Circuit partition up to relabeling: the label pairs over every
    // live pin must form a bijection.
    let mut fwd: BTreeMap<u32, u32> = BTreeMap::new();
    let mut bwd: BTreeMap<u32, u32> = BTreeMap::new();
    for &old in dw.editor.live_ids() {
        let dense = map[old as usize].expect("live id maps densely").index();
        for port in 0..6 {
            for link in 0..c {
                let pset = inc.pin_config(old as usize, port, link);
                let li = inc.pset_circuit(old as usize, pset);
                let lo = oracle.pset_circuit(dense, pset);
                if *fwd.entry(li).or_insert(lo) != lo || *bwd.entry(lo).or_insert(li) != li {
                    return Err(format!(
                        "circuit partition diverges at node #{old} pin (port {port}, link {link})"
                    ));
                }
            }
        }
    }

    // 3. Beep delivery: a deterministic probe set beeps on its pin-0
    // partition set; after one tick every live pin must agree.
    let live = dw.editor.live_ids();
    let stride = (live.len() / 4).max(1);
    for i in (0..live.len()).step_by(stride) {
        let old = live[i] as usize;
        let dense = map[old].expect("live id maps densely").index();
        let pset = inc.pin_config(old, 0, 0);
        inc.beep(old, pset);
        oracle.beep(dense, pset);
    }
    inc.tick();
    oracle.tick();
    for &old in live {
        let dense = map[old as usize].expect("live id maps densely").index();
        for pset in 0..(6 * c) as u16 {
            if inc.received(old as usize, pset) != oracle.received(dense, pset) {
                return Err(format!(
                    "beep delivery diverges at node #{old} pset {pset} (incremental {}, rebuilt {})",
                    inc.received(old as usize, pset),
                    oracle.received(dense, pset)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::shapes;

    fn blob(n: usize, seed: u64) -> AmoebotStructure {
        AmoebotStructure::new(shapes::random_blob(n, &mut crate::derive_rng(seed, 0))).unwrap()
    }

    #[test]
    fn insert_and_remove_keep_both_halves_in_sync() {
        let s = blob(20, 7);
        let mut dw = DynamicWorld::new(&s, 2);
        assert!(verify_against_rebuild(&dw).is_ok());
        // Grow three cells at the boundary.
        let mut added = Vec::new();
        let anchors: Vec<u32> = dw.editor().live_ids().to_vec();
        'outer: for anchor in anchors {
            for d in ALL_DIRECTIONS {
                let cell = dw.editor().coord(NodeId(anchor)).neighbor(d);
                if dw.can_insert(cell) {
                    added.push(dw.insert(cell));
                    if added.len() == 3 {
                        break 'outer;
                    }
                }
            }
        }
        assert_eq!(added.len(), 3);
        assert_eq!(dw.len(), 23);
        verify_against_rebuild(&dw).unwrap();
        for v in added {
            if dw.can_remove(v) {
                dw.remove(v);
            }
        }
        verify_against_rebuild(&dw).unwrap();
    }

    #[test]
    fn churned_global_circuit_still_spans_the_structure() {
        let s = blob(16, 3);
        let n = s.len();
        let mut dw = DynamicWorld::new(&s, 2);
        for v in 0..n {
            dw.world_mut().global_pin_config(v);
        }
        // Attach a new amoebot, put it on the global circuit too.
        let anchor = NodeId(dw.editor().live_ids()[0]);
        let cell = (0..6)
            .map(|i| dw.editor().coord(anchor).neighbor(ALL_DIRECTIONS[i]))
            .find(|&c| dw.can_insert(c))
            .expect("some neighbor cell is insertable");
        let v = dw.insert(cell);
        dw.world_mut().global_pin_config(v.index());
        verify_against_rebuild(&dw).unwrap();
        dw.world_mut().beep(v.index(), 0);
        dw.world_mut().tick();
        let (editor, world) = dw.editor_and_world_mut();
        for &live in editor.live_ids() {
            assert!(
                world.received(live as usize, 0),
                "node #{live} missed the broadcast from the newcomer"
            );
        }
    }

    #[test]
    fn rebuild_maps_configurations_onto_dense_ids() {
        let s = blob(12, 11);
        let mut dw = DynamicWorld::new(&s, 2);
        // A distinctive config on node 5: bridge its first two pins.
        dw.world_mut().group_pins(5, &[(0, 0), (1, 0)]);
        let (_, oracle, map) = dw.rebuild();
        let dense = map[5].unwrap().index();
        assert_eq!(
            oracle.pin_config(dense, 0, 0),
            dw.world().pin_config(5, 0, 0)
        );
        assert_eq!(
            oracle.pin_config(dense, 1, 0),
            dw.world().pin_config(5, 1, 0)
        );
    }

    #[test]
    #[should_panic(expected = "not removable")]
    fn removing_an_articulation_cell_panics() {
        let s = AmoebotStructure::new(shapes::line(3)).unwrap();
        let mut dw = DynamicWorld::new(&s, 1);
        dw.remove(NodeId(1));
    }
}
