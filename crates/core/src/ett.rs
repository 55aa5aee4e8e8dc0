//! The Euler tour technique (ETT) on reconfigurable circuits (§3.1).
//!
//! For a tree `T` rooted at `r`, every undirected edge is replaced by two
//! directed traversals; the Euler tour visits all `2(n-1)` directed edges
//! starting and ending at `r` ("the next edge after `(u,v)` is `(v,w)` where
//! `w` is the next counterclockwise neighbor of `v` with respect to `u`").
//! Every node operates one PASC *instance* per occurrence on the tour
//! (Remark 16: `Θ(deg(v))` instances, O(1) memory each).
//!
//! Given marks `w_Q` (each node of `Q` marks exactly one outgoing edge —
//! here: its first occurrence as a tail on the tour), the PASC run over the
//! instance chain delivers, bit by bit:
//!
//! * at each instance, `prefixsum_e` of its outgoing edge `e` (the emitted
//!   bit) and of its incoming edge (the incoming-track bit), so each node
//!   can stream `prefixsum_(u,v) - prefixsum_(v,u)` for all neighbors
//!   (Lemma 14), and
//! * at the root's final instance, `W = |Q ∩ T|` (Corollary 15).

use std::ops::Range;

use amoebot_circuits::Topology;
use amoebot_pasc::{EdgeRef, InstanceSpec};

use crate::links::traversal_links;
use crate::tree::Tree;

/// The Euler tours of a forest of (node-disjoint) trees, compiled into PASC
/// instance specs plus the index maps the primitives need.
///
/// The index maps are per *slot*, one slot per directed tree edge: member
/// `i` of tree `t` owns the slots [`TourSet::slots`]`(t, tree, i)`, its
/// `j`-th slot for its `j`-th tree edge ([`Tree::adj_at`] order). Slots of
/// one tree follow its members in order, and the trees follow each other,
/// so everything here is sized by the trees, not by the structure.
#[derive(Debug, Clone)]
pub struct TourSet {
    /// PASC instance specs for all trees (run them as one [`amoebot_pasc::PascRun`]).
    pub specs: Vec<InstanceSpec>,
    /// Per tree: its first slot.
    pub(crate) slot_base: Vec<usize>,
    /// `out_inst[slot]` = index of the member's instance whose *outgoing*
    /// edge is the slot's edge.
    pub out_inst: Vec<u32>,
    /// `in_inst[slot]` = index of the member's instance whose *incoming*
    /// edge is the reverse of the slot's edge.
    pub in_inst: Vec<u32>,
    /// Per tree: the start instance (root, before the first edge).
    pub start_inst: Vec<usize>,
    /// Per tree: the root's final instance (computes `W`, Corollary 15).
    pub last_inst: Vec<usize>,
}

impl TourSet {
    /// The slots of member `i` of `tree`, the `t`-th tree the tours were
    /// built for, in adjacency order.
    #[inline]
    pub fn slots(&self, t: usize, tree: &Tree, i: usize) -> Range<usize> {
        let edges = tree.edges_at(i);
        self.slot_base[t] + edges.start..self.slot_base[t] + edges.end
    }
}

/// Builds the Euler tours for `trees` with node marks `q` (the weight
/// function `w_Q` of §3.1, a predicate on node ids read for tree members
/// only). Trees must be node-disjoint. O(tree members), whatever the
/// structure size.
///
/// # Panics
///
/// Panics if trees share nodes or tree edges are missing from `topo`.
pub fn build_tours(topo: &Topology, trees: &[Tree], q: impl Fn(usize) -> bool) -> TourSet {
    if trees.len() > 1 {
        let mut all: Vec<usize> = trees
            .iter()
            .flat_map(|t| t.members().iter().copied())
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert_ne!(w[0], w[1], "trees must be node-disjoint (node {})", w[0]);
        }
    }
    let mut slot_base = Vec::with_capacity(trees.len());
    let mut slots = 0;
    for tree in trees {
        slot_base.push(slots);
        slots += tree.directed_edges();
    }
    let mut specs: Vec<InstanceSpec> = Vec::with_capacity(slots + trees.len());
    let mut start_inst = Vec::with_capacity(trees.len());
    let mut last_inst = Vec::with_capacity(trees.len());
    let mut out_inst = vec![u32::MAX; slots];
    let mut in_inst = vec![u32::MAX; slots];
    // Per member of the current tree: whether its outgoing edge is marked.
    let mut marked: Vec<bool> = Vec::new();

    for (t, tree) in trees.iter().enumerate() {
        let base = specs.len();
        if tree.len() == 1 {
            // Degenerate single-node tree: one instance, no edges.
            specs.push(InstanceSpec {
                node: tree.root,
                pred: None,
                succs: Vec::new(),
                weight: q(tree.root),
            });
            start_inst.push(base);
            last_inst.push(base);
            continue;
        }

        // Walk the m = 2(|T| - 1) directed tour edges over member indices.
        // Local instance i has pred edge i - 1 (i >= 1) and succ edge i
        // (i < m); edge i is (u, v) with v = adj_at(u)[ju], and the next
        // edge leaves v towards the neighbor after u in v's cyclic order.
        let members = tree.members();
        marked.clear();
        marked.resize(members.len(), false);
        let m = tree.directed_edges();
        let root = tree.root_index();
        let (mut u, mut ju) = (root, 0);
        let mut pred = None;
        for i in 0..m {
            let v = tree.adj_at(u)[ju] as usize;
            let adj_v = tree.adj_at(v);
            let jv = adj_v
                .iter()
                .position(|&w| w as usize == u)
                .expect("tree adjacency must be symmetric");
            let (node_u, node_v) = (members[u], members[v]);
            // Designate marks: first outgoing occurrence of each node in Q.
            let mark = !marked[u] && q(node_u);
            marked[u] |= mark;
            let (p, s) = traversal_links(node_u, node_v);
            let port = topo
                .port_to(node_u, node_v)
                .expect("tree edge must exist in topology");
            specs.push(InstanceSpec {
                node: node_u,
                pred,
                succs: vec![EdgeRef::new(port, p, s)],
                weight: mark,
            });
            out_inst[slot_base[t] + tree.edges_at(u).start + ju] = (base + i) as u32;
            in_inst[slot_base[t] + tree.edges_at(v).start + jv] = (base + i + 1) as u32;
            let port = topo
                .port_to(node_v, node_u)
                .expect("tree edge must exist in topology");
            pred = Some(EdgeRef::new(port, p, s));
            (u, ju) = (v, (jv + 1) % adj_v.len());
        }
        assert_eq!(u, root, "Euler tour must return to the root");
        specs.push(InstanceSpec {
            node: tree.root,
            pred,
            succs: Vec::new(),
            weight: false,
        });
        start_inst.push(base);
        last_inst.push(base + m);
    }

    TourSet {
        specs,
        slot_base,
        out_inst,
        in_inst,
        start_inst,
        last_inst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::{Topology, World};
    use amoebot_pasc::PascRun;

    use crate::links::{LINKS, SYNC};

    fn star_plus_path() -> (Topology, Tree) {
        //   1   2
        //    \ /
        //     0 - 3 - 4
        let edges = [(0, 1), (0, 2), (0, 3), (3, 4)];
        let topo = Topology::from_edges(5, &edges);
        let tree = Tree::from_edges(5, 0, &edges);
        (topo, tree)
    }

    #[test]
    fn tour_shape() {
        let (topo, tree) = star_plus_path();
        let q = [true; 5];
        let ts = build_tours(&topo, std::slice::from_ref(&tree), |v| q[v]);
        // 2(n-1)+1 instances.
        assert_eq!(ts.specs.len(), 2 * 4 + 1);
        // Exactly one start (no pred) and one end (no succ).
        assert_eq!(ts.specs.iter().filter(|s| s.pred.is_none()).count(), 1);
        assert_eq!(ts.specs.iter().filter(|s| s.succs.is_empty()).count(), 1);
        // Every node in Q designates exactly one outgoing edge; total marks = |Q|.
        let marks = ts.specs.iter().filter(|s| s.weight).count();
        assert_eq!(marks, 5);
        // Each node has deg instances as tails.
        for (i, &v) in tree.members().iter().enumerate() {
            assert_eq!(ts.slots(0, &tree, i).len(), tree.adj(v).len());
            for slot in ts.slots(0, &tree, i) {
                assert_ne!(ts.out_inst[slot], u32::MAX);
                assert_ne!(ts.in_inst[slot], u32::MAX);
                assert_eq!(ts.specs[ts.out_inst[slot] as usize].node, v);
                assert_eq!(ts.specs[ts.in_inst[slot] as usize].node, v);
            }
        }
    }

    #[test]
    fn ett_prefix_sums_match_subtree_counts() {
        // Lemma 17: for the parent edge, prefixsum(u,p) - prefixsum(p,u) =
        // |Q ∩ subtree(u)|; verify by running the actual circuits.
        let (topo, tree) = star_plus_path();
        let q = [false, true, false, true, true]; // Q = {1, 3, 4}
        let ts = build_tours(&topo, std::slice::from_ref(&tree), |v| q[v]);
        let mut world = World::new(topo, LINKS);
        let mut run = PascRun::new(&mut world, ts.specs.clone(), SYNC);
        let values = run.run_to_completion(&mut world);
        // W at the root's last instance (Corollary 15).
        assert_eq!(values[ts.last_inst[0]], 3);
        // Subtree counts via the difference of prefix sums.
        let parents = tree.parents_from_root();
        let subtree_q = |v: usize| -> u64 {
            // centralized: count Q in subtree of v
            let mut cnt = 0;
            let mut stack = vec![v];
            let mut seen = [false; 5];
            seen[v] = true;
            while let Some(x) = stack.pop() {
                if q[x] {
                    cnt += 1;
                }
                for w in tree.adj(x) {
                    if !seen[w] && parents[w] == Some(x) {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            cnt
        };
        let slot = |v: usize, w: usize| {
            let j = tree.adj(v).position(|x| x == w).unwrap();
            ts.slots(0, &tree, tree.index_of(v).unwrap()).start + j
        };
        for v in 0..5 {
            if let Some(p) = parents[v] {
                let out = values[ts.out_inst[slot(v, p)] as usize];
                // The incoming prefix sum is the value of the *preceding*
                // instance, i.e. the peer's outgoing instance for (p, v).
                let inc = values[ts.out_inst[slot(p, v)] as usize];
                assert_eq!(out - inc, subtree_q(v), "subtree count at {v}");
            }
        }
        // Lemma 4 runtime: O(log W) iterations.
        assert!(run.iterations() <= 3);
    }

    /// The rewrite guard: a tour run writes every instance once, then only
    /// the instances that retire — not every instance every iteration.
    #[test]
    fn a_tour_run_rewrites_only_retired_instances() {
        use amoebot_grid::{shapes, AmoebotStructure, Axis};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(5);
        let s = AmoebotStructure::new(shapes::random_blob(10_000, &mut rng)).unwrap();
        let n = s.len();
        let members: Vec<usize> = (0..n).collect();
        let tree = crate::portals::axis_portals(&s, &members, Axis::X).tree_rooted_at(0);
        let mut q = vec![false; n];
        for v in shapes::random_subset(n, 8, &mut rng) {
            q[v] = true;
        }
        let topo = Topology::from_structure(&s);
        let ts = build_tours(&topo, std::slice::from_ref(&tree), |v| q[v]);
        let instances = ts.specs.len() as u64;
        let mut active: Vec<bool> = ts.specs.iter().map(|s| s.weight).collect();
        let mut world = World::new(topo, LINKS);
        let mut run = PascRun::new(&mut world, ts.specs, SYNC);
        // Non-start instances retired in the data rounds so far.
        let mut flipped = 0;
        while run.data_step(&mut world, |_| {}).is_some() {
            assert_eq!(run.groupings_written(), instances + flipped);
            for (i, spec) in run.specs().iter().enumerate() {
                if active[i] && run.bits()[i] == 1 {
                    active[i] = false;
                    flipped += u64::from(spec.pred.is_some());
                }
            }
            run.sync_step(&mut world);
        }
        assert!(run.iterations() >= 3, "{} iterations", run.iterations());
        assert!((1..=8).contains(&flipped), "{flipped} flips");
        assert!(run.groupings_written() < instances + 8);
        assert_eq!(run.value(ts.last_inst[0]), 8);
    }

    #[test]
    fn singleton_tree_counts_its_own_mark() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let lone = Tree::from_edges(3, 2, &[]);
        let q = [false, false, true];
        let ts = build_tours(&topo, &[lone], |v| q[v]);
        assert_eq!(ts.specs.len(), 1);
        let mut world = World::new(topo, LINKS);
        let mut run = PascRun::new(&mut world, ts.specs.clone(), SYNC);
        let values = run.run_to_completion(&mut world);
        assert_eq!(values[ts.last_inst[0]], 1);
    }

    #[test]
    fn parallel_trees_share_one_run() {
        // Two disjoint paths: 0-1 and 2-3-4, Q = {1, 4}.
        let topo = Topology::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        let t1 = Tree::from_edges(5, 0, &[(0, 1)]);
        let t2 = Tree::from_edges(5, 2, &[(2, 3), (3, 4)]);
        let q = [false, true, false, false, true];
        let ts = build_tours(&topo, &[t1, t2], |v| q[v]);
        let mut world = World::new(topo, LINKS);
        let mut run = PascRun::new(&mut world, ts.specs.clone(), SYNC);
        let values = run.run_to_completion(&mut world);
        assert_eq!(values[ts.last_inst[0]], 1);
        assert_eq!(values[ts.last_inst[1]], 1);
    }
}
