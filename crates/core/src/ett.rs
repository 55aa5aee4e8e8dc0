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

use amoebot_circuits::Topology;
use amoebot_pasc::{EdgeRef, InstanceSpec};

use crate::links::traversal_links;
use crate::tree::Tree;

/// The Euler tours of a forest of (node-disjoint) trees, compiled into PASC
/// instance specs plus the index maps the primitives need.
///
/// The index maps are per *slot*: node `v`'s `j`-th tree edge (in its
/// tree's [`Tree::adj`] order) has slot [`TourSet::slot`]`(v, j)`, and the
/// slots of all trees' members are numbered consecutively by node.
#[derive(Debug, Clone)]
pub struct TourSet {
    /// PASC instance specs for all trees (run them as one [`amoebot_pasc::PascRun`]).
    pub specs: Vec<InstanceSpec>,
    /// Slot offsets, `n + 1` entries: `v`'s slots are
    /// `slot_off[v]..slot_off[v + 1]`.
    pub(crate) slot_off: Vec<usize>,
    /// `out_inst[slot(v, j)]` = index of `v`'s instance whose *outgoing*
    /// edge goes to `trees[t].adj(v)[j]`.
    pub out_inst: Vec<usize>,
    /// `in_inst[slot(v, j)]` = index of `v`'s instance whose *incoming*
    /// edge comes from `trees[t].adj(v)[j]`.
    pub in_inst: Vec<usize>,
    /// Per tree: the start instance (root, before the first edge).
    pub start_inst: Vec<usize>,
    /// Per tree: the root's final instance (computes `W`, Corollary 15).
    pub last_inst: Vec<usize>,
    /// Per node: the adjacency index of its designated marked outgoing edge
    /// (`None` if the node is not in `Q` or is a singleton root).
    pub marked_adj: Vec<Option<usize>>,
    /// Per node: which tree (index into the input slice) it belongs to.
    pub tree_of: Vec<Option<usize>>,
}

impl TourSet {
    /// The slot of `v`'s `j`-th tree edge.
    #[inline]
    pub fn slot(&self, v: usize, j: usize) -> usize {
        self.slot_off[v] + j
    }

    /// The slots of `v`'s tree edges, in adjacency order.
    #[inline]
    pub fn slots(&self, v: usize) -> std::ops::Range<usize> {
        self.slot_off[v]..self.slot_off[v + 1]
    }
}

/// Builds the Euler tours for `trees` with node marks `q` (the weight
/// function `w_Q` of §3.1). Trees must be node-disjoint.
///
/// # Panics
///
/// Panics if trees share nodes or tree edges are missing from `topo`.
pub fn build_tours(topo: &Topology, trees: &[Tree], q: &[bool]) -> TourSet {
    let n = topo.len();
    assert_eq!(q.len(), n);
    let mut specs: Vec<InstanceSpec> = Vec::new();
    let mut start_inst = Vec::with_capacity(trees.len());
    let mut last_inst = Vec::with_capacity(trees.len());
    let mut marked_adj: Vec<Option<usize>> = vec![None; n];
    let mut tree_of: Vec<Option<usize>> = vec![None; n];

    let mut slot_off = vec![0usize; n + 1];
    for (t, tree) in trees.iter().enumerate() {
        for &v in &tree.members {
            assert!(
                tree_of[v].is_none(),
                "trees must be node-disjoint (node {v})"
            );
            tree_of[v] = Some(t);
            slot_off[v + 1] = tree.adj(v).len();
        }
    }
    for v in 0..n {
        slot_off[v + 1] += slot_off[v];
    }
    let mut out_inst = vec![usize::MAX; slot_off[n]];
    let mut in_inst = vec![usize::MAX; slot_off[n]];

    for tree in trees {
        let base = specs.len();
        if tree.len() == 1 {
            // Degenerate single-node tree: one instance, no edges.
            specs.push(InstanceSpec {
                node: tree.root,
                pred: None,
                succs: Vec::new(),
                weight: q[tree.root],
            });
            start_inst.push(base);
            last_inst.push(base);
            continue;
        }

        // Walk the m = 2(|T| - 1) directed tour edges. Local instance i
        // has pred edge i - 1 (i >= 1) and succ edge i (i < m); edge i is
        // (u, v) with v = adj(u)[ju], and the next edge leaves v towards
        // the neighbor after u in v's cyclic order.
        let m = 2 * (tree.len() - 1);
        let (mut u, mut ju) = (tree.root, 0);
        let mut pred = None;
        for i in 0..m {
            let v = tree.adj(u)[ju];
            let adj_v = tree.adj(v);
            let jv = adj_v
                .iter()
                .position(|&w| w == u)
                .expect("tree adjacency must be symmetric");
            // Designate marks: first outgoing occurrence of each node in Q.
            let marked = q[u] && marked_adj[u].is_none();
            if marked {
                marked_adj[u] = Some(ju);
            }
            let (p, s) = traversal_links(u, v);
            let port = topo
                .port_to(u, v)
                .expect("tree edge must exist in topology");
            specs.push(InstanceSpec {
                node: u,
                pred,
                succs: vec![EdgeRef::new(port, p, s)],
                weight: marked,
            });
            out_inst[slot_off[u] + ju] = base + i;
            in_inst[slot_off[v] + jv] = base + i + 1;
            let port = topo
                .port_to(v, u)
                .expect("tree edge must exist in topology");
            pred = Some(EdgeRef::new(port, p, s));
            (u, ju) = (v, (jv + 1) % adj_v.len());
        }
        assert_eq!(u, tree.root, "Euler tour must return to the root");
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
        slot_off,
        out_inst,
        in_inst,
        start_inst,
        last_inst,
        marked_adj,
        tree_of,
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
        let q = vec![true; 5];
        let ts = build_tours(&topo, std::slice::from_ref(&tree), &q);
        // 2(n-1)+1 instances.
        assert_eq!(ts.specs.len(), 2 * 4 + 1);
        // Exactly one start (no pred) and one end (no succ).
        assert_eq!(ts.specs.iter().filter(|s| s.pred.is_none()).count(), 1);
        assert_eq!(ts.specs.iter().filter(|s| s.succs.is_empty()).count(), 1);
        // Every node in Q designates exactly one outgoing edge; total marks = |Q|.
        let marks = ts.specs.iter().filter(|s| s.weight).count();
        assert_eq!(marks, 5);
        // Each node has deg instances as tails.
        for v in 0..5 {
            assert_eq!(ts.slots(v).len(), tree.adj(v).len());
            for slot in ts.slots(v) {
                assert_ne!(ts.out_inst[slot], usize::MAX);
                assert_ne!(ts.in_inst[slot], usize::MAX);
                assert_eq!(ts.specs[ts.out_inst[slot]].node, v);
                assert_eq!(ts.specs[ts.in_inst[slot]].node, v);
            }
        }
    }

    #[test]
    fn ett_prefix_sums_match_subtree_counts() {
        // Lemma 17: for the parent edge, prefixsum(u,p) - prefixsum(p,u) =
        // |Q ∩ subtree(u)|; verify by running the actual circuits.
        let (topo, tree) = star_plus_path();
        let q = vec![false, true, false, true, true]; // Q = {1, 3, 4}
        let ts = build_tours(&topo, std::slice::from_ref(&tree), &q);
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
                for &w in tree.adj(x) {
                    if !seen[w] && parents[w] == Some(x) {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            cnt
        };
        for v in 0..5 {
            if let Some(p) = parents[v] {
                let j = tree.adj(v).iter().position(|&w| w == p).unwrap();
                let out = values[ts.out_inst[ts.slot(v, j)]];
                // The incoming prefix sum is the value of the *preceding*
                // instance, i.e. the peer's outgoing instance for (p, v).
                let jp = tree.adj(p).iter().position(|&w| w == v).unwrap();
                let inc = values[ts.out_inst[ts.slot(p, jp)]];
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
        let tree = crate::portals::axis_portals(&s, &vec![true; n], Axis::X).tree_rooted_at(0);
        let mut q = vec![false; n];
        for v in shapes::random_subset(n, 8, &mut rng) {
            q[v] = true;
        }
        let topo = Topology::from_structure(&s);
        let ts = build_tours(&topo, std::slice::from_ref(&tree), &q);
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
        let q = vec![false, false, true];
        let ts = build_tours(&topo, &[lone], &q);
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
        let q = vec![false, true, false, false, true];
        let ts = build_tours(&topo, &[t1, t2], &q);
        let mut world = World::new(topo, LINKS);
        let mut run = PascRun::new(&mut world, ts.specs.clone(), SYNC);
        let values = run.run_to_completion(&mut world);
        assert_eq!(values[ts.last_inst[0]], 1);
        assert_eq!(values[ts.last_inst[1]], 1);
    }
}
