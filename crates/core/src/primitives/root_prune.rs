//! The root-and-prune primitive (§3.2, Lemma 20) and the augmentation-set
//! degree computation (Lemma 26).

use amoebot_circuits::World;
use amoebot_pasc::{PascRun, StreamingSub};

use crate::ett::build_tours;
use crate::links::{BROADCAST, SYNC};
use crate::tree::Tree;

/// Outcome of the root-and-prune primitive on a forest of trees.
#[derive(Debug, Clone)]
pub struct RootPrune {
    /// `in_vq[v]`: whether `v ∈ V_Q`, i.e. the subtree of `v` (w.r.t. the
    /// root of `v`'s tree) contains a node of `Q`. `false` for non-members.
    pub in_vq: Vec<bool>,
    /// The parent of `v` towards the root, identified via
    /// `prefixsum(u,v) - prefixsum(v,u) > 0` (Corollary 18). Set for every
    /// member of `V_Q` except roots.
    pub parent: Vec<Option<usize>>,
    /// `deg_q[v]`: degree of `v` within the pruned tree `T_Q` (the number of
    /// neighbors with a non-zero prefix-sum difference, Lemma 26). Valid for
    /// members of `V_Q`; the augmentation set is `A_Q = {v : deg_q[v] >= 3}`.
    pub deg_q: Vec<u32>,
    /// Per tree: `|Q ∩ T|`, computed by the root's final instance
    /// (Corollary 15).
    pub q_count: Vec<u64>,
    /// Per slot (see [`crate::ett::TourSet`]): the sign of
    /// `prefixsum(v,w) - prefixsum(w,v)` for `w = adj(v)[j]` (`-1`, `0`,
    /// `+1`), read through [`RootPrune::diff_sign`]. This is the raw
    /// per-edge stream outcome of Lemma 14; the portal variants (§3.5) read
    /// it at the connector amoebots `c_{P1}(P2)`.
    diff_sign: Vec<i8>,
    /// Slot offsets of `diff_sign`, `n + 1` entries.
    slot_off: Vec<usize>,
}

impl RootPrune {
    /// The sign of `prefixsum(v,w) - prefixsum(w,v)` for `w` =
    /// `v`'s `j`-th tree neighbor.
    #[inline]
    pub fn diff_sign(&self, v: usize, j: usize) -> i8 {
        self.diff_sign[self.slot_off[v] + j]
    }

    /// The augmentation set `A_Q` (Lemma 26): pruned-tree nodes of degree
    /// at least 3.
    pub fn augmentation_set(&self) -> Vec<usize> {
        (0..self.in_vq.len())
            .filter(|&v| self.in_vq[v] && self.deg_q[v] >= 3)
            .collect()
    }
}

/// Runs the root-and-prune primitive on every tree of the (node-disjoint)
/// forest in parallel: roots each tree at its root and prunes all subtrees
/// without a node in `Q` (Lemma 20, `O(log |Q|)` rounds).
pub fn root_and_prune(world: &mut World, trees: &[Tree], q: &[bool]) -> RootPrune {
    let n = world.topology().len();
    world.reset_all_pins_keeping_links(&[BROADCAST, SYNC]);
    let mut ts = build_tours(world.topology(), trees, q);
    let mut run = PascRun::new(world, std::mem::take(&mut ts.specs), SYNC);

    // One streaming subtractor per slot (member, incident tree edge):
    // diff = prefixsum(out) - prefixsum(in).
    let mut subs = vec![StreamingSub::new(); ts.out_inst.len()];
    while run.data_step(world, |_| {}).is_some() {
        let (bits, incoming) = (run.bits(), run.incoming());
        for (slot, sub) in subs.iter_mut().enumerate() {
            sub.feed(bits[ts.out_inst[slot]], incoming[ts.in_inst[slot]]);
        }
        run.sync_step(world);
    }

    let q_count: Vec<u64> = ts.last_inst.iter().map(|&i| run.value(i)).collect();
    let mut in_vq = vec![false; n];
    let mut parent = vec![None; n];
    let mut deg_q = vec![0u32; n];
    let diff_sign: Vec<i8> = subs
        .iter()
        .map(|sub| {
            if sub.is_positive() {
                1
            } else if sub.is_negative() {
                -1
            } else {
                0
            }
        })
        .collect();
    for (t, tree) in trees.iter().enumerate() {
        for &v in &tree.members {
            let mut nonzero = 0;
            let mut par = None;
            for (j, slot) in ts.slots(v).enumerate() {
                if diff_sign[slot] != 0 {
                    nonzero += 1;
                }
                if diff_sign[slot] > 0 {
                    debug_assert!(par.is_none(), "at most one positive difference");
                    par = Some(tree.adj(v)[j]);
                }
            }
            deg_q[v] = nonzero;
            if v == tree.root {
                // Lemma 19: the root is in V_Q iff |Q| > 0.
                in_vq[v] = q_count[t] > 0;
            } else {
                in_vq[v] = nonzero > 0;
                if in_vq[v] {
                    parent[v] = par;
                    debug_assert!(par.is_some(), "V_Q member must see its parent");
                }
            }
        }
    }
    RootPrune {
        in_vq,
        parent,
        deg_q,
        q_count,
        diff_sign,
        slot_off: ts.slot_off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::Topology;

    use crate::links::LINKS;

    /// Centralized reference: V_Q membership and parents.
    fn reference(tree: &Tree, q: &[bool]) -> (Vec<bool>, Vec<Option<usize>>) {
        let n = tree.n();
        let parents = tree.parents_from_root();
        let mut in_vq = vec![false; n];
        // Post-order accumulation of Q-counts.
        fn count(tree: &Tree, parents: &[Option<usize>], q: &[bool], v: usize) -> u64 {
            let mut c = u64::from(q[v]);
            for &w in tree.adj(v) {
                if parents[w] == Some(v) {
                    c += count(tree, parents, q, w);
                }
            }
            c
        }
        for &v in &tree.members {
            in_vq[v] = count(tree, &parents, q, v) > 0;
        }
        (in_vq, parents)
    }

    fn check(tree: Tree, q: Vec<bool>) {
        let edges: Vec<(usize, usize)> = {
            let mut e = Vec::new();
            for v in 0..tree.n() {
                for &w in tree.adj(v) {
                    if v < w {
                        e.push((v, w));
                    }
                }
            }
            e
        };
        let topo = Topology::from_edges(tree.n(), &edges);
        let mut world = World::new(topo, LINKS);
        let rp = root_and_prune(&mut world, std::slice::from_ref(&tree), &q);
        let (ref_vq, ref_parents) = reference(&tree, &q);
        for &v in &tree.members {
            assert_eq!(rp.in_vq[v], ref_vq[v], "V_Q membership of {v}");
            if rp.in_vq[v] && v != tree.root {
                assert_eq!(rp.parent[v], ref_parents[v], "parent of {v}");
            }
        }
        let total_q = tree.members.iter().filter(|&&v| q[v]).count() as u64;
        assert_eq!(rp.q_count[0], total_q);
    }

    #[test]
    fn prunes_branches_without_q() {
        //      0
        //     / \
        //    1   2
        //   / \   \
        //  3   4   5
        let tree = Tree::from_edges(6, 0, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]);
        // Q = {4}: branch through 2 and leaf 3 must be pruned.
        check(tree.clone(), vec![false, false, false, false, true, false]);
        // Q = {} : everything pruned, root not in V_Q.
        check(tree.clone(), vec![false; 6]);
        // Q = all.
        check(tree, vec![true; 6]);
    }

    #[test]
    fn path_tree_with_scattered_q() {
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let tree = Tree::from_edges(10, 4, &edges); // rooted mid-path
        let mut q = vec![false; 10];
        q[0] = true;
        q[9] = true;
        check(tree, q);
    }

    #[test]
    fn augmentation_set_matches_lemma_26() {
        // A spider: center 0 with 4 legs of length 2; Q = the 4 leg tips.
        let edges = [
            (0, 1),
            (1, 2),
            (0, 3),
            (3, 4),
            (0, 5),
            (5, 6),
            (0, 7),
            (7, 8),
        ];
        let tree = Tree::from_edges(9, 2, &edges); // rooted at a tip
        let mut q = vec![false; 9];
        for tip in [2, 4, 6, 8] {
            q[tip] = true;
        }
        let topo = Topology::from_edges(9, &edges);
        let mut world = World::new(topo, LINKS);
        let rp = root_and_prune(&mut world, std::slice::from_ref(&tree), &q);
        // The center (degree 4 in T_Q) is the only augmentation node.
        assert_eq!(rp.augmentation_set(), vec![0]);
        // Corollary 29: |A_Q| <= |Q| - 1.
        assert!(rp.augmentation_set().len() <= 3);
    }

    #[test]
    fn runs_on_forest_in_parallel() {
        let edges = [(0, 1), (1, 2), (3, 4)];
        let topo = Topology::from_edges(5, &edges);
        let t1 = Tree::from_edges(5, 0, &[(0, 1), (1, 2)]);
        let t2 = Tree::from_edges(5, 3, &[(3, 4)]);
        let q = vec![false, false, true, true, false];
        let mut world = World::new(topo, LINKS);
        let rp = root_and_prune(&mut world, &[t1, t2], &q);
        assert_eq!(rp.q_count, vec![1, 1]);
        assert!(rp.in_vq[0] && rp.in_vq[1] && rp.in_vq[2]);
        assert!(rp.in_vq[3] && !rp.in_vq[4]);
        assert_eq!(rp.parent[2], Some(1));
        assert_eq!(rp.parent[1], Some(0));
    }
}
