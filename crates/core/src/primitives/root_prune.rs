//! The root-and-prune primitive (§3.2, Lemma 20) and the augmentation-set
//! degree computation (Lemma 26).

use amoebot_circuits::World;
use amoebot_pasc::{PascRun, StreamingSub};

use crate::ett::build_tours;
use crate::links::{BROADCAST, SYNC};
use crate::tree::Tree;

/// Outcome of the root-and-prune primitive on a forest of trees.
///
/// Everything is sized by the trees: per tree, per member (trees in
/// order, each tree's members ascending) and per tour slot. Member `i` of
/// tree `t` is [`Tree::members`]`()[i]` of the `t`-th input tree.
#[derive(Debug, Clone)]
pub struct RootPrune {
    /// Per tree: `|Q ∩ T|`, computed by the root's final instance
    /// (Corollary 15).
    pub q_count: Vec<u64>,
    /// Per tree: the position of its first member in the member arrays.
    member_base: Vec<usize>,
    /// Per member: whether it is in `V_Q`, i.e. its subtree (w.r.t. the
    /// root of its tree) contains a node of `Q`.
    in_vq: Vec<bool>,
    /// Per member: its parent towards the root as a node id
    /// ([`NO_PARENT`] for none), identified via
    /// `prefixsum(u,v) - prefixsum(v,u) > 0` (Corollary 18). Set for every
    /// member of `V_Q` except roots.
    parent: Vec<u32>,
    /// Per member: its degree within the pruned tree `T_Q` (the number of
    /// neighbors with a non-zero prefix-sum difference, Lemma 26). Valid
    /// for members of `V_Q`.
    deg_q: Vec<u32>,
    /// Per slot (see [`crate::ett::TourSet`]): the sign of
    /// `prefixsum(v,w) - prefixsum(w,v)` for the slot's edge `(v, w)`
    /// (`-1`, `0`, `+1`), read through [`RootPrune::diff_signs`]. This is
    /// the raw per-edge stream outcome of Lemma 14; the portal variants
    /// (§3.5) read it at the connector amoebots `c_{P1}(P2)`.
    diff_sign: Vec<i8>,
    /// Per tree: its first slot.
    slot_base: Vec<usize>,
}

/// The [`RootPrune`] parent sentinel: no parent.
const NO_PARENT: u32 = u32::MAX;

impl RootPrune {
    /// Whether member `i` of tree `t` is in `V_Q`.
    #[inline]
    pub fn in_vq(&self, t: usize, i: usize) -> bool {
        self.in_vq[self.member_base[t] + i]
    }

    /// The parent of member `i` of tree `t` (`None` for roots and members
    /// outside `V_Q`).
    #[inline]
    pub fn parent(&self, t: usize, i: usize) -> Option<usize> {
        let p = self.parent[self.member_base[t] + i];
        (p != NO_PARENT).then_some(p as usize)
    }

    /// The degree in `T_Q` of member `i` of tree `t`.
    #[inline]
    pub fn deg_q(&self, t: usize, i: usize) -> u32 {
        self.deg_q[self.member_base[t] + i]
    }

    /// The signs of `prefixsum(v,w) - prefixsum(w,v)` for member `i` (node
    /// `v`) of `tree`, the `t`-th input tree, one per tree neighbor `w` in
    /// [`Tree::adj_at`] order.
    #[inline]
    pub fn diff_signs(&self, t: usize, tree: &Tree, i: usize) -> &[i8] {
        let edges = tree.edges_at(i);
        &self.diff_sign[self.slot_base[t] + edges.start..self.slot_base[t] + edges.end]
    }

    /// The augmentation set `A_Q` (Lemma 26) of `trees`, the input trees:
    /// pruned-tree nodes of degree at least 3, ascending.
    pub fn augmentation_set(&self, trees: &[Tree]) -> Vec<usize> {
        let mut out: Vec<usize> = trees
            .iter()
            .enumerate()
            .flat_map(|(t, tree)| {
                tree.members()
                    .iter()
                    .enumerate()
                    .filter(move |&(i, _)| self.in_vq(t, i) && self.deg_q(t, i) >= 3)
                    .map(|(_, &v)| v)
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// Runs the root-and-prune primitive on every tree of the (node-disjoint)
/// forest in parallel: roots each tree at its root and prunes all subtrees
/// without a node in `Q` (Lemma 20, `O(log |Q|)` rounds). `q` is a
/// predicate on node ids, read for tree members only: beyond its ticks,
/// the call costs O(tree members).
pub fn root_and_prune(world: &mut World, trees: &[Tree], q: impl Fn(usize) -> bool) -> RootPrune {
    world.reset_all_pins_keeping_links(&[BROADCAST, SYNC]);
    let mut ts = build_tours(world.topology(), trees, q);
    let mut run = PascRun::new(world, std::mem::take(&mut ts.specs), SYNC);

    // One streaming subtractor per slot (member, incident tree edge):
    // diff = prefixsum(out) - prefixsum(in).
    let mut subs = vec![StreamingSub::new(); ts.out_inst.len()];
    while run.data_step(world, |_| {}).is_some() {
        let (bits, incoming) = (run.bits(), run.incoming());
        for (slot, sub) in subs.iter_mut().enumerate() {
            sub.feed(
                bits[ts.out_inst[slot] as usize],
                incoming[ts.in_inst[slot] as usize],
            );
        }
        run.sync_step(world);
    }

    let q_count: Vec<u64> = ts.last_inst.iter().map(|&i| run.value(i)).collect();
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
    let members: usize = trees.iter().map(Tree::len).sum();
    let mut member_base = Vec::with_capacity(trees.len());
    let mut in_vq = Vec::with_capacity(members);
    let mut parent = Vec::with_capacity(members);
    let mut deg_q = Vec::with_capacity(members);
    for (t, tree) in trees.iter().enumerate() {
        member_base.push(in_vq.len());
        for (i, &v) in tree.members().iter().enumerate() {
            let mut nonzero = 0;
            let mut par = NO_PARENT;
            for (slot, &w) in ts.slots(t, tree, i).zip(tree.adj_at(i)) {
                if diff_sign[slot] != 0 {
                    nonzero += 1;
                }
                if diff_sign[slot] > 0 {
                    debug_assert_eq!(par, NO_PARENT, "at most one positive difference");
                    par = tree.members()[w as usize] as u32;
                }
            }
            deg_q.push(nonzero);
            if v == tree.root {
                // Lemma 19: the root is in V_Q iff |Q| > 0.
                in_vq.push(q_count[t] > 0);
                parent.push(NO_PARENT);
            } else {
                in_vq.push(nonzero > 0);
                debug_assert!(
                    nonzero == 0 || par != NO_PARENT,
                    "V_Q member must see its parent"
                );
                parent.push(if nonzero > 0 { par } else { NO_PARENT });
            }
        }
    }
    RootPrune {
        q_count,
        member_base,
        in_vq,
        parent,
        deg_q,
        diff_sign,
        slot_base: ts.slot_base,
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
            for w in tree.adj(v) {
                if parents[w] == Some(v) {
                    c += count(tree, parents, q, w);
                }
            }
            c
        }
        for &v in tree.members() {
            in_vq[v] = count(tree, &parents, q, v) > 0;
        }
        (in_vq, parents)
    }

    fn check(tree: Tree, q: Vec<bool>) {
        let edges: Vec<(usize, usize)> = {
            let mut e = Vec::new();
            for v in 0..tree.n() {
                for w in tree.adj(v) {
                    if v < w {
                        e.push((v, w));
                    }
                }
            }
            e
        };
        let topo = Topology::from_edges(tree.n(), &edges);
        let mut world = World::new(topo, LINKS);
        let rp = root_and_prune(&mut world, std::slice::from_ref(&tree), |v| q[v]);
        let (ref_vq, ref_parents) = reference(&tree, &q);
        for (i, &v) in tree.members().iter().enumerate() {
            assert_eq!(rp.in_vq(0, i), ref_vq[v], "V_Q membership of {v}");
            if rp.in_vq(0, i) && v != tree.root {
                assert_eq!(rp.parent(0, i), ref_parents[v], "parent of {v}");
            }
        }
        let total_q = tree.members().iter().filter(|&&v| q[v]).count() as u64;
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
        let mut q = [false; 9];
        for tip in [2, 4, 6, 8] {
            q[tip] = true;
        }
        let topo = Topology::from_edges(9, &edges);
        let mut world = World::new(topo, LINKS);
        let trees = std::slice::from_ref(&tree);
        let rp = root_and_prune(&mut world, trees, |v| q[v]);
        // The center (degree 4 in T_Q) is the only augmentation node.
        assert_eq!(rp.augmentation_set(trees), vec![0]);
        // Corollary 29: |A_Q| <= |Q| - 1.
        assert!(rp.augmentation_set(trees).len() <= 3);
    }

    #[test]
    fn runs_on_forest_in_parallel() {
        let edges = [(0, 1), (1, 2), (3, 4)];
        let topo = Topology::from_edges(5, &edges);
        let t1 = Tree::from_edges(5, 0, &[(0, 1), (1, 2)]);
        let t2 = Tree::from_edges(5, 3, &[(3, 4)]);
        let q = [false, false, true, true, false];
        let mut world = World::new(topo, LINKS);
        let rp = root_and_prune(&mut world, &[t1, t2], |v| q[v]);
        assert_eq!(rp.q_count, vec![1, 1]);
        // Member indices: tree 0 holds 0, 1, 2; tree 1 holds 3, 4.
        assert!(rp.in_vq(0, 0) && rp.in_vq(0, 1) && rp.in_vq(0, 2));
        assert!(rp.in_vq(1, 0) && !rp.in_vq(1, 1));
        assert_eq!(rp.parent(0, 2), Some(1));
        assert_eq!(rp.parent(0, 1), Some(0));
    }
}
