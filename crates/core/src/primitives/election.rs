//! The election primitive (§3.3, Lemma 21): elect a single node of `Q` in
//! O(1) rounds.
//!
//! The marked edges split the Euler tour into subpaths; each subpath forms a
//! circuit; the root beeps on the first subpath, and the node at its far end
//! — the tail of the first marked edge — is elected.

use amoebot_circuits::World;

use crate::ett::build_tours;
use crate::links::{BROADCAST, SYNC};
use crate::tree::Tree;

/// Elects one node of `Q` in each tree of the forest, in a single round
/// (Lemma 21). Returns the elected node per tree, `None` where
/// `Q ∩ tree = ∅`.
///
/// Note this is *not* leader election: each tree's root is already unique
/// and coordinates the step.
///
/// `q` is a predicate on node ids, read for tree members only.
pub fn elect(world: &mut World, trees: &[Tree], q: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
    world.reset_all_pins_keeping_links(&[BROADCAST, SYNC]);
    let ts = build_tours(world.topology(), trees, &q);
    let c = world.links_per_edge();

    // Configure the subpath circuits: each instance joins its pred-side and
    // succ-side primary pins unless its outgoing edge is marked (the cut).
    for spec in &ts.specs {
        let mut group = Vec::new();
        if let Some(p) = spec.pred {
            group.push((p.port, p.primary));
        }
        if !spec.weight {
            for s in &spec.succs {
                group.push((s.port, s.primary));
            }
        }
        if !group.is_empty() {
            world.group_pins(spec.node, &group);
        }
    }
    // Each root beeps into its first subpath (via its start instance).
    for (t, tree) in trees.iter().enumerate() {
        let start = &ts.specs[ts.start_inst[t]];
        if !start.weight {
            if let Some(s) = start.succs.first() {
                let pset = (s.port * c + s.primary) as u16;
                world.beep(tree.root, pset);
            }
        }
        // If the start instance's own outgoing edge is marked, the root is
        // the tail of the first marked edge and elects itself locally.
    }
    world.tick();

    trees
        .iter()
        .enumerate()
        .map(|(t, tree)| {
            let start = &ts.specs[ts.start_inst[t]];
            if start.weight {
                // Root's first outgoing edge is marked: the first subpath is
                // empty and the root itself is elected.
                debug_assert!(q(tree.root));
                return Some(tree.root);
            }
            if !tree.members().iter().any(|&v| q(v)) {
                return None;
            }
            // The elected node is the tail of the first marked edge: its
            // marked instance (the one of weight 1) received the root's
            // beep on the pred side.
            let mut elected = None;
            for (i, &v) in tree.members().iter().enumerate() {
                for slot in ts.slots(t, tree, i) {
                    let inst = &ts.specs[ts.out_inst[slot] as usize];
                    if !inst.weight {
                        continue;
                    }
                    let p = inst.pred.expect("non-start marked instance has a pred");
                    let pset = (p.port * c + p.primary) as u16;
                    if world.received(v, pset) {
                        debug_assert!(elected.is_none(), "two nodes elected in one tree");
                        elected = Some(v);
                    }
                }
            }
            debug_assert!(elected.is_some(), "beep must reach the first marked edge");
            elected
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::Topology;

    use crate::links::LINKS;

    fn world_and_tree() -> (World, Tree) {
        //      0
        //     / \
        //    1   2
        //   / \   \
        //  3   4   5
        let edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)];
        let topo = Topology::from_edges(6, &edges);
        (World::new(topo, LINKS), Tree::from_edges(6, 0, &edges))
    }

    #[test]
    fn elects_exactly_one_q_node_in_one_round() {
        let (mut world, tree) = world_and_tree();
        let mut q = [false; 6];
        q[4] = true;
        q[5] = true;
        let before = world.rounds();
        let elected = elect(&mut world, std::slice::from_ref(&tree), |v| q[v]);
        assert_eq!(world.rounds() - before, 1, "Lemma 21: O(1) rounds");
        let e = elected[0].unwrap();
        assert!(q[e], "elected node must be in Q");
    }

    #[test]
    fn elects_root_when_root_in_q() {
        let (mut world, tree) = world_and_tree();
        let mut q = [false; 6];
        q[0] = true;
        q[3] = true;
        let elected = elect(&mut world, std::slice::from_ref(&tree), |v| q[v]);
        assert_eq!(elected[0], Some(0));
    }

    #[test]
    fn empty_q_elects_nobody() {
        let (mut world, tree) = world_and_tree();
        let q = [false; 6];
        let elected = elect(&mut world, std::slice::from_ref(&tree), |v| q[v]);
        assert_eq!(elected[0], None);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut q = [false; 6];
        q[3] = true;
        q[5] = true;
        let (mut w1, t1) = world_and_tree();
        let (mut w2, t2) = world_and_tree();
        let e1 = elect(&mut w1, std::slice::from_ref(&t1), |v| q[v]);
        let e2 = elect(&mut w2, std::slice::from_ref(&t2), |v| q[v]);
        assert_eq!(e1, e2);
    }

    #[test]
    fn parallel_trees_elect_independently() {
        let edges = [(0, 1), (1, 2), (3, 4), (4, 5)];
        let topo = Topology::from_edges(6, &edges);
        let t1 = Tree::from_edges(6, 0, &[(0, 1), (1, 2)]);
        let t2 = Tree::from_edges(6, 3, &[(3, 4), (4, 5)]);
        let mut world = World::new(topo, LINKS);
        let q = [false, true, true, false, false, true];
        let before = world.rounds();
        let elected = elect(&mut world, &[t1, t2], |v| q[v]);
        assert_eq!(world.rounds() - before, 1);
        assert!(q[elected[0].unwrap()]);
        assert_eq!(elected[1], Some(5));
    }

    #[test]
    fn singleton_tree_with_q_root() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let tree = Tree::from_edges(2, 1, &[]);
        let mut world = World::new(topo, LINKS);
        let q = [false, true];
        let elected = elect(&mut world, std::slice::from_ref(&tree), |v| q[v]);
        // A singleton root in Q designates no outgoing edge; it knows locally
        // that it is the only Q member.
        assert_eq!(elected[0], Some(1));
    }
}
