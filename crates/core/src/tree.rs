//! Tree views over simulated structures.
//!
//! The tree primitives of §3 operate on trees that live *inside* a larger
//! communication topology: the abstract trees of §3.1–3.4, the implicit
//! portal graphs of §3.5, chosen-parent forests of §4, and the region trees
//! of §5.4. A [`Tree`] records which edges of the topology belong to the
//! tree and in which cyclic order each node visits its tree neighbors (the
//! order that defines the Euler tour).

use std::ops::Range;
use std::sync::Arc;

/// A rooted tree embedded in a topology over nodes `0..n`.
///
/// Non-member nodes have empty adjacency. A single-node tree (root only,
/// no edges) is allowed — several region trees of §5.4 degenerate to it.
///
/// The tree is stored by *member index*: its members, ascending, and a
/// flat adjacency over their indices, so a tree over `m` members costs
/// O(m) however large `n` is. The primitives walk it by index
/// ([`Tree::adj_at`]); [`Tree::adj`] answers by node id with a binary
/// search. The shape is shared between clones: re-rooting a tree
/// copies nothing.
#[derive(Debug, Clone)]
pub struct Tree {
    /// The root node `r`.
    pub root: usize,
    shape: Arc<Shape>,
}

/// The root-independent part of a [`Tree`].
#[derive(Debug)]
struct Shape {
    /// The size `n` of the node range.
    n: usize,
    /// The member nodes, ascending.
    members: Vec<usize>,
    /// Adjacency offsets by member index, `members.len() + 1` entries.
    off: Vec<u32>,
    /// Tree neighbors of every member as member indices, concatenated by
    /// member, each member's in the cyclic order of the Euler tour.
    nbr: Vec<u32>,
}

impl Tree {
    /// Builds a tree from an undirected edge list. Adjacency order follows
    /// edge insertion order. O(E log E), independent of `n`.
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a tree containing `root` (cycles,
    /// disconnection from the root, or out-of-range nodes).
    pub fn from_edges(n: usize, root: usize, edges: &[(usize, usize)]) -> Tree {
        assert!(root < n, "root {root} out of range");
        let mut members = Vec::with_capacity(2 * edges.len() + 1);
        members.push(root);
        for &(u, v) in edges {
            assert!(u < n && v < n && u != v, "bad tree edge ({u}, {v})");
            members.extend([u, v]);
        }
        members.sort_unstable();
        members.dedup();
        let index = |v: usize| members.partition_point(|&x| x < v);
        let ends: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (index(u), index(v))).collect();
        let m = members.len();
        let mut off = vec![0u32; m + 1];
        for &(a, b) in &ends {
            off[a + 1] += 1;
            off[b + 1] += 1;
        }
        for i in 0..m {
            off[i + 1] += off[i];
        }
        let mut cursor = off.clone();
        let mut nbr = vec![0u32; off[m] as usize];
        for &(a, b) in &ends {
            nbr[cursor[a] as usize] = b as u32;
            cursor[a] += 1;
            nbr[cursor[b] as usize] = a as u32;
            cursor[b] += 1;
        }
        let tree = Tree::from_member_adjacency(n, root, members, off, nbr);
        let reached = tree.height_and_reach().1;
        assert!(
            reached == m && m == edges.len() + 1,
            "edges must form a tree containing the root (acyclic, connected)"
        );
        tree
    }

    /// Builds a tree from parent pointers: `parent[v] = Some(p)` adds edge
    /// `{v, p}`; exactly the nodes with a parent plus `root` are members.
    /// Children are attached in node-id order.
    pub fn from_parents(n: usize, root: usize, parent: &[Option<usize>]) -> Tree {
        assert_eq!(parent.len(), n);
        let mut edges = Vec::new();
        for v in 0..n {
            if let Some(p) = parent[v] {
                assert_ne!(v, root, "root must not have a parent");
                edges.push((p, v));
            }
        }
        Tree::from_edges(n, root, &edges)
    }

    /// A tree over the ascending `members` of `0..n` whose adjacency
    /// (`off`, `members.len() + 1` entries; `nbr`, member indices) the
    /// caller built as a tree — the implicit portal trees of §3.5. Not
    /// re-validated.
    pub(crate) fn from_member_adjacency(
        n: usize,
        root: usize,
        members: Vec<usize>,
        off: Vec<u32>,
        nbr: Vec<u32>,
    ) -> Tree {
        debug_assert_eq!(off.len(), members.len() + 1);
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        Tree {
            root,
            shape: Arc::new(Shape {
                n,
                members,
                off,
                nbr,
            }),
        }
    }

    /// The same tree rooted at member `root`; shares the shape.
    pub(crate) fn with_root(&self, root: usize) -> Tree {
        debug_assert!(self.contains(root), "{root} is not a tree member");
        Tree {
            root,
            shape: Arc::clone(&self.shape),
        }
    }

    /// The size `n` of the node range `0..n` the tree lives in.
    pub fn n(&self) -> usize {
        self.shape.n
    }

    /// The member nodes, ascending.
    #[inline]
    pub fn members(&self) -> &[usize] {
        &self.shape.members
    }

    /// The member index of node `v` (its position in [`Tree::members`]),
    /// by binary search; `None` for non-members.
    #[inline]
    pub fn index_of(&self, v: usize) -> Option<usize> {
        self.shape.members.binary_search(&v).ok()
    }

    /// The member index of the root.
    pub(crate) fn root_index(&self) -> usize {
        let i = self.shape.members.partition_point(|&v| v < self.root);
        debug_assert_eq!(self.shape.members.get(i), Some(&self.root));
        i
    }

    /// Tree neighbors of member `i`, as member indices, in the cyclic
    /// order used by the Euler tour ("next counterclockwise neighbor",
    /// §3.1).
    #[inline]
    pub fn adj_at(&self, i: usize) -> &[u32] {
        let s = &*self.shape;
        &s.nbr[s.off[i] as usize..s.off[i + 1] as usize]
    }

    /// The directed edges leaving member `i`: edge `e` of the range goes
    /// to `adj_at(i)[e - start]`. Every member's range follows its
    /// predecessor's, so the ranges number the tree's `2(m - 1)` directed
    /// edges consecutively.
    #[inline]
    pub fn edges_at(&self, i: usize) -> Range<usize> {
        self.shape.off[i] as usize..self.shape.off[i + 1] as usize
    }

    /// Number of directed edges, `2(m - 1)`.
    pub(crate) fn directed_edges(&self) -> usize {
        self.shape.nbr.len()
    }

    /// Tree neighbors of node `v` in tour order, as node ids; empty for
    /// non-members.
    pub fn adj(&self, v: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let nbr = self.index_of(v).map_or(&[][..], |i| self.adj_at(i));
        nbr.iter().map(|&j| self.shape.members[j as usize])
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.shape.members.len()
    }

    /// Whether the tree has no members (never true for constructed trees).
    pub fn is_empty(&self) -> bool {
        self.shape.members.is_empty()
    }

    /// Whether `v` is a member.
    pub fn contains(&self, v: usize) -> bool {
        self.index_of(v).is_some()
    }

    /// Parent pointers of all members with respect to the root (centralized
    /// helper for validation; the distributed parents come from the
    /// root-and-prune primitive), indexed by node id.
    pub fn parents_from_root(&self) -> Vec<Option<usize>> {
        let members = self.members();
        let mut parent = vec![None; self.n()];
        let mut seen = vec![false; members.len()];
        let root = self.root_index();
        let mut stack = vec![root];
        seen[root] = true;
        while let Some(i) = stack.pop() {
            for &j in self.adj_at(i) {
                let j = j as usize;
                if !seen[j] {
                    seen[j] = true;
                    parent[members[j]] = Some(members[i]);
                    stack.push(j);
                }
            }
        }
        parent
    }

    /// Splits the tree at member `c`: returns one subtree per tree neighbor
    /// `u` of `c`, rooted at `u`, with `c` removed. Each member keeps its
    /// adjacency order. Used by the centroid decomposition (§3.4).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a member.
    pub fn split_at(&self, c: usize) -> Vec<Tree> {
        let ci = self.shape.members.partition_point(|&v| v < c);
        assert!(
            self.shape.members.get(ci) == Some(&c),
            "{c} is not a tree member"
        );
        let m = self.len();
        self.adj_at(ci)
            .iter()
            .map(|&u| {
                // Collect the component of u in T - c.
                let u = u as usize;
                let mut seen = vec![false; m];
                seen[ci] = true;
                seen[u] = true;
                let mut stack = vec![u];
                while let Some(i) = stack.pop() {
                    for &j in self.adj_at(i) {
                        if !seen[j as usize] {
                            seen[j as usize] = true;
                            stack.push(j as usize);
                        }
                    }
                }
                seen[ci] = false;
                // Renumber the component's members in ascending order.
                let mut new_index = vec![u32::MAX; m];
                let mut members = Vec::new();
                for i in (0..m).filter(|&i| seen[i]) {
                    new_index[i] = members.len() as u32;
                    members.push(self.members()[i]);
                }
                let mut off = Vec::with_capacity(members.len() + 1);
                let mut nbr = Vec::new();
                off.push(0);
                for i in (0..m).filter(|&i| seen[i]) {
                    nbr.extend(
                        self.adj_at(i)
                            .iter()
                            .filter(|&&j| seen[j as usize])
                            .map(|&j| new_index[j as usize]),
                    );
                    off.push(nbr.len() as u32);
                }
                Tree::from_member_adjacency(self.n(), self.members()[u], members, off, nbr)
            })
            .collect()
    }

    /// Height of the tree (edges on the longest root-leaf path).
    pub fn height(&self) -> u32 {
        self.height_and_reach().0
    }

    /// The height, and the number of members reachable from the root.
    fn height_and_reach(&self) -> (u32, usize) {
        let mut depth = vec![u32::MAX; self.len()];
        let root = self.root_index();
        let mut stack = vec![root];
        depth[root] = 0;
        let (mut best, mut reached) = (0, 1);
        while let Some(i) = stack.pop() {
            for &j in self.adj_at(i) {
                let j = j as usize;
                if depth[j] == u32::MAX {
                    depth[j] = depth[i] + 1;
                    best = best.max(depth[j]);
                    reached += 1;
                    stack.push(j);
                }
            }
        }
        (best, reached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Tree {
        //      0
        //     / \
        //    1   2
        //   / \   \
        //  3   4   5
        Tree::from_edges(6, 0, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    }

    #[test]
    fn members_and_parents() {
        let t = sample_tree();
        assert_eq!(t.len(), 6);
        assert_eq!(t.height(), 2);
        let p = t.parents_from_root();
        assert_eq!(p[0], None);
        assert_eq!(p[3], Some(1));
        assert_eq!(p[5], Some(2));
    }

    #[test]
    fn from_parents_round_trip() {
        let t = sample_tree();
        let p = t.parents_from_root();
        let t2 = Tree::from_parents(6, 0, &p);
        assert_eq!(t2.members(), t.members());
        assert_eq!(t2.parents_from_root(), p);
    }

    #[test]
    fn split_at_internal_node() {
        let t = sample_tree();
        let parts = t.split_at(1);
        // Splitting at 1 yields subtrees rooted at 0 (containing 2 and 5),
        // at 3 and at 4.
        assert_eq!(parts.len(), 3);
        let roots: Vec<usize> = parts.iter().map(|p| p.root).collect();
        assert_eq!(roots, vec![0, 3, 4]);
        let part0 = &parts[0];
        assert_eq!(part0.members(), [0, 2, 5]);
        assert_eq!(parts[1].members(), [3]);
    }

    #[test]
    #[should_panic(expected = "must form a tree")]
    fn rejects_cycles() {
        Tree::from_edges(3, 0, &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::from_edges(4, 2, &[]);
        assert_eq!(t.members(), [2]);
        assert!(t.contains(2));
        assert!(!t.contains(0));
        assert_eq!(t.height(), 0);
    }
}
