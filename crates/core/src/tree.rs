//! Tree views over simulated structures.
//!
//! The tree primitives of §3 operate on trees that live *inside* a larger
//! communication topology: the abstract trees of §3.1–3.4, the implicit
//! portal graphs of §3.5, chosen-parent forests of §4, and the region trees
//! of §5.4. A [`Tree`] records which edges of the topology belong to the
//! tree and in which cyclic order each node visits its tree neighbors (the
//! order that defines the Euler tour).

/// A rooted tree embedded in a topology over nodes `0..n`.
///
/// Non-member nodes have empty adjacency. A single-node tree (root only,
/// no edges) is allowed — several region trees of §5.4 degenerate to it.
///
/// The adjacency is flat: `nbr[off[v]..off[v + 1]]` lists `v`'s tree
/// neighbors (read through [`Tree::adj`]), so a tree costs two
/// allocations, not one per node.
#[derive(Debug, Clone)]
pub struct Tree {
    /// The root node `r`.
    pub root: usize,
    /// Adjacency offsets, `n + 1` entries.
    off: Vec<usize>,
    /// Tree neighbors of every node, concatenated by node.
    nbr: Vec<usize>,
    /// The member nodes, ascending.
    pub members: Vec<usize>,
}

impl Tree {
    /// Builds a tree from an undirected edge list. Adjacency order follows
    /// edge insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a tree containing `root` (cycles,
    /// disconnection from the root, or out-of-range nodes).
    pub fn from_edges(n: usize, root: usize, edges: &[(usize, usize)]) -> Tree {
        let mut off = vec![0usize; n + 1];
        for &(u, v) in edges {
            assert!(u < n && v < n && u != v, "bad tree edge ({u}, {v})");
            off[u + 1] += 1;
            off[v + 1] += 1;
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut cursor = off.clone();
        let mut nbr = vec![0usize; off[n]];
        for &(u, v) in edges {
            nbr[cursor[u]] = v;
            cursor[u] += 1;
            nbr[cursor[v]] = u;
            cursor[v] += 1;
        }
        Tree::from_flat(root, off, nbr, edges.len())
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

    /// Builds a tree over a flat adjacency (`off` has `n + 1` entries;
    /// `nbr[off[v]..off[v + 1]]` are `v`'s neighbors) holding `edge_count`
    /// undirected edges.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency is not a tree containing `root`.
    fn from_flat(root: usize, off: Vec<usize>, nbr: Vec<usize>, edge_count: usize) -> Tree {
        let tree = Tree {
            root,
            off,
            nbr,
            members: Vec::new(),
        };
        tree.with_members(edge_count)
    }

    /// A tree over a flat adjacency whose ascending member list the
    /// caller already knows (the implicit portal trees of §3.5); not
    /// re-validated.
    pub(crate) fn from_flat_members(
        root: usize,
        off: Vec<usize>,
        nbr: Vec<usize>,
        members: Vec<usize>,
    ) -> Tree {
        Tree {
            root,
            off,
            nbr,
            members,
        }
    }

    fn with_members(mut self, edge_count: usize) -> Tree {
        let mut seen = vec![false; self.n()];
        let mut stack = vec![self.root];
        seen[self.root] = true;
        let mut members = Vec::new();
        while let Some(v) = stack.pop() {
            members.push(v);
            for &w in self.adj(v) {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        assert_eq!(
            members.len(),
            edge_count + 1,
            "edges must form a tree containing the root (acyclic, connected)"
        );
        members.sort_unstable();
        self.members = members;
        self
    }

    /// The size `n` of the node range `0..n` the tree lives in.
    pub fn n(&self) -> usize {
        self.off.len() - 1
    }

    /// Tree neighbors of `v` in the cyclic order used by the Euler tour
    /// ("next counterclockwise neighbor", §3.1); empty for non-members.
    #[inline]
    pub fn adj(&self, v: usize) -> &[usize] {
        &self.nbr[self.off[v]..self.off[v + 1]]
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the tree has no members (never true for constructed trees).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `v` is a member.
    pub fn contains(&self, v: usize) -> bool {
        v == self.root || !self.adj(v).is_empty()
    }

    /// Parent pointers of all members with respect to the root (centralized
    /// helper for validation; the distributed parents come from the
    /// root-and-prune primitive).
    pub fn parents_from_root(&self) -> Vec<Option<usize>> {
        let n = self.n();
        let mut parent = vec![None; n];
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        seen[self.root] = true;
        while let Some(v) = stack.pop() {
            for &w in self.adj(v) {
                if !seen[w] {
                    seen[w] = true;
                    parent[w] = Some(v);
                    stack.push(w);
                }
            }
        }
        parent
    }

    /// Splits the tree at member `c`: returns one subtree per tree neighbor
    /// `u` of `c`, rooted at `u`, with `c` removed. Used by the centroid
    /// decomposition (§3.4).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a member.
    pub fn split_at(&self, c: usize) -> Vec<Tree> {
        assert!(self.contains(c), "{c} is not a tree member");
        let n = self.n();
        self.adj(c)
            .iter()
            .map(|&u| {
                // Collect the component of u in T - c.
                let mut seen = vec![false; n];
                seen[c] = true;
                seen[u] = true;
                let mut stack = vec![u];
                let mut edge_count = 0;
                while let Some(v) = stack.pop() {
                    for &w in self.adj(v) {
                        if !seen[w] {
                            seen[w] = true;
                            edge_count += 1;
                            stack.push(w);
                        }
                    }
                }
                // Preserve each node's adjacency ORDER from the parent tree
                // (minus edges to c / outside).
                let mut off = Vec::with_capacity(n + 1);
                let mut nbr = Vec::with_capacity(2 * edge_count);
                off.push(0);
                for v in 0..n {
                    if seen[v] && v != c {
                        nbr.extend(self.adj(v).iter().copied().filter(|&w| seen[w] && w != c));
                    }
                    off.push(nbr.len());
                }
                Tree::from_flat(u, off, nbr, edge_count)
            })
            .collect()
    }

    /// Height of the tree (edges on the longest root-leaf path).
    pub fn height(&self) -> u32 {
        let n = self.n();
        let mut depth = vec![0u32; n];
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        seen[self.root] = true;
        let mut best = 0;
        while let Some(v) = stack.pop() {
            for &w in self.adj(v) {
                if !seen[w] {
                    seen[w] = true;
                    depth[w] = depth[v] + 1;
                    best = best.max(depth[w]);
                    stack.push(w);
                }
            }
        }
        best
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
        assert_eq!(t2.members, t.members);
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
        assert_eq!(part0.members, vec![0, 2, 5]);
        assert!(parts[1].members == vec![3]);
    }

    #[test]
    #[should_panic(expected = "must form a tree")]
    fn rejects_cycles() {
        Tree::from_edges(3, 0, &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::from_edges(4, 2, &[]);
        assert_eq!(t.members, vec![2]);
        assert!(t.contains(2));
        assert!(!t.contains(0));
        assert_eq!(t.height(), 0);
    }
}
