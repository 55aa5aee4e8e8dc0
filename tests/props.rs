//! Property-based tests (proptest) over the core invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spf::core::forest::shortest_path_forest;
use spf::core::portals::axis_portals;
use spf::core::spt::shortest_path_tree;
use spf::grid::{shapes, validate_forest, AmoebotStructure, NodeId, ALL_AXES};

fn blob(n: usize, seed: u64) -> AmoebotStructure {
    let mut rng = StdRng::seed_from_u64(seed);
    AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 39 on arbitrary hole-free blobs with arbitrary S/D picks.
    #[test]
    fn spt_always_valid(n in 5usize..60, seed in 0u64..1000, src in 0usize..60, l in 1usize..20) {
        let s = blob(n, seed);
        let n = s.len();
        let source = NodeId((src % n) as u32);
        let dests: Vec<NodeId> = (0..l).map(|i| NodeId(((i * 7 + 1) % n) as u32)).collect();
        let out = shortest_path_tree(&s, source, &dests);
        prop_assert!(validate_forest(&s, &[source], &dests, &out.parents).is_empty());
    }

    /// Theorem 56 / Corollary 57 on arbitrary blobs.
    #[test]
    fn forest_always_valid(n in 8usize..50, seed in 0u64..1000, k in 2usize..6) {
        let s = blob(n, seed);
        let n = s.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let sources: Vec<NodeId> = shapes::random_subset(n, k.min(n), &mut rng)
            .into_iter().map(|i| NodeId(i as u32)).collect();
        let dests: Vec<NodeId> = s.nodes().collect();
        let out = shortest_path_forest(&s, &sources, &dests);
        prop_assert!(validate_forest(&s, &sources, &dests, &out.parents).is_empty());
    }

    /// Lemma 9: portal graphs of hole-free structures are trees; the
    /// implicit portal graph spans the structure.
    #[test]
    fn portal_graphs_are_trees(n in 2usize..80, seed in 0u64..1000) {
        let s = blob(n, seed);
        let members: Vec<usize> = (0..s.len()).collect();
        for axis in ALL_AXES {
            let ap = axis_portals(&s, &members, axis);
            let edges: usize = (0..s.len()).map(|v| ap.tree_adj(v).len()).sum::<usize>() / 2;
            prop_assert_eq!(edges, s.len() - 1);
            // Portal-level adjacency is a tree as well.
            let portal_edges: usize = ap.portal_tree_edges().iter().map(|l| l.len()).sum::<usize>() / 2;
            prop_assert_eq!(portal_edges, ap.portals.len() - 1);
        }
    }

    /// Lemma 11: 2·dist(u, v) = dist_x + dist_y + dist_z.
    #[test]
    fn lemma_11_on_blobs(n in 2usize..60, seed in 0u64..1000, pick in 0usize..100) {
        let s = blob(n, seed);
        let members: Vec<usize> = (0..s.len()).collect();
        let u = NodeId((pick % s.len()) as u32);
        let bfs = s.bfs_distances(&[u]);
        let mut portal_dists: Vec<Vec<u32>> = Vec::new();
        for axis in ALL_AXES {
            let ap = axis_portals(&s, &members, axis);
            let adj = ap.portal_tree_edges();
            let mut dist = vec![u32::MAX; ap.portals.len()];
            let mut q = std::collections::VecDeque::new();
            let start = ap.portal_of(u.index());
            dist[start as usize] = 0;
            q.push_back(start);
            while let Some(p) = q.pop_front() {
                for &(w, _) in &adj[p as usize] {
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = dist[p as usize] + 1;
                        q.push_back(w);
                    }
                }
            }
            let per_node: Vec<u32> = (0..s.len())
                .map(|v| dist[ap.portal_of(v) as usize])
                .collect();
            portal_dists.push(per_node);
        }
        for v in s.nodes() {
            let lhs = 2 * bfs[v.index()].unwrap();
            let rhs: u32 = portal_dists.iter().map(|d| d[v.index()]).sum();
            prop_assert_eq!(lhs, rhs);
        }
    }

    /// Hole-free blob generator really is hole-free and connected.
    #[test]
    fn blobs_are_hole_free(n in 1usize..120, seed in 0u64..5000) {
        let s = blob(n, seed);
        prop_assert_eq!(s.len(), n);
        prop_assert!(s.is_hole_free());
    }
}
