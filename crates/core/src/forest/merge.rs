//! The merging algorithm (§5.2, Lemma 42): combine an S1-forest and an
//! S2-forest over the same region into an (S1 ∪ S2)-forest in `O(log n)`
//! rounds.
//!
//! Both forests run the tree PASC (Corollary 5) in parallel on separate
//! links; every amoebot streams `dist(S1, u)` against `dist(S2, u)` and
//! keeps the parent of the closer side (Lemma 41).

use amoebot_circuits::World;
use amoebot_pasc::{tree_specs, PascRun, StreamingCompare};

use crate::forest::Forest;
use crate::links::{BWD_PRIMARY, BWD_SECONDARY, FWD_PRIMARY, FWD_SECONDARY, SYNC};

/// Merges two shortest path forests covering the same member set
/// (Lemma 42). Every member must be covered by *both* forests (each
/// non-source member has a parent in each).
pub fn merge_forests(world: &mut World, f1: &Forest, f2: &Forest) -> Forest {
    let n = world.topology().len();
    debug_assert_eq!(f1.member, f2.member, "forests must cover the same region");
    for v in 0..n {
        if f1.member[v] {
            world.reset_pins_keeping_links(v, &[SYNC]);
        }
    }
    let topo = world.topology();
    let (mut specs, idx1) = tree_specs(topo, &f1.parents, &f1.member, FWD_PRIMARY, FWD_SECONDARY);
    let (specs2, idx2_raw) = tree_specs(topo, &f2.parents, &f2.member, BWD_PRIMARY, BWD_SECONDARY);
    let offset = specs.len();
    specs.extend(specs2);
    let idx2: Vec<usize> = idx2_raw
        .into_iter()
        .map(|i| if i == usize::MAX { i } else { i + offset })
        .collect();

    let mut run = PascRun::new(world, specs, SYNC);
    let mut cmps: Vec<StreamingCompare> = vec![StreamingCompare::new(); n];
    while run.data_step(world, |_| {}).is_some() {
        let bits = run.bits();
        for v in 0..n {
            if f1.member[v] {
                cmps[v].feed(bits[idx1[v]], bits[idx2[v]]);
            }
        }
        run.sync_step(world);
    }

    let mut parents: Vec<Option<usize>> = vec![None; n];
    for v in 0..n {
        if !f1.member[v] {
            continue;
        }
        // dist(S1, v) <= dist(S2, v): keep the S1 parent (Lemma 41); note a
        // source of either side has distance 0 and therefore stays a root.
        parents[v] = if cmps[v].result() != std::cmp::Ordering::Greater {
            f1.parents[v]
        } else {
            f2.parents[v]
        };
    }
    let mut sources: Vec<usize> = f1.sources.clone();
    sources.extend(f2.sources.iter().copied());
    sources.sort_unstable();
    sources.dedup();
    let mut out = Forest::from_parents(parents, sources);
    out.member = f1.member.clone();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::Topology;
    use amoebot_grid::{bfs_parents, shapes, validate_forest, AmoebotStructure, NodeId};

    use crate::links::LINKS;

    fn bfs_forest(s: &AmoebotStructure, src: usize) -> Forest {
        let parents: Vec<Option<usize>> = bfs_parents(s, NodeId(src as u32))
            .into_iter()
            .map(|p| p.map(|x| x.index()))
            .collect();
        let mut f = Forest::from_parents(parents, vec![src]);
        f.member = vec![true; s.len()];
        f
    }

    fn check_merge(s: &AmoebotStructure, s1: usize, s2: usize) -> u64 {
        let mut world = World::new(Topology::from_structure(s), LINKS);
        let f1 = bfs_forest(s, s1);
        let f2 = bfs_forest(s, s2);
        let before = world.rounds();
        let merged = merge_forests(&mut world, &f1, &f2);
        let rounds = world.rounds() - before;
        let all: Vec<NodeId> = s.nodes().collect();
        let parents: Vec<Option<NodeId>> = merged
            .parents
            .iter()
            .map(|p| p.map(|v| NodeId(v as u32)))
            .collect();
        let violations =
            validate_forest(s, &[NodeId(s1 as u32), NodeId(s2 as u32)], &all, &parents);
        assert!(violations.is_empty(), "{violations:?}");
        rounds
    }

    #[test]
    fn merges_two_sssp_trees() {
        let s = AmoebotStructure::new(shapes::parallelogram(8, 5)).unwrap();
        check_merge(&s, 0, s.len() - 1);
    }

    #[test]
    fn merges_adjacent_sources() {
        let s = AmoebotStructure::new(shapes::hexagon(3)).unwrap();
        check_merge(&s, 0, 1);
    }

    #[test]
    fn merges_on_concave_shape() {
        let s = AmoebotStructure::new(shapes::comb(9, 4)).unwrap();
        check_merge(&s, 0, s.len() - 1);
    }

    #[test]
    fn same_source_is_idempotent() {
        let s = AmoebotStructure::new(shapes::triangle(5)).unwrap();
        let mut world = World::new(Topology::from_structure(&s), LINKS);
        let f = bfs_forest(&s, 3);
        let merged = merge_forests(&mut world, &f, &f);
        assert_eq!(merged.parents, f.parents);
        assert_eq!(merged.sources, vec![3]);
    }

    #[test]
    fn rounds_logarithmic_in_n() {
        let small = AmoebotStructure::new(shapes::line(16)).unwrap();
        let large = AmoebotStructure::new(shapes::line(64)).unwrap();
        let r1 = check_merge(&small, 0, 15);
        let r2 = check_merge(&large, 0, 63);
        assert!(r2 <= r1 + 6, "rounds grew too fast: {r1} -> {r2}");
    }
}
