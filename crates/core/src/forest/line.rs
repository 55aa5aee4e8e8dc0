//! The line algorithm (§5.1, Lemma 40): an S-shortest path forest for a
//! chain of amoebots in `O(log n)` rounds.
//!
//! The closest source of every amoebot is the next source in one of the two
//! directions, so it suffices to run the PASC algorithm from every source in
//! both directions up to the next source (Figure 6); all `2k` runs execute
//! in parallel, using separate links per direction.

use amoebot_circuits::World;
use amoebot_pasc::{chain_specs, PascRun};

use crate::forest::Forest;
use crate::links::{BWD_PRIMARY, BWD_SECONDARY, FWD_PRIMARY, FWD_SECONDARY, SYNC};

/// Computes the S-shortest path forest of a chain (Lemma 40).
///
/// `chain` lists the amoebots in order; `is_source[i]` flags the sources by
/// chain position. Returns the forest over the whole world's node range.
///
/// # Panics
///
/// Panics if `chain` is empty, consecutive entries are not adjacent in the
/// world topology, or no source is flagged.
pub fn line_forest(world: &mut World, chain: &[usize], is_source: &[bool]) -> Forest {
    let n = world.topology().len();
    assert_eq!(chain.len(), is_source.len());
    assert!(!chain.is_empty(), "chain must be non-empty");
    let src_pos: Vec<usize> = (0..chain.len()).filter(|&i| is_source[i]).collect();
    assert!(!src_pos.is_empty(), "S must be non-empty");

    for &v in chain {
        world.reset_pins_keeping_links(v, &[SYNC]);
    }

    // Segments: from each source eastward to the next source (exclusive),
    // and westward to the previous source (exclusive). Eastward runs use the
    // forward links, westward the backward links, so they share edges
    // without pin conflicts.
    let topo = world.topology();
    let mut specs = Vec::new();
    // east_run[i] / west_run[i]: instance index of chain position i in the
    // respective run (usize::MAX if not covered).
    let mut east_run = vec![usize::MAX; chain.len()];
    let mut west_run = vec![usize::MAX; chain.len()];
    for (si, &s) in src_pos.iter().enumerate() {
        // Eastward: from s up to (not including) the next source.
        let end = src_pos.get(si + 1).copied().unwrap_or(chain.len());
        let nodes: Vec<usize> = (s..end).map(|i| chain[i]).collect();
        if !nodes.is_empty() {
            let base = specs.len();
            for (o, i) in (s..end).enumerate() {
                east_run[i] = base + o;
            }
            specs.extend(chain_specs(topo, &nodes, FWD_PRIMARY, FWD_SECONDARY, None));
        }
        // Westward: from s down to (not including) the previous source.
        let begin = if si == 0 { 0 } else { src_pos[si - 1] + 1 };
        let nodes: Vec<usize> = (begin..=s).rev().map(|i| chain[i]).collect();
        if !nodes.is_empty() {
            let base = specs.len();
            for (o, i) in (begin..=s).rev().enumerate() {
                west_run[i] = base + o;
            }
            specs.extend(chain_specs(topo, &nodes, BWD_PRIMARY, BWD_SECONDARY, None));
        }
    }

    let mut run = PascRun::new(world, specs, SYNC);
    let values = run.run_to_completion(world);

    // Each amoebot compares its two distances (only one exists beyond the
    // outermost sources) and adopts the neighbor towards the closer source.
    let mut parents: Vec<Option<usize>> = vec![None; n];
    for i in 0..chain.len() {
        if is_source[i] {
            continue;
        }
        let de = (east_run[i] != usize::MAX).then(|| values[east_run[i]]);
        let dw = (west_run[i] != usize::MAX).then(|| values[west_run[i]]);
        let towards_west = match (de, dw) {
            // `east_run` covers i from the source to its west; `west_run`
            // from the source to its east.
            (Some(from_west), Some(from_east)) => from_west <= from_east,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("every chain position is covered"),
        };
        parents[chain[i]] = Some(if towards_west {
            chain[i - 1]
        } else {
            chain[i + 1]
        });
    }
    let sources: Vec<usize> = src_pos.iter().map(|&i| chain[i]).collect();
    let mut forest = Forest::from_parents(parents, sources);
    for &v in chain {
        forest.member[v] = true;
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_circuits::Topology;
    use amoebot_grid::{shapes, validate_forest, AmoebotStructure, NodeId};

    use crate::links::LINKS;

    fn check_line(n: usize, sources: &[usize]) -> u64 {
        let s = AmoebotStructure::new(shapes::line(n)).unwrap();
        let mut world = World::new(Topology::from_structure(&s), LINKS);
        let chain: Vec<usize> = (0..n).collect();
        let mut is_source = vec![false; n];
        for &i in sources {
            is_source[i] = true;
        }
        let before = world.rounds();
        let forest = line_forest(&mut world, &chain, &is_source);
        let rounds = world.rounds() - before;
        let src: Vec<NodeId> = sources.iter().map(|&i| NodeId(i as u32)).collect();
        let all: Vec<NodeId> = s.nodes().collect();
        let parents: Vec<Option<NodeId>> = forest
            .parents
            .iter()
            .map(|p| p.map(|v| NodeId(v as u32)))
            .collect();
        let violations = validate_forest(&s, &src, &all, &parents);
        assert!(violations.is_empty(), "{violations:?}");
        rounds
    }

    #[test]
    fn single_source_middle() {
        check_line(9, &[4]);
    }

    #[test]
    fn sources_at_ends() {
        check_line(10, &[0, 9]);
    }

    #[test]
    fn many_sources() {
        check_line(17, &[0, 3, 4, 11, 16]);
        check_line(6, &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn figure_6_example() {
        // Figure 6: sources at positions such that the easternmost amoebot
        // only receives one distance; validated via ground truth above.
        check_line(12, &[2, 7]);
    }

    #[test]
    fn rounds_logarithmic() {
        // Lemma 40: O(log n) rounds; doubling n adds ~2 rounds (one PASC
        // iteration), not a linear amount.
        let r1 = check_line(16, &[0]);
        let r2 = check_line(64, &[0]);
        assert!(r2 <= r1 + 6, "rounds grew too fast: {r1} -> {r2}");
    }
}
