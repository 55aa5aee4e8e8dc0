//! Property tests for the random structure generators (ISSUE 1 satellite):
//! every generated structure is connected and hole-free, and the
//! distributed `shortest_path_forest` agrees with centralized
//! `multi_source_bfs` distances under `validate_forest`, for a sweep of
//! seeds across all three generator families and all placement strategies.

use amoebot_grid::random::{random_placement, random_shape_mix, random_snake, ALL_PLACEMENTS};
use amoebot_grid::shapes::random_blob;
use amoebot_grid::{multi_source_bfs, validate_forest, AmoebotStructure, NodeId, ALL_DIRECTIONS};
use amoebot_scenarios::spec::derive_rng;
use amoebot_spf::forest::shortest_path_forest;
use proptest::prelude::*;

fn forest_agrees_with_bfs(structure: &AmoebotStructure, sources: &[NodeId]) {
    let dests: Vec<NodeId> = structure.nodes().collect();
    let out = shortest_path_forest(structure, sources, &dests);
    // validate_forest property 5 compares every tree depth against
    // multi-source BFS — the centralized cross-check.
    let violations = validate_forest(structure, sources, &dests, &out.parents);
    assert!(violations.is_empty(), "violations: {violations:?}");
    // Belt and braces: recompute depths explicitly.
    let (dist, _) = multi_source_bfs(structure, sources);
    for v in structure.nodes() {
        let mut depth = 0u32;
        let mut cur = v;
        while let Some(p) = out.parents[cur.index()] {
            depth += 1;
            cur = p;
        }
        assert_eq!(Some(depth), dist[v.index()], "depth mismatch at {v}");
    }
}

/// Every neighbor-table slot holds the node a coordinate lookup finds in
/// that direction: a check of the table's merge passes against
/// `node_at`'s binary search.
fn neighbors_match_lookups(s: &AmoebotStructure) -> bool {
    s.nodes().all(|v| {
        ALL_DIRECTIONS
            .into_iter()
            .all(|d| s.neighbor(v, d) == s.node_at(s.coord(v).neighbor(d)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Blobs: exact size, connected (constructor), hole-free, and
    /// neighbor tables that agree with lookups.
    #[test]
    fn blobs_are_connected_and_hole_free(n in 1usize..150, seed in 0u64..10_000) {
        let coords = random_blob(n, &mut derive_rng(seed, 1));
        prop_assert_eq!(coords.len(), n);
        let s = AmoebotStructure::new(coords).unwrap();
        prop_assert!(s.is_hole_free());
        prop_assert!(neighbors_match_lookups(&s));
    }

    /// Shape mixes: connected, hole-free, tables agree with lookups.
    #[test]
    fn mixes_are_connected_and_hole_free(pieces in 1usize..6, scale in 2usize..7, seed in 0u64..10_000) {
        let coords = random_shape_mix(pieces, scale, &mut derive_rng(seed, 2));
        let s = AmoebotStructure::new(coords).unwrap();
        prop_assert!(s.is_hole_free());
        prop_assert!(neighbors_match_lookups(&s));
    }

    /// Snakes: connected, hole-free, tables agree with lookups.
    #[test]
    fn snakes_are_connected_and_hole_free(segments in 1usize..12, seg_len in 1usize..7, seed in 0u64..10_000) {
        let coords = random_snake(segments, seg_len, &mut derive_rng(seed, 3));
        let s = AmoebotStructure::new(coords).unwrap();
        prop_assert!(s.is_hole_free());
        prop_assert!(neighbors_match_lookups(&s));
    }

    /// The paper's forest algorithm agrees with centralized BFS on random
    /// blobs with every placement strategy.
    #[test]
    fn forest_matches_bfs_on_blobs(n in 12usize..70, k in 2usize..5, seed in 0u64..5_000) {
        let s = AmoebotStructure::new(random_blob(n, &mut derive_rng(seed, 4))).unwrap();
        let strategy = ALL_PLACEMENTS[(seed % 3) as usize];
        let sources = random_placement(&s, k.min(s.len()), strategy, &mut derive_rng(seed, 5));
        forest_agrees_with_bfs(&s, &sources);
    }

    /// Same agreement on shape mixes.
    #[test]
    fn forest_matches_bfs_on_mixes(pieces in 2usize..5, scale in 3usize..6, seed in 0u64..5_000) {
        let s = AmoebotStructure::new(
            random_shape_mix(pieces, scale, &mut derive_rng(seed, 6))
        ).unwrap();
        let k = 2 + (seed % 3) as usize;
        let sources = random_placement(
            &s,
            k.min(s.len()),
            ALL_PLACEMENTS[(seed % 3) as usize],
            &mut derive_rng(seed, 7),
        );
        forest_agrees_with_bfs(&s, &sources);
    }

    /// Same agreement on snakes (thin corridors, many portals).
    #[test]
    fn forest_matches_bfs_on_snakes(segments in 2usize..8, seg_len in 2usize..5, seed in 0u64..5_000) {
        let s = AmoebotStructure::new(
            random_snake(segments, seg_len, &mut derive_rng(seed, 8))
        ).unwrap();
        let k = 2 + (seed % 2) as usize;
        let sources = random_placement(
            &s,
            k.min(s.len()),
            amoebot_grid::Placement::Uniform,
            &mut derive_rng(seed, 9),
        );
        forest_agrees_with_bfs(&s, &sources);
    }
}
