//! The shortest path tree algorithm for a single source (§4, Theorem 39).
//!
//! The algorithm roots all three portal graphs at the source's portals and
//! prunes subtrees without destination portals (three portal root-and-prune
//! executions). By Lemma 11, a neighbor `v` of `u` is a feasible parent iff
//! for the two axes not shared with `v`, `portal_d(v)` is the parent of
//! `portal_d(u)` (Equation 1). A fourth root-and-prune execution over the
//! chosen-parent graph extracts the tree containing `s` and prunes subtrees
//! and stray components without destinations.
//!
//! Round complexity: `O(log ℓ)` — each of the four root-and-prune
//! executions is `O(log ℓ)` because at most `ℓ` portals per axis hold
//! destinations. SPSP (`ℓ = 1`) is `O(1)` and SSSP (`ℓ = n`) is `O(log n)`
//! as special cases.

use amoebot_circuits::{RoundReport, Topology, World};
use amoebot_grid::{AmoebotStructure, NodeId, ALL_AXES, ALL_DIRECTIONS};

use crate::links::LINKS;
use crate::portals::{axis_portals, mark_portals, portal_root_and_prune};
use crate::primitives::root_prune::root_and_prune;
use crate::tree::Tree;

/// Result of the shortest path tree algorithm.
#[derive(Debug, Clone)]
pub struct SptOutcome {
    /// `parents[v]` — the parent of `v` in the `({s}, D)`-shortest path
    /// forest; `None` for `s`, for non-members, and for amoebots pruned in
    /// the final cleanup.
    pub parents: Vec<Option<NodeId>>,
    /// Total simulator rounds consumed.
    pub rounds: u64,
    /// Total distinct beeps sent (diagnostic instrumentation of
    /// [`World::beeps_sent`]; the model itself never counts beeps).
    pub beeps: u64,
    /// Per-phase round breakdown.
    pub report: RoundReport,
}

/// Computes a `({source}, dests)`-shortest path forest on a fresh world
/// (Theorem 39, `O(log ℓ)` rounds).
///
/// # Panics
///
/// Panics if the structure is not hole-free or `dests` is empty.
pub fn shortest_path_tree(
    structure: &AmoebotStructure,
    source: NodeId,
    dests: &[NodeId],
) -> SptOutcome {
    assert!(!dests.is_empty(), "D must be non-empty");
    let mut world = World::new(Topology::from_structure(structure), LINKS);
    let members: Vec<usize> = (0..structure.len()).collect();
    let mut dest_mask = vec![false; structure.len()];
    for &d in dests {
        dest_mask[d.index()] = true;
    }
    let mut report = RoundReport::new();
    // The region is the whole structure, so its member-aligned parents
    // are indexed by node id.
    let parents = spt_in_world(
        &mut world,
        structure,
        &members,
        source.index(),
        &dest_mask,
        &mut report,
    );
    SptOutcome {
        parents: parents
            .into_iter()
            .map(|p| p.map(|v| NodeId(v as u32)))
            .collect(),
        rounds: world.rounds(),
        beeps: world.beeps_sent(),
        report,
    }
}

/// Solves the single pair shortest path problem (SPSP, `k = ℓ = 1`).
pub fn spsp(structure: &AmoebotStructure, source: NodeId, target: NodeId) -> SptOutcome {
    shortest_path_tree(structure, source, &[target])
}

/// Solves the single source shortest path problem (SSSP, `ℓ = n`).
pub fn sssp(structure: &AmoebotStructure, source: NodeId) -> SptOutcome {
    let all: Vec<NodeId> = structure.nodes().collect();
    shortest_path_tree(structure, source, &all)
}

/// No chosen parent (member-index sentinel).
const NO_PARENT: u32 = u32::MAX;

/// The region-scoped SPT used both stand-alone and as a subroutine of the
/// propagation and merging algorithms (§5.3, §5.4.3). Operates on the
/// connected region whose members are `members` (ascending node ids);
/// `dest_mask` is read for members only. Returns the chosen parent of
/// every member, aligned with `members`: `None` for the source and for
/// members the cleanup prunes.
///
/// Beyond its ticks, a call costs O(|members|): every pass runs over the
/// member list, and the only structure-sized arrays are the portal
/// indices of the three [`axis_portals`] (see DESIGN.md).
pub fn spt_in_world(
    world: &mut World,
    structure: &AmoebotStructure,
    members: &[usize],
    source: usize,
    dest_mask: &[bool],
    report: &mut RoundReport,
) -> Vec<Option<usize>> {
    let m = members.len();
    let s = members.partition_point(|&v| v < source);
    assert!(
        members.get(s) == Some(&source),
        "source must lie in the region"
    );
    if !members.iter().any(|&v| v != source && dest_mask[v]) {
        return vec![None; m];
    }

    // Phase 1-3: portal root-and-prune per axis (rooted at the source's
    // portal, Q = destination portals). Bit `d` of `feasible[i]` is
    // and-accumulated across axes.
    let mut feasible = vec![0x3fu8; m];
    // Any axis' portals index the region; keep the first.
    let [region, ..] = ALL_AXES.map(|axis| {
        let start = world.rounds();
        let ap = axis_portals(structure, members, axis);
        let q_portals = mark_portals(world, structure, &ap, |v| dest_mask[v]);
        let root_portal = ap.portal_of(source);
        let prp = portal_root_and_prune(world, structure, &ap, root_portal, &q_portals);
        // A neighbor via direction d contributes to Equation (1) through
        // this axis iff d is parallel to the axis (same portal, difference
        // 0) or points into the parent portal (difference +1).
        let (pos, neg) = axis.directions();
        let parallel = (1u8 << pos.index()) | (1u8 << neg.index());
        for (f, &side) in feasible.iter_mut().zip(&prp.parent_side) {
            *f &= parallel | side;
        }
        report.record(
            format!("portal root-and-prune ({axis}-axis)"),
            world.rounds() - start,
        );
        ap
    });

    // Parent choice (Equation 1 / Lemma 38): local, no communication.
    let mut chosen = vec![NO_PARENT; m];
    for (i, &v) in members.iter().enumerate() {
        if i == s {
            continue;
        }
        for d in ALL_DIRECTIONS {
            if feasible[i] & (1 << d.index()) == 0 {
                continue;
            }
            if let Some(w) = structure.neighbor(NodeId(v as u32), d) {
                if let Some(j) = region.index_of(w.index()) {
                    chosen[i] = j as u32;
                    break;
                }
            }
        }
    }

    // Phase 4: cleanup. Components not containing s never receive a signal
    // and prune themselves; the tree of s is rooted at s and pruned with
    // Q = D (Theorem 39's fourth root-and-prune execution).
    let start = world.rounds();
    // Children adjacency of the chosen-parent graph by member index, in
    // CSR form: two counting passes over two flat arrays instead of one
    // heap-allocated vector per member.
    let mut child_off = vec![0u32; m + 1];
    for &p in &chosen {
        if p != NO_PARENT {
            child_off[p as usize + 1] += 1;
        }
    }
    for i in 0..m {
        child_off[i + 1] += child_off[i];
    }
    let mut children = vec![0u32; child_off[m] as usize];
    let mut cursor = child_off.clone();
    for (i, &p) in chosen.iter().enumerate() {
        if p != NO_PARENT {
            children[cursor[p as usize] as usize] = i as u32;
            cursor[p as usize] += 1;
        }
    }
    let mut in_comp = vec![false; m];
    in_comp[s] = true;
    let mut stack = vec![s];
    let mut edges = Vec::new();
    while let Some(i) = stack.pop() {
        for &j in &children[child_off[i] as usize..child_off[i + 1] as usize] {
            let j = j as usize;
            if !in_comp[j] {
                in_comp[j] = true;
                edges.push((members[i], members[j]));
                stack.push(j);
            }
        }
    }
    let tree = Tree::from_edges(structure.len(), source, &edges);
    let rp = root_and_prune(world, std::slice::from_ref(&tree), |v| dest_mask[v]);
    report.record("final root-and-prune (cleanup)", world.rounds() - start);

    // The cleanup tree's members are a subset of `members`; both ascend.
    let mut parents = vec![None; m];
    let mut i = 0;
    for (t, &v) in tree.members().iter().enumerate() {
        while members[i] != v {
            i += 1;
        }
        if i != s && rp.in_vq(0, t) {
            let p = rp.parent(0, t);
            debug_assert_eq!(
                p,
                Some(members[chosen[i] as usize]),
                "cleanup must confirm the chosen parent"
            );
            parents[i] = p;
        }
    }
    parents
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, validate_forest, Coord};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_spt(structure: &AmoebotStructure, source: NodeId, dests: &[NodeId]) -> SptOutcome {
        let out = shortest_path_tree(structure, source, dests);
        let violations = validate_forest(structure, &[source], dests, &out.parents);
        assert!(violations.is_empty(), "{violations:?}");
        out
    }

    #[test]
    fn sssp_on_parallelogram() {
        let s = AmoebotStructure::new(shapes::parallelogram(7, 4)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        check_spt(&s, NodeId(0), &all);
    }

    #[test]
    fn spsp_various_pairs() {
        let s = AmoebotStructure::new(shapes::hexagon(3)).unwrap();
        let n = s.len();
        for (a, b) in [(0usize, n - 1), (3, 7), (n / 2, 0)] {
            check_spt(&s, NodeId(a as u32), &[NodeId(b as u32)]);
        }
    }

    #[test]
    fn spsp_is_constant_rounds() {
        // Theorem 39 with ℓ = 1: rounds must not grow with n.
        let mut rounds = Vec::new();
        for w in [4usize, 8, 16] {
            let s = AmoebotStructure::new(shapes::parallelogram(w, 3)).unwrap();
            let src = s.node_at(Coord::new(0, 0)).unwrap();
            let dst = s.node_at(Coord::new(w as i32 - 1, 2)).unwrap();
            let out = check_spt(&s, src, &[dst]);
            rounds.push(out.rounds);
        }
        assert_eq!(rounds[0], rounds[1], "SPSP rounds must not depend on n");
        assert_eq!(rounds[1], rounds[2], "SPSP rounds must not depend on n");
    }

    #[test]
    fn concave_structures() {
        for coords in [
            shapes::comb(9, 4),
            shapes::l_shape(8, 2),
            shapes::staircase(6, 3),
        ] {
            let s = AmoebotStructure::new(coords).unwrap();
            let all: Vec<NodeId> = s.nodes().collect();
            check_spt(&s, NodeId((s.len() / 2) as u32), &all);
        }
    }

    #[test]
    fn random_blobs_random_destinations() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [10usize, 40, 120] {
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            let src = NodeId(rng.gen_range(0..n as u32));
            let l = rng.gen_range(1..=n);
            let dests: Vec<NodeId> = shapes::random_subset(n, l, &mut rng)
                .into_iter()
                .map(|i| NodeId(i as u32))
                .collect();
            check_spt(&s, src, &dests);
        }
    }

    /// The count guard: the solver ticks untraced, so on a caller-owned
    /// world it labels only the circuits it beeps on, by walking them.
    /// No global or region relabel may run — if one does, the tick path
    /// has silently turned eager again — and no absorb repairs.
    #[test]
    fn spt_in_world_labels_lazily() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = AmoebotStructure::new(shapes::random_blob(10_000, &mut rng)).unwrap();
        let n = s.len();
        let source = rng.gen_range(0..n);
        let dests: Vec<NodeId> = shapes::random_subset(n, 8, &mut rng)
            .into_iter()
            .map(|i| NodeId(i as u32))
            .collect();
        let mut world = World::new(Topology::from_structure(&s), LINKS);
        let mut dest_mask = vec![false; n];
        for d in &dests {
            dest_mask[d.index()] = true;
        }
        let members: Vec<usize> = (0..n).collect();
        let parents = spt_in_world(
            &mut world,
            &s,
            &members,
            source,
            &dest_mask,
            &mut RoundReport::new(),
        );
        assert_eq!((world.global_relabels(), world.region_relabels()), (0, 0));
        assert!(world.walk_relabels() > 0);
        // Nor may an absorb repair: the world's global relabel is due.
        assert_eq!(world.repair_relabels(), 0);
        let expected = shortest_path_tree(&s, NodeId(source as u32), &dests);
        let parents: Vec<Option<NodeId>> = parents
            .into_iter()
            .map(|p| p.map(|v| NodeId(v as u32)))
            .collect();
        assert_eq!(parents, expected.parents);
    }

    /// A region call on a proper sub-region of a larger structure, whose
    /// member ids interleave with non-member ids: the tree is valid and
    /// matches — parent for parent, mapped by coordinate, and round for
    /// round — the SPT of the region built as a structure of its own.
    #[test]
    fn region_call_matches_the_region_as_its_own_structure() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut regions = vec![shapes::hexagon(4), shapes::comb(9, 4)];
        for n in [12usize, 60, 200] {
            regions.push(shapes::random_blob(n, &mut rng));
        }
        for coords in regions {
            // Embed the region in a parallelogram, two rows and columns
            // of non-members on every side.
            let q0 = coords.iter().map(|c| c.q).min().unwrap();
            let r0 = coords.iter().map(|c| c.r).min().unwrap();
            let q1 = coords.iter().map(|c| c.q).max().unwrap();
            let r1 = coords.iter().map(|c| c.r).max().unwrap();
            let big = AmoebotStructure::new(shapes::parallelogram(
                (q1 - q0 + 5) as usize,
                (r1 - r0 + 5) as usize,
            ))
            .unwrap();
            let mut members: Vec<usize> = coords
                .iter()
                .map(|c| {
                    big.node_at(Coord::new(c.q - q0 + 2, c.r - r0 + 2))
                        .unwrap()
                        .index()
                })
                .collect();
            members.sort_unstable();
            // The region on its own, its ids in the members' order.
            let sub = AmoebotStructure::new(members.iter().map(|&v| big.coord(NodeId(v as u32))))
                .unwrap();
            let to_sub = |v: usize| sub.node_at(big.coord(NodeId(v as u32))).unwrap();
            let m = members.len();
            assert!(m < big.len() && members.windows(2).any(|w| w[1] > w[0] + 1));
            let source = members[rng.gen_range(0..m)];
            for l in [1, m / 3 + 1, m] {
                let dests: Vec<usize> = shapes::random_subset(m, l, &mut rng)
                    .into_iter()
                    .map(|i| members[i])
                    .collect();
                let mut dest_mask = vec![false; big.len()];
                for &d in &dests {
                    dest_mask[d] = true;
                }
                let mut world = World::new(Topology::from_structure(&big), LINKS);
                let mut report = RoundReport::new();
                let parents =
                    spt_in_world(&mut world, &big, &members, source, &dest_mask, &mut report);
                let mut mapped = vec![None; m];
                for (&v, p) in members.iter().zip(&parents) {
                    mapped[to_sub(v).index()] = p.map(to_sub);
                }
                let sub_dests: Vec<NodeId> = dests.iter().map(|&d| to_sub(d)).collect();
                let violations = validate_forest(&sub, &[to_sub(source)], &sub_dests, &mapped);
                assert!(violations.is_empty(), "{violations:?}");
                let own = shortest_path_tree(&sub, to_sub(source), &sub_dests);
                assert_eq!(mapped, own.parents, "|region| {m}, ℓ = {l}");
                assert_eq!(world.rounds(), own.rounds, "|region| {m}, ℓ = {l}");
                assert_eq!(world.beeps_sent(), own.beeps, "|region| {m}, ℓ = {l}");
            }
        }
    }

    #[test]
    fn line_structure() {
        let s = AmoebotStructure::new(shapes::line(12)).unwrap();
        check_spt(&s, NodeId(3), &[NodeId(0), NodeId(11)]);
    }

    #[test]
    fn destination_equals_source() {
        let s = AmoebotStructure::new(shapes::triangle(4)).unwrap();
        let out = shortest_path_tree(&s, NodeId(0), &[NodeId(0)]);
        // The forest is just the source; no parents anywhere.
        assert!(out.parents.iter().all(|p| p.is_none()));
    }

    #[test]
    fn rounds_scale_with_log_l_not_n() {
        // Fixed ℓ = 2, growing n: round count stays bounded by the ℓ-term.
        let mut rounds = Vec::new();
        for w in [6usize, 12, 24] {
            let s = AmoebotStructure::new(shapes::parallelogram(w, 4)).unwrap();
            let src = s.node_at(Coord::new(0, 0)).unwrap();
            let d1 = s.node_at(Coord::new(w as i32 - 1, 3)).unwrap();
            let d2 = s.node_at(Coord::new(w as i32 / 2, 1)).unwrap();
            let out = check_spt(&s, src, &[d1, d2]);
            rounds.push(out.rounds);
        }
        let spread = rounds.iter().max().unwrap() - rounds.iter().min().unwrap();
        assert!(
            spread <= 4,
            "rounds {rounds:?} must be (nearly) independent of n for fixed ℓ"
        );
    }
}
