//! The divide & conquer shortest path forest algorithm (§5.4, Theorem 56 /
//! Corollary 57): an `(S, D)`-shortest path forest in `O(log n log² k)`
//! rounds.
//!
//! Pipeline:
//!
//! 1. **Dividing** (§5.4.1): mark the x-portals holding sources (`Q`, one
//!    beep round), compute the augmentation set `A_Q` via the portal
//!    root-and-prune (Lemmas 34, 51), and split the structure at the
//!    portals of `Q' = Q ∪ A_Q` — each `Q'` portal joins both sides, and is
//!    further split at the marked connector amoebots (all but the
//!    westernmost per side) so that every region meets one or two `Q'`
//!    portals (Lemma 52).
//! 2. **Base case** (§5.4.2): elect `R'` ∈ `Q'`, root the portal tree at it;
//!    each region identifies its LCA (and descendant) portal, runs the line
//!    algorithm on it and propagates inward; two-portal regions merge the
//!    two propagated forests (Lemma 54).
//! 3. **Merging** (§5.4.3/5.4.4): process the `Q'`-centroid decomposition
//!    tree of the portal graph from the deepest level upward; at each
//!    scheduled portal, pair up the regions of each side via the parity of
//!    a single PASC iteration over the marked amoebots, merge each pair
//!    through its separating marked amoebot (two region-scoped SPTs + one
//!    merge), then join the two sides with two propagations and a merge
//!    (Lemma 55).
//! 4. **Destinations** (Corollary 57): a final root-and-prune with `Q = D`
//!    prunes every subtree without destinations.

use amoebot_circuits::{RoundReport, Topology, World};
use amoebot_grid::{AmoebotStructure, Axis, NodeId};

use crate::forest::account::RoundAccount;
use crate::forest::line::line_forest;
use crate::forest::merge::merge_forests;
use crate::forest::propagate::propagate_forest;
use crate::forest::Forest;
use crate::links::LINKS;
use crate::portals::{
    axis_portals, mark_portals, portal_augmentation, portal_centroid_decomposition, portal_elect,
    portal_root_and_prune, AxisPortals,
};
use crate::primitives::root_prune::root_and_prune;
use crate::spt::spt_in_world;
use crate::tree::Tree;

/// Result of the shortest path forest algorithm.
#[derive(Debug, Clone)]
pub struct ForestOutcome {
    /// `parents[v]` in the `(S, D)`-shortest path forest (`None` for
    /// sources, pruned amoebots and non-members).
    pub parents: Vec<Option<NodeId>>,
    /// Reported rounds, `report.total()`: `ticks + charged − parallel`
    /// (DESIGN §2 item 1).
    pub rounds: u64,
    /// Rounds the solve's world ticked.
    pub ticks: u64,
    /// Rounds reported for steps that are not simulated.
    pub charged: u64,
    /// Rounds counted but not reported, because their parallel group
    /// reports its longest member: the reported spans (ticked and
    /// charged rounds) of every other member.
    pub parallel: u64,
    /// Total distinct beeps sent (diagnostic instrumentation of
    /// [`World::beeps_sent`]; the model itself never counts beeps).
    pub beeps: u64,
    /// Per-phase breakdown.
    pub report: RoundReport,
}

/// Computes an `(S, D)`-shortest path forest (Theorem 56 / Corollary 57,
/// `O(log n log² k)` rounds).
///
/// # Panics
///
/// Panics if `sources` or `dests` is empty.
pub fn shortest_path_forest(
    structure: &AmoebotStructure,
    sources: &[NodeId],
    dests: &[NodeId],
) -> ForestOutcome {
    assert!(!sources.is_empty(), "S must be non-empty");
    assert!(!dests.is_empty(), "D must be non-empty");
    let n = structure.len();
    let mut src: Vec<usize> = sources.iter().map(|s| s.index()).collect();
    src.sort_unstable();
    src.dedup();

    // k = 1 degenerates to the shortest path tree algorithm (§1.3).
    if src.len() == 1 {
        let out = crate::spt::shortest_path_tree(structure, NodeId(src[0] as u32), dests);
        return ForestOutcome {
            parents: out.parents,
            rounds: out.rounds,
            ticks: out.rounds,
            charged: 0,
            parallel: 0,
            beeps: out.beeps,
            report: out.report,
        };
    }

    let mut world = World::new(Topology::from_structure(structure), LINKS);
    let mut account = RoundAccount::default();
    let mut dest_mask = vec![false; n];
    for d in dests {
        dest_mask[d.index()] = true;
    }
    let src_mask: Vec<bool> = {
        let mut m = vec![false; n];
        for &s in &src {
            m[s] = true;
        }
        m
    };

    let full_mask = vec![true; n];
    let forest = sources_forest(
        &mut world,
        &mut account,
        structure,
        &full_mask,
        &src,
        &src_mask,
    );

    // Corollary 57: prune every tree with Q = D.
    let start = account.reported(&world);
    let roots = forest_roots(&forest);
    let trees: Vec<Tree> = forest
        .sources
        .iter()
        .map(|&s| {
            let mut parents = vec![None; n];
            for v in 0..n {
                if forest.member[v] && roots[v] == s as u32 {
                    parents[v] = forest.parents[v];
                }
            }
            Tree::from_parents(n, s, &parents)
        })
        .collect();
    let rp = root_and_prune(&mut world, &trees, |v| dest_mask[v]);
    account.record(&world, "destination pruning (Corollary 57)", start);

    let mut parents: Vec<Option<NodeId>> = vec![None; n];
    for (t, tree) in trees.iter().enumerate() {
        for (i, &v) in tree.members().iter().enumerate() {
            if rp.in_vq(t, i) {
                parents[v] = rp.parent(t, i).map(|p| NodeId(p as u32));
            }
        }
    }
    ForestOutcome {
        parents,
        rounds: account.reported(&world),
        ticks: world.rounds(),
        charged: account.charged,
        parallel: account.parallel,
        beeps: world.beeps_sent(),
        report: account.report,
    }
}

/// The root of every node under `f`'s parent pointers, memoized with path
/// compression: one O(n) pass over two flat arrays. The previous
/// per-(source, node) upward walks cost O(n · k · depth) and dominated
/// destination pruning once the structure outgrew ~10^4 nodes.
fn forest_roots(f: &Forest) -> Vec<u32> {
    const UNKNOWN: u32 = u32::MAX;
    let n = f.parents.len();
    let mut root = vec![UNKNOWN; n];
    let mut path: Vec<u32> = Vec::new();
    for v in 0..n {
        if root[v] != UNKNOWN {
            continue;
        }
        let mut x = v;
        path.clear();
        while root[x] == UNKNOWN {
            match f.parents[x] {
                // The length guard mirrors the old defensive cycle check:
                // a (never expected) parent cycle terminates instead of
                // spinning, labelling the cycle by its entry node.
                Some(p) if path.len() < n => {
                    path.push(x as u32);
                    x = p;
                }
                _ => break,
            }
        }
        let r = if root[x] != UNKNOWN {
            root[x]
        } else {
            x as u32
        };
        root[x] = r;
        for &y in &path {
            root[y as usize] = r;
        }
    }
    root
}

/// A region of the divide step: an amoebot mask plus, per `Q'` portal it
/// meets, which side of that portal the region lies on.
#[derive(Debug, Clone)]
struct Region {
    mask: Vec<bool>,
    /// `(portal id, side)` of each boundary `Q'` portal.
    boundaries: Vec<(u32, usize)>,
}

/// Computes the `S`-shortest path forest covering the whole structure
/// (Theorem 56) — destinations are handled by the caller. Every phase
/// is recorded in `account`.
fn sources_forest(
    world: &mut World,
    account: &mut RoundAccount,
    structure: &AmoebotStructure,
    mask: &[bool],
    src: &[usize],
    src_mask: &[bool],
) -> Forest {
    let n = structure.len();
    let members: Vec<usize> = (0..n).filter(|&v| mask[v]).collect();
    let ap = axis_portals(structure, &members, Axis::X);

    // §5.4.1: Q = portals with sources (one beep round, Lemma 51)...
    let start = account.reported(world);
    let q_portals = mark_portals(world, structure, &ap, |v| src_mask[v]);

    // Degenerate case: the whole structure is a single x-portal (a line).
    if ap.portals.len() == 1 {
        let chain = ap.portals[0].clone();
        let is_source: Vec<bool> = chain.iter().map(|&v| src_mask[v]).collect();
        let f = line_forest(world, &chain, &is_source);
        account.record(world, "line structure (Lemma 40)", start);
        return f;
    }

    // ...and A_Q via the portal root-and-prune rooted at the leader's
    // portal (the leader is a precondition, §2.1; we use the first source).
    let leader_portal = ap.portal_of(src[0]);
    let prp = portal_root_and_prune(world, structure, &ap, leader_portal, &q_portals);
    let (q_prime, degree_count) = portal_augmentation(&prp, &q_portals);
    account.charge(degree_count);
    account.record(world, "compute Q' = Q ∪ A_Q (Lemma 51)", start);

    // §5.4.1: split into regions (Lemma 52). The unmarking beep is a round.
    let start = account.reported(world);
    account.charge(1);
    let (regions, splits) =
        build_regions(structure, &ap, leader_portal, &prp.portal_in_vq, &q_prime);
    for r in &regions {
        let b: std::collections::BTreeSet<u32> = r.boundaries.iter().map(|&(p, _)| p).collect();
        assert!(
            (1..=2).contains(&b.len()),
            "Lemma 52: regions meet one or two Q' portals"
        );
    }
    account.record(world, "divide into regions (Lemma 52)", start);

    // §5.4.2 preprocessing: elect R' ∈ Q' and root the portal tree at it.
    let start = account.reported(world);
    let r_prime =
        portal_elect(world, structure, &ap, leader_portal, &q_prime).expect("Q' is non-empty");
    // Portal tree rooted at R' (depths for LCA identification, Lemma 53).
    let pdepth = portal_depths(&ap, r_prime);
    // P_DSC identification via the region circuit (Lemma 53).
    account.charge(1);
    account.record(world, "elect and root at R' (Lemmas 35, 53)", start);

    // §5.4.2 base case: per-region forests, one parallel group.
    let start = account.reported(world);
    let mut forests: Vec<Forest> = Vec::with_capacity(regions.len());
    let mut spans = Vec::new();
    for region in &regions {
        let s0 = account.reported(world);
        forests.push(base_case_forest(
            world, account, structure, &ap, region, src_mask, &pdepth,
        ));
        spans.push(account.reported(world) - s0);
    }
    account.group(&spans);
    account.record(world, "base case per region (Lemma 54)", start);

    // §5.4.4: schedule merges by a Q'-centroid decomposition tree of the
    // portal graph rooted at R' (Lemma 37).
    let start = account.reported(world);
    let (decomposition, decomposition_rounds) =
        portal_centroid_decomposition(&ap, r_prime, &q_prime);
    account.charge(decomposition_rounds);
    account.record(world, "portal centroid decomposition (Lemma 37)", start);

    // Merge from the deepest decomposition level upward (§5.4.4); the
    // decomposition is recomputed (binary-counter replay) per level.
    let mut live: Vec<Option<(Region, Forest)>> =
        regions.into_iter().zip(forests).map(Some).collect();
    for level in (0..decomposition.levels).rev() {
        let portals_at_level = decomposition.centroids_at_level(level);
        if portals_at_level.is_empty() {
            continue;
        }
        if level + 1 != decomposition.levels {
            let recompute = "recompute decomposition level (Lemma 37 + binary counter)";
            account.charge(decomposition_rounds + 2);
            account.report.record(recompute, decomposition_rounds + 2);
        }
        let s0 = account.reported(world);
        let mut spans = Vec::new();
        for &p in &portals_at_level {
            let m0 = account.reported(world);
            merge_around_portal(
                world,
                account,
                structure,
                &ap,
                p as u32,
                splits.get(&(p as u32)),
                &mut live,
            );
            spans.push(account.reported(world) - m0);
        }
        account.group(&spans);
        account.record(world, format!("merge level {level} (Lemma 55)"), s0);
    }

    let mut remaining: Vec<(Region, Forest)> = live.into_iter().flatten().collect();
    assert_eq!(remaining.len(), 1, "all regions must merge into one");
    let (region, forest) = remaining.pop().unwrap();
    debug_assert!((0..n).all(|v| region.mask[v] == mask[v]));
    debug_assert!((0..n).all(|v| !mask[v] || forest.member[v]));
    forest
}

/// BFS depths of the portal tree rooted at `root`.
fn portal_depths(ap: &AxisPortals, root: u32) -> Vec<u32> {
    let adj = ap.portal_tree_edges();
    let mut depth = vec![u32::MAX; ap.portals.len()];
    let mut queue = std::collections::VecDeque::new();
    depth[root as usize] = 0;
    queue.push_back(root);
    while let Some(p) = queue.pop_front() {
        for &(q, _) in &adj[p as usize] {
            if depth[q as usize] == u32::MAX {
                depth[q as usize] = depth[p as usize] + 1;
                queue.push_back(q);
            }
        }
    }
    depth
}

type Splits = std::collections::BTreeMap<u32, [Vec<usize>; 2]>;

/// Builds the regions of Lemma 52 and returns them together with the split
/// positions (member indices of the marked amoebots) per `(portal, side)`.
fn build_regions(
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    root_portal: u32,
    portal_in_vq: &[bool],
    q_prime: &[bool],
) -> (Vec<Region>, Splits) {
    let n = structure.len();
    let adj = ap.portal_tree_edges();
    // Rooted portal tree, mirroring the distributed rooting (the agreement
    // is verified by the portal-layer tests).
    let mut parent = vec![u32::MAX; ap.portals.len()];
    {
        let mut seen = vec![false; ap.portals.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[root_portal as usize] = true;
        queue.push_back(root_portal);
        while let Some(p) = queue.pop_front() {
            for &(q, _) in &adj[p as usize] {
                if !seen[q as usize] {
                    seen[q as usize] = true;
                    parent[q as usize] = p;
                    queue.push_back(q);
                }
            }
        }
    }
    let is_tq_edge = |a: u32, b: u32| -> bool {
        portal_in_vq[a as usize]
            && portal_in_vq[b as usize]
            && (parent[a as usize] == b || parent[b as usize] == a)
    };
    let side_of = |p: u32, q: u32| -> usize {
        // Side 0: the neighbor portal has a smaller line key (north for x).
        let kp = Axis::X.line_key(structure.coord(NodeId(ap.portals[p as usize][0] as u32)));
        let kq = Axis::X.line_key(structure.coord(NodeId(ap.portals[q as usize][0] as u32)));
        usize::from(kq > kp)
    };
    let member_index = |p: u32, v: usize| -> usize {
        ap.portals[p as usize]
            .iter()
            .position(|&x| x == v)
            .expect("connector on its portal")
    };

    // Split positions per (Q' portal, side): the T_Q connectors minus the
    // westernmost (Lemma 52).
    let mut splits: Splits = Splits::new();
    for p in 0..ap.portals.len() as u32 {
        if !q_prime[p as usize] {
            continue;
        }
        let mut per_side: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for &(q, c) in &adj[p as usize] {
            if is_tq_edge(p, q) {
                per_side[side_of(p, q)].push(member_index(p, c));
            }
        }
        for side in &mut per_side {
            side.sort_unstable();
            if !side.is_empty() {
                side.remove(0); // unmark the westernmost
            }
        }
        splits.insert(p, per_side);
    }

    // Quotient nodes: whole non-Q' portals, and one node per
    // (Q' portal, side, interval); interval j spans member indices
    // [split_{j-1} ..= split_j] (endpoints shared: marked amoebots belong
    // to both neighboring regions).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    enum QNode {
        Portal(u32),
        Sub(u32, usize, usize),
    }
    fn find(dsu: &mut std::collections::BTreeMap<QNode, QNode>, x: QNode) -> QNode {
        let p = *dsu.entry(x).or_insert(x);
        if p == x {
            x
        } else {
            let r = find(dsu, p);
            dsu.insert(x, r);
            r
        }
    }
    let interval_of = |p: u32, side: usize, member_idx: usize| -> usize {
        splits[&p][side]
            .iter()
            .filter(|&&x| x <= member_idx)
            .count()
    };
    let node_for = |p: u32, toward: u32, connector: usize| -> QNode {
        if q_prime[p as usize] {
            let side = side_of(p, toward);
            QNode::Sub(p, side, interval_of(p, side, member_index(p, connector)))
        } else {
            QNode::Portal(p)
        }
    };
    let mut dsu: std::collections::BTreeMap<QNode, QNode> = std::collections::BTreeMap::new();
    for p in 0..ap.portals.len() as u32 {
        for &(q, c) in &adj[p as usize] {
            if p < q {
                let cq = adj[q as usize]
                    .iter()
                    .find(|&&(x, _)| x == p)
                    .map(|&(_, cc)| cc)
                    .expect("symmetric portal adjacency");
                let a = node_for(p, q, c);
                let b = node_for(q, p, cq);
                let ra = find(&mut dsu, a);
                let rb = find(&mut dsu, b);
                if ra != rb {
                    dsu.insert(ra, rb);
                }
            }
        }
    }
    // Materialize components into regions, deterministically ordered.
    let mut all_nodes: Vec<QNode> = Vec::new();
    for p in 0..ap.portals.len() as u32 {
        if q_prime[p as usize] {
            for side in 0..2 {
                for j in 0..=splits[&p][side].len() {
                    all_nodes.push(QNode::Sub(p, side, j));
                }
            }
        } else {
            all_nodes.push(QNode::Portal(p));
        }
    }
    let mut groups: std::collections::BTreeMap<QNode, Vec<QNode>> =
        std::collections::BTreeMap::new();
    for &x in &all_nodes {
        let r = find(&mut dsu, x);
        groups.entry(r).or_default().push(x);
    }
    let mut regions = Vec::new();
    for (_, nodes) in groups {
        let mut mask = vec![false; n];
        let mut boundaries = Vec::new();
        for node in nodes {
            match node {
                QNode::Portal(p) => {
                    for &v in &ap.portals[p as usize] {
                        mask[v] = true;
                    }
                }
                QNode::Sub(p, side, j) => {
                    let members = &ap.portals[p as usize];
                    let s = &splits[&p][side];
                    let lo = if j == 0 { 0 } else { s[j - 1] };
                    let hi = if j == s.len() {
                        members.len() - 1
                    } else {
                        s[j]
                    };
                    for &v in &members[lo..=hi] {
                        mask[v] = true;
                    }
                    boundaries.push((p, side));
                }
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        regions.push(Region { mask, boundaries });
    }
    (regions, splits)
}

/// §5.4.2: the base-case forest of one region.
fn base_case_forest(
    world: &mut World,
    account: &mut RoundAccount,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    region: &Region,
    src_mask: &[bool],
    pdepth: &[u32],
) -> Forest {
    let n = structure.len();
    // The region's Q' portals; the LCA is the one closest to R' (Lemma 53).
    let mut portals: Vec<u32> = region.boundaries.iter().map(|&(p, _)| p).collect();
    portals.sort_unstable();
    portals.dedup();
    portals.sort_by_key(|&p| pdepth[p as usize]);
    let mut forest: Option<Forest> = None;
    for &p in &portals {
        let chain: Vec<usize> = ap.portals[p as usize]
            .iter()
            .copied()
            .filter(|&v| region.mask[v])
            .collect();
        let is_source: Vec<bool> = chain.iter().map(|&v| src_mask[v]).collect();
        if !is_source.iter().any(|&b| b) {
            continue; // no sources on this portal within the region
        }
        let line = line_forest(world, &chain, &is_source);
        let propagated = propagate_forest(
            world,
            account,
            structure,
            &region.mask,
            &chain,
            Axis::X,
            &line,
        );
        forest = Some(match forest {
            None => propagated,
            Some(prev) => merge_forests(world, &prev, &propagated),
        });
    }
    forest.unwrap_or_else(|| {
        // A corridor region without sources: its forest arrives via the
        // merge steps; represent it as an empty-source forest over the mask.
        let mut f = Forest::empty(n);
        f.member = region.mask.clone();
        f
    })
}

/// §5.4.3: merges all regions intersecting portal `p` into one.
fn merge_around_portal(
    world: &mut World,
    account: &mut RoundAccount,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    p: u32,
    splits: Option<&[Vec<usize>; 2]>,
    live: &mut [Option<(Region, Forest)>],
) {
    let n = structure.len();
    let portal_members = &ap.portals[p as usize];
    let west_pos =
        |mask: &[bool]| -> usize { portal_members.iter().position(|&v| mask[v]).unwrap_or(0) };

    // Collect regions per side.
    let mut side_regions: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (i, slot) in live.iter().enumerate() {
        if let Some((region, _)) = slot {
            for &(bp, side) in &region.boundaries {
                if bp == p && !side_regions[side].contains(&i) {
                    side_regions[side].push(i);
                }
            }
        }
    }

    let mut side_final: [Option<usize>; 2] = [None, None];
    for side in 0..2 {
        let mut order: Vec<usize> = side_regions[side].clone();
        order.sort_by_key(|&i| west_pos(&live[i].as_ref().unwrap().0.mask));
        if order.is_empty() {
            continue;
        }
        let mut marks: Vec<usize> = splits.map(|s| s[side].clone()).unwrap_or_default();
        debug_assert_eq!(
            marks.len() + 1,
            order.len(),
            "marks must separate the side's regions"
        );
        // Phase 1: iterative pairing by PASC parity (O(log k) iterations).
        while !marks.is_empty() {
            // Termination check (1 round) + one weighted PASC iteration on
            // the portal over M (2 rounds), §5.4.3 steps 1-2.
            account.charge(3);
            // Odd prefix parity selects every second mark (1-based odd).
            let selected: std::collections::BTreeSet<usize> =
                marks.iter().copied().step_by(2).collect();
            let mut spans = Vec::new();
            let mut new_order = Vec::new();
            let mut new_marks = Vec::new();
            let mut cur = order[0];
            for (j, &m) in marks.iter().enumerate() {
                let east = order[j + 1];
                if selected.contains(&m) {
                    let s0 = account.reported(world);
                    let merged = merge_pair(
                        world,
                        structure,
                        portal_members[m],
                        live[cur].take().unwrap(),
                        live[east].take().unwrap(),
                    );
                    live[cur] = Some(merged);
                    spans.push(account.reported(world) - s0);
                    // `cur` stays the holder of the merged region.
                } else {
                    new_order.push(cur);
                    new_marks.push(m);
                    cur = east;
                }
            }
            new_order.push(cur);
            // Pair merges run in parallel (Lemma 55).
            account.group(&spans);
            order = new_order;
            marks = new_marks;
        }
        side_final[side] = Some(order[0]);
    }

    // Phase 2: join the two sides across the (now whole) portal.
    let outcome_idx = match (side_final[0], side_final[1]) {
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (Some(a), Some(b)) if a == b => a,
        (Some(a), Some(b)) => {
            let (rn, fnorth) = live[a].take().unwrap();
            let (rs, fsouth) = live[b].take().unwrap();
            let mut union_mask = rn.mask.clone();
            for v in 0..n {
                union_mask[v] |= rs.mask[v];
            }
            let chain: Vec<usize> = portal_members
                .iter()
                .copied()
                .filter(|&v| union_mask[v])
                .collect();
            let forest = join_sides(
                world,
                account,
                structure,
                &union_mask,
                &chain,
                fnorth,
                fsouth,
            );
            let mut boundaries = rn.boundaries;
            boundaries.extend(rs.boundaries);
            boundaries.sort_unstable();
            boundaries.dedup();
            live[a] = Some((
                Region {
                    mask: union_mask,
                    boundaries,
                },
                forest,
            ));
            a
        }
        (None, None) => unreachable!("a scheduled portal bounds at least one region"),
    };
    // Remove p from the final region's boundary.
    if let Some((region, _)) = live[outcome_idx].as_mut() {
        region.boundaries.retain(|&(bp, _)| bp != p);
    }
}

/// §5.4.3 step 3: merges two regions separated by the marked amoebot `m`
/// (part of both regions): every path between them traverses `m`, so each
/// forest is extended into the other region by a region-scoped SPT from `m`
/// glued below `m`'s existing tree position, and the two extensions merge.
fn merge_pair(
    world: &mut World,
    structure: &AmoebotStructure,
    m: usize,
    west: (Region, Forest),
    east: (Region, Forest),
) -> (Region, Forest) {
    let n = structure.len();
    let (rw, fw) = west;
    let (re, fe) = east;
    debug_assert!(rw.mask[m] && re.mask[m], "mark belongs to both regions");
    let mut union_mask = rw.mask.clone();
    for v in 0..n {
        union_mask[v] |= re.mask[v];
    }
    let extend = |f: &Forest, own: &Region, other: &Region, world: &mut World| -> Option<Forest> {
        if f.sources.is_empty() {
            return None;
        }
        let mut report = RoundReport::new();
        let members: Vec<usize> = (0..n).filter(|&v| other.mask[v]).collect();
        let sub = spt_in_world(world, structure, &members, m, &other.mask, &mut report);
        let mut parents = f.parents.clone();
        for (&v, p) in members.iter().zip(sub) {
            if v != m && !own.mask[v] {
                parents[v] = p;
                debug_assert!(parents[v].is_some(), "SPT must cover the paired region");
            }
        }
        let mut out = Forest::from_parents(parents, f.sources.clone());
        for v in 0..n {
            out.member[v] = own.mask[v] || other.mask[v];
        }
        Some(out)
    };
    let fw_ext = extend(&fw, &rw, &re, world);
    let fe_ext = extend(&fe, &re, &rw, world);
    let forest = match (fw_ext, fe_ext) {
        (Some(a), Some(b)) => merge_forests(world, &a, &b),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => {
            let mut f = Forest::empty(n);
            f.member = union_mask.clone();
            f
        }
    };
    let mut boundaries = rw.boundaries;
    boundaries.extend(re.boundaries);
    boundaries.sort_unstable();
    boundaries.dedup();
    (
        Region {
            mask: union_mask,
            boundaries,
        },
        forest,
    )
}

/// §5.4.3 phase 2: joins the two sides of a portal with two propagations
/// and a merge (each side's region already contains the whole portal).
fn join_sides(
    world: &mut World,
    account: &mut RoundAccount,
    structure: &AmoebotStructure,
    union_mask: &[bool],
    chain: &[usize],
    fnorth: Forest,
    fsouth: Forest,
) -> Forest {
    let n = structure.len();
    let mut complete = |f: &Forest, world: &mut World| -> Option<Forest> {
        if f.sources.is_empty() {
            return None;
        }
        debug_assert!(chain.iter().all(|&v| f.member[v]));
        Some(propagate_forest(
            world,
            account,
            structure,
            union_mask,
            chain,
            Axis::X,
            f,
        ))
    };
    let a = complete(&fnorth, world);
    let b = complete(&fsouth, world);
    match (a, b) {
        (Some(x), Some(y)) => merge_forests(world, &x, &y),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => {
            let mut f = Forest::empty(n);
            f.member = union_mask.to_vec();
            f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, validate_forest};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_forest(
        structure: &AmoebotStructure,
        sources: &[NodeId],
        dests: &[NodeId],
    ) -> ForestOutcome {
        let out = shortest_path_forest(structure, sources, dests);
        let violations = validate_forest(structure, sources, dests, &out.parents);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(out.report.total(), out.rounds, "{}", out.report);
        assert_eq!(out.rounds + out.parallel, out.ticks + out.charged);
        let mut distinct = sources.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() == 1 {
            // k = 1 is the SPT, which charges nothing and runs no group.
            assert_eq!((out.ticks, out.charged, out.parallel), (out.rounds, 0, 0));
        }
        out
    }

    #[test]
    fn two_sources_on_parallelogram() {
        let s = AmoebotStructure::new(shapes::parallelogram(8, 5)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        check_forest(&s, &[NodeId(0), NodeId((s.len() - 1) as u32)], &all);
    }

    #[test]
    fn sources_on_same_portal() {
        let s = AmoebotStructure::new(shapes::parallelogram(9, 4)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        check_forest(&s, &[NodeId(0), NodeId(3), NodeId(7)], &all);
    }

    #[test]
    fn many_sources_hexagon() {
        let s = AmoebotStructure::new(shapes::hexagon(3)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        let sources: Vec<NodeId> = vec![NodeId(0), NodeId(9), NodeId(18), NodeId(27), NodeId(36)];
        check_forest(&s, &sources, &all);
    }

    /// `k` random sources and a random non-empty destination set over
    /// `n` amoebots.
    fn random_terminals(n: usize, k: usize, rng: &mut StdRng) -> (Vec<NodeId>, Vec<NodeId>) {
        let ids =
            |v: Vec<usize>| -> Vec<NodeId> { v.into_iter().map(|i| NodeId(i as u32)).collect() };
        let src = ids(shapes::random_subset(n, k.min(n), rng));
        let l = rng.gen_range(1..=n);
        (src, ids(shapes::random_subset(n, l, rng)))
    }

    #[test]
    fn random_blobs_random_sources() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut blobs = Vec::new();
        for n in [12usize, 30, 80] {
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            for k in [2usize, 3, 5] {
                let (src, dst) = random_terminals(n, k, &mut rng);
                check_forest(&s, &src, &dst);
            }
            blobs.push(s);
        }
        // One source per blob, the k = 1 delegation to the SPT, drawn
        // after the inputs above so that those stay as they were.
        for s in &blobs {
            let (src, dst) = random_terminals(s.len(), 1, &mut rng);
            check_forest(s, &src, &dst);
        }
    }

    #[test]
    fn line_structure_many_sources() {
        let s = AmoebotStructure::new(shapes::line(20)).unwrap();
        let all: Vec<NodeId> = s.nodes().collect();
        let out = check_forest(&s, &[NodeId(2), NodeId(10), NodeId(17)], &all);
        // The line algorithm is simulated whole: no charge, no group.
        assert_eq!((out.ticks, out.charged, out.parallel), (out.rounds, 0, 0));
    }

    #[test]
    fn concave_shapes() {
        for coords in [
            shapes::comb(9, 3),
            shapes::l_shape(8, 3),
            shapes::staircase(5, 3),
        ] {
            let s = AmoebotStructure::new(coords).unwrap();
            let all: Vec<NodeId> = s.nodes().collect();
            let k = 3.min(s.len());
            let sources: Vec<NodeId> = (0..k)
                .map(|i| NodeId((i * (s.len() - 1) / (k - 1).max(1)) as u32))
                .collect();
            check_forest(&s, &sources, &all);
        }
    }

    /// No absorb of a forest solve repairs. Every absorb tries the local
    /// repair, but an algorithm's world is never labelled by a read, so
    /// each attempt meets a stale frontier set and gives up; the solve
    /// labels by walking alone.
    #[test]
    fn a_forest_solve_never_repairs() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = AmoebotStructure::new(shapes::random_blob(300, &mut rng)).unwrap();
        let n = s.len();
        let src = [0, n / 3, 2 * n / 3];
        let mut src_mask = vec![false; n];
        for &v in &src {
            src_mask[v] = true;
        }
        let mut world = World::new(Topology::from_structure(&s), LINKS);
        let mask = vec![true; n];
        let forest = sources_forest(
            &mut world,
            &mut RoundAccount::default(),
            &s,
            &mask,
            &src,
            &src_mask,
        );
        assert_eq!(world.repair_relabels(), 0);
        assert_eq!((world.global_relabels(), world.region_relabels()), (0, 0));
        assert!(world.walk_relabels() > 0);
        let sources: Vec<NodeId> = src.iter().map(|&v| NodeId(v as u32)).collect();
        let all: Vec<NodeId> = s.nodes().collect();
        let parents: Vec<Option<NodeId>> = forest
            .parents
            .iter()
            .map(|p| p.map(|v| NodeId(v as u32)))
            .collect();
        let violations = validate_forest(&s, &sources, &all, &parents);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn destination_pruning_keeps_only_needed_paths() {
        let s = AmoebotStructure::new(shapes::parallelogram(10, 4)).unwrap();
        let src = [NodeId(0), NodeId(39)];
        let dst = [NodeId(19)];
        let out = check_forest(&s, &src, &dst);
        // Members = union of tree paths: far fewer than n.
        let members = out.parents.iter().flatten().count();
        assert!(members < s.len() / 2, "pruning must remove unused subtrees");
    }
}
