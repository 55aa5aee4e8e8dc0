//! Portal graphs on the triangular grid and their primitives (§2.3, §3.5).
//!
//! For each axis `d ∈ {x, y, z}`, the *d-portals* of a (hole-free) region
//! are the maximal runs of amoebots along `d`; the portal graph `P_d`
//! (portals as vertices) is a tree (Lemma 9). The amoebots only access the
//! *implicit portal graph* `T_d` (Definition 12): a spanning tree of the
//! region that contains all axis-parallel edges plus one canonical
//! ("westernmost") edge per adjacent portal pair, decided by a local rule.
//!
//! The portal-level primitives (§3.5) run the node-level ETT machinery on
//! `T_d` with the portal *representatives* as the weighted set `Q̂` — by
//! Lemma 32 the prefix-sum differences across inter-portal edges equal the
//! portal-graph values — and then disseminate the results inside each portal
//! with portal circuits (Figure 4a) and per-directed-edge circuits
//! (Figure 4b).
//!
//! Every primitive reads region membership from the [`AxisPortals`] it is
//! given and walks the region's member list, so beyond its ticks a
//! primitive on a region of `m` amoebots costs O(m), not O(n). Two steps
//! are not simulated on the world, and each returns the rounds it stands
//! for instead: the Lemma 34 degree count ([`portal_augmentation`]) and
//! the quotient decomposition ([`portal_centroid_decomposition`]).

use amoebot_circuits::{Topology, World};
use amoebot_grid::{
    implicit_portal_edge, AmoebotStructure, Axis, Direction, NodeId, ALL_DIRECTIONS,
};
use amoebot_pasc::PascRun;

use crate::ett::build_tours;
use crate::links::{BROADCAST, FWD_PRIMARY, FWD_SECONDARY, LINKS, SYNC};
use crate::primitives::centroid::SizeStream;
use crate::primitives::decomposition::{centroid_decomposition, Decomposition};
use crate::primitives::election::elect;
use crate::primitives::root_prune::root_and_prune;
use crate::tree::Tree;

/// The portal decomposition of a region for one axis, plus the implicit
/// portal tree.
///
/// Everything but one array is sized by the region: the node-id index
/// (`n` entries) answers "is `w` in the region, and at which member
/// index?" in O(1) for any neighbor `w` of a member, which the primitives
/// ask of every member's six neighbors.
#[derive(Debug, Clone)]
pub struct AxisPortals {
    /// The axis.
    pub axis: Axis,
    /// Node id -> member index (position in [`AxisPortals::members`]),
    /// `u32::MAX` outside the region.
    index: Vec<u32>,
    /// Per member: its portal.
    member_portal: Vec<u32>,
    /// Member nodes of each portal, ordered along [`Axis::positive`].
    pub portals: Vec<Vec<usize>>,
    /// The representative of each portal: its "westernmost" member (the
    /// first in portal order), §3.5.
    pub reps: Vec<usize>,
    /// The implicit portal tree `T_d` over the region's members, rooted at
    /// the first portal's representative; [`AxisPortals::tree_rooted_at`]
    /// re-roots it without copying.
    tree: Tree,
}

/// Computes the portals and the implicit portal tree of the region with
/// the ascending member list `members` for `axis`, in O(|members|) beyond
/// one `n`-entry index. The region must be connected; for the tree
/// property it must also be hole-free (Lemma 9).
pub fn axis_portals(structure: &AmoebotStructure, members: &[usize], axis: Axis) -> AxisPortals {
    let n = structure.len();
    debug_assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "members must ascend"
    );
    let mut index = vec![u32::MAX; n];
    for (i, &v) in members.iter().enumerate() {
        index[v] = i as u32;
    }
    let nbr = |v: usize, d: Direction| -> Option<usize> {
        structure
            .neighbor(NodeId(v as u32), d)
            .and_then(|w| (index[w.index()] != u32::MAX).then_some(w.index()))
    };

    // Portal runs along the axis.
    let (pos, neg) = axis.directions();
    let mut member_portal = vec![u32::MAX; members.len()];
    let mut portals: Vec<Vec<usize>> = Vec::new();
    let mut reps = Vec::new();
    for &v in members {
        if nbr(v, neg).is_some() {
            continue;
        }
        let p = portals.len() as u32;
        let mut run = Vec::new();
        let mut cur = Some(v);
        while let Some(u) = cur {
            member_portal[index[u] as usize] = p;
            run.push(u);
            cur = nbr(u, pos);
        }
        reps.push(run[0]);
        portals.push(run);
    }

    // Implicit portal tree adjacency via the local rule of Definition 12,
    // by member index.
    let mut tree_off = Vec::with_capacity(members.len() + 1);
    let mut tree_nbr = Vec::new();
    tree_off.push(0);
    for &v in members {
        let occupied = |d| nbr(v, d).is_some();
        for d in ALL_DIRECTIONS {
            if let Some(w) = nbr(v, d) {
                if implicit_portal_edge(axis, d, occupied) {
                    tree_nbr.push(index[w]);
                }
            }
        }
        tree_off.push(tree_nbr.len() as u32);
    }
    let root = reps.first().copied().unwrap_or(0);
    let tree = Tree::from_member_adjacency(n, root, members.to_vec(), tree_off, tree_nbr);
    AxisPortals {
        axis,
        index,
        member_portal,
        portals,
        reps,
        tree,
    }
}

impl AxisPortals {
    /// Number of portals.
    pub fn len(&self) -> usize {
        self.portals.len()
    }

    /// Whether the region had no portals (empty region).
    pub fn is_empty(&self) -> bool {
        self.portals.is_empty()
    }

    /// The region's members, ascending. Member-indexed results of the
    /// portal primitives follow this order.
    #[inline]
    pub fn members(&self) -> &[usize] {
        self.tree.members()
    }

    /// Whether `v` belongs to the region the portals were computed for.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        self.index[v] != u32::MAX
    }

    /// The position of member `v` in [`AxisPortals::members`]; `None`
    /// outside the region.
    #[inline]
    pub fn index_of(&self, v: usize) -> Option<usize> {
        let i = self.index[v];
        (i != u32::MAX).then_some(i as usize)
    }

    /// The portal of node `v` (`u32::MAX` outside the region).
    #[inline]
    pub fn portal_of(&self, v: usize) -> u32 {
        self.index_of(v).map_or(u32::MAX, |i| self.member_portal[i])
    }

    /// Whether `v` is in the representative set `Q̂` of a portal set: it
    /// represents a portal of `q_portals`. By Lemma 32, a node-level ETT
    /// on the implicit portal tree weighted by `Q̂` computes the
    /// portal-graph values (§3.5).
    #[inline]
    pub(crate) fn represents(&self, v: usize, q_portals: &[bool]) -> bool {
        let p = self.portal_of(v);
        p != u32::MAX && self.reps[p as usize] == v && q_portals[p as usize]
    }

    /// Neighbors of `v` in the implicit portal tree `T_d`, in port (=
    /// direction index) order — the cyclic order used for Euler tours.
    #[inline]
    pub fn tree_adj(&self, v: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.tree.adj(v)
    }

    /// The implicit portal tree rooted at the representative of `portal`;
    /// shares the tree's shape, so it costs O(1).
    pub fn tree_rooted_at(&self, portal: u32) -> Tree {
        self.tree.with_root(self.reps[portal as usize])
    }

    /// The portal-level adjacency (quotient graph): for each portal, its
    /// adjacent portals via inter-portal tree edges, together with the
    /// connector amoebots `c_{P1}(P2)` (§3.5). Sorted by neighbor portal id.
    pub fn portal_tree_edges(&self) -> Vec<Vec<(u32, usize)>> {
        let mut out: Vec<Vec<(u32, usize)>> = vec![Vec::new(); self.portals.len()];
        for (i, &v) in self.members().iter().enumerate() {
            let pv = self.member_portal[i];
            for &w in self.tree.adj_at(i) {
                let pw = self.member_portal[w as usize];
                if pv != pw {
                    out[pv as usize].push((pw, v));
                }
            }
        }
        for lst in &mut out {
            lst.sort_unstable();
            lst.dedup();
        }
        out
    }
}

/// Groups `v`'s pins on `link` towards its region neighbors along `ap`'s
/// axis (positive direction first) into one partition set, `v`'s share of
/// its portal's circuit (Figure 4a), and returns the set; `u16::MAX` if `v`
/// has no such neighbor. The pins come from a fixed array: at most two.
pub(crate) fn group_axis_pins(
    world: &mut World,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    v: usize,
    link: usize,
) -> u16 {
    let mut pins = [(0, 0); 2];
    let mut len = 0;
    for d in [ap.axis.positive(), ap.axis.negative()] {
        if let Some(w) = structure.neighbor(NodeId(v as u32), d) {
            if ap.contains(w.index()) {
                pins[len] = (d.index(), link);
                len += 1;
            }
        }
    }
    if len == 0 {
        u16::MAX
    } else {
        world.group_pins(v, &pins[..len])
    }
}

/// One-round portal marking (used for `Q = {P : P ∩ S ≠ ∅}`, §5.4.1, and
/// for destination portals in §4): each portal forms a circuit along its
/// axis pins on the BROADCAST link, flagged members beep, and every member
/// learns whether its portal contains a flagged amoebot. `flagged` is read
/// for region members only.
pub fn mark_portals(
    world: &mut World,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    flagged: impl Fn(usize) -> bool,
) -> Vec<bool> {
    world.reset_all_pins_keeping_links(&[SYNC]);
    let mut pset = vec![u16::MAX; ap.members().len()];
    for members in &ap.portals {
        for &v in members {
            let i = ap.index[v] as usize;
            pset[i] = group_axis_pins(world, structure, ap, v, BROADCAST);
            if flagged(v) && pset[i] != u16::MAX {
                world.beep(v, pset[i]);
            }
        }
    }
    world.tick();
    ap.portals
        .iter()
        .map(|members| {
            let expected = members.iter().any(|&v| flagged(v));
            let rep = members[0];
            let rep_pset = pset[ap.index[rep] as usize];
            // Singleton portals know locally; others hear the circuit (the
            // sender's own partition set also receives its beep).
            let heard = if members.len() == 1 || rep_pset == u16::MAX {
                expected
            } else {
                world.received(rep, rep_pset)
            };
            debug_assert_eq!(heard, expected, "portal circuit must span the portal");
            heard
        })
        .collect()
}

/// Outcome of the portal-level root-and-prune primitive (§3.5, Lemma 33).
#[derive(Debug, Clone)]
pub struct PortalRootPrune {
    /// Per portal: whether the portal is in `V_Q` (its subtree in the portal
    /// tree contains a `Q`-portal). Every member amoebot learns this via the
    /// portal circuit (Figure 4a).
    pub portal_in_vq: Vec<bool>,
    /// Per region member (in [`AxisPortals::members`] order): bit
    /// `d.index()` is set iff the neighbor in direction `d` belongs to the
    /// *parent portal* of the member's portal (learned via the
    /// per-directed-edge circuits of Figure 4b). Only cross-axis
    /// directions can be set.
    pub parent_side: Vec<u8>,
    /// `|Q|` (number of Q-portals), as computed by the root representative.
    pub q_count: u64,
    /// Per portal: its number of connectors with a non-zero prefix-sum
    /// difference, i.e. its degree in the pruned portal tree, which the
    /// Lemma 34 count of [`portal_augmentation`] totals along the portal.
    pub portal_deg_q: Vec<u32>,
}

/// Runs root-and-prune on the portal graph of `ap` (§3.5): roots the portal
/// tree at `root_portal`, prunes subtrees without portals in `q_portals`,
/// and disseminates both the `V_Q` membership (portal circuits) and the
/// parent-portal relation (per-directed-edge circuits) to every member
/// amoebot. `O(log |Q|)` rounds (Lemma 33); beyond its ticks the call
/// costs O(region members).
pub fn portal_root_and_prune(
    world: &mut World,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    root_portal: u32,
    q_portals: &[bool],
) -> PortalRootPrune {
    assert_eq!(q_portals.len(), ap.portals.len());
    let members = ap.members();
    let portal = &ap.member_portal;

    // Node-level ETT on the implicit portal tree with Q̂ = representatives
    // of Q-portals (Lemma 32 transfers the prefix-sum differences).
    let tree = ap.tree_rooted_at(root_portal);
    let rp = root_and_prune(world, std::slice::from_ref(&tree), |v| {
        ap.represents(v, q_portals)
    });
    let q_count = rp.q_count[0];

    // Collect, per portal, the signed differences at its connector amoebots.
    // diff > 0 towards a neighbor portal means that neighbor is the parent.
    let mut portal_nonzero = vec![0u32; ap.portals.len()];
    let mut portal_parent_edge: Vec<Option<(usize, usize)>> = vec![None; ap.portals.len()];
    let mut connector_nonzero = vec![false; members.len()];
    for (i, &v) in members.iter().enumerate() {
        let p = portal[i] as usize;
        for (&w, &sign) in tree.adj_at(i).iter().zip(rp.diff_signs(0, &tree, i)) {
            if portal[w as usize] as usize == p || sign == 0 {
                continue; // intra-portal edge, or outside the pruned tree
            }
            portal_nonzero[p] += 1;
            connector_nonzero[i] = true;
            if sign > 0 {
                debug_assert!(
                    portal_parent_edge[p].is_none(),
                    "a portal has at most one parent"
                );
                portal_parent_edge[p] = Some((v, members[w as usize]));
            }
        }
    }

    // Dissemination round 1 (Figure 4a): each portal forms a circuit along
    // its axis pins on the BROADCAST link; connectors with non-zero diff
    // beep; the root portal's representative beeps iff |Q| > 0. Every member
    // then knows whether its portal is in V_Q.
    world.reset_all_pins_keeping_links(&[SYNC]);
    let mut portal_pset = vec![u16::MAX; members.len()];
    for run in &ap.portals {
        for &v in run {
            portal_pset[ap.index[v] as usize] = group_axis_pins(world, structure, ap, v, BROADCAST);
        }
    }
    for (i, &v) in members.iter().enumerate() {
        let p = portal[i] as usize;
        let root_beep = p as u32 == root_portal && ap.reps[p] == v && q_count > 0;
        if (connector_nonzero[i] || root_beep) && portal_pset[i] != u16::MAX {
            world.beep(v, portal_pset[i]);
        }
    }
    world.tick();
    let mut portal_in_vq = vec![false; ap.portals.len()];
    for (p, run) in ap.portals.iter().enumerate() {
        // Every member hears the same circuit; read it at the representative
        // (singleton portals check locally).
        let rep = ap.reps[p];
        let rep_pset = portal_pset[ap.index[rep] as usize];
        portal_in_vq[p] = if run.len() == 1 || rep_pset == u16::MAX {
            portal_nonzero[p] > 0 || (p as u32 == root_portal && q_count > 0)
        } else {
            world.received(rep, rep_pset)
        };
    }

    // Dissemination round 2 (Figure 4b): per-directed-edge circuits. For
    // each side of each portal, members adjacent to the neighboring portal
    // form a circuit along the axis (cut at run boundaries); the connector
    // of the parent edge beeps; every receiving member knows its cross
    // neighbors on that side are in the parent portal.
    world.reset_all_pins_keeping_links(&[SYNC, BROADCAST]);
    let (pos, neg) = ap.axis.directions();
    let sides = ap.axis.cross_sides();
    let side_links = [FWD_PRIMARY, FWD_SECONDARY];
    let mut side_pset = vec![[u16::MAX; 2]; members.len()];
    for (i, &v) in members.iter().enumerate() {
        let mut has = [false; 6];
        for d in ALL_DIRECTIONS {
            has[d.index()] = structure
                .neighbor(NodeId(v as u32), d)
                .is_some_and(|w| ap.contains(w.index()));
        }
        let has = |d: Direction| has[d.index()];
        for (s, &(cb, cf)) in sides.iter().enumerate() {
            if !has(cb) && !has(cf) {
                continue; // not adjacent to a portal on this side
            }
            let mut pins = [(0, 0); 2];
            let mut len = 0;
            // Connect along +axis iff the forward cross neighbor exists
            // (then the +axis neighbor shares this side's adjacent portal);
            // along -axis iff the backward cross neighbor exists.
            if has(cf) && has(pos) {
                pins[len] = (pos.index(), side_links[s]);
                len += 1;
            }
            if has(cb) && has(neg) {
                pins[len] = (neg.index(), side_links[s]);
                len += 1;
            }
            if len > 0 {
                side_pset[i][s] = world.group_pins(v, &pins[..len]);
            }
        }
    }
    // Connectors of parent edges beep on the circuit of their side.
    let mut parent_beeped = vec![[false; 2]; members.len()];
    for &(v, w) in portal_parent_edge.iter().flatten() {
        let d = Direction::between(
            structure.coord(NodeId(v as u32)),
            structure.coord(NodeId(w as u32)),
        )
        .expect("tree edge endpoints adjacent");
        let s = sides
            .iter()
            .position(|&(cb, cf)| d == cb || d == cf)
            .expect("inter-portal edge uses a cross direction");
        let i = ap.index[v] as usize;
        parent_beeped[i][s] = true;
        if side_pset[i][s] != u16::MAX {
            world.beep(v, side_pset[i][s]);
        }
    }
    world.tick();
    let mut parent_side = vec![0u8; members.len()];
    for (i, &v) in members.iter().enumerate() {
        for (s, &(cb, cf)) in sides.iter().enumerate() {
            let heard = (side_pset[i][s] != u16::MAX && world.received(v, side_pset[i][s]))
                || parent_beeped[i][s];
            if heard {
                for d in [cb, cf] {
                    if let Some(w) = structure.neighbor(NodeId(v as u32), d) {
                        if ap.contains(w.index()) {
                            debug_assert_ne!(ap.portal_of(w.index()), portal[i]);
                            parent_side[i] |= 1 << d.index();
                        }
                    }
                }
            }
        }
    }

    PortalRootPrune {
        portal_in_vq,
        parent_side,
        q_count,
        portal_deg_q: portal_nonzero,
    }
}

/// The augmented portal set `Q' = Q ∪ A_Q` of the divide step (§5.4.1,
/// Lemmas 34, 51): `A_Q` holds the `V_Q` portals of degree at least 3 in
/// the pruned portal tree. Each portal learns its degree by counting its
/// non-zero connectors with a PASC along its members (Lemma 34); that
/// count is not simulated. Returns `Q'` and the rounds the count stands
/// for, `2·⌈log₂(max_deg + 1)⌉`.
pub fn portal_augmentation(prp: &PortalRootPrune, q_portals: &[bool]) -> (Vec<bool>, u64) {
    let max_deg = prp.portal_deg_q.iter().copied().max().unwrap_or(0);
    let deg_rounds = 2 * (32 - (max_deg + 1).leading_zeros()) as u64;
    let q_prime = q_portals
        .iter()
        .zip(&prp.portal_in_vq)
        .zip(&prp.portal_deg_q)
        .map(|((&q, &in_vq), &deg)| q || (in_vq && deg >= 3))
        .collect();
    (q_prime, deg_rounds)
}

/// Portal-level election (§3.5, Lemma 35): elects a single portal
/// `R' ∈ Q` in O(1) rounds. Runs the simplified-ETT election over the
/// implicit portal tree with the portal representatives as `Q̂`, then
/// announces the winner on its portal circuit so every member amoebot of
/// `R'` learns the outcome.
///
/// Returns the elected portal, or `None` if no portal is in `Q`.
pub fn portal_elect(
    world: &mut World,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    root_portal: u32,
    q_portals: &[bool],
) -> Option<u32> {
    let tree = ap.tree_rooted_at(root_portal);
    let r = elect(world, std::slice::from_ref(&tree), |v| {
        ap.represents(v, q_portals)
    })[0]?;
    // Announcement round (Figure 4a): the elected representative beeps on
    // its portal circuit; each member of R' identifies itself.
    let marked = mark_portals(world, structure, ap, |v| v == r);
    let portal = ap.portal_of(r);
    debug_assert!(marked[portal as usize]);
    Some(portal)
}

/// Portal-level Q-centroid primitive (§3.5, Lemma 36): computes the
/// Q-centroid portal(s) of the portal tree in `O(log |Q|)` rounds.
///
/// Mechanism: the rooting pass and a second ETT stream the component sizes
/// `size_{P1}(P2)` at the connector amoebots against `|Q|/2` (the root's
/// representative broadcasts the current bit of `|Q|` each iteration on the
/// structure-spanning broadcast circuit); a final portal-circuit round lets
/// connectors with an oversized component veto their portal.
pub fn portal_centroids(
    world: &mut World,
    structure: &AmoebotStructure,
    ap: &AxisPortals,
    root_portal: u32,
    q_portals: &[bool],
) -> Vec<bool> {
    let members = ap.members();
    let portal = &ap.member_portal;
    let q_hat = |v: usize| ap.represents(v, q_portals);
    let tree = ap.tree_rooted_at(root_portal);
    // Pass 1: root the portal tree (parent relation at the connectors).
    let rp = root_and_prune(world, std::slice::from_ref(&tree), q_hat);
    // The portal-level parent edge: the inter-portal edge with diff > 0.
    let mut parent_edge_of: Vec<Option<(usize, usize)>> = vec![None; ap.portals.len()];
    for (i, &v) in members.iter().enumerate() {
        for (&w, &sign) in tree.adj_at(i).iter().zip(rp.diff_signs(0, &tree, i)) {
            if portal[w as usize] != portal[i] && sign > 0 {
                parent_edge_of[portal[i] as usize] = Some((v, members[w as usize]));
            }
        }
    }

    // Pass 2: stream sizes against |Q|/2 (3 rounds per iteration).
    world.reset_all_pins_keeping_links(&[SYNC]);
    let mut ts = build_tours(world.topology(), std::slice::from_ref(&tree), q_hat);
    let mut run = PascRun::new(world, std::mem::take(&mut ts.specs), SYNC);
    // Structure-spanning broadcast circuit for the |Q| bits.
    for &v in members {
        world.global_link_config(v, BROADCAST);
    }
    let bpset = World::global_link_pset(BROADCAST);
    let r_hat = tree.root;

    // One stream per inter-portal connector (v, tour slot).
    let mut streams: Vec<(usize, usize, SizeStream)> = Vec::new();
    for (i, &v) in members.iter().enumerate() {
        for (slot, &w) in ts.slots(0, &tree, i).zip(tree.adj_at(i)) {
            if portal[w as usize] == portal[i] {
                continue;
            }
            let through_parent =
                parent_edge_of[portal[i] as usize] == Some((v, members[w as usize]));
            streams.push((v, slot, SizeStream::new(through_parent)));
        }
    }
    while run.data_step(world, |_| {}).is_some() {
        let (bits, incoming) = (run.bits(), run.incoming());
        let w_bit = bits[ts.last_inst[0]];
        if w_bit == 1 {
            world.beep(r_hat, bpset);
        }
        world.tick();
        for (v, slot, stream) in &mut streams {
            let q_bit = if *v == r_hat {
                w_bit
            } else {
                u8::from(world.received(*v, bpset))
            };
            stream.feed(
                bits[ts.out_inst[*slot] as usize],
                incoming[ts.in_inst[*slot] as usize],
                q_bit,
            );
        }
        run.sync_step(world);
    }

    // Veto round (Figure 4a): connectors whose component exceeds |Q|/2 beep
    // on their portal circuit; silent Q-portals are centroids.
    let mut veto = vec![false; members.len()];
    for (v, _, stream) in &streams {
        if !stream.le_half() {
            veto[ap.index[*v] as usize] = true;
        }
    }
    let vetoed = mark_portals(world, structure, ap, |v| veto[ap.index[v] as usize]);
    (0..ap.portals.len())
        .map(|p| q_portals[p] && !vetoed[p])
        .collect()
}

/// Portal-level `Q'`-centroid decomposition (§3.5, Lemma 37,
/// `O(log² |Q|)` rounds).
///
/// Executed on the portal quotient graph with the node-level decomposition
/// primitive — Lemma 32 establishes that every ETT pass on the implicit
/// portal tree computes exactly the quotient values. Returns the
/// decomposition and the rounds it stands for: the quotient's rounds,
/// plus 2 per level for the steps a quotient recursion does not
/// simulate, the veto round of Lemma 36 and the announcement round of
/// Lemma 35.
pub fn portal_centroid_decomposition(
    ap: &AxisPortals,
    root_portal: u32,
    q_prime: &[bool],
) -> (Decomposition, u64) {
    let adj = ap.portal_tree_edges();
    let mut edges = Vec::new();
    for (p, lst) in adj.iter().enumerate() {
        for &(q, _) in lst {
            if (p as u32) < q {
                edges.push((p, q as usize));
            }
        }
    }
    let mut qworld = World::new(Topology::from_edges(ap.portals.len(), &edges), LINKS);
    let qtree = Tree::from_edges(ap.portals.len(), root_portal as usize, &edges);
    let d = centroid_decomposition(&mut qworld, &qtree, q_prime);
    let rounds = qworld.rounds() + 2 * d.levels as u64;
    (d, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, Coord, ALL_AXES};

    fn all_members(s: &AmoebotStructure) -> Vec<usize> {
        (0..s.len()).collect()
    }

    #[test]
    fn implicit_tree_is_spanning_tree_on_blobs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        for n in [5usize, 20, 60] {
            let s = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
            let members = all_members(&s);
            for axis in ALL_AXES {
                let ap = axis_portals(&s, &members, axis);
                let edge_count: usize =
                    (0..s.len()).map(|v| ap.tree_adj(v).len()).sum::<usize>() / 2;
                assert_eq!(edge_count, s.len() - 1, "axis {axis}, n {n}");
                let tree = ap.tree_rooted_at(0);
                assert_eq!(tree.len(), s.len());
            }
        }
    }

    #[test]
    fn portal_graph_matches_grid_reference() {
        let s = AmoebotStructure::new(shapes::hexagon(3)).unwrap();
        let members = all_members(&s);
        for axis in ALL_AXES {
            let ap = axis_portals(&s, &members, axis);
            let (ref_of, ref_portals) = s.portals(axis);
            assert_eq!(ap.portals.len(), ref_portals.len());
            for v in s.nodes() {
                assert_eq!(
                    ap.portal_of(v.index()),
                    ref_of[v.index()],
                    "portal ids must match grid reference"
                );
            }
        }
    }

    #[test]
    fn lemma_11_distance_identity() {
        // 2·dist(u,v) = dist_x + dist_y + dist_z over the portal graphs.
        let s = AmoebotStructure::new(shapes::comb(7, 3)).unwrap();
        let members = all_members(&s);
        let aps: Vec<AxisPortals> = ALL_AXES
            .iter()
            .map(|&ax| axis_portals(&s, &members, ax))
            .collect();
        // Portal-graph BFS distances per axis.
        let portal_dist = |ap: &AxisPortals, from: u32| -> Vec<u32> {
            let adj = ap.portal_tree_edges();
            let mut dist = vec![u32::MAX; ap.portals.len()];
            let mut queue = std::collections::VecDeque::new();
            dist[from as usize] = 0;
            queue.push_back(from);
            while let Some(p) = queue.pop_front() {
                for &(q, _) in &adj[p as usize] {
                    if dist[q as usize] == u32::MAX {
                        dist[q as usize] = dist[p as usize] + 1;
                        queue.push_back(q);
                    }
                }
            }
            dist
        };
        let u = NodeId(0);
        let bfs = s.bfs_distances(&[u]);
        let per_axis: Vec<Vec<u32>> = aps
            .iter()
            .map(|ap| portal_dist(ap, ap.portal_of(u.index())))
            .collect();
        for v in s.nodes() {
            let lhs = 2 * bfs[v.index()].unwrap();
            let rhs: u32 = aps
                .iter()
                .zip(&per_axis)
                .map(|(ap, dist)| dist[ap.portal_of(v.index()) as usize])
                .sum();
            assert_eq!(lhs, rhs, "Lemma 11 at node {v}");
        }
    }

    /// A structure, a fresh world over it, and its x-portals.
    fn setup(coords: Vec<Coord>) -> (AmoebotStructure, World, AxisPortals) {
        let s = AmoebotStructure::new(coords).unwrap();
        let world = World::new(Topology::from_structure(&s), LINKS);
        let ap = axis_portals(&s, &all_members(&s), Axis::X);
        (s, world, ap)
    }

    #[test]
    fn portal_root_prune_matches_reference() {
        let (s, mut world, ap) = setup(shapes::parallelogram(6, 5));
        // Q = portals of the two extreme rows; root = the middle row portal.
        let mut q_portals = vec![false; ap.portals.len()];
        q_portals[0] = true;
        *q_portals.last_mut().unwrap() = true;
        let root_portal = ap.portal_of(s.len() / 2);
        let out = portal_root_and_prune(&mut world, &s, &ap, root_portal, &q_portals);
        assert_eq!(out.q_count, 2);
        // Reference: portal-level BFS tree rooted at root_portal.
        let adj = ap.portal_tree_edges();
        let mut parent = vec![u32::MAX; ap.portals.len()];
        let mut order = vec![root_portal];
        let mut seen = vec![false; ap.portals.len()];
        seen[root_portal as usize] = true;
        let mut i = 0;
        while i < order.len() {
            let p = order[i];
            i += 1;
            for &(w, _) in &adj[p as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    parent[w as usize] = p;
                    order.push(w);
                }
            }
        }
        let mut in_vq_ref = vec![false; ap.portals.len()];
        for p in 0..ap.portals.len() {
            // p in V_Q iff some q-portal's path to root passes through p.
            for qp in 0..ap.portals.len() {
                if q_portals[qp] {
                    let mut cur = qp as u32;
                    loop {
                        if cur == p as u32 {
                            in_vq_ref[p] = true;
                        }
                        if cur == root_portal {
                            break;
                        }
                        cur = parent[cur as usize];
                    }
                }
            }
        }
        assert_eq!(out.portal_in_vq, in_vq_ref);
        // parent_side sanity: a node's flagged neighbor must lie in the
        // parent portal of the node's portal.
        for v in 0..s.len() {
            for d in ALL_DIRECTIONS {
                if out.parent_side[v] & (1 << d.index()) != 0 {
                    let w = s.neighbor(NodeId(v as u32), d).unwrap();
                    let pv = ap.portal_of(v);
                    let pw = ap.portal_of(w.index());
                    assert_eq!(
                        parent[pv as usize], pw,
                        "flagged neighbor must be in parent portal"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_region_portals() {
        // Restrict a parallelogram to its western half; portals must respect
        // the mask.
        let s = AmoebotStructure::new(shapes::parallelogram(6, 3)).unwrap();
        let mask: Vec<bool> = s.nodes().map(|v| s.coord(v).q < 3).collect();
        let members: Vec<usize> = (0..s.len()).filter(|&v| mask[v]).collect();
        let ap = axis_portals(&s, &members, Axis::X);
        assert_eq!(ap.portals.len(), 3);
        for members in &ap.portals {
            assert_eq!(members.len(), 3);
        }
        let off_region: usize = (0..s.len()).filter(|&v| !mask[v]).count();
        assert_eq!(off_region, 9);
        for v in 0..s.len() {
            assert_eq!(mask[v], ap.contains(v));
        }
    }

    #[test]
    fn portal_augmentation_adds_the_branching_portal() {
        // A comb's x-portals are its spine and one singleton portal per
        // tooth amoebot. With Q = the five tooth tips, the spine has degree
        // 5 in the pruned portal tree, so A_Q = {spine} (Lemmas 26, 34).
        let (s, mut world, ap) = setup(shapes::comb(9, 4));
        let spine = ap.portal_of(s.node_at(Coord::new(0, 0)).unwrap().index());
        let q: Vec<bool> = (0..ap.len())
            .map(|p| s.coord(NodeId(ap.reps[p] as u32)).r == 4)
            .collect();
        let prp = portal_root_and_prune(&mut world, &s, &ap, spine, &q);
        let (q_prime, charge) = portal_augmentation(&prp, &q);
        let expect: Vec<bool> = (0..ap.len()).map(|p| q[p] || p as u32 == spine).collect();
        assert_eq!(q_prime, expect);
        // The one charge: the Lemma 34 count up to degree 5, 2·⌈log₂ 6⌉.
        assert_eq!(charge, 6);
    }

    #[test]
    fn portal_election_is_one_round_plus_announcement() {
        let (s, mut world, ap) = setup(shapes::parallelogram(7, 5));
        let mut q = vec![false; ap.portals.len()];
        q[1] = true;
        q[3] = true;
        let before = world.rounds();
        let elected = portal_elect(&mut world, &s, &ap, 0, &q);
        assert_eq!(world.rounds() - before, 2, "election + announcement");
        let e = elected.unwrap();
        assert!(q[e as usize], "elected portal must be in Q");
    }

    #[test]
    fn portal_election_empty_q() {
        let (s, mut world, ap) = setup(shapes::parallelogram(4, 3));
        let q = vec![false; ap.portals.len()];
        assert_eq!(portal_elect(&mut world, &s, &ap, 0, &q), None);
    }

    /// Centralized reference for portal Q-centroids.
    fn reference_portal_centroids(ap: &AxisPortals, q: &[bool]) -> Vec<bool> {
        let adj = ap.portal_tree_edges();
        let m = ap.portals.len();
        let total: usize = (0..m).filter(|&p| q[p]).count();
        (0..m)
            .map(|u| {
                if !q[u] {
                    return false;
                }
                for &(start, _) in &adj[u] {
                    let mut seen = vec![false; m];
                    seen[u] = true;
                    seen[start as usize] = true;
                    let mut stack = vec![start as usize];
                    let mut cnt = usize::from(q[start as usize]);
                    while let Some(v) = stack.pop() {
                        for &(w, _) in &adj[v] {
                            if !seen[w as usize] {
                                seen[w as usize] = true;
                                cnt += usize::from(q[w as usize]);
                                stack.push(w as usize);
                            }
                        }
                    }
                    if 2 * cnt > total {
                        return false;
                    }
                }
                true
            })
            .collect()
    }

    #[test]
    fn portal_centroids_match_reference() {
        let (s, _, ap) = setup(shapes::parallelogram(6, 7));
        let m = ap.portals.len();
        for q_pattern in [
            vec![true; m],
            {
                let mut q = vec![false; m];
                q[0] = true;
                q[m - 1] = true;
                q
            },
            {
                let mut q = vec![false; m];
                for p in 0..m {
                    if p % 2 == 0 {
                        q[p] = true;
                    }
                }
                q
            },
        ] {
            let mut world = World::new(Topology::from_structure(&s), LINKS);
            let got = portal_centroids(&mut world, &s, &ap, 0, &q_pattern);
            let expect = reference_portal_centroids(&ap, &q_pattern);
            assert_eq!(got, expect, "pattern {q_pattern:?}");
        }
    }

    #[test]
    fn portal_centroids_on_concave_structure() {
        let (s, mut world, ap) = setup(shapes::comb(9, 4));
        let q = vec![true; ap.portals.len()];
        let got = portal_centroids(&mut world, &s, &ap, 0, &q);
        let expect = reference_portal_centroids(&ap, &q);
        assert_eq!(got, expect);
    }

    #[test]
    fn portal_decomposition_elects_every_q_portal_once() {
        let (_, _, ap) = setup(shapes::parallelogram(5, 9));
        let q = vec![true; ap.portals.len()];
        let (d, charge) = portal_centroid_decomposition(&ap, 0, &q);
        assert!(charge > 0, "quotient rounds are charged");
        let elected: usize = (0..ap.portals.len())
            .filter(|&p| d.level[p].is_some())
            .count();
        assert_eq!(elected, ap.portals.len());
        // Height O(log |Q'|).
        assert!(d.levels as usize <= (usize::BITS - ap.portals.len().leading_zeros()) as usize + 1);
    }
}
