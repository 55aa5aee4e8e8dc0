//! Local circuit repair: the absorb step's certified alternative to
//! staling every circuit a batch of edits touches (DESIGN.md §1c).
//!
//! The *old* configuration is the one of the last absorb (its labels,
//! buckets and count marks are current); the *new* one is the current
//! pin table and topology. The repair races one breadth-first search in
//! the new configuration from every set of the frontier `F` — the old
//! and the new set of each dirty pin — and merges searches that meet
//! into *groups*. A group with nothing left to expand is *finished*: it
//! is one whole circuit of the new configuration. Once `F` is expanded,
//! groups are joined along the *removed-union candidates* (every link
//! union of the old configuration that may be gone), and the search
//! stops as soon as no joined class holds two unfinished groups. Then
//! every finished group is a circuit, and every unfinished group glues
//! the old circuits it visited into one circuit, minus the finished
//! sets. If the budget runs out or a search reaches a stale set first,
//! nothing changes and the absorb stales the circuits as before.

use crate::world::{World, NO_EDGE};

/// The expansion budget of one repair is
/// `REPAIR_BUDGET_BASE + REPAIR_BUDGET_PER_SET · |F|` sets, so a repair
/// costs a constant multiple of its edit. On `spfbench` `session-churn`
/// seed 1 (a churn event edits up to four distant sites of a
/// 50k-amoebot structure) 788 of the 792 attempts of a 2 s run certify
/// with a per-set share of 8, 16 or 32, and 784 with 4; the other 4 need
/// more than 32 expansions per frontier set. 16 leaves a factor of two
/// above where the count saturates (DESIGN.md §1c).
const REPAIR_BUDGET_BASE: usize = 64;

/// Per-frontier-set share of the repair budget (see
/// [`REPAIR_BUDGET_BASE`]).
const REPAIR_BUDGET_PER_SET: usize = 16;

/// Registry name of the counter of absorbs that repaired locally
/// instead of staling (see [`World::repair_relabels`]).
pub(crate) const RELABEL_REPAIR: &str = "relabel_repair";

/// Scratch of one repair, kept between repairs so repeated ones do not
/// allocate. Search ids index the per-search vectors; the owner search
/// of a visited set lives in `World::uf`, which is free between global
/// relabels, and the visited bits in `World::root_mark`, which is clear
/// once the absorb has written the last tick's pending deliveries. Not
/// part of snapshots.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepairScratch {
    /// Removed-union candidates as pairs of old-configuration sets.
    cands: Vec<(u32, u32)>,
    /// Union-find parents over search ids: the groups.
    group: Vec<u32>,
    /// Per group root: visited sets not yet expanded (0 = finished).
    pending: Vec<u32>,
    /// Union-find parents over search ids: the certificate's classes
    /// (groups joined along the candidates). Built once `F` is expanded.
    class: Vec<u32>,
    /// Per class root: its unfinished groups.
    unfinished: Vec<u32>,
    /// Classes holding two or more unfinished groups.
    bad: usize,
    /// `(group root, gid)` of every set of a finished group.
    finished: Vec<(u32, u32)>,
    /// Old circuit roots of the visited sets, ascending and distinct.
    olds: Vec<u32>,
    /// Union-find parents over `olds` indices: the glued classes.
    glue: Vec<u32>,
    /// Per group root: an `olds` index it glues (`u32::MAX`: none yet).
    anchor: Vec<u32>,
    /// `(glue root, olds index)` of every old circuit an unfinished
    /// group visited.
    classes: Vec<(u32, u32)>,
    /// Merge input: the filtered members of a class's smaller buckets.
    small: Vec<u32>,
}

/// Union-find root with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let gp = parent[parent[x as usize] as usize];
        parent[x as usize] = gp;
        x = gp;
    }
    x
}

impl RepairScratch {
    fn find_group(&mut self, s: u32) -> u32 {
        find(&mut self.group, s)
    }

    /// Joins two classes, carrying their unfinished-group counts.
    fn union_class(&mut self, a: u32, b: u32) {
        let (ra, rb) = (find(&mut self.class, a), find(&mut self.class, b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.class[hi as usize] = lo;
            self.unfinished[lo as usize] += self.unfinished[hi as usize];
        }
    }

    /// Two unfinished groups met: one group, and once the classes exist,
    /// one unfinished group fewer in their (joined) class.
    fn merge_groups(&mut self, a: u32, b: u32, classes_built: bool) {
        debug_assert!(self.pending[a as usize] > 0 && self.pending[b as usize] > 0);
        let (lo, hi) = (a.min(b), a.max(b));
        self.group[hi as usize] = lo;
        self.pending[lo as usize] += self.pending[hi as usize];
        if classes_built {
            let (ca, cb) = (find(&mut self.class, lo), find(&mut self.class, hi));
            let (ua, ub) = (self.unfinished[ca as usize], self.unfinished[cb as usize]);
            let before = usize::from(ua >= 2) + usize::from(ca != cb && ub >= 2);
            let u = if ca == cb { ua - 1 } else { ua + ub - 1 };
            let (clo, chi) = (ca.min(cb), ca.max(cb));
            self.class[chi as usize] = clo;
            self.unfinished[clo as usize] = u;
            self.bad = self.bad - before + usize::from(u >= 2);
        }
    }

    /// Group `r` has nothing left to expand.
    fn group_finished(&mut self, r: u32) {
        let cr = find(&mut self.class, r) as usize;
        self.unfinished[cr] -= 1;
        if self.unfinished[cr] == 1 {
            self.bad -= 1;
        }
    }
}

impl World {
    /// How many absorbs repaired the circuits their edits touched instead
    /// of staling them (DESIGN.md §1c). Reads the registry's
    /// `relabel_repair` counter, registered on the first repair (0 until
    /// then).
    pub fn repair_relabels(&self) -> u64 {
        self.stats.metrics.counter_value(RELABEL_REPAIR)
    }

    /// Tries to repair the circuits the dirty pins and the cut record
    /// touch, leaving labels, buckets, count marks and the cached count
    /// exactly as a global relabel of the new configuration would.
    /// Returns whether it did; on `false` nothing has changed. The caller
    /// still owes the dirty-pin bookkeeping either way.
    pub(crate) fn repair_dirty(&mut self) -> bool {
        if self.force_global || self.dirty_pins.is_empty() {
            return false;
        }
        let mut rs = std::mem::take(&mut self.repair);
        let repaired = self.search(&mut rs);
        if repaired {
            self.apply_repair(&mut rs);
            self.stats.metrics.add_named(RELABEL_REPAIR, 1);
        }
        for i in 0..self.walk.len() {
            self.root_mark.clear(self.walk[i].0 as usize);
        }
        self.walk.clear();
        self.repair = rs;
        repaired
    }

    /// Visits `gid` (of node `v`) for search `s`: a fresh set joins the
    /// queue, a set another group owns merges the two groups.
    fn visit(&mut self, rs: &mut RepairScratch, gid: usize, v: usize, s: u32, built: bool) {
        if self.root_mark.get(gid) {
            let (a, b) = (rs.find_group(s), rs.find_group(self.uf[gid]));
            if a != b {
                rs.merge_groups(a, b, built);
            }
        } else {
            self.root_mark.set(gid);
            self.uf[gid] = s;
            self.walk.push((gid as u32, v as u32));
            let r = rs.find_group(s);
            rs.pending[r as usize] += 1;
        }
    }

    /// Runs the searches until the certificate holds (`true`), or a
    /// search reaches a stale set or the budget runs out (`false`). The
    /// visited sets are `walk`, in queue order, marked in `root_mark`.
    fn search(&mut self, rs: &mut RepairScratch) -> bool {
        rs.cands.clear();
        rs.group.clear();
        rs.pending.clear();
        self.walk.clear();
        let c = self.c;
        // The frontier: the old and the new set of every dirty pin, each
        // its own search.
        let mut v = 0;
        for i in 0..self.dirty_pins.len() {
            let (pin, node_base) = self.dirty_pins[i];
            if !(self.base[v] <= pin && pin < self.base[v + 1]) {
                v = self.node_of_gid(pin);
            }
            let pin = pin as usize;
            for local in [self.pset_at_relabel[pin], self.pin_pset[pin]] {
                let gid = node_base as usize + local as usize;
                if self.stale.get(gid) {
                    return false;
                }
                if !self.root_mark.get(gid) {
                    let s = rs.group.len() as u32;
                    rs.group.push(s);
                    rs.pending.push(0);
                    self.visit(rs, gid, v, s, false);
                }
            }
        }
        // Removed-union candidates: every dirty pin on a wired port with
        // its peer pin, and every recorded cut, as old-set pairs.
        for i in 0..self.dirty_pins.len() {
            let (pin, node_base) = self.dirty_pins[i];
            let slot = pin as usize / c;
            let ei = self.port_edge[slot];
            if ei == NO_EDGE {
                continue;
            }
            let (a0, base_a, b0, base_b) = self.links[ei as usize];
            let link = pin % c as u32;
            let (peer, peer_base) = if a0 as usize / c == slot {
                (b0 + link, base_b)
            } else {
                (a0 + link, base_a)
            };
            rs.cands.push((
                node_base + self.pset_at_relabel[pin as usize] as u32,
                peer_base + self.pset_at_relabel[peer as usize] as u32,
            ));
        }
        for i in 0..self.cuts.len() {
            let (pa, pb) = self.cuts[i];
            let old_set = |w: &World, pin: u32| {
                w.base[w.node_of_gid(pin)] + w.pset_at_relabel[pin as usize] as u32
            };
            let pair = (old_set(self, pa), old_set(self, pb));
            rs.cands.push(pair);
        }

        let frontier = self.walk.len();
        let budget = REPAIR_BUDGET_BASE + REPAIR_BUDGET_PER_SET * frontier;
        let mut built = false;
        let mut head = 0;
        loop {
            if head == frontier && !built {
                if !self.build_classes(rs) {
                    return false;
                }
                built = true;
            }
            if built && rs.bad == 0 {
                return true;
            }
            if head == self.walk.len() || head == budget {
                // An empty queue leaves no unfinished group, so `bad`
                // is 0 there; this is the budget.
                return false;
            }
            let (gid, v) = self.walk[head];
            head += 1;
            let (gid, v) = (gid as usize, v as usize);
            let s = self.uf[gid];
            // Expand: follow the link of every pin that holds the set.
            let node_base = self.base[v] as usize;
            let local = (gid - node_base) as u16;
            for p in 0..self.topo.ports_len(v) {
                let pins = node_base + p * c;
                if !self.pin_pset[pins..pins + c].contains(&local) {
                    continue;
                }
                let Some((w, q)) = self.topo.peer(v, p) else {
                    continue;
                };
                let peer_base = self.base[w] as usize;
                let peer_pins = peer_base + q * c;
                for link in 0..c {
                    if self.pin_pset[pins + link] == local {
                        let g = peer_base + self.pin_pset[peer_pins + link] as usize;
                        if self.stale.get(g) {
                            return false;
                        }
                        self.visit(rs, g, w, s, built);
                    }
                }
            }
            let r = rs.find_group(s);
            rs.pending[r as usize] -= 1;
            if built && rs.pending[r as usize] == 0 {
                rs.group_finished(r);
            }
        }
    }

    /// Joins the groups along the candidates once `F` is expanded and
    /// counts the classes with two or more unfinished groups. Every
    /// candidate endpoint is an `F` set or one link from one, so it has
    /// been visited; `false` (never expected) aborts the repair.
    fn build_classes(&mut self, rs: &mut RepairScratch) -> bool {
        let n = rs.group.len() as u32;
        rs.class.clear();
        rs.class.extend(0..n);
        rs.unfinished.clear();
        rs.unfinished.extend(
            (0..n).map(|s| u32::from(rs.group[s as usize] == s && rs.pending[s as usize] > 0)),
        );
        for s in 0..n {
            let r = rs.find_group(s);
            rs.union_class(s, r);
        }
        for i in 0..rs.cands.len() {
            let (x, y) = rs.cands[i];
            if !self.root_mark.get(x as usize) || !self.root_mark.get(y as usize) {
                debug_assert!(false, "candidate ({x}, {y}) was not visited");
                return false;
            }
            let (gx, gy) = (
                rs.find_group(self.uf[x as usize]),
                rs.find_group(self.uf[y as usize]),
            );
            rs.union_class(gx, gy);
        }
        rs.bad = (0..n)
            .filter(|&s| rs.class[s as usize] == s && rs.unfinished[s as usize] >= 2)
            .count();
        true
    }

    /// Whether set `gid`, visited or not, lies in a finished group.
    fn in_finished_group(&self, rs: &mut RepairScratch, gid: u32) -> bool {
        self.root_mark.get(gid as usize) && {
            let r = rs.find_group(self.uf[gid as usize]);
            rs.pending[r as usize] == 0
        }
    }

    /// Whether some pin holds set `gid`: a one-set circuit counts iff so.
    fn set_holds_pin(&self, gid: u32) -> bool {
        let v = self.node_of_gid(gid);
        let base = self.base[v];
        (base..self.base[v + 1]).any(|p| base + self.pin_pset[p as usize] as u32 == gid)
    }

    /// Marks repaired circuit `root` counted if `counts`, and drops its
    /// cached delivery digest.
    fn count_repaired(&mut self, root: u32, counts: bool) {
        let r = root as usize;
        self.member_digest_epoch[r] = 0;
        if counts && !self.circuit_roots.get(r) {
            self.circuit_roots.set(r);
            self.cached_circuits += 1;
        }
    }

    /// Writes what the certified search saw: finished groups become
    /// circuits, every unfinished group glues the old circuits it
    /// visited, and the touched old circuits leave the count.
    fn apply_repair(&mut self, rs: &mut RepairScratch) {
        let cap = 2 * self.labels.len();
        rs.finished.clear();
        rs.olds.clear();
        for i in 0..self.walk.len() {
            let g = self.walk[i].0;
            rs.olds.push(self.labels[g as usize]);
            let r = rs.find_group(self.uf[g as usize]);
            if rs.pending[r as usize] == 0 {
                rs.finished.push((r, g));
            }
        }
        rs.olds.sort_unstable();
        rs.olds.dedup();
        rs.finished.sort_unstable();
        for i in 0..rs.olds.len() {
            let o = rs.olds[i] as usize;
            if self.circuit_roots.get(o) {
                self.circuit_roots.clear(o);
                self.cached_circuits -= 1;
            }
        }

        // Glue the old circuits each unfinished group visited.
        rs.glue.clear();
        rs.glue.extend(0..rs.olds.len() as u32);
        rs.anchor.clear();
        rs.anchor.resize(rs.group.len(), u32::MAX);
        rs.classes.clear();
        for i in 0..self.walk.len() {
            let g = self.walk[i].0 as usize;
            let r = rs.find_group(self.uf[g]) as usize;
            if rs.pending[r] == 0 {
                continue;
            }
            let Ok(o) = rs.olds.binary_search(&self.labels[g]) else {
                continue;
            };
            let o = o as u32;
            rs.classes.push((0, o));
            if rs.anchor[r] == u32::MAX {
                rs.anchor[r] = o;
            } else {
                let (a, b) = (find(&mut rs.glue, rs.anchor[r]), find(&mut rs.glue, o));
                rs.glue[a.max(b) as usize] = a.min(b);
            }
        }
        for c in 0..rs.classes.len() {
            rs.classes[c].0 = find(&mut rs.glue, rs.classes[c].1);
        }
        rs.classes.sort_unstable();
        rs.classes.dedup();

        // Each glued class: the merge of its old buckets minus the
        // finished sets, labelled by its first member. Classes read only
        // their own old buckets, and finished groups are written after
        // every class, so no write lands on a bucket still to be read.
        let mut repack = false;
        let mut i = 0;
        while i < rs.classes.len() {
            let mut j = i + 1;
            while j < rs.classes.len() && rs.classes[j].0 == rs.classes[i].0 {
                j += 1;
            }
            repack |= self.write_class(rs, i, j, cap);
            i = j;
        }

        // Finished groups: their minimum gid and an ascending bucket,
        // in place when the root's old bucket holds it.
        let mut i = 0;
        while i < rs.finished.len() {
            let mut j = i + 1;
            while j < rs.finished.len() && rs.finished[j].0 == rs.finished[i].0 {
                j += 1;
            }
            let root = rs.finished[i].1;
            let was_root = self.labels[root as usize] == root;
            for t in i..j {
                self.labels[rs.finished[t].1 as usize] = root;
            }
            let size = j - i;
            let r = root as usize;
            if !repack {
                let (off, end) = (self.member_off[r] as usize, self.member_end[r] as usize);
                if was_root && end - off >= size {
                    for t in 0..size {
                        self.members[off + t] = rs.finished[i + t].1;
                    }
                    self.member_end[r] = (off + size) as u32;
                } else if self.members.len() + size <= cap {
                    let off = self.members.len();
                    self.members
                        .extend(rs.finished[i..j].iter().map(|&(_, g)| g));
                    self.member_off[r] = off as u32;
                    self.member_end[r] = (off + size) as u32;
                } else {
                    repack = true;
                }
            }
            // A circuit counts iff some pin holds one of its sets: two
            // sets are joined by a link, so only a lone set needs a look.
            let counts = size >= 2 || self.set_holds_pin(root);
            self.count_repaired(root, counts);
            i = j;
        }
        if repack {
            // The repack packs every labelled set from its label.
            self.rebuild_members();
        }
        #[cfg(debug_assertions)]
        self.check_repaired();
    }

    /// Writes the glued class of old circuits `rs.olds[classes[i..j]]`:
    /// labels, bucket and count mark. Returns whether the arena must be
    /// repacked instead of appended to (the bucket is then left unwritten
    /// and the repack builds it from the labels).
    fn write_class(&mut self, rs: &mut RepairScratch, i: usize, j: usize, cap: usize) -> bool {
        // The new root is the least unfinished member over the buckets.
        let mut root = u32::MAX;
        let mut bound = 0;
        let mut largest = (0, rs.classes[i].1);
        for t in i..j {
            let o = rs.olds[rs.classes[t].1 as usize] as usize;
            let (off, end) = (self.member_off[o] as usize, self.member_end[o] as usize);
            bound += end - off;
            if end - off > largest.0 {
                largest = (end - off, rs.classes[t].1);
            }
            for q in off..end {
                let m = self.members[q];
                if !self.in_finished_group(rs, m) {
                    root = root.min(m);
                    break;
                }
            }
        }
        // Members of old circuits rooted elsewhere change label.
        for t in i..j {
            let o = rs.olds[rs.classes[t].1 as usize];
            if o == root {
                continue;
            }
            let (off, end) = (self.member_off[o as usize], self.member_end[o as usize]);
            for q in off as usize..end as usize {
                let m = self.members[q];
                if !self.in_finished_group(rs, m) {
                    self.labels[m as usize] = root;
                }
            }
        }
        let r = root as usize;
        let single = j == i + 1 && rs.olds[rs.classes[i].1 as usize] == root;
        let mut repack = false;
        if single {
            // One old circuit keeping its root: filter its bucket in place.
            let (off, end) = (self.member_off[r] as usize, self.member_end[r] as usize);
            let mut w = off;
            for q in off..end {
                let m = self.members[q];
                if !self.in_finished_group(rs, m) {
                    self.members[w] = m;
                    w += 1;
                }
            }
            self.member_end[r] = w as u32;
        } else if self.members.len() + bound > cap {
            repack = true;
        } else {
            // Sort the smaller buckets' members, then merge them with
            // the largest bucket onto the arena's end.
            rs.small.clear();
            for t in i..j {
                let idx = rs.classes[t].1;
                if idx == largest.1 {
                    continue;
                }
                let o = rs.olds[idx as usize] as usize;
                for q in self.member_off[o] as usize..self.member_end[o] as usize {
                    let m = self.members[q];
                    if !self.in_finished_group(rs, m) {
                        rs.small.push(m);
                    }
                }
            }
            rs.small.sort_unstable();
            let o = rs.olds[largest.1 as usize] as usize;
            let (mut q, end) = (self.member_off[o] as usize, self.member_end[o] as usize);
            let start = self.members.len();
            let mut s = 0;
            while q < end || s < rs.small.len() {
                let take_big = q < end && (s == rs.small.len() || self.members[q] < rs.small[s]);
                let m = if take_big {
                    q += 1;
                    self.members[q - 1]
                } else {
                    s += 1;
                    rs.small[s - 1]
                };
                if take_big && self.in_finished_group(rs, m) {
                    continue;
                }
                self.members.push(m);
            }
            self.member_off[r] = start as u32;
            self.member_end[r] = self.members.len() as u32;
        }
        // The class holds an unfinished group, which holds a set reached
        // over a link and the set it was reached from: it counts.
        self.count_repaired(root, true);
        repack
    }

    /// Debug builds: every repaired circuit's bucket is strictly
    /// ascending, starts at its root, and labels each member with it.
    #[cfg(debug_assertions)]
    fn check_repaired(&self) {
        let mut roots: Vec<u32> = self
            .walk
            .iter()
            .map(|&(g, _)| self.labels[g as usize])
            .collect();
        roots.sort_unstable();
        roots.dedup();
        for root in roots {
            let r = root as usize;
            let bucket = &self.members[self.member_off[r] as usize..self.member_end[r] as usize];
            assert_eq!(bucket.first(), Some(&root), "bucket of {root}");
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "bucket of {root}");
            assert!(
                bucket.iter().all(|&m| self.labels[m as usize] == root),
                "labels of {root}"
            );
        }
    }
}
