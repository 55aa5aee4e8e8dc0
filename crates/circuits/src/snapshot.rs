//! The `SPFS` snapshot codec for [`Topology`] and [`World`].
//!
//! A snapshot serializes the **semantic** SoA state verbatim — CSR
//! topology, pin configurations, the tombstoned link table with its
//! free-list, pending beeps, the cached circuit labeling (labels,
//! membership arena, counted-root marks), the stale set and the
//! dirty-pin set — so restore is O(bytes): no relabel runs, no id
//! renumbers, and the first tick after a restore takes exactly the path
//! the next tick of the snapshotted world would have taken. That is
//! what makes restored runs *byte-identical* to uninterrupted ones,
//! including the relabel counters that canonical reports embed.
//!
//! Pure scratch is deliberately **not** serialized and is rebuilt
//! cleared on restore: the union-find parents (only read after a
//! relabel re-seeds them), the walk queue (always clear between uses),
//! and the per-port edge index and node base offsets (both derivable
//! from the link table and the CSR respectively). The root marks hold a
//! tick's pending deliveries; encode writes them into `recv_set` in
//! delivery order, exactly as the first read would, so a restored world
//! starts with its deliveries written and the bytes are the same either
//! way. Phase timers are also dropped: they are wall-clock diagnostics,
//! excluded from canonical reports by design.
//!
//! ## Payload grammar (inside the [`wire`] envelope, kind `WORLD`)
//!
//! All integers are unsigned LEB128 varints unless noted.
//!
//! ```text
//! world    := c | topology
//!           | pset[total] | links | free_links
//!           | sent | recv_set | labels[total]
//!           | members | member_off[total] | member_end[total]
//!           | dirty_pins | cuts | pset_at_relabel[total]
//!           | stale | circuit_roots
//!           | cached_circuits
//!           | counters | rounds | charges
//!           | beeps_sent | stuck
//! topology := n | ports[n] | (peer_node peer_port)[slots] | edge_count
//! links    := count | (a0 base_a b0 base_b)[count]     tombstone = DEAD_LINK
//! sent     := count | gid[count]                        (beeping psets)
//! recv_set := count | gid[count]                        (delivered psets)
//! members  := count | gid[count]                        (arena, garbage kept)
//! dirty    := count | (gid base)[count]
//! cuts     := count | (gid gid)[count]                  (both pins dirty)
//! stale    := count | gid[count]                        (strictly ascending)
//! roots    := count | gid[count]                        (strictly ascending)
//! counters := count | (name value)[count]               (metrics counters)
//! charges  := count | (label signed_amount)[count]     (Σ ≤ rounds)
//! stuck    := count | (gid pset)[count]                  (ascending gids)
//! ```
//!
//! Decoding allocates in proportion to the blob: `c` and every node's
//! port count are bounded by `MAX_PORTS`, and slot and pin counts by the
//! bytes left to encode them, before anything is reserved.

use amoebot_telemetry::wire::{self, SnapshotReader, SnapshotWriter, WireError};

use crate::bitset::BitSet;
use crate::repair::{RepairScratch, RELABEL_REPAIR};
use crate::topology::{Topology, MAX_PORTS, NONE};
use crate::world::{EngineStats, World, DEAD_LINK, NO_EDGE, RELABEL_WALK, RESET_NODES};

/// Counter names the world codec recognizes on restore. The metrics
/// registry keys counters by `&'static str`, so decoded names are
/// matched against this fixed menu rather than leaked into statics.
const KNOWN_COUNTERS: [&str; 7] = [
    "relabel_global",
    "relabel_region",
    "fault_drops",
    "fault_injects",
    RESET_NODES,
    RELABEL_WALK,
    RELABEL_REPAIR,
];

/// Encodes `topo` into `w` (the `topology` production above).
pub fn encode_topology(topo: &Topology, w: &mut SnapshotWriter) {
    let n = topo.len();
    w.varint(n as u64);
    for v in 0..n {
        w.varint(topo.ports_len(v) as u64);
    }
    for s in 0..topo.peer_node.len() {
        w.varint(topo.peer_node[s] as u64);
        w.varint(topo.peer_port[s] as u64);
    }
    w.varint(topo.edge_count as u64);
}

/// Decodes a topology, validating CSR shape and port mutuality (every
/// live slot's peer must point back).
pub fn decode_topology(r: &mut SnapshotReader<'_>) -> Result<Topology, WireError> {
    let n = r.len("topology node count")?;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for _ in 0..n {
        let offset = r.offset();
        let ports = r.u32("topology port count")?;
        if ports > MAX_PORTS {
            return Err(WireError::BadValue {
                what: "topology port count",
                offset,
            });
        }
        acc = acc.checked_add(ports).ok_or(WireError::BadValue {
            what: "topology port count",
            offset,
        })?;
        offsets.push(acc);
    }
    let slots = acc as usize;
    // Each slot costs two varints (at least two bytes): more slots than
    // that leaves room for is a lie, caught before anything is reserved.
    if slots > r.remaining() / 2 {
        return Err(WireError::BadValue {
            what: "topology port count",
            offset: r.offset(),
        });
    }
    let mut peer_node = Vec::with_capacity(slots);
    let mut peer_port = Vec::with_capacity(slots);
    for _ in 0..slots {
        peer_node.push(r.u32("topology peer node")?);
        peer_port.push(r.u32("topology peer port")?);
    }
    let edge_count = r.len("topology edge count")?;
    let topo = Topology {
        offsets,
        peer_node,
        peer_port,
        edge_count,
    };
    // Mutuality: each live slot's peer slot must point straight back.
    let mut halves = 0usize;
    for v in 0..n {
        let (lo, hi) = (topo.offsets[v] as usize, topo.offsets[v + 1] as usize);
        for s in lo..hi {
            let w = topo.peer_node[s];
            if w == NONE {
                continue;
            }
            let p = s - lo;
            let q = topo.peer_port[s] as usize;
            let err = WireError::BadValue {
                what: "topology peer slot",
                offset: r.offset(),
            };
            if w as usize >= n || v == w as usize {
                return Err(err);
            }
            let (wlo, whi) = (
                topo.offsets[w as usize] as usize,
                topo.offsets[w as usize + 1] as usize,
            );
            if q >= whi - wlo
                || topo.peer_node[wlo + q] as usize != v
                || topo.peer_port[wlo + q] as usize != p
            {
                return Err(err);
            }
            halves += 1;
        }
    }
    if halves != edge_count * 2 {
        return Err(WireError::BadValue {
            what: "topology edge count",
            offset: r.offset(),
        });
    }
    Ok(topo)
}

/// Reads `count` gids, each `< total`, rebuilding the paired bitset.
/// Duplicates are rejected (the dense lists mirror bitsets, so an index
/// never appears twice).
fn decode_gid_list(
    r: &mut SnapshotReader<'_>,
    total: usize,
    what: &'static str,
) -> Result<(Vec<u32>, BitSet), WireError> {
    let count = r.len(what)?;
    let mut list = Vec::with_capacity(total.max(count));
    let mut bits = BitSet::new(total);
    for _ in 0..count {
        let offset = r.offset();
        let gid = r.u32(what)?;
        if gid as usize >= total || bits.get(gid as usize) {
            return Err(WireError::BadValue { what, offset });
        }
        bits.set(gid as usize);
        list.push(gid);
    }
    Ok((list, bits))
}

impl World {
    /// Writes the world payload (no envelope) into `w` — the composable
    /// form [`amoebot_dynamics`]'s codec embeds.
    pub fn encode_payload(&self, w: &mut SnapshotWriter) {
        w.varint(self.c as u64);
        encode_topology(&self.topo, w);
        for &pset in &self.pin_pset {
            w.varint(pset as u64);
        }
        w.varint(self.links.len() as u64);
        for &(a0, base_a, b0, base_b) in &self.links {
            w.varint(a0 as u64);
            w.varint(base_a as u64);
            w.varint(b0 as u64);
            w.varint(base_b as u64);
        }
        w.varint(self.free_links.len() as u64);
        for &ei in &self.free_links {
            w.varint(ei as u64);
        }
        w.varint(self.sent.len() as u64);
        for &gid in &self.sent {
            w.varint(gid as u64);
        }
        // Pending deliveries are written as a read would write them, so
        // the bytes do not depend on whether anything read the round.
        w.varint(self.delivery_count() as u64);
        for gid in self.deliveries() {
            w.varint(gid as u64);
        }
        for &l in &self.labels {
            w.varint(l as u64);
        }
        w.varint(self.members.len() as u64);
        for &m in &self.members {
            w.varint(m as u64);
        }
        for &off in &self.member_off {
            w.varint(off as u64);
        }
        for &end in &self.member_end {
            w.varint(end as u64);
        }
        w.varint(self.dirty_pins.len() as u64);
        for &(gid, base) in &self.dirty_pins {
            w.varint(gid as u64);
            w.varint(base as u64);
        }
        w.varint(self.cuts.len() as u64);
        for &(pa, pb) in &self.cuts {
            w.varint(pa as u64);
            w.varint(pb as u64);
        }
        for &pset in &self.pset_at_relabel {
            w.varint(pset as u64);
        }
        w.varint(self.stale_count as u64);
        for gid in self.stale.ones() {
            w.varint(gid as u64);
        }
        let roots: Vec<usize> = self.circuit_roots.ones().collect();
        w.varint(roots.len() as u64);
        for gid in roots {
            w.varint(gid as u64);
        }
        w.varint(self.cached_circuits as u64);
        let counters = self.stats.metrics.counters_sorted();
        w.varint(counters.len() as u64);
        for (name, value) in counters {
            w.str(name);
            w.varint(value);
        }
        w.varint(self.rounds);
        w.varint(self.charge_log.len() as u64);
        for (label, amount) in &self.charge_log {
            w.str(label);
            w.signed(*amount);
        }
        w.varint(self.beeps_sent);
        w.varint(self.stuck.len() as u64);
        for &(gid, pset) in &self.stuck {
            w.varint(gid as u64);
            w.varint(pset as u64);
        }
    }

    /// Decodes a world payload written by [`World::encode_payload`].
    /// O(bytes): validation walks each array once and nothing relabels —
    /// the cached labeling comes back exactly as snapshotted.
    pub fn decode_payload(r: &mut SnapshotReader<'_>) -> Result<World, WireError> {
        let c_offset = r.offset();
        let c = r.len("links per edge")?;
        if c == 0 || c > MAX_PORTS as usize {
            return Err(WireError::BadValue {
                what: "links per edge",
                offset: c_offset,
            });
        }
        let topo = decode_topology(r)?;
        let n = topo.len();
        let mut base = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        // Each pin costs at least one byte (its partition set).
        let too_many_pins = WireError::BadValue {
            what: "pin count",
            offset: r.offset(),
        };
        for v in 0..n {
            base.push(acc);
            acc = acc
                .checked_add((topo.ports_len(v) * c) as u32)
                .ok_or(too_many_pins)?;
        }
        base.push(acc);
        let total = acc as usize;
        if total > r.remaining() {
            return Err(too_many_pins);
        }
        // The node owning pin `gid` (zero-pin nodes share the next
        // node's base, and the search lands past them).
        let owner = |gid: u32| base.partition_point(|&b| b <= gid) - 1;

        let mut pin_pset = Vec::with_capacity(total);
        // Derived state: rebuilt from the pin table (see `World::configured`).
        let mut configured: Vec<BitSet> = (0..c).map(|_| BitSet::new(n)).collect();
        for v in 0..n {
            let caps = (topo.ports_len(v) * c) as u64;
            for i in 0..caps {
                let offset = r.offset();
                let pset = r.u16("pin partition set")?;
                if (pset as u64) >= caps {
                    return Err(WireError::BadValue {
                        what: "pin partition set",
                        offset,
                    });
                }
                if pset as u64 != i {
                    configured[i as usize % c].set(v);
                }
                pin_pset.push(pset);
            }
        }

        let link_offset = r.offset();
        let link_count = r.len("link table")?;
        let mut links = Vec::with_capacity(link_count);
        let mut port_edge = vec![NO_EDGE; total / c];
        let mut live = 0usize;
        for ei in 0..link_count {
            let offset = r.offset();
            let entry = (
                r.u32("link pin")?,
                r.u32("link base")?,
                r.u32("link pin")?,
                r.u32("link base")?,
            );
            let err = WireError::BadValue {
                what: "link entry",
                offset,
            };
            if entry.0 == u32::MAX {
                if entry != DEAD_LINK {
                    return Err(err);
                }
            } else {
                // A live entry must be the one the topology implies for
                // the port slot of its `a0`: the link-0 pins of both ends
                // of that port's edge and their owners' base offsets.
                let (a0, base_a, b0, base_b) = entry;
                if a0 as usize >= total || !(a0 as usize).is_multiple_of(c) {
                    return Err(err);
                }
                let v = owner(a0);
                let Some((w, q)) = topo.peer(v, (a0 - base[v]) as usize / c) else {
                    return Err(err);
                };
                if base_a != base[v] || b0 != base[w] + (q * c) as u32 || base_b != base[w] {
                    return Err(err);
                }
                live += 1;
                for slot in [a0 as usize / c, b0 as usize / c] {
                    if port_edge[slot] != NO_EDGE {
                        return Err(err);
                    }
                    port_edge[slot] = ei as u32;
                }
            }
            links.push(entry);
        }
        if live != topo.edge_count() {
            return Err(WireError::BadValue {
                what: "link table",
                offset: link_offset,
            });
        }
        let free_count = r.len("free-link list")?;
        let mut free_links = Vec::with_capacity(free_count);
        for _ in 0..free_count {
            let offset = r.offset();
            let ei = r.u32("free-link slot")?;
            if ei as usize >= links.len() || links[ei as usize] != DEAD_LINK {
                return Err(WireError::BadValue {
                    what: "free-link slot",
                    offset,
                });
            }
            free_links.push(ei);
        }

        let (sent, send) = decode_gid_list(r, total, "beeping partition set")?;
        let (recv_set, recv) = decode_gid_list(r, total, "delivered partition set")?;

        let mut labels = Vec::with_capacity(total);
        for _ in 0..total {
            let offset = r.offset();
            let l = r.u32("circuit label")?;
            if l as usize >= total {
                return Err(WireError::BadValue {
                    what: "circuit label",
                    offset,
                });
            }
            labels.push(l);
        }
        let member_count = r.len("membership arena")?;
        let mut members = Vec::with_capacity(total.max(member_count));
        for _ in 0..member_count {
            let offset = r.offset();
            let m = r.u32("membership entry")?;
            if m as usize >= total {
                return Err(WireError::BadValue {
                    what: "membership entry",
                    offset,
                });
            }
            members.push(m);
        }
        let mut member_off = Vec::with_capacity(total);
        for _ in 0..total {
            member_off.push(r.u32("membership bucket start")?);
        }
        let mut member_end = Vec::with_capacity(total);
        for _ in 0..total {
            member_end.push(r.u32("membership bucket end")?);
        }

        let dirty_count = r.len("dirty-pin list")?;
        let mut dirty_pins = Vec::with_capacity(total.max(dirty_count));
        let mut dirty_pin = BitSet::new(total);
        for _ in 0..dirty_count {
            let offset = r.offset();
            let gid = r.u32("dirty pin")?;
            let node_base = r.u32("dirty-pin base")?;
            if gid as usize >= total || dirty_pin.get(gid as usize) {
                return Err(WireError::BadValue {
                    what: "dirty pin",
                    offset,
                });
            }
            if node_base != base[owner(gid)] {
                return Err(WireError::BadValue {
                    what: "dirty-pin base",
                    offset,
                });
            }
            dirty_pin.set(gid as usize);
            dirty_pins.push((gid, node_base));
        }
        // The cut record: two varints (at least two bytes) per entry,
        // both pins in range, distinct and dirty (a cut marks its pins,
        // and the record empties whenever the dirty pins do).
        let cut_offset = r.offset();
        let cut_count = r.len("cut record")?;
        if cut_count > r.remaining() / 2 {
            return Err(WireError::BadValue {
                what: "cut record",
                offset: cut_offset,
            });
        }
        let mut cuts = Vec::with_capacity(cut_count);
        for _ in 0..cut_count {
            let offset = r.offset();
            let pa = r.u32("cut pin")?;
            let pb = r.u32("cut pin")?;
            let dirty = |pin: u32| (pin as usize) < total && dirty_pin.get(pin as usize);
            if pa == pb || !dirty(pa) || !dirty(pb) {
                return Err(WireError::BadValue {
                    what: "cut pin",
                    offset,
                });
            }
            cuts.push((pa, pb));
        }

        // A relabel-time set is a set of its pin's node, and it equals
        // the pin's current set unless the pin is dirty: the bulk writers
        // mark only the pins whose two sets differ, so a clean pin whose
        // sets differ would never be absorbed.
        let mut pset_at_relabel = Vec::with_capacity(total);
        for v in 0..n {
            let caps = topo.ports_len(v) * c;
            for _ in 0..caps {
                let offset = r.offset();
                let pin = pset_at_relabel.len();
                let pset = r.u16("relabel-time partition set")?;
                if pset as usize >= caps || (!dirty_pin.get(pin) && pset != pin_pset[pin]) {
                    return Err(WireError::BadValue {
                        what: "relabel-time partition set",
                        offset,
                    });
                }
                pset_at_relabel.push(pset);
            }
        }
        let stale_count = r.len("stale-set list")?;
        let mut stale = BitSet::new(total);
        let mut prev: Option<u32> = None;
        for _ in 0..stale_count {
            let offset = r.offset();
            let gid = r.u32("stale set")?;
            if gid as usize >= total || prev.is_some_and(|p| gid <= p) {
                return Err(WireError::BadValue {
                    what: "stale set",
                    offset,
                });
            }
            stale.set(gid as usize);
            prev = Some(gid);
        }
        // Every labelled set's circuit bucket must lie inside the arena:
        // deliveries read it. (Stale sets' labels are garbage and never
        // read; so are the offsets of former roots.)
        let labels_offset = r.offset();
        for (gid, &root) in labels.iter().enumerate() {
            if stale.get(gid) {
                continue;
            }
            let (off, end) = (member_off[root as usize], member_end[root as usize]);
            if off > end || end as usize > members.len() {
                return Err(WireError::BadValue {
                    what: "circuit label",
                    offset: labels_offset,
                });
            }
        }

        let root_count = r.len("circuit-root list")?;
        let mut circuit_roots = BitSet::new(total);
        let mut prev: Option<u32> = None;
        for _ in 0..root_count {
            let offset = r.offset();
            let gid = r.u32("circuit root")?;
            if gid as usize >= total || prev.is_some_and(|p| gid <= p) {
                return Err(WireError::BadValue {
                    what: "circuit root",
                    offset,
                });
            }
            // A counted root's membership bucket must lie inside the
            // arena (stale offsets of *former* roots may dangle; they
            // are never read).
            let (off, end) = (member_off[gid as usize], member_end[gid as usize]);
            if off > end || end as usize > members.len() {
                return Err(WireError::BadValue {
                    what: "circuit root",
                    offset,
                });
            }
            circuit_roots.set(gid as usize);
            prev = Some(gid);
        }
        let cached_offset = r.offset();
        // A count, not an array length — it may legitimately exceed the
        // remaining byte budget, so it skips the `len` bounding.
        let cached_circuits = r.varint()? as usize;
        if cached_circuits != root_count {
            return Err(WireError::BadValue {
                what: "cached circuit count",
                offset: cached_offset,
            });
        }

        // Counters encode sorted by name, each once, with every counter
        // the registry pre-registers: any other table decodes to a
        // registry that re-encodes differently.
        let mut stats = EngineStats::new();
        let counter_offset = r.offset();
        let counter_count = r.len("counter table")?;
        let mut prev: Option<&str> = None;
        for _ in 0..counter_count {
            let offset = r.offset();
            let name = r.str("counter name")?;
            let value = r.varint()?;
            let bad_name = WireError::BadValue {
                what: "counter name",
                offset,
            };
            let known = *KNOWN_COUNTERS
                .iter()
                .find(|&&k| k == name)
                .ok_or(bad_name)?;
            if prev.is_some_and(|p| known <= p) {
                return Err(bad_name);
            }
            prev = Some(known);
            stats.metrics.add_named(known, value);
        }
        if stats.metrics.counters_sorted().len() != counter_count {
            return Err(WireError::BadValue {
                what: "counter table",
                offset: counter_offset,
            });
        }

        let rounds = r.varint()?;
        let bad_log = WireError::BadValue {
            what: "charge log",
            offset: r.offset(),
        };
        let charge_count = r.len("charge log")?;
        let mut charge_log = Vec::with_capacity(charge_count);
        let mut logged = 0i64;
        for _ in 0..charge_count {
            let label = r.str("charge label")?;
            let amount = r.signed()?;
            logged = logged.checked_add(amount).ok_or(bad_log)?;
            charge_log.push((label, amount));
        }
        // The simulated count `rounds - Σ` must be a round count.
        if u64::try_from(i128::from(rounds) - i128::from(logged)).is_err() {
            return Err(bad_log);
        }
        let beeps_sent = r.varint()?;
        let stuck_count = r.len("stuck-pin list")?;
        let mut stuck = Vec::with_capacity(stuck_count);
        let mut prev_stuck: Option<u32> = None;
        for _ in 0..stuck_count {
            let offset = r.offset();
            let gid = r.u32("stuck pin")?;
            let pset = r.u16("stuck-pin partition set")?;
            let err = WireError::BadValue {
                what: "stuck pin",
                offset,
            };
            if gid as usize >= total || prev_stuck.is_some_and(|p| gid <= p) {
                return Err(err);
            }
            // The frozen value must be a valid pset of the owning node.
            let v = owner(gid);
            if pset as u32 >= base[v + 1] - base[v] || pin_pset[gid as usize] != pset {
                return Err(err);
            }
            prev_stuck = Some(gid);
            stuck.push((gid, pset));
        }

        Ok(World {
            topo,
            c,
            base,
            pin_pset,
            links,
            free_links,
            send,
            sent,
            recv,
            recv_set,
            // Union-find parents are relabel scratch: every relabel
            // re-seeds the entries it reads, so restore matches
            // `World::new`'s zero fill.
            uf: vec![0; total],
            labels,
            members,
            member_off,
            member_end,
            // Delivery-digest caches are rebuilt lazily: the epoch
            // starts at 1 with every stamp at 0, so the first tracing
            // delivery to each circuit recomputes its digest.
            member_digest: vec![0; total],
            member_digest_epoch: vec![0; total],
            digest_epoch: 1,
            root_mark: BitSet::new(total),
            marked_roots: Vec::with_capacity(total),
            dirty_pins,
            dirty_pin,
            cuts,
            pset_at_relabel,
            stale,
            stale_count,
            circuit_roots,
            port_edge,
            walk: Vec::new(),
            repair: RepairScratch::default(),
            configured,
            // Not encoded: the next full sync configuration re-derives it.
            global_links: vec![false; c],
            cached_circuits,
            stats,
            rounds,
            charge_log,
            beeps_sent,
            stuck,
        })
    }

    /// The world as a sealed `SPFS` blob (kind `WORLD`).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(wire::kind::WORLD);
        self.encode_payload(&mut w);
        w.finish()
    }

    /// Restores a world from [`World::snapshot_bytes`] output. Rejects
    /// corruption (any flipped bit) and malformed payloads with an
    /// offset-carrying [`WireError`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<World, WireError> {
        let mut r = SnapshotReader::open(bytes, wire::kind::WORLD)?;
        let world = World::decode_payload(&mut r)?;
        r.finish()?;
        Ok(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_telemetry::{NullRecorder, Recorder, RoundSummary};

    /// A recorder that keeps every round summary (for differential
    /// comparison of restored vs. uninterrupted runs).
    #[derive(Default)]
    struct Summaries(Vec<RoundSummary>);

    impl Recorder for Summaries {
        const TRACE: bool = true;
        const TIMED: bool = false;
        fn round_end(&mut self, s: &RoundSummary) {
            self.0.push(*s);
        }
    }

    fn grid_world(cols: usize, rows: usize, c: usize) -> World {
        let mut edges = Vec::new();
        let at = |x: usize, y: usize| y * cols + x;
        for y in 0..rows {
            for x in 0..cols {
                if x + 1 < cols {
                    edges.push((at(x, y), at(x + 1, y)));
                }
                if y + 1 < rows {
                    edges.push((at(x, y), at(x, y + 1)));
                }
            }
        }
        World::new(Topology::from_edges(cols * rows, &edges), c)
    }

    /// A world with real history: global circuits, beeps, ticks, a
    /// structure edit (leaving a tombstoned link + free-list entry), a
    /// charge, and a pending beep that has not ticked yet.
    fn seasoned_world() -> World {
        let mut w = grid_world(4, 3, 2);
        for v in 0..12 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.tick();
        w.tick();
        let (peer, _) = w.disconnect(5, 0);
        assert_ne!(peer, 5);
        w.tick();
        w.charge_rounds(3, "snapshot-test charge");
        w.beep(7, 1);
        w
    }

    #[test]
    fn round_trip_is_byte_identical_and_behaviorally_equal() {
        let mut original = seasoned_world();
        let blob = original.snapshot_bytes();
        let mut restored = World::from_snapshot_bytes(&blob).unwrap();
        // Re-encoding the restored world reproduces the same bytes: the
        // codec covers every field it reads.
        assert_eq!(restored.snapshot_bytes(), blob);
        // And the two worlds stay in lockstep for several rounds,
        // including the relabel the pending dirty pins will trigger.
        let (mut a, mut b) = (Summaries::default(), Summaries::default());
        for round in 0..5 {
            original.beep(round % 12, 0);
            restored.beep(round % 12, 0);
            original.tick_with(&mut a);
            restored.tick_with(&mut b);
        }
        assert_eq!(a.0, b.0);
        assert_eq!(original.circuit_count(), restored.circuit_count());
        assert_eq!(original.rounds(), restored.rounds());
        assert_eq!(
            original.metrics().counter_value("relabel_global"),
            restored.metrics().counter_value("relabel_global")
        );
        assert_eq!(
            original.metrics().counter_value("relabel_region"),
            restored.metrics().counter_value("relabel_region")
        );
    }

    #[test]
    fn restore_preserves_the_charge_audit() {
        let w = seasoned_world();
        let restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        assert_eq!(restored.rounds(), w.rounds());
        assert_eq!(restored.simulated_rounds(), w.simulated_rounds());
        assert_eq!(restored.charged_rounds(), w.charged_rounds());
        assert_eq!(restored.charge_log(), w.charge_log());
    }

    #[test]
    fn restore_skips_the_relabel_entirely() {
        // A steady-state world (nothing dirty or stale) must restore with
        // its cached labeling intact: querying the circuit count
        // afterwards runs no relabel, keeping the counters — and
        // therefore the canonical report — identical.
        let mut w = grid_world(3, 3, 1);
        for v in 0..9 {
            w.global_pin_config(v);
        }
        w.tick();
        w.circuit_count(); // the read runs the global relabel
        let before = (w.global_relabels(), w.region_relabels());
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        let count = restored.circuit_count();
        assert_eq!(count, w.circuit_count());
        assert_eq!(
            (restored.global_relabels(), restored.region_relabels()),
            before,
            "restore must not trigger a relabel"
        );
    }

    /// A 300-node path with `c` = 6 whose link 1 carries one circuit
    /// through every node (300 of 3 588 sets, under the fallback
    /// fraction), labelled by a read.
    fn long_link_world() -> World {
        let edges: Vec<(usize, usize)> = (0..299).map(|i| (i, i + 1)).collect();
        let mut w = World::new(Topology::from_edges(300, &edges), 6);
        w.global_link_config_all(1);
        w.circuit_count();
        w
    }

    /// A world restored while some sets are stale keeps them stale: the
    /// first read relabels exactly what the original's first read does.
    /// Splitting the long link-1 circuit in the middle leaves two halves
    /// too long for the repair's budget, so the absorb stales them; the
    /// beep walks one half and the other stays stale.
    #[test]
    fn restore_keeps_stale_sets_stale() {
        let mut w = long_link_world();
        w.set_pin(150, 1, 1, 7); // the east link-1 pin leaves the circuit
        w.beep(0, 1);
        w.tick(); // absorbs; the beep walks the western half
        assert_eq!(w.repair_relabels(), 0, "the split is past the budget");
        assert!(w.relabel_pending());
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        assert!(restored.relabel_pending());
        assert_eq!(restored.circuit_count(), w.circuit_count());
        assert_eq!(
            (restored.global_relabels(), restored.region_relabels()),
            (w.global_relabels(), w.region_relabels())
        );
        assert_eq!(restored.snapshot_bytes(), w.snapshot_bytes());

        // A local edit is repaired instead: nothing is stale, and the
        // restored world reads without relabelling, like the original.
        let mut w = grid_world(4, 3, 1);
        w.circuit_count();
        w.group_pins(5, &[(0, 0), (1, 0)]);
        w.beep(0, 0);
        w.tick(); // absorbs by repairing node 5's circuits
        assert_eq!(w.repair_relabels(), 1);
        assert!(!w.relabel_pending());
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        assert!(!restored.relabel_pending());
        assert_eq!(restored.circuit_count(), w.circuit_count());
        assert_eq!(
            (
                restored.global_relabels(),
                restored.region_relabels(),
                restored.repair_relabels()
            ),
            (
                w.global_relabels(),
                w.region_relabels(),
                w.repair_relabels()
            )
        );
        assert_eq!(restored.snapshot_bytes(), w.snapshot_bytes());
    }

    #[test]
    fn every_single_bit_corruption_is_rejected() {
        let w = seasoned_world();
        // The stale-set field is populated, so its bits are flipped too.
        assert!(w.stale_count > 0);
        let blob = w.snapshot_bytes();
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    World::from_snapshot_bytes(&bad).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    /// The field a crafted blob's rejection names.
    fn rejected_field(blob: &[u8]) -> &'static str {
        match World::from_snapshot_bytes(blob) {
            Err(WireError::BadValue { what, .. }) => what,
            other => panic!("expected a bad-value error, got {other:?}"),
        }
    }

    /// A crafted blob with a valid digest claiming one node with
    /// 4 294 967 295 ports is rejected before the slot arrays are
    /// reserved (reserving them would abort on a 17 GB allocation).
    #[test]
    fn an_absurd_port_count_is_rejected_before_reserving() {
        let mut w = SnapshotWriter::new(wire::kind::WORLD);
        w.varint(6);
        w.varint(1);
        w.varint(u32::MAX as u64);
        assert_eq!(rejected_field(&w.finish()), "topology port count");
        // Plausible port counts whose slots the blob cannot hold.
        let mut w = SnapshotWriter::new(wire::kind::WORLD);
        w.varint(6);
        w.varint(3);
        for _ in 0..3 {
            w.varint(MAX_PORTS as u64);
        }
        for _ in 0..16 {
            w.varint(0);
        }
        assert_eq!(rejected_field(&w.finish()), "topology port count");
    }

    /// A crafted blob with `c` = 400 000 over 400 000 port-less nodes is
    /// rejected before the per-link bitsets are built (building them
    /// would run out of memory).
    #[test]
    fn an_absurd_link_count_is_rejected_before_reserving() {
        let mut w = SnapshotWriter::new(wire::kind::WORLD);
        w.varint(400_000);
        w.varint(400_000);
        for _ in 0..400_000 {
            w.varint(0);
        }
        assert_eq!(rejected_field(&w.finish()), "links per edge");
        // Pins the blob cannot hold are rejected before the pin table:
        // c = 2 over one edge of two one-port nodes is 4 pins, followed
        // by only 3 bytes.
        let mut w = SnapshotWriter::new(wire::kind::WORLD);
        for v in [2, 2, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0] {
            w.varint(v);
        }
        assert_eq!(rejected_field(&w.finish()), "pin count");
    }

    /// The stale set must be in range and strictly ascending.
    #[test]
    fn a_malformed_stale_set_is_rejected() {
        let mut w = grid_world(2, 1, 1);
        w.tick();
        assert_eq!(w.stale_count, 2, "both pins start stale");
        let blob = w.snapshot_bytes();
        // The stale list is `count gid gid` = [2, 0, 1]; nothing after it
        // (no counted roots yet) repeats that byte pattern.
        let at = blob
            .windows(3)
            .rposition(|win| win == [2, 0, 1])
            .expect("stale list in the payload");
        for crafted in [[2u8, 1, 0], [2, 0, 2], [2, 1, 1]] {
            let mut bad = blob[..blob.len() - 8].to_vec();
            bad[at..at + 3].copy_from_slice(&crafted);
            let digest = wire::fnv1a64(&bad);
            bad.extend_from_slice(&digest.to_le_bytes());
            assert_eq!(rejected_field(&bad), "stale set", "{crafted:?}");
        }
    }

    /// A path of ten nodes with `c` = 2: node 9's pins are 34 and 35,
    /// the last of the table, and 36 pins give a fallback threshold of
    /// 4 dirty pins, so one dirty pin is absorbed rather than relabelled
    /// globally.
    fn path_world() -> World {
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let w = World::new(Topology::from_edges(10, &edges), 2);
        assert_eq!((w.base[9], w.gid_count()), (34, 36));
        w
    }

    /// A relabel-time set must be a set of its pin's node, and equal to
    /// the pin's current set unless the pin is dirty: an absorb indexes
    /// the stale bits and labels with it, and the bulk writers mark only
    /// the pins whose two sets differ.
    #[test]
    fn a_bad_relabel_time_set_is_rejected() {
        let mut w = path_world();
        w.circuit_count();
        w.set_pin(9, 0, 0, 1); // pin 34 is dirty, its old set was 0
        World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        // Out of range, on the dirty pin: an absorb would index the
        // stale bits at gid 34 + 65535.
        let mut bad = w.clone();
        bad.pset_at_relabel[34] = u16::MAX;
        assert_eq!(
            rejected_field(&bad.snapshot_bytes()),
            "relabel-time partition set"
        );
        // In range but different from the set of a clean pin.
        let mut bad = w.clone();
        bad.pset_at_relabel[0] = 1;
        assert_eq!(
            rejected_field(&bad.snapshot_bytes()),
            "relabel-time partition set"
        );
    }

    /// A dirty pin's base must be its owner's base offset: an absorb adds
    /// the pin's old and new sets to it.
    #[test]
    fn a_wrong_dirty_pin_base_is_rejected() {
        let mut w = path_world();
        w.circuit_count();
        w.set_pin(9, 0, 1, 0); // pin 35 moves from set 1 to set 0
        assert_eq!(w.dirty_pins, [(35, 34)]);
        // Base 35 would put the old set at gid 36, one past the labels.
        for crafted in [0, 35] {
            let mut bad = w.clone();
            bad.dirty_pins[0].1 = crafted;
            assert_eq!(
                rejected_field(&bad.snapshot_bytes()),
                "dirty-pin base",
                "{crafted}"
            );
        }
    }

    /// A live link entry must be the one the topology implies for its
    /// port slot, and there must be one per topology edge: relabels read
    /// `c` pins from each end of every live entry.
    #[test]
    fn a_bad_link_entry_is_rejected() {
        let mut w = path_world();
        let v = w.add_node(2); // two vacant port slots, pins 36..40
        let b = w.base[v];
        assert_eq!((w.links[0], b), ((0, 0, 2, 2), 36));
        // Either end may come first.
        let mut flipped = w.clone();
        flipped.links[0] = (2, 2, 0, 0);
        World::from_snapshot_bytes(&flipped.snapshot_bytes()).unwrap();
        for crafted in [
            // Link 1 of pin 39 would be pin 40, past the table.
            (39, b, 37, b),
            (b, b, b + 2, b), // vacant ports
            (0, 0, 3, 2),     // not link 0 of the peer port
            (0, 2, 2, 2),     // wrong owner base
        ] {
            let mut bad = w.clone();
            bad.links[0] = crafted;
            assert_eq!(
                rejected_field(&bad.snapshot_bytes()),
                "link entry",
                "{crafted:?}"
            );
        }
        let mut bad = w.clone();
        bad.links[0] = DEAD_LINK;
        bad.free_links.push(0);
        assert_eq!(rejected_field(&bad.snapshot_bytes()), "link table");
    }

    /// A labelled set whose circuit bucket dangles past the arena is
    /// rejected, even when its root is not counted (an empty set's
    /// singleton circuit): a beep on it would read the bucket.
    #[test]
    fn a_dangling_label_bucket_is_rejected() {
        let mut w = grid_world(2, 1, 2);
        w.global_pin_config(0); // node 0's set 1 is now empty
        w.circuit_count();
        assert!(!w.circuit_roots.get(1) && w.labels[1] == 1);
        w.member_end[1] = w.members.len() as u32 + 1;
        assert_eq!(rejected_field(&w.snapshot_bytes()), "circuit label");
    }

    /// The counter table must list each counter once, sorted by name,
    /// the pre-registered ones included: decode would otherwise merge or
    /// add entries, and the restored world would re-encode differently.
    #[test]
    fn a_non_canonical_counter_table_is_rejected() {
        let blob = seasoned_world().snapshot_bytes();
        // An entry is the name's length, the name and a one-byte value
        // (both counters are 0 here); `fault_drops` comes first.
        let entry = |name: &[u8]| {
            let mut pattern = vec![name.len() as u8];
            pattern.extend_from_slice(name);
            let at = blob
                .windows(pattern.len())
                .position(|win| win == pattern.as_slice())
                .expect("counter entry in the payload");
            at..at + pattern.len() + 1
        };
        let (drops, injects) = (entry(b"fault_drops"), entry(b"fault_injects"));
        assert_eq!(drops.end, injects.start, "adjacent entries");
        let reseal = |mut body: Vec<u8>| {
            let digest = wire::fnv1a64(&body);
            body.extend_from_slice(&digest.to_le_bytes());
            body
        };
        let body = &blob[..blob.len() - 8];
        // Out of order.
        let mut swapped = body[..drops.start].to_vec();
        swapped.extend_from_slice(&body[injects.clone()]);
        swapped.extend_from_slice(&body[drops.clone()]);
        swapped.extend_from_slice(&body[injects.end..]);
        assert_eq!(rejected_field(&reseal(swapped)), "counter name");
        // A pre-registered counter left out (the count byte precedes
        // the first entry, `fault_drops`).
        let mut dropped = body[..drops.start].to_vec();
        *dropped.last_mut().unwrap() -= 1;
        dropped.extend_from_slice(&body[drops.end..]);
        assert_eq!(rejected_field(&reseal(dropped)), "counter table");
    }

    /// The charge log reconciles the round counter, so its sum must not
    /// overflow, and `rounds - Σ` (the simulated count) must be a `u64`.
    #[test]
    fn a_charge_log_that_outruns_the_round_counter_is_rejected() {
        let w = seasoned_world();
        assert_eq!((w.rounds(), w.simulated_rounds()), (6, 3));
        for (rounds, forged) in [(6, [4, 0]), (6, [i64::MAX, 1]), (u64::MAX, [i64::MIN, 0])] {
            let mut bad = w.clone();
            bad.rounds = rounds;
            bad.charge_log
                .extend(forged.map(|k| ("forged".to_string(), k)));
            assert_eq!(rejected_field(&bad.snapshot_bytes()), "charge log");
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let blob = seasoned_world().snapshot_bytes();
        for cut in 0..blob.len() {
            assert!(World::from_snapshot_bytes(&blob[..cut]).is_err());
        }
    }

    #[test]
    fn tombstoned_links_and_free_list_survive() {
        let mut w = grid_world(4, 2, 1);
        for v in 0..8 {
            w.global_pin_config(v);
        }
        w.tick();
        let (peer, q) = w.disconnect(0, 0);
        w.tick();
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        // Reconnect through the restored free-list: the recycled slot
        // must behave exactly like the original's.
        restored.connect(0, 0, peer, q);
        w.connect(0, 0, peer, q);
        let _ = (w.tick(), restored.tick());
        assert_eq!(w.circuit_count(), restored.circuit_count());
        assert_eq!(restored.snapshot_bytes(), w.snapshot_bytes());
    }

    #[test]
    fn pending_beeps_survive_the_round_trip() {
        let mut w = grid_world(2, 2, 1);
        for v in 0..4 {
            w.global_pin_config(v);
        }
        w.tick();
        w.beep(0, 0); // pending, not yet delivered
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        w.tick();
        restored.tick();
        for v in 0..4 {
            assert_eq!(w.received(v, 0), restored.received(v, 0));
        }
    }

    /// A snapshot right after a tick encodes the same bytes whether the
    /// tick's deliveries are still pending or a read has written them,
    /// and each restored world answers every read like the original.
    #[test]
    fn pending_and_written_deliveries_encode_alike() {
        let mut w = grid_world(4, 3, 2);
        for v in 0..6 {
            w.global_pin_config(v);
        }
        // Three circuits, beeped in an order other than their roots'.
        w.beep(11, 0);
        w.beep(10, 1);
        w.beep(0, 0);
        w.tick();
        assert_eq!(w.marked_roots.len(), 3, "the deliveries are pending");
        let pending = w.snapshot_bytes();
        assert!(w.received(0, 0));
        assert!(w.marked_roots.is_empty() && w.recv_set.len() > 3);
        let written = w.snapshot_bytes();
        assert_eq!(pending, written);
        for blob in [pending, written] {
            let mut restored = World::from_snapshot_bytes(&blob).unwrap();
            for v in 0..12 {
                for pset in 0..w.pset_capacity(v) as u16 {
                    assert_eq!(restored.received(v, pset), w.received(v, pset));
                }
                assert_eq!(restored.received_any(v), w.received_any(v));
            }
        }
    }

    #[test]
    fn null_recorder_tick_matches_after_restore() {
        // Cheap sanity that the restored world is usable through the
        // plain (NullRecorder-wrapped) API surface too.
        let mut w = seasoned_world();
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        w.tick_with(&mut NullRecorder);
        restored.tick();
        assert_eq!(w.rounds(), restored.rounds());
    }
}
