//! The `SPFS` snapshot codec for [`Topology`] and [`World`].
//!
//! A snapshot stores the world's **model state**, as §1.2 of the paper
//! defines it at a round boundary: the topology, every pin's partition
//! set, the beeps sent this round and the deliveries of the last one.
//! Next to it go the accounting a report reads (the round counter,
//! beeps sent, the engine counters) and the stuck pins an adversary
//! armed. The circuits are a function of the pins and the topology, so
//! nothing the engine caches about them is stored: decode validates the
//! fields, builds the world with [`World::new`] (link table, port index
//! and label cache as a fresh world's, with every partition set stale)
//! and then sets the decoded fields.
//!
//! A restored world therefore delivers every beep and answers every
//! read exactly as the snapshotted one would, and re-encodes to the same
//! bytes. Only the upkeep of the cache differs: the first tick walks the
//! circuits it delivers on, and the first full read runs one global
//! relabel. The `relabel_*` counters count that upkeep, so they are not
//! stored either, and a restored world counts its relabels from zero.
//!
//! Pending deliveries are written as the first read would write them,
//! so the bytes do not depend on whether anything read the round. Phase
//! timers are dropped too: they are wall-clock diagnostics, excluded
//! from canonical reports by design.
//!
//! ## Payload grammar (inside the [`wire`] envelope, kind `WORLD`)
//!
//! All integers are unsigned LEB128 varints unless noted.
//!
//! ```text
//! world    := c | topology | pset[total]
//!           | sent | recv_set
//!           | counters | rounds | beeps_sent | stuck
//! topology := n | ports[n] | (peer_node peer_port)[slots] | edge_count
//! sent     := count | gid[count]                        (beeping psets, beep order)
//! recv_set := count | gid[count]                        (delivered psets, delivery order)
//! counters := count | (name value)[count]               (all but relabel_*)
//! stuck    := count | (gid pset)[count]                  (ascending gids)
//! ```
//!
//! Decoding allocates in proportion to the blob: `c` and every node's
//! port count are bounded by `MAX_PORTS`, the slot count by the bytes
//! left to encode the slots, and the pin count by the bytes left to
//! encode the pins, before [`World::new`] reserves anything per pin.

use amoebot_telemetry::wire::{self, SnapshotReader, SnapshotWriter, WireError};
use amoebot_telemetry::Metrics;

use crate::bitset::BitSet;
use crate::topology::{Topology, MAX_PORTS, NONE};
use crate::world::{World, RESET_NODES};

/// Counter names a snapshot stores, in name order. The metrics registry
/// keys counters by `&'static str`, so decoded names are matched against
/// this fixed menu rather than leaked into statics.
const KNOWN_COUNTERS: [&str; 3] = ["fault_drops", "fault_injects", RESET_NODES];

/// The counters a snapshot stores, sorted by name: all but the
/// `relabel_*` ones, which count the upkeep of the label cache a
/// snapshot leaves out.
fn stored_counters(metrics: &Metrics) -> Vec<(&'static str, u64)> {
    let mut counters = metrics.counters_sorted();
    counters.retain(|(name, _)| !name.starts_with("relabel_"));
    counters
}

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

/// Reads `count` distinct gids, each `< total`, into the dense list and
/// the bitset the world keeps of one set of partition sets. The list
/// keeps the blob's order (beep order, delivery order).
fn decode_gids(
    r: &mut SnapshotReader<'_>,
    total: usize,
    list: &mut Vec<u32>,
    bits: &mut BitSet,
    what: &'static str,
) -> Result<(), WireError> {
    let count = r.len(what)?;
    for _ in 0..count {
        let offset = r.offset();
        let gid = r.u32(what)?;
        if gid as usize >= total || bits.get(gid as usize) {
            return Err(WireError::BadValue { what, offset });
        }
        bits.set(gid as usize);
        list.push(gid);
    }
    Ok(())
}

impl World {
    /// Writes the world payload (no envelope) into `w` — the composable
    /// form `amoebot_dynamics`'s codec embeds.
    pub fn encode_payload(&self, w: &mut SnapshotWriter) {
        w.varint(self.c as u64);
        encode_topology(&self.topo, w);
        for &pset in &self.pin_pset {
            w.varint(pset as u64);
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
        let counters = stored_counters(&self.stats.metrics);
        w.varint(counters.len() as u64);
        for (name, value) in counters {
            w.str(name);
            w.varint(value);
        }
        w.varint(self.rounds);
        w.varint(self.beeps_sent);
        w.varint(self.stuck.len() as u64);
        for &(gid, pset) in &self.stuck {
            w.varint(gid as u64);
            w.varint(pset as u64);
        }
    }

    /// Decodes a world payload written by [`World::encode_payload`]:
    /// validates each field once, builds the world with [`World::new`]
    /// and sets the decoded fields. Every partition set starts stale, so
    /// labels are derived from the pins when a tick or a read needs them.
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
        // Each pin costs at least one byte (its partition set).
        let too_many_pins = WireError::BadValue {
            what: "pin count",
            offset: r.offset(),
        };
        let mut total = 0u32;
        for v in 0..topo.len() {
            total = total
                .checked_add((topo.ports_len(v) * c) as u32)
                .ok_or(too_many_pins)?;
        }
        let total = total as usize;
        if total > r.remaining() {
            return Err(too_many_pins);
        }

        let mut world = World::new(topo, c);
        for v in 0..world.topo.len() {
            let node_base = world.base[v] as usize;
            let caps = world.pset_capacity(v);
            for i in 0..caps {
                let offset = r.offset();
                let pset = r.u16("pin partition set")?;
                if pset as usize >= caps {
                    return Err(WireError::BadValue {
                        what: "pin partition set",
                        offset,
                    });
                }
                // Nothing is dirty: every set is stale until labelled.
                world.pin_pset[node_base + i] = pset;
                world.pset_at_relabel[node_base + i] = pset;
                if pset as usize != i {
                    world.configured[i % c].set(v);
                }
            }
        }
        decode_gids(
            r,
            total,
            &mut world.sent,
            &mut world.send,
            "beeping partition set",
        )?;
        decode_gids(
            r,
            total,
            &mut world.recv_set,
            &mut world.recv,
            "delivered partition set",
        )?;

        // Counters encode sorted by name, each once, with every stored
        // counter the registry pre-registers: any other table decodes to
        // a registry that re-encodes differently.
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
            world.stats.metrics.add_named(known, value);
        }
        if stored_counters(&world.stats.metrics).len() != counter_count {
            return Err(WireError::BadValue {
                what: "counter table",
                offset: counter_offset,
            });
        }

        world.rounds = r.varint()?;
        world.beeps_sent = r.varint()?;
        let stuck_count = r.len("stuck-pin list")?;
        let mut prev: Option<u32> = None;
        for _ in 0..stuck_count {
            let offset = r.offset();
            let gid = r.u32("stuck pin")?;
            let pset = r.u16("stuck-pin partition set")?;
            // The frozen value is the pin's current set.
            if gid as usize >= total
                || prev.is_some_and(|p| gid <= p)
                || world.pin_pset[gid as usize] != pset
            {
                return Err(WireError::BadValue {
                    what: "stuck pin",
                    offset,
                });
            }
            prev = Some(gid);
            world.stuck.push((gid, pset));
        }
        Ok(world)
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
    use amoebot_telemetry::{NullRecorder, Recorder, RoundSummary, TraceEvent};

    /// A recorder that keeps every round summary (for differential
    /// comparison of restored vs. uninterrupted runs).
    #[derive(Default)]
    struct Summaries(Vec<RoundSummary>);

    impl Recorder for Summaries {
        const TRACE: bool = true;
        const TIMED: bool = false;
        fn event(&mut self, ev: TraceEvent) {
            if let TraceEvent::RoundEnd(s) = ev {
                self.0.push(s);
            }
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
    /// structure edit (leaving a tombstoned link + free-list entry) and
    /// a pending beep that has not ticked yet.
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

    /// A snapshot stores no labels: a restored world's first read
    /// labels everything with exactly one global relabel, however much
    /// the original had labelled, and answers like the original.
    #[test]
    fn a_restored_worlds_first_read_runs_one_global_relabel() {
        let mut w = long_link_world();
        assert!(!w.relabel_pending());
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        assert!(restored.relabel_pending());
        assert_eq!(restored.global_relabels(), 0, "decode relabels nothing");
        assert_eq!(restored.circuit_count(), w.circuit_count());
        assert_eq!(
            (
                restored.global_relabels(),
                restored.region_relabels(),
                restored.walk_relabels()
            ),
            (1, 0, 0)
        );
        assert!(!restored.relabel_pending());
        for v in [0, 150, 299] {
            for pset in 0..restored.pset_capacity(v) as u16 {
                assert_eq!(restored.pset_circuit(v, pset), w.pset_circuit(v, pset));
            }
        }
        assert_eq!(restored.global_relabels(), 1, "later reads reuse it");
        assert_eq!(restored.snapshot_bytes(), w.snapshot_bytes());
    }

    /// A restored world's first tick walks only the circuits it delivers
    /// on: two beeps on the western half of the split link-1 circuit
    /// cost one walk of that half, and every other set stays stale.
    /// The deliveries are the original's.
    #[test]
    fn a_restored_worlds_first_tick_walks_only_what_it_delivers_on() {
        let mut w = long_link_world();
        w.set_pin(150, 1, 1, 7); // the east link-1 pin leaves the circuit
        w.circuit_count();
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
        for world in [&mut w, &mut restored] {
            world.beep(0, 1);
            world.beep(100, 1);
            world.tick();
        }
        let root = restored.labels[restored.pset_global_id(0, 1) as usize] as usize;
        let western = restored.member_bucket(root).len();
        assert_eq!(western, 151, "the western half: nodes 0 to 150");
        assert_eq!(restored.walk_relabels(), 1);
        assert_eq!(restored.stale_count, restored.gid_count() - western);
        assert_eq!(
            (restored.global_relabels(), restored.region_relabels()),
            (0, 0)
        );
        for v in 0..300 {
            for pset in 0..w.pset_capacity(v) as u16 {
                assert_eq!(restored.received(v, pset), w.received(v, pset));
            }
        }
        assert_eq!(restored.snapshot_bytes(), w.snapshot_bytes());
    }

    #[test]
    fn every_single_bit_corruption_is_rejected() {
        let blob = seasoned_world().snapshot_bytes();
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

    #[test]
    fn truncations_are_rejected() {
        let blob = seasoned_world().snapshot_bytes();
        for cut in 0..blob.len() {
            assert!(World::from_snapshot_bytes(&blob[..cut]).is_err());
        }
    }

    /// A snapshot stores no link table: the restored world's table has
    /// no tombstone or free slot where the original's has one, and the
    /// reconnected worlds must still behave alike.
    #[test]
    fn reconnecting_after_a_restore_matches_the_original() {
        let mut w = grid_world(4, 2, 1);
        for v in 0..8 {
            w.global_pin_config(v);
        }
        w.tick();
        let (peer, q) = w.disconnect(0, 0);
        w.tick();
        let mut restored = World::from_snapshot_bytes(&w.snapshot_bytes()).unwrap();
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
