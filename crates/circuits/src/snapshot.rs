//! The `SPFS` codec for a [`World`]'s state section.
//!
//! The section stores the world's **model state**, as §1.2 of the paper
//! defines it at a round boundary: every pin's partition set, the beeps
//! sent this round and the deliveries of the last one. Next to it go the
//! accounting a report reads (the round counter, beeps sent, the engine
//! counters) and the stuck pins an adversary armed. The topology is not
//! stored: the one payload that embeds a section, `DYNAMIC_WORLD`
//! (`amoebot_dynamics::snapshot`), derives it from the editor's cells,
//! and the caller hands it to the decoder. The circuits are a function
//! of the pins and the topology, so nothing the engine caches about them
//! is stored: decode validates the fields, builds the world with
//! [`World::new`] (its label cache as a fresh world's, with every
//! partition set stale) and then sets the decoded fields.
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
//! ## Section grammar
//!
//! All integers are unsigned LEB128 varints.
//!
//! ```text
//! section  := c | pset[total] | sent | recv_set
//!           | counters | rounds | beeps_sent | stuck
//! sent     := count | gid[count]                        (beeping psets, beep order)
//! recv_set := count | gid[count]                        (delivered psets, delivery order)
//! counters := count | (name value)[count]               (all but relabel_*)
//! stuck    := count | (gid pset)[count]                  (ascending gids)
//! ```
//!
//! Decoding allocates in proportion to the blob: `c` is bounded by
//! `MAX_PORTS`, and the pin count by the bytes left to encode the pins,
//! before [`World::new`] reserves anything per pin.

use amoebot_telemetry::wire::{SnapshotReader, SnapshotWriter, WireError};
use amoebot_telemetry::Metrics;

use crate::bitset::BitSet;
use crate::topology::{Topology, MAX_PORTS};
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
    /// Writes the world's state section (no envelope, no topology) into
    /// `w`: the part of a `DYNAMIC_WORLD` payload after the editor.
    pub fn encode_payload(&self, w: &mut SnapshotWriter) {
        w.varint(self.c as u64);
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

    /// Decodes a state section written by [`World::encode_payload`] over
    /// `topo`, the topology the caller derived: validates each field
    /// once, builds the world with [`World::new`] and sets the decoded
    /// fields. Every partition set starts stale, so labels are derived
    /// from the pins when a tick or a read needs them.
    pub fn decode_payload(r: &mut SnapshotReader<'_>, topo: Topology) -> Result<World, WireError> {
        let c_offset = r.offset();
        let c = r.len("links per edge")?;
        if c == 0 || c > MAX_PORTS as usize {
            return Err(WireError::BadValue {
                what: "links per edge",
                offset: c_offset,
            });
        }
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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use amoebot_telemetry::wire;
    use amoebot_telemetry::{NullRecorder, Recorder, RoundSummary, TraceEvent};

    /// `w`'s state section, sealed under the `DYNAMIC_WORLD` tag (whose
    /// payload ends in a section): equal bytes mean equal model state.
    pub(crate) fn state(w: &World) -> Vec<u8> {
        let mut s = SnapshotWriter::new(wire::kind::DYNAMIC_WORLD);
        w.encode_payload(&mut s);
        s.finish()
    }

    /// Decodes a sealed state section over `topo`.
    fn decode(blob: &[u8], topo: Topology) -> Result<World, WireError> {
        let mut r = SnapshotReader::open(blob, wire::kind::DYNAMIC_WORLD)?;
        let world = World::decode_payload(&mut r, topo)?;
        r.finish()?;
        Ok(world)
    }

    /// `w` restored from its state section over its own topology.
    pub(crate) fn restore(w: &World) -> World {
        decode(&state(w), w.topology().clone()).expect("a world's own section decodes")
    }

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
    /// structure edit (leaving a vacant port on both sides) and a
    /// pending beep that has not ticked yet.
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
        let mut restored = restore(&original);
        // Re-encoding the restored world reproduces the same bytes: the
        // codec covers every field it reads.
        assert_eq!(state(&restored), state(&original));
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
        let mut restored = restore(&w);
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
        assert_eq!(state(&restored), state(&w));
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
        let mut restored = restore(&w);
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
        assert_eq!(state(&restored), state(&w));
    }

    /// The field a crafted section's rejection names, decoded over `topo`.
    fn rejected_field(blob: &[u8], topo: Topology) -> &'static str {
        match decode(blob, topo) {
            Err(WireError::BadValue { what, .. }) => what,
            other => panic!("expected a bad-value error, got {other:?}"),
        }
    }

    /// A crafted section with `c` = 400 000 over 400 000 port-less nodes
    /// is rejected before the per-link bitsets are built (building them
    /// would run out of memory).
    #[test]
    fn an_absurd_link_count_is_rejected_before_reserving() {
        let portless = Topology::from_ports(&vec![0; 400_000], &[]).unwrap();
        let mut w = SnapshotWriter::new(wire::kind::DYNAMIC_WORLD);
        w.varint(400_000);
        for _ in 0..400_000 {
            w.varint(0);
        }
        assert_eq!(rejected_field(&w.finish(), portless), "links per edge");
        // Pins the blob cannot hold are rejected before the pin table:
        // c = 2 over one edge of two one-port nodes is 4 pins, followed
        // by only 3 bytes.
        let mut w = SnapshotWriter::new(wire::kind::DYNAMIC_WORLD);
        for v in [2, 0, 0, 0] {
            w.varint(v);
        }
        let edge = Topology::from_edges(2, &[(0, 1)]);
        assert_eq!(rejected_field(&w.finish(), edge), "pin count");
    }

    /// The counter table must list each counter once, sorted by name,
    /// the pre-registered ones included: decode would otherwise merge or
    /// add entries, and the restored world would re-encode differently.
    #[test]
    fn a_non_canonical_counter_table_is_rejected() {
        let world = seasoned_world();
        let blob = state(&world);
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
        let topo = || world.topology().clone();
        assert_eq!(rejected_field(&reseal(swapped), topo()), "counter name");
        // A pre-registered counter left out (the count byte precedes
        // the first entry, `fault_drops`).
        let mut dropped = body[..drops.start].to_vec();
        *dropped.last_mut().unwrap() -= 1;
        dropped.extend_from_slice(&body[drops.end..]);
        assert_eq!(rejected_field(&reseal(dropped), topo()), "counter table");
    }

    /// A restored world rewires like the original: both reconnect the
    /// cut edge and must then behave alike.
    #[test]
    fn reconnecting_after_a_restore_matches_the_original() {
        let mut w = grid_world(4, 2, 1);
        for v in 0..8 {
            w.global_pin_config(v);
        }
        w.tick();
        let (peer, q) = w.disconnect(0, 0);
        w.tick();
        let mut restored = restore(&w);
        restored.connect(0, 0, peer, q);
        w.connect(0, 0, peer, q);
        let _ = (w.tick(), restored.tick());
        assert_eq!(w.circuit_count(), restored.circuit_count());
        assert_eq!(state(&restored), state(&w));
    }

    #[test]
    fn pending_beeps_survive_the_round_trip() {
        let mut w = grid_world(2, 2, 1);
        for v in 0..4 {
            w.global_pin_config(v);
        }
        w.tick();
        w.beep(0, 0); // pending, not yet delivered
        let mut restored = restore(&w);
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
        let pending = state(&w);
        assert!(w.received(0, 0));
        assert!(w.marked_roots.is_empty() && w.recv_set.len() > 3);
        let written = state(&w);
        assert_eq!(pending, written);
        for blob in [pending, written] {
            let mut restored = decode(&blob, w.topology().clone()).unwrap();
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
        let mut restored = restore(&w);
        w.tick_with(&mut NullRecorder);
        restored.tick();
        assert_eq!(w.rounds(), restored.rounds());
    }
}
