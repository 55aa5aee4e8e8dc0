//! Differential suite for lazy circuit labels and per-circuit delivery:
//! ticks label only the stale circuits they deliver a beep on,
//! by walking them, and record the circuits they deliver to instead of
//! writing receive bits. Rounds mostly run with **no relabelling read
//! between writes and ticks** (such a read labels everything and would
//! hide the walk path), and every delivery is compared with the
//! full-recompute [`World::tick_reference`] engine — half the rounds
//! only after work between the tick and its first read, which must
//! write the pending deliveries before it changes what they name.
//!
//! The op stream writes through every write path — single pins, the bulk
//! configurations, phase resets, stuck pins, `add_node`, `connect`,
//! `disconnect` and `isolate` — ticks through `tick_faulted` with drops
//! and injects, beeps on empty partition sets, mixes traced and
//! untraced ticks (both walk) on one world, and round-trips
//! snapshots while sets are stale. Each case ends with the circuit count
//! checked against a naive oracle.

use amoebot_circuits::{TickFaults, Topology, World};
use amoebot_telemetry::wire::{kind, SnapshotReader, SnapshotWriter};
use amoebot_telemetry::{NullRecorder, Recorder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A recorder that asks for traced ticks and records nothing: its ticks
/// label exactly as untraced ones do.
struct Traced;

impl Recorder for Traced {
    const TRACE: bool = true;
    const TIMED: bool = false;
}

/// `w`'s state section, sealed under the `DYNAMIC_WORLD` tag (whose
/// payload ends in a section): equal bytes mean equal model state.
fn state(w: &World) -> Vec<u8> {
    let mut s = SnapshotWriter::new(kind::DYNAMIC_WORLD);
    w.encode_payload(&mut s);
    s.finish()
}

/// `w` restored from its state section over its own topology.
fn restore(w: &World) -> World {
    let blob = state(w);
    let mut r = SnapshotReader::open(&blob, kind::DYNAMIC_WORLD).unwrap();
    let restored = World::decode_payload(&mut r, w.topology().clone()).unwrap();
    r.finish().unwrap();
    restored
}

/// A random structure of `n` nodes with `ports` port slots each, wired by
/// a random spanning tree plus `extra` edges where ports are free.
fn random_world(rng: &mut StdRng, n: usize, ports: u32, c: usize, extra: usize) -> World {
    let mut used = vec![0u32; n];
    let mut edges: Vec<(u32, u32, u32, u32)> = Vec::new();
    let adjacent = |v: usize, w: usize, edges: &[(u32, u32, u32, u32)]| {
        let (v, w) = (v as u32, w as u32);
        edges
            .iter()
            .any(|&(a, _, b, _)| (a, b) == (v, w) || (a, b) == (w, v))
    };
    for w in 1..n {
        let v = rng.gen_range(0..w);
        if used[v] < ports && used[w] < ports && !adjacent(v, w, &edges) {
            edges.push((v as u32, used[v], w as u32, used[w]));
            used[v] += 1;
            used[w] += 1;
        }
    }
    for _ in 0..extra {
        let (v, w) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if v != w && used[v] < ports && used[w] < ports && !adjacent(v, w, &edges) {
            edges.push((v as u32, used[v], w as u32, used[w]));
            used[v] += 1;
            used[w] += 1;
        }
    }
    let topo = Topology::from_ports(&vec![ports; n], &edges).expect("valid random topology");
    World::new(topo, c)
}

/// Naive circuit count from the public pin reads alone: union-find over
/// every link, then the distinct roots of the referenced sets.
fn naive_circuit_count(w: &World) -> usize {
    let topo = w.topology();
    let c = w.links_per_edge();
    let mut base = vec![0usize];
    for v in 0..topo.len() {
        base.push(base[v] + topo.ports_len(v) * c);
    }
    let total = base[topo.len()];
    let mut parent: Vec<usize> = (0..total).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for v in 0..topo.len() {
        for (p, u, q) in topo.neighbors(v) {
            if v < u {
                for link in 0..c {
                    let a = base[v] + w.pin_config(v, p, link) as usize;
                    let b = base[u] + w.pin_config(u, q, link) as usize;
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    parent[ra.max(rb)] = ra.min(rb);
                }
            }
        }
    }
    let mut roots: Vec<usize> = Vec::new();
    for (v, &node_base) in base.iter().take(topo.len()).enumerate() {
        for p in 0..topo.ports_len(v) {
            for link in 0..c {
                let set = node_base + w.pin_config(v, p, link) as usize;
                roots.push(find(&mut parent, set));
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Applies one random write to both worlds.
fn write_both(rng: &mut StdRng, a: &mut World, b: &mut World) {
    let n = a.topology().len();
    let v = rng.gen_range(0..n);
    let cap = a.pset_capacity(v);
    let c = a.links_per_edge();
    match rng.gen_range(0..14u32) {
        0 => {
            a.global_pin_config(v);
            b.global_pin_config(v);
        }
        1 => {
            a.singleton_pin_config(v);
            b.singleton_pin_config(v);
        }
        2 | 3 if cap >= 2 => {
            let pins: Vec<(usize, usize)> = (0..rng.gen_range(2..=cap.min(4)))
                .map(|_| {
                    let i = rng.gen_range(0..cap);
                    (i / c, i % c)
                })
                .collect();
            a.group_pins(v, &pins);
            b.group_pins(v, &pins);
        }
        4 => {
            let link = rng.gen_range(0..c);
            a.global_link_config(v, link);
            b.global_link_config(v, link);
        }
        5 => {
            let keep = [rng.gen_range(0..c)];
            if rng.gen_bool(0.5) {
                a.reset_pins_keeping_links(v, &keep);
                b.reset_pins_keeping_links(v, &keep);
            } else {
                a.reset_all_pins_keeping_links(&keep);
                b.reset_all_pins_keeping_links(&keep);
            }
        }
        6 if cap > 0 => {
            let i = rng.gen_range(0..cap);
            let pset = rng.gen_range(0..cap) as u16;
            if rng.gen_bool(0.7) {
                a.stick_pin(v, i / c, i % c, pset);
                b.stick_pin(v, i / c, i % c, pset);
            } else if rng.gen_bool(0.5) {
                a.unstick_pin(v, i / c, i % c);
                b.unstick_pin(v, i / c, i % c);
            } else {
                a.release_stuck_pins();
                b.release_stuck_pins();
            }
        }
        7 => {
            let ports = rng.gen_range(0..=4usize);
            a.add_node(ports);
            b.add_node(ports);
        }
        8 | 9 => {
            // Connect two non-adjacent nodes on free ports, if any.
            let w = rng.gen_range(0..n);
            let topo = a.topology();
            if v == w || topo.port_to(v, w).is_some() {
                return;
            }
            let free = |x: usize| (0..topo.ports_len(x)).find(|&p| topo.peer(x, p).is_none());
            if let (Some(p), Some(q)) = (free(v), free(w)) {
                a.connect(v, p, w, q);
                b.connect(v, p, w, q);
            }
        }
        10 => {
            let topo = a.topology();
            if let Some(p) = (0..topo.ports_len(v)).find(|&p| topo.peer(v, p).is_some()) {
                a.disconnect(v, p);
                b.disconnect(v, p);
            }
        }
        11 => {
            a.isolate(v);
            b.isolate(v);
        }
        _ if cap > 0 => {
            for _ in 0..rng.gen_range(1..=3usize) {
                let i = rng.gen_range(0..cap);
                let pset = rng.gen_range(0..cap) as u16;
                a.set_pin(v, i / c, i % c, pset);
                b.set_pin(v, i / c, i % c, pset);
            }
        }
        _ => {}
    }
}

/// A random `(node, pset)` with a non-empty capacity, if the world has one.
fn random_pset(rng: &mut StdRng, w: &World) -> Option<(usize, u16)> {
    for _ in 0..8 {
        let v = rng.gen_range(0..w.topology().len());
        let cap = w.pset_capacity(v);
        if cap > 0 {
            // Any id below the capacity: often a set no pin references.
            return Some((v, rng.gen_range(0..cap) as u16));
        }
    }
    None
}

/// Runs one to four steps of work between a tick and its first read:
/// writes through every write path on both worlds (pins, reset sweeps,
/// stuck pins, `connect`, `disconnect`, `isolate`, `add_node`), reads
/// that label everything (`circuit_count`, `pset_circuit`) on the lazy
/// world, and `SPFS` round trips of it. Returns the lazy world, which a
/// round trip replaces; adds the walks of each replaced world to `walks`.
fn between_tick_work(
    rng: &mut StdRng,
    mut lazy: World,
    reference: &mut World,
    walks: &mut u64,
) -> World {
    for _ in 0..rng.gen_range(1..=4usize) {
        match rng.gen_range(0..4u32) {
            0 | 1 => write_both(rng, &mut lazy, reference),
            2 => {
                if rng.gen_bool(0.5) {
                    lazy.circuit_count();
                } else if let Some((v, pset)) = random_pset(rng, &lazy) {
                    lazy.pset_circuit(v, pset);
                }
            }
            _ => {
                let blob = state(&lazy);
                *walks += lazy.walk_relabels();
                lazy = restore(&lazy);
                assert_eq!(state(&lazy), blob, "a restore re-encodes");
            }
        }
    }
    lazy
}

/// Runs `rounds` rounds of writes, beeps and (possibly faulted, traced or
/// untraced) ticks with no relabelling read between writes and ticks,
/// checking every delivery against the reference engine, some of them
/// after work between the tick and the read. Returns the walks the lazy
/// world ran, summed across its restores (a restored world counts its
/// relabels from zero).
fn run(seed: u64, n: usize, c: usize, rounds: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let extra = rng.gen_range(0..n);
    let mut lazy = random_world(&mut rng, n, 4, c, extra);
    let mut reference = lazy.clone();
    let mut walks = 0;
    for round in 0..rounds {
        for _ in 0..rng.gen_range(0..=4usize) {
            write_both(&mut rng, &mut lazy, &mut reference);
        }
        // Beeps (often on empty sets), then drops and injects by gid.
        let mut beeps: Vec<(usize, u16)> = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            if let Some((v, pset)) = random_pset(&mut rng, &lazy) {
                lazy.beep(v, pset);
                beeps.push((v, pset));
            }
        }
        let mut faults = TickFaults::default();
        let faulted = rng.gen_bool(0.3);
        if faulted {
            for &(v, pset) in &beeps {
                if rng.gen_bool(0.4) {
                    faults.drop.push(lazy.pset_global_id(v, pset));
                }
            }
            for _ in 0..rng.gen_range(0..=2usize) {
                if let Some((v, pset)) = random_pset(&mut rng, &lazy) {
                    faults.inject.push(lazy.pset_global_id(v, pset));
                    beeps.push((v, pset));
                }
            }
            faults.drop.sort_unstable();
            faults.drop.dedup();
            faults.inject.sort_unstable();
            faults.inject.dedup();
        }
        // The reference delivers what the adversary lets through.
        for (v, pset) in beeps {
            if faults
                .drop
                .binary_search(&lazy.pset_global_id(v, pset))
                .is_err()
            {
                reference.beep(v, pset);
            }
        }
        match (faulted, rng.gen_bool(0.25)) {
            (false, false) => lazy.tick(),
            (false, true) => lazy.tick_with(&mut Traced),
            (true, false) => lazy.tick_faulted(&faults, &mut NullRecorder),
            (true, true) => lazy.tick_faulted(&faults, &mut Traced),
        }
        reference.tick_reference();
        // The lazy world's deliveries are pending until the first read.
        // Work between the tick and that read must not change what it
        // reads for the sets that existed at the tick.
        let at_tick = lazy.topology().len();
        if rng.gen_bool(0.5) {
            lazy = between_tick_work(&mut rng, lazy, &mut reference, &mut walks);
        }
        for v in 0..at_tick {
            for pset in 0..lazy.pset_capacity(v) as u16 {
                prop_assert_eq!(
                    lazy.received(v, pset),
                    reference.received(v, pset),
                    "delivery diverged at node {} pset {} in round {}",
                    v,
                    pset,
                    round
                );
            }
            prop_assert_eq!(
                lazy.received_any(v),
                reference.received_any(v),
                "delivery to node {} diverged in round {}",
                v,
                round
            );
        }
        // Round-trip a snapshot while sets are stale: the restored world
        // re-encodes to the same bytes and carries on identically.
        if lazy.relabel_pending() && rng.gen_bool(0.2) {
            let blob = state(&lazy);
            walks += lazy.walk_relabels();
            lazy = restore(&lazy);
            prop_assert!(lazy.relabel_pending(), "stale sets must survive a restore");
            prop_assert_eq!(state(&lazy), blob);
        }
    }
    prop_assert_eq!(lazy.circuit_count(), naive_circuit_count(&reference));
    prop_assert_eq!(lazy.circuit_count(), naive_circuit_count(&lazy));
    walks + lazy.walk_relabels()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Walk-labelled deliveries are indistinguishable from the full
    /// recompute, round for round, under every write path.
    #[test]
    fn walks_match_the_reference_engine(
        seed in 0u64..=u64::MAX,
        n in 2usize..30,
        c in 1usize..4,
    ) {
        run(seed, n, c, 24);
    }
}

/// The suite is not vacuous: across a few fixed seeds the lazy world
/// really walks circuits.
#[test]
fn the_op_stream_exercises_the_walk_path() {
    let walks: u64 = (0..8).map(|seed| run(seed, 20, 2, 24)).sum();
    assert!(walks > 20, "only {walks} walks across 8 seeds");
}
