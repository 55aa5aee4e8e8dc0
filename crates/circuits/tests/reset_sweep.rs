//! Differential suite for the phase reset: `reset_all_pins_keeping_links`
//! visits only the nodes its per-link `configured` sets mark, and must
//! leave the world exactly as resetting every node one by one does.
//!
//! Random write sequences drive one world through every pin-write path
//! (`set_pin`, `group_pins`, `global_link_config`, global and singleton
//! configs, stuck-at pins, node growth with new edges) with an SPFS
//! snapshot round trip partway through. Two clones then reset with the
//! same random `keep` list, one through the marked sweep and one node by
//! node. The pin tables must match, the dirty pins must reach the next
//! tick in the same order (read off the recorder's config deltas), and
//! the next tick must deliver what the reference engine delivers.

use amoebot_circuits::{Topology, World};
use amoebot_telemetry::{Recorder, TraceEvent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Records the config deltas a tick emits: the dirty-pin list in order.
#[derive(Default)]
struct Deltas(Vec<(u32, u16)>);

impl Recorder for Deltas {
    const TRACE: bool = true;
    const TIMED: bool = false;
    fn event(&mut self, ev: TraceEvent) {
        if let TraceEvent::ConfigDelta { gid, pset } = ev {
            self.0.push((gid, pset));
        }
    }
}

/// A random connected topology on 6-port nodes: a random tree plus a few
/// extra edges, each on a free port pair.
fn random_world(rng: &mut StdRng, n: usize, c: usize) -> World {
    let mut w = World::new(Topology::from_edges(0, &[]), c);
    for _ in 0..n {
        w.add_node(6);
    }
    for v in 1..n {
        connect_somewhere(rng, &mut w, v);
    }
    w
}

/// Wires `v` to a random earlier node on the first free port pair, if
/// one exists (the per-node port budget can run out).
fn connect_somewhere(rng: &mut StdRng, w: &mut World, v: usize) {
    let u = rng.gen_range(0..v);
    if w.topology().port_to(u, v).is_some() {
        return;
    }
    let free = |w: &World, x: usize| (0..6).find(|&p| w.topology().peer(x, p).is_none());
    if let (Some(p), Some(q)) = (free(w, u), free(w, v)) {
        w.connect(u, p, v, q);
    }
}

/// One random write through one of the pin-write paths.
fn random_write(rng: &mut StdRng, w: &mut World) {
    let n = w.topology().len();
    let c = w.links_per_edge();
    let v = rng.gen_range(0..n);
    let cap = w.pset_capacity(v);
    let pin = |rng: &mut StdRng| {
        let i = rng.gen_range(0..cap);
        (i / c, i % c)
    };
    match rng.gen_range(0..10u32) {
        0..=2 => {
            let (port, link) = pin(rng);
            w.set_pin(v, port, link, rng.gen_range(0..cap) as u16);
        }
        3 | 4 => {
            let pins: Vec<(usize, usize)> = (0..rng.gen_range(1..4)).map(|_| pin(rng)).collect();
            w.group_pins(v, &pins);
        }
        5 => w.global_link_config(v, rng.gen_range(0..c)),
        6 => w.global_pin_config(v),
        7 => w.singleton_pin_config(v),
        8 => {
            if rng.gen_range(0..3u32) == 0 {
                w.release_stuck_pins();
            } else {
                let (port, link) = pin(rng);
                w.stick_pin(v, port, link, rng.gen_range(0..cap) as u16);
            }
        }
        _ => {
            let fresh = w.add_node(6);
            connect_somewhere(rng, w, fresh);
        }
    }
}

fn pin_table(w: &World) -> Vec<u16> {
    let c = w.links_per_edge();
    let mut out = Vec::new();
    for v in 0..w.topology().len() {
        for i in 0..w.pset_capacity(v) {
            out.push(w.pin_config(v, i / c, i % c));
        }
    }
    out
}

fn run(seed: u64, n: usize, c: usize, writes: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = random_world(&mut rng, n, c);
    for step in 0..writes {
        random_write(&mut rng, &mut w);
        if step == writes / 2 {
            // The sets are derived state: decode must rebuild them.
            w = World::from_snapshot_bytes(&w.snapshot_bytes()).expect("snapshot round trip");
        }
        if rng.gen_range(0..4u32) == 0 {
            w.tick();
        }
    }
    // A phase reset with a random subset of links kept.
    let keep: Vec<usize> = (0..c).filter(|_| rng.gen_range(0..3u32) == 0).collect();
    let mut marked = w.clone();
    let mut swept = w.clone();
    marked.reset_all_pins_keeping_links(&keep);
    for v in 0..swept.topology().len() {
        swept.reset_pins_keeping_links(v, &keep);
    }
    assert_eq!(pin_table(&marked), pin_table(&swept), "pin tables differ");
    assert_eq!(marked.relabel_pending(), swept.relabel_pending());

    // The same beeps on the marked world and on a reference copy.
    let mut reference = marked.clone();
    for _ in 0..3 {
        let v = rng.gen_range(0..marked.topology().len());
        let cap = marked.pset_capacity(v);
        if cap > 0 {
            let pset = rng.gen_range(0..cap) as u16;
            for world in [&mut marked, &mut swept, &mut reference] {
                world.beep(v, pset);
            }
        }
    }
    let (mut a, mut b) = (Deltas::default(), Deltas::default());
    marked.tick_with(&mut a);
    swept.tick_with(&mut b);
    reference.tick_reference();
    assert_eq!(a.0, b.0, "dirty pins reached the tick in a different order");
    for v in 0..marked.topology().len() {
        for pset in 0..marked.pset_capacity(v) as u16 {
            assert_eq!(
                marked.received(v, pset),
                reference.received(v, pset),
                "delivery differs at node {v}, set {pset}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The marked sweep is indistinguishable from resetting every node.
    #[test]
    fn marked_reset_matches_the_full_sweep(
        seed in 0u64..=u64::MAX,
        n in 2usize..40,
        c in 1usize..5,
        writes in 1usize..60,
    ) {
        run(seed, n, c, writes);
    }

    /// Structures wider than one bitset word, with a handful of writes:
    /// most nodes stay unmarked and the sweep must skip them silently.
    #[test]
    fn sparse_writes_on_wide_structures(
        seed in 0u64..=u64::MAX,
        n in 65usize..200,
        c in 1usize..4,
    ) {
        run(seed, n, c, 6);
    }
}
