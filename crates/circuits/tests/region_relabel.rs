//! Differential suite for the region-scoped label-everything pass (a
//! walk of every stale circuit): random topologies, random *partial*
//! reconfigurations between ticks — a few nodes, often a few pins of a
//! node — so most reads exercise the region path rather than the global
//! fallback. Every round is checked against the full-recompute
//! [`World::tick_reference`] engine and a naive circuit-count oracle,
//! every read's labels against a global relabel of the same
//! configuration, and the relabel-path counters are pinned so the region
//! path cannot silently degrade into always-global (which would make
//! this whole suite vacuous).
//!
//! Also covered deterministically: no-op writes keeping the next tick on
//! the clean path, and the everything-dirty global-relabel fallback.
//! Ticks label lazily (they walk only the circuits they deliver on), so
//! the relabel paths are observed through reads
//! ([`World::circuit_count`]), which label everything.

use amoebot_circuits::{BitSet, Topology, World};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random connected topology: a random tree plus up to `extra` edges.
fn random_topology(rng: &mut StdRng, n: usize, extra: usize) -> Topology {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for v in 1..n {
        edges.push((rng.gen_range(0..v), v));
    }
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        let e = (u.min(v), u.max(v));
        if u != v && !edges.contains(&e) {
            edges.push(e);
        }
    }
    Topology::from_edges(n, &edges)
}

/// Test-local shadow of the pin configuration for the naive oracle.
struct Shadow {
    c: usize,
    pset: Vec<Vec<u16>>,
}

impl Shadow {
    fn new(world: &World) -> Shadow {
        let c = world.links_per_edge();
        let pset = (0..world.topology().len())
            .map(|v| {
                (0..world.topology().ports_len(v) * c)
                    .map(|i| i as u16)
                    .collect()
            })
            .collect();
        Shadow { c, pset }
    }

    /// Naive circuit count, independent of both engines under test.
    #[allow(clippy::needless_range_loop)] // `v` also indexes `base[w]`
    fn circuit_count(&self, topo: &Topology) -> usize {
        let mut base = vec![0usize];
        let mut acc = 0usize;
        for v in 0..topo.len() {
            acc += topo.ports_len(v) * self.c;
            base.push(acc);
        }
        let mut parent: Vec<usize> = (0..acc).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for v in 0..topo.len() {
            for (p, w, q) in topo.neighbors(v) {
                if v < w {
                    for link in 0..self.c {
                        let a = base[v] + self.pset[v][p * self.c + link] as usize;
                        let b = base[w] + self.pset[w][q * self.c + link] as usize;
                        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                        if ra != rb {
                            parent[ra.max(rb)] = ra.min(rb);
                        }
                    }
                }
            }
        }
        let mut roots = BitSet::new(acc);
        for v in 0..topo.len() {
            for pin in 0..topo.ports_len(v) * self.c {
                roots.set(find(&mut parent, base[v] + self.pset[v][pin] as usize));
            }
        }
        roots.ones().count()
    }
}

/// Checks that `world`'s labels, right after a read, are exactly the
/// global relabel's: snapshots, traces and [`World::pset_circuit`]
/// readers all see them, so the scoped pass must give every partition
/// set the label the global path would. The global labels come from a
/// clone whose [`World::tick_reference`] stales everything, so its next
/// read relabels globally.
fn assert_labels_match_global(world: &mut World, round: usize) {
    let mut global = world.clone();
    global.tick_reference();
    let before = global.global_relabels();
    global.circuit_count();
    // A world without pins (one node, no edges) has nothing to label.
    let pins: usize = (0..world.topology().len())
        .map(|v| world.pset_capacity(v))
        .sum();
    assert_eq!(
        global.global_relabels(),
        before + u64::from(pins > 0),
        "the clone relabels globally"
    );
    for v in 0..world.topology().len() {
        for pset in 0..world.pset_capacity(v) as u16 {
            assert_eq!(
                world.pset_circuit(v, pset),
                global.pset_circuit(v, pset),
                "label of node {v} pset {pset} differs from the global relabel's in round {round}"
            );
        }
    }
}

/// One partial reconfiguration: a few pins of one node move (through the
/// per-pin path), or one node's whole config moves (bulk path).
fn reconfigure_node(
    rng: &mut StdRng,
    inc: &mut World,
    reference: &mut World,
    shadow: &mut Shadow,
    v: usize,
) {
    let cap = inc.pset_capacity(v);
    if cap == 0 {
        return;
    }
    let c = inc.links_per_edge();
    match rng.gen_range(0..4u32) {
        0 => {
            inc.global_pin_config(v);
            reference.global_pin_config(v);
            shadow.pset[v].iter_mut().for_each(|p| *p = 0);
        }
        1 => {
            inc.singleton_pin_config(v);
            reference.singleton_pin_config(v);
            for (i, p) in shadow.pset[v].iter_mut().enumerate() {
                *p = i as u16;
            }
        }
        _ => {
            // A few individual pins only: the sparse per-pin path.
            for _ in 0..rng.gen_range(1..=3usize) {
                let i = rng.gen_range(0..cap);
                let (port, link) = (i / c, i % c);
                let pset = rng.gen_range(0..cap) as u16;
                inc.set_pin(v, port, link, pset);
                reference.set_pin(v, port, link, pset);
                shadow.pset[v][i] = pset;
            }
        }
    }
}

/// Runs `rounds` rounds of sparse reconfigurations + beeps, checking the
/// incremental engine against the reference engine and the oracle.
fn run_sparse(seed: u64, n: usize, c: usize, extra: usize, rounds: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_topology(&mut rng, n, extra);
    let mut inc = World::new(topo, c);
    let mut reference = inc.clone();
    let mut shadow = Shadow::new(&inc);

    for round in 0..rounds {
        // Sparse partial reconfiguration: k ≪ n nodes, often single pins.
        if rng.gen_bool(0.7) {
            let k = rng.gen_range(1..=3usize.min(n));
            for _ in 0..k {
                let v = rng.gen_range(0..n);
                reconfigure_node(&mut rng, &mut inc, &mut reference, &mut shadow, v);
            }
        }
        // Occasional no-op rewrite: re-store the exact current values.
        // Must not make the labeling dirty on its own.
        if rng.gen_bool(0.3) {
            let was_pending = inc.relabel_pending();
            let v = rng.gen_range(0..n);
            for (i, &pset) in shadow.pset[v].clone().iter().enumerate() {
                inc.set_pin(v, i / c, i % c, pset);
                reference.set_pin(v, i / c, i % c, pset);
            }
            prop_assert_eq!(
                inc.relabel_pending(),
                was_pending,
                "a no-op rewrite made the labeling dirty in round {}",
                round
            );
        }

        let beeps = rng.gen_range(0..=3usize);
        for _ in 0..beeps {
            let v = rng.gen_range(0..n);
            let cap = inc.pset_capacity(v);
            if cap == 0 {
                continue;
            }
            let pset = rng.gen_range(0..cap) as u16;
            inc.beep(v, pset);
            reference.beep(v, pset);
        }

        prop_assert_eq!(
            inc.circuit_count(),
            shadow.circuit_count(inc.topology()),
            "circuit count diverged from the naive oracle in round {}",
            round
        );
        assert_labels_match_global(&mut inc, round);

        inc.tick();
        reference.tick_reference();

        for v in 0..n {
            prop_assert_eq!(inc.received_any(v), reference.received_any(v));
            for pset in 0..inc.pset_capacity(v) as u16 {
                prop_assert_eq!(
                    inc.received(v, pset),
                    reference.received(v, pset),
                    "delivery diverged at node {} pset {} in round {}",
                    v,
                    pset,
                    round
                );
            }
        }
    }
    // No per-case region-path assertion here: on small random worlds a
    // handful of merges can legitimately grow a circuit past the
    // fallback, making every relabel global. The deterministic
    // `sparse_rounds_relabel_region_scoped` below pins the region path.
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse partial reconfigurations: region-scoped relabels must be
    /// indistinguishable from the full recompute, round for round.
    #[test]
    fn region_relabel_matches_reference_under_partial_reconfig(
        seed in 0u64..=u64::MAX,
        n in 9usize..40,
        c in 1usize..4,
        extra in 0usize..10,
    ) {
        run_sparse(seed, n, c, extra, 10);
    }

    /// Tiny worlds (down to a single node) through the same op stream:
    /// the fallback fraction makes most of these globally-relabelled, which is
    /// exactly the path mix they should get.
    #[test]
    fn region_relabel_matches_reference_on_tiny_worlds(
        seed in 0u64..=u64::MAX,
        n in 1usize..9,
        c in 1usize..3,
    ) {
        run_sparse(seed, n, c, 2, 6);
    }
}

/// A no-op reconfiguration (bulk and per-pin) keeps the next tick on the
/// clean path: no relabel or walk of any flavor runs.
#[test]
fn noop_reconfig_keeps_the_clean_path() {
    let topo = Topology::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let mut w = World::new(topo, 2);
    for v in 0..6 {
        w.global_pin_config(v);
    }
    w.tick();
    w.circuit_count();
    let (global, region, walks) = (w.global_relabels(), w.region_relabels(), w.walk_relabels());
    assert!(!w.relabel_pending(), "a read must leave the labeling clean");
    // Re-apply the exact same configuration through every mutation path.
    for v in 0..6 {
        w.global_pin_config(v);
        w.global_link_config(v, 0); // pins on link 0 already hold pset 0
        for i in 0..w.pset_capacity(v) {
            w.set_pin(v, i / 2, i % 2, 0);
        }
    }
    assert!(
        !w.relabel_pending(),
        "no-op reconfiguration must not dirty the labeling"
    );
    w.beep(0, 0);
    w.tick();
    w.circuit_count();
    assert_eq!(
        (w.global_relabels(), w.region_relabels(), w.walk_relabels()),
        (global, region, walks),
        "the no-op round must not relabel at all"
    );
    assert!(w.received(5, 0), "the cached circuit still delivers");
}

/// A sparse reconfiguration takes the region path; reconfiguring (almost)
/// everything falls back to the global relabel. A regrouping the absorb
/// can repair locally runs no relabel at all; one whose circuits are too
/// long for the repair's budget goes stale and the next read walks it.
#[test]
fn sparse_uses_region_path_and_everything_dirty_falls_back() {
    // A path whose link 1 carries one circuit through all 300 nodes:
    // 300 of 3 588 sets, under the fallback fraction.
    let n = 300;
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let mut w = World::new(Topology::from_edges(n, &edges), 6);
    w.global_link_config_all(1);
    w.circuit_count(); // initial labeling: global by construction
    assert_eq!((w.global_relabels(), w.region_relabels()), (1, 0));
    // One node regroups two link-0 pins: the absorb repairs the two
    // short circuits it joins.
    w.set_pin(20, 0, 0, 0); // no-op: port 0/link 0 already holds pset 0
    w.set_pin(20, 1, 0, 0);
    w.tick();
    assert_eq!(w.repair_relabels(), 1, "a local regrouping is repaired");
    assert!(!w.relabel_pending());
    // One node splits the long circuit: two 150-set halves, far past
    // the repair's budget, but far below the fallback fraction.
    w.set_pin(150, 1, 1, 7);
    w.tick(); // absorbs the change; no beep, so nothing is labelled
    assert_eq!(w.repair_relabels(), 1, "the split is past the budget");
    assert_eq!((w.global_relabels(), w.region_relabels()), (1, 0));
    w.circuit_count();
    assert_eq!(
        (w.global_relabels(), w.region_relabels()),
        (1, 1),
        "a sparse reconfiguration must relabel region-scoped"
    );
    // Every node reconfigures: past the fallback threshold.
    for v in 0..n {
        w.global_pin_config(v);
    }
    w.circuit_count();
    assert_eq!(
        (w.global_relabels(), w.region_relabels()),
        (2, 1),
        "an everything-dirty round must fall back to the global relabel"
    );
    assert_eq!(w.repair_relabels(), 1, "nor does it repair");
    // And the labeling is correct either way: the global config spans all.
    w.beep(0, 0);
    w.tick();
    assert!(w.received(n - 1, 0));
}

/// `tick_reference` invalidates the incremental bookkeeping wholesale:
/// ticks walk what they deliver on, the next read must relabel
/// globally, then reads settle back into region-scoped relabels.
#[test]
fn reference_tick_forces_a_global_relabel() {
    let edges: Vec<(usize, usize)> = (0..15).map(|i| (i, i + 1)).collect();
    let topo = Topology::from_edges(16, &edges);
    // Default singleton configuration: circuits stay per-edge-per-link,
    // far below the fallback fraction, so post-reference relabels can be
    // region-scoped.
    let mut w = World::new(topo, 2);
    w.circuit_count();
    assert_eq!(w.global_relabels(), 1);
    w.tick_reference();
    assert!(
        w.relabel_pending(),
        "reference tick must invalidate the cache"
    );
    // Node 7 beeps east on link 1 (singleton id 3): the tick
    // walks that one circuit instead of relabelling anything.
    w.beep(7, 3);
    w.tick();
    assert!(w.received(8, 1), "the walked circuit delivers");
    assert_eq!((w.global_relabels(), w.region_relabels()), (1, 0));
    assert_eq!(w.walk_relabels(), 1);
    w.circuit_count();
    assert_eq!(
        w.global_relabels(),
        2,
        "post-reference relabel must be global"
    );
    // Node 4 bridges its two link-0 pins: a 2-circuit region on a
    // 28-pin world, far below the fallback threshold.
    w.set_pin(4, 0, 0, 0); // no-op: port 0/link 0 already holds pset 0
    w.set_pin(4, 1, 0, 0); // real change: joins the two link-0 circuits
    w.circuit_count();
    assert_eq!(w.region_relabels(), 1, "then region relabels resume");
    assert_eq!(w.global_relabels(), 2);
    // And the merged circuit actually carries a beep across node 4:
    // node 3 beeps on its eastward link-0 pin set (singleton id 2).
    w.beep(3, 2);
    w.tick();
    assert!(w.received(5, 0), "bridged circuit must span nodes 3..=5");
}

/// The region-path differential, pinned deterministically: a world that
/// stays in sparse configurations (singleton base, small regroupings)
/// must relabel region-scoped on (nearly) every dirty round, and still
/// agree with the full-recompute engine on every delivery.
#[test]
fn sparse_rounds_relabel_region_scoped() {
    let n = 64;
    let mut rng = StdRng::seed_from_u64(7);
    let topo = random_topology(&mut rng, n, 12);
    let mut inc = World::new(topo, 2);
    let mut reference = inc.clone();
    inc.circuit_count();
    inc.tick();
    reference.tick_reference();
    let rounds = 40;
    for round in 0..rounds {
        // 1-2 nodes regroup 1-3 pins each: always a tiny region.
        for _ in 0..rng.gen_range(1..=2usize) {
            let v = rng.gen_range(0..n);
            let cap = inc.pset_capacity(v);
            if cap == 0 {
                continue;
            }
            for _ in 0..rng.gen_range(1..=3usize) {
                let i = rng.gen_range(0..cap);
                let pset = rng.gen_range(0..cap.min(8)) as u16;
                inc.set_pin(v, i / 2, i % 2, pset);
                reference.set_pin(v, i / 2, i % 2, pset);
            }
        }
        let v = rng.gen_range(0..n);
        if inc.pset_capacity(v) > 0 {
            let pset = rng.gen_range(0..inc.pset_capacity(v)) as u16;
            inc.beep(v, pset);
            reference.beep(v, pset);
        }
        // A read labels everything: the scoped pass under test.
        inc.circuit_count();
        assert_labels_match_global(&mut inc, round as usize);
        inc.tick();
        reference.tick_reference();
        for v in 0..n {
            for pset in 0..inc.pset_capacity(v) as u16 {
                assert_eq!(
                    inc.received(v, pset),
                    reference.received(v, pset),
                    "delivery diverged at node {v} pset {pset} in round {round}"
                );
            }
        }
    }
    assert_eq!(
        inc.global_relabels(),
        1,
        "only the initial labeling may be global"
    );
    assert!(
        inc.region_relabels() >= rounds / 2,
        "sparse rounds must relabel region-scoped (got {})",
        inc.region_relabels()
    );
}
