//! The churn-repair differential: random hole-free blobs in the global,
//! singleton and mixed pin configurations go through churn events of all
//! four families, with random regroupings, beeps and reads interleaved.
//! After every event the engine's labels must equal a global relabel's
//! (on a clone), its deliveries those of `tick_reference`, and its
//! circuit count a naive union-find oracle's.
//!
//! An absorb repairs the churned circuits locally when the repair's
//! certificate holds, and stales them otherwise. Both paths must run, or
//! the suite would compare one path with itself: the deterministic
//! `both_paths_run` pins that on a fixed grid of cases.

use amoebot_circuits::{BitSet, World};
use amoebot_dynamics::{derive_rng, ChurnFamily, ChurnPlan, DynamicWorld, ALL_CHURN_FAMILIES};
use amoebot_grid::{shapes, AmoebotStructure};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Ports per amoebot (the grid's six directions).
const PORTS: usize = 6;

fn dynamic_blob(n: usize, seed: u64, c: usize) -> DynamicWorld {
    let coords = shapes::random_blob(n, &mut derive_rng(seed, 1000));
    DynamicWorld::new(&AmoebotStructure::new(coords).unwrap(), c)
}

/// The base configurations the suite starts from.
#[derive(Debug, Clone, Copy)]
enum Base {
    Global,
    Singleton,
    Mixed,
}

const BASES: [Base; 3] = [Base::Global, Base::Singleton, Base::Mixed];

/// Configures node `v`: the base's configuration, or for `Mixed` a
/// random one (global, singleton, a global link, or a random grouping).
fn configure(w: &mut World, rng: &mut StdRng, base: Base, v: usize) {
    let c = w.links_per_edge();
    let pick = match base {
        Base::Global => 0,
        Base::Singleton => 1,
        Base::Mixed => rng.gen_range(0..4u32),
    };
    match pick {
        0 => w.global_pin_config(v),
        1 => w.singleton_pin_config(v),
        2 => w.global_link_config(v, rng.gen_range(0..c)),
        _ => {
            for _ in 0..rng.gen_range(1..=3usize) {
                let i = rng.gen_range(0..PORTS * c);
                let pset = rng.gen_range(0..PORTS * c) as u16;
                w.set_pin(v, i / c, i % c, pset);
            }
        }
    }
}

/// Naive circuit count over the live topology, independent of the
/// engine: union-find over every link, then distinct roots among the
/// sets some pin holds.
fn oracle_circuit_count(w: &World) -> usize {
    let topo = w.topology();
    let c = w.links_per_edge();
    let mut base = vec![0usize];
    let mut total = 0;
    for v in 0..topo.len() {
        total += topo.ports_len(v) * c;
        base.push(total);
    }
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
            for link in 0..c {
                let a = base[v] + w.pin_config(v, p, link) as usize;
                let b = base[u] + w.pin_config(u, q, link) as usize;
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
    }
    let mut roots = BitSet::new(total);
    for (v, &b) in base.iter().enumerate().take(topo.len()) {
        for i in 0..topo.ports_len(v) * c {
            let set = b + w.pin_config(v, i / c, i % c) as usize;
            roots.set(find(&mut parent, set));
        }
    }
    roots.ones().count()
}

/// Every set's label equals the one a global relabel of a clone gives.
fn assert_labels_match_global(w: &mut World, what: &str) {
    let mut global = w.clone();
    global.tick_reference();
    let before = global.global_relabels();
    global.circuit_count();
    assert_eq!(
        global.global_relabels(),
        before + 1,
        "the clone relabels globally"
    );
    for v in 0..w.topology().len() {
        for pset in 0..w.pset_capacity(v) as u16 {
            assert_eq!(
                w.pset_circuit(v, pset),
                global.pset_circuit(v, pset),
                "{what}: label of node {v} pset {pset} differs from the global relabel's"
            );
        }
    }
}

/// Repaired and fallen-back absorbs of one run.
#[derive(Debug, Default, Clone, Copy)]
struct Paths {
    repairs: u64,
    fallbacks: u64,
}

/// One case: a blob in `base`, labelled by a read, then `events` churn
/// events of `family`, each with random regroupings, beeps and maybe a
/// read before its tick, checked against the three oracles.
fn run(seed: u64, n: usize, c: usize, base: Base, family: ChurnFamily, per_event: usize) -> Paths {
    let events = 8;
    let mut rng = derive_rng(seed, 3000);
    let mut dw = dynamic_blob(n, seed, c);
    let live: Vec<u32> = dw.editor().live_ids().to_vec();
    for &v in &live {
        configure(dw.world_mut(), &mut rng, base, v as usize);
    }
    dw.world_mut().circuit_count();
    let plan = ChurnPlan::new(seed ^ 0x5EED, family, events, per_event);
    let mut paths = Paths::default();
    for e in 0..events {
        let what = format!("seed={seed} n={n} c={c} {base:?} {family:?} event #{e}");
        let applied = plan.apply(&mut dw, e);
        for v in &applied.inserted {
            configure(dw.world_mut(), &mut rng, base, v.index());
        }
        // Random regroupings ride the same absorb as the churn.
        let live: Vec<u32> = dw.editor().live_ids().to_vec();
        for _ in 0..rng.gen_range(0..3usize) {
            let v = live[rng.gen_range(0..live.len())] as usize;
            configure(dw.world_mut(), &mut rng, Base::Mixed, v);
        }
        let w = dw.world_mut();
        let pending = w.relabel_pending();
        let repairs = w.repair_relabels();
        // Sometimes a read absorbs first; otherwise the tick does.
        if rng.gen_bool(0.3) {
            let v = live[rng.gen_range(0..live.len())] as usize;
            w.pset_circuit(v, 0);
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let v = live[rng.gen_range(0..live.len())] as usize;
            let pset = rng.gen_range(0..w.pset_capacity(v)) as u16;
            w.beep(v, pset);
        }
        let mut reference = w.clone();
        reference.tick_reference();
        w.tick();
        if pending {
            if w.repair_relabels() > repairs {
                paths.repairs += 1;
            } else {
                paths.fallbacks += 1;
            }
        }
        for v in 0..w.topology().len() {
            for pset in 0..w.pset_capacity(v) as u16 {
                assert_eq!(
                    w.received(v, pset),
                    reference.received(v, pset),
                    "{what}: delivery to node {v} pset {pset} differs from tick_reference's"
                );
            }
        }
        assert_labels_match_global(w, &what);
        assert_eq!(
            w.circuit_count(),
            oracle_circuit_count(w),
            "{what}: circuit count"
        );
    }
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every event of every family, in every base configuration, against
    /// a global relabel, `tick_reference` and the naive count.
    #[test]
    fn repaired_churn_matches_the_oracles(
        seed in 0u64..100_000,
        n in 3usize..120,
        c in 1usize..=3,
        base_ix in 0usize..3,
        family_ix in 0usize..4,
        per_event in 1usize..9,
    ) {
        run(seed, n, c, BASES[base_ix], ALL_CHURN_FAMILIES[family_ix], per_event);
    }
}

/// Non-vacuity: over a fixed grid of cases, absorbs both repaired and
/// fell back, in every base configuration.
#[test]
fn both_paths_run() {
    for base in BASES {
        let mut total = Paths::default();
        for (i, family) in ALL_CHURN_FAMILIES.into_iter().enumerate() {
            for seed in 0..3u64 {
                let p = run(seed * 7 + i as u64, 40, 2, base, family, 4);
                total.repairs += p.repairs;
                total.fallbacks += p.fallbacks;
            }
        }
        assert!(
            total.repairs > 0,
            "{base:?}: no absorb repaired ({total:?})"
        );
        assert!(
            total.fallbacks > 0,
            "{base:?}: no absorb fell back ({total:?})"
        );
    }
}

/// The count guard: on a 10k-amoebot blob in the global configuration,
/// once a read has labelled everything, each of 20 churn events that
/// edits the structure is one repair at the broadcast tick after it, and
/// nothing walks the 10k-set global circuit.
#[test]
fn global_churn_repairs_without_walking() {
    let mut dw = dynamic_blob(10_000, 7, 2);
    for v in 0..dw.world().topology().len() {
        dw.world_mut().global_pin_config(v);
    }
    dw.world_mut().circuit_count();
    let w = dw.world();
    let before = (w.global_relabels(), w.region_relabels(), w.walk_relabels());
    let plan = ChurnPlan::new(42, ChurnFamily::GrowShrink, 20, 4);
    let mut edits = 0;
    for e in 0..plan.events {
        let applied = plan.apply(&mut dw, e);
        for v in &applied.inserted {
            dw.world_mut().global_pin_config(v.index());
        }
        // A growth event can find no free boundary cell among its tries.
        if applied.inserted.len() + applied.removed.len() > 0 {
            edits += 1;
        }
        let origin = dw.editor().live_ids()[0] as usize;
        dw.world_mut().beep(origin, 0);
        dw.world_mut().tick();
        let last = dw.editor().live_ids()[dw.len() - 1] as usize;
        assert!(
            dw.world_mut().received(last, 0),
            "event #{e}: the broadcast spans"
        );
    }
    let w = dw.world();
    assert!(edits >= 15, "only {edits} of 20 events edited");
    assert_eq!(w.repair_relabels(), edits, "one repair per editing event");
    assert_eq!(
        (w.global_relabels(), w.region_relabels(), w.walk_relabels()),
        before,
        "no relabel and no walk"
    );
    assert!(!w.relabel_pending());
}
