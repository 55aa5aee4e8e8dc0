//! Differential suite for PASC's incremental track writes: after its first
//! data round a `PascRun` rewrites only the instances that retired, and it
//! must leave the world exactly as the loop that regrouped every instance
//! in every data round does.
//!
//! Random chains (`chain_specs`), forests (`tree_specs`) and Euler tours
//! (`build_tours`), all with random weights, run on two worlds built alike:
//! one through `PascRun`, one through `EagerRun` below, a copy of that
//! configure-everything loop. The worlds' SPFS state sections (pin table,
//! dirty-pin order, pending beeps, counters) must be equal in the
//! `pre_tick` of every data round and after every sync round; bits,
//! incoming tracks, termination and final values must agree.

use amoebot_telemetry::wire::{kind, SnapshotWriter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spf::circuits::{Topology, World};
use spf::core::ett::build_tours;
use spf::core::links::{BWD_PRIMARY, BWD_SECONDARY, FWD_PRIMARY, FWD_SECONDARY, LINKS, SYNC};
use spf::core::Tree;
use spf::pasc::{chain_specs, tree_specs, InstanceSpec, PascRun};

/// The configure-everything PASC loop: every data round regroups every
/// instance through `World::group_pins`, two fresh groups per instance.
struct EagerRun {
    specs: Vec<InstanceSpec>,
    active: Vec<bool>,
    values: Vec<u64>,
    incoming: Vec<u8>,
    bits: Vec<u8>,
    iterations: u32,
    sync_link: usize,
    done: bool,
}

impl EagerRun {
    fn new(world: &mut World, specs: Vec<InstanceSpec>, sync_link: usize) -> EagerRun {
        for v in 0..world.topology().len() {
            world.global_link_config(v, sync_link);
        }
        let n = specs.len();
        EagerRun {
            active: specs.iter().map(|s| s.weight).collect(),
            specs,
            values: vec![0; n],
            incoming: vec![0; n],
            bits: vec![0; n],
            iterations: 0,
            sync_link,
            done: false,
        }
    }

    /// Instance `i`'s two track groups under its current activity.
    fn groups(&self, i: usize) -> [Vec<(usize, usize)>; 2] {
        let spec = &self.specs[i];
        let mut a = Vec::new();
        let mut b = Vec::new();
        if let Some(pred) = spec.pred {
            a.push((pred.port, pred.primary));
            b.push((pred.port, pred.secondary));
        }
        for s in &spec.succs {
            let (la, lb) = if spec.pred.is_some() && self.active[i] {
                (s.secondary, s.primary)
            } else {
                (s.primary, s.secondary)
            };
            a.push((s.port, la));
            b.push((s.port, lb));
        }
        [a, b]
    }

    /// The partition-set ids `World::group_pins` gives the two groups.
    fn psets(&self, c: usize, i: usize) -> (u16, u16) {
        let id = |g: &[(usize, usize)]| {
            g.iter()
                .map(|&(port, link)| (port * c + link) as u16)
                .min()
                .unwrap_or(u16::MAX)
        };
        let [a, b] = self.groups(i);
        (id(&a), id(&b))
    }

    fn data_step(
        &mut self,
        world: &mut World,
        pre_tick: impl FnOnce(&mut World),
    ) -> Option<Vec<u8>> {
        if self.done {
            return None;
        }
        let c = world.links_per_edge();
        for i in 0..self.specs.len() {
            let node = self.specs[i].node;
            for group in self.groups(i) {
                if !group.is_empty() {
                    world.group_pins(node, &group);
                }
            }
        }
        for (i, spec) in self.specs.iter().enumerate() {
            if spec.pred.is_none() && !spec.succs.is_empty() {
                let (a, b) = self.psets(c, i);
                world.beep(spec.node, if self.active[i] { b } else { a });
            }
        }
        pre_tick(world);
        world.tick();
        for i in 0..self.specs.len() {
            let spec = &self.specs[i];
            let bit = match spec.pred {
                None => {
                    self.incoming[i] = 0;
                    self.active[i] as u8
                }
                Some(_) => {
                    let (a, b) = self.psets(c, i);
                    assert!(world.received(spec.node, a) != world.received(spec.node, b));
                    self.incoming[i] = u8::from(world.received(spec.node, b));
                    self.incoming[i] ^ u8::from(self.active[i])
                }
            };
            self.bits[i] = bit;
            self.values[i] |= (bit as u64) << self.iterations;
        }
        for i in 0..self.specs.len() {
            if self.active[i] && self.bits[i] == 1 {
                self.active[i] = false;
            }
        }
        Some(self.bits.clone())
    }

    fn sync_step(&mut self, world: &mut World) -> bool {
        let pset = World::global_link_pset(self.sync_link);
        for (i, spec) in self.specs.iter().enumerate() {
            if self.active[i] {
                world.beep(spec.node, pset);
            }
        }
        world.tick();
        let heard = self
            .specs
            .first()
            .is_some_and(|s| world.received(s.node, pset));
        self.iterations += 1;
        self.done = !heard;
        self.done
    }
}

/// A world's state section (its pins, beeps, deliveries, accounting
/// and stuck pins, as a snapshot stores them) and relabel counters. The
/// section holds no label cache and no `relabel_*` counter, so the
/// counters are what shows that two worlds labelled alike.
fn state(w: &World) -> (Vec<u8>, [u64; 4]) {
    let relabels = [
        w.global_relabels(),
        w.region_relabels(),
        w.walk_relabels(),
        w.repair_relabels(),
    ];
    let mut section = SnapshotWriter::new(kind::DYNAMIC_WORLD);
    w.encode_payload(&mut section);
    (section.finish(), relabels)
}

/// Runs `specs` through `PascRun` and `EagerRun` on two worlds over `topo`
/// and compares them round by round.
fn run_both(topo: &Topology, specs: Vec<InstanceSpec>) {
    let mut w_inc = World::new(topo.clone(), LINKS);
    let mut w_eager = World::new(topo.clone(), LINKS);
    let mut inc = PascRun::new(&mut w_inc, specs.clone(), SYNC);
    let mut eager = EagerRun::new(&mut w_eager, specs, SYNC);
    assert!(state(&w_inc) == state(&w_eager), "after set-up");
    let mut round = 0;
    loop {
        let mut snap_inc = Default::default();
        let bits_inc = inc
            .data_step(&mut w_inc, |w| snap_inc = state(w))
            .map(<[u8]>::to_vec);
        let mut snap_eager = Default::default();
        let bits_eager = eager.data_step(&mut w_eager, |w| snap_eager = state(w));
        assert!(
            snap_inc == snap_eager,
            "data round {round}: worlds differ before the tick"
        );
        assert_eq!(bits_inc, bits_eager, "data round {round}: bits");
        if bits_inc.is_none() {
            break;
        }
        assert_eq!(
            inc.incoming(),
            &eager.incoming[..],
            "data round {round}: incoming"
        );
        let done_inc = inc.sync_step(&mut w_inc);
        let done_eager = eager.sync_step(&mut w_eager);
        assert_eq!(done_inc, done_eager, "sync round {round}: termination");
        assert!(
            state(&w_inc) == state(&w_eager),
            "sync round {round}: worlds differ after the tick"
        );
        round += 1;
    }
    assert_eq!(inc.values(), &eager.values[..]);
    assert_eq!(inc.iterations(), eager.iterations);
}

/// A random forest over `0..n`: each node hangs off a random earlier node,
/// or starts a new tree with probability 1/8.
fn random_parents(rng: &mut StdRng, n: usize) -> Vec<Option<usize>> {
    (0..n)
        .map(|v| (v > 0 && rng.gen_range(0..8) != 0).then(|| rng.gen_range(0..v)))
        .collect()
}

/// The forest's edges plus an edge from every later root to its
/// predecessor node, so the sync link spans the whole world.
fn forest_topology(parent: &[Option<usize>]) -> Topology {
    let edges: Vec<(usize, usize)> = (1..parent.len())
        .map(|v| (parent[v].unwrap_or(v - 1), v))
        .collect();
    Topology::from_edges(parent.len(), &edges)
}

fn random_bools(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen_range(0..3) == 0).collect()
}

/// PASC along a path, forwards and backwards on separate links, with
/// random weights.
fn chains(seed: u64, m: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(usize, usize)> = (1..m).map(|v| (v - 1, v)).collect();
    let topo = Topology::from_edges(m, &edges);
    let fwd: Vec<usize> = (0..m).collect();
    let bwd: Vec<usize> = (0..m).rev().collect();
    let w_fwd = random_bools(&mut rng, m);
    let w_bwd = random_bools(&mut rng, m);
    let mut specs = chain_specs(&topo, &fwd, FWD_PRIMARY, FWD_SECONDARY, Some(&w_fwd));
    specs.extend(chain_specs(
        &topo,
        &bwd,
        BWD_PRIMARY,
        BWD_SECONDARY,
        Some(&w_bwd),
    ));
    run_both(&topo, specs);
}

/// Tree PASC over a random forest, with random weights.
fn trees(seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let parent = random_parents(&mut rng, n);
    let topo = forest_topology(&parent);
    let (mut specs, _) = tree_specs(&topo, &parent, &vec![true; n], FWD_PRIMARY, FWD_SECONDARY);
    for spec in &mut specs {
        spec.weight = rng.gen_range(0..3) == 0;
    }
    run_both(&topo, specs);
}

/// The Euler tours of a random forest, with random marks.
fn tours(seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let parent = random_parents(&mut rng, n);
    let topo = forest_topology(&parent);
    let root_of = |mut v: usize| {
        while let Some(p) = parent[v] {
            v = p;
        }
        v
    };
    let forest: Vec<Tree> = (0..n)
        .filter(|&r| parent[r].is_none())
        .map(|r| {
            let own: Vec<Option<usize>> = (0..n)
                .map(|v| parent[v].filter(|_| root_of(v) == r))
                .collect();
            Tree::from_parents(n, r, &own)
        })
        .collect();
    let q = random_bools(&mut rng, n);
    run_both(&topo, build_tours(&topo, &forest, |v| q[v]).specs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental run is indistinguishable from regrouping everything.
    #[test]
    fn incremental_pasc_matches_the_eager_loop(
        seed in 0u64..=u64::MAX,
        n in 2usize..60,
    ) {
        chains(seed, n);
        trees(seed, n);
        tours(seed, n);
    }
}

/// Non-vacuity: the inputs above do retire instances after the first data
/// round, so later rounds exercise the incremental writes.
#[test]
fn the_inputs_retire_instances_mid_run() {
    let mut rng = StdRng::seed_from_u64(7);
    let parent = random_parents(&mut rng, 40);
    let topo = forest_topology(&parent);
    let (specs, _) = tree_specs(&topo, &parent, &[true; 40], FWD_PRIMARY, FWD_SECONDARY);
    let instances = specs.len() as u64;
    let mut world = World::new(topo, LINKS);
    let mut run = PascRun::new(&mut world, specs, SYNC);
    // Bounded, so a broken run fails here instead of spinning.
    for _ in 0..64 {
        if run.step(&mut world).is_none() {
            break;
        }
    }
    assert!(run.is_done());
    assert!(run.iterations() >= 3);
    assert!(run.groupings_written() > instances);
}
