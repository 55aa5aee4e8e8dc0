//! Criterion benches for the incremental circuit engine: `World::tick`
//! against the pre-refactor full-recompute `World::tick_reference`.
//!
//! The reference writes every receive bit each tick, while an
//! incremental tick writes them on the first read. So every incremental
//! variant reads one receive bit of a set its beep reached after each
//! tick: each then writes what the reference writes, and the printed
//! times compare like with like.
//!
//! Three workload shapes:
//!
//! * **broadcast-heavy** (≥1k nodes): a fixed global configuration,
//!   several consecutive no-reconfiguration ticks per iteration — the
//!   steady state where the incremental engine reuses its cached
//!   labeling.
//! * **reconfiguration-heavy** (≥1k nodes): every round 1/8 of the nodes
//!   flip between the split and global configurations — a fat dirty set
//!   every tick, which the tick absorbs before walking only the circuit
//!   its one beep lands on.
//! * **sparse-reconfig** (100k nodes, 1% dirty per round): the dirty set
//!   stays a sliver of the structure and the beeps land on the circuits
//!   the touched nodes just regrouped, so the tick absorbs and walks
//!   O(affected circuits) while the reference pays the full O(pins)
//!   recompute. The incremental engine's target here is ≥10×.
//!
//! The broadcast-heavy group also measures `tick_faulted` with an empty
//! fault set next to plain `tick`: the adversary engine's unarmed path
//! must stay within the workspace's 25% perf gate of the plain tick
//! (the `FAULTED` const generic monomorphizes the fault checks away).
//! A fourth case, `flight_armed`, runs the same steady ticks with a
//! [`FlightRecorder`] attached — the always-on black box the scenario
//! runner arms by default. Its ticks take the one labelling path every
//! recorder's ticks take, so it times that path plus the ring pushes.
//! Its budget is tighter than the CI gate: the observability plane
//! promises ≤5% overhead over plain `tick` (ring pushes are
//! bounds-checked writes into a preallocated buffer, no allocation, no
//! I/O). Compare `flight_armed` against `incremental` in the criterion
//! report to audit that promise.

use amoebot_bench::standard_structure;
use amoebot_circuits::{TickFaults, Topology, World};
use amoebot_telemetry::{FlightRecorder, NullRecorder};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const STEADY_TICKS: usize = 8;

fn big_world(n_target: usize, c: usize) -> World {
    let s = standard_structure(n_target);
    assert!(s.len() >= 1000, "bench structure must have >= 1k nodes");
    let mut w = World::new(Topology::from_structure(&s), c);
    for v in 0..w.topology().len() {
        w.global_pin_config(v);
    }
    w
}

fn bench_circuit_engine(c: &mut Criterion) {
    let world = big_world(1024, 2);
    let n = world.topology().len();

    // Broadcast-heavy: STEADY_TICKS consecutive ticks on an unchanged
    // configuration, one beep per round.
    let mut g = c.benchmark_group("steady_broadcast_ticks");
    g.bench_with_input(BenchmarkId::new("incremental", n), &world, |b, world| {
        let mut w = world.clone();
        w.tick(); // prime the cached labeling outside the timed region
        b.iter(|| {
            for round in 0..STEADY_TICKS {
                w.beep(round % n, 0);
                w.tick();
                black_box(w.received(round % n, 0));
            }
            w.rounds()
        })
    });
    g.bench_with_input(BenchmarkId::new("reference", n), &world, |b, world| {
        let mut w = world.clone();
        b.iter(|| {
            for round in 0..STEADY_TICKS {
                w.beep(round % n, 0);
                w.tick_reference();
            }
            w.rounds()
        })
    });
    // The unarmed adversary path: an empty fault set must cost the same
    // as plain `tick` (within the 25% gate).
    g.bench_with_input(
        BenchmarkId::new("faulted_unarmed", n),
        &world,
        |b, world| {
            let mut w = world.clone();
            w.tick();
            b.iter(|| {
                for round in 0..STEADY_TICKS {
                    w.beep(round % n, 0);
                    w.tick_faulted(&TickFaults::EMPTY, &mut NullRecorder);
                    black_box(w.received(round % n, 0));
                }
                w.rounds()
            })
        },
    );
    // The armed flight recorder: same steady ticks, every event pushed
    // into the preallocated ring. Must stay within 5% of `incremental`.
    g.bench_with_input(BenchmarkId::new("flight_armed", n), &world, |b, world| {
        let mut w = world.clone();
        w.tick();
        let mut flight: FlightRecorder = FlightRecorder::default();
        b.iter(|| {
            for round in 0..STEADY_TICKS {
                w.beep(round % n, 0);
                w.tick_faulted(&TickFaults::EMPTY, &mut flight);
                black_box(w.received(round % n, 0));
            }
            w.rounds()
        })
    });
    g.finish();

    // Reconfiguration-heavy: every round, 1/8 of the nodes flip between
    // the split (singleton) and global configurations.
    let mut g = c.benchmark_group("reconfig_ticks");
    g.bench_with_input(BenchmarkId::new("incremental", n), &world, |b, world| {
        let mut w = world.clone();
        b.iter(|| {
            for round in 0..STEADY_TICKS {
                for v in (round % 8..n).step_by(8) {
                    if round % 2 == 0 {
                        w.singleton_pin_config(v);
                    } else {
                        w.global_pin_config(v);
                    }
                }
                w.beep(round % n, 0);
                w.tick();
                black_box(w.received(round % n, 0));
            }
            w.rounds()
        })
    });
    g.bench_with_input(BenchmarkId::new("reference", n), &world, |b, world| {
        let mut w = world.clone();
        b.iter(|| {
            for round in 0..STEADY_TICKS {
                for v in (round % 8..n).step_by(8) {
                    if round % 2 == 0 {
                        w.singleton_pin_config(v);
                    } else {
                        w.global_pin_config(v);
                    }
                }
                w.beep(round % n, 0);
                w.tick_reference();
            }
            w.rounds()
        })
    });
    g.finish();

    // Sparse reconfiguration at scale: 100k nodes, 1% of them regroup a
    // pin pair each round. The base configuration stays singleton so
    // circuits (and therefore dirty regions) stay local; the touched
    // nodes toggle between bridging their first two link-0 pins and the
    // singleton split, which dirties exactly two small circuits per node.
    let s = standard_structure(100_000);
    let n = s.len();
    let mut sparse_world = World::new(Topology::from_structure(&s), 2);
    sparse_world.tick(); // prime the labeling outside the timed region
    let k = n / 100;
    let mut g = c.benchmark_group("sparse_reconfig_ticks");
    g.bench_with_input(
        BenchmarkId::new("incremental", n),
        &sparse_world,
        |b, world| {
            let mut w = world.clone();
            b.iter(|| {
                for round in 0..STEADY_TICKS {
                    for i in 0..k {
                        let v = (i * 97 + round * 31) % n;
                        if round % 2 == 0 {
                            let merged = w.group_pins(v, &[(0, 0), (1, 0)]);
                            w.beep(v, merged);
                        } else {
                            w.singleton_pin_config(v);
                        }
                    }
                    w.tick();
                    // Node `round * 31 % n` (i = 0) beeps on its merged
                    // set 0 in even rounds.
                    black_box(w.received(round * 31 % n, 0));
                }
                w.rounds()
            })
        },
    );
    g.bench_with_input(
        BenchmarkId::new("reference", n),
        &sparse_world,
        |b, world| {
            let mut w = world.clone();
            b.iter(|| {
                for round in 0..STEADY_TICKS {
                    for i in 0..k {
                        let v = (i * 97 + round * 31) % n;
                        if round % 2 == 0 {
                            let merged = w.group_pins(v, &[(0, 0), (1, 0)]);
                            w.beep(v, merged);
                        } else {
                            w.singleton_pin_config(v);
                        }
                    }
                    w.tick_reference();
                }
                w.rounds()
            })
        },
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_circuit_engine
}
criterion_main!(benches);
