//! Criterion bench for the dynamic-structure subsystem: runtime churn
//! through the incremental editor/engine pair against the
//! rebuild-per-event strategy.
//!
//! Workload: a 100k-node structure, four churn events per iteration, each
//! targeting 1% of the nodes (grow-then-shrink alternation; events
//! under-fill where the blob's boundary runs out of legal candidates —
//! identically in both arms, so the comparison isolates the engine
//! strategy). The pin configuration stays singleton, the realistic
//! sparse-circuit regime where a churn event dirties only the circuits at
//! the edited boundary:
//!
//! * **incremental**: the churn ops splice the live world and the next
//!   tick absorbs O(k · deg) dirty pins and walks the circuits it
//!   delivers on — the path `DynamicWorld` ships;
//! * **rebuild**: after every event the world is rebuilt from a dense
//!   snapshot (`DynamicWorld::rebuild`: snapshot + `World::new` + config
//!   copy) and the rebuilt world ticks — the O(n)-per-event strategy the
//!   subsystem replaces. The acceptance target is the incremental arm
//!   ≥ 10× faster at this scale.

use amoebot_bench::standard_structure;
use amoebot_dynamics::{ChurnFamily, ChurnPlan, DynamicWorld};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const EVENTS_PER_ITER: usize = 4;

fn bench_churn_ticks(c: &mut Criterion) {
    let s = standard_structure(100_000);
    let n = s.len();
    let per_event = n / 100; // 1% churn target per event
    let base = DynamicWorld::new(&s, 2);
    // A long alternating schedule; each iteration consumes the next
    // EVENTS_PER_ITER events (wrapping), so the structure keeps churning
    // instead of replaying one event.
    let plan = ChurnPlan::new(42, ChurnFamily::GrowShrink, 1 << 20, per_event);

    let mut g = c.benchmark_group("churn_ticks");
    g.bench_with_input(BenchmarkId::new("incremental", n), &base, |b, base| {
        let mut dw = base.clone();
        dw.world_mut().tick(); // prime the labeling outside the timed region
        let mut event = 0usize;
        b.iter(|| {
            for _ in 0..EVENTS_PER_ITER {
                plan.apply(&mut dw, event % plan.events);
                event += 1;
                let origin = dw.editor().live_ids()[0] as usize;
                let pset = dw.world().pin_config(origin, 0, 0);
                dw.world_mut().beep(origin, pset);
                dw.world_mut().tick();
            }
            dw.world().rounds()
        })
    });
    g.bench_with_input(BenchmarkId::new("rebuild", n), &base, |b, base| {
        let mut dw = base.clone();
        let mut event = 0usize;
        let mut rounds = 0u64;
        b.iter(|| {
            for _ in 0..EVENTS_PER_ITER {
                plan.apply(&mut dw, event % plan.events);
                event += 1;
                // Rebuild-per-event: dense snapshot, fresh world, copied
                // configuration, then the same probe round.
                let (_, mut world, map) = dw.rebuild();
                let origin = dw.editor().live_ids()[0] as usize;
                let dense = map[origin].expect("live id maps densely").index();
                let pset = world.pin_config(dense, 0, 0);
                world.beep(dense, pset);
                world.tick();
                rounds += world.rounds();
            }
            rounds
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_churn_ticks
}
criterion_main!(benches);
