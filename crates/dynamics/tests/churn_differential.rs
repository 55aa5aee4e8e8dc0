//! The churn differential suite (acceptance criterion of the
//! dynamic-structure subsystem): after **every** churn event of a
//! proptest schedule, the incrementally edited `Topology`/`World` must be
//! equivalent to a from-scratch rebuild — same adjacency, same circuit
//! labels up to relabeling, same beep delivery — and the structure must
//! stay connected and hole-free.
//!
//! The incremental path under test is the real one: tombstoned ids,
//! recycled link-table slots, region-scoped relabels seeded by the
//! spliced edges. The oracle rebuilds a dense structure + world from
//! scratch after each event and copies the pin configuration over.

use amoebot_dynamics::{
    derive_rng, verify_against_rebuild, ChurnPlan, DynamicWorld, ALL_CHURN_FAMILIES,
};
use amoebot_grid::AmoebotStructure;
use proptest::prelude::*;
use rand::Rng;

fn dynamic_blob(n: usize, seed: u64, c: usize) -> DynamicWorld {
    let coords = amoebot_grid::shapes::random_blob(n, &mut derive_rng(seed, 1000));
    DynamicWorld::new(&AmoebotStructure::new(coords).unwrap(), c)
}

/// Scatter a random mix of pin configurations over the live nodes so the
/// oracle compares interesting circuits, not just singletons.
fn randomize_configs(dw: &mut DynamicWorld, seed: u64, nodes: &[u32]) {
    let mut rng = derive_rng(seed, 2000);
    for &v in nodes {
        match rng.gen_range(0..3u32) {
            0 => dw.world_mut().global_pin_config(v as usize),
            1 => dw.world_mut().singleton_pin_config(v as usize),
            _ => {
                dw.world_mut().group_pins(v as usize, &[(0, 0), (1, 0)]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tentpole differential: every family, every event, against the
    /// rebuild oracle.
    #[test]
    fn every_churn_event_matches_the_rebuild_oracle(
        seed in 0u64..10_000,
        n in 6usize..36,
        events in 2usize..9,
        family_ix in 0usize..4,
        per_event in 1usize..6,
    ) {
        let family = ALL_CHURN_FAMILIES[family_ix];
        let mut dw = dynamic_blob(n, seed, 2);
        let live: Vec<u32> = dw.editor().live_ids().to_vec();
        randomize_configs(&mut dw, seed, &live);
        let plan = ChurnPlan::new(seed ^ 0xC0FFEE, family, events, per_event);
        for e in 0..events {
            let applied = plan.apply(&mut dw, e);
            // Newly joined nodes get their own random configurations so
            // the comparison also covers fresh ids and recycled ids.
            let fresh: Vec<u32> = applied.inserted.iter().map(|v| v.0).collect();
            randomize_configs(&mut dw, seed.wrapping_add(e as u64), &fresh);
            if let Err(msg) = verify_against_rebuild(&dw) {
                prop_assert!(
                    false,
                    "schedule seed={} family={:?} event=#{e}: {msg}",
                    plan.seed, family
                );
            }
            // Structure invariants hold after every event.
            let (snapshot, _) = dw.editor().snapshot();
            prop_assert!(snapshot.is_hole_free(), "event #{e} left a hole");
            prop_assert_eq!(snapshot.len(), dw.len());
        }
    }

    /// Interleaving ticks between events must not desynchronize the
    /// incremental engine from the oracle: beeps cross churned edges in
    /// the very next round.
    #[test]
    fn ticks_between_events_stay_equivalent(
        seed in 0u64..10_000,
        n in 6usize..28,
        events in 2usize..6,
    ) {
        let mut dw = dynamic_blob(n, seed, 2);
        let live: Vec<u32> = dw.editor().live_ids().to_vec();
        for &v in &live {
            dw.world_mut().global_pin_config(v as usize);
        }
        let plan = ChurnPlan::new(seed, amoebot_dynamics::ChurnFamily::GrowShrink, events, 2);
        for e in 0..events {
            let applied = plan.apply(&mut dw, e);
            for v in &applied.inserted {
                dw.world_mut().global_pin_config(v.index());
            }
            // Run a real broadcast round on the incremental world.
            let origin = dw.editor().live_ids()[0] as usize;
            dw.world_mut().beep(origin, 0);
            dw.world_mut().tick();
            let (editor, world) = dw.editor_and_world_mut();
            for &v in editor.live_ids() {
                prop_assert!(
                    world.received(v as usize, 0),
                    "schedule seed={} event=#{e}: node #{v} missed the broadcast",
                    plan.seed
                );
            }
            if let Err(msg) = verify_against_rebuild(&dw) {
                prop_assert!(false, "schedule seed={} event=#{e}: {msg}", plan.seed);
            }
        }
    }
}

/// A deterministic long-haul case: heavy grow–shrink churn with id and
/// link-slot recycling, oracle-checked at every step (not sampled, so it
/// always runs in CI even if proptest cases shrink).
#[test]
fn long_grow_shrink_cycle_stays_equivalent() {
    let mut dw = dynamic_blob(24, 99, 2);
    let live: Vec<u32> = dw.editor().live_ids().to_vec();
    for &v in &live {
        dw.world_mut().global_pin_config(v as usize);
    }
    let plan = ChurnPlan::new(4242, amoebot_dynamics::ChurnFamily::GrowShrink, 12, 5);
    let mut population = Vec::new();
    for e in 0..plan.events {
        let applied = plan.apply(&mut dw, e);
        for v in &applied.inserted {
            dw.world_mut().global_pin_config(v.index());
        }
        population.push(dw.len());
        verify_against_rebuild(&dw)
            .unwrap_or_else(|msg| panic!("schedule seed={} event=#{e}: {msg}", plan.seed));
    }
    // The cycle actually moved the population both ways.
    assert!(population.iter().any(|&p| p > 24));
    assert!(population.windows(2).any(|w| w[1] < w[0]));
    // Dead-id recycling really happened: the id space stayed well below
    // one fresh id per insertion.
    assert!(dw.editor().capacity() < 24 + 12 * 5);
    // And the final structure is still a legal amoebot structure.
    let (snapshot, map) = dw.editor().snapshot();
    assert!(snapshot.is_hole_free());
    assert_eq!(
        map.iter().filter(|m| m.is_some()).count(),
        dw.len(),
        "id map covers exactly the live nodes"
    );
}
