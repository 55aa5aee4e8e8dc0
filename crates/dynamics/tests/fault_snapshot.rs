//! Mid-fault-plan kill/restart twins (ISSUE 9 satellite: snapshot
//! fidelity under the adversary).
//!
//! A [`FaultPlan`] is stateless by construction — event `i` derives from
//! `(seed, i)` alone — so the only adversary state that must survive a
//! kill/restart is what the plan has already armed *in the world*:
//! stuck-at pins (carried in the SPFS payload), wiped pin configs, and
//! mid-flight beeps. The property: cut a faulted run at any event
//! boundary, restore from the snapshot, finish the schedule, and the
//! result is byte-identical to the twin that ran uninterrupted.

use amoebot_dynamics::{derive_rng, DynamicWorld, FaultFamily, FaultPlan, ALL_FAULT_FAMILIES};
use amoebot_grid::{shapes, AmoebotStructure};
use amoebot_telemetry::NullRecorder;
use proptest::prelude::*;

fn faulted_blob(n: usize, seed: u64, c: usize) -> DynamicWorld {
    let coords = shapes::random_blob(n, &mut derive_rng(seed, 1));
    let mut dw = DynamicWorld::new(&AmoebotStructure::new(coords).unwrap(), c);
    for v in dw.editor().live_ids().to_vec() {
        dw.world_mut().global_pin_config(v as usize);
    }
    dw
}

/// One adversarial round per event: stage the fault, reboot wiped nodes
/// onto the global circuit, let the first *active* node beep, tick with
/// the staged beep faults.
fn run_events(dw: &mut DynamicWorld, plan: &FaultPlan, from: usize, to: usize) {
    for e in from..to {
        let staged = plan.stage(dw, e);
        for v in &staged.wiped {
            dw.world_mut().global_pin_config(v.index());
        }
        let origin = dw
            .editor()
            .live_ids()
            .iter()
            .copied()
            .find(|&v| staged.is_active(v));
        if let Some(v) = origin {
            dw.world_mut().beep(v as usize, 0);
        }
        dw.world_mut()
            .tick_faulted(&staged.ticks, &mut NullRecorder);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill/restart at any event boundary of any family is invisible:
    /// the resumed run's final snapshot is byte-identical to the
    /// uninterrupted twin's.
    #[test]
    fn mid_plan_restore_matches_the_uninterrupted_twin(
        seed in 0u64..100_000,
        n in 10usize..40,
        family_ix in 0usize..7,
        events in 2usize..7,
        cut in 1usize..6,
    ) {
        let cut = cut.min(events - 1);
        let plan = FaultPlan::new(seed ^ 0xFA17, ALL_FAULT_FAMILIES[family_ix], events, 2);
        let mut uncut = faulted_blob(n, seed, 2);
        let mut resumed = {
            let mut first_half = faulted_blob(n, seed, 2);
            run_events(&mut first_half, &plan, 0, cut);
            let blob = first_half.snapshot_bytes();
            let resumed = DynamicWorld::from_snapshot_bytes(&blob)
                .expect("mid-fault blob must restore");
            prop_assert_eq!(resumed.snapshot_bytes(), blob, "restore must re-encode identically");
            resumed
        };
        run_events(&mut uncut, &plan, 0, plan.events);
        run_events(&mut resumed, &plan, cut, plan.events);
        prop_assert_eq!(
            resumed.snapshot_bytes(),
            uncut.snapshot_bytes(),
            "family {:?}: resumed twin diverged from the uninterrupted run",
            plan.family
        );
    }
}

/// Pins the interesting path deterministically: the cut lands while
/// stuck-at pins are armed, so the snapshot must carry live hardware
/// faults across the restart (proptest above may or may not sample it).
#[test]
fn the_cut_can_land_on_armed_stuck_pins() {
    let plan = FaultPlan::new(77, FaultFamily::StuckPins, 5, 3);
    let cut = 3;
    let mut uncut = faulted_blob(24, 9, 2);
    let mut first_half = faulted_blob(24, 9, 2);
    run_events(&mut uncut, &plan, 0, plan.events);
    run_events(&mut first_half, &plan, 0, cut);
    assert!(
        first_half.world().stuck_pin_count() > 0,
        "the cut must land with faults armed for this test to mean anything"
    );
    let blob = first_half.snapshot_bytes();
    let mut resumed = DynamicWorld::from_snapshot_bytes(&blob).unwrap();
    assert_eq!(
        resumed.world().stuck_pin_count(),
        first_half.world().stuck_pin_count(),
        "armed faults must survive the restart"
    );
    run_events(&mut resumed, &plan, cut, plan.events);
    assert_eq!(resumed.snapshot_bytes(), uncut.snapshot_bytes());
    assert_eq!(
        resumed.world().stuck_pin_count(),
        0,
        "the final event released everything"
    );
}

/// Every single-bit flip of a snapshot taken with stuck-at pins armed
/// is rejected: the pins ride the world's state section, under the same
/// digest as everything else.
#[test]
fn every_bit_flip_of_an_armed_snapshot_is_rejected() {
    let plan = FaultPlan::new(77, FaultFamily::StuckPins, 5, 3);
    let mut dw = faulted_blob(24, 9, 2);
    run_events(&mut dw, &plan, 0, 3);
    assert!(dw.world().stuck_pin_count() > 0, "faults must be armed");
    let blob = dw.snapshot_bytes();
    for byte in 0..blob.len() {
        for bit in 0..8 {
            let mut bad = blob.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                DynamicWorld::from_snapshot_bytes(&bad).is_err(),
                "flip at byte {byte} bit {bit} was accepted"
            );
        }
    }
}
