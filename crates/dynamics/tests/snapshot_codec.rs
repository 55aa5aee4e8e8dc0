//! Property tests for the `SPFS` snapshot codec (DESIGN.md §1g).
//!
//! The unit tests in `snapshot.rs` pin the codec on hand-picked worlds;
//! these properties sweep it across randomized ones — arbitrary blob
//! sizes, pin configurations, and churn prefixes (so the encoded state
//! includes the editor's tombstoned and recycled ids, cut mid-schedule)
//! — and assert the three codec invariants:
//!
//! 1. **Round trip**: decode(encode(w)) is the same world — its
//!    re-encoding is byte-identical;
//! 2. **Continuation**: a restored world ticks exactly like the
//!    original (the restore is semantically lossless, not just
//!    structurally);
//! 3. **Corruption rejection**: flipping any single bit of a blob makes
//!    it un-openable (the trailing digest plus field validation leave
//!    no silent corruption path).

use amoebot_dynamics::{derive_rng, ChurnPlan, DynamicWorld, ALL_CHURN_FAMILIES};
use amoebot_grid::AmoebotStructure;
use proptest::prelude::*;
use rand::{Rng, RngCore};

/// A randomized dynamic world: blob structure, mixed pin configs, and a
/// churn prefix that leaves tombstones and recycled slots behind.
fn churned_world(n: usize, seed: u64, family_ix: usize, events: usize) -> DynamicWorld {
    let coords = amoebot_grid::shapes::random_blob(n, &mut derive_rng(seed, 1));
    let mut dw = DynamicWorld::new(&AmoebotStructure::new(coords).unwrap(), 2);
    let mut rng = derive_rng(seed, 2);
    for v in dw.editor().live_ids().to_vec() {
        match rng.gen_range(0..3u32) {
            0 => dw.world_mut().global_pin_config(v as usize),
            1 => dw.world_mut().singleton_pin_config(v as usize),
            _ => {
                dw.world_mut().group_pins(v as usize, &[(0, 0), (1, 0)]);
            }
        }
    }
    let plan = ChurnPlan::new(seed ^ 0xDECAF, ALL_CHURN_FAMILIES[family_ix], events, 3);
    for e in 0..events {
        let applied = plan.apply(&mut dw, e);
        for v in &applied.inserted {
            dw.world_mut().global_pin_config(v.index());
        }
        dw.revalidate_edited_chunks();
        // Interleave a broadcast round so rounds, beeps and deliveries
        // are mid-flight when the snapshot is cut.
        let origin = dw.editor().live_ids()[0] as usize;
        dw.world_mut().beep(origin, 0);
        dw.world_mut().tick();
    }
    dw
}

/// Steps `k` broadcast rounds and returns the re-encoded state.
fn advance(dw: &mut DynamicWorld, k: usize) -> Vec<u8> {
    for i in 0..k {
        let live = dw.editor().live_ids();
        let origin = live[i % live.len()] as usize;
        dw.world_mut().beep(origin, 0);
        dw.world_mut().tick();
    }
    dw.snapshot_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariants 1 + 2 over random churned worlds: byte-stable
    /// re-encoding, and identical evolution after restore.
    #[test]
    fn restored_worlds_re_encode_and_evolve_identically(
        seed in 0u64..100_000,
        n in 8usize..48,
        family_ix in 0usize..4,
        events in 0usize..6,
        k in 1usize..8,
    ) {
        let mut original = churned_world(n, seed, family_ix, events);
        let blob = original.snapshot_bytes();
        let mut restored = DynamicWorld::from_snapshot_bytes(&blob).expect("valid blob");
        prop_assert_eq!(restored.snapshot_bytes(), blob.clone(), "re-encoding must be byte-identical");
        prop_assert_eq!(advance(&mut restored, k), advance(&mut original, k),
            "restored world diverged within {} rounds", k);
    }

    /// Invariant 3, sampled: random single-bit flips over random worlds
    /// are always rejected. (The exhaustive every-bit loop lives in the
    /// unit tests on a fixed world; here the *world* varies too.)
    #[test]
    fn sampled_bit_flips_are_rejected(
        seed in 0u64..100_000,
        n in 8usize..32,
        family_ix in 0usize..4,
    ) {
        let dw = churned_world(n, seed, family_ix, 2);
        let blob = dw.snapshot_bytes();
        let mut rng = derive_rng(seed, 3);
        for _ in 0..64 {
            let bit = (rng.next_u64() as usize) % (blob.len() * 8);
            let mut bad = blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                DynamicWorld::from_snapshot_bytes(&bad).is_err(),
                "bit flip at byte {} bit {} was accepted", bit / 8, bit % 8
            );
        }
    }

    /// Truncation at every prefix length is rejected — no partial decode
    /// can pass the digest check.
    #[test]
    fn every_truncation_is_rejected(
        seed in 0u64..100_000,
        n in 8usize..24,
    ) {
        let dw = churned_world(n, seed, 0, 1);
        let blob = dw.snapshot_bytes();
        for cut in 0..blob.len() {
            prop_assert!(
                DynamicWorld::from_snapshot_bytes(&blob[..cut]).is_err(),
                "truncation to {} bytes was accepted", cut
            );
        }
    }
}
