//! Dynamic-structure subsystem: runtime node churn (system **S21** of
//! DESIGN.md §1d).
//!
//! The paper defines its primitives on a fixed amoebot structure; real
//! deployments see amoebots joining, leaving and crashing mid-run. This
//! crate makes the structure itself mutable at the same incremental cost
//! the engine already pays for pin reconfiguration:
//!
//! * [`DynamicWorld`] pairs a
//!   [`StructureEditor`](amoebot_grid::StructureEditor) (geometry: O(Δ)
//!   index and neighbor-table edits, scoped hole revalidation) with a
//!   [`World`](amoebot_circuits::World) whose topology is spliced in
//!   place — an insert or remove
//!   feeds the engine's dirty-pin/region-relabel machinery, so a k-node
//!   churn event costs O(k · deg) amortized instead of the O(n) a
//!   rebuild-per-event pays;
//! * [`ChurnPlan`] drives deterministic seeded churn schedules (the
//!   scenario families: attach-at-boundary growth, random detach, crash
//!   bursts, grow-then-shrink cycles);
//! * [`verify_against_rebuild`] is the oracle: after any churn event the
//!   incrementally edited world must be equivalent to a from-scratch
//!   rebuild — same adjacency, same circuits up to relabeling, same beep
//!   delivery. The scenario layer runs it after *every* event.

pub mod fault;
pub mod plan;
pub mod snapshot;
pub mod world;

pub use fault::{FaultFamily, FaultPlan, StagedFault, ALL_FAULT_FAMILIES};
pub use plan::{AppliedEvent, ChurnFamily, ChurnPlan, ALL_CHURN_FAMILIES};
pub use world::{verify_against_rebuild, DynamicWorld};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives an independent RNG stream for `purpose` from a seed
/// (SplitMix64 over the seed and a purpose tag, so adding a consumer never
/// shifts the streams of the others). The workspace's one seed
/// derivation: `amoebot_scenarios::spec` re-exports it, since `dynamics`
/// sits below `scenarios` in the crate graph.
pub fn derive_rng(seed: u64, purpose: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(purpose.wrapping_mul(0xD1B54A32D192ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}
