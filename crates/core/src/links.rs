//! Link-index conventions used by the algorithms in this crate.
//!
//! The reconfigurable circuit extension fixes a constant number `c` of
//! external links per edge (§1.2). The algorithms here use `c = 6`:
//!
//! * two track links per Euler-tour traversal direction of an edge (the ETT
//!   needs both directions concurrently, see §3.1 — "each node operates an
//!   independent instance for each of its occurrences"),
//! * one reserved broadcast link (per-region broadcast circuits, e.g. the
//!   root's |Q| bits in the centroid primitive, §3.4),
//! * one reserved sync link (the global "anyone still active?" circuit of
//!   the synchronization technique, §2.1). The first PASC run on a world
//!   configures it on every node; phase resets always keep it, so later
//!   runs find it configured and write no pin for it
//!   (`World::global_link_config_all`).

/// Primary track of the *forward* traversal (from the lower to the higher
/// node id; any globally consistent edge orientation works).
pub const FWD_PRIMARY: usize = 0;
/// Secondary track of the forward traversal.
pub const FWD_SECONDARY: usize = 1;
/// Primary track of the *backward* traversal.
pub const BWD_PRIMARY: usize = 2;
/// Secondary track of the backward traversal.
pub const BWD_SECONDARY: usize = 3;
/// Reserved broadcast link (region-scoped broadcast circuits).
pub const BROADCAST: usize = 4;
/// Reserved sync link (structure-spanning global circuit). Every phase
/// reset keeps it, so it stays configured across the PASC runs of a
/// solve.
pub const SYNC: usize = 5;
/// The number of links per edge required by this crate's algorithms.
pub const LINKS: usize = 6;

/// The `(primary, secondary)` track links for the traversal `u -> v`.
#[inline]
pub fn traversal_links(u: usize, v: usize) -> (usize, usize) {
    if u < v {
        (FWD_PRIMARY, FWD_SECONDARY)
    } else {
        (BWD_PRIMARY, BWD_SECONDARY)
    }
}
