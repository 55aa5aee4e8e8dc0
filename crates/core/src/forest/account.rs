//! The DnC forest's round account (DESIGN §2 item 1).
//!
//! The world counts the rounds it ticks. The forest reports more and
//! less than that, and this account holds the difference:
//!
//! * **charged** rounds stand for steps the forest does not simulate:
//!   the Lemma 34 portal-degree count (returned by
//!   [`portal_augmentation`](crate::portals::portal_augmentation)), one
//!   round each for the Lemma 52 unmarking and the Lemma 53 `P_DSC`
//!   identification, 3 rounds per merge-pairing iteration, the quotient
//!   decomposition (returned by
//!   [`portal_centroid_decomposition`](crate::portals::portal_centroid_decomposition))
//!   and each per-level recompute of it;
//! * **parallel** rounds are counted but not reported: the model runs the
//!   members of a group on disjoint regions in the same rounds, the
//!   simulator runs them one after another, and the group reports its
//!   longest member. The groups are the base-case regions, a
//!   propagation's phase-2 SPTs, same-level merges and pair merges.
//!   A member's span is read on the reported clock: what it ticked plus
//!   what it charged (a same-level merge charges its pairing
//!   iterations), less the parallel rounds of the groups nested in it
//!   (a propagation's saving is already out of the span its base-case
//!   region or its join reports). `parallel` sums the spans of every
//!   member but each group's longest.
//!
//! So a solve reports `ticks + charged − parallel` rounds, and every span
//! the forest reports is measured on that clock (`RoundAccount::reported`).

use amoebot_circuits::{RoundReport, World};

/// The per-phase report of one forest solve, with its charged and
/// parallel rounds (see the module doc).
#[derive(Debug, Clone, Default)]
pub struct RoundAccount {
    /// Reported rounds per phase.
    pub(crate) report: RoundReport,
    /// Rounds reported for steps that are not simulated.
    pub(crate) charged: u64,
    /// Reported spans (ticked and charged rounds) of the group members
    /// other than each group's longest.
    pub(crate) parallel: u64,
}

impl RoundAccount {
    /// The reported round clock over `world`: its ticks, plus the charged
    /// rounds, minus the parallel ones.
    pub(crate) fn reported(&self, world: &World) -> u64 {
        world.rounds() + self.charged - self.parallel
    }

    /// Records `phase` as the rounds reported since the clock read
    /// `start`.
    pub(crate) fn record(&mut self, world: &World, phase: impl Into<String>, start: u64) {
        let rounds = self.reported(world) - start;
        self.report.record(phase, rounds);
    }

    /// Reports `rounds` for a step that is not simulated.
    pub(crate) fn charge(&mut self, rounds: u64) {
        self.charged += rounds;
    }

    /// Accounts one parallel group from its members' reported spans: the
    /// group reports its longest member.
    pub(crate) fn group(&mut self, spans: &[u64]) {
        let longest = spans.iter().copied().max().unwrap_or(0);
        self.parallel += spans.iter().sum::<u64>() - longest;
    }
}
