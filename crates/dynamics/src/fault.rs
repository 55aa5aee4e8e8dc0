//! Deterministic seeded fault schedules — the composable adversary.
//!
//! A [`FaultPlan`] generalizes [`ChurnPlan`](crate::ChurnPlan) from node
//! churn to the softer failure classes the paper's primitives must
//! survive in deployment: beep loss and spurious beeps on the wire
//! ([`TickFaults`]), stuck-at pin faults (hardware that stopped obeying
//! `set_pin`), non-fair scheduling (an activation mask that starves
//! chosen nodes), and crash-recovery (a node returns with wiped circuit
//! state and must rejoin).
//!
//! The determinism contract is the churn plan's, verbatim: event `i`'s
//! randomness derives from `(seed, i)` alone, so a failed
//! self-stabilization check is reproducible from the fault-plan seed and
//! the event index in the FAIL line — no earlier events' randomness is
//! needed.
//!
//! Unlike churn, a fault event does not mutate the structure by itself:
//! [`FaultPlan::stage`] *arms* the adversary for one round and returns a
//! [`StagedFault`] the harness threads through the tick — beep faults go
//! to [`World::tick_faulted`](amoebot_circuits::World::tick_faulted),
//! the activation mask gates which nodes get to act, and wiped nodes are
//! rebooted by the algorithm layer. Stuck-at faults are the exception:
//! they are armed directly in the [`World`](amoebot_circuits::World)
//! (that is where the frozen value must win every write), which also
//! makes them part of the world's SPFS snapshot — a mid-fault
//! kill/restart comes back with the hardware still broken.

use amoebot_circuits::TickFaults;
use amoebot_grid::NodeId;
use amoebot_telemetry::{NullRecorder, Recorder, TraceEvent};
use rand::rngs::StdRng;
use rand::Rng;

use crate::world::DynamicWorld;

/// The fault schedule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Every event silences `per_event` random nodes on the wire: any
    /// beep they send this round is dropped before delivery.
    LossyBeeps,
    /// Every event injects a spurious beep on a random partition set of
    /// `per_event` random nodes.
    SpuriousBeeps,
    /// Events 0..n-1 each freeze `per_event` random pins at a random
    /// partition set; the final event releases every stuck pin (the
    /// burst ends, recovery begins).
    StuckPins,
    /// Every event starves the region around a random epicenter: the
    /// nearest `min(live/2, 4·per_event)` nodes lose their activation.
    StarveRegion,
    /// Non-fair scheduling in its crudest form: even events starve the
    /// lower half of the live ids, odd events the upper half.
    AlternateHalves,
    /// Even events inject spurious-beep bursts; odd events silence the
    /// entire structure (no node acts at all).
    BurstsThenSilence,
    /// Every event crash-recovers `per_event` random nodes: their
    /// circuit state is wiped to singletons and they miss the round;
    /// the algorithm layer must reboot them into the protocol.
    CrashRecover,
}

/// All fault families, for seeded menu picks.
pub const ALL_FAULT_FAMILIES: [FaultFamily; 7] = [
    FaultFamily::LossyBeeps,
    FaultFamily::SpuriousBeeps,
    FaultFamily::StuckPins,
    FaultFamily::StarveRegion,
    FaultFamily::AlternateHalves,
    FaultFamily::BurstsThenSilence,
    FaultFamily::CrashRecover,
];

impl FaultFamily {
    /// Stable label for scenario names and FAIL lines.
    pub fn label(&self) -> &'static str {
        match self {
            FaultFamily::LossyBeeps => "lossy",
            FaultFamily::SpuriousBeeps => "spurious",
            FaultFamily::StuckPins => "stuckpin",
            FaultFamily::StarveRegion => "starve",
            FaultFamily::AlternateHalves => "althalves",
            FaultFamily::BurstsThenSilence => "burstsilence",
            FaultFamily::CrashRecover => "crashrecover",
        }
    }

    /// Inverse of [`FaultFamily::label`] (for wire formats and CLIs).
    pub fn from_label(label: &str) -> Option<FaultFamily> {
        ALL_FAULT_FAMILIES
            .iter()
            .copied()
            .find(|f| f.label() == label)
    }
}

/// One round's worth of armed adversary, staged by
/// [`FaultPlan::stage`]. The harness consumes it in tick order: reboot
/// `wiped` nodes, let every node passing [`StagedFault::is_active`] act,
/// then tick through
/// [`World::tick_faulted`](amoebot_circuits::World::tick_faulted) with
/// `ticks`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagedFault {
    /// Beep-level faults for this round's tick (sorted, ready to hand to
    /// the engine).
    pub ticks: TickFaults,
    /// Live node ids whose activation the scheduler withholds this
    /// round, sorted ascending.
    pub inactive: Vec<u32>,
    /// Nodes crash-recovered this event: their pins were wiped to
    /// singletons (circuit state lost) and they are also in `inactive`
    /// for this round. The algorithm layer owns wiping its own per-node
    /// state and re-running its join protocol.
    pub wiped: Vec<NodeId>,
    /// Stuck-at pin faults armed by this event.
    pub stuck_armed: u32,
    /// Stuck-at pin faults released by this event (the burst-end event
    /// of [`FaultFamily::StuckPins`] releases all of them).
    pub stuck_released: u32,
}

impl StagedFault {
    /// Whether the adversarial scheduler lets node `v` act this round.
    #[inline]
    pub fn is_active(&self, v: u32) -> bool {
        self.inactive.binary_search(&v).is_err()
    }

    /// Whether this event armed nothing at all.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
            && self.inactive.is_empty()
            && self.wiped.is_empty()
            && self.stuck_armed == 0
            && self.stuck_released == 0
    }
}

/// A deterministic fault schedule: `events` events of roughly
/// `per_event` faults each, drawn from `family`'s distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Schedule seed; event `i` uses randomness derived from `(seed, i)`
    /// only.
    pub seed: u64,
    /// The fault distribution.
    pub family: FaultFamily,
    /// Number of events in the schedule.
    pub events: usize,
    /// Target faults per event (a best effort on small structures).
    pub per_event: usize,
}

impl FaultPlan {
    /// A plan with `events` events of `per_event` faults.
    pub fn new(seed: u64, family: FaultFamily, events: usize, per_event: usize) -> FaultPlan {
        FaultPlan {
            seed,
            family,
            events,
            per_event,
        }
    }

    /// Stages event `index` (0-based) against `dw`: arms stuck-at faults
    /// in the world, wipes crash-recovered nodes' pins, and returns the
    /// beep faults and activation mask for this round's tick.
    /// Deterministic in `(self, index, current structure)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.events`.
    pub fn stage(&self, dw: &mut DynamicWorld, index: usize) -> StagedFault {
        self.stage_with(dw, index, &mut NullRecorder)
    }

    /// [`FaultPlan::stage`] with the event tagged into a trace (beep
    /// drops and injections are additionally attributed per-gid by the
    /// faulted tick itself).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.events`.
    pub fn stage_with<R: Recorder>(
        &self,
        dw: &mut DynamicWorld,
        index: usize,
        rec: &mut R,
    ) -> StagedFault {
        assert!(index < self.events, "event {index} outside the schedule");
        let mut rng = crate::derive_rng(self.seed, index as u64);
        let mut out = StagedFault::default();
        match self.family {
            FaultFamily::LossyBeeps => lossy(dw, &mut rng, self.per_event, &mut out),
            FaultFamily::SpuriousBeeps => spurious(dw, &mut rng, self.per_event, &mut out),
            FaultFamily::StuckPins => {
                if index + 1 == self.events {
                    out.stuck_released = dw.world_mut().release_stuck_pins() as u32;
                } else {
                    stick(dw, &mut rng, self.per_event, &mut out);
                }
            }
            FaultFamily::StarveRegion => starve_region(dw, &mut rng, self.per_event, &mut out),
            FaultFamily::AlternateHalves => alternate_halves(dw, index, &mut out),
            FaultFamily::BurstsThenSilence => {
                if index.is_multiple_of(2) {
                    spurious(dw, &mut rng, self.per_event, &mut out);
                } else {
                    out.inactive = dw.editor().live_ids().to_vec();
                    out.inactive.sort_unstable();
                }
            }
            FaultFamily::CrashRecover => crash_recover(dw, &mut rng, self.per_event, &mut out),
        }
        out.ticks.drop.sort_unstable();
        out.ticks.drop.dedup();
        out.ticks.inject.sort_unstable();
        out.ticks.inject.dedup();
        if R::TRACE {
            rec.event(TraceEvent::FaultTag {
                index: index as u32,
                dropped: out.ticks.drop.len() as u32,
                injected: out.ticks.inject.len() as u32,
                disabled: out.inactive.len() as u32,
                wiped: out.wiped.len() as u32,
            });
        }
        out
    }
}

/// Up to `k` distinct random live node ids (best effort, like the churn
/// helpers' bounded retry budget).
fn pick_nodes(dw: &DynamicWorld, rng: &mut StdRng, k: usize) -> Vec<u32> {
    let live = dw.editor().live_ids();
    let mut picked: Vec<u32> = Vec::with_capacity(k);
    let budget = 20 * k.max(1);
    for _ in 0..budget {
        if picked.len() >= k {
            break;
        }
        let id = live[rng.gen_range(0..live.len())];
        if !picked.contains(&id) {
            picked.push(id);
        }
    }
    picked
}

/// Drops every beep `k` random nodes send this round (all their
/// partition-set gids go on the drop list).
fn lossy(dw: &mut DynamicWorld, rng: &mut StdRng, k: usize, out: &mut StagedFault) {
    for v in pick_nodes(dw, rng, k) {
        let v = v as usize;
        let cap = dw.world().pset_capacity(v);
        out.ticks
            .drop
            .extend((0..cap).map(|p| dw.world().pset_global_id(v, p as u16)));
    }
}

/// Injects one spurious beep on a random partition set of `k` random
/// nodes.
fn spurious(dw: &mut DynamicWorld, rng: &mut StdRng, k: usize, out: &mut StagedFault) {
    for v in pick_nodes(dw, rng, k) {
        let v = v as usize;
        let cap = dw.world().pset_capacity(v);
        let pset = rng.gen_range(0..cap) as u16;
        out.ticks.inject.push(dw.world().pset_global_id(v, pset));
    }
}

/// Freezes one random pin of each of `k` random nodes at a random
/// partition set.
fn stick(dw: &mut DynamicWorld, rng: &mut StdRng, k: usize, out: &mut StagedFault) {
    let c = dw.world().links_per_edge();
    for v in pick_nodes(dw, rng, k) {
        let v = v as usize;
        let port = rng.gen_range(0..6);
        let link = rng.gen_range(0..c);
        let pset = rng.gen_range(0..dw.world().pset_capacity(v)) as u16;
        dw.world_mut().stick_pin(v, port, link, pset);
        out.stuck_armed += 1;
    }
}

/// Starves the nearest `min(live/2, 4·k)` nodes around a random
/// epicenter (the spatial mirror of the churn crash burst, without the
/// crashes).
fn starve_region(dw: &mut DynamicWorld, rng: &mut StdRng, k: usize, out: &mut StagedFault) {
    let live = dw.editor().live_ids();
    let epicenter = {
        let id = live[rng.gen_range(0..live.len())];
        dw.editor().coord(NodeId(id))
    };
    let mut candidates: Vec<(u32, u32)> = live
        .iter()
        .map(|&id| (dw.editor().coord(NodeId(id)).grid_distance(epicenter), id))
        .collect();
    candidates.sort_unstable();
    let starve = (4 * k.max(1)).min(live.len() / 2);
    out.inactive = candidates[..starve].iter().map(|&(_, id)| id).collect();
    out.inactive.sort_unstable();
}

/// Starves the lower half of the sorted live ids on even events, the
/// upper half on odd ones.
fn alternate_halves(dw: &DynamicWorld, index: usize, out: &mut StagedFault) {
    let mut ids = dw.editor().live_ids().to_vec();
    ids.sort_unstable();
    let mid = ids.len() / 2;
    out.inactive = if index.is_multiple_of(2) {
        ids[..mid].to_vec()
    } else {
        ids[mid..].to_vec()
    };
}

/// Crash-recovers `k` random nodes: pins wiped to singletons, the round
/// missed. The structure itself is untouched — unlike churn, the node
/// never leaves; it just forgets.
fn crash_recover(dw: &mut DynamicWorld, rng: &mut StdRng, k: usize, out: &mut StagedFault) {
    for v in pick_nodes(dw, rng, k) {
        dw.world_mut().singleton_pin_config(v as usize);
        out.wiped.push(NodeId(v));
        out.inactive.push(v);
    }
    out.inactive.sort_unstable();
    out.wiped.sort_unstable_by_key(|v| v.index());
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_grid::{shapes, AmoebotStructure};

    fn dynamic_blob(n: usize, seed: u64, c: usize) -> DynamicWorld {
        let s = AmoebotStructure::new(shapes::random_blob(n, &mut crate::derive_rng(seed, 99)))
            .unwrap();
        DynamicWorld::new(&s, c)
    }

    #[test]
    fn labels_round_trip() {
        for f in ALL_FAULT_FAMILIES {
            assert_eq!(FaultFamily::from_label(f.label()), Some(f));
        }
        assert_eq!(FaultFamily::from_label("nosuch"), None);
    }

    #[test]
    fn schedules_are_deterministic() {
        for family in ALL_FAULT_FAMILIES {
            let plan = FaultPlan::new(42, family, 4, 3);
            let mut a = dynamic_blob(24, 1, 2);
            let mut b = dynamic_blob(24, 1, 2);
            for e in 0..plan.events {
                assert_eq!(
                    plan.stage(&mut a, e),
                    plan.stage(&mut b, e),
                    "{family:?} event {e} diverged"
                );
            }
            assert_eq!(
                a.world().snapshot_bytes(),
                b.world().snapshot_bytes(),
                "{family:?} left the twin worlds different"
            );
            // The bytes hold no label cache: compare the labelling too.
            let relabels = |w: &amoebot_circuits::World| {
                [
                    w.global_relabels(),
                    w.region_relabels(),
                    w.walk_relabels(),
                    w.repair_relabels(),
                ]
            };
            assert_eq!(
                relabels(a.world()),
                relabels(b.world()),
                "{family:?} labelled the twin worlds differently"
            );
        }
    }

    #[test]
    fn lossy_drops_whole_nodes_and_spurious_injects() {
        let mut dw = dynamic_blob(20, 3, 2);
        let cap = dw.world().pset_capacity(dw.editor().live_ids()[0] as usize);
        let staged = FaultPlan::new(7, FaultFamily::LossyBeeps, 2, 2).stage(&mut dw, 0);
        assert_eq!(
            staged.ticks.drop.len(),
            2 * cap,
            "two nodes, all their gids"
        );
        assert!(staged.ticks.drop.windows(2).all(|w| w[0] < w[1]), "sorted");
        let staged = FaultPlan::new(7, FaultFamily::SpuriousBeeps, 2, 3).stage(&mut dw, 0);
        assert_eq!(staged.ticks.inject.len(), 3);
    }

    #[test]
    fn stuckpin_arms_then_the_final_event_releases() {
        let mut dw = dynamic_blob(20, 4, 2);
        let plan = FaultPlan::new(11, FaultFamily::StuckPins, 4, 2);
        let mut armed = 0;
        for e in 0..plan.events - 1 {
            armed += plan.stage(&mut dw, e).stuck_armed;
        }
        assert!(armed >= 2, "events before the last arm pins");
        assert_eq!(dw.world().stuck_pin_count() as u32, armed);
        let last = plan.stage(&mut dw, plan.events - 1);
        assert_eq!(last.stuck_released, armed);
        assert_eq!(dw.world().stuck_pin_count(), 0);
    }

    #[test]
    fn starvation_masks_are_bounded_and_alternate() {
        let mut dw = dynamic_blob(30, 5, 1);
        let staged = FaultPlan::new(3, FaultFamily::StarveRegion, 2, 2).stage(&mut dw, 0);
        assert!(!staged.inactive.is_empty());
        assert!(
            staged.inactive.len() <= dw.len() / 2,
            "starvation is partial"
        );
        assert!(staged.inactive.iter().all(|&v| !staged.is_active(v)));

        let plan = FaultPlan::new(3, FaultFamily::AlternateHalves, 2, 1);
        let even = plan.stage(&mut dw, 0);
        let odd = plan.stage(&mut dw, 1);
        assert_eq!(even.inactive.len() + odd.inactive.len(), dw.len());
        assert!(
            even.inactive.iter().all(|v| odd.is_active(*v)),
            "halves are disjoint"
        );
    }

    #[test]
    fn bursts_then_silence_silences_everyone_on_odd_events() {
        let mut dw = dynamic_blob(16, 6, 1);
        let plan = FaultPlan::new(9, FaultFamily::BurstsThenSilence, 2, 2);
        let even = plan.stage(&mut dw, 0);
        assert!(!even.ticks.inject.is_empty());
        assert!(even.inactive.is_empty());
        let odd = plan.stage(&mut dw, 1);
        assert_eq!(odd.inactive.len(), dw.len(), "silence means everyone");
        assert!(odd.ticks.is_empty());
    }

    #[test]
    fn crash_recover_wipes_pins_and_misses_the_round() {
        let mut dw = dynamic_blob(18, 7, 2);
        let n = dw.editor().live_ids().to_vec();
        for &v in &n {
            dw.world_mut().global_pin_config(v as usize);
        }
        let staged = FaultPlan::new(5, FaultFamily::CrashRecover, 1, 3).stage(&mut dw, 0);
        assert_eq!(staged.wiped.len(), 3);
        for v in &staged.wiped {
            assert!(!staged.is_active(v.index() as u32));
            // Wiped back to singletons: pin (1, 0) sits in its own set.
            assert_eq!(
                dw.world().pin_config(v.index(), 1, 0),
                dw.world().links_per_edge() as u16
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside the schedule")]
    fn event_index_is_bounded() {
        let mut dw = dynamic_blob(10, 0, 1);
        FaultPlan::new(0, FaultFamily::LossyBeeps, 2, 1).stage(&mut dw, 2);
    }
}
