//! Deterministic seeded churn schedules.
//!
//! A [`ChurnPlan`] turns `(seed, event index)` into a concrete batch of
//! structure edits, with no state carried between events: event `i`'s
//! randomness derives from `(seed, i)` alone, so a failed
//! cross-validation is reproducible from the schedule seed and the event
//! index printed in the failure line — no replay of earlier events'
//! randomness is needed (the *structure* state still depends on the
//! prefix, which the runner replays deterministically).
//!
//! All edits go through the editor's safety gate
//! ([`StructureEditor::can_insert`]/[`can_remove`]), so a schedule can
//! never drive the structure out of the algorithms' supported class
//! (connected, hole-free); an event that runs out of legal candidates
//! under-fills rather than forcing an illegal edit.
//!
//! [`StructureEditor::can_insert`]: amoebot_grid::StructureEditor::can_insert
//! [`can_remove`]: amoebot_grid::StructureEditor::can_remove

use amoebot_grid::{Coord, Direction, NodeId, StructureEditor, ALL_DIRECTIONS};
use amoebot_telemetry::{NullRecorder, Recorder, TraceEvent};
use rand::rngs::StdRng;
use rand::Rng;

use crate::world::DynamicWorld;

/// The churn schedule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnFamily {
    /// Every event attaches `per_event` amoebots at random boundary
    /// cells — monotone growth.
    BoundaryGrowth,
    /// Every event detaches `per_event` uniformly random removable
    /// amoebots — monotone shrinkage.
    RandomDetach,
    /// Every event picks a random epicenter and crashes `per_event`
    /// amoebots around it, nearest-first — spatially correlated failure.
    CrashBursts,
    /// Events alternate: even events grow, odd events shrink — the
    /// steady-state churn a long-running deployment sees.
    GrowShrink,
}

/// All churn families, for seeded menu picks.
pub const ALL_CHURN_FAMILIES: [ChurnFamily; 4] = [
    ChurnFamily::BoundaryGrowth,
    ChurnFamily::RandomDetach,
    ChurnFamily::CrashBursts,
    ChurnFamily::GrowShrink,
];

impl ChurnFamily {
    /// Stable label for scenario names and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ChurnFamily::BoundaryGrowth => "grow",
            ChurnFamily::RandomDetach => "detach",
            ChurnFamily::CrashBursts => "crash",
            ChurnFamily::GrowShrink => "growshrink",
        }
    }
}

/// What one applied event actually did (events under-fill when legal
/// candidates run out; the counts here are the ground truth).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedEvent {
    /// Nodes that joined, in application order.
    pub inserted: Vec<NodeId>,
    /// Nodes that left, in application order (their ids are dead until
    /// recycled).
    pub removed: Vec<NodeId>,
}

/// A deterministic churn schedule: `events` events of roughly
/// `per_event` edits each, drawn from `family`'s distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Schedule seed; event `i` uses randomness derived from
    /// `(seed, i)` only.
    pub seed: u64,
    /// The event distribution.
    pub family: ChurnFamily,
    /// Number of events in the schedule.
    pub events: usize,
    /// Target edits per event (a best effort, see [`AppliedEvent`]).
    pub per_event: usize,
}

impl ChurnPlan {
    /// A plan with `events` events of `per_event` edits.
    pub fn new(seed: u64, family: ChurnFamily, events: usize, per_event: usize) -> ChurnPlan {
        ChurnPlan {
            seed,
            family,
            events,
            per_event,
        }
    }

    /// Applies event `index` (0-based) to `dw`. Deterministic in
    /// `(self, index, current structure)`; returns what was done.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.events`.
    pub fn apply(&self, dw: &mut DynamicWorld, index: usize) -> AppliedEvent {
        self.apply_with(dw, index, &mut NullRecorder)
    }

    /// [`ChurnPlan::apply`] with the structure edits recorded: every
    /// insert/remove flows through the world's recorded mutation path,
    /// and the event is tagged with its index and net counts so a trace
    /// reader can attribute the edits to the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.events`.
    pub fn apply_with<R: Recorder>(
        &self,
        dw: &mut DynamicWorld,
        index: usize,
        rec: &mut R,
    ) -> AppliedEvent {
        assert!(index < self.events, "event {index} outside the schedule");
        let mut rng = crate::derive_rng(self.seed, index as u64);
        let mut out = AppliedEvent::default();
        match self.family {
            ChurnFamily::BoundaryGrowth => grow(dw, &mut rng, self.per_event, &mut out, rec),
            ChurnFamily::RandomDetach => detach(dw, &mut rng, self.per_event, &mut out, rec),
            ChurnFamily::CrashBursts => crash_burst(dw, &mut rng, self.per_event, &mut out, rec),
            ChurnFamily::GrowShrink => {
                if index.is_multiple_of(2) {
                    grow(dw, &mut rng, self.per_event, &mut out, rec)
                } else {
                    detach(dw, &mut rng, self.per_event, &mut out, rec)
                }
            }
        }
        if R::TRACE {
            rec.event(TraceEvent::ChurnTag {
                index: index as u32,
                inserted: out.inserted.len() as u32,
                removed: out.removed.len() as u32,
            });
        }
        out
    }
}

/// Attaches up to `k` amoebots at random boundary cells (random live
/// anchor, random direction, retried against the safety gate).
fn grow<R: Recorder>(
    dw: &mut DynamicWorld,
    rng: &mut StdRng,
    k: usize,
    out: &mut AppliedEvent,
    rec: &mut R,
) {
    let budget = 20 * k.max(1);
    for _ in 0..budget {
        if out.inserted.len() >= k {
            break;
        }
        let anchor = dw.editor().live_ids()[rng.gen_range(0..dw.len())];
        let d = ALL_DIRECTIONS[rng.gen_range(0..6)];
        let cell = dw.editor().coord(NodeId(anchor)).neighbor(d);
        if dw.can_insert(cell) {
            out.inserted.push(dw.insert_with(cell, rec));
        }
    }
}

/// Detaches up to `k` uniformly random removable amoebots.
fn detach<R: Recorder>(
    dw: &mut DynamicWorld,
    rng: &mut StdRng,
    k: usize,
    out: &mut AppliedEvent,
    rec: &mut R,
) {
    let budget = 20 * k.max(1);
    for _ in 0..budget {
        if out.removed.len() >= k || dw.len() <= 1 {
            break;
        }
        let victim = NodeId(dw.editor().live_ids()[rng.gen_range(0..dw.len())]);
        if dw.can_remove(victim) {
            dw.remove_with(victim, rec);
            out.removed.push(victim);
        }
    }
}

/// Crashes up to `k` amoebots around a random epicenter, nearest-first.
/// Removability changes as the burst eats inward, so the candidate window
/// is rescanned a bounded number of passes.
fn crash_burst<R: Recorder>(
    dw: &mut DynamicWorld,
    rng: &mut StdRng,
    k: usize,
    out: &mut AppliedEvent,
    rec: &mut R,
) {
    let epicenter = {
        let id = dw.editor().live_ids()[rng.gen_range(0..dw.len())];
        dw.editor().coord(NodeId(id))
    };
    // Nearest-first candidate window, a few times the burst size: far
    // cells are irrelevant to a localized crash.
    let candidates = nearest_window(dw.editor(), epicenter, 8 * k.max(1));
    for _pass in 0..4 {
        let before = out.removed.len();
        for &(_, id) in &candidates {
            if out.removed.len() >= k || dw.len() <= 1 {
                return;
            }
            let v = NodeId(id);
            if dw.editor().is_alive(v) && dw.can_remove(v) {
                dw.remove_with(v, rec);
                out.removed.push(v);
            }
        }
        if out.removed.len() == before {
            return; // nothing in the window is removable anymore
        }
    }
}

/// The `window` live amoebots nearest to `epicenter` (all of them if
/// fewer are live) as `(grid distance, id)`, ascending. Collected from
/// hex rings of growing grid distance around the epicenter, finishing
/// the ring that fills the window, so the cost is the cells within that
/// distance rather than the structure: the same window as sorting every
/// live amoebot by `(distance, id)` and truncating.
pub(crate) fn nearest_window(
    editor: &StructureEditor,
    epicenter: Coord,
    window: usize,
) -> Vec<(u32, u32)> {
    let window = window.min(editor.len());
    let mut found = Vec::with_capacity(window);
    let mut d = 0u32;
    while found.len() < window {
        for cell in ring(epicenter, d) {
            if let Some(v) = editor.node_at(cell) {
                found.push((d, v.0));
            }
        }
        d += 1;
    }
    found.sort_unstable();
    found.truncate(window);
    found
}

/// The cells at grid distance exactly `d` from `center`: from the corner
/// `d` steps east, `d` steps along each side, counterclockwise.
fn ring(center: Coord, d: u32) -> impl Iterator<Item = Coord> {
    let corner = (0..d).fold(center, |c, _| c.neighbor(Direction::E));
    let sides = if d == 0 { 1 } else { 6 * d as usize };
    (0..sides).scan(corner, move |cell, i| {
        let here = *cell;
        if d > 0 {
            *cell = cell.neighbor(ALL_DIRECTIONS[(i / d as usize + 2) % 6]);
        }
        Some(here)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::verify_against_rebuild;
    use amoebot_grid::{shapes, AmoebotStructure};

    fn dynamic_blob(n: usize, seed: u64, c: usize) -> DynamicWorld {
        let s = AmoebotStructure::new(shapes::random_blob(n, &mut crate::derive_rng(seed, 99)))
            .unwrap();
        DynamicWorld::new(&s, c)
    }

    #[test]
    fn schedules_are_deterministic() {
        for family in ALL_CHURN_FAMILIES {
            let plan = ChurnPlan::new(42, family, 4, 3);
            let mut a = dynamic_blob(24, 1, 1);
            let mut b = dynamic_blob(24, 1, 1);
            for e in 0..plan.events {
                assert_eq!(
                    plan.apply(&mut a, e),
                    plan.apply(&mut b, e),
                    "{family:?} event {e} diverged"
                );
            }
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn families_move_the_population_as_advertised() {
        let mut grow = dynamic_blob(20, 2, 1);
        let plan = ChurnPlan::new(7, ChurnFamily::BoundaryGrowth, 3, 4);
        for e in 0..3 {
            plan.apply(&mut grow, e);
        }
        assert_eq!(grow.len(), 20 + 12, "growth attaches its full budget");

        let mut shrink = dynamic_blob(30, 2, 1);
        let plan = ChurnPlan::new(7, ChurnFamily::RandomDetach, 3, 4);
        for e in 0..3 {
            plan.apply(&mut shrink, e);
        }
        assert!(shrink.len() < 30, "detach removes nodes");
        assert!(!shrink.is_empty());

        let mut burst = dynamic_blob(40, 5, 1);
        let plan = ChurnPlan::new(9, ChurnFamily::CrashBursts, 1, 6);
        let applied = plan.apply(&mut burst, 0);
        assert!(!applied.removed.is_empty(), "burst crashes someone");
        assert_eq!(burst.len(), 40 - applied.removed.len());
    }

    #[test]
    fn grow_shrink_alternates_and_stays_valid() {
        let mut dw = dynamic_blob(24, 8, 2);
        let plan = ChurnPlan::new(13, ChurnFamily::GrowShrink, 6, 3);
        for e in 0..plan.events {
            let applied = plan.apply(&mut dw, e);
            if e % 2 == 0 {
                assert!(applied.removed.is_empty());
                assert!(!applied.inserted.is_empty());
            } else {
                assert!(applied.inserted.is_empty());
            }
            verify_against_rebuild(&dw).unwrap_or_else(|e| panic!("oracle divergence: {e}"));
        }
        let (snapshot, _) = dw.editor().snapshot();
        assert!(snapshot.is_hole_free());
    }

    /// The ring window equals the window of sorting every live amoebot
    /// by `(distance, id)`, on random blobs after random removals, for
    /// windows smaller and larger than the structure.
    #[test]
    fn ring_windows_match_the_sorted_window() {
        let sorted_window = |dw: &DynamicWorld, epicenter: Coord, window: usize| {
            let editor = dw.editor();
            let mut all: Vec<(u32, u32)> = editor
                .live_ids()
                .iter()
                .map(|&id| (editor.coord(NodeId(id)).grid_distance(epicenter), id))
                .collect();
            all.sort_unstable();
            all.truncate(window.min(all.len()));
            all
        };
        for (seed, n) in [(1u64, 400usize), (2, 150), (3, 60), (4, 5)] {
            let mut dw = dynamic_blob(n, seed, 1);
            let mut rng = crate::derive_rng(seed, 7);
            let mut removed = AppliedEvent::default();
            detach(&mut dw, &mut rng, n / 4, &mut removed, &mut NullRecorder);
            for _ in 0..8 {
                let id = dw.editor().live_ids()[rng.gen_range(0..dw.len())];
                let epicenter = dw.editor().coord(NodeId(id));
                for k in [1usize, 4, 100] {
                    let window = 8 * k;
                    assert_eq!(
                        nearest_window(dw.editor(), epicenter, window),
                        sorted_window(&dw, epicenter, window),
                        "blob seed {seed} ({} live), epicenter {epicenter:?}, k = {k}",
                        dw.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the schedule")]
    fn event_index_is_bounded() {
        let mut dw = dynamic_blob(10, 0, 1);
        ChurnPlan::new(0, ChurnFamily::BoundaryGrowth, 2, 1).apply(&mut dw, 2);
    }
}
