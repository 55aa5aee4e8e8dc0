//! The `SPFS` snapshot codec for [`DynamicWorld`] — the editor/engine
//! pair as one blob that stores its structure once.
//!
//! ## Payload grammar (inside the [`wire`] envelope, kind `DYNAMIC_WORLD`)
//!
//! All integers are unsigned LEB128 varints unless noted; `q`, `r` and
//! chunk keys are zigzag-signed.
//!
//! ```text
//! dynamic := editor | section
//! editor  := capacity | (q r)[capacity] | alive[ceil(capacity / 8)]
//!          | free | live | edited
//! free    := count | id[count]                 (recycling order)
//! live    := count | id[count]                 (sampling order)
//! edited  := count | (cq cr)[count]            (ascending chunk keys)
//! section := c | state                         (see `amoebot_circuits::snapshot`)
//! ```
//!
//! `alive` holds one bit per id, least significant first. The free and
//! live lists partition the ids. The world's topology is not stored: the
//! halves share one id space, so decode derives it from the editor's
//! cells ([`Topology::from_neighbors`]), as the editor derives its index and
//! neighbor table. Everything that makes churn deterministic survives
//! verbatim: the live-list order (uniform sampling), the free-list order
//! (id recycling), and the world's pins and beeps, from which it derives
//! its circuits. So a [`crate::ChurnPlan`] applied after a restore makes
//! byte-for-byte the same edits an uninterrupted run would make, and a
//! mid-plan snapshot needs nothing beyond the next event index: the plan
//! itself is stateless by construction.

use amoebot_circuits::{Topology, World};
use amoebot_grid::StructureEditor;
use amoebot_telemetry::wire::{self, SnapshotReader, SnapshotWriter, WireError};

use crate::world::DynamicWorld;

impl DynamicWorld {
    /// Writes the dynamic-world payload (no envelope) into `w` — the
    /// composable form the scenario-server's session codec embeds.
    pub fn encode_payload(&self, w: &mut SnapshotWriter) {
        self.editor.encode_snapshot(w);
        self.world.encode_payload(w);
    }

    /// Decodes a payload written by [`DynamicWorld::encode_payload`].
    pub fn decode_payload(r: &mut SnapshotReader<'_>) -> Result<DynamicWorld, WireError> {
        let editor = StructureEditor::decode_snapshot(r)?;
        let topology = Topology::from_neighbors(editor.capacity(), |v, d| editor.neighbor(v, d));
        let world = World::decode_payload(r, topology)?;
        Ok(DynamicWorld { editor, world })
    }

    /// The pair as a sealed `SPFS` blob (kind `DYNAMIC_WORLD`).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(wire::kind::DYNAMIC_WORLD);
        self.encode_payload(&mut w);
        w.finish()
    }

    /// Restores a pair from [`DynamicWorld::snapshot_bytes`] output.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<DynamicWorld, WireError> {
        let mut r = SnapshotReader::open(bytes, wire::kind::DYNAMIC_WORLD)?;
        let dw = DynamicWorld::decode_payload(&mut r)?;
        r.finish()?;
        Ok(dw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChurnFamily, ChurnPlan, ALL_CHURN_FAMILIES};
    use crate::world::verify_against_rebuild;
    use amoebot_grid::{shapes, AmoebotStructure};
    use amoebot_telemetry::{Recorder, RoundSummary, TraceEvent};

    #[derive(Default)]
    struct Summaries(Vec<RoundSummary>);

    impl Recorder for Summaries {
        const TRACE: bool = true;
        const TIMED: bool = false;
        fn event(&mut self, ev: TraceEvent) {
            if let TraceEvent::RoundEnd(s) = ev {
                self.0.push(s);
            }
        }
    }

    fn churny_world(n: usize, seed: u64) -> DynamicWorld {
        let s =
            AmoebotStructure::new(shapes::random_blob(n, &mut crate::derive_rng(seed, 0))).unwrap();
        let mut dw = DynamicWorld::new(&s, 2);
        for v in 0..n {
            dw.world_mut().global_pin_config(v);
        }
        dw
    }

    /// Drives one broadcast round the way the churn scenario family
    /// does: beep from the first live amoebot, tick, note the summary.
    fn broadcast_round(dw: &mut DynamicWorld, rec: &mut Summaries) {
        let origin = dw.editor().live_ids()[0] as usize;
        dw.world_mut().beep(origin, 0);
        dw.world_mut().tick_with(rec);
    }

    /// Row lines: every amoebot joins its east and west link-0 pins, so a
    /// removal splits the line through it, and only the cut record tells
    /// the repair that the two halves no longer meet.
    fn rows(w: &mut World, v: usize) {
        w.singleton_pin_config(v);
        w.group_pins(v, &[(0, 0), (3, 0)]);
    }

    /// A 15 × 4 parallelogram in the row configuration: removing a
    /// top- or bottom-row amoebot splits a 15-long line into two halves
    /// too long to finish within the repair's first expansions.
    fn row_world() -> DynamicWorld {
        let s = AmoebotStructure::new(shapes::parallelogram(15, 4)).unwrap();
        let mut dw = DynamicWorld::new(&s, 2);
        for v in 0..s.len() {
            rows(dw.world_mut(), v);
        }
        dw
    }

    /// The headline differential test: snapshot mid-`ChurnPlan`, restore,
    /// and run the remaining events — the restored run must be
    /// *byte-identical* to the uninterrupted one (same round summaries
    /// with the same digests, and the same final snapshot bytes). The
    /// snapshot is taken once between two events and once between an
    /// event and its tick, while the event's edits are unabsorbed; the
    /// restored world labels from its pins alone, so in the row
    /// configuration it must see the split lines the original repairs.
    /// Its relabel counters start from zero and are not compared.
    #[test]
    fn mid_churn_restore_matches_uninterrupted_run() {
        let mut pending_cuts = 0;
        let configs: [fn(&mut World, usize); 2] = [|w, v| w.global_pin_config(v), rows];
        for (i, &family) in ALL_CHURN_FAMILIES.iter().enumerate() {
            for (c, before_tick) in [(0, false), (0, true), (1, false), (1, true)] {
                let configure = configs[c];
                let plan = ChurnPlan::new(0xC0FFEE + i as u64, family, 6, 3);
                let mut uninterrupted = if c == 0 {
                    churny_world(60, 17 + i as u64)
                } else {
                    row_world()
                };
                // A read labels every circuit, the ones no beep reaches
                // included, so an edit's repair meets no stale set.
                uninterrupted.world_mut().circuit_count();
                let mut rec_a = Summaries::default();
                let apply = |dw: &mut DynamicWorld, event: usize| {
                    let applied = plan.apply(dw, event);
                    for v in &applied.inserted {
                        configure(dw.world_mut(), v.index());
                    }
                    assert!(dw.revalidate_edited_chunks());
                    applied
                };
                // First half of the schedule.
                for event in 0..3 {
                    apply(&mut uninterrupted, event);
                    broadcast_round(&mut uninterrupted, &mut rec_a);
                }
                // Interrupt here (or after the next event's edits):
                // snapshot, restore, and let both worlds run the rest
                // independently.
                if before_tick {
                    let applied = apply(&mut uninterrupted, 3);
                    assert!(uninterrupted.world().relabel_pending());
                    pending_cuts += applied.removed.len();
                }
                let blob = uninterrupted.snapshot_bytes();
                let mut restored = DynamicWorld::from_snapshot_bytes(&blob).unwrap();
                let mut rec_b = Summaries(rec_a.0.clone());
                if before_tick {
                    broadcast_round(&mut uninterrupted, &mut rec_a);
                    broadcast_round(&mut restored, &mut rec_b);
                }
                for event in 3 + usize::from(before_tick)..6 {
                    for (dw, rec) in [
                        (&mut uninterrupted, &mut rec_a),
                        (&mut restored, &mut rec_b),
                    ] {
                        apply(dw, event);
                        broadcast_round(dw, rec);
                    }
                }
                let at = if before_tick {
                    "before a tick"
                } else {
                    "between events"
                };
                assert_eq!(
                    rec_a.0, rec_b.0,
                    "family {family:?} diverged after restore {at}"
                );
                verify_against_rebuild(&restored)
                    .unwrap_or_else(|e| panic!("restored world fails the oracle: {e}"));
                assert_eq!(
                    uninterrupted.snapshot_bytes(),
                    restored.snapshot_bytes(),
                    "family {family:?}: final states differ byte-for-byte after restore {at}"
                );
                let repairs = uninterrupted.world().repair_relabels();
                assert!(repairs > 0, "family {family:?}: the absorbs repaired");
            }
        }
        assert!(pending_cuts > 0, "some restore ran with cuts pending");
    }

    #[test]
    fn re_encoding_a_restored_world_is_byte_identical() {
        let mut dw = churny_world(24, 5);
        let plan = ChurnPlan::new(99, ChurnFamily::GrowShrink, 4, 4);
        for event in 0..4 {
            let applied = plan.apply(&mut dw, event);
            for v in &applied.inserted {
                dw.world_mut().global_pin_config(v.index());
            }
            broadcast_round(&mut dw, &mut Summaries::default());
        }
        let blob = dw.snapshot_bytes();
        let restored = DynamicWorld::from_snapshot_bytes(&blob).unwrap();
        assert_eq!(restored.snapshot_bytes(), blob);
        assert_eq!(restored.len(), dw.len());
    }

    #[test]
    fn every_single_bit_corruption_is_rejected() {
        let mut dw = churny_world(10, 3);
        let plan = ChurnPlan::new(7, ChurnFamily::CrashBursts, 2, 2);
        for event in 0..2 {
            plan.apply(&mut dw, event);
            broadcast_round(&mut dw, &mut Summaries::default());
        }
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
}
