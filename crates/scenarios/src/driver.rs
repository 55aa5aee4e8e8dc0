//! The workload driver: one steppable workload behind batch runs and
//! server sessions (DESIGN.md §1g, §1h).
//!
//! Every broadcast, churn and fault workload is rounds of "set pins,
//! beep, tick" on one live amoebot structure. A [`Driver`] owns
//! everything those rounds depend on: the seed derivations, the
//! structure's [`DynamicWorld`] and its pin configuration, the churn or
//! fault schedule and its cursor, the step origin, and the snapshot
//! codec. It has two operations: [`Driver::step`] runs one round and
//! [`Driver::event`] applies the next schedule event.
//!
//! A batch run (`drive`) drives a driver to completion and checks
//! every round; a server session ([`crate::server::Session`]) is a
//! driver held open between requests. Both therefore report the same
//! rounds, beeps and circuits for the same operations.
//!
//! Every failure detail goes through [`Driver::fail_line`], which names
//! the schedule seed and the event index: the churn form
//! `churn schedule seed=S event=#E (family): ...` and the fault form
//! `fault schedule seed=S scenario seed=T event=#E (family): ...`.

use amoebot_circuits::World;
use amoebot_dynamics::{
    verify_against_rebuild, AppliedEvent, ChurnPlan, DynamicWorld, FaultFamily, FaultPlan,
    StagedFault, ALL_CHURN_FAMILIES,
};
use amoebot_grid::{shapes, AmoebotStructure};
use amoebot_telemetry::wire::{SnapshotReader, SnapshotWriter, WireError};
use amoebot_telemetry::Recorder;
use rand::RngCore;

use crate::run::{blank_result, CheckResult, ScenarioResult};
use crate::spec::{derive_rng, pick};
use crate::sweep::DEFAULT_SIZES;

/// The largest `size`, and the largest `per_event`, a driver accepts:
/// the largest sweep rung. A `create` request reaches [`Driver::new`],
/// and a session file [`Driver::decode`], with both unchecked, and a
/// larger value would build (or edit) a structure of any size they name.
pub const MAX_SIZE: usize = DEFAULT_SIZES[DEFAULT_SIZES.len() - 1];

/// The Fibonacci-hash stride that spreads broadcast origins over the
/// live amoebots, so consecutive rounds hit cache-distant nodes.
const ORIGIN_STRIDE: usize = 0x9E3779B9;

/// The source of the fault kinds' informed-set broadcast. Its informed
/// bit is protocol input, re-asserted every round, even across a crash.
const SOURCE: usize = 0;

/// The workloads a driver runs, one per registry family. These six are
/// also the server's session families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `blob-broadcast`: the global circuit on a random blob. It has no
    /// schedule; a batch run steps its `events` parameter as rounds.
    Broadcast,
    /// `blob-churn-broadcast`: the broadcast plus a seeded churn
    /// schedule (family drawn from the seed). An event edits the
    /// structure and revalidates it without ticking.
    Churn,
    /// `fault-lossy-broadcast`: beep drops and spurious injects against
    /// the blob flood relay.
    LossyFlood,
    /// `fault-stuckpin-broadcast`: stuck-at pins cut a line's global
    /// circuit; the last event releases them and a repair sweep follows.
    StuckLine,
    /// `fault-unfair-broadcast`: non-fair scheduling (starve a region,
    /// alternate halves, bursts then silence) against the blob flood.
    UnfairFlood,
    /// `fault-crashrecover-broadcast`: crashed amoebots rejoin the
    /// blob's global circuit with their informed bit lost.
    CrashGlobal,
}

impl Kind {
    /// Every kind, in registry order.
    pub const ALL: [Kind; 6] = [
        Kind::Broadcast,
        Kind::Churn,
        Kind::LossyFlood,
        Kind::StuckLine,
        Kind::UnfairFlood,
        Kind::CrashGlobal,
    ];

    /// The registry (and session) family name.
    pub fn family(self) -> &'static str {
        match self {
            Kind::Broadcast => "blob-broadcast",
            Kind::Churn => "blob-churn-broadcast",
            Kind::LossyFlood => "fault-lossy-broadcast",
            Kind::StuckLine => "fault-stuckpin-broadcast",
            Kind::UnfairFlood => "fault-unfair-broadcast",
            Kind::CrashGlobal => "fault-crashrecover-broadcast",
        }
    }

    /// The kind a family name names, if any.
    pub fn from_family(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.family() == name)
    }

    /// The fault families the seed draws from; empty for the broadcast
    /// and churn kinds.
    fn fault_menu(self) -> &'static [FaultFamily] {
        match self {
            Kind::Broadcast | Kind::Churn => &[],
            Kind::LossyFlood => &[FaultFamily::LossyBeeps, FaultFamily::SpuriousBeeps],
            Kind::StuckLine => &[FaultFamily::StuckPins],
            Kind::UnfairFlood => &[
                FaultFamily::StarveRegion,
                FaultFamily::AlternateHalves,
                FaultFamily::BurstsThenSilence,
            ],
            Kind::CrashGlobal => &[FaultFamily::CrashRecover],
        }
    }

    /// Whether this kind runs a fault schedule against an informed-set
    /// broadcast from node 0.
    pub fn is_fault(self) -> bool {
        !self.fault_menu().is_empty()
    }

    /// Flood kinds relay hop by hop over singleton pin sets; the others
    /// broadcast over the global circuit.
    fn flood(self) -> bool {
        matches!(self, Kind::LossyFlood | Kind::UnfairFlood)
    }
}

/// A driver's schedule, derived from its parameters alone.
#[derive(Debug, Clone, Copy)]
enum Plan {
    None,
    Churn(ChurnPlan),
    Fault(FaultPlan),
}

impl Plan {
    /// The family from `derive_rng(seed, 5)`, the schedule seed from
    /// `derive_rng(seed, 6)`.
    fn derive(kind: Kind, seed: u64, events: usize, per_event: usize) -> Plan {
        let schedule_seed = derive_rng(seed, 6).next_u64();
        let mut draw = derive_rng(seed, 5);
        match kind {
            Kind::Broadcast => Plan::None,
            Kind::Churn => {
                let family = *pick(&mut draw, &ALL_CHURN_FAMILIES);
                Plan::Churn(ChurnPlan::new(schedule_seed, family, events, per_event))
            }
            _ => {
                let family = *pick(&mut draw, kind.fault_menu());
                Plan::Fault(FaultPlan::new(schedule_seed, family, events, per_event))
            }
        }
    }
}

/// What one schedule event did.
#[derive(Debug)]
pub struct Event {
    /// The event's index in the schedule.
    pub index: usize,
    /// The churn edits or the staged faults.
    pub applied: Applied,
    /// The rebuild oracle's verdict, when the caller asked for it.
    pub oracle: Option<Result<(), String>>,
}

/// The kind-specific half of an [`Event`].
#[derive(Debug)]
pub enum Applied {
    /// A churn event: its edits, and whether the scoped hole
    /// revalidation over the chunks it touched held.
    Churn {
        /// The inserted and removed amoebots.
        edits: AppliedEvent,
        /// The scoped hole revalidation's verdict.
        holes_ok: bool,
    },
    /// A fault event: what was staged for its faulted round.
    Fault(StagedFault),
}

/// One live workload: the structure, its schedule and its cursors.
#[derive(Debug)]
pub struct Driver {
    kind: Kind,
    size: usize,
    seed: u64,
    events: usize,
    per_event: usize,
    plan: Plan,
    dw: DynamicWorld,
    /// Schedule events applied so far.
    next_event: usize,
    /// Rounds `step` has run: the origin-stride cursor.
    steps: u64,
    /// Fault kinds: the live amoebots the broadcast has reached, by id.
    /// Empty for the broadcast and churn kinds, which keep no per-round
    /// state.
    informed: Vec<bool>,
    /// The `adversary-selftest-fail` variant: the last event skips the
    /// repair sweep and freezes a cutting pin instead. Batch-only, so
    /// the snapshot codec does not carry it.
    sabotage: bool,
}

impl Driver {
    /// Builds the workload `kind` on `size` amoebots: the structure from
    /// `derive_rng(seed, 0)` (a line for [`Kind::StuckLine`]), every
    /// amoebot in the global circuit configuration (singleton sets for
    /// the flood kinds), and a schedule of `events` events of about
    /// `per_event` edits or faults each. Fails if `size` is 0, or if
    /// `size` or `per_event` exceeds [`MAX_SIZE`].
    pub fn new(
        kind: Kind,
        size: usize,
        seed: u64,
        events: usize,
        per_event: usize,
    ) -> Result<Driver, String> {
        if size == 0 {
            return Err("size must be at least 1".to_string());
        }
        if size > MAX_SIZE || per_event > MAX_SIZE {
            return Err(format!("size and per_event must be at most {MAX_SIZE}"));
        }
        let (coords, links) = if kind == Kind::StuckLine {
            (shapes::line(size), 1)
        } else {
            (shapes::random_blob(size, &mut derive_rng(seed, 0)), 2)
        };
        let s = AmoebotStructure::new(coords)
            .map_err(|e| format!("structure generation failed: {e:?}"))?;
        let mut dw = DynamicWorld::new(&s, links);
        for v in 0..size {
            if kind.flood() {
                dw.world_mut().singleton_pin_config(v);
            } else {
                dw.world_mut().global_pin_config(v);
            }
        }
        let mut informed = Vec::new();
        if kind.is_fault() {
            informed = vec![false; size];
            informed[SOURCE] = true;
        }
        Ok(Driver {
            kind,
            size,
            seed,
            events,
            per_event,
            plan: Plan::derive(kind, seed, events, per_event),
            dw,
            next_event: 0,
            steps: 0,
            informed,
            sabotage: false,
        })
    }

    /// The deliberately broken variant behind `adversary-selftest-fail`:
    /// after the last fault event everyone crashes, the repair sweep is
    /// skipped and one pin in the middle of the line is frozen onto a
    /// cutting partition set, so recovery must fail.
    pub fn sabotaged(mut self) -> Driver {
        self.sabotage = true;
        self
    }

    /// Runs one round. The broadcast and churn kinds beep from the
    /// origin stride over the live amoebots and tick; the fault kinds run
    /// one fault-free round of their informed-set broadcast.
    pub fn step<R: Recorder>(&mut self, rec: &mut R) {
        if self.kind.is_fault() {
            self.round(&StagedFault::default(), rec);
        } else {
            let live = self.dw.editor().live_ids();
            // Removal always keeps one amoebot, so `live` is never empty.
            let at = (self.steps as usize).wrapping_mul(ORIGIN_STRIDE) % live.len().max(1);
            if let Some(&origin) = live.get(at) {
                self.dw.world_mut().beep(origin as usize, 0);
            }
            self.dw.world_mut().tick_with(rec);
        }
        self.steps += 1;
    }

    /// Applies the next schedule event, running the rebuild oracle
    /// afterwards if `verify`. A churn event applies its edits, puts
    /// joiners into the global configuration and revalidates the edited
    /// chunks, without ticking. A fault event stages its faults, reboots
    /// crashed amoebots into their configuration and runs one faulted
    /// round; the last one ends with the repair sweep (or the sabotage),
    /// after its round and its oracle check.
    pub fn event<R: Recorder>(&mut self, verify: bool, rec: &mut R) -> Result<Event, String> {
        let index = self.next_event;
        let applied = match self.plan {
            Plan::None => return Err(format!("{} has no event schedule", self.kind.family())),
            Plan::Churn(_) if index >= self.events => {
                return Err(format!("churn schedule exhausted after {index} events"))
            }
            Plan::Fault(_) if index >= self.events => {
                return Err(format!("fault schedule exhausted after {index} events"))
            }
            Plan::Churn(plan) => {
                let edits = plan.apply_with(&mut self.dw, index, rec);
                for v in &edits.inserted {
                    self.dw.world_mut().global_pin_config(v.index());
                }
                let holes_ok = self.dw.revalidate_edited_chunks();
                Applied::Churn { edits, holes_ok }
            }
            Plan::Fault(plan) => {
                let staged = plan.stage_with(&mut self.dw, index, rec);
                for v in &staged.wiped {
                    // The rejoin protocol restores the circuit
                    // configuration; the informed bit is gone.
                    self.informed[v.index()] = false;
                    self.dw.world_mut().global_pin_config(v.index());
                }
                self.round(&staged, rec);
                Applied::Fault(staged)
            }
        };
        self.next_event += 1;
        let oracle = verify.then(|| verify_against_rebuild(&self.dw));
        if self.kind.is_fault() && self.next_event == self.events {
            self.repair();
        }
        Ok(Event {
            index,
            applied,
            oracle,
        })
    }

    /// One informed-set broadcast round under `staged`. Flood kinds relay
    /// from every active informed amoebot over all its singleton sets;
    /// the global-circuit kinds beep from the source if it is active. The
    /// world ticks under the staged beep faults, and every active amoebot
    /// that heard the broadcast becomes informed. Starved amoebots
    /// neither relay nor absorb: the scheduler withheld their activation.
    fn round<R: Recorder>(&mut self, staged: &StagedFault, rec: &mut R) {
        self.informed[SOURCE] = true;
        let flood = self.kind.flood();
        let (editor, world) = self.dw.editor_and_world_mut();
        let live = editor.live_ids();
        if flood {
            for &v in live {
                if self.informed[v as usize] && staged.is_active(v) {
                    for pset in 0..world.pset_capacity(v as usize) {
                        world.beep(v as usize, pset as u16);
                    }
                }
            }
        } else if staged.is_active(SOURCE as u32) {
            world.beep(SOURCE, 0);
        }
        world.tick_faulted(&staged.ticks, rec);
        for &v in live {
            let heard = if flood {
                world.received_any(v as usize)
            } else {
                world.received(v as usize, 0)
            };
            if heard && staged.is_active(v) {
                self.informed[v as usize] = true;
            }
        }
    }

    /// After the last fault event. Stuck pins leave broken values behind
    /// even once released, so the self-stabilizing sweep re-asserts the
    /// line's global configuration. Flood configurations were never
    /// overwritten, and crash reboots already re-applied theirs.
    fn repair(&mut self) {
        if self.sabotage {
            self.informed.fill(false);
            self.informed[SOURCE] = true;
            let mid = self.size / 2;
            let topo = self.dw.world().topology();
            let up = (0..6).find(|&p| topo.peer(mid, p).is_some_and(|(u, _)| u > mid));
            if let Some(port) = up {
                self.dw.world_mut().stick_pin(mid, port, 0, 1);
            }
        } else if self.kind == Kind::StuckLine {
            for v in 0..self.size {
                self.dw.world_mut().global_pin_config(v);
            }
        }
    }

    /// The workload kind.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The initial structure size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The seed every derivation starts from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedule length (for [`Kind::Broadcast`], a batch run's rounds).
    pub fn events(&self) -> usize {
        self.events
    }

    /// Schedule events applied so far.
    pub fn next_event(&self) -> usize {
        self.next_event
    }

    /// Rounds [`Driver::step`] has run.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The churn or fault family label of the schedule, if any.
    pub fn schedule_label(&self) -> Option<&'static str> {
        match self.plan {
            Plan::None => None,
            Plan::Churn(plan) => Some(plan.family.label()),
            Plan::Fault(plan) => Some(plan.family.label()),
        }
    }

    /// The simulator.
    pub fn world(&self) -> &World {
        self.dw.world()
    }

    /// The simulator, mutable (for the lazily refreshed circuit count).
    pub fn world_mut(&mut self) -> &mut World {
        self.dw.world_mut()
    }

    /// Number of live amoebots.
    pub fn live(&self) -> usize {
        self.dw.len()
    }

    /// Live amoebots that missed this round's beep on partition set 0:
    /// the delivery check of the global-circuit broadcast.
    pub fn missed(&mut self) -> usize {
        let (editor, world) = self.dw.editor_and_world_mut();
        editor
            .live_ids()
            .iter()
            .filter(|&&v| !world.received(v as usize, 0))
            .count()
    }

    /// Live amoebots the fault kinds' broadcast has not reached (0 for
    /// the other kinds).
    pub fn uninformed(&self) -> usize {
        if self.informed.is_empty() {
            return 0;
        }
        let live = self.dw.editor().live_ids();
        live.iter().filter(|&&v| !self.informed[v as usize]).count()
    }

    /// The fault kinds' self-stabilization bound: fault-free rounds
    /// within which the broadcast must reach everyone after the burst —
    /// `n + 2` relay rounds for the flood, `O(1)` for the global circuit.
    pub fn recovery_bound(&self) -> usize {
        if self.kind.flood() {
            self.size + 2
        } else {
            3
        }
    }

    /// A FAIL line naming this driver's reproduction key at `event`: the
    /// schedule seed, the event index and the family label (and, for
    /// faults, the scenario seed), everything needed to replay the failing
    /// schedule from a log alone.
    pub fn fail_line(&self, event: usize, msg: &str) -> String {
        match self.plan {
            Plan::None => msg.to_string(),
            Plan::Churn(plan) => format!(
                "churn schedule seed={} event=#{event} ({}): {msg}",
                plan.seed,
                plan.family.label()
            ),
            Plan::Fault(plan) => format!(
                "fault schedule seed={} scenario seed={} event=#{event} ({}): {msg}",
                plan.seed,
                self.seed,
                plan.family.label()
            ),
        }
    }

    /// Appends the driver to a snapshot: its parameters, cursors and
    /// informed set, then the dynamic world. The schedule itself is not
    /// written; it is re-derived from the parameters on decode.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        w.str(self.kind.family());
        for v in [
            self.size as u64,
            self.seed,
            self.events as u64,
            self.per_event as u64,
            self.steps,
            self.next_event as u64,
            self.informed.len() as u64,
        ] {
            w.varint(v);
        }
        for bits in self.informed.chunks(8) {
            w.byte(
                bits.iter()
                    .enumerate()
                    .fold(0, |b, (i, &x)| b | (u8::from(x) << i)),
            );
        }
        self.dw.encode_payload(w);
    }

    /// Reads a driver written by [`Driver::encode`], validating every
    /// field against the others.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Driver, WireError> {
        let bad = |what, offset| WireError::BadValue { what, offset };
        let at = r.offset();
        let kind = Kind::from_family(&r.str("driver family")?).ok_or(bad("driver family", at))?;
        let at = r.offset();
        let size = r.varint()? as usize;
        if size == 0 || size > MAX_SIZE {
            return Err(bad("driver size", at));
        }
        let seed = r.varint()?;
        let events = r.varint()? as usize;
        let at = r.offset();
        let per_event = r.varint()? as usize;
        if per_event > MAX_SIZE {
            return Err(bad("driver per_event", at));
        }
        let steps = r.varint()?;
        let at = r.offset();
        let next_event = r.varint()? as usize;
        if next_event > events {
            return Err(bad("schedule cursor", at));
        }
        let at = r.offset();
        let len = r.varint()? as usize;
        let expected = if kind.is_fault() { size } else { 0 };
        if len != expected || len.div_ceil(8) > r.remaining() {
            return Err(bad("informed set", at));
        }
        let mut informed = Vec::with_capacity(len);
        for _ in 0..len.div_ceil(8) {
            let b = r.byte()?;
            informed.extend((0..8).map(|i| b >> i & 1 == 1));
        }
        informed.truncate(len);
        let at = r.offset();
        let dw = DynamicWorld::decode_payload(r)?;
        // The fault kinds never churn: their world keeps the `size` ids
        // the informed set and the repair sweep index.
        if kind.is_fault() && dw.world().topology().len() != size {
            return Err(bad("driver world", at));
        }
        Ok(Driver {
            kind,
            size,
            seed,
            events,
            per_event,
            plan: Plan::derive(kind, seed, events, per_event),
            dw,
            next_event,
            steps,
            informed,
            sabotage: false,
        })
    }
}

/// The check `name`, failing with the first recorded failure detail.
fn check(name: &str, failure: Option<String>) -> CheckResult {
    match failure {
        None => CheckResult::pass(name),
        Some(detail) => CheckResult::fail(name, detail),
    }
}

/// Drives `d` to completion the way a batch run does and cross-validates
/// every round:
/// - broadcast: `events` steps, each delivered to every live amoebot;
/// - churn: per event, the event with the rebuild oracle, then a step
///   whose broadcast must reach every live amoebot;
/// - fault: every event with the rebuild oracle, then fault-free steps
///   until the broadcast has reached everyone, within the
///   self-stabilization bound, and a final oracle pass.
///
/// Only the first failure of each check is kept, and the oracle stops
/// running once it has failed.
pub(crate) fn drive<R: Recorder>(d: &mut Driver, rec: &mut R) -> ScenarioResult {
    d.world().record_topology(rec);
    let mut r = blank_result();
    r.n = d.size;
    r.checks = match d.kind {
        Kind::Broadcast => {
            let mut missed = 0usize;
            for _ in 0..d.events {
                d.step(rec);
                missed += d.missed();
            }
            vec![CheckResult::from_bool(
                "broadcast-reaches-all",
                missed == 0,
                || format!("{missed} (node, round) deliveries missing on the global circuit"),
            )]
        }
        Kind::Churn => {
            let (mut holes, mut oracle, mut broadcast) = (None, None, None);
            while let Ok(ev) = d.event(oracle.is_none(), rec) {
                let e = ev.index;
                if let Applied::Churn {
                    holes_ok: false, ..
                } = ev.applied
                {
                    holes.get_or_insert_with(|| d.fail_line(e, "scoped hole revalidation failed"));
                }
                if let Some(Err(msg)) = ev.oracle {
                    oracle = Some(d.fail_line(e, &msg));
                }
                d.step(rec);
                let missed = d.missed();
                if missed > 0 && broadcast.is_none() {
                    let msg = format!("{missed} live amoebots missed the broadcast");
                    broadcast = Some(d.fail_line(e, &msg));
                }
            }
            r.k = d.events;
            r.l = d.live();
            vec![
                check("churn-chunks-hole-free", holes),
                check("churn-oracle-equivalent", oracle),
                check("churn-broadcast-reaches-all", broadcast),
            ]
        }
        _ => {
            let mut oracle = None;
            while let Ok(ev) = d.event(oracle.is_none(), rec) {
                if let Some(Err(msg)) = ev.oracle {
                    oracle = Some(d.fail_line(ev.index, &msg));
                }
            }
            let last = d.events.saturating_sub(1);
            let bound = d.recovery_bound();
            let mut rounds = 0usize;
            while rounds < bound && d.uninformed() > 0 {
                d.step(rec);
                rounds += 1;
            }
            let uninformed = d.uninformed();
            let converge = (uninformed > 0).then(|| {
                let msg = format!(
                    "{uninformed} of {} amoebots still uninformed after \
                     {rounds} recovery rounds (bound {bound})",
                    d.live()
                );
                d.fail_line(last, &msg)
            });
            // The recovered state itself must still match a rebuild.
            let recovered = verify_against_rebuild(&d.dw)
                .err()
                .map(|msg| d.fail_line(last, &format!("after recovery: {msg}")));
            r.k = d.events;
            r.l = d.live();
            vec![
                check("fault-oracle-equivalent", oracle),
                check("fault-reconvergence-bound", converge),
                check("fault-recovered-oracle", recovered),
            ]
        }
    };
    r.rounds = d.world().rounds();
    r.beeps = d.world().beeps_sent();
    r.metrics.merge(d.world().metrics());
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_telemetry::{wire, NullRecorder};

    /// The FAIL-line format is a contract (logs are grepped for it):
    /// schedule seed, scenario seed, event index, family label, detail.
    #[test]
    fn fail_lines_carry_the_full_reproduction_key() {
        let fault = Driver::new(Kind::StuckLine, 12, 42, 6, 2).unwrap();
        let Plan::Fault(plan) = fault.plan else {
            panic!("a stuck-pin driver has a fault plan");
        };
        assert_eq!(
            fault.fail_line(3, "1 amoebot uninformed"),
            format!(
                "fault schedule seed={} scenario seed=42 event=#3 (stuckpin): 1 amoebot uninformed",
                plan.seed
            )
        );
        let churn = Driver::new(Kind::Churn, 30, 4, 3, 2).unwrap();
        let line = churn.fail_line(2, "bad");
        assert!(line.starts_with("churn schedule seed="), "{line}");
        assert!(
            line.contains(" event=#2 (") && line.ends_with("): bad"),
            "{line}"
        );
    }

    /// A driver restored mid-schedule evolves exactly like the original,
    /// and re-encodes to the same bytes.
    #[test]
    fn decoded_drivers_continue_identically() {
        for kind in Kind::ALL {
            let mut a = Driver::new(kind, 40, 11, 6, 3).unwrap();
            for _ in 0..3 {
                let _ = a.event(false, &mut NullRecorder);
                a.step(&mut NullRecorder);
            }
            let seal = |d: &Driver| {
                let mut w = SnapshotWriter::new(wire::kind::SESSION);
                d.encode(&mut w);
                w.finish()
            };
            let bytes = seal(&a);
            let mut r = SnapshotReader::open(&bytes, wire::kind::SESSION).unwrap();
            let mut b = Driver::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(seal(&b), bytes, "{kind:?} re-encodes differently");
            for d in [&mut a, &mut b] {
                while d.event(true, &mut NullRecorder).is_ok() {
                    d.step(&mut NullRecorder);
                }
                d.step(&mut NullRecorder);
            }
            assert_eq!(seal(&a), seal(&b), "{kind:?} diverged after restore");
            assert_eq!(a.uninformed(), b.uninformed());
        }
    }

    /// A sealed driver whose `size` or `per_event` exceeds [`MAX_SIZE`]
    /// does not decode, as its `create` would have been refused.
    #[test]
    fn oversized_drivers_do_not_decode() {
        for (size, per_event) in [(MAX_SIZE + 1, 2), (30, MAX_SIZE + 1)] {
            let mut d = Driver::new(Kind::Churn, 30, 4, 3, 2).unwrap();
            (d.size, d.per_event) = (size, per_event);
            let mut w = SnapshotWriter::new(wire::kind::SESSION);
            d.encode(&mut w);
            let bytes = w.finish();
            let mut r = SnapshotReader::open(&bytes, wire::kind::SESSION).unwrap();
            assert!(
                Driver::decode(&mut r).is_err(),
                "size {size}, per_event {per_event} decoded"
            );
        }
    }
}
