//! The synchronous round simulator.
//!
//! # Engine design
//!
//! The pin *topology* of a world changes only through the explicit
//! structure-mutation calls ([`World::add_node`], [`World::connect`],
//! [`World::disconnect`], [`World::isolate`]); between those, which pin
//! faces which peer pin across an external link is fixed. What changes
//! between rounds is normally only the *pin configuration* (which local
//! partition set each pin belongs to). The [`Topology`] is the world's
//! only record of which pin faces which, and [`World::tick`] maintains a
//! cached circuit labeling guarded by a **dirty-pin set** (dense list +
//! [`BitSet`], mirroring the beep-flag pattern) and labels circuits
//! **lazily**:
//!
//! * any mutation ([`World::set_pin`] and everything built on it) that
//!   actually changes a pin's partition set marks that pin dirty; no-op
//!   writes (the stored value is unchanged) keep the labeling clean;
//! * every partition set is either *labelled* (its label is current) or
//!   *stale*, and the stale sets always form whole circuits of the
//!   current configuration. Before a tick delivers and before any read,
//!   the dirty pins are *absorbed*: a bounded search from the dirty
//!   pins' sets repairs the circuits they touch when it can certify
//!   where every piece went (see `repair.rs`), and otherwise the
//!   labelled circuits of each dirty pin's old and new partition set go
//!   stale. Either way the dirty list empties. See DESIGN.md §1c for the
//!   stability invariant and the certificate that make this sound;
//! * a tick labels only the stale circuits it delivers a beep on, by
//!   walking each one under the current pins and topology —
//!   O(members · ports) per beeping circuit, nothing for the circuits no
//!   beep reaches. This is the one labelling path of every tick, whatever
//!   its [`Recorder`]: `R::TRACE` only gates event emission and digests;
//! * reads ([`World::circuit_count`], [`World::pset_circuit`]) label
//!   everything: they absorb, then walk every stale circuit the same
//!   way, in ascending gid order, or run the global relabel — union-find
//!   along every wired port slot of the topology plus a counting-sort
//!   membership rebuild — when the dirty pins or the stale set exceed
//!   `1/REGION_FALLBACK_FRACTION` of all pins;
//! * a tick delivers to circuits, not to their members: the roots of
//!   the beeping circuits, deduped in `root_mark`, stay marked as the
//!   round's delivery record, and no receive bit is written. The first
//!   [`World::received`]/[`World::received_any`] after the tick writes
//!   the pending deliveries, bucket by bucket in delivery order, and so
//!   does everything else that would change a label or a bucket before
//!   the next tick (absorbs, global relabels, staling everything); the
//!   next tick drops them unwritten. A world that reads every round pays
//!   the writes once per round, one that never reads (a server `step`)
//!   not at all;
//! * a clean tick (no amoebot reconfigured since the beeping circuits
//!   were labelled) reuses the cached labeling and costs O(beeps sent +
//!   beeping circuits), plus the clearing of whatever a read wrote the
//!   round before: independent of the structure size and of the
//!   circuits' sizes.
//!
//! No clean-tick code path allocates: beeps, the delivery record and
//! written deliveries all go through reusable buffers sized at
//! construction. Every path labels a circuit by its minimum member gid
//! and keeps each bucket in ascending gid order, so reports never
//! depend on which path ran.
//!
//! Structure mutations ride the same machinery: [`World::connect`] and
//! [`World::disconnect`] write the edge's two port slots of the topology
//! in O(deg + c) and mark the `c` pin pairs of the edge dirty; a
//! disconnect also records the cut pin pairs, the one trace a removed
//! link leaves for the repair. The next absorb then repairs or stales
//! exactly the circuits that ran through the edge. A repaired k-node
//! churn event costs its splice, a search bounded by a constant multiple
//! of its dirty sets, and one sequential pass over the buckets of the
//! circuits it touched; a churn event that stales a circuit instead pays
//! a walk of that circuit when it is next labelled. [`World::add_node`]
//! appends a node with vacant ports and pre-labels its fresh singleton
//! sets, keeping the cached labeling valid without any relabel at all.
//!
//! [`World::tick_reference`] keeps the original full-recompute engine
//! alive verbatim; differential tests and the `circuit_engine` benches pin
//! the incremental engine against it.

use crate::bitset::BitSet;
use crate::repair::RepairScratch;
use crate::topology::{PortId, Topology, NONE};
use amoebot_telemetry::{
    mix64, CounterId, Metrics, NullRecorder, Recorder, RoundSummary, Stopwatch, TimerId,
    TraceEvent, BEEP_DIGEST_SALT,
};

/// A pin reference local to a node: `(port, link)` with `link < c`.
pub type Pin = (PortId, usize);

/// Labelling everything walks the stale set only while it (and the dirty
/// pins before it) stay within `total pins / REGION_FALLBACK_FRACTION`;
/// past that it runs one global relabel. A walk scans every pin of each
/// visited set's node and follows links one peer lookup at a time,
/// while the global relabel sweeps the topology's port slots and the pin
/// table in order: one read of an all-stale 100k-node blob took 5.5–9×
/// as long walking every circuit as relabelling globally (c = 2 and 6;
/// release build, 2 vCPUs). An absorb of at most this many dirty pins
/// tries the repair first.
const REGION_FALLBACK_FRACTION: usize = 8;

/// Registry name of the counter of nodes visited by
/// [`World::reset_all_pins_keeping_links`].
pub(crate) const RESET_NODES: &str = "reset_nodes";

/// Registry name of the counter of circuits labelled by a walk (see
/// [`World::walk_relabels`]).
const RELABEL_WALK: &str = "relabel_walk";

/// The engine's telemetry registry plus pre-registered handles for the
/// hot-path counters and phase timers, so instrumented code never pays a
/// name lookup. Relabel counters live here (the old `u64` fields are now
/// thin wrappers over the registry); phase timers are populated only
/// when a run drives the engine through a [`Recorder`] with
/// `TIMED = true` — under [`NullRecorder`] the timing code compiles away.
#[derive(Debug, Clone)]
pub(crate) struct EngineStats {
    pub(crate) metrics: Metrics,
    pub(crate) relabel_global: CounterId,
    pub(crate) relabel_region: CounterId,
    pub(crate) fault_drops: CounterId,
    pub(crate) fault_injects: CounterId,
    pub(crate) t_propagate: TimerId,
}

impl EngineStats {
    fn new() -> EngineStats {
        let mut m = Metrics::new();
        EngineStats {
            relabel_global: m.counter("relabel_global"),
            relabel_region: m.counter("relabel_region"),
            fault_drops: m.counter("fault_drops"),
            fault_injects: m.counter("fault_injects"),
            t_propagate: m.timer("phase_propagate_micros"),
            metrics: m,
        }
    }
}

/// One tick's worth of adversarial beep faults, staged by a fault plan
/// and consumed by [`World::tick_faulted`]. Both lists hold partition-set
/// gids and **must be sorted ascending** — the faulted tick binary-searches
/// them per beep.
///
/// The fault-free instance is [`TickFaults::EMPTY`]; `tick`/`tick_with`
/// run through the same monomorphized engine with the fault arm compiled
/// out, so an unarmed adversary costs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickFaults {
    /// Gids whose beep — if the algorithm sent one this round — is
    /// suppressed before delivery. The send still counts as a beep (it
    /// left the amoebot; the adversary ate it on the wire), so traces
    /// record it as a `Beep` plus a `FaultDrop` attribution.
    pub drop: Vec<u32>,
    /// Gids forced to beep this round whether or not the algorithm sent
    /// (spurious beeps). Injected before delivery, so they trace as
    /// ordinary `Beep`s plus a `FaultInject` attribution.
    pub inject: Vec<u32>,
}

impl TickFaults {
    /// No faults: what the plain tick paths run under.
    pub const EMPTY: TickFaults = TickFaults {
        drop: Vec::new(),
        inject: Vec::new(),
    };

    /// Whether this stage carries no beep-level faults at all.
    pub fn is_empty(&self) -> bool {
        self.drop.is_empty() && self.inject.is_empty()
    }
}

/// The simulated world: a topology, `c` external links per edge, the current
/// pin configuration of every amoebot, and the beep state.
///
/// One call to [`World::tick`] is one round of the fully synchronous
/// activation model: beeps sent during the current round are delivered (on
/// the *current* pin configurations) at the beginning of the next round,
/// exactly as specified in §1.2 of the paper.
#[derive(Debug, Clone)]
pub struct World {
    pub(crate) topo: Topology,
    pub(crate) c: usize,
    /// Base index of node `v`'s pins/partition-set ids in the global arrays.
    pub(crate) base: Vec<u32>,
    /// Global pin index -> local partition set id of the owning node.
    pub(crate) pin_pset: Vec<u16>,
    /// Partition sets (by global id) that beep this round (bit-packed;
    /// the set bits are always a subset of the dense `sent` list).
    pub(crate) send: BitSet,
    /// Dense list of the gids set in `send` (clears in O(beeps)).
    pub(crate) sent: Vec<u32>,
    /// Written deliveries: the partition sets (by global id) that
    /// received a beep last round, once a read has written them from
    /// the delivery record (bit-packed; set bits ⊆ `recv_set`).
    pub(crate) recv: BitSet,
    /// Dense list of the gids set in `recv`, in delivery order (clears
    /// in O(written deliveries)). Empty while deliveries are pending.
    pub(crate) recv_set: Vec<u32>,
    /// Union-find scratch (parents over global partition-set ids).
    pub(crate) uf: Vec<u32>,
    /// Cached circuit labeling: partition-set gid -> root gid (= minimum
    /// gid) of its circuit. Current for every labelled (non-stale) set;
    /// garbage for stale sets.
    pub(crate) labels: Vec<u32>,
    /// Membership arena: each labelled circuit root `r` owns the bucket
    /// `members[member_off[r]..member_end[r]]` (its member gids in
    /// ascending order). The global rebuild packs buckets contiguously;
    /// walks append fresh buckets at the end (the displaced old buckets
    /// become garbage) and a full repack reclaims the arena when it
    /// would outgrow twice the pin count.
    pub(crate) members: Vec<u32>,
    /// Bucket start per root gid (valid only for current roots).
    pub(crate) member_off: Vec<u32>,
    /// Bucket end per root gid (valid only for current roots).
    pub(crate) member_end: Vec<u32>,
    /// Cached per-bucket delivery digest (XOR of [`mix64`] over the
    /// root's member gids), valid iff the root's stamp in
    /// `member_digest_epoch` equals `digest_epoch`. Filled lazily the
    /// first time a replay-grade tick or a replay delivers to the
    /// circuit, then reused every steady tick, so a digest costs O(1)
    /// per circuit between relabels. Never read on the `NullRecorder`
    /// path.
    pub(crate) member_digest: Vec<u64>,
    /// Per-root validity stamp for `member_digest` (0 = never valid;
    /// `digest_epoch` starts at 1).
    pub(crate) member_digest_epoch: Vec<u32>,
    /// Bumped whenever the whole membership arena is rebuilt; walks
    /// instead zero the stamps of just the buckets they append.
    pub(crate) digest_epoch: u32,
    /// Bit per circuit root: set for the roots in `marked_roots`. A tick
    /// dedups its beeping circuits here and keeps the marks as the
    /// round's delivery record; a repair borrows it for its visited bits
    /// once the absorb has written the deliveries (bit-packed).
    pub(crate) root_mark: BitSet,
    /// The delivery record: the roots of the circuits the last tick
    /// delivered to, in delivery order, while their deliveries are
    /// *pending* (not yet written into `recv`). Their labels and buckets
    /// are those of the tick: everything that would change them writes
    /// the pending deliveries first, and so does the first read.
    pub(crate) marked_roots: Vec<u32>,
    /// Pins whose partition set changed since the last absorb, as
    /// `(pin gid, owning node's base offset)`; deduped via `dirty_pin`.
    pub(crate) dirty_pins: Vec<(u32, u32)>,
    /// Bit per pin: whether it is in `dirty_pins`.
    pub(crate) dirty_pin: BitSet,
    /// The cut record: both pins of every link [`World::disconnect`] cut
    /// since the last absorb, as `(pin gid, pin gid)`. A cut leaves no
    /// trace in the topology, so the repair reads the link unions it
    /// removed from here. Both pins of an entry are dirty, and no pin
    /// appears twice: a port's first cut since the last absorb is of
    /// the edge it had then, and later ones are of edges wired since.
    pub(crate) cuts: Vec<(u32, u32)>,
    /// The pin configuration as of the last absorb — the "old" partition
    /// sets whose circuits the next absorb stales.
    pub(crate) pset_at_relabel: Vec<u16>,
    /// Bit per partition set: whether it is stale. Invariant: the stale
    /// sets form whole circuits of the current configuration once the
    /// dirty pins are absorbed; every other set is labelled.
    pub(crate) stale: BitSet,
    /// Number of set bits in `stale`.
    pub(crate) stale_count: usize,
    /// Persistent marks of the counted circuit roots (a labelled root is
    /// counted iff some pin references a partition set in its bucket);
    /// maintained incrementally by absorbs and walks.
    pub(crate) circuit_roots: BitSet,
    /// Walk scratch: the `(gid, owner node)` pairs of the circuit being
    /// walked, in discovery order; a repair's search queue.
    pub(crate) walk: Vec<(u32, u32)>,
    /// Repair scratch (see `repair.rs`); dead between absorbs.
    pub(crate) repair: RepairScratch,
    /// One bit per node for each link `ℓ < c`. Invariant: if pin
    /// `(v, port, ℓ)` holds a partition set other than its singleton id
    /// `port * c + ℓ`, bit `v` of `configured[ℓ]` is set. Every pin write
    /// keeps it, so [`World::reset_all_pins_keeping_links`] visits only
    /// the nodes whose bits are set. Derived from `pin_pset`: snapshot
    /// decode sets it with the pins.
    pub(crate) configured: Vec<BitSet>,
    /// One flag per link `ℓ < c`: set only while every pin on `ℓ`, of
    /// every node, holds the global-link partition set
    /// [`World::global_link_pset`]`(ℓ)`, so that
    /// [`World::global_link_config_all`] would write nothing. Set by that
    /// call; cleared by every write that can move a pin on `ℓ`. A
    /// decoded world starts with every flag clear, as a new one does.
    pub(crate) global_links: Vec<bool>,
    /// Number of counted labelled circuits; the circuit count of the
    /// whole configuration once nothing is stale.
    pub(crate) cached_circuits: usize,
    /// Telemetry registry + cached handles. Holds the relabel-path
    /// counters (diagnostics; pinned by tests so the scoped pass cannot
    /// silently degrade into always-global) and the phase timers.
    pub(crate) stats: EngineStats,
    /// Rounds ticked so far.
    pub(crate) rounds: u64,
    /// Total beeps sent (diagnostic; the model itself never counts beeps).
    pub(crate) beeps_sent: u64,
    /// Stuck-at pin faults as `(pin gid, frozen pset)`, sorted by gid.
    /// A stuck pin's partition set is pinned to the frozen value: single
    /// writes are filtered at [`World::set_pin`], bulk writers re-assert
    /// the frozen value after their sweep. Empty in a healthy world, and
    /// every write path gates its stuck handling on that emptiness, so
    /// the overlay costs one branch when unarmed.
    pub(crate) stuck: Vec<(u32, u16)>,
}

impl World {
    /// Creates a world over `topo` with `c >= 1` external links per edge.
    /// Every pin starts in its own (singleton) partition set and no beeps are
    /// pending.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    pub fn new(topo: Topology, c: usize) -> World {
        assert!(c >= 1, "the model requires at least one external link");
        let n = topo.len();
        let mut base = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for v in 0..n {
            base.push(acc);
            acc += (topo.ports_len(v) * c) as u32;
        }
        base.push(acc);
        let total = acc as usize;
        // The singleton configuration, written directly: pin `i` of a
        // node holds partition set `i`. Nothing is dirty or configured.
        let mut pin_pset = Vec::with_capacity(total);
        for v in 0..n {
            pin_pset.extend(0..(base[v + 1] - base[v]) as u16);
        }
        let mut w = World {
            topo,
            c,
            base,
            pset_at_relabel: pin_pset.clone(),
            pin_pset,
            send: BitSet::new(total),
            // Worst-case capacity up front (cheap: pages fault on first
            // write, not at malloc), so ticks never reallocate.
            sent: Vec::with_capacity(total),
            recv: BitSet::new(total),
            recv_set: Vec::with_capacity(total),
            uf: vec![0; total],
            labels: vec![0; total],
            members: Vec::with_capacity(total),
            member_off: vec![0; total],
            member_end: vec![0; total],
            member_digest: vec![0; total],
            member_digest_epoch: vec![0; total],
            digest_epoch: 1,
            root_mark: BitSet::new(total),
            marked_roots: Vec::with_capacity(total),
            dirty_pins: Vec::with_capacity(total),
            dirty_pin: BitSet::new(total),
            cuts: Vec::new(),
            stale: BitSet::new(total),
            stale_count: 0,
            circuit_roots: BitSet::new(total),
            walk: Vec::new(),
            repair: RepairScratch::default(),
            configured: (0..c).map(|_| BitSet::new(n)).collect(),
            global_links: vec![false; c],
            cached_circuits: 0,
            stats: EngineStats::new(),
            rounds: 0,
            beeps_sent: 0,
            stuck: Vec::new(),
        };
        // Nothing is labelled yet: every set starts stale.
        w.stale_everything();
        w
    }

    /// The underlying topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The number of external links per edge.
    #[inline]
    pub fn links_per_edge(&self) -> usize {
        self.c
    }

    /// Number of rounds ticked so far: only [`World::tick`],
    /// [`World::tick_with`], [`World::tick_faulted`] and
    /// [`World::tick_reference`] advance it, one round each.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total distinct beeps sent so far (diagnostic instrumentation; one
    /// partition-set activation per round counts once).
    pub fn beeps_sent(&self) -> u64 {
        self.beeps_sent
    }

    #[inline]
    fn pin_gid(&self, v: usize, pin: Pin) -> usize {
        let (port, link) = pin;
        debug_assert!(link < self.c, "link {link} out of range (c = {})", self.c);
        debug_assert!(port < self.topo.ports_len(v), "port {port} out of range");
        self.base[v] as usize + port * self.c + link
    }

    /// Outlined panic for [`World::pset_gid`]: keeps the formatting
    /// machinery out of the hot callers (`beep`/`received`/`set_pin` run
    /// per node per round) while the range check itself stays on.
    #[cold]
    #[inline(never)]
    fn pset_out_of_range(v: usize, pset: u16, cap: usize) -> ! {
        panic!("partition set {pset} out of range for node {v} (capacity {cap})");
    }

    /// Resolves `v`'s local partition set `pset` to its global id.
    ///
    /// This is a real (release-mode) bounds check: an out-of-range `pset`
    /// would index into a *neighbor node's* slot of the global send/recv
    /// arrays and silently corrupt its state, so it must never pass.
    #[inline]
    fn pset_gid(&self, v: usize, pset: u16) -> usize {
        let cap = self.pset_capacity(v);
        if (pset as usize) >= cap {
            Self::pset_out_of_range(v, pset, cap);
        }
        self.base[v] as usize + pset as usize
    }

    /// Maximum number of partition sets node `v` may use (= its pin count).
    pub fn pset_capacity(&self, v: usize) -> usize {
        (self.base[v + 1] - self.base[v]) as usize
    }

    /// Marks pin `gid` (of the node whose base offset is `node_base`)
    /// dirty, deduped through the dirty-pin bitset.
    #[inline]
    fn mark_pin_dirty(&mut self, gid: usize, node_base: u32) {
        if !self.dirty_pin.get(gid) {
            self.dirty_pin.set(gid);
            self.dirty_pins.push((gid as u32, node_base));
        }
    }

    /// Keeps the `configured` invariant for a write of `pset` to `v`'s pin
    /// with local index `i` (= `port * c + link`): a value other than the
    /// singleton id `i` marks `v` on the pin's link.
    #[inline]
    fn mark_configured(&mut self, v: usize, i: usize, pset: u16) {
        if pset as usize != i {
            self.configured[i % self.c].set(v);
        }
    }

    /// Marks every pin of the node at `node_base` whose current partition
    /// set differs from the last-relabel snapshot. Invariant: a clear
    /// dirty bit implies the pin still matches the snapshot, so comparing
    /// against the snapshot (rather than the pre-write value) never
    /// misses a change — and a no-op rewrite of already-dirty pins just
    /// re-marks them, which the bitset dedups.
    fn mark_changed_pins(&mut self, node_base: usize, count: usize) {
        for i in node_base..node_base + count {
            if self.pin_pset[i] != self.pset_at_relabel[i] {
                self.mark_pin_dirty(i, node_base as u32);
            }
        }
    }

    /// Assigns a single pin of `v` to local partition set `pset`. If the
    /// pin is frozen by a stuck-at fault ([`World::stick_pin`]) the write
    /// is silently dropped — that is the fault model: the algorithm
    /// *believes* it reconfigured, the hardware did not.
    ///
    /// # Panics
    ///
    /// Panics if the partition set is out of range (real check: a stray
    /// `pset` would corrupt the cached circuit labeling), or — in debug
    /// builds — if the pin itself is out of range.
    #[inline]
    pub fn set_pin(&mut self, v: usize, port: PortId, link: usize, pset: u16) {
        let gid = self.pin_gid(v, (port, link));
        let cap = self.pset_capacity(v);
        if (pset as usize) >= cap {
            Self::pset_out_of_range(v, pset, cap);
        }
        if !self.stuck.is_empty() && self.stuck_index(gid as u32).is_ok() {
            return;
        }
        if self.pin_pset[gid] != pset {
            self.pin_pset[gid] = pset;
            self.mark_pin_dirty(gid, self.base[v]);
            self.mark_configured(v, port * self.c + link, pset);
            self.global_links[link] = false;
        }
    }

    /// Bulk-assigns all pins of `v`: the pin with local index `i` (that
    /// is, `port * c + link`) goes to partition set `pset_of(i)`. The
    /// psets produced by the bulk config methods are local pin indices,
    /// in range by construction, so this skips `set_pin`'s per-pin
    /// capacity check — these methods run over every node between phases
    /// and are the simulator's hottest mutation path.
    #[inline]
    fn fill_pin_config(&mut self, v: usize, pset_of: impl Fn(usize) -> u16) {
        let base = self.base[v] as usize;
        let count = self.pset_capacity(v);
        // Branchless change detection (XOR-accumulate, unconditional
        // store): vectorizes, so the common no-op reconfiguration stays a
        // single fast pass and keeps the cached labeling untouched. Only
        // on a real change does the second pass mark the changed pins.
        let mut diff = 0u16;
        for i in 0..count {
            let pset = pset_of(i);
            debug_assert!((pset as usize) < count);
            diff |= self.pin_pset[base + i] ^ pset;
            self.pin_pset[base + i] = pset;
        }
        // Stuck pins win over the sweep; the gate keeps the healthy path
        // a single branch and the loop above vectorizable.
        if !self.stuck.is_empty() {
            self.reassert_stuck(v);
        }
        if diff != 0 {
            // Snapshot-compare marking: pins the re-assertion restored to
            // their pre-sweep (frozen) value are correctly left clean.
            self.mark_changed_pins(base, count);
            self.global_links.fill(false);
        }
    }

    /// Sets (`on`) or clears `v`'s bit in every link's `configured` set.
    /// Bulk writers call this before their sweep, so the stuck-pin
    /// re-assertion after it can re-mark what survives.
    fn mark_all_links(&mut self, v: usize, on: bool) {
        for set in &mut self.configured {
            if on {
                set.set(v);
            } else {
                set.clear(v);
            }
        }
    }

    /// The local partition set currently holding pin `(port, link)` of
    /// `v` — the read side of [`World::set_pin`]. Lets a dynamic-world
    /// oracle copy a configuration into a freshly rebuilt world.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pin is out of range.
    #[inline]
    pub fn pin_config(&self, v: usize, port: PortId, link: usize) -> u16 {
        self.pin_pset[self.pin_gid(v, (port, link))]
    }

    /// Resets `v` to the singleton configuration: pin `(port, link)` goes to
    /// partition set `port * c + link`, so no two pins share a set and every
    /// circuit through `v` connects exactly two neighbors.
    pub fn singleton_pin_config(&mut self, v: usize) {
        self.mark_all_links(v, false);
        self.fill_pin_config(v, |i| i as u16);
    }

    /// Puts all pins of `v` into partition set `0` (the *global circuit*
    /// configuration: if every amoebot does this, the whole structure forms
    /// one circuit).
    pub fn global_pin_config(&mut self, v: usize) {
        self.mark_all_links(v, true);
        self.fill_pin_config(v, |_| 0);
    }

    /// Groups the given pins of `v` into one partition set and returns its
    /// id. The id is the minimum singleton id (`port * c + link`) of the
    /// members, so disjoint groups never collide — concurrent primitives can
    /// partition a node's pins without central coordination.
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty.
    pub fn group_pins(&mut self, v: usize, pins: &[Pin]) -> u16 {
        let id = pins
            .iter()
            .map(|&(port, link)| (port * self.c + link) as u16)
            .min()
            .expect("group must contain at least one pin");
        for &(port, link) in pins {
            self.set_pin(v, port, link, id);
        }
        id
    }

    /// Dedicates `link` as a *global broadcast link* on `v`: all of `v`'s
    /// pins on this link join one partition set with the node-independent id
    /// [`World::global_link_pset`]`(link)`. If every node does this (and no
    /// primitive ever touches the reserved link), the link permanently
    /// carries one structure-spanning circuit — used for synchronization
    /// ("anyone still active?") and leader broadcasts without disturbing the
    /// pin configurations of concurrently running primitives.
    pub fn global_link_config(&mut self, v: usize, link: usize) {
        assert!(link < self.c, "link {link} out of range (c = {})", self.c);
        let id = Self::global_link_pset(link);
        let base = self.base[v] as usize;
        let count = self.pset_capacity(v);
        let has_stuck = !self.stuck.is_empty();
        // Only the pins on `link` move; other links keep their sets.
        let mut i = link;
        while i < count {
            if self.pin_pset[base + i] != id
                && !(has_stuck && self.stuck_index((base + i) as u32).is_ok())
            {
                self.pin_pset[base + i] = id;
                self.mark_pin_dirty(base + i, base as u32);
                self.mark_configured(v, i, id);
            }
            i += self.c;
        }
    }

    /// The partition-set id used by [`World::global_link_config`].
    #[inline]
    pub fn global_link_pset(link: usize) -> u16 {
        link as u16
    }

    /// [`World::global_link_config`] on every node, in ascending order —
    /// or nothing at all when `link` already holds the global-link
    /// configuration everywhere ([`World::global_link_holds`]): then every
    /// write would store the value the pin holds. Either way every pin on
    /// `link` ends up where the full sweep puts it, so the pin table and
    /// the dirty-pin sequence are those of the sweep. O(1) in the common
    /// case of repeated PASC runs on one reserved link.
    ///
    /// # Panics
    ///
    /// Panics if `link >= c`.
    pub fn global_link_config_all(&mut self, link: usize) {
        assert!(link < self.c, "link {link} out of range (c = {})", self.c);
        if self.global_links[link] {
            return;
        }
        for v in 0..self.topo.len() {
            self.global_link_config(v, link);
        }
        // A stuck pin the sweep skipped keeps the link from holding the
        // configuration everywhere. Node bases are multiples of `c`, so a
        // pin's link is its gid modulo `c`.
        let id = Self::global_link_pset(link);
        let c = self.c;
        self.global_links[link] = !self
            .stuck
            .iter()
            .any(|&(gid, pset)| gid as usize % c == link && pset != id);
    }

    /// Whether every pin on `link`, of every node, is known to hold the
    /// global-link partition set: set by [`World::global_link_config_all`]
    /// and cleared by any write that can move a pin on `link` — a
    /// [`World::set_pin`] there, the bulk singleton and global
    /// configurations, a reset that does not keep the link, a stuck pin
    /// on it, and [`World::add_node`]. Structure edits leave it alone: they
    /// move no pin.
    #[inline]
    pub fn global_link_holds(&self, link: usize) -> bool {
        self.global_links[link]
    }

    /// Resets all pins of `v` to singletons except those on the listed
    /// (reserved) links, which are left untouched. Primitives call this when
    /// taking over a node so stale partition sets from earlier phases cannot
    /// leak circuits into the new configuration.
    pub fn reset_pins_keeping_links(&mut self, v: usize, keep: &[usize]) {
        let base = self.base[v] as usize;
        let count = self.pset_capacity(v);
        let c = self.c;
        let mut diff = 0u16;
        // Pin with local index `port * c + link` sits on link `link`; walk
        // port-major so the link test stays out of the modulo operator.
        let mut i = 0;
        while i < count {
            for link in 0..c {
                if !keep.contains(&link) {
                    let pset = (i + link) as u16;
                    diff |= self.pin_pset[base + i + link] ^ pset;
                    self.pin_pset[base + i + link] = pset;
                }
            }
            i += c;
        }
        for link in 0..c {
            if !keep.contains(&link) {
                self.configured[link].clear(v);
                self.global_links[link] = false;
            }
        }
        if !self.stuck.is_empty() {
            self.reassert_stuck(v);
        }
        if diff != 0 {
            self.mark_changed_pins(base, count);
        }
    }

    /// [`World::reset_pins_keeping_links`] over *every* node: the
    /// per-phase "drop all stale groups" sweep the algorithm layer runs
    /// between phases, as one call. Only the pins that actually move are
    /// marked dirty, so after a phase that reconfigured a small region the
    /// next relabel still only touches that region.
    ///
    /// The sweep visits only the nodes marked in the `configured` set of
    /// some link outside `keep`, in ascending order. Every other node
    /// holds singletons on those links already, so resetting it would
    /// change nothing: the pin table and the dirty-pin sequence come out
    /// exactly as a reset of every node leaves them. Cost is
    /// O(c · n / 64) word reads plus the visited nodes, instead of
    /// O(total pins); the visits accumulate in the `reset_nodes` counter
    /// (see [`World::reset_nodes`]).
    pub fn reset_all_pins_keeping_links(&mut self, keep: &[usize]) {
        let mut visited = 0u64;
        for wi in 0..self.topo.len().div_ceil(64) {
            let mut word = 0u64;
            for link in 0..self.c {
                if !keep.contains(&link) {
                    word |= self.configured[link].word(wi);
                }
            }
            while word != 0 {
                let v = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.reset_pins_keeping_links(v, keep);
                visited += 1;
            }
        }
        // Registered on first use, so worlds that never run a phase
        // reset keep their metrics and snapshots as they were.
        if visited > 0 {
            self.stats.metrics.add_named(RESET_NODES, visited);
        }
    }

    /// Nodes visited by [`World::reset_all_pins_keeping_links`] so far:
    /// the regression guard that a phase reset stays proportional to
    /// what the phases configured, not to the structure size. Reads the
    /// registry's `reset_nodes` counter (0 until the first visit).
    pub fn reset_nodes(&self) -> u64 {
        self.stats.metrics.counter_value(RESET_NODES)
    }

    // ---- Stuck-at pin faults (the adversary's hardware-fault overlay).

    /// Position of `gid` in the sorted stuck-pin list.
    #[inline]
    fn stuck_index(&self, gid: u32) -> Result<usize, usize> {
        self.stuck.binary_search_by_key(&gid, |&(g, _)| g)
    }

    /// Restores the frozen value of every stuck pin of `v` after a bulk
    /// sweep overwrote its pins. Restoration needs no dirty marking of
    /// its own: it returns pins to their pre-sweep value, and the
    /// callers' snapshot-compare marking decides what actually changed.
    /// It does re-mark `configured`, which the sweep may have cleared.
    #[cold]
    #[inline(never)]
    fn reassert_stuck(&mut self, v: usize) {
        let (base, end) = (self.base[v] as usize, self.base[v + 1] as usize);
        let start = self.stuck.partition_point(|&(g, _)| (g as usize) < base);
        for i in start..self.stuck.len() {
            let (gid, pset) = self.stuck[i];
            if gid as usize >= end {
                break;
            }
            self.pin_pset[gid as usize] = pset;
            self.mark_configured(v, gid as usize - base, pset);
        }
    }

    /// Freezes pin `(port, link)` of `v` at partition set `pset`: the pin
    /// moves there now (through the normal dirty-pin path) and every
    /// later write — single or bulk — is dropped at the pin until
    /// [`World::unstick_pin`] / [`World::release_stuck_pins`]. Sticking
    /// an already-stuck pin re-freezes it at the new value.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v` (real check, as in
    /// [`World::set_pin`]), or — in debug builds — if the pin is.
    pub fn stick_pin(&mut self, v: usize, port: PortId, link: usize, pset: u16) {
        let gid = self.pin_gid(v, (port, link));
        let cap = self.pset_capacity(v);
        if (pset as usize) >= cap {
            Self::pset_out_of_range(v, pset, cap);
        }
        if self.pin_pset[gid] != pset {
            self.pin_pset[gid] = pset;
            self.mark_pin_dirty(gid, self.base[v]);
            self.mark_configured(v, port * self.c + link, pset);
        }
        // Bulk writes skip a stuck pin, so it may keep the link from
        // ever holding the global configuration everywhere.
        self.global_links[link] = false;
        match self.stuck_index(gid as u32) {
            Ok(i) => self.stuck[i].1 = pset,
            Err(i) => self.stuck.insert(i, (gid as u32, pset)),
        }
    }

    /// Releases the stuck-at fault on pin `(port, link)` of `v` (the pin
    /// keeps its frozen value until something rewrites it). Returns
    /// whether the pin was stuck.
    pub fn unstick_pin(&mut self, v: usize, port: PortId, link: usize) -> bool {
        let gid = self.pin_gid(v, (port, link)) as u32;
        match self.stuck_index(gid) {
            Ok(i) => {
                self.stuck.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Releases every stuck-at fault at once (the "burst ends" operation
    /// of a fault plan) and returns how many were armed. Pins keep their
    /// frozen values until rewritten.
    pub fn release_stuck_pins(&mut self) -> usize {
        let n = self.stuck.len();
        self.stuck.clear();
        n
    }

    /// Number of currently stuck pins.
    #[inline]
    pub fn stuck_pin_count(&self) -> usize {
        self.stuck.len()
    }

    /// Whether pin `(port, link)` of `v` is frozen by a stuck-at fault.
    pub fn pin_is_stuck(&self, v: usize, port: PortId, link: usize) -> bool {
        self.stuck_index(self.pin_gid(v, (port, link)) as u32)
            .is_ok()
    }

    /// Resolves `v`'s local partition set `pset` to the global id space
    /// that [`TickFaults`] targets — the public spelling of the engine's
    /// internal gid resolution, for fault plans choosing where to drop or
    /// inject beeps.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v` (also in release builds).
    #[inline]
    pub fn pset_global_id(&self, v: usize, pset: u16) -> u32 {
        self.pset_gid(v, pset) as u32
    }

    /// Total beeps the adversary suppressed so far (thin wrapper over the
    /// registry's `fault_drops` counter).
    #[inline]
    pub fn fault_drops(&self) -> u64 {
        self.stats.metrics.get(self.stats.fault_drops)
    }

    /// Total beeps the adversary spuriously injected so far (wrapper over
    /// the registry's `fault_injects` counter).
    #[inline]
    pub fn fault_injects(&self) -> u64 {
        self.stats.metrics.get(self.stats.fault_injects)
    }

    /// Makes `v` beep on its local partition set `pset` this round.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v` (also in release builds).
    #[inline]
    pub fn beep(&mut self, v: usize, pset: u16) {
        let gid = self.pset_gid(v, pset);
        if !self.send.get(gid) {
            self.send.set(gid);
            self.sent.push(gid as u32);
            self.beeps_sent += 1;
        }
    }

    /// Whether `v`'s partition set `pset` received a beep delivered at the
    /// beginning of the current round.
    ///
    /// A tick delivers to circuits: it records the roots of the circuits
    /// it delivered to and writes no receive bit. The first call after a
    /// tick writes those pending deliveries, one bit per member of each
    /// delivered circuit; every later call is one bit read.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v` (also in release builds).
    #[inline]
    pub fn received(&mut self, v: usize, pset: u16) -> bool {
        let gid = self.pset_gid(v, pset);
        self.write_deliveries();
        self.recv.get(gid)
    }

    /// Whether any partition set of `v` received a beep this round
    /// (word-at-a-time over the packed receive flags). Like
    /// [`World::received`], the first call after a tick writes the
    /// pending deliveries.
    pub fn received_any(&mut self, v: usize) -> bool {
        self.write_deliveries();
        self.recv
            .any_in_range(self.base[v] as usize, self.base[v + 1] as usize)
    }

    /// Writes the pending deliveries of the last tick, if any, into
    /// `recv`/`recv_set` (see [`World::write_pending`]).
    #[inline]
    fn write_deliveries(&mut self) {
        if !self.marked_roots.is_empty() {
            self.write_pending();
        }
    }

    /// Writes every member of each circuit in the delivery record into
    /// `recv`/`recv_set`, bucket by bucket in delivery order, and empties
    /// the record. O(members delivered), paid once per round and only
    /// by a world that reads or relabels before its next tick.
    #[inline(never)]
    fn write_pending(&mut self) {
        for i in 0..self.marked_roots.len() {
            let root = self.marked_roots[i] as usize;
            self.root_mark.clear(root);
            for j in self.member_off[root] as usize..self.member_end[root] as usize {
                let gid = self.members[j];
                self.recv.set(gid as usize);
                self.recv_set.push(gid);
            }
        }
        self.marked_roots.clear();
    }

    /// Forgets the last round's deliveries, written or pending: the
    /// pending ones are dropped unwritten. O(written deliveries +
    /// delivered circuits).
    fn clear_deliveries(&mut self) {
        for &root in &self.marked_roots {
            self.root_mark.clear(root as usize);
        }
        self.marked_roots.clear();
        for &gid in &self.recv_set {
            self.recv.clear(gid as usize);
        }
        self.recv_set.clear();
    }

    /// The last round's deliveries in delivery order, written or pending
    /// (at most one of the two is non-empty), as a read would write them.
    pub(crate) fn deliveries(&self) -> impl Iterator<Item = u32> + '_ {
        let pending = self
            .marked_roots
            .iter()
            .flat_map(|&root| self.member_bucket(root as usize).iter().copied());
        self.recv_set.iter().copied().chain(pending)
    }

    /// The number of [`World::deliveries`]: O(delivered circuits) while
    /// they are pending.
    pub(crate) fn delivery_count(&self) -> usize {
        let pending: usize = self
            .marked_roots
            .iter()
            .map(|&root| self.member_bucket(root as usize).len())
            .sum();
        self.recv_set.len() + pending
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.uf[x as usize] != x {
            let gp = self.uf[self.uf[x as usize] as usize];
            self.uf[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Union by id keeps it deterministic; depth is tamed by halving.
            if ra < rb {
                self.uf[rb as usize] = ra;
            } else {
                self.uf[ra as usize] = rb;
            }
        }
    }

    /// Whether a read ([`World::circuit_count`], [`World::pset_circuit`])
    /// would have to relabel first: some pin's partition set changed
    /// since the last absorb, or some set is stale (never labelled,
    /// invalidated by [`World::tick_reference`], or staled by an absorb
    /// and not walked since). No-op reconfigurations — writes that store
    /// the value a pin already has — never make this true.
    #[inline]
    pub fn relabel_pending(&self) -> bool {
        self.stale_count > 0 || !self.dirty_pins.is_empty()
    }

    /// How many global (full union-find + membership rebuild) relabels
    /// have run. Diagnostic, pinned by tests together with
    /// [`World::region_relabels`] so the scoped pass cannot silently
    /// degrade into always-global. Thin wrapper over the telemetry
    /// registry's `relabel_global` counter (see [`World::metrics`]).
    #[inline]
    pub fn global_relabels(&self) -> u64 {
        self.stats.metrics.get(self.stats.relabel_global)
    }

    /// How many scoped label-everything passes have run: passes that
    /// walked every stale circuit instead of relabelling globally (see
    /// [`World::relabel_pending`] and the module docs). Thin wrapper over
    /// the registry's `relabel_region` counter.
    #[inline]
    pub fn region_relabels(&self) -> u64 {
        self.stats.metrics.get(self.stats.relabel_region)
    }

    /// How many stale circuits ticks have labelled by walking them (see
    /// the module docs). Reads the registry's `relabel_walk`
    /// counter, which is registered on the first walk (0 until then).
    pub fn walk_relabels(&self) -> u64 {
        self.stats.metrics.counter_value(RELABEL_WALK)
    }

    /// The engine's telemetry registry: relabel counters plus — when the
    /// driving [`Recorder`] has `TIMED = true` — the tick's wall-time
    /// histogram (`phase_propagate_micros`).
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.stats.metrics
    }

    /// Labels everything: absorbs the dirty pins and walks every stale
    /// circuit while both stay within the fallback fraction, runs the
    /// global relabel otherwise (see [`REGION_FALLBACK_FRACTION`]). The
    /// choice reads the dirty count and the stale mass, nothing else.
    /// Every path starts with an absorb or a global relabel, which write
    /// pending deliveries before the walks.
    fn refresh_labels(&mut self) {
        let threshold = self.labels.len() / REGION_FALLBACK_FRACTION;
        if self.dirty_pins.len() <= threshold {
            self.absorb_dirty();
            if self.stale_count <= threshold {
                self.walk_stale();
                return;
            }
        }
        self.relabel_global();
    }

    /// Marks every partition set stale (nothing is labelled or counted),
    /// so the next read relabels globally. Construction and
    /// [`World::tick_reference`] start here: a tick then walks only the
    /// circuits it delivers on. Writes pending deliveries first, as does
    /// everything that changes labels or buckets.
    fn stale_everything(&mut self) {
        self.write_deliveries();
        let total = self.labels.len();
        self.stale.set_first(total);
        self.stale_count = total;
        self.circuit_roots.clear_all();
        self.cached_circuits = 0;
    }

    /// Absorbs the dirty pins: an absorb of at most the fallback
    /// fraction of them repairs the circuits they touch when the repair
    /// certifies its result ([`crate::repair`]); otherwise it moves the
    /// labelled circuits of each dirty pin's old and new partition set
    /// into the stale set (a pin's peer circuits are covered
    /// transitively: the old union along the edge put the peer's set in
    /// the same old circuit as this pin's old set). Afterwards the stale
    /// sets are again whole circuits of the current configuration, and
    /// the dirty list and the cut record are empty. Writes pending
    /// deliveries first: the absorb changes labels and buckets, and its
    /// repair borrows `root_mark`.
    fn absorb_dirty(&mut self) {
        self.write_deliveries();
        let repaired = self.dirty_pins.len() <= self.labels.len() / REGION_FALLBACK_FRACTION
            && self.repair_dirty();
        for i in 0..self.dirty_pins.len() {
            let (pin, node_base) = self.dirty_pins[i];
            let pin = pin as usize;
            if !repaired {
                let old_gid = node_base as usize + self.pset_at_relabel[pin] as usize;
                let new_gid = node_base as usize + self.pin_pset[pin] as usize;
                for gid in [old_gid, new_gid] {
                    if !self.stale.get(gid) {
                        self.stale_circuit(self.labels[gid] as usize);
                    }
                }
            }
            self.pset_at_relabel[pin] = self.pin_pset[pin];
            self.dirty_pin.clear(pin);
        }
        self.dirty_pins.clear();
        self.cuts.clear();
    }

    /// Moves the labelled circuit rooted at `root` into the stale set and
    /// drops it from the circuit count.
    fn stale_circuit(&mut self, root: usize) {
        if self.circuit_roots.get(root) {
            self.circuit_roots.clear(root);
            self.cached_circuits -= 1;
        }
        let (off, end) = (
            self.member_off[root] as usize,
            self.member_end[root] as usize,
        );
        for j in off..end {
            self.stale.set(self.members[j] as usize);
        }
        self.stale_count += end - off;
    }

    /// Labels the stale circuit of `start` by walking it under the current
    /// pins and topology: one peer lookup per port whose pins touch the
    /// visited set, all links of that port handled together. The circuit
    /// gets its minimum gid as label, a fresh ascending bucket at the end
    /// of the arena, and counts iff some pin references one of its sets.
    /// Requires the dirty pins absorbed: only then is every set a walk
    /// reaches stale, so walks never cross into labelled circuits.
    ///
    /// Debug builds check that closure invariant: every visited set gets
    /// the provisional label `start`, so a reached set that is neither
    /// stale nor labelled `start` belongs to a labelled circuit (whose
    /// root is a labelled set, never the stale `start`).
    fn walk_circuit(&mut self, start: u32) {
        debug_assert!(self.dirty_pins.is_empty() && self.stale.get(start as usize));
        let c = self.c;
        self.walk.clear();
        self.stale.clear(start as usize);
        if cfg!(debug_assertions) {
            self.labels[start as usize] = start;
        }
        self.walk.push((start, self.node_of_gid(start) as u32));
        let mut referenced = false;
        let mut i = 0;
        while i < self.walk.len() {
            let (gid, v) = self.walk[i];
            i += 1;
            let v = v as usize;
            let node_base = self.base[v] as usize;
            let local = (gid as usize - node_base) as u16;
            for p in 0..self.topo.ports_len(v) {
                let pins = node_base + p * c;
                if !self.pin_pset[pins..pins + c].contains(&local) {
                    continue;
                }
                referenced = true;
                let Some((w, q)) = self.topo.peer(v, p) else {
                    continue;
                };
                let peer_base = self.base[w] as usize;
                let peer_pins = peer_base + q * c;
                for link in 0..c {
                    if self.pin_pset[pins + link] == local {
                        let g = peer_base + self.pin_pset[peer_pins + link] as usize;
                        if self.stale.get(g) {
                            self.stale.clear(g);
                            if cfg!(debug_assertions) {
                                self.labels[g] = start;
                            }
                            self.walk.push((g as u32, w as u32));
                        } else {
                            debug_assert_eq!(
                                self.labels[g], start,
                                "a walk crossed into a labelled circuit"
                            );
                        }
                    }
                }
            }
        }
        let size = self.walk.len();
        self.stale_count -= size;
        let root = self.walk.iter().map(|&(g, _)| g).min().unwrap_or(start);
        for j in 0..size {
            self.labels[self.walk[j].0 as usize] = root;
        }
        let root = root as usize;
        if self.members.len() + size > 2 * self.labels.len() {
            // The repack packs every labelled set, this circuit included.
            self.rebuild_members();
        } else {
            let off = self.members.len();
            self.members.extend(self.walk.iter().map(|&(g, _)| g));
            self.members[off..].sort_unstable();
            self.member_off[root] = off as u32;
            self.member_end[root] = (off + size) as u32;
            self.member_digest_epoch[root] = 0;
        }
        if referenced && !self.circuit_roots.get(root) {
            self.circuit_roots.set(root);
            self.cached_circuits += 1;
        }
    }

    /// The owner node of pin/partition-set `gid` (binary search over the
    /// base offsets; zero-pin nodes collapse onto the same offset, and the
    /// search lands past all of them).
    #[inline]
    pub(crate) fn node_of_gid(&self, gid: u32) -> usize {
        self.base.partition_point(|&b| b <= gid) - 1
    }

    /// Labels every stale circuit by walking it ([`World::walk_circuit`])
    /// in ascending gid order: the first stale gid the scan meets is its
    /// circuit's minimum, so buckets land in ascending root order. Counts
    /// one `relabel_region`; its walks do not count in `relabel_walk`,
    /// which counts the circuits ticks walked. Requires the dirty pins
    /// absorbed.
    fn walk_stale(&mut self) {
        // Walks only clear stale bits, so every word before `word` stays
        // clear once the scan has passed it.
        let mut word = 0;
        while self.stale_count > 0 {
            let bits = self.stale.word(word);
            if bits == 0 {
                word += 1;
            } else {
                self.walk_circuit(word as u32 * 64 + bits.trailing_zeros());
            }
        }
        self.stats.metrics.inc(self.stats.relabel_region);
    }

    /// Fully repacks the membership arena from `labels`: counting sort
    /// into contiguous ascending buckets, one slot per labelled gid
    /// (stale gids' labels are garbage and stay out of every bucket).
    pub(crate) fn rebuild_members(&mut self) {
        // Every bucket moves: invalidate all cached delivery digests in
        // O(1) by bumping the epoch. On the (theoretical) u32 wrap,
        // clear the stamps so a stale cache can never alias the new
        // epoch.
        self.digest_epoch = self.digest_epoch.wrapping_add(1);
        if self.digest_epoch == 0 {
            self.member_digest_epoch.fill(0);
            self.digest_epoch = 1;
        }
        let total = self.labels.len();
        let skip_stale = self.stale_count > 0;
        self.member_end.fill(0);
        for gid in 0..total {
            if !(skip_stale && self.stale.get(gid)) {
                self.member_end[self.labels[gid] as usize] += 1;
            }
        }
        let mut acc = 0u32;
        for r in 0..total {
            let size = self.member_end[r];
            self.member_off[r] = acc;
            self.member_end[r] = acc;
            acc += size;
        }
        self.members.clear();
        self.members.resize(acc as usize, 0);
        for gid in 0..total as u32 {
            if !(skip_stale && self.stale.get(gid as usize)) {
                let r = self.labels[gid as usize] as usize;
                self.members[self.member_end[r] as usize] = gid;
                self.member_end[r] += 1;
            }
        }
    }

    /// Recomputes the circuit labeling, the membership index and the
    /// circuit count from scratch, leaving nothing stale. O(total pins ·
    /// α) with zero allocations; the escape hatch when the stale set is
    /// large (or everything, after [`World::tick_reference`]). Writes
    /// pending deliveries first.
    fn relabel_global(&mut self) {
        self.write_deliveries();
        let total = self.labels.len();
        for i in 0..total {
            self.uf[i] = i as u32;
        }
        // Union partition sets along every external link: each edge once,
        // from the port slot of its lower endpoint, straight off the
        // topology's slot arrays.
        let c = self.c as u32;
        for v in 0..self.topo.len() {
            let (start, end) = (self.topo.offsets[v], self.topo.offsets[v + 1]);
            let base_a = self.base[v];
            for slot in start..end {
                let w = self.topo.peer_node[slot as usize];
                if w == NONE || (w as usize) < v {
                    continue;
                }
                let base_b = self.base[w as usize];
                let a0 = base_a + (slot - start) * c;
                let b0 = base_b + self.topo.peer_port[slot as usize] * c;
                for link in 0..c {
                    let pa = base_a + self.pin_pset[(a0 + link) as usize] as u32;
                    let pb = base_b + self.pin_pset[(b0 + link) as usize] as u32;
                    self.union(pa, pb);
                }
            }
        }
        for gid in 0..total as u32 {
            let root = self.find(gid);
            self.labels[gid as usize] = root;
        }
        self.stale.clear_all();
        self.stale_count = 0;
        self.rebuild_members();
        // Circuit count: distinct roots among partition sets that some pin
        // actually references (empty sets are not circuits). The marks
        // persist so absorbs and walks can maintain the count incrementally.
        self.circuit_roots.clear_all();
        let mut count = 0usize;
        for v in 0..self.topo.len() {
            let node_base = self.base[v];
            for p in node_base..self.base[v + 1] {
                let pset_gid = node_base + self.pin_pset[p as usize] as u32;
                let root = self.labels[pset_gid as usize] as usize;
                if !self.circuit_roots.get(root) {
                    self.circuit_roots.set(root);
                    count += 1;
                }
            }
        }
        self.cached_circuits = count;
        self.pset_at_relabel.copy_from_slice(&self.pin_pset);
        for i in 0..self.dirty_pins.len() {
            self.dirty_pin.clear(self.dirty_pins[i].0 as usize);
        }
        self.dirty_pins.clear();
        self.cuts.clear();
        self.stats.metrics.inc(self.stats.relabel_global);
    }

    /// Feeds the world's complete current wiring to `rec` as its
    /// recording header: links per edge, per-node port counts, and each
    /// edge once, from its lower endpoint, in node and port order. A
    /// recording opens with it, before any tick or structure edit is
    /// recorded. Compiles away unless `R::TRACE`.
    pub fn record_topology<R: Recorder>(&self, rec: &mut R) {
        if !R::TRACE {
            return;
        }
        let n = self.topo.len();
        let node_ports: Vec<u32> = (0..n).map(|v| self.topo.ports_len(v) as u32).collect();
        let mut edges = Vec::with_capacity(self.topo.edge_count());
        for v in 0..n {
            for (p, w, q) in self.topo.neighbors(v) {
                if v < w {
                    edges.push((v as u32, p as u32, w as u32, q as u32));
                }
            }
        }
        rec.topology(self.c as u32, &node_ports, &edges);
    }

    /// Executes one synchronous round: circuits are computed from the current
    /// pin configurations (reusing the cached labeling if no pin changed,
    /// and labelling only the circuits a beep is delivered on), beeps sent
    /// via [`World::beep`] are delivered to every partition set of their
    /// circuit, and the round counter advances. The delivery is recorded
    /// per circuit; [`World::received`] writes it on the first read.
    pub fn tick(&mut self) {
        self.tick_with(&mut NullRecorder);
    }

    /// [`World::tick`] with a telemetry [`Recorder`] attached. Every
    /// emission and timing site is gated on the recorder's associated
    /// consts, so `tick()` (= `tick_with(&mut NullRecorder)`) pays for
    /// none of it after monomorphization.
    ///
    /// Every recorder's tick labels the same way: it absorbs the dirty
    /// pins and walks only the stale circuits it delivers on. With
    /// `R::TRACE` the recorder also sees, in order: the net pin-config
    /// deltas since the last absorb (read off the dirty-pin list before
    /// the absorb consumes it — intermediate writes between ticks are not
    /// observable, by design), the beeping gids, and a [`RoundSummary`]
    /// carrying an order-independent delivery digest (XOR of [`mix64`]
    /// over every delivered gid). Replay recomputes the digest from its
    /// own labeling, so any divergence in circuit structure or delivery
    /// surfaces at the exact round. The delta stream and the digest are
    /// the expensive, replay-grade half and are further gated on
    /// `R::REPLAY`: windowed sinks (the flight recorder) opt out and
    /// their summaries carry `digest = 0`.
    ///
    /// Recording soundness: the trace captures pin changes only at tick
    /// time, so between recorded ticks the caller must not absorb them
    /// through diagnostic paths ([`World::circuit_count`],
    /// [`World::pset_circuit`]), unrecorded ticks or
    /// [`World::tick_reference`] — those consume dirty pins without
    /// emitting deltas.
    pub fn tick_with<R: Recorder>(&mut self, rec: &mut R) {
        self.tick_impl::<R, false>(&TickFaults::EMPTY, rec);
    }

    /// [`World::tick_with`] under an adversary: `faults.inject` gids are
    /// forced to beep before delivery and `faults.drop` gids' beeps are
    /// suppressed on the wire. Both lists must be sorted ascending (see
    /// [`TickFaults`]). With [`TickFaults::EMPTY`] this is byte-identical
    /// to [`World::tick_with`] — same monomorphized engine, fault arm
    /// compiled out — which the fault differential suite pins.
    ///
    /// Trace semantics: injections are recorded as ordinary beeps plus a
    /// `FaultInject` attribution; drops keep their `Beep` record (the
    /// send happened — the adversary ate it) plus a `FaultDrop` record
    /// that replay uses to exclude the gid from delivery.
    ///
    /// # Panics
    ///
    /// Panics if an injected gid is outside the world's gid space.
    pub fn tick_faulted<R: Recorder>(&mut self, faults: &TickFaults, rec: &mut R) {
        self.tick_impl::<R, true>(faults, rec);
    }

    /// The single tick engine behind [`World::tick`], [`World::tick_with`]
    /// and [`World::tick_faulted`]. `FAULTED` gates the adversary arms at
    /// monomorphization, exactly like `R::TRACE` gates emission — the
    /// healthy paths carry no fault checks at all.
    fn tick_impl<R: Recorder, const FAULTED: bool>(&mut self, faults: &TickFaults, rec: &mut R) {
        // Last round's deliveries go first, so the absorb below has no
        // pending ones to write.
        self.clear_deliveries();
        if FAULTED {
            for &gid in &faults.inject {
                assert!(
                    (gid as usize) < self.pin_pset.len(),
                    "injected beep gid {gid} outside the pin space"
                );
                if !self.send.get(gid as usize) {
                    self.send.set(gid as usize);
                    self.sent.push(gid);
                    self.beeps_sent += 1;
                    self.stats.metrics.inc(self.stats.fault_injects);
                    if R::TRACE {
                        rec.event(TraceEvent::FaultInject { gid });
                    }
                }
            }
        }
        let mut digest = 0u64;
        if R::TRACE {
            if R::REPLAY {
                // Net config deltas since the last absorb, captured
                // before the absorb consumes the dirty-pin list. This
                // stream is O(dirty pins) per tick — replay-grade
                // detail, skipped for windowed sinks like the flight
                // recorder so "armed" stays cheap under heavy
                // reconfiguration.
                for i in 0..self.dirty_pins.len() {
                    let gid = self.dirty_pins[i].0;
                    let pset = self.pin_pset[gid as usize];
                    rec.event(TraceEvent::ConfigDelta { gid, pset });
                }
            }
            for &gid in &self.sent {
                rec.event(TraceEvent::Beep { gid });
                if R::REPLAY {
                    digest ^= mix64(gid as u64 ^ BEEP_DIGEST_SALT);
                }
            }
        }
        let beeps = self.sent.len() as u32;
        let t_propagate = if R::TIMED {
            Some(Stopwatch::start())
        } else {
            None
        };
        // Absorbs and walks are timed as part of propagation.
        if !self.dirty_pins.is_empty() {
            self.absorb_dirty();
        }
        let mut walks = 0u64;
        // Dedup the beeping circuits (O(beeps sent)), walking the stale
        // ones first. The marked roots are the round's delivery record.
        for i in 0..self.sent.len() {
            let gid = self.sent[i];
            self.send.clear(gid as usize);
            if FAULTED && faults.drop.binary_search(&gid).is_ok() {
                // Suppressed on the wire: the beep counted as sent (and
                // went into the salted digest term above) but marks no
                // circuit for delivery.
                self.stats.metrics.inc(self.stats.fault_drops);
                if R::TRACE {
                    rec.event(TraceEvent::FaultDrop { gid });
                }
                continue;
            }
            if self.stale.get(gid as usize) {
                self.walk_circuit(gid);
                walks += 1;
            }
            let root = self.labels[gid as usize] as usize;
            if !self.root_mark.get(root) {
                self.root_mark.set(root);
                self.marked_roots.push(root as u32);
            }
        }
        self.sent.clear();
        // Registered on first use, so worlds that never walk keep their
        // metrics as they were.
        if walks > 0 {
            self.stats.metrics.add_named(RELABEL_WALK, walks);
        }
        if R::TRACE && R::REPLAY {
            for i in 0..self.marked_roots.len() {
                digest ^= self.circuit_digest(self.marked_roots[i] as usize).0;
            }
        }
        if let Some(t) = t_propagate {
            self.stats
                .metrics
                .observe(self.stats.t_propagate, t.micros());
        }
        self.rounds += 1;
        if R::TRACE {
            rec.event(TraceEvent::RoundEnd(RoundSummary {
                round: self.rounds,
                beeps,
                delivered: self.delivery_count() as u64,
                digest,
            }));
        }
    }

    /// The pre-refactor engine: one synchronous round via a full union-find
    /// rebuild over every pin in the structure, exactly as `tick` worked
    /// before the incremental engine. Kept as the reference semantics for
    /// differential tests and as the baseline of the `circuit_engine`
    /// benches. Interchangeable with [`World::tick`] round for round.
    pub fn tick_reference(&mut self) {
        // Last round's pending deliveries are dropped unwritten.
        self.clear_deliveries();
        let total = self.pin_pset.len();
        for i in 0..total {
            self.uf[i] = i as u32;
        }
        // Union partition sets along every external link.
        for v in 0..self.topo.len() {
            // Visit each undirected edge once.
            let ports: Vec<(PortId, usize, PortId)> = self.topo.neighbors(v).collect();
            for (p, w, q) in ports {
                if v < w {
                    for link in 0..self.c {
                        let a = self.base[v] as usize + p * self.c + link;
                        let b = self.base[w] as usize + q * self.c + link;
                        let pa = self.base[v] + self.pin_pset[a] as u32;
                        let pb = self.base[w] + self.pin_pset[b] as u32;
                        self.union(pa, pb);
                    }
                }
            }
        }
        // Deliver beeps: a circuit beeps iff any of its partition sets sent.
        let mut fresh = vec![false; total];
        for gid in 0..total as u32 {
            if self.send.get(gid as usize) {
                let root = self.find(gid);
                fresh[root as usize] = true;
            }
        }
        for gid in 0..total as u32 {
            let root = self.find(gid);
            let delivered = fresh[root as usize];
            if delivered {
                self.recv.set(gid as usize);
                // Keep the incremental engine's delivery bookkeeping in
                // sync so the two tick flavors can be interleaved.
                self.recv_set.push(gid);
            } else {
                self.recv.clear(gid as usize);
            }
        }
        // Set send bits are always a subset of the dense `sent` list, so
        // clearing through the list clears them all.
        for &gid in &self.sent {
            self.send.clear(gid as usize);
        }
        self.sent.clear();
        // This path clobbers `uf` without refreshing `labels`, so every
        // set goes stale: the next tick walks what it delivers on, the
        // next read relabels globally.
        self.stale_everything();
        self.rounds += 1;
    }

    /// Number of distinct circuits under the current pin configuration
    /// (diagnostic; does not advance the round counter). Served from the
    /// cached labeling; labels everything first if anything is stale or
    /// dirty.
    pub fn circuit_count(&mut self) -> usize {
        if self.relabel_pending() {
            self.refresh_labels();
        }
        self.cached_circuits
    }

    /// The circuit label (minimum member gid) of `v`'s partition set
    /// `pset` under the current configuration. Two partition sets lie on
    /// the same circuit iff their labels are equal — the diagnostic the
    /// dynamic-structure oracle uses to compare an incrementally edited
    /// world against a from-scratch rebuild. Labels everything first if
    /// a relabel is pending; does not advance the round counter.
    ///
    /// # Panics
    ///
    /// Panics if `pset` is out of range for `v`.
    pub fn pset_circuit(&mut self, v: usize, pset: u16) -> u32 {
        if self.relabel_pending() {
            self.refresh_labels();
        }
        let gid = self.pset_gid(v, pset);
        self.labels[gid]
    }

    // ---- Structure mutation (dynamic worlds).
    //
    // All four operations keep the cached labeling machinery sound by
    // construction: `add_node` pre-labels its fresh singletons (nothing
    // to relabel), while `connect`/`disconnect` mark the `c` pin pairs of
    // the edge dirty *as if* their partition sets had changed — the next
    // absorb then repairs or stales exactly the circuits that run(ran)
    // through the edge, and a walk or relabel re-labels stale ones
    // against the spliced topology. A disconnect also records its cut
    // pin pairs: the repair's certificate needs every removed link
    // union.
    // The stability argument of DESIGN.md §1c extends verbatim: every
    // added or removed link-union has both endpoint sets' circuits
    // seeded, so circuits disjoint from the seeds cannot change.

    /// Appends an isolated node with `ports` vacant port slots and
    /// returns its id. Its pins start in the singleton configuration,
    /// already labelled (one counted singleton circuit per pin), so the
    /// cached labeling stays valid and no relabel is triggered.
    pub fn add_node(&mut self, ports: usize) -> usize {
        self.add_node_with(ports, &mut NullRecorder)
    }

    /// [`World::add_node`] with the append recorded. This is the single
    /// implementation; the plain form is a [`NullRecorder`] wrapper, so
    /// the emission gate below compiles away there.
    pub fn add_node_with<R: Recorder>(&mut self, ports: usize, rec: &mut R) -> usize {
        if R::TRACE {
            rec.event(TraceEvent::AddNode {
                ports: ports as u32,
            });
        }
        let v = self.topo.push_node(ports);
        let old_total = *self.base.last().expect("base always non-empty") as usize;
        let added = ports * self.c;
        let new_total = old_total + added;
        self.base.push(new_total as u32);
        for i in 0..added {
            self.pin_pset.push(i as u16);
            self.pset_at_relabel.push(i as u16);
        }
        for gid in old_total..new_total {
            self.uf.push(gid as u32);
            self.labels.push(gid as u32);
            // A fresh singleton bucket at the end of the arena; the next
            // repack folds it in with everything else.
            let pos = self.members.len() as u32;
            self.members.push(gid as u32);
            self.member_off.push(pos);
            self.member_end.push(pos + 1);
            self.member_digest.push(0);
            self.member_digest_epoch.push(0);
        }
        self.send.grow(new_total);
        self.recv.grow(new_total);
        self.root_mark.grow(new_total);
        self.dirty_pin.grow(new_total);
        self.stale.grow(new_total);
        self.circuit_roots.grow(new_total);
        // Fresh pins are singletons: the node starts unmarked, and its
        // pins on ports past the first break any global link.
        for set in &mut self.configured {
            set.ensure_len(self.topo.len());
        }
        self.global_links.fill(false);
        // Keep the construction-time worst-case reservations of the dense
        // scratch lists in step with the grown pin space, so the "ticks
        // never reallocate" invariant survives growth (the realloc lands
        // here, outside the hot tick path).
        for dense in [&mut self.sent, &mut self.recv_set, &mut self.marked_roots] {
            if dense.capacity() < new_total {
                let len = dense.len();
                dense.reserve(new_total - len);
            }
        }
        if self.dirty_pins.capacity() < new_total {
            let len = self.dirty_pins.len();
            self.dirty_pins.reserve(new_total - len);
        }
        // Each fresh singleton set is referenced by its own pin: it is a
        // circuit, counted immediately so the cached count stays exact.
        for gid in old_total..new_total {
            self.circuit_roots.set(gid);
        }
        self.cached_circuits += added;
        v
    }

    /// Wires an edge (with its `c` external links) into the vacant ports
    /// `(v, p)` and `(w, q)`, marking the edge's pins dirty so the next
    /// relabel merges the circuits it now bridges. O(deg + c).
    ///
    /// # Panics
    ///
    /// Panics on an edge that breaks the edge rule
    /// ([`Topology::check_edge`]).
    pub fn connect(&mut self, v: usize, p: PortId, w: usize, q: PortId) {
        self.connect_with(v, p, w, q, &mut NullRecorder)
    }

    /// [`World::connect`] with the edge recorded (the single
    /// implementation; see [`World::add_node_with`]).
    pub fn connect_with<R: Recorder>(
        &mut self,
        v: usize,
        p: PortId,
        w: usize,
        q: PortId,
        rec: &mut R,
    ) {
        if R::TRACE {
            rec.event(TraceEvent::Connect {
                v: v as u32,
                p: p as u32,
                w: w as u32,
                q: q as u32,
            });
        }
        self.topo.connect(v, p, w, q);
        let a0 = self.base[v] + (p * self.c) as u32;
        let b0 = self.base[w] + (q * self.c) as u32;
        let (base_a, base_b) = (self.base[v], self.base[w]);
        for link in 0..self.c {
            self.mark_pin_dirty(a0 as usize + link, base_a);
            self.mark_pin_dirty(b0 as usize + link, base_b);
        }
    }

    /// Unwires the edge behind port `p` of `v` (vacating both of its
    /// port slots in the topology) and returns the peer `(w, q)`. The
    /// edge's pins are marked dirty *before* the splice so the next
    /// relabel's seeds still capture the circuits that ran through the
    /// edge, and its link pin pairs join the cut record, so the next
    /// absorb's repair sees the link unions the cut removed (DESIGN.md
    /// §1c). O(deg + c), plus a scan of the cut record when a pin of the
    /// edge was already dirty.
    ///
    /// # Panics
    ///
    /// Panics if the port carries no edge.
    pub fn disconnect(&mut self, v: usize, p: PortId) -> (usize, PortId) {
        self.disconnect_with(v, p, &mut NullRecorder)
    }

    /// [`World::disconnect`] with the severed port recorded (the single
    /// implementation; see [`World::add_node_with`]).
    pub fn disconnect_with<R: Recorder>(
        &mut self,
        v: usize,
        p: PortId,
        rec: &mut R,
    ) -> (usize, PortId) {
        if R::TRACE {
            rec.event(TraceEvent::Disconnect {
                v: v as u32,
                p: p as u32,
            });
        }
        let (w, q) = self
            .topo
            .peer(v, p)
            .unwrap_or_else(|| panic!("port {p} of node {v} carries no edge"));
        let a0 = self.base[v] + (p * self.c) as u32;
        let b0 = self.base[w] + (q * self.c) as u32;
        let (base_a, base_b) = (self.base[v], self.base[w]);
        for link in 0..self.c as u32 {
            let (pa, pb) = (a0 + link, b0 + link);
            // Cut pins stay dirty until the record empties, so a pin
            // that was clean is in no entry yet.
            let seen = |w: &World, pin: u32| {
                w.dirty_pin.get(pin as usize) && w.cuts.iter().any(|&(x, y)| x == pin || y == pin)
            };
            if !seen(self, pa) && !seen(self, pb) {
                self.cuts.push((pa, pb));
            }
            self.mark_pin_dirty(pa as usize, base_a);
            self.mark_pin_dirty(pb as usize, base_b);
        }
        self.topo.disconnect(v, p);
        (w, q)
    }

    /// Disconnects every edge of `v` and resets its pins to singletons —
    /// the "this amoebot left the structure" operation. The node id
    /// remains valid (a tombstone the caller may re-wire later via
    /// [`World::connect`]); its singleton sets keep counting as
    /// single-pin circuits, exactly like any other isolated node's.
    /// O(deg · c).
    pub fn isolate(&mut self, v: usize) {
        self.isolate_with(v, &mut NullRecorder)
    }

    /// [`World::isolate`] with the departure recorded as one event (the
    /// implied disconnects and the singleton reset are replayed from it,
    /// so the inner disconnects deliberately go unrecorded). The single
    /// implementation; see [`World::add_node_with`].
    pub fn isolate_with<R: Recorder>(&mut self, v: usize, rec: &mut R) {
        if R::TRACE {
            rec.event(TraceEvent::Isolate { v: v as u32 });
        }
        for p in 0..self.topo.ports_len(v) {
            if self.topo.peer(v, p).is_some() {
                self.disconnect(v, p);
            }
        }
        self.singleton_pin_config(v);
    }

    // ---- Recorded structure mutation.
    //
    // Pin-configuration changes need no recorder threading (the net
    // deltas are read off the dirty-pin list at tick time), but structure
    // edits change the *shape* replay must mirror, so each mutation's
    // recorder-generic `_with` form emits the edit before applying it and
    // *is* the implementation — the plain spellings above are one-line
    // `NullRecorder` wrappers, under which the emission gates compile
    // away.

    // ---- Replay-side accessors (crate-internal; see `crate::replay`).
    //
    // Replay rebuilds a world from a trace header and drives it with the
    // recorded deltas, so it needs a validated write path by *gid* (the
    // trace speaks gids, not (node, port, link) triples) and read access
    // to the delivered circuits to recompute delivery digests.

    /// Total number of pin/partition-set gids.
    pub(crate) fn gid_count(&self) -> usize {
        self.pin_pset.len()
    }

    /// The membership bucket of circuit `root` (callers must pass a
    /// labelled root).
    pub(crate) fn member_bucket(&self, root: usize) -> &[u32] {
        &self.members[self.member_off[root] as usize..self.member_end[root] as usize]
    }

    /// The delivery digest of labelled circuit `root`: XOR of [`mix64`]
    /// over its bucket, cached until the bucket changes, and whether this
    /// call had to read the bucket. Only the first digest after a walk,
    /// repair or repack of the circuit reads its members.
    pub(crate) fn circuit_digest(&mut self, root: usize) -> (u64, bool) {
        let read = self.member_digest_epoch[root] != self.digest_epoch;
        if read {
            self.member_digest[root] = self
                .member_bucket(root)
                .iter()
                .fold(0, |acc, &gid| acc ^ mix64(gid as u64));
            self.member_digest_epoch[root] = self.digest_epoch;
        }
        (self.member_digest[root], read)
    }

    /// Validated gid-addressed pin write: the replay-side mirror of
    /// [`World::set_pin`]. Returns `false` (leaving the world untouched)
    /// when `gid` is out of range or `pset` exceeds the owner's capacity,
    /// instead of panicking — a corrupt trace must surface as an error.
    ///
    /// The caller holds a node cursor: recorded config deltas arrive in
    /// near-sorted gid order (the recorder walks nodes in id order), so
    /// the owner of the next gid is almost always the cursor node or its
    /// successor — an O(1) check that replaces a binary search per delta
    /// on the replay hot path. Any cursor value is sound; a stale one
    /// only costs the fallback search.
    pub(crate) fn set_pin_gid_hinted(&mut self, gid: u32, pset: u16, hint: &mut usize) -> bool {
        let g = gid as usize;
        if g >= self.pin_pset.len() {
            return false;
        }
        let h = (*hint).min(self.base.len() - 2);
        let v = if self.base[h] <= gid && gid < self.base[h + 1] {
            h
        } else if h + 2 < self.base.len() && self.base[h + 1] <= gid && gid < self.base[h + 2] {
            h + 1
        } else {
            self.node_of_gid(gid)
        };
        *hint = v;
        if (pset as usize) >= self.pset_capacity(v) {
            return false;
        }
        if self.pin_pset[g] != pset {
            self.pin_pset[g] = pset;
            self.mark_pin_dirty(g, self.base[v]);
            self.mark_configured(v, g - self.base[v] as usize, pset);
            self.global_links[(g - self.base[v] as usize) % self.c] = false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_world(n: usize, c: usize) -> World {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        World::new(Topology::from_edges(n, &edges), c)
    }

    #[test]
    fn global_circuit_broadcasts() {
        let mut w = path_world(5, 1);
        for v in 0..5 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.tick();
        for v in 0..5 {
            assert!(w.received(v, 0), "node {v} missed the broadcast");
        }
        assert_eq!(w.rounds(), 1);
        // Without new beeps, the next round is silent.
        w.tick();
        for v in 0..5 {
            assert!(!w.received(v, 0));
        }
    }

    #[test]
    fn singleton_config_reaches_only_neighbors() {
        let mut w = path_world(4, 1);
        // Default singleton config. Node 1 beeps towards node 2 (its port 1).
        let pset = 1; // port 1, link 0 under singleton numbering
        w.beep(1, pset as u16);
        w.tick();
        // Node 2 hears it on its port-0 pin (towards node 1)...
        assert!(w.received(2, 0));
        // ...but node 3 does not, and node 0 does not.
        assert!(!w.received_any(3));
        assert!(!w.received_any(0));
    }

    #[test]
    fn links_are_independent() {
        let mut w = path_world(2, 2);
        // Beep only on link 1 of the single edge.
        let pset_link1 = 1;
        w.beep(0, pset_link1 as u16);
        w.tick();
        assert!(w.received(1, 1)); // link 1 pin
        assert!(!w.received(1, 0)); // link 0 pin silent
    }

    #[test]
    fn split_circuit_blocks_signal() {
        // 0 - 1 - 2: node 1 keeps its two pins in separate sets, so beeps
        // from 0 stop at 1.
        let mut w = path_world(3, 1);
        w.beep(0, 0);
        w.tick();
        assert!(w.received(1, 0));
        assert!(!w.received_any(2));
        // Now node 1 merges its pins into one set; the beep passes through.
        w.set_pin(1, 0, 0, 0);
        w.set_pin(1, 1, 0, 0);
        w.beep(0, 0);
        w.tick();
        assert!(w.received(2, 0));
    }

    #[test]
    fn receiver_cannot_count_origins() {
        let mut w = path_world(3, 1);
        for v in 0..3 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.beep(2, 0);
        w.tick();
        // One bit only: node 1 sees "a beep", indistinguishable from a single
        // origin — the API exposes just a boolean.
        assert!(w.received(1, 0));
    }

    #[test]
    fn circuit_count_diagnostic() {
        let mut w = path_world(3, 1);
        // Singleton config: circuits are per-edge: 2 circuits.
        assert_eq!(w.circuit_count(), 2);
        for v in 0..3 {
            w.global_pin_config(v);
        }
        assert_eq!(w.circuit_count(), 1);
    }

    /// Reconfiguring *after* a tick must invalidate the cached labeling:
    /// the next tick has to see the new circuits, not the cached ones.
    #[test]
    fn dirty_tracking_catches_reconfiguration_after_tick() {
        let mut w = path_world(3, 1);
        // Round 1 on the split (singleton) configuration.
        w.beep(0, 0);
        w.tick();
        assert!(!w.received_any(2), "split config blocks the beep");
        // Reconfigure after the tick: node 1 bridges its pins.
        w.set_pin(1, 0, 0, 0);
        w.set_pin(1, 1, 0, 0);
        w.beep(0, 0);
        w.tick();
        assert!(
            w.received(2, 0),
            "reconfiguration after a tick must not reuse stale circuits"
        );
        // And back: splitting again must also be picked up.
        w.singleton_pin_config(1);
        w.beep(0, 0);
        w.tick();
        assert!(!w.received_any(2), "re-split must invalidate the cache too");
    }

    /// Many consecutive ticks without reconfiguration reuse the cached
    /// labeling; results must stay identical to the reference engine.
    #[test]
    fn steady_state_ticks_match_reference() {
        let mut inc = path_world(6, 2);
        for v in 0..6 {
            inc.global_pin_config(v);
        }
        let mut reference = inc.clone();
        for round in 0..5 {
            let beeper = round % 6;
            inc.beep(beeper, 0);
            reference.beep(beeper, 0);
            inc.tick();
            reference.tick_reference();
            for v in 0..6 {
                for pset in 0..inc.pset_capacity(v) as u16 {
                    assert_eq!(
                        inc.received(v, pset),
                        reference.received(v, pset),
                        "round {round}, node {v}, pset {pset}"
                    );
                }
            }
        }
    }

    /// No-op reconfigurations — every mutation path re-storing the values
    /// the pins already hold — must keep the next tick on the clean path:
    /// nothing becomes dirty or stale, no relabel of any flavor runs.
    #[test]
    fn noop_writes_keep_the_next_tick_clean() {
        let mut w = path_world(5, 2);
        for v in 0..5 {
            w.global_link_config(v, 1);
        }
        w.tick();
        w.circuit_count(); // a read labels everything
        assert!(!w.relabel_pending());
        let before = (w.global_relabels(), w.region_relabels(), w.walk_relabels());
        // Re-apply the identical configuration through every sibling.
        for v in 0..5 {
            w.global_link_config(v, 1);
            for i in 0..w.pset_capacity(v) {
                let pset = if i % 2 == 1 { 1 } else { i as u16 };
                w.set_pin(v, i / 2, i % 2, pset);
            }
        }
        w.reset_all_pins_keeping_links(&[1]);
        assert!(
            !w.relabel_pending(),
            "no-op writes must not dirty the labeling"
        );
        w.beep(0, World::global_link_pset(1));
        w.tick();
        assert!(w.received(4, World::global_link_pset(1)));
        w.circuit_count();
        assert_eq!(
            (w.global_relabels(), w.region_relabels(), w.walk_relabels()),
            before,
            "the clean tick and the read after it must not relabel"
        );
    }

    /// The phase reset visits only the nodes a phase configured: 16
    /// grouped nodes of a 10k-node structure cost at most 16 visits, not
    /// 10k — whatever the reserved global link holds on every node.
    #[test]
    fn reset_visits_only_configured_nodes() {
        use amoebot_grid::{shapes, AmoebotStructure};
        const SYNC: usize = 5;
        let s = AmoebotStructure::new(shapes::parallelogram(100, 100)).unwrap();
        let mut w = World::new(Topology::from_structure(&s), 6);
        for v in 0..w.topology().len() {
            w.global_link_config(v, SYNC);
        }
        w.tick();
        let before = w.reset_nodes();
        for v in (0..w.topology().len()).step_by(625) {
            w.group_pins(v, &[(0, 0), (1, 1), (2, 0)]);
        }
        w.reset_all_pins_keeping_links(&[SYNC]);
        assert!(
            w.reset_nodes() - before <= 16,
            "reset visited {} nodes",
            w.reset_nodes() - before
        );
        assert_eq!(
            w.pin_config(0, 1, 1),
            7,
            "grouped pin is back in its singleton"
        );
        assert_eq!(w.pin_config(0, 1, SYNC), World::global_link_pset(SYNC));
    }

    /// Out-of-range partition sets on `beep` must panic — in release builds
    /// too (a `debug_assert` would silently index into a neighbor's state).
    /// Run under `cargo test --release` to exercise the release profile.
    #[test]
    #[should_panic(expected = "partition set 7 out of range for node 0")]
    fn beep_bounds_check_holds_in_release() {
        let mut w = path_world(2, 1);
        // Node 0 has 1 pin => capacity 1; pset 7 would land in node 1's
        // send slots if unchecked.
        w.beep(0, 7);
    }

    /// Same release-mode bounds check on the receive side.
    #[test]
    #[should_panic(expected = "partition set 9 out of range for node 1")]
    fn received_bounds_check_holds_in_release() {
        let mut w = path_world(3, 1);
        let _ = w.received(1, 9);
    }

    /// `set_pin` rejects out-of-range partition sets in release builds: a
    /// stray pset would poison the cached circuit labeling.
    #[test]
    #[should_panic(expected = "partition set 12 out of range for node 0")]
    fn set_pin_bounds_check_holds_in_release() {
        let mut w = path_world(2, 1);
        w.set_pin(0, 0, 0, 12);
    }
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;
    use crate::topology::Topology;

    fn empty_world(c: usize) -> World {
        World::new(Topology::from_edges(0, &[]), c)
    }

    /// A world grown node by node and edge by edge behaves exactly like
    /// one built in a single shot: broadcasts span it, counts match.
    #[test]
    fn grown_world_behaves_like_a_built_one() {
        let mut w = empty_world(2);
        for _ in 0..4 {
            w.add_node(6);
        }
        // A path 0-1-2-3 on E/W ports (0 and 3).
        for v in 0..3 {
            w.connect(v, 0, v + 1, 3);
        }
        for v in 0..4 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.tick();
        for v in 0..4 {
            assert!(w.received(v, 0), "node {v} missed the broadcast");
        }
        // All pins of all nodes reference set 0 and the links bridge
        // them: one structure-spanning circuit.
        assert_eq!(w.circuit_count(), 1);
    }

    /// `add_node` must not invalidate the cached labeling; wiring the new
    /// node in dirties exactly the edge region. Circuit counts stay exact
    /// through the whole grow sequence (c = 2, 6 ports => 12 singleton
    /// circuits per isolated node, each edge merging two pin pairs).
    #[test]
    fn add_node_keeps_the_labeling_clean() {
        let mut w = empty_world(2);
        w.add_node(6);
        w.add_node(6);
        w.connect(0, 0, 1, 3);
        w.tick();
        w.circuit_count(); // a read labels everything
        assert!(!w.relabel_pending());
        let before = (w.global_relabels(), w.region_relabels());
        let v = w.add_node(6);
        assert!(!w.relabel_pending(), "isolated growth needs no relabel");
        assert_eq!(w.circuit_count(), 2 * 12 - 2 + 12);
        assert_eq!(
            (w.global_relabels(), w.region_relabels()),
            before,
            "counting fresh singletons must not relabel"
        );
        w.connect(0, 1, v, 4);
        assert!(w.relabel_pending());
        assert_eq!(w.circuit_count(), 34 - 2);
        assert_eq!(w.global_relabels(), before.0, "edge splice stays regional");
        assert!(w.region_relabels() > before.1);
        // The spliced edge's link-0 pin pair shares a circuit.
        assert_eq!(w.pset_circuit(0, 2), w.pset_circuit(v, 8));
        assert_ne!(w.pset_circuit(0, 2), w.pset_circuit(v, 9));
    }

    /// A recorder that traces ticks and records nothing: its ticks label
    /// exactly as unrecorded ones do.
    struct Traced;

    impl Recorder for Traced {
        const TRACE: bool = true;
        const TIMED: bool = false;
    }

    /// Detach/re-attach churn at the boundary of a singleton-configured
    /// path takes the region path: a read after each edit absorbs it and
    /// walks what is stale — structural edits ride the dirty-pin
    /// machinery, they do not force global relabels. Ticks, traced or
    /// not, relabel nothing: after `tick_reference` (which leaves every
    /// set stale, so no absorb can repair) the first walk the circuits
    /// they deliver on, and once those are labelled each absorb repairs
    /// the churned circuits instead, stale world or not.
    #[test]
    fn boundary_churn_takes_the_region_path() {
        let n = 64;
        let mut w = empty_world(1);
        for _ in 0..n {
            w.add_node(6);
        }
        for v in 0..n - 1 {
            w.connect(v, 0, v + 1, 3);
        }
        w.tick_with(&mut Traced);
        w.circuit_count(); // the wiring staled too much to walk
        let g0 = w.global_relabels();
        for _ in 0..5 {
            w.isolate(n - 1);
            w.circuit_count();
            w.beep(n - 2, 0);
            w.tick_with(&mut Traced);
            assert!(!w.received_any(n - 1), "detached node must hear nothing");
            w.connect(n - 2, 0, n - 1, 3);
            w.circuit_count();
            w.beep(n - 2, 0);
            w.tick_with(&mut Traced);
            assert!(w.received(n - 1, 3), "re-attached node hears its neighbor");
        }
        assert_eq!(w.global_relabels(), g0, "churn must relabel regionally");
        assert!(w.region_relabels() >= 10);
        w.tick_reference();
        let before = (w.global_relabels(), w.region_relabels(), w.walk_relabels());
        let repairs = w.repair_relabels();
        let churn = |w: &mut World| {
            for _ in 0..5 {
                w.isolate(n - 1);
                w.beep(n - 2, 0);
                w.tick();
                assert!(!w.received_any(n - 1), "detached node must hear nothing");
                w.connect(n - 2, 0, n - 1, 3);
                w.beep(n - 2, 0);
                w.tick();
                assert!(w.received(n - 1, 3), "re-attached node hears its neighbor");
            }
        };
        churn(&mut w);
        // The first detach and re-attach meet stale sets, so their
        // absorbs cannot repair and their beeps walk; that labels the
        // churned circuits, and every later absorb repairs them while the
        // rest of the world stays stale.
        assert_eq!(
            (w.global_relabels(), w.region_relabels(), w.walk_relabels()),
            (before.0, before.1, before.2 + 2),
            "churn ticks walk what a stale frontier staled and relabel nothing"
        );
        assert_eq!(
            w.repair_relabels(),
            repairs + 8,
            "a stale frontier never repairs, a labelled one does"
        );
        assert!(w.relabel_pending());
        w.circuit_count(); // labels everything: the stale mass is global
        let before = (w.global_relabels(), w.region_relabels(), w.walk_relabels());
        let repairs = w.repair_relabels();
        churn(&mut w);
        assert_eq!(
            (w.global_relabels(), w.region_relabels(), w.walk_relabels()),
            before,
            "repaired churn ticks neither walk nor relabel"
        );
        assert_eq!(w.repair_relabels(), repairs + 10, "every absorb repairs");
        assert!(!w.relabel_pending());
    }

    /// The interleaving guard: churn followed by `tick_reference` (which
    /// clobbers the scratch) followed by more churn must still deliver
    /// correctly — the forced global relabel covers the spliced links.
    #[test]
    fn churn_interleaves_with_the_reference_engine() {
        let mut w = empty_world(1);
        for _ in 0..3 {
            w.add_node(6);
        }
        w.connect(0, 0, 1, 3);
        w.connect(1, 0, 2, 3);
        for v in 0..3 {
            w.global_pin_config(v);
        }
        w.beep(0, 0);
        w.tick_reference();
        assert!(w.received(2, 0));
        w.disconnect(1, 0);
        w.beep(0, 0);
        w.tick();
        assert!(w.received(1, 0));
        assert!(
            !w.received_any(2),
            "split must hold after the reference tick"
        );
        w.connect(1, 0, 2, 3);
        w.beep(0, 0);
        w.tick_reference();
        assert!(w.received(2, 0), "rewired edge must carry beeps again");
    }

    /// Fifty isolate–reconnect cycles on one edge leave the world
    /// delivering over its other edge.
    #[test]
    fn worlds_deliver_after_churn_cycles() {
        let mut w = empty_world(2);
        for _ in 0..3 {
            w.add_node(6);
        }
        w.connect(0, 0, 1, 3);
        w.connect(1, 0, 2, 3);
        for _ in 0..50 {
            w.isolate(2);
            w.connect(1, 0, 2, 3);
            w.tick();
        }
        w.beep(0, 0);
        w.tick();
        // c = 2: node 1's port-3 link-0 pin sits in singleton set 6.
        assert!(w.received(1, 6));
    }

    /// An isolated (tombstoned) node keeps its singleton circuits and its
    /// id; rewiring it at a different port works like a fresh node.
    #[test]
    fn isolate_then_rewire_reuses_the_node() {
        let mut w = empty_world(1);
        for _ in 0..3 {
            w.add_node(6);
        }
        w.connect(0, 0, 1, 3);
        w.connect(1, 0, 2, 3);
        let count_before = w.circuit_count();
        w.isolate(2);
        // The severed edge's two 2-pin circuits split into singletons.
        assert_eq!(w.circuit_count(), count_before + 1);
        // Rewire node 2 on the other side of node 0 (port 3/W of 0).
        w.connect(0, 3, 2, 0);
        assert_eq!(w.circuit_count(), count_before);
        w.beep(2, 0);
        w.tick();
        assert!(w.received(0, 3));
    }
}

#[cfg(test)]
mod safety_tests {
    use super::*;
    use crate::topology::Topology;

    /// Stale pin groups from an earlier phase must not leak circuits into a
    /// later phase once the node resets its non-reserved pins.
    #[test]
    fn reset_pins_prevents_stale_group_leaks() {
        // 0 - 1 - 2 with c = 3 (link 2 reserved as a global link).
        let edges = [(0usize, 1usize), (1, 2)];
        let mut w = World::new(Topology::from_edges(3, &edges), 3);
        for v in 0..3 {
            w.global_link_config(v, 2);
        }
        // Phase 1: node 1 bridges its two link-0 pins.
        let bridge = w.group_pins(1, &[(0, 0), (1, 0)]);
        w.beep(0, 0);
        w.tick();
        assert!(w.received(2, 0), "bridge active in phase 1");
        let _ = bridge;
        // Phase 2: node 1 resets (keeping the reserved link); the bridge
        // must be gone while the global link still spans the structure.
        w.reset_pins_keeping_links(1, &[2]);
        w.beep(0, 0);
        w.tick();
        assert!(
            !w.received_any(2) || !w.received(2, World::global_link_pset(2)),
            "stale bridge must not leak"
        );
        // The reserved global link still works.
        w.beep(0, World::global_link_pset(2));
        w.tick();
        assert!(w.received(2, World::global_link_pset(2)));
    }

    #[test]
    fn beep_instrumentation_counts_once_per_pset_round() {
        let mut w = World::new(Topology::from_edges(2, &[(0, 1)]), 1);
        assert_eq!(w.beeps_sent(), 0);
        w.beep(0, 0);
        w.beep(0, 0); // duplicate in the same round: counted once
        w.tick();
        assert_eq!(w.beeps_sent(), 1);
        w.beep(1, 0);
        w.tick();
        assert_eq!(w.beeps_sent(), 2);
    }

    /// `World::new` writes the singleton configuration straight into the
    /// pin table: every pin holds its local index, the relabel snapshot
    /// matches, nothing is dirty or configured, and every set is stale.
    #[test]
    fn new_world_starts_in_the_singleton_configuration() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let w = World::new(topo, 3);
        for v in 0..4 {
            for i in 0..w.pset_capacity(v) {
                assert_eq!(w.pin_config(v, i / 3, i % 3), i as u16, "node {v} pin {i}");
            }
        }
        assert_eq!(w.pset_at_relabel, w.pin_pset);
        assert!(w.dirty_pins.is_empty());
        assert!((0..w.pin_pset.len()).all(|g| !w.dirty_pin.get(g)));
        assert!(w.configured.iter().all(|set| (0..4).all(|v| !set.get(v))));
        assert_eq!(w.stale_count, w.pin_pset.len());
        assert!(w.relabel_pending());
        assert!((0..3).all(|link| !w.global_link_holds(link)));
    }

    /// A world whose link 1 holds the global configuration everywhere.
    fn synced_world() -> World {
        let mut w = World::new(Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]), 3);
        assert!(!w.global_link_holds(1));
        w.global_link_config_all(1);
        assert!(w.global_link_holds(1));
        w
    }

    /// The sync-link flag: set by a configuration of every node, kept by
    /// writes to other links and by resets that keep the link, cleared
    /// by anything that can move a pin on the link.
    #[test]
    fn global_link_flag_tracks_the_link() {
        let mut w = synced_world();
        for v in 0..4 {
            for port in 0..w.topology().ports_len(v) {
                assert_eq!(w.pin_config(v, port, 1), World::global_link_pset(1));
            }
        }
        assert!(!w.global_link_holds(0) && !w.global_link_holds(2));
        // Writes elsewhere and resets that keep the link leave it set.
        w.group_pins(1, &[(0, 0), (1, 0)]);
        w.set_pin(2, 0, 2, 0);
        w.set_pin(2, 1, 1, 1); // the value the pin already holds
        w.reset_pins_keeping_links(1, &[1]);
        w.reset_all_pins_keeping_links(&[1, 2]);
        let (peer, port) = w.disconnect(1, 1);
        w.connect(1, 1, peer, port);
        w.tick();
        assert!(w.global_link_holds(1));

        type Clear = (&'static str, fn(&mut World));
        let clears: [Clear; 8] = [
            ("set_pin on the link", |w| w.set_pin(1, 1, 1, 4)),
            ("reset dropping the link", |w| {
                w.reset_pins_keeping_links(1, &[0])
            }),
            ("reset of every node dropping the link", |w| {
                w.group_pins(2, &[(0, 0), (1, 0)]);
                w.reset_all_pins_keeping_links(&[0, 2]);
            }),
            ("singleton configuration", |w| w.singleton_pin_config(2)),
            ("global configuration", |w| w.global_pin_config(2)),
            ("stuck pin on the link", |w| w.stick_pin(2, 0, 1, 1)),
            ("add_node", |w| {
                w.add_node(2);
            }),
            ("snapshot decode", |w| {
                *w = crate::snapshot::tests::restore(w);
            }),
        ];
        for (name, clear) in clears {
            let mut w = synced_world();
            clear(&mut w);
            assert!(!w.global_link_holds(1), "{name} must clear the flag");
        }
    }

    /// A stuck pin off the global value keeps the flag clear through a
    /// full configuration; once released, the next one sets it again.
    #[test]
    fn global_link_flag_respects_stuck_pins() {
        let mut w = World::new(Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]), 3);
        w.stick_pin(2, 1, 1, 4);
        w.global_link_config_all(1);
        assert_eq!(w.pin_config(2, 1, 1), 4, "the stuck pin kept its value");
        assert!(!w.global_link_holds(1));
        w.release_stuck_pins();
        w.global_link_config_all(1);
        assert_eq!(w.pin_config(2, 1, 1), 1);
        assert!(w.global_link_holds(1));
    }

    /// With the flag set, the full configuration writes nothing: the
    /// labeling stays clean.
    #[test]
    fn global_link_config_all_is_free_once_the_link_holds() {
        let mut w = synced_world();
        w.circuit_count(); // a read labels everything
        assert!(!w.relabel_pending());
        w.global_link_config_all(1);
        assert!(w.dirty_pins.is_empty() && !w.relabel_pending());
    }
}
