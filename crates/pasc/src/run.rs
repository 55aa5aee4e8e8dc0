//! The generic PASC executor.

use amoebot_circuits::topology::PortId;
use amoebot_circuits::World;

/// One side-edge of a PASC instance: a port of the owning node plus the two
/// link indices used as the primary and secondary track on that edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Port of the owning node.
    pub port: PortId,
    /// Link index carrying the *primary* track.
    pub primary: usize,
    /// Link index carrying the *secondary* track.
    pub secondary: usize,
}

impl EdgeRef {
    /// Convenience constructor.
    pub fn new(port: PortId, primary: usize, secondary: usize) -> EdgeRef {
        EdgeRef {
            port,
            primary,
            secondary,
        }
    }
}

/// One PASC instance. A node of the simulated structure may operate several
/// instances (e.g. one per occurrence on an Euler tour, Remark 16).
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// The node operating this instance.
    pub node: usize,
    /// The predecessor-side edge; `None` makes this a *start* instance (the
    /// chain head / tree root / tour origin), which injects the beep.
    pub pred: Option<EdgeRef>,
    /// The successor-side edges (several for tree broadcasts, Corollary 5;
    /// empty at chain ends).
    pub succs: Vec<EdgeRef>,
    /// The instance's weight: weight-1 instances participate in the count
    /// (start active), weight-0 instances merely forward and read
    /// (Corollary 6).
    pub weight: bool,
}

/// A synchronized execution of one or more parallel PASC chains/trees.
///
/// Every iteration consists of one *data* round ([`PascRun::data_step`]) on
/// the primary/secondary tracks and one *sync* round ([`PascRun::sync_step`])
/// on the reserved global link — 2 simulator rounds per emitted bit, matching
/// Lemma 4. Callers may interleave extra rounds between the two (the centroid
/// primitive inserts its |Q|-broadcast round there, §3.4). The run is done
/// when no instance is active, i.e. after `⌈log2(W + 1)⌉` iterations where
/// `W` is the largest weighted prefix count of any chain.
///
/// # Track writes
///
/// The first data round writes every instance's track grouping. Later
/// data rounds rewrite only the non-start instances that retired in the
/// previous data round: an instance's grouping depends on nothing but
/// its own activity, which only ever goes from active to passive, and a
/// rewrite of an unchanged grouping is a no-op for the engine. So the
/// engine sees the same pin writes, in the same order, as if every
/// instance were regrouped every round — provided nothing but the run
/// writes its track pins between its data rounds. Every caller keeps
/// that contract; debug builds check every instance's track pins before
/// each data round.
#[derive(Debug, Clone)]
pub struct PascRun {
    specs: Vec<InstanceSpec>,
    active: Vec<bool>,
    values: Vec<u64>,
    /// Incoming track (0 = primary, 1 = secondary) observed by each instance
    /// in the latest data round. For an instance with incoming tour edge
    /// `(v, u)` this equals the current bit of `prefixsum_(v,u)` (§3.1).
    incoming: Vec<u8>,
    /// Bit emitted by each instance in the latest data round (the current
    /// bit of the instance's own prefix sum).
    bits: Vec<u8>,
    /// Each instance's track partition sets `(a, b)` as last written (see
    /// [`PascRun::track_psets`]).
    psets: Vec<(u16, u16)>,
    /// The start instances (no pred side), ascending.
    starts: Vec<usize>,
    /// The non-start instances that retired in the latest data round,
    /// ascending: the groupings the next data round must rewrite.
    pending: Vec<usize>,
    /// Instance groupings written so far (see [`PascRun::groupings_written`]).
    written: u64,
    c: usize,
    iterations: u32,
    sync_link: usize,
    done: bool,
}

impl PascRun {
    /// Prepares a run. Configures the reserved `sync_link` as a global
    /// circuit on *every* node of the world (it must not be used by any
    /// concurrent primitive) and marks weight-1 instances active. The
    /// configuration goes through [`World::global_link_config_all`], so it
    /// costs nothing when an earlier run left the link configured and
    /// nothing moved a pin on it since: then no pin is written.
    ///
    /// # Panics
    ///
    /// Panics if `sync_link` collides with a track link of any instance, or
    /// if an instance uses the same link for both tracks.
    pub fn new(world: &mut World, specs: Vec<InstanceSpec>, sync_link: usize) -> PascRun {
        for spec in &specs {
            for e in spec.pred.iter().chain(spec.succs.iter()) {
                assert!(
                    e.primary != sync_link && e.secondary != sync_link,
                    "sync link {sync_link} must be reserved"
                );
                assert_ne!(e.primary, e.secondary, "tracks must use distinct links");
            }
        }
        world.global_link_config_all(sync_link);
        let c = world.links_per_edge();
        let active: Vec<bool> = specs.iter().map(|s| s.weight).collect();
        let starts = (0..specs.len())
            .filter(|&i| specs[i].pred.is_none())
            .collect();
        let n = specs.len();
        PascRun {
            specs,
            active,
            values: vec![0; n],
            incoming: vec![0; n],
            bits: vec![0; n],
            psets: vec![(u16::MAX, u16::MAX); n],
            starts,
            pending: Vec::new(),
            written: 0,
            c,
            iterations: 0,
            sync_link,
            done: false,
        }
    }

    /// Whether the run has terminated (no active instances remain).
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Completed iterations (= bits emitted per instance).
    #[inline]
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// The value accumulated from the bits emitted by instance `idx` so far.
    /// After [`PascRun::is_done`], this is the instance's weighted prefix
    /// count (its distance to the start, for unit weights).
    #[inline]
    pub fn value(&self, idx: usize) -> u64 {
        self.values[idx]
    }

    /// All accumulated values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The bit each instance emitted in the latest data round.
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// The incoming track each instance observed in the latest data round
    /// (for instance `i` with incoming tour edge `e`, the current bit of
    /// `prefixsum_e`; undefined `0` for start instances).
    pub fn incoming(&self) -> &[u8] {
        &self.incoming
    }

    /// The instance specs of this run.
    pub fn specs(&self) -> &[InstanceSpec] {
        &self.specs
    }

    /// Instance groupings written to the world so far: every instance
    /// once before the first data round, then one per retired non-start
    /// instance before each later data round — not one per instance per
    /// iteration (see the type docs).
    pub fn groupings_written(&self) -> u64 {
        self.written
    }

    /// The track groups of `spec` under activity `active`, as
    /// partition-set ids `(a, b)` where `a` contains the pred-side primary
    /// pin and `b` the pred-side secondary pin. Only a non-start instance
    /// crosses the tracks, and only while active.
    fn track_psets(c: usize, spec: &InstanceSpec, active: bool) -> (u16, u16) {
        let mut id_a = u16::MAX;
        let mut id_b = u16::MAX;
        if let Some(pred) = spec.pred {
            id_a = (pred.port * c + pred.primary) as u16;
            id_b = (pred.port * c + pred.secondary) as u16;
        }
        for s in &spec.succs {
            let (la, lb) = Self::succ_links(spec, s, active);
            id_a = id_a.min((s.port * c + la) as u16);
            id_b = id_b.min((s.port * c + lb) as u16);
        }
        (id_a, id_b)
    }

    /// The links of succ edge `s` joining the `(a, b)` groups: crossed
    /// while a non-start instance is active, straight otherwise.
    #[inline]
    fn succ_links(spec: &InstanceSpec, s: &EdgeRef, active: bool) -> (usize, usize) {
        if spec.pred.is_some() && active {
            (s.secondary, s.primary)
        } else {
            (s.primary, s.secondary)
        }
    }

    /// Writes instance `i`'s grouping under its current activity: group
    /// `a`'s pins, then group `b`'s, pred side first — the pin order of
    /// `World::group_pins` over `[pred, succs..]`, so the dirty-pin
    /// sequence is that of a full regroup.
    fn write_instance(&mut self, world: &mut World, i: usize) {
        let spec = &self.specs[i];
        let active = self.active[i];
        let (a, b) = Self::track_psets(self.c, spec, active);
        self.psets[i] = (a, b);
        if let Some(pred) = spec.pred {
            world.set_pin(spec.node, pred.port, pred.primary, a);
        }
        for s in &spec.succs {
            world.set_pin(spec.node, s.port, Self::succ_links(spec, s, active).0, a);
        }
        if let Some(pred) = spec.pred {
            world.set_pin(spec.node, pred.port, pred.secondary, b);
        }
        for s in &spec.succs {
            world.set_pin(spec.node, s.port, Self::succ_links(spec, s, active).1, b);
        }
        self.written += 1;
    }

    /// Writes this iteration's groupings: all of them in the first data
    /// round, afterwards only the changed ones (see the type docs).
    fn configure_data(&mut self, world: &mut World) {
        if self.iterations == 0 {
            for i in 0..self.specs.len() {
                self.write_instance(world, i);
            }
        } else {
            let pending = std::mem::take(&mut self.pending);
            for &i in &pending {
                self.write_instance(world, i);
            }
            self.pending = pending;
            self.pending.clear();
        }
        #[cfg(debug_assertions)]
        self.check_tracks(world);
    }

    /// Debug check of the write contract: every instance's track pins
    /// hold its current grouping.
    #[cfg(debug_assertions)]
    fn check_tracks(&self, world: &World) {
        for (i, spec) in self.specs.iter().enumerate() {
            let (a, b) = self.psets[i];
            let check = |port: PortId, link: usize, pset: u16| {
                assert_eq!(
                    world.pin_config(spec.node, port, link),
                    pset,
                    "instance {i}: track pin (port {port}, link {link}) of node {} \
                     does not hold the run's grouping (written outside the run \
                     between data rounds?)",
                    spec.node
                );
            };
            if let Some(pred) = spec.pred {
                check(pred.port, pred.primary, a);
                check(pred.port, pred.secondary, b);
            }
            for s in &spec.succs {
                let (la, lb) = Self::succ_links(spec, s, self.active[i]);
                check(s.port, la, a);
                check(s.port, lb, b);
            }
        }
    }

    /// Executes the data round of one iteration: configures the tracks,
    /// lets `pre_tick` piggyback extra pins/beeps, ticks, reads every
    /// instance's bit and updates activity. Returns the emitted bits, or
    /// `None` if the run already terminated.
    pub fn data_step(
        &mut self,
        world: &mut World,
        pre_tick: impl FnOnce(&mut World),
    ) -> Option<&[u8]> {
        if self.done {
            return None;
        }
        self.configure_data(world);
        // Start instances beep on the track expressing their activity.
        for &i in &self.starts {
            let spec = &self.specs[i];
            if !spec.succs.is_empty() {
                let (a, b) = self.psets[i];
                world.beep(spec.node, if self.active[i] { b } else { a });
            }
        }
        pre_tick(world);
        world.tick();
        for i in 0..self.specs.len() {
            let spec = &self.specs[i];
            let bit = match spec.pred {
                None => {
                    self.incoming[i] = 0;
                    self.active[i] as u8
                }
                Some(_) => {
                    let (a, b) = self.psets[i];
                    let on_a = world.received(spec.node, a);
                    let on_b = world.received(spec.node, b);
                    debug_assert!(
                        on_a || on_b,
                        "instance {i} heard no beep: tour disconnected?"
                    );
                    debug_assert!(!(on_a && on_b), "instance {i} heard both tracks");
                    let incoming = u8::from(on_b);
                    self.incoming[i] = incoming;
                    incoming ^ u8::from(self.active[i])
                }
            };
            self.bits[i] = bit;
            self.values[i] |= (bit as u64) << self.iterations;
        }
        for i in 0..self.specs.len() {
            if self.active[i] && self.bits[i] == 1 {
                self.active[i] = false;
                if self.specs[i].pred.is_some() {
                    self.pending.push(i);
                }
            }
        }
        Some(&self.bits)
    }

    /// Executes the sync round of one iteration: still-active instances beep
    /// on the reserved global link; the run terminates on silence. Returns
    /// whether the run is now done.
    pub fn sync_step(&mut self, world: &mut World) -> bool {
        let pset = World::global_link_pset(self.sync_link);
        let mut any_sent = false;
        for (i, spec) in self.specs.iter().enumerate() {
            if self.active[i] {
                world.beep(spec.node, pset);
                any_sent = true;
            }
        }
        world.tick();
        let heard = self
            .specs
            .first()
            .map(|s| world.received(s.node, pset))
            .unwrap_or(false);
        debug_assert_eq!(heard, any_sent, "sync circuit must span all instances");
        self.iterations += 1;
        if !heard {
            self.done = true;
        }
        self.done
    }

    /// One full iteration (data + sync = 2 rounds); returns the emitted bits
    /// or `None` if already done.
    pub fn step(&mut self, world: &mut World) -> Option<Vec<u8>> {
        let bits = self.data_step(world, |_| {})?.to_vec();
        self.sync_step(world);
        Some(bits)
    }

    /// Runs until termination and returns the final values.
    pub fn run_to_completion(&mut self, world: &mut World) -> Vec<u64> {
        while self.step(world).is_some() {}
        self.values.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::chain_specs;
    use amoebot_circuits::Topology;

    /// The sync circuit spans every node, the run's own or not; a later
    /// run finds the link configured and writes no pin when it starts.
    #[test]
    fn sync_setup_is_free_once_the_link_holds() {
        const SYNC: usize = 2;
        let edges: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 1)).collect();
        let mut world = World::new(Topology::from_edges(5, &edges), 3);
        let specs = chain_specs(world.topology(), &[0, 1, 2], 0, 1, None);
        let mut run = PascRun::new(&mut world, specs.clone(), SYNC);
        assert!(world.global_link_holds(SYNC));
        for port in 0..2 {
            // Node 3 runs no instance; its pins join the sync circuit too.
            assert_eq!(
                world.pin_config(3, port, SYNC),
                World::global_link_pset(SYNC)
            );
        }
        run.run_to_completion(&mut world);
        world.circuit_count(); // a read labels everything
        assert!(!world.relabel_pending());
        let mut again = PascRun::new(&mut world, specs, SYNC);
        assert!(!world.relabel_pending(), "set-up must write no pin");
        assert_eq!(again.run_to_completion(&mut world), vec![0, 1, 2]);
    }
}
