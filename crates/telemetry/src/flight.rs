//! The flight recorder: a bounded, allocation-free ring buffer of recent
//! [`TraceEvent`]s that runs always-on behind the [`Recorder`] trait and
//! is framed into a standalone `.spft` blob when a failure needs its
//! black box dumped.
//!
//! The ring is pre-allocated at construction; once full, the oldest
//! event is overwritten in place, so the steady-state hot path, the
//! recorder's [`Recorder::event`], is one enum store plus an index
//! bump — no heap traffic, no clock reads
//! ([`FlightRecorder`] keeps `TIMED = false`; its const parameter,
//! spelled [`TimedFlightRecorder`], keeps the phase timers on too).
//! Both keep `REPLAY = false`: the engine skips the per-pin
//! config-delta stream and the round delivery digests for them
//! (`RoundSummary::digest` records as 0), so an armed black box costs
//! its event stores and nothing else — its ticks label exactly as an
//! unrecorded run's do. A window is for reading, not for
//! replay-verifying.
//!
//! A dump ([`FlightRecorder::to_trace_bytes`]) reuses the §1e wire codec
//! verbatim: the blob opens with the topology header captured at attach
//! time, then a [`TraceEvent::FlightKey`] stamping the full reproduction
//! key (plan seed + scenario seed + event index), then the window of
//! retained events, sealed with the standard footer (`wall_micros = 0`,
//! keeping dumps byte-deterministic). Any `SPFT` reader decodes it; a
//! flight record is *not* replayable in general — its window usually
//! starts mid-run — which is exactly why the key that rebuilds the full
//! run is embedded in the blob itself.

use crate::recorder::Recorder;
use crate::trace::{TraceEvent, TraceWriter};

/// Default ring capacity (events) for [`FlightRecorder::default`] — a
/// few recent rounds of a mid-sized scenario, ~160 KiB of ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// The always-on black box. See the module docs. `TIMED` is its
/// [`Recorder::TIMED`]: whether the engine's phase timers run under it.
#[derive(Debug, Clone)]
pub struct FlightRecorder<const TIMED: bool = false> {
    c: u32,
    node_ports: Vec<u32>,
    edges: Vec<(u32, u32, u32, u32)>,
    attached: bool,
    ring: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest retained event once the ring is full.
    head: usize,
    overwritten: u64,
    rounds: u64,
}

/// [`FlightRecorder`] with the phase timers left on — what a timed batch
/// run arms so `--metrics-json` timing and the black box coexist.
pub type TimedFlightRecorder = FlightRecorder<true>;

impl<const TIMED: bool> Default for FlightRecorder<TIMED> {
    fn default() -> FlightRecorder<TIMED> {
        FlightRecorder::ring(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events (at least
    /// one). The ring is allocated here, never on the hot path.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder::ring(capacity)
    }
}

impl<const TIMED: bool> FlightRecorder<TIMED> {
    fn ring(capacity: usize) -> FlightRecorder<TIMED> {
        let cap = capacity.max(1);
        FlightRecorder {
            c: 0,
            node_ports: Vec::new(),
            edges: Vec::new(),
            attached: false,
            ring: Vec::with_capacity(cap),
            cap,
            head: 0,
            overwritten: 0,
            rounds: 0,
        }
    }

    /// Whether a topology header was captured; without one there is
    /// nothing a dump could anchor to and [`FlightRecorder::to_trace_bytes`]
    /// returns `None`.
    pub fn is_attached(&self) -> bool {
        self.attached
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no event was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events overwritten after the ring filled (how much history the
    /// window has already shed).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Completed rounds seen over the recorder's whole lifetime (not
    /// just the retained window).
    pub fn rounds_seen(&self) -> u64 {
        self.rounds
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, linear) = self.ring.split_at(self.head.min(self.ring.len()));
        linear.iter().chain(wrapped.iter())
    }

    /// Frames the retained window as a standalone `.spft` blob embedding
    /// the reproduction key; `None` if no topology was ever attached
    /// (structureless scenarios have no black box to dump).
    pub fn to_trace_bytes(
        &self,
        plan_seed: u64,
        scenario_seed: u64,
        event: u64,
    ) -> Option<Vec<u8>> {
        if !self.attached {
            return None;
        }
        let mut w = TraceWriter::new();
        w.topology(self.c, &self.node_ports, &self.edges);
        w.event(TraceEvent::FlightKey {
            plan_seed,
            scenario_seed,
            event,
        });
        for &ev in self.events() {
            w.event(ev);
        }
        // Dumps are byte-deterministic: wall time never enters the blob.
        Some(w.finish(0))
    }
}

impl<const TIMED: bool> Recorder for FlightRecorder<TIMED> {
    const TRACE: bool = true;
    const TIMED: bool = TIMED;
    const REPLAY: bool = false;

    fn topology(&mut self, c: u32, node_ports: &[u32], edges: &[(u32, u32, u32, u32)]) {
        // First attach wins; the engine contract emits topology once per
        // recording, and the ring documents the world it attached to.
        if self.attached {
            return;
        }
        self.attached = true;
        self.c = c;
        self.node_ports = node_ports.to_vec();
        self.edges = edges.to_vec();
    }

    /// The ring push: one enum store plus an index bump.
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        if let TraceEvent::RoundEnd(_) = ev {
            self.rounds += 1;
        }
        if self.ring.len() < self.cap {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.overwritten += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RoundSummary;
    use crate::trace::{TraceReader, TRACE_MAGIC};

    fn summary(round: u64) -> RoundSummary {
        RoundSummary {
            round,
            beeps: 1,
            delivered: 2,
            digest: round.wrapping_mul(0x9E37),
        }
    }

    #[test]
    fn unattached_recorder_has_no_dump() {
        let mut r = FlightRecorder::with_capacity(8);
        r.event(TraceEvent::Beep { gid: 1 });
        assert!(!r.is_attached());
        assert_eq!(r.to_trace_bytes(1, 2, 3), None);
    }

    #[test]
    fn ring_overwrites_oldest_and_dumps_in_order() {
        let mut r = FlightRecorder::with_capacity(4);
        r.topology(1, &[2, 2], &[(0, 0, 1, 1)]);
        for gid in 0..7u32 {
            r.event(TraceEvent::Beep { gid });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 3);
        let gids: Vec<u32> = r
            .events()
            .map(|ev| match ev {
                TraceEvent::Beep { gid } => *gid,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(gids, vec![3, 4, 5, 6], "oldest-first, post-wrap");
    }

    #[test]
    fn dump_decodes_via_the_trace_codec_with_the_key_first() {
        let mut r = FlightRecorder::with_capacity(16);
        r.topology(2, &[6, 6], &[(0, 0, 1, 3)]);
        r.event(TraceEvent::Beep { gid: 0 });
        r.event(TraceEvent::RoundEnd(summary(1)));
        r.event(TraceEvent::ChurnTag {
            index: 0,
            inserted: 1,
            removed: 0,
        });
        r.event(TraceEvent::RoundEnd(summary(2)));
        let blob = r.to_trace_bytes(0xAB, 42, 7).expect("attached");
        assert_eq!(&blob[..4], &TRACE_MAGIC);
        let mut rd = TraceReader::open(&blob).unwrap();
        assert_eq!(rd.header().node_ports, vec![6, 6]);
        assert_eq!(
            rd.next_event().unwrap(),
            Some(TraceEvent::FlightKey {
                plan_seed: 0xAB,
                scenario_seed: 42,
                event: 7
            })
        );
        let mut rounds = 0;
        while let Some(ev) = rd.next_event().unwrap() {
            if matches!(ev, TraceEvent::RoundEnd(_)) {
                rounds += 1;
            }
        }
        assert_eq!(rounds, 2);
        // The footer rounds count covers the retained window, and the
        // wall field is pinned to zero for byte-determinism.
        let f = rd.footer().unwrap();
        assert_eq!((f.rounds, f.wall_micros), (2, 0));
        // Dumping twice yields identical bytes.
        assert_eq!(blob, r.to_trace_bytes(0xAB, 42, 7).unwrap());
    }

    #[test]
    fn lifetime_round_count_outlives_the_window() {
        let mut r = FlightRecorder::with_capacity(2);
        r.topology(1, &[1], &[]);
        for i in 0..10 {
            r.event(TraceEvent::RoundEnd(summary(i)));
        }
        assert_eq!(r.rounds_seen(), 10);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn the_timed_flavor_records_alike_and_keeps_timers_on() {
        const {
            assert!(TimedFlightRecorder::TRACE && TimedFlightRecorder::TIMED);
            assert!(<FlightRecorder>::TRACE && !<FlightRecorder>::TIMED);
        }
        let mut t = TimedFlightRecorder::default();
        t.topology(1, &[2], &[]);
        t.event(TraceEvent::Beep { gid: 5 });
        t.event(TraceEvent::RoundEnd(summary(1)));
        assert!(t.is_attached());
        assert_eq!(t.len(), 2);
    }
}
