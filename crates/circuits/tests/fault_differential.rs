//! Differential suite for the adversary arms of the tick engine.
//!
//! The contract under test: `tick_faulted` with [`TickFaults::EMPTY`] is
//! **byte-identical** to `tick_with` (the fault arms compile out of the
//! shared engine), drops suppress delivery without un-sending the beep,
//! injections deliver without a send, stuck-at pins swallow every write
//! path, and all of it round-trips through the SPFS codec and the trace
//! replay verifier.

use amoebot_circuits::{replay_trace, ReplayError, TickFaults, Topology, World};
use amoebot_telemetry::wire::fnv1a64;
use amoebot_telemetry::{
    NullRecorder, Recorder, RoundSummary, TraceEvent, TraceReader, TraceWriter,
};

/// Keeps every round summary for lockstep comparison.
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

/// The relabel counters: snapshot bytes hold no label cache and no
/// `relabel_*` counter, so byte equality alone no longer shows that two
/// worlds labelled alike.
fn relabels(w: &World) -> [u64; 4] {
    [
        w.global_relabels(),
        w.region_relabels(),
        w.walk_relabels(),
        w.repair_relabels(),
    ]
}

fn path_world(n: usize, c: usize) -> World {
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    World::new(Topology::from_edges(n, &edges), c)
}

/// A world with history: global circuits, delivered beeps, a severed
/// edge (tombstone + free-list entry), and a pending undelivered beep.
fn seasoned_world() -> World {
    let mut w = path_world(9, 2);
    for v in 0..9 {
        w.global_pin_config(v);
    }
    w.beep(0, 0);
    w.tick();
    w.disconnect(4, 1);
    w.tick();
    w.beep(6, 0);
    w
}

#[test]
fn empty_faults_are_byte_identical_to_the_plain_tick() {
    let mut plain = seasoned_world();
    let mut faulted = seasoned_world();
    let (mut a, mut b) = (Summaries::default(), Summaries::default());
    for round in 0..8 {
        plain.beep(round % 9, (round % 2) as u16);
        faulted.beep(round % 9, (round % 2) as u16);
        if round == 4 {
            // Mid-run reconfiguration so both engines take a relabel.
            plain.global_pin_config(2);
            faulted.global_pin_config(2);
        }
        plain.tick_with(&mut a);
        faulted.tick_faulted(&TickFaults::EMPTY, &mut b);
        assert_eq!(
            plain.snapshot_bytes(),
            faulted.snapshot_bytes(),
            "round {round}: empty-fault tick diverged from the plain tick"
        );
        assert_eq!(
            relabels(&plain),
            relabels(&faulted),
            "round {round}: empty-fault tick labelled differently"
        );
    }
    assert_eq!(a.0, b.0);
    assert_eq!(plain.fault_drops(), 0);
    assert_eq!(faulted.fault_drops(), 0);
    assert_eq!(faulted.fault_injects(), 0);
}

#[test]
fn dropped_beeps_count_as_sent_but_never_deliver() {
    let mut w = path_world(5, 1);
    for v in 0..5 {
        w.global_pin_config(v);
    }
    w.beep(0, 0);
    let faults = TickFaults {
        drop: vec![w.pset_global_id(0, 0)],
        inject: Vec::new(),
    };
    w.tick_faulted(&faults, &mut NullRecorder);
    for v in 0..5 {
        assert!(!w.received(v, 0), "node {v} received a dropped beep");
    }
    assert_eq!(w.fault_drops(), 1);
    assert_eq!(
        w.beeps_sent(),
        1,
        "the drop happened on the wire, not at the sender"
    );
    // The drop is per-round: the next beep goes through untouched.
    w.beep(0, 0);
    w.tick();
    assert!(w.received(4, 0));
}

#[test]
fn a_drop_does_not_silence_other_senders_on_the_circuit() {
    let mut w = path_world(4, 1);
    for v in 0..4 {
        w.global_pin_config(v);
    }
    w.beep(0, 0);
    w.beep(3, 0);
    let faults = TickFaults {
        drop: vec![w.pset_global_id(0, 0)],
        inject: Vec::new(),
    };
    w.tick_faulted(&faults, &mut NullRecorder);
    // Node 3's beep still reaches everyone over the same circuit.
    for v in 0..4 {
        assert!(w.received(v, 0));
    }
    assert_eq!(w.fault_drops(), 1);
}

#[test]
fn injected_beeps_deliver_without_a_send() {
    let mut w = path_world(5, 1);
    for v in 0..5 {
        w.global_pin_config(v);
    }
    let faults = TickFaults {
        drop: Vec::new(),
        inject: vec![w.pset_global_id(2, 0)],
    };
    w.tick_faulted(&faults, &mut NullRecorder);
    for v in 0..5 {
        assert!(w.received(v, 0), "node {v} missed the injected beep");
    }
    assert_eq!(w.fault_injects(), 1);
    // Injecting on a gid that also sent is idempotent (one beep).
    w.beep(2, 0);
    let before = w.beeps_sent();
    w.tick_faulted(&faults, &mut NullRecorder);
    assert_eq!(
        w.beeps_sent(),
        before,
        "injecting on a sent gid adds no beep"
    );
    assert_eq!(w.fault_injects(), 1, "a sent gid is not re-injected");
}

#[test]
fn stuck_pins_swallow_single_and_bulk_writes() {
    let mut w = path_world(4, 2);
    for v in 0..4 {
        w.global_pin_config(v);
    }
    w.tick();
    // Freeze pin (0, 1) of node 1 at its singleton set.
    w.stick_pin(1, 0, 1, 1);
    assert!(w.pin_is_stuck(1, 0, 1));
    assert_eq!(w.stuck_pin_count(), 1);
    w.set_pin(1, 0, 1, 0);
    assert_eq!(
        w.pin_config(1, 0, 1),
        1,
        "set_pin wrote through a stuck pin"
    );
    w.global_pin_config(1);
    assert_eq!(
        w.pin_config(1, 0, 1),
        1,
        "bulk config wrote through a stuck pin"
    );
    w.reset_pins_keeping_links(1, &[]);
    assert_eq!(w.pin_config(1, 0, 1), 1);
    w.global_link_config(1, 0);
    assert_eq!(w.pin_config(1, 0, 1), 1);
    // Releasing the fault re-enables writes.
    assert!(w.unstick_pin(1, 0, 1));
    assert!(!w.unstick_pin(1, 0, 1));
    w.set_pin(1, 0, 1, 0);
    assert_eq!(w.pin_config(1, 0, 1), 0);
}

#[test]
fn a_stuck_pin_cuts_the_circuit_until_released() {
    // c = 1 path on the global circuit: freezing node 2's pin 0 at its
    // singleton set splits the broadcast circuit at node 2.
    let mut w = path_world(5, 1);
    for v in 0..5 {
        w.global_pin_config(v);
    }
    w.tick();
    w.stick_pin(2, 0, 0, 0);
    // The freeze itself moved no pin (it was already 0): force the cut.
    w.stick_pin(2, 1, 0, 1);
    w.beep(0, 0);
    w.tick();
    assert!(w.received(1, 0));
    assert!(
        !w.received(4, 0),
        "the cut circuit still delivered past node 2"
    );
    // Release and heal: writes go through again, broadcast resumes.
    assert_eq!(w.release_stuck_pins(), 2);
    w.global_pin_config(2);
    w.beep(0, 0);
    w.tick();
    assert!(w.received(4, 0));
}

#[test]
fn stuck_pins_survive_the_snapshot_round_trip() {
    let mut w = seasoned_world();
    w.stick_pin(3, 0, 1, 1);
    w.stick_pin(5, 1, 0, 2);
    let blob = w.snapshot_bytes();
    let mut restored = World::from_snapshot_bytes(&blob).expect("stuck world must restore");
    assert_eq!(restored.snapshot_bytes(), blob);
    assert_eq!(restored.stuck_pin_count(), 2);
    assert!(restored.pin_is_stuck(3, 0, 1));
    // The restored freeze still filters writes, byte-for-byte like the
    // original.
    w.global_pin_config(3);
    restored.global_pin_config(3);
    w.tick();
    restored.tick();
    assert_eq!(restored.snapshot_bytes(), w.snapshot_bytes());
}

#[test]
fn every_bit_flip_of_a_stuck_snapshot_is_rejected() {
    let mut w = path_world(4, 2);
    for v in 0..4 {
        w.global_pin_config(v);
    }
    w.tick();
    w.stick_pin(0, 0, 0, 0);
    w.stick_pin(2, 1, 1, 3);
    let blob = w.snapshot_bytes();
    for byte in 0..blob.len() {
        for bit in 0..8 {
            let mut bad = blob.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                World::from_snapshot_bytes(&bad).is_err(),
                "flip at byte {byte} bit {bit} was accepted"
            );
        }
    }
}

/// Records a faulted run (drops + injections) and verifies the trace
/// replays clean — the replay verifier understands the fault events.
#[test]
fn faulted_traces_replay_clean() {
    let n = 7;
    let mut w = path_world(n, 2);
    for v in 0..n {
        w.global_pin_config(v);
    }
    let mut rec = TraceWriter::new();
    w.record_topology(&mut rec);
    for round in 0..6 {
        w.beep(round % n, 0);
        let faults = TickFaults {
            drop: if round % 2 == 0 {
                vec![w.pset_global_id(round % n, 0)]
            } else {
                Vec::new()
            },
            inject: if round % 3 == 0 {
                vec![w.pset_global_id((round + 1) % n, 1)]
            } else {
                Vec::new()
            },
        };
        w.tick_faulted(&faults, &mut rec);
    }
    let blob = rec.finish(0);
    let report = replay_trace(&blob).expect("faulted replay must verify");
    assert_eq!(report.rounds, 6);
    assert!(w.fault_drops() >= 3 && w.fault_injects() >= 1);
}

/// Single-bit corruption of a trace with *load-bearing* fault events
/// (drops change delivery) must never verify cleanly. The trailing
/// digest rejects every flip; resealed past it, every flip from the
/// first beep to the footer's round count must still fail replay, and a
/// flip of a drop's gid must fail it in that drop's round.
/// Inject/fault-tag records are attributions — like churn tags, they
/// carry no replay-verifiable state — so this trace uses drops only.
#[test]
fn faulted_trace_bit_corruption_is_rejected() {
    let mut w = path_world(5, 1);
    for v in 0..5 {
        w.global_pin_config(v);
    }
    let mut rec = TraceWriter::new();
    w.record_topology(&mut rec);
    for round in 0..4 {
        w.beep(round % 5, 0);
        let faults = TickFaults {
            drop: vec![w.pset_global_id(round % 5, 0)],
            inject: Vec::new(),
        };
        w.tick_faulted(&faults, &mut rec);
    }
    let blob = rec.finish(0);
    assert!(replay_trace(&blob).is_ok());
    for byte in 0..blob.len() {
        for bit in 0..8 {
            let mut bad = blob.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                replay_trace(&bad).is_err(),
                "flip at byte {byte} bit {bit} verified cleanly"
            );
        }
    }
    // Each event, its byte range and its round.
    let mut sites = Vec::new();
    let mut r = TraceReader::open(&blob).unwrap();
    let mut round = 1;
    loop {
        let start = r.offset();
        let Some(ev) = r.next_event().unwrap() else {
            break;
        };
        sites.push((ev, start..r.offset(), round));
        round += u64::from(matches!(ev, TraceEvent::RoundEnd(_)));
    }
    // The pin configuration is observed only through deliveries, and
    // every beep here is dropped: the config deltas that lead round 1
    // rest on the digest alone. From the first beep on, every event is
    // load-bearing.
    let first_beep = sites
        .iter()
        .position(|(ev, ..)| !matches!(ev, TraceEvent::ConfigDelta { .. }))
        .unwrap();
    assert!(sites[first_beep..]
        .iter()
        .all(|(ev, ..)| !matches!(ev, TraceEvent::ConfigDelta { .. })));
    let body = blob.len() - 8;
    let mut drop_flips = 0;
    // wall_micros == 0 is the single byte before the digest.
    for byte in sites[first_beep].1.start..body - 1 {
        for bit in 0..8 {
            let mut bad = blob[..body].to_vec();
            bad[byte] ^= 1 << bit;
            let digest = fnv1a64(&bad);
            bad.extend_from_slice(&digest.to_le_bytes());
            let Err(err) = replay_trace(&bad) else {
                panic!("resealed flip at byte {byte} bit {bit} verified cleanly");
            };
            // A drop is its tag and a one-byte gid; a flip of a value bit
            // of that gid names another partition set.
            let drop = sites.iter().find(|(ev, range, _)| {
                matches!(ev, TraceEvent::FaultDrop { .. })
                    && range.len() == 2
                    && range.end - 1 == byte
                    && bit < 7
            });
            if let Some(&(_, _, round)) = drop {
                assert!(
                    matches!(
                        err,
                        ReplayError::Divergence { round: r, .. }
                            | ReplayError::Malformed { round: r, .. } if r == round
                    ),
                    "drop gid flip at byte {byte} bit {bit}: {err}"
                );
                drop_flips += 1;
            }
        }
    }
    assert_eq!(drop_flips, 4 * 7, "one drop per round");
}
