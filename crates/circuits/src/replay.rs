//! Trace replay: re-verifies a recorded run against the live engine.
//!
//! [`replay_trace`] rebuilds the starting world from the trace header,
//! re-applies every recorded pin-config delta and structure edit, and at
//! each recorded round boundary ticks the rebuilt world on the recorded
//! beeps — comparing the round number, the beep count, the delivery
//! count and the order-independent delivery digest against the recorded
//! [`amoebot_telemetry::RoundSummary`]. These are what the model
//! observes; how either engine labelled its circuits is not recorded
//! and not compared. The first mismatch fails loudly with the round
//! number and the event index within that round
//! ([`ReplayError::Divergence`]); a structurally invalid trace
//! (out-of-range ids, impossible edges) fails the same way with
//! [`ReplayError::Malformed`] instead of panicking inside the engine.
//!
//! # Why replay is fast
//!
//! Replay never simulates the algorithm layer: it skips structure
//! generation, per-round scenario logic and every read of a receive
//! bit. Its tick labels only the circuits the recorded beeps reach, and
//! each delivered circuit's digest (XOR of [`mix64`] over its membership
//! bucket) is cached until a walk, repair or repack changes the bucket,
//! so a long run of clean rounds costs O(beeping circuits) per round
//! rather than O(deliveries). This is what keeps full verification well
//! under the recorded simulation's wall time on broadcast-heavy
//! workloads.

use std::fmt;

use amoebot_telemetry::{
    mix64, NullRecorder, TraceError, TraceEvent, TraceReader, BEEP_DIGEST_SALT,
};

use crate::topology::{Topology, MAX_PORTS};
use crate::world::{TickFaults, World};

/// A verified replay, summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Nodes in the final structure.
    pub nodes: usize,
    /// Rounds verified.
    pub rounds: u64,
    /// Events processed (including round boundaries).
    pub events: u64,
    /// Wall-clock microseconds of the *recorded* run (from the footer).
    pub recorded_wall_micros: u64,
    /// Per-circuit delivery digests computed from a membership bucket
    /// (digest cache misses). Clean rounds hit the cache, so this counts
    /// the replay's delivery work independently of the run length.
    pub digest_passes: u64,
    /// Labelling work replay's ticks did: circuits walked plus absorbs
    /// repaired.
    pub relabels: u64,
}

/// Why a replay failed. Every variant carries the 1-based round being
/// verified and the 0-based event index within that round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace itself failed to decode (bad magic/version, truncation,
    /// bit corruption caught by the codec).
    Trace {
        /// Round being assembled when decoding failed.
        round: u64,
        /// Event index within that round.
        event: u64,
        /// The underlying codec error (carries the byte offset).
        source: TraceError,
    },
    /// The trace decoded but describes an impossible world or edit.
    Malformed {
        /// Round being assembled.
        round: u64,
        /// Event index within that round.
        event: u64,
        /// What was impossible.
        detail: String,
    },
    /// The live engine disagrees with a recorded round summary.
    Divergence {
        /// The diverging round.
        round: u64,
        /// Event index of the round boundary within that round.
        event: u64,
        /// Recorded-vs-replayed values.
        detail: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace {
                round,
                event,
                source,
            } => write!(f, "round {round}, event {event}: trace error: {source}"),
            ReplayError::Malformed {
                round,
                event,
                detail,
            } => write!(f, "round {round}, event {event}: malformed trace: {detail}"),
            ReplayError::Divergence {
                round,
                event,
                detail,
            } => write!(f, "round {round}, event {event}: divergence: {detail}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Pre-validated [`World::connect`]: converts every panic the engine
/// would raise on an impossible edge into a [`ReplayError::Malformed`].
fn checked_connect(
    world: &mut World,
    v: u32,
    p: u32,
    w: u32,
    q: u32,
    round: u64,
    event: u64,
) -> Result<(), ReplayError> {
    let malformed = |detail: String| ReplayError::Malformed {
        round,
        event,
        detail,
    };
    let n = world.topology().len();
    let (v, p, w, q) = (v as usize, p as usize, w as usize, q as usize);
    if v >= n || w >= n {
        return Err(malformed(format!(
            "edge ({v}, {w}) endpoint out of range ({n} nodes)"
        )));
    }
    if v == w {
        return Err(malformed(format!("self-loop edge at node {v}")));
    }
    if p >= world.topology().ports_len(v) || q >= world.topology().ports_len(w) {
        return Err(malformed(format!(
            "edge ({v}:{p}, {w}:{q}) port out of range"
        )));
    }
    if world.topology().port_to(v, w).is_some() {
        return Err(malformed(format!("duplicate edge ({v}, {w})")));
    }
    if world.topology().peer(v, p).is_some() || world.topology().peer(w, q).is_some() {
        return Err(malformed(format!(
            "edge ({v}:{p}, {w}:{q}) lands on an occupied port"
        )));
    }
    world.connect(v, p, w, q);
    Ok(())
}

/// Replays a recorded trace against a freshly built engine, verifying
/// every recorded round. See the module docs.
pub fn replay_trace(bytes: &[u8]) -> Result<ReplayReport, ReplayError> {
    let trace_err = |round: u64, event: u64, source: TraceError| ReplayError::Trace {
        round,
        event,
        source,
    };
    let mut reader = TraceReader::open(bytes).map_err(|e| trace_err(1, 0, e))?;
    let header = reader.header().clone();
    if header.c == 0 || header.c > MAX_PORTS {
        return Err(ReplayError::Malformed {
            round: 1,
            event: 0,
            detail: format!("links per edge c = {} out of range", header.c),
        });
    }
    for &ports in &header.node_ports {
        if ports > MAX_PORTS {
            return Err(ReplayError::Malformed {
                round: 1,
                event: 0,
                detail: format!("node with {ports} ports out of range"),
            });
        }
    }
    // The starting world is rebuilt in bulk (one CSR pass + one fresh
    // labeling), not through the incremental per-edge splice path — at
    // 100k nodes that is the difference between replay costing a
    // fraction of the recorded run and costing more than it.
    let topology = Topology::from_ports(&header.node_ports, &header.edges).map_err(|detail| {
        ReplayError::Malformed {
            round: 1,
            event: 0,
            detail,
        }
    })?;
    let mut world = World::new(topology, header.c as usize);

    // `round` is the 1-based round currently being assembled, `event`
    // the 0-based index of the *next* event within it — together they
    // pinpoint the first bad event of a corrupt or diverging trace.
    let mut round: u64 = 1;
    let mut event: u64 = 0;
    let mut total_events: u64 = 0;
    let mut rounds_done: u64 = 0;
    // The recorder may have attached to a world with prior rounds on the
    // clock; recorded round numbers are verified relative to the first
    // summary's.
    let mut round_base: Option<u64> = None;
    let mut pending_beeps: Vec<u32> = Vec::new();
    // Gids whose beep the recorded adversary dropped this round: replay
    // keeps them in the beep count and the salted digest term (the send
    // happened) but excludes them from the delivery roots.
    let mut pending_drops: Vec<u32> = Vec::new();
    // Node cursor for gid-ordered config deltas (see `set_pin_gid_hinted`).
    let mut pin_hint = 0usize;
    let mut digest_passes: u64 = 0;

    loop {
        let ev = match reader.next_event() {
            Ok(Some(ev)) => ev,
            Ok(None) => break,
            Err(e) => return Err(trace_err(round, event, e)),
        };
        total_events += 1;
        match ev {
            TraceEvent::ConfigDelta { gid, pset } => {
                if !world.set_pin_gid_hinted(gid, pset, &mut pin_hint) {
                    return Err(ReplayError::Malformed {
                        round,
                        event,
                        detail: format!("config delta gid {gid} -> pset {pset} out of range"),
                    });
                }
            }
            TraceEvent::Beep { gid } => {
                if gid as usize >= world.gid_count() {
                    return Err(ReplayError::Malformed {
                        round,
                        event,
                        detail: format!("beep on gid {gid} out of range"),
                    });
                }
                pending_beeps.push(gid);
            }
            TraceEvent::AddNode { ports } => {
                if ports > MAX_PORTS {
                    return Err(ReplayError::Malformed {
                        round,
                        event,
                        detail: format!("added node with {ports} ports out of range"),
                    });
                }
                world.add_node(ports as usize);
            }
            TraceEvent::Connect { v, p, w, q } => {
                checked_connect(&mut world, v, p, w, q, round, event)?;
            }
            TraceEvent::Disconnect { v, p } => {
                let (v, p) = (v as usize, p as usize);
                if v >= world.topology().len()
                    || p >= world.topology().ports_len(v)
                    || world.topology().peer(v, p).is_none()
                {
                    return Err(ReplayError::Malformed {
                        round,
                        event,
                        detail: format!("disconnect of vacant or out-of-range port {v}:{p}"),
                    });
                }
                world.disconnect(v, p);
            }
            TraceEvent::Isolate { v } => {
                if v as usize >= world.topology().len() {
                    return Err(ReplayError::Malformed {
                        round,
                        event,
                        detail: format!("isolate of out-of-range node {v}"),
                    });
                }
                world.isolate(v as usize);
            }
            // Churn tags annotate the schedule; they carry no state the
            // structural events have not already applied.
            TraceEvent::ChurnTag { .. } => {}
            TraceEvent::FaultDrop { gid } => {
                if gid as usize >= world.gid_count() {
                    return Err(ReplayError::Malformed {
                        round,
                        event,
                        detail: format!("fault drop on gid {gid} out of range"),
                    });
                }
                pending_drops.push(gid);
            }
            // Injected beeps were already recorded as ordinary `Beep`s;
            // the inject record only attributes them to the adversary.
            // Validated but otherwise — like churn and fault tags — an
            // annotation with no replay-verifiable state of its own.
            TraceEvent::FaultInject { gid } => {
                if gid as usize >= world.gid_count() {
                    return Err(ReplayError::Malformed {
                        round,
                        event,
                        detail: format!("fault inject on gid {gid} out of range"),
                    });
                }
            }
            TraceEvent::FaultTag { .. } => {}
            // Flight-record framing metadata: names the reproduction key
            // of the failure the blob documents. A flight record's event
            // window usually starts mid-run, so replay is expected to
            // diverge on it anyway — but the key itself is inert.
            TraceEvent::FlightKey { .. } => {}
            TraceEvent::RoundEnd(summary) => {
                let base = *round_base.get_or_insert(summary.round.wrapping_sub(1));
                if summary.round.wrapping_sub(base) != rounds_done + 1 {
                    return Err(ReplayError::Divergence {
                        round,
                        event,
                        detail: format!(
                            "recorded round number {} does not follow round {}",
                            summary.round,
                            base.wrapping_add(rounds_done)
                        ),
                    });
                }
                if pending_beeps.len() as u32 != summary.beeps {
                    return Err(ReplayError::Divergence {
                        round,
                        event,
                        detail: format!(
                            "beeps: recorded {}, replayed {}",
                            summary.beeps,
                            pending_beeps.len()
                        ),
                    });
                }
                // Tick on the recorded beeps: they go in as the tick's
                // injected beeps (an injected beep and a sent one deliver
                // alike) and the recorded drops as its drops. The tick
                // labels what they reach, as the recorded one did.
                pending_beeps.sort_unstable();
                pending_drops.sort_unstable();
                let faults = TickFaults {
                    drop: std::mem::take(&mut pending_drops),
                    inject: std::mem::take(&mut pending_beeps),
                };
                world.tick_faulted(&faults, &mut NullRecorder);
                let mut digest = faults
                    .inject
                    .iter()
                    .fold(0u64, |acc, &g| acc ^ mix64(g as u64 ^ BEEP_DIGEST_SALT));
                for i in 0..world.marked_roots.len() {
                    let (d, read) = world.circuit_digest(world.marked_roots[i] as usize);
                    digest ^= d;
                    digest_passes += u64::from(read);
                }
                let delivered = world.delivery_count() as u64;
                if delivered != summary.delivered || digest != summary.digest {
                    return Err(ReplayError::Divergence {
                        round,
                        event,
                        detail: format!(
                            "delivery: recorded {} gids digest {:#018x}, \
                             replayed {} gids digest {:#018x}",
                            summary.delivered, summary.digest, delivered, digest
                        ),
                    });
                }
                (pending_beeps, pending_drops) = (faults.inject, faults.drop);
                pending_beeps.clear();
                pending_drops.clear();
                rounds_done += 1;
                round += 1;
                event = 0;
                continue;
            }
        }
        event += 1;
    }

    // The reader checked that the footer counts the rounds verified.
    let footer = reader
        .footer()
        .expect("next_event returned None, so the footer was decoded");
    Ok(ReplayReport {
        nodes: world.topology().len(),
        rounds: rounds_done,
        events: total_events,
        recorded_wall_micros: footer.wall_micros,
        digest_passes,
        relabels: world.walk_relabels() + world.repair_relabels(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_telemetry::wire::fnv1a64;
    use amoebot_telemetry::{Recorder, RoundSummary, TraceWriter};
    use std::ops::Range;

    /// Records a small broadcast run through the real engine and returns
    /// the trace blob.
    fn record_path_run(n: usize, rounds: usize) -> Vec<u8> {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let mut world = World::new(Topology::from_edges(n, &edges), 2);
        for v in 0..n {
            world.global_pin_config(v);
        }
        let mut rec = TraceWriter::new();
        world.record_topology(&mut rec);
        for r in 0..rounds {
            world.beep(r % n, 0);
            world.tick_with(&mut rec);
        }
        rec.finish(1234)
    }

    #[test]
    fn recorded_run_replays_clean() {
        let blob = record_path_run(8, 6);
        let report = replay_trace(&blob).expect("replay must verify");
        assert_eq!(report.nodes, 8);
        assert_eq!(report.rounds, 6);
        assert_eq!(report.recorded_wall_micros, 1234);
    }

    #[test]
    fn churned_run_replays_clean() {
        let mut world = World::new(Topology::from_edges(0, &[]), 1);
        let mut rec = TraceWriter::new();
        rec.topology(1, &[], &[]);
        for _ in 0..4 {
            world.add_node_with(6, &mut rec);
        }
        for v in 0..3 {
            world.connect_with(v, 0, v + 1, 3, &mut rec);
        }
        for v in 0..4 {
            world.global_pin_config(v);
        }
        world.beep(0, 0);
        world.tick_with(&mut rec);
        // Churn: drop the tail, re-attach it elsewhere.
        world.isolate_with(3, &mut rec);
        world.beep(0, 0);
        world.tick_with(&mut rec);
        world.connect_with(3, 0, 0, 3, &mut rec);
        world.global_pin_config(3);
        world.beep(1, 0);
        world.tick_with(&mut rec);
        let blob = rec.finish(0);
        let report = replay_trace(&blob).expect("churned replay must verify");
        assert_eq!(report.rounds, 3);
    }

    /// Where each event of `blob` sits: the event, its byte range, and
    /// the 1-based round and 0-based event index replay reports for it.
    fn event_sites(blob: &[u8]) -> Vec<(TraceEvent, Range<usize>, u64, u64)> {
        let mut r = TraceReader::open(blob).unwrap();
        let (mut round, mut event) = (1, 0);
        let mut sites = Vec::new();
        loop {
            let start = r.offset();
            let Some(ev) = r.next_event().unwrap() else {
                return sites;
            };
            sites.push((ev, start..r.offset(), round, event));
            if matches!(ev, TraceEvent::RoundEnd(_)) {
                (round, event) = (round + 1, 0);
            } else {
                event += 1;
            }
        }
    }

    /// `blob` re-encoded through [`TraceWriter`] with event `at`
    /// replaced by `ev`; the result carries a valid digest, so the edit
    /// reaches replay.
    fn with_event(blob: &[u8], at: usize, ev: TraceEvent) -> Vec<u8> {
        let mut r = TraceReader::open(blob).unwrap();
        let h = r.header().clone();
        let mut w = TraceWriter::new();
        w.topology(h.c, &h.node_ports, &h.edges);
        let mut i = 0;
        while let Some(orig) = r.next_event().unwrap() {
            w.event(if i == at { ev } else { orig });
            i += 1;
        }
        w.finish(r.footer().unwrap().wall_micros)
    }

    /// Every single-bit corruption of a recorded trace is rejected. The
    /// trailing digest catches each flip at open; resealed past it, every
    /// flip in the event stream or the footer's round count must still
    /// fail replay. Only the header and the footer's wall-clock field
    /// rest on the digest alone: no beep observes `c` or a vacant port,
    /// and the wall time is not verified.
    #[test]
    fn bit_corruption_is_rejected() {
        let blob = record_path_run(6, 4);
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
        let sites = event_sites(&blob);
        let events = sites[0].1.start;
        // The footer is `0 | rounds | wall_micros`, and wall_micros = 1234
        // is the 2-byte varint right before the digest.
        let body = blob.len() - 8;
        let wall = body - 2;
        let mut clean = Vec::new();
        for byte in events..wall {
            for bit in 0..8 {
                let mut bad = blob[..body].to_vec();
                bad[byte] ^= 1 << bit;
                let digest = fnv1a64(&bad);
                bad.extend_from_slice(&digest.to_le_bytes());
                if replay_trace(&bad).is_ok() {
                    clean.push((byte, bit));
                }
            }
        }
        assert!(
            clean.is_empty(),
            "resealed flips verified cleanly: {clean:?}"
        );
    }

    /// A flip of any bit of a value replay checks — a round's number,
    /// beep count, delivery count or digest, or a beep's partition set —
    /// is a [`ReplayError::Divergence`] at that round's boundary; a beep
    /// flipped out of range is [`ReplayError::Malformed`] at the beep.
    #[test]
    fn observed_value_flips_diverge_at_their_round() {
        let blob = record_path_run(6, 4);
        let sites = event_sites(&blob);
        // The event index of each round's boundary, by round.
        let mut boundary = vec![0];
        for &(ev, _, _, event) in &sites {
            if matches!(ev, TraceEvent::RoundEnd(_)) {
                boundary.push(event);
            }
        }
        let gids = {
            let edges: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 1)).collect();
            World::new(Topology::from_edges(6, &edges), 2).gid_count() as u32
        };
        let mut checked = 0;
        let mut expect = |at: usize, ev: TraceEvent, round: u64, event: u64, diverges: bool| {
            let err = replay_trace(&with_event(&blob, at, ev)).unwrap_err();
            let located = match err {
                ReplayError::Divergence {
                    round: r, event: e, ..
                } => diverges && (r, e) == (round, event),
                ReplayError::Malformed {
                    round: r, event: e, ..
                } => !diverges && (r, e) == (round, event),
                ReplayError::Trace { .. } => false,
            };
            assert!(
                located,
                "{ev:?} must fail at round {round}, event {event}: {err}"
            );
            checked += 1;
        };
        for (i, &(ev, _, round, event)) in sites.iter().enumerate() {
            let end = boundary[round as usize];
            match ev {
                TraceEvent::RoundEnd(s) => {
                    for b in 0..64 {
                        // The first round's number sets the base the
                        // others are checked against, so a flip there
                        // diverges at round 2.
                        let r = s.round ^ 1 << b;
                        let flipped = TraceEvent::RoundEnd(RoundSummary { round: r, ..s });
                        let at = round.max(2);
                        expect(i, flipped, at, boundary[at as usize], true);
                        let flipped = RoundSummary {
                            delivered: s.delivered ^ 1 << b,
                            ..s
                        };
                        expect(i, TraceEvent::RoundEnd(flipped), round, end, true);
                        let flipped = RoundSummary {
                            digest: s.digest ^ 1 << b,
                            ..s
                        };
                        expect(i, TraceEvent::RoundEnd(flipped), round, end, true);
                    }
                    for b in 0..32 {
                        let flipped = RoundSummary {
                            beeps: s.beeps ^ 1 << b,
                            ..s
                        };
                        expect(i, TraceEvent::RoundEnd(flipped), round, end, true);
                    }
                }
                TraceEvent::Beep { gid } => {
                    for b in 0..32 {
                        let g = gid ^ 1 << b;
                        let flipped = TraceEvent::Beep { gid: g };
                        if g < gids {
                            expect(i, flipped, round, end, true);
                        } else {
                            expect(i, flipped, round, event, false);
                        }
                    }
                }
                _ => {}
            }
        }
        // Four rounds of one beep: 224 flips per boundary and 32 per beep.
        assert_eq!(checked, 4 * (224 + 32));
    }

    /// A diverging round names itself and its boundary's event index.
    #[test]
    fn divergence_reports_round_and_event() {
        let blob = record_path_run(6, 4);
        let sites = event_sites(&blob);
        // The last event is round 4's boundary: flip a bit of its digest.
        let at = sites.len() - 1;
        let (TraceEvent::RoundEnd(s), _, 4, event) = &sites[at] else {
            panic!("the trace must end with round 4's boundary");
        };
        let flipped = RoundSummary {
            digest: s.digest ^ 1 << 17,
            ..*s
        };
        let err = replay_trace(&with_event(&blob, at, TraceEvent::RoundEnd(flipped))).unwrap_err();
        assert!(
            matches!(err, ReplayError::Divergence { round: 4, event: e, .. } if e == *event),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.starts_with(&format!("round 4, event {event}: divergence: delivery")),
            "{msg}"
        );
    }

    #[test]
    fn truncated_trace_is_a_trace_error() {
        let blob = record_path_run(5, 3);
        let cut = &blob[..blob.len() - 3];
        match replay_trace(cut) {
            Err(ReplayError::Trace { .. }) => {}
            other => panic!("expected a trace error, got {other:?}"),
        }
    }
}
