//! Property coverage for the binary trace codec: encode→decode identity
//! over randomized event streams, through both sinks, truncated-input
//! error paths, and version-tag rejection.

use amoebot_telemetry::{
    mix64, FlightRecorder, Recorder, RoundSummary, TraceError, TraceEvent, TraceReader,
    TraceWriter, TRACE_VERSION,
};
use proptest::prelude::*;

/// Derives a deterministic pseudo-random event stream from one seed and
/// returns `(expected events, encoded blob)`. Every event family is
/// exercised; field values span the varint width spectrum (single-byte
/// through full u64 digests).
fn synthesize(seed: u64, events: usize) -> (Vec<TraceEvent>, Vec<u8>) {
    let mut w = TraceWriter::new();
    let rand = |i: u64| mix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9)));
    let n = 2 + (rand(0) % 5) as usize;
    let ports: Vec<u32> = (0..n)
        .map(|i| 1 + (rand(i as u64 + 1) % 6) as u32)
        .collect();
    let edges: Vec<(u32, u32, u32, u32)> = (1..n as u32)
        .map(|v| {
            (
                v - 1,
                rand(v as u64) as u32 % 6,
                v,
                rand(v as u64 + 77) as u32 % 6,
            )
        })
        .collect();
    let c = 1 + (rand(99) % 4) as u32;
    w.topology(c, &ports, &edges);

    let mut expected = Vec::new();
    let mut round = 0u64;
    for i in 0..events {
        let r = rand(1000 + i as u64);
        let ev = match r % 12 {
            0 => TraceEvent::ConfigDelta {
                gid: (r >> 8) as u32,
                pset: (r >> 40) as u16,
            },
            1 => TraceEvent::Beep {
                gid: (r >> 8) as u32,
            },
            2 => TraceEvent::AddNode {
                ports: (r >> 8) as u32 % 7,
            },
            3 => TraceEvent::Connect {
                v: (r >> 8) as u32,
                p: (r >> 16) as u32 % 6,
                w: (r >> 24) as u32,
                q: (r >> 32) as u32 % 6,
            },
            4 => TraceEvent::Disconnect {
                v: (r >> 8) as u32,
                p: (r >> 16) as u32 % 6,
            },
            5 => TraceEvent::Isolate { v: (r >> 8) as u32 },
            6 => TraceEvent::ChurnTag {
                index: i as u32,
                inserted: (r >> 8) as u32 % 100,
                removed: (r >> 16) as u32 % 100,
            },
            7 => TraceEvent::FaultDrop {
                gid: (r >> 8) as u32,
            },
            8 => TraceEvent::FaultInject {
                gid: (r >> 8) as u32,
            },
            9 => TraceEvent::FaultTag {
                index: i as u32,
                dropped: (r >> 8) as u32 % 100,
                injected: (r >> 16) as u32 % 100,
                disabled: (r >> 24) as u32 % 100,
                wiped: (r >> 32) as u32 % 100,
            },
            10 => TraceEvent::FlightKey {
                plan_seed: mix64(r),
                scenario_seed: r >> 8,
                event: (r >> 48) & 0xFF,
            },
            _ => {
                round += 1;
                TraceEvent::RoundEnd(RoundSummary {
                    round,
                    beeps: (r >> 8) as u32,
                    delivered: r >> 16,
                    digest: mix64(r),
                })
            }
        };
        w.event(ev);
        expected.push(ev);
    }
    let blob = w.finish(rand(31337));
    (expected, blob)
}

fn decode_all(blob: &[u8]) -> Result<Vec<TraceEvent>, TraceError> {
    let mut r = TraceReader::open(blob)?;
    let mut out = Vec::new();
    while let Some(ev) = r.next_event()? {
        out.push(ev);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode→decode is the identity on the event stream, and the footer
    /// carries the exact round count. The same stream pushed through a
    /// flight recorder that holds all of it dumps as its key followed by
    /// exactly those events.
    #[test]
    fn codec_round_trips(seed in 0u64..1_000_000, events in 0usize..120) {
        let (expected, blob) = synthesize(seed, events);
        let mut r = TraceReader::open(&blob).unwrap();
        let mut decoded = Vec::new();
        while let Some(ev) = r.next_event().unwrap() {
            decoded.push(ev);
        }
        prop_assert_eq!(&decoded, &expected);
        let rounds = expected
            .iter()
            .filter(|e| matches!(e, TraceEvent::RoundEnd(_)))
            .count() as u64;
        prop_assert_eq!(r.footer().unwrap().rounds, rounds);

        let h = r.header();
        let mut flight = FlightRecorder::with_capacity(expected.len());
        flight.topology(h.c, &h.node_ports, &h.edges);
        for &ev in &expected {
            flight.event(ev);
        }
        let (plan_seed, scenario_seed, event) = (mix64(seed), seed, events as u64);
        let dump = flight.to_trace_bytes(plan_seed, scenario_seed, event).unwrap();
        let dumped = decode_all(&dump).unwrap();
        prop_assert_eq!(
            dumped.first(),
            Some(&TraceEvent::FlightKey { plan_seed, scenario_seed, event })
        );
        prop_assert_eq!(&dumped[1..], &expected[..]);
    }

    /// Every strict prefix of a valid trace fails to decode — with an
    /// error, never a panic, never a silent success.
    #[test]
    fn truncation_always_errors(seed in 0u64..1_000_000, cut_salt in 0u64..10_000) {
        let (_, blob) = synthesize(seed, 24);
        let cut = (mix64(cut_salt) % blob.len() as u64) as usize;
        prop_assert!(
            decode_all(&blob[..cut]).is_err(),
            "prefix of {} / {} bytes decoded cleanly",
            cut,
            blob.len()
        );
    }

    /// Any version tag other than the current one is rejected at open.
    #[test]
    fn foreign_versions_are_rejected(version in 0u64..128) {
        if version == TRACE_VERSION as u64 {
            return;
        }
        let (_, mut blob) = synthesize(7, 4);
        blob[4] = version as u8; // single-byte varint slot
        match TraceReader::open(&blob) {
            Err(TraceError::BadVersion(v)) => prop_assert_eq!(v as u64, version),
            other => prop_assert!(false, "expected BadVersion, got {:?}", other.err()),
        }
    }
}
