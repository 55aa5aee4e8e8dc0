//! Trace-layer integration gates: same-seed recordings are byte-identical,
//! recorded traces replay cleanly against the live engine, corruption is
//! rejected with a location, replay verification is cheaper than the
//! simulation it certifies, and recording changes nothing the engine does.

use amoebot_circuits::{replay_trace, ReplayError};
use amoebot_scenarios::registry::default_registry;
use amoebot_scenarios::{record_scenario, recordable, run_scenario_with};
use amoebot_telemetry::wire::fnv1a64;
use amoebot_telemetry::{FlightRecorder, NullRecorder, TraceEvent, TraceReader};

/// The two recordable families, at sizes that exercise multi-region
/// structures (and, for churn, the dynamic edit path) without dominating
/// the test wall time.
fn recordable_scenarios() -> Vec<amoebot_scenarios::Scenario> {
    let registry = default_registry();
    vec![
        registry
            .get("blob-broadcast")
            .unwrap()
            .build_sized(33, 400)
            .unwrap(),
        registry
            .get("blob-churn-broadcast")
            .unwrap()
            .build_sized(33, 250)
            .unwrap(),
    ]
}

#[test]
fn same_seed_runs_record_byte_identical_traces() {
    for sc in recordable_scenarios() {
        assert!(recordable(&sc));
        let (ra, a) = record_scenario(&sc).unwrap();
        let (rb, b) = record_scenario(&sc).unwrap();
        assert!(ra.pass && rb.pass, "{}: recorded runs must pass", sc.name);
        assert_eq!(a, b, "{}: same-seed traces must be byte-identical", sc.name);
    }
}

#[test]
fn recorded_traces_replay_cleanly() {
    for sc in recordable_scenarios() {
        let (result, bytes) = record_scenario(&sc).unwrap();
        let report =
            replay_trace(&bytes).unwrap_or_else(|e| panic!("{}: replay failed: {e}", sc.name));
        assert_eq!(report.rounds, result.rounds, "{}", sc.name);
        assert_eq!(report.nodes, result.n, "{}", sc.name);
        assert!(report.events > 0, "{}: trace carries events", sc.name);
    }
}

#[test]
fn corrupted_traces_are_rejected_with_a_location() {
    let sc = &recordable_scenarios()[0];
    let (_, bytes) = record_scenario(sc).unwrap();
    // Flip one bit at a spread of positions across the blob: the version
    // check or the trailing digest rejects each one.
    for pos in [4, bytes.len() / 4, bytes.len() / 2, bytes.len() - 10] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x04;
        assert!(
            replay_trace(&bad).is_err(),
            "bit flip at byte {pos} went undetected"
        );
    }
    // Resealed past the digest, a flip in a spread of rounds' recorded
    // digests reaches replay, which must name the diverging round and the
    // event index of its boundary. The exhaustive sweeps live in the
    // circuits replay tests; this gate checks the property survives at
    // scenario scale.
    let mut boundaries = Vec::new();
    let mut r = TraceReader::open(&bytes).unwrap();
    let (mut round, mut event) = (1u64, 0u64);
    while let Some(ev) = r.next_event().unwrap() {
        if matches!(ev, TraceEvent::RoundEnd(_)) {
            // The 8-byte digest ends the record.
            boundaries.push((r.offset() - 8, round, event));
            (round, event) = (round + 1, 0);
        } else {
            event += 1;
        }
    }
    let n = boundaries.len();
    for i in [0, n / 4, n / 2, n - 1] {
        let (at, round, event) = boundaries[i];
        let mut bad = bytes[..bytes.len() - 8].to_vec();
        bad[at] ^= 0x04;
        let digest = fnv1a64(&bad);
        bad.extend_from_slice(&digest.to_le_bytes());
        let err = replay_trace(&bad).unwrap_err();
        assert!(
            matches!(err, ReplayError::Divergence { round: r, event: e, .. } if (r, e) == (round, event)),
            "digest flip of round {round} (event {event}): {err}"
        );
        let msg = err.to_string();
        assert!(
            msg.starts_with(&format!("round {round}, event {event}: divergence")),
            "{msg}"
        );
    }
}

/// Replay's delivery work is one digest pass per circuit per relabel,
/// memoized across clean rounds, while the simulation delivers to every
/// member every round. Counted rather than timed, so the gate holds on a
/// loaded machine: doubling the recorded run must not add a single
/// digest pass or relabel.
#[test]
fn replay_is_cheaper_than_the_run_it_verifies() {
    use amoebot_scenarios::driver::Kind;
    use amoebot_scenarios::spec::{MicroWorkload, Workload};

    let replayed = |rounds: usize| {
        let sc = amoebot_scenarios::Scenario::micro(
            "blob-broadcast",
            42,
            MicroWorkload::Driven {
                kind: Kind::Broadcast,
                n: 2_000,
                events: rounds,
                per_event: 0,
            },
        );
        assert!(matches!(sc.workload, Workload::Micro(_)));
        let (result, bytes) = record_scenario(&sc).unwrap();
        assert!(result.pass);
        let report = replay_trace(&bytes).unwrap_or_else(|e| panic!("replay failed: {e}"));
        assert_eq!(report.rounds, rounds as u64);
        report
    };
    let (short, long) = (replayed(256), replayed(512));
    assert_eq!(
        (short.digest_passes, short.relabels),
        (long.digest_passes, long.relabels),
        "replay work grew with the run length"
    );
    assert!(short.digest_passes > 0 && short.digest_passes < 256);
}

/// Every tick takes the one labelling path, whatever its recorder: each
/// flight-recorded sweep family, run at 1k under the flight recorder and
/// under no recorder, reports the same rounds, beeps, checks and
/// labelling counters.
#[test]
fn flight_recorded_runs_label_like_unrecorded_ones() {
    let registry = default_registry();
    for family in [
        "blob-broadcast",
        "blob-churn-broadcast",
        "fault-lossy-broadcast",
        "fault-stuckpin-broadcast",
        "fault-unfair-broadcast",
        "fault-crashrecover-broadcast",
    ] {
        let sc = registry
            .get(family)
            .unwrap()
            .build_sized(42, 1_000)
            .unwrap();
        let mut flight: FlightRecorder = FlightRecorder::default();
        let recorded = run_scenario_with(&sc, &mut flight);
        let unrecorded = run_scenario_with(&sc, &mut NullRecorder);
        assert!(
            flight.rounds_seen() > 0,
            "{family}: the recorder saw the ticks"
        );
        let counts = |r: &amoebot_scenarios::ScenarioResult| {
            let relabels = ["global", "region", "walk", "repair"]
                .map(|kind| r.metrics.counter_value(&format!("relabel_{kind}")));
            (r.rounds, r.beeps, r.checks.clone(), relabels)
        };
        assert_eq!(counts(&recorded), counts(&unrecorded), "{family}");
        assert!(recorded.pass, "{family}");
        assert!(
            counts(&recorded).3.iter().sum::<u64>() > 0,
            "{family} labels"
        );
    }
}
