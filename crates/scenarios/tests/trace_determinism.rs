//! Trace-layer integration gates: same-seed recordings are byte-identical,
//! recorded traces replay cleanly against the live engine, corruption is
//! rejected with a location, and replay verification is cheaper than the
//! simulation it certifies.

use amoebot_circuits::replay_trace;
use amoebot_scenarios::registry::default_registry;
use amoebot_scenarios::{record_scenario, recordable};

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
    // Flip one bit at a spread of positions across the blob. Every
    // corruption must be caught (decode error or divergence), and any
    // divergence report must carry the round and event index. The
    // exhaustive every-bit sweep lives in the circuits replay tests; this
    // gate checks the property survives at scenario scale.
    for pos in [4, bytes.len() / 4, bytes.len() / 2, bytes.len() - 10] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x04;
        match replay_trace(&bad) {
            Ok(_) => panic!("bit flip at byte {pos} went undetected"),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    !msg.is_empty(),
                    "corruption at byte {pos} must explain itself"
                );
                if msg.contains("divergence") {
                    assert!(
                        msg.contains("round") && msg.contains("event"),
                        "divergence at byte {pos} lacks a location: {msg}"
                    );
                }
            }
        }
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
