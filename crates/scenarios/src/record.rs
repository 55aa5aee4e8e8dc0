//! Round-trace recording for scenarios.
//!
//! [`record_scenario`] runs a scenario with a [`TraceWriter`] attached to
//! the engine's recorded mutation paths and returns the serialized trace
//! next to the ordinary cross-validated result. The trace replays through
//! [`amoebot_circuits::replay_trace`], which re-verifies every recorded
//! round against the live engine and reports the round and event index of
//! the first divergence.
//!
//! Recording is restricted to the scenario families whose every pin
//! change is absorbed by a recorded tick (the blob broadcast families,
//! with and without churn); other families drive algorithm-internal simulators the
//! trace format cannot see, so asking to record one is an error rather
//! than a silently unreplayable blob.

use amoebot_telemetry::TraceWriter;

use crate::driver::Kind;
use crate::run::{run_scenario_with, ScenarioResult};
use crate::spec::{MicroWorkload, Scenario, Workload};

/// Whether `scenario` belongs to a family whose run can be recorded as a
/// replayable round trace.
pub fn recordable(scenario: &Scenario) -> bool {
    matches!(
        scenario.workload,
        Workload::Micro(MicroWorkload::Driven {
            kind: Kind::Broadcast | Kind::Churn,
            ..
        })
    )
}

/// Runs `scenario` with a trace recorder attached and returns the result
/// together with the serialized trace bytes. Fails (with the supported
/// family list) when the scenario is not [`recordable`].
pub fn record_scenario(scenario: &Scenario) -> Result<(ScenarioResult, Vec<u8>), String> {
    if !recordable(scenario) {
        return Err(format!(
            "scenario {:?} is not recordable: traces cover the blob-broadcast \
             and blob-churn-broadcast families only",
            scenario.name
        ));
    }
    let mut writer = TraceWriter::new();
    let result = run_scenario_with(scenario, &mut writer);
    // The footer's wall_micros field is stamped 0 here so that two
    // same-seed recordings are byte-identical (the determinism gate
    // diffs whole trace files); wall time lives in the scenario result
    // and the CLI's diagnostics instead.
    let bytes = writer.finish(0);
    Ok((result, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::default_registry;
    use amoebot_circuits::replay_trace;

    #[test]
    fn recorded_blob_broadcast_replays() {
        let registry = default_registry();
        let sc = registry
            .get("blob-broadcast")
            .unwrap()
            .build_sized(7, 300)
            .unwrap();
        let (result, bytes) = record_scenario(&sc).unwrap();
        assert!(result.pass);
        let report = replay_trace(&bytes).unwrap_or_else(|e| panic!("replay failed: {e}"));
        assert_eq!(report.rounds, result.rounds);
        assert_eq!(report.nodes, result.n);
        assert_eq!(report.recorded_wall_micros, 0, "recordings are canonical");
    }

    #[test]
    fn recorded_churn_run_replays() {
        let registry = default_registry();
        let sc = registry
            .get("blob-churn-broadcast")
            .unwrap()
            .build_sized(11, 200)
            .unwrap();
        let (result, bytes) = record_scenario(&sc).unwrap();
        assert!(result.pass);
        let report = replay_trace(&bytes).unwrap_or_else(|e| panic!("replay failed: {e}"));
        assert_eq!(report.rounds, result.rounds);
    }

    #[test]
    fn unrecordable_family_is_refused() {
        let registry = default_registry();
        let sc = registry.get("selftest-fail").unwrap().build(1);
        let err = record_scenario(&sc).unwrap_err();
        assert!(err.contains("not recordable"), "{err}");
    }
}
