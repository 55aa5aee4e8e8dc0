//! Flight-record dumping: when a scenario check FAILs, the black box the
//! [`FlightRecorder`] retained is framed as a `.spft` blob and written
//! next to the run, named by — and embedding — the full reproduction key
//! (plan seed + scenario seed + schedule event index).
//!
//! The key is recovered from the FAIL line contract the adversary and
//! churn engines already guarantee: failing check details carry
//! `schedule seed=<plan>`, `scenario seed=<seed>` and `event=#<i>`
//! needles (see `Driver::fail_line`). Workloads without a plan
//! fall back to the scenario's own seed with zeroed plan/event fields,
//! so every dump still names the scenario that produced it.

use std::io;
use std::path::{Path, PathBuf};

use amoebot_telemetry::FlightRecorder;

use crate::run::ScenarioResult;

/// The PR-9 reproduction key a FAIL line names, in structured form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReproKey {
    /// Churn/fault schedule seed (0 when the failure named none).
    pub plan_seed: u64,
    /// The failing scenario's seed.
    pub scenario_seed: u64,
    /// Schedule event index the failure named (0 when none).
    pub event: u64,
}

/// Parses the decimal run immediately after `needle` in `text`.
fn num_after(text: &str, needle: &str) -> Option<u64> {
    let start = text.find(needle)? + needle.len();
    let digits: String = text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Recovers the reproduction key from a result's failing check details.
/// Scans failing checks in order and takes the first occurrence of each
/// fragment; anything the FAIL lines never named stays at its fallback
/// (`scenario_seed` defaults to the result's own seed).
pub fn reproduction_key(r: &ScenarioResult) -> ReproKey {
    let mut key = ReproKey {
        scenario_seed: r.seed,
        ..ReproKey::default()
    };
    let mut have_plan = false;
    let mut have_event = false;
    for c in r.checks.iter().filter(|c| !c.pass) {
        if !have_plan {
            // Covers both engines: "fault schedule seed=" and
            // "churn schedule seed=".
            if let Some(v) = num_after(&c.detail, "schedule seed=") {
                key.plan_seed = v;
                have_plan = true;
            }
        }
        if let Some(v) = num_after(&c.detail, "scenario seed=") {
            key.scenario_seed = v;
        }
        if !have_event {
            if let Some(v) = num_after(&c.detail, "event=#") {
                key.event = v;
                have_event = true;
            }
        }
        if have_plan && have_event {
            break;
        }
    }
    key
}

/// The dump's file name: the sanitized scenario name plus every key
/// fragment, so a directory of flight records is greppable by plan seed,
/// scenario seed or event index alone.
pub fn flight_file_name(r: &ScenarioResult, key: ReproKey) -> String {
    let sanitized: String = r
        .name
        .chars()
        .map(|ch| {
            if ch.is_ascii_alphanumeric() || matches!(ch, '.' | '_' | '-') {
                ch
            } else {
                '-'
            }
        })
        .collect();
    format!(
        "{sanitized}-plan{}-seed{}-event{}.spft",
        key.plan_seed, key.scenario_seed, key.event
    )
}

/// Dumps the retained flight window for a failing result into `dir`
/// (created on demand). Returns the written path, or `Ok(None)` when
/// there is nothing to dump — the result passed, or the recorder never
/// attached to a world (structureless self-test workloads).
pub fn dump_flight_record<const TIMED: bool>(
    dir: &Path,
    r: &ScenarioResult,
    rec: &FlightRecorder<TIMED>,
) -> io::Result<Option<PathBuf>> {
    if r.pass || !rec.is_attached() {
        return Ok(None);
    }
    let key = reproduction_key(r);
    let bytes = match rec.to_trace_bytes(key.plan_seed, key.scenario_seed, key.event) {
        Some(b) => b,
        None => return Ok(None),
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(flight_file_name(r, key));
    std::fs::write(&path, bytes)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::CheckResult;
    use amoebot_telemetry::{Recorder, RoundSummary, TraceEvent, TraceReader};

    fn failing_result(name: &str, seed: u64, detail: &str) -> ScenarioResult {
        ScenarioResult {
            family: "f".to_string(),
            name: name.to_string(),
            seed,
            n: 4,
            k: 1,
            l: 0,
            rounds: 1,
            beeps: 0,
            wall_micros: 0,
            checks: vec![
                CheckResult::pass("ok-check"),
                CheckResult::fail("oracle", detail.to_string()),
            ],
            pass: false,
            metrics: amoebot_telemetry::Metrics::new(),
        }
    }

    #[test]
    fn key_parses_the_adversary_fail_line_format() {
        let r = failing_result(
            "adv/x",
            9,
            "fault schedule seed=123 scenario seed=45 event=#6 (stuck-line): beeps diverged",
        );
        assert_eq!(
            reproduction_key(&r),
            ReproKey {
                plan_seed: 123,
                scenario_seed: 45,
                event: 6
            }
        );
    }

    #[test]
    fn key_parses_the_churn_fail_line_format() {
        let r = failing_result(
            "churn/x",
            7,
            "churn schedule seed=88 event=#3 (blob-churn-broadcast): bad",
        );
        // No "scenario seed=" fragment: falls back to the result's seed.
        assert_eq!(
            reproduction_key(&r),
            ReproKey {
                plan_seed: 88,
                scenario_seed: 7,
                event: 3
            }
        );
    }

    #[test]
    fn key_falls_back_to_the_scenario_seed_alone() {
        let r = failing_result("plain/x", 31, "expected 4 deliveries, got 3");
        assert_eq!(
            reproduction_key(&r),
            ReproKey {
                plan_seed: 0,
                scenario_seed: 31,
                event: 0
            }
        );
    }

    #[test]
    fn file_names_are_sanitized_and_carry_every_fragment() {
        let r = failing_result(
            "blob-churn/n100 e5",
            7,
            "churn schedule seed=88 event=#3 (x)",
        );
        let key = reproduction_key(&r);
        let name = flight_file_name(&r, key);
        assert_eq!(name, "blob-churn-n100-e5-plan88-seed7-event3.spft");
    }

    #[test]
    fn dump_writes_a_decodable_record_and_skips_unattached() {
        let dir = std::env::temp_dir().join(format!("spf-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Unattached recorder: nothing to dump.
        let r = failing_result(
            "x",
            1,
            "fault schedule seed=5 scenario seed=1 event=#2 (l): d",
        );
        let rec = FlightRecorder::with_capacity(8);
        assert_eq!(dump_flight_record(&dir, &r, &rec).unwrap(), None);

        // Passing result: nothing to dump either.
        let mut rec = FlightRecorder::with_capacity(8);
        rec.topology(1, &[2, 2], &[(0, 0, 1, 1)]);
        let mut passing = failing_result("x", 1, "d");
        passing.pass = true;
        assert_eq!(dump_flight_record(&dir, &passing, &rec).unwrap(), None);

        // Failing + attached: the dump decodes and leads with the key.
        rec.event(TraceEvent::Beep { gid: 0 });
        rec.event(TraceEvent::RoundEnd(RoundSummary::default()));
        let path = dump_flight_record(&dir, &r, &rec)
            .unwrap()
            .expect("a record must be dumped");
        let bytes = std::fs::read(&path).unwrap();
        let mut reader = TraceReader::open(&bytes).unwrap();
        assert_eq!(
            reader.next_event().unwrap(),
            Some(TraceEvent::FlightKey {
                plan_seed: 5,
                scenario_seed: 1,
                event: 2
            })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
