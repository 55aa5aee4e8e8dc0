//! Parallel batch execution.
//!
//! Each scenario owns its `World`, so scenarios are embarrassingly
//! parallel: a fixed pool of `std::thread` workers pulls indices off an
//! atomic counter and writes results into per-slot cells. Results come
//! back **in scenario order** regardless of which thread ran what or how
//! runs interleaved — thread count never changes a report's content, which
//! the determinism tests pin down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use amoebot_telemetry::{NullRecorder, Recorder};

use crate::run::{run_scenario_with, ScenarioResult};
use crate::spec::Scenario;

/// How many worker threads to use: an explicit count, or one per
/// available core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Autodetect (`std::thread::available_parallelism`).
    Auto,
    /// Exactly this many workers (at least 1).
    Count(usize),
}

impl Threads {
    /// Resolves to a concrete worker count.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Count(n) => n.max(1),
            Threads::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Runs every scenario, spreading them over `threads` workers, and returns
/// the results in scenario order.
pub fn run_batch(scenarios: &[Scenario], threads: Threads) -> Vec<ScenarioResult> {
    run_batch_inspect::<NullRecorder>(scenarios, threads, |_, _| {})
}

/// [`run_batch`] with each worker driving its scenarios through a fresh
/// recorder of type `R`, plus a per-scenario hook. A
/// [`amoebot_telemetry::TimedRecorder`] turns on the per-phase timers
/// that `--metrics-json` and the timed sweep report surface. Whole-run
/// trace writers are deliberately unsupported here (a round trace must
/// capture exactly one world); the per-scenario
/// [`amoebot_telemetry::FlightRecorder`] is fine, since every scenario
/// gets a fresh `R::default()`.
///
/// `inspect` runs on the worker thread right after each scenario
/// finishes, seeing the result and the recorder that ran it — the
/// flight-record dump path. The hook must not mutate shared state
/// non-commutatively: it runs concurrently across workers, in completion
/// (not scenario) order.
pub fn run_batch_inspect<R: Recorder + Default>(
    scenarios: &[Scenario],
    threads: Threads,
    inspect: impl Fn(&ScenarioResult, &R) + Sync,
) -> Vec<ScenarioResult> {
    let workers = threads.resolve().min(scenarios.len()).max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScenarioResult>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    let inspect = &inspect;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= scenarios.len() {
                    break;
                }
                let mut rec = R::default();
                let result = run_scenario_with(&scenarios[i], &mut rec);
                inspect(&result, &rec);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every scenario index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::default_registry;

    #[test]
    fn batch_results_keep_scenario_order_and_content_across_thread_counts() {
        let registry = default_registry();
        let scenarios = registry.random_suite(3, 10, &[]);
        let serial = run_batch(&scenarios, Threads::Count(1));
        let parallel = run_batch(&scenarios, Threads::Count(4));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.beeps, b.beeps);
            assert_eq!(a.pass, b.pass);
        }
        for (sc, res) in scenarios.iter().zip(&serial) {
            assert_eq!(sc.name, res.name);
        }
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let registry = default_registry();
        let scenarios = registry.random_suite(5, 2, &[]);
        let results = run_batch(&scenarios, Threads::Count(16));
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.pass));
    }

    #[test]
    fn thread_resolution() {
        assert_eq!(Threads::Count(0).resolve(), 1);
        assert_eq!(Threads::Count(3).resolve(), 3);
        assert!(Threads::Auto.resolve() >= 1);
    }
}
