//! What a run reports: end-to-end and per-layer metrics, deterministic
//! counts, failures, and the spans a traced run records around each call
//! into a layer.

use std::fmt::Write as _;

use amoebot_telemetry::Stopwatch;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produces.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly for the same seed, as `name=value`
    /// lines (see the determinism guard in `main.rs`).
    pub counts: Vec<(String, u64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    /// Records a failed operation with its reproduction coordinates.
    pub fn fail(&mut self, workload: &str, seed: u64, op: usize, what: &str) {
        self.failed += 1;
        eprintln!("FAIL workload={workload} seed={seed} op={op}: {what}");
    }
}

/// Set-ups a run repeats at least, and the time it keeps repeating them
/// for: `setup_s` is their median, so a few slow set-ups do not move it.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_US: u64 = 1_000_000;

/// Whether a run that has made `setups` set-ups in `spent_us` makes
/// another one.
pub fn another_setup(setups: usize, spent_us: u64) -> bool {
    setups < MIN_SETUPS || spent_us < SETUP_BUDGET_US
}

/// Nearest-rank percentile `p` (0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[u64], p: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median of `samples` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid] as f64
    } else {
        (sorted[mid - 1] + sorted[mid]) as f64 / 2.0
    }
}

/// One recorded span: a call into a layer, with the span that caused it.
struct Span {
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
}

/// The traced run's span log, kept in memory and written out at the end.
/// Spans nest: a span opened while another is open records it as parent.
pub struct Tracer {
    epoch: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `body` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.epoch.micros(),
            end_us: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_us = self.epoch.micros();
        out
    }

    /// Durations (µs) of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// The span log as tab-separated `id parent name start_us end_us`
    /// lines (parent `-` for roots).
    pub fn render(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_us\tend_us\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

/// Runs `body` under a fresh stopwatch and returns its result with the
/// elapsed microseconds.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, u64) {
    let clock = Stopwatch::start();
    let out = body();
    (out, clock.micros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50), 50);
        assert_eq!(percentile(&xs, 99), 99);
        assert_eq!(percentile(&xs, 100), 100);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert_eq!(median(&[4, 1, 2, 3]), 2.5);
    }

    #[test]
    fn spans_record_their_parent() {
        let mut t = Tracer::new();
        t.span("outer", |t| t.span("inner", |_| ()));
        let log = t.render();
        assert!(log.contains("0\t-\touter"));
        assert!(log.contains("1\t0\tinner"));
        assert_eq!(t.durations("inner").len(), 1);
    }
}
