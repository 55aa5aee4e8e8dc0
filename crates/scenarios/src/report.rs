//! Machine-readable batch reports.
//!
//! [`BatchReport`] aggregates a batch's [`ScenarioResult`]s and renders
//! the canonical JSON document. Two renderings exist:
//!
//! * the **canonical** report (`include_timing = false`) is byte-identical
//!   for identical `(master_seed, scenarios)` inputs — wall-clock fields
//!   are omitted entirely, everything else is integers and strings with
//!   fixed ordering;
//! * the **timed** report (`include_timing = true`) adds per-scenario and
//!   total `wall_micros` for performance tracking.

use amoebot_telemetry::Metrics;

use crate::json::Json;
use crate::run::ScenarioResult;

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "spf-scenario-report/v1";

/// Schema identifier of the standalone `--metrics-json` document.
pub const METRICS_SCHEMA: &str = "spf-metrics-report/v1";

/// The shared JSON report envelope.
///
/// Every document the toolchain emits — `spf-scenario-report/v1`,
/// `spf-metrics-report/v1`, `spf-sweep-report/v1`, and the
/// scenario-server's `query` responses — opens with the same `schema`
/// header and obeys the same canonical rule: wall-clock and execution
/// provenance go through [`Envelope::timed_field`], which drops them in
/// the `--no-timing` rendering, so the canonical form of every schema is
/// byte-stable across runs and thread counts by construction.
#[derive(Debug, Clone)]
pub struct Envelope {
    doc: Json,
    include_timing: bool,
}

impl Envelope {
    /// Opens an envelope: `{"schema": <schema>, ...}`.
    pub fn new(schema: &str, include_timing: bool) -> Envelope {
        Envelope {
            doc: Json::object().field("schema", schema),
            include_timing,
        }
    }

    /// Whether this rendering includes timing fields.
    pub fn timing(&self) -> bool {
        self.include_timing
    }

    /// Appends a content field (present in both renderings).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Envelope {
        self.doc = self.doc.field(key, value);
        self
    }

    /// Appends a timing/provenance field — dropped from the canonical
    /// rendering.
    pub fn timed_field(self, key: &str, value: impl Into<Json>) -> Envelope {
        if self.include_timing {
            self.field(key, value)
        } else {
            self
        }
    }

    /// Appends a metrics registry (skipped when empty), honoring the
    /// envelope's timing mode for the timer block.
    pub fn metrics(self, m: &Metrics) -> Envelope {
        if m.is_empty() {
            return self;
        }
        let timing = self.include_timing;
        self.field("metrics", metrics_to_json(m, timing))
    }

    /// Seals the envelope into the finished document.
    pub fn finish(self) -> Json {
        self.doc
    }
}

/// Renders one metrics registry as a JSON object. Counters are
/// deterministic and always included (sorted by name); timers are
/// wall-clock derived and appear only with `include_timing` — each as
/// count/sum/min/max plus the p50/p90/p99 estimates from the log2
/// buckets — so the no-timing rendering stays byte-stable across runs.
pub fn metrics_to_json(m: &Metrics, include_timing: bool) -> Json {
    let mut counters = Json::object();
    for (name, v) in m.counters_sorted() {
        counters = counters.field(name, v);
    }
    let mut doc = Json::object().field("counters", counters);
    if include_timing {
        let mut timers = Json::object();
        for (name, h) in m.timers_sorted() {
            timers = timers.field(
                name,
                Json::object()
                    .field("count", h.count)
                    .field("sum", h.sum)
                    .field("min", h.min)
                    .field("max", h.max)
                    .field("p50", h.p50)
                    .field("p90", h.p90)
                    .field("p99", h.p99),
            );
        }
        doc = doc.field("timers", timers);
    }
    doc
}

/// Builds the standalone `--metrics-json` document: the merge of every
/// result's registry, next to the scenario count it aggregates. With
/// `include_timing` disabled the document is canonical (counters only).
pub fn metrics_report(results: &[ScenarioResult], include_timing: bool) -> Json {
    let mut merged = Metrics::new();
    for r in results {
        merged.merge(&r.metrics);
    }
    Envelope::new(METRICS_SCHEMA, include_timing)
        .field("scenarios", results.len())
        .field("metrics", metrics_to_json(&merged, include_timing))
        .finish()
}

/// An aggregated batch outcome.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The master seed the batch was derived from.
    pub master_seed: u64,
    /// Worker threads used (recorded for provenance; never affects
    /// content).
    pub threads: usize,
    /// Per-scenario results, in scenario order.
    pub results: Vec<ScenarioResult>,
}

impl BatchReport {
    /// Number of passing scenarios.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.pass).count()
    }

    /// Number of failing scenarios.
    pub fn failed(&self) -> usize {
        self.results.len() - self.passed()
    }

    /// Renders the report as a JSON document. With `include_timing`
    /// disabled the output is the canonical byte-stable form.
    pub fn to_json(&self, include_timing: bool) -> Json {
        let scenarios: Vec<Json> = self
            .results
            .iter()
            .enumerate()
            .map(|(id, r)| {
                let checks: Vec<Json> = r
                    .checks
                    .iter()
                    .map(|c| {
                        let mut doc = Json::object()
                            .field("name", c.name.as_str())
                            .field("pass", c.pass);
                        if !c.pass {
                            doc = doc.field("detail", c.detail.as_str());
                        }
                        doc
                    })
                    .collect();
                let mut doc = Json::object()
                    .field("id", id)
                    .field("family", r.family.as_str())
                    .field("name", r.name.as_str())
                    .field("seed", r.seed)
                    .field("n", r.n)
                    .field("k", r.k)
                    .field("l", r.l)
                    .field("rounds", r.rounds)
                    .field("beeps", r.beeps);
                if include_timing {
                    doc = doc.field("wall_micros", r.wall_micros);
                }
                if !r.metrics.is_empty() {
                    doc = doc.field("metrics", metrics_to_json(&r.metrics, include_timing));
                }
                doc.field("pass", r.pass)
                    .field("checks", Json::Array(checks))
            })
            .collect();

        let total_rounds: u64 = self.results.iter().map(|r| r.rounds).sum();
        let total_beeps: u64 = self.results.iter().map(|r| r.beeps).sum();
        let mut summary = Json::object()
            .field("passed", self.passed())
            .field("failed", self.failed())
            .field("total_rounds", total_rounds)
            .field("total_beeps", total_beeps);
        if include_timing {
            let total_wall: u64 = self.results.iter().map(|r| r.wall_micros).sum();
            summary = summary.field("total_wall_micros", total_wall);
        }

        // Worker count is execution provenance, like wall-clock: it
        // never affects content, and the canonical report must be
        // byte-identical across thread counts.
        Envelope::new(SCHEMA, include_timing)
            .field("master_seed", self.master_seed)
            .field("count", self.results.len())
            .timed_field("threads", self.threads)
            .field("scenarios", Json::Array(scenarios))
            .field("summary", summary)
            .finish()
    }

    /// The canonical pretty-printed JSON string (no timing; byte-stable).
    pub fn canonical_json(&self) -> String {
        self.to_json(false).render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_batch, Threads};
    use crate::registry::default_registry;

    #[test]
    fn report_counts_and_schema() {
        let registry = default_registry();
        let scenarios = registry.random_suite(11, 6, &[]);
        let results = run_batch(&scenarios, Threads::Count(2));
        let report = BatchReport {
            master_seed: 11,
            threads: 2,
            results,
        };
        assert_eq!(report.passed() + report.failed(), 6);
        let text = report.canonical_json();
        assert!(text.contains(SCHEMA));
        assert!(text.contains("\"rounds\""));
        assert!(!text.contains("wall_micros"));
        let timed = report.to_json(true).render_pretty();
        assert!(timed.contains("wall_micros"));
    }
}
