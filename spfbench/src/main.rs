//! The repository benchmark. One command runs one seeded workload, checks
//! every output, and prints its metrics by name with their units; the
//! last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path spfbench/Cargo.toml -- \
//!     --workload spt-sparse --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Workloads: `spt-sparse`, `forest-dense`, `session-churn` (see
//! `spfbench/README.md`). `--trace 0` reports the end-to-end metrics from
//! an untraced run; `--trace 1` splits the run length into an untraced
//! and a traced pass and reports the per-layer metrics, including the
//! tracing overhead between the two. Exit code 0 means every check
//! passed, 1 a failed check, 2 a usage error.

mod churn;
mod ledger;
mod solve;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::{Metric, Outcome, Tracer};

/// The end-to-end metrics every `--trace 0` run reports (BENCHMARK.json's
/// `end_to_end`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("rounds_per_op", "rounds"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// The per-layer metrics every `--trace 1` run reports (BENCHMARK.json's
/// `per_layer`). A layer a workload does not reach reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("grid.generate_s", "s"),
    ("grid.build_s", "s"),
    ("grid.revalidate_ms.p50", "ms"),
    ("circuits.build_ms", "ms"),
    ("circuits.tick_ms.p50", "ms"),
    ("circuits.tick_ms.p99", "ms"),
    ("circuits.count_ms.p99", "ms"),
    ("circuits.relabel_global", "count"),
    ("circuits.relabel_region", "count"),
    ("circuits.phase_us.propagate", "us"),
    ("circuits.phase_us.region_dissolve", "us"),
    ("circuits.phase_us.region_reunion", "us"),
    ("circuits.phase_us.membership_repack", "us"),
    ("circuits.phase_us.global_relabel", "us"),
    ("core.solve_s", "s"),
    ("core.rounds", "rounds"),
    ("core.us_per_round", "us"),
    ("core.beeps_per_solve", "count"),
    ("core.rounds.portal_x", "rounds"),
    ("core.rounds.portal_y", "rounds"),
    ("core.rounds.portal_z", "rounds"),
    ("core.rounds.cleanup", "rounds"),
    ("core.rounds.lemma51", "rounds"),
    ("core.rounds.lemma52", "rounds"),
    ("core.rounds.lemma53", "rounds"),
    ("core.rounds.lemma54", "rounds"),
    ("core.rounds.lemma37", "rounds"),
    ("core.rounds.lemma55", "rounds"),
    ("core.rounds.cor57", "rounds"),
    ("dynamics.apply_ms.p50", "ms"),
    ("dynamics.live_nodes", "count"),
    ("server.req_ms.p50", "ms"),
    ("server.req_ms.p99", "ms"),
    ("server.req_ms.step.p50", "ms"),
    ("server.req_ms.mutate.p50", "ms"),
    ("server.req_ms.query.p50", "ms"),
    ("server.req_ms.stats.p50", "ms"),
    ("server.session_ms.step.p50", "ms"),
    ("server.session_ms.mutate.p50", "ms"),
    ("server.session_ms.query.p50", "ms"),
    ("server.session_ms.stats.p50", "ms"),
    ("check.validate_ms", "ms"),
    ("check.oracle_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.samples", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: spfbench --workload <spt-sparse|forest-dense|session-churn> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the benchmark keeps its own files: next to its executable,
/// inside the build directory.
fn state_dir(kind: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.join(kind);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// Writes a traced run's span log beside the executable.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    if let Some(dir) = state_dir("spfbench-spans") {
        let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracer.render()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 if unknown.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The determinism guard: the first run of a seed with this build records
/// its counts, every later run of that seed with the same build must
/// reproduce them exactly. Returns the counts that differ.
fn guard_counts(args: &Args, counts: &[(String, u64)]) -> Vec<String> {
    let rendered: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let (Some(dir), Some(build)) = (state_dir("spfbench-counts"), build_id()) else {
        return Vec::new();
    };
    let path = dir.join(format!("{}-seed{}-{build}.txt", args.workload, args.seed));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == rendered => Vec::new(),
        Ok(previous) => {
            let old: Vec<&str> = previous.lines().collect();
            let differ: Vec<String> = rendered
                .lines()
                .filter(|l| !old.contains(l))
                .map(str::to_string)
                .collect();
            if differ.is_empty() {
                vec![format!(
                    "{} counts recorded, {} now",
                    old.len(),
                    counts.len()
                )]
            } else {
                differ
            }
        }
        Err(_) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                eprintln!("cannot write {}: {e}", path.display());
            }
            Vec::new()
        }
    }
}

/// Identifies this build of the benchmark by its executable's size and
/// modification time, so a rebuilt benchmark starts a fresh record.
fn build_id() -> Option<String> {
    let meta = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
    // spf-lint: allow(wall-clock) — reads a file's modification stamp to key the record; no clock is read
    let stamp = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    Some(format!("{}-{}", meta.len(), stamp.as_nanos()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out: Outcome = match args.workload.as_str() {
        "spt-sparse" => solve::run(&solve::SPT_SPARSE, &args),
        "forest-dense" => solve::run(&solve::FOREST_DENSE, &args),
        "session-churn" => churn::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let differ = guard_counts(&args, &out.counts);
    if !differ.is_empty() {
        let what = format!("counts differ from an earlier run: {}", differ.join(", "));
        out.fail(&args.workload, args.seed, 0, &what);
    }
    out.attempted = out.attempted.max(1);
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric(
            "ok_ratio",
            out.attempted.saturating_sub(out.failed) as f64 / out.attempted as f64,
            "ratio",
        );
    }
    let mut report: Vec<Metric> = Vec::new();
    for &(name, unit) in declared {
        let value = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        report.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    let undeclared: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !declared.iter().any(|&(n, _)| n == m.name))
        .map(|m| m.name.clone())
        .collect();
    for name in undeclared {
        out.fail(
            &args.workload,
            args.seed,
            0,
            &format!("metric {name} is not declared"),
        );
    }

    for (k, v) in &out.counts {
        println!("count {k} = {v}");
    }
    for m in &report {
        println!("{:<40} {:>14} {}", m.name, json_number(m.value), m.unit);
    }
    let correct = out.failed == 0;
    let metrics: Vec<String> = report
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
