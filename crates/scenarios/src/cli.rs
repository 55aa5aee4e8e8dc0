//! `scenario-runner` — batch-run randomized scenarios and emit a JSON
//! report.
//!
//! ```text
//! scenario-runner run    [--seed N] [--count N] [--threads N] [--family NAME]...
//!                        [--out PATH] [--metrics-json PATH] [--no-timing]
//!                        [--list] [--quiet]
//! scenario-runner sweep  [--max-nodes N] [--checkpoint-dir DIR] [common flags]
//! scenario-runner trace  PATH [--family NAME] [--size N] [--seed N]
//! scenario-runner replay PATH
//! ```
//!
//! A bare flag list with no subcommand is a batch run, as with `run`.
//! Every mode shares the exit-code contract (`0` pass / `1` validation
//! failure / `2` usage or I/O error). The `serve` mode lives in the
//! separate `scenario-server` binary, built from the same parsing
//! helpers.
//!
//! Every scenario is derived deterministically from `--seed`, executed in
//! parallel across `--threads` workers (each scenario owns its simulator
//! world), cross-validated against the centralized BFS baselines, and
//! reported with round counts, beep counts and pass/fail. With
//! `--no-timing` the report is canonical: byte-identical across runs and
//! thread counts for the same seed.
//!
//! `sweep` switches to the size-sweep mode: every sweepable family runs
//! across the geometric ladder 1k → 10k → 100k → 1M (clipped by
//! `--max-nodes` and per-family ceilings) and the report carries
//! per-(family, size) throughput — the `BENCH_sweep.json` the CI perf
//! gate diffs against `bench/baseline.json`. Timed sweeps run with the
//! phase timers on, so every rung additionally carries its engine metric
//! breakdown (relabel counts, beep totals, per-phase micros).
//!
//! `--metrics-json PATH` writes the run's merged engine-metrics document
//! (schema `spf-metrics-report/v1`) next to the main report; under
//! `--no-timing` it is canonical (counters and gauges only, timers
//! stripped).
//!
//! `trace PATH` records a single scenario (`--family`, `--size`,
//! `--seed`; blob-broadcast families only) as a compact binary round
//! trace; `replay PATH` re-verifies such a trace against the live
//! engine, failing loudly with the round and event index of the first
//! divergence.
//!
//! Batch and sweep runs additionally run every scenario with a **flight
//! recorder**: a bounded ring of the most recent trace events. When a
//! scenario check FAILs, the retained window is dumped under
//! `--flight-dir` as a `.spft` blob named by — and embedding — the full
//! reproduction key (plan seed, scenario seed, schedule event index),
//! decodable with the standard trace tooling. `--no-flight` skips the
//! dump; the recorder still runs.
//!
//! Failures are never silent: per-scenario `FAIL` lines print even under
//! `--quiet`, a `summary:` line always reports pass/fail counts, and the
//! exit code is non-zero whenever any scenario fails cross-validation
//! (or a replay diverges).

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;

use amoebot_telemetry::{FlightRecorder, TimedFlightRecorder};

use crate::batch::{run_batch_inspect, Threads};
use crate::flight::dump_flight_record;
use crate::record::record_scenario;
use crate::registry::{default_registry, Registry};
use crate::report::{metrics_report, BatchReport};
use crate::run::ScenarioResult;
use crate::spec::{MicroWorkload, Scenario, Workload};
use crate::sweep::{
    run_sweep_observed, sweep_suite, CheckpointStore, RungOutcome, SweepPoint, SweepReport,
    DEFAULT_SIZES,
};

struct Args {
    mode: Mode,
    /// The `trace`/`replay` operand: the trace file to write or read.
    path: Option<String>,
    seed: u64,
    count: usize,
    threads: Threads,
    families: Vec<String>,
    out: Option<String>,
    metrics_json: Option<String>,
    size: usize,
    rounds: Option<usize>,
    timing: bool,
    list: bool,
    quiet: bool,
    max_nodes: usize,
    checkpoint_dir: Option<String>,
    flight_dir: String,
    no_flight: bool,
}

const USAGE: &str = "usage: scenario-runner run    [--seed N] [--count N] [--threads N] \
     [--family NAME]... [--out PATH] [--metrics-json PATH] [--no-timing] [--list] [--quiet]\n\
     \x20      scenario-runner sweep  [--max-nodes N] [--checkpoint-dir DIR] [common flags]\n\
     \x20      scenario-runner trace  PATH [--family NAME] [--size N] [--seed N]\n\
     \x20      scenario-runner replay PATH\n\
     \n\
     --seed N       master seed for the randomized suite (default 42)\n\
     --count N      number of scenarios to run (default 20)\n\
     --threads N    worker threads (default: one per core)\n\
     --family NAME  restrict to a registry family (repeatable; see --list)\n\
     --out PATH     write the JSON report to PATH (default: stdout)\n\
     --metrics-json PATH  write the merged engine-metrics JSON to PATH\n\
     --no-timing    canonical report: omit wall-clock and timer fields\n\
     --list         list registered scenario families and exit\n\
     --quiet        suppress progress lines (failures still print)\n\
     --max-nodes N  clip the sweep ladder at N nodes (default 1000000)\n\
     --checkpoint-dir DIR  sweep only: append finished rungs to DIR and\n\
     \x20              resume, skipping rungs already passed there\n\
     --flight-dir DIR  where failing scenarios dump their flight records\n\
     \x20              (default: flight-records)\n\
     --no-flight    skip the flight-record dumps (the recorder still runs)\n\
     --size N       structure size for trace recording (default 10000)\n\
     --rounds N     recorded run length override: broadcast rounds, or churn\n\
     \x20              events for blob-churn-broadcast (default: family-defined)";

enum ParseOutcome {
    Run(Box<Args>),
    /// Exit immediately with this code (bad usage, or `--help`).
    Exit(u8),
}

/// Parses one numeric flag value, naming the flag and the offending text
/// on failure. Shared by the `scenario-runner` and `scenario-server`
/// front ends so both diagnose `--port abc` the same way.
pub(crate) fn parse_num_value<T: std::str::FromStr>(
    raw: &str,
    flag: &str,
    out: &mut dyn Write,
) -> Option<T> {
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            let _ = writeln!(out, "invalid value for {flag}: {raw:?}");
            None
        }
    }
}

/// The subcommand an invocation resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Batch,
    Sweep,
    Replay,
    Trace,
}

fn parse_args(argv: &[String], out: &mut dyn Write) -> ParseOutcome {
    // A leading bare word selects the subcommand; absent one, the flags
    // describe a batch run.
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some("run") => (Mode::Batch, &argv[1..]),
        Some("sweep") => (Mode::Sweep, &argv[1..]),
        Some("replay") => (Mode::Replay, &argv[1..]),
        Some("trace") => (Mode::Trace, &argv[1..]),
        _ => (Mode::Batch, argv),
    };
    let mut args = Args {
        mode,
        path: None,
        seed: 42,
        count: 20,
        threads: Threads::Auto,
        families: Vec::new(),
        out: None,
        metrics_json: None,
        size: 10_000,
        rounds: None,
        timing: true,
        list: false,
        quiet: false,
        max_nodes: 1_000_000,
        checkpoint_dir: None,
        flight_dir: "flight-records".to_string(),
        no_flight: false,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        macro_rules! value {
            ($name:literal) => {
                match it.next() {
                    Some(v) => v.clone(),
                    None => {
                        let _ = writeln!(out, "missing value for {}", $name);
                        let _ = writeln!(out, "{USAGE}");
                        return ParseOutcome::Exit(2);
                    }
                }
            };
        }
        // Numeric flags name the offending flag and value before the usage
        // text, so a typo like `--seed abc` is diagnosable at a glance.
        macro_rules! num {
            ($name:literal) => {{
                let raw = value!($name);
                match parse_num_value(&raw, $name, out) {
                    Some(v) => v,
                    None => {
                        let _ = writeln!(out, "{USAGE}");
                        return ParseOutcome::Exit(2);
                    }
                }
            }};
        }
        match arg.as_str() {
            "--seed" => args.seed = num!("--seed"),
            "--count" => args.count = num!("--count"),
            "--threads" => args.threads = Threads::Count(num!("--threads")),
            "--family" => args.families.push(value!("--family")),
            "--out" => args.out = Some(value!("--out")),
            "--metrics-json" => args.metrics_json = Some(value!("--metrics-json")),
            "--size" => args.size = num!("--size"),
            "--rounds" => args.rounds = Some(num!("--rounds")),
            "--no-timing" => args.timing = false,
            "--list" => args.list = true,
            "--quiet" => args.quiet = true,
            "--max-nodes" => args.max_nodes = num!("--max-nodes"),
            "--checkpoint-dir" => args.checkpoint_dir = Some(value!("--checkpoint-dir")),
            "--flight-dir" => args.flight_dir = value!("--flight-dir"),
            "--no-flight" => args.no_flight = true,
            "--help" | "-h" => {
                // Requested help is a success, not a usage error.
                println!("{USAGE}");
                return ParseOutcome::Exit(0);
            }
            // `replay PATH` / `trace PATH` take one positional path.
            other
                if matches!(mode, Mode::Replay | Mode::Trace)
                    && !other.starts_with('-')
                    && args.path.is_none() =>
            {
                args.path = Some(other.to_string());
            }
            other => {
                let _ = writeln!(out, "unknown argument: {other}");
                let _ = writeln!(out, "{USAGE}");
                return ParseOutcome::Exit(2);
            }
        }
    }
    match mode {
        Mode::Replay if args.path.is_none() => {
            let _ = writeln!(out, "replay needs a trace path");
            let _ = writeln!(out, "{USAGE}");
            return ParseOutcome::Exit(2);
        }
        Mode::Trace if args.path.is_none() => {
            let _ = writeln!(out, "trace needs an output path");
            let _ = writeln!(out, "{USAGE}");
            return ParseOutcome::Exit(2);
        }
        _ => {}
    }
    // Sized builds feed `--size` straight into the blob generators, whose
    // smallest structure is one amoebot; reject the bad input here with a
    // usage diagnostic instead of panicking deep inside a generator.
    if args.size == 0 {
        let _ = writeln!(out, "invalid value for --size: must be at least 1");
        let _ = writeln!(out, "{USAGE}");
        return ParseOutcome::Exit(2);
    }
    ParseOutcome::Run(Box::new(args))
}

fn write_report(
    rendered: &str,
    target: &Option<String>,
    quiet: bool,
    out: &mut dyn Write,
) -> Result<(), u8> {
    match target {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                let _ = writeln!(out, "cannot write {path}: {e}");
                return Err(2);
            }
            if !quiet {
                let _ = writeln!(out, "report written to {path}");
            }
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// Writes the merged `spf-metrics-report/v1` document for `results` to
/// `path` (canonical under `--no-timing`).
fn write_metrics_json(
    path: &str,
    results: &[ScenarioResult],
    timing: bool,
    quiet: bool,
    out: &mut dyn Write,
) -> Result<(), u8> {
    let rendered = metrics_report(results, timing).render_pretty();
    if let Err(e) = std::fs::write(path, &rendered) {
        let _ = writeln!(out, "cannot write {path}: {e}");
        return Err(2);
    }
    if !quiet {
        let _ = writeln!(out, "metrics written to {path}");
    }
    Ok(())
}

/// The flight-record directory, or `None` under `--no-flight`.
fn flight_dir_of(args: &Args) -> Option<&Path> {
    (!args.no_flight).then(|| Path::new(args.flight_dir.as_str()))
}

/// The per-scenario flight-dump hook shared by batch and sweep mode: runs
/// on a worker thread right after each scenario, writes the retained black
/// box for failures, and queues one diagnostic line per dump. Lines are
/// collected rather than printed here — hooks fire concurrently in
/// completion order, so they are sorted before printing to keep the
/// diagnostic stream deterministic across thread counts.
fn flight_dump_hook<const TIMED: bool>(
    dir: Option<&Path>,
    lines: &Mutex<Vec<String>>,
    r: &ScenarioResult,
    rec: &FlightRecorder<TIMED>,
) {
    let Some(dir) = dir else { return };
    let line = match dump_flight_record(dir, r, rec) {
        Ok(Some(path)) => format!("flight record written to {}", path.display()),
        Ok(None) => return,
        Err(e) => format!("cannot write flight record for {}: {e}", r.name),
    };
    match lines.lock() {
        Ok(mut queued) => queued.push(line),
        Err(poisoned) => poisoned.into_inner().push(line),
    }
}

/// Drains and prints the queued flight-record lines in sorted order.
fn print_flight_lines(lines: Mutex<Vec<String>>, out: &mut dyn Write) {
    let mut lines = match lines.into_inner() {
        Ok(queued) => queued,
        Err(poisoned) => poisoned.into_inner(),
    };
    lines.sort_unstable();
    for line in lines {
        let _ = writeln!(out, "  {line}");
    }
}

/// Runs the CLI against an explicit argument list (everything after the
/// binary name) and returns the process exit code: `0` all scenarios
/// passed (or the replayed trace verified), `1` at least one failure,
/// `2` usage or I/O error. Diagnostics go to stderr; see
/// [`run_with_output`] for the testable sink-injected form.
pub fn run(argv: &[String]) -> u8 {
    run_with_output(argv, &mut std::io::stderr())
}

/// [`run`] with every diagnostic line (progress, FAIL lines, the final
/// `summary:`) routed to `out` instead of stderr, so tests can assert on
/// the exact output contract — in particular that `--quiet` never
/// swallows FAIL lines or the summary, in batch *and* sweep mode.
pub fn run_with_output(argv: &[String], out: &mut dyn Write) -> u8 {
    let args = match parse_args(argv, out) {
        ParseOutcome::Run(args) => args,
        ParseOutcome::Exit(code) => return code,
    };
    let registry = default_registry();

    if args.list {
        println!(
            "{:<24} {:<10} {:<10} description",
            "family", "randomized", "sweep-max"
        );
        for family in registry.families() {
            println!(
                "{:<24} {:<10} {:<10} {}",
                family.name,
                if family.randomized { "yes" } else { "no" },
                if family.sweepable() {
                    family.sweep_max_n.to_string()
                } else {
                    "-".to_string()
                },
                family.description
            );
        }
        return 0;
    }

    let path = args.path.as_deref().unwrap_or_default();
    if args.mode == Mode::Replay {
        return run_replay_mode(path, out);
    }

    for name in &args.families {
        if registry.get(name).is_none() {
            let _ = writeln!(out, "unknown scenario family {name:?} (see --list)");
            return 2;
        }
    }

    let threads = args.threads.resolve();
    match args.mode {
        Mode::Trace => return run_record_mode(&args, path, &registry, out),
        Mode::Sweep => return run_sweep_mode(&args, &registry, threads, out),
        Mode::Batch | Mode::Replay => {}
    }

    let scenarios = registry.random_suite(args.seed, args.count, &args.families);
    if !args.quiet {
        let _ = writeln!(
            out,
            "running {} scenarios (seed {}) on {} threads...",
            scenarios.len(),
            args.seed,
            threads
        );
    }

    // Phase timers cost two clock reads per phase, so they are on only
    // when a metrics document was asked for (and timing is on at all).
    // The flight recorder, by contrast, is always on: every scenario runs
    // with its own black box, dumped only on FAIL and never under
    // --no-flight.
    let timed = args.timing && args.metrics_json.is_some();
    let flight_dir = flight_dir_of(&args);
    let flight_lines = Mutex::new(Vec::new());
    let results = if timed {
        run_batch_inspect::<TimedFlightRecorder>(&scenarios, Threads::Count(threads), |r, rec| {
            flight_dump_hook(flight_dir, &flight_lines, r, rec)
        })
    } else {
        run_batch_inspect::<FlightRecorder>(&scenarios, Threads::Count(threads), |r, rec| {
            flight_dump_hook(flight_dir, &flight_lines, r, rec)
        })
    };
    for r in &results {
        // FAIL lines are diagnostics, not progress: they print even under
        // --quiet so a red CI batch always names the broken scenarios.
        if !r.pass || !args.quiet {
            let _ = writeln!(out, "{}", batch_line(r));
        }
        if !r.pass {
            for c in r.checks.iter().filter(|c| !c.pass) {
                let _ = writeln!(out, "       check {}: {}", c.name, c.detail);
            }
        }
    }
    print_flight_lines(flight_lines, out);

    let report = BatchReport {
        master_seed: args.seed,
        threads,
        results,
    };
    let (passed, failed) = (report.passed(), report.failed());
    // The summary prints before any report I/O, so even a bad --out path
    // never swallows the batch verdict.
    let _ = writeln!(
        out,
        "summary: {passed}/{} scenarios passed, {failed} failed",
        report.results.len()
    );
    let rendered = report.to_json(args.timing).render_pretty();
    if let Err(code) = write_report(&rendered, &args.out, args.quiet, out) {
        return code;
    }
    if let Some(path) = &args.metrics_json {
        if let Err(code) = write_metrics_json(path, &report.results, args.timing, args.quiet, out) {
            return code;
        }
    }

    if failed > 0 {
        return 1;
    }
    if report.results.is_empty() {
        let _ = writeln!(
            out,
            "warning: no scenarios were run (--count 0); nothing was validated"
        );
    } else if !args.quiet {
        let _ = writeln!(
            out,
            "all {} scenarios passed cross-validation ({} rounds simulated)",
            report.results.len(),
            report.results.iter().map(|r| r.rounds).sum::<u64>()
        );
    }
    0
}

fn run_sweep_mode(args: &Args, registry: &Registry, threads: usize, out: &mut dyn Write) -> u8 {
    let suite = sweep_suite(
        registry,
        args.seed,
        &DEFAULT_SIZES,
        args.max_nodes,
        &args.families,
    );
    if suite.is_empty() {
        let _ = writeln!(
            out,
            "no sweep rungs selected (families: {:?}, max-nodes {}); see --list",
            args.families, args.max_nodes
        );
        return 2;
    }
    if !args.quiet {
        let _ = writeln!(
            out,
            "sweeping {} (family, size) rungs up to {} nodes (seed {}) on {threads} threads...",
            suite.len(),
            args.max_nodes,
            args.seed
        );
    }
    // `--checkpoint-dir`: long ladders (100k–1M rungs) survive
    // interruption; finished-and-passed rungs are skipped on resume,
    // failed ones re-run.
    let mut store = match &args.checkpoint_dir {
        Some(dir) => match CheckpointStore::open(std::path::Path::new(dir), args.seed) {
            Ok(store) => {
                if !args.quiet && !store.is_empty() {
                    let _ = writeln!(
                        out,
                        "resuming from {} ({} finished rungs on record)",
                        store.path().display(),
                        store.len()
                    );
                }
                Some(store)
            }
            Err(e) => {
                let _ = writeln!(out, "cannot open checkpoint dir {dir}: {e}");
                return 2;
            }
        },
        None => None,
    };
    let quiet = args.quiet;
    let mut progress = |o: RungOutcome<'_>| match o {
        RungOutcome::Resumed(e) => {
            if !quiet {
                let _ = writeln!(
                    out,
                    "  skip {:<24} size={:<8} (checkpointed: passed)",
                    e.family, e.size
                );
            }
        }
        RungOutcome::Ran(p, r) => {
            if !r.pass || !quiet {
                let _ = writeln!(out, "{}", sweep_line(p, r));
            }
            if !r.pass {
                for c in r.checks.iter().filter(|c| !c.pass) {
                    let _ = writeln!(out, "       check {}: {}", c.name, c.detail);
                }
            }
        }
    };
    // Timed sweeps keep the phase timers on: BENCH_sweep.json is the
    // perf-gate artifact, and its per-rung metric breakdown is what lets
    // a regression name the phase that moved. Either way the flight
    // recorder rides along and dumps on FAIL, unless --no-flight skips
    // the dump.
    let flight_dir = flight_dir_of(args);
    let flight_lines = Mutex::new(Vec::new());
    let ran = if args.timing {
        run_sweep_observed::<TimedFlightRecorder>(
            &suite,
            Threads::Count(threads),
            store.as_mut(),
            &mut progress,
            |r, rec| flight_dump_hook(flight_dir, &flight_lines, r, rec),
        )
    } else {
        run_sweep_observed::<FlightRecorder>(
            &suite,
            Threads::Count(threads),
            store.as_mut(),
            &mut progress,
            |r, rec| flight_dump_hook(flight_dir, &flight_lines, r, rec),
        )
    };
    let (entries, fresh) = match ran {
        Ok(ok) => ok,
        Err(e) => {
            let _ = writeln!(out, "cannot write checkpoint: {e}");
            return 2;
        }
    };
    print_flight_lines(flight_lines, out);
    let report = SweepReport {
        master_seed: args.seed,
        max_nodes: args.max_nodes,
        threads,
        entries,
    };
    let (passed, failed) = (report.passed(), report.failed());
    // Like the batch path: the sweep verdict prints before report I/O,
    // so --quiet plus a bad --out can never swallow it.
    let _ = writeln!(
        out,
        "summary: {passed}/{} sweep rungs passed, {failed} failed",
        report.entries.len()
    );
    let rendered = report.to_json(args.timing).render_pretty();
    if let Err(code) = write_report(&rendered, &args.out, args.quiet, out) {
        return code;
    }
    if let Some(path) = &args.metrics_json {
        // Resumed rungs carry their metrics only inside the pre-rendered
        // report entries; the merged document covers the freshly-run
        // rungs of *this* invocation.
        if let Err(code) = write_metrics_json(path, &fresh, args.timing, args.quiet, out) {
            return code;
        }
    }
    if failed > 0 {
        return 1;
    }
    0
}

/// `trace PATH`: run one sized scenario with the trace recorder
/// attached and persist the binary round trace.
fn run_record_mode(args: &Args, path: &str, registry: &Registry, out: &mut dyn Write) -> u8 {
    let family = match args.families.as_slice() {
        [] => "blob-broadcast",
        [one] => one.as_str(),
        _ => {
            let _ = writeln!(
                out,
                "trace records a single scenario; pass at most one --family"
            );
            return 2;
        }
    };
    let fam = registry.get(family).expect("family validated above");
    let scenario = fam
        .build_sized(args.seed, args.size)
        .unwrap_or_else(|| fam.build(args.seed));
    // Longer recorded runs are where replay's amortization shows: the
    // sized builds fix a short sweep-friendly run, so record mode lets
    // the run length be dialed up independently.
    let scenario = match (args.rounds, &scenario.workload) {
        (
            Some(len),
            &Workload::Micro(MicroWorkload::Driven {
                kind, n, per_event, ..
            }),
        ) => {
            let micro = MicroWorkload::Driven {
                kind,
                n,
                events: len,
                per_event,
            };
            Scenario::micro(family, scenario.seed, micro)
        }
        _ => scenario,
    };
    let (result, bytes) = match record_scenario(&scenario) {
        Ok(ok) => ok,
        Err(msg) => {
            let _ = writeln!(out, "cannot record: {msg}");
            return 2;
        }
    };
    if let Err(e) = std::fs::write(path, &bytes) {
        let _ = writeln!(out, "cannot write {path}: {e}");
        return 2;
    }
    let _ = writeln!(out, "{}", batch_line(&result));
    if !result.pass {
        for c in result.checks.iter().filter(|c| !c.pass) {
            let _ = writeln!(out, "       check {}: {}", c.name, c.detail);
        }
    }
    if !args.quiet {
        let _ = writeln!(
            out,
            "trace written to {path} ({} bytes, {} rounds)",
            bytes.len(),
            result.rounds
        );
    }
    if let Some(mpath) = &args.metrics_json {
        if let Err(code) = write_metrics_json(
            mpath,
            std::slice::from_ref(&result),
            args.timing,
            args.quiet,
            out,
        ) {
            return code;
        }
    }
    let _ = writeln!(
        out,
        "summary: {}/1 scenarios passed, {} failed",
        u8::from(result.pass),
        u8::from(!result.pass)
    );
    u8::from(!result.pass)
}

/// `replay PATH`: re-verify a recorded round trace against the
/// live engine. Exit 0 on a clean verification, 1 on divergence or a
/// malformed trace (the message carries the round and event index), 2 on
/// I/O errors.
fn run_replay_mode(path: &str, out: &mut dyn Write) -> u8 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            let _ = writeln!(out, "cannot read {path}: {e}");
            return 2;
        }
    };
    // spf-lint: allow(wall-clock) — verification wall time is human-facing progress info, never part of canonical output
    let start = std::time::Instant::now();
    match amoebot_circuits::replay_trace(&bytes) {
        Ok(rep) => {
            let _ = writeln!(
                out,
                "replay ok: {path}: {} nodes, {} rounds, {} events verified in {} us",
                rep.nodes,
                rep.rounds,
                rep.events,
                start.elapsed().as_micros(),
            );
            0
        }
        Err(e) => {
            let _ = writeln!(out, "replay FAILED: {path}: {e}");
            1
        }
    }
}

/// One batch progress/diagnostic line. FAIL lines carry the scenario
/// seed so a red run is reproducible from the log alone
/// (`--seed N --family F` rebuilds the exact scenario; churn check
/// details additionally name their schedule seed and event index).
fn batch_line(r: &ScenarioResult) -> String {
    if r.pass {
        format!(
            "  ok   {:<52} n={:<5} k={:<3} rounds={:<6} beeps={}",
            r.name, r.n, r.k, r.rounds, r.beeps
        )
    } else {
        format!(
            "  FAIL {:<52} seed={} n={:<5} k={:<3} rounds={:<6} beeps={}",
            r.name, r.seed, r.n, r.k, r.rounds, r.beeps
        )
    }
}

/// One sweep progress/diagnostic line; FAIL lines carry the rung's seed,
/// like [`batch_line`].
fn sweep_line(p: &SweepPoint, r: &ScenarioResult) -> String {
    if r.pass {
        format!(
            "  ok   {:<24} size={:<8} n={:<8} rounds={:<6} {:>12} nodes/s",
            p.family,
            p.size,
            r.n,
            r.rounds,
            crate::sweep::nodes_per_sec(r.n, r.wall_micros)
        )
    } else {
        format!(
            "  FAIL {:<24} size={:<8} seed={} n={:<8} rounds={:<6} {:>12} nodes/s",
            p.family,
            p.size,
            r.seed,
            r.n,
            r.rounds,
            crate::sweep::nodes_per_sec(r.n, r.wall_micros)
        )
    }
}

/// Entry point of the `scenario-runner` binary (parses `std::env::args`).
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&argv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoebot_telemetry::wire::fnv1a64;
    use amoebot_telemetry::{TraceEvent, TraceReader};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Runs the CLI with a captured sink and returns `(exit, output)`.
    fn run_captured(list: &[&str]) -> (u8, String) {
        let mut sink = Vec::new();
        let code = run_with_output(&args(list), &mut sink);
        (
            code,
            String::from_utf8(sink).expect("diagnostics are UTF-8"),
        )
    }

    /// A collision-free scratch path under the system temp dir.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("spf-cli-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn failing_scenario_propagates_nonzero_exit() {
        let code = run(&args(&[
            "--family",
            "selftest-fail",
            "--count",
            "2",
            "--quiet",
            "--no-timing",
            "--out",
            "/dev/null",
        ]));
        assert_eq!(code, 1, "validation failures must exit non-zero");
    }

    #[test]
    fn passing_batch_exits_zero() {
        let code = run(&args(&[
            "--seed",
            "5",
            "--count",
            "3",
            "--quiet",
            "--no-timing",
            "--out",
            "/dev/null",
        ]));
        assert_eq!(code, 0);
        // `run` is the explicit spelling of the default batch mode.
        let code = run(&args(&[
            "run",
            "--count",
            "2",
            "--quiet",
            "--out",
            "/dev/null",
        ]));
        assert_eq!(code, 0);
    }

    #[test]
    fn bad_flags_exit_two() {
        assert_eq!(run(&args(&["--bogus"])), 2);
        assert_eq!(run(&args(&["--seed", "abc"])), 2);
        assert_eq!(run(&args(&["--seed"])), 2);
        assert_eq!(run(&args(&["--family", "no-such-family"])), 2);
    }

    #[test]
    fn requested_help_exits_zero() {
        assert_eq!(run(&args(&["--help"])), 0);
        assert_eq!(run(&args(&["-h"])), 0);
    }

    #[test]
    fn tiny_sweep_exits_zero() {
        let code = run(&args(&[
            "sweep",
            "--max-nodes",
            "1000",
            "--family",
            "blob-broadcast",
            "--quiet",
            "--no-timing",
            "--out",
            "/dev/null",
        ]));
        assert_eq!(code, 0);
    }

    #[test]
    fn sweep_with_no_rungs_exits_two() {
        let code = run(&args(&["sweep", "--family", "selftest-fail", "--quiet"]));
        assert_eq!(code, 2);
    }

    /// Satellite: `--quiet` must never swallow the `summary:` line — in
    /// sweep mode as much as in batch mode.
    #[test]
    fn quiet_sweep_still_prints_the_summary() {
        let (code, output) = run_captured(&[
            "sweep",
            "--max-nodes",
            "1000",
            "--family",
            "blob-broadcast",
            "--quiet",
            "--no-timing",
            "--out",
            "/dev/null",
        ]);
        assert_eq!(code, 0);
        assert!(
            output.contains("summary:"),
            "quiet sweep swallowed the summary: {output:?}"
        );
        assert!(
            !output.contains("sweeping"),
            "quiet sweep still printed progress: {output:?}"
        );
    }

    /// Satellite: `--quiet` must never swallow FAIL lines either.
    #[test]
    fn quiet_batch_still_prints_fail_lines_and_summary() {
        let (code, output) = run_captured(&[
            "--family",
            "selftest-fail",
            "--count",
            "1",
            "--quiet",
            "--no-timing",
            "--out",
            "/dev/null",
        ]);
        assert_eq!(code, 1);
        assert!(
            output.contains("FAIL"),
            "no FAIL line under --quiet: {output:?}"
        );
        assert!(
            output.contains("summary:"),
            "no summary under --quiet: {output:?}"
        );
    }

    /// Record → replay round trip through the CLI, plus the corruption
    /// contract: a flipped byte is rejected, and a resealed flip of a
    /// recorded digest is a divergence named by round + event index.
    #[test]
    fn record_replay_roundtrip_and_corruption() {
        let trace = temp_path("trace.bin");
        let trace_s = trace.to_str().unwrap();
        let (code, output) = run_captured(&[
            "trace",
            trace_s,
            "--family",
            "blob-broadcast",
            "--size",
            "300",
            "--seed",
            "9",
            "--quiet",
        ]);
        assert_eq!(code, 0, "recording failed: {output}");
        let (code, output) = run_captured(&["replay", trace_s]);
        assert_eq!(code, 0, "replay failed: {output}");
        assert!(output.contains("replay ok"), "{output:?}");

        // Corrupt one byte in the middle of the blob: the trailing digest
        // rejects it.
        let bytes = std::fs::read(&trace).unwrap();
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0x10;
        std::fs::write(&trace, &bad).unwrap();
        let (code, output) = run_captured(&["replay", trace_s]);
        assert_eq!(code, 1, "corrupted trace verified cleanly: {output}");
        assert!(output.contains("digest mismatch"), "{output:?}");

        // Flip a bit of the middle round's recorded digest and reseal the
        // blob, so the flip reaches replay: it must report a divergence
        // naming the round and the event index of its boundary.
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
        let (at, round, event) = boundaries[boundaries.len() / 2];
        let mut bad = bytes[..bytes.len() - 8].to_vec();
        bad[at] ^= 0x10;
        let digest = fnv1a64(&bad);
        bad.extend_from_slice(&digest.to_le_bytes());
        std::fs::write(&trace, &bad).unwrap();
        let (code, output) = run_captured(&["replay", trace_s]);
        assert_eq!(code, 1, "diverging trace verified cleanly: {output}");
        assert!(
            output.contains(&format!("round {round}, event {event}: divergence")),
            "divergence report must carry round + event index: {output:?}"
        );
        let _ = std::fs::remove_file(&trace);
    }

    /// Regression: `trace … --size 0` used to reach
    /// `random_blob`'s `assert!(n >= 1)` and panic; user input must come
    /// back as a usage diagnostic under the 0/1/2 exit-code contract.
    #[test]
    fn size_zero_is_a_usage_error_not_a_panic() {
        let trace = temp_path("size-zero.bin");
        let (code, output) = run_captured(&["trace", trace.to_str().unwrap(), "--size", "0"]);
        assert_eq!(code, 2);
        assert!(
            output.contains("--size") && output.contains("at least 1"),
            "diagnostic must name the flag and the constraint: {output:?}"
        );
        assert!(!trace.exists(), "no trace may be written on a usage error");
    }

    #[test]
    fn replaying_a_missing_file_exits_two() {
        let (code, output) = run_captured(&["replay", "/no/such/trace.bin"]);
        assert_eq!(code, 2);
        assert!(output.contains("cannot read"), "{output:?}");
    }

    #[test]
    fn recording_an_unrecordable_family_exits_two() {
        let trace = temp_path("unrecordable.bin");
        let (code, output) = run_captured(&[
            "trace",
            trace.to_str().unwrap(),
            "--family",
            "selftest-fail",
        ]);
        assert_eq!(code, 2);
        assert!(output.contains("not recordable"), "{output:?}");
    }

    /// `--metrics-json` writes the merged metrics document; canonical
    /// (no timers) under `--no-timing`, timers present otherwise.
    #[test]
    fn metrics_json_is_written_and_respects_timing() {
        let path = temp_path("metrics.json");
        let path_s = path.to_str().unwrap();
        let (code, _) = run_captured(&[
            "--family",
            "blob-broadcast",
            "--count",
            "2",
            "--quiet",
            "--no-timing",
            "--out",
            "/dev/null",
            "--metrics-json",
            path_s,
        ]);
        assert_eq!(code, 0);
        let canonical = std::fs::read_to_string(&path).unwrap();
        assert!(canonical.contains(crate::report::METRICS_SCHEMA));
        assert!(canonical.contains("relabel_global"));
        assert!(!canonical.contains("timers"));

        let (code, _) = run_captured(&[
            "--family",
            "blob-broadcast",
            "--count",
            "2",
            "--quiet",
            "--out",
            "/dev/null",
            "--metrics-json",
            path_s,
        ]);
        assert_eq!(code, 0);
        let timed = std::fs::read_to_string(&path).unwrap();
        assert!(timed.contains("timers"));
        assert!(
            timed.contains("phase_propagate_micros"),
            "timed metrics must carry the phase timers: {timed}"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite: a canonical metrics document is byte-stable across
    /// runs and thread counts.
    #[test]
    fn canonical_metrics_json_is_deterministic() {
        let a = temp_path("metrics-a.json");
        let b = temp_path("metrics-b.json");
        for (path, threads) in [(&a, "1"), (&b, "4")] {
            let (code, _) = run_captured(&[
                "--seed",
                "21",
                "--count",
                "4",
                "--threads",
                threads,
                "--quiet",
                "--no-timing",
                "--out",
                "/dev/null",
                "--metrics-json",
                path.to_str().unwrap(),
            ]);
            assert_eq!(code, 0);
        }
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
            "canonical metrics documents must not depend on thread count"
        );
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    /// Satellite: FAIL lines carry the seed, in batch and sweep form, so
    /// a failed cross-validation is reproducible from the log alone.
    #[test]
    fn fail_lines_carry_the_seed() {
        use crate::run::run_scenario;
        let registry = default_registry();
        let sc = registry.get("selftest-fail").unwrap().build(777);
        let failing = run_scenario(&sc);
        assert!(!failing.pass);
        let line = batch_line(&failing);
        assert!(
            line.contains("FAIL") && line.contains("seed=777"),
            "batch FAIL line must carry the seed: {line}"
        );
        let point = SweepPoint {
            family: "selftest-fail".to_string(),
            size: 1,
            scenario: sc,
        };
        let line = sweep_line(&point, &failing);
        assert!(
            line.contains("FAIL") && line.contains("seed=777"),
            "sweep FAIL line must carry the seed: {line}"
        );
        // Passing lines stay compact (no seed clutter).
        let passing = run_scenario(&registry.get("blob-broadcast").unwrap().build(5));
        assert!(passing.pass);
        assert!(!batch_line(&passing).contains("seed="));
    }

    /// Modes are subcommands only: `--sweep`, `--record-trace` and
    /// `--replay-trace` are unknown arguments, with or without one.
    #[test]
    fn removed_mode_flags_and_stray_operands_exit_two() {
        assert_eq!(run(&args(&["--sweep"])), 2);
        assert_eq!(run(&args(&["run", "--sweep"])), 2);
        assert_eq!(run(&args(&["--record-trace", "x.trace"])), 2);
        assert_eq!(run(&args(&["--replay-trace", "x.trace"])), 2);
        // Positional paths only exist for replay/trace.
        assert_eq!(run(&args(&["run", "stray-positional"])), 2);
        // replay/trace demand their PATH operand.
        assert_eq!(run(&args(&["replay"])), 2);
        assert_eq!(run(&args(&["trace"])), 2);
        // `profile` is no subcommand: it is a stray operand like any other.
        assert_eq!(run(&args(&["profile"])), 2);
        assert_eq!(run(&args(&["profile", "--max-nodes", "1000"])), 2);
    }

    #[test]
    fn trace_and_replay_subcommands_round_trip() {
        let path = temp_path("sub-trace.trace");
        let code = run(&args(&[
            "trace",
            path.to_str().unwrap(),
            "--family",
            "blob-broadcast",
            "--size",
            "60",
            "--seed",
            "4",
        ]));
        assert_eq!(code, 0, "trace subcommand records");
        assert_eq!(
            run(&args(&["replay", path.to_str().unwrap()])),
            0,
            "replay subcommand verifies"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Tentpole: a failing adversary scenario dumps a flight record named
    /// by the full reproduction key, and the blob decodes through the
    /// standard trace codec with the key as its first event.
    #[test]
    fn failing_adversary_run_dumps_a_decodable_flight_record() {
        use amoebot_telemetry::{TraceEvent, TraceReader};
        let dir = temp_path("flight-dump");
        let _ = std::fs::remove_dir_all(&dir);
        let (code, output) = run_captured(&[
            "run",
            "--family",
            "adversary-selftest-fail",
            "--count",
            "1",
            "--quiet",
            "--no-timing",
            "--out",
            "/dev/null",
            "--flight-dir",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 1);
        assert!(
            output.contains("flight record written to"),
            "no flight-record diagnostic: {output:?}"
        );
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("flight dir must exist")
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries.len(), 1, "exactly one failing scenario ran");
        let name = entries[0]
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .to_string();
        assert!(
            name.ends_with(".spft")
                && name.contains("-plan")
                && name.contains("-seed")
                && name.contains("-event"),
            "file name must carry every key fragment: {name}"
        );
        let bytes = std::fs::read(&entries[0]).unwrap();
        let mut reader = TraceReader::open(&bytes).expect("dump must decode");
        match reader.next_event().expect("first event readable") {
            Some(TraceEvent::FlightKey { .. }) => {}
            other => panic!("flight record must lead with its key, got {other:?}"),
        }
        while reader.next_event().expect("every event decodes").is_some() {}
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--no-flight` skips the dump: same failing run, no record.
    #[test]
    fn no_flight_suppresses_the_dump() {
        let dir = temp_path("flight-off");
        let _ = std::fs::remove_dir_all(&dir);
        let (code, output) = run_captured(&[
            "run",
            "--family",
            "adversary-selftest-fail",
            "--count",
            "1",
            "--quiet",
            "--no-timing",
            "--no-flight",
            "--out",
            "/dev/null",
            "--flight-dir",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 1, "the scenario still fails");
        assert!(
            !output.contains("flight record"),
            "--no-flight must suppress dump diagnostics: {output:?}"
        );
        assert!(!dir.exists(), "--no-flight must not create the flight dir");
    }

    /// Satellite + tentpole: `sweep --checkpoint-dir` resumes through
    /// the CLI — an interrupted sweep's finished rungs are skipped and
    /// the final report is byte-identical to an uninterrupted one.
    #[test]
    fn sweep_checkpoint_dir_resumes_through_the_cli() {
        let dir = temp_path("ckpt-cli");
        let _ = std::fs::remove_dir_all(&dir);
        let full_out = temp_path("ckpt-full.json");
        let resumed_out = temp_path("ckpt-resumed.json");
        let common = [
            "--max-nodes",
            "1000",
            "--seed",
            "29",
            "--threads",
            "1",
            "--no-timing",
        ];
        let both = [
            "--family",
            "blob-broadcast",
            "--family",
            "blob-churn-broadcast",
        ];
        // Uninterrupted reference (no checkpointing).
        let mut full = vec!["sweep", "--quiet"];
        full.extend_from_slice(&common);
        full.extend_from_slice(&both);
        full.extend_from_slice(&["--out", full_out.to_str().unwrap()]);
        assert_eq!(run(&args(&full)), 0);
        // "Interrupted": one family's rungs complete under the dir.
        let mut first = vec!["sweep", "--quiet"];
        first.extend_from_slice(&common);
        first.extend_from_slice(&[
            "--family",
            "blob-broadcast",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--out",
            "/dev/null",
        ]);
        assert_eq!(run(&args(&first)), 0);
        // Resume over the full ladder: checkpointed rungs are skipped.
        let mut resume = vec!["sweep"];
        resume.extend_from_slice(&common);
        resume.extend_from_slice(&both);
        resume.extend_from_slice(&[
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--out",
            resumed_out.to_str().unwrap(),
        ]);
        let (code, output) = run_captured(&resume);
        assert_eq!(code, 0);
        assert!(
            output.contains("resuming from") && output.contains("checkpointed: passed"),
            "resume diagnostics missing: {output}"
        );
        assert_eq!(
            std::fs::read_to_string(&full_out).unwrap(),
            std::fs::read_to_string(&resumed_out).unwrap(),
            "resumed sweep report must match the uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&full_out);
        let _ = std::fs::remove_file(&resumed_out);
    }
}
