//! Structure-size sweeps: throughput as a measured, tracked quantity.
//!
//! A sweep runs every sweepable registry family across a geometric size
//! ladder (1k → 10k → 100k → 1M nodes, capped by `--max-nodes` and by
//! each family's own [`Family::sweep_max_n`] ceiling) and reports
//! per-(family, size) throughput. The timed rendering
//! (`BENCH_sweep.json`) is what the CI perf gate diffs against
//! `bench/baseline.json`; the canonical rendering (`--no-timing`) carries
//! the same byte-determinism guarantee as batch reports: identical for
//! identical `(seed, ladder)` inputs regardless of thread count.
//!
//! [`Family::sweep_max_n`]: crate::registry::Family::sweep_max_n

use std::path::{Path, PathBuf};

use amoebot_telemetry::{NullRecorder, Recorder};

use crate::batch::{run_batch_inspect, Threads};
use crate::json::Json;
use crate::registry::Registry;
use crate::report::{metrics_to_json, Envelope};
use crate::run::ScenarioResult;
use crate::spec::{derive_rng, Scenario};
use rand::RngCore;

/// Schema identifier embedded in every sweep report.
pub const SWEEP_SCHEMA: &str = "spf-sweep-report/v1";

/// The default geometric size ladder.
pub const DEFAULT_SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// One rung of a sweep: a scenario pinned to a target structure size.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Registry family name.
    pub family: String,
    /// Target structure size (the ladder rung; the realized size is in
    /// the result's `n`).
    pub size: usize,
    /// The concrete scenario to run.
    pub scenario: Scenario,
}

/// Builds the sweep suite: every sweepable family (or the sweepable
/// subset of `only`, if non-empty), each at every ladder rung within both
/// `max_nodes` and the family's own ceiling. Deterministic: the rung's
/// seed derives from `(master_seed, family name, size)` only, so adding
/// families or rungs never reshuffles the others.
pub fn sweep_suite(
    registry: &Registry,
    master_seed: u64,
    sizes: &[usize],
    max_nodes: usize,
    only: &[String],
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for family in registry.families() {
        if !family.sweepable() {
            continue;
        }
        if !only.is_empty() && !only.iter().any(|n| n == family.name) {
            continue;
        }
        for &size in sizes {
            if size > max_nodes || size > family.sweep_max_n {
                continue;
            }
            // Tag with the family name hash so two families at the same
            // rung never share a seed stream.
            let tag = family
                .name
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
            let seed = derive_rng(master_seed ^ tag, size as u64).next_u64();
            let scenario = family
                .build_sized(seed, size)
                .expect("sweepable family has a sized builder");
            out.push(SweepPoint {
                family: family.name.to_string(),
                size,
                scenario,
            });
        }
    }
    out
}

/// One finished rung, with **both** report renderings pre-rendered.
///
/// Rendering happens once, while the live [`ScenarioResult`] (and its
/// metrics registry, whose wall-clock timers cannot be reconstructed
/// from summaries) is still in hand. A rung resumed from a checkpoint
/// file therefore re-emits exactly the bytes the original run would
/// have — the resumed report is byte-identical by construction, not by
/// re-derivation.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Registry family name (checkpoint key, with `size` and `seed`).
    pub family: String,
    /// Ladder rung (target size).
    pub size: usize,
    /// The rung's derived scenario seed. Part of the checkpoint key: a
    /// different master seed derives different rung seeds, so stale
    /// checkpoint files can never be resumed against the wrong sweep.
    pub seed: u64,
    /// Realized structure size.
    pub n: usize,
    /// Rounds simulated.
    pub rounds: u64,
    /// Beeps delivered.
    pub beeps: u64,
    /// Wall-clock micros of the original run (provenance).
    pub wall_micros: u64,
    /// Whether cross-validation passed.
    pub pass: bool,
    /// Pre-rendered canonical per-rung report object (no timing).
    pub canonical: Json,
    /// Pre-rendered timed per-rung report object.
    pub timed: Json,
}

impl SweepEntry {
    /// Renders a finished rung into its two report forms.
    pub fn from_result(p: &SweepPoint, r: &ScenarioResult) -> SweepEntry {
        let render = |include_timing: bool| {
            let mut doc = Json::object()
                .field("family", p.family.as_str())
                .field("size", p.size)
                .field("name", r.name.as_str())
                .field("seed", r.seed)
                .field("n", r.n)
                .field("k", r.k)
                .field("l", r.l)
                .field("rounds", r.rounds)
                .field("beeps", r.beeps);
            if include_timing {
                doc = doc
                    .field("wall_micros", r.wall_micros)
                    .field("nodes_per_sec", nodes_per_sec(r.n, r.wall_micros));
            }
            // The per-rung engine breakdown (relabel counts, beep
            // totals, phase micros) so a perf-gate regression names
            // the phase that moved, not just the rung.
            if !r.metrics.is_empty() {
                doc = doc.field("metrics", metrics_to_json(&r.metrics, include_timing));
            }
            doc.field("pass", r.pass)
        };
        SweepEntry {
            family: p.family.clone(),
            size: p.size,
            seed: r.seed,
            n: r.n,
            rounds: r.rounds,
            beeps: r.beeps,
            wall_micros: r.wall_micros,
            pass: r.pass,
            canonical: render(false),
            timed: render(true),
        }
    }

    /// One compact JSON line for the checkpoint file.
    pub fn to_checkpoint_line(&self) -> String {
        Json::object()
            .field("family", self.family.as_str())
            .field("size", self.size)
            .field("seed", self.seed)
            .field("n", self.n)
            .field("rounds", self.rounds)
            .field("beeps", self.beeps)
            .field("wall_micros", self.wall_micros)
            .field("pass", self.pass)
            .field("canonical", self.canonical.clone())
            .field("timed", self.timed.clone())
            .render_compact()
    }

    /// Parses one checkpoint line back. Any malformed or truncated line
    /// (say, from a run killed mid-write) is an `Err` the store skips.
    pub fn from_checkpoint_line(line: &str) -> Result<SweepEntry, String> {
        let doc = Json::parse(line)?;
        let str_field = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let num_field = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let obj_field = |k: &str| -> Result<Json, String> {
            match doc.get(k) {
                Some(v @ Json::Object(_)) => Ok(v.clone()),
                _ => Err(format!("missing object field {k:?}")),
            }
        };
        Ok(SweepEntry {
            family: str_field("family")?,
            size: num_field("size")? as usize,
            seed: num_field("seed")?,
            n: num_field("n")? as usize,
            rounds: num_field("rounds")?,
            beeps: num_field("beeps")?,
            wall_micros: num_field("wall_micros")?,
            pass: doc
                .get("pass")
                .and_then(Json::as_bool)
                .ok_or("missing bool field \"pass\"")?,
            canonical: obj_field("canonical")?,
            timed: obj_field("timed")?,
        })
    }
}

/// A `--checkpoint-dir` store: one JSON-lines file per master seed,
/// appended as rungs finish, scanned on startup.
///
/// Resume semantics: only **passed** rungs are skipped. A failed rung —
/// most often a churn schedule that tripped the rebuild oracle — re-runs
/// on every resume, so the workflow for a red 100k–1M sweep is to fix,
/// re-invoke with the same `--checkpoint-dir`, and pay only for the
/// failed rungs: the checkpoint bisects the suite down to the breakage.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    entries: Vec<SweepEntry>,
    /// The file ends in a torn (unterminated) line — the next append
    /// must open a fresh line or it would corrupt itself by
    /// concatenating onto the fragment.
    torn_tail: bool,
}

impl CheckpointStore {
    /// Opens (creating the directory if needed) the checkpoint file for
    /// `master_seed` under `dir` and loads every well-formed line.
    pub fn open(dir: &Path, master_seed: u64) -> std::io::Result<CheckpointStore> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("sweep-{master_seed}.jsonl"));
        let mut entries = Vec::new();
        let mut torn_tail = false;
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    // A torn tail line from an interrupted append is
                    // expected; its rung simply re-runs.
                    if let Ok(e) = SweepEntry::from_checkpoint_line(line) {
                        entries.push(e);
                    }
                }
                torn_tail = !text.is_empty() && !text.ends_with('\n');
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(CheckpointStore {
            path,
            entries,
            torn_tail,
        })
    }

    /// Number of loaded (resumable) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The completed-and-passed entry for a rung, if any.
    pub fn lookup(&self, family: &str, size: usize, seed: u64) -> Option<&SweepEntry> {
        self.entries
            .iter()
            .find(|e| e.pass && e.family == family && e.size == size && e.seed == seed)
    }

    /// Appends a finished rung and flushes it to disk immediately, so an
    /// interruption loses at most the in-flight chunk.
    pub fn append(&mut self, entry: &SweepEntry) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if self.torn_tail {
            // Seal the interrupted line so this entry starts fresh
            // instead of concatenating onto the fragment.
            writeln!(f)?;
            self.torn_tail = false;
        }
        writeln!(f, "{}", entry.to_checkpoint_line())?;
        f.sync_data()?;
        self.entries.push(entry.clone());
        Ok(())
    }
}

/// How one rung of a checkpointed sweep was satisfied (the progress
/// callback's view).
pub enum RungOutcome<'a> {
    /// Skipped: a passed entry for this rung was found in the store.
    Resumed(&'a SweepEntry),
    /// Freshly executed this run.
    Ran(&'a SweepPoint, &'a ScenarioResult),
}

/// Runs a sweep suite over `threads` workers and returns the finished
/// entries in suite order (thread count never affects content).
pub fn run_sweep(points: &[SweepPoint], threads: Threads) -> Vec<SweepEntry> {
    run_sweep_observed::<NullRecorder>(points, threads, None, &mut |_| {}, |_, _| {})
        // spf-lint: allow(panic-surface) — invariant: the only Err path is checkpoint I/O, and no store is passed
        .expect("no checkpoint store, so no checkpoint I/O can fail")
        .0
}

/// The checkpoint-aware sweep driver, with a per-worker recorder type
/// `R`: the timed `BENCH_sweep.json` runs with
/// [`amoebot_telemetry::TimedRecorder`] so each rung carries its
/// per-phase micros breakdown.
///
/// Rungs with a passed entry in `checkpoint` are resumed without
/// running; the rest execute in chunks of roughly two batches per
/// worker, each chunk's entries appended (and synced) to the store
/// before the next chunk starts — a `kill -9` mid-sweep loses at most
/// one chunk of work. `on_rung` fires once per rung in completion
/// order (resumed rungs first). Returns the entries in suite order plus
/// the freshly-run results (for `--metrics-json` merging; resumed rungs
/// carry their metrics only inside the pre-rendered JSON).
///
/// `inspect` is the per-scenario hook of
/// [`crate::batch::run_batch_inspect`]: each freshly-run rung's recorder
/// is exposed next to its result on the worker thread — the sweep FAIL
/// path's flight-record dump. Resumed rungs never re-run, so the hook
/// does not fire for them.
pub fn run_sweep_observed<R: Recorder + Default>(
    points: &[SweepPoint],
    threads: Threads,
    mut checkpoint: Option<&mut CheckpointStore>,
    on_rung: &mut dyn FnMut(RungOutcome<'_>),
    inspect: impl Fn(&ScenarioResult, &R) + Sync,
) -> std::io::Result<(Vec<SweepEntry>, Vec<ScenarioResult>)> {
    let mut slots: Vec<Option<SweepEntry>> = points.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let hit = checkpoint
            .as_deref()
            .and_then(|s| s.lookup(&p.family, p.size, p.scenario.seed))
            .cloned();
        match hit {
            Some(entry) => {
                on_rung(RungOutcome::Resumed(&entry));
                slots[i] = Some(entry);
            }
            None => pending.push(i),
        }
    }
    let chunk = threads.resolve().max(1) * 2;
    let mut fresh = Vec::new();
    for ids in pending.chunks(chunk) {
        let scenarios: Vec<Scenario> = ids.iter().map(|&i| points[i].scenario.clone()).collect();
        let results = run_batch_inspect::<R>(&scenarios, threads, &inspect);
        for (&i, r) in ids.iter().zip(&results) {
            let entry = SweepEntry::from_result(&points[i], r);
            if let Some(store) = checkpoint.as_deref_mut() {
                store.append(&entry)?;
            }
            on_rung(RungOutcome::Ran(&points[i], r));
            slots[i] = Some(entry);
        }
        fresh.extend(results);
    }
    let entries = slots
        .into_iter()
        // spf-lint: allow(panic-surface) — invariant: the resume loop and run loop jointly fill every slot
        .map(|s| s.expect("every rung either resumed or ran"))
        .collect();
    Ok((entries, fresh))
}

/// An aggregated sweep outcome, renderable as `BENCH_sweep.json`.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The master seed the sweep was derived from.
    pub master_seed: u64,
    /// The `--max-nodes` ceiling the ladder was clipped to.
    pub max_nodes: usize,
    /// Worker threads used (provenance; never affects content).
    pub threads: usize,
    /// Per-rung outcomes in suite order.
    pub entries: Vec<SweepEntry>,
}

impl SweepReport {
    /// Number of rungs that passed cross-validation.
    pub fn passed(&self) -> usize {
        self.entries.iter().filter(|e| e.pass).count()
    }

    /// Number of rungs that failed cross-validation.
    pub fn failed(&self) -> usize {
        self.entries.len() - self.passed()
    }

    /// Renders the report. With `include_timing` the per-rung
    /// `wall_micros` and the derived `nodes_per_sec` throughput are
    /// included (this is the `BENCH_sweep.json` the perf gate consumes);
    /// without, the output is canonical and byte-stable across runs,
    /// thread counts *and* checkpoint resumes (the per-rung objects are
    /// pre-rendered at run time; see [`SweepEntry`]).
    pub fn to_json(&self, include_timing: bool) -> Json {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                if include_timing {
                    e.timed.clone()
                } else {
                    e.canonical.clone()
                }
            })
            .collect();
        let mut summary = Json::object()
            .field("passed", self.passed())
            .field("failed", self.failed())
            .field(
                "total_rounds",
                self.entries.iter().map(|e| e.rounds).sum::<u64>(),
            )
            .field(
                "total_beeps",
                self.entries.iter().map(|e| e.beeps).sum::<u64>(),
            );
        if include_timing {
            summary = summary.field(
                "total_wall_micros",
                self.entries.iter().map(|e| e.wall_micros).sum::<u64>(),
            );
        }
        Envelope::new(SWEEP_SCHEMA, include_timing)
            .field("master_seed", self.master_seed)
            .field("max_nodes", self.max_nodes)
            .field("count", self.entries.len())
            .timed_field("threads", self.threads)
            .field("entries", Json::Array(entries))
            .field("summary", summary)
            .finish()
    }

    /// The canonical pretty-printed JSON string (no timing; byte-stable).
    pub fn canonical_json(&self) -> String {
        self.to_json(false).render_pretty()
    }
}

/// Whole-structure throughput of one rung: nodes simulated per wall-clock
/// second, saturating and division-safe.
pub fn nodes_per_sec(n: usize, wall_micros: u64) -> u64 {
    ((n as u128) * 1_000_000 / (wall_micros.max(1) as u128)).min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::default_registry;

    #[test]
    fn suite_respects_ceilings_and_filters() {
        let r = default_registry();
        let suite = sweep_suite(&r, 42, &DEFAULT_SIZES, 100_000, &[]);
        assert!(!suite.is_empty());
        for p in &suite {
            assert!(p.size <= 100_000, "{}: rung {} over max", p.family, p.size);
            let fam = r.get(&p.family).unwrap();
            assert!(
                p.size <= fam.sweep_max_n,
                "{} over family ceiling",
                p.family
            );
        }
        // The DnC forest family reaches its lifted 100k ceiling...
        assert!(suite
            .iter()
            .any(|p| p.family == "random-blob-forest" && p.size == 100_000));
        // ...but no further: 1M stays above the ceiling.
        let unclipped = sweep_suite(&r, 42, &DEFAULT_SIZES, 1_000_000, &[]);
        assert!(!unclipped
            .iter()
            .any(|p| p.family == "random-blob-forest" && p.size > 100_000));
        // Filtering restricts to the named family.
        let only = sweep_suite(&r, 42, &DEFAULT_SIZES, 10_000, &["blob-broadcast".into()]);
        assert!(only.iter().all(|p| p.family == "blob-broadcast"));
        assert_eq!(only.len(), 2); // 1k and 10k rungs
    }

    #[test]
    fn rung_seeds_are_stable_under_suite_composition() {
        let r = default_registry();
        let all = sweep_suite(&r, 7, &DEFAULT_SIZES, 10_000, &[]);
        let only = sweep_suite(&r, 7, &DEFAULT_SIZES, 10_000, &["random-blob-spt".into()]);
        for p in &only {
            let same = all
                .iter()
                .find(|q| q.family == p.family && q.size == p.size)
                .expect("family present in the full suite");
            assert_eq!(same.scenario.seed, p.scenario.seed);
            assert_eq!(same.scenario.name, p.scenario.name);
        }
    }

    #[test]
    fn small_sweep_runs_and_renders() {
        let r = default_registry();
        let suite = sweep_suite(&r, 3, &[100, 200], 200, &[]);
        let entries = run_sweep(&suite, Threads::Count(2));
        assert!(entries.iter().all(|e| e.pass));
        let report = SweepReport {
            master_seed: 3,
            max_nodes: 200,
            threads: 2,
            entries,
        };
        let canon = report.canonical_json();
        assert!(canon.contains(SWEEP_SCHEMA));
        assert!(!canon.contains("wall_micros"));
        assert!(!canon.contains("nodes_per_sec"));
        let timed = report.to_json(true).render_pretty();
        assert!(timed.contains("nodes_per_sec"));
    }

    #[test]
    fn checkpoint_lines_round_trip() {
        let r = default_registry();
        let suite = sweep_suite(&r, 13, &[100], 100, &["blob-broadcast".into()]);
        let entries = run_sweep(&suite, Threads::Count(1));
        for e in &entries {
            let back = SweepEntry::from_checkpoint_line(&e.to_checkpoint_line()).unwrap();
            assert_eq!(back.family, e.family);
            assert_eq!(back.seed, e.seed);
            assert_eq!(back.canonical, e.canonical);
            assert_eq!(back.timed, e.timed);
        }
        assert!(SweepEntry::from_checkpoint_line("{\"family\": 3}").is_err());
        assert!(SweepEntry::from_checkpoint_line("not json").is_err());
    }

    /// The resume contract: a sweep interrupted after some rungs and
    /// resumed from its `--checkpoint-dir` renders byte-identical
    /// reports (canonical *and* timed), skips the finished rungs, and
    /// survives a torn tail line.
    #[test]
    fn checkpointed_resume_is_byte_identical_and_skips_finished_rungs() {
        let r = default_registry();
        let suite = sweep_suite(&r, 29, &[64, 128], 128, &[]);
        assert!(suite.len() >= 2, "need at least two rungs to interrupt");
        let dir = std::env::temp_dir().join(format!("spf-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // The uninterrupted reference run (no checkpointing).
        let reference = SweepReport {
            master_seed: 29,
            max_nodes: 128,
            threads: 1,
            entries: run_sweep(&suite, Threads::Count(1)),
        };

        // "Interrupted" run: only the first rung completes.
        let mut store = CheckpointStore::open(&dir, 29).unwrap();
        let (_, fresh) = run_sweep_observed::<NullRecorder>(
            &suite[..1],
            Threads::Count(1),
            Some(&mut store),
            &mut |_| {},
            |_, _| {},
        )
        .unwrap();
        assert_eq!(fresh.len(), 1);

        // Simulate a kill mid-append: a torn half-line at the tail.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(store.path())
                .unwrap();
            write!(f, "{{\"family\": \"torn").unwrap();
        }

        // Resume: the finished rung must come from the store.
        let mut store = CheckpointStore::open(&dir, 29).unwrap();
        assert_eq!(store.len(), 1, "torn tail line must be dropped");
        let mut resumed_count = 0usize;
        let (entries, fresh) = run_sweep_observed::<NullRecorder>(
            &suite,
            Threads::Count(1),
            Some(&mut store),
            &mut |o| {
                if matches!(o, RungOutcome::Resumed(_)) {
                    resumed_count += 1;
                }
            },
            |_, _| {},
        )
        .unwrap();
        assert_eq!(resumed_count, 1);
        assert_eq!(fresh.len(), suite.len() - 1);
        let resumed = SweepReport {
            master_seed: 29,
            max_nodes: 128,
            threads: 1,
            entries,
        };
        assert_eq!(resumed.canonical_json(), reference.canonical_json());
        // The timed rendering of the resumed rung replays the original
        // run's wall numbers (pre-rendered), so even the timed report is
        // reproduced byte-for-byte.
        let timed_a = resumed.to_json(true).render_pretty();
        let timed_b = {
            let mut store = CheckpointStore::open(&dir, 29).unwrap();
            let (entries, _) = run_sweep_observed::<NullRecorder>(
                &suite,
                Threads::Count(1),
                Some(&mut store),
                &mut |_| {},
                |_, _| {},
            )
            .unwrap();
            SweepReport {
                master_seed: 29,
                max_nodes: 128,
                threads: 1,
                entries,
            }
            .to_json(true)
            .render_pretty()
        };
        assert_eq!(
            timed_a, timed_b,
            "fully-resumed timed report must be stable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Failed rungs re-run on resume — the checkpoint "bisects" a red
    /// sweep down to its failures instead of replaying the green rungs.
    #[test]
    fn failed_rungs_are_not_resumed() {
        let r = default_registry();
        // selftest-fail is not sweepable, so fabricate a failing entry.
        let suite = sweep_suite(&r, 31, &[64], 64, &["blob-broadcast".into()]);
        assert_eq!(suite.len(), 1);
        let dir = std::env::temp_dir().join(format!("spf-ckpt-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, 31).unwrap();
        let entries = run_sweep(&suite, Threads::Count(1));
        let mut failed = entries[0].clone();
        failed.pass = false;
        store.append(&failed).unwrap();
        assert!(
            store
                .lookup(&failed.family, failed.size, failed.seed)
                .is_none(),
            "failed entries must not satisfy a resume lookup"
        );
        // A passed entry for the same rung (the re-run) does.
        store.append(&entries[0]).unwrap();
        assert!(store
            .lookup(&failed.family, failed.size, failed.seed)
            .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nodes_per_sec_is_division_safe() {
        assert_eq!(nodes_per_sec(1000, 0), 1_000_000_000);
        assert_eq!(nodes_per_sec(1000, 1_000_000), 1000);
        assert_eq!(nodes_per_sec(0, 5), 0);
    }
}
