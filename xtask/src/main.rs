//! `cargo xtask` — repo automation around `BENCH_sweep.json`.
//!
//! Three subcommands, all over the sweep-report schema
//! (`spf-sweep-report/v1`) that `scenario-runner sweep` emits:
//!
//! * `bench-report OLD NEW` — pretty-prints a per-(family, size)
//!   throughput diff between two sweep reports as a markdown table, for
//!   PR descriptions;
//! * `bench-compare BASELINE FRESH [--threshold PCT]
//!   [--min-wall-micros N]` — the CI gate: exits non-zero if any rung
//!   regresses by more than `PCT` percent (default 25) in nodes/sec
//!   throughput, or if any fresh rung failed validation. Rungs present
//!   on one side only are reported but never fail the gate (ladders
//!   legitimately grow and shrink), and rungs whose wall time stays
//!   under the floor on *both* sides (default 20 ms) are reported as
//!   `tiny` but not gated — sub-millisecond rungs jitter more than the
//!   threshold from scheduler noise alone, so gating them measures the
//!   runner, not the code. A slowdown that pushes a small rung past the
//!   floor is gated again. Rungs *faster* than baseline by more than the
//!   threshold print as `FAST` with a non-fatal "consider refreshing the
//!   baseline" note, so wins show up in the CI log instead of silently
//!   eroding the gate's sensitivity;
//! * `bench-refresh` — regenerates `bench/baseline.json` from three
//!   runs of the canonical CI sweep invocation (release build, 10k
//!   ladder, `--threads 1 --seed 42`): each rung keeps the run with the
//!   median `wall_micros`, so one noisy sample cannot set the gate's
//!   reference. It fails without writing anything if the runs disagree
//!   on any rung's rounds, beeps or check verdict. It then prints the
//!   markdown diff against the previous baseline and appends one line
//!   to the committed perf history `bench/trajectory.jsonl` (every
//!   rung's name, rounds and nodes/sec). One command instead of the
//!   by-hand procedure.
//!
//! Plus four gates outside the sweep schema: `lint` (the `spf-lint`
//! static checks under `lint/budget.json`), `server-smoke` (the
//! end-to-end `scenario-server` session-service check: snapshot,
//! kill/restart, resume differential, 64-session throughput),
//! `adversary-smoke` (the fault-injection gate: every registered
//! adversary family re-converges across seeds, and the deliberately
//! broken variant trips the self-stabilization checker with the full
//! seed + event reproduction key in its FAIL line) and `obs-smoke`
//! (the flight-recorder gate: the planted failure must dump a `.spft`
//! flight record whose name carries the reproduction key and whose
//! bytes decode through the trace codec, `FlightKey` first).

use std::process::ExitCode;

use amoebot_scenarios::json::Json;
use amoebot_scenarios::SWEEP_SCHEMA;

/// One rung parsed out of a sweep report.
#[derive(Debug, Clone)]
struct Rung {
    family: String,
    size: u64,
    /// The rung's scenario name (`family/size` form of the report).
    name: String,
    rounds: u64,
    nodes_per_sec: u64,
    wall_micros: u64,
    pass: bool,
    /// Engine metric breakdown (`counters` plus per-phase timer sums),
    /// flattened to `(name, value)` pairs. Empty for reports written
    /// before the telemetry layer - the gate works without them.
    metrics: Vec<(String, u64)>,
}

/// Flattens a rung's `metrics` object into sorted `(name, value)` pairs:
/// every counter by name, every timer by `<name>` with its `sum` field
/// (total micros spent in the phase across the rung).
fn flatten_metrics(entry: &Json) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Some(metrics) = entry.get("metrics") else {
        return out;
    };
    if let Some(Json::Object(counters)) = metrics.get("counters") {
        for (name, v) in counters {
            if let Some(v) = v.as_u64() {
                out.push((name.clone(), v));
            }
        }
    }
    if let Some(Json::Object(timers)) = metrics.get("timers") {
        for (name, h) in timers {
            if let Some(sum) = h.get("sum").and_then(Json::as_u64) {
                out.push((name.clone(), sum));
            }
            // Percentile exposition (PR-10): timed sweeps carry per-phase
            // p50/p90/p99, so tail regressions show up in the gate's
            // metric deltas, not just the totals. Older reports simply
            // lack the fields.
            for q in ["p50", "p90", "p99"] {
                if let Some(v) = h.get(q).and_then(Json::as_u64) {
                    out.push((format!("{name}_{q}"), v));
                }
            }
        }
    }
    out.sort();
    out
}

fn load_rungs(path: &str) -> Result<Vec<Rung>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    rungs_from_doc(&doc, path)
}

fn rungs_from_doc(doc: &Json, path: &str) -> Result<Vec<Rung>, String> {
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SWEEP_SCHEMA {
        return Err(format!(
            "{path}: schema {schema:?} is not {SWEEP_SCHEMA:?} (is this a `sweep` report?)"
        ));
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no entries array"))?;
    let mut out = Vec::new();
    for e in entries {
        let field = |k: &str| e.get(k).and_then(Json::as_u64);
        out.push(Rung {
            family: e
                .get("family")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: entry without family"))?
                .to_string(),
            size: field("size").ok_or_else(|| format!("{path}: entry without size"))?,
            name: e
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            rounds: field("rounds").unwrap_or(0),
            nodes_per_sec: field("nodes_per_sec").ok_or_else(|| {
                format!("{path}: entry without nodes_per_sec (was the report written with --no-timing?)")
            })?,
            wall_micros: field("wall_micros").unwrap_or(0),
            pass: e.get("pass").and_then(Json::as_bool).unwrap_or(false),
            metrics: flatten_metrics(e),
        });
    }
    Ok(out)
}

fn find<'a>(rungs: &'a [Rung], family: &str, size: u64) -> Option<&'a Rung> {
    rungs.iter().find(|r| r.family == family && r.size == size)
}

/// Signed relative throughput change, in percent (positive = faster).
fn delta_pct(old: u64, new: u64) -> f64 {
    if old == 0 {
        return 0.0;
    }
    (new as f64 - old as f64) * 100.0 / old as f64
}

fn bench_report(old_path: &str, new_path: &str) -> Result<(), String> {
    let old = load_rungs(old_path)?;
    let new = load_rungs(new_path)?;
    print_report_table(&old, &new);
    Ok(())
}

fn print_report_table(old: &[Rung], new: &[Rung]) {
    println!("| family | size | old nodes/s | new nodes/s | Δ |");
    println!("|---|---:|---:|---:|---:|");
    for n in new {
        match find(old, &n.family, n.size) {
            Some(o) => {
                let d = delta_pct(o.nodes_per_sec, n.nodes_per_sec);
                println!(
                    "| {} | {} | {} | {} | {}{:.1}% |",
                    n.family,
                    n.size,
                    o.nodes_per_sec,
                    n.nodes_per_sec,
                    if d >= 0.0 { "+" } else { "" },
                    d
                );
            }
            None => println!(
                "| {} | {} | — | {} | new rung |",
                n.family, n.size, n.nodes_per_sec
            ),
        }
    }
    for o in old {
        if find(new, &o.family, o.size).is_none() {
            println!(
                "| {} | {} | {} | — | removed rung |",
                o.family, o.size, o.nodes_per_sec
            );
        }
    }
}

/// The canonical baseline-refresh sweep invocation — the same flags the
/// CI perf job uses (`--threads 1` so rungs never compete for cores),
/// writing the report to `out`.
fn refresh_invocation(out: &str) -> Vec<String> {
    let args = [
        "run",
        "--release",
        "--locked",
        "--bin",
        "scenario-runner",
        "--",
        "sweep",
        "--max-nodes",
        "10000",
        "--threads",
        "1",
        "--seed",
        "42",
        "--out",
        out,
    ];
    args.iter().map(|a| a.to_string()).collect()
}

/// How many canonical sweeps one `bench-refresh` runs.
const REFRESH_RUNS: usize = 3;

/// Replaces the value of `key` in the object `doc`, if present.
fn replace_field(doc: &mut Json, key: &str, value: Json) {
    if let Json::Object(fields) = doc {
        if let Some((_, v)) = fields.iter_mut().find(|(k, _)| k == key) {
            *v = value;
        }
    }
}

/// Merges sweep reports of one invocation into a baseline: every rung
/// takes its entry from the run with the median `wall_micros` (the
/// lower median for an even count), and the summary's total wall time
/// is recomputed over the chosen entries. Fails if the runs disagree on
/// the rung list or on any rung's rounds, beeps or check verdict
/// (`pass`): those are deterministic, so a difference is a bug, not
/// noise.
fn median_report(runs: &[Json]) -> Result<Json, String> {
    let entries: Vec<&[Json]> = runs
        .iter()
        .map(|doc| doc.get("entries").and_then(Json::as_array))
        .collect::<Option<_>>()
        .ok_or("a sweep report has no entries array")?;
    let first = *entries.first().ok_or("no sweep reports to merge")?;
    if let Some(run) = entries.iter().position(|rungs| rungs.len() != first.len()) {
        return Err(format!("sweep runs 1 and {} differ in rung count", run + 1));
    }
    let mut chosen = Vec::with_capacity(first.len());
    let mut total_wall = 0u64;
    for (i, entry) in first.iter().enumerate() {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
        let mut samples = Vec::with_capacity(runs.len());
        for (run, rungs) in entries.iter().enumerate() {
            let other = rungs
                .get(i)
                .filter(|e| e.get("name") == entry.get("name"))
                .ok_or_else(|| format!("sweep run {} has no rung {name} at #{i}", run + 1))?;
            for key in ["rounds", "beeps", "pass"] {
                if other.get(key) != entry.get(key) {
                    return Err(format!(
                        "rung {name}: `{key}` differs between sweep runs 1 and {}",
                        run + 1
                    ));
                }
            }
            let wall = other
                .get("wall_micros")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("rung {name} has no wall_micros"))?;
            samples.push((wall, run));
        }
        samples.sort_unstable();
        let (wall, run) = samples[(samples.len() - 1) / 2];
        total_wall += wall;
        chosen.push(entries[run][i].clone());
    }
    let mut doc = runs[0].clone();
    replace_field(&mut doc, "entries", Json::Array(chosen));
    if let Some(mut summary) = doc.get("summary").cloned() {
        replace_field(&mut summary, "total_wall_micros", Json::U64(total_wall));
        replace_field(&mut doc, "summary", summary);
    }
    Ok(doc)
}

/// The committed perf history, one line per `bench-refresh`.
const TRAJECTORY_PATH: &str = "bench/trajectory.jsonl";

/// Schema tag of every trajectory line.
const TRAJECTORY_SCHEMA: &str = "spf-bench-trajectory/v1";

/// One trajectory line (compact JSON, no newline): every rung's name,
/// rounds and nodes/sec, in report order.
fn trajectory_line(rungs: &[Rung]) -> String {
    let items: Vec<Json> = rungs
        .iter()
        .map(|r| {
            Json::object()
                .field("name", r.name.as_str())
                .field("rounds", r.rounds)
                .field("nodes_per_sec", r.nodes_per_sec)
        })
        .collect();
    Json::object()
        .field("schema", TRAJECTORY_SCHEMA)
        .field("rungs", items)
        .render_compact()
}

/// Appends `line` to the trajectory file, creating it on first use.
/// Earlier lines are never rewritten.
fn append_trajectory(path: &std::path::Path, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// Regenerates `bench/baseline.json` from [`REFRESH_RUNS`] canonical
/// sweeps ([`median_report`]), prints the markdown diff against the
/// previous baseline and appends the new rungs to
/// `bench/trajectory.jsonl`. The sweeps write under `target/`; the
/// baseline is written only once every run has passed and agreed.
fn bench_refresh() -> Result<u8, String> {
    // The xtask manifest lives in `<workspace>/xtask`; run the sweep from
    // the workspace root so relative paths match the CI invocation.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("xtask manifest has no parent directory")?
        .to_path_buf();
    let baseline_path = root.join("bench/baseline.json");
    let old = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("old baseline: {e}"))?;
            rungs_from_doc(&doc, "old baseline")?
        }
        Err(_) => Vec::new(), // first-ever baseline: nothing to diff
    };
    let runs_dir = root.join("target/bench-refresh");
    std::fs::create_dir_all(&runs_dir)
        .map_err(|e| format!("cannot create {}: {e}", runs_dir.display()))?;
    let mut runs = Vec::with_capacity(REFRESH_RUNS);
    for run in 1..=REFRESH_RUNS {
        let out = runs_dir.join(format!("sweep-{run}.json"));
        let args = refresh_invocation(&out.to_string_lossy());
        eprintln!("sweep {run}/{REFRESH_RUNS}: cargo {}", args.join(" "));
        let status = std::process::Command::new("cargo")
            .args(&args)
            .current_dir(&root)
            .status()
            .map_err(|e| format!("cannot spawn cargo: {e}"))?;
        if !status.success() {
            return Err(format!("baseline sweep {run} failed ({status})"));
        }
        let text = std::fs::read_to_string(&out)
            .map_err(|e| format!("cannot read {}: {e}", out.display()))?;
        runs.push(Json::parse(&text).map_err(|e| format!("sweep {run}: {e}"))?);
    }
    let doc = median_report(&runs)?;
    let new = rungs_from_doc(&doc, "merged baseline")?;
    std::fs::write(&baseline_path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
    append_trajectory(&root.join(TRAJECTORY_PATH), &trajectory_line(&new))?;
    println!();
    println!("refreshed bench/baseline.json (median of {REFRESH_RUNS} sweeps; appended to {TRAJECTORY_PATH}); diff against the previous baseline:");
    println!();
    print_report_table(&old, &new);
    Ok(0)
}

/// The client-observed round trip of every `rpc`, as `(op, micros)`:
/// `server-smoke` reports its percentiles per op.
static RPC_MICROS: std::sync::Mutex<Vec<(String, u64)>> = std::sync::Mutex::new(Vec::new());

/// One framed request/response round trip against a live server.
fn rpc(conn: &mut std::net::TcpStream, doc: &Json) -> Result<Json, String> {
    use amoebot_scenarios::server::{read_frame, write_frame};
    // spf-lint: allow(wall-clock) — client-observed latency for the smoke report; never in canonical output
    let started = std::time::Instant::now();
    write_frame(conn, doc.render_compact().as_bytes()).map_err(|e| format!("send: {e}"))?;
    let frame = read_frame(conn)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("server closed the connection mid-exchange")?;
    let micros = started.elapsed().as_micros() as u64;
    let kind = doc.get("op").and_then(Json::as_str).unwrap_or("?");
    if let Ok(mut log) = RPC_MICROS.lock() {
        log.push((kind.to_string(), micros));
    }
    let text = std::str::from_utf8(&frame).map_err(|e| format!("response: {e}"))?;
    Json::parse(text).map_err(|e| format!("response: {e}"))
}

/// Prints the client-observed p50/p99 round trip per op kind of every
/// `rpc` so far (nearest-rank percentiles). A report, not a gate.
fn print_rpc_latency() {
    let mut by_op: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    if let Ok(log) = RPC_MICROS.lock() {
        for (op, micros) in log.iter() {
            by_op.entry(op.clone()).or_default().push(*micros);
        }
    }
    for (op, mut micros) in by_op {
        micros.sort_unstable();
        let at = |p: usize| micros[(micros.len() * p).div_ceil(100).max(1) - 1] as f64 / 1e3;
        println!(
            "server-smoke: client latency {op}: n={} p50={:.3} ms p99={:.3} ms",
            micros.len(),
            at(50),
            at(99)
        );
    }
}

fn rpc_ok(conn: &mut std::net::TcpStream, doc: &Json) -> Result<Json, String> {
    let resp = rpc(conn, doc)?;
    match resp.get("error").and_then(Json::as_str) {
        None => Ok(resp),
        Some(e) => Err(format!("{} -> {e}", doc.render_compact())),
    }
}

fn op(fields: &[(&str, Json)]) -> Json {
    let mut doc = Json::object();
    for (k, v) in fields {
        doc = doc.field(k, v.clone());
    }
    doc
}

/// A scenario-server child process bound to an ephemeral port. Dropping
/// it kills and reaps the child, so a failed check leaves no server
/// behind.
struct SmokeServer {
    child: std::process::Child,
    addr: String,
}

impl Drop for SmokeServer {
    fn drop(&mut self) {
        // After `shutdown` has reaped the child, `kill` sends nothing and
        // `wait` returns the status it already has.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A directory removed when the guard drops, on every exit path.
struct RemoveOnDrop(std::path::PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl SmokeServer {
    fn start(bin: &std::path::Path, snapshot_dir: &std::path::Path) -> Result<SmokeServer, String> {
        use std::io::BufRead;
        let child = std::process::Command::new(bin)
            .args(["--threads", "4", "--snapshot-dir"])
            .arg(snapshot_dir)
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        // Owned by the guard from here on, so every error below kills it.
        let mut server = SmokeServer {
            child,
            addr: String::new(),
        };
        // spf-lint: allow(panic-surface) — invariant: the Command above pipes stderr
        let stderr = server.child.stderr.take().expect("stderr was piped");
        let mut lines = std::io::BufReader::new(stderr).lines();
        server.addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        break addr.to_string();
                    }
                    eprintln!("server: {line}");
                }
                Some(Err(e)) => return Err(format!("reading server stderr: {e}")),
                None => return Err("server exited before announcing its address".to_string()),
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("server: {line}");
            }
        });
        Ok(server)
    }

    fn connect(&self) -> Result<std::net::TcpStream, String> {
        let conn = std::net::TcpStream::connect(&self.addr)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    }

    /// Sends the shutdown op (snapshot-all) and waits for process exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        rpc_ok(&mut conn, &op(&[("op", Json::from("shutdown"))]))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for server exit: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

/// `cargo xtask server-smoke` — the end-to-end gate for the session
/// service: drives a real `scenario-server` process over TCP through
/// create/step/mutate/fault/snapshot with a churn session (a blob,
/// `c` = 2) and a stuck-pin session (a line, `c` = 1), kills it,
/// restarts it from the snapshot directory, and asserts that each
/// resumed session's next event passes the rebuild oracle and that its
/// canonical query matches an uninterrupted run of the same scenario,
/// `relabel_*` counters aside. Then hammers the restarted server with
/// 64 concurrent sessions and reports step-request throughput (gated at
/// 1000 req/s — an order
/// of magnitude below what a release build sustains, so only a real
/// regression trips it), and the client-observed p50/p99 round trip of
/// every op kind it sent (not gated).
fn server_smoke() -> Result<u8, String> {
    use amoebot_scenarios::server::Session;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("xtask manifest has no parent directory")?
        .to_path_buf();
    eprintln!("running: cargo build --release --locked --bin scenario-server");
    let status = std::process::Command::new("cargo")
        .args(["build", "--release", "--locked", "--bin", "scenario-server"])
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("server build failed ({status})"));
    }
    let bin = root.join("target/release/scenario-server");
    let dir = std::env::temp_dir().join(format!("spf-server-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Declared before either server, so each server is killed before the
    // directory goes.
    let _dir_guard = RemoveOnDrop(dir.clone());

    // Phase 1: create a churn session (a blob, `c` = 2) and a stuck-pin
    // session (a line, `c` = 1), the two shapes a restore derives a
    // topology for; advance each partway and shut down (which snapshots
    // every live session).
    const RESTARTED: [(&str, &str, &str); 2] = [
        ("churn", "blob-churn-broadcast", "mutate"),
        ("line", "fault-stuckpin-broadcast", "fault"),
    ];
    let create = |name: &str, family: &str| {
        op(&[
            ("op", Json::from("create")),
            ("session", Json::from(name)),
            ("family", Json::from(family)),
            ("size", Json::from(60u64)),
            ("seed", Json::from(9u64)),
            ("events", Json::from(6u64)),
            ("per_event", Json::from(3u64)),
        ])
    };
    // The next schedule event, which must pass the rebuild oracle, then
    // three rounds.
    let advance = |conn: &mut std::net::TcpStream, name: &str, event: &str| -> Result<(), String> {
        let verified = [
            ("op", event.into()),
            ("session", name.into()),
            ("verify", true.into()),
        ];
        let resp = rpc_ok(conn, &op(&verified))?;
        if resp.get("oracle_ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{event} on {name} failed the rebuild oracle"));
        }
        rpc_ok(
            conn,
            &op(&[
                ("op", Json::from("step")),
                ("session", Json::from(name)),
                ("n", Json::from(3u64)),
            ]),
        )?;
        Ok(())
    };
    // A restored world counts its relabels from zero, so the resumed
    // and twin reports are compared without their `relabel_*` counters.
    let query = |conn: &mut std::net::TcpStream, name: &str| -> Result<String, String> {
        let doc = rpc_ok(
            conn,
            &op(&[("op", Json::from("query")), ("session", Json::from(name))]),
        )?;
        Ok(Session::without_relabels(&doc).render_pretty())
    };

    let server = SmokeServer::start(&bin, &dir)?;
    let mut conn = server.connect()?;
    for (name, family, event) in RESTARTED {
        rpc_ok(&mut conn, &create(name, family))?;
        advance(&mut conn, name, event)?;
    }
    drop(conn);
    server.shutdown()?;
    eprintln!(
        "server-smoke: mid-schedule shutdown complete, restarting from {}",
        dir.display()
    );

    // Phase 2: restart over the same snapshot dir; the sessions must be
    // live again. Advance each once more, and run an uninterrupted twin
    // of each for the differential.
    let server = SmokeServer::start(&bin, &dir)?;
    let mut conn = server.connect()?;
    for (name, family, event) in RESTARTED {
        advance(&mut conn, name, event)?;
        let resumed = query(&mut conn, name)?;
        let twin_name = format!("{name}-twin");
        rpc_ok(&mut conn, &create(&twin_name, family))?;
        advance(&mut conn, &twin_name, event)?;
        advance(&mut conn, &twin_name, event)?;
        let twin = query(&mut conn, &twin_name)?;
        if resumed.replace(&format!("\"{name}\""), &format!("\"{twin_name}\"")) != twin {
            eprintln!("resumed:\n{resumed}\ntwin:\n{twin}");
            return Err(format!(
                "resumed {family} session diverged from the uninterrupted twin"
            ));
        }
        eprintln!("server-smoke: resumed {family} report matches the uninterrupted run");
    }

    // Phase 3: 64 concurrent sessions, each its own connection, each
    // issuing single-step requests — the throughput figure is requests
    // actually served, not batched work.
    const SESSIONS: u64 = 64;
    const STEPS_PER_SESSION: u64 = 40;
    // spf-lint: allow(wall-clock) — smoke-benchmark throughput gate; never in canonical output
    let started = std::time::Instant::now();
    let outcome: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for i in 0..SESSIONS {
            let server = &server;
            joins.push(scope.spawn(move || -> Result<(), String> {
                let mut conn = server.connect()?;
                let name = format!("c{i}");
                rpc_ok(
                    &mut conn,
                    &op(&[
                        ("op", Json::from("create")),
                        ("session", Json::from(name.as_str())),
                        ("size", Json::from(60u64)),
                        ("seed", Json::from(i)),
                    ]),
                )?;
                for _ in 0..STEPS_PER_SESSION {
                    rpc_ok(
                        &mut conn,
                        &op(&[
                            ("op", Json::from("step")),
                            ("session", Json::from(name.as_str())),
                        ]),
                    )?;
                }
                Ok(())
            }));
        }
        joins
            .into_iter()
            // spf-lint: allow(panic-surface) — a panicked smoke client should abort the gate loudly
            .map(|j| j.join().expect("smoke client panicked"))
            .collect()
    });
    for r in outcome {
        r?;
    }
    let elapsed = started.elapsed();
    let requests = SESSIONS * (STEPS_PER_SESSION + 1);
    let req_per_sec = (requests as f64 / elapsed.as_secs_f64()) as u64;
    println!(
        "server-smoke: {SESSIONS} concurrent sessions, {requests} requests in {} ms ({req_per_sec} req/s)",
        elapsed.as_millis()
    );
    print_rpc_latency();
    server.shutdown()?;
    if req_per_sec < 1000 {
        return Err(format!(
            "throughput {req_per_sec} req/s is below the 1000 req/s floor"
        ));
    }
    println!("server-smoke: PASS");
    Ok(0)
}

/// The adversary families gated by `adversary-smoke`, with the seeds it
/// drives each across. Five seeds per family cover every fault family a
/// kind's menu can draw (the menus have at most three entries).
const ADVERSARY_FAMILIES: [&str; 4] = [
    "fault-lossy-broadcast",
    "fault-stuckpin-broadcast",
    "fault-unfair-broadcast",
    "fault-crashrecover-broadcast",
];
const ADVERSARY_SEEDS: [u64; 5] = [0, 1, 7, 42, 1337];

/// `cargo xtask adversary-smoke` — runs every registered adversary
/// family in-process across a seed spread and asserts all
/// self-stabilization checks pass; then runs the deliberately-broken
/// `adversary-selftest-fail` variant and asserts the checker trips with
/// the fault-plan seed, scenario seed and event index in its detail.
/// The second half is the gate's own gate: a checker that cannot catch
/// a planted fault proves nothing when it passes.
fn adversary_smoke() -> Result<u8, String> {
    use amoebot_scenarios::{default_registry, run_scenario};
    let registry = default_registry();
    let mut ran = 0usize;
    for name in ADVERSARY_FAMILIES {
        let family = registry
            .get(name)
            .ok_or_else(|| format!("adversary-smoke: unknown family {name:?}"))?;
        for seed in ADVERSARY_SEEDS {
            let r = run_scenario(&family.build(seed));
            if !r.pass {
                let details: Vec<String> = r
                    .checks
                    .iter()
                    .filter(|c| !c.pass)
                    .map(|c| format!("{}: {}", c.name, c.detail))
                    .collect();
                return Err(format!(
                    "adversary-smoke: {name} seed {seed} FAILED\n  {}",
                    details.join("\n  ")
                ));
            }
            ran += 1;
        }
        println!(
            "adversary-smoke: {name} re-converged across {} seeds",
            ADVERSARY_SEEDS.len()
        );
    }
    let broken = registry
        .get("adversary-selftest-fail")
        .ok_or("adversary-smoke: unknown family adversary-selftest-fail")?;
    let r = run_scenario(&broken.build(0));
    if r.pass {
        return Err(
            "adversary-smoke: the deliberately-broken repair sweep passed — \
             the self-stabilization checker is not catching planted faults"
                .to_string(),
        );
    }
    let detail = r
        .checks
        .iter()
        .find(|c| !c.pass)
        .map(|c| c.detail.clone())
        .unwrap_or_default();
    for needle in ["fault schedule seed=", "scenario seed=", "event=#"] {
        if !detail.contains(needle) {
            return Err(format!(
                "adversary-smoke: the selftest FAIL line lost its \
                 reproduction key ({needle:?} missing): {detail}"
            ));
        }
    }
    println!("adversary-smoke: the planted fault tripped the checker:\n  {detail}");
    println!("adversary-smoke: PASS ({ran} adversary runs + 1 tripped selftest)");
    Ok(0)
}

/// `cargo xtask obs-smoke` — the end-to-end gate for the observability
/// plane: runs the deliberately-broken `adversary-selftest-fail` family
/// through a real `scenario-runner` process with the flight recorder
/// armed, and asserts the FAIL dumped a flight record whose file name
/// carries every reproduction-key fragment and whose bytes decode
/// through the standard trace codec, leading with a `FlightKey` event
/// that matches the name. A recorder that cannot document a planted
/// failure proves nothing when runs pass.
fn obs_smoke() -> Result<u8, String> {
    use amoebot_telemetry::{TraceEvent, TraceReader};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("xtask manifest has no parent directory")?
        .to_path_buf();
    eprintln!("running: cargo build --release --locked --bin scenario-runner");
    let status = std::process::Command::new("cargo")
        .args(["build", "--release", "--locked", "--bin", "scenario-runner"])
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("runner build failed ({status})"));
    }
    let bin = root.join("target/release/scenario-runner");
    let dir = std::env::temp_dir().join(format!("spf-obs-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _dir_guard = RemoveOnDrop(dir.clone());

    let output = std::process::Command::new(&bin)
        .args([
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
        ])
        .arg(&dir)
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let diagnostics = String::from_utf8_lossy(&output.stderr);
    if output.status.code() != Some(1) {
        return Err(format!(
            "obs-smoke: the planted failure should exit 1, got {:?}\n{diagnostics}",
            output.status.code()
        ));
    }
    if !diagnostics.contains("flight record written to") {
        return Err(format!(
            "obs-smoke: no flight-record diagnostic in:\n{diagnostics}"
        ));
    }

    let mut records: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("obs-smoke: flight dir {} missing: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    records.sort();
    let [record] = records.as_slice() else {
        return Err(format!(
            "obs-smoke: expected exactly one flight record, found {records:?}"
        ));
    };
    let name = record
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("obs-smoke: unreadable record file name")?
        .to_string();
    if !name.ends_with(".spft") {
        return Err(format!("obs-smoke: {name} is not a .spft blob"));
    }

    let bytes =
        std::fs::read(record).map_err(|e| format!("cannot read {}: {e}", record.display()))?;
    let mut reader =
        TraceReader::open(&bytes).map_err(|e| format!("obs-smoke: {name} rejected: {e}"))?;
    let key = match reader.next_event() {
        Ok(Some(TraceEvent::FlightKey {
            plan_seed,
            scenario_seed,
            event,
        })) => (plan_seed, scenario_seed, event),
        other => {
            return Err(format!(
                "obs-smoke: {name} must lead with its FlightKey, got {other:?}"
            ))
        }
    };
    let mut events = 0usize;
    loop {
        match reader.next_event() {
            Ok(Some(_)) => events += 1,
            Ok(None) => break,
            Err(e) => return Err(format!("obs-smoke: {name} event {events} rejected: {e}")),
        }
    }
    // The file name is the key: greppable fragments, one per field.
    for fragment in [
        format!("-plan{}", key.0),
        format!("-seed{}", key.1),
        format!("-event{}", key.2),
    ] {
        if !name.contains(&fragment) {
            return Err(format!(
                "obs-smoke: file name {name} lost key fragment {fragment} \
                 (embedded key: plan={} seed={} event={})",
                key.0, key.1, key.2
            ));
        }
    }
    println!(
        "obs-smoke: {name} decodes ({events} events after the key; \
         plan={} seed={} event={})",
        key.0, key.1, key.2
    );
    println!("obs-smoke: PASS");
    Ok(0)
}

/// Names the side(s) of a matched rung pair carrying no metric
/// breakdown, or `None` when both sides have one. Split out so the
/// "which side is silent" diagnostic is unit-testable.
fn missing_breakdown_side(baseline: &Rung, fresh: &Rung) -> Option<&'static str> {
    match (baseline.metrics.is_empty(), fresh.metrics.is_empty()) {
        (true, true) => Some("both"),
        (true, false) => Some("baseline"),
        (false, true) => Some("fresh"),
        (false, false) => None,
    }
}

/// Prints the per-metric breakdown of a matched rung - relabel counts,
/// beep totals and per-phase micros side by side - so a SLOW verdict
/// names the phase that moved. Needs *both* sides to carry metrics
/// (older reports predate the telemetry layer); a one-sided pair used
/// to skip silently, which read as "no metric moved" — now it says
/// which report is the silent one.
fn print_metric_deltas(baseline: &Rung, fresh: &Rung) {
    if let Some(side) = missing_breakdown_side(baseline, fresh) {
        println!("        note: breakdowns missing in {side}; no metric deltas");
        return;
    }
    for (name, new) in &fresh.metrics {
        let Some((_, old)) = baseline.metrics.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *old == 0 && *new == 0 {
            continue;
        }
        let d = delta_pct(*old, *new);
        println!(
            "        {name:<32} {old:>12} -> {new:>12} ({}{d:.1}%)",
            if d >= 0.0 { "+" } else { "" },
        );
    }
}

fn bench_compare(
    baseline_path: &str,
    fresh_path: &str,
    threshold_pct: f64,
    min_wall_micros: u64,
) -> Result<(u8, usize), String> {
    let baseline = load_rungs(baseline_path)?;
    let fresh = load_rungs(fresh_path)?;
    let mut regressions = 0usize;
    let mut failures = 0usize;
    let mut improvements = 0usize;
    for f in &fresh {
        if !f.pass {
            println!(
                "FAIL  {:<24} size={:<8} failed cross-validation in the fresh sweep",
                f.family, f.size
            );
            failures += 1;
            continue;
        }
        match find(&baseline, &f.family, f.size) {
            Some(b) => {
                let d = delta_pct(b.nodes_per_sec, f.nodes_per_sec);
                // Gate only rungs long enough to measure: if both sides
                // finished under the floor, timer jitter dominates the
                // delta. The max means a real slowdown that grows a tiny
                // rung past the floor is still caught.
                let measurable = b.wall_micros.max(f.wall_micros) >= min_wall_micros;
                let status = if !measurable {
                    "tiny"
                } else if d < -threshold_pct {
                    regressions += 1;
                    "SLOW"
                } else if d > threshold_pct {
                    // Never fatal: a win past the threshold just means
                    // the baseline is stale on this rung.
                    improvements += 1;
                    "FAST"
                } else {
                    "ok  "
                };
                println!(
                    "{status}  {:<24} size={:<8} {:>12} -> {:>12} nodes/s ({}{:.1}%, {} µs)",
                    f.family,
                    f.size,
                    b.nodes_per_sec,
                    f.nodes_per_sec,
                    if d >= 0.0 { "+" } else { "" },
                    d,
                    f.wall_micros,
                );
                print_metric_deltas(b, f);
            }
            None => println!(
                "new   {:<24} size={:<8} {:>12} nodes/s (no baseline; not gated)",
                f.family, f.size, f.nodes_per_sec
            ),
        }
    }
    for b in &baseline {
        if find(&fresh, &b.family, b.size).is_none() {
            println!(
                "gone  {:<24} size={:<8} rung missing from the fresh sweep (not gated)",
                b.family, b.size
            );
        }
    }
    if improvements > 0 {
        println!(
            "note: {improvements} rung(s) faster than baseline by more than {threshold_pct}% — \
             consider refreshing the baseline (`cargo xtask bench-refresh`) so future \
             regressions are measured against the new level"
        );
    }
    if failures > 0 || regressions > 0 {
        println!(
            "perf gate: {failures} validation failure(s), {regressions} rung(s) slower than \
             baseline by more than {threshold_pct}%"
        );
        return Ok((1, improvements));
    }
    println!("perf gate: all rungs within {threshold_pct}% of baseline");
    Ok((0, improvements))
}

/// `cargo xtask lint [--write-budget]`: run the spf-lint determinism &
/// safety analyzer over the workspace (see `crates/lint` and DESIGN.md
/// §1f) and ratchet the audit-tier counts against `lint/budget.json`.
///
/// Exit codes: 0 clean, 1 findings or ratchet growth, 2 I/O trouble
/// (via the `Err` path). With `--write-budget` the budget file is
/// rewritten to the current counts — the one-way ratchet's manual
/// release valve, for when a PR deliberately adds or (better) removes
/// panic sites.
fn lint(write_budget: bool) -> Result<u8, String> {
    // spf-lint: allow(wall-clock) — progress reporting for a human-run tool; never in canonical output
    let started = std::time::Instant::now();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("xtask manifest has no parent directory")?
        .to_path_buf();
    let budget_path = root.join(spf_lint::BUDGET_PATH);
    let budget_text = std::fs::read_to_string(&budget_path).ok();
    if budget_text.is_none() && !write_budget {
        eprintln!(
            "note: no {} found; every audit count will read as growth \
             (run `cargo xtask lint --write-budget` to seed it)",
            spf_lint::BUDGET_PATH
        );
    }
    let (report, ratchet) = spf_lint::lint_workspace(&root, budget_text.as_deref())?;

    for d in &report.diagnostics {
        println!("{d}");
    }
    let mut ratchet_failed = false;
    for line in &ratchet {
        use spf_lint::budget::RatchetLine::*;
        match line {
            Over(rule, bucket, budgeted, actual) => {
                ratchet_failed = true;
                println!(
                    "OVER  [{rule}] {bucket}: {actual} sites (budget {budgeted}) — handle the \
                     error, pragma it with a reason, or re-budget deliberately \
                     (`cargo xtask lint --write-budget`)"
                );
            }
            Unbudgeted(rule, bucket, actual) => {
                ratchet_failed = true;
                println!(
                    "OVER  [{rule}] {bucket}: {actual} sites but no budget entry \
                     (`cargo xtask lint --write-budget` to admit them)"
                );
            }
            Under(rule, bucket, budgeted, actual) => {
                println!(
                    "note: [{rule}] {bucket}: {actual} sites, budget {budgeted} — tighten \
                     with `cargo xtask lint --write-budget`"
                );
            }
            Exact(..) => {}
        }
    }
    for (path, line, rule) in &report.unused_pragmas {
        println!("note: unused pragma allow({rule}) at {path}:{line} — remove it?");
    }
    let pragma_summary: Vec<String> = report
        .pragmas
        .iter()
        .map(|(rule, n)| format!("{rule} x{n}"))
        .collect();
    let verdict_failed = !report.deny_clean() || ratchet_failed;
    println!(
        "lint: {} — {} files, {} finding(s), {} pragma(s){}{} in {} ms",
        if verdict_failed { "FAILED" } else { "clean" },
        report.files,
        report.diagnostics.len(),
        report.pragmas.values().sum::<u64>(),
        if pragma_summary.is_empty() {
            String::new()
        } else {
            format!(" ({})", pragma_summary.join(", "))
        },
        if ratchet_failed {
            ", audit budget exceeded"
        } else {
            ""
        },
        started.elapsed().as_millis(),
    );
    if write_budget {
        let budget = spf_lint::budget_from_counts(&report);
        std::fs::create_dir_all(budget_path.parent().expect("budget path has a parent"))
            .map_err(|e| format!("cannot create lint/: {e}"))?;
        std::fs::write(&budget_path, budget.render())
            .map_err(|e| format!("cannot write {}: {e}", budget_path.display()))?;
        println!("wrote {}", budget_path.display());
    }
    Ok(u8::from(verdict_failed))
}

const USAGE: &str = "usage: cargo xtask bench-report OLD.json NEW.json\n\
     \x20      cargo xtask bench-compare BASELINE.json FRESH.json \
     [--threshold PCT] [--min-wall-micros N]\n\
     \x20      cargo xtask bench-refresh\n\
     \x20      cargo xtask server-smoke\n\
     \x20      cargo xtask adversary-smoke\n\
     \x20      cargo xtask obs-smoke\n\
     \x20      cargo xtask lint [--write-budget]";

fn run(argv: &[String]) -> Result<u8, String> {
    match argv.first().map(String::as_str) {
        Some("lint") => match &argv[1..] {
            [] => lint(false),
            [flag] if flag == "--write-budget" => lint(true),
            _ => Err(USAGE.to_string()),
        },
        Some("bench-report") => {
            let [old, new] = &argv[1..] else {
                return Err(USAGE.to_string());
            };
            bench_report(old, new)?;
            Ok(0)
        }
        Some("bench-refresh") => {
            if argv.len() != 1 {
                return Err(USAGE.to_string());
            }
            bench_refresh()
        }
        Some("server-smoke") => {
            if argv.len() != 1 {
                return Err(USAGE.to_string());
            }
            server_smoke()
        }
        Some("adversary-smoke") => {
            if argv.len() != 1 {
                return Err(USAGE.to_string());
            }
            adversary_smoke()
        }
        Some("obs-smoke") => {
            if argv.len() != 1 {
                return Err(USAGE.to_string());
            }
            obs_smoke()
        }
        Some("bench-compare") => {
            let [b, f, rest @ ..] = &argv[1..] else {
                return Err(USAGE.to_string());
            };
            let mut threshold = 25.0;
            let mut min_wall = 20_000u64;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let value = it.next().ok_or_else(|| USAGE.to_string())?;
                match flag.as_str() {
                    "--threshold" => {
                        threshold = value
                            .parse()
                            .map_err(|e| format!("bad --threshold {value:?}: {e}"))?;
                    }
                    "--min-wall-micros" => {
                        min_wall = value
                            .parse()
                            .map_err(|e| format!("bad --min-wall-micros {value:?}: {e}"))?;
                    }
                    _ => return Err(USAGE.to_string()),
                }
            }
            bench_compare(b, f, threshold, min_wall).map(|(code, _)| code)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal sweep report with one rung at the given throughput.
    fn report(nps: u64, pass: bool) -> String {
        report_with_wall(nps, 1_000_000, pass)
    }

    fn report_with_wall(nps: u64, wall: u64, pass: bool) -> String {
        format!(
            r#"{{"schema": "spf-sweep-report/v1", "master_seed": 1, "max_nodes": 1000,
                "count": 1, "threads": 1,
                "entries": [{{"family": "blob-broadcast", "size": 1000, "name": "x",
                              "seed": 1, "n": 1000, "k": 1, "l": 0, "rounds": 8, "beeps": 8,
                              "wall_micros": {wall}, "nodes_per_sec": {nps}, "pass": {pass}}}],
                "summary": {{"passed": 1, "failed": 0, "total_rounds": 8, "total_beeps": 8,
                             "total_wall_micros": {wall}}}}}"#
        )
    }

    fn write(dir: &std::path::Path, name: &str, text: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xtask-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_on_2x_slowdown() {
        let dir = tmpdir("gate");
        let base = write(&dir, "base.json", &report(1_000_000, true));
        let same = write(&dir, "same.json", &report(900_000, true));
        let slow = write(&dir, "slow.json", &report(500_000, true));
        // 10% under baseline: within the 25% threshold.
        assert_eq!(bench_compare(&base, &same, 25.0, 20_000).unwrap().0, 0);
        // A 2x slowdown must trip the gate.
        assert_eq!(bench_compare(&base, &slow, 25.0, 20_000).unwrap().0, 1);
        // ...unless the operator widens the threshold past it.
        assert_eq!(bench_compare(&base, &slow, 60.0, 20_000).unwrap().0, 0);
    }

    /// Improvements past the threshold are reported (so wins are visible
    /// in the CI log and prompt a baseline refresh) but never fatal.
    #[test]
    fn improvements_are_noted_but_never_fail_the_gate() {
        let dir = tmpdir("fast");
        let base = write(&dir, "base.json", &report(1_000_000, true));
        let fast = write(&dir, "fast.json", &report(3_000_000, true));
        let (code, improvements) = bench_compare(&base, &fast, 25.0, 20_000).unwrap();
        assert_eq!(code, 0, "a speedup must not trip the gate");
        assert_eq!(improvements, 1, "the 3x win must be counted");
        // Within-threshold deltas are not "improvements".
        let same = write(&dir, "same.json", &report(1_100_000, true));
        assert_eq!(bench_compare(&base, &same, 25.0, 20_000).unwrap(), (0, 0));
        // Tiny rungs never count as improvements either (jitter).
        let tiny_base = write(&dir, "tb.json", &report_with_wall(1_000_000, 1_000, true));
        let tiny_fast = write(&dir, "tf.json", &report_with_wall(3_000_000, 1_000, true));
        assert_eq!(
            bench_compare(&tiny_base, &tiny_fast, 25.0, 20_000).unwrap(),
            (0, 0)
        );
    }

    #[test]
    fn tiny_rungs_are_not_gated_unless_they_grow_past_the_floor() {
        let dir = tmpdir("floor");
        // 1 ms rungs: under a 20 ms floor on both sides, so a 2x delta is
        // jitter, not a regression...
        let base = write(&dir, "base.json", &report_with_wall(1_000_000, 1_000, true));
        let slow = write(&dir, "slow.json", &report_with_wall(500_000, 1_000, true));
        assert_eq!(bench_compare(&base, &slow, 25.0, 20_000).unwrap().0, 0);
        // ...but a slowdown that pushes the fresh rung past the floor is
        // real work and is gated again.
        let grown = write(
            &dir,
            "grown.json",
            &report_with_wall(500_000, 1_000_000, true),
        );
        assert_eq!(bench_compare(&base, &grown, 25.0, 20_000).unwrap().0, 1);
        // And a floor of zero gates everything.
        assert_eq!(bench_compare(&base, &slow, 25.0, 0).unwrap().0, 1);
    }

    /// Rungs written by the telemetry-aware sweep carry a metrics
    /// breakdown; the loader flattens counters and timer sums, and
    /// pre-telemetry reports simply load with no metrics.
    #[test]
    fn metric_breakdowns_are_flattened_when_present() {
        let dir = tmpdir("metrics");
        let with_metrics = report(1_000_000, true).replace(
            r#""pass": true}"#,
            r#""metrics": {"counters": {"relabel_global": 3, "relabel_region": 40},
                           "timers": {"phase_propagate_micros":
                                      {"count": 8, "sum": 1234, "min": 100, "max": 300,
                                       "p50": 150, "p90": 280, "p99": 300}}},
               "pass": true}"#,
        );
        let path = write(&dir, "with.json", &with_metrics);
        let rungs = load_rungs(&path).unwrap();
        assert_eq!(
            rungs[0].metrics,
            vec![
                ("phase_propagate_micros".to_string(), 1234),
                ("phase_propagate_micros_p50".to_string(), 150),
                ("phase_propagate_micros_p90".to_string(), 280),
                ("phase_propagate_micros_p99".to_string(), 300),
                ("relabel_global".to_string(), 3),
                ("relabel_region".to_string(), 40),
            ]
        );
        // Percentile fields are optional: pre-percentile timer objects
        // still flatten to their sums alone.
        let sum_only = report(1_000_000, true).replace(
            r#""pass": true}"#,
            r#""metrics": {"counters": {},
                           "timers": {"phase_propagate_micros":
                                      {"count": 8, "sum": 1234, "min": 100, "max": 300}}},
               "pass": true}"#,
        );
        let sum_only = write(&dir, "sum_only.json", &sum_only);
        assert_eq!(
            load_rungs(&sum_only).unwrap()[0].metrics,
            vec![("phase_propagate_micros".to_string(), 1234)]
        );
        // Pre-telemetry reports load fine with no metrics.
        let bare = write(&dir, "bare.json", &report(1_000_000, true));
        assert!(load_rungs(&bare).unwrap()[0].metrics.is_empty());
        // And the gate still runs over the mixed pair.
        assert_eq!(bench_compare(&bare, &path, 25.0, 20_000).unwrap().0, 0);
    }

    /// A one-sided metrics breakdown must name the silent report, not
    /// skip quietly — "no metric deltas printed" used to be ambiguous
    /// between "nothing moved" and "one report predates telemetry".
    #[test]
    fn missing_breakdown_diagnostic_names_the_silent_side() {
        let bare = Rung {
            family: "blob-broadcast".into(),
            size: 1000,
            name: "blob-broadcast/n1000".into(),
            rounds: 8,
            nodes_per_sec: 1_000_000,
            wall_micros: 1_000_000,
            pass: true,
            metrics: Vec::new(),
        };
        let mut rich = bare.clone();
        rich.metrics = vec![("relabel_global".to_string(), 3)];
        assert_eq!(missing_breakdown_side(&bare, &bare), Some("both"));
        assert_eq!(missing_breakdown_side(&bare, &rich), Some("baseline"));
        assert_eq!(missing_breakdown_side(&rich, &bare), Some("fresh"));
        assert_eq!(missing_breakdown_side(&rich, &rich), None);
    }

    #[test]
    fn gate_fails_on_fresh_validation_failure() {
        let dir = tmpdir("fail");
        let base = write(&dir, "base.json", &report(1_000_000, true));
        let bad = write(&dir, "bad.json", &report(1_000_000, false));
        assert_eq!(bench_compare(&base, &bad, 25.0, 20_000).unwrap().0, 1);
    }

    #[test]
    fn unmatched_rungs_do_not_trip_the_gate() {
        let dir = tmpdir("unmatched");
        let base = write(&dir, "base.json", &report(1_000_000, true));
        let empty = report(1_000_000, true).replace(
            r#""entries": [{"#,
            r#""entries": [{"family": "other", "size": 5, "name": "y", "seed": 1, "n": 5,
                "k": 1, "l": 0, "rounds": 1, "beeps": 1, "wall_micros": 10,
                "nodes_per_sec": 500000, "pass": true}, {"#,
        );
        let grown = write(&dir, "grown.json", &empty);
        assert_eq!(bench_compare(&base, &grown, 25.0, 20_000).unwrap().0, 0);
    }

    /// The refresh invocation must stay in lockstep with the CI perf
    /// job's sweep flags (threads pinned, canonical seed, 10k ladder,
    /// written straight to the committed baseline path).
    #[test]
    fn refresh_invocation_matches_the_canonical_sweep() {
        let args = refresh_invocation("target/bench-refresh/sweep-1.json").join(" ");
        assert!(args.starts_with("run --release --locked --bin scenario-runner -- sweep "));
        assert!(args.contains("--max-nodes 10000"));
        assert!(args.contains("--threads 1"));
        assert!(args.contains("--seed 42"));
        assert!(args.ends_with("--out target/bench-refresh/sweep-1.json"));
    }

    /// A sweep report of rungs `(name, rounds, wall_micros, pass)`.
    fn sweep_doc(rungs: &[(&str, u64, u64, bool)]) -> Json {
        let entries: Vec<Json> = rungs
            .iter()
            .map(|&(name, rounds, wall, pass)| {
                Json::object()
                    .field("family", name)
                    .field("size", 1000u64)
                    .field("name", name)
                    .field("rounds", rounds)
                    .field("beeps", 2 * rounds)
                    .field("wall_micros", wall)
                    .field("nodes_per_sec", 1_000_000_000 / wall)
                    .field("pass", pass)
            })
            .collect();
        let total: u64 = rungs.iter().map(|r| r.2).sum();
        Json::object()
            .field("schema", SWEEP_SCHEMA)
            .field("entries", entries)
            .field(
                "summary",
                Json::object()
                    .field("passed", rungs.len())
                    .field("total_wall_micros", total),
            )
    }

    /// Each rung keeps the run with its median wall time, whole: its
    /// throughput comes from the same run, and the summary's total wall
    /// time is the chosen entries' sum.
    #[test]
    fn refresh_keeps_each_rungs_median_run() {
        let runs = [
            sweep_doc(&[("a", 8, 300, true), ("b", 9, 10, true)]),
            sweep_doc(&[("a", 8, 100, true), ("b", 9, 30, true)]),
            sweep_doc(&[("a", 8, 200, true), ("b", 9, 20, true)]),
        ];
        let doc = median_report(&runs).unwrap();
        let rungs = rungs_from_doc(&doc, "merged").unwrap();
        let walls: Vec<(u64, u64)> = rungs
            .iter()
            .map(|r| (r.wall_micros, r.nodes_per_sec))
            .collect();
        assert_eq!(walls, [(200, 5_000_000), (20, 50_000_000)]);
        let total = doc
            .get("summary")
            .and_then(|s| s.get("total_wall_micros"))
            .and_then(Json::as_u64);
        assert_eq!(total, Some(220));
    }

    /// Rounds, beeps and check verdicts are deterministic: runs that
    /// disagree on any of them, or on the rung list, fail the refresh.
    #[test]
    fn refresh_rejects_runs_that_disagree() {
        let base = sweep_doc(&[("a", 8, 100, true), ("b", 9, 10, true)]);
        for other in [
            sweep_doc(&[("a", 7, 100, true), ("b", 9, 10, true)]),
            sweep_doc(&[("a", 8, 100, true), ("b", 9, 10, false)]),
            sweep_doc(&[("a", 8, 100, true)]),
            sweep_doc(&[("a", 8, 100, true), ("b", 9, 10, true), ("c", 1, 1, true)]),
            sweep_doc(&[("b", 9, 10, true), ("a", 8, 100, true)]),
        ] {
            let err = median_report(&[base.clone(), other, base.clone()]).unwrap_err();
            assert!(err.contains("run"), "{err}");
        }
        let mut beeps = sweep_doc(&[("a", 8, 100, true), ("b", 9, 10, true)]);
        if let Json::Object(fields) = &mut beeps {
            let entries = &mut fields.iter_mut().find(|(k, _)| k == "entries").unwrap().1;
            if let Json::Array(items) = entries {
                replace_field(&mut items[1], "beeps", Json::U64(1));
            }
        }
        let err = median_report(&[base.clone(), base, beeps]).unwrap_err();
        assert!(err.contains("`beeps` differs"), "{err}");
    }

    /// A refresh appends one line holding every rung's name, rounds and
    /// nodes/sec, and leaves the earlier lines as they were.
    #[test]
    fn trajectory_lines_append_one_per_refresh() {
        let dir = tmpdir("trajectory");
        let path = dir.join("trajectory.jsonl");
        let _ = std::fs::remove_file(&path);
        let first = rungs_from_doc(&Json::parse(&report(1_000, true)).unwrap(), "a").unwrap();
        let second = rungs_from_doc(&Json::parse(&report(2_000, true)).unwrap(), "b").unwrap();
        append_trajectory(&path, &trajectory_line(&first)).unwrap();
        let after_first = std::fs::read_to_string(&path).unwrap();
        append_trajectory(&path, &trajectory_line(&second)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with(&after_first),
            "a refresh must not rewrite history"
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"schema":"spf-bench-trajectory/v1","rungs":[{"name":"x","rounds":8,"nodes_per_sec":1000}]}"#
        );
        for (line, nps) in lines.iter().zip([1_000u64, 2_000]) {
            let doc = Json::parse(line).unwrap();
            assert_eq!(
                doc.get("schema").and_then(Json::as_str),
                Some(TRAJECTORY_SCHEMA)
            );
            let rungs = doc.get("rungs").and_then(Json::as_array).unwrap();
            assert_eq!(rungs.len(), 1);
            assert_eq!(rungs[0].get("name").and_then(Json::as_str), Some("x"));
            assert_eq!(rungs[0].get("rounds").and_then(Json::as_u64), Some(8));
            assert_eq!(
                rungs[0].get("nodes_per_sec").and_then(Json::as_u64),
                Some(nps)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_refresh_rejects_extra_arguments() {
        assert!(run(&["bench-refresh".into(), "x".into()]).is_err());
    }

    #[test]
    fn canonical_reports_are_rejected_with_a_hint() {
        let dir = tmpdir("canon");
        let canon = report(1, true)
            .replace(r#""wall_micros": 1000000, "nodes_per_sec": 1, "#, "")
            .replace(r#""total_wall_micros": 1000000"#, r#""total_rounds2": 0"#);
        let path = write(&dir, "canon.json", &canon);
        let err = load_rungs(&path).unwrap_err();
        assert!(err.contains("no-timing"), "hint missing from: {err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let dir = tmpdir("schema");
        let path = write(
            &dir,
            "batch.json",
            r#"{"schema": "spf-scenario-report/v1"}"#,
        );
        assert!(load_rungs(&path).unwrap_err().contains("`sweep` report"));
    }

    #[test]
    fn usage_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&["bench-report".into()]).is_err());
        assert!(run(&["bench-compare".into(), "a".into()]).is_err());
        assert!(run(&["adversary-smoke".into(), "x".into()]).is_err());
    }

    /// The smoke gate's family list must track the registry: a renamed
    /// or dropped adversary family should fail here, not at CI runtime.
    #[test]
    fn adversary_smoke_families_are_registered() {
        let registry = amoebot_scenarios::default_registry();
        for name in ADVERSARY_FAMILIES {
            let family = registry.get(name);
            assert!(family.is_some(), "{name} missing from the registry");
            assert!(family.unwrap().sweepable(), "{name} must be sweepable");
        }
        assert!(registry.get("adversary-selftest-fail").is_some());
    }
}
