//! `scenario-server` — the batch engine as a persistent, session-oriented
//! service (DESIGN.md §1g).
//!
//! A **session** is a named [`Driver`] held open across requests: a
//! client creates it once, then steps, mutates, faults, queries and
//! snapshots it incrementally — the interactive counterpart to the
//! one-shot `scenario-runner` batch, which drives the same driver to
//! completion. The session families are the driver families
//! ([`Kind::ALL`]: `blob-broadcast`, `blob-churn-broadcast` and the four
//! `fault-*` families), so a session put through the operations a batch
//! run performs reports the batch's rounds, beeps and circuits.
//!
//! # Wire protocol
//!
//! Length-prefixed JSON frames over TCP or stdio: each frame is a `u32`
//! little-endian payload length followed by that many bytes of JSON
//! (capped at [`MAX_FRAME`]). Requests are objects with an `"op"` field:
//!
//! ```text
//! {"op":"create","session":S,"family":F,"size":N,"seed":N[,"events":N,"per_event":N]}
//! {"op":"step","session":S[,"n":K]}         run K rounds (default 1)
//! {"op":"mutate","session":S[,"verify":B]}  apply the next churn event
//! {"op":"fault","session":S[,"verify":B]}   stage the next fault event + 1 faulted round
//! {"op":"query","session":S[,"timing":B]}   spf-session-report/v1 envelope
//! {"op":"stats","session":S}                spf-session-stats/v2 metrics envelope
//! {"op":"watch","session":S[,"frames":N]}   stream N stats frames (default 1)
//! {"op":"snapshot","session":S}             write <dir>/<S>.session.spfs
//! {"op":"restore","session":S}              load <dir>/<S>.session.spfs
//! {"op":"close","session":S}                drop the session
//! {"op":"shutdown"}                         snapshot all live sessions, stop
//! ```
//!
//! A `create` whose `size` or `per_event` exceeds
//! [`MAX_SIZE`](crate::driver::MAX_SIZE) (1 000 000, the largest sweep
//! rung) gets an error reply and creates nothing, and a session file
//! that holds such a value does not restore.
//!
//! Control responses are `{"ok":true,...}` / `{"ok":false,"error":...}`;
//! `query` responses use the shared [`Envelope`] (schema
//! [`SESSION_SCHEMA`]) and are canonical without `"timing":true`, like
//! every other report in the workspace.
//!
//! # Observability
//!
//! Every session keeps deterministic **request counters** (total plus a
//! per-op-kind breakdown; no wall-clock anywhere), surfaced by `query`
//! and persisted through snapshot/restore. The `stats` op renders the
//! canonical per-session metrics envelope ([`STATS_SCHEMA`]): rounds,
//! beeps, relabel counters and the request counters — byte-identical
//! regardless of shard count. `watch` turns a connection into a live
//! feed: after the ack, the server pushes one `stats` frame per
//! completed `step`/`mutate`/`fault` batch on the watched session
//! (wherever that batch came from) until the requested frame count is
//! served, then the connection resumes normal requests. Like
//! `shutdown`, `watch` is connection-level: it needs a framed stream to
//! push into, so [`ServerHandle::request`] rejects it.
//!
//! # Concurrency
//!
//! Sessions shard over a fixed worker pool by FNV of the session name;
//! each worker owns its shard's sessions outright (no locks around world
//! state) and drains a channel, so requests to *different* sessions
//! batch across workers while requests to the *same* session serialize
//! naturally. Per-session determinism follows: a session's state depends
//! only on the sequence of requests it received, never on interleaving.
//!
//! # Graceful restart
//!
//! On `shutdown` (or EOF in stdio mode) every live session is snapshotted
//! to the `--snapshot-dir` as a `SESSION`-kind `SPFS` blob. A server
//! started over the same directory finds and resumes them — `create` a
//! session, step it, kill the server, restart, and `query` picks up
//! where it left off, with its `relabel_*` counters restarted from zero
//! ([`Session::without_relabels`]). (Signal handlers need libc; the
//! container builds without it, so SIGTERM-initiated snapshots ride on
//! the wire-level `shutdown` op / EOF instead.)

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use amoebot_telemetry::wire::{self, SnapshotReader, SnapshotWriter, WireError};
use amoebot_telemetry::NullRecorder;

use crate::batch::Threads;
use crate::driver::{Applied, Driver, Event, Kind};
use crate::json::Json;
use crate::report::Envelope;

/// Schema identifier of `query` responses.
pub const SESSION_SCHEMA: &str = "spf-session-report/v1";

/// Schema identifier of `stats` responses and `watch` frames.
pub const STATS_SCHEMA: &str = "spf-session-stats/v2";

/// Session-op labels, in render order; indexes into `Session::ops`.
/// Counted on arrival (before execution), so errored requests count too:
/// the counters measure load, not success.
const OP_KINDS: [&str; 8] = [
    "create", "fault", "mutate", "query", "snapshot", "stats", "step", "watch",
];

/// Hard cap on a single wire frame (requests *and* responses).
pub const MAX_FRAME: usize = 1 << 24;

// ---- Frame codec.

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame over MAX_FRAME");
    // One write per frame: splitting the length prefix into its own
    // write stalls raw TCP streams on Nagle + delayed-ACK interplay.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Bytes [`read_frame`] reserves before a frame's payload arrives; past
/// them the buffer grows with what is actually received.
const FRAME_RESERVE: usize = 64 << 10;

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary; EOF
/// mid-frame and oversized lengths are errors. Allocates for the bytes
/// received, not for the length the header claims.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut buf = Vec::with_capacity(len.min(FRAME_RESERVE));
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame ends after {} of {len} bytes", buf.len()),
        ));
    }
    Ok(Some(buf))
}

// ---- Sessions.

/// A live named workload: the unit the server shards, steps and
/// snapshots. A session is a [`Driver`] held open between requests, so
/// it reports what a batch run of the same family, size, seed and
/// schedule reports after the same operations.
pub struct Session {
    name: String,
    /// Per-kind request counters (see [`OP_KINDS`]): deterministic
    /// uptime accounting, persisted through snapshot/restore.
    ops: [u64; OP_KINDS.len()],
    driver: Driver,
}

/// Session names double as snapshot file stems, so they are restricted
/// to a filesystem- and shard-stable charset.
fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        && !name.starts_with('.')
}

/// The reply to a `mutate` or `fault` request: the event index, what the
/// event did, the live size, and the oracle verdict when asked for.
fn event_json(ev: &Event, n: usize) -> Json {
    let mut doc = ok_json().field("event", ev.index);
    doc = match &ev.applied {
        Applied::Churn { edits, holes_ok } => doc
            .field("inserted", edits.inserted.len())
            .field("removed", edits.removed.len())
            .field("n", n)
            .field("holes_ok", *holes_ok),
        Applied::Fault(staged) => doc
            .field("dropped", staged.ticks.drop.len())
            .field("injected", staged.ticks.inject.len())
            .field("starved", staged.inactive.len())
            .field("wiped", staged.wiped.len())
            .field("stuck_armed", staged.stuck_armed as usize)
            .field("stuck_released", staged.stuck_released as usize)
            .field("n", n),
    };
    match &ev.oracle {
        Some(verdict) => doc.field("oracle_ok", verdict.is_ok()),
        None => doc,
    }
}

impl Session {
    /// Builds a fresh session of one of the driver families
    /// ([`Kind::ALL`]); `events` and `per_event` size its schedule.
    pub fn create(
        name: &str,
        family: &str,
        size: usize,
        seed: u64,
        events: usize,
        per_event: usize,
    ) -> Result<Session, String> {
        if !valid_session_name(name) {
            return Err(format!(
                "invalid session name {name:?} (1-64 chars of [A-Za-z0-9._-], no leading dot)"
            ));
        }
        let kind = Kind::from_family(family).ok_or_else(|| {
            let known: Vec<&str> = Kind::ALL.iter().map(|k| k.family()).collect();
            format!(
                "unknown session family {family:?} (expected one of {})",
                known.join(", ")
            )
        })?;
        let mut session = Session {
            name: name.to_string(),
            ops: [0; OP_KINDS.len()],
            driver: Driver::new(kind, size, seed, events, per_event)?,
        };
        // A session is born having served its `create`.
        session.count_op("create");
        Ok(session)
    }

    /// Bumps the request counter for `op` (unknown kinds are ignored).
    fn count_op(&mut self, op: &str) {
        if let Some(i) = OP_KINDS.iter().position(|k| *k == op) {
            self.ops[i] += 1;
        }
    }

    /// Total requests this session has served across its whole life,
    /// snapshots included.
    fn uptime_requests(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// The non-zero per-kind counters as a JSON object, in the fixed
    /// [`OP_KINDS`] order.
    fn ops_json(&self) -> Json {
        let mut doc = Json::object();
        for (kind, &count) in OP_KINDS.iter().zip(&self.ops) {
            if count > 0 {
                doc = doc.field(kind, count);
            }
        }
        doc
    }

    /// Runs `k` rounds ([`Driver::step`]) and returns the world's
    /// cumulative `(rounds, beeps)`.
    pub fn step(&mut self, k: usize) -> Result<(u64, u64), String> {
        for _ in 0..k {
            self.driver.step(&mut NullRecorder);
        }
        let world = self.driver.world();
        Ok((world.rounds(), world.beeps_sent()))
    }

    /// Applies the next event of a churn session's schedule.
    pub fn mutate(&mut self, verify: bool) -> Result<Json, String> {
        self.event(self.driver.kind() == Kind::Churn, "churn plan", verify)
    }

    /// Applies the next event of a fault session's schedule: the staged
    /// faults and one faulted round of its broadcast.
    pub fn fault(&mut self, verify: bool) -> Result<Json, String> {
        self.event(self.driver.kind().is_fault(), "fault plan", verify)
    }

    /// The next schedule event, if the session has the `plan` the op
    /// needs.
    fn event(&mut self, has_plan: bool, plan: &str, verify: bool) -> Result<Json, String> {
        if !has_plan {
            let family = self.driver.kind().family();
            return Err(format!("session has no {plan} (created as {family})"));
        }
        let ev = self.driver.event(verify, &mut NullRecorder)?;
        Ok(event_json(&ev, self.driver.live()))
    }

    /// The fields `query` and `stats` open with: identity, size and the
    /// engine's progress.
    fn head(&mut self) -> Vec<(&'static str, Json)> {
        let d = &mut self.driver;
        let circuits = d.world_mut().circuit_count();
        vec![
            ("session", self.name.as_str().into()),
            ("family", d.kind().family().into()),
            ("size", d.size().into()),
            ("seed", d.seed().into()),
            ("n", d.live().into()),
            ("steps", d.steps().into()),
            ("rounds", d.world().rounds().into()),
            ("beeps", d.world().beeps_sent().into()),
            ("circuits", circuits.into()),
        ]
    }

    /// The session report envelope. Canonical without `timing` — rounds,
    /// beeps, circuit count, schedule cursor and engine counters only.
    pub fn query(&mut self, timing: bool) -> Json {
        let mut env = Envelope::new(SESSION_SCHEMA, timing);
        for (key, value) in self.head() {
            env = env.field(key, value);
        }
        let d = &self.driver;
        let label = d.schedule_label().unwrap_or_default();
        if d.kind() == Kind::Churn {
            env = env
                .field("churn_family", label)
                .field("next_event", d.next_event())
                .field("events", d.events());
        } else if d.kind().is_fault() {
            env = env
                .field("fault_family", label)
                .field("next_fault", d.next_event())
                .field("fault_events", d.events())
                .field("stuck_pins", d.world().stuck_pin_count())
                .field("informed", d.live() - d.uninformed());
        }
        env = env
            .field("uptime_requests", self.uptime_requests())
            .field("ops_by_kind", self.ops_json());
        env.metrics(self.driver.world().metrics()).finish()
    }

    /// A [`Session::query`] body without its `relabel_*` counters: what
    /// a restore keeps. A restored world derives its circuit labels
    /// afresh and counts its relabels from zero (DESIGN.md §1g), so a
    /// resumed session's query equals its uninterrupted twin's only up
    /// to those counters.
    pub fn without_relabels(doc: &Json) -> Json {
        match doc {
            Json::Object(fields) => Json::Object(
                fields
                    .iter()
                    .filter(|(key, _)| !key.starts_with("relabel_"))
                    .map(|(key, value)| (key.clone(), Session::without_relabels(value)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// The canonical per-session metrics envelope ([`STATS_SCHEMA`]):
    /// rounds, beeps, relabel counters and the request counters.
    /// Deliberately wall-clock-free and insertion-ordered, so the
    /// rendering is byte-identical for the same request history
    /// regardless of shard count — the `watch` frame format.
    pub fn stats(&mut self) -> Json {
        let mut doc = Json::object().field("schema", STATS_SCHEMA);
        for (key, value) in self.head() {
            doc = doc.field(key, value);
        }
        let m = self.driver.world().metrics();
        let mut relabels = Json::object();
        for (cname, v) in m.counters_sorted() {
            if cname.starts_with("relabel_") {
                relabels = relabels.field(cname, v);
            }
        }
        doc.field("relabels", relabels)
            .field("uptime_requests", self.uptime_requests())
            .field("ops_by_kind", self.ops_json())
    }

    /// The session as a sealed `SPFS` blob (kind `SESSION`): its name,
    /// its request counters and the driver ([`Driver::encode`]).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(wire::kind::SESSION);
        w.str(&self.name);
        w.varint(OP_KINDS.len() as u64);
        for &count in &self.ops {
            w.varint(count);
        }
        self.driver.encode(&mut w);
        w.finish()
    }

    /// Restores a session from [`Session::snapshot_bytes`] output.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Session, WireError> {
        let mut r = SnapshotReader::open(bytes, wire::kind::SESSION)?;
        let name_offset = r.offset();
        let name = r.str("session name")?;
        if !valid_session_name(&name) {
            return Err(WireError::BadValue {
                what: "session name",
                offset: name_offset,
            });
        }
        let arity_offset = r.offset();
        if r.varint()? as usize != OP_KINDS.len() {
            return Err(WireError::BadValue {
                what: "op-counter arity",
                offset: arity_offset,
            });
        }
        let mut ops = [0u64; OP_KINDS.len()];
        for slot in ops.iter_mut() {
            *slot = r.varint()?;
        }
        let driver = Driver::decode(&mut r)?;
        r.finish()?;
        Ok(Session { name, ops, driver })
    }

    /// The session's snapshot file under `dir`.
    fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.session.spfs"))
    }

    /// Reads session `name` from its snapshot file under `dir`. A file
    /// that holds another session is refused, like a corrupt one.
    fn load(dir: &Path, name: &str) -> Result<Session, String> {
        let path = Session::snapshot_path(dir, name);
        let at = path.display();
        let bytes = std::fs::read(&path).map_err(|e| format!("{at}: {e}"))?;
        let session = Session::from_snapshot_bytes(&bytes).map_err(|e| format!("{at}: {e}"))?;
        if session.name != name {
            return Err(format!("{at}: belongs to session {:?}", session.name));
        }
        Ok(session)
    }
}

// ---- The worker pool.

enum Job {
    Request {
        doc: Json,
        reply: mpsc::SyncSender<Json>,
    },
    /// Register a live-stats watcher on a session: every completed
    /// `step`/`mutate`/`fault` on it afterwards pushes one rendered
    /// stats frame into `sink`. Unregistration is lazy — a dropped
    /// receiver makes the next push fail, which unhooks the watcher.
    Watch {
        session: String,
        sink: mpsc::Sender<String>,
        reply: mpsc::SyncSender<Json>,
    },
    Install {
        session: Box<Session>,
        done: mpsc::SyncSender<()>,
    },
    /// Snapshot every live session to the snapshot dir (sessions stay
    /// live). Replies with the number written.
    SnapshotAll {
        done: mpsc::SyncSender<Result<usize, String>>,
    },
    /// Drain and stop. Sent by [`Server::shutdown`]; an explicit job
    /// rather than sender-drop detection, because outstanding
    /// [`ServerHandle`] clones (other connection threads) would
    /// otherwise keep a worker alive forever.
    Exit,
}

fn err_json(msg: impl Into<String>) -> Json {
    Json::object().field("ok", false).field("error", msg.into())
}

fn ok_json() -> Json {
    Json::object().field("ok", true)
}

/// Handles one request against a shard's session map. Pure with respect
/// to I/O except `snapshot`/`restore`, which touch the snapshot dir.
fn handle_request(
    sessions: &mut BTreeMap<String, Session>,
    snapshot_dir: Option<&Path>,
    doc: &Json,
) -> Json {
    let op = match doc.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return err_json("request has no \"op\" field"),
    };
    let name = match doc.get("session").and_then(Json::as_str) {
        Some(name) => name,
        None => return err_json(format!("op {op:?} needs a \"session\" field")),
    };
    let num = |key: &str, default: u64| doc.get(key).and_then(Json::as_u64).unwrap_or(default);
    match op {
        "create" => {
            if sessions.contains_key(name) {
                return err_json(format!("session {name:?} already exists"));
            }
            let family = doc
                .get("family")
                .and_then(Json::as_str)
                .unwrap_or("blob-broadcast");
            let session = Session::create(
                name,
                family,
                num("size", 100) as usize,
                num("seed", 42),
                num("events", 10) as usize,
                num("per_event", 4) as usize,
            );
            match session {
                Ok(s) => {
                    let n = s.driver.live();
                    sessions.insert(name.to_string(), s);
                    ok_json().field("session", name).field("n", n)
                }
                Err(e) => err_json(e),
            }
        }
        "step" | "mutate" | "fault" | "query" | "stats" => {
            let Some(s) = sessions.get_mut(name) else {
                return err_json(format!("no such session {name:?}"));
            };
            s.count_op(op);
            let flag = |key: &str| doc.get(key).and_then(Json::as_bool).unwrap_or(false);
            match op {
                "step" => match s.step(num("n", 1) as usize) {
                    Ok((rounds, beeps)) => ok_json().field("rounds", rounds).field("beeps", beeps),
                    Err(e) => err_json(e),
                },
                "mutate" => s.mutate(flag("verify")).unwrap_or_else(err_json),
                "fault" => s.fault(flag("verify")).unwrap_or_else(err_json),
                "query" => s.query(flag("timing")),
                _ => s.stats(),
            }
        }
        "watch" => err_json(
            "op \"watch\" is connection-level (it streams frames); \
             send it over a framed connection",
        ),
        "snapshot" => match sessions.get_mut(name) {
            Some(s) => {
                let dir = match snapshot_dir {
                    Some(dir) => dir,
                    None => return err_json("server has no --snapshot-dir"),
                };
                // The snapshot op counts itself *before* serializing, so
                // a restored session and the uninterrupted original
                // agree on every counter.
                s.count_op(op);
                let bytes = s.snapshot_bytes();
                let path = Session::snapshot_path(dir, name);
                match std::fs::write(&path, &bytes) {
                    Ok(()) => ok_json()
                        .field("path", path.display().to_string())
                        .field("bytes", bytes.len()),
                    Err(e) => err_json(format!("cannot write {}: {e}", path.display())),
                }
            }
            None => err_json(format!("no such session {name:?}")),
        },
        "restore" => {
            if !valid_session_name(name) {
                return err_json(format!("invalid session name {name:?}"));
            }
            let dir = match snapshot_dir {
                Some(dir) => dir,
                None => return err_json("server has no --snapshot-dir"),
            };
            match Session::load(dir, name) {
                Ok(s) => {
                    let n = s.driver.live();
                    sessions.insert(name.to_string(), s);
                    ok_json().field("session", name).field("n", n)
                }
                Err(e) => err_json(format!("cannot restore {e}")),
            }
        }
        "close" => match sessions.remove(name) {
            Some(_) => ok_json().field("session", name),
            None => err_json(format!("no such session {name:?}")),
        },
        other => err_json(format!("unknown op {other:?}")),
    }
}

fn snapshot_all(
    sessions: &BTreeMap<String, Session>,
    snapshot_dir: Option<&Path>,
) -> Result<usize, String> {
    let Some(dir) = snapshot_dir else {
        // No dir configured: nothing to persist, by configuration.
        return Ok(0);
    };
    let mut written = 0usize;
    for (name, s) in sessions {
        let path = Session::snapshot_path(dir, name);
        std::fs::write(&path, s.snapshot_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written += 1;
    }
    Ok(written)
}

fn worker(rx: mpsc::Receiver<Job>, snapshot_dir: Option<PathBuf>) {
    let mut sessions: BTreeMap<String, Session> = BTreeMap::new();
    let mut watchers: BTreeMap<String, Vec<mpsc::Sender<String>>> = BTreeMap::new();
    while let Ok(job) = rx.recv() {
        match job {
            Job::Request { doc, reply } => {
                let resp = handle_request(&mut sessions, snapshot_dir.as_deref(), &doc);
                let op = doc.get("op").and_then(Json::as_str).unwrap_or("");
                let name = doc.get("session").and_then(Json::as_str).unwrap_or("");
                // A completed state-advancing batch notifies watchers;
                // errored requests advance nothing, so they push nothing.
                let notify = matches!(op, "step" | "mutate" | "fault")
                    && resp.get("ok").and_then(Json::as_bool) != Some(false);
                let closed = op == "close";
                let _ = reply.send(resp);
                if notify {
                    if let (Some(list), Some(s)) = (watchers.get_mut(name), sessions.get_mut(name))
                    {
                        let frame = s.stats().render_compact();
                        list.retain(|sink| sink.send(frame.clone()).is_ok());
                        if list.is_empty() {
                            watchers.remove(name);
                        }
                    }
                }
                if closed {
                    // Dropping the senders ends the watchers' streams.
                    watchers.remove(name);
                }
            }
            Job::Watch {
                session,
                sink,
                reply,
            } => {
                let resp = match sessions.get_mut(&session) {
                    Some(s) => {
                        s.count_op("watch");
                        watchers.entry(session.clone()).or_default().push(sink);
                        ok_json().field("watching", session.as_str())
                    }
                    None => err_json(format!("no such session {session:?}")),
                };
                let _ = reply.send(resp);
            }
            Job::Install { session, done } => {
                sessions.insert(session.name.clone(), *session);
                let _ = done.send(());
            }
            Job::SnapshotAll { done } => {
                let _ = done.send(snapshot_all(&sessions, snapshot_dir.as_deref()));
            }
            Job::Exit => break,
        }
    }
}

/// A cloneable handle that routes requests into the worker pool — one
/// per connection thread.
#[derive(Clone)]
pub struct ServerHandle {
    shards: Vec<mpsc::Sender<Job>>,
}

impl ServerHandle {
    fn shard_of(&self, session: &str) -> &mpsc::Sender<Job> {
        let h = wire::fnv1a64(session.as_bytes()) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Dispatches one session request to its shard and waits for the
    /// response. `shutdown` is connection-level, not a session op — see
    /// [`ServerHandle::snapshot_live_sessions`].
    pub fn request(&self, doc: &Json) -> Json {
        let name = match doc.get("session").and_then(Json::as_str) {
            Some(name) => name,
            None => {
                // Let the worker produce the uniform diagnostics for
                // op-less / session-less requests.
                return handle_request(&mut BTreeMap::new(), None, doc);
            }
        };
        let (reply, rx) = mpsc::sync_channel(1);
        if self
            .shard_of(name)
            .send(Job::Request {
                doc: doc.clone(),
                reply,
            })
            .is_err()
        {
            return err_json("server is shutting down");
        }
        rx.recv()
            .unwrap_or_else(|_| err_json("server is shutting down"))
    }

    /// Registers `sink` as a live-stats watcher on `name`'s session and
    /// returns the ack (or error) response. Frames arrive on the paired
    /// receiver; dropping it unregisters the watcher lazily.
    pub fn watch(&self, name: &str, sink: mpsc::Sender<String>) -> Json {
        let (reply, rx) = mpsc::sync_channel(1);
        if self
            .shard_of(name)
            .send(Job::Watch {
                session: name.to_string(),
                sink,
                reply,
            })
            .is_err()
        {
            return err_json("server is shutting down");
        }
        rx.recv()
            .unwrap_or_else(|_| err_json("server is shutting down"))
    }

    /// Snapshots every live session on every shard (the `shutdown` op's
    /// persistence half). Returns the total written. Every live shard
    /// writes its sessions first; the error then names each shard that
    /// failed to write, or whose worker is gone with its sessions unsaved.
    pub fn snapshot_live_sessions(&self) -> Result<usize, String> {
        let mut total = 0usize;
        let mut failures = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let (done, rx) = mpsc::sync_channel(1);
            let reply = match shard.send(Job::SnapshotAll { done }) {
                Ok(()) => rx.recv().ok(),
                Err(_) => None,
            };
            match reply {
                Some(Ok(written)) => total += written,
                Some(Err(e)) => failures.push(format!("shard {i}: {e}")),
                None => failures.push(format!("shard {i}: worker gone, sessions not written")),
            }
        }
        if failures.is_empty() {
            Ok(total)
        } else {
            Err(format!("{} ({total} written)", failures.join("; ")))
        }
    }
}

/// The session service: a worker pool plus its snapshot directory.
pub struct Server {
    handle: ServerHandle,
    workers: Vec<thread::JoinHandle<()>>,
}

/// Server configuration.
pub struct ServerConfig {
    /// Worker (shard) count; clamped to at least 1.
    pub threads: usize,
    /// Where session snapshots live; `None` disables snapshot/restore.
    pub snapshot_dir: Option<PathBuf>,
}

impl Server {
    /// Spawns the worker pool and resumes every `*.session.spfs` blob
    /// found in the snapshot dir (corrupt blobs, and blobs whose file
    /// name is not their session's, are skipped and reported in the
    /// return's second slot — the sessions they named simply don't
    /// resume).
    pub fn start(config: ServerConfig) -> io::Result<(Server, Vec<String>)> {
        let threads = config.threads.max(1);
        let mut shards = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = mpsc::channel();
            let dir = config.snapshot_dir.clone();
            shards.push(tx);
            workers.push(thread::spawn(move || worker(rx, dir)));
        }
        let handle = ServerHandle { shards };
        let mut skipped = Vec::new();
        if let Some(dir) = &config.snapshot_dir {
            std::fs::create_dir_all(dir)?;
            let mut names: Vec<String> = std::fs::read_dir(dir)?
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let file = e.file_name();
                    Some(file.to_str()?.strip_suffix(".session.spfs")?.to_string())
                })
                .collect();
            names.sort();
            for name in names {
                match Session::load(dir, &name) {
                    Ok(session) => {
                        let (done, rx) = mpsc::sync_channel(1);
                        let _ = handle.shard_of(&session.name).send(Job::Install {
                            session: Box::new(session),
                            done,
                        });
                        let _ = rx.recv();
                    }
                    Err(e) => skipped.push(e),
                }
            }
        }
        Ok((Server { handle, workers }, skipped))
    }

    /// A cloneable request handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Snapshots all sessions, then stops and joins the pool, also when
    /// a snapshot failed (the error is returned after the pool stops).
    /// Requests arriving through leftover handles afterwards get a
    /// "shutting down" error response.
    pub fn shutdown(self) -> Result<usize, String> {
        let written = self.handle.snapshot_live_sessions();
        for shard in &self.handle.shards {
            let _ = shard.send(Job::Exit);
        }
        for w in self.workers {
            let _ = w.join();
        }
        written
    }
}

// ---- Connection service.

/// Serves one framed-JSON connection until EOF or a `shutdown` op.
/// Returns `true` if the peer requested server shutdown.
pub fn serve_connection(
    r: &mut impl Read,
    w: &mut impl Write,
    handle: &ServerHandle,
) -> io::Result<bool> {
    while let Some(frame) = read_frame(r)? {
        let doc = match std::str::from_utf8(&frame)
            .map_err(|e| e.to_string())
            .and_then(Json::parse)
        {
            Ok(doc) => doc,
            Err(e) => {
                let resp = err_json(format!("bad request frame: {e}"));
                write_frame(w, resp.render_compact().as_bytes())?;
                continue;
            }
        };
        if doc.get("op").and_then(Json::as_str) == Some("shutdown") {
            let resp = match handle.snapshot_live_sessions() {
                Ok(n) => ok_json().field("snapshotted", n),
                Err(e) => err_json(format!("snapshot-on-shutdown failed: {e}")),
            };
            write_frame(w, resp.render_compact().as_bytes())?;
            return Ok(true);
        }
        if doc.get("op").and_then(Json::as_str) == Some("watch") {
            serve_watch(&doc, handle, w)?;
            continue;
        }
        let resp = handle.request(&doc);
        write_frame(w, resp.render_compact().as_bytes())?;
    }
    Ok(false)
}

/// The `watch` op's connection half: ack the registration, forward one
/// stats frame per completed `step`/`mutate`/`fault` batch on the
/// watched session until `frames` frames (default 1) are served — or
/// the session closes / the server stops, whichever first — then emit
/// an end marker and hand the connection back to the request loop.
fn serve_watch(doc: &Json, handle: &ServerHandle, w: &mut impl Write) -> io::Result<()> {
    let name = match doc.get("session").and_then(Json::as_str) {
        Some(name) => name,
        None => {
            let resp = err_json("op \"watch\" needs a \"session\" field");
            return write_frame(w, resp.render_compact().as_bytes());
        }
    };
    let frames = doc
        .get("frames")
        .and_then(Json::as_u64)
        .unwrap_or(1)
        .clamp(1, 1 << 16);
    let (sink, rx) = mpsc::channel();
    let ack = handle.watch(name, sink);
    if ack.get("ok").and_then(Json::as_bool) == Some(false) {
        return write_frame(w, ack.render_compact().as_bytes());
    }
    write_frame(w, ack.field("frames", frames).render_compact().as_bytes())?;
    let mut sent = 0u64;
    while sent < frames {
        match rx.recv() {
            Ok(frame) => {
                write_frame(w, frame.as_bytes())?;
                sent += 1;
            }
            // Stream source gone (session closed or server stopping):
            // end the watch early rather than hanging the connection.
            Err(_) => break,
        }
    }
    drop(rx);
    let end = ok_json()
        .field("watch_ended", name)
        .field("frames_sent", sent);
    write_frame(w, end.render_compact().as_bytes())
}

/// Runs the TCP accept loop until a client sends `shutdown`. Sessions
/// are snapshotted by the `shutdown` handler before this returns.
///
/// Connection threads are detached, not joined: a shutdown must not
/// wait for idle keep-alive connections to hang up. The `shutdown`
/// handler snapshots (and replies) before the stop flag is raised, and
/// stopped workers answer any straggler request with a "shutting down"
/// error, so detaching loses nothing.
pub fn serve_tcp(listener: TcpListener, server: Server) -> io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        let _ = stream.set_nodelay(true);
        let handle = server.handle();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut reader = match stream.try_clone() {
                Ok(r) => r,
                Err(_) => return,
            };
            let mut writer = stream;
            if let Ok(true) = serve_connection(&mut reader, &mut writer, &handle) {
                stop.store(true, Ordering::SeqCst);
                // Unblock the acceptor so the loop observes the flag.
                let _ = std::net::TcpStream::connect(addr);
            }
        });
    }
    // The shutdown op already snapshotted; this re-snapshot is a no-op
    // for unchanged sessions and covers EOF-only exits.
    let _ = server.shutdown();
    Ok(())
}

/// Serves a single stdio connection (frames on stdin/stdout); EOF or
/// `shutdown` snapshots all sessions and returns.
pub fn serve_stdio(server: Server) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let handle = server.handle();
    serve_connection(&mut stdin.lock(), &mut stdout.lock(), &handle)?;
    server
        .shutdown()
        .map_err(|e| io::Error::other(format!("snapshot on shutdown failed: {e}")))?;
    Ok(())
}

// ---- Binary front end.

const USAGE: &str =
    "usage: scenario-server [--port N] [--threads N] [--snapshot-dir DIR] [--stdio]\n\
     \n\
     --port N           TCP port to listen on (default 0 = ephemeral; the\n\
     \x20                  bound address prints to stderr as `listening on ...`)\n\
     --threads N        worker shard count (default: one per core, max 8)\n\
     --snapshot-dir DIR persist/resume session snapshots here; enables the\n\
     \x20                  snapshot/restore ops and graceful restart\n\
     --stdio            serve one framed connection on stdin/stdout instead\n\
     \x20                  of TCP (EOF acts like shutdown)";

/// Entry point of the `scenario-server` binary: parses `argv` (without
/// the binary name), serves, and returns the exit code under the same
/// `0`/`2` contract as `scenario-runner` (`1` is unused: protocol-level
/// failures are responses, not process exits).
pub fn server_main(argv: &[String], diag: &mut dyn Write) -> u8 {
    let mut port = 0u16;
    let mut threads = Threads::Auto;
    let mut snapshot_dir: Option<PathBuf> = None;
    let mut stdio = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        macro_rules! value {
            ($name:literal) => {
                match it.next() {
                    Some(v) => v.as_str(),
                    None => {
                        let _ = writeln!(diag, "missing value for {}", $name);
                        let _ = writeln!(diag, "{USAGE}");
                        return 2;
                    }
                }
            };
        }
        macro_rules! num {
            ($name:literal) => {
                match crate::cli::parse_num_value(value!($name), $name, diag) {
                    Some(v) => v,
                    None => {
                        let _ = writeln!(diag, "{USAGE}");
                        return 2;
                    }
                }
            };
        }
        match arg.as_str() {
            "--port" => port = num!("--port"),
            "--threads" => threads = Threads::Count(num!("--threads")),
            "--snapshot-dir" => snapshot_dir = Some(PathBuf::from(value!("--snapshot-dir"))),
            "--stdio" => stdio = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                let _ = writeln!(diag, "unknown argument: {other}");
                let _ = writeln!(diag, "{USAGE}");
                return 2;
            }
        }
    }
    let config = ServerConfig {
        threads: threads.resolve().min(8),
        snapshot_dir,
    };
    let (server, skipped) = match Server::start(config) {
        Ok(ok) => ok,
        Err(e) => {
            let _ = writeln!(diag, "cannot start: {e}");
            return 2;
        }
    };
    for s in &skipped {
        let _ = writeln!(diag, "warning: skipping unreadable snapshot {s}");
    }
    let served = if stdio {
        serve_stdio(server)
    } else {
        match TcpListener::bind(("127.0.0.1", port)) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(addr) => {
                        let _ = writeln!(diag, "listening on {addr}");
                        let _ = diag.flush();
                    }
                    Err(e) => {
                        let _ = writeln!(diag, "cannot resolve bound address: {e}");
                        return 2;
                    }
                }
                serve_tcp(listener, server)
            }
            Err(e) => {
                let _ = writeln!(diag, "cannot bind 127.0.0.1:{port}: {e}");
                return 2;
            }
        }
    };
    match served {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(diag, "serve failed: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MAX_SIZE;

    fn req(fields: &[(&str, Json)]) -> Json {
        let mut doc = Json::object();
        for (k, v) in fields {
            doc = doc.field(k, v.clone());
        }
        doc
    }

    fn s(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    fn n(v: u64) -> Json {
        Json::U64(v)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spf-server-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A server with `threads` shards, snapshotting to `dir` if given.
    fn start(threads: usize, dir: Option<&Path>) -> (Server, Vec<String>) {
        let snapshot_dir = dir.map(Path::to_path_buf);
        Server::start(ServerConfig {
            threads,
            snapshot_dir,
        })
        .unwrap()
    }

    /// Reads one reply frame and parses it.
    fn read_json(r: &mut impl Read) -> Json {
        let frame = read_frame(r).unwrap().expect("a reply frame");
        Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()
    }

    /// Sends one request frame and reads its reply.
    fn roundtrip(conn: &mut std::net::TcpStream, doc: &Json) -> Json {
        write_frame(conn, doc.render_compact().as_bytes()).unwrap();
        read_json(conn)
    }

    fn assert_ok(resp: &Json) {
        assert!(
            resp.get("error").is_none(),
            "expected ok response, got {}",
            resp.render_compact()
        );
    }

    /// A session reports what its batch run reports. For every session
    /// family and several seeds, the registry scenario runs as a batch,
    /// and a session with the same parameters goes through the same
    /// operations: rounds, beeps, live size, circuit count and metric
    /// counters must all agree.
    #[test]
    fn sessions_match_their_batch_runs() {
        use crate::registry::default_registry;
        use crate::report::metrics_to_json;
        use crate::run::run_scenario;
        use crate::spec::{MicroWorkload, Workload};

        let registry = default_registry();
        for kind in Kind::ALL {
            for seed in [1u64, 7, 42] {
                let sc = registry.get(kind.family()).unwrap().build(seed);
                let Workload::Micro(MicroWorkload::Driven {
                    n: size,
                    events,
                    per_event,
                    ..
                }) = sc.workload
                else {
                    panic!("{} is not a driver family", kind.family());
                };
                let batch = run_scenario(&sc);
                assert!(batch.pass, "{}: {:?}", sc.name, batch.checks);
                // The batch's driver, kept to count its circuits. Counting
                // refreshes a pending relabel, so the session's query is
                // compared against the counters after the count.
                let mut twin = Driver::new(kind, size, seed, events, per_event).unwrap();
                let again = crate::driver::drive(&mut twin, &mut NullRecorder);
                assert_eq!(
                    (again.rounds, again.beeps, again.l),
                    (batch.rounds, batch.beeps, batch.l)
                );
                assert_eq!(
                    metrics_to_json(&again.metrics, false),
                    metrics_to_json(&batch.metrics, false)
                );
                let circuits = twin.world_mut().circuit_count() as u64;

                let name = &sc.name;
                let mut session =
                    Session::create("twin", kind.family(), size, seed, events, per_event).unwrap();
                let oracle_ok = |reply: Json| reply.get("oracle_ok").and_then(Json::as_bool);
                match kind {
                    Kind::Broadcast => drop(session.step(events)),
                    Kind::Churn => {
                        for _ in 0..events {
                            assert_eq!(oracle_ok(session.mutate(true).unwrap()), Some(true));
                            session.step(1).unwrap();
                        }
                    }
                    _ => {
                        for _ in 0..events {
                            assert_eq!(oracle_ok(session.fault(true).unwrap()), Some(true));
                        }
                        // One round per event; the rest are the batch's
                        // fault-free recovery rounds.
                        session
                            .step((batch.rounds - events as u64) as usize)
                            .unwrap();
                    }
                }
                let doc = session.query(false);
                let num = |key: &str| doc.get(key).and_then(Json::as_u64);
                assert_eq!(num("rounds"), Some(batch.rounds), "{name}");
                assert_eq!(num("beeps"), Some(batch.beeps), "{name}");
                assert_eq!(num("n"), Some(twin.live() as u64), "{name}");
                assert_eq!(num("circuits"), Some(circuits), "{name}");
                assert_eq!(
                    doc.get("metrics"),
                    Some(&metrics_to_json(twin.world().metrics(), false)),
                    "{name}"
                );
                if kind.is_fault() {
                    assert_eq!(num("informed"), num("n"), "{name} re-converged");
                }
                // Canonical query responses carry counters but no timers.
                let text = doc.render_pretty();
                assert!(text.contains("relabel_global") && !text.contains("timers"));
            }
        }
    }

    #[test]
    fn protocol_errors_are_responses_not_panics() {
        let (server, _) = start(1, None);
        let h = server.handle();
        for bad in [
            req(&[("session", s("a"))]),                            // no op
            req(&[("op", s("nonsense")), ("session", s("a"))]),     // unknown op
            req(&[("op", s("step")), ("session", s("ghost"))]),     // no such session
            req(&[("op", s("create")), ("session", s("../evil"))]), // bad name
            req(&[
                ("op", s("create")),
                ("session", s("x")),
                ("family", s("blob-fault-broadcast")), // not a registry family
            ]),
            req(&[("op", s("create")), ("session", s("x")), ("size", n(0))]),
            req(&[("op", s("snapshot")), ("session", s("a"))]), // no snapshot dir
            req(&[("op", s("step"))]),                          // no session field
        ] {
            let resp = h.request(&bad);
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(false),
                "{} should have errored: {}",
                bad.render_compact(),
                resp.render_compact()
            );
            assert!(resp.get("error").is_some());
        }
        // An event op on a session without that schedule is an error
        // too: mutate or fault a plain broadcast, mutate a fault session.
        for (name, family) in [
            ("a", "blob-broadcast"),
            ("adv", "fault-crashrecover-broadcast"),
        ] {
            assert_ok(&h.request(&req(&[
                ("op", s("create")),
                ("session", s(name)),
                ("family", s(family)),
                ("size", n(20)),
                ("events", n(2)),
                ("per_event", n(1)),
            ])));
        }
        for (op, name) in [("mutate", "a"), ("fault", "a"), ("mutate", "adv")] {
            let resp = h.request(&req(&[("op", s(op)), ("session", s(name))]));
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(false),
                "{op} {name}"
            );
        }
        // The query envelope reports the fault-plan cursor.
        let doc = h.request(&req(&[("op", s("query")), ("session", s("adv"))]));
        assert!(doc.get("fault_family").is_some());
        assert_eq!(doc.get("next_fault").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("fault_events").and_then(Json::as_u64), Some(2));
        server.shutdown().unwrap();
    }

    /// An oversized `create` is an error reply, and the shard that got
    /// it keeps serving: a session it already holds still answers and
    /// is snapshotted at shutdown. A line of 2^32 + 5 cells used to
    /// build 5 cells and panic the shard while configuring the rest.
    #[test]
    fn oversized_creates_are_refused_and_the_shard_survives() {
        let dir = temp_dir("oversized");
        let (server, _) = start(1, Some(&dir));
        let h = server.handle();
        let create = |name: &str, family: &str, size: u64, per_event: u64| {
            h.request(&req(&[
                ("op", s("create")),
                ("session", s(name)),
                ("family", s(family)),
                ("size", n(size)),
                ("events", n(2)),
                ("per_event", n(per_event)),
            ]))
        };
        assert_ok(&create("kept", "blob-broadcast", 20, 1));
        for (family, size, per_event) in [
            ("fault-stuckpin-broadcast", (1 << 32) + 5, 1),
            ("blob-broadcast", MAX_SIZE as u64 + 1, 1),
            ("blob-churn-broadcast", 20, MAX_SIZE as u64 + 1),
        ] {
            let resp = create("x", family, size, per_event);
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(false),
                "{family} size {size} per_event {per_event}: {}",
                resp.render_compact()
            );
        }
        assert_ok(&h.request(&req(&[("op", s("query")), ("session", s("kept"))])));
        assert_eq!(server.shutdown().unwrap(), 1);
        assert!(dir.join("kept.session.spfs").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The differential test at the service level: a session of each
    /// schedule family, snapshotted mid-schedule and restored into a
    /// *fresh server*, plays the rest of its schedule byte-identically to
    /// the uninterrupted session. Churn edits, armed stuck pins, the
    /// fault kinds' informed set (the query's `informed`) and the final
    /// repair sweep all cross the snapshot.
    #[test]
    fn sessions_restore_mid_schedule_byte_identically() {
        let kinds = Kind::ALL.into_iter().filter(|&k| k != Kind::Broadcast);
        for (kind, seed) in kinds.zip([11u64, 0, 3, 11, 27]) {
            let family = kind.family();
            let event = if kind == Kind::Churn {
                "mutate"
            } else {
                "fault"
            };
            // Each family gets its own snapshot dir so resumed leftovers
            // don't leak across families.
            let dir = temp_dir(&format!("restore-{family}"));
            let op = |h: &ServerHandle, op: &str, verify: bool| {
                let resp = h.request(&req(&[
                    ("op", s(op)),
                    ("session", s("resumed")),
                    ("verify", Json::Bool(verify)),
                ]));
                assert_ok(&resp);
                resp
            };
            let play = |h: &ServerHandle, verify: bool| {
                for _ in 0..3 {
                    op(h, event, verify);
                    op(h, "step", false);
                }
            };
            let (server, _) = start(2, Some(&dir));
            let h = server.handle();
            assert_ok(&h.request(&req(&[
                ("op", s("create")),
                ("session", s("resumed")),
                ("family", s(family)),
                ("size", n(40)),
                ("seed", n(seed)),
                ("events", n(6)),
                ("per_event", n(3)),
            ])));
            play(&h, false);
            op(&h, "snapshot", false);
            // Uninterrupted continuation in the original server.
            play(&h, true);
            let reference = op(&h, "query", false);
            // Close before shutdown: shutdown's snapshot-all would
            // otherwise overwrite the mid-schedule snapshot.
            op(&h, "close", false);
            assert_eq!(server.shutdown().unwrap(), 0);

            // Fresh server, explicit restore, same continuation.
            let (server, skipped) = start(1, Some(&dir));
            assert!(skipped.is_empty(), "{skipped:?}");
            let h = server.handle();
            // Startup resume already installed the session (snapshot-dir
            // scan); `restore` must also work as an explicit reload.
            op(&h, "restore", false);
            play(&h, true);
            let resumed = op(&h, "query", false);
            assert_eq!(
                Session::without_relabels(&reference).render_pretty(),
                Session::without_relabels(&resumed).render_pretty(),
                "restored {family} session diverged from the uninterrupted run"
            );
            // The schedule is exhausted on both paths.
            let resp = h.request(&req(&[("op", s(event)), ("session", s("resumed"))]));
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
            server.shutdown().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Graceful-restart path: shutdown snapshots every live session; a
    /// new server over the same dir resumes them without explicit
    /// restore ops.
    #[test]
    fn shutdown_snapshots_and_restart_resumes() {
        let dir = temp_dir("restart");
        let (server, _) = start(3, Some(&dir));
        let h = server.handle();
        for name in ["s0", "s1", "s2", "s3", "s4"] {
            assert_ok(&h.request(&req(&[
                ("op", s("create")),
                ("session", s(name)),
                ("size", n(50)),
                ("seed", n(3)),
            ])));
            assert_ok(&h.request(&req(&[
                ("op", s("step")),
                ("session", s(name)),
                ("n", n(4)),
            ])));
        }
        assert_eq!(server.shutdown().unwrap(), 5);

        let (server, skipped) = start(2, Some(&dir));
        assert!(skipped.is_empty(), "{skipped:?}");
        let h = server.handle();
        for name in ["s0", "s1", "s2", "s3", "s4"] {
            let doc = h.request(&req(&[("op", s("query")), ("session", s(name))]));
            assert_eq!(
                doc.get("rounds").and_then(Json::as_u64),
                Some(4),
                "session {name} did not resume: {}",
                doc.render_compact()
            );
        }
        // A corrupt snapshot is skipped with a diagnostic, not fatal.
        server.shutdown().unwrap();
        let path = Session::snapshot_path(&dir, "s0");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (server, skipped) = start(1, Some(&dir));
        assert_eq!(skipped.len(), 1);
        let h = server.handle();
        let resp = h.request(&req(&[("op", s("query")), ("session", s("s0"))]));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_ok(&h.request(&req(&[("op", s("query")), ("session", s("s1"))])));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard whose worker is gone fails the snapshot by name, after
    /// the live shards have written their sessions.
    #[test]
    fn a_dead_shard_fails_the_snapshot_by_name() {
        let dir = temp_dir("dead-shard");
        let (server, _) = start(1, Some(&dir));
        assert_ok(&server.handle().request(&req(&[
            ("op", s("create")),
            ("session", s("alive")),
            ("size", n(20)),
        ])));
        let (gone, rx) = mpsc::channel();
        drop(rx);
        let handle = ServerHandle {
            shards: vec![server.handle.shards[0].clone(), gone],
        };
        let err = handle.snapshot_live_sessions().unwrap_err();
        assert!(err.starts_with("shard 1: worker gone"), "{err}");
        assert!(err.ends_with("(1 written)"), "{err}");
        assert!(Session::snapshot_path(&dir, "alive").exists());
        assert_eq!(server.shutdown(), Ok(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A session blob with a valid digest whose structure editor lists
    /// no live id (restoring it would leave a session with no amoebot).
    fn crafted_session_blob() -> Vec<u8> {
        let mut w = SnapshotWriter::new(wire::kind::SESSION);
        w.str("crafted");
        w.varint(OP_KINDS.len() as u64);
        for _ in OP_KINDS {
            w.varint(0);
        }
        w.str(Kind::Churn.family());
        // size, seed, events, per_event, steps, cursor, informed length
        for v in [1, 0, 0, 0, 0, 0, 0] {
            w.varint(v);
        }
        // The dynamic world's editor: capacity, free list, live list and
        // edited-chunk set, all empty.
        for _ in 0..4 {
            w.varint(0);
        }
        w.finish()
    }

    /// A crafted session file in the snapshot dir is skipped by name
    /// with the field its decoder rejected; the other sessions resume.
    #[test]
    fn restart_skips_a_crafted_session_by_name() {
        match Session::from_snapshot_bytes(&crafted_session_blob()) {
            Err(e) => assert!(e.to_string().contains("editor cells"), "{e}"),
            Ok(_) => panic!("the crafted session decoded"),
        }
        let dir = temp_dir("crafted");
        let (server, _) = start(2, Some(&dir));
        let h = server.handle();
        for name in ["a", "b"] {
            assert_ok(&h.request(&req(&[
                ("op", s("create")),
                ("session", s(name)),
                ("size", n(40)),
                ("seed", n(5)),
            ])));
            assert_ok(&h.request(&req(&[
                ("op", s("step")),
                ("session", s(name)),
                ("n", n(3)),
            ])));
        }
        assert_eq!(server.shutdown().unwrap(), 2);
        let crafted = Session::snapshot_path(&dir, "crafted");
        std::fs::write(&crafted, crafted_session_blob()).unwrap();
        let (server, skipped) = start(1, Some(&dir));
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert!(
            skipped[0].contains(&crafted.display().to_string())
                && skipped[0].contains("editor cells"),
            "{skipped:?}"
        );
        let h = server.handle();
        for name in ["a", "b"] {
            let doc = h.request(&req(&[("op", s("query")), ("session", s(name))]));
            assert_eq!(
                doc.get("rounds").and_then(Json::as_u64),
                Some(3),
                "session {name} did not resume: {}",
                doc.render_compact()
            );
        }
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A session file copied under another session's name is skipped
    /// and named at restart, as the `restore` op refuses it: it neither
    /// replaces the session it holds nor resumes under the name it has.
    #[test]
    fn restart_skips_a_file_that_names_another_session() {
        let dir = temp_dir("misnamed");
        let (server, _) = start(2, Some(&dir));
        let h = server.handle();
        for (name, rounds) in [("a", 2), ("b", 5)] {
            assert_ok(&h.request(&req(&[
                ("op", s("create")),
                ("session", s(name)),
                ("size", n(40)),
                ("seed", n(5)),
            ])));
            assert_ok(&h.request(&req(&[
                ("op", s("step")),
                ("session", s(name)),
                ("n", n(rounds)),
            ])));
        }
        assert_eq!(server.shutdown().unwrap(), 2);
        let copy = Session::snapshot_path(&dir, "a");
        std::fs::copy(Session::snapshot_path(&dir, "b"), &copy).unwrap();
        let (server, skipped) = start(2, Some(&dir));
        assert_eq!(
            skipped,
            vec![format!("{}: belongs to session \"b\"", copy.display())]
        );
        let h = server.handle();
        let doc = h.request(&req(&[("op", s("query")), ("session", s("b"))]));
        assert_eq!(doc.get("rounds").and_then(Json::as_u64), Some(5));
        let doc = h.request(&req(&[("op", s("query")), ("session", s("a"))]));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The concurrency smoke: 64 client threads, each driving its own
    /// session through create + steps + query simultaneously. Shard
    /// ownership makes this race-free by construction; the test pins
    /// the per-session determinism claim under real contention.
    #[test]
    fn sixty_four_concurrent_sessions() {
        let (server, _) = start(4, None);
        let rounds: Vec<u64> = thread::scope(|scope| {
            let mut joins = Vec::new();
            for i in 0..64 {
                let h = server.handle();
                joins.push(scope.spawn(move || {
                    let name = format!("c{i}");
                    let resp = h.request(&req(&[
                        ("op", s("create")),
                        ("session", s(&name)),
                        ("size", n(60)),
                        ("seed", n(i)),
                    ]));
                    assert_ok(&resp);
                    for _ in 0..10 {
                        assert_ok(&h.request(&req(&[
                            ("op", s("step")),
                            ("session", s(&name)),
                            ("n", n(3)),
                        ])));
                    }
                    let doc = h.request(&req(&[("op", s("query")), ("session", s(&name))]));
                    doc.get("rounds").and_then(Json::as_u64).unwrap()
                }));
            }
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        assert!(rounds.iter().all(|&r| r == 30));
        server.shutdown().unwrap();
    }

    #[test]
    fn frame_codec_round_trips_and_bounds() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"query\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"query\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // Oversized length prefix is rejected before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // Truncated payload is an error, not silent EOF.
        let torn = [5u8, 0, 0, 0, b'x'];
        assert!(read_frame(&mut &torn[..]).is_err());
    }

    /// A request frame nested past the parser's depth limit gets an error
    /// reply, and the connection goes on to serve the next frame.
    #[test]
    fn deeply_nested_frame_is_an_error_reply_not_a_crash() {
        let (server, _) = start(1, None);
        let mut input = Vec::new();
        write_frame(&mut input, &vec![b'['; 1 << 20]).unwrap();
        let create = req(&[
            ("op", s("create")),
            ("session", s("after")),
            ("size", n(10)),
        ]);
        write_frame(&mut input, create.render_compact().as_bytes()).unwrap();
        let mut output = Vec::new();
        let stop = serve_connection(&mut &input[..], &mut output, &server.handle()).unwrap();
        assert!(!stop, "EOF is not a shutdown");
        let mut replies = &output[..];
        let refused = read_json(&mut replies);
        assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
        let error = refused.get("error").and_then(Json::as_str).unwrap();
        assert!(
            error.contains("nesting") && error.contains("byte"),
            "{error}"
        );
        assert_ok(&read_json(&mut replies));
        assert!(read_frame(&mut replies).unwrap().is_none());
        server.shutdown().unwrap();
    }

    /// End-to-end over a real socket: the TCP loop, the shutdown op
    /// (snapshot-all + stop), and restart-from-dir.
    #[test]
    fn tcp_round_trip_with_shutdown_and_restart() {
        let dir = temp_dir("tcp");
        let listen = |threads| {
            let (server, _) = start(threads, Some(&dir));
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            (thread::spawn(move || serve_tcp(listener, server)), addr)
        };

        let (serve, addr) = listen(2);
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        assert_ok(&roundtrip(
            &mut conn,
            &req(&[
                ("op", s("create")),
                ("session", s("tcp-a")),
                ("size", n(80)),
                ("seed", n(5)),
            ]),
        ));
        assert_ok(&roundtrip(
            &mut conn,
            &req(&[("op", s("step")), ("session", s("tcp-a")), ("n", n(7))]),
        ));
        let resp = roundtrip(&mut conn, &req(&[("op", s("shutdown"))]));
        assert_eq!(resp.get("snapshotted").and_then(Json::as_u64), Some(1));
        serve.join().unwrap().unwrap();

        // Restart over the same dir: the session is live again.
        let (serve, addr) = listen(1);
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        let doc = roundtrip(
            &mut conn,
            &req(&[("op", s("query")), ("session", s("tcp-a"))]),
        );
        assert_eq!(doc.get("rounds").and_then(Json::as_u64), Some(7));
        let _ = roundtrip(&mut conn, &req(&[("op", s("shutdown"))]));
        serve.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_snapshot_rejects_every_bit_flip() {
        for kind in Kind::ALL.into_iter().filter(|&k| k != Kind::Broadcast) {
            let mut session = Session::create("bits", kind.family(), 20, 9, 4, 2).unwrap();
            if kind == Kind::Churn {
                session.mutate(false).unwrap();
            } else {
                session.fault(false).unwrap();
            }
            session.step(2).unwrap();
            let blob = session.snapshot_bytes();
            for byte in 0..blob.len() {
                for bit in 0..8 {
                    let mut bad = blob.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        Session::from_snapshot_bytes(&bad).is_err(),
                        "flip at byte {byte} bit {bit} was accepted"
                    );
                }
            }
        }
    }

    /// Satellite: the per-session request counters are deterministic,
    /// wall-clock-free, and survive snapshot → fresh-server restore.
    #[test]
    fn op_counters_survive_snapshot_restore() {
        let dir = temp_dir("counters");
        let (server, _) = start(2, Some(&dir));
        let h = server.handle();
        assert_ok(&h.request(&req(&[
            ("op", s("create")),
            ("session", s("counted")),
            ("size", n(30)),
            ("seed", n(4)),
        ])));
        for _ in 0..2 {
            assert_ok(&h.request(&req(&[("op", s("step")), ("session", s("counted"))])));
        }
        // create + 2 steps + this query = 4 requests so far.
        let doc = h.request(&req(&[("op", s("query")), ("session", s("counted"))]));
        assert_eq!(doc.get("uptime_requests").and_then(Json::as_u64), Some(4));
        let kinds = doc
            .get("ops_by_kind")
            .expect("ops_by_kind")
            .render_compact();
        assert!(kinds.contains("\"create\":1"), "{kinds}");
        assert!(kinds.contains("\"step\":2"), "{kinds}");
        assert!(kinds.contains("\"query\":1"), "{kinds}");
        // The snapshot counts itself before serializing (5 on the wire).
        assert_ok(&h.request(&req(&[("op", s("snapshot")), ("session", s("counted"))])));
        assert_ok(&h.request(&req(&[("op", s("close")), ("session", s("counted"))])));
        assert_eq!(server.shutdown().unwrap(), 0);

        let (server, skipped) = start(1, Some(&dir));
        assert!(skipped.is_empty(), "{skipped:?}");
        let h = server.handle();
        // Restored counters resume from the serialized 5: this query is 6.
        let doc = h.request(&req(&[("op", s("query")), ("session", s("counted"))]));
        assert_eq!(
            doc.get("uptime_requests").and_then(Json::as_u64),
            Some(6),
            "{}",
            doc.render_compact()
        );
        let kinds = doc
            .get("ops_by_kind")
            .expect("ops_by_kind")
            .render_compact();
        assert!(kinds.contains("\"snapshot\":1"), "{kinds}");
        assert!(kinds.contains("\"step\":2"), "{kinds}");
        assert!(kinds.contains("\"query\":2"), "{kinds}");
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tentpole: `stats` renders byte-identically for the same request
    /// history regardless of shard count, and carries the phase-timer
    /// percentile objects plus the request counters.
    #[test]
    fn stats_is_deterministic_across_shard_counts() {
        let renders: Vec<String> = [1usize, 8]
            .into_iter()
            .map(|threads| {
                let (server, _) = start(threads, None);
                let h = server.handle();
                assert_ok(&h.request(&req(&[
                    ("op", s("create")),
                    ("session", s("statty")),
                    ("family", s("blob-churn-broadcast")),
                    ("size", n(40)),
                    ("seed", n(13)),
                    ("events", n(4)),
                    ("per_event", n(2)),
                ])));
                for _ in 0..2 {
                    assert_ok(&h.request(&req(&[("op", s("mutate")), ("session", s("statty"))])));
                    assert_ok(&h.request(&req(&[
                        ("op", s("step")),
                        ("session", s("statty")),
                        ("n", n(3)),
                    ])));
                }
                let doc = h.request(&req(&[("op", s("stats")), ("session", s("statty"))]));
                assert_eq!(doc.get("schema").and_then(Json::as_str), Some(STATS_SCHEMA));
                assert_eq!(doc.get("rounds").and_then(Json::as_u64), Some(6));
                let text = doc.render_pretty();
                assert!(text.contains("\"relabels\""), "{text}");
                assert!(text.contains("uptime_requests"), "{text}");
                // Sessions tick untimed, so there are no timers to report.
                assert!(!text.contains("phase_"), "{text}");
                server.shutdown().unwrap();
                text
            })
            .collect();
        assert_eq!(
            renders[0], renders[1],
            "stats must not depend on shard count"
        );
    }

    /// Tentpole: `watch` over a real socket — a second connection's
    /// steps push live stats frames to the watcher, then the watcher's
    /// connection resumes normal request service.
    #[test]
    fn watch_streams_stats_frames_over_tcp() {
        let (server, _) = start(2, None);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve = thread::spawn(move || serve_tcp(listener, server));

        let mut driver = std::net::TcpStream::connect(addr).unwrap();
        assert_ok(&roundtrip(
            &mut driver,
            &req(&[
                ("op", s("create")),
                ("session", s("watched")),
                ("size", n(40)),
                ("seed", n(2)),
            ]),
        ));
        // Watching a missing session is an error response, not a hang.
        let mut watcher = std::net::TcpStream::connect(addr).unwrap();
        let resp = roundtrip(
            &mut watcher,
            &req(&[("op", s("watch")), ("session", s("ghost"))]),
        );
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        // Register for two frames; the ack confirms before any step.
        let ack = roundtrip(
            &mut watcher,
            &req(&[
                ("op", s("watch")),
                ("session", s("watched")),
                ("frames", n(2)),
            ]),
        );
        assert_eq!(ack.get("watching").and_then(Json::as_str), Some("watched"));
        assert_eq!(ack.get("frames").and_then(Json::as_u64), Some(2));
        // Each completed step batch pushes exactly one stats frame.
        assert_ok(&roundtrip(
            &mut driver,
            &req(&[("op", s("step")), ("session", s("watched")), ("n", n(3))]),
        ));
        let frame = read_json(&mut watcher);
        assert_eq!(
            frame.get("schema").and_then(Json::as_str),
            Some(STATS_SCHEMA)
        );
        assert_eq!(frame.get("rounds").and_then(Json::as_u64), Some(3));
        assert_ok(&roundtrip(
            &mut driver,
            &req(&[("op", s("step")), ("session", s("watched"))]),
        ));
        let frame = read_json(&mut watcher);
        assert_eq!(frame.get("rounds").and_then(Json::as_u64), Some(4));
        // End marker, then the connection serves ordinary requests again.
        let end = read_json(&mut watcher);
        assert_eq!(end.get("frames_sent").and_then(Json::as_u64), Some(2));
        let doc = roundtrip(
            &mut watcher,
            &req(&[("op", s("query")), ("session", s("watched"))]),
        );
        assert_eq!(doc.get("rounds").and_then(Json::as_u64), Some(4));
        let _ = roundtrip(&mut driver, &req(&[("op", s("shutdown"))]));
        serve.join().unwrap().unwrap();
    }

    #[test]
    fn server_main_usage_contract() {
        let mut diag = Vec::new();
        assert_eq!(server_main(&["--bogus".to_string()], &mut diag), 2);
        assert_eq!(server_main(&["--port".to_string()], &mut diag), 2);
        assert_eq!(
            server_main(&["--port".to_string(), "abc".to_string()], &mut diag),
            2
        );
        let text = String::from_utf8(diag).unwrap();
        assert!(text.contains("unknown argument"));
        assert!(text.contains("invalid value for --port"));
    }
}
