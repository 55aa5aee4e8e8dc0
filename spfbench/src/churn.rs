//! `session-churn`: an in-process `Server` with one worker shard, served
//! over one loopback TCP connection with the server's frame codec. One
//! client runs a closed loop over four `blob-churn-broadcast` sessions
//! with a seeded mix of 70% `step`, 15% `mutate`, 10% `query` and 5%
//! `stats`. The run repeats the same schedule in epochs, each on a fresh
//! server, and every epoch must answer exactly as the first.
//!
//! After the timed requests every session takes one `mutate` with the
//! rebuild oracle and a final `query`. A twin of each session, driven
//! through the `Session` methods directly with the same requests, must
//! then produce the same final `query` body byte for byte. The traced run
//! also replays the requests on a bench-side mirror of the session (a
//! `DynamicWorld` plus its churn plan) to time the grid, dynamics and
//! circuits calls one by one.

use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};

use amoebot_circuits::{Topology, World};
use amoebot_dynamics::{
    verify_against_rebuild, ChurnFamily, ChurnPlan, DynamicWorld, ALL_CHURN_FAMILIES,
};
use amoebot_grid::{shapes, AmoebotStructure};
use amoebot_scenarios::json::Json;
use amoebot_scenarios::server::{
    read_frame, serve_connection, write_frame, Server, ServerConfig, Session,
};
use amoebot_scenarios::spec::{derive_rng, pick};
use amoebot_telemetry::{wire::fnv1a64, Stopwatch, TimedRecorder};
use rand::seq::SliceRandom;
use rand::RngCore;

use crate::ledger::{median, percentile, timed, Outcome, Tracer};
use crate::Args;

const WORKLOAD: &str = "session-churn";
/// One session per churn family.
const SESSIONS: usize = ALL_CHURN_FAMILIES.len();
const FAMILY: &str = "blob-churn-broadcast";
/// Amoebots per session at creation.
const SIZE: usize = 50_000;
/// Churn events per schedule: more than any run can apply, so `mutate`
/// never runs out.
const EVENTS: usize = 1_000_000;
/// Edits per churn event (the server's default).
const PER_EVENT: usize = 4;
/// Mixed requests per epoch. An epoch starts a fresh server, creates the
/// sessions and sends the same seeded requests every time, so its
/// requests repeat exactly from epoch to epoch.
const EPOCH: usize = 2_000;
/// Timed requests per epoch: the mixed ones, then one checkpoint `stats`
/// per session, which `rounds_per_op` and the determinism guard read.
const TIMED: usize = EPOCH + SESSIONS;
/// Epochs every run makes, whatever the run length.
const MIN_EPOCHS: usize = 3;
/// The session step's origin stride (`server.rs`'s `ORIGIN_STRIDE`).
const ORIGIN_STRIDE: usize = 0x9E3779B9;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Step,
    Mutate,
    Query,
    Stats,
    /// `mutate` with the rebuild oracle, sent once per session at the end.
    Verify,
}

impl Op {
    fn label(self) -> &'static str {
        match self {
            Op::Step => "step",
            Op::Mutate | Op::Verify => "mutate",
            Op::Query => "query",
            Op::Stats => "stats",
        }
    }

    /// The span names of this op as a client request and as the twin's
    /// direct call.
    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Op::Step => ("server.req.step", "session.step"),
            Op::Mutate | Op::Verify => ("server.req.mutate", "session.mutate"),
            Op::Query => ("server.req.query", "session.query"),
            Op::Stats => ("server.req.stats", "session.stats"),
        }
    }
}

/// The mix every session gets in each deck of requests: 70% step, 15%
/// mutate, 10% query, 5% stats.
const DECK: [(Op, usize); 4] = [
    (Op::Step, 70),
    (Op::Mutate, 15),
    (Op::Query, 10),
    (Op::Stats, 5),
];

/// The per-op latency metrics the traced run reports, by label.
const MIX: [&str; 4] = ["step", "mutate", "query", "stats"];

fn session_name(j: usize) -> String {
    format!("s{j}")
}

/// The churn family `Session::create` picks for a session seed.
fn family_of(session_seed: u64) -> ChurnFamily {
    *pick(&mut derive_rng(session_seed, 5), &ALL_CHURN_FAMILIES)
}

/// Session `j`'s seed: the first one drawn from `seed` whose churn family
/// is the `j`-th, so every run holds one session of each family and the
/// seed varies the structures and schedules, not the family mix.
fn session_seed(seed: u64, j: usize) -> u64 {
    let family = ALL_CHURN_FAMILIES[j];
    (0..)
        .map(|k| derive_rng(seed, 100 + k).next_u64())
        .find(|&s| family_of(s) == family)
        .expect("every family is drawn eventually")
}

fn request(j: usize, op: Op) -> Vec<u8> {
    let doc = Json::object()
        .field("op", op.label())
        .field("session", session_name(j).as_str());
    let doc = if op == Op::Verify {
        doc.field("verify", true)
    } else {
        doc
    };
    doc.render_compact().into_bytes()
}

/// The server under test, its connection thread and the client's socket.
struct Live {
    server: Server,
    conn: TcpStream,
    serve: JoinHandle<io::Result<bool>>,
}

impl Live {
    /// `Server::start`, one loopback connection, and `create` for every
    /// session.
    fn start(seed: u64) -> Result<Live, String> {
        let (server, _) = Server::start(ServerConfig {
            threads: 1,
            snapshot_dir: None,
        })
        .map_err(|e| format!("server start: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle();
        let serve = thread::spawn(move || {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut reader = stream.try_clone()?;
            let mut writer = stream;
            serve_connection(&mut reader, &mut writer, &handle)
        });
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let mut live = Live {
            server,
            conn,
            serve,
        };
        for j in 0..SESSIONS {
            let doc = Json::object()
                .field("op", "create")
                .field("session", session_name(j).as_str())
                .field("family", FAMILY)
                .field("size", SIZE)
                .field("seed", session_seed(seed, j))
                .field("events", EVENTS)
                .field("per_event", PER_EVENT);
            let reply = live.call(doc.render_compact().as_bytes())?;
            if reply_error(&reply).is_some() {
                return Err(format!(
                    "create failed: {}",
                    String::from_utf8_lossy(&reply)
                ));
            }
        }
        Ok(live)
    }

    /// One request/reply round trip.
    fn call(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        write_frame(&mut self.conn, frame).map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.conn) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Hangs up, joins the connection thread and stops the worker pool.
    fn stop(self) -> Result<(), String> {
        let _ = self.conn.shutdown(Shutdown::Both);
        drop(self.conn);
        match self.serve.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Err(format!("connection thread: {e}")),
            Err(_) => return Err("connection thread panicked".to_string()),
        }
        self.server.shutdown().map(|_| ())
    }
}

/// The failure a reply reports, if any: an error reply, or a `mutate`
/// that left a hole.
fn reply_error(reply: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(reply);
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return Some(format!("unparsable reply: {e}")),
    };
    if doc.get("ok").and_then(Json::as_bool) == Some(false) {
        return Some(format!("error reply: {text}"));
    }
    if doc.get("holes_ok").and_then(Json::as_bool) == Some(false) {
        return Some(format!("holes_ok:false: {text}"));
    }
    if doc.get("oracle_ok").and_then(Json::as_bool) == Some(false) {
        return Some(format!("oracle_ok:false: {text}"));
    }
    None
}

/// The seeded request sequence every epoch sends, as `(session, op)`:
/// [`EPOCH`] mixed requests, one checkpoint `stats` per session, then per
/// session one `mutate` with the rebuild oracle and a final `query`. The
/// first [`TIMED`] requests are timed.
///
/// The mixed requests are dealt from shuffled decks holding the [`DECK`]
/// mix for every session, so the seed orders the requests but does not
/// change how many of each kind a session gets.
fn schedule(seed: u64) -> Vec<(usize, Op)> {
    let mut rng = derive_rng(seed, 2);
    let mut log: Vec<(usize, Op)> = Vec::new();
    while log.len() < EPOCH {
        let mut deck: Vec<(usize, Op)> = (0..SESSIONS)
            .flat_map(|j| DECK.iter().flat_map(move |&(op, n)| vec![(j, op); n]))
            .collect();
        deck.shuffle(&mut rng);
        log.extend(deck);
    }
    log.truncate(EPOCH);
    log.extend((0..SESSIONS).map(|j| (j, Op::Stats)));
    log.extend((0..SESSIONS).flat_map(|j| [(j, Op::Verify), (j, Op::Query)]));
    log
}

/// What one epoch's server answered, and how fast.
struct Epoch {
    /// `Server::start` + connect + every `create`, µs.
    setup_us: u64,
    /// Client-observed µs of each timed request, in schedule order.
    micros: Vec<u64>,
    /// FNV-1a over the timed requests' replies: the determinism digest.
    digest: u64,
    /// The checkpoint `stats` replies, one per session.
    checkpoint: Vec<Json>,
    /// The final `query` replies, one per session.
    finals: Vec<Vec<u8>>,
}

/// Whether epoch `e` sends timed request `i` inside a span: in a traced
/// run every other request is traced, the other half in the next epoch,
/// so both sides sample every request and the same period.
fn traced_in(e: usize, i: usize) -> bool {
    (e + i) % 2 == 1
}

/// One epoch on a fresh server: starts it, sends the whole schedule and
/// stops it.
fn run_epoch(
    seed: u64,
    e: usize,
    schedule: &[(usize, Op)],
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<Epoch, String> {
    let (live, setup_us) = timed(|| Live::start(seed));
    let mut live = live?;
    let mut epoch = Epoch {
        setup_us,
        micros: Vec::with_capacity(TIMED),
        digest: 0,
        checkpoint: Vec::new(),
        finals: Vec::new(),
    };
    for (i, &(j, op)) in schedule.iter().enumerate() {
        let frame = request(j, op);
        let span = i < TIMED && traced_in(e, i);
        let (reply, us) = match tracer.as_deref_mut().filter(|_| span) {
            Some(t) => t.span(op.spans().0, |_| timed(|| live.call(&frame))),
            None => timed(|| live.call(&frame)),
        };
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                let _ = live.stop();
                return Err(e);
            }
        };
        out.attempted += 1;
        if let Some(e) = reply_error(&reply) {
            out.fail(WORKLOAD, seed, i, &e);
        }
        if i < TIMED {
            epoch.micros.push(us);
            epoch.digest = fnv1a64(&[epoch.digest.to_le_bytes().as_slice(), &reply].concat());
        }
        if (EPOCH..TIMED).contains(&i) {
            let text = String::from_utf8_lossy(&reply);
            epoch
                .checkpoint
                .push(Json::parse(&text).unwrap_or(Json::Null));
        }
        if i >= TIMED && op == Op::Query {
            epoch.finals.push(reply);
        }
    }
    live.stop()?;
    Ok(epoch)
}

/// Host µs of one epoch made of each timed request's fastest repeat among
/// the epochs `keep` selects. Interference from the rest of the machine
/// only ever slows a request down, so the fastest repeat is its steadiest
/// estimate.
fn best_epoch_us(epochs: &[Epoch], keep: impl Fn(usize, usize) -> bool) -> u64 {
    (0..TIMED)
        .filter_map(|i| {
            let repeats = epochs.iter().enumerate().filter(|&(e, _)| keep(e, i));
            repeats.map(|(_, ep)| ep.micros[i]).min()
        })
        .sum()
}

/// The request counters the server keeps per session (`query`'s
/// `uptime_requests` and `ops_by_kind`), tallied from what the client
/// sent. A directly driven `Session` bypasses the dispatch that counts
/// them, so its twin body takes these in their place.
fn counters(log: &[(usize, Op)], j: usize) -> (u64, Json) {
    let mut kinds = Json::object().field("create", 1u64);
    let mut total = 1u64;
    for kind in ["mutate", "query", "stats", "step"] {
        let n = log
            .iter()
            .filter(|&&(s, op)| s == j && op.label() == kind)
            .count() as u64;
        if n > 0 {
            kinds = kinds.field(kind, n);
        }
        total += n;
    }
    (total, kinds)
}

fn with_counters(body: Json, total: u64, kinds: &Json) -> Json {
    match body {
        Json::Object(fields) => Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "uptime_requests" => (k, Json::U64(total)),
                    "ops_by_kind" => (k, kinds.clone()),
                    _ => (k, v),
                })
                .collect(),
        ),
        other => other,
    }
}

/// Replays session `j`'s requests on a directly driven `Session` and
/// returns the body of its last `query`.
fn replay_session(
    seed: u64,
    j: usize,
    log: &[(usize, Op)],
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Option<Json> {
    let mut twin = match Session::create(
        &session_name(j),
        FAMILY,
        SIZE,
        session_seed(seed, j),
        EVENTS,
        PER_EVENT,
    ) {
        Ok(twin) => twin,
        Err(e) => {
            out.fail(WORKLOAD, seed, 0, &format!("twin create: {e}"));
            return None;
        }
    };
    let mut last_query = None;
    for (i, &(s, op)) in log.iter().enumerate() {
        if s != j {
            continue;
        }
        let mut apply = || -> Result<Option<Json>, String> {
            match op {
                Op::Step => twin.step(1).map(|_| None),
                Op::Mutate => twin.mutate(false).map(|_| None),
                Op::Verify => twin.mutate(true).map(|_| None),
                Op::Query => Ok(Some(twin.query(false))),
                Op::Stats => {
                    twin.stats();
                    Ok(None)
                }
            }
        };
        let result = match tracer.as_deref_mut() {
            Some(t) => t.span(op.spans().1, |_| apply()),
            None => apply(),
        };
        match result {
            Ok(Some(body)) => last_query = Some(body),
            Ok(None) => {}
            Err(e) => out.fail(WORKLOAD, seed, i, &format!("twin {}: {e}", op.label())),
        }
    }
    last_query
}

/// A bench-side mirror of one session: the same structure, churn plan and
/// origin stride as `Session`, with each layer call in its own span and
/// the engine ticked under the timing recorder.
struct Mirror {
    dw: DynamicWorld,
    plan: ChurnPlan,
    steps: u64,
    next_event: usize,
    ticks: u64,
}

impl Mirror {
    fn create(seed: u64, t: &mut Tracer) -> Result<Mirror, String> {
        let coords = t.span("grid.generate", |_| {
            shapes::random_blob(SIZE, &mut derive_rng(seed, 0))
        });
        let s = t
            .span("grid.build", |_| AmoebotStructure::new(coords))
            .map_err(|e| format!("mirror build: {e:?}"))?;
        t.span("circuits.build", |_| {
            World::new(Topology::from_structure(&s), 2)
        });
        let mut dw = DynamicWorld::new(&s, 2);
        for v in 0..SIZE {
            dw.world_mut().global_pin_config(v);
        }
        let family = family_of(seed);
        let schedule = derive_rng(seed, 6).next_u64();
        Ok(Mirror {
            dw,
            plan: ChurnPlan::new(schedule, family, EVENTS, PER_EVENT),
            steps: 0,
            next_event: 0,
            ticks: 0,
        })
    }

    fn apply(&mut self, op: Op, t: &mut Tracer) -> Result<(), String> {
        match op {
            Op::Step => {
                let live = self.dw.editor().live_ids();
                if live.is_empty() {
                    return Err("no live amoebots left".to_string());
                }
                let origin = live[(self.steps as usize).wrapping_mul(ORIGIN_STRIDE) % live.len()];
                t.span("circuits.tick", |_| {
                    self.dw.world_mut().beep(origin as usize, 0);
                    self.dw.world_mut().tick_with(&mut TimedRecorder);
                });
                self.steps += 1;
                self.ticks += 1;
            }
            Op::Mutate | Op::Verify => {
                let applied = t.span("dynamics.apply", |_| {
                    self.plan.apply(&mut self.dw, self.next_event)
                });
                for v in &applied.inserted {
                    self.dw.world_mut().global_pin_config(v.index());
                }
                self.next_event += 1;
                if !t.span("grid.revalidate", |_| self.dw.revalidate_edited_chunks()) {
                    return Err("revalidation found a hole".to_string());
                }
                if op == Op::Verify {
                    t.span("check.oracle", |_| verify_against_rebuild(&self.dw))?;
                }
            }
            Op::Query | Op::Stats => {
                t.span("circuits.count", |_| self.dw.world_mut().circuit_count());
            }
        }
        Ok(())
    }
}

fn ms_p(samples: &[u64], p: u64) -> f64 {
    percentile(samples, p) as f64 / 1e3
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let fail_at = |out: &mut Outcome, what: &str| {
        out.attempted = out.attempted.max(1);
        out.fail(WORKLOAD, args.seed, 0, what);
    };

    let log = schedule(args.seed);
    let budget_us = args.seconds * 1_000_000;
    let clock = Stopwatch::start();
    let mut epochs: Vec<Epoch> = Vec::new();
    loop {
        let e = epochs.len();
        let trace = if args.trace { Some(&mut tracer) } else { None };
        match run_epoch(args.seed, e, &log, &mut out, trace) {
            Ok(epoch) => epochs.push(epoch),
            Err(e) => {
                fail_at(&mut out, &e);
                return out;
            }
        }
        let spent = clock.micros();
        if epochs.len() >= MIN_EPOCHS && spent + spent / epochs.len() as u64 > budget_us {
            break;
        }
    }
    let first = &epochs[0];
    for (e, epoch) in epochs.iter().enumerate().skip(1) {
        let same = epoch.digest == first.digest
            && epoch.checkpoint == first.checkpoint
            && epoch.finals == first.finals;
        if !same {
            let what = format!("epoch {e} answered differently from epoch 0");
            out.fail(WORKLOAD, args.seed, 0, &what);
        }
    }
    let setup: Vec<u64> = epochs.iter().map(|ep| ep.setup_us).collect();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (e, epoch) in epochs.iter().enumerate() {
        for (i, &us) in epoch.micros.iter().enumerate() {
            if args.trace && traced_in(e, i) {
                traced.push(us);
            } else {
                plain.push(us);
            }
        }
    }
    let plain_us = best_epoch_us(&epochs, |e, i| !(args.trace && traced_in(e, i)));

    // The determinism guard's counts: the timed replies' digest and the
    // checkpoint `stats` of every session.
    out.count("epoch.digest", first.digest);
    let mut checkpoint_rounds = 0;
    for (j, doc) in first.checkpoint.iter().enumerate() {
        let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        let relabel = |key: &str| {
            doc.get("relabels")
                .and_then(|r| r.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        checkpoint_rounds += num("rounds");
        out.count(format!("s{j}.rounds"), num("rounds"));
        out.count(format!("s{j}.beeps"), num("beeps"));
        out.count(format!("s{j}.live_nodes"), num("n"));
        out.count(format!("s{j}.circuits"), num("circuits"));
        out.count(format!("s{j}.relabel_global"), relabel("relabel_global"));
        out.count(format!("s{j}.relabel_region"), relabel("relabel_region"));
    }

    // Twin check: each session's final query body, byte for byte.
    let mut twin_bodies = Vec::new();
    for j in 0..SESSIONS {
        let trace = if args.trace { Some(&mut tracer) } else { None };
        let body = replay_session(args.seed, j, &log, &mut out, trace);
        let (total, kinds) = counters(&log, j);
        let expected = body.map(|b| with_counters(b, total, &kinds));
        let rendered = expected.as_ref().map(Json::render_compact);
        if rendered.as_deref().map(str::as_bytes) != first.finals.get(j).map(Vec::as_slice) {
            let at = log.len() - SESSIONS * 2 + 2 * j + 1;
            out.fail(
                WORKLOAD,
                args.seed,
                at,
                "final query differs from the twin's",
            );
        }
        twin_bodies.push(expected);
    }

    if !args.trace {
        out.metric("setup_s", median(&setup) / 1e6, "s");
        out.metric("ops_per_s", TIMED as f64 / (plain_us as f64 / 1e6), "1/s");
        out.metric(
            "rounds_per_op",
            checkpoint_rounds as f64 / TIMED as f64,
            "rounds",
        );
        println!(
            "{WORKLOAD}: {} epochs of {TIMED} timed requests, fastest epoch {:.3} s, \
             median {:.3} ms, p99 {:.3} ms",
            epochs.len(),
            plain_us as f64 / 1e6,
            median(&plain) / 1e3,
            ms_p(&plain, 99),
        );
        return out;
    }

    // Traced run: replay every session on its mirror.
    let mut global = 0;
    let mut region = 0;
    let mut ticks = 0;
    let mut live_nodes = 0;
    let mut phase_us = [0u64; 5];
    const PHASES: [(&str, &str); 5] = [
        ("propagate", "phase_propagate_micros"),
        ("region_dissolve", "phase_region_dissolve_micros"),
        ("region_reunion", "phase_region_reunion_micros"),
        ("membership_repack", "phase_membership_repack_micros"),
        ("global_relabel", "phase_global_relabel_micros"),
    ];
    for (j, twin) in twin_bodies.iter().enumerate() {
        let mut mirror = match Mirror::create(session_seed(args.seed, j), &mut tracer) {
            Ok(m) => m,
            Err(e) => {
                fail_at(&mut out, &e);
                continue;
            }
        };
        for (i, &(s, op)) in log.iter().enumerate() {
            if s != j {
                continue;
            }
            if let Err(e) = mirror.apply(op, &mut tracer) {
                let what = format!("mirror {}: {e}", op.label());
                out.fail(WORKLOAD, args.seed, i, &what);
            }
        }
        let circuits = mirror.dw.world_mut().circuit_count() as u64;
        let w = mirror.dw.world();
        let seen = (w.rounds(), w.beeps_sent(), mirror.dw.len() as u64, circuits);
        let expected = twin.as_ref().map(|doc| {
            let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
            (num("rounds"), num("beeps"), num("n"), num("circuits"))
        });
        if expected != Some(seen) {
            let what = format!("mirror of s{j} diverged from its twin");
            out.fail(WORKLOAD, args.seed, 0, &what);
        }
        global += w.global_relabels();
        region += w.region_relabels();
        ticks += mirror.ticks;
        live_nodes += mirror.dw.len() as u64;
        for (k, (_, timer)) in PHASES.iter().enumerate() {
            phase_us[k] += w.metrics().timer_summary(timer).sum;
        }
    }

    let sum = |name: &str| tracer.durations(name).iter().sum::<u64>();
    out.metric("grid.generate_s", sum("grid.generate") as f64 / 1e6, "s");
    out.metric("grid.build_s", sum("grid.build") as f64 / 1e6, "s");
    out.metric(
        "grid.revalidate_ms.p50",
        median(&tracer.durations("grid.revalidate")) / 1e3,
        "ms",
    );
    out.metric(
        "circuits.build_ms",
        sum("circuits.build") as f64 / 1e3,
        "ms",
    );
    let tick = tracer.durations("circuits.tick");
    out.metric("circuits.tick_ms.p50", median(&tick) / 1e3, "ms");
    out.metric("circuits.tick_ms.p99", ms_p(&tick, 99), "ms");
    out.metric(
        "circuits.count_ms.p99",
        ms_p(&tracer.durations("circuits.count"), 99),
        "ms",
    );
    out.metric("circuits.relabel_global", global as f64, "count");
    out.metric("circuits.relabel_region", region as f64, "count");
    for (k, (label, _)) in PHASES.iter().enumerate() {
        out.metric(
            format!("circuits.phase_us.{label}"),
            phase_us[k] as f64 / ticks.max(1) as f64,
            "us",
        );
    }
    out.metric(
        "dynamics.apply_ms.p50",
        median(&tracer.durations("dynamics.apply")) / 1e3,
        "ms",
    );
    out.metric("dynamics.live_nodes", live_nodes as f64, "count");
    let all: Vec<u64> = plain.iter().chain(&traced).copied().collect();
    out.metric("server.req_ms.p50", median(&all) / 1e3, "ms");
    out.metric("server.req_ms.p99", ms_p(&all, 99), "ms");
    for kind in MIX {
        let req = tracer.durations(&format!("server.req.{kind}"));
        let session = tracer.durations(&format!("session.{kind}"));
        out.metric(
            format!("server.req_ms.{kind}.p50"),
            median(&req) / 1e3,
            "ms",
        );
        out.metric(
            format!("server.session_ms.{kind}.p50"),
            median(&session) / 1e3,
            "ms",
        );
    }
    out.metric(
        "check.oracle_ms",
        median(&tracer.durations("check.oracle")) / 1e3,
        "ms",
    );
    let (p, t) = (median(&plain), median(&traced));
    out.metric(
        "bench.trace_overhead_pct",
        (t - p) / p.max(1.0) * 100.0,
        "%",
    );
    out.metric(
        "bench.samples",
        (plain.len() + traced.len()) as f64,
        "count",
    );
    crate::write_spans(args, &tracer);
    out
}
