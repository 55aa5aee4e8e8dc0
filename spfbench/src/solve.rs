//! The two solve workloads: repeated `shortest_path_tree` solves on one
//! large sparse-destination blob (`spt-sparse`) and repeated
//! `shortest_path_forest` solves with every amoebot a destination on a
//! small blob (`forest-dense`).
//!
//! A run builds its blobs, then solves a fixed seeded set of
//! source/destination queries in passes until the run length is spent.
//! Throughput is taken from each query's fastest solve. Every solve is
//! checked against BFS outside its timed region, and every repeat of a
//! query must reproduce its counts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use amoebot_circuits::{RoundReport, Topology, World};
use amoebot_grid::{multi_source_bfs, shapes, validate_forest, AmoebotStructure, Coord, NodeId};
use amoebot_scenarios::spec::derive_rng;
use amoebot_spf::forest::dnc::shortest_path_forest;
use amoebot_spf::links::LINKS;
use amoebot_spf::spt::shortest_path_tree;
use amoebot_telemetry::Stopwatch;
use rand::Rng;

use crate::ledger::{another_setup, median, timed, Outcome, Tracer};
use crate::Args;

/// A solve workload's shape.
pub struct Spec {
    pub name: &'static str,
    /// Amoebots per blob.
    pub n: usize,
    /// Blobs per run; query `i` runs on blob `i % blobs`. Several small
    /// blobs keep one seed's blob shapes from setting the whole run's
    /// cost.
    pub blobs: usize,
    /// Sources per solve; 1 runs the shortest path tree algorithm.
    pub sources: usize,
    /// Destinations per solve; `None` makes every amoebot a destination.
    pub dests: Option<usize>,
    /// The fixed query set every pass solves; the round counts and the
    /// determinism guard are taken over it.
    pub queries: usize,
}

/// ~59 rounds and ~3k beeps per solve: host time is the per-round
/// O(n) work in core, not the engine.
pub const SPT_SPARSE: Spec = Spec {
    name: "spt-sparse",
    n: 100_000,
    blobs: 1,
    sources: 1,
    dests: Some(8),
    queries: 2,
};

/// ~1.2k rounds per solve: the engine's reconfiguration work (region
/// relabels, PASC, merges) dominates, set-up is negligible.
pub const FOREST_DENSE: Spec = Spec {
    name: "forest-dense",
    n: 2_000,
    blobs: 8,
    sources: 8,
    dests: None,
    queries: 8,
};

/// Passes over the query set every run makes, whatever the run length.
const MIN_PASSES: usize = 2;

/// One solve's inputs.
struct Query {
    sources: Vec<NodeId>,
    dests: Vec<NodeId>,
}

/// What a solve returned, as far as the benchmark reads it.
struct Solved {
    parents: Vec<Option<NodeId>>,
    rounds: u64,
    beeps: u64,
    report: RoundReport,
}

/// The per-phase round counters each workload reports: `(metric suffix,
/// phase-label fragment)`. A phase's rounds go to every counter whose
/// fragment its label contains, so merge levels sum into `lemma55`.
const SPT_PHASES: [(&str, &str); 4] = [
    ("portal_x", "(x-axis)"),
    ("portal_y", "(y-axis)"),
    ("portal_z", "(z-axis)"),
    ("cleanup", "(cleanup)"),
];
const FOREST_PHASES: [(&str, &str); 7] = [
    ("lemma51", "Lemma 51"),
    ("lemma52", "Lemma 52"),
    ("lemma53", "Lemmas 35, 53"),
    ("lemma54", "Lemma 54"),
    ("lemma37", "Lemma 37"),
    ("lemma55", "Lemma 55"),
    ("cor57", "Corollary 57"),
];

fn phases(spec: &Spec) -> &'static [(&'static str, &'static str)] {
    if spec.sources == 1 {
        &SPT_PHASES
    } else {
        &FOREST_PHASES
    }
}

fn generate(spec: &Spec, seed: u64, blob: usize) -> Vec<Coord> {
    shapes::random_blob(spec.n, &mut derive_rng(seed, blob as u64))
}

/// The seeded query set: query `i` depends on `(seed, i)` only, so every
/// run of a seed solves the same queries.
fn query(spec: &Spec, seed: u64, i: usize) -> Query {
    let mut rng = derive_rng(seed, 1_000 + i as u64);
    let want = spec.sources + spec.dests.unwrap_or(0);
    let mut picks: Vec<u32> = Vec::with_capacity(want);
    while picks.len() < want {
        let v = rng.gen_range(0..spec.n as u32);
        if !picks.contains(&v) {
            picks.push(v);
        }
    }
    let sources = picks[..spec.sources].iter().map(|&v| NodeId(v)).collect();
    let dests = match spec.dests {
        Some(_) => picks[spec.sources..].iter().map(|&v| NodeId(v)).collect(),
        None => (0..spec.n as u32).map(NodeId).collect(),
    };
    Query { sources, dests }
}

fn solve(spec: &Spec, s: &AmoebotStructure, q: &Query) -> Solved {
    if spec.sources == 1 {
        let out = shortest_path_tree(s, q.sources[0], &q.dests);
        Solved {
            parents: out.parents,
            rounds: out.rounds,
            beeps: out.beeps,
            report: out.report,
        }
    } else {
        let out = shortest_path_forest(s, &q.sources, &q.dests);
        Solved {
            parents: out.parents,
            rounds: out.rounds,
            beeps: out.beeps,
            report: out.report,
        }
    }
}

/// Checks a solve against BFS: `validate_forest`, plus every forest
/// member's depth equal to its BFS distance from the source set.
fn check(s: &AmoebotStructure, q: &Query, parents: &[Option<NodeId>]) -> Result<(), String> {
    let violations = validate_forest(s, &q.sources, &q.dests, parents);
    if let Some(v) = violations.first() {
        return Err(format!("{} violations, first {v:?}", violations.len()));
    }
    let (dist, _) = multi_source_bfs(s, &q.sources);
    let mut depth: Vec<Option<u32>> = vec![None; s.len()];
    for src in &q.sources {
        depth[src.index()] = Some(0);
    }
    for v in 0..s.len() {
        // Walk up to the first node of known depth, then unwind.
        let mut chain = Vec::new();
        let mut at = v;
        while depth[at].is_none() {
            let Some(p) = parents[at] else { break };
            chain.push(at);
            at = p.index();
            if chain.len() > s.len() {
                return Err(format!("parent cycle through {v}"));
            }
        }
        let Some(mut d) = depth[at] else { continue };
        for &u in chain.iter().rev() {
            d += 1;
            depth[u] = Some(d);
        }
    }
    for d in &q.dests {
        if depth[d.index()].is_none() {
            return Err(format!("destination {} not in the forest", d.0));
        }
    }
    for v in 0..s.len() {
        if depth[v].is_some() && depth[v] != dist[v] {
            return Err(format!(
                "node {v}: forest depth {:?} but BFS distance {:?}",
                depth[v], dist[v]
            ));
        }
    }
    Ok(())
}

/// One checked solve.
struct Sample {
    micros: u64,
    rounds: u64,
    beeps: u64,
    /// Rounds per phase, in [`phases`] order.
    phase_rounds: Vec<u64>,
}

/// Solves query `i` and checks it outside the timed region. With a
/// tracer, the solve and the check each run inside a span. `None` if the
/// solve panicked.
fn solve_checked(
    spec: &Spec,
    args: &Args,
    blobs: &[AmoebotStructure],
    i: usize,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Option<Sample> {
    let s = &blobs[i % blobs.len()];
    let q = query(spec, args.seed, i);
    out.attempted += 1;
    let run = || catch_unwind(AssertUnwindSafe(|| solve(spec, s, &q)));
    let (solved, micros) = match tracer.as_deref_mut() {
        Some(t) => t.span("core.solve", |_| timed(run)),
        None => timed(run),
    };
    let Ok(solved) = solved else {
        out.fail(spec.name, args.seed, i, "solve panicked");
        return None;
    };
    let verdict = match tracer {
        Some(t) => t.span("check.validate", |_| check(s, &q, &solved.parents)),
        None => check(s, &q, &solved.parents),
    };
    if let Err(e) = verdict {
        out.fail(spec.name, args.seed, i, &e);
    }
    let phase_rounds = phases(spec)
        .iter()
        .map(|(_, frag)| {
            let report = solved.report.phases().iter();
            report
                .filter(|(label, _)| label.contains(frag))
                .map(|&(_, r)| r)
                .sum()
        })
        .collect();
    Some(Sample {
        micros,
        rounds: solved.rounds,
        beeps: solved.beeps,
        phase_rounds,
    })
}

/// One query's samples, one per pass.
type Passes = Vec<Sample>;

/// Solves the whole query set in passes, at least [`MIN_PASSES`], and
/// stops when another pass would overrun `budget_us`. Returns each
/// query's untraced and traced samples. A traced run solves each query
/// twice per pass, untraced and traced, in alternating order, so both
/// sides see the same queries under the same conditions. Every solve of a
/// query must agree on every count with its first.
fn solve_loop(
    spec: &Spec,
    args: &Args,
    blobs: &[AmoebotStructure],
    budget_us: u64,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Passes>, Vec<Passes>) {
    let clock = Stopwatch::start();
    let mut plain: Vec<Passes> = (0..spec.queries).map(|_| Vec::new()).collect();
    let mut traced: Vec<Passes> = (0..spec.queries).map(|_| Vec::new()).collect();
    let mut passes = 0;
    loop {
        for i in 0..spec.queries {
            match tracer.as_deref_mut() {
                None => plain[i].extend(solve_checked(spec, args, blobs, i, out, None)),
                Some(t) => {
                    if (passes + i) % 2 == 0 {
                        plain[i].extend(solve_checked(spec, args, blobs, i, out, None));
                        traced[i].extend(solve_checked(spec, args, blobs, i, out, Some(t)));
                    } else {
                        traced[i].extend(solve_checked(spec, args, blobs, i, out, Some(t)));
                        plain[i].extend(solve_checked(spec, args, blobs, i, out, None));
                    }
                }
            }
        }
        passes += 1;
        let spent = clock.micros();
        if passes >= MIN_PASSES && spent + spent / passes as u64 > budget_us {
            break;
        }
    }
    for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
        let key = |x: &Sample| (x.rounds, x.beeps, x.phase_rounds.clone());
        let mut keys = a.iter().chain(b).map(key);
        if let Some(first) = keys.next() {
            if keys.any(|k| k != first) {
                out.fail(spec.name, args.seed, i, "repeated solves of a query differ");
            }
        }
    }
    (plain, traced)
}

/// Host µs of one pass made of each query's fastest solve. Interference
/// from the rest of the machine only ever slows a solve down, so the
/// fastest of a query's repeats is its steadiest estimate.
fn best_pass_us(side: &[Passes]) -> u64 {
    side.iter()
        .filter_map(|q| q.iter().map(|x| x.micros).min())
        .sum()
}

fn mean(xs: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = xs.fold((0, 0), |(sum, n), x| (sum + x, n + 1));
    sum as f64 / n.max(1) as f64
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();

    let mut setup = Vec::new();
    let mut generate_us = Vec::new();
    let mut build_us = Vec::new();
    let mut blobs = Vec::new();
    let setup_clock = Stopwatch::start();
    while another_setup(setup.len(), setup_clock.micros()) {
        let (mut g, mut b) = (0, 0);
        blobs.clear();
        for blob in 0..spec.blobs {
            let (coords, us) = timed(|| generate(spec, args.seed, blob));
            g += us;
            let (built, us) = timed(|| AmoebotStructure::new(coords));
            b += us;
            match built {
                Ok(s) => blobs.push(s),
                Err(e) => {
                    out.attempted = 1;
                    out.fail(spec.name, args.seed, 0, &format!("blob {blob}: {e:?}"));
                    return out;
                }
            }
        }
        setup.push(g + b);
        generate_us.push(g);
        build_us.push(b);
    }

    let budget_us = args.seconds * 1_000_000;
    let trace = if args.trace { Some(&mut tracer) } else { None };
    let (plain, traced) = solve_loop(spec, args, &blobs, budget_us, &mut out, trace);
    let mut first = Vec::new();
    for (i, q) in plain.iter().enumerate() {
        let Some(x) = q.first() else { continue };
        out.count(format!("solve{i}.rounds"), x.rounds);
        out.count(format!("solve{i}.beeps"), x.beeps);
        for (label, r) in phases(spec).iter().zip(&x.phase_rounds) {
            out.count(format!("solve{i}.rounds.{}", label.0), *r);
        }
        first.push(x);
    }
    let plain_us = best_pass_us(&plain);

    if !args.trace {
        let micros: Vec<u64> = plain.iter().flatten().map(|x| x.micros).collect();
        out.metric("setup_s", median(&setup) / 1e6, "s");
        out.metric(
            "ops_per_s",
            first.len() as f64 / (plain_us as f64 / 1e6),
            "1/s",
        );
        out.metric(
            "rounds_per_op",
            mean(first.iter().map(|x| x.rounds)),
            "rounds",
        );
        println!(
            "{}: {} queries, {} solves, fastest pass {:.3} s, median solve {:.1} ms, {} set-ups",
            spec.name,
            first.len(),
            micros.len(),
            plain_us as f64 / 1e6,
            median(&micros) / 1e3,
            setup.len()
        );
        return out;
    }

    let (_, circuits_us) = timed(|| World::new(Topology::from_structure(&blobs[0]), LINKS));
    let solve_us = tracer.durations("core.solve");
    let rounds: u64 = traced.iter().flatten().map(|x| x.rounds).sum();
    let traced_us = best_pass_us(&traced);

    out.metric("grid.generate_s", median(&generate_us) / 1e6, "s");
    out.metric("grid.build_s", median(&build_us) / 1e6, "s");
    out.metric("circuits.build_ms", circuits_us as f64 / 1e3, "ms");
    out.metric("core.solve_s", median(&solve_us) / 1e6, "s");
    out.metric("core.rounds", rounds as f64, "rounds");
    out.metric(
        "core.us_per_round",
        solve_us.iter().sum::<u64>() as f64 / rounds.max(1) as f64,
        "us",
    );
    out.metric(
        "core.beeps_per_solve",
        mean(first.iter().map(|x| x.beeps)),
        "count",
    );
    for (j, (label, _)) in phases(spec).iter().enumerate() {
        let per_solve = first.iter().map(|x| x.phase_rounds[j]);
        out.metric(format!("core.rounds.{label}"), mean(per_solve), "rounds");
    }
    out.metric(
        "check.validate_ms",
        median(&tracer.durations("check.validate")) / 1e3,
        "ms",
    );
    out.metric(
        "bench.trace_overhead_pct",
        (traced_us as f64 - plain_us as f64) / plain_us.max(1) as f64 * 100.0,
        "%",
    );
    out.metric("bench.samples", solve_us.len() as f64, "count");
    crate::write_spans(args, &tracer);
    out
}
