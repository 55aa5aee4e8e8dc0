//! Scenario execution and cross-validation.
//!
//! [`run_scenario`] materializes a [`Scenario`], runs its algorithm in a
//! private [`World`] and — crucially — **cross-validates every distributed
//! result against a centralized baseline**: forests are checked with
//! [`amoebot_grid::validate_forest`] (which compares tree depths against
//! multi-source BFS distances), PASC values against centrally computed
//! prefix sums, primitives against the paper's counting invariants. A
//! scenario passes only if every check passes.

use std::time::Instant;

use amoebot_circuits::{leader, Topology, World};
use amoebot_grid::{multi_source_bfs, shapes, validate_forest, AmoebotStructure, NodeId};
use amoebot_pasc::{chain_specs, tree_specs, PascRun};
use amoebot_spf::forest::{line_forest, shortest_path_forest};
use amoebot_spf::links::{FWD_PRIMARY, FWD_SECONDARY, LINKS, SYNC};
use amoebot_spf::primitives::{centroid_decomposition, elect, q_centroids, root_and_prune};
use amoebot_spf::spt::shortest_path_tree;
use amoebot_spf::Tree;
use amoebot_telemetry::{Metrics, NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::driver::{drive, Driver, Kind};
use crate::spec::{derive_rng, MicroWorkload, Scenario, StructureAlgorithm, Workload};

/// One validation check's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Check name, e.g. `"forest-valid"`.
    pub name: String,
    /// Whether the check passed.
    pub pass: bool,
    /// Failure detail (empty when passing).
    pub detail: String,
}

impl CheckResult {
    pub(crate) fn pass(name: &str) -> CheckResult {
        CheckResult {
            name: name.to_string(),
            pass: true,
            detail: String::new(),
        }
    }

    pub(crate) fn fail(name: &str, detail: String) -> CheckResult {
        CheckResult {
            name: name.to_string(),
            pass: false,
            detail,
        }
    }

    pub(crate) fn from_bool(name: &str, ok: bool, detail: impl FnOnce() -> String) -> CheckResult {
        if ok {
            CheckResult::pass(name)
        } else {
            CheckResult::fail(name, detail())
        }
    }
}

/// The measured outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Registry family.
    pub family: String,
    /// Scenario name.
    pub name: String,
    /// Scenario seed.
    pub seed: u64,
    /// Problem size (`n`: amoebots / world nodes).
    pub n: usize,
    /// Number of sources / `|Q|` (1 where not applicable).
    pub k: usize,
    /// Number of destinations (0 where not applicable).
    pub l: usize,
    /// Simulator rounds consumed.
    pub rounds: u64,
    /// Distinct beeps sent (0 for circuit-less baselines).
    pub beeps: u64,
    /// Wall-clock time of the run, in microseconds. Excluded from
    /// canonical reports (timing is inherently non-deterministic).
    pub wall_micros: u64,
    /// Every validation check executed for this scenario.
    pub checks: Vec<CheckResult>,
    /// Whether all checks passed.
    pub pass: bool,
    /// Engine telemetry accumulated by the run: relabel counters, SPT
    /// restart totals and — when the run was driven with a timing
    /// recorder — per-phase timers. Empty for workloads that own no
    /// instrumented world.
    pub metrics: Metrics,
}

/// Runs one scenario start to finish: materialize, execute, cross-validate.
pub fn run_scenario(scenario: &Scenario) -> ScenarioResult {
    run_scenario_with(scenario, &mut NullRecorder)
}

/// [`run_scenario`] with an explicit [`Recorder`] driving the engine's
/// instrumentation: a timing recorder populates the result's phase
/// timers, a trace recorder captures a replayable round trace. Event
/// recording covers the micro workloads that own a circuit world end to
/// end (the blob broadcast families); structure workloads run their
/// algorithm-internal simulators and ignore the recorder's trace side.
pub fn run_scenario_with<R: Recorder>(scenario: &Scenario, rec: &mut R) -> ScenarioResult {
    // spf-lint: allow(wall-clock) — feeds `elapsed`, which --no-timing strips from canonical reports
    let start = Instant::now();
    let mut outcome = match &scenario.workload {
        Workload::Structure {
            structure,
            sources,
            dests,
            algorithm,
        } => {
            let s = structure.materialize(&mut derive_rng(scenario.seed, 0));
            let src = sources.materialize(&s, &mut derive_rng(scenario.seed, 1));
            let dst = dests.materialize(&s, &mut derive_rng(scenario.seed, 2));
            run_structure_workload(&s, &src, &dst, *algorithm)
        }
        Workload::Micro(micro) => run_micro(*micro, scenario.seed, rec),
    };
    outcome.wall_micros = start.elapsed().as_micros() as u64;
    outcome.family = scenario.family.clone();
    outcome.name = scenario.name.clone();
    outcome.seed = scenario.seed;
    outcome
}

pub(crate) fn blank_result() -> ScenarioResult {
    ScenarioResult {
        family: String::new(),
        name: String::new(),
        seed: 0,
        n: 0,
        k: 1,
        l: 0,
        rounds: 0,
        beeps: 0,
        wall_micros: 0,
        checks: Vec::new(),
        pass: false,
        metrics: Metrics::new(),
    }
}

/// Cross-validates a parent forest against the centralized BFS ground
/// truth. `validate_forest` checks all five §1.3 properties, including that
/// every member's tree depth equals its multi-source BFS distance — this is
/// the "distributed result vs centralized baseline" check.
pub fn check_forest(
    structure: &AmoebotStructure,
    sources: &[NodeId],
    dests: &[NodeId],
    parents: &[Option<NodeId>],
) -> Vec<CheckResult> {
    let violations = validate_forest(structure, sources, dests, parents);
    let forest_ok = CheckResult::from_bool("forest-valid", violations.is_empty(), || {
        let mut msgs: Vec<String> = violations.iter().take(3).map(|v| v.to_string()).collect();
        if violations.len() > 3 {
            msgs.push(format!("... and {} more", violations.len() - 3));
        }
        msgs.join("; ")
    });
    // Make the BFS agreement explicit: every source-reachable node that the
    // forest covers sits at its exact BFS distance (already implied by
    // property 5, but reported separately so JSON consumers see the
    // centralized cross-check by name).
    let (dist, _) = multi_source_bfs(structure, sources);
    let mut bad = 0usize;
    for v in structure.nodes() {
        let mut depth = 0u32;
        let mut cur = v;
        let covered = sources.contains(&v) || parents[v.index()].is_some();
        if !covered {
            continue;
        }
        let mut steps = 0usize;
        while let Some(p) = parents[cur.index()] {
            depth += 1;
            cur = p;
            steps += 1;
            if steps > structure.len() {
                bad += 1; // cycle; already reported by validate_forest
                break;
            }
        }
        if Some(depth) != dist[v.index()] {
            bad += 1;
        }
    }
    let bfs_ok = CheckResult::from_bool("bfs-distances-agree", bad == 0, || {
        format!("{bad} nodes disagree with multi-source BFS distances")
    });
    vec![forest_ok, bfs_ok]
}

/// Runs a structure algorithm on an already-materialized structure with
/// explicit terminal sets, returning the measured, cross-validated result.
/// This is the execution path behind [`run_scenario`]'s structure
/// workloads; the benchmark harness calls it directly so Criterion benches
/// and scenario batches exercise exactly the same code.
pub fn run_structure_workload(
    structure: &AmoebotStructure,
    sources: &[NodeId],
    dests: &[NodeId],
    algorithm: StructureAlgorithm,
) -> ScenarioResult {
    let (mut r, parents, val_sources, val_dests) =
        execute_structure(structure, sources, dests, algorithm);
    r.checks = check_forest(structure, &val_sources, &val_dests, &parents);
    r.pass = r.checks.iter().all(|c| c.pass);
    r
}

/// Runs a structure algorithm **without** the centralized
/// cross-validation, returning only the round count. For wall-clock
/// benchmarks: validation is O(n)-ish centralized work that would
/// otherwise be timed inside the benchmark loop and skew comparisons
/// against cheap baselines. Correctness still gets checked — benches
/// call the validating sibling once outside the timed loop.
pub fn measure_structure_rounds(
    structure: &AmoebotStructure,
    sources: &[NodeId],
    dests: &[NodeId],
    algorithm: StructureAlgorithm,
) -> u64 {
    execute_structure(structure, sources, dests, algorithm)
        .0
        .rounds
}

/// Executes the algorithm and returns the measurements plus everything
/// validation needs (parents and the effective terminal sets).
fn execute_structure(
    structure: &AmoebotStructure,
    sources: &[NodeId],
    dests: &[NodeId],
    algorithm: StructureAlgorithm,
) -> (
    ScenarioResult,
    Vec<Option<NodeId>>,
    Vec<NodeId>,
    Vec<NodeId>,
) {
    let mut r = blank_result();
    r.n = structure.len();
    r.k = sources.len();
    r.l = dests.len();
    let all = || -> Vec<NodeId> { structure.nodes().collect() };
    let (parents, val_sources, val_dests) = match algorithm {
        StructureAlgorithm::Forest => {
            let out = shortest_path_forest(structure, sources, dests);
            r.rounds = out.rounds;
            r.beeps = out.beeps;
            (out.parents, sources.to_vec(), dests.to_vec())
        }
        StructureAlgorithm::Spt => {
            let source = sources[0];
            let out = shortest_path_tree(structure, source, dests);
            r.k = 1;
            r.rounds = out.rounds;
            r.beeps = out.beeps;
            (out.parents, vec![source], dests.to_vec())
        }
        StructureAlgorithm::LineForest => {
            // The chain follows node-id order; Line structures are generated
            // in +x order, so consecutive ids are adjacent.
            let n = structure.len();
            let mut world = World::new(Topology::from_structure(structure), LINKS);
            let chain: Vec<usize> = (0..n).collect();
            let mut is_source = vec![false; n];
            for s in sources {
                is_source[s.index()] = true;
            }
            let forest = line_forest(&mut world, &chain, &is_source);
            r.rounds = world.rounds();
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            let parents: Vec<Option<NodeId>> = forest
                .parents
                .iter()
                .map(|p| p.map(|v| NodeId(v as u32)))
                .collect();
            r.l = n;
            (parents, sources.to_vec(), all())
        }
        StructureAlgorithm::Wavefront => {
            let out = amoebot_baselines::bfs_wavefront(structure, sources);
            r.rounds = out.rounds;
            r.beeps = out.beeps;
            r.l = structure.len();
            (out.parents, sources.to_vec(), all())
        }
        StructureAlgorithm::SequentialForest => {
            let out = amoebot_baselines::sequential_forest(structure, sources);
            r.rounds = out.rounds;
            r.beeps = out.beeps;
            r.l = structure.len();
            (out.parents, sources.to_vec(), all())
        }
    };
    (r, parents, val_sources, val_dests)
}

/// A path world with `n` nodes and the standard link count.
pub fn path_world(n: usize) -> World {
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    World::new(Topology::from_edges(n, &edges), LINKS)
}

/// A deterministic random tree over `n` nodes (each node attaches to a
/// random earlier node) plus a `Q` of the given size.
pub fn random_tree_and_q(n: usize, q_size: usize, rng: &mut StdRng) -> (World, Tree, Vec<bool>) {
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (rng.gen_range(0..v), v)).collect();
    let world = World::new(Topology::from_edges(n, &edges), LINKS);
    let tree = Tree::from_edges(n, 0, &edges);
    let mut q = vec![false; n];
    for i in shapes::random_subset(n, q_size.min(n), rng) {
        q[i] = true;
    }
    (world, tree, q)
}

fn run_micro<R: Recorder>(micro: MicroWorkload, seed: u64, rec: &mut R) -> ScenarioResult {
    let mut r = blank_result();
    match micro {
        MicroWorkload::PascChain { m } => {
            let mut world = path_world(m);
            let nodes: Vec<usize> = (0..m).collect();
            let specs = chain_specs(world.topology(), &nodes, FWD_PRIMARY, FWD_SECONDARY, None);
            let mut run = PascRun::new(&mut world, specs, SYNC);
            let values = run.run_to_completion(&mut world);
            r.n = m;
            r.rounds = world.rounds();
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            let ok = values.iter().enumerate().all(|(i, &v)| v == i as u64);
            r.checks = vec![CheckResult::from_bool(
                "pasc-values-are-distances",
                ok,
                || "chain PASC values disagree with positions".to_string(),
            )];
        }
        MicroWorkload::PascTree { levels } => {
            let n = (1usize << levels) - 1;
            let edges: Vec<(usize, usize)> = (1..n).map(|v| ((v - 1) / 2, v)).collect();
            let mut world = World::new(Topology::from_edges(n, &edges), LINKS);
            let parent: Vec<Option<usize>> = (0..n).map(|v| (v > 0).then(|| (v - 1) / 2)).collect();
            let participates = vec![true; n];
            let (specs, instance_of) = tree_specs(
                world.topology(),
                &parent,
                &participates,
                FWD_PRIMARY,
                FWD_SECONDARY,
            );
            let mut run = PascRun::new(&mut world, specs, SYNC);
            let values = run.run_to_completion(&mut world);
            r.n = n;
            r.rounds = world.rounds();
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            // Centralized ground truth: depth in the balanced binary tree.
            let mut bad = 0usize;
            for v in 0..n {
                let mut depth = 0u64;
                let mut cur = v;
                while let Some(p) = parent[cur] {
                    depth += 1;
                    cur = p;
                }
                if values[instance_of[v]] != depth {
                    bad += 1;
                }
            }
            r.checks = vec![CheckResult::from_bool(
                "pasc-values-are-depths",
                bad == 0,
                || format!("{bad} nodes disagree with central depths"),
            )];
        }
        MicroWorkload::PascPrefix { m, weights } => {
            let mut world = path_world(m);
            let nodes: Vec<usize> = (0..m).collect();
            let w: Vec<bool> = (0..m)
                .map(|i| weights > 0 && i % m.div_ceil(weights).max(1) == 0)
                .collect();
            let specs = chain_specs(
                world.topology(),
                &nodes,
                FWD_PRIMARY,
                FWD_SECONDARY,
                Some(&w),
            );
            let mut run = PascRun::new(&mut world, specs, SYNC);
            let values = run.run_to_completion(&mut world);
            r.n = m;
            r.k = w.iter().filter(|&&b| b).count().max(1);
            r.rounds = world.rounds();
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            // Centralized ground truth: inclusive weighted prefix sums.
            let mut acc = 0u64;
            let mut bad = 0usize;
            for i in 0..m {
                if w[i] {
                    acc += 1;
                }
                if values[i] != acc {
                    bad += 1;
                }
            }
            r.checks = vec![CheckResult::from_bool(
                "pasc-values-are-prefix-sums",
                bad == 0,
                || format!("{bad} positions disagree with central prefix sums"),
            )];
        }
        MicroWorkload::RootPrune { n, q } | MicroWorkload::Augmentation { n, q } => {
            let mut rng = derive_rng(seed, 0);
            let (mut world, tree, qs) = random_tree_and_q(n, q.max(1), &mut rng);
            let rp = root_and_prune(&mut world, std::slice::from_ref(&tree), |v| qs[v]);
            r.n = n;
            r.k = qs.iter().filter(|&&b| b).count();
            r.rounds = world.rounds();
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            // Corollary 29: |A_Q| <= |Q| - 1.
            let a = rp.augmentation_set(std::slice::from_ref(&tree)).len();
            r.checks = vec![
                CheckResult::from_bool("augmentation-bound", a < r.k.max(1), || {
                    format!("|A_Q| = {a} exceeds |Q| - 1 = {}", r.k.saturating_sub(1))
                }),
                // Corollary 15: the root counts |Q| exactly.
                CheckResult::from_bool(
                    "root-counts-q",
                    rp.q_count.first().copied() == Some(r.k as u64),
                    || format!("root counted {:?}, |Q| = {}", rp.q_count.first(), r.k),
                ),
            ];
        }
        MicroWorkload::Election { n, q } => {
            let mut rng = derive_rng(seed, 0);
            let (mut world, tree, qs) = random_tree_and_q(n, q.max(1), &mut rng);
            let before = world.rounds();
            let winners = elect(&mut world, std::slice::from_ref(&tree), |v| qs[v]);
            r.n = n;
            r.k = qs.iter().filter(|&&b| b).count();
            r.rounds = world.rounds() - before;
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            // The winner exists and is a member of Q.
            let ok = matches!(winners.first(), Some(Some(w)) if qs[*w]);
            r.checks = vec![CheckResult::from_bool("winner-in-q", ok, || {
                format!("election winner {:?} not in Q", winners.first())
            })];
        }
        MicroWorkload::Centroids { n, q } => {
            let mut rng = derive_rng(seed, 0);
            let (mut world, tree, qs) = random_tree_and_q(n, q.max(1), &mut rng);
            let out = q_centroids(&mut world, std::slice::from_ref(&tree), &qs);
            r.n = n;
            r.k = qs.iter().filter(|&&b| b).count();
            r.rounds = world.rounds();
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            // Cross-validate against the centralized definition: a Q node is
            // a Q-centroid iff every component of T - u holds at most |Q|/2
            // of Q.
            let total = r.k;
            let mut bad = 0usize;
            for u in 0..n {
                let expect = qs[u] && {
                    tree.adj(u).all(|start| {
                        let mut seen = vec![false; n];
                        seen[u] = true;
                        seen[start] = true;
                        let mut stack = vec![start];
                        let mut cnt = usize::from(qs[start]);
                        while let Some(v) = stack.pop() {
                            for w in tree.adj(v) {
                                if !seen[w] {
                                    seen[w] = true;
                                    cnt += usize::from(qs[w]);
                                    stack.push(w);
                                }
                            }
                        }
                        2 * cnt <= total
                    })
                };
                if out.is_centroid[u] != expect {
                    bad += 1;
                }
            }
            r.checks = vec![CheckResult::from_bool(
                "centroids-match-reference",
                bad == 0,
                || format!("{bad} nodes disagree with the centralized Q-centroid definition"),
            )];
        }
        MicroWorkload::Decomposition { n, q } => {
            let mut rng = derive_rng(seed, 0);
            let (mut world, tree, qs) = random_tree_and_q(n, q.max(1), &mut rng);
            let rp = root_and_prune(&mut world, std::slice::from_ref(&tree), |v| qs[v]);
            let mut qp = qs.clone();
            for v in rp.augmentation_set(std::slice::from_ref(&tree)) {
                qp[v] = true;
            }
            let before = world.rounds();
            let d = centroid_decomposition(&mut world, &tree, &qp);
            r.n = n;
            r.k = qs.iter().filter(|&&b| b).count();
            r.rounds = world.rounds() - before;
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            // Lemma 31: the decomposition depth is O(log |Q'|); with the
            // exact halving argument it is at most log2(|Q'|) + 1.
            let qp_size = qp.iter().filter(|&&b| b).count();
            let bound = 64 - (qp_size as u64).leading_zeros() + 2;
            r.checks = vec![CheckResult::from_bool(
                "decomposition-depth",
                d.levels <= bound,
                || format!("{} levels exceeds bound {bound}", d.levels),
            )];
        }
        MicroWorkload::Driven {
            kind,
            n,
            events,
            per_event,
        } => match Driver::new(kind, n, seed, events, per_event) {
            Ok(mut d) => r = drive(&mut d, rec),
            Err(e) => r.checks = vec![CheckResult::fail("driver-build", e)],
        },
        MicroWorkload::LineChurnSpt {
            n,
            events,
            per_event,
        } => {
            use amoebot_dynamics::{ChurnFamily, ChurnPlan, DynamicWorld};
            use amoebot_spf::churn::{remap_terminals, restart_spt, RestartCounter};
            let s = AmoebotStructure::new(shapes::line(n)).expect("lines are connected");
            let mut dw = DynamicWorld::new(&s, 1);
            let mut p = derive_rng(seed, 5);
            let l = p.gen_range(1..=8usize).min(n);
            // Terminals live in the editor's stable id space. A terminal
            // whose amoebot leaves is a casualty (dropped / re-anchored
            // by the restart hook); if churn later recycles the id, the
            // replacement amoebot takes over the terminal role — a
            // deterministic, documented policy.
            let source_old = NodeId(p.gen_range(0..n as u32));
            let dests_old: Vec<NodeId> = shapes::random_subset(n, l, &mut p)
                .into_iter()
                .map(|i| NodeId(i as u32))
                .collect();
            let schedule_seed = derive_rng(seed, 6).next_u64();
            let plan = ChurnPlan::new(schedule_seed, ChurnFamily::GrowShrink, events, per_event);
            let mut counter = RestartCounter::default();
            let mut fail: Option<String> = None;
            let mut holes_fail: Option<String> = None;
            for e in 0..events {
                plan.apply(&mut dw, e);
                if holes_fail.is_none() && !dw.revalidate_edited_chunks() {
                    holes_fail = Some(format!(
                        "churn schedule seed={schedule_seed} event=#{e}: \
                         scoped hole revalidation failed"
                    ));
                }
                let (snapshot, map) = dw.editor().snapshot();
                let source = map[source_old.index()];
                let dests = remap_terminals(&map, &dests_old);
                // Restart hook: re-run the SPT on the post-churn
                // snapshot, then cross-validate against centralized BFS.
                let restart = restart_spt(&snapshot, source, &dests, &mut counter);
                if fail.is_none() {
                    let violations = validate_forest(
                        &snapshot,
                        std::slice::from_ref(&restart.source),
                        &restart.dests,
                        &restart.outcome.parents,
                    );
                    if let Some(first) = violations.first() {
                        fail = Some(format!(
                            "churn schedule seed={schedule_seed} event=#{e}: {first}{}",
                            if violations.len() > 1 {
                                format!(" (+{} more)", violations.len() - 1)
                            } else {
                                String::new()
                            }
                        ));
                    }
                }
            }
            r.n = n;
            r.k = events;
            r.l = l;
            r.rounds = counter.rounds();
            r.beeps = counter.beeps();
            r.metrics.merge(counter.metrics());
            let ok = fail.is_none();
            let holes_ok = holes_fail.is_none();
            r.checks = vec![
                CheckResult::from_bool("churn-chunks-hole-free", holes_ok, || {
                    holes_fail.unwrap_or_default()
                }),
                CheckResult::from_bool("churn-spt-forest-valid", ok, || fail.unwrap_or_default()),
            ];
        }
        MicroWorkload::AdversarySelfTestFail => {
            // Fixed parameters, sabotage on: the repair sweep is skipped
            // and a cutting stuck pin survives the burst, so the
            // re-convergence checker must fail with the seeded FAIL line.
            match Driver::new(Kind::StuckLine, 12, 0, 2, 1) {
                Ok(d) => r = drive(&mut d.sabotaged(), rec),
                Err(e) => r.checks = vec![CheckResult::fail("driver-build", e)],
            }
        }
        MicroWorkload::SelfTestFail => {
            r.n = 1;
            r.checks = vec![CheckResult::fail(
                "selftest",
                "intentional failure (exercises the runner's non-zero exit path)".to_string(),
            )];
        }
        MicroWorkload::Leader { n } => {
            let mut rng = derive_rng(seed, 0);
            let mut world = path_world(n);
            let result = leader::elect_leader(&mut world, &mut rng);
            r.n = n;
            r.rounds = result.rounds;
            r.beeps = world.beeps_sent();
            r.metrics.merge(world.metrics());
            r.checks = vec![
                CheckResult::from_bool(
                    "candidates-nonempty",
                    !result.candidates.is_empty(),
                    || "candidate set became empty".to_string(),
                ),
                CheckResult::from_bool("leader-unique", result.leader().is_some(), || {
                    format!(
                        "{} candidates left after the budget",
                        result.candidates.len()
                    )
                }),
            ];
        }
    }
    r.pass = r.checks.iter().all(|c| c.pass);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlacementSpec, StructureSpec};
    use amoebot_grid::Placement;

    fn run_ok(sc: &Scenario) -> ScenarioResult {
        let r = run_scenario(sc);
        assert!(
            r.pass,
            "{} failed: {:?}",
            sc.name,
            r.checks.iter().filter(|c| !c.pass).collect::<Vec<_>>()
        );
        r
    }

    #[test]
    fn forest_scenario_cross_validates() {
        let sc = Scenario::structure(
            "t",
            7,
            StructureSpec::RandomBlob { n: 40 },
            PlacementSpec::Random {
                k: 3,
                strategy: Placement::Uniform,
            },
            PlacementSpec::All,
            StructureAlgorithm::Forest,
        );
        let r = run_ok(&sc);
        assert!(r.rounds > 0);
        assert!(r.beeps > 0);
        assert_eq!(r.n, 40);
        assert_eq!(r.k, 3);
    }

    #[test]
    fn all_structure_algorithms_pass_on_a_parallelogram() {
        for alg in [
            StructureAlgorithm::Forest,
            StructureAlgorithm::Spt,
            StructureAlgorithm::Wavefront,
            StructureAlgorithm::SequentialForest,
        ] {
            let sc = Scenario::structure(
                "t",
                3,
                StructureSpec::Parallelogram { a: 8, b: 4 },
                PlacementSpec::Spread { k: 3 },
                PlacementSpec::All,
                alg,
            );
            run_ok(&sc);
        }
    }

    #[test]
    fn line_forest_scenario() {
        let sc = Scenario::structure(
            "t",
            5,
            StructureSpec::Line { n: 32 },
            PlacementSpec::Random {
                k: 4,
                strategy: Placement::Uniform,
            },
            PlacementSpec::All,
            StructureAlgorithm::LineForest,
        );
        run_ok(&sc);
    }

    #[test]
    fn micro_scenarios_pass() {
        for micro in [
            MicroWorkload::PascChain { m: 64 },
            MicroWorkload::PascTree { levels: 5 },
            MicroWorkload::PascPrefix { m: 64, weights: 8 },
            MicroWorkload::RootPrune { n: 128, q: 16 },
            MicroWorkload::Election { n: 64, q: 8 },
            MicroWorkload::Centroids { n: 64, q: 8 },
            MicroWorkload::Augmentation { n: 128, q: 16 },
            MicroWorkload::Decomposition { n: 64, q: 16 },
            MicroWorkload::Leader { n: 64 },
        ] {
            run_ok(&Scenario::micro("t", 11, micro));
        }
    }

    /// The driver workloads across several seeds, so every schedule
    /// family gets sampled: every churn and fault event is
    /// rebuild-oracle-checked, every churn step's broadcast must reach
    /// everyone, and every fault burst must re-converge within its bound.
    /// The line churn family restarts the SPT after every event.
    #[test]
    fn driver_and_churn_scenarios_pass_across_seeds() {
        for seed in [0u64, 3, 11, 27, 42] {
            for kind in Kind::ALL {
                let (n, events, per_event) = match kind {
                    Kind::Broadcast => (40, 5, 0),
                    Kind::StuckLine => (24, 5, 2),
                    _ => (30, 5, 3),
                };
                let micro = MicroWorkload::Driven {
                    kind,
                    n,
                    events,
                    per_event,
                };
                let r = run_ok(&Scenario::micro("t", seed, micro));
                assert!(r.rounds >= 5, "at least one round per event");
                if kind != Kind::Broadcast {
                    assert_eq!(r.k, 5, "k reports the event count");
                }
            }
            let line = Scenario::micro(
                "t",
                seed,
                MicroWorkload::LineChurnSpt {
                    n: 28,
                    events: 4,
                    per_event: 2,
                },
            );
            let r = run_ok(&line);
            assert!(r.rounds > 0, "SPT restarts consume rounds");
        }
    }

    /// The deliberately-broken variant must trip the self-stabilization
    /// checker, and its FAIL line must carry the full reproduction key
    /// (fault-plan seed + scenario seed + event index).
    #[test]
    fn adversary_selftest_trips_with_the_seeded_fail_line() {
        let r = run_scenario(&Scenario::micro(
            "t",
            0,
            MicroWorkload::AdversarySelfTestFail,
        ));
        assert!(!r.pass, "the sabotaged repair sweep must be caught");
        let check = r
            .checks
            .iter()
            .find(|c| c.name == "fault-reconvergence-bound")
            .expect("the re-convergence check ran");
        assert!(!check.pass);
        for needle in [
            "fault schedule seed=",
            "scenario seed=",
            "event=#",
            "(stuckpin)",
        ] {
            assert!(
                check.detail.contains(needle),
                "FAIL line {:?} lost {needle:?}",
                check.detail
            );
        }
    }

    #[test]
    fn results_are_deterministic() {
        let sc = Scenario::structure(
            "t",
            99,
            StructureSpec::RandomMix {
                pieces: 3,
                scale: 4,
            },
            PlacementSpec::Random {
                k: 2,
                strategy: Placement::Boundary,
            },
            PlacementSpec::All,
            StructureAlgorithm::Forest,
        );
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.beeps, b.beeps);
        assert_eq!(a.n, b.n);
        assert_eq!(a.pass, b.pass);
    }
}
