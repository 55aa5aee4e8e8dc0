//! Round-count measurement wrappers for the benchmark harness.
//!
//! The experiment definitions (E1–E20) live in the scenario engine —
//! [`amoebot_scenarios::experiments`] constructs them and
//! [`amoebot_scenarios::run`] executes and cross-validates them. This
//! crate keeps the historical per-experiment functions as **thin
//! wrappers** around registered scenarios so the Criterion benches and the
//! `experiments` binary measure exactly the code path the scenario batches
//! run. Every wrapper panics if the scenario's cross-validation fails: a
//! benchmark of a wrong answer is worthless.

use amoebot_circuits::World;
use amoebot_grid::{AmoebotStructure, NodeId};
use amoebot_scenarios::experiments as ex;
use amoebot_scenarios::run::{check_forest, run_scenario, run_structure_workload, ScenarioResult};
use amoebot_scenarios::spec::{derive_rng, Scenario, StructureAlgorithm};
use amoebot_spf::forest::{shortest_path_forest, ForestOutcome};
use amoebot_spf::primitives::{centroid_decomposition, root_and_prune};
use amoebot_spf::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use amoebot_scenarios::run::path_world;

/// `ceil(log2(x))` for display of polylog predictors.
pub fn log2_ceil(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros() as u64
    }
}

fn rounds_of(scenario: &Scenario) -> u64 {
    checked(run_scenario(scenario)).rounds
}

fn checked(result: ScenarioResult) -> ScenarioResult {
    assert!(
        result.pass,
        "{} failed cross-validation: {:?}",
        result.name,
        result.checks.iter().filter(|c| !c.pass).collect::<Vec<_>>()
    );
    result
}

/// E1 (Lemma 4): rounds of the chain PASC for a chain of `m` amoebots.
pub fn pasc_chain_rounds(m: usize) -> u64 {
    rounds_of(&ex::e1_pasc_chain(m))
}

/// E2 (Corollary 5): rounds of the tree PASC on a balanced binary tree with
/// `h` levels (height `h - 1`).
pub fn pasc_tree_rounds(levels: usize) -> u64 {
    rounds_of(&ex::e2_pasc_tree(levels))
}

/// E3 (Corollary 6): rounds of the weighted prefix-sum PASC on a chain of
/// `m` amoebots with exactly `w` unit weights (spread evenly).
pub fn pasc_prefix_rounds(m: usize, w: usize) -> u64 {
    rounds_of(&ex::e3_pasc_prefix(m, w))
}

/// A deterministic random tree over `n` nodes (attachment to a random
/// earlier node) plus a Q of the given size.
pub fn random_tree_and_q(n: usize, q_size: usize, seed: u64) -> (World, Tree, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    amoebot_scenarios::run::random_tree_and_q(n, q_size, &mut rng)
}

/// E4/E5 (Lemmas 14, 20): rounds of root-and-prune on a random tree.
pub fn root_prune_rounds(n: usize, q_size: usize) -> u64 {
    rounds_of(&ex::e4_root_prune(n, q_size))
}

/// E6 (Lemma 21): rounds of the election primitive.
pub fn election_rounds(n: usize, q_size: usize) -> u64 {
    rounds_of(&ex::e6_election(n, q_size))
}

/// E7 (Lemma 23): rounds of the Q-centroid primitive.
pub fn centroid_rounds(n: usize, q_size: usize) -> u64 {
    rounds_of(&ex::e7_centroids(n, q_size))
}

/// E8 (Corollary 29): the observed `|A_Q| / |Q|` ratio on a random tree.
/// (The scenario engine checks the bound; this helper reports the ratio for
/// the experiment table.)
pub fn augmentation_ratio(n: usize, q_size: usize) -> f64 {
    let mut rng = derive_rng(17, 0);
    let (mut world, tree, q) =
        amoebot_scenarios::run::random_tree_and_q(n, q_size.max(1), &mut rng);
    let rp = root_and_prune(&mut world, std::slice::from_ref(&tree), |v| q[v]);
    let a = rp.augmentation_set(std::slice::from_ref(&tree)).len() as f64;
    let qn = q.iter().filter(|&&b| b).count().max(1) as f64;
    a / qn
}

/// E9 (Lemmas 30, 31): rounds and height of the centroid decomposition.
/// (The scenario engine checks the depth bound; this helper reports both
/// numbers for the experiment table.)
pub fn decomposition_stats(n: usize, q_size: usize) -> (u64, u32) {
    let mut rng = derive_rng(19, 0);
    let (mut world, tree, q) =
        amoebot_scenarios::run::random_tree_and_q(n, q_size.max(1), &mut rng);
    let rp = root_and_prune(&mut world, std::slice::from_ref(&tree), |v| q[v]);
    let mut qp = q.clone();
    for v in rp.augmentation_set(std::slice::from_ref(&tree)) {
        qp[v] = true;
    }
    let before = world.rounds();
    let d = centroid_decomposition(&mut world, &tree, &qp);
    (world.rounds() - before, d.levels)
}

/// The standard 2D structure for the SPT/forest experiments: a `w × w/2`
/// parallelogram.
pub fn standard_structure(n_target: usize) -> AmoebotStructure {
    ex::standard_structure_spec(n_target).materialize(&mut derive_rng(0, 0))
}

/// Evenly spread `k` node ids over a structure.
pub fn spread(structure: &AmoebotStructure, k: usize) -> Vec<NodeId> {
    let n = structure.len();
    (0..k)
        .map(|i| NodeId((i * (n - 1) / (k - 1).max(1)) as u32))
        .collect()
}

/// The `(sources, dests)` terminal sets of E11 for `l` destinations.
fn spt_terminals(structure: &AmoebotStructure, l: usize) -> (Vec<NodeId>, Vec<NodeId>) {
    let n = structure.len();
    let l = l.max(1).min(n - 1);
    let mut dests: Vec<NodeId> = (0..l)
        .map(|i| NodeId((1 + i * (n - 2) / l.max(2).min(n - 1)) as u32))
        .collect();
    dests.dedup();
    (vec![NodeId(0)], dests)
}

fn structure_rounds(
    structure: &AmoebotStructure,
    sources: &[NodeId],
    dests: &[NodeId],
    algorithm: StructureAlgorithm,
) -> u64 {
    checked(run_structure_workload(structure, sources, dests, algorithm)).rounds
}

/// E11 (Theorem 39): SPT rounds for `l` destinations on a fixed structure.
pub fn spt_rounds(structure: &AmoebotStructure, l: usize) -> u64 {
    let (sources, dests) = spt_terminals(structure, l);
    structure_rounds(structure, &sources, &dests, StructureAlgorithm::Spt)
}

/// E12 (Theorem 39): SPSP rounds (source and target in opposite corners).
pub fn spsp_rounds(structure: &AmoebotStructure) -> u64 {
    structure_rounds(
        structure,
        &[NodeId(0)],
        &[NodeId((structure.len() - 1) as u32)],
        StructureAlgorithm::Spt,
    )
}

/// E13 (Theorem 39): SSSP rounds.
pub fn sssp_rounds(structure: &AmoebotStructure) -> u64 {
    let all: Vec<NodeId> = structure.nodes().collect();
    structure_rounds(structure, &[NodeId(0)], &all, StructureAlgorithm::Spt)
}

/// E14 (Lemma 40): line algorithm rounds with `k` sources on `n` amoebots.
pub fn line_rounds(n: usize, k: usize) -> u64 {
    rounds_of(&ex::e14_line(n, k.max(1)))
}

/// E17 (Theorem 56): forest rounds for `k` sources on a structure.
pub fn forest_rounds(structure: &AmoebotStructure, k: usize) -> u64 {
    forest_outcome(structure, k).rounds
}

/// E17 (Theorem 56): the forest solve for `k` sources on a structure,
/// with its round account (`ticks`, `charged` and `parallel` beside the
/// reported `rounds`). Panics if the solve fails the cross-validation
/// the scenario batches run.
pub fn forest_outcome(structure: &AmoebotStructure, k: usize) -> ForestOutcome {
    let sources = spread(structure, k.max(2));
    let all: Vec<NodeId> = structure.nodes().collect();
    let out = shortest_path_forest(structure, &sources, &all);
    let checks = check_forest(structure, &sources, &all, &out.parents);
    let failed: Vec<_> = checks.iter().filter(|c| !c.pass).collect();
    assert!(
        failed.is_empty(),
        "forest failed cross-validation: {failed:?}"
    );
    out
}

/// E18a: BFS wavefront rounds.
pub fn wavefront_rounds(structure: &AmoebotStructure, k: usize) -> u64 {
    let sources = spread(structure, k.max(1));
    let all: Vec<NodeId> = structure.nodes().collect();
    structure_rounds(structure, &sources, &all, StructureAlgorithm::Wavefront)
}

/// E18b: sequential merging rounds.
pub fn sequential_rounds(structure: &AmoebotStructure, k: usize) -> u64 {
    let sources = spread(structure, k.max(1));
    let all: Vec<NodeId> = structure.nodes().collect();
    structure_rounds(
        structure,
        &sources,
        &all,
        StructureAlgorithm::SequentialForest,
    )
}

/// Unvalidated round measurements for the wall-clock benches.
///
/// The checked siblings above run the centralized cross-validation on
/// every call — correct for the experiment tables, but inside a Criterion
/// `b.iter` loop the validation (multi-source BFS + parent-chain walks)
/// would be timed too and can dominate cheap baselines like the
/// wavefront. The bench files therefore call a checked function **once**
/// before the loop and one of these inside it.
pub mod raw {
    use super::*;
    use amoebot_scenarios::run::measure_structure_rounds;

    /// E11 without validation.
    pub fn spt_rounds(structure: &AmoebotStructure, l: usize) -> u64 {
        let (sources, dests) = spt_terminals(structure, l);
        measure_structure_rounds(structure, &sources, &dests, StructureAlgorithm::Spt)
    }

    /// E12 without validation.
    pub fn spsp_rounds(structure: &AmoebotStructure) -> u64 {
        measure_structure_rounds(
            structure,
            &[NodeId(0)],
            &[NodeId((structure.len() - 1) as u32)],
            StructureAlgorithm::Spt,
        )
    }

    /// E13 without validation.
    pub fn sssp_rounds(structure: &AmoebotStructure) -> u64 {
        let all: Vec<NodeId> = structure.nodes().collect();
        measure_structure_rounds(structure, &[NodeId(0)], &all, StructureAlgorithm::Spt)
    }

    /// E17 without validation.
    pub fn forest_rounds(structure: &AmoebotStructure, k: usize) -> u64 {
        let sources = spread(structure, k.max(2));
        let all: Vec<NodeId> = structure.nodes().collect();
        measure_structure_rounds(structure, &sources, &all, StructureAlgorithm::Forest)
    }

    /// E18a without validation.
    pub fn wavefront_rounds(structure: &AmoebotStructure, k: usize) -> u64 {
        let sources = spread(structure, k.max(1));
        let all: Vec<NodeId> = structure.nodes().collect();
        measure_structure_rounds(structure, &sources, &all, StructureAlgorithm::Wavefront)
    }

    /// E18b without validation.
    pub fn sequential_rounds(structure: &AmoebotStructure, k: usize) -> u64 {
        let sources = spread(structure, k.max(1));
        let all: Vec<NodeId> = structure.nodes().collect();
        measure_structure_rounds(
            structure,
            &sources,
            &all,
            StructureAlgorithm::SequentialForest,
        )
    }
}

/// E20 (Theorem 2 substitute): leader election rounds + success flag.
pub fn leader_rounds(n: usize, seed: u64) -> (u64, bool) {
    let result = run_scenario(&ex::e20_leader(n, seed));
    let unique = result
        .checks
        .iter()
        .find(|c| c.name == "leader-unique")
        .map(|c| c.pass)
        .unwrap_or(false);
    (result.rounds, unique)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_agree_with_scenario_engine() {
        assert_eq!(
            pasc_chain_rounds(64),
            run_scenario(&ex::e1_pasc_chain(64)).rounds
        );
        let s = standard_structure(128);
        assert!(sssp_rounds(&s) > 0);
        assert!(forest_rounds(&s, 4) > 0);
        assert!(wavefront_rounds(&s, 4) > 0);
    }

    #[test]
    fn leader_wrapper_reports_uniqueness() {
        let (rounds, _unique) = leader_rounds(64, 3);
        assert!(rounds > 0);
    }
}
