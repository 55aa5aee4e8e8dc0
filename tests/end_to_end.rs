//! Cross-crate integration tests: full pipelines from structure generation
//! through leader election, shortest path computation and validation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spf::baselines::{bfs_wavefront, sequential_forest};
use spf::circuits::{leader, RoundReport, Topology, World};
use spf::core::forest::shortest_path_forest;
use spf::core::links::LINKS;
use spf::core::spt::{shortest_path_tree, spt_in_world, sssp};
use spf::grid::{multi_source_bfs, shapes, validate_forest, AmoebotStructure, NodeId};

#[test]
fn full_pipeline_with_leader_election() {
    // The paper's preprocessing (§2.1): elect a leader w.h.p., then run the
    // deterministic SPF algorithm. The leader here selects the root portal.
    let mut rng = StdRng::seed_from_u64(1);
    let structure = AmoebotStructure::new(shapes::hexagon(4)).unwrap();
    let mut world = World::new(Topology::from_structure(&structure), 6);
    let election = leader::elect_leader(&mut world, &mut rng);
    let l = election.leader().expect("unique leader w.h.p.");
    assert!(l < structure.len());

    let sources = [NodeId(l as u32), NodeId(0)];
    let dests: Vec<NodeId> = structure.nodes().collect();
    let out = shortest_path_forest(&structure, &sources, &dests);
    assert!(validate_forest(&structure, &sources, &dests, &out.parents).is_empty());
}

#[test]
fn spt_and_forest_agree_on_distances() {
    let structure = AmoebotStructure::new(shapes::parallelogram(10, 5)).unwrap();
    let source = NodeId(17);
    let dests: Vec<NodeId> = structure.nodes().collect();
    let spt = shortest_path_tree(&structure, source, &dests);
    let forest = shortest_path_forest(&structure, &[source], &dests);
    // Same problem, same depth profile (parents may differ among ties).
    let depth = |parents: &[Option<NodeId>], v: NodeId| -> u32 {
        let mut cur = v;
        let mut d = 0;
        while let Some(p) = parents[cur.index()] {
            cur = p;
            d += 1;
        }
        d
    };
    for v in structure.nodes() {
        assert_eq!(
            depth(&spt.parents, v),
            depth(&forest.parents, v),
            "depth mismatch at {v}"
        );
    }
}

#[test]
fn all_algorithms_agree_with_bfs_on_random_blobs() {
    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..5 {
        let n = rng.gen_range(20..100);
        let structure = AmoebotStructure::new(shapes::random_blob(n, &mut rng)).unwrap();
        let k = rng.gen_range(1..6).min(n);
        let sources: Vec<NodeId> = shapes::random_subset(n, k, &mut rng)
            .into_iter()
            .map(|i| NodeId(i as u32))
            .collect();
        let dests: Vec<NodeId> = structure.nodes().collect();
        let (dist, _) = multi_source_bfs(&structure, &sources);

        // Circuit algorithm.
        let out = shortest_path_forest(&structure, &sources, &dests);
        assert!(
            validate_forest(&structure, &sources, &dests, &out.parents).is_empty(),
            "trial {trial}"
        );
        // Baselines produce the same distance profile.
        let wave = bfs_wavefront(&structure, &sources);
        assert!(validate_forest(&structure, &sources, &dests, &wave.parents).is_empty());
        let seq = sequential_forest(&structure, &sources);
        assert!(validate_forest(&structure, &sources, &dests, &seq.parents).is_empty());
        let _ = dist;
    }
}

#[test]
fn sssp_rounds_beat_diameter_on_elongated_structures() {
    // The headline claim: polylog rounds vs the Ω(diam) bound of the plain
    // model. On a long thin structure the crossover is at small n already.
    let structure = AmoebotStructure::new(shapes::parallelogram(200, 2)).unwrap();
    let out = sssp(&structure, NodeId(0));
    assert!(validate_forest(
        &structure,
        &[NodeId(0)],
        &structure.nodes().collect::<Vec<_>>(),
        &out.parents
    )
    .is_empty());
    let wave = bfs_wavefront(&structure, &[NodeId(0)]);
    assert!(
        out.rounds < wave.rounds,
        "SSSP ({} rounds) must beat the wavefront ({} rounds) at diameter {}",
        out.rounds,
        wave.rounds,
        structure.diameter()
    );
}

#[test]
fn forest_beats_sequential_for_many_sources() {
    let structure = AmoebotStructure::new(shapes::parallelogram(24, 12)).unwrap();
    let n = structure.len();
    let sources: Vec<NodeId> = (0..16).map(|i| NodeId((i * (n - 1) / 15) as u32)).collect();
    let dests: Vec<NodeId> = structure.nodes().collect();
    let dnc = shortest_path_forest(&structure, &sources, &dests);
    let seq = sequential_forest(&structure, &sources);
    assert!(
        dnc.rounds < seq.rounds,
        "divide & conquer ({}) must beat sequential merging ({}) at k = 16",
        dnc.rounds,
        seq.rounds
    );
}

#[test]
fn deterministic_given_inputs() {
    let structure = AmoebotStructure::new(shapes::triangle(8)).unwrap();
    let sources = [NodeId(1), NodeId(30)];
    let dests: Vec<NodeId> = structure.nodes().collect();
    let a = shortest_path_forest(&structure, &sources, &dests);
    let b = shortest_path_forest(&structure, &sources, &dests);
    assert_eq!(a.parents, b.parents);
    assert_eq!(a.rounds, b.rounds);
}

#[test]
fn algorithms_on_adversarial_shapes() {
    // Zigzag corridors, spirals and bitten hexagons stress the portal
    // machinery: long diameters, many portals, concave boundaries.
    for (name, coords) in [
        ("zigzag", shapes::zigzag(6, 4)),
        ("spiral", shapes::spiral(2)),
        ("bitten_hexagon", shapes::bitten_hexagon(4)),
    ] {
        let structure = AmoebotStructure::new(coords).unwrap();
        let n = structure.len();
        let dests: Vec<NodeId> = structure.nodes().collect();
        // SPT from a corner.
        let spt = shortest_path_tree(&structure, NodeId(0), &dests);
        assert!(
            validate_forest(&structure, &[NodeId(0)], &dests, &spt.parents).is_empty(),
            "{name}: SPT invalid"
        );
        // Forest with 3 spread sources.
        let sources: Vec<NodeId> = (0..3).map(|i| NodeId((i * (n - 1) / 2) as u32)).collect();
        let forest = shortest_path_forest(&structure, &sources, &dests);
        assert!(
            validate_forest(&structure, &sources, &dests, &forest.parents).is_empty(),
            "{name}: forest invalid"
        );
    }
}

#[test]
fn portal_charges_are_returned_not_ticked() {
    // The round counter counts ticks alone, across real algorithm runs:
    // an SPT and then the DnC forest's divide step (Lemmas 33, 34, 37)
    // on one world. The SPT and Lemma 33 report exactly the rounds the
    // world ticked; the Lemma 34 count and the decomposition are not
    // simulated, so each returns the rounds it stands for and leaves the
    // counter where it was.
    use spf::core::portals::{
        axis_portals, portal_augmentation, portal_centroid_decomposition, portal_root_and_prune,
    };
    use spf::grid::Axis;

    let structure = AmoebotStructure::new(shapes::hexagon(5)).unwrap();
    let n = structure.len();
    let mut world = World::new(Topology::from_structure(&structure), LINKS);
    let all = vec![true; n];
    let members: Vec<usize> = (0..n).collect();
    let mut report = RoundReport::new();
    let parents = spt_in_world(&mut world, &structure, &members, 0, &all, &mut report);
    assert!(parents.iter().any(Option::is_some));
    assert_eq!(report.total(), world.rounds(), "the SPT is simulated");

    let ap = axis_portals(&structure, &members, Axis::X);
    let q: Vec<bool> = (0..ap.len()).map(|p| p % 3 == 0).collect();
    let before = world.rounds();
    let prp = portal_root_and_prune(&mut world, &structure, &ap, 0, &q);
    assert!(world.rounds() > before, "Lemma 33 is simulated");
    let ticked = world.rounds();

    let (q_prime, degree_count) = portal_augmentation(&prp, &q);
    let (d, decomposition) = portal_centroid_decomposition(&ap, 0, &q_prime);
    assert!(d.levels > 0);
    assert!(degree_count > 0, "Lemma 34 is charged");
    assert!(decomposition > 0, "Lemma 37 is charged");
    assert_eq!(world.rounds(), ticked, "charges do not tick");
}

#[test]
fn spt_reports_exactly_its_ticked_rounds() {
    // Auditing the fidelity claim: the SPT's steps are all simulated, so
    // the rounds it reports are the rounds its world ticks, and the
    // public report accounts for every round.
    let structure = AmoebotStructure::new(shapes::parallelogram(16, 8)).unwrap();
    let n = structure.len();
    let mut world = World::new(Topology::from_structure(&structure), LINKS);
    let all = vec![true; n];
    let members: Vec<usize> = (0..n).collect();
    let mut report = RoundReport::new();
    spt_in_world(&mut world, &structure, &members, 0, &all, &mut report);
    assert!(world.rounds() > 0);
    assert_eq!(report.total(), world.rounds());

    let dests: Vec<NodeId> = structure.nodes().collect();
    let out = shortest_path_tree(&structure, NodeId(0), &dests);
    assert!(out.report.total() > 0);
    assert_eq!(out.report.total(), out.rounds);
    assert_eq!(out.rounds, world.rounds(), "same SPT, same rounds");
}

#[test]
fn spt_in_world_charges_nothing() {
    // Theorem 39's three portal root-and-prunes and its cleanup are all
    // simulated: on a caller-owned world an SPT reports exactly the
    // rounds the world ticked.
    let mut rng = StdRng::seed_from_u64(5);
    for (name, coords) in [
        ("parallelogram", shapes::parallelogram(16, 8)),
        ("hexagon", shapes::hexagon(5)),
        ("comb", shapes::comb(9, 4)),
        ("random blob", shapes::random_blob(300, &mut rng)),
    ] {
        let structure = AmoebotStructure::new(coords).unwrap();
        let n = structure.len();
        let mut world = World::new(Topology::from_structure(&structure), LINKS);
        let mut report = RoundReport::new();
        let all = vec![true; n];
        let members: Vec<usize> = (0..n).collect();
        let parents = spt_in_world(&mut world, &structure, &members, 0, &all, &mut report);
        assert!(parents.iter().any(Option::is_some), "{name}: empty tree");
        assert!(world.rounds() > 0, "{name}");
        assert_eq!(report.total(), world.rounds(), "{name}");
    }
}

#[test]
fn round_reports_add_up_to_rounds_and_name_every_phase() {
    // The contract the benchmark reads: a solve's phases sum to its
    // rounds, and each phase it attributes by label fragment is present.
    let mut rng = StdRng::seed_from_u64(8);
    let structure = AmoebotStructure::new(shapes::random_blob(400, &mut rng)).unwrap();
    let n = structure.len();
    let all: Vec<NodeId> = structure.nodes().collect();
    let pick = |k: usize, rng: &mut StdRng| -> Vec<NodeId> {
        shapes::random_subset(n, k, rng)
            .into_iter()
            .map(|i| NodeId(i as u32))
            .collect()
    };
    let has = |report: &RoundReport, fragment: &str| {
        report
            .phases()
            .iter()
            .any(|(label, _)| label.contains(fragment))
    };

    let dests = pick(8, &mut rng);
    let spt = shortest_path_tree(&structure, NodeId(0), &dests);
    assert_eq!(spt.report.total(), spt.rounds, "{}", spt.report);
    for fragment in ["(x-axis)", "(y-axis)", "(z-axis)", "(cleanup)"] {
        assert!(has(&spt.report, fragment), "SPT lacks {fragment}");
    }

    let sources = pick(8, &mut rng);
    let forest = shortest_path_forest(&structure, &sources, &all);
    assert_eq!(forest.report.total(), forest.rounds, "{}", forest.report);
    for fragment in [
        "Lemma 51",
        "Lemma 52",
        "Lemmas 35, 53",
        "Lemma 54",
        "Lemma 37",
        "Lemma 55",
        "Corollary 57",
    ] {
        assert!(has(&forest.report, fragment), "forest lacks {fragment}");
    }
    // The decomposition is recomputed per merge level, each its own phase.
    assert!(has(&forest.report, "recompute decomposition level"));
}
