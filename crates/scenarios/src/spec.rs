//! Scenario descriptors: *what* to run, declaratively.
//!
//! A [`Scenario`] is a pure description — structure generator, terminal
//! placement, algorithm under test — plus a seed. Materialization and
//! execution live in [`crate::run`]; this split is what lets the batch
//! runner ship scenarios across threads (descriptors are `Send + Sync` and
//! cheap to clone) and lets reports reproduce a run from its JSON alone.

use amoebot_grid::random::{self, Placement};
use amoebot_grid::{shapes, AmoebotStructure, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::driver::Kind;

/// Which structure to build on the triangular grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureSpec {
    /// A horizontal line of `n` amoebots.
    Line {
        /// Number of amoebots.
        n: usize,
    },
    /// An `a × b` parallelogram.
    Parallelogram {
        /// Columns.
        a: usize,
        /// Rows.
        b: usize,
    },
    /// An upward triangle with `side` amoebots per side.
    Triangle {
        /// Side length.
        side: usize,
    },
    /// A hexagon of the given radius.
    Hexagon {
        /// Radius (0 = single amoebot).
        radius: usize,
    },
    /// A comb (spine with teeth).
    Comb {
        /// Spine length.
        width: usize,
        /// Tooth length.
        tooth_len: usize,
    },
    /// A staircase of alternating E / SE runs.
    Staircase {
        /// Number of steps.
        steps: usize,
        /// Step length.
        step_len: usize,
    },
    /// A zigzag corridor.
    Zigzag {
        /// Number of segments.
        segments: usize,
        /// Segment length.
        len: usize,
    },
    /// A random hole-free blob of exactly `n` amoebots.
    RandomBlob {
        /// Number of amoebots.
        n: usize,
    },
    /// A random composition of primitive shapes.
    RandomMix {
        /// Number of pieces.
        pieces: usize,
        /// Characteristic piece size.
        scale: usize,
    },
    /// A random thin corridor.
    RandomSnake {
        /// Number of straight runs.
        segments: usize,
        /// Length of each run.
        seg_len: usize,
    },
}

impl StructureSpec {
    /// Builds the structure, consuming randomness for the random families.
    pub fn materialize(&self, rng: &mut StdRng) -> AmoebotStructure {
        let coords = match *self {
            StructureSpec::Line { n } => shapes::line(n),
            StructureSpec::Parallelogram { a, b } => shapes::parallelogram(a, b),
            StructureSpec::Triangle { side } => shapes::triangle(side),
            StructureSpec::Hexagon { radius } => shapes::hexagon(radius),
            StructureSpec::Comb { width, tooth_len } => shapes::comb(width, tooth_len),
            StructureSpec::Staircase { steps, step_len } => shapes::staircase(steps, step_len),
            StructureSpec::Zigzag { segments, len } => shapes::zigzag(segments, len),
            StructureSpec::RandomBlob { n } => shapes::random_blob(n, rng),
            StructureSpec::RandomMix { pieces, scale } => {
                random::random_shape_mix(pieces, scale, rng)
            }
            StructureSpec::RandomSnake { segments, seg_len } => {
                random::random_snake(segments, seg_len, rng)
            }
        };
        AmoebotStructure::new(coords).expect("structure generators produce connected sets")
    }

    /// Short human-readable label for scenario names.
    pub fn label(&self) -> String {
        match *self {
            StructureSpec::Line { n } => format!("line{n}"),
            StructureSpec::Parallelogram { a, b } => format!("par{a}x{b}"),
            StructureSpec::Triangle { side } => format!("tri{side}"),
            StructureSpec::Hexagon { radius } => format!("hex{radius}"),
            StructureSpec::Comb { width, tooth_len } => format!("comb{width}x{tooth_len}"),
            StructureSpec::Staircase { steps, step_len } => format!("stair{steps}x{step_len}"),
            StructureSpec::Zigzag { segments, len } => format!("zigzag{segments}x{len}"),
            StructureSpec::RandomBlob { n } => format!("blob{n}"),
            StructureSpec::RandomMix { pieces, scale } => format!("mix{pieces}x{scale}"),
            StructureSpec::RandomSnake { segments, seg_len } => {
                format!("snake{segments}x{seg_len}")
            }
        }
    }
}

/// How to pick terminal sets (sources / destinations) on a structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementSpec {
    /// The single node `#0`.
    First,
    /// The single node `#(n-1)` (the "opposite corner" for the shapes
    /// generated in id order).
    Last,
    /// Every node.
    All,
    /// `k` nodes spread evenly over the id range (deterministic, no
    /// randomness consumed) — the classic benchmark placement.
    Spread {
        /// Number of nodes (clamped to `n`).
        k: usize,
    },
    /// `k` nodes drawn by a [`Placement`] strategy.
    Random {
        /// Number of nodes (clamped to `n`).
        k: usize,
        /// The strategy (uniform / clustered / boundary).
        strategy: Placement,
    },
}

impl PlacementSpec {
    /// Materializes the placement on `structure`. Returns a sorted set of
    /// distinct nodes; `k` is clamped to the structure size.
    pub fn materialize(&self, structure: &AmoebotStructure, rng: &mut StdRng) -> Vec<NodeId> {
        let n = structure.len();
        match *self {
            PlacementSpec::First => vec![NodeId(0)],
            PlacementSpec::Last => vec![NodeId((n - 1) as u32)],
            PlacementSpec::All => structure.nodes().collect(),
            PlacementSpec::Spread { k } => {
                let k = k.clamp(1, n);
                let mut out: Vec<NodeId> = (0..k)
                    .map(|i| NodeId((i * (n - 1) / (k - 1).max(1)) as u32))
                    .collect();
                out.dedup();
                out
            }
            PlacementSpec::Random { k, strategy } => {
                random::random_placement(structure, k.clamp(1, n), strategy, rng)
            }
        }
    }

    /// Short label for scenario names.
    pub fn label(&self) -> String {
        match *self {
            PlacementSpec::First => "first".to_string(),
            PlacementSpec::Last => "last".to_string(),
            PlacementSpec::All => "all".to_string(),
            PlacementSpec::Spread { k } => format!("spread{k}"),
            PlacementSpec::Random { k, strategy } => {
                let s = match strategy {
                    Placement::Uniform => "uni",
                    Placement::Clustered => "clu",
                    Placement::Boundary => "bnd",
                };
                format!("rand{k}{s}")
            }
        }
    }
}

/// Structure-based algorithm under test. Every variant produces a parent
/// forest that the runner cross-validates against the centralized BFS
/// ground truth ([`amoebot_grid::validate_forest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureAlgorithm {
    /// The divide & conquer shortest path forest (Theorem 56).
    Forest,
    /// The shortest path tree from `sources[0]` (Theorem 39).
    Spt,
    /// The line algorithm (Lemma 40); requires a [`StructureSpec::Line`].
    LineForest,
    /// The circuit-less BFS wavefront baseline.
    Wavefront,
    /// The sequential merging baseline (`O(k log n)`).
    SequentialForest,
}

impl StructureAlgorithm {
    /// Short label for scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            StructureAlgorithm::Forest => "forest",
            StructureAlgorithm::Spt => "spt",
            StructureAlgorithm::LineForest => "line",
            StructureAlgorithm::Wavefront => "wavefront",
            StructureAlgorithm::SequentialForest => "sequential",
        }
    }
}

/// Non-structure workloads: the chain/tree micro experiments (E1–E9, E20)
/// that run on synthetic topologies rather than grid structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroWorkload {
    /// E1: PASC on a chain of `m` amoebots.
    PascChain {
        /// Chain length.
        m: usize,
    },
    /// E2: PASC on a balanced binary tree with `levels` levels.
    PascTree {
        /// Tree levels (`n = 2^levels - 1`).
        levels: usize,
    },
    /// E3: weighted prefix sums on a chain.
    PascPrefix {
        /// Chain length.
        m: usize,
        /// Number of unit weights, spread evenly.
        weights: usize,
    },
    /// E4/E5: root-and-prune on a random tree.
    RootPrune {
        /// Tree size.
        n: usize,
        /// `|Q|`.
        q: usize,
    },
    /// E6: the election primitive.
    Election {
        /// Tree size.
        n: usize,
        /// `|Q|`.
        q: usize,
    },
    /// E7: the Q-centroid primitive.
    Centroids {
        /// Tree size.
        n: usize,
        /// `|Q|`.
        q: usize,
    },
    /// E8: augmentation-set size (Corollary 29).
    Augmentation {
        /// Tree size.
        n: usize,
        /// `|Q|`.
        q: usize,
    },
    /// E9: centroid decomposition rounds and depth.
    Decomposition {
        /// Tree size.
        n: usize,
        /// `|Q|`.
        q: usize,
    },
    /// E20: randomized leader election on a path.
    Leader {
        /// Path length.
        n: usize,
    },
    /// A [`Driver`](crate::driver::Driver) workload run to completion
    /// with every round checked: the global-circuit broadcast (the
    /// cheapest structure-wide cross-check, which lets it sweep to 10^6
    /// nodes), runtime churn, or a fault burst with a self-stabilization
    /// bound. Churn and fault runs cross-validate the incrementally edited
    /// world against a from-scratch rebuild
    /// ([`amoebot_dynamics::verify_against_rebuild`]) after every event.
    Driven {
        /// Which workload.
        kind: Kind,
        /// Initial structure size.
        n: usize,
        /// Schedule events (for the plain broadcast: rounds).
        events: usize,
        /// Target edits or faults per event.
        per_event: usize,
    },
    /// Grow/shrink churn on a line with an SPT restart
    /// ([`amoebot_spf::churn::restart_spt`]) after every event: terminals
    /// are remapped through the churn id map (casualties dropped /
    /// re-anchored) and the restarted tree is cross-validated against
    /// centralized BFS on the post-churn snapshot.
    LineChurnSpt {
        /// Initial line length.
        n: usize,
        /// Number of churn events.
        events: usize,
        /// Target node joins/leaves per event.
        per_event: usize,
    },
    /// Deliberately-broken adversary variant: the repair sweep is
    /// sabotaged, so the self-stabilization checker *must* trip and its
    /// FAIL line must carry the fault-plan seed and event index.
    /// Registered (non-randomized) so tests and CI can prove the
    /// adversary checks actually fire.
    AdversarySelfTestFail,
    /// Always fails validation. Registered (non-randomized) so tests and
    /// CI can prove the runner's non-zero exit path actually fires.
    SelfTestFail,
}

/// The workload of a scenario: either a structure-based shortest-path
/// problem or a micro experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// Build `structure`, place `sources`/`dests`, run `algorithm`,
    /// cross-validate the resulting forest against centralized BFS.
    Structure {
        /// The structure generator.
        structure: StructureSpec,
        /// Source placement (`S`).
        sources: PlacementSpec,
        /// Destination placement (`D`).
        dests: PlacementSpec,
        /// Algorithm under test.
        algorithm: StructureAlgorithm,
    },
    /// A micro experiment with its own synthetic world.
    Micro(MicroWorkload),
}

/// A fully described, reproducible experiment: workload + seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Registry family this scenario came from.
    pub family: String,
    /// Human-readable name (family + parameter labels).
    pub name: String,
    /// Scenario-local seed; all randomness (structure growth, placements,
    /// random trees, coin tosses) derives from it.
    pub seed: u64,
    /// What to run.
    pub workload: Workload,
}

impl Scenario {
    /// A structure scenario with a name derived from its parts.
    pub fn structure(
        family: &str,
        seed: u64,
        structure: StructureSpec,
        sources: PlacementSpec,
        dests: PlacementSpec,
        algorithm: StructureAlgorithm,
    ) -> Scenario {
        let name = format!(
            "{family}/{}/{}-s{}-d{}",
            structure.label(),
            algorithm.label(),
            sources.label(),
            dests.label(),
        );
        Scenario {
            family: family.to_string(),
            name,
            seed,
            workload: Workload::Structure {
                structure,
                sources,
                dests,
                algorithm,
            },
        }
    }

    /// A micro scenario with a name derived from the workload.
    pub fn micro(family: &str, seed: u64, micro: MicroWorkload) -> Scenario {
        let label = match micro {
            MicroWorkload::PascChain { m } => format!("m{m}"),
            MicroWorkload::PascTree { levels } => format!("levels{levels}"),
            MicroWorkload::PascPrefix { m, weights } => format!("m{m}-w{weights}"),
            MicroWorkload::RootPrune { n, q }
            | MicroWorkload::Election { n, q }
            | MicroWorkload::Centroids { n, q }
            | MicroWorkload::Augmentation { n, q }
            | MicroWorkload::Decomposition { n, q } => format!("n{n}-q{q}"),
            MicroWorkload::Leader { n } => format!("n{n}"),
            MicroWorkload::Driven {
                kind: Kind::Broadcast,
                n,
                events,
                ..
            } => format!("n{n}-r{events}"),
            MicroWorkload::Driven {
                n,
                events,
                per_event,
                ..
            }
            | MicroWorkload::LineChurnSpt {
                n,
                events,
                per_event,
            } => format!("n{n}-e{events}x{per_event}"),
            MicroWorkload::AdversarySelfTestFail => "broken-repair".to_string(),
            MicroWorkload::SelfTestFail => "always-fails".to_string(),
        };
        Scenario {
            family: family.to_string(),
            name: format!("{family}/{label}"),
            seed,
            workload: Workload::Micro(micro),
        }
    }
}

/// Derives an independent RNG stream for `purpose` from a scenario seed
/// (the workspace's one seed derivation, shared with `amoebot_dynamics`).
pub use amoebot_dynamics::derive_rng;

/// Uniform pick out of a fixed menu, driven by an RNG (helper for family
/// builders).
pub fn pick<'a, T>(rng: &mut StdRng, menu: &'a [T]) -> &'a T {
    &menu[rng.gen_range(0..menu.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialization_is_deterministic() {
        let spec = StructureSpec::RandomBlob { n: 40 };
        let a = spec.materialize(&mut derive_rng(7, 0));
        let b = spec.materialize(&mut derive_rng(7, 0));
        assert_eq!(a.len(), b.len());
        for v in a.nodes() {
            assert_eq!(a.coord(v), b.coord(v));
        }
    }

    #[test]
    fn placements_respect_clamping() {
        let s = StructureSpec::Parallelogram { a: 4, b: 3 }.materialize(&mut derive_rng(0, 0));
        let p = PlacementSpec::Spread { k: 100 }.materialize(&s, &mut derive_rng(0, 1));
        assert!(p.len() <= s.len());
        let r = PlacementSpec::Random {
            k: 100,
            strategy: Placement::Uniform,
        }
        .materialize(&s, &mut derive_rng(0, 2));
        assert_eq!(r.len(), s.len());
    }

    #[test]
    fn scenario_names_are_descriptive() {
        let sc = Scenario::structure(
            "random-forest",
            3,
            StructureSpec::RandomBlob { n: 50 },
            PlacementSpec::Random {
                k: 4,
                strategy: Placement::Uniform,
            },
            PlacementSpec::All,
            StructureAlgorithm::Forest,
        );
        assert_eq!(sc.name, "random-forest/blob50/forest-srand4uni-dall");
        let mc = Scenario::micro("e1-pasc-chain", 0, MicroWorkload::PascChain { m: 64 });
        assert_eq!(mc.name, "e1-pasc-chain/m64");
    }

    #[test]
    fn derive_rng_streams_are_independent() {
        use rand::Rng;
        let mut a = derive_rng(1, 0);
        let mut b = derive_rng(1, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.gen_range(0..u64::MAX)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen_range(0..u64::MAX)).collect();
        assert_ne!(xs, ys);
    }
}
