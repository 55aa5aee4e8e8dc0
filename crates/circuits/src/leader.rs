//! Randomized leader election on the global circuit (system S17).
//!
//! The paper assumes a leader as a precondition (§2.1) and cites Feldmann et
//! al. \[17\] for a Θ(log n)-round w.h.p. election (Theorem 2). We implement
//! the core coin-tossing mechanism of that algorithm: in every phase each
//! remaining candidate tosses a fair coin and beeps on the global circuit if
//! it came up heads; a candidate that tossed tails *and* heard a beep
//! retires. Each phase halves the expected number of candidates, so after
//! `4 ⌈log2 n⌉ + 12` phases a unique candidate remains w.h.p.
//!
//! As discussed in DESIGN.md (substitution 2), the phase budget is derived
//! from `n` by the harness — the amoebots themselves use no knowledge of `n`
//! during the phases; the budget only bounds the loop, standing in for the
//! termination detection of \[17\]. Experiment E20 measures the empirical
//! failure probability.

use rand::Rng;

use crate::world::World;

/// The outcome of a leader election run.
#[derive(Debug, Clone)]
pub struct LeaderElection {
    /// Nodes still candidate after the phase budget (singleton w.h.p.).
    pub candidates: Vec<usize>,
    /// Rounds consumed.
    pub rounds: u64,
}

impl LeaderElection {
    /// The elected leader, if the election converged to a single candidate.
    pub fn leader(&self) -> Option<usize> {
        match self.candidates.as_slice() {
            [single] => Some(*single),
            _ => None,
        }
    }
}

/// Runs the coin-tossing leader election among all nodes of `world`.
///
/// Uses the recommended phase budget `4 ⌈log2 n⌉ + 12` (failure probability
/// at most `n · (3/4)^{phases}` ≤ `n^{-1}` for this budget).
pub fn elect_leader<R: Rng>(world: &mut World, rng: &mut R) -> LeaderElection {
    let n = world.topology().len();
    let phases = 4 * (usize::BITS - n.leading_zeros()) as usize + 12;
    elect_leader_with_budget(world, rng, phases)
}

/// Runs the election with an explicit phase budget (1 round per phase).
pub fn elect_leader_with_budget<R: Rng>(
    world: &mut World,
    rng: &mut R,
    phases: usize,
) -> LeaderElection {
    let n = world.topology().len();
    let start = world.rounds();
    let mut candidate = vec![true; n];
    // All amoebots participate in the global circuit throughout.
    for v in 0..n {
        world.global_pin_config(v);
    }
    for _ in 0..phases {
        let mut heads = vec![false; n];
        let mut any_candidate = false;
        for v in 0..n {
            if candidate[v] {
                any_candidate = true;
                // spf-lint: allow(float-in-engine) — 0.5 is exactly representable and feeds a seeded RNG coin flip, not report arithmetic
                heads[v] = rng.gen_bool(0.5);
                // An isolated node (n = 1) has no pins; it is trivially the
                // unique candidate and has nobody to signal.
                if heads[v] && world.pset_capacity(v) > 0 {
                    world.beep(v, 0);
                }
            }
        }
        debug_assert!(any_candidate, "candidate set can never become empty");
        world.tick();
        for v in 0..n {
            if candidate[v] && !heads[v] && world.pset_capacity(v) > 0 && world.received(v, 0) {
                candidate[v] = false;
            }
        }
    }
    let candidates: Vec<usize> = (0..n).filter(|&v| candidate[v]).collect();
    LeaderElection {
        candidates,
        rounds: world.rounds() - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_world(n: usize) -> World {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        World::new(Topology::from_edges(n, &edges), 1)
    }

    #[test]
    fn elects_unique_leader_whp() {
        let mut failures = 0;
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut world = path_world(64);
            let result = elect_leader(&mut world, &mut rng);
            assert!(!result.candidates.is_empty());
            if result.leader().is_none() {
                failures += 1;
            }
        }
        // With the default budget failures should be very rare.
        assert!(failures <= 1, "too many failed elections: {failures}");
    }

    #[test]
    fn single_node_elects_itself() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut world = World::new(Topology::from_edges(1, &[]), 1);
        let result = elect_leader(&mut world, &mut rng);
        assert_eq!(result.leader(), Some(0));
    }

    #[test]
    fn round_count_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [16usize, 64, 256] {
            let mut world = path_world(n);
            let result = elect_leader(&mut world, &mut rng);
            let bound = 4 * (usize::BITS - n.leading_zeros()) as u64 + 12;
            assert_eq!(result.rounds, bound);
        }
    }
}
