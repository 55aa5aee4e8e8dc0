//! The shortest path forest algorithm for multiple sources (§5).
//!
//! * [`account`] — the DnC forest's round account (DESIGN §2 item 1),
//! * [`line`](mod@line) — the line algorithm (§5.1, Lemma 40),
//! * [`merge`] — the merging algorithm (§5.2, Lemma 42),
//! * [`propagate`] — the propagation algorithm (§5.3, Lemma 50),
//! * [`dnc`] — the divide-and-conquer shortest path forest algorithm
//!   (§5.4, Theorem 56 / Corollary 57).

pub mod account;
pub mod dnc;
pub mod line;
pub mod merge;
pub mod propagate;

pub use account::RoundAccount;
pub use dnc::{shortest_path_forest, ForestOutcome};
pub use line::line_forest;
pub use merge::merge_forests;
pub use propagate::propagate_forest;

/// An S-shortest-path forest over a region: every member either is a source
/// (root) or knows its parent; `dist(S, v)` equals the member's tree depth.
#[derive(Debug, Clone)]
pub struct Forest {
    /// Region membership.
    pub member: Vec<bool>,
    /// Parent pointers (`None` for sources and non-members).
    pub parents: Vec<Option<usize>>,
    /// The sources (roots).
    pub sources: Vec<usize>,
}

impl Forest {
    /// An empty forest over `n` nodes.
    pub fn empty(n: usize) -> Forest {
        Forest {
            member: vec![false; n],
            parents: vec![None; n],
            sources: Vec::new(),
        }
    }

    /// Builds a forest from parents + sources; members are sources and
    /// every node with a parent.
    pub fn from_parents(parents: Vec<Option<usize>>, sources: Vec<usize>) -> Forest {
        let mut member = vec![false; parents.len()];
        for (v, p) in parents.iter().enumerate() {
            if p.is_some() {
                member[v] = true;
            }
        }
        for &s in &sources {
            member[s] = true;
        }
        Forest {
            member,
            parents,
            sources,
        }
    }
}
