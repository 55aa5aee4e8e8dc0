//! PASC — the *primary and secondary circuit* algorithm (system S3).
//!
//! The PASC algorithm of Feldmann et al. lets a chain of amoebots compute,
//! bit by bit (LSB first), each amoebot's distance to the chain's start
//! (Lemma 3 of the paper), in 2 rounds per emitted bit and `O(log m)`
//! iterations total (Lemma 4). The paper extends it to rooted trees
//! (Corollary 5) and to weighted prefix sums (Corollary 6); §3.1 further
//! runs it over the *instances* of an Euler tour.
//!
//! All of these variants share one mechanism, implemented here by
//! [`PascRun`]: a set of *instances*, each owning a predecessor-side edge
//! (with a primary and a secondary link) and any number of successor-side
//! edges. Active instances cross the primary/secondary tracks between their
//! predecessor and successor sides, passive instances connect them straight,
//! and the start instance injects a beep on the track given by its own
//! activity. The track on which an instance hears the beep, XOR its own
//! activity, is the current bit of its weighted prefix count; instances
//! whose current bit is 1 retire. A designated *sync link* carries a global
//! "anyone still active?" beep each iteration, exactly the synchronization
//! technique the paper cites from Padalkin et al. \[26\].
//!
//! # Example: distances along a chain
//!
//! ```
//! use amoebot_circuits::{Topology, World};
//! use amoebot_pasc::{chain_specs, PascRun};
//!
//! let n = 6;
//! let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
//! // links 0/1 = primary/secondary, link 2 = sync.
//! let mut world = World::new(Topology::from_edges(n, &edges), 3);
//! let nodes: Vec<usize> = (0..n).collect();
//! let specs = chain_specs(world.topology(), &nodes, 0, 1, None);
//! let mut run = PascRun::new(&mut world, specs, 2);
//! let values = run.run_to_completion(&mut world);
//! // Each amoebot learned its distance to node 0.
//! assert_eq!(values, vec![0, 1, 2, 3, 4, 5]);
//! ```

pub mod run;
pub mod specs;
pub mod stream;

pub use run::{EdgeRef, InstanceSpec, PascRun};
pub use specs::{chain_specs, tree_specs};
pub use stream::{BitAccumulator, HalfCompare, StreamingCompare, StreamingSub};
