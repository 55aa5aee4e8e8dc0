//! Reconfigurable-circuit substrate simulator for the amoebot model.
//!
//! Implements systems **S2** and **S17** of DESIGN.md: the reconfigurable
//! circuit extension of the amoebot model (Feldmann et al., §1.2 of the
//! paper) as an exact, fully synchronous, deterministic round-based
//! simulator.
//!
//! * Every edge between neighboring amoebots carries `c` *external links*;
//!   each endpoint owns one *pin* per link.
//! * Every amoebot partitions its pins into *partition sets*; the connected
//!   components of the resulting pin-configuration graph are *circuits*.
//! * An amoebot may *beep* on any of its partition sets; at the beginning of
//!   the next round every partition set of the same circuit receives the
//!   beep. Receivers learn neither the origin nor the multiplicity.
//!
//! The simulator counts rounds exactly: one [`World::tick`] is one round of
//! the fully synchronous activation model.
//!
//! # Example
//!
//! ```
//! use amoebot_circuits::{Topology, World};
//!
//! // A 3-node path with c = 1 link per edge.
//! let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
//! let mut world = World::new(topo, 1);
//! // Everyone joins the global circuit, node 0 beeps.
//! for v in 0..3 {
//!     world.global_pin_config(v);
//! }
//! world.beep(0, 0);
//! world.tick();
//! assert!(world.received(2, 0));
//! assert_eq!(world.rounds(), 1);
//! ```

pub mod bitset;
pub mod leader;
mod repair;
pub mod replay;
pub mod report;
pub mod snapshot;
pub mod topology;
pub mod world;

pub use bitset::BitSet;
pub use replay::{replay_trace, ReplayError, ReplayReport};
pub use report::RoundReport;
pub use topology::{PortId, Topology};
pub use world::{TickFaults, World};
