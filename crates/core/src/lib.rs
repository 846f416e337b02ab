//! The geometric network-constructor model of Michail (2015) and a discrete-event
//! simulator for it.
//!
//! A *solution of automata* consists of `n` finite-state nodes, each with four (2D) or six
//! (3D) ports. An adversary (here: a seeded uniform-random, hence fair-with-probability-1)
//! scheduler repeatedly picks a *permissible* pair of node-ports — one whose bond is
//! already active, or one that could be activated so that the union of the two rigid
//! components is still a valid grid shape — and the two nodes apply a common transition
//! function that may update their states and the state (active/inactive) of the bond
//! between the chosen ports.
//!
//! The crate provides:
//!
//! * [`Protocol`] — the trait a constructor implements (Definition 1 of the paper);
//! * [`World`] — a configuration: node states, bonds, and rigid component embeddings;
//! * [`Simulation`] — a protocol + world + scheduler, with run-to-stabilization /
//!   run-to-termination helpers and execution statistics;
//! * [`scheduler`] — the uniform random scheduler (and deterministic ones for tests).
//!
//! # Example: a two-node handshake
//!
//! ```
//! use nc_core::{NodeId, Protocol, Simulation, SimulationConfig, Transition};
//! use nc_geometry::Dir;
//!
//! /// Nodes start as `Idle`; any two idle nodes bond and become `Done`.
//! struct Handshake;
//!
//! #[derive(Clone, PartialEq, Debug)]
//! enum S { Idle, Done }
//!
//! impl Protocol for Handshake {
//!     type State = S;
//!     fn initial_state(&self, _node: NodeId, _n: usize) -> S { S::Idle }
//!     fn transition(&self, a: &S, _pa: Dir, b: &S, _pb: Dir, bonded: bool)
//!         -> Option<Transition<S>>
//!     {
//!         if !bonded && *a == S::Idle && *b == S::Idle {
//!             Some(Transition { a: S::Done, b: S::Done, bond: true })
//!         } else {
//!             None
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Handshake, SimulationConfig::new(2).with_seed(1));
//! let report = sim.run_until_stable();
//! assert!(report.stabilized);
//! assert_eq!(sim.world().bond_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod component;
mod error;
mod index;
mod lock;
mod node;
mod protocol;
mod rank_set;
pub mod rng;
pub mod scheduler;
mod simulation;
pub mod snapshot;
mod stats;
mod world;

pub use adversary::{EclipseScheduler, RoundRobinScheduler, WorstCaseScheduler};
pub use component::{Component, Placement};
pub use error::CoreError;
pub use index::IndexStats;
pub use lock::{panic_message, relock};
pub use node::NodeId;
pub use protocol::{Protocol, Transition};
pub use scheduler::SamplingMode;
pub use simulation::{RunReport, Simulation, SimulationConfig, StopReason};
pub use snapshot::{Snapshot, SnapshotProtocol, SnapshotReader, SnapshotWriter};
pub use stats::ExecutionStats;
pub use world::{Interaction, InteractionOutcome, Permissibility, World};

/// Re-exported telemetry types (see `nc_obs`): downstream crates attach a
/// [`Telemetry`] handle via [`Simulation::set_telemetry`] / [`World::set_telemetry`]
/// without depending on the observability crate directly.
pub use nc_obs::{Phase, PhaseProfile, PhaseStat, Telemetry, TraceEvent, TraceEventKind};

/// Hard cap on simultaneously live state classes of the permissible-pair index.
/// Protocols that can bound their live state diversity below this may opt into sharded
/// sampling up front (the population-protocol engine does); protocols exceeding it at
/// runtime overflow the index and fall back to adaptive sampling.
pub use index::CLASS_CAP as MAX_LIVE_STATE_CLASSES;

/// Largest population the permissible-pair index serves; larger worlds answer every
/// stability query and jump draw from the exhaustive fallback paths.
pub use index::MAX_INDEXED_NODES;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
