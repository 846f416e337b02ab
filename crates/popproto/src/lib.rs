//! Population-protocol substrate and the terminating probabilistic counting protocols of
//! Section 5 of Michail (2015).
//!
//! The geometric model degenerates, for the purposes of Section 5, to a classical
//! population protocol: `n` agents on a complete interaction graph, a uniform random
//! scheduler selecting one of the `n(n−1)/2` pairs per step, and (for the counting
//! protocols) a distinguished leader with unbounded local memory.
//!
//! Provided here:
//!
//! * [`PopulationProtocol`] / [`PopSimulation`] — the engine, a thin wrapper over the
//!   shared `nc-core` runtime (the [`engine::Clique`] adapter runs a population protocol
//!   as a geometric protocol that never bonds), reporting through the same
//!   [`ExecutionStats`]/[`RunReport`] vocabulary as the shape constructors;
//! * [`counting`] — the **Counting-Upper-Bound** protocol of Theorem 1 (always terminates,
//!   w.h.p. counts at least `n/2`);
//! * [`uid_counting`] — counting with unique identifiers: the simple protocol of
//!   Theorem 2 and the improved Protocol 3 of Theorem 3;
//! * [`conjecture`] — a leaderless counting attempt used as experimental evidence for
//!   Conjecture 1;
//! * [`walk`] — the Ehrenfest / gambler's-ruin random-walk models used in the proof of
//!   Theorem 1 (closed forms and exact dynamic programs).
//!
//! # Example
//!
//! ```
//! use nc_popproto::counting::{CountingUpperBound, run_counting};
//!
//! let outcome = run_counting(&CountingUpperBound::new(4), 100, 7);
//! assert!(outcome.halted);
//! assert!(outcome.r0 >= 50, "w.h.p. the leader counts at least n/2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conjecture;
pub mod counting;
pub mod engine;
pub mod uid_counting;
pub mod walk;

pub use engine::{Clique, PopSimulation, PopulationProtocol};
pub use nc_core::{ExecutionStats, RunReport, StopReason};
