//! The shape-construction protocols of Michail (2015), built on the `nc-core` simulator.
//!
//! * [`line`](mod@line) — the spanning-line constructors of Section 4.1 (stabilizing).
//! * [`square`] — Protocol 1, the perimetric spanning-square constructor (stabilizing).
//! * [`square2`] — Protocol 2, the spanning square with turning marks (stabilizing).
//! * [`replication_line`] — Protocol 5, leaderless self-replicating lines (Section 6.2).
//! * [`counting_line`] — Counting-on-a-Line (Section 6.1, Lemma 1): terminating w.h.p.
//!   counting with the count stored on a physical line of length `log n`.
//! * [`universal`] — the terminating Square-Knowing-n constructor (Lemma 2), the
//!   universal constructor for TM-computable shapes with release of the off pixels
//!   (Theorem 4), and the pattern variant (Remark 4).
//! * [`pattern`] — the multi-color pattern constructor of Remark 4.
//! * [`self_replication`] — the Section 7 shape self-replication (squaring, copy, release).
//! * [`phase`] — sequential composition of terminating phases (counting → construction).
//!
//! The protocols are *sequentially composable*: the counting protocols terminate (w.h.p.
//! correctly), and their output — the population estimate — parameterises the
//! constructors, exactly the modular style the paper advocates. The experiment harness in
//! `nc-bench` performs that composition end to end.
//!
//! ```
//! use nc_core::{Simulation, SimulationConfig};
//! use nc_protocols::square::Square;
//!
//! let mut sim = Simulation::new(Square::new(), SimulationConfig::new(9).with_seed(1));
//! assert!(sim.run_until_stable().stabilized);
//! assert!(sim.output_shape().is_full_square(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counting_line;
pub mod line;
pub mod pattern;
pub mod phase;
pub mod replication_line;
pub mod self_replication;
mod snapshot;
pub mod square;
pub mod square2;
pub mod universal;
