//! Exhaustive small-`n` model checking for the network constructors.
//!
//! The simulator samples runs; this crate *proves* properties, for small populations,
//! by enumerating every reachable configuration. The explorer ([`explore()`]) walks the
//! reachable configuration graph breadth-first, quotienting configurations by node
//! relabeling and rigid motion ([`canon`]), and checks three properties against a
//! per-protocol terminal specification ([`spec`]):
//!
//! 1. **No bad terminals** — every *stable* reachable configuration (no permissible
//!    pair is effective) satisfies the protocol's terminal predicate: correct shape,
//!    correct counts, leader halted where the protocol terminates.
//! 2. **Fair termination** — every reachable configuration has a path to a good
//!    terminal. On a finite configuration graph this is exactly what the model's
//!    fairness condition needs: a fair schedule cannot avoid a configuration that
//!    stays reachable forever, so "always reachable" implies "eventually reached".
//! 3. **Oracle agreement** — every transition the explorer takes goes through the
//!    production machinery ([`nc_core::World::effective_interaction_at`] +
//!    [`nc_core::World::apply`]), on a copy rebuilt from the state's configuration
//!    whose pair index is live, so the apply updates it incrementally. The explorer
//!    therefore doubles as a cross-validation oracle for the permissible-pair index:
//!    any divergence between the enumerated pair set, the `O(1)` stability answer,
//!    the exhaustive scan and the index maintained through each edge
//!    ([`nc_core::World::validate_pair_index`]) is reported as a counterexample, not
//!    silently absorbed.
//!
//! Violations carry a *minimal* (BFS-depth) replayable trace of port pairs from the
//! initial configuration, and can be exported as a PR-5 format snapshot so the exact
//! configuration pins a regression test.
//!
//! # Why quotienting by relabeling-and-rigid-motion is sound
//!
//! A configuration is `(states, bonds)` plus an embedding of every component. In 2D,
//! a bond between port `pa` of `a` and port `pb` of `b` fixes `b`'s rotation relative
//! to `a`'s (exactly one of the four planar rotations maps `pb` onto the direction
//! facing `pa`), and fixes `b`'s cell. By induction along any spanning tree, the link
//! table determines every component's embedding up to one rigid motion per component.
//! Permissibility and the transition function are invariant under rigid motions and
//! node relabeling, so the quotient graph has exactly the same dynamics — and the
//! canonical form only needs `(states, links)` up to node relabeling
//! ([`canon::canonical_key`]). The same bond argument makes that form cheap: a bond
//! names both of its ports, so a breadth-first walk from a fixed root that follows
//! ports in index order numbers a component identically under any labels. Encoding
//! each component from the roots carrying its least state, keeping the smallest
//! encoding and sorting the components gives a complete invariant of `(states,
//! links)` up to relabeling in polynomial time, with no search over permutations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod explore;
pub mod spec;

pub use canon::{canonical_key, extract, fingerprint, rebuild, Config};
pub use explore::{explore, Exploration, PairChoice, StateRec, Violation, ViolationKind};
pub use spec::VerifiedProtocol;
