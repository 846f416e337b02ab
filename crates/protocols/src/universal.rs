//! The generic (universal) constructors of Section 6: terminating square construction
//! given (an estimate of) `n`, and construction of arbitrary TM-computable shapes on that
//! square followed by the release of the off pixels (Theorem 4) or the painting of a
//! pattern (Remark 4).
//!
//! The protocol composes three phases, all carried out by the unique leader through
//! pairwise interactions:
//!
//! 1. **Build** — knowing `n_believed` (w.h.p. between `n/2` and `n`, obtained by the
//!    counting phase of Section 5/6.1), the leader computes `d = ⌊√n_believed⌋` and grows
//!    a `d × d` square cell by cell along the zig-zag pixel order of Figure 7(b), handing
//!    the leadership to each freshly attached node. Every settled cell remembers its
//!    pixel index, which doubles as the "turning marks" the paper uses to guide walks.
//!    Adjacent settled cells bond over time (the `(q1, i), (q1, ī)` rigidity rule), and
//!    because cells know their pixel coordinates these bonds — and any re-attachment of a
//!    temporarily split fragment — are always placed consistently.
//! 2. **Decide** — with no target shape ([`UniversalConstructor::square_only`], Lemma 2)
//!    the leader simply bonds downward and **halts**: a terminating √n×√n-square
//!    constructor. With a target shape (Theorem 4) the leader walks the zig-zag tape
//!    backwards from pixel `d²−1` to pixel 0, marking every cell **on** or **off**
//!    according to the shape computer (the per-pixel TM of Definition 3). The leader
//!    asks it as a local pixel oracle ([`nc_tm::ShapeComputer`], a genuine machine run
//!    or a predicate) instead of simulating the machine on the square's cells as a
//!    distributed tape; the decided pixels, and so the shape, are the same, and E10b
//!    compares the two deciders.
//! 3. **Release** — bonds with at least one decided-off endpoint deactivate, so the off
//!    pixels end up as isolated free nodes and the remaining active structure is exactly
//!    the target shape. In pattern mode (Remark 4) nothing is released: the decided
//!    square itself, with its on/off (colour) labels, is the output pattern.

use nc_core::{NodeId, Protocol, Simulation, Transition};
use nc_geometry::{zigzag_coord, Coord, Dir, Shape};
use nc_tm::arith::integer_sqrt;
use nc_tm::ShapeComputer;
use std::sync::Arc;

/// What the constructor should do after the square is assembled.
#[derive(Clone)]
enum Target {
    /// Stop (and halt) once the square is complete — the Square-Knowing-n protocol.
    SquareOnly,
    /// Decide every pixel with the given shape computer and release the off pixels.
    Shape(Arc<dyn ShapeComputer>),
    /// Decide every pixel but keep the square assembled (pattern mode, Remark 4).
    Pattern(Arc<dyn ShapeComputer>),
}

/// The phase of the leader's program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Growing the square along the zig-zag order.
    Build,
    /// Walking backwards and deciding pixels.
    Decide,
}

/// States of [`UniversalConstructor`].
#[derive(Clone, PartialEq, Debug)]
pub enum UcState {
    /// The node currently carrying the leader (and the construction program).
    Leader {
        /// Current phase.
        phase: Phase,
        /// Pixel index of the node the leader currently occupies.
        pixel: u64,
    },
    /// A settled square cell.
    Cell {
        /// The cell's pixel index in the zig-zag order (the paper's turning marks).
        pixel: u64,
        /// The decision for this pixel: `None` until the leader's backward walk reaches
        /// it, then `Some(on)`.
        on: Option<bool>,
    },
    /// The leader after finishing the backward walk on pixel 0 (shape/pattern mode).
    Done {
        /// The decision for pixel 0.
        on: bool,
    },
    /// The leader after completing the square (square-only mode). Halted.
    HaltedSquare,
    /// A free node not (or no longer) part of the construction.
    Q0,
}

impl UcState {
    /// The pixel index and decision of a cell-like state (settled cell, done leader).
    fn as_cell(&self) -> Option<(u64, Option<bool>)> {
        match self {
            UcState::Cell { pixel, on } => Some((*pixel, *on)),
            UcState::Done { on } => Some((0, Some(*on))),
            UcState::HaltedSquare => None,
            _ => None,
        }
    }
}

/// The universal constructor (and its Square-Knowing-n restriction).
pub struct UniversalConstructor {
    n_believed: u64,
    d: u64,
    target: Target,
}

impl UniversalConstructor {
    /// A terminating constructor of the `⌊√n_believed⌋ × ⌊√n_believed⌋` square
    /// (Lemma 2): the leader halts when the square is complete.
    ///
    /// # Panics
    /// Panics if `n_believed == 0`.
    #[must_use]
    pub fn square_only(n_believed: u64) -> UniversalConstructor {
        UniversalConstructor::with_target(n_believed, Target::SquareOnly)
    }

    /// A terminating constructor of the shape computed by `computer` on the
    /// `⌊√n_believed⌋ × ⌊√n_believed⌋` square (Theorem 4): off pixels are released.
    ///
    /// # Panics
    /// Panics if `n_believed == 0`.
    #[must_use]
    pub fn shape(n_believed: u64, computer: Arc<dyn ShapeComputer>) -> UniversalConstructor {
        UniversalConstructor::with_target(n_believed, Target::Shape(computer))
    }

    /// A terminating constructor of the *pattern* computed by `computer` (Remark 4): the
    /// square stays assembled, its cells labeled on/off.
    ///
    /// # Panics
    /// Panics if `n_believed == 0`.
    #[must_use]
    pub fn pattern(n_believed: u64, computer: Arc<dyn ShapeComputer>) -> UniversalConstructor {
        UniversalConstructor::with_target(n_believed, Target::Pattern(computer))
    }

    fn with_target(n_believed: u64, target: Target) -> UniversalConstructor {
        assert!(
            n_believed >= 1,
            "the believed population size must be positive"
        );
        UniversalConstructor {
            n_believed,
            d: integer_sqrt(n_believed).max(1),
            target,
        }
    }

    /// The square dimension `d = ⌊√n_believed⌋` the constructor works with.
    #[must_use]
    pub fn dimension(&self) -> u64 {
        self.d
    }

    /// The believed population size this constructor was configured with.
    #[must_use]
    pub fn believed_n(&self) -> u64 {
        self.n_believed
    }

    fn last_pixel(&self) -> u64 {
        self.d * self.d - 1
    }

    /// `(x, y)` coordinates of a pixel.
    fn coords(&self, pixel: u64) -> Coord {
        let (x, y) = zigzag_coord(pixel, self.d as u32);
        Coord::new2(x as i32, y as i32)
    }

    /// The direction from pixel `i` to pixel `i + 1` along the zig-zag order.
    fn dir_to_next(&self, i: u64) -> Dir {
        let here = self.coords(i);
        let next = self.coords(i + 1);
        nc_geometry::direction_between(here, next).expect("consecutive pixels are adjacent")
    }

    fn decide(&self, pixel: u64) -> bool {
        match &self.target {
            Target::SquareOnly => true,
            Target::Shape(c) | Target::Pattern(c) => c.pixel(pixel, self.d),
        }
    }

    fn releases(&self) -> bool {
        matches!(self.target, Target::Shape(_))
    }
}

impl Protocol for UniversalConstructor {
    type State = UcState;

    fn initial_state(&self, node: NodeId, _n: usize) -> UcState {
        if node.index() == 0 {
            UcState::Leader {
                phase: Phase::Build,
                pixel: 0,
            }
        } else {
            UcState::Q0
        }
    }

    fn transition(
        &self,
        a: &UcState,
        pa: Dir,
        b: &UcState,
        pb: Dir,
        bonded: bool,
    ) -> Option<Transition<UcState>> {
        let t = |a, b, bond| Some(Transition { a, b, bond });
        // --- Leader program -------------------------------------------------------
        if let UcState::Leader { phase, pixel } = a {
            match phase {
                Phase::Build => {
                    if *pixel == self.last_pixel() {
                        // Square complete. Square-only mode: bond downward (for rigidity
                        // of the final corner) and halt; otherwise switch to deciding.
                        return match &self.target {
                            Target::SquareOnly => {
                                if self.d >= 2 {
                                    // Halt only on the interaction with the cell below,
                                    // activating that last bond in the same stroke.
                                    if let UcState::Cell { pixel: below, .. } = b {
                                        let below_coords = self.coords(*below);
                                        let here = self.coords(*pixel);
                                        if !bonded
                                            && below_coords == here + Dir::Down.unit()
                                            && pa == Dir::Down
                                            && pb == Dir::Up
                                        {
                                            return t(UcState::HaltedSquare, b.clone(), true);
                                        }
                                    }
                                    None
                                } else {
                                    t(UcState::HaltedSquare, b.clone(), bonded)
                                }
                            }
                            Target::Shape(_) | Target::Pattern(_) => t(
                                UcState::Leader {
                                    phase: Phase::Decide,
                                    pixel: *pixel,
                                },
                                b.clone(),
                                bonded,
                            ),
                        };
                    }
                    // Attach a free node at the next zig-zag position.
                    if !bonded && *b == UcState::Q0 {
                        let dir = self.dir_to_next(*pixel);
                        if pa == dir && pb == dir.opposite() {
                            return t(
                                UcState::Cell {
                                    pixel: *pixel,
                                    on: None,
                                },
                                UcState::Leader {
                                    phase: Phase::Build,
                                    pixel: pixel + 1,
                                },
                                true,
                            );
                        }
                    }
                    return None;
                }
                Phase::Decide => {
                    if *pixel == 0 {
                        // The walk is over: the leader decides its own (first) pixel.
                        return t(UcState::Done { on: self.decide(0) }, b.clone(), bonded);
                    }
                    // Move backwards over the chain bond to the previous pixel, deciding
                    // the pixel being left behind.
                    if bonded {
                        if let UcState::Cell {
                            pixel: prev,
                            on: None,
                        } = b
                        {
                            if *prev + 1 == *pixel {
                                return t(
                                    UcState::Cell {
                                        pixel: *pixel,
                                        on: Some(self.decide(*pixel)),
                                    },
                                    UcState::Leader {
                                        phase: Phase::Decide,
                                        pixel: *prev,
                                    },
                                    true,
                                );
                            }
                        }
                    }
                    return None;
                }
            }
        }
        // --- Rigidity and release rules between settled cells -----------------------
        let (ca, cb) = (a.as_cell(), b.as_cell());
        if let (Some((pa_pixel, on_a)), Some((pb_pixel, on_b))) = (ca, cb) {
            let pos_a = self.coords(pa_pixel);
            let pos_b = self.coords(pb_pixel);
            let adjacent_claim = pos_b == pos_a + pa.unit() && pb == pa.opposite();
            if !bonded {
                // Rigidity: adjacent cells (per their pixel coordinates) bond, unless one
                // of them has been decided off in shape mode (pattern mode never releases,
                // so there the whole square keeps bonding regardless of the labels).
                let neither_off = on_a != Some(false) && on_b != Some(false);
                if adjacent_claim && (neither_off || !self.releases()) {
                    return t(a.clone(), b.clone(), true);
                }
            } else if self.releases() {
                // Release: once both endpoints are decided and at least one is off, the
                // bond deactivates (and the off node will eventually become free).
                let both_decided = on_a.is_some() && on_b.is_some();
                let some_off = on_a == Some(false) || on_b == Some(false);
                if both_decided && some_off {
                    return t(a.clone(), b.clone(), false);
                }
            }
        }
        None
    }

    fn is_output(&self, state: &UcState) -> bool {
        match &self.target {
            Target::SquareOnly => !matches!(state, UcState::Q0),
            Target::Shape(_) => matches!(
                state,
                UcState::Cell { on: Some(true), .. } | UcState::Done { on: true }
            ),
            Target::Pattern(_) => {
                matches!(
                    state,
                    UcState::Cell { .. } | UcState::Done { .. } | UcState::Leader { .. }
                )
            }
        }
    }

    fn is_halted(&self, state: &UcState) -> bool {
        matches!(state, UcState::HaltedSquare)
    }

    fn name(&self) -> &str {
        match self.target {
            Target::SquareOnly => "square-knowing-n",
            Target::Shape(_) => "universal-constructor",
            Target::Pattern(_) => "pattern-constructor",
        }
    }
}

/// Whether the constructor's leader has finished its program (halted in square-only mode,
/// reached [`UcState::Done`] otherwise).
#[must_use]
pub fn leader_finished<S>(sim: &Simulation<UniversalConstructor, S>) -> bool
where
    S: nc_core::scheduler::Scheduler,
{
    sim.world()
        .states()
        .any(|s| matches!(s, UcState::Done { .. } | UcState::HaltedSquare))
}

/// Summary of a finished universal-construction run (one row of experiment E9).
#[derive(Clone, Debug, PartialEq)]
pub struct ConstructionReport {
    /// The population size the run used.
    pub n: usize,
    /// The believed count handed to the constructor.
    pub n_believed: u64,
    /// The square dimension `d`.
    pub d: u64,
    /// Whether the leader finished its program.
    pub finished: bool,
    /// The final output shape.
    pub shape: Shape,
    /// Waste: nodes that are not part of the output shape.
    pub waste: usize,
    /// Scheduler steps taken.
    pub steps: u64,
}

/// Runs a universal construction to completion (leader finished + configuration stable).
#[must_use]
pub fn construct(protocol: UniversalConstructor, n: usize, seed: u64) -> ConstructionReport {
    let n_believed = protocol.believed_n();
    let d = protocol.dimension();
    let config = nc_core::SimulationConfig::new(n).with_seed(seed);
    let mut sim = Simulation::new(protocol, config);
    let first = sim.run_until(|w| {
        w.states()
            .any(|s| matches!(s, UcState::Done { .. } | UcState::HaltedSquare))
    });
    let second = sim.run_until_stable();
    let shape = sim.output_shape();
    let waste = n - shape.len();
    ConstructionReport {
        n,
        n_believed,
        d,
        finished: leader_finished(&sim),
        shape,
        waste,
        steps: first.steps + second.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_tm::{library, PredicateShapeComputer};

    #[test]
    fn square_knowing_n_terminates_with_a_full_square() {
        for (n, seed) in [(9usize, 1u64), (16, 2), (20, 3)] {
            let protocol = UniversalConstructor::square_only(n as u64);
            let d = protocol.dimension();
            let report = construct(protocol, n, seed);
            assert!(report.finished, "n = {n}: leader did not halt");
            assert!(
                report.shape.is_full_square(d as u32),
                "n = {n}: expected a {d}×{d} square, got {:?}",
                report.shape
            );
            assert_eq!(report.waste, n - (d * d) as usize);
        }
    }

    #[test]
    fn underestimated_count_still_terminates_with_a_smaller_square() {
        // The counting phase guarantees only n/2 ≤ n_believed ≤ n; the constructor must
        // work with whatever it is told.
        let report = construct(UniversalConstructor::square_only(10), 16, 5);
        assert!(report.finished);
        assert!(report.shape.is_full_square(3));
        assert_eq!(report.waste, 16 - 9);
    }

    #[test]
    fn universal_constructor_builds_library_shapes() {
        for (computer, seed) in [
            (library::star_computer(), 11u64),
            (library::cross_computer(), 12),
            (library::staircase_computer(), 13),
            (library::border_computer(), 14),
        ] {
            let n = 25usize;
            let name = computer.name().to_string();
            let expected = computer.labeled_square(5).shape();
            let protocol = UniversalConstructor::shape(n as u64, Arc::from(computer));
            let report = construct(protocol, n, seed);
            assert!(report.finished, "{name}: leader did not finish");
            assert!(
                report.shape.congruent(&expected),
                "{name}: constructed shape differs from the target\nexpected {expected:?}\ngot {:?}",
                report.shape
            );
            // Waste bound of Theorem 4: at most (d−1)·d plus the a-priori waste n − d².
            let d = report.d as usize;
            assert!(report.waste <= (d - 1) * d + (n - d * d));
        }
    }

    #[test]
    fn pattern_mode_keeps_the_square_assembled() {
        let computer = library::cross_computer();
        let expected_on = computer.labeled_square(4).on_count();
        let protocol = UniversalConstructor::pattern(16, Arc::from(computer));
        let report = construct(protocol, 16, 9);
        assert!(report.finished);
        // The whole square remains a single assembled component…
        assert!(report.shape.is_full_square(4));
        // …and the on-labels match the computer (counted directly from the world states
        // via the output definition of shape mode: re-run in shape mode for comparison).
        let shape_report = construct(
            UniversalConstructor::shape(16, Arc::from(library::cross_computer())),
            16,
            9,
        );
        assert_eq!(shape_report.shape.len(), expected_on);
    }

    #[test]
    fn dimension_is_the_integer_square_root_of_the_estimate() {
        assert_eq!(UniversalConstructor::square_only(1).dimension(), 1);
        assert_eq!(UniversalConstructor::square_only(8).dimension(), 2);
        assert_eq!(UniversalConstructor::square_only(9).dimension(), 3);
        assert_eq!(UniversalConstructor::square_only(80).dimension(), 8);
    }

    #[test]
    fn zigzag_walk_directions() {
        let p = UniversalConstructor::square_only(9);
        // Bottom row runs right, then one step up, then left.
        assert_eq!(p.dir_to_next(0), Dir::Right);
        assert_eq!(p.dir_to_next(1), Dir::Right);
        assert_eq!(p.dir_to_next(2), Dir::Up);
        assert_eq!(p.dir_to_next(3), Dir::Left);
        assert_eq!(p.dir_to_next(5), Dir::Up);
        assert_eq!(p.dir_to_next(6), Dir::Right);
    }

    #[test]
    fn build_rule_rejects_wrong_ports() {
        let p = UniversalConstructor::square_only(9);
        let leader = UcState::Leader {
            phase: Phase::Build,
            pixel: 0,
        };
        // Pixel 1 lies to the right of pixel 0, so only (Right, Left) attaches.
        assert!(p
            .transition(&leader, Dir::Up, &UcState::Q0, Dir::Down, false)
            .is_none());
        let t = p
            .transition(&leader, Dir::Right, &UcState::Q0, Dir::Left, false)
            .unwrap();
        assert!(t.bond);
        match (t.a, t.b) {
            (
                UcState::Cell { pixel: 0, on: None },
                UcState::Leader {
                    phase: Phase::Build,
                    pixel: 1,
                },
            ) => {}
            other => panic!("unexpected transition {other:?}"),
        }
    }

    #[test]
    fn release_rule_waits_for_both_decisions() {
        let computer = PredicateShapeComputer::new("left-half", |i, d| {
            let (x, _) = nc_geometry::zigzag_coord(i, d as u32);
            u64::from(x) < d / 2
        });
        let p = UniversalConstructor::shape(16, Arc::new(computer));
        let on_cell = UcState::Cell {
            pixel: 0,
            on: Some(true),
        };
        let off_cell = UcState::Cell {
            pixel: 1,
            on: Some(false),
        };
        let undecided = UcState::Cell { pixel: 1, on: None };
        // Undecided neighbour: the bond stays.
        assert!(p
            .transition(&on_cell, Dir::Right, &undecided, Dir::Left, true)
            .is_none());
        // Both decided, one off: the bond deactivates.
        let t = p
            .transition(&on_cell, Dir::Right, &off_cell, Dir::Left, true)
            .unwrap();
        assert!(!t.bond);
        // Two on cells never release, and (re-)bond when adjacent.
        let other_on = UcState::Cell {
            pixel: 1,
            on: Some(true),
        };
        assert!(p
            .transition(&on_cell, Dir::Right, &other_on, Dir::Left, true)
            .is_none());
        let t = p
            .transition(&on_cell, Dir::Right, &other_on, Dir::Left, false)
            .unwrap();
        assert!(t.bond);
        // An off cell never re-bonds.
        assert!(p
            .transition(&on_cell, Dir::Right, &off_cell, Dir::Left, false)
            .is_none());
        // Non-adjacent pixels never bond, whatever the ports claim.
        let far = UcState::Cell {
            pixel: 9,
            on: Some(true),
        };
        assert!(p
            .transition(&on_cell, Dir::Right, &far, Dir::Left, false)
            .is_none());
    }

    #[test]
    fn composes_with_the_counting_estimate() {
        // Sequential composition in the paper's style: run the (population-protocol)
        // counting phase, then hand its estimate to the constructor.
        use nc_popproto::counting::{run_counting, CountingUpperBound};
        let n = 36usize;
        let outcome = run_counting(&CountingUpperBound::new(4), n, 21);
        assert!(outcome.halted);
        let believed = outcome.r0;
        assert!(believed >= (n as u64) / 2);
        let protocol = UniversalConstructor::square_only(believed);
        let d = protocol.dimension();
        let report = construct(protocol, n, 22);
        assert!(report.finished);
        assert!(report.shape.is_full_square(d as u32));
    }
}
