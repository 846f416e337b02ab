//! Counting-on-a-Line (Section 6.1, Lemma 1).
//!
//! The geometric adaptation of the Counting-Upper-Bound protocol: the unique leader runs
//! the same probabilistic process, but its counters are stored on a physical line of
//! nodes — the leader's *tape* — whose length grows exactly when the binary
//! representation of `r0` needs one more bit. Recruiting a tape cell consumes a `q0` that
//! should have become a `q1`; that *debt* (`r2` in the paper) is repaid later by
//! converting encountered `q2`s back to `q1`s, which is what guarantees termination
//! (`r0 − ⌊lg r0⌋ ≥ ⌊lg r0⌋` for all `r0 ≥ 1`).
//!
//! ### Simplification relative to the paper
//! The paper's leader *walks* its tape (freezing the probabilistic process) to perform
//! each binary increment. Here the increment is performed in the leader's control state
//! in a single interaction, while the tape itself (its length, the stored bits, and the
//! debt bookkeeping) is maintained exactly as in the paper. This only removes an
//! `O(log n)` multiplicative factor of ineffective "walking" interactions per increment
//! and does not affect the probabilistic analysis of Theorem 1, because the walk happens
//! while the process is frozen. Experiment E7 measures the constructor as simplified.

use nc_core::{NodeId, Protocol, Transition};
use nc_geometry::Dir;
use nc_tm::arith::bit_width;

/// States of [`CountingOnALine`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CountingLineState {
    /// The unique leader (always the right endpoint of its tape).
    Leader(LeaderCounters),
    /// A halted leader; the final count is `counters.r0`.
    Halted(LeaderCounters),
    /// A tape cell storing one bit of `r0` and one of `r1`.
    TapeCell {
        /// Position of the cell on the tape (0 = oldest / least significant).
        index: u32,
        /// The stored bit of `r0`.
        r0_bit: bool,
        /// The stored bit of `r1`.
        r1_bit: bool,
    },
    /// An agent not yet counted.
    Q0,
    /// An agent counted once.
    Q1,
    /// An agent counted twice.
    Q2,
}

/// The leader's control state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LeaderCounters {
    /// First-meeting counter.
    pub r0: u64,
    /// Second-meeting counter.
    pub r1: u64,
    /// Outstanding debt `r2`: tape cells recruited from `q0`s that still owe a `q1`.
    pub debt: u64,
    /// Number of tape cells recruited so far (the leader's own cell not included).
    pub tape_cells: u32,
}

impl LeaderCounters {
    /// Tape capacity in bits: the leader's own cell plus the recruited cells.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.tape_cells + 1
    }

    /// Whether the tape is full, i.e. incrementing `r0` would need one more bit than the
    /// current capacity.
    #[must_use]
    pub fn tape_full_for_next(&self) -> bool {
        bit_width(self.r0 + 1) as u32 > self.capacity()
    }
}

/// The Counting-on-a-Line protocol with head start `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountingOnALine {
    head_start: u64,
}

impl CountingOnALine {
    /// Creates the protocol with head start `b ≥ 1` (see Theorem 1 for the role of `b`).
    ///
    /// # Panics
    /// Panics if `b == 0`.
    #[must_use]
    pub fn new(b: u64) -> CountingOnALine {
        assert!(b >= 1, "the head start must be at least 1");
        CountingOnALine { head_start: b }
    }

    /// The head start `b`.
    #[must_use]
    pub fn head_start(&self) -> u64 {
        self.head_start
    }
}

impl Protocol for CountingOnALine {
    type State = CountingLineState;

    fn initial_state(&self, node: NodeId, _n: usize) -> CountingLineState {
        if node.index() == 0 {
            CountingLineState::Leader(LeaderCounters {
                r0: 0,
                r1: 0,
                debt: 0,
                tape_cells: 0,
            })
        } else {
            CountingLineState::Q0
        }
    }

    fn transition(
        &self,
        a: &CountingLineState,
        pa: Dir,
        b: &CountingLineState,
        pb: Dir,
        bonded: bool,
    ) -> Option<Transition<CountingLineState>> {
        use CountingLineState::{Halted, Leader, TapeCell, Q0, Q1, Q2};
        let Leader(counters) = a else { return None };
        // Halting rule: once the two counters agree (after the head start is consumed),
        // the leader halts on its next interaction, exactly as in Theorem 1.
        if counters.r0 == counters.r1 && counters.r0 >= self.head_start {
            return Some(Transition {
                a: Halted(*counters),
                b: b.clone(),
                bond: bonded,
            });
        }
        match b {
            // First meeting of a q0 through the leader's right port and the q0's left
            // port (the leader's left side is its tape).
            Q0 if !bonded && pa == Dir::Right && pb == Dir::Left => {
                let mut next = *counters;
                if counters.tape_full_for_next() {
                    // The tape is full: recruit this q0 as a new tape cell. The leader
                    // hands its own cell over to the tape (storing the freshly computed
                    // low bit there is unnecessary — bits are written below) and moves
                    // onto the recruited node, so it stays the right endpoint. The q1
                    // this q0 owes becomes debt.
                    next.r0 += 1;
                    next.debt += 1;
                    next.tape_cells += 1;
                    let index = counters.tape_cells;
                    let r0_bit = (next.r0 >> index) & 1 == 1;
                    let r1_bit = (next.r1 >> index) & 1 == 1;
                    return Some(Transition {
                        a: TapeCell {
                            index,
                            r0_bit,
                            r1_bit,
                        },
                        b: Leader(next),
                        bond: true,
                    });
                }
                next.r0 += 1;
                Some(Transition {
                    a: Leader(next),
                    b: Q1,
                    bond: false,
                })
            }
            // Second meeting: only counted once the head start has been secured.
            Q1 if !bonded && counters.r0 >= self.head_start => {
                let mut next = *counters;
                next.r1 += 1;
                Some(Transition {
                    a: Leader(next),
                    b: Q2,
                    bond: false,
                })
            }
            // Debt repayment: a q2 is demoted back to q1 while the debt is positive.
            Q2 if !bonded && counters.debt > 0 => {
                let mut next = *counters;
                next.debt -= 1;
                Some(Transition {
                    a: Leader(next),
                    b: Q1,
                    bond: false,
                })
            }
            _ => None,
        }
    }

    fn is_halted(&self, state: &CountingLineState) -> bool {
        matches!(state, CountingLineState::Halted(_))
    }

    fn name(&self) -> &str {
        "counting-on-a-line"
    }
}

/// Extracts the halted leader's counters from a finished simulation, if any node halted.
#[must_use]
pub fn final_count<S>(sim: &nc_core::Simulation<CountingOnALine, S>) -> Option<LeaderCounters>
where
    S: nc_core::scheduler::Scheduler,
{
    sim.world().states().find_map(|s| match s {
        CountingLineState::Halted(c) => Some(*c),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::{Simulation, SimulationConfig};

    #[test]
    fn terminates_with_a_log_length_tape_and_a_good_count() {
        for (n, seed) in [(32usize, 5u64), (64, 9)] {
            let mut sim = Simulation::new(
                CountingOnALine::new(4),
                SimulationConfig::new(n).with_seed(seed),
            );
            let report = sim.run_until_any_halted();
            assert_eq!(report.reason, nc_core::StopReason::AllHalted, "n = {n}");
            let counters = final_count(&sim).expect("leader halted");
            // Theorem 1 guarantee carried over: the count reaches at least n/2 w.h.p.
            assert!(
                2 * counters.r0 >= n as u64,
                "n = {n}: leader only counted {}",
                counters.r0
            );
            assert!(counters.r0 < n as u64);
            // Lemma 1: the leader has formed a line whose length matches the binary
            // representation of its count (leader cell + recruited cells).
            let halted = sim.world().halted_nodes()[0];
            let tape = sim.world().shape_of(halted, false);
            assert_eq!(
                tape.len(),
                bit_width(counters.r0),
                "n = {n}: tape length does not match ⌊lg r0⌋ + 1"
            );
            assert!(tape.is_line(bit_width(counters.r0)));
            // The debt has been fully repaid.
            assert_eq!(
                counters.debt, 0,
                "n = {n}: termination with outstanding debt"
            );
        }
    }

    #[test]
    fn debt_is_bounded_by_tape_length() {
        // Invariant from the proof of Lemma 1: r2 ≤ ⌊lg r0⌋ at all times.
        let mut sim = Simulation::new(
            CountingOnALine::new(3),
            SimulationConfig::new(48).with_seed(2),
        );
        for _ in 0..200_000 {
            if !sim.step() {
                break;
            }
            let leader = sim.world().states().find_map(|s| match s {
                CountingLineState::Leader(c) | CountingLineState::Halted(c) => Some(*c),
                _ => None,
            });
            let c = leader.expect("leader always present");
            assert!(c.r0 >= c.r1);
            if c.r0 >= 1 {
                assert!(
                    c.debt <= u64::from(c.tape_cells),
                    "debt {} exceeds recruited tape cells {}",
                    c.debt,
                    c.tape_cells
                );
            }
            if sim.world().all_halted() || !sim.world().halted_nodes().is_empty() {
                break;
            }
        }
    }

    #[test]
    fn tape_cells_store_the_bits_of_the_count_at_recruitment_time() {
        let p = CountingOnALine::new(2);
        // A leader with r0 = 3 (11₂) and a single-cell tape is full for r0 = 4 (100₂).
        let counters = LeaderCounters {
            r0: 3,
            r1: 0,
            debt: 0,
            tape_cells: 1,
        };
        assert!(counters.tape_full_for_next());
        let t = p
            .transition(
                &CountingLineState::Leader(counters),
                Dir::Right,
                &CountingLineState::Q0,
                Dir::Left,
                false,
            )
            .unwrap();
        // The old leader cell becomes tape cell #1 and the bond is activated.
        assert!(t.bond);
        match (t.a, t.b) {
            (CountingLineState::TapeCell { index, .. }, CountingLineState::Leader(next)) => {
                assert_eq!(index, 1);
                assert_eq!(next.r0, 4);
                assert_eq!(next.debt, 1);
                assert_eq!(next.tape_cells, 2);
                assert!(!next.tape_full_for_next());
            }
            other => panic!("unexpected transition {other:?}"),
        }
    }

    #[test]
    fn head_start_delays_second_meetings() {
        let p = CountingOnALine::new(5);
        let counters = LeaderCounters {
            r0: 3,
            r1: 0,
            debt: 0,
            tape_cells: 2,
        };
        // r0 < b: q1s are ignored.
        assert!(p
            .transition(
                &CountingLineState::Leader(counters),
                Dir::Up,
                &CountingLineState::Q1,
                Dir::Down,
                false
            )
            .is_none());
        // r0 ≥ b: q1s are counted.
        let ready = LeaderCounters { r0: 5, ..counters };
        assert!(p
            .transition(
                &CountingLineState::Leader(ready),
                Dir::Up,
                &CountingLineState::Q1,
                Dir::Down,
                false
            )
            .is_some());
    }
}
