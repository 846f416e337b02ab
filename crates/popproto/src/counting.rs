//! The **Counting-Upper-Bound** protocol (Section 5.1, Theorem 1).
//!
//! A unique leader `l` keeps two counters `r0` and `r1` (in its unbounded local memory;
//! the geometric variant of Section 6.1 stores them on a line instead). All other agents
//! start as `q0`. Whenever the leader meets a `q0` it converts it to `q1` and increments
//! `r0`; whenever it meets a `q1` it converts it to `q2` and increments `r1`; when
//! `r0 = r1` the leader halts. `r0` starts with a head start of `b` (implemented, as the
//! paper suggests, by pre-converting `b` agents to `q1`).
//!
//! Theorem 1: the protocol halts in every execution and, when it does, w.h.p.
//! (probability at least `1 − 1/n^(b−2)`) the leader has counted `r0 ≥ n/2` agents.

use crate::{PopSimulation, PopulationProtocol};

/// Agent states of the Counting-Upper-Bound protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CountingState {
    /// The unique leader with its two counters.
    Leader {
        /// Number of `q0`s counted so far (including the initial head start).
        r0: u64,
        /// Number of `q1`s counted so far.
        r1: u64,
    },
    /// A halted leader, remembering its final `r0`.
    Halted {
        /// Final value of the `r0` counter.
        r0: u64,
    },
    /// An agent not yet met by the leader.
    Q0,
    /// An agent met once by the leader.
    Q1,
    /// An agent met twice by the leader.
    Q2,
}

/// The Counting-Upper-Bound protocol with head start `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountingUpperBound {
    head_start: u64,
}

impl CountingUpperBound {
    /// Creates the protocol with the given head start `b ≥ 1`.
    ///
    /// The failure probability bound of Theorem 1 is `1/n^(b−2)`, so `b ≥ 3` is needed
    /// for a non-trivial guarantee; `b = 4` or `5` is typical.
    ///
    /// # Panics
    /// Panics if `b == 0`.
    #[must_use]
    pub fn new(b: u64) -> CountingUpperBound {
        assert!(b >= 1, "the head start must be at least 1");
        CountingUpperBound { head_start: b }
    }

    /// The configured head start `b`.
    #[must_use]
    pub fn head_start(&self) -> u64 {
        self.head_start
    }
}

impl PopulationProtocol for CountingUpperBound {
    type State = CountingState;

    fn initial_state(&self, node: usize, n: usize) -> CountingState {
        // The paper gives r0 a head start of b by having the leader convert b q0s to q1
        // as a preprocessing step; we reproduce that preprocessing in the initial
        // configuration. If the population is so small that fewer than b non-leader
        // agents exist, the head start is capped (the protocol then halts immediately
        // with r0 = r1 possible only after counting everyone).
        let b = self.head_start.min(n.saturating_sub(1) as u64);
        if node == 0 {
            CountingState::Leader { r0: b, r1: 0 }
        } else if (node as u64) <= b {
            CountingState::Q1
        } else {
            CountingState::Q0
        }
    }

    fn interact(
        &self,
        a: &CountingState,
        b: &CountingState,
    ) -> Option<(CountingState, CountingState)> {
        match (a, b) {
            // Halting rule: (l(r0, r1), ·) → (halt, ·) if r0 = r1.
            (CountingState::Leader { r0, r1 }, other) if r0 == r1 => {
                Some((CountingState::Halted { r0: *r0 }, other.clone()))
            }
            // (l(r0, r1), q0) → (l(r0 + 1, r1), q1).
            (CountingState::Leader { r0, r1 }, CountingState::Q0) => Some((
                CountingState::Leader {
                    r0: r0 + 1,
                    r1: *r1,
                },
                CountingState::Q1,
            )),
            // (l(r0, r1), q1) → (l(r0, r1 + 1), q2).
            (CountingState::Leader { r0, r1 }, CountingState::Q1) => Some((
                CountingState::Leader {
                    r0: *r0,
                    r1: r1 + 1,
                },
                CountingState::Q2,
            )),
            _ => None,
        }
    }

    fn is_halted(&self, state: &CountingState) -> bool {
        matches!(state, CountingState::Halted { .. })
    }

    fn live_state_bound(&self) -> Option<usize> {
        // The counter values are unbounded, but at any time the configuration holds at
        // most one `Leader{..}` or `Halted{..}` state (there is a unique leader) plus
        // `Q0`, `Q1`, `Q2`: five simultaneously live states, far under the class cap,
        // so the engine runs this protocol with Gillespie-style sharded jumps. The
        // leader's class churns on every effective interaction; the index retires the
        // sole-member class and allocates the successor without overflowing.
        Some(5)
    }

    fn name(&self) -> &str {
        "counting-upper-bound"
    }
}

/// The outcome of one execution of the counting protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountingOutcome {
    /// Population size the protocol ran on.
    pub n: usize,
    /// Head start `b` used.
    pub head_start: u64,
    /// Final value of the leader's `r0` counter.
    pub r0: u64,
    /// Whether the leader halted (Theorem 1 says this happens in every execution; a
    /// `false` here can only mean the step budget was exhausted).
    pub halted: bool,
    /// Whether the count succeeded in the sense of Theorem 1 (`r0 ≥ n/2`).
    pub success: bool,
    /// Total scheduler steps until the leader halted.
    pub steps: u64,
    /// Effective interactions until the leader halted.
    pub effective_steps: u64,
}

impl CountingOutcome {
    /// The upper bound on `n` the leader can report (`2·r0 ≥ n` w.h.p.).
    #[must_use]
    pub fn upper_bound(&self) -> u64 {
        2 * self.r0
    }

    /// The relative estimate `r0 / n` (Remark 2 reports this is ≈ 0.9 in practice).
    #[must_use]
    pub fn relative_estimate(&self) -> f64 {
        self.r0 as f64 / self.n as f64
    }
}

/// Runs the counting protocol once on `n` agents and reports the outcome.
///
/// The step budget is `64·n²·(ln n + 4)`, far above the `O(n² log n)` expectation of
/// Remark 1, so a `halted = false` outcome indicates a genuine problem.
///
/// # Panics
/// Panics if `n < 2`.
#[must_use]
pub fn run_counting(protocol: &CountingUpperBound, n: usize, seed: u64) -> CountingOutcome {
    let mut sim = PopSimulation::new(*protocol, n, seed);
    let budget = step_budget(n);
    let report = sim.run_until_any_halted(budget);
    let r0 = sim
        .states()
        .iter()
        .find_map(|s| match s {
            CountingState::Halted { r0 } => Some(*r0),
            CountingState::Leader { r0, .. } => Some(*r0),
            _ => None,
        })
        .unwrap_or(0);
    CountingOutcome {
        n,
        head_start: protocol.head_start(),
        r0,
        halted: report.condition_met(),
        success: 2 * r0 >= n as u64,
        steps: report.steps,
        effective_steps: report.effective_steps,
    }
}

fn step_budget(n: usize) -> u64 {
    let n = n as u64;
    64 * n * n * (((n as f64).ln().ceil() as u64) + 4)
}

/// Aggregated statistics over repeated executions (one row of experiment E1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountingAggregate {
    /// Population size.
    pub n: usize,
    /// Head start `b`.
    pub head_start: u64,
    /// Number of trials.
    pub trials: u32,
    /// Fraction of trials with `r0 ≥ n/2`.
    pub success_rate: f64,
    /// Fraction of trials in which the leader halted within the step budget.
    pub halt_rate: f64,
    /// Mean of `r0 / n` over all trials.
    pub mean_relative_estimate: f64,
    /// Mean number of scheduler steps to termination.
    pub mean_steps: f64,
}

/// Runs `trials` independent executions and aggregates them.
///
/// # Panics
/// Panics if `trials == 0` or `n < 2`.
#[must_use]
pub fn aggregate_counting(
    protocol: &CountingUpperBound,
    n: usize,
    trials: u32,
    seed: u64,
) -> CountingAggregate {
    assert!(trials > 0, "at least one trial required");
    let mut successes = 0u32;
    let mut halts = 0u32;
    let mut sum_rel = 0.0;
    let mut sum_steps = 0.0;
    for t in 0..trials {
        let outcome = run_counting(protocol, n, seed.wrapping_add(u64::from(t) * 0x9E37_79B9));
        if outcome.success {
            successes += 1;
        }
        if outcome.halted {
            halts += 1;
        }
        sum_rel += outcome.relative_estimate();
        sum_steps += outcome.steps as f64;
    }
    CountingAggregate {
        n,
        head_start: protocol.head_start(),
        trials,
        success_rate: f64::from(successes) / f64::from(trials),
        halt_rate: f64::from(halts) / f64::from(trials),
        mean_relative_estimate: sum_rel / f64::from(trials),
        mean_steps: sum_steps / f64::from(trials),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PopulationProtocol;

    #[test]
    fn initial_configuration_has_head_start() {
        let p = CountingUpperBound::new(3);
        assert_eq!(
            p.initial_state(0, 10),
            CountingState::Leader { r0: 3, r1: 0 }
        );
        assert_eq!(p.initial_state(1, 10), CountingState::Q1);
        assert_eq!(p.initial_state(3, 10), CountingState::Q1);
        assert_eq!(p.initial_state(4, 10), CountingState::Q0);
        // Head start is capped for tiny populations.
        assert_eq!(
            p.initial_state(0, 3),
            CountingState::Leader { r0: 2, r1: 0 }
        );
    }

    #[test]
    fn transition_rules_match_the_paper() {
        let p = CountingUpperBound::new(2);
        let leader = CountingState::Leader { r0: 5, r1: 3 };
        // Leader meets q0: r0 increments, q0 → q1.
        assert_eq!(
            p.interact(&leader, &CountingState::Q0),
            Some((CountingState::Leader { r0: 6, r1: 3 }, CountingState::Q1))
        );
        // Leader meets q1: r1 increments, q1 → q2.
        assert_eq!(
            p.interact(&leader, &CountingState::Q1),
            Some((CountingState::Leader { r0: 5, r1: 4 }, CountingState::Q2))
        );
        // Leader meets q2: ineffective.
        assert_eq!(p.interact(&leader, &CountingState::Q2), None);
        // Non-leaders never interact with each other.
        assert_eq!(p.interact(&CountingState::Q0, &CountingState::Q1), None);
        // Halting rule when r0 = r1.
        let tied = CountingState::Leader { r0: 4, r1: 4 };
        assert_eq!(
            p.interact(&tied, &CountingState::Q2),
            Some((CountingState::Halted { r0: 4 }, CountingState::Q2))
        );
        assert!(p.is_halted(&CountingState::Halted { r0: 4 }));
        assert!(!p.is_halted(&leader));
    }

    #[test]
    fn invariants_along_an_execution() {
        // j = r0 − r1, r0 ≥ r1 and r1 = (#q2) hold throughout (proof of Theorem 1).
        let p = CountingUpperBound::new(3);
        let mut sim = PopSimulation::new(p, 60, 123);
        for _ in 0..20_000 {
            sim.step();
            let mut q1 = 0u64;
            let mut q2 = 0u64;
            let mut leader: Option<(u64, u64)> = None;
            for s in sim.states() {
                match s {
                    CountingState::Q1 => q1 += 1,
                    CountingState::Q2 => q2 += 1,
                    CountingState::Leader { r0, r1 } => leader = Some((*r0, *r1)),
                    CountingState::Halted { r0 } => leader = Some((*r0, *r0)),
                    CountingState::Q0 => {}
                }
            }
            let (r0, r1) = leader.expect("leader always present");
            assert!(r0 >= r1, "r0 ≥ r1 must always hold");
            assert_eq!(r1, q2, "r1 counts exactly the q2 agents");
            assert_eq!(r0 - r1, q1, "the walk position j equals #q1");
            if sim.halted_agents().len() == 1 {
                break;
            }
        }
    }

    #[test]
    fn always_terminates_and_usually_succeeds() {
        let p = CountingUpperBound::new(4);
        let agg = aggregate_counting(&p, 80, 20, 7);
        assert!(
            (agg.halt_rate - 1.0).abs() < f64::EPSILON,
            "Theorem 1: always halts"
        );
        assert!(
            agg.success_rate >= 0.9,
            "success rate {} too low",
            agg.success_rate
        );
        assert!(agg.mean_relative_estimate > 0.5);
        assert!(agg.mean_steps > 0.0);
    }

    #[test]
    fn outcome_accessors() {
        let outcome = CountingOutcome {
            n: 100,
            head_start: 4,
            r0: 90,
            halted: true,
            success: true,
            steps: 1000,
            effective_steps: 200,
        };
        assert_eq!(outcome.upper_bound(), 180);
        assert!((outcome.relative_estimate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tiny_population_halts_immediately() {
        // n = 2, head start capped to 1: the single non-leader starts as q1, the leader
        // counts it, then r0 = r1 and the next meeting halts.
        let outcome = run_counting(&CountingUpperBound::new(5), 2, 3);
        assert!(outcome.halted);
        assert!(outcome.r0 >= 1);
    }
}
