//! Pins the pair-index flush work of the paper's constructors: the nodes re-derived
//! per effective step (`Phase::Flush` units over `ExecutionStats::effective_steps`),
//! at fixed seeds and small `n`, under the jump sampler.
//!
//! A flush re-derives the participants of an effective interaction, every node a
//! merge moved, the unmoved neighbours of the cells it filled, and every member of a
//! split component. On `GlobalLine` and `CountingOnALine` each effective step touches
//! exactly its two participants (a free node joins at the line's end, whose only
//! neighbour is the other participant), so the ratio is exactly 2; `Square` also
//! re-derives the neighbours a joining node's cell touches. The pins are exact
//! counts of deterministic executions: a change that widens the re-derived set (or
//! changes an execution) fails here.

use shape_constructors::core::{
    Phase, Protocol, Simulation, SimulationConfig, StopReason, Telemetry,
};
use shape_constructors::protocols::counting_line::CountingOnALine;
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;

/// `(flush units, effective steps)` of one traced jump-sampler run to its stop.
fn flush_work<P: Protocol>(
    protocol: P,
    n: usize,
    seed: u64,
    run: impl FnOnce(&mut Simulation<P>) -> StopReason,
) -> (u64, u64) {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_sharded_sampling();
    let mut sim = Simulation::new(protocol, config);
    sim.set_telemetry(Telemetry::enabled());
    let reason = run(&mut sim);
    assert!(
        matches!(reason, StopReason::Stable | StopReason::AllHalted),
        "n = {n}, seed {seed}: stopped by {reason:?}"
    );
    let units = sim.telemetry().phase_profile().get(Phase::Flush).units;
    (units, sim.stats().effective_steps)
}

#[test]
fn line_and_counting_flush_exactly_the_two_participants() {
    for seed in [1, 2, 3] {
        for n in [64, 256] {
            let (units, effective) =
                flush_work(GlobalLine::new(), n, seed, |s| s.run_until_stable().reason);
            assert_eq!(effective, n as u64 - 1, "line n = {n}, seed {seed}");
            assert_eq!(units, 2 * effective, "line n = {n}, seed {seed}");
            let (units, effective) = flush_work(CountingOnALine::new(2), n, seed, |s| {
                s.run_until_any_halted().reason
            });
            assert!(effective > 0, "counting n = {n}, seed {seed}");
            assert_eq!(units, 2 * effective, "counting n = {n}, seed {seed}");
        }
    }
}

#[test]
fn square_flush_units_are_pinned() {
    // (n, flush units, effective steps): 2.44 and 2.47 nodes per effective step. The
    // square's construction is schedule-independent in these counts, so every seed
    // reads the same pair.
    for (n, want_units, want_effective) in [(64, 273, 112), (256, 1_185, 480)] {
        for seed in [1, 2, 3] {
            let (units, effective) =
                flush_work(Square::new(), n, seed, |s| s.run_until_stable().reason);
            assert_eq!(
                (units, effective),
                (want_units, want_effective),
                "square n = {n}, seed {seed}: (flush units, effective steps)"
            );
        }
    }
}
