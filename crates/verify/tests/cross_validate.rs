//! Cross-validation: sampled simulator trajectories stay inside the exhaustively
//! explored configuration graph.
//!
//! The explorer and the simulator share one semantics engine (`World`), but they
//! drive it through different paths: the explorer through full enumeration plus
//! per-edge rebuilt worlds, the simulator through the sampling schedulers, the
//! permissible-pair index and (for the adversaries) version-cached pair views. If
//! any of those layers disagreed on which interactions exist or what they do, a
//! sampled trajectory would leave the explored graph — either visiting a canonical
//! state the explorer never found, or taking a transition that is not an explored
//! edge. These tests walk real runs step by step and check both, for the uniform
//! scheduler and for all three adversarial-but-fair schedulers.

use nc_core::{
    EclipseScheduler, RoundRobinScheduler, Simulation, SimulationConfig, WorstCaseScheduler,
};
use nc_protocols::counting_line::CountingOnALine;
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;
use nc_verify::{explore, Exploration, VerifiedProtocol};

/// Steps `sim` to stability (bounded), asserting after every step that the current
/// configuration is a known canonical state and every observed transition is a
/// known canonical edge. Returns the number of distinct canonical states visited.
fn walk_within<P, S>(ex: &Exploration<P>, mut sim: Simulation<P, S>, max_steps: usize) -> usize
where
    P: VerifiedProtocol,
    S: nc_core::scheduler::Scheduler,
{
    let mut at = ex
        .index_of(&ex.key_of(sim.world()))
        .expect("initial configuration must be explored");
    let mut visited = vec![false; ex.states.len()];
    visited[at] = true;
    for step in 0..max_steps {
        if sim.world().is_stable_scan() {
            break;
        }
        sim.step();
        let key = ex.key_of(sim.world());
        let now = ex.index_of(&key).unwrap_or_else(|| {
            panic!("step {step}: simulator left the explored graph (unknown canonical state)")
        });
        if now != at {
            assert!(
                ex.states[at].successors.contains(&now),
                "step {step}: transition {at} -> {now} is not an explored edge"
            );
            visited[now] = true;
            at = now;
        }
    }
    assert!(
        sim.world().is_stable_scan(),
        "run did not stabilize within {max_steps} steps"
    );
    assert!(
        ex.states[at].stable,
        "simulator stabilized in a state the explorer does not consider stable"
    );
    assert!(
        ex.states[at].good_terminal,
        "simulator stabilized in a state failing the terminal spec"
    );
    visited.iter().filter(|&&v| v).count()
}

fn cross_validate<P: VerifiedProtocol>(protocol: P, n: usize) {
    let ex = explore(protocol.clone(), n).expect("exploration in bounds");
    ex.assert_clean();
    let mut total_visited = 0;
    for seed in 0..4 {
        let config = SimulationConfig::new(n).with_seed(seed);
        total_visited += walk_within(&ex, Simulation::new(protocol.clone(), config), 50_000);
    }
    for patience in [1, 7] {
        let config = SimulationConfig::new(n).with_seed(99);
        total_visited += walk_within(
            &ex,
            Simulation::with_scheduler(protocol.clone(), config, WorstCaseScheduler::new(patience)),
            200_000,
        );
        total_visited += walk_within(
            &ex,
            Simulation::with_scheduler(
                protocol.clone(),
                config,
                EclipseScheduler::against_leader(patience),
            ),
            200_000,
        );
    }
    total_visited += walk_within(
        &ex,
        Simulation::with_scheduler(
            protocol.clone(),
            SimulationConfig::new(n).with_seed(7),
            RoundRobinScheduler::new(),
        ),
        200_000,
    );
    assert!(total_visited > 0);
}

#[test]
fn global_line_runs_stay_inside_the_explored_graph() {
    cross_validate(GlobalLine, 5);
}

#[test]
fn square_runs_stay_inside_the_explored_graph() {
    cross_validate(Square::new(), 5);
}

#[test]
fn counting_runs_stay_inside_the_explored_graph() {
    cross_validate(CountingOnALine::new(1), 5);
}

/// The explorer must also agree with the simulator's *terminal* statistics: every
/// stable configuration a batch of runs lands in is one of the explorer's good
/// terminals, and at small n the runs collectively hit more than one of them
/// (the terminal set is genuinely multi-valued for the line).
#[test]
fn sampled_terminals_are_a_subset_of_proved_terminals() {
    let ex = explore(GlobalLine, 4).expect("exploration in bounds");
    ex.assert_clean();
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..12 {
        let mut sim = Simulation::new(GlobalLine, SimulationConfig::new(4).with_seed(seed));
        assert!(sim.run_until_stable().stabilized);
        let idx = ex
            .index_of(&ex.key_of(sim.world()))
            .expect("terminal must be explored");
        assert!(ex.states[idx].good_terminal);
        seen.insert(idx);
    }
    assert!(
        seen.len() > 1,
        "twelve seeds should reach at least two of the {} terminal classes",
        ex.terminal_count()
    );
}
