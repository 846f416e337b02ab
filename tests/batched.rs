//! One-shard checks of batched geometric-jump sampling: `SamplingMode::Sharded` with a
//! single shard, where every ineffective selection between two effective ones is
//! credited in one `Geometric(E/P)` jump over the whole permissible-pair index.
//!
//! `sharded.rs` pins the same sampler across 1/2/4-shard layouts; this suite keeps the
//! plain one-shard contract on its own, so a failure here isolates the jump sampler
//! from the shard decomposition:
//!
//! 1. **Index exactness** — after every applied interaction of a class-churning
//!    protocol, the pair index agrees with the enumeration oracle.
//! 2. **Distributional exactness** — on a frozen configuration the first effective
//!    interaction is uniform over the enumerated effective set (chi-square), and the
//!    credited jump lengths have the geometric mean `permissible / effective` the
//!    one-at-a-time sampler would realize.
//! 3. **Accounting** — bulk-credited steps respect step budgets exactly and are
//!    reported through `ExecutionStats::skipped_steps`, and a protocol whose live
//!    state diversity overflows the index's class table falls back to the adaptive
//!    strategy instead of failing.

use shape_constructors::core::scheduler::{Scheduler, UniformScheduler};
use shape_constructors::core::{
    NodeId, Protocol, SamplingMode, Simulation, SimulationConfig, StopReason, Transition, World,
};
use shape_constructors::geometry::Dir;
use shape_constructors::protocols::counting_line::CountingOnALine;
use shape_constructors::protocols::line::GlobalLine;
use std::collections::HashMap;

/// A one-shard jump-sampling configuration, independent of `NC_SHARDS`.
fn jump_config(n: usize, seed: u64) -> SimulationConfig {
    SimulationConfig::new(n)
        .with_seed(seed)
        .with_sharded_sampling()
        .with_shards(1)
}

// ---------------------------------------------------------------------------------------
// 1. Index exactness against the enumeration oracle
// ---------------------------------------------------------------------------------------

#[test]
fn pair_index_matches_oracle_on_counting_with_class_churn() {
    // The counting leader's unbounded counters allocate a fresh state class on almost
    // every effective step, exercising class retirement and memo purging.
    let max_steps = 3_000;
    let mut sim = Simulation::new(
        CountingOnALine::new(2),
        jump_config(10, 9).with_max_steps(max_steps),
    );
    sim.world().validate_pair_index().expect("initial index");
    for _ in 0..max_steps {
        if sim.world().is_stable() || !sim.step() {
            break;
        }
        sim.world()
            .validate_pair_index()
            .unwrap_or_else(|e| panic!("after {} steps: {e}", sim.stats().steps));
        assert!(sim.world().check_invariants());
    }
}

// ---------------------------------------------------------------------------------------
// 2. Distributional exactness on a frozen configuration
// ---------------------------------------------------------------------------------------

/// A mid-construction GlobalLine world: a partial line plus free nodes — small enough
/// to enumerate, sparse enough that the jump machinery (not a fallback) serves it.
fn frozen_line_world(n: usize, bonds: usize) -> World<GlobalLine> {
    let mut sim = Simulation::new(GlobalLine::new(), jump_config(n, 23));
    let report = sim.run_until(|w| w.bond_count() >= bonds);
    assert_eq!(report.reason, StopReason::Predicate);
    std::mem::replace(sim.world_mut(), World::new(GlobalLine::new(), 1))
}

/// Upper 99.9% quantile of the chi-square distribution with `df` degrees of freedom
/// (Wilson–Hilferty approximation; ample for the sample sizes used here).
fn chi_square_crit_999(df: f64) -> f64 {
    let z = 3.0902; // Φ⁻¹(0.999)
    let t = 1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt();
    df * t * t * t
}

#[test]
fn first_effective_interaction_is_uniform_over_the_enumerated_set() {
    let world = frozen_line_world(10, 5);
    // Oracle: the exact effective subset of the enumerated permissible set.
    let permissible = world
        .enumerate_permissible(usize::MAX)
        .expect("unbounded enumeration");
    let effective: Vec<_> = permissible
        .iter()
        .filter(|i| {
            world
                .effective_interaction_at(i.a, i.pa, i.b, i.pb)
                .is_some()
        })
        .collect();
    let k = effective.len();
    assert!(
        k > 1,
        "the frozen configuration must have several effective pairs"
    );
    let canonical = |a: NodeId, pa: Dir, b: NodeId, pb: Dir| {
        if (a, pa) <= (b, pb) {
            (a, pa, b, pb)
        } else {
            (b, pb, a, pa)
        }
    };
    let mut tally: HashMap<_, u64> = HashMap::new();
    let trials = 200 * k as u64;
    for seed in 0..trials {
        let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
        let picked = scheduler
            .next_interaction(&world)
            .expect("effective pairs exist");
        assert!(
            world
                .effective_interaction_at(picked.a, picked.pa, picked.b, picked.pb)
                .is_some(),
            "jump sampling must return an effective interaction"
        );
        *tally
            .entry(canonical(picked.a, picked.pa, picked.b, picked.pb))
            .or_default() += 1;
    }
    assert_eq!(
        tally.len(),
        k,
        "every enumerated effective pair must be reachable"
    );
    for i in &effective {
        assert!(
            tally.contains_key(&canonical(i.a, i.pa, i.b, i.pb)),
            "missing effective pair {i:?}"
        );
    }
    let expected = trials as f64 / k as f64;
    let chi2: f64 = tally
        .values()
        .map(|&obs| {
            let d = obs as f64 - expected;
            d * d / expected
        })
        .sum();
    let crit = chi_square_crit_999((k - 1) as f64);
    assert!(
        chi2 < crit,
        "chi-square {chi2:.1} exceeds the 99.9% critical value {crit:.1} (k = {k})"
    );
}

#[test]
fn jump_lengths_have_the_geometric_mean_of_the_one_at_a_time_sampler() {
    let world = frozen_line_world(12, 8);
    let permissible = world
        .enumerate_permissible(usize::MAX)
        .expect("unbounded enumeration");
    let effective = permissible
        .iter()
        .filter(|i| {
            world
                .effective_interaction_at(i.a, i.pa, i.b, i.pb)
                .is_some()
        })
        .count();
    assert!(effective > 0);
    // The one-at-a-time sampler needs Geometric(p) selections per effective one, with
    // p = |effective| / |permissible|; the jump sampler must credit the same mean.
    let expected_mean = permissible.len() as f64 / effective as f64;
    let mut scheduler = UniformScheduler::with_mode(99, SamplingMode::Sharded);
    let trials = 4_000u64;
    let mut total_steps = 0u64;
    for _ in 0..trials {
        let picked = scheduler.next_interaction(&world);
        assert!(picked.is_some());
        total_steps += scheduler.drain_skipped_steps() + 1;
    }
    let mean = total_steps as f64 / trials as f64;
    assert!(
        (mean - expected_mean).abs() < expected_mean * 0.12,
        "mean credited steps {mean:.2} vs expected {expected_mean:.2}"
    );
}

// ---------------------------------------------------------------------------------------
// 3. Accounting: budgets, skip reporting, class overflow
// ---------------------------------------------------------------------------------------

#[test]
fn batched_jumps_respect_the_step_budget_exactly() {
    let mut sim = Simulation::new(GlobalLine::new(), jump_config(32, 2).with_max_steps(50));
    let report = sim.run_until_stable();
    assert_eq!(report.reason, StopReason::StepBudget);
    assert_eq!(
        report.steps, 50,
        "bulk credits must not overshoot the budget"
    );
}

#[test]
fn batched_runs_report_their_bulk_credits() {
    let mut sim = Simulation::new(GlobalLine::new(), jump_config(24, 12));
    let report = sim.run_until_stable();
    assert_eq!(report.reason, StopReason::Stable);
    let stats = sim.stats();
    assert!(
        stats.skipped_steps > 0,
        "a 24-node line construction must skip ineffective selections in bulk"
    );
    assert!(stats.skipped_steps <= stats.steps);
    assert_eq!(
        stats.steps, report.steps,
        "the report covers the whole execution"
    );
}

/// Every node starts in a distinct state, which overflows the index's class table
/// (capped well below 70 live classes); jump sampling must degrade to the adaptive
/// strategy and keep producing permissible interactions.
struct ManyStates;

impl Protocol for ManyStates {
    type State = u32;

    fn initial_state(&self, node: NodeId, _n: usize) -> u32 {
        node.index() as u32
    }

    fn transition(
        &self,
        a: &u32,
        _pa: Dir,
        b: &u32,
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<u32>> {
        // Pairs of distinct states bond once; the states stay distinct so the class
        // table stays overflowed.
        if !bonded && a != b && a.is_multiple_of(2) && !b.is_multiple_of(2) {
            Some(Transition {
                a: *a,
                b: *b,
                bond: true,
            })
        } else {
            None
        }
    }
}

#[test]
fn class_overflow_falls_back_to_adaptive_sampling() {
    let world = World::with_shards(ManyStates, 70, 1);
    assert!(
        world.validate_pair_index().is_err(),
        "70 distinct live states must overflow the class table"
    );
    let mut scheduler = UniformScheduler::with_mode(5, SamplingMode::Sharded);
    for _ in 0..100 {
        let picked = scheduler.next_interaction(&world).expect("pairs exist");
        assert!(
            world
                .permissibility(picked.a, picked.pa, picked.b, picked.pb)
                .is_some(),
            "fallback must still produce permissible pairs"
        );
        assert_eq!(scheduler.drain_skipped_steps(), 0);
    }
}
