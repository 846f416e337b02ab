//! Suite for `SamplingMode::Sharded`, the geometric-jump sampler, and the
//! permissible-pair index it draws from. (The mode keeps the name it had when the
//! index was split into per-shard sub-indices; there is one index layout now, and
//! `SimulationConfig::shards` is only a recorded value.)
//!
//! The contract has four parts, each pinned here:
//!
//! 1. **Distributional exactness** — the first effective interaction the jump
//!    sampler returns on a frozen configuration is uniform over the enumerated
//!    effective set (chi-square), and the credited jump lengths have the geometric
//!    mean `P/E` of the one-at-a-time sampler; bulk credits respect step budgets
//!    exactly.
//! 2. **Index exactness** — the pair index (rank/select buckets plus the
//!    incrementally maintained aggregate) agrees with the brute-force oracle *and*
//!    with its own independent recount after every single apply, on merge-heavy,
//!    split-heavy, halting and class-churning protocols, including populations whose
//!    buckets span several bitset words.
//! 3. **Terminal equivalence and accounting** — sharded, adaptive and legacy
//!    executions reach the protocol's guaranteed outcome on `GlobalLine`, `Square` and
//!    `CountingOnALine` (the modes consume the seeded RNG stream differently, so what
//!    is compared is the uniquely determined stable output and the halting
//!    guarantee); bulk credits are reported through `ExecutionStats::skipped_steps`;
//!    live state diversity at the class cap does not overflow, and beyond it the
//!    sampler degrades to the adaptive strategy.
//! 4. **Thread model** — `World` and the service's job runner are `Send` (a job
//!    moves between workers).

use shape_constructors::core::scheduler::{Scheduler, UniformScheduler};
use shape_constructors::core::{
    ExecutionStats, NodeId, Protocol, SamplingMode, Simulation, SimulationConfig, StopReason,
    Transition, World,
};
use shape_constructors::geometry::{Dim, Dir};
use shape_constructors::protocols::counting_line::{final_count, CountingOnALine};
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;
use std::collections::HashMap;

/// Runs one sharded execution and returns everything observable about it.
fn run_sharded<P: Protocol, R>(
    protocol: P,
    n: usize,
    seed: u64,
    drive: impl FnOnce(&mut Simulation<P>) -> R,
) -> (R, ExecutionStats, Simulation<P>) {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(50_000_000)
        .with_sharded_sampling();
    let mut sim = Simulation::new(protocol, config);
    let report = drive(&mut sim);
    let stats = sim.stats();
    (report, stats, sim)
}

// ---------------------------------------------------------------------------------------
// 1. Distributional exactness of the jump sampler
// ---------------------------------------------------------------------------------------

/// A mid-construction GlobalLine world: a partial line plus free nodes — small enough
/// to enumerate, sparse enough that the pair index (not a fallback) serves it.
fn frozen_line_world(n: usize, bonds: usize) -> World<GlobalLine> {
    let mut sim = Simulation::new(
        GlobalLine::new(),
        SimulationConfig::new(n)
            .with_seed(23)
            .with_sharded_sampling(),
    );
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

fn canonical(a: NodeId, pa: Dir, b: NodeId, pb: Dir) -> (NodeId, Dir, NodeId, Dir) {
    if (a, pa) <= (b, pb) {
        (a, pa, b, pb)
    } else {
        (b, pb, a, pa)
    }
}

#[test]
fn sharded_first_effective_interaction_is_uniform() {
    // Across seeds the draw on one frozen configuration must be uniform over the
    // enumerated effective set.
    let world = frozen_line_world(10, 5);
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
            "sharded mode must return an effective interaction"
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
fn sharded_jump_lengths_have_the_composed_geometric_mean() {
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
    // p = E/P; the composed jumps must credit the same mean.
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

#[test]
fn sharded_jumps_respect_the_step_budget_exactly() {
    let mut sim = Simulation::new(
        GlobalLine::new(),
        SimulationConfig::new(32)
            .with_seed(2)
            .with_max_steps(50)
            .with_sharded_sampling(),
    );
    let report = sim.run_until_stable();
    assert_eq!(report.reason, StopReason::StepBudget);
    assert_eq!(
        report.steps, 50,
        "bulk credits must not overshoot the budget"
    );
}

// ---------------------------------------------------------------------------------------
// 2. Index exactness
// ---------------------------------------------------------------------------------------

/// Drives a sharded execution and validates the pair index — oracle agreement and
/// aggregate-vs-recount agreement — after every applied interaction.
fn assert_pair_index_sound<P: Protocol>(protocol: P, n: usize, seed: u64, max_steps: u64) {
    assert_pair_index_sound_every(protocol, n, seed, max_steps, 1);
}

/// [`assert_pair_index_sound`], validating after every `every`-th applied interaction and in the final state (the oracle enumerates `O(n²)` pairs,
/// so populations large enough to span several bitset words need a stride).
fn assert_pair_index_sound_every<P: Protocol>(
    protocol: P,
    n: usize,
    seed: u64,
    max_steps: u64,
    every: u64,
) {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(max_steps)
        .with_sharded_sampling();
    let mut sim = Simulation::new(protocol, config);
    sim.world().validate_pair_index().expect("initial index");
    for applied in 1..=max_steps {
        if sim.world().is_stable() || !sim.step() {
            break;
        }
        if applied % every == 0 {
            sim.world()
                .validate_pair_index()
                .unwrap_or_else(|e| panic!("after {} steps: {e}", sim.stats().steps));
            assert!(sim.world().check_invariants());
        }
    }
    sim.world()
        .validate_pair_index()
        .unwrap_or_else(|e| panic!("final state after {} steps: {e}", sim.stats().steps));
    assert!(sim.world().check_invariants());
}

#[test]
fn pair_index_matches_oracle_on_counting_with_class_churn() {
    // The counting leader's unbounded counters allocate a fresh state class on almost
    // every effective step, exercising class retirement with its buckets: each apply
    // retires the slot the previous one allocated and the next reuses it.
    for (n, seed) in [(10, 9), (16, 5), (24, 41)] {
        assert_pair_index_sound(CountingOnALine::new(2), n, seed, 3_000);
    }
}

#[test]
fn pair_index_matches_oracle_with_components_straddling_shards() {
    // The name predates the single index layout, when these runs placed one spanning
    // component across every shard boundary; they still check the index at n = 13 and
    // n = 12, where one component holds every node.
    assert_pair_index_sound(GlobalLine::new(), 13, 3, 2_000);
    assert_pair_index_sound(Square::new(), 12, 7, 2_000);
}

#[test]
fn pair_index_matches_oracle_on_merge_heavy_line() {
    for (n, seed) in [(10, 3), (13, 11)] {
        assert_pair_index_sound(GlobalLine::new(), n, seed, 2_000);
    }
}

// At n ≥ 130 every bucket spans several 64-bit words (intra sets ~6n bits), so
// insert/remove walk real Fenwick paths and every sampled pair goes through a
// multi-level select descent — at n ≤ 13 all of it fits in one word.

#[test]
fn pair_index_matches_oracle_on_a_line_spanning_several_bitset_words() {
    assert_pair_index_sound_every(GlobalLine::new(), 150, 5, 100_000, 15);
}

#[test]
fn pair_index_matches_oracle_on_counting_spanning_several_bitset_words() {
    assert_pair_index_sound_every(CountingOnALine::new(2), 130, 9, 100_000, 25);
}

#[test]
fn pair_index_matches_oracle_on_square() {
    // (12, 7) runs in the straddling-shards test above.
    assert_pair_index_sound(Square::new(), 9, 5, 2_000);
}

/// Bonds pairs of fresh nodes, then releases the bond (splits) — exercises the split
/// path of the index, where intra pairs become cross pairs again.
struct BondThenRelease;

#[derive(Clone, PartialEq, Debug)]
enum BR {
    Fresh,
    Bonded,
    Released,
}

impl Protocol for BondThenRelease {
    type State = BR;

    fn initial_state(&self, _node: NodeId, _n: usize) -> BR {
        BR::Fresh
    }

    fn transition(
        &self,
        a: &BR,
        _pa: Dir,
        b: &BR,
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<BR>> {
        match (a, b, bonded) {
            (BR::Fresh, BR::Fresh, false) => Some(Transition {
                a: BR::Bonded,
                b: BR::Bonded,
                bond: true,
            }),
            (BR::Bonded, BR::Bonded, true) => Some(Transition {
                a: BR::Released,
                b: BR::Released,
                bond: false,
            }),
            _ => None,
        }
    }
}

#[test]
fn pair_index_matches_oracle_across_splits() {
    assert_pair_index_sound(BondThenRelease, 8, 17, 1_000);
}

/// Endless churn: solo nodes pair up (merge), pairs dissolve (split), dissolved nodes
/// pair up again. Never stabilises.
struct Churn;

#[derive(Clone, PartialEq, Debug)]
enum ChurnState {
    Solo,
    Paired,
}

impl Protocol for Churn {
    type State = ChurnState;

    fn initial_state(&self, _node: NodeId, _n: usize) -> ChurnState {
        ChurnState::Solo
    }

    fn transition(
        &self,
        a: &ChurnState,
        _pa: Dir,
        b: &ChurnState,
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<ChurnState>> {
        match (a, b, bonded) {
            (ChurnState::Solo, ChurnState::Solo, false) => Some(Transition {
                a: ChurnState::Paired,
                b: ChurnState::Paired,
                bond: true,
            }),
            (ChurnState::Paired, ChurnState::Paired, true) => Some(Transition {
                a: ChurnState::Solo,
                b: ChurnState::Solo,
                bond: false,
            }),
            _ => None,
        }
    }
}

#[test]
fn pair_index_matches_oracle_across_cross_shard_churn() {
    // The name predates the single index layout, when these merges and splits crossed
    // shard boundaries. Small enough that the multi×multi cross universe stays inside
    // the enumeration budget: every version re-enumerates the cross-multi pairs, and
    // the oracle validation runs after every single apply while merges and splits
    // alternate.
    assert_pair_index_sound(Churn, 10, 17, 600);
}

/// A 3D leader that grows a crank: it bonds a free node's `Left` port on its own side
/// port, and the recruit leads on, straight through its `Right` port or, at the two
/// turns, through its `Up` port. Where a turn points in space depends on the rotation
/// each merge settles on (four rotations take `Left` onto a direction in 3D), so the
/// crank's shape does too. Two perpendicular turns cannot make a path collide with
/// itself, so every run places all `n` nodes.
struct Crank3d;

/// Nodes placed before the first turn, and between the turns.
const CRANK_ARM: u32 = 3;

#[derive(Clone, Copy, PartialEq, Debug)]
enum CrankState {
    Lead { side: Dir, placed: u32 },
    Settled,
    Free,
}

impl Protocol for Crank3d {
    type State = CrankState;

    fn dim(&self) -> Dim {
        Dim::Three
    }

    fn initial_state(&self, node: NodeId, _n: usize) -> CrankState {
        if node.index() == 0 {
            CrankState::Lead {
                side: Dir::Right,
                placed: 0,
            }
        } else {
            CrankState::Free
        }
    }

    fn transition(
        &self,
        a: &CrankState,
        pa: Dir,
        b: &CrankState,
        pb: Dir,
        bonded: bool,
    ) -> Option<Transition<CrankState>> {
        let &CrankState::Lead { side, placed } = a else {
            return None;
        };
        if bonded || pa != side || *b != CrankState::Free || pb != Dir::Left {
            return None;
        }
        let placed = placed + 1;
        let turn = placed == CRANK_ARM || placed == 2 * CRANK_ARM;
        let side = if turn { Dir::Up } else { Dir::Right };
        Some(Transition {
            a: CrankState::Settled,
            b: CrankState::Lead { side, placed },
            bond: true,
        })
    }
}

/// The jump sampler in 3D: every drawn interaction carries exactly the permissibility
/// (rotation and translation included) the world's own oracle gives the pair, the
/// pair index agrees with the enumeration after every applied step, and the terminal
/// crank is congruent to the one a legacy run builds.
#[test]
fn jump_sampler_draws_match_the_oracle_in_3d() {
    for (n, seeds) in [(12usize, 1..9u64), (40, 1..4)] {
        for seed in seeds {
            let mut world = World::new(Crank3d, n);
            let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
            let mut applied = 0;
            while !world.is_stable() {
                let drawn = scheduler
                    .next_interaction(&world)
                    .expect("an unstable world has an effective pair");
                assert_eq!(
                    Some(drawn),
                    world.interaction(drawn.a, drawn.pa, drawn.b, drawn.pb),
                    "n = {n} seed {seed}, draw {applied}"
                );
                assert!(world.apply(&drawn).effective);
                applied += 1;
                world
                    .validate_pair_index()
                    .unwrap_or_else(|e| panic!("n = {n} seed {seed}, step {applied}: {e}"));
                assert!(world.check_invariants());
            }
            assert_eq!(applied, n - 1, "n = {n} seed {seed}: every node placed");
            // Legacy draws the same pairs in either orientation and settles every merge
            // through the oracle: the crank must come out congruent.
            let mut legacy = Simulation::new(
                Crank3d,
                SimulationConfig::new(n)
                    .with_seed(seed)
                    .with_legacy_sampling(),
            );
            assert_eq!(legacy.run_until_stable().reason, StopReason::Stable);
            assert_eq!(legacy.stats().effective_steps, (n - 1) as u64);
            let shape = world.output_shape();
            assert_eq!(shape.len(), n);
            assert_eq!(
                shape.canonical(),
                legacy.output_shape().canonical(),
                "n = {n} seed {seed}: the jump sampler's crank differs from legacy's"
            );
        }
    }
}

// ---------------------------------------------------------------------------------------
// 3. Terminal equivalence across sampling modes, and accounting
// ---------------------------------------------------------------------------------------

const MODES: [(&str, SamplingMode); 3] = [
    ("legacy", SamplingMode::Legacy),
    ("adaptive", SamplingMode::Adaptive),
    ("sharded", SamplingMode::Sharded),
];

#[test]
fn all_modes_build_the_same_spanning_line() {
    for n in [8usize, 16] {
        for (name, mode) in MODES {
            let mut sim = Simulation::new(
                GlobalLine::new(),
                SimulationConfig::new(n).with_seed(4).with_sampling(mode),
            );
            let report = sim.run_until_stable();
            assert_eq!(report.reason, StopReason::Stable, "{name} n = {n}");
            assert!(sim.output_shape().is_line(n), "{name} n = {n}");
            assert_eq!(
                sim.stats().effective_steps,
                (n - 1) as u64,
                "{name} n = {n}"
            );
            assert_eq!(sim.stats().merges, (n - 1) as u64, "{name} n = {n}");
            assert!(sim.world().check_invariants());
        }
    }
}

#[test]
fn all_modes_build_the_same_square() {
    for n in [9usize, 16] {
        let d = (n as f64).sqrt() as u32;
        for (name, mode) in MODES {
            let mut sim = Simulation::new(
                Square::new(),
                SimulationConfig::new(n).with_seed(6).with_sampling(mode),
            );
            let report = sim.run_until_stable();
            assert_eq!(report.reason, StopReason::Stable, "{name} n = {n}");
            assert!(
                sim.output_shape().is_full_square(d),
                "{name} n = {n}: {:?}",
                sim.output_shape()
            );
            assert!(sim.world().check_invariants());
        }
    }
}

#[test]
fn all_modes_halt_the_counting_leader() {
    for n in [8usize, 16] {
        for (name, mode) in MODES {
            let mut sim = Simulation::new(
                CountingOnALine::new(2),
                SimulationConfig::new(n)
                    .with_seed(8)
                    .with_max_steps(20_000_000)
                    .with_sampling(mode),
            );
            let report = sim.run_until_any_halted();
            assert_eq!(report.reason, StopReason::AllHalted, "{name} n = {n}");
            let counters = final_count(&sim).expect("the leader halted");
            assert!(counters.r0 >= 2, "{name} n = {n}: head start not counted");
            assert!(sim.world().check_invariants());
        }
    }
}

/// Every node has a unique `(id, counter)` state and each effective interaction bumps
/// one counter: the live state diversity sits *exactly* at the index's class cap (64)
/// forever, and every step retires one sole-member class while allocating a fresh one.
struct SteadyChurn;

impl Protocol for SteadyChurn {
    type State = (u32, u32);

    fn initial_state(&self, node: NodeId, _n: usize) -> (u32, u32) {
        (node.index() as u32, 0)
    }

    fn transition(
        &self,
        a: &(u32, u32),
        _pa: Dir,
        b: &(u32, u32),
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<(u32, u32)>> {
        (!bonded).then_some(Transition {
            a: *a,
            b: (b.0, b.1 + 1),
            bond: false,
        })
    }
}

#[test]
fn steady_state_diversity_at_the_class_cap_does_not_overflow() {
    // 64 live classes = exactly the cap; replacing a sole-member class must reuse its
    // slot instead of spuriously overflowing and disabling the index forever.
    let mut sim = Simulation::new(
        SteadyChurn,
        SimulationConfig::new(64)
            .with_seed(31)
            .with_sharded_sampling(),
    );
    for _ in 0..50 {
        assert!(sim.step());
    }
    sim.world()
        .validate_pair_index()
        .expect("the index must survive steady-state churn at the class cap");
}

// ---------------------------------------------------------------------------------------
// 4. Thread model and the class-overflow fallback
// ---------------------------------------------------------------------------------------

/// The service's worker pool moves each job's runner (and the world inside it) to
/// whichever worker claims the slice; that needs `Send` only. Nothing shares a world
/// between threads, so `World` is deliberately not `Sync`.
#[test]
fn worlds_and_job_runners_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<World<GlobalLine>>();
    assert_send::<World<Square>>();
    assert_send::<World<CountingOnALine>>();
    assert_send::<nc_service::runner::JobRunner>();
}

/// Every node starts in a distinct state, which overflows the index's class table;
/// sharded mode must degrade to the adaptive strategy and keep producing permissible
/// interactions.
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
fn class_overflow_falls_back_to_adaptive_under_sharded_sampling() {
    let world = World::new(ManyStates, 70);
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

#[test]
fn sharded_runs_report_bulk_credits() {
    let (report, stats, _) = run_sharded(GlobalLine::new(), 24, 12, |sim| sim.run_until_stable());
    assert_eq!(report.reason, StopReason::Stable);
    assert!(
        stats.skipped_steps > 0,
        "a 24-node line construction must skip ineffective selections in bulk"
    );
    assert!(stats.skipped_steps <= stats.steps);
    assert_eq!(stats.steps, report.steps, "report covers the execution");
}
