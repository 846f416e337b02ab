//! Deterministic shard-count-invariance suite for the sharded world runtime and
//! `SamplingMode::Sharded`.
//!
//! The sharded runtime's contract has five parts, each pinned here:
//!
//! 1. **Shard-count invariance** — a seeded sharded execution is
//!    *byte-identical* across 1, 2 and 4 shards: same terminal shape, same
//!    `ExecutionStats` (steps, effective steps, bulk credits, merges, splits), same
//!    final state vector, on `GlobalLine`, `Square` and `CountingOnALine`. Shard count
//!    is an execution-layout knob, never a semantic one.
//! 2. **Distributional exactness** — the first effective interaction the sharded
//!    sampler returns on a frozen configuration is uniform over the enumerated
//!    effective set (chi-square), and the credited jump lengths have the geometric
//!    mean `P/E` of the one-at-a-time sampler (the composed per-shard rates
//!    `Geometric(ΣEₛ/ΣPₛ)` equal the sequential `Geometric(E/P)`).
//! 3. **Index exactness under sharding** — with components straddling shard
//!    boundaries, the sharded pair index (per-shard sub-indices + the incrementally
//!    maintained shared aggregate) agrees with the brute-force oracle *and* with its
//!    own independent recount after every single apply, on merge-heavy, split-heavy,
//!    halting and class-churning protocols, and the cross-shard merge/split routing
//!    loses no node (10k-step churn stress vs a sequential replay).
//! 4. **Terminal equivalence and accounting** — sharded, adaptive and legacy
//!    executions reach the protocol's guaranteed outcome on `GlobalLine`, `Square` and
//!    `CountingOnALine` (the modes consume the seeded RNG stream differently, so what
//!    is compared is the uniquely determined stable output and the halting
//!    guarantee); bulk credits respect step budgets exactly and are reported through
//!    `ExecutionStats::skipped_steps`; live state diversity at the class cap does not
//!    overflow, and beyond it the sampler degrades to the adaptive strategy.
//! 5. **Thread model** — `World` and the service's job runner are `Send` (a job
//!    moves between workers); the index builds identically at 1 and 4 shards.

use shape_constructors::core::scheduler::{GreedyScheduler, Scheduler, UniformScheduler};
use shape_constructors::core::{
    ExecutionStats, Interaction, NodeId, Protocol, SamplingMode, Simulation, SimulationConfig,
    StopReason, Transition, World,
};
use shape_constructors::geometry::Dir;
use shape_constructors::protocols::counting_line::{final_count, CountingOnALine};
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;
use std::collections::HashMap;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

// ---------------------------------------------------------------------------------------
// 1. Shard-count invariance: same seed ⇒ identical execution across shard counts
// ---------------------------------------------------------------------------------------

/// Runs one sharded execution and returns everything observable about it.
fn run_sharded<P: Protocol, R>(
    protocol: P,
    n: usize,
    seed: u64,
    shards: usize,
    drive: impl FnOnce(&mut Simulation<P>) -> R,
) -> (R, ExecutionStats, Simulation<P>) {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(50_000_000)
        .with_sharded_sampling()
        .with_shards(shards);
    let mut sim = Simulation::new(protocol, config);
    let report = drive(&mut sim);
    let stats = sim.stats();
    (report, stats, sim)
}

#[test]
fn global_line_is_shard_count_invariant() {
    for seed in [4u64, 19] {
        let mut reference: Option<(ExecutionStats, Vec<_>)> = None;
        for shards in SHARD_COUNTS {
            let (report, stats, sim) = run_sharded(GlobalLine::new(), 24, seed, shards, |sim| {
                sim.run_until_stable()
            });
            assert_eq!(report.reason, StopReason::Stable, "shards = {shards}");
            assert!(sim.output_shape().is_line(24), "shards = {shards}");
            assert_eq!(sim.world().shard_count(), shards);
            assert!(sim.world().check_invariants());
            let states: Vec<_> = sim.world().state_slice().to_vec();
            match &reference {
                None => reference = Some((stats, states)),
                Some((ref_stats, ref_states)) => {
                    assert_eq!(
                        stats, *ref_stats,
                        "seed {seed}: ExecutionStats diverged at {shards} shards"
                    );
                    assert_eq!(
                        states, *ref_states,
                        "seed {seed}: terminal states diverged at {shards} shards"
                    );
                }
            }
        }
    }
}

#[test]
fn square_is_shard_count_invariant() {
    for (n, seed) in [(16usize, 6u64), (25, 11)] {
        let d = (n as f64).sqrt() as u32;
        let mut reference: Option<(ExecutionStats, Vec<_>)> = None;
        for shards in SHARD_COUNTS {
            let (report, stats, sim) =
                run_sharded(Square::new(), n, seed, shards, |sim| sim.run_until_stable());
            assert_eq!(report.reason, StopReason::Stable, "shards = {shards}");
            assert!(
                sim.output_shape().is_full_square(d),
                "shards = {shards}: {:?}",
                sim.output_shape()
            );
            let states: Vec<_> = sim.world().state_slice().to_vec();
            match &reference {
                None => reference = Some((stats, states)),
                Some((ref_stats, ref_states)) => {
                    assert_eq!(
                        stats, *ref_stats,
                        "n {n}: stats diverged at {shards} shards"
                    );
                    assert_eq!(
                        states, *ref_states,
                        "n {n}: states diverged at {shards} shards"
                    );
                }
            }
        }
    }
}

/// The interaction sequence the greedy scheduler drives `world` through to stability.
fn greedy_sequence<P: Protocol>(mut world: World<P>) -> Vec<Interaction> {
    let mut sequence = Vec::new();
    while let Some(interaction) = GreedyScheduler.next_interaction(&world) {
        assert!(
            world.apply(&interaction).effective,
            "greedy picks are effective"
        );
        sequence.push(interaction);
    }
    assert!(world.is_stable_scan());
    sequence
}

#[test]
fn greedy_executions_are_shard_count_invariant() {
    // The greedy pick is the first pair of the pair index's canonical walk, which is a
    // function of the configuration alone.
    let [one, four] =
        [1usize, 4].map(|s| greedy_sequence(World::with_shards(GlobalLine::new(), 12, s)));
    assert_eq!(one, four, "GlobalLine n = 12");
    let [one, four] = [1usize, 4].map(|s| greedy_sequence(World::with_shards(Square::new(), 9, s)));
    assert_eq!(one, four, "Square n = 9");
}

#[test]
fn counting_on_a_line_is_shard_count_invariant() {
    let mut reference: Option<(ExecutionStats, Option<_>)> = None;
    for shards in SHARD_COUNTS {
        let (report, stats, sim) = run_sharded(CountingOnALine::new(2), 16, 8, shards, |sim| {
            sim.run_until_any_halted()
        });
        assert_eq!(report.reason, StopReason::AllHalted, "shards = {shards}");
        let count = final_count(&sim);
        assert!(count.is_some(), "shards = {shards}: the leader halted");
        match &reference {
            None => reference = Some((stats, count)),
            Some((ref_stats, ref_count)) => {
                assert_eq!(stats, *ref_stats, "stats diverged at {shards} shards");
                assert_eq!(count, *ref_count, "final count diverged at {shards} shards");
            }
        }
    }
}

// ---------------------------------------------------------------------------------------
// 2. Distributional exactness of the sharded sampler
// ---------------------------------------------------------------------------------------

/// A mid-construction GlobalLine world: a partial line plus free nodes — small enough
/// to enumerate, sparse enough that the sharded machinery (not a fallback) serves it.
fn frozen_line_world(n: usize, bonds: usize, shards: usize) -> World<GlobalLine> {
    let mut sim = Simulation::new(
        GlobalLine::new(),
        SimulationConfig::new(n)
            .with_seed(23)
            .with_sharded_sampling()
            .with_shards(shards),
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
fn sharded_first_effective_interaction_is_uniform_and_layout_independent() {
    // The same frozen configuration materialised at 1, 2 and 4 shards: for every seed
    // the three layouts must return the *same* interaction (invariance), and across
    // seeds the draw must be uniform over the enumerated effective set (exactness).
    let worlds: Vec<World<GlobalLine>> = SHARD_COUNTS
        .iter()
        .map(|&s| frozen_line_world(10, 5, s))
        .collect();
    let oracle_world = &worlds[0];
    let permissible = oracle_world
        .enumerate_permissible(usize::MAX)
        .expect("unbounded enumeration");
    let effective: Vec<_> = permissible
        .iter()
        .filter(|i| {
            oracle_world
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
        let picks: Vec<_> = worlds
            .iter()
            .map(|world| {
                let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
                let picked = scheduler
                    .next_interaction(world)
                    .expect("effective pairs exist");
                assert!(
                    world
                        .effective_interaction_at(picked.a, picked.pa, picked.b, picked.pb)
                        .is_some(),
                    "sharded mode must return an effective interaction"
                );
                canonical(picked.a, picked.pa, picked.b, picked.pb)
            })
            .collect();
        assert!(
            picks.iter().all(|&p| p == picks[0]),
            "seed {seed}: draw depends on the shard layout: {picks:?}"
        );
        *tally.entry(picks[0]).or_default() += 1;
    }
    assert_eq!(
        tally.len(),
        k,
        "every enumerated effective pair must be reachable"
    );
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
    let world = frozen_line_world(12, 8, 4);
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
    // p = ΣEₛ/ΣPₛ = E/P; the composed sharded jumps must credit the same mean.
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
            .with_sharded_sampling()
            .with_shards(4),
    );
    let report = sim.run_until_stable();
    assert_eq!(report.reason, StopReason::StepBudget);
    assert_eq!(
        report.steps, 50,
        "bulk credits must not overshoot the budget"
    );
}

// ---------------------------------------------------------------------------------------
// 3. Index exactness with components straddling shards, and the merge-queue stress
// ---------------------------------------------------------------------------------------

/// Drives a sharded execution and validates the pair index — oracle agreement,
/// aggregate-vs-recount agreement, per-shard layout invariants — after every applied
/// interaction.
fn assert_pair_index_sound<P: Protocol>(protocol: P, n: usize, seed: u64, max_steps: u64) {
    assert_pair_index_sound_every(protocol, n, seed, max_steps, 4, 1);
}

/// [`assert_pair_index_sound`] at `shards` shards, validating after every `every`-th
/// applied interaction and in the final state (the oracle enumerates `O(n²)` pairs,
/// so populations large enough to span several bitset words need a stride).
fn assert_pair_index_sound_every<P: Protocol>(
    protocol: P,
    n: usize,
    seed: u64,
    max_steps: u64,
    shards: usize,
    every: u64,
) {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(max_steps)
        .with_sharded_sampling()
        .with_shards(shards);
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
fn pair_index_matches_oracle_with_components_straddling_shards() {
    // n = 13 at 4 shards: the spanning line inevitably crosses every shard boundary,
    // so intra pairs keep landing in different sub-indices than their peers' ports.
    assert_pair_index_sound(GlobalLine::new(), 13, 3, 2_000);
    assert_pair_index_sound(Square::new(), 12, 7, 2_000);
}

#[test]
fn pair_index_matches_oracle_on_counting_with_class_churn_across_shards() {
    // The counting leader's unbounded counters allocate a fresh state class on almost
    // every effective step, exercising class retirement with per-shard buckets: each
    // apply retires the slot the previous one allocated and the next reuses it.
    assert_pair_index_sound(CountingOnALine::new(2), 10, 9, 3_000);
    assert_pair_index_sound_every(CountingOnALine::new(2), 16, 5, 3_000, 1, 1);
    assert_pair_index_sound_every(CountingOnALine::new(2), 24, 41, 3_000, 2, 1);
}

#[test]
fn pair_index_matches_oracle_on_merge_heavy_line() {
    assert_pair_index_sound(GlobalLine::new(), 10, 3, 2_000);
    assert_pair_index_sound(GlobalLine::new(), 13, 11, 2_000);
}

// At n ≥ 130 every bucket spans several 64-bit words (intra sets ~6n bits), so
// insert/remove walk real Fenwick paths and every sampled pair goes through a
// multi-level select descent — at n ≤ 13 all of it fits in one word.

#[test]
fn pair_index_matches_oracle_on_a_line_spanning_several_bitset_words() {
    for shards in [1, 3] {
        assert_pair_index_sound_every(GlobalLine::new(), 150, 5, 100_000, shards, 15);
    }
}

#[test]
fn pair_index_matches_oracle_on_counting_spanning_several_bitset_words() {
    assert_pair_index_sound_every(CountingOnALine::new(2), 130, 9, 100_000, 3, 25);
}

#[test]
fn pair_index_matches_oracle_on_square() {
    // (12, 7) already runs in the straddling-shards test above.
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
/// pair up again. Never stabilises; at 4 shards most pairings cross a shard boundary,
/// which re-derives nodes in the sub-indices of two shards at once.
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
    // Small enough that the multi×multi cross universe stays inside the enumeration
    // budget: every version re-enumerates the cross-multi pairs, and the oracle
    // validation runs after every single apply while merges and splits keep crossing
    // the 4-shard boundaries.
    assert_pair_index_sound(Churn, 10, 17, 600);
}

/// A single anchor (node 0, owned by shard 0) grabs a free node — merging with a
/// partner that lives in another shard three quarters of the time — and releases it on
/// the next effective interaction. Every applied interaction is a merge or a split,
/// and there is never more than one multi-node component, so the stress isolates
/// exactly the cross-shard merge/split maintenance (no multi×multi enumeration noise).
struct AnchoredChurn;

#[derive(Clone, PartialEq, Debug)]
enum Anchor {
    Core,
    CoreBusy,
    Free,
    Held,
}

impl Protocol for AnchoredChurn {
    type State = Anchor;

    fn initial_state(&self, node: NodeId, _n: usize) -> Anchor {
        if node.index() == 0 {
            Anchor::Core
        } else {
            Anchor::Free
        }
    }

    fn transition(
        &self,
        a: &Anchor,
        _pa: Dir,
        b: &Anchor,
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<Anchor>> {
        match (a, b, bonded) {
            (Anchor::Core, Anchor::Free, false) => Some(Transition {
                a: Anchor::CoreBusy,
                b: Anchor::Held,
                bond: true,
            }),
            (Anchor::CoreBusy, Anchor::Held, true) => Some(Transition {
                a: Anchor::Core,
                b: Anchor::Free,
                bond: false,
            }),
            _ => None,
        }
    }
}

#[test]
fn merge_queue_stress_10k_steps_matches_the_sequential_replay() {
    // 10 000 applied merge/split interactions (several hundred thousand scheduler
    // selections once the credited geometric jumps are counted) of cross-shard churn
    // at 4 shards, with a 1-shard replay of the same seed running in lockstep. At
    // every checkpoint: no node is lost or duplicated (every node in exactly one live
    // component, sizes summing to n), the O(1)-maintained component bookkeeping
    // (live-component count, Σ|comp|² via the cross-component universe) matches the
    // sequential replay, and the states agree elementwise.
    let n = 64usize;
    let make = |shards: usize| {
        Simulation::new(
            AnchoredChurn,
            SimulationConfig::new(n)
                .with_seed(77)
                .with_sharded_sampling()
                .with_shards(shards),
        )
    };
    let mut sharded = make(4);
    let mut sequential = make(1);
    // Activate the pair index up front so every merge/split re-derives its nodes in
    // the per-shard sub-indices from the first step on.
    sharded
        .world()
        .validate_pair_index()
        .expect("initial index");
    sequential
        .world()
        .validate_pair_index()
        .expect("initial index");
    let mut checkpoints = 0u32;
    for step in 0..10_000u32 {
        assert!(sharded.step(), "churn never runs dry");
        assert!(sequential.step());
        if step % 250 == 0 || step == 9_999 {
            checkpoints += 1;
            let w4 = sharded.world();
            let w1 = sequential.world();
            // check_invariants recounts live components and Σ|comp|² from scratch and
            // compares them to the maintained values.
            assert!(w4.check_invariants(), "invariants broken at step {step}");
            // Node conservation: every node sits in exactly one live component and the
            // component sizes sum to n.
            let mut seen = vec![0u32; n];
            let mut total = 0usize;
            let mut comp_ids = std::collections::HashSet::new();
            for node in w4.nodes() {
                if comp_ids.insert(w4.component_id(node)) {
                    let comp = w4.component(node);
                    total += comp.len();
                    for &member in comp.members() {
                        seen[member.index()] += 1;
                    }
                }
            }
            assert_eq!(total, n, "nodes lost or duplicated at step {step}");
            assert!(
                seen.iter().all(|&c| c == 1),
                "membership broken at step {step}"
            );
            // Lockstep agreement with the sequential replay.
            assert_eq!(w4.component_count(), w1.component_count(), "step {step}");
            assert_eq!(
                w4.cross_component_universe(),
                w1.cross_component_universe(),
                "Σ|comp|² bookkeeping diverged at step {step}"
            );
            assert_eq!(w4.bond_count(), w1.bond_count(), "step {step}");
            assert_eq!(w4.state_slice(), w1.state_slice(), "step {step}");
        }
    }
    assert!(checkpoints >= 40);
    assert_eq!(sharded.stats(), sequential.stats());
    assert!(
        sharded.stats().steps > 20_000,
        "the credited geometric jumps must dwarf the 10k applied interactions"
    );
    // The churn genuinely crossed shard boundaries — the queues routed real traffic:
    // with the anchor pinned to shard 0 and partners uniform over four shards, about
    // three quarters of the ~10k merges/splits are cross-shard.
    let stats = sharded.world().shard_stats();
    assert!(
        stats.cross_shard_events > 5_000,
        "only {} cross-shard merge/split events in 10k churn steps",
        stats.cross_shard_events
    );
    assert_eq!(sequential.world().shard_stats().cross_shard_events, 0);
    sharded
        .world()
        .validate_pair_index()
        .expect("index exact after the stress");
}

#[test]
fn shard_stats_account_for_every_registration() {
    // Freeze a mid-construction line at 4 shards and cross-check the per-shard loads
    // against the world's own census: singletons + free ports + intra pairs must sum
    // to the global quantities, and nodes must be split into contiguous quarters.
    let world = frozen_line_world(16, 7, 4);
    let stats = world.shard_stats();
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.nodes, vec![4, 4, 4, 4]);
    let singleton_components = world
        .nodes()
        .filter(|&x| world.component(x).len() == 1)
        .count();
    assert_eq!(stats.total_singletons(), singleton_components);
    // Bonded pairs plus facing same-component adjacencies, one per unordered pair.
    let intra_oracle = world
        .enumerate_permissible(usize::MAX)
        .expect("unbounded enumeration")
        .iter()
        .filter(|i| {
            !matches!(
                i.permissibility,
                shape_constructors::core::Permissibility::Merge { .. }
            )
        })
        .count();
    assert_eq!(stats.total_intra_pairs(), intra_oracle);
    assert!(stats.total_free_ports() > 0);
}

// ---------------------------------------------------------------------------------------
// 4. Terminal equivalence across sampling modes, and accounting
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
// 5. Thread model and layout-independent index builds
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

#[test]
fn index_build_is_identical_at_one_and_four_shards() {
    // n = 1024 with merges mixed into the layout: the 1-shard and the 4-shard world
    // slice the index differently but must yield the same states and the same first
    // sharded draw for every seed.
    let n = 1024usize;
    let worlds: Vec<World<GlobalLine>> = [1usize, 4]
        .iter()
        .map(|&s| {
            let config = SimulationConfig::new(n)
                .with_seed(5)
                .with_sharded_sampling()
                .with_shards(s);
            let mut sim = Simulation::new(GlobalLine::new(), config);
            // A couple of steps activate the index and mix merges into the layout.
            sim.run_steps(5_000);
            std::mem::replace(sim.world_mut(), World::new(GlobalLine::new(), 1))
        })
        .collect();
    assert_eq!(worlds[0].state_slice(), worlds[1].state_slice());
    for seed in 0..20u64 {
        let picks: Vec<_> = worlds
            .iter()
            .map(|world| {
                let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
                let i = scheduler.next_interaction(world).expect("pairs exist");
                canonical(i.a, i.pa, i.b, i.pb)
            })
            .collect();
        assert_eq!(picks[0], picks[1], "seed {seed}: 4-shard build diverged");
    }
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
    let world = World::with_shards(ManyStates, 70, 4);
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
fn sharded_runs_report_bulk_credits_identically_across_layouts() {
    let mut per_layout = Vec::new();
    for shards in SHARD_COUNTS {
        let (report, stats, _) = run_sharded(GlobalLine::new(), 24, 12, shards, |sim| {
            sim.run_until_stable()
        });
        assert_eq!(report.reason, StopReason::Stable);
        assert!(
            stats.skipped_steps > 0,
            "a 24-node line construction must skip ineffective selections in bulk"
        );
        assert!(stats.skipped_steps <= stats.steps);
        assert_eq!(stats.steps, report.steps, "report covers the execution");
        per_layout.push(stats.skipped_steps);
    }
    assert!(per_layout.iter().all(|&s| s == per_layout[0]));
}
