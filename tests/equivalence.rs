//! Equivalence and soundness suite for the indexed runtime.
//!
//! Three layers of guarantees are checked here:
//!
//! 1. **Sampler equivalence** — the legacy rejection sampler (`SamplingMode::Legacy`)
//!    is byte-identical to the original implementation (replicated inline as the
//!    reference), and the adaptive sampler produces executions with the same terminal
//!    behaviour (same final shapes / halting guarantees) on `GlobalLine`, `Square` and
//!    `CountingOnALine` across population sizes.
//! 2. **Index soundness** — after every configuration change, the pair-index backed
//!    `find_effective_interaction` agrees with the exhaustive
//!    `find_effective_interaction_scan` about whether an effective interaction exists,
//!    and `check_invariants()` holds; exercised on merge-heavy, split-heavy and
//!    halting protocols, and on the two inputs where the exhaustive fallback answers
//!    (class-table overflow, an over-budget multi×multi universe).
//! 3. **Enumeration exactness** — `enumerate_permissible` produces exactly the
//!    permissible pairs that brute-force enumeration finds, with no duplicates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shape_constructors::core::scheduler::{Scheduler, UniformScheduler};
use shape_constructors::core::{
    NodeId, Protocol, SamplingMode, Simulation, SimulationConfig, StopReason, Transition, World,
};
use shape_constructors::geometry::Dir;
use shape_constructors::protocols::counting_line::{final_count, CountingOnALine};
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;

// ---------------------------------------------------------------------------------------
// 1. Sampler equivalence
// ---------------------------------------------------------------------------------------

/// The original rejection sampler, replicated verbatim as the byte-exactness reference.
fn reference_next_interaction<P: Protocol>(
    rng: &mut StdRng,
    world: &World<P>,
) -> Option<shape_constructors::core::Interaction> {
    let n = world.len();
    if n < 2 {
        return None;
    }
    let ports = world.dim().dirs();
    for _ in 0..10_000_000u32 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let pa = ports[rng.gen_range(0..ports.len())];
        let pb = ports[rng.gen_range(0..ports.len())];
        if let Some(interaction) =
            world.interaction(NodeId::new(a as u32), pa, NodeId::new(b as u32), pb)
        {
            return Some(interaction);
        }
    }
    None
}

#[test]
fn legacy_mode_is_byte_identical_to_the_reference_sampler() {
    for seed in [1u64, 7, 42] {
        let mut reference_world = World::new(GlobalLine::new(), 8);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let mut world = World::new(GlobalLine::new(), 8);
        let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Legacy);
        for step in 0..2_000 {
            let expected = reference_next_interaction(&mut reference_rng, &reference_world);
            let actual = scheduler.next_interaction(&world);
            assert_eq!(actual, expected, "seed {seed}: divergence at step {step}");
            let (Some(expected), Some(actual)) = (expected, actual) else {
                panic!("an 8-node population always has permissible pairs");
            };
            reference_world.apply(&expected);
            world.apply(&actual);
        }
        assert_eq!(reference_world.bond_count(), world.bond_count());
    }
}

#[test]
fn legacy_and_adaptive_reach_the_same_line() {
    for n in [4usize, 8, 16] {
        for seed in [3u64, 11] {
            let mut legacy = Simulation::new(
                GlobalLine::new(),
                SimulationConfig::new(n)
                    .with_seed(seed)
                    .with_legacy_sampling(),
            );
            let mut adaptive =
                Simulation::new(GlobalLine::new(), SimulationConfig::new(n).with_seed(seed));
            let legacy_report = legacy.run_until_stable();
            let adaptive_report = adaptive.run_until_stable();
            assert_eq!(legacy_report.reason, StopReason::Stable, "n = {n}");
            assert_eq!(adaptive_report.reason, StopReason::Stable, "n = {n}");
            assert!(legacy.output_shape().is_line(n), "legacy n = {n}");
            assert!(adaptive.output_shape().is_line(n), "adaptive n = {n}");
            // Both spend exactly n − 1 effective interactions building the line.
            assert_eq!(legacy.stats().effective_steps, (n - 1) as u64);
            assert_eq!(adaptive.stats().effective_steps, (n - 1) as u64);
            assert_eq!(legacy.stats().merges, (n - 1) as u64);
            assert_eq!(adaptive.stats().merges, (n - 1) as u64);
            assert!(legacy.world().check_invariants());
            assert!(adaptive.world().check_invariants());
        }
    }
}

#[test]
fn legacy_and_adaptive_reach_the_same_square() {
    for n in [4usize, 9, 16] {
        let d = (n as f64).sqrt() as u32;
        for (mode_name, config) in [
            (
                "legacy",
                SimulationConfig::new(n).with_seed(5).with_legacy_sampling(),
            ),
            ("adaptive", SimulationConfig::new(n).with_seed(5)),
        ] {
            let mut sim = Simulation::new(Square::new(), config);
            let report = sim.run_until_stable();
            assert_eq!(report.reason, StopReason::Stable, "{mode_name} n = {n}");
            assert!(
                sim.output_shape().is_full_square(d),
                "{mode_name} n = {n}: {:?}",
                sim.output_shape()
            );
            assert!(sim.world().check_invariants());
        }
    }
}

#[test]
fn legacy_and_adaptive_counting_both_halt_with_the_head_start_counted() {
    for n in [8usize, 16] {
        for (mode_name, config) in [
            (
                "legacy",
                SimulationConfig::new(n)
                    .with_seed(2)
                    .with_max_steps(20_000_000)
                    .with_legacy_sampling(),
            ),
            (
                "adaptive",
                SimulationConfig::new(n)
                    .with_seed(2)
                    .with_max_steps(20_000_000),
            ),
        ] {
            let mut sim = Simulation::new(CountingOnALine::new(2), config);
            let report = sim.run_until_any_halted();
            assert_eq!(report.reason, StopReason::AllHalted, "{mode_name} n = {n}");
            let counters = final_count(&sim).expect("the leader halted");
            assert!(
                counters.r0 >= 2,
                "{mode_name} n = {n}: head start not counted"
            );
            assert!(sim.world().check_invariants());
        }
    }
}

#[test]
fn sampling_mode_rides_through_the_config() {
    let legacy = SimulationConfig::new(4).with_legacy_sampling();
    assert_eq!(legacy.sampling, SamplingMode::Legacy);
    let sim = Simulation::new(GlobalLine::new(), legacy);
    assert_eq!(sim.config().sampling, SamplingMode::Legacy);
    assert_eq!(SimulationConfig::new(4).sampling, SamplingMode::Adaptive);
}

// ---------------------------------------------------------------------------------------
// 2. Index soundness
// ---------------------------------------------------------------------------------------

/// Pairs bond and later dissolve: `(Free, Free) → (Linked, Linked)` with a bond,
/// `(Linked, Linked)` over the bond → `(Free, Done)` releasing it, where `Done` is
/// halted. Exercises merges, splits and halting in one protocol.
struct BondCycle;

#[derive(Clone, PartialEq, Debug)]
enum CycleState {
    Free,
    Linked,
    Done,
}

impl Protocol for BondCycle {
    type State = CycleState;

    fn initial_state(&self, _node: NodeId, _n: usize) -> CycleState {
        CycleState::Free
    }

    fn transition(
        &self,
        a: &CycleState,
        _pa: Dir,
        b: &CycleState,
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<CycleState>> {
        match (a, b, bonded) {
            (CycleState::Free, CycleState::Free, false) => Some(Transition {
                a: CycleState::Linked,
                b: CycleState::Linked,
                bond: true,
            }),
            (CycleState::Linked, CycleState::Linked, true) => Some(Transition {
                a: CycleState::Free,
                b: CycleState::Done,
                bond: false,
            }),
            _ => None,
        }
    }

    fn is_halted(&self, state: &CycleState) -> bool {
        matches!(state, CycleState::Done)
    }
}

/// `n` distinct initial states (one per node id); an even state bonds to an odd one
/// and nothing else changes. Past 64 nodes the live state diversity overflows the pair
/// index's class table, so every stability query takes the exhaustive fallback.
struct DistinctStates;

impl Protocol for DistinctStates {
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
        (!bonded && a.is_multiple_of(2) && !b.is_multiple_of(2)).then_some(Transition {
            a: *a,
            b: *b,
            bond: true,
        })
    }
}

/// Free nodes pair up into bonded dimers; two paired nodes of different dimers then
/// retire each other (halted `Done`) without bonding. Once nobody is free the base
/// classes are quiescent while `n/2` dimers span `(n/2 choose 2) · 4` multi×multi node
/// pairs — over the `64 · n` enumeration budget for `n ≥ 140` — so only the exhaustive
/// fallback can find the remaining retirements.
struct Dimers;

#[derive(Clone, PartialEq, Debug)]
enum DimerState {
    Free,
    Paired,
    Done,
}

impl Protocol for Dimers {
    type State = DimerState;

    fn initial_state(&self, _node: NodeId, _n: usize) -> DimerState {
        DimerState::Free
    }

    fn transition(
        &self,
        a: &DimerState,
        _pa: Dir,
        b: &DimerState,
        _pb: Dir,
        bonded: bool,
    ) -> Option<Transition<DimerState>> {
        let (a, b, bond) = match (a, b, bonded) {
            (DimerState::Free, DimerState::Free, false) => {
                (DimerState::Paired, DimerState::Paired, true)
            }
            (DimerState::Paired, DimerState::Paired, false) => {
                (DimerState::Done, DimerState::Done, false)
            }
            _ => return None,
        };
        Some(Transition { a, b, bond })
    }

    fn is_halted(&self, state: &DimerState) -> bool {
        matches!(state, DimerState::Done)
    }
}

/// Drives a simulation step by step, asserting after **every** configuration change
/// that the indexed effective-interaction lookup agrees with the exhaustive scan and
/// that the embedding invariants hold. Returns the world's exhaustive fallback count
/// (`index_stats().node_scans`).
fn assert_index_agrees_throughout<P: Protocol>(
    protocol: P,
    n: usize,
    seed: u64,
    steps: u64,
) -> u64 {
    let mut sim = Simulation::new(protocol, SimulationConfig::new(n).with_seed(seed));
    let mut checked_version = None;
    for step in 0..steps {
        if !sim.step() {
            break;
        }
        let world = sim.world();
        // Both lookups are functions of the configuration: an unchanged version cannot
        // change either answer.
        if checked_version == Some(world.version()) {
            continue;
        }
        checked_version = Some(world.version());
        assert!(world.check_invariants(), "invariants broken at step {step}");
        let indexed = world.find_effective_interaction().is_some();
        let scanned = world.find_effective_interaction_scan().is_some();
        assert_eq!(
            indexed, scanned,
            "index and scan disagree at step {step} (seed {seed}, n = {n})"
        );
        assert_eq!(
            world.is_stable(),
            !scanned,
            "is_stable disagrees at step {step}"
        );
        if !indexed {
            break;
        }
    }
    sim.world().index_stats().node_scans
}

#[test]
fn index_agrees_with_scan_on_merge_heavy_runs() {
    assert_eq!(
        assert_index_agrees_throughout(GlobalLine::new(), 8, 13, 3_000),
        0
    );
    assert_eq!(
        assert_index_agrees_throughout(Square::new(), 9, 4, 3_000),
        0
    );
}

#[test]
fn index_agrees_with_scan_on_split_and_halt_heavy_runs() {
    for seed in [1u64, 2, 3] {
        assert_eq!(assert_index_agrees_throughout(BondCycle, 9, seed, 3_000), 0);
    }
}

#[test]
fn index_agrees_with_scan_through_the_exhaustive_fallback() {
    // Class-table overflow: 70 distinct live states.
    let overflow_scans = assert_index_agrees_throughout(DistinctStates, 70, 3, 400);
    assert!(
        overflow_scans > 0,
        "class overflow must answer through the fallback"
    );
    // Over-budget multi×multi universe: 80 dimers at n = 160 once everyone is paired.
    let budget_scans = assert_index_agrees_throughout(Dimers, 160, 5, 1_000_000);
    assert!(
        budget_scans > 0,
        "an over-budget universe must answer through the fallback"
    );
}

#[test]
fn bond_cycle_terminates_with_the_index() {
    // End-to-end through the indexed stability detection: all pairs eventually dissolve
    // into halted `Done` nodes (plus at most one leftover `Free`), and the indexed
    // `is_stable` agrees with the exhaustive scan on the final configuration.
    let mut sim = Simulation::new(BondCycle, SimulationConfig::new(7).with_seed(99));
    let report = sim.run_until_stable();
    assert_eq!(report.reason, StopReason::Stable);
    let world = sim.world();
    assert!(world.is_stable());
    assert!(world.find_effective_interaction_scan().is_none());
    let done = world
        .states()
        .filter(|s| matches!(s, CycleState::Done))
        .count();
    assert_eq!(done, 6, "three bond-release cycles halt six of seven nodes");
    assert_eq!(world.bond_count(), 0);
}

#[test]
fn stability_is_detected_immediately_after_the_last_effective_step() {
    // The indexed runtime checks stability after every step, so the reported step count
    // is exactly the stabilization step: the last step must be effective.
    let mut sim = Simulation::new(GlobalLine::new(), SimulationConfig::new(6).with_seed(8));
    let report = sim.run_until_stable();
    assert_eq!(report.reason, StopReason::Stable);
    let world = sim.world();
    let stats = sim.stats();
    assert_eq!(stats.merges, 5);
    assert!(world.is_stable());
    assert!(world.is_stable_scan());
    // A stable configuration is recognised before any further step is taken.
    let again = sim.run_until_stable();
    assert_eq!((again.reason, again.steps), (StopReason::Stable, 0));
}

// ---------------------------------------------------------------------------------------
// 3. Enumeration exactness
// ---------------------------------------------------------------------------------------

/// Brute-force enumeration of permissible unordered node-port pairs.
fn brute_force_permissible<P: Protocol>(world: &World<P>) -> Vec<(u32, usize, u32, usize)> {
    let ports = world.dim().dirs();
    let mut out = Vec::new();
    for ai in 0..world.len() {
        for bi in (ai + 1)..world.len() {
            for pa in ports {
                for pb in ports {
                    if world
                        .permissibility(NodeId::new(ai as u32), *pa, NodeId::new(bi as u32), *pb)
                        .is_some()
                    {
                        out.push((ai as u32, pa.index(), bi as u32, pb.index()));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

fn canonical_pair(i: &shape_constructors::core::Interaction) -> (u32, usize, u32, usize) {
    let a = (i.a.index() as u32, i.pa.index());
    let b = (i.b.index() as u32, i.pb.index());
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (lo.0, lo.1, hi.0, hi.1)
}

#[test]
fn enumerate_permissible_matches_brute_force_along_executions() {
    for (n, seed) in [(6usize, 1u64), (8, 2)] {
        let mut sim = Simulation::new(BondCycle, SimulationConfig::new(n).with_seed(seed));
        for step in 0..600u32 {
            let world = sim.world();
            let enumerated = world
                .enumerate_permissible(usize::MAX)
                .expect("unbounded budget never refuses");
            let mut canonical: Vec<_> = enumerated.iter().map(canonical_pair).collect();
            canonical.sort_unstable();
            let mut deduped = canonical.clone();
            deduped.dedup();
            assert_eq!(
                canonical.len(),
                deduped.len(),
                "duplicate pair at step {step}"
            );
            assert_eq!(
                canonical,
                brute_force_permissible(world),
                "mismatch at step {step}"
            );
            if !sim.step() {
                break;
            }
        }
    }
    // Also on a merge-heavy geometry (lines of several sizes).
    let mut sim = Simulation::new(GlobalLine::new(), SimulationConfig::new(7).with_seed(3));
    for _ in 0..400u32 {
        let world = sim.world();
        let enumerated = world.enumerate_permissible(usize::MAX).expect("unbounded");
        let mut canonical: Vec<_> = enumerated.iter().map(canonical_pair).collect();
        canonical.sort_unstable();
        assert_eq!(canonical, brute_force_permissible(world));
        if !sim.step() {
            break;
        }
    }
}

#[test]
fn enumerate_permissible_respects_the_cross_budget() {
    // 10 free singletons: 45 cross node pairs. A budget below that must refuse, a budget
    // at or above it must succeed.
    let world = World::new(BondCycle, 10);
    assert!(world.enumerate_permissible(44).is_none());
    let pairs = world.enumerate_permissible(45).expect("within budget");
    // Every pair of free nodes is permissible through any of the 4×4 port combinations.
    assert_eq!(pairs.len(), 45 * 16);
}
