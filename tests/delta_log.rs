//! Exactness suite for the `World` delta log (`checkpoint` / `rollback` /
//! `release`), the undo primitive the model checker explores every edge through.
//!
//! After *every* apply in randomized merge/split, class-churn and growth runs,
//! `rollback` must reproduce the pre-checkpoint `World` byte for byte (states,
//! halted flags, links, placements, components, O(1) aggregates) *and* the pair index
//! must pass its oracle validation; re-applying then reproduces the post-apply
//! fingerprint. Nested checkpoints unwind independently; `release` commits an inner
//! epoch without losing the outer frame's undo; closing an epoch that is not open is
//! a typed error.

use shape_constructors::core::scheduler::{Scheduler, UniformScheduler};
use shape_constructors::core::{
    CoreError, NodeId, Placement, Protocol, SamplingMode, Transition, World,
};
use shape_constructors::geometry::Dir;
use shape_constructors::protocols::counting_line::CountingOnALine;
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;

/// Endless churn: solo nodes pair up (merge), pairs dissolve (split) — every applied
/// interaction changes the class counts *and* the component structure. At 2+ shards
/// most pairings cross a shard boundary.
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

/// Everything observable about a `World`, for byte-for-byte comparison around a
/// checkpoint/rollback cycle.
#[derive(Clone, PartialEq, Debug)]
struct Fingerprint<S> {
    states: Vec<S>,
    halted: Vec<NodeId>,
    links: Vec<Vec<Option<(NodeId, Dir)>>>,
    placements: Vec<Placement>,
    comp_ids: Vec<usize>,
    comp_members: Vec<Vec<NodeId>>,
    bond_count: usize,
    component_count: usize,
    cross_component_universe: u64,
}

fn fingerprint<P: Protocol>(world: &World<P>) -> Fingerprint<P::State> {
    let dirs = world.dim().dirs();
    Fingerprint {
        states: world.state_slice().to_vec(),
        halted: world.halted_nodes(),
        links: world
            .nodes()
            .map(|x| dirs.iter().map(|&d| world.bonded_peer(x, d)).collect())
            .collect(),
        placements: world.nodes().map(|x| world.placement(x)).collect(),
        comp_ids: world.nodes().map(|x| world.component_id(x)).collect(),
        comp_members: world
            .nodes()
            .map(|x| world.component(x).members().to_vec())
            .collect(),
        bond_count: world.bond_count(),
        component_count: world.component_count(),
        cross_component_universe: world.cross_component_universe(),
    }
}

/// Drives `steps` scheduler selections; around every apply: checkpoint, apply,
/// rollback, assert the pre-apply fingerprint *and* the pair-index oracle, re-apply,
/// assert the post-apply fingerprint. The execution therefore advances exactly as it
/// would have without the delta log — with a full undo/redo cycle wedged into every
/// single step.
fn assert_rollback_exact_per_apply<P: Protocol>(protocol: P, n: usize, seed: u64, steps: u32) {
    let mut world = World::with_shards(protocol, n, 4);
    let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
    world.validate_pair_index().expect("initial index");
    for step in 0..steps {
        let Some(interaction) = scheduler.next_interaction(&world) else {
            break;
        };
        let pre = fingerprint(&world);
        let mark = world.checkpoint();
        world.apply(&interaction);
        let post = fingerprint(&world);
        world.rollback(mark).expect("epoch is open");
        assert_eq!(
            fingerprint(&world),
            pre,
            "step {step}: rollback must restore the world byte for byte"
        );
        world
            .validate_pair_index()
            .unwrap_or_else(|e| panic!("step {step}: index wrong after rollback: {e}"));
        assert!(world.check_invariants(), "step {step}");
        world.apply(&interaction);
        assert_eq!(
            fingerprint(&world),
            post,
            "step {step}: replay must reproduce the apply byte for byte"
        );
    }
    world
        .validate_pair_index()
        .expect("index exact at the end of the churn");
}

#[test]
fn rollback_is_exact_across_merge_split_churn() {
    // Merge/split churn at 4 shards: every apply is a component merge or split, and
    // most cross a shard boundary (the cross-shard pending-queue path of the log).
    assert_rollback_exact_per_apply(Churn, 16, 17, 4_000);
}

#[test]
fn rollback_is_exact_across_class_churn() {
    // The counting leader allocates a fresh state class on almost every effective
    // step: class allocation, retirement and slot reuse all pass through the log.
    assert_rollback_exact_per_apply(CountingOnALine::new(2), 10, 9, 3_000);
}

/// Multi-apply epochs under class churn: checkpoint, apply 2–8 counting steps, roll
/// back, then replay them outside any epoch. The leader takes a fresh state on almost
/// every effective step, so each apply retires the class slot the previous one
/// allocated and the next apply reuses it: the rollback must unwind slot-reusing
/// allocations and retirements in one go, and the pair index's class-pair tables must
/// still be valid for every pair the restored registrations read.
#[test]
fn multi_apply_rollback_is_exact_across_class_slot_reuse() {
    for (n, seed, shards) in [(10, 9, 4), (16, 5, 1), (24, 41, 2)] {
        let mut world = World::with_shards(CountingOnALine::new(2), n, shards);
        let mut scheduler = UniformScheduler::with_mode(seed, SamplingMode::Sharded);
        world.validate_pair_index().expect("initial index");
        for round in 0..150 {
            let pre = fingerprint(&world);
            let mark = world.checkpoint();
            let mut applied = Vec::new();
            for _ in 0..2 + round % 7 {
                let Some(interaction) = scheduler.next_interaction(&world) else {
                    break;
                };
                world.apply(&interaction);
                applied.push(interaction);
            }
            let post = fingerprint(&world);
            world.rollback(mark).expect("epoch is open");
            assert_eq!(
                fingerprint(&world),
                pre,
                "n={n} round {round}: rollback of {} applies must restore the world",
                applied.len()
            );
            world
                .validate_pair_index()
                .unwrap_or_else(|e| panic!("n={n} round {round}: index wrong after rollback: {e}"));
            for interaction in &applied {
                world.apply(interaction);
            }
            assert_eq!(fingerprint(&world), post, "n={n} round {round}: replay");
            world
                .validate_pair_index()
                .unwrap_or_else(|e| panic!("n={n} round {round}: index wrong after replay: {e}"));
            if applied.is_empty() {
                break;
            }
        }
    }
}

#[test]
fn rollback_is_exact_across_line_and_square_growth() {
    assert_rollback_exact_per_apply(GlobalLine::new(), 16, 3, 2_000);
    assert_rollback_exact_per_apply(Square::new(), 12, 7, 2_000);
}

#[test]
fn nested_checkpoints_unwind_independently() {
    let mut world = World::with_shards(Churn, 8, 4);
    world.validate_pair_index().expect("initial index");
    let mut scheduler = UniformScheduler::with_mode(21, SamplingMode::Sharded);
    let base = fingerprint(&world);
    let outer = world.checkpoint();
    let first = scheduler.next_interaction(&world).expect("churn pairs");
    world.apply(&first);
    let after_first = fingerprint(&world);
    let inner = world.checkpoint();
    let second = scheduler.next_interaction(&world).expect("churn pairs");
    world.apply(&second);
    world.rollback(inner).expect("inner epoch is open");
    assert_eq!(
        fingerprint(&world),
        after_first,
        "inner rollback must stop at the inner mark"
    );
    world
        .validate_pair_index()
        .expect("index after inner rollback");
    world.rollback(outer).expect("outer epoch is open");
    assert_eq!(fingerprint(&world), base, "outer rollback reaches the base");
    world
        .validate_pair_index()
        .expect("index after outer rollback");
    assert!(world.check_invariants());
}

#[test]
fn release_commits_an_inner_epoch_but_keeps_the_outer_undo() {
    let mut world = World::with_shards(Churn, 8, 4);
    world.validate_pair_index().expect("initial index");
    let mut scheduler = UniformScheduler::with_mode(33, SamplingMode::Sharded);
    let base = fingerprint(&world);
    let outer = world.checkpoint();
    let first = scheduler.next_interaction(&world).expect("churn pairs");
    world.apply(&first);
    let inner = world.checkpoint();
    let second = scheduler.next_interaction(&world).expect("churn pairs");
    world.apply(&second);
    let after_second = fingerprint(&world);
    world.release(inner).expect("inner epoch is open");
    assert_eq!(
        fingerprint(&world),
        after_second,
        "release keeps the inner epoch's mutations"
    );
    world.rollback(outer).expect("outer epoch is open");
    assert_eq!(
        fingerprint(&world),
        base,
        "the outer frame still undoes the released epoch's mutations"
    );
    world
        .validate_pair_index()
        .expect("index after outer rollback");
}

#[test]
fn released_toplevel_checkpoint_commits_for_good() {
    let mut world = World::with_shards(Churn, 8, 2);
    world.validate_pair_index().expect("initial index");
    let mut scheduler = UniformScheduler::with_mode(11, SamplingMode::Sharded);
    let mark = world.checkpoint();
    let interaction = scheduler.next_interaction(&world).expect("churn pairs");
    world.apply(&interaction);
    let after = fingerprint(&world);
    world.release(mark).expect("epoch is open");
    assert_eq!(fingerprint(&world), after);
    world.validate_pair_index().expect("index after release");
    // The world keeps working normally — including a fresh checkpoint cycle.
    let pre = fingerprint(&world);
    let mark = world.checkpoint();
    let next = scheduler.next_interaction(&world).expect("churn pairs");
    world.apply(&next);
    world.rollback(mark).expect("epoch is open");
    assert_eq!(fingerprint(&world), pre);
    world
        .validate_pair_index()
        .expect("index after the second cycle");
}

#[test]
fn closing_a_non_open_epoch_is_a_typed_error_not_a_panic() {
    let mut world = World::with_shards(Churn, 8, 2);
    let mark = world.checkpoint();
    world.release(mark).expect("epoch is open");
    assert_eq!(world.release(mark), Err(CoreError::EpochNotOpen));
    assert_eq!(world.rollback(mark), Err(CoreError::EpochNotOpen));
    // A stale *inner* epoch below a live outer one must fail without consuming the
    // outer frame.
    let base = fingerprint(&world);
    let outer = world.checkpoint();
    let inner = world.checkpoint();
    world.rollback(inner).expect("inner epoch is open");
    assert_eq!(world.rollback(inner), Err(CoreError::EpochNotOpen));
    let mut scheduler = UniformScheduler::with_mode(5, SamplingMode::Sharded);
    let interaction = scheduler.next_interaction(&world).expect("churn pairs");
    world.apply(&interaction);
    world
        .rollback(outer)
        .expect("outer epoch survived the stale inner close");
    assert_eq!(fingerprint(&world), base);
    world.validate_pair_index().expect("index after rollback");
}
