//! Property-style tests on the core geometric and probabilistic invariants.
//!
//! The original suite used `proptest`; the build environment has no registry access, so
//! the same properties are exercised here over deterministic seeded samples drawn from
//! the vendored `rand` stand-in. Each property runs over a fixed number of pseudo-random
//! cases, which keeps runs reproducible while still sweeping the parameter space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shape_constructors::geometry::{
    library, zigzag_coord, zigzag_index, Coord, LabeledSquare, Rotation, Shape,
};
use shape_constructors::popproto::counting::{run_counting, CountingUpperBound};
use shape_constructors::popproto::walk::counting_walk_law;
use shape_constructors::tm::arith::{bit_width, integer_sqrt, BinaryCounter};

const CASES: usize = 64;

/// Deterministic case generator: one seeded RNG per property, so properties stay
/// independent of each other and of execution order.
fn cases(property_seed: u64) -> impl Iterator<Item = StdRng> {
    (0..CASES as u64)
        .map(move |i| StdRng::seed_from_u64(property_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i))
}

/// The zig-zag pixel indexing of Section 3 is a bijection between `{0, …, d²−1}` and the
/// cells of the `d × d` square.
#[test]
fn zigzag_indexing_is_a_bijection() {
    for mut rng in cases(1) {
        let d = rng.gen_range(1u32..12);
        let mut seen = std::collections::HashSet::new();
        for i in 0..u64::from(d) * u64::from(d) {
            let (x, y) = zigzag_coord(i, d);
            assert!(x < d && y < d);
            assert_eq!(zigzag_index(x, y, d), i);
            assert!(seen.insert((x, y)));
        }
    }
}

/// Consecutive zig-zag pixels are grid-adjacent (the tape of Figure 7(b) is connected).
#[test]
fn zigzag_path_is_connected() {
    for d in 1u32..12 {
        for i in 1..u64::from(d) * u64::from(d) {
            let (x0, y0) = zigzag_coord(i - 1, d);
            let (x1, y1) = zigzag_coord(i, d);
            assert_eq!(x0.abs_diff(x1) + y0.abs_diff(y1), 1);
        }
    }
}

/// Congruence is invariant under translation and rotation.
#[test]
fn congruence_is_rotation_and_translation_invariant() {
    for mut rng in cases(2) {
        let w = rng.gen_range(2u32..5);
        let h = rng.gen_range(2u32..5);
        let dx = rng.gen_range(0u32..14) as i32 - 7;
        let dy = rng.gen_range(0u32..14) as i32 - 7;
        let quarter_turns = rng.gen_range(0u8..4);
        let shape = library::l_shape(w, h);
        let mut moved = shape.translated(Coord::new2(dx, dy));
        for _ in 0..quarter_turns {
            moved = moved.rotated_cw();
        }
        assert!(shape.congruent(&moved));
        assert_eq!(shape.len(), moved.len());
    }
}

/// The enclosing square `S_G` of Section 3 has side `max_dim(G)` and contains `G`.
#[test]
fn enclosing_square_has_the_max_dimension_side() {
    for mut rng in cases(3) {
        let w = rng.gen_range(1u32..6);
        let h = rng.gen_range(1u32..6);
        let shape = library::rectangle_shape(w, h);
        let (square, offset) = LabeledSquare::enclosing_square(&shape).unwrap();
        assert_eq!(square.side(), w.max(h));
        assert_eq!(square.on_count(), shape.len());
        for cell in shape.cells() {
            let local = cell - offset;
            assert!(square.get(local.x as u32, local.y as u32));
        }
    }
}

/// Every labeled square from the TM library is a valid (connected) shape language
/// member, and its shape's maximum dimension equals the square side.
#[test]
fn library_squares_are_valid_language_members() {
    for d in 2u32..8 {
        for computer in shape_constructors::tm::library::all_computers() {
            let square = computer.labeled_square(d);
            assert!(
                square.is_valid_language_square(),
                "{} at d = {d}",
                computer.name()
            );
            assert_eq!(square.shape().max_dim(), d);
        }
    }
}

/// Rotations form a group of order 4 in the plane: four quarter turns are the identity.
#[test]
fn planar_rotations_have_order_four() {
    for mut rng in cases(4) {
        let w = rng.gen_range(2u32..5);
        let h = rng.gen_range(2u32..5);
        let shape = library::l_shape(w, h);
        let rotated = shape.rotated_cw().rotated_cw().rotated_cw().rotated_cw();
        assert_eq!(shape.normalized(), rotated.normalized());
        assert_eq!(
            Rotation::all(shape_constructors::geometry::Dim::Two).len(),
            4
        );
    }
}

/// Binary-counter arithmetic used by the leader programs is consistent with `u64`.
#[test]
fn binary_counter_round_trips() {
    for mut rng in cases(5) {
        let value = rng.gen_range(0u64..100_000);
        let mut counter = BinaryCounter::from_value(value);
        assert_eq!(counter.value(), value);
        assert_eq!(counter.len(), bit_width(value).max(1));
        counter.increment();
        assert_eq!(counter.value(), value + 1);
        counter.decrement();
        assert_eq!(counter.value(), value);
    }
}

/// `integer_sqrt` is the floor square root.
#[test]
fn integer_sqrt_is_floor() {
    for mut rng in cases(6) {
        let n = rng.gen_range(0u64..1_000_000);
        let r = integer_sqrt(n);
        assert!(r * r <= n);
        assert!((r + 1) * (r + 1) > n);
    }
}

/// Theorem 1 invariants hold on every execution: the protocol halts and the final count
/// never exceeds `n − 1` while the head start is always counted.
#[test]
fn counting_always_halts_with_a_sane_count() {
    for mut rng in cases(7) {
        let n = rng.gen_range(6usize..60);
        let seed = rng.gen_range(0u64..500);
        let outcome = run_counting(&CountingUpperBound::new(3), n, seed);
        assert!(outcome.halted);
        assert!(outcome.r0 < n as u64);
        assert!(outcome.r0 >= 3, "the head start is always counted");
    }
}

/// The exact failure probability of the Theorem 1 walk falls strictly with a larger
/// head start.
#[test]
fn walk_failure_is_monotone_in_the_head_start() {
    for mut rng in cases(8).take(16) {
        let n = rng.gen_range(20u64..200);
        let low = counting_walk_law(n, 2).failure;
        let high = counting_walk_law(n, 6).failure;
        assert!(
            high < low,
            "n = {n}: b = 6 fails {high:e}, b = 2 fails {low:e}"
        );
    }
}

#[test]
fn shapes_of_the_library_are_connected_and_planar() {
    for shape in [
        library::line_shape(5),
        library::square_shape(4),
        library::rectangle_shape(3, 5),
        library::l_shape(3, 4),
        library::t_shape(5, 3),
        library::plus_shape(2),
        library::staircase_shape(4),
        library::u_shape(4, 3),
    ] {
        assert!(shape.is_connected(), "{shape:?} is not connected");
        assert!(shape.is_planar(), "{shape:?} is not planar");
        assert!(!shape.is_empty());
    }
}

#[test]
fn canonical_forms_identify_congruent_but_distinguish_different_shapes() {
    let a = library::l_shape(3, 4);
    let b = a.rotated_cw().translated(Coord::new2(10, -3));
    assert_eq!(a.canonical(), b.canonical());
    let c = library::t_shape(4, 3);
    assert_ne!(a.canonical(), c.canonical());
    let d: Shape = library::rectangle_shape(3, 4);
    assert_ne!(a.canonical(), d.canonical());
}
