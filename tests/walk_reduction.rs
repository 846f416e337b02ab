//! The reduction behind Theorem 1 (Figure 4), checked against the protocol itself: the
//! leader's effective interactions are the counting walk of `popproto::walk`, so the
//! failure frequency of real executions must match the walk's exact failure
//! probability within sampling error.

use shape_constructors::popproto::counting::{run_counting, CountingUpperBound};
use shape_constructors::popproto::walk::counting_walk_law;

/// Runs the protocol on `n` agents with head start `b` for seeds `0..trials` and
/// returns the z-score of its failure frequency against the exact walk failure.
fn failure_z_score(n: usize, b: u64, trials: u64) -> f64 {
    let failures = (0..trials)
        .filter(|&seed| !run_counting(&CountingUpperBound::new(b), n, seed).success)
        .count();
    let exact = counting_walk_law(n as u64, b).failure;
    let rate = failures as f64 / trials as f64;
    (rate - exact) / (exact * (1.0 - exact) / trials as f64).sqrt()
}

#[test]
fn protocol_failure_matches_the_exact_walk_at_n12_b1() {
    let z = failure_z_score(12, 1, 2_000);
    assert!(z.abs() < 4.0, "z = {z}");
}

#[test]
fn protocol_failure_matches_the_exact_walk_at_n20_b2() {
    let z = failure_z_score(20, 2, 4_000);
    assert!(z.abs() < 4.0, "z = {z}");
}
