//! Random-walk models behind the proof of Theorem 1 (Figure 4).
//!
//! The effective interactions of the Counting-Upper-Bound protocol form a random walk of
//! the difference `j = r0 − r1` on the line `0..=n`, starting at the head start `b`, with
//! an absorbing barrier at 0 (failure, if it happens before `r0 ≥ n/2`) and success once
//! `r0 ≥ n/2`. The paper reduces this walk to the Ehrenfest diffusion model and finally to
//! the classical gambler's-ruin problem. This module provides:
//!
//! * the exact gambler's-ruin closed form used in the proof;
//! * the `1/n^(b−2)` failure bound of Theorem 1;
//! * the exact law of the counting walk and the exact failure probability of the
//!   simplified Ehrenfest walk, each one backward dynamic program, which experiment E3
//!   prints beside the bound.

/// Probability of reaching position `target` before position 0, starting from `start`,
/// in a biased random walk that moves forward with probability `p` and backward with
/// probability `1 − p` (the classical ruin problem, Feller Vol. 1 §XIV.2).
///
/// # Panics
/// Panics unless `0 < p < 1` and `0 < start ≤ target`.
#[must_use]
pub fn ruin_win_probability(start: u64, target: u64, p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be strictly between 0 and 1");
    assert!(start > 0 && start <= target, "need 0 < start ≤ target");
    let q = 1.0 - p;
    if (p - q).abs() < 1e-12 {
        return start as f64 / target as f64;
    }
    let x = q / p;
    (1.0 - x.powi(start as i32)) / (1.0 - x.powi(target as i32))
}

/// The failure-probability expression derived in the proof of Theorem 1: whenever the
/// walk sits at `b − 1`, the probability of hitting 0 before returning to `b` is at most
/// `(x − 1)/(x^b − 1) ≈ 1/n^(b−1)` with `x = (n′ − b)/b`, `n′ = n/2 − 1`.
///
/// # Panics
/// Panics if `b == 0` or the population is too small for `x > 1`.
#[must_use]
pub fn per_visit_failure_probability(n: u64, b: u64) -> f64 {
    assert!(b >= 1, "head start must be at least 1");
    let n_prime = n as f64 / 2.0 - 1.0;
    let x = (n_prime - b as f64) / b as f64;
    assert!(x > 1.0, "population too small for the Theorem 1 reduction");
    (x - 1.0) / (x.powi(b as i32) - 1.0)
}

/// The overall failure bound of Theorem 1 after the union bound over at most `n`
/// repetitions: `1/n^(b−2)`.
///
/// # Panics
/// Panics if `b < 2`.
#[must_use]
pub fn theorem1_failure_bound(n: u64, b: u64) -> f64 {
    assert!(b >= 2, "the bound is vacuous for b < 2");
    (n as f64).powi(-(b as i32 - 2))
}

/// The exact law of the counting walk from its initial state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountingWalkLaw {
    /// Probability that `j` hits 0 while `2·r0 < n`: the count fails.
    pub failure: f64,
    /// Expected number of effective interactions until the walk is decided, that is
    /// until `2·r0 ≥ n` or `j = 0`.
    pub expected_length: f64,
}

/// The exact law of the effective-interaction walk of the counting protocol: starting
/// from `i = n − b − 1` remaining `q0`s and `j = b` outstanding `q1`s, each effective
/// interaction is a first meeting (`i − 1`, `j + 1`, `r0 + 1`) with probability
/// `i/(i + j)` and a second meeting (`j − 1`) otherwise; the count fails if `j` hits 0
/// while `2·r0 < n`.
///
/// Every step lowers `i` or `j`, so one backward sweep over rows of `i`, each walked in
/// ascending `j`, computes both values in O(n²) time. A row reads the row below it only
/// at `j + 1`, which an ascending in-place update has not yet overwritten, so one array
/// per quantity is all the memory it takes.
///
/// # Panics
/// Panics if `n < b + 2`.
#[must_use]
pub fn counting_walk_law(n: u64, b: u64) -> CountingWalkLaw {
    assert!(n >= b + 2, "need at least b + 2 agents");
    let (n, b) = (n as usize, b as usize);
    // r0 = n − 1 − i, so every row i ≤ (n − 2)/2 has already succeeded: failure and
    // remaining length 0, the arrays' initial contents. Row i spans j = 0..n − i, as
    // i + j never exceeds its initial value n − 1.
    let mut failure = vec![0.0; n + 1];
    let mut length = vec![0.0; n + 1];
    for i in (n - 2) / 2 + 1..n - b {
        failure[0] = 1.0;
        for j in 1..n - i {
            let forward = i as f64 / (i + j) as f64;
            let back = 1.0 - forward;
            failure[j] = forward * failure[j + 1] + back * failure[j - 1];
            length[j] = 1.0 + forward * length[j + 1] + back * length[j - 1];
        }
    }
    CountingWalkLaw {
        failure: failure[b],
        expected_length: length[b],
    }
}

/// The exact failure probability of the simplified Ehrenfest-style walk used in the
/// proof: the walk of `j` on `0..=n/2` that starts at `b` and steps forward with
/// probability `p_j = (n′ − j)/n′`, `n′ = n/2 − 1`, backward otherwise.
///
/// The boundaries are checked in this order before every step: `j = 0` fails; then
/// `j ≥ n/2` succeeds, and so does surviving `n` steps. The proof of Theorem 1 only
/// needs the walk to avoid 0 during the first `n` effective interactions, since after
/// `n` of them `r0 ≥ n/2` holds whatever the position. A backward sweep over the step
/// count, one O(n) row of positions per step, gives the value in O(n²) time.
///
/// # Panics
/// Panics if `n < 2·b + 4`.
#[must_use]
pub fn ehrenfest_walk_failure(n: u64, b: u64) -> f64 {
    let n_prime = (n / 2).saturating_sub(1);
    assert!(n_prime > b, "population too small for the reduction");
    let target = (n / 2) as usize;
    // The row after the last step: 0 has failed, every other position survived.
    let mut failure = vec![0.0; target + 1];
    failure[0] = 1.0;
    for _ in 0..n {
        // Positions 0 and `target` are absorbing, and j ≤ n′ below `target`. The update
        // reads the old row at j − 1, kept in `below` before the in-place write.
        let mut below = failure[0];
        for j in 1..target {
            let forward = (n_prime - j as u64) as f64 / n_prime as f64;
            let here = failure[j];
            failure[j] = forward * failure[j + 1] + (1.0 - forward) * below;
            below = here;
        }
    }
    failure[b as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ruin_probability_sanity() {
        // Symmetric walk: linear in the starting point.
        assert!((ruin_win_probability(1, 4, 0.5) - 0.25).abs() < 1e-12);
        assert!((ruin_win_probability(3, 4, 0.5) - 0.75).abs() < 1e-12);
        // Strong forward drift: winning from 1 is almost certain.
        assert!(ruin_win_probability(1, 10, 0.99) > 0.98);
        // Strong backward drift: winning from 1 is unlikely.
        assert!(ruin_win_probability(1, 10, 0.01) < 0.02);
        // Monotone in the starting point.
        assert!(ruin_win_probability(2, 10, 0.3) > ruin_win_probability(1, 10, 0.3));
    }

    #[test]
    fn per_visit_failure_is_close_to_inverse_power() {
        // The proof approximates (x − 1)/(x^b − 1) ≈ x^−(b−1) with x = (n′ − b)/b,
        // n′ = n/2 − 1 (the paper then absorbs the b-dependent constants to state the
        // looser 1/n^(b−2) bound of Theorem 1).
        let n = 1000;
        for b in [3u64, 4, 5] {
            let exact = per_visit_failure_probability(n, b);
            let x = (n as f64 / 2.0 - 1.0 - b as f64) / b as f64;
            let approx = x.powi(-(b as i32 - 1));
            assert!(exact < 10.0 * approx, "b = {b}: {exact} vs {approx}");
            assert!(exact > approx / 10.0, "b = {b}: {exact} vs {approx}");
        }
    }

    #[test]
    fn theorem1_bound_shrinks_with_b_and_n() {
        assert!(theorem1_failure_bound(100, 4) < theorem1_failure_bound(100, 3));
        assert!(theorem1_failure_bound(1000, 3) < theorem1_failure_bound(100, 3));
        assert!((theorem1_failure_bound(100, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counting_walk_failure_is_below_the_bound() {
        // The exact failure probability must be (far) below the Theorem 1 bound.
        for b in [3u64, 4] {
            let failure = counting_walk_law(500, b).failure;
            assert!(
                failure > 0.0 && failure <= theorem1_failure_bound(500, b),
                "b = {b}: failure {failure} exceeds bound {}",
                theorem1_failure_bound(500, b)
            );
        }
    }

    #[test]
    fn counting_walk_effective_interactions_are_about_n() {
        // Success requires roughly n/2 + r1 ≤ n effective interactions.
        let length = counting_walk_law(1000, 4).expected_length;
        assert!((length - 649.2).abs() < 0.05, "expected length {length}");
        assert!((500.0 - 4.0..=1000.0).contains(&length));
    }

    #[test]
    fn ehrenfest_walk_rarely_fails_with_decent_head_start() {
        let failure = ehrenfest_walk_failure(400, 5);
        assert!(failure > 0.0 && failure < 1e-9, "failure {failure}");
    }

    #[test]
    fn ehrenfest_walk_fails_often_with_head_start_one() {
        // With b = 1 a backward first step, probability 1/n′, is already fatal.
        let weak = ehrenfest_walk_failure(400, 1);
        let strong = ehrenfest_walk_failure(400, 5);
        assert!(weak >= 1.0 / 199.0, "b = 1: failure {weak}");
        assert!(weak > strong);
    }

    /// Adds every path of the counting walk from `(i, j, r0)`, one at a time, weighted by
    /// its probability: the walk's own loop, unrolled into a tree.
    fn enumerate_counting(
        n: u64,
        (i, j, r0): (u64, u64, u64),
        steps: u64,
        weight: f64,
        law: &mut CountingWalkLaw,
    ) {
        if 2 * r0 >= n || j == 0 {
            law.failure += if 2 * r0 >= n { 0.0 } else { weight };
            law.expected_length += weight * steps as f64;
            return;
        }
        let forward = i as f64 / (i + j) as f64;
        if i > 0 {
            enumerate_counting(n, (i - 1, j + 1, r0 + 1), steps + 1, weight * forward, law);
        }
        enumerate_counting(n, (i, j - 1, r0), steps + 1, weight * (1.0 - forward), law);
    }

    /// The failure weight of every path of the Ehrenfest walk from `j` after `steps`.
    fn enumerate_ehrenfest(n: u64, j: u64, steps: u64, weight: f64) -> f64 {
        if j == 0 {
            return weight;
        }
        if j >= n / 2 || steps >= n {
            return 0.0;
        }
        let n_prime = n / 2 - 1;
        let forward = (n_prime - j) as f64 / n_prime as f64;
        enumerate_ehrenfest(n, j + 1, steps + 1, weight * forward)
            + enumerate_ehrenfest(n, j - 1, steps + 1, weight * (1.0 - forward))
    }

    #[test]
    fn exact_walk_laws_match_path_enumeration() {
        for n in 4u64..=12 {
            for b in 1..=n - 2 {
                let mut paths = CountingWalkLaw {
                    failure: 0.0,
                    expected_length: 0.0,
                };
                enumerate_counting(n, (n - b - 1, b, b), 0, 1.0, &mut paths);
                let law = counting_walk_law(n, b);
                assert!(
                    (law.failure - paths.failure).abs() < 1e-12,
                    "n = {n}, b = {b}"
                );
                assert!(
                    (law.expected_length - paths.expected_length).abs() < 1e-12,
                    "n = {n}, b = {b}"
                );
                if n / 2 - 1 > b {
                    let failure = ehrenfest_walk_failure(n, b);
                    let paths = enumerate_ehrenfest(n, b, 0, 1.0);
                    assert!((failure - paths).abs() < 1e-12, "n = {n}, b = {b}");
                }
            }
        }
    }
}
