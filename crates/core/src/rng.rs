//! The single seeding point for every random number generator in the runtime.
//!
//! Both samplers — the geometric [`crate::scheduler::UniformScheduler`] and (through it)
//! the population-protocol clique engine — and the Monte-Carlo experiment helpers build
//! their generators here, so changing the generator or the seeding discipline is a
//! one-module change. This replaces the scattered `StdRng::from_entropy()` /
//! `StdRng::seed_from_u64` call sites of the original tree.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A deterministic generator for the given seed. Fixed seeds make executions
/// reproducible; all reproducibility guarantees in this workspace are stated against
/// this constructor.
#[must_use]
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A generator seeded from ambient entropy (wall clock + process counter). Use only
/// where reproducibility is explicitly not wanted.
#[must_use]
pub fn from_entropy() -> StdRng {
    seeded(rand::entropy_seed())
}

/// A deterministic **substream** of a base seed: an independent generator derived from
/// `(seed, stream)` through SplitMix64-style mixing, so distinct stream indices give
/// statistically independent streams of the same base seed.
///
/// The jump scheduler keys its substreams by the *effective-selection ordinal* — a
/// quantity determined by the execution prefix alone. That keying is what makes slicing
/// and resume invariant: the draw for selection `k` is derived from `(seed, k)`, so a
/// run cut into slices, or checkpointed and resumed at any selection, draws exactly
/// what the uninterrupted run draws (only the ordinal, not a generator's position, has
/// to survive the cut). It also makes the stream prefix-stable: replaying a run with a
/// different step budget, or interleaving extra read-only queries, cannot shift later
/// draws.
#[must_use]
pub fn substream(seed: u64, stream: u64) -> StdRng {
    // SplitMix64 finalizer (bijective, full-avalanche), applied to seed and stream
    // independently and then to their combination — the keyed analogue of the
    // sequential seeding discipline the xoshiro authors recommend.
    fn finalize(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let key = finalize(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let lane = finalize(
        stream
            .wrapping_mul(0xD605_2352_35AB_B6E1)
            .wrapping_add(0x2545_F491_4F6C_DD1D),
    );
    seeded(finalize(key ^ lane))
}

/// Draws the index `T ≥ 1` of the first success in a sequence of independent Bernoulli
/// trials with success probability `p`, i.e. a geometric variate with
/// `P(T = k) = (1 − p)^{k−1} · p`, by inversion of the CDF with a single uniform draw.
///
/// This is the sharded sampler's jump length: on a frozen configuration each uniform
/// selection is effective independently with probability `p = effective / permissible`,
/// so the number of selections up to and including the first effective one is exactly
/// this distribution.
///
/// # Panics
/// Panics unless `0 < p ≤ 1`.
#[must_use]
pub fn geometric(rng: &mut impl RngCore, p: f64) -> u64 {
    assert!(p > 0.0 && p <= 1.0, "geometric needs 0 < p ≤ 1, got {p}");
    if p >= 1.0 {
        return 1;
    }
    // A uniform in (0, 1): the standard 53-bit construction, rejecting exact zero so
    // the logarithm below is finite.
    let unit = loop {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u > 0.0 {
            break u;
        }
    };
    // ln(1 − p) via ln_1p keeps full precision for small p (sparse configurations).
    let t = 1.0 + (unit.ln() / (-p).ln_1p()).floor();
    if t >= u64::MAX as f64 {
        u64::MAX
    } else {
        t as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_matches_inverse_probability() {
        let mut rng = seeded(7);
        for &p in &[0.5f64, 0.1, 0.01] {
            let trials = 20_000;
            let total: u64 = (0..trials).map(|_| geometric(&mut rng, p)).sum();
            let mean = total as f64 / f64::from(trials);
            let expected = 1.0 / p;
            assert!(
                (mean - expected).abs() < expected * 0.1,
                "p = {p}: mean {mean}, expected {expected}"
            );
        }
    }

    #[test]
    fn geometric_with_certain_success_is_one() {
        let mut rng = seeded(1);
        assert_eq!(geometric(&mut rng, 1.0), 1);
    }

    #[test]
    fn seeded_is_deterministic_and_entropy_is_not() {
        assert_eq!(seeded(5).next_u64(), seeded(5).next_u64());
        assert_ne!(from_entropy().next_u64(), from_entropy().next_u64());
    }

    #[test]
    fn substreams_are_deterministic_and_pairwise_distinct() {
        assert_eq!(substream(9, 3).next_u64(), substream(9, 3).next_u64());
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for stream in 0..64u64 {
                assert!(
                    seen.insert(substream(seed, stream).next_u64()),
                    "collision at seed {seed}, stream {stream}"
                );
            }
        }
    }

    #[test]
    fn substream_draws_look_uniform() {
        // First draw of consecutive stream indices: the keyed derivation must not leak
        // the counter structure into the low bits.
        let hits = (0..10_000u64)
            .filter(|&k| substream(42, k).next_u64().is_multiple_of(4))
            .count();
        assert!((2_200..=2_800).contains(&hits), "hits = {hits}");
    }
}
