//! Crash-injection suite for the versioned snapshot subsystem.
//!
//! The snapshot contract is *trajectory exactness*: a run that is killed at an
//! arbitrary step, resumed from its last snapshot and driven on must be
//! **byte-identical** to the uninterrupted run — not just "reaches the same
//! output", but the same checkpoint bytes after every single subsequent step,
//! which pins the node states, embeddings, components, pair-index class layout,
//! RNG stream position and execution statistics all at once.
//!
//! The suite has three parts:
//!
//! 1. **Crash/resume exactness** — reference runs of `GlobalLine`, `Square` and
//!    `CountingOnALine` across `{adaptive, sharded} × shards {1, 4}` record a
//!    checkpoint after every step; the run is then "crashed" at adversarially
//!    chosen steps (the very first step, right after the first merge while the
//!    class tables churn, a few steps past it, the midpoint, one step before the
//!    end), resumed from the snapshot taken at the crash point, and re-driven while
//!    comparing checkpoint bytes step for step.
//! 2. **Corruption rejection** — every strict prefix of a sealed snapshot and
//!    every single-bit flip anywhere in it must be rejected by
//!    `Snapshot::from_bytes` with a typed [`CoreError`], never a panic; a
//!    well-formed snapshot naming a retired sampling mode is a typed rejection.
//! 3. **Checksum-valid garbage** — bit flips with the trailing checksum fixed up
//!    pass `from_bytes` and reach the structural decoder; `Simulation::resume`
//!    must then either succeed (the flip hit a don't-care encoding, e.g. a stats
//!    counter) or fail with a typed error — a panic anywhere fails the suite.

use shape_constructors::core::{
    CoreError, SamplingMode, Simulation, SimulationConfig, Snapshot, SnapshotProtocol,
};
use shape_constructors::protocols::counting_line::CountingOnALine;
use shape_constructors::protocols::line::GlobalLine;
use shape_constructors::protocols::square::Square;

/// One sampling-layout point of the crash matrix.
#[derive(Clone, Copy, Debug)]
struct Layout {
    sampling: SamplingMode,
    shards: usize,
}

const LAYOUTS: [Layout; 4] = [
    Layout {
        sampling: SamplingMode::Adaptive,
        shards: 1,
    },
    Layout {
        sampling: SamplingMode::Adaptive,
        shards: 4,
    },
    Layout {
        sampling: SamplingMode::Sharded,
        shards: 1,
    },
    Layout {
        sampling: SamplingMode::Sharded,
        shards: 4,
    },
];

fn config(n: usize, seed: u64, layout: Layout) -> SimulationConfig {
    SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(50_000_000)
        .with_sampling(layout.sampling)
        .with_shards(layout.shards)
}

/// Runs the reference execution, checkpointing after construction and after every
/// step. `checkpoints[i]` is the snapshot after `i` steps; `merges[i]` the merge
/// count at that point (used to pick the adversarial crash steps).
fn reference_trajectory<P: SnapshotProtocol>(
    protocol: P,
    config: SimulationConfig,
    max_collected: usize,
) -> (Vec<Vec<u8>>, Vec<u64>) {
    let mut sim = Simulation::new(protocol, config);
    let mut checkpoints = vec![sim.checkpoint().expect("checkpoint").into_bytes()];
    let mut merges = vec![sim.stats().merges];
    while checkpoints.len() <= max_collected && sim.step() {
        checkpoints.push(sim.checkpoint().expect("checkpoint").into_bytes());
        merges.push(sim.stats().merges);
    }
    (checkpoints, merges)
}

/// The adversarial crash points for a recorded trajectory: the very first step, the
/// step right after the first merge (mid class-table churn), a point a few steps
/// past it, the midpoint, and the step before the last recorded one.
fn crash_points(merges: &[u64]) -> Vec<usize> {
    let last = merges.len() - 1;
    let first_merge = merges.iter().position(|&m| m > 0).unwrap_or(last);
    let mut points = vec![
        1.min(last),
        first_merge.min(last),
        (first_merge + 3).min(last),
        last / 2,
        last.saturating_sub(1),
    ];
    points.sort_unstable();
    points.dedup();
    points
}

fn assert_crash_resume_exact<P: SnapshotProtocol>(
    make: impl Fn() -> P,
    n: usize,
    seed: u64,
    max_collected: usize,
) {
    for layout in LAYOUTS {
        let cfg = config(n, seed, layout);
        let (checkpoints, merges) = reference_trajectory(make(), cfg, max_collected);
        assert!(
            checkpoints.len() > 4,
            "{layout:?}: the reference run must actually advance"
        );
        assert!(
            *merges.last().unwrap() > 0,
            "{layout:?}: the run must exercise merges"
        );
        for crash_at in crash_points(&merges) {
            let label = format!("{layout:?} n={n} seed={seed} crash@{crash_at}");
            let snapshot = Snapshot::from_bytes(checkpoints[crash_at].clone())
                .unwrap_or_else(|e| panic!("{label}: snapshot must validate: {e}"));
            let mut resumed = Simulation::resume(make(), &snapshot)
                .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            assert_eq!(
                resumed.checkpoint().expect("checkpoint").as_bytes(),
                &checkpoints[crash_at][..],
                "{label}: resume must be a fixed point of checkpointing"
            );
            for (step, expected) in checkpoints.iter().enumerate().skip(crash_at + 1) {
                assert!(
                    resumed.step(),
                    "{label}: the resumed run went dry at step {step}"
                );
                assert_eq!(
                    resumed.checkpoint().expect("checkpoint").as_bytes(),
                    &expected[..],
                    "{label}: trajectory diverged at step {step}"
                );
            }
        }
    }
}

#[test]
fn global_line_crash_resume_is_byte_identical() {
    assert_crash_resume_exact(GlobalLine::new, 16, 11, 300);
}

#[test]
fn square_crash_resume_is_byte_identical() {
    assert_crash_resume_exact(Square::new, 16, 6, 300);
}

#[test]
fn counting_on_a_line_crash_resume_is_byte_identical() {
    assert_crash_resume_exact(|| CountingOnALine::new(2), 12, 8, 300);
}

#[test]
fn resume_continues_to_the_same_terminal_configuration() {
    // Beyond lockstep checkpoints: a crashed-and-resumed run driven to stability
    // finishes with the same statistics and output shape as the uninterrupted run.
    let layout = Layout {
        sampling: SamplingMode::Sharded,
        shards: 4,
    };
    let mut reference = Simulation::new(GlobalLine::new(), config(20, 3, layout));
    for _ in 0..40 {
        assert!(reference.step());
    }
    let snapshot = reference.checkpoint().expect("checkpoint");
    let ref_report = reference.run_until_stable();

    let mut resumed = Simulation::resume(GlobalLine::new(), &snapshot).expect("resume");
    let report = resumed.run_until_stable();
    assert_eq!(report.reason, ref_report.reason);
    assert_eq!(resumed.stats(), reference.stats());
    assert!(resumed.output_shape().is_line(20));
    assert_eq!(
        resumed.checkpoint().expect("checkpoint").as_bytes(),
        reference.checkpoint().expect("checkpoint").as_bytes(),
        "terminal checkpoints must match byte for byte"
    );
}

// ---------------------------------------------------------------------------------------
// 2. Corruption rejection: truncation and bit flips
// ---------------------------------------------------------------------------------------

fn sealed_fixture() -> Vec<u8> {
    let layout = Layout {
        sampling: SamplingMode::Sharded,
        shards: 2,
    };
    let mut sim = Simulation::new(Square::new(), config(9, 5, layout));
    for _ in 0..25 {
        assert!(sim.step());
    }
    sim.checkpoint().expect("checkpoint").into_bytes()
}

#[test]
fn every_truncated_prefix_is_rejected_with_a_typed_error() {
    let bytes = sealed_fixture();
    for len in 0..bytes.len() {
        let err = Snapshot::from_bytes(bytes[..len].to_vec())
            .err()
            .unwrap_or_else(|| panic!("prefix of {len} bytes must be rejected"));
        assert!(
            matches!(
                err,
                CoreError::SnapshotTruncated { .. }
                    | CoreError::SnapshotChecksumMismatch { .. }
                    | CoreError::SnapshotCorrupt { .. }
            ),
            "prefix {len}: unexpected error {err:?}"
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected_by_the_checksum() {
    let bytes = sealed_fixture();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupted = bytes.clone();
            corrupted[byte] ^= 1 << bit;
            assert!(
                Snapshot::from_bytes(corrupted).is_err(),
                "flip of bit {bit} in byte {byte} must be rejected"
            );
        }
    }
}

// ---------------------------------------------------------------------------------------
// 3. Checksum-valid garbage must never panic the decoder
// ---------------------------------------------------------------------------------------

/// Recomputes the trailing FNV-1a-64 checksum so a corrupted body passes
/// `Snapshot::from_bytes` and exercises the structural decoder behind it.
fn fixup_checksum(bytes: &mut [u8]) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let body_len = bytes.len() - 8;
    let mut hash = FNV_OFFSET;
    for &byte in &bytes[..body_len] {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    bytes[body_len..].copy_from_slice(&hash.to_le_bytes());
}

#[test]
fn checksum_fixed_bit_flips_never_panic_resume() {
    let bytes = sealed_fixture();
    // Skip the magic and format version (the first 6 bytes): flips there are the
    // already-tested header rejections. Everything after — protocol name, config,
    // stats, world blob, scheduler blob — goes through the structural decoder.
    let mut rejected = 0usize;
    for byte in 6..bytes.len() - 8 {
        for bit in [0u8, 4, 7] {
            let mut corrupted = bytes.clone();
            corrupted[byte] ^= 1 << bit;
            fixup_checksum(&mut corrupted);
            match Snapshot::from_bytes(corrupted) {
                Err(_) => rejected += 1,
                Ok(snapshot) => {
                    // A typed error or a clean resume are both acceptable; a panic
                    // would abort the test harness and fail the suite.
                    if Simulation::resume(Square::new(), &snapshot).is_err() {
                        rejected += 1;
                    }
                }
            }
        }
    }
    assert!(
        rejected > 0,
        "structural validation must reject at least some corrupted bodies"
    );
}

#[test]
fn retired_sampling_mode_tags_are_typed_rejections() {
    // Layout prefix: magic (4), format version (2), protocol name (u16 length +
    // bytes), then n, seed and max_steps (8 each) before the sampling-mode tag.
    let bytes = sealed_fixture();
    let tag_at = 4 + 2 + 2 + "square".len() + 3 * 8;
    assert_eq!(bytes[tag_at], 3, "the fixture is a sharded snapshot");
    for retired in [2u8, 4] {
        let mut patched = bytes.clone();
        patched[tag_at] = retired;
        fixup_checksum(&mut patched);
        let snapshot = Snapshot::from_bytes(patched).expect("checksum was fixed up");
        let err = match Simulation::resume(Square::new(), &snapshot) {
            Ok(_) => panic!("tag {retired} must not resume"),
            Err(err) => err,
        };
        assert_eq!(
            err,
            CoreError::SnapshotCorrupt {
                what: "retired sampling mode (batched/speculative)"
            },
            "tag {retired}"
        );
    }
}

#[test]
fn resuming_with_the_wrong_protocol_is_a_typed_mismatch() {
    let snapshot = Snapshot::from_bytes(sealed_fixture()).expect("fixture validates");
    let err = match Simulation::resume(GlobalLine::new(), &snapshot) {
        Ok(_) => panic!("resuming a square snapshot with the line protocol must fail"),
        Err(err) => err,
    };
    assert_eq!(
        err,
        CoreError::SnapshotProtocolMismatch {
            snapshot: "square".into(),
            protocol: "global-line".into(),
        }
    );
}
