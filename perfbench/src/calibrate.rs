//! Host-speed calibration of the end-to-end timings.
//!
//! On a shared host the speed of the same code drifts by a third within
//! minutes (measured: one engine workload read 99k and 68k effective steps/s
//! in consecutive 20 s runs). The benchmark therefore times a fixed kernel of
//! its own next to the measured work and scales every end-to-end timing by
//! `REFERENCE_KERNEL_S / kernel time`: it reports what the timing would read on
//! a host where the kernel takes [`REFERENCE_KERNEL_S`]. The kernel lives in the
//! benchmark, not in the crates, so a change to the program moves the scaled
//! numbers exactly as it moves the raw ones; only the host's drift divides out.
//! Runs print the raw numbers and the scale beside the scaled ones.
//!
//! The kernel is compute-bound on purpose. Interleaved with engine runs for
//! 160 s on a 2-core host, it left a spread of 4–5% across 10 s windows where
//! the raw timings spread 13–19%; kernels that chase pointers through 256 KiB
//! or 2 MiB left 5–8% and 11–14%, because other tenants' cache traffic hits
//! them harder than it hits the simulator.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::SeedStream;

/// Kernel time of the reference host, in seconds.
pub const REFERENCE_KERNEL_S: f64 = 0.03;

/// Times one run of the kernel: sorting 800 fresh vectors of 2048 random words.
pub fn kernel_s() -> f64 {
    let started = Instant::now();
    let mut rng = SeedStream::new(0x5EED);
    let mut sum = 0u64;
    for _ in 0..800 {
        let mut words: Vec<u64> = (0..2048).map(|_| rng.next_u64()).collect();
        words.sort_unstable();
        sum = sum.wrapping_add(words[1024]);
    }
    black_box(sum);
    started.elapsed().as_secs_f64()
}

/// The factor that turns a timing taken while the kernel took `kernel_s`
/// seconds into a reference-host timing.
pub fn scale(kernel_s: f64) -> f64 {
    REFERENCE_KERNEL_S / kernel_s
}
