//! The engine workloads: in-process runs from `Simulation::new` to a verified stop.
//!
//! A plain run calls the public `Simulation` API exactly as a user would. A traced
//! run drives the same loop `Simulation::run_until_*` and `step_within` use —
//! `Scheduler::prepare`, `next_interaction_bounded`, `drain_skipped_steps`,
//! `World::apply`, and `World::is_stable` whenever `World::version` changed — on
//! a `World` and `UniformScheduler` it owns, and times every call. It must
//! reproduce the plain run's `ExecutionStats` exactly; a traced run that does
//! not is reported as a failure.

use std::collections::BTreeMap;
use std::time::Instant;

use nc_core::scheduler::{Scheduler, UniformScheduler};
use nc_core::{
    ExecutionStats, Phase, Protocol, SamplingMode, Simulation, SimulationConfig, StopReason,
    Telemetry, World,
};
use nc_popproto::counting::{run_counting, CountingUpperBound};
use nc_protocols::counting_line::{final_count, CountingOnALine};
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;

use crate::calibrate;
use crate::stats::{median, percentile, ratio, SeedStream};
use crate::Outcome;

/// Step ceiling of every engine run. Square credits about `n³` ineffective
/// selections through geometric jumps (Square n=512 needs 3.2·10⁸), so the
/// ceiling sits far above n=16384's need while still turning a run that never
/// stops into a counted failure instead of a hang.
const MAX_STEPS: u64 = 1 << 50;

/// Head start of the popproto counting runs: `r0 ≥ n/2` then holds w.h.p. at
/// the workload's sizes (see `run_counting`).
const POP_HEAD_START: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Proto {
    Line,
    Square,
    Counting,
    PopCounting,
}

#[derive(Clone, Copy, Debug)]
struct RunSpec {
    proto: Proto,
    n: usize,
    seed: u64,
}

/// What one run produced.
struct RunOutcome {
    ms: f64,
    /// Of `ms`, the time the output check took.
    verify_ms: f64,
    effective_steps: u64,
    ok: bool,
    /// The plain run's statistics (core protocols only), for the traced check.
    stats: Option<ExecutionStats>,
}

/// How a protocol's run stops.
#[derive(Clone, Copy)]
enum Stop {
    Stable,
    AnyHalted,
}

/// Which engine workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LargeN,
    SmallN,
}

impl Workload {
    /// One pass (large n) or one batch (small n) of the run list, drawn from the
    /// seed stream. Every pass holds the same configurations, so a timing window
    /// of whole passes keeps the mix the same from run to run.
    fn pass(self, seeds: &mut SeedStream) -> Vec<RunSpec> {
        let configs: Vec<(Proto, usize)> = match self {
            // Three lines per pass: the line's run time barely varies with the
            // seed while counting's does, so the median run is a line run.
            Workload::LargeN => vec![
                (Proto::Line, 65_536),
                (Proto::Line, 65_536),
                (Proto::Line, 65_536),
                (Proto::Square, 16_384),
                (Proto::Counting, 16_384),
            ],
            Workload::SmallN => {
                let mut configs = Vec::new();
                for n in [64, 256, 1024] {
                    configs.extend([(Proto::Line, n), (Proto::Square, n), (Proto::Counting, n)]);
                }
                configs.extend([(Proto::PopCounting, 256), (Proto::PopCounting, 1024)]);
                configs
            }
        };
        let mut pass: Vec<RunSpec> = configs
            .into_iter()
            .map(|(proto, n)| RunSpec {
                proto,
                n,
                seed: seeds.next_u64(),
            })
            .collect();
        seeds.shuffle(&mut pass);
        pass
    }
}

/// Set-up: fixed-seed warm-up runs of every protocol of the workload at small
/// n. Returns whether they verified.
fn setup(workload: Workload) -> bool {
    let mut warmup = vec![
        RunSpec {
            proto: Proto::Line,
            n: 1024,
            seed: 1,
        },
        RunSpec {
            proto: Proto::Square,
            n: 1024,
            seed: 1,
        },
        RunSpec {
            proto: Proto::Counting,
            n: 1024,
            seed: 1,
        },
    ];
    if workload == Workload::SmallN {
        warmup.push(RunSpec {
            proto: Proto::PopCounting,
            n: 256,
            seed: 1,
        });
    }
    warmup.iter().all(|spec| run_plain(spec, None).ok)
}

fn config(spec: &RunSpec) -> SimulationConfig {
    SimulationConfig::new(spec.n)
        .with_seed(spec.seed)
        .with_sampling(SamplingMode::Sharded)
        .with_shards(1)
        .with_max_steps(MAX_STEPS)
}

fn isqrt(n: usize) -> u32 {
    (n as f64).sqrt() as u32
}

/// Runs one configuration through the public API. With `layers`, the
/// constructor is timed into `simulation.new_ms` and popproto runs into
/// `popproto.run_ms`.
fn run_plain(spec: &RunSpec, layers: Option<&mut Layers>) -> RunOutcome {
    match spec.proto {
        Proto::Line => {
            let n = spec.n;
            plain_core(GlobalLine::new(), spec, Stop::Stable, layers, |sim| {
                sim.output_shape().is_line(n)
            })
        }
        Proto::Square => {
            let d = isqrt(spec.n);
            plain_core(Square::new(), spec, Stop::Stable, layers, |sim| {
                sim.output_shape().is_full_square(d)
            })
        }
        Proto::Counting => plain_core(
            CountingOnALine::new(2),
            spec,
            Stop::AnyHalted,
            layers,
            |sim| final_count(sim).is_some(),
        ),
        Proto::PopCounting => {
            let started = Instant::now();
            let outcome = run_counting(&CountingUpperBound::new(POP_HEAD_START), spec.n, spec.seed);
            let ms = ms_since(started);
            if let Some(layers) = layers {
                layers.pop_ms.push(ms);
            }
            RunOutcome {
                ms,
                verify_ms: 0.0,
                effective_steps: outcome.effective_steps,
                // Theorem 1: the leader halts with r0 ≥ n/2, i.e. upper_bound() ≥ n.
                ok: outcome.halted && outcome.success,
                stats: None,
            }
        }
    }
}

fn plain_core<P: Protocol>(
    protocol: P,
    spec: &RunSpec,
    stop: Stop,
    layers: Option<&mut Layers>,
    verify: impl Fn(&Simulation<P>) -> bool,
) -> RunOutcome {
    let started = Instant::now();
    let mut sim = Simulation::new(protocol, config(spec));
    if let Some(layers) = layers {
        layers.new_ms.push(ms_since(started));
    }
    let (report, reached) = match stop {
        Stop::Stable => {
            let report = sim.run_until_stable();
            (report, report.reason == StopReason::Stable)
        }
        Stop::AnyHalted => {
            let report = sim.run_until_any_halted();
            (report, report.reason == StopReason::AllHalted)
        }
    };
    let verify_started = Instant::now();
    let ok = reached && verify(&sim);
    RunOutcome {
        ms: ms_since(started),
        verify_ms: ms_since(verify_started),
        effective_steps: report.effective_steps,
        ok,
        stats: Some(sim.stats()),
    }
}

/// Per-layer accumulators of the traced runs.
#[derive(Default)]
struct Layers {
    core_runs: u64,
    sample_ns: u64,
    sample_calls: u64,
    credits: u64,
    apply_ns: u64,
    apply_calls: u64,
    effective: u64,
    merges: u64,
    splits: u64,
    is_stable_ns: u64,
    is_stable_calls: u64,
    node_scans: u64,
    flush_ns: u64,
    new_ms: Vec<f64>,
    pop_ms: Vec<f64>,
    plain_ms: f64,
    traced_ms: f64,
}

/// The traced twin of a core run; returns its `ExecutionStats` (`None` for
/// popproto runs, which are timed as one layer call).
fn run_traced(spec: &RunSpec, layers: &mut Layers) -> Option<ExecutionStats> {
    match spec.proto {
        Proto::Line => Some(traced_core(GlobalLine::new(), spec, Stop::Stable, layers)),
        Proto::Square => Some(traced_core(Square::new(), spec, Stop::Stable, layers)),
        Proto::Counting => Some(traced_core(
            CountingOnALine::new(2),
            spec,
            Stop::AnyHalted,
            layers,
        )),
        Proto::PopCounting => None,
    }
}

fn traced_core<P: Protocol>(
    protocol: P,
    spec: &RunSpec,
    stop: Stop,
    t: &mut Layers,
) -> ExecutionStats {
    let config = config(spec);
    let mut world = World::with_shards(protocol, config.n, config.shards);
    let mut scheduler = UniformScheduler::with_mode(config.seed, config.sampling)
        .with_speculation(config.speculation);
    // Telemetry on the world records the pair-index flush phase (nested inside
    // apply), the same source `RunReport::phases` reads.
    world.set_telemetry(Telemetry::with_capacity(64));
    let mut stats = ExecutionStats::default();
    let mut checked_version = None;
    let mut halted = matches!(stop, Stop::AnyHalted) && world.any_halted();
    while !halted {
        if matches!(stop, Stop::Stable) {
            let version = world.version();
            if checked_version != Some(version) {
                let started = Instant::now();
                let stable = world.is_stable();
                t.is_stable_ns += ns_since(started);
                t.is_stable_calls += 1;
                if stable {
                    break;
                }
                checked_version = Some(version);
            }
        }
        if stats.steps >= config.max_steps {
            break;
        }
        let left = config.max_steps - stats.steps;
        scheduler.prepare(&mut world);
        let started = Instant::now();
        let picked = scheduler.next_interaction_bounded(&world, left);
        let skipped = scheduler.drain_skipped_steps();
        t.sample_ns += ns_since(started);
        t.sample_calls += 1;
        t.credits += skipped + u64::from(picked.is_some());
        stats.steps += skipped;
        stats.skipped_steps += skipped;
        let Some(interaction) = picked else {
            if skipped == 0 {
                break;
            }
            continue;
        };
        let started = Instant::now();
        let outcome = world.apply(&interaction);
        t.apply_ns += ns_since(started);
        t.apply_calls += 1;
        stats.steps += 1;
        stats.effective_steps += u64::from(outcome.effective);
        stats.bonds_activated += u64::from(outcome.bond_activated);
        stats.bonds_deactivated += u64::from(outcome.bond_deactivated);
        stats.merges += u64::from(outcome.merged);
        stats.splits += u64::from(outcome.split);
        halted = matches!(stop, Stop::AnyHalted) && world.any_halted();
    }
    t.core_runs += 1;
    t.effective += stats.effective_steps;
    t.merges += stats.merges;
    t.splits += stats.splits;
    t.node_scans += world.index_stats().node_scans;
    t.flush_ns += world.telemetry().phase_profile().get(Phase::Flush).nanos;
    stats
}

/// Runs the traced twin of `spec` and returns its statistics and wall ms.
fn traced_twin(spec: &RunSpec, layers: &mut Layers) -> (Option<ExecutionStats>, f64) {
    let started = Instant::now();
    let stats = run_traced(spec, layers);
    (stats, ms_since(started))
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn ns_since(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// Runs are timed in chunks of about this many seconds; the mean of the kernel
/// timings at a chunk's two ends scales its timings (see [`crate::calibrate`]).
/// Host speed moves within a second, so the kernel must sample the run often.
const CHUNK_S: f64 = 0.5;

/// Runs `workload` for `seconds` of whole passes and reports the end-to-end
/// metrics (`trace == false`) or the per-layer metrics of a traced run.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setup_s = Vec::new();
    let mut setup_ok = true;
    for _ in 0..crate::SETUP_REPEATS {
        let started = Instant::now();
        setup_ok &= setup(workload);
        let raw = started.elapsed().as_secs_f64();
        setup_s.push(raw * calibrate::scale(calibrate::kernel_s()));
    }
    let mut seeds = SeedStream::new(seed);
    let mut run_ms = Vec::new();
    let mut raw_run_ms = Vec::new();
    let mut window_s = 0.0;
    let mut effective_steps = 0u64;
    let mut attempted = 0u64;
    let mut failed = u64::from(!setup_ok);
    let mut mismatches = 0u64;
    let mut layers = Layers::default();
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    let mut kernel_before = calibrate::kernel_s();
    let mut chunk_started = Instant::now();
    let mut chunk_first = 0;
    'passes: loop {
        let pass = workload.pass(&mut seeds);
        for (i, spec) in pass.iter().enumerate() {
            attempted += 1;
            // A traced twin runs before its plain run every other time, so that
            // neither side always finds the caches warm.
            let early =
                (trace && attempted.is_multiple_of(2)).then(|| traced_twin(spec, &mut layers));
            let plain = run_plain(spec, trace.then_some(&mut layers));
            if !plain.ok {
                failed += 1;
                eprintln!("perfbench: run failed its check: {spec:?}");
            }
            raw_run_ms.push(plain.ms);
            by_kind
                .entry(format!("{:?}-{}", spec.proto, spec.n))
                .or_default()
                .push(plain.ms);
            effective_steps += plain.effective_steps;
            if trace {
                let (traced, traced_ms) = early.unwrap_or_else(|| traced_twin(spec, &mut layers));
                if plain.stats.is_some() {
                    // The twin checks no output, so the check is left out.
                    layers.plain_ms += plain.ms - plain.verify_ms;
                    layers.traced_ms += traced_ms;
                }
                if traced != plain.stats {
                    mismatches += 1;
                    eprintln!(
                        "perfbench: traced loop diverged on {spec:?}: plain {:?}, traced {traced:?}",
                        plain.stats
                    );
                }
            }
            // The window ends on a pass boundary, so every configuration of the
            // workload runs equally often.
            let done = i + 1 == pass.len() && started.elapsed().as_secs_f64() >= seconds;
            if done || chunk_started.elapsed().as_secs_f64() >= CHUNK_S {
                let chunk_s = chunk_started.elapsed().as_secs_f64();
                let kernel_after = calibrate::kernel_s();
                let scale = calibrate::scale((kernel_before + kernel_after) / 2.0);
                kernel_before = kernel_after;
                run_ms.extend(raw_run_ms[chunk_first..].iter().map(|ms| ms * scale));
                chunk_first = raw_run_ms.len();
                window_s += chunk_s * scale;
                chunk_started = Instant::now();
            }
            if done {
                break 'passes;
            }
        }
    }
    let raw_window_s = started.elapsed().as_secs_f64();
    crate::print_by_kind(&by_kind);
    let run_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
    println!(
        "perfbench: {} runs in {raw_window_s:.3} s, failed_ratio {}, run_ms_p90 {}; raw eff_steps_per_s {:.1}, raw run_ms_p50 {:.4}, host scale {:.4}",
        run_ms.len(),
        ratio(failed as f64, attempted as f64),
        if run_ms.len() >= 100 {
            format!("{:.4}", percentile(&run_ms, 0.9).unwrap_or(0.0))
        } else {
            "not reported (fewer than 100 runs)".to_string()
        },
        ratio(effective_steps as f64, raw_run_ms.iter().sum::<f64>() / 1e3),
        median(&raw_run_ms),
        ratio(run_s * 1e3, raw_run_ms.iter().sum()),
    );
    if trace {
        return traced_outcome(&layers, attempted, failed, mismatches);
    }
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("eff_steps_per_s", ratio(effective_steps as f64, run_s)),
            ("run_ms_p50", median(&run_ms)),
            ("runs_per_s", ratio(run_ms.len() as f64, window_s)),
            ("peak_rss_mib", crate::stamp::peak_rss_mib()),
        ],
    }
}

fn traced_outcome(t: &Layers, attempted: u64, failed: u64, mismatches: u64) -> Outcome {
    if mismatches > 0 {
        println!(
            "perfbench: {mismatches} traced runs diverged from their plain twins; no layer numbers"
        );
        return Outcome {
            attempted,
            failed: failed + mismatches,
            metrics: Vec::new(),
        };
    }
    println!(
        "perfbench: index.flush_ms is nested inside world.apply_ns_per_call; world.apply_self_ns_per_call excludes it"
    );
    let runs = t.core_runs as f64;
    let per_run = |x: u64| ratio(x as f64, runs);
    let metrics = vec![
        (
            "scheduler.sample_ns_per_call",
            ratio(t.sample_ns as f64, t.sample_calls as f64),
        ),
        ("scheduler.calls", per_run(t.sample_calls)),
        (
            "scheduler.credits_per_call",
            ratio(t.credits as f64, t.sample_calls as f64),
        ),
        (
            "world.apply_ns_per_call",
            ratio(t.apply_ns as f64, t.apply_calls as f64),
        ),
        (
            "world.apply_self_ns_per_call",
            ratio(
                t.apply_ns.saturating_sub(t.flush_ns) as f64,
                t.apply_calls as f64,
            ),
        ),
        (
            "world.effective_ratio",
            ratio(t.effective as f64, t.apply_calls as f64),
        ),
        ("world.merges", per_run(t.merges)),
        ("world.splits", per_run(t.splits)),
        ("index.is_stable_ns_total", per_run(t.is_stable_ns)),
        ("index.is_stable_calls", per_run(t.is_stable_calls)),
        ("index.node_scans", per_run(t.node_scans)),
        ("index.flush_ms", per_run(t.flush_ns) / 1e6),
        ("simulation.new_ms", mean(&t.new_ms)),
        ("popproto.run_ms", mean(&t.pop_ms)),
        ("trace.overhead_ms", ratio(t.traced_ms - t.plain_ms, runs)),
    ];
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_traced_loop_reproduces_the_plain_runs_statistics() {
        for proto in [Proto::Line, Proto::Square, Proto::Counting] {
            for seed in 1..4 {
                let spec = RunSpec { proto, n: 64, seed };
                let plain = run_plain(&spec, None);
                assert!(plain.ok, "{spec:?} must verify");
                let traced = run_traced(&spec, &mut Layers::default());
                assert_eq!(traced, plain.stats, "{spec:?}");
            }
        }
    }

    #[test]
    fn passes_are_reproducible_from_the_seed() {
        let names = |workload: Workload| {
            let mut seeds = SeedStream::new(42);
            (0..3)
                .flat_map(|_| workload.pass(&mut seeds))
                .map(|spec| format!("{spec:?}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(Workload::SmallN), names(Workload::SmallN));
        assert_eq!(names(Workload::LargeN).len(), 15);
    }
}
