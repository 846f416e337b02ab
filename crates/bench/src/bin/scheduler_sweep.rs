//! The scheduler gate: `GlobalLine`, `Square` and `CountingOnALine` run to completion
//! under the legacy rejection sampler, the adaptive indexed sampler and the
//! geometric-jump sampler (`sharded1`: `SamplingMode::Sharded` with its recorded shard
//! count of 1), on the same seed, and the run fails unless every check below holds.
//!
//! ```text
//! cargo run -p nc-bench --release --bin scheduler_sweep   # CI gate, takes no arguments
//! ```
//!
//! * At n = 256 every mode reaches the protocol's guaranteed outcome (legacy only on
//!   GlobalLine and counting: its full-scan stability checks push Square's step count
//!   towards `Θ(n³)` selections, so Square runs legacy only up to n = 128), and every
//!   finished run's end-of-run checkpoint resumes with its statistics verbatim.
//! * At n = 256 sharded@1 achieves at least the indexed sampler's **effective steps
//!   per wall-clock second** — selections that changed the configuration. The jump
//!   sampler's bulk-credited ineffective selections (see the geometric-jump invariant
//!   in `nc_core::scheduler`) are left out: they cost no work, so counting them would
//!   make the comparison all but vacuous.
//! * The three deterministic adversarial-but-fair schedulers (`nc_core::adversary`:
//!   round-robin, worst-case, eclipse) reach the guaranteed outcome at n = 64, and two
//!   runs of each take the identical trajectory.
//! * The flat-cost gate: sharded@1 seconds per effective step on GlobalLine n = 65536
//!   stay within 2.5× the n = 1024 figure of the same run (best of three runs each; a
//!   ratio, so the host's absolute speed cancels).

use nc_core::scheduler::Scheduler;
use nc_core::{
    EclipseScheduler, RoundRobinScheduler, RunReport, SamplingMode, Simulation, SimulationConfig,
    SnapshotProtocol, StopReason, WorstCaseScheduler,
};
use nc_protocols::counting_line::{final_count, CountingOnALine};
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Line,
    Square,
    Counting,
}

const PROTOS: [Proto; 3] = [Proto::Line, Proto::Square, Proto::Counting];

impl Proto {
    fn name(self) -> &'static str {
        match self {
            Proto::Line => "global-line",
            Proto::Square => "square",
            Proto::Counting => "counting-on-a-line",
        }
    }

    /// Largest population the legacy rejection sampler is run at (see module docs).
    fn legacy_cap(self) -> usize {
        match self {
            Proto::Line => 512,
            Proto::Square => 128,
            Proto::Counting => 1024,
        }
    }
}

/// One gated execution: a sampling mode and its label.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ModeSpec {
    mode: SamplingMode,
    label: &'static str,
}

const MODES: [ModeSpec; 3] = [
    ModeSpec {
        mode: SamplingMode::Legacy,
        label: "legacy",
    },
    ModeSpec {
        mode: SamplingMode::Adaptive,
        label: "indexed",
    },
    ModeSpec {
        mode: SamplingMode::Sharded,
        label: "sharded1",
    },
];

/// The wall-clock and step accounting of one finished run.
struct Run {
    label: &'static str,
    seconds: f64,
    steps: u64,
    effective_steps: u64,
    completed: bool,
}

impl Run {
    fn from_report(label: &'static str, seconds: f64, report: &RunReport, completed: bool) -> Run {
        Run {
            label,
            seconds,
            steps: report.steps,
            effective_steps: report.effective_steps,
            completed,
        }
    }

    /// Effective steps per wall-clock second.
    fn effective_per_sec(&self) -> f64 {
        self.effective_steps as f64 / self.seconds.max(1e-9)
    }

    fn print(&self, proto: Proto, note: &str) {
        eprintln!(
            "gate {:>18} {:>11}: {:>10.3}s {:>14} steps {:>10} effective {:>12.0} effective steps/s completed={}{note}",
            proto.name(),
            self.label,
            self.seconds,
            self.steps,
            self.effective_steps,
            self.effective_per_sec(),
            self.completed
        );
    }
}

/// Checks that the finished run's checkpoint resumes with the statistics verbatim: a
/// coarse end-of-run snapshot-exactness probe on every gated uniform-scheduler run.
fn assert_resumes<P: SnapshotProtocol>(protocol: P, sim: &Simulation<P>) {
    let snapshot = sim.checkpoint().expect("checkpoint");
    let resumed = Simulation::resume(protocol, &snapshot).expect("end-of-run snapshot resumes");
    assert_eq!(
        resumed.stats(),
        sim.stats(),
        "a resumed end-of-run snapshot must carry the statistics verbatim"
    );
}

/// Step ceiling of the uniform-scheduler runs. The jump sampler credits ineffective
/// selections in bulk — GlobalLine n = 65536 needs more than 2·10⁹ — so the ceiling
/// only exists to turn a run that never stops into a failed run instead of a hang.
const MAX_STEPS: u64 = 1 << 50;

/// Runs one protocol to its completion condition and checks the guaranteed outcome:
/// the spanning line, the ⌊√n⌋ square for perfect squares, or a halted counting leader.
/// The clock stops before the checkpoint→resume probe.
fn run_one(proto: Proto, n: usize, seed: u64, spec: ModeSpec) -> Run {
    let config = SimulationConfig::new(n)
        .with_seed(seed)
        .with_max_steps(MAX_STEPS)
        .with_sampling(spec.mode);
    let started = Instant::now();
    let (report, completed, seconds) = match proto {
        Proto::Line => {
            let mut sim = Simulation::new(GlobalLine::new(), config);
            let report = sim.run_until_stable();
            let ok = report.reason == StopReason::Stable;
            assert!(
                !ok || sim.output_shape().is_line(n),
                "a stable GlobalLine run must produce the spanning line"
            );
            let seconds = started.elapsed().as_secs_f64();
            assert_resumes(GlobalLine::new(), &sim);
            (report, ok, seconds)
        }
        Proto::Square => {
            let mut sim = Simulation::new(Square::new(), config);
            let report = sim.run_until_stable();
            let ok = report.reason == StopReason::Stable;
            let d = (n as f64).sqrt() as u32;
            assert!(
                !ok || (d as usize * d as usize != n) || sim.output_shape().is_full_square(d),
                "a stable Square run on a perfect-square population must produce the square"
            );
            let seconds = started.elapsed().as_secs_f64();
            assert_resumes(Square::new(), &sim);
            (report, ok, seconds)
        }
        Proto::Counting => {
            let mut sim = Simulation::new(CountingOnALine::new(2), config);
            let report = sim.run_until_any_halted();
            let ok = report.reason == StopReason::AllHalted;
            assert!(
                !ok || final_count(&sim).is_some(),
                "a halted counting run must leave a halted leader"
            );
            let seconds = started.elapsed().as_secs_f64();
            assert_resumes(CountingOnALine::new(2), &sim);
            (report, ok, seconds)
        }
    };
    Run::from_report(spec.label, seconds, &report, completed)
}

/// The adversarial-but-fair schedulers (see `nc_core::adversary`): deterministic worst
/// cases, not samplers, so they are checked on completion and determinism rather than
/// throughput. Their population stays small because their pair views re-enumerate all
/// permissible pairs on every world change.
const ADVERSARIES: [&str; 3] = ["round-robin", "worst-case", "eclipse"];
const ADVERSARY_N: usize = 64;
const ADVERSARY_PATIENCE: u64 = 8;

/// Runs one protocol to completion under a named adversarial scheduler and checks the
/// same guaranteed outcome as `run_one`. Checkpoints are only offered for the uniform
/// scheduler, so these runs carry no resume probe.
fn run_adversary(proto: Proto, n: usize, adversary: &'static str) -> Run {
    fn go<P: SnapshotProtocol, S: Scheduler>(
        protocol: P,
        n: usize,
        halt: bool,
        scheduler: S,
        check: impl FnOnce(&nc_core::World<P>) -> bool,
    ) -> (RunReport, bool) {
        let config = SimulationConfig::new(n).with_max_steps(2_000_000_000);
        let mut sim = Simulation::with_scheduler(protocol, config, scheduler);
        let report = if halt {
            sim.run_until_any_halted()
        } else {
            sim.run_until_stable()
        };
        let wanted = if halt {
            report.reason == StopReason::AllHalted
        } else {
            report.reason == StopReason::Stable
        };
        let ok = wanted && check(sim.world());
        (report, ok)
    }
    let started = Instant::now();
    macro_rules! go_proto {
        ($sched:expr) => {
            match proto {
                Proto::Line => go(GlobalLine::new(), n, false, $sched, |w| {
                    w.output_shape().is_line(n)
                }),
                Proto::Square => {
                    let d = (n as f64).sqrt() as u32;
                    go(Square::new(), n, false, $sched, move |w| {
                        d as usize * d as usize != n || w.output_shape().is_full_square(d)
                    })
                }
                Proto::Counting => go(CountingOnALine::new(2), n, true, $sched, |w| w.any_halted()),
            }
        };
    }
    let (report, completed) = match adversary {
        "round-robin" => go_proto!(RoundRobinScheduler::new()),
        "worst-case" => go_proto!(WorstCaseScheduler::new(ADVERSARY_PATIENCE)),
        "eclipse" => go_proto!(EclipseScheduler::against_leader(ADVERSARY_PATIENCE)),
        other => panic!("unknown adversary {other}"),
    };
    Run::from_report(
        adversary,
        started.elapsed().as_secs_f64(),
        &report,
        completed,
    )
}

/// The flat-cost gate's sizes and bound: sharded@1 seconds per effective step on
/// GlobalLine at `FLAT_LARGE_N` must stay within `FLAT_MAX_RATIO`× the `FLAT_SMALL_N`
/// figure measured in the same process.
const FLAT_SMALL_N: usize = 1024;
const FLAT_LARGE_N: usize = 65_536;
const FLAT_MAX_RATIO: f64 = 2.5;

/// Best-of-three sharded@1 seconds per effective step (the minimum filters out
/// scheduling hiccups of a shared runner, which only ever add time).
fn secs_per_effective_step(proto: Proto, n: usize, seed: u64) -> f64 {
    (0..3)
        .map(|_| {
            let run = run_one(proto, n, seed, MODES[2]);
            assert!(
                run.completed,
                "{} n={n} sharded1 did not complete",
                proto.name()
            );
            run.seconds / run.effective_steps.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs every check of the module docs and returns the failures. The stable output
/// shape of GlobalLine/Square is unique, so every mode must reach it (checked inside
/// `run_one`); counting's final tape length is schedule-dependent, so only the halting
/// guarantee is compared.
fn gate(seed: u64) -> Vec<String> {
    let n = 256;
    let mut failures = Vec::new();
    for proto in PROTOS {
        let mut indexed = None;
        for mode in MODES {
            if mode.mode == SamplingMode::Legacy && n > proto.legacy_cap() {
                continue;
            }
            let run = run_one(proto, n, seed, mode);
            run.print(proto, "");
            if !run.completed {
                failures.push(format!("{} {} did not complete", proto.name(), run.label));
            }
            match mode.mode {
                SamplingMode::Adaptive => indexed = Some(run.effective_per_sec()),
                SamplingMode::Sharded => {
                    let indexed = indexed.expect("the indexed run precedes sharded1");
                    if run.effective_per_sec() < indexed {
                        failures.push(format!(
                            "{}: sharded@1 {:.0} effective steps/s slower than indexed {:.0}",
                            proto.name(),
                            run.effective_per_sec(),
                            indexed
                        ));
                    }
                }
                SamplingMode::Legacy => {}
            }
        }
    }
    // Adversarial-but-fair schedulers: every protocol must still reach its guaranteed
    // outcome under each deterministic adversary, and two runs of the same adversary
    // must take the identical trajectory (they consume no randomness).
    let note = format!(" (adversary, n={ADVERSARY_N})");
    for proto in PROTOS {
        for adversary in ADVERSARIES {
            let run = run_adversary(proto, ADVERSARY_N, adversary);
            let again = run_adversary(proto, ADVERSARY_N, adversary);
            run.print(proto, &note);
            if !run.completed {
                failures.push(format!(
                    "{} under the {adversary} adversary did not complete",
                    proto.name()
                ));
            }
            if (run.steps, run.effective_steps) != (again.steps, again.effective_steps) {
                failures.push(format!(
                    "{} under the {adversary} adversary is not deterministic ({} vs {} steps)",
                    proto.name(),
                    run.steps,
                    again.steps
                ));
            }
        }
    }
    let small = secs_per_effective_step(Proto::Line, FLAT_SMALL_N, seed);
    let large = secs_per_effective_step(Proto::Line, FLAT_LARGE_N, seed);
    let ratio = large / small;
    eprintln!(
        "gate flat cost: global-line sharded1 {:.3} µs/effective step at n = \
         {FLAT_SMALL_N}, {:.3} at n = {FLAT_LARGE_N}: {ratio:.2}x (bound {FLAT_MAX_RATIO}x)",
        small * 1e6,
        large * 1e6
    );
    if ratio > FLAT_MAX_RATIO {
        failures.push(format!(
            "global-line: sharded@1 cost per effective step grows {ratio:.2}x from n = \
             {FLAT_SMALL_N} to n = {FLAT_LARGE_N} (bound {FLAT_MAX_RATIO}x)"
        ));
    }
    failures
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("scheduler_sweep takes no arguments");
        return ExitCode::from(2);
    }
    let failures = gate(1);
    assert!(failures.is_empty(), "gate failures: {failures:?}");
    eprintln!(
        "gate ok: sharded@1 ≥ indexed in effective steps/s at n = 256, all modes completed \
         and resumed their end-of-run checkpoints, adversarial schedulers deterministic \
         and fair at n = {ADVERSARY_N}, per-step cost flat in n"
    );
    ExitCode::SUCCESS
}
