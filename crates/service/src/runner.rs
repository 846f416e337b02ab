//! Driving one job in bounded slices, with checkpoints at every slice boundary.
//!
//! A [`JobRunner`] owns a running [`Simulation`] of one of the three snapshot-capable
//! reference protocols, type-erased behind an enum so the queue and workers never
//! carry protocol type parameters. Workers call [`JobRunner::advance`] with a slice
//! allowance of *drawn selections*; between slices they checkpoint
//! ([`JobRunner::checkpoint_bytes`]) and park the job, so no single job starves the
//! queue and a crashed worker loses at most one slice of progress.
//!
//! # The slice unit
//!
//! A slice allowance counts the selections the scheduler draws one by one
//! ([`ExecutionStats::drawn_selections`](nc_core::ExecutionStats::drawn_selections),
//! `steps − skipped_steps`), not the steps it credits. Under the jump sampler that is
//! one per applied interaction, however many ineffective selections a geometric jump
//! credits, so a slice costs about the same wall clock at any stage of a
//! construction. Under adaptive and legacy sampling every step is drawn, and the unit
//! is the step. The lifetime `step_budget` stays in credited steps.
//!
//! # Determinism across slicing and crash/resume
//!
//! A slice ends right after an applied selection, so it never cuts a geometric jump;
//! only the lifetime budget can, and the scheduler continues such a jump exactly. A
//! sharded job's report is therefore a function of the spec alone, whatever the
//! slice length. In every mode a run that crashes and resumes from its last
//! checkpoint starts the same slice from the same state as the uninterrupted run,
//! drives the same byte-identical trajectory (the PR 5 snapshot guarantee), and
//! lands on the same [`JobReport`] — pinned by the crash-recovery suite and the
//! `--smoke` gate.

use nc_core::snapshot::Snapshot;
use nc_core::{Simulation, SimulationConfig, StopReason};
use nc_protocols::counting_line::{final_count, CountingOnALine};
use nc_protocols::line::GlobalLine;
use nc_protocols::square::Square;

use crate::job::{JobSpec, ProtocolKind};

/// What one bounded slice of execution produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceOutcome {
    /// The job reached its protocol's stopping condition. `completed` is whether the
    /// guaranteed outcome (spanning line, full square, halted counting leader) holds.
    Finished {
        /// Whether the protocol's guaranteed outcome was verified.
        completed: bool,
    },
    /// The lifetime step budget ran out before the stopping condition.
    BudgetExhausted,
    /// The slice allowance was spent; the job should be checkpointed and requeued.
    Yielded,
}

/// A type-erased running job.
pub enum JobRunner {
    /// A `GlobalLine` run (to stability).
    Line(Simulation<GlobalLine>),
    /// A `Square` run (to stability).
    Square(Simulation<Square>),
    /// A `CountingOnALine` run (until the leader halts).
    Counting(Simulation<CountingOnALine>),
}

impl JobRunner {
    /// Starts a fresh run from a spec.
    #[must_use]
    pub fn start(spec: &JobSpec) -> JobRunner {
        let config = SimulationConfig::new(spec.n)
            .with_seed(spec.seed)
            .with_sampling(spec.mode)
            .with_shards(spec.shards);
        match spec.protocol {
            ProtocolKind::Line => JobRunner::Line(Simulation::new(GlobalLine::new(), config)),
            ProtocolKind::Square => JobRunner::Square(Simulation::new(Square::new(), config)),
            ProtocolKind::Counting => {
                JobRunner::Counting(Simulation::new(CountingOnALine::new(2), config))
            }
        }
    }

    /// Rebuilds a run from checkpoint bytes taken by [`JobRunner::checkpoint_bytes`].
    ///
    /// # Errors
    /// The snapshot layer's typed errors (corrupt, truncated, protocol mismatch).
    pub fn resume(spec: &JobSpec, bytes: &[u8]) -> nc_core::Result<JobRunner> {
        let snapshot = Snapshot::from_bytes(bytes.to_vec())?;
        Ok(match spec.protocol {
            ProtocolKind::Line => {
                JobRunner::Line(Simulation::resume(GlobalLine::new(), &snapshot)?)
            }
            ProtocolKind::Square => {
                JobRunner::Square(Simulation::resume(Square::new(), &snapshot)?)
            }
            ProtocolKind::Counting => {
                JobRunner::Counting(Simulation::resume(CountingOnALine::new(2), &snapshot)?)
            }
        })
    }

    /// Serializes the run's full execution state (the PR 5 snapshot format).
    ///
    /// # Errors
    /// The snapshot layer's typed errors; never panics.
    pub fn checkpoint_bytes(&self) -> nc_core::Result<Vec<u8>> {
        let snapshot = match self {
            JobRunner::Line(sim) => sim.checkpoint()?,
            JobRunner::Square(sim) => sim.checkpoint()?,
            JobRunner::Counting(sim) => sim.checkpoint()?,
        };
        Ok(snapshot.into_bytes())
    }

    /// Lifetime execution statistics (survive checkpoint/resume).
    #[must_use]
    pub fn stats(&self) -> nc_core::ExecutionStats {
        match self {
            JobRunner::Line(sim) => sim.stats(),
            JobRunner::Square(sim) => sim.stats(),
            JobRunner::Counting(sim) => sim.stats(),
        }
    }

    /// Runs one slice: up to `slice` drawn selections, and no more scheduler steps
    /// than remain of the job's lifetime `step_budget`. A slice starts and ends
    /// between applied selections, so resumed runs cross the same slice boundaries
    /// as uninterrupted ones (see the module docs).
    pub fn advance(&mut self, slice: u64, step_budget: u64) -> SliceOutcome {
        let lifetime = self.stats().steps;
        if lifetime >= step_budget {
            return SliceOutcome::BudgetExhausted;
        }
        let budget_left = step_budget - lifetime;
        let report = match self {
            JobRunner::Line(sim) => {
                sim.config_mut().max_steps = budget_left;
                sim.run_until_stable_within(slice)
            }
            JobRunner::Square(sim) => {
                sim.config_mut().max_steps = budget_left;
                sim.run_until_stable_within(slice)
            }
            JobRunner::Counting(sim) => {
                sim.config_mut().max_steps = budget_left;
                sim.run_until_within(slice, |w| w.any_halted())
            }
        };
        match report.reason {
            StopReason::StepBudget => {
                if self.stats().steps >= step_budget {
                    SliceOutcome::BudgetExhausted
                } else {
                    SliceOutcome::Yielded
                }
            }
            // Stability, the counting predicate (a halted node), or a dry scheduler
            // (single-node population, which can never progress further).
            StopReason::Stable
            | StopReason::Predicate
            | StopReason::AllHalted
            | StopReason::NoInteraction => SliceOutcome::Finished {
                completed: self.outcome_holds(),
            },
        }
    }

    /// Whether the protocol's guaranteed outcome holds in the current configuration:
    /// the spanning line, the ⌊√n⌋ full square on perfect-square populations, or a
    /// halted counting leader — the same checks the `scheduler_sweep` rows assert.
    #[must_use]
    pub fn outcome_holds(&self) -> bool {
        match self {
            JobRunner::Line(sim) => {
                let n = sim.config().n;
                sim.output_shape().is_line(n)
            }
            JobRunner::Square(sim) => {
                let n = sim.config().n;
                let d = (n as f64).sqrt() as u32;
                // Non-perfect-square populations have no guaranteed shape; stability
                // itself is the outcome.
                d as usize * d as usize != n || sim.output_shape().is_full_square(d)
            }
            JobRunner::Counting(sim) => final_count(sim).is_some(),
        }
    }
}

/// The deterministic end-of-job report: every field is a pure function of the spec
/// and the executed trajectory, so a crashed-and-recovered run serializes to bytes
/// **identical** to an uncrashed run's (wall-clock metrics live in the stats tier's
/// sweep rows instead, which make no such promise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobReport {
    /// Protocol name.
    pub protocol: String,
    /// Population size.
    pub n: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// Sampling-mode label (sweep-row convention).
    pub mode: String,
    /// Shard count.
    pub shards: usize,
    /// Lifetime scheduler steps.
    pub steps: u64,
    /// Lifetime effective steps.
    pub effective_steps: u64,
    /// Lifetime bulk-credited ineffective selections.
    pub skipped_steps: u64,
    /// Whether the protocol's guaranteed outcome was verified.
    pub completed: bool,
}

impl JobReport {
    /// Builds the report from a finished runner.
    #[must_use]
    pub fn from_runner(spec: &JobSpec, runner: &JobRunner, completed: bool) -> JobReport {
        let stats = runner.stats();
        JobReport {
            protocol: spec.protocol.name().to_string(),
            n: spec.n,
            seed: spec.seed,
            mode: spec.mode_label(),
            shards: spec.shards,
            steps: stats.steps,
            effective_steps: stats.effective_steps,
            skipped_steps: stats.skipped_steps,
            completed,
        }
    }

    /// The report as one JSON object (fixed field order; deterministic bytes).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"protocol\": \"{}\", \"n\": {}, \"seed\": {}, \"mode\": \"{}\", \"shards\": {}, \"steps\": {}, \"effective_steps\": {}, \"skipped_steps\": {}, \"completed\": {}}}",
            self.protocol,
            self.n,
            self.seed,
            self.mode,
            self.shards,
            self.steps,
            self.effective_steps,
            self.skipped_steps,
            self.completed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ProtocolKind};
    use nc_core::SamplingMode;

    /// The report of one unsliced engine run of `spec`: the protocol driven straight
    /// to its stopping condition by the `Simulation` API.
    fn engine_report(spec: &JobSpec) -> String {
        let mut runner = JobRunner::start(spec);
        let report = match &mut runner {
            JobRunner::Line(sim) => sim.run_until_stable(),
            JobRunner::Square(sim) => sim.run_until_stable(),
            JobRunner::Counting(sim) => sim.run_until_any_halted(),
        };
        assert!(report.condition_met() && runner.outcome_holds());
        JobReport::from_runner(spec, &runner, true).to_json()
    }

    /// Runs `spec` in slices of `slice` drawn selections, with a checkpoint round
    /// trip between slices; returns the finished runner, its slice count and whether
    /// the outcome was verified.
    fn sliced_run(spec: &JobSpec, slice: u64, label: &str) -> (JobRunner, u64, bool) {
        let mut runner = JobRunner::start(spec);
        let mut slices = 1;
        loop {
            match runner.advance(slice, spec.step_budget) {
                SliceOutcome::Finished { completed } => return (runner, slices, completed),
                SliceOutcome::Yielded => {
                    let bytes = runner.checkpoint_bytes().expect("checkpoint");
                    runner = JobRunner::resume(spec, &bytes).expect("resume");
                    slices += 1;
                }
                SliceOutcome::BudgetExhausted => panic!("{label}: budget"),
            }
        }
    }

    #[test]
    fn sliced_execution_matches_an_unsliced_run() {
        // Every protocol, adaptive and jump sampling: slices of 1, 7 and 50 000 drawn
        // selections and an unbounded one, with a checkpoint round trip between
        // slices, all serve the report of one engine run.
        for (protocol, n) in [
            (ProtocolKind::Line, 16),
            (ProtocolKind::Square, 9),
            (ProtocolKind::Counting, 8),
        ] {
            for mode in [SamplingMode::Adaptive, SamplingMode::Sharded] {
                let mut spec = JobSpec::new(protocol, n);
                spec.mode = mode;
                let reference = engine_report(&spec);
                for slice in [1, 7, 50_000, u64::MAX] {
                    let label = format!("{protocol:?} {mode:?} slice={slice}");
                    let (runner, slices, completed) = sliced_run(&spec, slice, &label);
                    // Every slice but the last draws exactly `slice` selections.
                    assert_eq!(
                        slices,
                        runner.stats().drawn_selections().div_ceil(slice),
                        "{label}: slices"
                    );
                    assert_eq!(
                        JobReport::from_runner(&spec, &runner, completed).to_json(),
                        reference,
                        "{label}: slicing plus checkpoint round trips must not change the report"
                    );
                }
            }
        }
    }

    #[test]
    fn a_recorded_shard_count_is_echoed_and_changes_nothing_else() {
        let mut spec = JobSpec::new(ProtocolKind::Square, 9);
        spec.mode = SamplingMode::Sharded;
        let one = engine_report(&spec);
        spec.shards = 4;
        let (runner, _, completed) = sliced_run(&spec, 7, "shards=4");
        // The value survives every checkpoint round trip in the snapshot's config.
        let JobRunner::Square(sim) = &runner else {
            panic!("a square spec runs a square")
        };
        assert_eq!(sim.config().shards, 4);
        let report = JobReport::from_runner(&spec, &runner, completed);
        assert_eq!((report.shards, report.mode.as_str()), (4, "sharded4"));
        let echoed_as_one = JobReport {
            shards: 1,
            mode: "sharded1".to_string(),
            ..report
        };
        assert_eq!(echoed_as_one.to_json(), one);
    }

    #[test]
    fn budget_exhaustion_is_reported_not_panicked() {
        let mut spec = JobSpec::new(ProtocolKind::Line, 64);
        spec.step_budget = 10;
        let mut runner = JobRunner::start(&spec);
        assert_eq!(
            runner.advance(64, spec.step_budget),
            SliceOutcome::BudgetExhausted
        );
        assert!(runner.stats().steps <= 10);
    }

    #[test]
    fn counting_runs_to_a_halted_leader() {
        let spec = JobSpec::new(ProtocolKind::Counting, 8);
        let mut runner = JobRunner::start(&spec);
        loop {
            match runner.advance(512, spec.step_budget) {
                SliceOutcome::Finished { completed } => {
                    assert!(completed, "the halted run must leave a halted leader");
                    break;
                }
                SliceOutcome::Yielded => {}
                SliceOutcome::BudgetExhausted => panic!("budget must suffice"),
            }
        }
    }

    #[test]
    fn report_json_is_deterministic() {
        let spec = JobSpec::new(ProtocolKind::Square, 9);
        let mut a = JobRunner::start(&spec);
        let mut b = JobRunner::start(&spec);
        while !matches!(
            a.advance(128, spec.step_budget),
            SliceOutcome::Finished { .. }
        ) {}
        while !matches!(
            b.advance(32, spec.step_budget),
            SliceOutcome::Finished { .. }
        ) {}
        assert_eq!(
            JobReport::from_runner(&spec, &a, a.outcome_holds()).to_json(),
            JobReport::from_runner(&spec, &b, b.outcome_holds()).to_json(),
            "different slice lengths must serialize identical reports"
        );
    }
}
